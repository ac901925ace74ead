"""
Regression intervals calibrated on interval-censored labels
===========================================================

The calibration responses are known only up to an interval. Calibrating on
the distance to the interval still yields valid bands; calibrating on the
far endpoint gives strong validity at the cost of weak-label-sized bands.
"""
import numpy as np

from weakconformal.conformal import conformal_threshold
from weakconformal.regression import interval_block_scores, interval_predict
from weakconformal.synth import fit_ols, gen_regression, three_way_split

data = gen_regression(n=3000, d=3, mu=0.25, seed=5)
tr, ca, te = three_way_split(3000, (0.3, 0.2, 0.5))
print(f"interval labels: mean length {np.mean(data.hi - data.lo):.3f}")

# fit on the training block using interval midpoints as pseudo-responses
mid = (data.lo + data.hi) / 2
beta_hat = fit_ols(data.x[tr], mid[tr])
pred_ca = data.x[ca] @ beta_hat
pred_te = data.x[te] @ beta_hat

# strong |y_hat - y| (the supervised baseline), weak = distance to the
# interval, pessimistic = distance to its far endpoint
strong_scores, weak_scores, pess_scores = interval_block_scores(
    pred_ca, data.y[ca], data.lo[ca], data.hi[ca]
)

ALPHA = 0.1
rows = [
    ("weak (hits the interval)", conformal_threshold(weak_scores, ALPHA)),
    ("strong (oracle labels)", conformal_threshold(strong_scores, ALPHA)),
    ("pessimistic (far endpoint)", conformal_threshold(pess_scores, ALPHA)),
]
for name, t in rows:
    bands = [interval_predict(p, t) for p in pred_te]
    lo, hi = np.array([[b.lo, b.hi] for b in bands]).T
    cov = np.mean((lo <= data.y[te]) & (data.y[te] <= hi))
    wcov = np.mean((lo <= data.hi[te]) & (data.lo[te] <= hi))
    width = np.mean(hi - lo)
    print(f"{name:28s} half-width {t.value:.3f}  strong cov {cov:.3f}  "
          f"weak cov {wcov:.3f}  width {width:.3f}")

# the weak threshold reads low because scores measure distance-to-interval;
# the pessimistic one is strongly valid from weak data alone, but its width
# can never undercut the intervals it was calibrated on
