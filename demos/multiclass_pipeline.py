"""
Weakly supervised conformal classification, end to end
=======================================================

A full pipeline on synthetic data: the calibration split carries only weak
labels (sets guaranteed to contain the truth), yet the resulting prediction
sets hit the target weak-coverage level exactly, and they are never larger
than what fully supervised calibration would give.
"""
import numpy as np

from weakconformal.conformal import conformal_threshold, set_block_scores
from weakconformal.synth import (
    cumulative_probability_scores,
    gen_multiclass,
    multinomial_loss_grad,
    predict_class_probs,
    three_way_split,
    train_multinomial_logistic,
)

ALPHA = 0.1
K = 8

# 1. draw weak multiclass data: Y is the argmin of noisy class scores, the
#    weak set W collects every label whose score fell below a random cut
data = gen_multiclass(n=6000, k=K, d=2, sigma=1.0, seed=7)
tr, ca, te = three_way_split(6000, (0.3, 0.2, 0.5))
sizes = data.member.sum(axis=1)  # (n, k) weak-set mask: label j is in W_i
print(f"weak-set sizes: mean {sizes.mean():.2f}, max {sizes.max()}")

# 2. fit a softmax classifier on the training third (strong labels there)
weights = train_multinomial_logistic(data.x[tr], data.y[tr], K)
xb_tr = np.column_stack([data.x[tr], np.ones(len(data.x[tr]))])  # bias column last
loss_before, _ = multinomial_loss_grad(np.zeros_like(weights), xb_tr, data.y[tr])
loss_after, _ = multinomial_loss_grad(weights, xb_tr, data.y[tr])
print(f"trainer loss {loss_before:.3f} -> {loss_after:.3f}")

# 3. turn class probabilities into conformity scores (lower = more plausible)
scores_ca = cumulative_probability_scores(predict_class_probs(weights, data.x[ca]))
scores_te = cumulative_probability_scores(predict_class_probs(weights, data.x[te]))

# 4. calibrate two ways on the SAME score function:
#    weak:   min over the weak set (needs no true labels)
#    strong: score at the true label (the supervised baseline)
strong_scores, weak_scores, _ = set_block_scores(scores_ca, data.y[ca], data.member[ca])
t_weak = conformal_threshold(weak_scores, ALPHA)
t_strong = conformal_threshold(strong_scores, ALPHA)
print(f"weak threshold {t_weak.value:.4f} <= strong threshold {t_strong.value:.4f}")

# 5. evaluate both on the held-out test block
for name, t in [("weak-calibrated", t_weak), ("strong-calibrated", t_strong)]:
    sets = scores_te <= t.value
    y_te = data.y[te]
    strong_cov = sets[np.arange(sets.shape[0]), y_te].mean()
    weak_cov = (sets & data.member[te]).any(axis=1).mean()
    print(f"{name:18s} strong coverage {strong_cov:.3f}  "
          f"weak coverage {weak_cov:.3f}  avg size {sets.sum(axis=1).mean():.2f}")

# weak calibration guarantees weak coverage ~ 1 - ALPHA; when the score noise
# is large it does so with visibly smaller sets than the supervised baseline
