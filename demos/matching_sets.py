"""
Confidence sets over bipartite matchings from partially matched data
====================================================================

Each record is a cost matrix whose true assignment is planted; supervision
reveals only a few of the matched pairs. Conformal calibration on the
partial scores still produces valid sets of assignments.
"""

from weakconformal.conformal import conformal_threshold
from weakconformal.matching import (
    MatchingProblem,
    hungarian,
    matching_block_scores,
    min_matching_cost,
)
from weakconformal.mbest import enumerate_until
from weakconformal.synth import gen_matching

K = 4
data = gen_matching(n=1200, k=K, noise=1.0, seed=11)
print("first record: planted assignment", data.y[0],
      "weak label reveals pairs", data.weak[0].pairs)

# the solver recovers the cheapest assignment; with noise it can disagree
# with the planted truth, which is exactly why sets are needed
perm, cost = hungarian(data.costs[0])
print("cheapest assignment", tuple(perm), f"cost {cost:.3f}")

# translated scores: cost of an assignment minus the record's minimum cost,
# so 0 means "the model's favourite" on every record; the weak score is the
# cheapest assignment that keeps the revealed pairs


def scores(block):
    strong, weak, _ = matching_block_scores(
        data.costs[block], data.planted[block], data.revealed[block], keep=1
    )
    return strong, weak


strong_cal, weak_cal = scores(slice(0, 600))
strong_te, weak_te = scores(slice(600, 1200))

t_weak = conformal_threshold(weak_cal, 0.1).value
t_strong = conformal_threshold(strong_cal, 0.1).value
print(f"\nthresholds: weak {t_weak:.3f}  strong {t_strong:.3f}")

# materialize one test record's confidence set by best-first enumeration
i = 605
problem = MatchingProblem(data.costs[i], offset=min_matching_cost(data.costs[i]))
level_set = enumerate_until(problem, t_weak, cap=50)
print(f"record {i}: {len(level_set.configs)} assignments in the weak-level set"
      f" (truncated: {level_set.truncated})")
print("  contains the planted truth:", tuple(data.y[i]) in set(level_set.configs))

# coverage over the whole test block
for name, t in [("weak", t_weak), ("strong", t_strong)]:
    cov = (strong_te <= t).mean()
    wcov = (weak_te <= t).mean()
    print(f"{name:6s} calibration: strong coverage {cov:.3f}  weak coverage {wcov:.3f}")
