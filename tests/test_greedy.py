import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weakconformal import (
    DiscreteWeakDistribution,
    GreedySequence,
    Structure,
    check_structure,
    greedy_sequence,
    greedy_set,
    label_independent_nested_scores,
    label_independent_sequence,
    marginal_allocation,
    nested_score,
    nested_score_vector,
    set_from_sequence,
    size_profile,
    wolsey_constant,
)

# Three-label distribution used for the pinned golden values below:
# {0,1}: .3, {0,2}: .25, {1}: .2, {2}: .15, {0}: .1
GOLDEN_ATOMS = [((0, 1), 0.3), ((0, 2), 0.25), ((1,), 0.2), ((2,), 0.15), ((0,), 0.1)]


@pytest.fixture
def golden_dist():
    return DiscreteWeakDistribution.from_sets(3, GOLDEN_ATOMS)


def test_golden_greedy_sequence(golden_dist):
    seq = greedy_sequence(golden_dist)
    assert seq.order == (0, 1, 2)
    assert abs(seq.cum_coverage[0] - 0.65) < 1e-12
    assert abs(seq.cum_coverage[1] - 0.85) < 1e-12
    assert abs(seq.cum_coverage[2] - 1.0) < 1e-12


def test_golden_randomized_set_at_ninety(golden_dist):
    rs = greedy_set(golden_dist, 0.9)
    assert rs.inner == frozenset({0, 1})
    assert rs.outer == frozenset({0, 1, 2})
    assert abs(rs.t - 1.0 / 3.0) < 1e-12
    assert rs.realize(0.2) == frozenset({0, 1, 2})
    assert rs.realize(1.0 / 3.0) == frozenset({0, 1})
    assert rs.realize(0.9) == frozenset({0, 1})


def test_golden_brute_force_optimum(golden_dist):
    prof = size_profile(golden_dist)
    value, mixture = prof.optimal_mixture(0.9)
    assert abs(value - 2.0) < 1e-12
    assert mixture == ((frozenset({1, 2}), 1.0),)


def test_brute_force_optimum_realigns_stated_claim(golden_dist):
    # At level 0.85 the best deterministic pair {1,2} covers 0.9 and the
    # optimum is a mixture of {0} and {1,2} with expected size 1.8.
    prof = size_profile(golden_dist)
    value, mixture = prof.optimal_mixture(0.85)
    assert value == pytest.approx(1.8, abs=1e-9)
    sets = {s: w for s, w in mixture}
    assert set(sets) == {frozenset({0}), frozenset({1, 2})}
    assert sets[frozenset({0})] == pytest.approx(0.2, abs=1e-9)


def test_golden_wolsey_constant(golden_dist):
    # exhaustive increment table gives min(18, 8/3, 13/3) = 8/3
    assert wolsey_constant(golden_dist, 0.9) == pytest.approx(8.0 / 3.0, abs=1e-12)


def test_wolsey_singletons_is_one():
    dist = DiscreteWeakDistribution.from_sets(
        4, [((i,), 0.25) for i in range(4)]
    )
    for eta in (0.2, 0.5, 0.8, 0.99):
        assert wolsey_constant(dist, eta) == pytest.approx(1.0)


def test_greedy_tie_breaks_toward_smallest_label():
    dist = DiscreteWeakDistribution.from_sets(2, [((0,), 0.5), ((1,), 0.5)])
    assert greedy_sequence(dist).order == (0, 1)


def test_exact_hit_takes_outer_deterministically():
    dist = DiscreteWeakDistribution.from_sets(
        4, [((i,), 0.25) for i in range(4)]
    )
    rs = set_from_sequence(greedy_sequence(dist), 0.5)
    assert rs.t == 1.0
    assert rs.outer == frozenset({0, 1})
    assert rs.expected_size == pytest.approx(2.0)


def test_low_eta_yields_randomized_singleton(golden_dist):
    rs = greedy_set(golden_dist, 0.325)
    assert rs.inner == frozenset()
    assert rs.outer == frozenset({0})
    assert rs.t == pytest.approx(0.5)  # 0.325 / 0.65
    assert rs.realize(0.9) == frozenset()


def _random_dist(rng, k):
    m = int(rng.integers(1, 2 * k))
    seen = {}
    for _ in range(m):
        size = int(rng.integers(1, k + 1))
        s = tuple(sorted(int(v) for v in rng.choice(k, size=size, replace=False)))
        seen[s] = seen.get(s, 0.0) + 1.0
    total = sum(seen.values())
    return DiscreteWeakDistribution.from_sets(
        k, [(s, v / total) for s, v in seen.items()]
    )


@st.composite
def _weak_dists(draw, max_k=8):
    """Distributions over k <= max_k labels. Dyadic ones hold probabilities
    in multiples of 1/32, so every coverage sum is exact and equal coverages
    tie exactly; the others hold integer weights over their total."""
    k = draw(st.integers(1, max_k), label="k")
    masks = draw(
        st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=12, unique=True),
        label="masks",
    )
    if draw(st.booleans(), label="dyadic"):
        cuts = draw(
            st.lists(st.integers(1, 31), min_size=len(masks) - 1, max_size=len(masks) - 1,
                     unique=True),
            label="cuts",
        )
        probs = np.diff([0, *sorted(cuts), 32]) / 32
    else:
        weights = draw(st.lists(st.integers(1, 60), min_size=len(masks), max_size=len(masks)),
                       label="weights")
        probs = np.array(weights) / sum(weights)
    return DiscreteWeakDistribution(k, tuple(masks), tuple(probs.tolist()))


@settings(max_examples=200, deadline=None)
@given(dist=_weak_dists(), eta=st.floats(0.01, 0.999))
def test_coverage_exactness_identity(dist, eta):
    # E_u[P(W hits realized set)] must equal eta for any dist and eta
    rs = set_from_sequence(greedy_sequence(dist), eta)
    expected = rs.t * dist.coverage(rs.outer) + (1 - rs.t) * dist.coverage(rs.inner)
    assert abs(expected - eta) < 1e-9


def test_realized_sets_nested_in_eta():
    rng = np.random.default_rng(9)
    for _ in range(50):
        dist = _random_dist(rng, int(rng.integers(2, 8)))
        seq = greedy_sequence(dist)
        u = float(rng.uniform())
        etas = np.sort(rng.uniform(0.01, 0.999, size=6))
        realized = [set_from_sequence(seq, e).realize(u) for e in etas]
        for small, big in zip(realized, realized[1:]):
            assert small <= big


def test_nested_score_matches_set_membership():
    rng = np.random.default_rng(10)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        dist = _random_dist(rng, k)
        seq = greedy_sequence(dist)
        u = float(rng.uniform())
        eta = float(rng.uniform(0.05, 0.995))
        realized = set_from_sequence(seq, eta).realize(u)
        for y in range(k):
            assert (nested_score(seq, y, u) <= eta) == (y in realized)


def test_nested_score_vector_consistent():
    dist = DiscreteWeakDistribution.from_sets(3, GOLDEN_ATOMS)
    seq = greedy_sequence(dist)
    vec = nested_score_vector(seq, 0.37)
    for y in range(3):
        assert vec[y] == nested_score(seq, y, 0.37)


def test_label_independent_sequence_hand_values():
    # q = (.7, .4, .2): nonempty-normalizer 1 - .3*.6*.8 = .856,
    # cumulative coverage (.7, .82, 1) / .856
    seq = label_independent_sequence(np.array([0.7, 0.4, 0.2]))
    assert seq.order == (0, 1, 2)
    assert seq.cum_coverage[0] == pytest.approx(0.7 / 0.856, abs=1e-12)
    assert seq.cum_coverage[1] == pytest.approx(0.82 / 0.856, abs=1e-12)
    assert seq.cum_coverage[2] == pytest.approx(1.0, abs=1e-12)


def test_label_independent_sequence_matches_atom_expansion():
    rng = np.random.default_rng(12)
    for _ in range(25):
        k = int(rng.integers(2, 7))
        q = rng.uniform(0.05, 0.95, size=k)
        direct = label_independent_sequence(q)
        via_atoms = greedy_sequence(DiscreteWeakDistribution.from_marginals(k, q))
        assert direct.order == via_atoms.order
        np.testing.assert_allclose(direct.cum_coverage, via_atoms.cum_coverage, atol=1e-9)


def test_batched_nested_scores_match_scalar_path():
    rng = np.random.default_rng(13)
    q = rng.uniform(0.05, 0.95, size=(20, 5))
    u = rng.uniform(size=20)
    batch = label_independent_nested_scores(q, u)
    for i in range(20):
        seq = label_independent_sequence(q[i])
        # one shared computation: the one-row case is bit-equal to the batch
        assert batch[i].tobytes() == nested_score_vector(seq, float(u[i])).tobytes()


def test_from_marginals_atom_probabilities():
    # k = 2, q = (.5, .2): P({0}) = .4/.6, P({1}) = .1/.6, P({0,1}) = .1/.6
    dist = DiscreteWeakDistribution.from_marginals(2, [0.5, 0.2])
    probs = dict(dist.atom_sets())
    assert probs[(0,)] == pytest.approx(0.4 / 0.6)
    assert probs[(1,)] == pytest.approx(0.1 / 0.6)
    assert probs[(0, 1)] == pytest.approx(0.1 / 0.6)


def test_structure_golden_is_general(golden_dist):
    assert check_structure(golden_dist) is Structure.GENERAL


def test_structure_laminar_support_is_tree():
    dist = DiscreteWeakDistribution.from_sets(
        5,
        [
            ((0,), 0.2),
            ((2,), 0.1),
            ((0, 2), 0.25),
            ((1, 4), 0.15),
            ((0, 1, 2, 3, 4), 0.3),
        ],
    )
    assert check_structure(dist) is Structure.TREE


def test_structure_product_form_is_label_independent():
    dist = DiscreteWeakDistribution.from_marginals(4, [0.6, 0.3, 0.5, 0.1])
    assert check_structure(dist) is Structure.LABEL_INDEPENDENT


def test_structure_perturbed_product_is_general():
    dist = DiscreteWeakDistribution.from_marginals(3, [0.6, 0.3, 0.5])
    atoms = dist.atom_sets()
    bumped = [(s, p) for s, p in atoms]
    # move mass between two atoms: marginal fixed points break
    sets = [s for s, _ in bumped]
    i, j = sets.index((0,)), sets.index((0, 1, 2))
    delta = 0.05
    bumped[i] = (bumped[i][0], bumped[i][1] - delta)
    bumped[j] = (bumped[j][0], bumped[j][1] + delta)
    dist2 = DiscreteWeakDistribution.from_sets(3, bumped)
    assert check_structure(dist2) is Structure.GENERAL


def test_structure_point_mass_singleton():
    dist = DiscreteWeakDistribution.from_sets(3, [((1,), 1.0)])
    assert check_structure(dist) is Structure.LABEL_INDEPENDENT


def test_size_profile_hand_values(golden_dist):
    prof = size_profile(golden_dist)
    assert prof.best_covs[1] == pytest.approx(0.65)
    assert prof.best_covs[2] == pytest.approx(0.9)
    assert prof.best_covs[3] == pytest.approx(1.0)
    # halfway between the size-1 and size-2 hull points
    value, _ = prof.optimal_mixture(0.775)
    assert value == pytest.approx(1.5, abs=1e-9)


def test_min_cover_size(golden_dist):
    prof = size_profile(golden_dist)
    assert prof.min_cover_size(0.9) == 2
    assert prof.min_cover_size(0.91) == 3
    assert prof.min_cover_size(0.6) == 1


def test_size_profile_rejects_large_spaces():
    atoms = [((i,), 1.0 / 21) for i in range(21)]
    dist = DiscreteWeakDistribution.from_sets(21, atoms)
    with pytest.raises(ValueError):
        size_profile(dist)


@settings(max_examples=100, deadline=None)
@given(dist=_weak_dists())
@example(dist=DiscreteWeakDistribution.from_sets(3, GOLDEN_ATOMS))
def test_distribution_json_round_trip(dist):
    assert DiscreteWeakDistribution.from_json(json.loads(json.dumps(dist.to_json()))) == dist


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteWeakDistribution.from_sets(2, [((0,), 0.5)])  # mass != 1
    with pytest.raises(ValueError):
        DiscreteWeakDistribution.from_sets(2, [((0,), 0.5), ((0,), 0.5)])
    with pytest.raises(ValueError):
        DiscreteWeakDistribution.from_sets(2, [((), 1.0)])


def test_coverage_values(golden_dist):
    assert golden_dist.coverage([0]) == pytest.approx(0.65)
    assert golden_dist.coverage([1, 2]) == pytest.approx(0.9)
    assert golden_dist.coverage([]) == 0.0
    assert golden_dist.coverage([0, 1, 2]) == pytest.approx(1.0)


def test_marginal_allocation_single_curve_reduces_to_conditional():
    alloc = marginal_allocation([[0.6, 1.0]], [1.0], alpha=0.1)
    assert alloc.etas[0] == pytest.approx(0.9)
    assert alloc.achieved_coverage == pytest.approx(0.9)


def test_marginal_allocation_identical_curves_share_level():
    curves = [[0.5, 0.8, 1.0]] * 3
    alloc = marginal_allocation(curves, [1 / 3] * 3, alpha=0.2)
    for eta in alloc.etas:
        assert eta == pytest.approx(0.8)


def test_marginal_allocation_prefers_cheap_coverage():
    # curve 0 buys coverage at 0.9 per unit size, curve 1 at 0.5 per unit
    cheap = [0.9, 1.0]
    dear = [0.5, 1.0]
    alloc = marginal_allocation([cheap, dear], [0.5, 0.5], alpha=0.25)
    assert alloc.etas[0] > alloc.etas[1]
    assert alloc.achieved_coverage == pytest.approx(0.75)


def test_marginal_allocation_beats_uniform_levels():
    # LP objective: allocation total size must not exceed the uniform split
    rng = np.random.default_rng(14)
    for _ in range(20):
        n_x = int(rng.integers(2, 5))
        curves = []
        for _ in range(n_x):
            k = int(rng.integers(2, 6))
            raw = np.sort(rng.uniform(size=k - 1))
            curves.append(list(raw) + [1.0])
        w = rng.dirichlet(np.ones(n_x))
        alpha = float(rng.uniform(0.05, 0.5))
        alloc = marginal_allocation(curves, w, alpha)
        assert alloc.achieved_coverage >= 1 - alpha - 1e-9

        def size_at(curve, eta):
            pts = [0.0] + list(curve)
            for j in range(1, len(pts)):
                if pts[j] >= eta - 1e-12:
                    prev = pts[j - 1]
                    if pts[j] <= prev + 1e-15:
                        return float(j)
                    return (j - 1) + (eta - prev) / (pts[j] - prev)
            return float(len(curve))

        uniform_total = sum(
            wi * size_at(c, 1 - alpha) for wi, c in zip(w, curves)
        )
        assert alloc.total_expected_size <= uniform_total + 1e-9


def test_marginal_allocation_flags_hull_projection():
    concave = [0.7, 0.9, 1.0]
    bumpy = [0.1, 0.9, 1.0]  # size-2 point lies above the chord: stays
    convex_gap = [0.1, 0.2, 1.0]  # middle point below the chord: projected
    alloc = marginal_allocation([concave, bumpy, convex_gap], [1 / 3] * 3, 0.1)
    assert alloc.hull_projected[0] is False
    assert alloc.hull_projected[2] is True


def test_marginal_allocation_validates():
    with pytest.raises(ValueError):
        marginal_allocation([[0.5, 1.0]], [0.7], 0.1)  # weights not normalized
    with pytest.raises(ValueError):
        marginal_allocation([[0.9, 0.5]], [1.0], 0.1)  # decreasing curve
    with pytest.raises(ValueError):
        marginal_allocation([[0.5, 0.9]], [1.0], 0.1)  # does not reach 1


# --- the array code against the loops it replaced --------------------------
#
# Plain loops over Python-int bitmasks, kept here as the reference for the
# array implementation in ``greedy``. Where the arithmetic is unchanged
# (greedy order and coverages, from_marginals, the increments behind the
# Wolsey constant) the results must be bit-equal; size_profile sums in a new
# order, so its coverages get 1e-12 and its masks are compared on dyadic
# probabilities, where every sum is exact and ties must go to the smallest
# mask.


def _ref_greedy_sequence(dist):
    atoms = list(zip(dist.masks, dist.probs))
    chosen_mask, picked, cum, covered = 0, [], [], 0.0
    remaining = set(range(dist.k))
    for _ in range(dist.k):
        best_y, best_gain = -1, -1.0
        for y in sorted(remaining):
            gain = 0.0
            for m, p in atoms:
                if (m & chosen_mask) == 0 and (m >> y) & 1:
                    gain += p
            if gain > best_gain:  # strict: first max wins
                best_y, best_gain = y, gain
        picked.append(best_y)
        remaining.discard(best_y)
        chosen_mask |= 1 << best_y
        covered += best_gain
        cum.append(covered)
        atoms = [(m, p) for m, p in atoms if (m & chosen_mask) == 0]
    cum[-1] = 1.0
    return tuple(picked), tuple(cum)


def _ref_from_marginals(k, q):
    q = np.asarray(q, dtype=float)
    p_empty = float(np.prod(1.0 - q))
    masks, probs = [], []
    for m in range(1, 1 << k):
        p = 1.0
        for y in range(k):
            p *= q[y] if (m >> y) & 1 else 1.0 - q[y]
        if p > 0.0:
            masks.append(m)
            probs.append(float(p / (1.0 - p_empty)))
    return tuple(masks), tuple(probs)


def _ref_size_profile(dist):
    k = dist.k
    m = np.arange(1 << k, dtype=np.int64)
    cov = np.zeros(1 << k)
    for amask, p in zip(dist.masks, dist.probs):
        cov[(m & amask) != 0] += p
    sizes = np.bitwise_count(m)
    best_covs, best_masks = np.zeros(k + 1), []
    for s in range(k + 1):
        idx = np.flatnonzero(sizes == s)
        top = idx[np.argmax(cov[idx])]
        best_covs[s] = cov[top]
        best_masks.append(int(top))
    best_covs = np.maximum.accumulate(best_covs)
    best_covs[k] = 1.0
    return best_covs, tuple(best_masks)


def _ref_increments(dist, chosen_mask):
    delta = [0.0] * dist.k
    for m, p in zip(dist.masks, dist.probs):
        if (m & chosen_mask) == 0:
            for y in range(dist.k):
                if (m >> y) & 1:
                    delta[y] += p
    return delta


def _ref_wolsey_constant(dist, eta, j):
    # j is the outer size of the greedy set at eta: the bound holds for it
    order, cum = _ref_greedy_sequence(dist)
    cprev = cum[j - 2] if j >= 2 else 0.0
    prefix = [0]
    for y in order:
        prefix.append(prefix[-1] | (1 << y))
    d0 = _ref_increments(dist, 0)
    term1 = eta / (eta - cprev) if eta - cprev > 1e-9 else math.inf
    ratios = [
        d0[y] / d[y]
        for d in (_ref_increments(dist, prefix[t]) for t in range(j + 1))
        for y in range(dist.k)
        if d[y] > 1e-9
    ]
    term2 = max(ratios) if ratios else math.inf
    theta_1 = min(max(d0), eta)
    theta_j = min(max(_ref_increments(dist, prefix[j - 1])), eta - cprev)
    term3 = theta_1 / theta_j if theta_j > 1e-9 else math.inf
    return min(term1, term2, term3)


def _ref_structure(dist, tol=1e-9):
    k, masks, probs = dist.k, dist.masks, dist.probs
    marg = np.zeros(k)
    for m, p in zip(masks, probs):
        for y in range(k):
            if (m >> y) & 1:
                marg[y] += p
    marg = np.clip(marg, 0.0, 1.0)
    independent = False
    if len(masks) == 1 and bin(masks[0]).count("1") == 1:
        independent = True
    elif marg.sum() > 1.0 + 1e-12:

        def g(z):
            return 1.0 - float(np.prod(1.0 - marg * z)) - z

        lo, hi = 1e-12, 1.0
        if g(lo) > 0:
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
            z = 0.5 * (lo + hi)
            q = np.clip(marg * z, 0.0, 1.0)
            independent = True
            for m, p in zip(masks, probs):
                implied = 1.0
                for y in range(k):
                    implied *= q[y] if (m >> y) & 1 else 1.0 - q[y]
                if abs(implied / z - p) > tol:
                    independent = False
                    break
    if independent:
        return Structure.LABEL_INDEPENDENT
    for a, b in itertools.combinations(masks, 2):
        if a & b and a & b not in (a, b):
            return Structure.GENERAL
    return Structure.TREE


def _dyadic_dist(rng, k, units=32):
    """Atoms with probabilities in multiples of 1/units: every sum is exact."""
    n = int(rng.integers(1, min((1 << k) - 1, 12, units) + 1))
    masks = rng.choice(np.arange(1, 1 << k), size=n, replace=False)
    cuts = np.sort(rng.choice(np.arange(1, units), size=n - 1, replace=False))
    weights = np.diff(np.concatenate(([0], cuts, [units])))
    return DiscreteWeakDistribution(k, tuple(masks.tolist()), tuple((weights / units).tolist()))


def _laminar_dist(rng, k):
    nodes, segments = [], [[int(v) for v in rng.permutation(k)]]
    while segments:  # recursive halving of a shuffled label list
        seg = segments.pop()
        nodes.append(tuple(sorted(seg)))
        if len(seg) > 1:
            cut = int(rng.integers(1, len(seg)))
            segments += [seg[:cut], seg[cut:]]
    chosen = [nodes[i] for i in rng.choice(len(nodes), size=int(rng.integers(1, len(nodes) + 1)),
                                          replace=False)]
    probs = rng.dirichlet(np.ones(len(chosen)))
    return DiscreteWeakDistribution.from_sets(k, list(zip(chosen, probs)))


def _mixed_dists(seed, n=60):
    rng = np.random.default_rng(seed)
    for i in range(n):
        k = int(rng.integers(1, 10))
        kind = i % 4
        if kind == 0:
            yield _random_dist(rng, k) if k > 1 else _dyadic_dist(rng, k)
        elif kind == 1:
            yield _dyadic_dist(rng, k)
        elif kind == 2:
            yield _laminar_dist(rng, k)
        else:
            yield DiscreteWeakDistribution.from_marginals(k, rng.uniform(0.05, 0.95, size=k))


def test_greedy_sequence_equals_the_loop_bit_for_bit():
    for dist in _mixed_dists(20, n=120):
        seq = greedy_sequence(dist)
        assert (seq.order, seq.cum_coverage) == _ref_greedy_sequence(dist)


def test_greedy_sequence_dyadic_ties_go_to_the_smallest_label():
    rng = np.random.default_rng(21)
    tied = 0
    for _ in range(200):
        dist = _dyadic_dist(rng, int(rng.integers(2, 8)), units=8)
        seq = greedy_sequence(dist)
        assert (seq.order, seq.cum_coverage) == _ref_greedy_sequence(dist)
        gains = [sum(p for m, p in zip(dist.masks, dist.probs) if (m >> y) & 1)
                 for y in range(dist.k)]
        tied += gains.count(max(gains)) > 1
        assert seq.order[0] == gains.index(max(gains))
    assert tied > 20  # the inputs do exercise exact ties


def test_from_marginals_equals_the_loop_bit_for_bit():
    rng = np.random.default_rng(22)
    for k in range(1, 13):
        q = rng.uniform(0.0, 1.0, size=k)
        q[rng.random(k) < 0.2] = rng.choice([0.0, 1.0])  # zero-probability atoms drop out
        if np.prod(1.0 - q) >= 1.0 - 1e-12:
            continue
        dist = DiscreteWeakDistribution.from_marginals(k, q)
        assert (dist.masks, dist.probs) == _ref_from_marginals(k, q)


def test_size_profile_equals_the_loop():
    for dist in _mixed_dists(23, n=120):
        prof = size_profile(dist)
        covs, masks = _ref_size_profile(dist)
        np.testing.assert_allclose(prof.best_covs, covs, rtol=0, atol=1e-12)
    rng = np.random.default_rng(24)
    for _ in range(200):
        dist = _dyadic_dist(rng, int(rng.integers(1, 10)), units=16)
        covs, masks = _ref_size_profile(dist)
        prof = size_profile(dist)
        assert prof.best_covs == tuple(covs.tolist())
        assert prof.best_masks == masks


def test_check_structure_equals_the_loop():
    seen = set()
    for dist in _mixed_dists(25, n=120):
        got = check_structure(dist)
        assert got is _ref_structure(dist)
        seen.add(got)
    assert seen == set(Structure)


def test_wolsey_constant_equals_the_loop():
    rng = np.random.default_rng(26)
    for dist in _mixed_dists(27, n=80):
        for eta in (*rng.uniform(0.01, 1.0, size=4), 1.0):
            j = len(greedy_set(dist, eta).outer)
            assert wolsey_constant(dist, eta) == pytest.approx(
                _ref_wolsey_constant(dist, eta, j), rel=0, abs=1e-12
            )


def test_label_63_fits_the_bit_matrix():
    atoms = [((63,), 0.5), ((0, 63), 0.25), ((5,), 0.25)]
    dist = DiscreteWeakDistribution.from_sets(64, atoms)
    seq = greedy_sequence(dist)
    assert (seq.order, seq.cum_coverage) == _ref_greedy_sequence(dist)
    assert seq.order[:2] == (63, 5) and seq.cum_coverage[0] == 0.75
    assert greedy_set(dist, 0.7).outer == frozenset({63})
    assert greedy_set(dist, 0.9).outer == frozenset({63, 5})
    for eta in (0.5, 0.9, 1.0):
        j = len(greedy_set(dist, eta).outer)
        assert wolsey_constant(dist, eta) == _ref_wolsey_constant(dist, eta, j)
    assert wolsey_constant(dist, 0.9) == 1.0
    assert check_structure(dist) is Structure.TREE
    crossing = DiscreteWeakDistribution.from_sets(64, [((0, 63), 0.5), ((62, 63), 0.5)])
    assert check_structure(crossing) is _ref_structure(crossing) is Structure.GENERAL


# --- the Wolsey bound -------------------------------------------------------

# Input `general18` #2 of the greedy-exact benchmark at seed 1. At eta = 0.5
# the greedy outer set has 3 labels and the smallest cover 2; a third term
# taken on untruncated increments gave K = 1.437 and a bound of 2.73.
SEED1_GENERAL18 = (
    '{"k": 18, "atoms": ['
    '{"set": [0, 1, 2, 7, 11], "p": 0.047330345479199815}, '
    '{"set": [0, 1, 3, 10, 12], "p": 0.03960605611964072}, '
    '{"set": [0, 1, 3, 13], "p": 0.07682129083462609}, '
    '{"set": [0, 1, 5, 7, 9], "p": 0.03760526195130811}, '
    '{"set": [0, 1, 5, 7, 16], "p": 0.01269483913437606}, '
    '{"set": [0, 2], "p": 0.033752329140942575}, '
    '{"set": [0, 4, 6, 11], "p": 0.031236047445457688}, '
    '{"set": [0, 7, 8, 12, 15, 16], "p": 0.007461491450145925}, '
    '{"set": [1, 3, 10], "p": 0.00943712027563838}, '
    '{"set": [1, 8], "p": 0.035257151309352315}, '
    '{"set": [2], "p": 0.0035886005853729298}, '
    '{"set": [2, 4, 7, 10, 16], "p": 0.012457368021816998}, '
    '{"set": [2, 4, 9, 13], "p": 0.013658465377434134}, '
    '{"set": [2, 6, 8, 14], "p": 0.0038103143266156477}, '
    '{"set": [2, 11, 15], "p": 0.0076399354055952965}, '
    '{"set": [3, 4, 6, 17], "p": 0.0029795880616358154}, '
    '{"set": [3, 4, 8, 9, 14, 15], "p": 0.0014121892432869042}, '
    '{"set": [3, 4, 11], "p": 0.0054614631080157645}, '
    '{"set": [3, 5, 8, 12, 17], "p": 0.008867468806150679}, '
    '{"set": [3, 8, 13], "p": 0.04186944596414531}, '
    '{"set": [3, 10, 16, 17], "p": 0.07570965554489978}, '
    '{"set": [4, 7, 11], "p": 0.08349275607876422}, '
    '{"set": [4, 10, 14, 16], "p": 0.02880121194392605}, '
    '{"set": [4, 11, 12, 13, 16], "p": 0.00182279102489902}, '
    '{"set": [4, 17], "p": 0.050655132427205325}, '
    '{"set": [5, 6, 16, 17], "p": 0.012185886265321057}, '
    '{"set": [6, 8, 11], "p": 0.06417724164250736}, '
    '{"set": [6, 10], "p": 0.019561696767775184}, '
    '{"set": [6, 11], "p": 0.0003834774296539757}, '
    '{"set": [6, 11, 12, 14, 15], "p": 0.011211261805967937}, '
    '{"set": [6, 12], "p": 0.04305951837508833}, '
    '{"set": [7], "p": 0.021312486208914797}, '
    '{"set": [8], "p": 0.05445240619300935}, '
    '{"set": [10], "p": 0.009575658096624492}, '
    '{"set": [11, 16], "p": 0.0223427935050495}, '
    '{"set": [12], "p": 0.011657131695909324}, '
    '{"set": [13], "p": 0.03145858403521333}, '
    '{"set": [15], "p": 0.02519353891851373}'
    ']}'
)


def test_wolsey_bound_holds_on_the_seed1_benchmark_input():
    dist = DiscreteWeakDistribution.from_json(SEED1_GENERAL18)
    assert DiscreteWeakDistribution.from_json(dist.to_json()) == dist
    prof = size_profile(dist)
    for eta in (0.5, 0.8, 0.9, 0.95):
        K = wolsey_constant(dist, eta)
        outer = greedy_set(dist, eta).outer
        assert len(outer) <= (1.0 + math.log(K)) * prof.min_cover_size(eta) + 1e-9
    assert len(greedy_set(dist, 0.5).outer) == 3 and prof.min_cover_size(0.5) == 2


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_greedy_outer_set_is_within_the_wolsey_bound(data):
    k = data.draw(st.integers(1, 8), label="k")
    weights = data.draw(
        st.dictionaries(st.integers(1, (1 << k) - 1), st.integers(1, 60), min_size=1, max_size=14),
        label="atoms",
    )
    total = sum(weights.values())
    dist = DiscreteWeakDistribution(k, tuple(weights), tuple(w / total for w in weights.values()))
    eta = data.draw(st.floats(0.01, 1.0), label="eta")
    K = wolsey_constant(dist, eta)
    outer = greedy_set(dist, eta).outer
    assert 1.0 <= K < math.inf
    assert len(outer) <= (1.0 + math.log(K)) * size_profile(dist).min_cover_size(eta) + 1e-9


# --- one level search -------------------------------------------------------


def test_a_level_just_above_a_curve_point_takes_the_next_label():
    # c_1 = 0.9 - 5e-10 falls short of eta = 0.9, so label 1 must come in with
    # a small weight; taking {0} alone covered 5e-10 too little at size 1.0,
    # below the optimum 1.000000005
    dist = DiscreteWeakDistribution.from_sets(2, [((0,), 0.9 - 5e-10), ((1,), 0.1 + 5e-10)])
    rs = greedy_set(dist, 0.9)
    prof = size_profile(dist)
    assert rs.outer == frozenset({0, 1}) and prof.min_cover_size(0.9) == 2
    assert abs(rs.expected_size - prof.optimal_value(0.9)) <= 1e-12
    assert rs.t * dist.coverage(rs.outer) + (1 - rs.t) * dist.coverage(rs.inner) == pytest.approx(
        0.9, rel=0, abs=1e-15
    )


def test_label_independent_paths_share_the_emptiness_rule():
    q = [1e-13, 0.0]
    with pytest.raises(ValueError) as ref:
        DiscreteWeakDistribution.from_marginals(2, q)
    with pytest.raises(ValueError) as seq:
        label_independent_sequence(q)
    with pytest.raises(ValueError) as block:
        label_independent_nested_scores(np.array([q]), np.array([0.5]))
    assert str(seq.value) == str(block.value) == str(ref.value)


def test_label_independent_paths_reject_an_empty_label_space():
    # both ended in an IndexError
    with pytest.raises(ValueError, match="nonempty space"):
        label_independent_sequence([])
    with pytest.raises(ValueError, match="nonempty space"):
        label_independent_nested_scores(np.zeros((2, 0)), np.zeros(2))


@pytest.mark.parametrize("y", [-1, 3])
def test_nested_score_rejects_a_label_outside_the_order(golden_dist, y):
    with pytest.raises(ValueError, match="not in sequence"):
        nested_score(greedy_sequence(golden_dist), y, 0.5)


@pytest.mark.parametrize(
    "order, cum",
    [((0, 1), (0.0, 1.0)), ((0, 0), (0.5, 1.0)), ((0, 2), (0.5, 1.0)), ((0,), (0.5, 1.0)), ((), ())],
)
def test_greedy_sequence_rejects_what_no_greedy_run_gives(order, cum):
    # orders that are not permutations, and a first coverage of 0, which
    # left the level search a 0/0 at eta <= 1e-12
    with pytest.raises(ValueError, match="positive coverage"):
        GreedySequence(order, cum)


@st.composite
def _structured_dists(draw):
    """A general, a laminar (tree) or a product-form distribution, k <= 8."""
    kind = draw(st.sampled_from(["general", "tree", "independent"]), label="kind")
    if kind == "general":
        return kind, draw(_weak_dists())
    k = draw(st.integers(1, 8), label="k")
    if kind == "tree":
        return kind, _laminar_dist(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), k)
    q = draw(st.lists(st.floats(0.05, 0.95), min_size=k, max_size=k), label="q")
    return kind, DiscreteWeakDistribution.from_marginals(k, q)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_greedy_set_hits_eta_and_never_beats_the_optimum(data):
    kind, dist = data.draw(_structured_dists())
    # levels at random, and right at or next to a point of the greedy curve
    near_a_point = st.builds(
        lambda c, d: min(max(c + d, 1e-3), 1.0),
        st.sampled_from(greedy_sequence(dist).cum_coverage),
        st.sampled_from([-5e-10, -5e-13, 0.0, 5e-13, 5e-10]),
    )
    eta = data.draw(st.floats(0.01, 1.0) | near_a_point, label="eta")
    rs = greedy_set(dist, eta)
    prof = size_profile(dist)
    realised = rs.t * dist.coverage(rs.outer) + (1 - rs.t) * dist.coverage(rs.inner)
    assert abs(realised - eta) <= 1e-11
    # the frontier sums coverages in another order; a gap c_j - c_{j-1} near
    # 1e-4 turns that rounding into 1e-12 of t, so sizes compare at 1e-9
    assert rs.expected_size >= prof.optimal_value(eta) - 1e-9
    assert wolsey_constant(dist, eta) == pytest.approx(
        _ref_wolsey_constant(dist, eta, len(rs.outer)), rel=0, abs=1e-12
    )
    if kind != "general":  # greedy is size-optimal on both structures
        assert prof.min_cover_size(eta) <= len(rs.outer)
