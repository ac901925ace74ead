import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weakconformal import (
    DiscreteWeakDistribution,
    GreedySequence,
    MarginalAllocation,
    SizeProfile,
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


def test_distribution_rejects_non_finite_probabilities():
    for p in (math.nan, math.inf):
        with pytest.raises(ValueError, match="atom 0 has a non-finite probability"):
            DiscreteWeakDistribution(2, (1, 2), (p, 1.0))
    with pytest.raises(ValueError, match="atom 1 has a non-finite probability"):
        DiscreteWeakDistribution(2, (1, 2), (1.0, -math.inf))
    text = '{"k": 2, "atoms": [{"set": [0], "p": 0.5}, {"set": [1], "p": NaN}]}'
    with pytest.raises(ValueError, match="atom 1 has a non-finite probability nan"):
        DiscreteWeakDistribution.from_json(text)


def test_distribution_is_two_read_only_arrays():
    dist = DiscreteWeakDistribution.from_sets(64, [((63,), 0.5), ((0, 5), 0.25), ((5,), 0.25)])
    assert dist.masks.dtype == np.uint64 and dist.masks.tolist() == [1 << 63, 33, 32]
    assert dist.probs.dtype == np.float64 and dist.probs.tolist() == [0.5, 0.25, 0.25]
    assert not dist.masks.flags.writeable and not dist.probs.flags.writeable
    clipped = DiscreteWeakDistribution(2, (1, 2), (1.0 + 5e-10, -5e-10))
    assert clipped.probs.tolist() == [1.0 + 5e-10, 0.0]
    # the arrays are the distribution's own: the caller's stay writable and apart
    masks, probs = np.array([1, 2], dtype=np.uint64), np.array([0.5, 0.5])
    dist = DiscreteWeakDistribution(2, masks, probs)
    masks[0], probs[0] = 3, 0.25
    assert dist.masks.tolist() == [1, 2] and dist.probs.tolist() == [0.5, 0.5]


def test_distribution_equality_and_hash_are_by_value():
    a = DiscreteWeakDistribution(2, (1, 2), (0.5, 0.5))
    b = DiscreteWeakDistribution(2, np.array([1, 2], dtype=np.uint64), np.array([0.5, 0.5]))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != DiscreteWeakDistribution(2, (2, 1), (0.5, 0.5))
    assert a != DiscreteWeakDistribution(3, (1, 2), (0.5, 0.5))
    assert a != DiscreteWeakDistribution(2, (1, 2), (0.25, 0.75))
    assert a != ((1, 2), (0.5, 0.5))
    # a probability of -0.0 stays -0.0 and equals 0.0, so the hashes agree too
    neg = DiscreteWeakDistribution(2, (1, 2), (1.0, -0.0))
    pos = DiscreteWeakDistribution(2, (1, 2), (1.0, 0.0))
    assert math.copysign(1.0, neg.probs[1]) == -1.0
    assert neg == pos and hash(neg) == hash(pos)


@pytest.mark.parametrize(
    "k, masks, probs, message",
    [
        # each was read through int() or float(): 1.5 and true as 1, 2.7 as 2, "0.5" as 0.5
        (2, (1.5, 2), (0.5, 0.5), "atom 0's mask must be an integer"),
        (2, (1, True), (0.5, 0.5), "atom 1's mask must be an integer"),
        (2, np.array([1.0, 2.0]), (0.5, 0.5), "atom 0's mask must be an integer"),
        (2.7, (1, 2), (0.5, 0.5), "k must be an integer"),
        (2, (1, 2), ("0.5", 0.5), "atom 0's probability must be a real number"),
        (2, (1, 2), (0.0, True), "atom 1's probability must be a real number"),
        (2, np.array([1, -1]), (0.5, 0.5), "nonempty subsets of the label space"),
        (2, np.array([[1, 2]]), (0.5, 0.5), "matching, nonempty masks and probs"),
    ],
)
def test_distribution_checks_each_atom_rather_than_casting(k, masks, probs, message):
    with pytest.raises(ValueError, match=message):
        DiscreteWeakDistribution(k, masks, probs)


@pytest.mark.parametrize(
    "k, atom, message",
    [
        ("2", '{"set": [1.9], "p": 1.0}', "atom 0's label must be an integer, not 1.9"),
        ("2", '{"set": [true], "p": 1.0}', "atom 0's label must be an integer, not True"),
        ("2.7", '{"set": [1], "p": 1.0}', "k must be an integer, not 2.7"),
        ("2", '{"set": [1], "p": "1.0"}', "atom 0's probability must be a real number, not '1.0'"),
        ("2", '{"set": [1], "p": true}', "atom 0's probability must be a real number, not True"),
    ],
)
def test_distribution_json_truncates_nothing(k, atom, message):
    with pytest.raises(ValueError, match=message):
        DiscreteWeakDistribution.from_json(f'{{"k": {k}, "atoms": [{atom}]}}')


@pytest.mark.parametrize("masks", [(1, -1), (1, 4), (1, 1 << 64), (0, 1)])
def test_distribution_rejects_masks_outside_the_label_space(masks):
    with pytest.raises(ValueError, match="nonempty subsets of the label space"):
        DiscreteWeakDistribution(2, masks, (0.5, 0.5))


@pytest.mark.parametrize(
    "curves, weights, message",
    [
        ([[0.5, 1.0], [math.nan, 1.0]], [0.5, 0.5], "curve 1 holds a non-finite coverage"),
        ([[0.5, math.inf]], [1.0], "curve 0 holds a non-finite coverage"),
        ([[0.5, 1.0], [-0.5, 1.0]], [0.5, 0.5], "curve 1 falls below 0"),
        ([[0.5, 1.0], [0.5, 1.0]], [math.nan, 1.0], "weight 0 is not finite"),
        ([[0.5, 1.0], [0.5, 1.0]], [1.0, math.nan], "weight 1 is not finite"),
        ([[0.5, 1.0], [0.7, 0.6, 1.0]], [0.5, 0.5], "curve 1 must be nondecreasing"),
        ([[0.5, 1.0, 1.0], [[0.5, 1.0]]], [0.5, 0.5], "curve 1 is not a nonempty"),
        ([[0.5, 1.0], []], [0.5, 0.5], "curve 1 is not a nonempty"),
    ],
)
def test_marginal_allocation_names_the_malformed_input(curves, weights, message):
    # a NaN curve point or weight came back as achieved_coverage=nan, and a
    # curve below 0 was accepted
    with pytest.raises(ValueError, match=message):
        marginal_allocation(curves, weights, 0.1)


def test_marginal_allocation_names_the_first_malformed_curve():
    curves = [[0.5, 1.0], [0.7, 0.6, 1.0], [math.nan, 1.0]]
    with pytest.raises(ValueError, match="curve 1 "):
        marginal_allocation(curves, [0.2, 0.3, 0.5], 0.1)


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
    atoms = list(zip(dist.masks.tolist(), dist.probs.tolist()))
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
    for amask, p in zip(dist.masks.tolist(), dist.probs.tolist()):
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


def _ref_upper_hull(covs):
    hull = [0]
    for s in range(1, len(covs)):
        while len(hull) >= 2:
            s1, s2 = hull[-2], hull[-1]
            lhs = (covs[s2] - covs[s1]) * (s - s2)
            rhs = (covs[s] - covs[s2]) * (s2 - s1)
            if lhs <= rhs + 1e-15:
                hull.pop()
            else:
                break
        hull.append(s)
    return hull


def _ref_marginal_allocation(curves, weights, alpha):
    """marginal_allocation as a loop: segments in a dict keyed by their
    float efficiency, filled per segment in descending efficiency."""
    w = np.asarray(weights, dtype=float)
    segments, projected = {}, []
    for xi, curve in enumerate(curves):
        if isinstance(curve, GreedySequence):
            curve = curve.cum_coverage
        pts_c = [0.0] + np.asarray(curve, dtype=float).tolist()
        hull = _ref_upper_hull(pts_c)
        projected.append(len(hull) < len(pts_c))
        for a, b in zip(hull[:-1], hull[1:]):
            dc = pts_c[b] - pts_c[a]
            if dc <= 0:
                continue
            segments.setdefault(dc / (b - a), []).append((xi, dc, float(b - a)))
    budget = 1.0 - alpha
    etas, sizes, spent = np.zeros(w.size), np.zeros(w.size), 0.0
    for eff in sorted(segments, reverse=True):
        group = segments[eff]
        group_cov = sum(w[xi] * dc for xi, dc, _ in group)
        if group_cov <= 0:
            continue
        take = min(1.0, (budget - spent) / group_cov)
        if take > 0:
            for xi, dc, ds in group:
                etas[xi] += take * dc
                sizes[xi] += take * ds
            spent += take * group_cov
        if spent >= budget - 1e-12:
            break
    if spent < budget - 1e-9:
        raise AssertionError("allocation failed to meet the coverage budget")
    etas = np.minimum(etas, 1.0)
    return MarginalAllocation(
        etas=tuple(float(v) for v in etas),
        expected_sizes=tuple(float(v) for v in sizes),
        total_expected_size=float(np.dot(w, sizes)),
        achieved_coverage=float(np.dot(w, etas)),
        hull_projected=tuple(projected),
    )


def _ref_increments(dist, chosen_mask):
    delta = [0.0] * dist.k
    for m, p in zip(dist.masks.tolist(), dist.probs.tolist()):
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
    k, masks, probs = dist.k, dist.masks.tolist(), dist.probs.tolist()
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
        gains = [sum(p for m, p in zip(dist.masks.tolist(), dist.probs.tolist()) if (m >> y) & 1)
                 for y in range(dist.k)]
        tied += gains.count(max(gains)) > 1
        assert seq.order[0] == gains.index(max(gains))
    assert tied > 20  # the inputs do exercise exact ties


def test_from_marginals_equals_the_loop_bit_for_bit():
    rng = np.random.default_rng(22)
    for k in range(1, 15):
        q = rng.uniform(0.0, 1.0, size=k)
        q[rng.random(k) < 0.2] = rng.choice([0.0, 1.0])  # zero-probability atoms drop out
        if np.prod(1.0 - q) >= 1.0 - 1e-12:
            continue
        dist = DiscreteWeakDistribution.from_marginals(k, q)
        masks, probs = _ref_from_marginals(k, q)
        assert dist.masks.tolist() == list(masks) and dist.probs.tolist() == list(probs)


def _zeta_size_profile(dist):
    """size_profile's frontier as it was computed before the size grouping
    was cached: the zeta passes in mask order, then one flatnonzero pass
    per size. Same additions in the same order, so results are bit-equal."""
    k = dist.k
    g = np.zeros(1 << k)
    g[np.array(dist.masks, dtype=np.int64)] = dist.probs
    for y in range(k):
        half = g.reshape(-1, 2, 1 << y)
        half[:, 1] += half[:, 0]
    cov = math.fsum(dist.probs.tolist()) - g[::-1]
    cov[0] = 0.0
    sizes = np.bitwise_count(np.arange(1 << k))
    best_covs = np.zeros(k + 1)
    best_masks = np.zeros(k + 1, dtype=np.int64)
    for s in range(k + 1):
        idx = np.flatnonzero(sizes == s)
        top = idx[np.argmax(cov[idx])]
        best_covs[s] = cov[top]
        best_masks[s] = top
    best_covs = np.maximum.accumulate(best_covs)
    best_covs[k] = 1.0
    hull = _ref_upper_hull(best_covs.tolist())
    return SizeProfile(
        k=k,
        best_covs=tuple(float(c) for c in best_covs),
        best_masks=tuple(int(v) for v in best_masks),
        hull_sizes=tuple(hull),
        hull_covs=tuple(float(best_covs[s]) for s in hull),
    )


def _sparse_dist(rng, k, n_atoms):
    """n_atoms distinct random atoms of 1 to 6 labels, Dirichlet weights."""
    atoms = set()
    while len(atoms) < min(n_atoms, (1 << k) - 1):
        size = int(rng.integers(1, min(k, 6) + 1))
        atoms.add(tuple(sorted(rng.choice(k, size=size, replace=False).tolist())))
    atoms = sorted(atoms)
    return DiscreteWeakDistribution.from_sets(k, list(zip(atoms, rng.dirichlet(np.ones(len(atoms))))))


def test_size_profile_equals_the_zeta_reference_bit_for_bit():
    rng = np.random.default_rng(28)
    dists = list(_mixed_dists(29, n=120))
    dists += [_dyadic_dist(rng, int(rng.integers(1, 10)), units=16) for _ in range(100)]
    for k in range(1, 19):
        dists += [_sparse_dist(rng, k, 40), _laminar_dist(rng, k), _dyadic_dist(rng, k, units=8)]
        if k <= 14:
            dists.append(DiscreteWeakDistribution.from_marginals(k, rng.uniform(0.05, 0.6, size=k)))
    dists.append(DiscreteWeakDistribution.from_json(SEED1_GENERAL18))
    assert {d.k for d in dists} == set(range(1, 19))
    for dist in dists:
        assert size_profile(dist) == _zeta_size_profile(dist)


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


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc)


@st.composite
def _allocation_inputs(draw):
    """Curves of unequal lengths on a grid of 1/8 or of random floats, some
    repeated exactly (so efficiencies tie across curves), some given as
    greedy sequences; integer weights over their total, zeros included."""
    grid = draw(st.booleans(), label="grid")
    point = st.integers(0, 8).map(lambda v: v / 8) if grid else st.floats(0.0, 1.0)

    def curve(points):
        return [*sorted(points), 1.0]

    pool = draw(st.lists(st.lists(point, max_size=7).map(curve), min_size=1, max_size=5),
                label="distinct curves")
    dists = draw(st.lists(_weak_dists(max_k=5), max_size=2), label="greedy runs")
    pool += [greedy_sequence(d) for d in dists]
    curves = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12), label="curves")
    counts = draw(st.lists(st.integers(0, 5), min_size=len(curves), max_size=len(curves))
                  .filter(any), label="weights")
    alpha = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
                 | st.floats(1e-3, 1 - 1e-3), label="alpha")
    return curves, np.array(counts) / sum(counts), alpha


@settings(max_examples=400, deadline=None)
@given(_allocation_inputs())
@example(([[0.5, 0.8, 1.0]] * 3, np.full(3, 1 / 3), 0.2))
@example(([[0.25, 1.0], [0.5, 0.75, 1.0], [0.25, 1.0]], np.array([0.25, 0.5, 0.25]), 0.3))
def test_marginal_allocation_equals_the_loop_bit_for_bit(inputs):
    curves, w, alpha = inputs
    assert _outcome(marginal_allocation, curves, w, alpha) == _outcome(
        _ref_marginal_allocation, curves, w, alpha
    )


def test_marginal_allocation_ties_and_greedy_runs_equal_the_loop():
    rng = np.random.default_rng(30)
    tied = 0
    for _ in range(60):
        pool = [np.cumsum(rng.integers(1, 4, size=int(rng.integers(1, 9)))) for _ in range(3)]
        pool = [list(c / c[-1]) for c in pool]
        pool += [greedy_sequence(d) for d in _mixed_dists(int(rng.integers(1 << 30)), n=2)]
        curves = [pool[i] for i in rng.integers(len(pool), size=int(rng.integers(1, 40)))]
        w = rng.dirichlet(np.ones(len(curves)))
        w /= w.sum()
        for alpha in (1e-9, float(rng.uniform(0.01, 0.99)), 1 - 1e-9):
            got = marginal_allocation(curves, w, alpha)
            assert got == _ref_marginal_allocation(curves, w, alpha)
            tied += len(set(got.etas)) < len(curves)
    assert tied > 20  # repeated curves do share levels


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


@pytest.mark.parametrize("u", [-0.1, 2.0, math.nan])
def test_nested_scores_and_realize_reject_randomness_outside_the_unit_interval(golden_dist, u):
    # u = 2.0 gave levels above 1, NaN gave NaN scores and realized the inner set
    seq = greedy_sequence(golden_dist)
    q = np.array([[0.6, 0.3, 0.2]])
    for call in (lambda: nested_score(seq, 0, u), lambda: nested_score_vector(seq, u),
                 lambda: label_independent_nested_scores(q, np.array([u])),
                 lambda: greedy_set(golden_dist, 0.9).realize(u)):
        with pytest.raises(ValueError, match=r"u must lie in \[0, 1\]"):
            call()


def test_coverage_adds_left_to_right_as_a_loop():
    # ten atoms of 0.1: a loop adds them to 0.9999999999999999, while a
    # compensated sum (math.fsum, or builtin sum on Python >= 3.12) gives 1.0
    atoms = [([u for u in range(4) if mask >> u & 1], 0.1) for mask in range(1, 11)]
    dist = DiscreteWeakDistribution.from_sets(4, atoms)
    loop = 0.0
    for p in dist.probs.tolist():
        loop += p
    assert loop != math.fsum(dist.probs.tolist())
    assert dist.coverage(range(4)) == loop
