import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrbound import FiniteDistribution, bhattacharyya, random_model, skeleton_distribution, tvd
from corrbound.errors import (
    KeyMismatchError,
    NegativeProbabilityError,
    NonFiniteError,
    NotNormalizedError,
)


def dist(values, keys=None):
    values = np.asarray(values, dtype=float)
    keys = tuple(range(values.size)) if keys is None else tuple(keys)
    return FiniteDistribution(keys, values)


def random_pair(rng, size):
    a = rng.exponential(1.0, size)
    b = rng.exponential(1.0, size)
    # sprinkle exact zeros so disjoint-support corners get exercised
    a[rng.random(size) < 0.15] = 0.0
    b[rng.random(size) < 0.15] = 0.0
    if a.sum() == 0.0:
        a[0] = 1.0
    if b.sum() == 0.0:
        b[-1] = 1.0
    return dist(a / a.sum()), dist(b / b.sum())


class TestConstruction:
    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalizedError):
            dist([0.5, 0.4])

    @pytest.mark.parametrize(
        "values, error",
        [
            ([math.nan, math.nan], NonFiniteError),
            ([0.5, math.nan], NonFiniteError),
            ([math.inf, 0.0], NonFiniteError),
            ([1.0, math.inf], NonFiniteError),
            # -inf is a negative weight
            ([math.inf, -math.inf], NegativeProbabilityError),
        ],
    )
    def test_non_finite_weights_rejected(self, values, error):
        with pytest.raises(error):
            dist(values)

    def test_length_mismatch_rejected(self):
        with pytest.raises(KeyMismatchError):
            FiniteDistribution((0, 1, 2), np.array([0.5, 0.5]))


    def test_range_and_tuple_keys_stay_comparable(self):
        a = FiniteDistribution(range(3), np.array([0.2, 0.3, 0.5]))
        b = dist([0.5, 0.5, 0.0], keys=(0, 1, 2))
        assert isinstance(a.keys, range) and isinstance(b.keys, tuple)
        assert tvd(a, b) == tvd(b, a) == pytest.approx(0.5, abs=1e-15)
        assert a.weight(2) == 0.5 and b.weight(1) == 0.5
        c = FiniteDistribution(iter((0, 1, 2)), np.array([0.2, 0.3, 0.5]))
        assert c.keys == (0, 1, 2) and tvd(a, c) == 0.0 and c.weight(1) == 0.3
        with pytest.raises(KeyMismatchError):
            tvd(a, dist([0.5, 0.5, 0.0], keys=(0, 1, 3)))
        with pytest.raises(KeyMismatchError):
            tvd(a, FiniteDistribution(range(1, 4), np.array([0.2, 0.3, 0.5])))


class TestTvd:
    def test_identical_is_zero(self):
        d = dist([0.3, 0.7])
        assert tvd(d, d) == 0.0

    def test_half_overlap(self):
        assert tvd(dist([1.0, 0.0]), dist([0.5, 0.5])) == pytest.approx(0.5, abs=1e-15)

    def test_disjoint_support_is_one(self):
        assert tvd(dist([1.0, 0.0]), dist([0.0, 1.0])) == 1.0

    def test_key_mismatch(self):
        with pytest.raises(KeyMismatchError):
            tvd(dist([1.0, 0.0]), dist([1.0, 0.0], keys=("x", "y")))


class TestBhattacharyya:
    def test_identical_is_one(self):
        d = dist([0.3, 0.7])
        assert bhattacharyya(d, d) == pytest.approx(1.0, abs=1e-15)

    def test_half_overlap(self):
        got = bhattacharyya(dist([1.0, 0.0]), dist([0.5, 0.5]))
        assert got == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_disjoint_support_is_zero(self):
        assert bhattacharyya(dist([1.0, 0.0]), dist([0.0, 1.0])) == 0.0


class TestInequalityChain:
    def test_chain_on_ten_thousand_random_pairs(self):
        rng = np.random.default_rng(97)
        for _ in range(10_000):
            p, q = random_pair(rng, int(rng.integers(2, 21)))
            tv = tvd(p, q)
            bh = bhattacharyya(p, q)
            h2 = 1.0 - bh  # squared Hellinger distance
            assert h2 <= tv + 1e-12
            assert tv <= math.sqrt(max(h2 * (2.0 - h2), 0.0)) + 1e-12
            assert math.sqrt(max(h2 * (2.0 - h2), 0.0)) <= math.sqrt(2.0 * h2) + 1e-12
            assert tv <= math.sqrt(max(1.0 - bh * bh, 0.0)) + 1e-12

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            p, q = random_pair(rng, int(rng.integers(2, 21)))
            assert tvd(p, q) == tvd(q, p)
            assert bhattacharyya(p, q) == bhattacharyya(q, p)


class TestPairwiseSummation:
    def test_within_log2_n_eps_of_compensated_sum(self):
        # np.sum is pairwise; with nonnegative summands its relative error
        # grows like log2(N) eps, far below the 1e-9 the path checks allow
        rng = np.random.default_rng(23)
        for size in (3**11, 10**6):
            bound = math.ceil(math.log2(size)) * np.finfo(float).eps
            for _ in range(2):
                a, b = rng.exponential(1.0, (2, size)) ** 3
                p = FiniteDistribution(range(size), a / a.sum())
                q = FiniteDistribution(range(size), b / b.sum())
                ref_tvd = 0.5 * math.fsum(np.abs(p.probs - q.probs).tolist())
                ref_bhat = math.fsum(np.sqrt(p.probs * q.probs).tolist())
                assert abs(tvd(p, q) - ref_tvd) <= bound * ref_tvd
                assert abs(bhattacharyya(p, q) - ref_bhat) <= bound * ref_bhat


@st.composite
def weight_pairs(draw):
    size = draw(st.integers(min_value=2, max_value=12))
    pos = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
    a = np.array(draw(st.lists(pos, min_size=size, max_size=size)))
    b = np.array(draw(st.lists(pos, min_size=size, max_size=size)))
    if a.sum() == 0.0:
        a[0] = 1.0
    if b.sum() == 0.0:
        b[-1] = 1.0
    return dist(a / a.sum()), dist(b / b.sum())


@settings(max_examples=200, deadline=None)
@given(weight_pairs())
def test_distances_stay_in_range_and_ordered(pq):
    p, q = pq
    tv, bh = tvd(p, q), bhattacharyya(p, q)
    h2 = 1.0 - bh  # squared Hellinger distance
    assert -1e-15 <= tv <= 1.0 + 1e-12
    assert -1e-15 <= bh <= 1.0 + 1e-12
    assert h2 <= tv + 1e-12
    assert tv <= math.sqrt(max(1.0 - bh * bh, 0.0)) + 1e-12


@pytest.mark.parametrize("distance", [tvd, bhattacharyya], ids=lambda f: f.__name__)
def test_distance_working_set_is_one_summand_array(distance):
    # the summands are formed once and transformed in place: one array of
    # the size of the weights, where a separate abs or sqrt takes two
    W, p0, _ = random_model(4, 2)
    p = skeleton_distribution(W, p0, 1.0, 8, 0.2)
    q = skeleton_distribution(W, p0, 1.0, 8, 0.9)
    tracemalloc.start()
    try:
        distance(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * p.probs.nbytes
