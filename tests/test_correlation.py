import hashlib
import tracemalloc

import numpy as np
import pytest

from corrbound import (
    ProbVector,
    activity_rate,
    ScoreVector,
    bhat_survival,
    correlation_derivative,
    dynamical_activity,
    make_rng,
    mc_two_point,
    multipoint,
    propagate,
    random_model,
    two_point,
    validate_rate_matrix,
)
from corrbound.errors import (
    DimensionMismatchError,
    NonFiniteError,
    TimesNotSortedError,
    TooFewSamplesError,
)
from corrbound.correlation import _sample_states_at
from corrbound.markov import _propagator_apply
from conftest import model_sweep


class TestTwoPoint:
    def test_decay_closed_form(self, decay_model):
        W, p0, S, T = decay_model
        assert two_point(W, p0, S, T, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert two_point(W, p0, S, T, 1.0) == pytest.approx(
            2.0 * np.exp(-1.0) - 1.0, abs=1e-13
        )
        for t in np.linspace(0.0, 8.0, 33):
            assert two_point(W, p0, S, T, float(t)) == pytest.approx(
                2.0 * np.exp(-t) - 1.0, abs=1e-12
            )

    def test_zero_time_equal_time_product(self):
        for W, p0, S in model_sweep(10):
            expect = float(np.sum(S.s * S.s * p0.p))
            assert two_point(W, p0, S, S, 0.0) == pytest.approx(expect, abs=1e-14)

    def test_symmetric_stationary_closed_form(self, symmetric_model):
        W, pst, S, T = symmetric_model
        for t in (0.0, 0.5, 1.0, 3.0):
            assert two_point(W, pst, S, T, t) == pytest.approx(
                np.exp(-2.0 * t), abs=1e-13
            )

    def test_bounded_by_score_product(self):
        for W, p0, S in model_sweep(100):
            cap = S.max_abs * S.max_abs
            for t in np.arange(0.0, 10.01, 0.25):
                assert abs(two_point(W, p0, S, S, float(t))) <= cap + 1e-12

    def test_dimension_mismatch(self, decay_model):
        W, p0, S, T = decay_model
        with pytest.raises(DimensionMismatchError):
            two_point(W, p0, ScoreVector(np.ones(3)), T, 1.0)


class TestCorrelationDerivative:
    def test_decay_closed_form(self, decay_model):
        W, p0, S, T = decay_model
        for t in (0.0, 0.7, 2.0):
            assert correlation_derivative(W, p0, S, T, t) == pytest.approx(
                -2.0 * np.exp(-t), abs=1e-13
            )

    def test_frozen_process_zero(self, frozen_model):
        W, p0, S, T = frozen_model
        assert correlation_derivative(W, p0, S, T, 3.0) == 0.0

    def test_symmetric_closed_form(self, symmetric_model):
        W, pst, S, T = symmetric_model
        for t in (0.1, 1.0):
            assert correlation_derivative(W, pst, S, T, t) == pytest.approx(
                -2.0 * np.exp(-2.0 * t), abs=1e-13
            )

    def test_matches_finite_difference(self):
        h = 1e-5
        for W, p0, S in model_sweep(30):
            for t in (0.3, 1.2, 4.0):
                fd = (
                    two_point(W, p0, S, S, t + h) - two_point(W, p0, S, S, t - h)
                ) / (2.0 * h)
                assert correlation_derivative(W, p0, S, S, t) == pytest.approx(
                    fd, abs=1e-6
                )


class TestCorrelatorsReadThePlan:
    """two_point and correlation_derivative read the evaluation plan; they
    keep the bits of the direct matrix-vector formulas they replaced."""

    TIMES = (0.0, 1e-3, 0.1, 0.5, 1.0, 3.7, 10.0, 100.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 30])
    def test_equal_to_the_direct_formulas_bit_for_bit(self, n):
        for seed in range(4):
            W, p0, S = random_model(n, seed)
            T = ScoreVector(np.cos(np.arange(n)))
            for t in self.TIMES:
                at = np.array([t])
                corr = float(T.s @ _propagator_apply(W, S.s * p0.p, at)[0])
                slope = float(T.s @ _propagator_apply(W, W.w @ (S.s * p0.p), at)[0])
                assert two_point(W, p0, S, T, t) == corr
                assert correlation_derivative(W, p0, S, T, t) == slope


class TestMultipoint:
    def test_two_point_reduction(self, decay_model):
        W, p0, S, T = decay_model
        for t in (0.0, 0.4, 1.0, 5.0):
            assert abs(
                multipoint(W, p0, [S, T], (0.0, t)) - two_point(W, p0, S, T, t)
            ) < 1e-12

    def test_two_point_reduction_random(self):
        for W, p0, S in model_sweep(25):
            for t in (0.5, 2.0):
                assert abs(
                    multipoint(W, p0, [S, S], (0.0, t)) - two_point(W, p0, S, S, t)
                ) < 1e-12

    def test_equal_times_product(self):
        for W, p0, S in model_sweep(5):
            expect = float(np.sum(S.s**3 * p0.p))
            got = multipoint(W, p0, [S, S, S], (0.0, 0.0, 0.0))
            assert got == pytest.approx(expect, abs=1e-14)

    def test_three_point_enumeration_oracle(self, symmetric_model):
        # independent oracle: explicit 8-term sum with closed-form
        # propagator entries of the symmetric two-state chain
        W, pst, S, _ = symmetric_model
        times = (0.0, 0.5, 1.0)

        def step(dt):
            e = np.exp(-2.0 * dt)
            return 0.5 * np.array([[1.0 + e, 1.0 - e], [1.0 - e, 1.0 + e]])

        m1, m2 = step(0.5), step(0.5)
        expect = 0.0
        for x0 in range(2):
            for x1 in range(2):
                for x2 in range(2):
                    expect += (
                        S.s[x0]
                        * S.s[x1]
                        * S.s[x2]
                        * pst.p[x0]
                        * m1[x1, x0]
                        * m2[x2, x1]
                    )
        got = multipoint(W, pst, [S, S, S], times)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_single_point_is_mean(self, decay_model):
        W, p0, S, _ = decay_model
        assert multipoint(W, p0, [S], (0.0,)) == pytest.approx(
            float(np.dot(S.s, p0.p)), abs=1e-15
        )

    def test_unsorted_times_rejected(self, decay_model):
        W, p0, S, T = decay_model
        with pytest.raises(TimesNotSortedError):
            multipoint(W, p0, [S, T], (0.0, 1.0, 0.5))
        with pytest.raises(TimesNotSortedError):
            multipoint(W, p0, [S, T], (0.5, 1.0))
        with pytest.raises(TimesNotSortedError):
            multipoint(W, p0, [S, T, T], (0.0, 1.0))

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        # as bound_multipoint rejects it, rather than returning NaN
        W, p0, S = random_model(3, 1)
        with pytest.raises(NonFiniteError):
            multipoint(W, p0, [S, S], [0.0, t])


class TestSampleTrajectory:
    """Gillespie trajectories as the ensemble sampler returns them: each
    sample's initial state, final state and number of jumps."""

    def test_frozen_process_never_jumps(self, frozen_model):
        W, p0, _, _ = frozen_model
        init, final, counts = _sample_states_at(W, p0, 5.0, 1_000, make_rng(3))
        assert not counts.any()
        assert np.array_equal(final, init)

    def test_seed_determinism(self, symmetric_model):
        W, pst, _, _ = symmetric_model
        a = _sample_states_at(W, pst, 4.0, 1_000, make_rng(99))
        b = _sample_states_at(W, pst, 4.0, 1_000, make_rng(99))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_survival_fraction_matches_exponential(self, decay_model):
        # survival of the decaying state: P(no jump by t) = e^-t
        W, p0, _, _ = decay_model
        t = 1.0
        n = 100_000
        _, _, counts = _sample_states_at(W, p0, t, n, make_rng(2024))
        frac = np.count_nonzero(counts == 0) / n
        expect = np.exp(-t)
        se = np.sqrt(expect * (1.0 - expect) / n)
        assert abs(frac - expect) < 3.0 * se

    def test_jump_targets_follow_rates(self):
        # 3-state star: from state 0, rates 2:1 to states 1 and 2
        W = validate_rate_matrix([[0.0, 0, 0], [2.0, 0, 0], [1.0, 0, 0]])
        p0 = ProbVector(np.array([1.0, 0.0, 0.0]))
        n = 20_000
        _, final, counts = _sample_states_at(W, p0, 50.0, n, make_rng(77))
        hits = np.bincount(final, minlength=3)
        assert hits[0] == 0 and (counts == 1).all()
        frac = hits[1] / n
        se = np.sqrt((2 / 3) * (1 / 3) / n)
        assert abs(frac - 2.0 / 3.0) < 4.0 * se


def _oracle_model(name):
    """Random models of 2 to 6 states, a driven 3-state ring (complex
    spectrum) and the defective 0 -> 1 -> 2 -> 3 chain (the expm regime)."""
    if name.startswith("random"):
        n = int(name[len("random"):])
        return random_model(n, 500 + n)
    if name == "ring":
        w = [[0.0, 0.5, 2.0], [2.0, 0.0, 0.5], [0.5, 2.0, 0.0]]
        p, s = [0.6, 0.3, 0.1], [1.0, -0.5, 0.2]
    else:
        w = np.zeros((4, 4))
        w[[1, 2, 3], [0, 1, 2]] = 1.3
        p, s = [0.4, 0.3, 0.2, 0.1], [0.9, -1.0, 0.3, -0.2]
    return validate_rate_matrix(w), ProbVector(np.array(p)), ScoreVector(np.array(s))


class TestMonteCarloOracle:
    """Sampled jump counts and states against the exact activity and
    correlators, a check that shares no propagation code with them.

    Rates stay near 1: a sample makes about A(t) jumps, so rates near
    1e12 are out of reach of any sampler, and stiff models are left to a
    high-precision reference (ROADMAP item 3)."""

    @staticmethod
    def assert_close(name, sample, exact):
        se = sample.std(ddof=1) / np.sqrt(sample.size)
        assert abs(sample.mean() - exact) <= 4.0 * se, (name, sample.mean(), exact, se)

    @pytest.mark.parametrize(
        "seed,name", enumerate(["random2", "random3", "random4", "random5", "random6", "ring", "jordan"])
    )
    def test_counts_and_states_match_the_exact_values(self, seed, name):
        W, p0, S = _oracle_model(name)
        assert (W._spectral is None) == (name == "jordan")
        rng = make_rng(4_242 + seed)
        for t in (0.3, 1.0, 3.0):
            init, final, counts = _sample_states_at(W, p0, t, 20_000, rng)
            self.assert_close("activity", counts, dynamical_activity(W, p0, t))
            self.assert_close("two_point", S.s[init] * S.s[final], two_point(W, p0, S, S, t))
            self.assert_close("mean", S.s[final], S.s @ propagate(W, p0, t).p)
            # no jump in [0, t/2]: the survival overlap at t, sqrt(eta(t))
            _, _, half = _sample_states_at(W, p0, t / 2, 20_000, rng)
            self.assert_close("survival", (half == 0).astype(float), bhat_survival(W, p0, t))


class TestMcTwoPoint:
    def test_decay_model_consistent_with_exact(self, decay_model):
        W, p0, S, T = decay_model
        est, se = mc_two_point(W, p0, S, T, 1.0, 100_000, seed=15)
        exact = 2.0 * np.exp(-1.0) - 1.0
        assert se > 0.0
        assert abs(est - exact) < 3.0 * se

    def test_zero_time_matches_product(self):
        W, p0, S = model_sweep(1, seed=400)[0]
        est, se = mc_two_point(W, p0, S, S, 0.0, 50_000, seed=6)
        exact = float(np.sum(S.s * S.s * p0.p))
        assert abs(est - exact) < 3.0 * se + 1e-12

    def test_frozen_degenerate_start_exact_zero_error(self, decay_model):
        _, p0, S, T = decay_model
        W0 = validate_rate_matrix(np.zeros((2, 2)))
        est, se = mc_two_point(W0, p0, S, T, 2.0, 1_000, seed=1)
        assert est == S.s[1] * T.s[1]
        assert se == 0.0

    def test_frozen_process_error_from_score_variance_only(self, frozen_model):
        W, p0, S, T = frozen_model
        n = 10_000
        est, se = mc_two_point(W, p0, S, T, 5.0, n, seed=8)
        exact = float(np.sum(S.s * T.s * p0.p))
        var = float(np.sum((S.s * T.s) ** 2 * p0.p)) - exact**2
        assert se == pytest.approx(np.sqrt(var / n), rel=0.1)
        assert abs(est - exact) < 4.0 * np.sqrt(var / n)

    def test_determinism(self, symmetric_model):
        W, pst, S, T = symmetric_model
        assert mc_two_point(W, pst, S, T, 1.0, 2_000, seed=5) == mc_two_point(
            W, pst, S, T, 1.0, 2_000, seed=5
        )

    def test_too_few_samples(self, decay_model):
        W, p0, S, T = decay_model
        with pytest.raises(TooFewSamplesError):
            mc_two_point(W, p0, S, T, 1.0, 99, seed=0)

    def test_consistency_smoke_sweep(self):
        hits = 0
        cases = []
        for W, p0, S in model_sweep(6, seed=1_234):
            for t in (0.5, 2.0):
                cases.append((W, p0, S, t))
        for i, (W, p0, S, t) in enumerate(cases):
            exact = two_point(W, p0, S, S, t)
            est, se = mc_two_point(W, p0, S, S, t, 20_000, seed=9_000 + i)
            if abs(est - exact) < 4.0 * se:
                hits += 1
        assert hits >= len(cases) - 1


def _pin_model(name):
    """The models of the stream pins: seeded random chains of 2 to 30
    states, the absorbing decay chain, and a reducible chain whose
    transient pair 1, 2 leaks into the absorbing states 0 and 3."""
    if name.startswith("random"):
        n = int(name[len("random"):])
        return random_model(n, 8_100 + n)
    if name == "decay":
        W = validate_rate_matrix([[0.0, 1.0], [0.0, -1.0]])
        return W, ProbVector(np.array([0.0, 1.0])), ScoreVector(np.array([-1.0, 1.0]))
    w = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0], [0.0, 1.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0]])
    W = validate_rate_matrix(w - np.diag(w.sum(axis=0)))
    return W, ProbVector(np.array([0.0, 0.5, 0.5, 0.0])), ScoreVector(np.array([0.3, -1.0, 0.5, 1.0]))


# (model, t, mean, stderr, sha256 of the (init, final) states, sha256 of
# the int32 jump counts) of 2000 samples drawn with seed 17. The last time of each model is far past its
# mixing time (at most 1.6 for the random chains; the absorbing chains
# are absorbed). A RateMatrix has at least 2 states, so n = 1 has no case.
MC_PINS = [
    ("random2", 0.0, 0.18548332896495554, 0.0026769649932890933, "c4233edd815d683572e69358e595e892d2711ad4b191099dcf70f21faa3021aa",
     "668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b"),
    ("random2", 0.7, 0.10075303496281322, 0.0033351384927556346, "a3be9e6ae331c632c5aa59e39d80fe58ab6b3a22e165eece1fb8dbcae0a683bb",
     "db654b7e78322de92ed3b1138ed8c0c5b555a139b9c104d7d11968776844e780"),
    ("random2", 50.0, 0.004709381737495841, 0.002660587192779377, "7b9d1b51d2a6c2bba55420add1690abe123a1293abfa007fca36835e6a6439f2",
     "555187ae5ccf124385219e8d5e73b555eda9b60a0e22dab7f69bd011bd33b375"),
    ("random3", 0.0, 0.08515239536758619, 0.0031326143637580668, "e29370b51a1e96669783c43ca2938c1d80af8baf83234fc8c680b21699f3ecfd",
     "668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b"),
    ("random3", 0.7, 0.025275648586871275, 0.0033816479585702733, "6c9352b65cefb8d040092131151973868e846e474fdb6c48422fe4b28842bfa1",
     "f0ce8fce705b59bec388e7f2444a4fc8e9e29e5871ee02d471e4ea4da2affaae"),
    ("random3", 50.0, -0.0005606140004675448, 0.0030636716941637486, "efbd3edddac94eb5d5177b0a6cc44332d206a08d9cab08e66e5bf3f6530936d0",
     "5eeefc7814b56018874b6de90ee9917be95a38ac2f96447b9f3f840e9dc618ac"),
    ("random10", 0.0, 0.2854957832413356, 0.006525184205755278, "9d7212aaaeecf85802aec8e450c090a8f2063f071028b3fa6a5e6a03a6c913f1",
     "668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b"),
    ("random10", 0.7, 0.008585360953619081, 0.00687981013020772, "dff6a463e194398d411788382923ae205f530b2986bc880b41d1f3dcb3b72528",
     "9bb52d1385adff84ae14d821f1b1e1983c2875c66a290a2da26dc88347165867"),
    ("random10", 50.0, -0.011308963699778258, 0.006676337694755218, "1c91ba4a811209ebae75d28c63ebe3a38624787735a3c7e4c2a873eb1ac393ea",
     "8e6ead98000e13274712fb55278c8e264c17ad3068582d4b9e17bae26bcf594f"),
    ("random30", 0.0, 0.3012229862739489, 0.005769910037579691, "6ec32b1f6542737b3351afd8f2b82543cf26af9c4cce93261a2fc98b51dc61ca",
     "668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b"),
    ("random30", 0.7, 0.02305975241885063, 0.006906528268952776, "4d5151633c579ca06425758446c04257e8d71a931db2eeebfda5e9a22bdaba0e",
     "6a0ddf79eadfe3d1ab02ef55aefa710ddb51b7130d73ade81dd8b15679960af7"),
    ("random30", 5.0, 0.003979794037778069, 0.006782155701600876, "864882a7510a87a1301392258824de368b7466dfe384bdff4423eb6d7511703e",
     "3724f8f6254a1a6c96ecdc4d0cd35abe925d2beb5df09fe052ede830a8611147"),
    ("decay", 0.0, 1.0, 0.0, "a11e58977f1dc1c2ab3816f55d8b2ef63da62b10fc4e4e2facf7f3788a890cda",
     "668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b"),
    ("decay", 0.7, -0.028, 0.02235750274436933, "6ee3032506eb5d987fec56bfcd8f43e8c308dabcc98d43156064359124982421",
     "894286dab125c28a526c9c0f1c8ca209a879fbdfe70f47ac75c3d51c81979277"),
    ("decay", 50.0, -1.0, 0.0, "62454b8053dfbfa708ecc654de17cf9bd375ce16172f41caa5f6a7efad0e582b",
     "752a018680fb6d88d22646ca97a5c785d872f1d8ee3d2369485833ce528c1995"),
    ("reducible", 0.0, 0.622, 0.008387083616239492, "f7dd746c109b7be70a38e2e48ef88b0a6d80d9f3908c5ed5347be925af1d7bf4",
     "668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b"),
    ("reducible", 0.7, 0.04405, 0.012587653604291421, "4493e4c74a683af66f2b5dc888844ae4948d1aa0d869ab4c9811241bcbcac94e",
     "370fb177c27d04c72dd5f536dfaf28552853a1094e66702888eb8fca6a1f120a"),
    ("reducible", 50.0, -0.08405, 0.009730821815067745, "a939fa81c878cab0bb5d32b9c9b959732933ff5337f8f8964b6f15a7384c85df",
     "86d735974d58434ecf90aa5b6e3eca5c4719c37b0a1113e539d6feb4c0e77cba"),
]


def _digest_states(init, final):
    return hashlib.sha256(np.stack([init, final]).astype("<i8").tobytes()).hexdigest()


def _digest_counts(counts):
    return hashlib.sha256(counts.astype("<i4").tobytes()).hexdigest()


# p0 vectors for the initial draw, zero-probability states first, in the
# middle and last
CHOICE_LAWS = [
    [0.25, 0.75],
    [0.0, 1.0],
    [1.0, 0.0],
    [0.2, 0.3, 0.5],
    [0.0, 0.4, 0.6],
    [0.5, 0.0, 0.5],
    [0.7, 0.3, 0.0],
    [0.0, 0.0, 0.1, 0.2, 0.3, 0.4, 0.0],
    [0.1, 0.2, 0.0, 0.0, 0.3, 0.4, 0.0],
    np.random.default_rng(30).dirichlet(np.ones(30)),
    np.concatenate([np.zeros(10), np.full(10, 0.1), np.zeros(10)]),
]


class TestStreamPins:
    """The sampler's states and jump counts for fixed seeds, pinned bit for
    bit: any change to the order or number of random draws fails here. The
    ids are the pins' names from before the counts were pinned."""

    @pytest.mark.parametrize(
        "name,t,mean,stderr,digest,counts_digest",
        MC_PINS,
        ids=["-".join(map(str, row[:5])) for row in MC_PINS],
    )
    def test_mc_two_point_and_states(self, name, t, mean, stderr, digest, counts_digest):
        W, p0, S = _pin_model(name)
        assert mc_two_point(W, p0, S, S, t, 2_000, seed=17) == (mean, stderr)
        init, final, counts = _sample_states_at(W, p0, t, 2_000, make_rng(17))
        assert _digest_states(init, final) == digest
        assert counts.dtype == np.int32
        assert _digest_counts(counts) == counts_digest

    @pytest.mark.parametrize("p", CHOICE_LAWS, ids=lambda p: f"n{len(p)}")
    def test_initial_states_are_choice_draws(self, p):
        # the initial draw is Generator.choice's, and so is the state of
        # the stream after it
        n = len(p)
        W = random_model(n, 4)[0]
        p0 = ProbVector(np.asarray(p, dtype=float))
        for seed in (0, 17):
            rng = make_rng(seed)
            init, final, _ = _sample_states_at(W, p0, 0.0, 5_000, rng)
            want_rng = make_rng(seed)
            want = want_rng.choice(n, 5_000, p=p0.p)
            assert init.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(init, want)
            np.testing.assert_array_equal(final, want)
            assert rng.random() == want_rng.random()


class TestSamplerWorkingSet:
    def test_peak_bytes_per_sample(self):
        # two mean jumps of a 3-state chain: the outputs take 20 bytes a
        # sample (int64 initial and final states, int32 counts), the live
        # arrays and one sweep's draws and targets the rest
        W, p0, _ = random_model(3, 8103)
        n_samples = 100_000
        t = 2.0 / activity_rate(W, p0)
        rng = make_rng(1)
        tracemalloc.start()
        try:
            _sample_states_at(W, p0, t, n_samples, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n_samples <= 66.0
