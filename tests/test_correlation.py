import hashlib

import numpy as np
import pytest

from corrbound import (
    ProbVector,
    ScoreVector,
    Trajectory,
    correlation_derivative,
    make_rng,
    mc_two_point,
    multipoint,
    random_model,
    sample_trajectory,
    two_point,
    validate_rate_matrix,
)
from corrbound.errors import (
    BadIntervalError,
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


class TestTrajectory:
    def test_invariants_enforced(self):
        with pytest.raises(BadIntervalError):
            Trajectory(0, ((0.5, 0), (0.4, 1)), 1.0)  # times not increasing
        with pytest.raises(BadIntervalError):
            Trajectory(0, ((0.5, 0),), 1.0)  # self-jump
        with pytest.raises(BadIntervalError):
            Trajectory(0, ((1.5, 1),), 1.0)  # beyond horizon

    def test_state_tracking(self):
        traj = Trajectory(0, ((0.25, 1), (0.75, 0)), 1.0)
        assert traj.state_at(0.1) == 0
        assert traj.state_at(0.5) == 1
        assert traj.state_at(0.9) == 0
        assert traj.final_state == 0
        assert traj.n_jumps == 2


class TestSampleTrajectory:
    def test_frozen_process_never_jumps(self, frozen_model):
        W, p0, _, _ = frozen_model
        rng = make_rng(3)
        for _ in range(50):
            assert sample_trajectory(W, p0, 5.0, rng).n_jumps == 0

    def test_seed_determinism(self, symmetric_model):
        W, pst, _, _ = symmetric_model
        a = sample_trajectory(W, pst, 4.0, make_rng(99))
        b = sample_trajectory(W, pst, 4.0, make_rng(99))
        assert a.initial_state == b.initial_state
        assert a.jumps == b.jumps

    def test_survival_fraction_matches_exponential(self, decay_model):
        # survival of the decaying state: P(no jump by t) = e^-t
        W, p0, _, _ = decay_model
        rng = make_rng(2024)
        t = 1.0
        n = 100_000
        none = sum(
            1 for _ in range(n) if sample_trajectory(W, p0, t, rng).n_jumps == 0
        )
        frac = none / n
        expect = np.exp(-t)
        se = np.sqrt(expect * (1.0 - expect) / n)
        assert abs(frac - expect) < 3.0 * se

    def test_jump_targets_follow_rates(self):
        # 3-state star: from state 0, rates 2:1 to states 1 and 2
        W = validate_rate_matrix([[0.0, 0, 0], [2.0, 0, 0], [1.0, 0, 0]])
        p0 = ProbVector(np.array([1.0, 0.0, 0.0]))
        rng = make_rng(77)
        hits = np.zeros(3)
        n = 20_000
        for _ in range(n):
            traj = sample_trajectory(W, p0, 50.0, rng)
            hits[traj.final_state] += 1
        assert hits[0] == 0
        frac = hits[1] / n
        se = np.sqrt((2 / 3) * (1 / 3) / n)
        assert abs(frac - 2.0 / 3.0) < 4.0 * se


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


# (model, t, mean, stderr, sha256 of the (init, final) states) of 2000
# samples drawn with seed 17. The last time of each model is far past its
# mixing time (at most 1.6 for the random chains; the absorbing chains
# are absorbed). A RateMatrix has at least 2 states, so n = 1 has no case.
MC_PINS = [
    ("random2", 0.0, 0.18548332896495554, 0.0026769649932890933, "c4233edd815d683572e69358e595e892d2711ad4b191099dcf70f21faa3021aa"),
    ("random2", 0.7, 0.10075303496281322, 0.0033351384927556346, "a3be9e6ae331c632c5aa59e39d80fe58ab6b3a22e165eece1fb8dbcae0a683bb"),
    ("random2", 50.0, 0.004709381737495841, 0.002660587192779377, "7b9d1b51d2a6c2bba55420add1690abe123a1293abfa007fca36835e6a6439f2"),
    ("random3", 0.0, 0.08515239536758619, 0.0031326143637580668, "e29370b51a1e96669783c43ca2938c1d80af8baf83234fc8c680b21699f3ecfd"),
    ("random3", 0.7, 0.025275648586871275, 0.0033816479585702733, "6c9352b65cefb8d040092131151973868e846e474fdb6c48422fe4b28842bfa1"),
    ("random3", 50.0, -0.0005606140004675448, 0.0030636716941637486, "efbd3edddac94eb5d5177b0a6cc44332d206a08d9cab08e66e5bf3f6530936d0"),
    ("random10", 0.0, 0.2854957832413356, 0.006525184205755278, "9d7212aaaeecf85802aec8e450c090a8f2063f071028b3fa6a5e6a03a6c913f1"),
    ("random10", 0.7, 0.008585360953619081, 0.00687981013020772, "dff6a463e194398d411788382923ae205f530b2986bc880b41d1f3dcb3b72528"),
    ("random10", 50.0, -0.011308963699778258, 0.006676337694755218, "1c91ba4a811209ebae75d28c63ebe3a38624787735a3c7e4c2a873eb1ac393ea"),
    ("random30", 0.0, 0.3012229862739489, 0.005769910037579691, "6ec32b1f6542737b3351afd8f2b82543cf26af9c4cce93261a2fc98b51dc61ca"),
    ("random30", 0.7, 0.02305975241885063, 0.006906528268952776, "4d5151633c579ca06425758446c04257e8d71a931db2eeebfda5e9a22bdaba0e"),
    ("random30", 5.0, 0.003979794037778069, 0.006782155701600876, "864882a7510a87a1301392258824de368b7466dfe384bdff4423eb6d7511703e"),
    ("decay", 0.0, 1.0, 0.0, "a11e58977f1dc1c2ab3816f55d8b2ef63da62b10fc4e4e2facf7f3788a890cda"),
    ("decay", 0.7, -0.028, 0.02235750274436933, "6ee3032506eb5d987fec56bfcd8f43e8c308dabcc98d43156064359124982421"),
    ("decay", 50.0, -1.0, 0.0, "62454b8053dfbfa708ecc654de17cf9bd375ce16172f41caa5f6a7efad0e582b"),
    ("reducible", 0.0, 0.622, 0.008387083616239492, "f7dd746c109b7be70a38e2e48ef88b0a6d80d9f3908c5ed5347be925af1d7bf4"),
    ("reducible", 0.7, 0.04405, 0.012587653604291421, "4493e4c74a683af66f2b5dc888844ae4948d1aa0d869ab4c9811241bcbcac94e"),
    ("reducible", 50.0, -0.08405, 0.009730821815067745, "a939fa81c878cab0bb5d32b9c9b959732933ff5337f8f8964b6f15a7384c85df"),
]

# (model, sha256 of 50 trajectories drawn in a row with seed 23, horizon 3)
TRAJECTORY_PINS = [
    ("random2", "33343ed475ab30e3ad314f71fcdf045ac05c1ffd1ad044a47c0678432cc47fce"),
    ("random3", "0a361447115cecb9ac954748897cf2ec3761d7a8c0ddd4005cb2e0b20a478f46"),
    ("random10", "3b5e99d00b7cfa1b71c98bfd58ea7e0bb2427ca4676a080f21c61e76d21c45e6"),
    ("random30", "be55e4a1c989a904b65424e4fd847d21b63677142269fcd9079b0668fc4f627a"),
    ("decay", "de94af95f92322acf95fcd469a3d0e14de9ee304acd756e7d9aeab57c28b8110"),
    ("reducible", "169b15faf8059ec5b504abee08526c64050ec5fa18b3e94bc7ca6749807fc243"),
]


def _digest_states(init, final):
    return hashlib.sha256(np.stack([init, final]).astype("<i8").tobytes()).hexdigest()


def _digest_trajectories(trajs):
    rec = [(tr.initial_state, [(float(t).hex(), int(s)) for t, s in tr.jumps]) for tr in trajs]
    return hashlib.sha256(repr(rec).encode()).hexdigest()


class TestStreamPins:
    """Both samplers' outputs for fixed seeds, pinned bit for bit: any
    change to the order or number of random draws fails here."""

    @pytest.mark.parametrize("name,t,mean,stderr,digest", MC_PINS)
    def test_mc_two_point_and_states(self, name, t, mean, stderr, digest):
        W, p0, S = _pin_model(name)
        assert mc_two_point(W, p0, S, S, t, 2_000, seed=17) == (mean, stderr)
        init, final = _sample_states_at(W, p0, t, 2_000, make_rng(17))
        assert _digest_states(init, final) == digest

    @pytest.mark.parametrize("name,digest", TRAJECTORY_PINS)
    def test_sample_trajectory(self, name, digest):
        W, p0, _ = _pin_model(name)
        rng = make_rng(23)
        trajs = [sample_trajectory(W, p0, 3.0, rng) for _ in range(50)]
        assert _digest_trajectories(trajs) == digest
