import math

import numpy as np
import pytest

from corrbound import (
    Perturbation,
    ProbVector,
    PulseDrive,
    SampledDrive,
    ScoreVector,
    StepDrive,
    bound_pulse,
    bound_step,
    canonical_perturbation,
    convolved_shift,
    correlation_derivative,
    perturbed_oracle,
    pulse_shift,
    random_model,
    response_function,
    steady_state,
    step_shift,
    validate_rate_matrix,
)
from corrbound import linear_response
from corrbound.errors import (
    DimensionMismatchError,
    NegativeProbabilityError,
    NonFiniteError,
    NonPositiveTimeError,
    NotSteadyStateError,
    StepTooLargeError,
    TimesNotSortedError,
)
from conftest import model_sweep

CHI = 0.01


class TestResponseFunction:
    def test_causality_zero_before_kick(self, symmetric_model):
        W, pst, S, T = symmetric_model
        F = canonical_perturbation(W, S)
        for t in (-5.0, -0.001):
            assert response_function(W, pst, F, T, t) == 0.0

    def test_symmetric_closed_form(self, symmetric_model):
        W, pst, S, T = symmetric_model
        F = canonical_perturbation(W, S)
        for t in (0.0, 0.5, 2.0):
            assert response_function(W, pst, F, T, t) == pytest.approx(
                -2.0 * np.exp(-2.0 * t), abs=1e-13
            )

    def test_fluctuation_dissipation_identity(self):
        grid = (0.0, 0.25, 1.0, 3.0)
        for W, _, S in model_sweep(10):
            pst = steady_state(W)
            F = canonical_perturbation(W, S)
            for t in grid:
                lhs = response_function(W, pst, F, S, t)
                rhs = correlation_derivative(W, pst, S, S, t)
                assert abs(lhs - rhs) < 1e-10

    def test_non_stationary_baseline_rejected(self, symmetric_model):
        W, _, S, T = symmetric_model
        F = canonical_perturbation(W, S)
        lopsided = ProbVector(np.array([0.9, 0.1]))
        with pytest.raises(NotSteadyStateError):
            response_function(W, lopsided, F, T, 1.0)


class TestShifts:
    def test_pulse_closed_form(self, symmetric_model):
        W, pst, S, T = symmetric_model
        for t in (0.25, 1.0, 2.0):
            assert pulse_shift(W, pst, S, T, CHI, t) == pytest.approx(
                -0.02 * np.exp(-2.0 * t), abs=1e-14
            )

    def test_pulse_linear_in_strength(self, symmetric_model):
        W, pst, S, T = symmetric_model
        base = pulse_shift(W, pst, S, T, 1e-4, 0.5) / 1e-4
        for chi in (1e-3, 1e-2, 0.1):
            assert pulse_shift(W, pst, S, T, chi, 0.5) == pytest.approx(
                chi * base, rel=1e-12
            )

    def test_pulse_needs_positive_time(self, symmetric_model):
        W, pst, S, T = symmetric_model
        with pytest.raises(NonPositiveTimeError):
            pulse_shift(W, pst, S, T, CHI, 0.0)

    def test_pulse_frozen_generator_is_zero(self):
        W = validate_rate_matrix(np.zeros((2, 2)))
        p = ProbVector(np.array([0.4, 0.6]))  # any p is stationary for W = 0
        s = ScoreVector(np.array([-1.0, 1.0]))
        assert pulse_shift(W, p, s, s, CHI, 1.0) == 0.0

    def test_step_closed_form(self, symmetric_model):
        W, pst, S, T = symmetric_model
        for t in (0.0, 1.0, 4.0):
            assert step_shift(W, pst, S, T, CHI, t) == pytest.approx(
                0.01 * (np.exp(-2.0 * t) - 1.0), abs=1e-14
            )

    def test_step_long_time_limit(self, symmetric_model):
        W, pst, S, T = symmetric_model
        assert step_shift(W, pst, S, T, CHI, 40.0) == pytest.approx(-0.01, abs=1e-12)


class TestShiftsAreBoundSides:
    def test_shift_magnitudes_equal_the_bound_lhs_bit_for_bit(self):
        # the response CSVs print |shift| / rhs as the bound's ratio
        for W, _, S in model_sweep(60, seed=44_000):
            pst = steady_state(W)
            for t in (0.01, 0.3, 2.0, 7.0):
                for chi in (CHI, -0.3):
                    step = step_shift(W, pst, S, S, chi, t)
                    assert abs(step) == bound_step(W, pst, S, S, chi, t).lhs
                    pulse = pulse_shift(W, pst, S, S, chi, t)
                    assert abs(pulse) == bound_pulse(W, pst, S, S, chi, t).lhs


class TestBadInputsRaiseTypedErrors:
    @pytest.mark.parametrize("chi", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "entry", [bound_pulse, bound_step, pulse_shift, step_shift], ids=lambda f: f.__name__
    )
    def test_non_finite_strength_in_closed_forms(self, symmetric_model, entry, chi):
        W, pst, S, T = symmetric_model
        with pytest.raises(NonFiniteError):
            entry(W, pst, S, T, chi, 1.0)

    def test_non_finite_matrix_in_response_function(self, symmetric_model):
        W, pst, S, T = symmetric_model
        F = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(NonFiniteError):
            response_function(W, pst, F, T, 1.0)

    @pytest.mark.parametrize(
        "chi, dt",
        [(math.nan, 1e-2), (math.inf, 1e-2), (0.0, 1e-2), (CHI, math.nan), (CHI, math.inf)],
        ids=["nan", "inf", "0.0", "dt=nan", "dt=inf"],
    )
    def test_bad_strength_in_convolved_shift(self, symmetric_model, chi, dt):
        # a non-finite step is rejected as a non-finite strength is
        W, pst, S, T = symmetric_model
        F = canonical_perturbation(W, S)
        drive = SampledDrive(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(NonFiniteError):
            convolved_shift(W, pst, F, T, chi, drive, 0.5, dt)

    def test_non_finite_matrix_in_convolved_shift(self, symmetric_model):
        W, pst, S, T = symmetric_model
        F = np.array([[0.0, np.inf], [0.0, 0.0]])
        drive = SampledDrive(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(NonFiniteError):
            convolved_shift(W, pst, F, T, CHI, drive, 0.5, 1e-2)

    def test_matrix_of_another_size(self, symmetric_model):
        W, pst, S, T = symmetric_model
        F = np.zeros((3, 3))
        drive = SampledDrive(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(DimensionMismatchError):
            response_function(W, pst, F, T, 1.0)
        with pytest.raises(DimensionMismatchError):
            convolved_shift(W, pst, F, T, CHI, drive, 0.5, 1e-2)
        with pytest.raises(DimensionMismatchError):
            perturbed_oracle(W, F, CHI, StepDrive(), 0.01, 1e-3)


class TestPerturbationType:
    def test_zero_strength_rejected(self, symmetric_model):
        W, _, S, _ = symmetric_model
        F = canonical_perturbation(W, S)
        with pytest.raises(NonFiniteError):
            Perturbation(F, 0.0, StepDrive())

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(NonFiniteError):
            Perturbation(np.array([[np.inf, 0.0], [0.0, 0.0]]), CHI, StepDrive())

    def test_canonical_columns_sum_to_zero(self):
        for W, _, S in model_sweep(10):
            F = canonical_perturbation(W, S)
            assert np.abs(F.sum(axis=0)).max() < 1e-12


class TestBoundPulse:
    def test_symmetric_values_at_unit_time(self, symmetric_model):
        W, pst, S, T = symmetric_model
        rep = bound_pulse(W, pst, S, T, CHI, 1.0)
        assert rep.lhs == pytest.approx(0.02 * np.exp(-2.0), abs=1e-14)
        assert rep.rhs == pytest.approx(0.01, abs=1e-14)
        assert rep.satisfied

    def test_frozen_generator_vacuous(self):
        W = validate_rate_matrix(np.zeros((2, 2)))
        p = ProbVector(np.array([0.5, 0.5]))
        s = ScoreVector(np.array([-1.0, 1.0]))
        rep = bound_pulse(W, p, s, s, CHI, 2.0)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.ratio == 0.0

    def test_random_stationary_sweep(self):
        for W, _, S in model_sweep(20, seed=41_000):
            pst = steady_state(W)
            for t in (0.2, 1.0, 5.0):
                assert bound_pulse(W, pst, S, S, CHI, t).satisfied


class TestSteadyCheckAtFastRates:
    def test_steady_state_output_accepted_in_any_time_unit(self):
        # the residual of a computed stationary law grows with the rates;
        # the shift functions must accept what steady_state returns
        for W, _, S in model_sweep(10, seed=43_000):
            for c in (1e8, 1e10):
                Wc = W.scaled(c)
                pst = steady_state(Wc)
                for bound in (bound_pulse, bound_step):
                    ref = bound(W, steady_state(W), S, S, CHI, 1.0)
                    got = bound(Wc, pst, S, S, CHI, 1.0 / c)
                    assert abs(got.ratio - ref.ratio) <= 1e-10


class TestOneStationarityRule:
    """A caller's baseline passes when max |W P| is within the 1e-10 max R
    that ``steady_state`` applies to its own law, and only then."""

    @staticmethod
    def law_with_residual(W, rel):
        # the stationary law moved along e_0 - e_1, which keeps its sum
        d = np.zeros(W.n)
        d[:2] = 1.0, -1.0
        p = steady_state(W).p + rel * W.escape.max() / np.abs(W.w @ d).max() * d
        return ProbVector(p)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_caller_law_meets_steady_state_rule(self, seed):
        W, _, S = random_model(4, seed)
        F = canonical_perturbation(W, S)
        calls = [
            lambda P: response_function(W, P, F, S, 1.0),
            lambda P: pulse_shift(W, P, S, S, CHI, 1.0),
            lambda P: step_shift(W, P, S, S, CHI, 1.0),
            lambda P: bound_pulse(W, P, S, S, CHI, 1.0),
            lambda P: bound_step(W, P, S, S, CHI, 1.0),
        ]
        near, off = self.law_with_residual(W, 1e-11), self.law_with_residual(W, 1e-9)
        for rel, P in ((1e-11, near), (1e-9, off)):
            resid = np.abs(W.w @ P.p).max() / W.escape.max()
            assert resid == pytest.approx(rel, rel=1e-3)
        for call in calls:
            call(near)
            with pytest.raises(NotSteadyStateError):
                call(off)


class TestBoundStep:
    def test_symmetric_values_at_unit_time(self, symmetric_model):
        W, pst, S, T = symmetric_model
        rep = bound_step(W, pst, S, T, CHI, 1.0)
        assert rep.lhs == pytest.approx(0.01 * (1.0 - np.exp(-2.0)), abs=1e-14)
        assert rep.rhs == pytest.approx(0.02 * math.sin(1.0), abs=1e-14)
        assert rep.satisfied and rep.in_validity_domain

    def test_zero_time_vacuous(self, symmetric_model):
        W, pst, S, T = symmetric_model
        rep = bound_step(W, pst, S, T, CHI, 0.0)
        assert rep.lhs == 0.0 and rep.ratio == 0.0

    def test_domain_boundary_at_quarter_pi_squared(self, symmetric_model):
        W, pst, S, T = symmetric_model
        edge = (math.pi / 2.0) ** 2  # a = 1 for this model
        assert bound_step(W, pst, S, T, CHI, edge - 1e-6).in_validity_domain
        beyond = bound_step(W, pst, S, T, CHI, edge + 1e-6)
        assert not beyond.in_validity_domain
        assert beyond.rhs == pytest.approx(0.02, abs=1e-15)

    def test_two_fold_gap_at_t_four(self, symmetric_model):
        W, pst, S, T = symmetric_model
        rep = bound_step(W, pst, S, T, CHI, 4.0)
        assert rep.ratio == pytest.approx(0.49, abs=0.02)
        assert not rep.in_validity_domain  # trivial bound past sqrt(t) = pi/2

    def test_random_stationary_sweep(self):
        for W, _, S in model_sweep(20, seed=42_000):
            pst = steady_state(W)
            for t in (0.2, 1.0, 5.0):
                assert bound_step(W, pst, S, S, CHI, t).satisfied


class TestPerturbedOracle:
    def test_unperturbed_stays_stationary(self, symmetric_model):
        W, pst, S, _ = symmetric_model
        F = canonical_perturbation(W, S)
        series = perturbed_oracle(W, F, 1e-12, StepDrive(), 1.0, 1e-3)
        drift = max(np.abs(row - pst.p).max() for row in series.probs)
        assert drift < 1e-10

    def test_step_drive_matches_first_order_prediction(self, symmetric_model):
        W, pst, S, T = symmetric_model
        F = canonical_perturbation(W, S)
        series = perturbed_oracle(W, F, CHI, StepDrive(), 1.0, 1e-3)
        got = series.shift(T)[-1]
        predicted = step_shift(W, pst, S, T, CHI, 1.0)
        assert abs(got - predicted) < 10.0 * CHI**2

    def test_pulse_rectangle_matches_analytic_pulse(self, symmetric_model):
        # delta-sequence check: rectangle width 1e-4, height 1e4
        W, pst, S, T = symmetric_model
        F = canonical_perturbation(W, S)
        drive = PulseDrive(width=1e-4)
        series = perturbed_oracle(W, F, CHI, drive, 1.0, 1e-3)
        shifts = series.shift(T)
        for target in (0.1, 0.5, 1.0):
            k = int(round(target / 1e-3))
            predicted = pulse_shift(W, pst, S, T, CHI, float(series.times[k]))
            assert abs(shifts[k] - predicted) < 1e-3 * abs(predicted) + 1e-9

    def test_halving_strength_quarters_discrepancy(self):
        # needs a model with genuinely nonzero second-order response;
        # the symmetric two-state chain is exactly linear in the strength
        W, _, S = model_sweep(1, states=(3,), seed=2_022)[0]
        pst = steady_state(W)
        F = canonical_perturbation(W, S)
        dt = 1e-3 / float(W.escape.max())

        def discrepancy(chi):
            series = perturbed_oracle(W, F, chi, StepDrive(), 1.0, dt)
            predicted = np.array(
                [step_shift(W, pst, S, S, chi, float(t)) for t in series.times]
            )
            return np.abs(series.shift(S) - predicted).max()

        ratio = discrepancy(1e-2) / discrepancy(5e-3)
        assert 3.5 <= ratio <= 4.5

    def test_probability_conserved_and_positive(self, symmetric_model):
        W, _, S, _ = symmetric_model
        F = canonical_perturbation(W, S)
        series = perturbed_oracle(W, F, CHI, StepDrive(), 2.0, 1e-3)
        for row in series.probs:
            assert abs(row.sum() - 1.0) < 1e-12
            assert row.min() >= 0.0

    def test_step_too_large_rejected(self, symmetric_model):
        W, _, S, _ = symmetric_model
        F = canonical_perturbation(W, S)
        with pytest.raises(StepTooLargeError):
            perturbed_oracle(W, F, CHI, StepDrive(), 1.0, 0.01)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_step_rejected(self, symmetric_model, dt):
        W, _, S, _ = symmetric_model
        F = canonical_perturbation(W, S)
        with pytest.raises(NonFiniteError, match="dt must be finite"):
            perturbed_oracle(W, F, CHI, StepDrive(), 1.0, dt)

    def test_divergence_detected(self, symmetric_model):
        W, _, S, _ = symmetric_model
        F = canonical_perturbation(W, S)
        with pytest.raises(NonFiniteError, match=r"at t = 0\.001$"):
            perturbed_oracle(W, F, 1e7, StepDrive(), 1.0, 1e-3)
        # a drive switched on at t = 0.25 diverges there, not at the end
        late = SampledDrive(np.array([0.25, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(NonFiniteError, match=r"at t = 0\.25$"):
            perturbed_oracle(W, F, 1e4, late, 1.0, 1e-3)

    def test_negative_mass_row_rejected(self):
        # F moves mass out of state 0 at the rate state 1 holds it: from a
        # stationary P0 of 5e-7, one step leaves P0 near -5e-7, inside the
        # divergence limit but far beyond ProbVector's roundoff allowance
        eps = 5e-7 / (1.0 - 5e-7)
        W = validate_rate_matrix([[0.0, eps], [1.0, 0.0]])
        F = np.array([[0.0, -1.0], [0.0, 1.0]])
        with pytest.raises(NegativeProbabilityError, match="negative probability mass"):
            perturbed_oracle(W, F, 1e-3, StepDrive(), 0.01, 1e-3)


def _per_vector_oracle(W, F, chi, drive, t_end, dt):
    """Reference: RK4 on the probability vector itself, four right-hand
    sides per sub-step, steps cut at the drive's breakpoints."""
    n_steps = int(math.ceil(t_end / dt - 1e-12))
    times = np.minimum(np.arange(n_steps + 1) * dt, t_end)
    cuts = [c for c in drive.breakpoints() if 0.0 < c < t_end]
    P = steady_state(W).p.copy()
    rows = [P]
    for a, b in zip(times[:-1], times[1:]):
        mesh = [a] + [c for c in cuts if a < c < b] + [b]
        for lo, hi in zip(mesh[:-1], mesh[1:]):
            h = hi - lo
            A = W.w + chi * drive.value(lo + 0.5 * h) * F
            k1 = A @ P
            k2 = A @ (P + 0.5 * h * k1)
            k3 = A @ (P + 0.5 * h * k2)
            k4 = A @ (P + h * k3)
            P = P + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows.append(P)
    return times, np.array(rows)


class TestStepMatrixCache:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        step = linear_response._rk4_step

        def counting(*args, **kwargs):
            calls.append(args)
            return step(*args, **kwargs)

        monkeypatch.setattr(linear_response, "_rk4_step", counting)
        return calls

    def test_step_drive_makes_at_most_three_rk4_calls(self, counted):
        # one matrix for the steps of length dt, and at most two more for
        # the last step (its length is t_end - t_1999, which need not
        # equal dt bit for bit); every call steps the identity
        W, _, S = model_sweep(1, states=(3,), seed=2_022)[0]
        F = canonical_perturbation(W, S)
        dt = 1e-3 / float(W.escape.max())
        series = perturbed_oracle(W, F, CHI, StepDrive(), 2000 * dt, dt)
        assert len(series.times) == 2001
        assert 1 <= len(counted) <= 3
        assert all(np.array_equal(args[-1], np.eye(3)) for args in counted)

    def test_sampled_drive_makes_one_rk4_call_per_sub_step(self, counted, symmetric_model):
        # a strictly rising drive never repeats its values; the sample at
        # 0.1005 cuts step 100 in two, so 200 steps make 201 sub-steps
        W, _, S, _ = symmetric_model
        F = canonical_perturbation(W, S)
        drive = SampledDrive(np.array([0.0, 0.1005, 2.0]), np.array([0.0, 1.0, 3.0]))
        perturbed_oracle(W, F, CHI, drive, 0.2, 1e-3)
        assert len(counted) == 201

    def test_pulse_cut_inside_step_matches_per_vector_steps(self):
        # the pulse ends inside step 1, so that step runs as two sub-steps
        W, _, S = model_sweep(1, states=(3,), seed=2_022)[0]
        F = canonical_perturbation(W, S)
        dt = 1e-3 / float(W.escape.max())
        drive = PulseDrive(width=1.5 * dt)
        series = perturbed_oracle(W, F, CHI, drive, 300 * dt, dt)
        times, rows = _per_vector_oracle(W, F, CHI, drive, 300 * dt, dt)
        assert np.array_equal(series.times, times)
        ref = rows @ S.s
        np.testing.assert_allclose(series.shift(S), ref - ref[0], rtol=0, atol=1e-12)
        assert np.abs(series.shift(S)).max() > 1e-4  # the pulse moved <S>

    def test_pulse_ending_on_a_grid_time_matches_per_vector_steps(self, counted):
        # the cut at 7 dt is a grid time, so no step is split, yet the
        # steps after it see another drive value: one matrix for the pulse
        # steps, one for the later steps and at most one for the last step
        W, _, S = model_sweep(1, states=(3,), seed=2_022)[0]
        F = canonical_perturbation(W, S)
        dt = 1e-3 / float(W.escape.max())
        drive = PulseDrive(width=7 * dt)
        series = perturbed_oracle(W, F, CHI, drive, 300 * dt, dt)
        times, rows = _per_vector_oracle(W, F, CHI, drive, 300 * dt, dt)
        assert series.times[7] == drive.width
        ref = rows @ S.s
        np.testing.assert_allclose(series.shift(S), ref - ref[0], rtol=0, atol=1e-12)
        assert 2 <= len(counted) <= 3

    def test_probs_are_read_only_rows(self, symmetric_model):
        W, _, S, _ = symmetric_model
        F = canonical_perturbation(W, S)
        series = perturbed_oracle(W, F, CHI, StepDrive(), 0.1, 1e-3)
        assert series.probs.shape == (101, 2)
        with pytest.raises(ValueError):
            series.probs[0, 0] = 1.0


class TestSampledDriveConvolution:
    def test_sampled_step_matches_closed_form(self, symmetric_model):
        W, pst, S, T = symmetric_model
        F = canonical_perturbation(W, S)
        drive = SampledDrive(np.linspace(0.0, 2.0, 2001), np.ones(2001))
        got = convolved_shift(W, pst, F, T, CHI, drive, 1.5, 1e-3)
        expect = step_shift(W, pst, S, T, CHI, 1.5)
        assert got == pytest.approx(expect, rel=1e-4, abs=1e-9)

    @pytest.mark.parametrize(
        "t, dt", [(1.0, 0.3), (1.0, 0.07), (1.0, 0.011), (1.0, 2.0), (0.3, 0.1)]
    )
    def test_grid_ends_at_t(self, t, dt):
        # t is no multiple of dt, or (0.3 and 0.1) 3 dt rounds above t: the
        # grid still ends at t with a shorter last cell, so the error stays
        # second order in h = min(dt, t)
        W, _, S = random_model(3, 1)
        pst = steady_state(W)
        F = canonical_perturbation(W, S)
        drive = SampledDrive(np.linspace(0.0, 2.0, 2001), np.ones(2001))
        got = convolved_shift(W, pst, F, S, CHI, drive, t, dt)
        expect = step_shift(W, pst, S, S, CHI, t)
        assert abs(got - expect) <= 0.5 * min(dt, t) ** 2 * abs(expect)

    def test_array_values_match_per_point_values(self):
        drive = SampledDrive(np.array([0.0, 0.3, 1.1]), np.array([0.2, -1.0, 2.5]))
        grid = np.concatenate([np.arange(-0.5, 1.6, 1e-3), drive.times])
        got = drive.value(grid)
        assert np.array_equal(got, [drive.value(float(t)) for t in grid])
        assert isinstance(drive.value(0.3), float)

    def test_sampled_drive_validation(self):
        with pytest.raises(TimesNotSortedError):
            SampledDrive(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(NonFiniteError):
            SampledDrive(np.array([0.0, 1.0]), np.array([1.0, np.nan]))

    def test_caller_arrays_stay_writable_and_detached(self):
        ts, vs = np.linspace(0.0, 1.0, 5), np.ones(5)
        drive = SampledDrive(ts, vs)
        ts[0], vs[:] = 3.0, 2.0
        assert drive.times[0] == 0.0
        assert drive.value(0.5) == 1.0
        with pytest.raises(ValueError):
            drive.times[0] = 3.0

    def test_oracle_with_sampled_ramp(self, symmetric_model):
        # smooth ramp drive: oracle vs trapezoidal convolution
        W, pst, S, T = symmetric_model
        F = canonical_perturbation(W, S)
        ts = np.linspace(0.0, 1.0, 101)
        drive = SampledDrive(ts, np.minimum(ts / 0.5, 1.0))
        series = perturbed_oracle(W, F, CHI, drive, 1.0, 1e-3)
        got = series.shift(T)[-1]
        ref = convolved_shift(W, pst, F, T, CHI, drive, 1.0, 1e-3)
        assert got == pytest.approx(ref, rel=1e-3, abs=1e-8)
