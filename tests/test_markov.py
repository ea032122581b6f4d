import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from corrbound import (
    ProbVector,
    ScoreVector,
    load_model,
    make_rng,
    propagate,
    propagator,
    propagator_integral,
    random_model,
    steady_state,
    validate_rate_matrix,
)
from corrbound import markov
from corrbound.bounds import RATIO_SLACK
from corrbound.cli import DEFAULT_BOUNDS, evaluate_bounds
from corrbound.errors import (
    BadDimensionError,
    CorrboundError,
    DimensionMismatchError,
    NegativeProbabilityError,
    NegativeRateError,
    NegativeTimeError,
    NonFiniteError,
    NonSquareError,
    NonUniqueSteadyStateError,
    NotNormalizedError,
)
from corrbound.markov import (
    _check_time,
    _check_times,
    _integral_apply,
    _propagator_apply,
    _Spectral,
)
from conftest import model_sweep


def expm_series(w, t, terms=80):
    """Independent oracle: truncated exponential series sum (Wt)^k / k!."""
    acc = np.eye(w.shape[0])
    term = np.eye(w.shape[0])
    for k in range(1, terms):
        term = term @ (w * t) / k
        acc = acc + term
    return acc


class TestValidateRateMatrix:
    def test_decay_matrix_accepted_with_escape_rates(self):
        W = validate_rate_matrix([[0.0, 1.0], [0.0, -1.0]])
        assert np.allclose(W.escape, [0.0, 1.0])
        assert np.allclose(W.w.sum(axis=0), 0.0, atol=1e-15)

    def test_zero_matrix_is_frozen_process(self):
        W = validate_rate_matrix(np.zeros((4, 4)))
        assert np.array_equal(W.escape, np.zeros(4))

    def test_negative_offdiagonal_rejected_with_position(self):
        with pytest.raises(NegativeRateError, match=r"row 1, col 2"):
            validate_rate_matrix([[0.0, -0.5], [0.0, 0.5]])

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            validate_rate_matrix([[0.0, 1.0, 2.0], [0.0, -1.0, 0.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            validate_rate_matrix([[0.0, np.nan], [0.0, 0.0]])

    def test_single_state_rejected(self):
        with pytest.raises(BadDimensionError):
            validate_rate_matrix([[0.0]])

    def test_diagonal_is_recomputed_never_trusted(self):
        W = validate_rate_matrix([[99.0, 1.0], [2.0, 99.0]])
        assert W.w[0, 0] == -2.0
        assert W.w[1, 1] == -1.0

    def test_matrix_is_immutable(self):
        W = validate_rate_matrix([[0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(ValueError):
            W.w[0, 1] = 5.0


class TestProbVector:
    def test_roundoff_negatives_clamped_and_renormalized(self):
        p = ProbVector(np.array([1.0 + 5e-13, -5e-13]))
        assert p.p[1] == 0.0
        assert p.p.sum() == 1.0

    def test_large_negative_mass_rejected(self):
        with pytest.raises(NegativeProbabilityError):
            ProbVector(np.array([1.01, -0.01]))

    def test_bad_sum_rejected(self):
        with pytest.raises(NotNormalizedError):
            ProbVector(np.array([0.5, 0.4]))

    def test_rows_follow_the_vector_rule(self):
        rows = np.array([
            [0.2, 0.3, 0.5],
            [1.0 + 5e-13, -5e-13, 0.0],
            [0.1, 0.9 + 3e-11, -1e-13],
        ])
        got = markov._clamped_probs(rows)
        for row, ref in zip(got, rows):
            assert np.array_equal(row, ProbVector(ref).p)
        assert not got.flags.writeable
        # the first row at fault raises what ProbVector raises on it
        for bad in ([0.5, 0.4, 0.05], [1.01, -0.01, 0.0]):
            with pytest.raises(CorrboundError) as vec_err:
                ProbVector(np.array(bad))
            with pytest.raises(type(vec_err.value), match=f"^{re.escape(str(vec_err.value))}$"):
                markov._clamped_probs(np.array([rows[0], bad, [0.0, 0.0, 2.0]]))


class TestScoreVector:
    def test_max_abs(self):
        assert ScoreVector(np.array([0.25, -0.75, 0.5])).max_abs == 0.75

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            ScoreVector(np.array([np.inf, 0.0]))


class TestPropagator:
    def test_zero_time_is_identity(self, decay_model):
        W, _, _, _ = decay_model
        assert np.array_equal(propagator(W, 0.0), np.eye(2))

    def test_decay_closed_form(self, decay_model):
        W, _, _, _ = decay_model
        for t in (0.1, 1.0, 4.0):
            expect = np.array([[1.0, 1.0 - np.exp(-t)], [0.0, np.exp(-t)]])
            assert np.abs(propagator(W, t) - expect).max() < 1e-12

    def test_decay_matches_series_summation(self, decay_model):
        W, _, _, _ = decay_model
        assert np.abs(propagator(W, 1.3) - expm_series(W.w, 1.3)).max() < 1e-13

    def test_symmetric_closed_form(self, symmetric_model):
        W, _, _, _ = symmetric_model
        for t in (0.2, 1.0, 2.5):
            e = np.exp(-2.0 * t)
            expect = 0.5 * np.array([[1.0 + e, 1.0 - e], [1.0 - e, 1.0 + e]])
            assert np.abs(propagator(W, t) - expect).max() < 1e-12

    def test_negative_time_rejected(self, decay_model):
        W, _, _, _ = decay_model
        with pytest.raises(NegativeTimeError):
            propagator(W, -0.5)

    def test_columns_stochastic_on_random_models(self):
        for W, _, _ in model_sweep(30):
            for t in (0.1, 1.0, 10.0):
                P = propagator(W, t)
                assert np.abs(P.sum(axis=0) - 1.0).max() < 1e-10
                assert P.min() > -1e-10
                assert P.max() < 1.0 + 1e-10

    def test_semigroup_property(self):
        for W, _, _ in model_sweep(20):
            for t1, t2 in ((0.3, 0.9), (1.5, 2.5)):
                lhs = propagator(W, t1) @ propagator(W, t2)
                rhs = propagator(W, t1 + t2)
                assert np.abs(lhs - rhs).max() < 1e-9

    def test_matches_scipy_on_random_models(self):
        # cross-implementation check: eigenbasis path vs scaling-and-squaring
        for W, _, _ in model_sweep(10):
            assert np.abs(propagator(W, 0.7) - scipy.linalg.expm(W.w * 0.7)).max() < 1e-12


class TestCheckTimes:
    def test_valid_times_pass_as_floats(self):
        got = _check_times([0, 0.5, 3])
        assert got.dtype == float and got.tolist() == [0.0, 0.5, 3.0]
        assert _check_time(2) == 2.0 and isinstance(_check_time(2), float)

    @pytest.mark.parametrize(
        "times, error, message",
        [
            ([1.0, -2.0, math.nan], NegativeTimeError, "time must be >= 0, got -2.0"),
            ([1.0, math.inf, -2.0], NonFiniteError, "time must be finite"),
            ([math.nan], NonFiniteError, "time must be finite"),
            ([[0.5, -0.25]], NegativeTimeError, "time must be >= 0, got -0.25"),
        ],
    )
    def test_first_bad_time_raises_as_the_scalar_check(self, times, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            _check_times(times)
        first_bad = next(t for t in np.ravel(times) if not 0.0 <= t < math.inf)
        with pytest.raises(error, match=f"^{message}$"):
            _check_time(first_bad)


class TestPropagate:
    def test_decay_closed_form(self, decay_model):
        W, p0, _, _ = decay_model
        for t in (0.5, 2.0):
            expect = np.array([1.0 - np.exp(-t), np.exp(-t)])
            assert np.abs(propagate(W, p0, t).p - expect).max() < 1e-12

    def test_zero_time_identity(self, decay_model):
        W, p0, _, _ = decay_model
        assert np.array_equal(propagate(W, p0, 0.0).p, p0.p)

    def test_frozen_process_identity(self, frozen_model):
        W, p0, _, _ = frozen_model
        assert np.abs(propagate(W, p0, 7.0).p - p0.p).max() < 1e-15

    def test_dimension_mismatch(self, decay_model):
        W, _, _, _ = decay_model
        with pytest.raises(DimensionMismatchError):
            propagate(W, ProbVector(np.ones(3) / 3.0), 1.0)

    def test_simplex_preserved_on_random_models(self):
        grid = np.arange(0.0, 10.01, 0.1)
        for W, p0, _ in model_sweep(100):
            for t in grid:
                p = propagate(W, p0, float(t)).p
                assert abs(p.sum() - 1.0) < 1e-12
                assert p.min() >= 0.0

    def test_fast_rates_stay_normalized(self):
        # the computed zero eigenvalue drifts by eps * max|W| unless pinned to 0
        W, p0, _ = random_model(4, 3)
        p = propagate(W.scaled(1e6), p0, 1.0).p
        assert abs(p.sum() - 1.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(2, 5),
        seed=st.integers(0, 2**32),
        log_c=st.floats(-150.0, 150.0),
        t=st.floats(0.0, 10.0),
    )
    def test_scaled_rates_and_times_give_the_same_law(self, n, seed, log_c, t):
        c = 10.0**log_c
        W, p0, _ = random_model(n, seed)
        got = propagate(W.scaled(c), p0, t / c)
        assert np.abs(got.p - propagate(W, p0, t).p).max() <= 1e-10


class TestPropagatorIntegral:
    def test_zero_time_is_zero_matrix(self, decay_model):
        W, _, _, _ = decay_model
        assert np.array_equal(propagator_integral(W, 0.0), np.zeros((2, 2)))

    def test_frozen_process_is_t_identity(self, frozen_model):
        W, _, _, _ = frozen_model
        assert np.abs(propagator_integral(W, 3.5) - 3.5 * np.eye(3)).max() < 1e-12

    def test_decay_entry_closed_form_and_quadrature(self, decay_model):
        W, _, _, _ = decay_model
        t = 1.7
        M = propagator_integral(W, t)
        assert abs(M[1, 1] - (1.0 - np.exp(-t))) < 1e-12
        # independent oracle: adaptive quadrature of each propagator entry
        for i in range(2):
            for j in range(2):
                ref, _ = scipy.integrate.quad(
                    lambda s, i=i, j=j: scipy.linalg.expm(W.w * s)[i, j], 0.0, t
                )
                assert abs(M[i, j] - ref) < 1e-9

    def test_derivative_is_propagator(self):
        h = 1e-5
        for W, _, _ in model_sweep(10):
            for t in (0.4, 2.0):
                fd = (propagator_integral(W, t + h) - propagator_integral(W, t - h)) / (2 * h)
                assert np.abs(fd - propagator(W, t)).max() < 1e-6


class TestPhiT:
    """(e^{lam t} - 1)/lam against a 40-digit reference from the exact
    float inputs lam and t."""

    @staticmethod
    def reference(lam, t):
        with mpmath.workdps(40):
            z = mpmath.mpc(lam.real, lam.imag) * mpmath.mpf(t)
            if z == 0:
                return complex(t)
            return complex(mpmath.expm1(z) / z * t)

    @staticmethod
    def phi(lam, t):
        # a stack of one basis, with its times as one 1-d array
        lam = np.asarray(lam, dtype=complex)[None]
        eye = np.eye(lam.size)[None]
        t = np.asarray(t, dtype=float)
        got = _Spectral(lam, eye, eye, np.arange(1)).phi_t(t.reshape(-1))
        return got.reshape(t.shape + (lam.size,))

    def check(self, lam, ts):
        got = self.phi(lam, ts)
        for i, t in enumerate(ts):
            for k, l in enumerate(lam):
                ref = self.reference(complex(l), float(t))
                assert abs(got[i, k] - ref) <= 1e-15 * abs(ref), (l, t)

    def test_real_eigenvalues_over_sixteen_decades(self):
        # |lam t| from 1e-12 to 1e4
        self.check([-1.0, -0.37], np.geomspace(1e-12, 1e4, 49))

    def test_complex_pair(self):
        self.check([-0.3 + 1.7j, -0.3 - 1.7j], np.geomspace(1e-12, 1e4, 49))

    def test_zero_eigenvalue_gives_exactly_t(self):
        ts = np.array([0.0, 1e-12, 0.3, 2.5, 1e4])
        got = self.phi([0.0, -1.0], ts)
        assert np.array_equal(got[:, 0], ts)

    def test_zero_time_gives_exactly_zero(self):
        got = self.phi([0.0, -2.0, -0.3 + 1.7j], 0.0)
        assert np.array_equal(got, np.zeros(3))


class TestModes:
    """``phi_t`` and the propagator's e^{lam t} evaluate the first eigenvalue
    of each conjugate pair and give the second its conjugate; the values
    equal the elementwise formulas on every eigenvalue. They are compared
    on the float view: a mirrored phi at t = 0 may have imaginary part -0."""

    TIMES = np.concatenate([[0.0], np.geomspace(1e-12, 1e3, 40)])

    @staticmethod
    def formulas(lam, t):
        z = t[..., None] * lam[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            phi = np.expm1(z)
            phi /= z
        phi[z == 0] = 1
        phi *= t[..., None]
        return phi, np.exp(z)

    def check(self, sd, t):
        for got, want in zip((sd.phi_t(t), sd.exp_t(t)), self.formulas(sd.lam, t)):
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.array_equal(got.view(float), want.view(float))

    @staticmethod
    def mirrored(sd):
        """(model, eigenvalue) of each mirrored eigenvalue."""
        return np.divmod(sd._pairs[1], sd.lam.shape[1])

    def test_complex_model_of_64_states(self):
        (sd,) = random_model(64, 0)[0]._spectral
        assert len(self.mirrored(sd)[1]) == 25
        assert np.count_nonzero(sd.lam == 0) == 1  # the pinned zero
        self.check(sd, self.TIMES)
        self.check(sd, np.zeros(3))

    def test_stacks_with_pairs_at_different_positions(self):
        W, _, _ = stack_of([random_model(4, seed) for seed in range(16)])
        sd = next(sd for sd in W._spectral if sd.lam.dtype.kind == "c")
        models, positions = self.mirrored(sd)
        assert set(positions.tolist()) == {2, 3} and models.size == len(sd.lam)
        self.check(sd, self.TIMES)

    def test_real_spectra_are_evaluated(self):
        (sd,) = random_model(4, 16)[0]._spectral
        assert sd.lam.dtype.kind == "f" and sd._pairs is None
        self.check(sd, self.TIMES)

    def test_lone_and_reversed_pairs_are_evaluated(self):
        # a pair at the front, a lone complex eigenvalue after its would-be
        # partner's real part, and a pair in (a - bi, a + bi) order
        lam = np.array([[-1 + 2j, -1 - 2j, 0, -1 + 3j, -2 - 1j, -3 - 1j, -3 + 1j]])
        eye = np.eye(lam.shape[1])[None].astype(complex)
        sd = _Spectral(lam, eye, eye, np.arange(1))
        assert self.mirrored(sd)[1].tolist() == [1]
        self.check(sd, self.TIMES)


class TestConditionGate:
    """The eigenbasis is trusted when cond_1(V) = |V|_1 |V^-1|_1 is below
    1e8 and V reproduces W; the rule with the 2-norm condition number from
    an SVD took the same regime on every model of the corpus."""

    @staticmethod
    def corpus():
        ws = [random_model(n, seed)[0].w for n in range(2, 13) for seed in range(10)]
        for k in range(6, 13):  # the stiffness ladder
            for seed in range(5):
                w = random_model(3, seed)[0].w.copy()
                w[2, 1] = 1.4556 * 10.0**k * (1 + 0.1 * seed)
                ws.append(w)
        rng = np.random.default_rng(3)
        for n in range(3, 7):  # one-way chains, near a Jordan block for small eps
            for eps in np.geomspace(1e-12, 1e-1, 23):
                w = np.zeros((n, n))
                w[np.arange(1, n), np.arange(n - 1)] = 1 + eps * rng.uniform(size=n - 1)
                ws.append(w)
                # closed by a slow rate back to the first state: bases of
                # cond_1 up to about 1e7 that still reproduce W
                w = w.copy()
                w[0, n - 1] = eps * rng.uniform()
                ws.append(w)
        return [validate_rate_matrix(w) for w in ws]

    @staticmethod
    def old_rule(W):
        """Trusted as before: cond_2(V) < 1e8, then the reconstruction."""
        w = W.w[None]
        lam, V = np.linalg.eig(w)
        if not np.linalg.cond(V)[0] < 1e8:
            return False
        recon = np.real((V * lam[:, None, :]) @ np.linalg.inv(V))
        return not np.abs(recon - w).max() > 1e-12 * W.escape.max()

    def test_regimes_equal_the_svd_rule(self):
        models = self.corpus()
        trusted = [W._spectral is not None for W in models]
        assert trusted == [self.old_rule(W) for W in models]
        assert 0 < sum(trusted) < len(models)

    def test_no_svd_is_taken(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("the acceptance rule took an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        monkeypatch.setattr(np.linalg, "cond", no_svd)
        assert random_model(6, 1)[0]._spectral is not None

    def test_singular_basis_leaves_its_stack_mates_alone(self, monkeypatch):
        # complex spectra at 0, 1, 3; real at 2; model 1 gets a zero
        # eigenvector, so the batched inverse of its part raises
        models = [random_model(4, seed) for seed in (11, 12, 16, 13)]
        rng = np.random.default_rng(8)
        vec = rng.standard_normal((4, 4))
        times = np.array([0.0, 0.3, 2.0, 9.0])
        alone = [_propagator_apply(W, vec[j], times) for j, (W, _, _) in enumerate(models)]
        W, _, _ = stack_of(models)
        eig = np.linalg.eig

        def singular_eig(a):
            lam, V = eig(a)
            V = V.copy()
            V[1, :, 2] = 0.0
            return lam, V

        monkeypatch.setattr(np.linalg, "eig", singular_eig)
        assert sorted(m for sd in W._spectral for m in sd.models.tolist()) == [0, 2, 3]
        rates, index = W._regimes[-1]
        assert not isinstance(rates, _Spectral) and index.tolist() == [1]
        rows = _propagator_apply(W, vec, times)
        for j in (0, 2, 3):
            assert np.array_equal(rows[j], alone[j]), j
        exact = [scipy.linalg.expm(models[1][0].w * t) @ vec[1] for t in times]
        assert np.abs(rows[1] - exact).max() <= 1e-13


class TestDefectiveFallback:
    """Chain 0 -> 1 -> 2 -> 3 at one rate k: a 3x3 Jordan block, so the
    eigenbasis is rejected and propagation takes the expm fallback."""

    K = 1.3

    @pytest.fixture
    def chain(self):
        w = np.zeros((4, 4))
        for i in range(3):
            w[i + 1, i] = self.K
        return validate_rate_matrix(w)

    def closed_form(self, t):
        # from state j the jump count is Poisson(k t); state 3 absorbs the tail
        pmf = [math.exp(-self.K * t) * (self.K * t) ** m / math.factorial(m) for m in range(4)]
        P = np.zeros((4, 4))
        for j in range(4):
            for i in range(j, 3):
                P[i, j] = pmf[i - j]
            P[3, j] = 1.0 - sum(pmf[: 3 - j])
        return P

    def test_eigenbasis_rejected(self, chain):
        assert chain._spectral is None

    def test_propagator_closed_form(self, chain):
        for t in (0.1, 1.0, 4.0, 20.0):
            assert np.abs(propagator(chain, t) - self.closed_form(t)).max() < 1e-12

    def test_propagator_integral_matches_quadrature(self, chain):
        t = 2.3
        M = propagator_integral(chain, t)
        for i in range(4):
            for j in range(4):
                ref, _ = scipy.integrate.quad(
                    lambda s, i=i, j=j: self.closed_form(s)[i, j], 0.0, t, epsabs=1e-13
                )
                assert abs(M[i, j] - ref) < 1e-9

    def test_primitives_match_wrappers_and_are_exact_at_zero(self, chain):
        times = np.array([0.0, 0.2, 1.0, 5.0])
        v = np.array([0.4, -0.3, 0.2, 0.7])
        rows = _propagator_apply(chain, v, times)
        integrals = _integral_apply(chain, v, times)
        assert np.array_equal(rows[0], v)
        assert np.array_equal(integrals[0], np.zeros(4))
        for t, row, integral in zip(times, rows, integrals):
            assert np.abs(row - propagator(chain, t) @ v).max() < 1e-13
            assert np.abs(integral - propagator_integral(chain, t) @ v).max() < 1e-13

    def test_left_contraction_is_dot_of_rows(self, chain):
        # on the expm path here and on the eigenvector path of a random model
        times = np.linspace(0.0, 5.0, 11)
        for W in (chain, random_model(4, 3)[0]):
            v, left = np.array([0.4, -0.3, 0.2, 0.7]), W.escape
            expect = _integral_apply(W, v, times) @ left
            np.testing.assert_allclose(_integral_apply(W, v, times, left), expect, rtol=1e-14)

    def test_blocks_cap_augmented_generators(self, chain, monkeypatch):
        # the expm path counts a working set of 4 (n + 1)^2 elements per
        # time, so a cap of three of them gives blocks of three times
        times = np.linspace(0.0, 5.0, 11)
        v = np.array([0.4, -0.3, 0.2, 0.7])
        ref, ref_matrix = _integral_apply(chain, v, times), propagator_integral(chain, 2.3)
        monkeypatch.setattr(markov, "_APPLY_ELEMENTS", 3 * 4 * 5**2)
        sizes = []
        real_block = markov._integral_block

        def counted(W, vec, ts):
            sizes.append(ts.size)
            return real_block(W, vec, ts)

        monkeypatch.setattr(markov, "_integral_block", counted)
        np.testing.assert_allclose(_integral_apply(chain, v, times), ref, rtol=0, atol=1e-15)
        # one row of vec per time (the identity's columns) is blocked with them
        np.testing.assert_allclose(propagator_integral(chain, 2.3), ref_matrix, rtol=0, atol=1e-15)
        assert sizes == [3, 3, 3, 2, 3, 1]

    def test_propagator_memory_is_capped(self):
        # a one-way chain is defective, so every time takes an n x n expm;
        # all 400 at once take 1.2 MiB per array, and expm holds several
        n = 20
        w = np.zeros((n, n))
        for i in range(n - 1):
            w[i + 1, i] = 1.0
        W = validate_rate_matrix(w)
        assert W._spectral is None
        tracemalloc.start()
        try:
            rows = _propagator_apply(W, np.full(n, 1.0 / n), np.linspace(0.0, 10.0, 400))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes + 4 * markov._APPLY_ELEMENTS * 8

    def test_default_bounds_hold(self, chain):
        p0 = ProbVector(np.array([0.4, 0.3, 0.2, 0.1]))
        S = ScoreVector(np.array([1.0, -0.5, 0.25, -1.0]))
        reports = evaluate_bounds(chain, p0, S, S, np.geomspace(1e-2, 10.0, 12), DEFAULT_BOUNDS)
        assert reports
        assert max(r.ratio for r in reports) <= 1.0 + RATIO_SLACK


class TestExpm:
    """The batched Pade kernel of the expm path against a 40-digit mpmath
    expm, on stiff generators where scaling and squaring loses most."""

    TIMES = np.geomspace(1e-6, 30.0, 6)

    @pytest.mark.parametrize("rate", [1e4, 1e8, 1e12])
    def test_stiff_generator_and_its_augmentation(self, rate):
        W, p0, _ = random_model(5, 7)
        w = W.w.copy()
        w[2, 1] = rate
        w = validate_rate_matrix(w).w
        aug = np.zeros((6, 6))  # Van Loan: [[W, p0], [0, 0]]
        aug[:5, :5], aug[:5, 5] = w, p0.p
        for a in (w, aug):
            got = markov._expm(a * self.TIMES[:, None, None])
            for t, g in zip(self.TIMES, got):
                with mpmath.workdps(40):
                    ref = mpmath.expm(mpmath.matrix((a * t).tolist()))
                ref = np.array(ref.tolist(), dtype=float)
                assert np.abs(g - ref).max() <= 1e-11 * np.abs(ref).max(), (rate, t)

    def test_absorbing_column_is_exact(self):
        # a zero column of W t stays exactly zero in every squared e^A - I
        w = np.zeros((4, 4))
        for i in range(3):
            w[i + 1, i] = 1.3
        got = markov._expm(validate_rate_matrix(w).w * self.TIMES[:, None, None])
        assert np.array_equal(got[:, :, 3], np.tile(np.eye(4)[3], (self.TIMES.size, 1)))

    def test_stack_equals_matrices_alone(self):
        # each matrix has its own scaling; a stack gives each the numbers it
        # gets alone
        W, _, _ = random_model(4, 3)
        w = W.w.copy()
        w[1, 0] = 1e9
        a = validate_rate_matrix(w).w * np.geomspace(1e-6, 30.0, 9)[:, None, None]
        alone = np.stack([markov._expm(x) for x in a])
        assert np.array_equal(markov._expm(a), alone)
        assert np.array_equal(markov._expm(a.reshape(3, 3, 4, 4)), alone.reshape(3, 3, 4, 4))


class TestSteadyState:
    def test_symmetric_two_state(self, symmetric_model):
        W, _, _, _ = symmetric_model
        assert np.abs(steady_state(W).p - 0.5).max() < 1e-12

    def test_absorbing_state(self, decay_model):
        W, _, _, _ = decay_model
        assert np.abs(steady_state(W).p - np.array([1.0, 0.0])).max() < 1e-12

    def test_uniform_cycle(self):
        w = np.zeros((3, 3))
        for i in range(3):
            w[(i + 1) % 3, i] = 1.0
        W = validate_rate_matrix(w)
        assert np.abs(steady_state(W).p - 1.0 / 3.0).max() < 1e-12

    def test_frozen_process_not_unique(self, frozen_model):
        W, _, _, _ = frozen_model
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(W)

    def test_two_absorbing_components_not_unique(self):
        w = np.zeros((4, 4))
        w[0, 1] = 1.0  # 2 -> 1
        w[3, 2] = 1.0  # 3 -> 4
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(validate_rate_matrix(w))

    def test_residual_small_and_fixed_point(self):
        for W, _, _ in model_sweep(40):
            pst = steady_state(W)
            assert np.abs(W.w @ pst.p).max() < 1e-10
            for t in (1.0, 10.0):
                assert np.abs(propagate(W, pst, t).p - pst.p).max() < 1e-9


def stack_of(models):
    """(W, p0, S) stacks of a list of (W, p0, S) models over the same states."""
    return tuple(markov._stack(list(values)) for values in zip(*models))


class TestModelStacks:
    """A stack of models over the same states goes through each primitive
    once, and every model gets the numbers it gets alone, bit for bit."""

    @pytest.fixture
    def models(self):
        # the defective Jordan chain 0 -> 1 -> 2 -> 3 takes the expm path;
        # random_model(4, 16) and (4, 17) have real spectra, 11 and 12 complex
        w = np.zeros((4, 4))
        for i in range(3):
            w[i + 1, i] = 1.3
        chain = (
            validate_rate_matrix(w),
            ProbVector(np.array([0.4, 0.3, 0.2, 0.1])),
            ScoreVector(np.array([1.0, -0.5, 0.25, -1.0])),
        )
        return [random_model(4, 16), chain, random_model(4, 11), random_model(4, 17),
                random_model(4, 12), chain]

    def test_regime_and_arithmetic_per_model(self, models):
        W, _, _ = stack_of(models)
        parts = {sd.lam.dtype.kind: sd.models.tolist() for sd in W._spectral}
        assert parts == {"f": [0, 3], "c": [2, 4]}
        assert [m[0]._spectral is None for m in models] == [False, True, False, False, False, True]

    def test_rows_equal_per_model_calls(self, models):
        W, _, _ = stack_of(models)
        rng = np.random.default_rng(5)
        times = np.array([0.0, 0.2, 1.0, 5.0, 30.0])
        vec = rng.standard_normal((len(models), 4))
        per_time = rng.standard_normal((len(models), times.size, 4))
        left = rng.standard_normal((len(models), 4))
        stacked = (
            _propagator_apply(W, vec, times),
            _propagator_apply(W, per_time, times),
            _integral_apply(W, vec, times),
            _integral_apply(W, vec, times, left),
            _integral_apply(W, per_time, times),
        )
        for j, (Wj, _, _) in enumerate(models):
            alone = (
                _propagator_apply(Wj, vec[j], times),
                _propagator_apply(Wj, per_time[j], times),
                _integral_apply(Wj, vec[j], times),
                _integral_apply(Wj, vec[j], times, left[j]),
                _integral_apply(Wj, per_time[j], times),
            )
            for k, (a, b) in enumerate(zip((rows[j] for rows in stacked), alone)):
                assert np.array_equal(a, b), (j, k)

    def test_no_times_give_no_rows(self, models):
        W, p0, _ = stack_of(models)
        assert _integral_apply(W, p0.p, np.empty(0), W.escape).shape == (len(models), 0)
        assert _integral_apply(models[0][0], p0.p[0], np.empty(0)).shape == (0, 4)

    def test_steady_states_equal_per_model_calls(self):
        models = [random_model(3, seed) for seed in range(8)]
        W, _, _ = stack_of(models)
        pst = steady_state(W)
        assert pst.p.shape == (8, 3)
        for j, (Wj, _, _) in enumerate(models):
            assert np.array_equal(pst.p[j], steady_state(Wj).p)

    def test_two_absorbing_chain_has_no_steady_state_in_a_stack(self):
        # states 0 and 3 absorb; 1 and 2 exchange and leak into both
        w = np.zeros((4, 4))
        for nu, mu in ((0, 1), (2, 1), (1, 2), (3, 2)):
            w[nu, mu] = 0.7
        chain = (validate_rate_matrix(w), ProbVector(np.full(4, 0.25)), ScoreVector(np.ones(4)))
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(chain[0])
        W, _, _ = stack_of([random_model(4, 1), chain, random_model(4, 2)])
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(W)


class TestRandomModel:
    def test_determinism_bitwise(self):
        a = random_model(3, 424242)
        b = random_model(3, 424242)
        assert np.array_equal(a[0].w, b[0].w)
        assert np.array_equal(a[1].p, b[1].p)
        assert np.array_equal(a[2].s, b[2].s)

    def test_different_seeds_differ(self):
        a = random_model(3, 1)
        b = random_model(3, 2)
        assert not np.array_equal(a[0].w, b[0].w)

    def test_column_sums_zero(self):
        for seed in range(50):
            W, _, _ = random_model(3, seed)
            assert np.abs(W.w.sum(axis=0)).max() < 1e-12

    def test_thousand_seeds_give_normalized_p0(self):
        for seed in range(1000):
            _, p0, _ = random_model(2, seed)
            assert abs(p0.p.sum() - 1.0) < 1e-12

    def test_rate_and_score_ranges(self):
        for seed in range(30):
            W, _, s = random_model(4, seed)
            off = W.w[~np.eye(4, dtype=bool)]
            assert off.min() > 0.0 and off.max() <= 1.0
            assert s.s.min() >= -1.0 and s.s.max() <= 1.0

    def test_bad_dimension(self):
        with pytest.raises(BadDimensionError):
            random_model(1, 0)

    def test_make_rng_platform_stable_stream(self):
        # frozen first draws of the documented counter-based generator
        assert make_rng(0).random() == make_rng(0).random()


class TestLoadModel:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            '{"n": 2, "rates": [[0, 1], [0, 0]], "p0": [0, 1], "S": [-1, 1]}'
        )
        W, p0, S, T = load_model(path)
        assert np.allclose(W.escape, [0.0, 1.0])
        assert np.array_equal(p0.p, [0.0, 1.0])
        assert np.array_equal(S.s, T.s)

    def test_t_defaults_to_s_and_explicit_t(self):
        payload = {"n": 2, "rates": [[0, 1], [0, 0]], "p0": [0.5, 0.5], "S": [1, 2]}
        _, _, S, T = load_model(payload)
        assert np.array_equal(S.s, T.s)
        payload["T"] = [3, 4]
        _, _, S, T = load_model(payload)
        assert np.array_equal(T.s, [3, 4])

    def test_missing_field(self):
        with pytest.raises(BadDimensionError):
            load_model({"n": 2, "rates": [[0, 1], [0, 0]], "p0": [0.5, 0.5]})

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            load_model({"n": 3, "rates": [[0, 1], [0, 0]], "p0": [1, 0], "S": [1, 1]})
