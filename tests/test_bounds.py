import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from corrbound import (
    BOUND_IDS,
    ProbVector,
    ScoreVector,
    activity_rate,
    bound_derivative,
    bound_eta,
    bound_main,
    bound_multipoint,
    bound_onepoint,
    bound_tangent_tur,
    bound_zero_t,
    cmax,
    dynamical_activity,
    eta,
    geodesic_arg,
    multipoint,
    propagate,
    random_model,
    steady_state,
    validate_rate_matrix,
)
from corrbound.cli import _bound_rows, _csv_line, cmd_figure2, cmd_stress, evaluate_bounds, main
from corrbound import bounds, markov
from corrbound.bounds import (
    CSV_HEADER,
    RATIO_SLACK,
    _chebyshev_quadrature,
    _Plan,
    _ratio,
    fmt17,
)
from corrbound.errors import (
    BadIntervalError,
    NegativeTimeError,
    NonPositiveTimeError,
    QuadratureError,
)
from conftest import model_sweep

ROOT = Path(__file__).resolve().parents[1]


def midpoint_refined(f, a, b, tol=1e-8):
    """Independent quadrature oracle: midpoint rule with grid doubling."""
    prev = None
    n = 16
    while n <= 2**22:
        xs = a + (np.arange(n) + 0.5) * (b - a) / n
        val = float(f(xs).sum() * (b - a) / n)
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        n *= 2
    raise AssertionError("midpoint oracle did not converge")


class TestActivityRate:
    def test_frozen_is_zero(self, frozen_model):
        W, p0, _, _ = frozen_model
        assert activity_rate(W, p0) == 0.0

    def test_symmetric_stationary_is_one(self, symmetric_model):
        W, pst, _, _ = symmetric_model
        assert activity_rate(W, pst) == 1.0

    def test_decay_start_is_one(self, decay_model):
        W, p0, _, _ = decay_model
        assert activity_rate(W, p0) == 1.0


class TestDynamicalActivity:
    def test_decay_closed_form(self, decay_model):
        W, p0, _, _ = decay_model
        for t in np.linspace(0.0, 10.0, 41):
            assert dynamical_activity(W, p0, float(t)) == pytest.approx(
                1.0 - np.exp(-t), abs=1e-12
            )

    def test_stationary_start_linear_exactly(self, symmetric_model):
        W, pst, _, _ = symmetric_model
        for t in (0.3, 1.0, 7.0):
            assert dynamical_activity(W, pst, t) == pytest.approx(t, abs=1e-12)

    def test_zero_time_is_zero(self):
        for W, p0, _ in model_sweep(5):
            assert dynamical_activity(W, p0, 0.0) == 0.0

    def test_matches_adaptive_quadrature_oracle(self):
        for W, p0, _ in model_sweep(8):
            for t in (0.8, 3.0):
                ref, _ = scipy.integrate.quad(
                    lambda s: activity_rate(W, propagate(W, p0, s)), 0.0, t
                )
                assert abs(dynamical_activity(W, p0, t) - ref) < 1e-8

    def test_monotone_nondecreasing(self):
        for W, p0, _ in model_sweep(10):
            vals = [dynamical_activity(W, p0, t) for t in np.linspace(0, 8, 17)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_short_time_slope_is_activity_rate(self):
        for W, p0, _ in model_sweep(10):
            rate = activity_rate(W, p0)
            slope = dynamical_activity(W, p0, 1e-6) / 1e-6
            assert slope == pytest.approx(rate, rel=1e-4)

    def test_negative_time_rejected(self, decay_model):
        W, p0, _, _ = decay_model
        with pytest.raises(NegativeTimeError):
            dynamical_activity(W, p0, -1.0)


class TestGeodesicArg:
    def test_stationary_closed_form(self, symmetric_model):
        W, pst, _, _ = symmetric_model
        for t in (0.25, 1.0, 4.0):
            assert geodesic_arg(W, pst, 0.0, t) == pytest.approx(
                math.sqrt(t), abs=1e-12
            )
        assert geodesic_arg(W, pst, 1.0, 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_stationary_closed_form_on_random_models(self):
        # a stationary start has A(t) = a t, so the substituted integrand is
        # the constant sqrt(a) and the quadrature gives the closed form
        for n in (2, 3, 4, 6, 10):
            for seed in range(4):
                W, _, _ = random_model(n, 9_100 + seed)
                pst = steady_state(W)
                a = activity_rate(W, pst)
                for t1, t2 in ((0.0, 1.0), (0.3, 2.5), (1e-2, 10.0)):
                    ref = math.sqrt(a) * (math.sqrt(t2) - math.sqrt(t1))
                    got = geodesic_arg(W, pst, t1, t2)
                    assert abs(got - ref) <= 1e-12 * ref, (n, seed, t1, t2)

    def test_frozen_is_zero(self, frozen_model):
        W, p0, _, _ = frozen_model
        assert geodesic_arg(W, p0, 0.0, 5.0) == 0.0

    def test_decay_model_against_midpoint_oracle(self, decay_model):
        W, p0, _, _ = decay_model
        got = geodesic_arg(W, p0, 0.0, 1.0)
        # same substitution (t = s^2), independent rule
        ref = midpoint_refined(
            lambda s: np.sqrt(1.0 - np.exp(-(s**2))) / s, 0.0, 1.0, tol=1e-9
        )
        assert abs(got - ref) < 1e-7
        # second oracle on the raw integrand, endpoint singularity included
        raw, raw_err = scipy.integrate.quad(
            lambda u: 0.5 * np.sqrt(1.0 - np.exp(-u)) / u, 0.0, 1.0
        )
        assert abs(got - raw) < max(1e-8, 10.0 * raw_err)

    def test_interior_interval_against_midpoint_oracle(self):
        W, p0, _ = model_sweep(1, states=(3,), seed=77)[0]

        def raw(ts):
            return 0.5 * np.array(
                [math.sqrt(dynamical_activity(W, p0, float(t))) / t for t in ts]
            )

        got = geodesic_arg(W, p0, 0.5, 2.0)
        ref = midpoint_refined(raw, 0.5, 2.0, tol=1e-9)
        assert abs(got - ref) < 1e-7

    def test_degenerate_interval_is_zero(self, decay_model):
        W, p0, _, _ = decay_model
        assert geodesic_arg(W, p0, 0.7, 0.7) == 0.0

    def test_bad_interval_rejected(self, decay_model):
        W, p0, _, _ = decay_model
        with pytest.raises(BadIntervalError):
            geodesic_arg(W, p0, 1.0, 0.5)
        with pytest.raises(BadIntervalError):
            geodesic_arg(W, p0, -0.1, 0.5)


def stiff_chain(seed):
    """Dense 6-state chain, rates log-uniform on [1e-4, 1e4]."""
    rng = np.random.default_rng(seed)
    w = 10.0 ** rng.uniform(-4.0, 4.0, size=(6, 6))
    np.fill_diagonal(w, 0.0)
    return validate_rate_matrix(w), ProbVector(rng.dirichlet(np.ones(6)))


class TestActivityQuadrature:
    @staticmethod
    def peak(x):
        return 1.0 / (1e-3 + (x - 0.4) ** 2) + np.sqrt(1.0 + x)

    def test_models_batched_equal_models_alone(self):
        # a model gets the same pieces, and the same integrals bit for bit,
        # whether or not other models share its refinement levels
        x = np.array([0.0, 0.3, 0.5, 1.0, 2.0, 2.2, 2.5, 9.0])
        rows = (self.peak, lambda x: np.sqrt(1.0 + x), lambda x: np.exp(-x))
        both = _chebyshev_quadrature(lambda x: np.stack([g(x) for g in rows]), x)
        alone = [_chebyshev_quadrature(g, x) for g in rows]
        assert np.array_equal(both, alone)
        for got, end in zip(both[0], x):
            ref, _ = scipy.integrate.quad(self.peak, 0.0, end, epsabs=1e-13, limit=200)
            assert abs(got - ref) <= 1e-12 * max(ref, 1.0), end

    def test_points_do_not_shape_the_work(self):
        # the pieces follow the integrand over [x[0], x[-1]], not the points
        # in between: more points cost no integrand call, and the integral
        # to the last point is the same bit for bit
        nodes = {}

        def counted(key):
            def f(x):
                nodes.setdefault(key, []).append(x)
                return self.peak(x)
            return f

        few = _chebyshev_quadrature(counted("few"), [0.0, 9.0])
        many = _chebyshev_quadrature(counted("many"), np.linspace(0.0, 9.0, 201))
        assert len(nodes["few"]) == len(nodes["many"]) > 1
        assert all(np.array_equal(a, b) for a, b in zip(nodes["few"], nodes["many"]))
        assert few[-1] == many[-1] and few[0] == many[0] == 0.0

    def test_one_integrand_call_per_level(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return 1.0 / (1e-3 + (x - 0.3) ** 2)

        _chebyshev_quadrature(f, [0.0, 1.0, 2.0])
        assert calls[0] == 49  # one piece over both knot intervals
        assert len(calls) > 1 and all(size % 49 == 0 for size in calls)
        assert len(calls) <= bounds._QUAD_MAX_DEPTH + 1

    def test_no_intervals_no_integrals(self):
        # one call on no nodes tells the model axis of the result
        assert _chebyshev_quadrature(lambda x: x, []).shape == (0,)
        stack = _chebyshev_quadrature(lambda x: np.stack((x, x)), [])
        assert stack.shape == (2, 0)
        one = _chebyshev_quadrature(lambda x: np.stack((x, x)), [1.0])
        assert np.array_equal(one, np.zeros((2, 1)))

    def test_unconverged_refinement_raises(self, monkeypatch):
        # no halving below the narrowest knot interval: the kink of |x| at 0
        # stays inside the one piece
        monkeypatch.setattr(bounds, "_QUAD_MAX_DEPTH", 0)
        with pytest.raises(QuadratureError, match=r"\[-1.0, 1.0\]"):
            _chebyshev_quadrature(np.abs, [-1.0, 1.0])
        W, p0 = stiff_chain(0)
        with pytest.raises(QuadratureError):
            geodesic_arg(W, p0, 0.0, 1e4)

    @pytest.mark.parametrize(
        "f, match",
        [
            (lambda x: np.full(x.shape, np.nan), "not finite"),
            # the coefficients of a sign flip every 3e-7 never fall
            (lambda x: np.sign(np.sin(1e7 * x)), "did not converge"),
        ],
    )
    def test_hopeless_refinement_fails_fast(self, f, match):
        # at the real _QUAD_MAX_DEPTH: the error comes from the piece cap or
        # the first level, long before 2^20 pieces per knot interval
        nodes = []

        def counted(x):
            nodes.append(x.size)
            return f(x)

        with pytest.raises(QuadratureError, match=match):
            _chebyshev_quadrature(counted, np.arange(41.0))
        assert sum(nodes) <= 49 * 2 * bounds._QUAD_MAX_PIECES

    def test_piece_cap_is_per_model(self):
        # 100 models with a peak each keep more than _QUAD_MAX_PIECES
        # pieces open per level in total, but only a few per model
        opened = []
        peaks = np.arange(100.0)[:, None] / 100

        def f(x):
            opened.append(x.size // 49)
            return 1.0 / (1e-6 + (x - peaks) ** 2)

        got = _chebyshev_quadrature(f, [0.0, 2.0])[:, -1]
        assert max(opened) > bounds._QUAD_MAX_PIECES
        # the antiderivative of 1 / (c^2 + y^2) is atan(y / c) / c
        ref = 1e3 * (np.arctan(1e3 * (2.0 - peaks[:, 0])) - np.arctan(-1e3 * peaks[:, 0]))
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    @staticmethod
    def noisy_exp(level):
        """e^x with a seeded relative noise of size ``level``."""
        rng = np.random.default_rng(5)
        return lambda x: np.exp(x) * (1.0 + level * rng.uniform(-1.0, 1.0, x.shape))

    def test_noise_plateau_is_accepted(self):
        # relative noise of 1e-13 leaves coefficients that end in a plateau
        # above the tail tolerance: the tail test alone refined this to the
        # piece cap and raised; accepted, the integral is as good as the noise
        got = _chebyshev_quadrature(self.noisy_exp(1e-13), [0.0, 1.0, 3.0])
        np.testing.assert_allclose(got, np.expm1([0.0, 1.0, 3.0]), rtol=1e-13, atol=0)

    def test_noise_above_the_floor_raises(self):
        # a plateau counts only below _CHEB_RTOL^(2/3) = 4.6e-10 of the
        # largest coefficient: noise of 1e-8 is refined until the piece cap
        with pytest.raises(QuadratureError, match="did not converge"):
            _chebyshev_quadrature(self.noisy_exp(1e-8), [0.0, 1.0, 3.0])

    def test_plateau_is_step_2_of_the_chopping_rule(self):
        # against the loop of Aurentz & Trefethen (ACM TOMS 43, 2017),
        # step 2, 1-based as printed there, with MATLAB's round, on rows
        # that decay geometrically and then end in noise
        def plateau(coef, tol=bounds._CHEB_RTOL):
            n = len(coef)
            envelope = np.maximum.accumulate(np.abs(coef)[::-1])[::-1]
            envelope = envelope / envelope[0]
            for j in range(2, n + 1):
                j2 = math.floor(1.25 * j + 5 + 0.5)
                if j2 > n:
                    return False
                e1, e2 = envelope[j - 1], envelope[j2 - 1]
                if e1 == 0 or e2 / e1 > 3 * (1 - math.log(e1) / math.log(tol)):
                    return True
            return False

        rng = np.random.default_rng(29)
        rows = []
        for _ in range(400):
            knee = rng.integers(5, 49)
            decay = 10.0 ** -rng.uniform(3.0, 16.0)
            level = 10.0 ** -rng.uniform(8.0, 14.0)
            row = np.concatenate((np.geomspace(1.0, decay, knee), np.full(49 - knee, decay)))
            rows.append(np.maximum(row, level) * rng.uniform(0.5, 1.5, 49))
        rows = np.array([r for r in rows if r[-4:].max() > bounds._CHEB_RTOL * r.max()])
        want = [plateau(r) for r in rows]
        assert np.array_equal(bounds._plateau(rows), want)
        assert 0 < sum(want) < len(want)

    def test_memory_cap_splits_integrand_calls(self, monkeypatch):
        W, p0, _ = random_model(5, 3)
        knots = np.geomspace(1e-2, 10.0, 20)
        ref = _Plan(W, p0, knots).arc
        monkeypatch.setattr(markov, "_APPLY_ELEMENTS", 7 * W.n)
        sizes = []
        real_block = markov._integral_block

        def counted(W_, vec, times):
            sizes.append(np.size(times))
            return real_block(W_, vec, times)

        monkeypatch.setattr(markov, "_integral_block", counted)
        got = _Plan(W, p0, knots).arc
        assert max(sizes) == 7
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("defective", [False, True], ids=["eigenbasis", "expm"])
    def test_memory_cap_splits_propagator_calls(self, defective, monkeypatch):
        # the twin of the test above for C, dC/dt, <S> and the (S, T, S)
        # chain; the Jordan chain 0 -> 1 -> 2 -> 3 takes the expm regime
        W, p0, S = random_model(4, 3)
        if defective:
            w = np.zeros((4, 4))
            w[[1, 2, 3], [0, 1, 2]] = 1.3
            W = validate_rate_matrix(w)
        assert (W._spectral is None) == defective
        knots = np.geomspace(1e-2, 10.0, 20)
        names = ("corr", "corr_slope", "mean", "multi")
        plan = _Plan(W, p0, knots, S, S)
        ref = [getattr(plan, name) for name in names]
        monkeypatch.setattr(markov, "_APPLY_ELEMENTS", 7 * W.n)
        sizes = []
        real_block = markov._propagator_block

        def counted(W_, vec, times):
            sizes.append(np.size(times))
            return real_block(W_, vec, times)

        monkeypatch.setattr(markov, "_propagator_block", counted)
        plan = _Plan(W, p0, knots, S, S)
        got = [getattr(plan, name) for name in names]
        # three one-link quantities and a two-link chain, each over every knot
        assert max(sizes) <= 7 and sum(sizes) == 5 * knots.size
        for a, b in zip(got, ref):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_stiff_chain_matches_quad(self, seed):
        # rates 1e-4..1e4 and intervals up to t = 1e4, against QUADPACK on
        # the raw integrand sqrt(A(t)) / t, one call per knot interval
        W, p0 = stiff_chain(seed)
        knots = np.concatenate(([0.0], np.geomspace(1e-2, 1e4, 13)))
        arc = _Plan(W, p0, knots).arc

        def f(t):
            return 0.5 * math.sqrt(dynamical_activity(W, p0, t)) / t

        pieces = [
            scipy.integrate.quad(f, a, b, epsabs=1e-10, epsrel=0.0, limit=200)
            for a, b in zip(knots[:-1], knots[1:])
        ]
        ref = np.concatenate(([0.0], np.cumsum([value for value, _ in pieces])))
        atol = 1e-9  # absolute accuracy of the activity integral
        assert np.abs(arc - ref).max() <= atol


def record_quadratures(monkeypatch):
    """A list that collects, per activity quadrature, its point count and
    the node count of each integrand call."""
    quadratures = []
    real_quad = bounds._chebyshev_quadrature

    def recording(f, x):
        calls = []
        quadratures.append((np.size(x), calls))

        def counted(nodes):
            calls.append(nodes.size)
            return f(nodes)

        return real_quad(counted, x)

    monkeypatch.setattr(bounds, "_chebyshev_quadrature", recording)
    return quadratures


def dense_args(plan):
    """Reference args over the knot intervals of a plan of one model:
    composite Gauss-Legendre on g(s) = sqrt(A(s^2)) / s, 64 panels of 40
    points each, graded geometrically (down to 1e-13 of the right end on an
    interval from 0, where g may have a layer)."""
    x40, w40 = np.polynomial.legendre.leggauss(40)
    s = np.sqrt(plan.knots)
    args = []
    for a, b in zip(s[:-1], s[1:]):
        if a > 0.0:
            edges = np.geomspace(a, b, 65)
        else:
            edges = np.concatenate(([0.0], np.geomspace(1e-13 * b, b, 64)))
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        x = (mid[:, None] + half[:, None] * x40).ravel()
        g = np.sqrt(plan._activity(x * x)) / x
        args.append(np.sum(half * (g.reshape(64, 40) @ w40)))
    return np.array(args)


class TestChebyshevArc:
    """The work of the activity integral no longer follows the knots, and
    its accuracy holds against a dense reference."""

    def test_one_call_of_49_points_per_stress_plan(self, tmp_path, monkeypatch):
        # one piece per plan on the default grid, where the Gauss-Legendre
        # rule took 40 knot intervals x 31 nodes per model
        quadratures = record_quadratures(monkeypatch)
        cmd_stress(n_models=100, seed=12_345, output_path=str(tmp_path / "t.json"))
        assert len(quadratures) == 3  # one stacked plan per state count
        assert all(calls == [49] for _, calls in quadratures)

    def test_one_call_for_the_figure2_curve(self, tmp_path, monkeypatch):
        # 201 knots, where the Gauss-Legendre rule took 200 x 31 nodes
        quadratures = record_quadratures(monkeypatch)
        assert cmd_figure2(str(tmp_path), n_random=8, seed=4_321) == 0
        assert quadratures[0] == (201, [49])

    def test_wide_range_splits_geometrically(self, monkeypatch):
        # knots from t/2 on a grid to t = 1e4, as a sweep of MAIN_EQ5 on a
        # stiff chain: s spans a factor 1414, and splitting at sqrt(lo hi)
        # resolves the layers in 3 levels where halving took 9
        quadratures = record_quadratures(monkeypatch)
        W, p0 = stiff_chain(0)
        grid = np.geomspace(1e-2, 1e4, 20)
        _Plan(W, p0, np.concatenate((grid / 2, grid))).arc
        assert len(quadratures[0][1]) == 3

    def test_piece_from_zero_splits_at_an_eighth(self, monkeypatch):
        # the knots of test_stiff_chain_matches_quad, from t = 0: the piece
        # that starts at s = 0 splits at hi/8 rather than halving, and the
        # refinement that took 12 levels and 1127 nodes takes 6 and 637
        quadratures = record_quadratures(monkeypatch)
        W, p0 = stiff_chain(0)
        knots = np.concatenate(([0.0], np.geomspace(1e-2, 1e4, 13)))
        _Plan(W, p0, knots).arc
        assert quadratures == [(14, [49, 98, 98, 98, 196, 98])]

    @pytest.mark.parametrize("case", ["check-64", "ladder-0", "ladder-4", "ladder-19"])
    def test_args_match_a_dense_reference(self, case):
        # the knots of `check` on its default grid, from t = 0: the 64-state
        # model of `check --states 64 --seed 1`, and the stiffness ladder's
        # models at k = 12, whose g has a layer near s = 1e-6
        grid = np.geomspace(1e-2, 10.0, 20)
        knots = np.concatenate(([0.0], grid / 2, grid))
        if case == "check-64":
            W, p0, _ = random_model(64, 1)
        else:
            seed = int(case.split("-")[1])
            W, _, _ = random_model(3, seed)
            w = W.w.copy()
            w[2, 1] = 1.4556e12 * (1 + 0.1 * seed)
            W, p0 = validate_rate_matrix(w), ProbVector(np.array([0.0, 1.0, 0.0]))
        plan = _Plan(W, p0, knots)
        np.testing.assert_allclose(np.diff(plan.arc), dense_args(plan), rtol=1e-12, atol=0)


def test_import_leaves_numpy_polynomial_unloaded():
    # set-up cost: nothing in the package needs numpy.polynomial
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = "import sys, corrbound; sys.exit('numpy.polynomial' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr or "import corrbound loads numpy.polynomial"


class TestStackedPlan:
    """One plan over a stack of models gives each model the plan it gets
    alone, bit for bit: every quantity and every bound's sides."""

    # a wide knot range, so that the activity quadrature refines
    # the stiff chains to different piece counts
    KNOTS = np.array([0.0, 0.05, 3.0, 40.0, 300.0])

    def test_every_bound_equals_the_plans_alone(self, monkeypatch):
        scores = ScoreVector(np.linspace(-1.0, 1.0, 6))
        models = [(*stiff_chain(seed), scores) for seed in range(4)]
        models += [random_model(6, seed) for seed in range(4)]
        W, p0, S = (markov._stack(list(v)) for v in zip(*models))
        quadratures = []  # the integrand calls of each quadrature
        real_quad = bounds._chebyshev_quadrature

        def recording(f, *ends):
            calls = []
            quadratures.append(calls)

            def counted(nodes):
                values = f(nodes)
                calls.append((nodes.size, values.shape[:-1]))
                return values

            return real_quad(counted, *ends)

        monkeypatch.setattr(bounds, "_chebyshev_quadrature", recording)
        stacked = _Plan(W, p0, self.KNOTS, S, S, "tight", chi=0.3)
        stacked.arc
        # every level evaluates the whole stack
        assert all(lead == (len(models),) for _, lead in quadratures[0])
        half = self.KNOTS / 2
        for j, (Wj, pj, Sj) in enumerate(models):
            alone = _Plan(Wj, pj, self.KNOTS, Sj, Sj, "tight", chi=0.3)
            for q in ("corr", "corr_slope", "mean", "multi", "activity", "eta", "arc"):
                assert np.array_equal(getattr(stacked, q)[j], getattr(alone, q)), q
            for bid in bounds.BOUND_IDS:
                t1, t2 = half[1:], self.KNOTS[1:]
                start = (stacked.stationary, alone.stationary) if bounds._BOUNDS[bid][1] else (stacked, alone)
                got = start[0].sides(bid, t1, t2)
                expect = start[1].sides(bid, t1, t2)
                for a, b in zip(got, expect):
                    assert (a is None and b is None) or np.array_equal(a[j], b), bid
        # the models alone refine to different node counts
        assert len({tuple(size for size, _ in calls) for calls in quadratures[1:]}) > 1

    @staticmethod
    def rate_scaled(n):
        """12 random models with rates scaled from 10^-1.5 to 10^1.25."""
        models = [random_model(n, 100 + j) for j in range(12)]
        return [(W.scaled(10.0 ** (j / 4 - 1.5)), p0, S) for j, (W, p0, S) in enumerate(models)]

    @pytest.mark.parametrize("n", [7, 8, 64])
    def test_unequal_refinement_moves_at_most_the_last_bit(self, n, monkeypatch):
        # the stack is evaluated at the union of its models' open pieces, in
        # calls with more rows than a model has alone; BLAS blocking may then
        # move a last bit, but the model still accepts its own pieces
        models = self.rate_scaled(n)
        knots = np.array([0.0, 0.5, 1.0, 100.0, 1000.0])
        W, p0, _ = (markov._stack(list(v)) for v in zip(*models))
        stacked = _Plan(W, p0, knots).arc
        nodes = []
        real_activity = bounds._Plan._activity

        def counted(plan, ts):
            nodes[-1] += np.size(ts)
            return real_activity(plan, ts)

        monkeypatch.setattr(bounds._Plan, "_activity", counted)
        for j, (Wj, pj, _) in enumerate(models):
            nodes.append(0)
            alone = _Plan(Wj, pj, knots).arc
            np.testing.assert_allclose(stacked[j], alone, rtol=1e-15, atol=0)
        assert len(set(nodes)) > 1  # the models refine differently

    def test_equal_refinement_is_bit_for_bit(self):
        # on a default sweep grid every piece converges at the first level
        grid = np.geomspace(1e-2, 10.0, 20)
        knots = np.concatenate((grid / 2, grid))
        models = self.rate_scaled(8)
        W, p0, _ = (markov._stack(list(v)) for v in zip(*models))
        stacked = _Plan(W, p0, knots).arc
        for j, (Wj, pj, _) in enumerate(models):
            assert np.array_equal(stacked[j], _Plan(Wj, pj, knots).arc), j


class TestCmax:
    def test_symmetric_scores_coincide(self):
        s = ScoreVector(np.array([-1.0, 1.0]))
        assert cmax(s, s, "standard") == 1.0
        assert cmax(s, s, "tight") == 1.0

    def test_nonnegative_scores_halved(self):
        s = ScoreVector(np.array([0.0, 1.0]))
        assert cmax(s, s, "standard") == 1.0
        assert cmax(s, s, "tight") == 0.5

    def test_zero_scores(self):
        z = ScoreVector(np.zeros(3))
        t = ScoreVector(np.array([1.0, -2.0, 0.5]))
        assert cmax(z, t, "standard") == 0.0
        assert cmax(z, t, "tight") == 0.0

    def test_tight_never_exceeds_standard(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            s = ScoreVector(rng.uniform(-2, 2, size=int(rng.integers(2, 6))))
            t = ScoreVector(rng.uniform(-2, 2, size=s.n))
            assert cmax(s, t, "tight") <= cmax(s, t, "standard") + 1e-15

    def test_tight_matches_exhaustive_range(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            s = rng.uniform(-2, 2, size=4)
            t = rng.uniform(-2, 2, size=4)
            prods = np.outer(s, t)
            expect = 0.5 * (prods.max() - prods.min())
            got = cmax(ScoreVector(s), ScoreVector(t), "tight")
            assert got == pytest.approx(expect, abs=1e-14)

    def test_unknown_mode_rejected(self):
        s = ScoreVector(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            cmax(s, s, "loose")


class TestBoundMain:
    def test_decay_lhs_closed_form(self, decay_model):
        W, p0, S, T = decay_model
        for t in (0.5, 1.0, 2.0):
            rep = bound_main(W, p0, S, T, 0.0, t)
            assert rep.lhs == pytest.approx(2.0 * (1.0 - np.exp(-t)), abs=1e-12)
            assert rep.satisfied

    def test_frozen_process_vacuous(self, frozen_model):
        W, p0, S, T = frozen_model
        rep = bound_main(W, p0, S, T, 0.0, 3.0)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.ratio == 0.0
        assert rep.in_validity_domain

    def test_shrinking_interval_keeps_finite_ratio(self, decay_model):
        W, p0, S, T = decay_model
        rep = bound_main(W, p0, S, T, 1.0, 1.0 + 1e-4)
        assert rep.lhs > 0.0
        assert 0.5 < rep.ratio <= 1.0
        # Taylor check: ratio tends to |dC| / (cmax sqrt(A)/t) at t = 1
        deriv_ratio = bound_derivative(W, p0, S, T, 1.0).ratio
        assert rep.ratio == pytest.approx(deriv_ratio, rel=1e-3)

    def test_out_of_domain_switches_to_trivial(self, decay_model):
        W, p0, S, T = decay_model
        rep = bound_main(W, p0, S, T, 0.0, 9.0)
        assert rep.geodesic_arg > math.pi / 2.0
        assert not rep.in_validity_domain
        assert rep.rhs == 2.0 * cmax(S, T)
        assert rep.satisfied

    def test_zero_t_wrapper_id(self, decay_model):
        W, p0, S, T = decay_model
        rep = bound_zero_t(W, p0, S, T, 1.0)
        same = bound_main(W, p0, S, T, 0.0, 1.0)
        assert rep.bound_id == "ZERO_T_EQ6"
        assert rep.lhs == same.lhs and rep.rhs == same.rhs


class TestBoundDerivative:
    def test_decay_values_at_unit_time(self, decay_model):
        W, p0, S, T = decay_model
        rep = bound_derivative(W, p0, S, T, 1.0)
        assert rep.lhs == pytest.approx(2.0 * np.exp(-1.0), abs=1e-12)
        assert rep.rhs == pytest.approx(math.sqrt(1.0 - np.exp(-1.0)), abs=1e-12)
        assert rep.satisfied and rep.in_validity_domain

    def test_frozen_process_vacuous(self, frozen_model):
        W, p0, S, T = frozen_model
        rep = bound_derivative(W, p0, S, T, 2.0)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.ratio == 0.0

    def test_stationary_inverse_sqrt_decay(self, symmetric_model):
        W, pst, S, T = symmetric_model
        for t in (0.5, 2.0, 8.0):
            rep = bound_derivative(W, pst, S, T, t)
            assert rep.rhs == pytest.approx(math.sqrt(1.0 / t), abs=1e-12)

    def test_zero_time_rejected(self, decay_model):
        W, p0, S, T = decay_model
        with pytest.raises(NonPositiveTimeError):
            bound_derivative(W, p0, S, T, 0.0)


class TestBoundEta:
    def test_decay_ratio_closed_form(self, decay_model):
        W, p0, S, T = decay_model
        for t in (0.5, 1.0, 3.0):
            rep = bound_eta(W, p0, S, T, t)
            assert rep.lhs == pytest.approx(2.0 * (1.0 - np.exp(-t)), abs=1e-12)
            assert rep.rhs == pytest.approx(
                2.0 * math.sqrt(1.0 - np.exp(-t)), abs=1e-12
            )
            assert rep.ratio == pytest.approx(math.sqrt(1.0 - np.exp(-t)), abs=1e-12)

    def test_zero_time_vacuous(self, decay_model):
        W, p0, S, T = decay_model
        rep = bound_eta(W, p0, S, T, 0.0)
        assert rep.lhs == 0.0 and rep.ratio == 0.0

    def test_random_three_state(self):
        W, p0, S = model_sweep(1, states=(3,), seed=15)[0]
        assert bound_eta(W, p0, S, S, 2.0).satisfied

    def test_tighter_than_sine_bound_in_domain(self):
        for W, p0, S in model_sweep(15):
            for t in (0.3, 1.0):
                sine = bound_zero_t(W, p0, S, S, t)
                if sine.in_validity_domain:
                    assert bound_eta(W, p0, S, S, t).rhs <= sine.rhs + 1e-12


class TestBoundTangent:
    def test_small_time_matches_sine(self, decay_model):
        W, p0, S, T = decay_model
        t = 1e-3
        tan_rep = bound_tangent_tur(W, p0, S, T, t)
        sin_rep = bound_zero_t(W, p0, S, T, t)
        assert tan_rep.rhs == pytest.approx(sin_rep.rhs, rel=1e-3)

    def test_looser_than_sine_at_unit_time(self, decay_model):
        W, p0, S, T = decay_model
        assert (
            bound_tangent_tur(W, p0, S, T, 1.0).rhs
            > bound_zero_t(W, p0, S, T, 1.0).rhs
        )

    def test_divergent_arg_flagged_infinite(self, decay_model):
        W, p0, S, T = decay_model
        rep = bound_tangent_tur(W, p0, S, T, 9.0)
        assert math.isinf(rep.rhs)
        assert not rep.in_validity_domain
        assert rep.ratio == 0.0


class TestBoundMultipoint:
    def test_pair_reduction_matches_pair_bounds(self, decay_model):
        W, p0, S, T = decay_model
        t = 0.8
        m_eta = bound_multipoint(W, p0, [S, T], (0.0, t), "eta")
        m_sin = bound_multipoint(W, p0, [S, T], (0.0, t), "sin")
        assert m_eta.lhs == pytest.approx(bound_eta(W, p0, S, T, t).lhs, abs=1e-12)
        assert m_eta.rhs == pytest.approx(bound_eta(W, p0, S, T, t).rhs, abs=1e-12)
        assert m_sin.rhs == pytest.approx(bound_zero_t(W, p0, S, T, t).rhs, abs=1e-12)

    def test_all_times_zero_vacuous(self, decay_model):
        W, p0, S, T = decay_model
        rep = bound_multipoint(W, p0, [S, T, S], (0.0, 0.0, 0.0), "eta")
        assert rep.lhs == 0.0

    def test_three_point_on_symmetric_model(self, symmetric_model):
        W, pst, S, _ = symmetric_model
        times = (0.0, 0.5, 1.0)
        for variant in ("sin", "eta"):
            rep = bound_multipoint(W, pst, [S, S, S], times, variant)
            assert rep.satisfied
            assert rep.ratio <= 1.0 + RATIO_SLACK
        # lhs agrees with the explicit enumeration already proven in
        # the correlation tests
        value = multipoint(W, pst, [S, S, S], times)
        equal = multipoint(W, pst, [S, S, S], (0.0, 0.0, 0.0))
        assert bound_multipoint(W, pst, [S, S, S], times, "sin").lhs == pytest.approx(
            abs(equal - value), abs=1e-14
        )

    def test_unknown_variant_rejected(self, decay_model):
        W, p0, S, T = decay_model
        with pytest.raises(ValueError):
            bound_multipoint(W, p0, [S, T], (0.0, 1.0), "cosine")


class TestBoundOnepoint:
    def test_decay_activity_variant_saturates(self, decay_model):
        W, p0, S, _ = decay_model
        for t in (0.5, 2.0):
            rep = bound_onepoint(W, p0, S, t, "activity")
            expect = 2.0 * (1.0 - np.exp(-t))
            assert rep.lhs == pytest.approx(expect, abs=1e-12)
            assert rep.rhs == pytest.approx(expect, abs=1e-12)
            assert rep.ratio <= 1.0 + RATIO_SLACK

    def test_zero_time_vacuous(self, decay_model):
        W, p0, S, _ = decay_model
        for variant in ("sin", "eta", "activity"):
            rep = bound_onepoint(W, p0, S, 0.0, variant)
            assert rep.lhs == 0.0 and rep.ratio == 0.0

    def test_activity_vs_sine_crossover(self):
        for W, p0, S in model_sweep(10, seed=5_900):
            short = 0.01
            act = bound_onepoint(W, p0, S, short, "activity")
            sine = bound_onepoint(W, p0, S, short, "sin")
            assert act.rhs < sine.rhs  # linear beats sqrt at short times
            long = 50.0
            act_l = bound_onepoint(W, p0, S, long, "activity")
            sine_l = bound_onepoint(W, p0, S, long, "sin")
            assert sine_l.rhs < act_l.rhs  # bounded beats linear at long times

    def test_fast_rates_do_not_break_normalization(self):
        # in time units where rates are ~1e6, propagated probabilities
        # miss a unit sum by ~2e-10; the mean must still be contracted
        W, p0, S = random_model(4, 3)
        for variant in ("sin", "eta", "activity"):
            rep = bound_onepoint(W.scaled(1e6), p0, S, 1.0, variant)
            assert rep.ratio <= 1.0 + RATIO_SLACK

    def test_all_variants_hold_on_random_models(self):
        for W, p0, S in model_sweep(15):
            for t in (0.2, 1.0, 5.0):
                for variant in ("sin", "eta", "activity"):
                    assert bound_onepoint(W, p0, S, t, variant).satisfied


class TestOrdering:
    def test_eta_sin_tangent_chain(self):
        for W, p0, S in model_sweep(30):
            for t in (0.1, 0.5, 1.5):
                rep_eta = bound_eta(W, p0, S, S, t)
                rep_sin = bound_zero_t(W, p0, S, S, t)
                rep_tan = bound_tangent_tur(W, p0, S, S, t)
                if rep_sin.in_validity_domain and rep_tan.in_validity_domain:
                    assert rep_eta.rhs <= rep_sin.rhs + 1e-12
                    assert rep_sin.rhs <= rep_tan.rhs + 1e-12


class TestValiditySweep:
    def test_all_bounds_hold_with_both_prefactor_modes(self):
        grid = np.geomspace(1e-2, 10.0, 8)
        for W, p0, S in model_sweep(24, seed=77_000):
            for t in map(float, grid):
                for mode in ("standard", "tight"):
                    assert bound_main(W, p0, S, S, t / 2, t, mode).satisfied
                    assert bound_zero_t(W, p0, S, S, t, mode).satisfied
                    assert bound_derivative(W, p0, S, S, t, mode).satisfied
                    assert bound_eta(W, p0, S, S, t, mode).satisfied
                    assert bound_tangent_tur(W, p0, S, S, t, mode).satisfied


class TestRateScaleInvariance:
    GRID = np.concatenate(([0.0], np.geomspace(1e-2, 10.0, 6)))

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 4),
        seed=st.integers(0, 2**32),
        log_c=st.floats(-150.0, 150.0),
    )
    def test_scaled_rates_and_times_keep_every_ratio(self, n, seed, log_c):
        # the same process in other time units: W -> c W, t -> t / c; every
        # bound, PULSE_EQ11 and STEP_EQ12 from the stationary law included
        c = 10.0**log_c
        W, p0, S = random_model(n, seed)
        ref = evaluate_bounds(W, p0, S, S, self.GRID, BOUND_IDS)
        got = evaluate_bounds(W.scaled(c), p0, S, S, self.GRID / c, BOUND_IDS)
        assert [r.bound_id for r in got] == [r.bound_id for r in ref]
        for a, b in zip(ref, got):
            assert a.ratio == b.ratio or abs(a.ratio - b.ratio) <= 1e-10, a.bound_id


class TestPermutationInvariance:
    GRID = np.concatenate(([0.0], np.geomspace(1e-2, 10.0, 6)))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(2, 6), seed=st.integers(0, 2**32))
    def test_relabelled_states_keep_every_ratio(self, data, n, seed):
        # the same process with its states listed in another order
        perm = np.array(data.draw(st.permutations(range(n))))
        W, p0, S = random_model(n, seed)
        Wp = validate_rate_matrix(W.w[np.ix_(perm, perm)])
        p0p, Sp = ProbVector(p0.p[perm]), ScoreVector(S.s[perm])
        ref = evaluate_bounds(W, p0, S, S, self.GRID, BOUND_IDS)
        got = evaluate_bounds(Wp, p0p, Sp, Sp, self.GRID, BOUND_IDS)
        assert [r.bound_id for r in got] == [r.bound_id for r in ref]
        for a, b in zip(ref, got):
            assert a.ratio == b.ratio or abs(a.ratio - b.ratio) <= 1e-10, a.bound_id


class TestBoundReport:
    def test_csv_row_format(self, decay_model, tmp_path):
        # a row of `check` through the CSV cell rule, as `check` writes it
        W, p0, S, T = decay_model
        (row,) = _bound_rows(W, p0, S, T, np.array([1.0]), ("ETA_EQ8",), "standard", 0.0)
        line = _csv_line(row[:-1])
        fields = line.split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "ETA_EQ8"
        assert fields[-2] == "true"
        assert float(fields[3]) == bound_eta(W, p0, S, T, 1.0).lhs  # 17g round-trips exactly
        model, out = tmp_path / "model.json", tmp_path / "out.csv"
        model.write_text('{"n": 2, "rates": [[0, 1], [0, 0]], "p0": [0, 1], "S": [-1, 1]}')
        argv = ["check", "--model", str(model), "--tgrid", "1:1:1:lin", "--bounds", "ETA_EQ8"]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1] == line

    def test_fmt17_round_trip(self):
        for x in (math.pi, 1.0 / 3.0, 2.0 ** -52, 1e300):
            assert float(fmt17(x)) == x

    def test_ratio_conventions(self):
        assert _ratio(0.0, 0.0) == 0.0
        assert math.isinf(_ratio(1.0, 0.0))
        assert _ratio(1.0, math.inf) == 0.0

    def test_ratio_conventions_elementwise(self):
        lhs = np.array([0.0, 1.0, 1.0, math.nan, 3.0])
        rhs = np.array([0.0, 0.0, math.inf, 0.0, 2.0])
        assert _ratio(lhs, rhs).tolist() == [0.0, math.inf, 0.0, math.inf, 1.5]
