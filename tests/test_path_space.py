import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from corrbound import (
    PathSkeleton,
    ProbVector,
    bhat_survival,
    bhattacharyya,
    eta,
    geodesic_arg,
    propagate,
    random_model,
    skeleton_distribution,
    tvd,
    two_point,
    verify_path_inequalities,
)
from corrbound import path_space
from corrbound.errors import (
    BadIntervalError,
    NegativeProbabilityError,
    NegativeTimeError,
    TooManyPathsError,
)
from corrbound.markov import _survival
from conftest import model_sweep


class TestPathSkeleton:
    def test_encode_decode_round_trip(self):
        skel = PathSkeleton(3, 4, 1.0)
        for key in (0, 7, 100, skel.path_count - 1):
            assert skel.encode(skel.decode(key)) == key

    def test_keys_are_the_sequences_in_order(self):
        # every sequence once, numpy integers as well as ints
        skel = PathSkeleton(3, 2, 1.0)
        seqs = list(itertools.product(range(3), repeat=3))
        assert [skel.encode(s) for s in seqs] == list(range(skel.path_count))
        assert [skel.decode(np.int64(k)) for k in range(skel.path_count)] == seqs
        assert skel.encode(np.array([2, 0, 1])) == 19

    def test_guard_rejects_huge_enumerations(self):
        with pytest.raises(TooManyPathsError):
            PathSkeleton(10, 7, 1.0)  # 10^8 paths

    def test_at_least_one_step(self):
        with pytest.raises(BadIntervalError):
            PathSkeleton(2, 0, 1.0)


class TestSkeletonDistribution:
    def test_zero_time_mass_on_constant_paths(self, decay_model):
        W, p0, _, _ = decay_model
        d = skeleton_distribution(W, p0, 1.0, 3, 0.0)
        skel = PathSkeleton(2, 3, 1.0)
        for key in range(skel.path_count):
            states = skel.decode(key)
            if len(set(states)) == 1:
                assert d.probs[key] == pytest.approx(p0.p[states[0]], abs=1e-15)
            else:
                assert d.probs[key] == 0.0

    def test_frozen_process_same_as_zero_time(self, frozen_model):
        W, p0, _, _ = frozen_model
        a = skeleton_distribution(W, p0, 1.0, 2, 0.0)
        b = skeleton_distribution(W, p0, 1.0, 2, 5.0)
        assert np.array_equal(a.probs, b.probs)

    def test_decay_survival_path_weight(self, decay_model):
        W, p0, _, _ = decay_model
        d = skeleton_distribution(W, p0, 1.0, 2, 1.0)
        skel = PathSkeleton(2, 2, 1.0)
        assert d.probs[skel.encode((1, 1, 1))] == pytest.approx(
            np.exp(-1.0), abs=1e-14
        )

    def test_brute_force_enumeration_oracle(self):
        # independent oracle: loop over itertools.product with a scipy
        # expm one-step matrix, no shared code with the implementation
        W, p0, _ = model_sweep(1, states=(3,), seed=51)[0]
        tau, L, t = 1.0, 3, 0.7
        d = skeleton_distribution(W, p0, tau, L, t)
        step = scipy.linalg.expm((t / tau) * W.w * (tau / L))
        skel = PathSkeleton(3, L, tau)
        for states in itertools.product(range(3), repeat=L + 1):
            weight = p0.p[states[0]]
            for a, b in zip(states[:-1], states[1:]):
                weight *= step[b, a]
            assert d.probs[skel.encode(states)] == pytest.approx(weight, abs=1e-12)

    def test_marginal_consistency_with_propagate(self):
        for W, p0, _ in model_sweep(6):
            for t in (0.0, 0.5, 2.0):
                d = skeleton_distribution(W, p0, 1.0, 3, t)
                marginal = d.probs.reshape(-1, W.n).sum(axis=0)
                assert np.abs(marginal - propagate(W, p0, t).p).max() < 1e-9

    def test_expected_endpoint_product_matches_two_point(self):
        for W, p0, S in model_sweep(6, seed=8_800):
            t, tau, L = 1.3, 2.0, 3
            d = skeleton_distribution(W, p0, tau, L, t)
            grid = d.probs.reshape((W.n,) * (L + 1))
            joint = grid.sum(axis=tuple(range(1, L)))  # keep first and last
            expect = float(S.s @ joint @ S.s)
            assert expect == pytest.approx(two_point(W, p0, S, S, t), abs=1e-9)

    def test_negative_path_mass_is_rejected_not_clipped(self, decay_model, monkeypatch):
        # a one-step matrix with a -1e-9 entry gives paths of negative
        # weight far beyond roundoff; they must raise, not vanish
        W, p0, _, _ = decay_model
        bad = np.array([[1.0 + 1e-9, 0.5], [-1e-9, 0.5]])
        monkeypatch.setattr(path_space, "propagator", lambda W, t: bad)
        with pytest.raises(NegativeProbabilityError):
            skeleton_distribution(W, p0, 1.0, 2, 1.0)

    def test_law_does_not_depend_on_tau(self):
        # the one-step matrix is e^{W t / L}, whatever the horizon tau
        W, p0, _ = random_model(3, 8)
        ref = skeleton_distribution(W, p0, 1.0, 3, 0.6).probs
        for tau in (0.6, 2.5, 1e3):
            assert np.array_equal(skeleton_distribution(W, p0, tau, 3, 0.6).probs, ref)

    def test_negative_time_rejected(self, decay_model):
        W, p0, _, _ = decay_model
        with pytest.raises(NegativeTimeError):
            skeleton_distribution(W, p0, 1.0, 2, -1.0)


class TestBhatSurvival:
    def test_zero_time_is_one(self):
        for W, p0, _ in model_sweep(5):
            assert bhat_survival(W, p0, 0.0) == 1.0

    def test_decay_model_closed_form(self, decay_model):
        W, p0, _, _ = decay_model
        for t in (0.2, 1.0, 6.0):
            assert bhat_survival(W, p0, t) == pytest.approx(
                np.exp(-0.5 * t), abs=1e-14
            )

    def test_symmetric_uniform_closed_form(self, symmetric_model):
        W, pst, _, _ = symmetric_model
        for t in (0.5, 2.0):
            assert bhat_survival(W, pst, t) == pytest.approx(
                np.exp(-0.5 * t), abs=1e-14
            )

    def test_equals_one_only_with_idle_support(self, decay_model):
        W, _, _, _ = decay_model
        idle = ProbVector(np.array([1.0, 0.0]))  # absorbing state only
        assert bhat_survival(W, idle, 10.0) == 1.0
        for W, p0, _ in model_sweep(10):
            assert bhat_survival(W, p0, 1.0) < 1.0  # all escape rates positive

    def test_monotone_decreasing(self):
        W, p0, _ = model_sweep(1, states=(4,), seed=3)[0]
        vals = [bhat_survival(W, p0, t) for t in np.linspace(0.0, 5.0, 21)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


    def test_array_kernel_matches_scalar_calls(self):
        times = np.array([0.0, 1e-3, 0.4, 2.0, 30.0])
        for W, p0, _ in model_sweep(6):
            got = _survival(W, p0, times)
            ref = [bhat_survival(W, p0, t) for t in times]
            np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)
            assert got[0] == 1.0


class TestEta:
    def test_zero_time_is_one(self, decay_model):
        W, p0, _, _ = decay_model
        assert eta(W, p0, 0.0) == 1.0

    def test_decay_model_closed_form(self, decay_model):
        W, p0, _, _ = decay_model
        for t in np.linspace(0.0, 10.0, 41):
            assert eta(W, p0, float(t)) == pytest.approx(np.exp(-t), abs=1e-12)

    def test_decays_toward_zero(self):
        W, p0, _ = model_sweep(1, states=(3,), seed=21)[0]
        vals = [eta(W, p0, t) for t in (1.0, 5.0, 20.0, 80.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6


class TestRefinement:
    def test_bhat_decreases_tvd_increases_with_refinement(self):
        for W, p0, _ in model_sweep(4, states=(2, 3), seed=640):
            tau, t = 1.0, 0.8
            bhats, tvds = [], []
            for L in (1, 2, 4, 8):
                d0 = skeleton_distribution(W, p0, tau, L, 0.0)
                dt = skeleton_distribution(W, p0, tau, L, t)
                bhats.append(bhattacharyya(d0, dt))
                tvds.append(tvd(d0, dt))
            floor = bhat_survival(W, p0, t)
            assert all(a >= b - 1e-12 for a, b in zip(bhats, bhats[1:]))
            assert all(b >= floor - 1e-9 for b in bhats)
            assert all(a <= b + 1e-12 for a, b in zip(tvds, tvds[1:]))


    def test_bhattacharyya_matches_transfer_matrix_product(self):
        # sum over paths of sqrt(p1 p2) factorises step by step:
        # 1^T (sqrt(M1 o M2))^L p0, with M_i the one-step expm matrices
        tau, t1, t2 = 1.0, 0.3, 0.8
        for n, L in ((3, 10), (4, 8)):
            for W, p0, _ in model_sweep(3, states=(n,), seed=6_100 + n):
                m1 = scipy.linalg.expm((t1 / tau) * W.w * (tau / L))
                m2 = scipy.linalg.expm((t2 / tau) * W.w * (tau / L))
                closed = np.linalg.matrix_power(np.sqrt(m1 * m2), L) @ p0.p
                d1 = skeleton_distribution(W, p0, tau, L, t1)
                d2 = skeleton_distribution(W, p0, tau, L, t2)
                assert abs(bhattacharyya(d1, d2) - closed.sum()) < 1e-14


class TestVerifyPathInequalities:
    def test_equal_endpoints_degenerate(self, decay_model):
        W, p0, _, _ = decay_model
        r = verify_path_inequalities(W, p0, 1.0, 2, 0.5, 0.5)
        assert r.tvd_path == 0.0
        assert r.bhat_path == pytest.approx(1.0, abs=1e-12)
        assert r.tvd_ok and r.bhat_ok

    def test_decay_model_data_processing_direction(self, decay_model):
        W, p0, _, _ = decay_model
        r = verify_path_inequalities(W, p0, 1.0, 4, 0.0, 1.0)
        assert r.bhat_path >= bhat_survival(W, p0, 1.0) - 1e-12
        assert r.tvd_ok and r.bhat_ok and r.in_domain

    def test_frozen_process_zero_distance(self, frozen_model):
        W, p0, _, _ = frozen_model
        r = verify_path_inequalities(W, p0, 1.0, 3, 0.2, 0.9)
        assert r.tvd_path == 0.0
        assert r.geodesic_arg == 0.0

    def test_out_of_domain_flagged_not_failed(self, decay_model):
        W, p0, _, _ = decay_model
        arg = geodesic_arg(W, p0, 0.0, 8.0)
        assert arg > math.pi / 2.0
        r = verify_path_inequalities(W, p0, 8.0, 4, 0.0, 8.0)
        assert not r.in_domain
        assert r.tvd_ok and r.bhat_ok  # vacuous outside the sine domain

    def test_bad_interval_rejected(self, decay_model):
        W, p0, _, _ = decay_model
        with pytest.raises(BadIntervalError):
            verify_path_inequalities(W, p0, 1.0, 2, 0.8, 0.4)
        with pytest.raises(BadIntervalError):
            verify_path_inequalities(W, p0, 1.0, 2, 0.0, 1.5)

    def test_one_eigendecomposition(self, monkeypatch):
        # both skeletons and the activity integral share the eigenbasis of W
        calls = []
        real_eig = np.linalg.eig

        def counting(a):
            calls.append(a.shape)
            return real_eig(a)

        monkeypatch.setattr(np.linalg, "eig", counting)
        W, p0, _ = random_model(3, 5)
        r = verify_path_inequalities(W, p0, 1.0, 3, 0.25, 0.75)
        assert r.tvd_ok and r.bhat_ok
        assert len(calls) == 1

    def test_random_models_inside_domain(self):
        rng = np.random.default_rng(12)
        for W, p0, _ in model_sweep(4, states=(2, 3), seed=2_700):
            for _ in range(3):
                a, b = np.sort(rng.uniform(0.0, 1.0, size=2))
                r = verify_path_inequalities(W, p0, 1.0, 3, float(a), float(b))
                if r.in_domain:
                    assert r.tvd_ok and r.bhat_ok
