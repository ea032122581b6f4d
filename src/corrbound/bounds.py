"""Activity-based upper bounds on correlation changes, with reports.

Every bound evaluation yields both sides, their ratio, and a
validity-domain flag, as arrays over a plan's intervals (``_Plan.sides``);
``_Plan.rows`` turns them into rows, which the CLI tables write. A
:class:`BoundReport` holds one row, and only the public functions build
it: the ``bound_*`` functions here, ``bound_pulse`` and ``bound_step`` of
``linear_response`` and ``cli.evaluate_bounds``. Sine-type bounds are
valid while the activity integral

    arg(t1, t2) = (1/2) * int_{t1}^{t2} sqrt(A(t)) / t dt

stays at or below pi/2; outside that range the report substitutes the
trivial bound (twice the score-product prefactor) and clears the flag
rather than erroring. A ratio of 0/0 (frozen processes) is defined as
0 so vacuous bounds pass instead of producing NaN.

Every bound reads off the same per-time quantities, which one plan per
model (``_Plan``) computes once on a set of knots; each bound is one
formula over them in the ``_BOUNDS`` table, and the public ``bound_*``
functions evaluate it on a plan over their own times. The plan is the one
place where C(t), dC/dt and the J-point chain are formed: the exact
correlators of ``correlation`` read it too.

The activity integral is evaluated after substituting t = s^2, which
removes the integrable endpoint singularity at t1 = 0, as one piecewise
Chebyshev series of g(s) = sqrt(A(s^2)) / s over [s_first, s_last]
(Trefethen, Approximation Theory and Approximation Practice, SIAM 2013).
Each piece interpolates g at 49 first-kind Chebyshev points, which never
touch the 0/0 at s = 0. A model accepts a piece when the tail of its
coefficients is negligible against their largest, or, where roundoff in
A(t) keeps the tail above that, when the coefficients end in a noise
plateau below tol^(2/3) of the largest (step 2 of the chopping rule of
Aurentz & Trefethen, "Chopping a Chebyshev series", ACM TOMS 43, 2017);
the slow decay of a kink or a jump is no plateau. A piece stays open,
split in two, while some model rejects it: a piece from s = 0 at hi/8,
since g may have a layer there (a fast rate R moves A(t) on the time scale
1/R, which is s ~ R^(-1/2)); a wide piece at sqrt(lo hi); any other at its
midpoint. The refinement is
level-synchronous: the points of every open piece go to A(t) in one batch
per level, shared by every model of a stack (``_integral_apply`` splits a
large batch into blocks of bounded memory). Each accepted series is
integrated once, and the integral at every knot is read from the
antiderivatives, so the knots do not shape the work: a random model on a
default grid costs 49 evaluations of A(t). A non-finite integrand, more
than ``_QUAD_MAX_PIECES`` open pieces of one model at one level, or an
open piece no wider than 2^-20 of the narrowest knot interval raises
instead of returning a silently wrong value; the piece cap keeps a
refinement that cannot converge (an integrand that no series resolves,
or noise above the plateau bound) from doubling its work at every level.
For a steady-state start A(t) = a t, g is the constant sqrt(a), a series
of degree 0, so the quadrature reproduces the closed form
sqrt(a) * (sqrt(t2) - sqrt(t1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadIntervalError,
    CorrboundError,
    NonFiniteError,
    NonPositiveTimeError,
    QuadratureError,
    TimesNotSortedError,
)
from .markov import (
    ProbVector,
    RateMatrix,
    ScoreVector,
    _check_dims,
    _check_times,
    _contract,
    _integral_apply,
    _propagator_apply,
    _survival,
    steady_state,
)

# Bounds are declared satisfied when lhs <= rhs * (1 + RATIO_SLACK).
RATIO_SLACK = 1e-9

# Depth floor of the refinement: an open piece no wider than 2^-_QUAD_MAX_DEPTH
# of the narrowest gap between its points raises.
_QUAD_MAX_DEPTH = 20
# Work cap of the refinement: the open pieces one model may hold at one
# level. Past it every piece keeps failing, and each level would double them.
_QUAD_MAX_PIECES = 64
# A piece is accepted when its last _CHEB_TAIL coefficients are at most
# _CHEB_RTOL of its largest (or at a noise plateau, ``_plateau``).
_CHEB_TAIL = 4
_CHEB_RTOL = 1e-14

CSV_HEADER = "bound_id,t1,t2,lhs,rhs,ratio,in_domain,cmax_mode"


def fmt17(x: float) -> str:
    """17-significant-digit decimal text, round-trip exact for float64."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation: both sides, ratio, and domain flag."""

    bound_id: str
    t1: float
    t2: float
    lhs: float
    rhs: float
    ratio: float
    in_validity_domain: bool
    cmax_mode: str
    geodesic_arg: float | None = None

    @property
    def satisfied(self) -> bool:
        return self.ratio <= 1.0 + RATIO_SLACK


def _ratio(lhs, rhs):
    """lhs / rhs elementwise, with 0/0 taken as 0 and x/0 as inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rhs == 0.0, np.where(lhs == 0.0, 0.0, math.inf), np.divide(lhs, rhs))


def activity_rate(W: RateMatrix, p: ProbVector) -> float:
    """Instantaneous jump rate sum_mu R(mu) p(mu); one per model of a stack."""
    _check_dims(W, p)
    return _contract(W.escape[..., None, :], p.p)[..., 0]


def _chebyshev_rule(n: int):
    """The n first-kind Chebyshev points cos((2k + 1) pi / 2n) on [-1, 1],
    and the matrix taking values there to the coefficients of their
    interpolant in T_0 .. T_{n-1}."""
    k = np.arange(n)
    # cos(j (2k + 1) pi / 2n), with the angle reduced mod 2 pi in integers
    to_coef = np.cos(np.outer(k, 2 * k + 1) % (4 * n) * (np.pi / (2 * n))) * (2.0 / n)
    to_coef[0] /= 2.0
    return np.cos((2 * k + 1) * (np.pi / (2 * n))), to_coef


_CHEB_NODES, _CHEB_TO_COEF = _chebyshev_rule(49)
# the degrees 1 .. n of an antiderivative's terms, T_j(-1), T_j(1) - T_j(-1)
# and 2j
_CHEB_J = np.arange(1, _CHEB_NODES.size + 1)
_CHEB_SIGN = (-1.0) ** _CHEB_J
_CHEB_WHOLE = 1.0 - _CHEB_SIGN
_CHEB_2J = 2.0 * _CHEB_J


def _plateau_pairs(n: int):
    """The 0-based positions of the degrees j and round(1.25 j + 5)
    (1-based, rounding halves up) that step 2 of the chopping rule of
    Aurentz & Trefethen ("Chopping a Chebyshev series", ACM TOMS 43, 2017)
    compares, for every j whose partner is a degree of an n-term series."""
    j = np.arange(2, n + 1)
    j2 = np.floor(1.25 * j + 5.5).astype(int)
    return j[j2 <= n] - 1, j2[j2 <= n] - 1


_PLATEAU_J, _PLATEAU_J2 = _plateau_pairs(_CHEB_NODES.size)
_LOG_RTOL = math.log(_CHEB_RTOL)
# no plateau lies above this share of the largest coefficient
_PLATEAU_RTOL = _CHEB_RTOL ** (2.0 / 3.0)


def _plateau(size: np.ndarray) -> np.ndarray:
    """Whether each row of coefficient magnitudes (each with a positive
    tail) ends in a noise plateau. Its envelope, the largest magnitude
    from each degree on relative to the largest of all, falls from e1 at
    some degree j to no less than r e1 at degree round(1.25 j + 5), with
    r = 3 (1 - log e1 / log _CHEB_RTOL). Since r < 1 only where
    e1 < _CHEB_RTOL^(2/3), a slow decay above that (a kink or a jump that
    a piece does not resolve) never counts as a plateau."""
    envelope = np.maximum.accumulate(size[:, ::-1], axis=-1)[:, ::-1]
    e1, e2 = envelope[:, _PLATEAU_J], envelope[:, _PLATEAU_J2]
    r = 3.0 * (1.0 - np.log(e1 / envelope[:, :1]) / _LOG_RTOL)
    return (e2 > r * e1).any(axis=-1)


def _antiderivative(coef: np.ndarray, half: np.ndarray) -> np.ndarray:
    """C_1 .. C_n of the antiderivative F(u) = sum_j C_j (T_j(u) - T_j(-1))
    of each piece's series, in x = mid + half u, so that F is 0 at the
    piece's left end: C_j = half (c_{j-1} - c_{j+1}) / 2j, with c_0 counted
    twice."""
    anti = coef.copy()
    anti[..., 0] *= 2.0
    anti[..., :-2] -= coef[..., 2:]
    anti *= half[:, None] / _CHEB_2J
    return anti


def _chebyshev_quadrature(f, x) -> np.ndarray:
    """Integrals of ``f`` from x[0] to each point of the sorted ``x``, from
    one piecewise Chebyshev series over [x[0], x[-1]]; for one model or a
    whole stack at once.

    The points are shared by every model, and the range starts as one
    piece. At every refinement level the 49 Chebyshev points of the open
    pieces go to ``f`` in one call, as one 1-d array; ``f`` returns their
    values after a leading model axis, or without one for a single model,
    and the result has one row per model in the same layout. A model
    accepts a piece when the last ``_CHEB_TAIL`` coefficients of its
    interpolant are at most ``_CHEB_RTOL`` of the largest or, failing that,
    when they end in a noise plateau below ``_CHEB_RTOL``^(2/3) of the
    largest (``_plateau``); it then ignores the piece's descendants. A
    piece stays open while any model it is live for rejects it. It is
    split at hi/8 when it starts at 0, where a layer of g at s = 0 would
    take one halving per level; at sqrt(lo hi) when hi > 4 lo > 0 (a layer
    at the low end of a wide range); and at its midpoint otherwise. Each
    model thus accepts the pieces it accepts alone, and its integrals are
    summed from those pieces alone, in order of position. Non-finite values
    at a live piece, more than ``_QUAD_MAX_PIECES`` open pieces of one model
    at one level, or an open piece no wider than 2^-``_QUAD_MAX_DEPTH`` of
    the narrowest gap between the points are hard errors naming a failing
    piece.
    """
    x = np.array(x, dtype=float, ndmin=1)
    gap = np.minimum.reduce(x[1:] - x[:-1], initial=np.inf)
    floor = math.ldexp(float(gap), -_QUAD_MAX_DEPTH)
    lo, hi = x[:-1][:1], x[1:][-1:]  # one piece, or none for a single point
    live = True  # models x pieces once the model count is known
    accepted = []  # per level: lo, hi, coefficients, accepted by each model
    while True:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        v = np.asarray(f((mid[:, None] + half[:, None] * _CHEB_NODES).ravel()))
        if not accepted:
            shape = v.shape[:-1]
            models = math.prod(shape)
        v = v.reshape(models, lo.size, _CHEB_NODES.size)
        # einsum, not BLAS: each row is summed in one order, whatever the row count
        coef = np.einsum("mpk,jk->mpj", v, _CHEB_TO_COEF)
        size = np.abs(coef)
        # a non-finite value makes every coefficient non-finite
        scale = size.max(axis=-1)
        finite = np.isfinite(scale)
        if not finite.all():
            k = np.nonzero(live & ~finite)[1]
            if k.size:
                raise QuadratureError(
                    f"activity integrand is not finite on [{float(lo[k[0]])}, {float(hi[k[0]])}]"
                )
        # every live piece is finite here; the tail test, then the plateau
        # test on the pieces it rejects whose tail is low enough to lie on
        # a plateau
        tail = size[..., -_CHEB_TAIL:].max(axis=-1)
        done = live & (tail <= _CHEB_RTOL * scale)
        live = live & ~done
        noisy = live & (tail <= _PLATEAU_RTOL * scale)
        if noisy.any():
            done[noisy] = _plateau(size[noisy])
            live &= ~done
        kept = done.any(axis=0)
        accepted.append((lo[kept], hi[kept], coef[:, kept], done[:, kept]))
        if not live.any():
            break
        open_ = live.any(axis=0)
        lo, hi, mid, live = lo[open_], hi[open_], mid[open_], live[:, open_]
        # splitting doubles each model's open pieces
        crowded = 2 * live.sum(axis=1) > _QUAD_MAX_PIECES
        stuck = hi - lo <= floor
        if crowded.any() or stuck.any():
            k = np.flatnonzero(stuck | live[crowded].any(axis=0))[0]
            raise QuadratureError(
                f"activity integral did not converge on [{float(lo[k])}, {float(hi[k])}]"
            )
        cut = np.where((hi > 4.0 * lo) & (lo > 0.0), np.sqrt(np.maximum(lo, 0.0) * hi), mid)
        from_zero = lo == 0.0
        cut[from_zero] = 0.125 * hi[from_zero]
        lo, hi = np.concatenate((lo, cut)), np.concatenate((cut, hi))
        live = np.concatenate((live, live), axis=1)
    lo, hi, coef, done = zip(*accepted)
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    coef, done = np.concatenate(coef, axis=1), np.concatenate(done, axis=1)
    order = np.argsort(lo, kind="stable")
    lo, hi, coef, done = lo[order], hi[order], coef[:, order], done[:, order]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    anti = _antiderivative(coef, half)
    # each piece's share of the integral up to each point: all of it past
    # the piece, none before it, and F(u) at a point inside it
    whole = np.einsum("mpj,j->mp", anti, _CHEB_WHOLE)
    share = np.where(x >= hi[:, None], whole[..., None], 0.0)
    p, k = np.nonzero((x > lo[:, None]) & (x < hi[:, None]))
    u = np.minimum(np.maximum((x[k] - mid[p]) / half[p], -1.0), 1.0)
    chebyshev = np.cos(np.arccos(u)[:, None] * _CHEB_J)  # T_j(u) = cos(j arccos u)
    share[:, p, k] = np.einsum("mqj,qj->mq", anti[:, p], chebyshev - _CHEB_SIGN)
    # the sum over a model's own pieces, in order of position from 0, as
    # one running sum: a piece the model does not accept adds 0, and x + 0
    # is x, whatever the other models accept
    share = np.where(done[..., None], share, 0.0)
    out = np.add.accumulate(share, axis=1)[:, -1] if lo.size else share.sum(axis=1)
    return out.reshape(shape + x.shape)


def cmax(S: ScoreVector, T: ScoreVector, mode: str = "standard") -> float:
    """Score-product prefactor; one per model of a stack.

    ``standard`` is the product of sup norms; ``tight`` is half the range
    of S(nu) T(mu) over independent state pairs, never larger than the
    standard value.
    """
    if mode == "standard":
        return S.max_abs * T.max_abs
    if mode == "tight":
        corners = [
            a * b
            for a in (S.s.min(axis=-1), S.s.max(axis=-1))
            for b in (T.s.min(axis=-1), T.s.max(axis=-1))
        ]
        return 0.5 * (np.max(corners, axis=0) - np.min(corners, axis=0))
    raise CorrboundError(f"unknown cmax mode {mode!r}")


def _col(x) -> np.ndarray:
    """A per-model value as a column against per-knot arrays."""
    return np.asarray(x)[..., None]


def _check_probes(W: RateMatrix, p0: ProbVector, scores, times) -> np.ndarray:
    """Validated probe times of a J-time correlation: sorted, from 0, one per score."""
    ts = _check_times(times)
    if ts.ndim != 1 or ts.size < 1:
        raise TimesNotSortedError("need at least one time point")
    if ts[0] != 0.0:
        raise TimesNotSortedError(f"first time must be 0, got {ts[0]}")
    if np.any(np.diff(ts) < 0.0):
        raise TimesNotSortedError("times must be non-decreasing")
    if len(scores) != ts.size:
        raise TimesNotSortedError(
            f"{len(scores)} scores but {ts.size} time points"
        )
    _check_dims(W, p0, *scores)
    return ts


def _chain(W: RateMatrix, p: np.ndarray, scores, times: np.ndarray) -> np.ndarray:
    """J-time correlations, one per row of the m x J probe ``times``, with
    each link of the chain applied to all rows at once (and to every model
    of a stack W, after its model axis)."""
    v = (scores[0].s * p)[..., None, :]
    for i in range(1, len(scores)):
        v = scores[i].s[..., None, :] * _propagator_apply(W, v, times[:, i] - times[:, i - 1])
    return np.broadcast_to(v, v.shape[:-2] + (times.shape[0], W.n)).sum(axis=-1)


class _Plan:
    """Evaluation plan of one model, or of a stack of models (``markov._stack``)
    over the same states, on a sorted set of knots.

    Every quantity is an array over the knots, after the model axis of a
    stack, computed on first use and then shared by all bounds; per-model
    values come as columns against it. Propagation goes through
    matrix-vector rows, never through per-knot propagator matrices.
    ``probes`` is a J-point correlation's scores and probe times, one row
    per knot; by default (S, T, S) at (0, tau/2, tau) for each knot tau.
    """

    def __init__(
        self,
        W: RateMatrix,
        p0: ProbVector,
        times,
        S: ScoreVector | None = None,
        T: ScoreVector | None = None,
        mode: str = "standard",
        chi: float = 0.0,
        probes=None,
    ):
        _check_dims(W, p0, *(v for v in (S, T) if v is not None))
        if not math.isfinite(chi):
            raise NonFiniteError(f"perturbation strength chi must be finite, got {chi}")
        self.knots = np.unique(_check_times(np.ravel(times)))
        self.W, self.p0, self.S, self.T = W, p0, S, T
        self.mode, self.chi = mode, chi
        self.probes = probes or ((S, T, S), np.outer(self.knots, (0.0, 0.5, 1.0)))

    @cached_property
    def stationary(self) -> "_Plan":
        """The same plan started from the stationary law of W."""
        return _Plan(self.W, steady_state(self.W), self.knots, self.S, self.T, chi=self.chi)

    @cached_property
    def cmax(self) -> np.ndarray:
        return _col(cmax(self.S, self.T, self.mode))

    @cached_property
    def rate(self) -> np.ndarray:
        return _col(activity_rate(self.W, self.p0))

    @cached_property
    def corr(self) -> np.ndarray:
        """C(t) = <S(0) T(t)>."""
        return _contract(_propagator_apply(self.W, self.S.s * self.p0.p, self.knots), self.T.s)

    @cached_property
    def corr_slope(self) -> np.ndarray:
        """dC/dt = 1 T e^{Wt} W S P(0)."""
        v = _contract(self.W.w, self.S.s * self.p0.p)
        return _contract(_propagator_apply(self.W, v, self.knots), self.T.s)

    @cached_property
    def mean(self) -> np.ndarray:
        """<S(t)>, contracted as S e^{Wt} P(0)."""
        return _contract(_propagator_apply(self.W, self.p0.p, self.knots), self.S.s)

    @cached_property
    def multi(self) -> np.ndarray:
        """The J-point correlation of the probes at each knot."""
        return _chain(self.W, self.p0.p, *self.probes)

    def _activity(self, ts: np.ndarray) -> np.ndarray:
        """A at the times ts, shared by every model of a stack."""
        return np.maximum(_integral_apply(self.W, self.p0.p, ts, self.W.escape), 0.0)

    @cached_property
    def activity(self) -> np.ndarray:
        """A(t), the expected number of jumps in [0, t]."""
        return self._activity(self.knots)

    @cached_property
    def eta(self) -> np.ndarray:
        """eta(t), the squared survival overlap of path_space."""
        return _survival(self.W, self.p0, self.knots) ** 2

    @cached_property
    def arc(self) -> np.ndarray:
        """Activity integral from the first knot to each knot."""
        s = np.sqrt(self.knots)

        def integrand(x: np.ndarray) -> np.ndarray:
            return np.sqrt(self._activity(x * x)) / x

        return _chebyshev_quadrature(integrand, s)

    def arg(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Activity integral between the knots with indices a and b."""
        return self.arc[..., b] - self.arc[..., a]

    def sides(self, bound_id: str, t1, t2):
        """One bound on the intervals (t1[i], t2[i]), all of them knots:
        arrays lhs, rhs, ratio, in_domain, and arg (None for bounds that
        do not read the activity integral)."""
        t1, t2 = np.atleast_1d(t1), np.atleast_1d(t2)
        if np.any(t1 > t2):
            raise BadIntervalError(f"need t1 <= t2, got ({t1}, {t2})")
        a, b = np.searchsorted(self.knots, t1), np.searchsorted(self.knots, t2)
        lhs, rhs, in_domain, arg = _BOUNDS[bound_id][3](self, a, b)
        return lhs, rhs, _ratio(lhs, rhs), in_domain, arg

    def rows(self, bound_id: str, t1, t2, rhs_scale: float = 1.0) -> list[tuple]:
        """The sides of one bound as one row per interval, a tuple in the
        field order of ``BoundReport``. ``rhs_scale`` multiplies every rhs,
        with 0 inf taken as 0 and a zero rhs kept at +0, and the ratio is
        recomputed from the scaled rhs."""
        t1, t2 = np.atleast_1d(t1), np.atleast_1d(t2)
        lhs, rhs, ratio, in_domain, arg = self.sides(bound_id, t1, t2)
        if rhs_scale != 1.0:
            with np.errstate(over="ignore", invalid="ignore"):
                rhs = np.where((rhs == 0.0) | (rhs_scale == 0.0), 0.0, rhs * rhs_scale)
            ratio = _ratio(lhs, rhs)
        n = t1.size
        mode = self.mode if _BOUNDS[bound_id][2] else "standard"
        return list(zip(
            [bound_id] * n, t1.tolist(), t2.tolist(), lhs.tolist(), rhs.tolist(),
            ratio.tolist(), in_domain.tolist(), [mode] * n,
            [None] * n if arg is None else arg.tolist(),
        ))


def _change(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(x[..., a] - x[..., b])


def _valid(lhs: np.ndarray, rhs: np.ndarray):
    """A bound valid at every time."""
    return lhs, rhs, np.ones(lhs.shape, dtype=bool), None


def _sine(lhs: np.ndarray, pref, arg: np.ndarray):
    """2 pref sin(arg) while arg <= pi/2, the trivial 2 pref beyond."""
    in_domain = arg <= math.pi / 2.0
    return lhs, np.where(in_domain, 2.0 * pref * np.sin(arg), 2.0 * pref), in_domain, arg


def _overlap(lhs: np.ndarray, pref, eta_t: np.ndarray):
    """2 pref sqrt(1 - eta), valid for all t (eta stays in (0, 1])."""
    return _valid(lhs, 2.0 * pref * np.sqrt(np.maximum(1.0 - eta_t, 0.0)))


def _tangent(lhs: np.ndarray, pref, arg: np.ndarray):
    """2 pref tan(arg); at arg >= pi/2 the tangent diverges and the right
    side is infinite with the domain flag cleared."""
    in_domain = arg < math.pi / 2.0
    return lhs, np.where(in_domain, 2.0 * pref * np.tan(arg), math.inf), in_domain, arg


def _sup(*scores: ScoreVector) -> np.ndarray:
    """The product of the scores' sup norms, per model."""
    return _col(math.prod(s.max_abs for s in scores))


def _change_sine(P: _Plan, a, b):
    return _sine(_change(P.corr, a, b), P.cmax, P.arg(a, b))


# bound id -> (t1 / t on a grid of times t, starts from the stationary law
# of W, prefactor follows the cmax mode, formula over the plan and the
# knot indices a of t1 and b of t2). Bounds at a single time (t1 = t)
# divide by t, so grids skip t = 0 for them.
_BOUNDS = {
    "MAIN_EQ5": (0.5, False, True, _change_sine),
    "ZERO_T_EQ6": (0.0, False, True, _change_sine),
    "DERIV_EQ7": (1.0, False, True, lambda P, a, b: _valid(
        np.abs(P.corr_slope[..., b]), P.cmax * np.sqrt(P.activity[..., b]) / P.knots[b])),
    "ETA_EQ8": (0.0, False, True, lambda P, a, b: _overlap(
        _change(P.corr, a, b), P.cmax, P.eta[..., b])),
    "TANGENT_S29": (0.0, False, True, lambda P, a, b: _tangent(
        _change(P.corr, a, b), P.cmax, P.arg(a, b))),
    "MULTI_SIN_S40": (0.0, False, False, lambda P, a, b: _sine(
        _change(P.multi, a, b), _sup(*P.probes[0]), P.arg(a, b))),
    "MULTI_ETA_S39": (0.0, False, False, lambda P, a, b: _overlap(
        _change(P.multi, a, b), _sup(*P.probes[0]), P.eta[..., b])),
    "ONEPOINT_SIN_S42": (0.0, False, False, lambda P, a, b: _sine(
        _change(P.mean, a, b), _sup(P.S), P.arg(a, b))),
    "ONEPOINT_ETA_S41": (0.0, False, False, lambda P, a, b: _overlap(
        _change(P.mean, a, b), _sup(P.S), P.eta[..., b])),
    "ONEPOINT_ACTIVITY_S45": (0.0, False, False, lambda P, a, b: _valid(
        _change(P.mean, a, b), 2.0 * _sup(P.S) * P.activity[..., b])),
    "PULSE_EQ11": (1.0, True, False, lambda P, a, b: _valid(
        abs(P.chi) * np.abs(P.corr_slope[..., b]),
        abs(P.chi) * _sup(P.S) * _sup(P.T) * np.sqrt(P.rate / P.knots[b]))),
    "STEP_EQ12": (0.0, True, False, lambda P, a, b: _sine(
        abs(P.chi) * _change(P.corr, a, b), abs(P.chi) * _sup(P.S) * _sup(P.T),
        np.sqrt(P.rate * P.knots[b]))),
}
BOUND_IDS = tuple(_BOUNDS)


def dynamical_activity(W: RateMatrix, p0: ProbVector, t: float) -> float:
    """Expected number of jumps in [0, t]: the time integral of the
    instantaneous jump rate along the evolving distribution.

    Evaluated exactly through the integrated propagator; non-negative
    and non-decreasing in t.
    """
    return float(_Plan(W, p0, (t,)).activity[0])


def geodesic_arg(W: RateMatrix, p0: ProbVector, t1: float, t2: float) -> float:
    """Half-integral of sqrt(A(t))/t over [t1, t2].

    This is the arc length controlling every sine/tangent bound. A
    stationary start has A(t) = a t, and the quadrature reproduces the
    closed form sqrt(a) (sqrt(t2) - sqrt(t1)).
    """
    _check_dims(W, p0)
    if not (0.0 <= t1 <= t2) or not np.isfinite(t1) or not np.isfinite(t2):
        raise BadIntervalError(f"need 0 <= t1 <= t2, got ({t1}, {t2})")
    return float(_Plan(W, p0, (t1, t2)).arg(0, -1))


def bound_main(
    W: RateMatrix,
    p0: ProbVector,
    S: ScoreVector,
    T: ScoreVector,
    t1: float,
    t2: float,
    mode: str = "standard",
) -> BoundReport:
    """|C(t1) - C(t2)| against twice the prefactor times sin(arg).

    Outside the sine domain (arg > pi/2) the report carries the trivial
    bound with the domain flag cleared.
    """
    return BoundReport(*_Plan(W, p0, (t1, t2), S, T, mode).rows("MAIN_EQ5", t1, t2)[0])


def bound_zero_t(
    W: RateMatrix,
    p0: ProbVector,
    S: ScoreVector,
    T: ScoreVector,
    t: float,
    mode: str = "standard",
) -> BoundReport:
    """Zero-to-t corollary of the main bound."""
    return BoundReport(*_Plan(W, p0, (0.0, t), S, T, mode).rows("ZERO_T_EQ6", 0.0, t)[0])


def bound_derivative(
    W: RateMatrix,
    p0: ProbVector,
    S: ScoreVector,
    T: ScoreVector,
    t: float,
    mode: str = "standard",
) -> BoundReport:
    """|dC/dt| against the prefactor times sqrt(A(t))/t, for t > 0.

    The right side diverges as t -> 0 so t = 0 is rejected; the bound is
    valid for every positive t (no domain restriction).
    """
    if t <= 0.0:
        raise NonPositiveTimeError(f"derivative bound needs t > 0, got {t}")
    return BoundReport(*_Plan(W, p0, (t,), S, T, mode).rows("DERIV_EQ7", t, t)[0])


def bound_eta(
    W: RateMatrix,
    p0: ProbVector,
    S: ScoreVector,
    T: ScoreVector,
    t: float,
    mode: str = "standard",
) -> BoundReport:
    """|C(0) - C(t)| against 2 * prefactor * sqrt(1 - eta(t)).

    Valid for every t >= 0 (the survival overlap stays in (0, 1]), and
    never looser than the sine bound inside the latter's domain.
    """
    return BoundReport(*_Plan(W, p0, (0.0, t), S, T, mode).rows("ETA_EQ8", 0.0, t)[0])


def bound_tangent_tur(
    W: RateMatrix,
    p0: ProbVector,
    S: ScoreVector,
    T: ScoreVector,
    t: float,
    mode: str = "standard",
) -> BoundReport:
    """|C(0) - C(t)| against 2 * prefactor * tan(arg); looser than the
    sine form wherever both apply.

    At arg >= pi/2 the tangent diverges: the report carries an infinite
    right side with the domain flag cleared.
    """
    return BoundReport(*_Plan(W, p0, (0.0, t), S, T, mode).rows("TANGENT_S29", 0.0, t)[0])


def bound_multipoint(
    W: RateMatrix,
    p0: ProbVector,
    scores: list[ScoreVector],
    times,
    variant: str = "sin",
) -> BoundReport:
    """Change of a J-time correlation from its equal-time value.

    ``variant='sin'`` compares against 2 (prod_i S_i,max) sin(arg(0, t_J))
    with the usual domain fallback; ``variant='eta'`` uses
    sqrt(1 - eta(t_J)) and is valid for all t_J.
    """
    ts = _check_probes(W, p0, scores, times)
    bound_id = {"sin": "MULTI_SIN_S40", "eta": "MULTI_ETA_S39"}.get(variant)
    if bound_id is None:
        raise CorrboundError(f"unknown multipoint variant {variant!r}")
    t_end = float(ts[-1])
    knots = np.unique([0.0, t_end])
    # every probe at time 0 on the knot 0, at the given times on t_end
    probe_times = np.outer(knots == t_end, ts)
    plan = _Plan(W, p0, knots, probes=(scores, probe_times))
    return BoundReport(*plan.rows(bound_id, 0.0, t_end)[0])


def bound_onepoint(
    W: RateMatrix,
    p0: ProbVector,
    S: ScoreVector,
    t: float,
    variant: str = "sin",
) -> BoundReport:
    """Change of a single observable mean, |<S(0)> - <S(t)>|.

    Variants: ``sin`` (2 S_max sin(arg), with domain fallback), ``eta``
    (2 S_max sqrt(1 - eta)), and ``activity`` (2 S_max A(t), linear in t;
    tighter at short times, looser at long times than the sine form).
    """
    plan = _Plan(W, p0, (0.0, t), S)
    bound_id = {
        "sin": "ONEPOINT_SIN_S42",
        "eta": "ONEPOINT_ETA_S41",
        "activity": "ONEPOINT_ACTIVITY_S45",
    }.get(variant)
    if bound_id is None:
        raise CorrboundError(f"unknown onepoint variant {variant!r}")
    return BoundReport(*plan.rows(bound_id, 0.0, t)[0])
