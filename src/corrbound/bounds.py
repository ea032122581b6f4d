"""Activity-based upper bounds on correlation changes, with reports.

Every bound evaluation returns a :class:`BoundReport` carrying both
sides, their ratio, and a validity-domain flag; sweeps that only tally
read the same values as arrays (``_Plan.sides``). Sine-type bounds are
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
removes the integrable endpoint singularity at t1 = 0, as a cumulative
sum over the intervals between neighbouring knots, each refined to
GEODESIC_ATOL / intervals, so every interval is within GEODESIC_ATOL.
The adaptive Gauss-Legendre quadrature is level-synchronous: at each
refinement level the 10 and 21 nodes of every open panel of every
interval go to A(t) in one batch per level, shared by every model of a
stack, and only the panels whose two estimates disagree for some model
are bisected for the next level (``_integral_apply`` splits a large batch
into blocks of bounded memory). A non-finite integrand, more than
``_QUAD_MAX_PANELS`` open panels in one interval at one level, or a
panel still open after 20 levels raises instead of
returning a silently loose value; the panel cap keeps a refinement that
cannot converge (roundoff above the halved tolerance on every panel)
from doubling its work at every level. For a steady-state start
A(t) = a t, the substituted integrand is the constant sqrt(a), so the
quadrature reproduces the closed form sqrt(a) * (sqrt(t2) - sqrt(t1)).
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

GEODESIC_ATOL = 1e-9
_QUAD_MAX_DEPTH = 20
# Work cap of the refinement: the open panels one interval may hold at one
# level. Past it every panel keeps failing, and each level would double them.
_QUAD_MAX_PANELS = 64

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

    def row(self) -> tuple:
        """The fields in ``CSV_HEADER`` order."""
        return (
            self.bound_id, self.t1, self.t2, self.lhs, self.rhs, self.ratio,
            self.in_validity_domain, self.cmax_mode,
        )

    def csv_row(self) -> str:
        return _csv_line(self.row())

    def as_dict(self) -> dict:
        return dict(zip(CSV_HEADER.split(","), self.row()))


def _csv_line(cells) -> str:
    """One CSV line: reals through ``fmt17``, booleans as true/false and
    anything else through ``str``."""
    return ",".join(
        fmt17(c) if isinstance(c, float) else str(c).lower() if isinstance(c, bool) else str(c)
        for c in cells
    )


def _ratio(lhs, rhs):
    """lhs / rhs elementwise, with 0/0 taken as 0 and x/0 as inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rhs == 0.0, np.where(lhs == 0.0, 0.0, math.inf), np.divide(lhs, rhs))


def activity_rate(W: RateMatrix, p: ProbVector) -> float:
    """Instantaneous jump rate sum_mu R(mu) p(mu); one per model of a stack."""
    _check_dims(W, p)
    return _contract(W.escape[..., None, :], p.p)[..., 0]


_GL_LO = np.polynomial.legendre.leggauss(10)
_GL_HI = np.polynomial.legendre.leggauss(21)
_GL_NODES = np.concatenate((_GL_LO[0], _GL_HI[0]))


def _adaptive_gauss_legendre(f, lo, hi, tol) -> np.ndarray:
    """Level-synchronous panel-adaptive Gauss-Legendre over many intervals,
    for one model or a whole stack at once.

    ``lo``, ``hi`` and ``tol`` are 1-d arrays with one entry per interval,
    shared by every model. At every refinement level the 10 and 21 nodes of
    the open panels go to ``f`` in one call, as one 1-d array; ``f``
    returns their values after a leading model axis, or without one for a
    single model, and the result has one integral per model and interval
    in the same layout. A panel whose embedded 10/21-node estimates agree
    within its tolerance adds its 21-node value to its interval, for each
    model where they agree; that model ignores its descendants. A panel
    stays open, bisected with half the tolerance per half, while any model
    it is live for still disagrees. Each model thus adds the panels it adds
    alone, in the same order. Non-finite values at a live panel, more than
    ``_QUAD_MAX_PANELS`` open panels of one interval at one level, or a
    panel still open after ``_QUAD_MAX_DEPTH`` levels are hard errors
    naming a failing panel.
    """
    lo, hi, tol = (np.array(x, dtype=float, ndmin=1) for x in (lo, hi, tol))
    owner = np.arange(lo.size)
    live = True  # models x panels once the model count is known
    n_lo = _GL_LO[0].size
    for depth in range(_QUAD_MAX_DEPTH + 1):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        v = np.asarray(f((mid[:, None] + half[:, None] * _GL_NODES).ravel()))
        if depth == 0:  # flat totals: the intervals of model m start at m * intervals
            shape = v.shape[:-1] + tol.shape
            models = math.prod(shape[:-1])
            totals, start = np.zeros(models * tol.size), tol.size * np.arange(models)[:, None]
        v = v.reshape(models, lo.size, _GL_NODES.size)
        coarse, fine = half * (v[..., :n_lo] @ _GL_LO[1]), half * (v[..., n_lo:] @ _GL_HI[1])
        # every panel of a level has been halved `depth` times, and so has its tolerance
        done = np.abs(fine - coarse) <= np.maximum(np.ldexp(tol[owner], -depth), 1e-16)
        np.add.at(totals, (start + owner)[live & done], fine[live & done])
        live = live & ~done
        # a non-finite value never agrees, so its panel is still live
        open_values = v[live]
        if not np.isfinite(open_values).all():
            k = np.nonzero(live & ~np.isfinite(v).all(axis=-1))[1][0]
            raise QuadratureError(
                f"activity integrand is not finite on [{float(lo[k])}, {float(hi[k])}]"
            )
        if open_values.size == 0:
            break
        open_ = live.any(axis=0)
        # bisection doubles each interval's open panels for the next level
        crowded = 2 * np.bincount(owner[open_], minlength=tol.size) > _QUAD_MAX_PANELS
        stuck = open_ & crowded[owner] if depth < _QUAD_MAX_DEPTH else open_
        if stuck.any():
            k = np.flatnonzero(stuck)[0]
            raise QuadratureError(
                f"activity integral did not converge on [{float(lo[k])}, {float(hi[k])}]"
            )
        lo, mid, hi = lo[open_], mid[open_], hi[open_]
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        owner, live = np.tile(owner[open_], 2), np.tile(live[:, open_], 2)
    return totals.reshape(shape)


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
        return np.clip(_integral_apply(self.W, self.p0.p, ts, self.W.escape), 0.0, None)

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

        tol = np.full(s.size - 1, GEODESIC_ATOL / max(s.size - 1, 1))
        panels = _adaptive_gauss_legendre(integrand, s[:-1], s[1:], tol)
        lead = self.W.w.shape[:-2]
        return np.concatenate((np.zeros(lead + (1,)), np.cumsum(panels, axis=-1)), axis=-1)

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

    def reports(self, bound_id: str, t1, t2) -> list[BoundReport]:
        """The sides of one bound as one report per interval."""
        t1, t2 = np.atleast_1d(t1), np.atleast_1d(t2)
        if t1.size == 0:
            return []
        lhs, rhs, ratio, in_domain, arg = self.sides(bound_id, t1, t2)
        mode = self.mode if _BOUNDS[bound_id][2] else "standard"
        args = [None] * len(t1) if arg is None else arg.tolist()
        return [
            BoundReport(bound_id, *row, mode, g)
            for *row, g in zip(
                t1.tolist(), t2.tolist(), lhs.tolist(), rhs.tolist(),
                ratio.tolist(), in_domain.tolist(), args,
            )
        ]


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
    return _Plan(W, p0, (t1, t2), S, T, mode).reports("MAIN_EQ5", t1, t2)[0]


def bound_zero_t(
    W: RateMatrix,
    p0: ProbVector,
    S: ScoreVector,
    T: ScoreVector,
    t: float,
    mode: str = "standard",
) -> BoundReport:
    """Zero-to-t corollary of the main bound."""
    return _Plan(W, p0, (0.0, t), S, T, mode).reports("ZERO_T_EQ6", 0.0, t)[0]


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
    return _Plan(W, p0, (t,), S, T, mode).reports("DERIV_EQ7", t, t)[0]


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
    return _Plan(W, p0, (0.0, t), S, T, mode).reports("ETA_EQ8", 0.0, t)[0]


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
    return _Plan(W, p0, (0.0, t), S, T, mode).reports("TANGENT_S29", 0.0, t)[0]


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
    return plan.reports(bound_id, 0.0, t_end)[0]


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
    return plan.reports(bound_id, 0.0, t)[0]
