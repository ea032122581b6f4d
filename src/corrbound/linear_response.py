"""First-order response of a stationary Markov process to weak drives.

A perturbation ``chi * F * f(t)`` added to the generator shifts an
observable mean away from its stationary value. To first order in
``chi`` the shift is the convolution of the drive with the response
kernel, and for the canonical perturbation ``F = W diag(S)`` that
kernel coincides with the time derivative of the two-time correlation
<S(0) G(t)>. Pulse and step drives therefore have closed-form shifts
(``chi dC/dt`` and ``chi (C(t) - C(0))``) and are never convolved
numerically; sampled drives use trapezoidal convolution. The shifts and
their bounds read one evaluation plan (``bounds._Plan``) over an array
of times, so a pulse or step sweep builds one plan and checks the
stationarity of its baseline once, whatever its number of times.

A baseline P_st is stationary under the one rule of ``markov``: max |W P_st|
at most ``markov._STEADY_RTOL`` (1e-10) times the largest escape rate, the
test ``steady_state`` applies to its own law. A caller's law that fails it
raises ``NotSteadyStateError``.

An independent fixed-step Runge-Kutta integrator of the fully
perturbed master equation is provided as the oracle for all of the
above. A true delta drive is ill-posed in a fixed-step scheme, so
pulse drives enter the oracle as narrow unit-area rectangles; the
integrator splits steps at drive discontinuities so each sub-step sees
smooth (for rectangles, constant) coefficients. RK4 on dP/dt = A(t) P
is linear in P, so a step adds one matrix times P, the matrix being the
step's increment from the identity; it is built once per distinct
(length, drive values) and reused, so a step or pulse drive costs one
to three matrices however many steps it takes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .bounds import BoundReport, _Plan
from .errors import (
    BadDimensionError,
    NonFiniteError,
    NonPositiveTimeError,
    NonSquareError,
    NotSteadyStateError,
    StepTooLargeError,
    TimesNotSortedError,
)
from .markov import (
    ProbVector,
    RateMatrix,
    ScoreVector,
    _as_float_array,
    _check_dims,
    _check_stationary,
    _check_time,
    _clamped_probs,
    _propagator_apply,
    steady_state,
)


@dataclass(frozen=True)
class StepDrive:
    """Unit drive switched on at time zero and held."""

    piecewise_constant = True

    def value(self, t: float) -> float:
        return 1.0 if t >= 0.0 else 0.0

    def breakpoints(self) -> tuple:
        return (0.0,)


@dataclass(frozen=True)
class PulseDrive:
    """Unit-area rectangle on [0, width): a delta-sequence member."""

    width: float = 1e-4

    piecewise_constant = True

    def __post_init__(self):
        if not self.width > 0.0:
            raise NonPositiveTimeError("pulse width must be > 0")

    def value(self, t: float) -> float:
        return 1.0 / self.width if 0.0 <= t < self.width else 0.0

    def breakpoints(self) -> tuple:
        return (0.0, self.width)


@dataclass(frozen=True, eq=False)
class SampledDrive:
    """Piecewise-linear drive through (time, value) samples, zero outside."""

    times: np.ndarray
    values: np.ndarray

    piecewise_constant = False

    def __post_init__(self):
        ts, vs = (_as_float_array(x, "sampled drive").copy() for x in (self.times, self.values))
        if ts.ndim != 1 or ts.shape != vs.shape or ts.size < 2:
            raise BadDimensionError("sampled drive needs matching 1-d time/value arrays")
        if np.any(np.diff(ts) <= 0.0):
            raise TimesNotSortedError("sampled drive times must be strictly increasing")
        ts.setflags(write=False)
        vs.setflags(write=False)
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "values", vs)

    def value(self, t):
        """Drive at time ``t``, or at each time of an array ``t``."""
        v = np.interp(t, self.times, self.values, left=0.0, right=0.0)
        return float(v) if np.ndim(v) == 0 else v

    def breakpoints(self) -> tuple:
        return tuple(self.times)


@dataclass(frozen=True, eq=False)
class Perturbation:
    """Validated perturbation: generator direction, strength, drive."""

    F: np.ndarray
    chi: float
    drive: object

    def __post_init__(self):
        F = _as_float_array(self.F, "perturbation matrix").copy()
        if F.ndim != 2 or F.shape[0] != F.shape[1]:
            raise NonSquareError(f"perturbation matrix must be square, got shape {F.shape}")
        chi = _as_float_array(self.chi, "perturbation strength chi")
        if chi.ndim != 0:
            raise BadDimensionError(f"perturbation strength chi must be a number, got shape {chi.shape}")
        if chi == 0.0:
            raise NonFiniteError("perturbation strength chi must be nonzero")
        F.setflags(write=False)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "chi", float(chi))

    @property
    def n(self) -> int:
        return self.F.shape[0]


def canonical_perturbation(W: RateMatrix, S: ScoreVector) -> np.ndarray:
    """The column-rescaled generator W diag(S); columns sum to zero."""
    _check_dims(W, S)
    return W.w * S.s[None, :]


def _check_steady(W: RateMatrix, Pst: ProbVector) -> None:
    """A caller's baseline (of checked dimension) must pass the rule that
    ``steady_state`` applies to its own law."""
    _check_stationary(W, Pst, NotSteadyStateError, "baseline")


def response_function(
    W: RateMatrix,
    Pst: ProbVector,
    F: np.ndarray,
    G: ScoreVector,
    t: float,
) -> float:
    """Response kernel 1 G e^{Wt} F P_st for t >= 0, exactly 0 for t < 0."""
    t = float(t)
    pert = Perturbation(F, 1.0, None)  # the kernel is per unit strength
    return float(_kernel(W, Pst, pert, G, np.array([t if t < 0.0 else _check_time(t)]))[0])


def _kernel(W: RateMatrix, Pst: ProbVector, pert: Perturbation, G: ScoreVector, lags):
    """The response kernel of ``pert.F`` at an array of lags in one
    propagation; exactly 0 at negative lags."""
    _check_dims(W, Pst, G, pert)
    _check_steady(W, Pst)
    rows = _propagator_apply(W, pert.F @ Pst.p, np.maximum(lags, 0.0))
    return np.where(lags < 0.0, 0.0, rows @ G.s)


def _response_plan(W, Pst, S, T, chi: float, ts, pulse: bool) -> tuple[_Plan, np.ndarray]:
    """One plan from a stationary Pst over the times ts (and the knot 0
    under a step), which every shift and bound of a sweep reads, with the
    knot index of each time."""
    ts = np.array(ts, dtype=float, ndmin=1)
    if pulse and np.count_nonzero(ts <= 0.0):
        raise NonPositiveTimeError(f"pulse response needs t > 0, got {float(ts[ts <= 0.0][0])}")
    plan = _Plan(W, Pst, ts if pulse else np.concatenate(([0.0], ts)), S, T, chi=chi)
    _check_steady(W, Pst)
    return plan, plan.knots.searchsorted(ts)


def _shift(plan: _Plan, idx: np.ndarray, pulse: bool) -> np.ndarray:
    """The first-order shifts at the knots idx of a response plan: chi
    dC/dt after a pulse, chi (C(t) - C(0)) under a step."""
    if pulse:
        return plan.chi * plan.corr_slope[idx]
    return plan.chi * (plan.corr[idx] - plan.corr[0])


def pulse_shift(
    W: RateMatrix,
    Pst: ProbVector,
    S: ScoreVector,
    T: ScoreVector,
    chi: float,
    t: float,
) -> float:
    """First-order shift of <T> after a delta kick: chi * dC/dt."""
    plan, idx = _response_plan(W, Pst, S, T, chi, t, pulse=True)
    return float(_shift(plan, idx, True)[0])


def step_shift(
    W: RateMatrix,
    Pst: ProbVector,
    S: ScoreVector,
    T: ScoreVector,
    chi: float,
    t: float,
) -> float:
    """First-order shift of <T> under a held drive: chi * (C(t) - C(0))."""
    plan, idx = _response_plan(W, Pst, S, T, chi, t, pulse=False)
    return float(_shift(plan, idx, False)[0])


def bound_pulse(
    W: RateMatrix,
    Pst: ProbVector,
    S: ScoreVector,
    T: ScoreVector,
    chi: float,
    t: float,
) -> BoundReport:
    """Pulse-shift magnitude against chi S_max T_max sqrt(a / t)."""
    plan, idx = _response_plan(W, Pst, S, T, chi, t, pulse=True)
    t = plan.knots[idx]
    return BoundReport(*plan.rows("PULSE_EQ11", t, t)[0])


def bound_step(
    W: RateMatrix,
    Pst: ProbVector,
    S: ScoreVector,
    T: ScoreVector,
    chi: float,
    t: float,
) -> BoundReport:
    """Step-shift magnitude against 2 chi S_max T_max sin(sqrt(a t)).

    For sqrt(a t) beyond pi/2 the report substitutes the trivial bound
    2 chi S_max T_max with the domain flag cleared.
    """
    plan, idx = _response_plan(W, Pst, S, T, chi, t, pulse=False)
    t = plan.knots[idx]
    return BoundReport(*plan.rows("STEP_EQ12", 0.0, t)[0])


def convolved_shift(
    W: RateMatrix,
    Pst: ProbVector,
    F: np.ndarray,
    G: ScoreVector,
    chi: float,
    drive: SampledDrive,
    t: float,
    dt: float,
) -> float:
    """Trapezoidal convolution of the response kernel with a sampled drive."""
    pert = Perturbation(F, chi, drive)
    t = _check_time(t)
    if not math.isfinite(dt):
        raise NonFiniteError(f"convolution step must be finite, got {dt}")
    if dt <= 0.0:
        raise StepTooLargeError("convolution step must be > 0")
    # the nodes k dt below t, then t itself: where t is not a multiple of
    # dt, the last cell is shorter
    grid = np.arange(0.0, t, dt)
    grid = np.append(grid[grid < t], t)
    kernel = _kernel(W, Pst, pert, G, t - grid)
    fvals = drive.value(grid)
    return pert.chi * float(np.trapezoid(kernel * fvals, grid))


@dataclass(frozen=True, eq=False)
class OracleSeries:
    """Fixed-grid solution of the perturbed master equation.

    ``probs`` is a read-only array with one validated probability vector
    per time of ``times``, under the rule of :class:`ProbVector`.
    """

    times: np.ndarray
    probs: np.ndarray

    def shift(self, G: ScoreVector) -> np.ndarray:
        """Series of <G> displacements from the initial (stationary) value."""
        means = self.probs @ G.s
        return means - means[0]


def _rk4_step(W, chi, F, fvals: tuple, h: float, P: np.ndarray) -> np.ndarray:
    """Increment of one classical RK4 step of length h from P, with the
    drive at the step's start, middle and end given as ``fvals``. P may be
    a matrix of column vectors; from the identity this is the increment
    matrix D, and the step is P + D P."""
    f_lo, f_mid, f_hi = fvals

    def rhs(fval, vec):
        return W.w @ vec + (chi * fval) * (F @ vec)

    k1 = rhs(f_lo, P)
    k2 = rhs(f_mid, P + 0.5 * h * k1)
    k3 = rhs(f_mid, P + 0.5 * h * k2)
    k4 = rhs(f_hi, P + h * k3)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _drive_values(drive, a: float, h: float) -> tuple:
    """The drive at the start, middle and end of a sub-step; a piecewise
    constant drive is read at the middle, away from its jumps."""
    if drive.piecewise_constant:
        f = drive.value(a + 0.5 * h)
        return f, f, f
    return drive.value(a), drive.value(a + 0.5 * h), drive.value(a + h)


def perturbed_oracle(
    W: RateMatrix,
    F: np.ndarray,
    chi: float,
    drive,
    t_end: float,
    dt: float,
) -> OracleSeries:
    """Integrate dP/dt = (W + chi F f(t)) P from the stationary state.

    Fixed-step classical Runge-Kutta on the output grid, with steps
    split internally at drive discontinuities. Requires the step to
    resolve the fastest escape rate (dt <= 1e-3 / max R). Probability
    is conserved exactly when the columns of F sum to zero, which the
    canonical perturbation guarantees.

    Every uncut step but the last has length dt exactly (the grid
    differences differ from it only by the rounding of k dt), so one
    increment matrix serves each stretch of constant drive. The matrix of
    each distinct (length, drive values) pair is built once, by stepping
    the identity, and kept for the call; a drive whose values never
    repeat (a sampled ramp) builds one per sub-step. A piecewise-constant
    drive looks its matrix up once per run of uncut steps up to the next
    cut, and a step finds the cuts inside it by bisection. Steps add
    D P to P rather than multiply by I + D: the rounding of the small D
    then stays small, where that of I + D would add up coherently over
    the steps (on the symmetric two-state chain, an error in <S> of
    1.6e-14 against 4e-17 after 1000 steps). A step whose vector is
    non-finite, sums to 1 +- more than 1e-6 or has an entry below -1e-6
    raises ``NonFiniteError`` naming its time; the vectors before it must
    pass the rule of :class:`ProbVector`.
    """
    pert = Perturbation(F, chi, drive)
    _check_dims(W, pert)
    t_end = _check_time(t_end)
    max_rate = float(W.escape.max())
    if not math.isfinite(dt):
        raise NonFiniteError(f"dt must be finite, got {dt}")
    if dt <= 0.0:
        raise StepTooLargeError("dt must be > 0")
    if max_rate > 0.0 and dt > 1e-3 / max_rate:
        raise StepTooLargeError(
            f"dt = {dt} exceeds 1e-3 / max escape rate = {1e-3 / max_rate:.3e}"
        )
    Pst = steady_state(W)
    n_steps = max(int(math.ceil(t_end / dt - 1e-12)), 0) if t_end > 0 else 0
    times = np.minimum(np.arange(n_steps + 1) * dt, t_end)
    cuts = sorted(b for b in drive.breakpoints() if 0.0 < b < t_end)
    matrices = {}

    def increment(lo: float, h: float) -> np.ndarray:
        key = (h, *_drive_values(drive, lo, h))
        D = matrices.get(key)
        if D is None:
            D = matrices[key] = _rk4_step(W, pert.chi, pert.F, key[1:], h, np.eye(W.n))
        return D

    out = np.empty((n_steps + 1, W.n))
    out[0] = Pst.p
    with np.errstate(over="ignore", invalid="ignore"):
        k = 0
        while k < n_steps:
            a, b = times[k], times[k + 1]
            first, stop = bisect_right(cuts, a), bisect_left(cuts, b)
            P = out[k]
            if first < stop or k + 1 == n_steps:
                for lo, hi in pairwise([a, *cuts[first:stop], b]):
                    P = P + increment(lo, hi - lo) @ P
                out[k + 1] = P
                k += 1
                continue
            # An uncut step of length dt. A piecewise-constant drive holds
            # its value, and so the matrix, over every uncut step that ends
            # by the next cut.
            end = k + 1
            if drive.piecewise_constant:
                end = n_steps - 1
                if first < len(cuts):
                    end = min(end, bisect_right(times, cuts[first]) - 1)
            D = increment(a, dt)
            for j in range(k, end):
                P = P + D @ P
                out[j + 1] = P
            k = end
        diverged = (
            ~np.isfinite(out).all(axis=1)
            | (np.abs(out.sum(axis=1) - 1.0) > 1e-6)
            | (out.min(axis=1) < -1e-6)
        )
    if diverged.any():
        k = int(np.argmax(diverged))
        _clamped_probs(out[:k])
        raise NonFiniteError(f"integration diverged at t = {times[k]}")
    return OracleSeries(times=times, probs=_clamped_probs(out))
