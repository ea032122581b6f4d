"""Discrete-time path skeletons of time-rescaled jump processes.

The time-rescaled process on a fixed horizon ``tau`` runs the original
dynamics with every rate multiplied by ``t / tau``; its law at horizon
``tau`` matches the original law at time ``t``. A skeleton records the
state at ``L + 1`` equally spaced instants, giving an exhaustively
enumerable distribution over ``N^(L+1)`` state sequences. Its one-step
matrix e^{(t/tau) W (tau/L)} = e^{W t/L} does not depend on ``tau``, so
it is propagated from W itself: ``verify_path_inequalities`` decomposes W
once for both skeletons and the activity integral.

A skeleton is a deterministic coarse-graining of the continuous-time
path measure, so total variation between two skeletons can only shrink
and the Bhattacharyya overlap can only grow relative to the full path
measure (data processing). Inequalities proved for the continuous-time
path measure therefore hold a fortiori on every skeleton, which is what
makes the enumeration here usable as an independent oracle.

Path keys are base-N integer encodings with the initial state as the
most significant digit; the canonical ordering is the same on every
platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import RATIO_SLACK, geodesic_arg
from .distances import FiniteDistribution, bhattacharyya, tvd
from .errors import BadDimensionError, BadIntervalError, TooManyPathsError
from .markov import (
    ProbVector,
    RateMatrix,
    _as_int,
    _check_dims,
    _check_time,
    _survival,
    propagator,
)

MAX_PATHS = 10**6


@dataclass(frozen=True)
class PathSkeleton:
    """Index space of state sequences on L uniform steps of horizon tau."""

    n_states: int
    n_steps: int
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "n_states", _as_int(self.n_states, "n_states"))
        object.__setattr__(self, "n_steps", _as_int(self.n_steps, "n_steps"))
        if self.n_states < 1:
            raise BadDimensionError(f"need at least 1 state, got {self.n_states}")
        if self.n_steps < 1:
            raise BadIntervalError(f"need at least 1 step, got {self.n_steps}")
        if not self.tau > 0.0:
            raise BadIntervalError("horizon tau must be > 0")
        if self.path_count > MAX_PATHS:
            raise TooManyPathsError(
                f"{self.n_states}^{self.n_steps + 1} = {self.path_count} paths "
                f"exceeds guard {MAX_PATHS}"
            )

    @property
    def path_count(self) -> int:
        return self.n_states ** (self.n_steps + 1)

    def encode(self, states) -> int:
        """Base-N key of a state sequence, initial state most significant.

        The sequence must hold n_steps + 1 integer states in 0..N-1.
        """
        try:
            states = tuple(states)
        except TypeError:
            raise BadDimensionError(f"need a sequence of states, got {states!r}") from None
        if len(states) != self.n_steps + 1:
            raise BadDimensionError(
                f"need a sequence of {self.n_steps + 1} states, got {len(states)}"
            )
        key = 0
        for s in states:
            s = _as_int(s, "state")
            if not 0 <= s < self.n_states:
                raise BadDimensionError(f"state {s} outside 0..{self.n_states - 1}")
            key = key * self.n_states + s
        return key

    def decode(self, key: int) -> tuple:
        """The state sequence of a key in 0..path_count-1."""
        key = _as_int(key, "key")
        if not 0 <= key < self.path_count:
            raise BadDimensionError(f"key {key} outside 0..{self.path_count - 1}")
        digits = []
        for _ in range(self.n_steps + 1):
            key, d = divmod(key, self.n_states)
            digits.append(d)
        return tuple(reversed(digits))


def skeleton_distribution(
    W: RateMatrix,
    p0: ProbVector,
    tau: float,
    L: int,
    t: float,
) -> FiniteDistribution:
    """Exact law of the rescaled process sampled on L uniform steps.

    The probability of the sequence (x_0, ..., x_L) is
    ``p0[x_0] * prod_k M[x_{k+1}, x_k]`` with the one-step matrix
    ``M = e^{(t/tau) W (tau/L)} = e^{W t/L}``; keys are base-N encodings
    of the sequences. ``tau`` is validated but does not enter the law.
    """
    _check_dims(W, p0)
    t = _check_time(t)
    tau = _check_time(tau)
    skel = PathSkeleton(W.n, L, tau)
    count = skel.path_count
    step = propagator(W, t / L)
    probs = p0.p
    for _ in range(L):
        # axis order (x_0, ..., x_k); append x_{k+1} via M[x_{k+1}, x_k]
        probs = probs[..., :, None] * step.T
    # FiniteDistribution clamps roundoff-sized negative weights and rejects larger ones
    return FiniteDistribution(range(count), probs.reshape(count))


def bhat_survival(W: RateMatrix, p0: ProbVector, t: float) -> float:
    """Closed-form Bhattacharyya overlap between the frozen (all rates
    zero) and full-speed rescaled path measures on a horizon of length t.

    Only no-jump paths carry weight under the frozen measure, so
    the overlap collapses to ``sum_mu p0[mu] exp(-t R(mu) / 2)``.
    """
    _check_dims(W, p0)
    return float(_survival(W, p0, np.array([_check_time(t)]))[0])


def eta(W: RateMatrix, p0: ProbVector, t: float) -> float:
    """Squared survival overlap, in (0, 1]; equals 1 exactly at t = 0."""
    return bhat_survival(W, p0, t) ** 2


@dataclass(frozen=True)
class PathInequalityReport:
    """Skeleton distances versus the activity integral on one interval.

    ``tvd_ok`` / ``bhat_ok`` are vacuously true when the interval lies
    outside the sine bound's validity domain (``in_domain`` false).
    """

    tvd_path: float
    bhat_path: float
    arccos_lhs: float
    geodesic_arg: float
    sin_rhs: float
    in_domain: bool
    tvd_ok: bool
    bhat_ok: bool


def verify_path_inequalities(
    W: RateMatrix,
    p0: ProbVector,
    tau: float,
    L: int,
    t1: float,
    t2: float,
) -> PathInequalityReport:
    """Check the distance bounds on enumerated skeletons.

    Computes TVD and Bhattacharyya between the skeleton laws at rescaled
    times t1 and t2 and compares them against the activity integral:
    arccos(Bhat) must not exceed it, and TVD must not exceed its sine,
    whenever the integral is at most pi/2, each within ``RATIO_SLACK``.
    """
    if not (0.0 <= t1 <= t2 <= tau):
        raise BadIntervalError(f"need 0 <= t1 <= t2 <= tau, got {(t1, t2, tau)}")
    d1 = skeleton_distribution(W, p0, tau, L, t1)
    d2 = skeleton_distribution(W, p0, tau, L, t2)
    tv = tvd(d1, d2)
    bh = min(bhattacharyya(d1, d2), 1.0)
    arg = geodesic_arg(W, p0, t1, t2)
    in_domain = arg <= math.pi / 2.0
    sin_rhs = math.sin(arg) if in_domain else 1.0
    arccos_lhs = math.acos(bh)
    tvd_ok = (tv <= sin_rhs + RATIO_SLACK) if in_domain else True
    bhat_ok = (arccos_lhs <= arg + RATIO_SLACK) if in_domain else True
    return PathInequalityReport(
        tvd_path=tv,
        bhat_path=bh,
        arccos_lhs=arccos_lhs,
        geodesic_arg=arg,
        sin_rhs=sin_rhs,
        in_domain=in_domain,
        tvd_ok=tvd_ok,
        bhat_ok=bhat_ok,
    )
