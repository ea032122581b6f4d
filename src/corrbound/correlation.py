"""Correlation functions of Markov jump processes, exact and sampled.

The exact correlators read the evaluation plan of ``bounds._Plan``, the
one place where a model's C(t) and dC/dt are formed: ``two_point`` is a
plan's ``corr`` and ``correlation_derivative`` its ``corr_slope``, on the
single time t. ``multipoint`` contracts diagonal score matrices around
matrix exponentials as one matrix-vector chain (``bounds._chain``),
evaluated right to left, each link one call of
``markov._propagator_apply``, so a chain costs O(J n^2). The Monte Carlo
estimator draws trajectories with the Gillespie algorithm: exponential
holding times with the state's escape rate and jump targets chosen
proportionally to the outgoing rates. Samplers take an explicit
generator (or seed), so callers can shard sampling across threads and
merge means and variances themselves.

The estimator runs the whole ensemble at once, one jump per sweep. It
keeps only the live samples, compacted in sample-index order into three
arrays (position in the ensemble, state, clock); a sample leaves them
when its clock passes the horizon or it reaches an absorbing state, so
a sweep costs O(live samples), not O(ensemble). The per-trajectory
sampler builds each visited state's jump CDF once per trajectory, as
``Generator.choice`` would, and draws a target by bisection on it, which
takes the same uniform and gives the same index as ``Generator.choice``.
Tests pin the output of both samplers for fixed seeds, so any change to
the order or number of draws shows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _chain, _check_probes, _Plan
from .errors import BadIntervalError, TooFewSamplesError
from .markov import ProbVector, RateMatrix, ScoreVector, _as_int, _check_dims, _check_time, make_rng


def two_point(
    W: RateMatrix,
    p0: ProbVector,
    S: ScoreVector,
    T: ScoreVector,
    t: float,
) -> float:
    """Two-time correlation <S(0) T(t)> = 1 T e^{Wt} S P(0).

    Bounded in magnitude by ``S.max_abs * T.max_abs`` for any t >= 0.
    """
    return float(_Plan(W, p0, (t,), S, T).corr[0])


def correlation_derivative(
    W: RateMatrix,
    p0: ProbVector,
    S: ScoreVector,
    T: ScoreVector,
    t: float,
) -> float:
    """Time derivative of the two-time correlation: 1 T e^{Wt} W S P(0)."""
    return float(_Plan(W, p0, (t,), S, T).corr_slope[0])


def multipoint(
    W: RateMatrix,
    p0: ProbVector,
    scores: list[ScoreVector],
    times,
) -> float:
    """J-time correlation <S_1(t_1) S_2(t_2) ... S_J(t_J)> with t_1 = 0.

    Evaluated as the chain 1 S_J e^{W dt_J} ... S_2 e^{W dt_2} S_1 P(0)
    with dt_i = t_i - t_{i-1}.
    """
    ts = _check_probes(W, p0, scores, times)
    return float(_chain(W, p0.p, scores, ts[None, :])[0])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One sampled jump path on a fixed horizon.

    ``jumps`` holds (time, new_state) pairs with strictly increasing
    times inside (0, horizon); consecutive states always differ.
    """

    initial_state: int
    jumps: tuple
    horizon: float

    def __post_init__(self):
        if not self.horizon >= 0.0:
            raise BadIntervalError("horizon must be >= 0")
        prev_t, prev_s = 0.0, self.initial_state
        for t, s in self.jumps:
            if not (prev_t < t < self.horizon):
                raise BadIntervalError(f"jump time {t} outside (prev, horizon)")
            if s == prev_s:
                raise BadIntervalError("self-jump recorded in trajectory")
            prev_t, prev_s = t, s
        object.__setattr__(self, "jumps", tuple(self.jumps))

    def state_at(self, t: float) -> int:
        """State occupied at time t (right-continuous)."""
        state = self.initial_state
        for tj, s in self.jumps:
            if tj > t:
                break
            state = s
        return state

    @property
    def final_state(self) -> int:
        return self.jumps[-1][1] if self.jumps else self.initial_state

    @property
    def n_jumps(self) -> int:
        return len(self.jumps)


def sample_trajectory(
    W: RateMatrix,
    p0: ProbVector,
    horizon: float,
    rng: np.random.Generator,
) -> Trajectory:
    """Draw one trajectory by the Gillespie algorithm.

    A state with zero escape rate holds forever (absorbing states are
    valid inputs, not errors).
    """
    _check_dims(W, p0)
    horizon = _check_time(horizon)
    cdfs = {}

    def jump_cdf(state: int) -> np.ndarray:
        cdf = cdfs.get(state)
        if cdf is None:
            out = W.w[:, state].copy()
            out[state] = 0.0
            cdf = cdfs[state] = _cdf(out / out.sum())
        return cdf

    state = _draw(_cdf(p0.p), rng)
    initial = state
    jumps = []
    t = 0.0
    while True:
        rate = W.escape[state]
        if rate <= 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            break
        state = _draw(jump_cdf(state), rng)
        jumps.append((t, state))
    return Trajectory(initial, tuple(jumps), horizon)


def _cdf(p: np.ndarray) -> np.ndarray:
    """The cumulative distribution ``Generator.choice`` builds from ``p``."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One index drawn from ``cdf``: the same uniform and the same index
    as ``rng.choice(cdf.size, p=p)`` for the ``p`` of :func:`_cdf`."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _sample_states_at(
    W: RateMatrix,
    p0: ProbVector,
    t: float,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble Gillespie: initial states and states at time t.

    Advances the live samples (not yet absorbed, clock inside the
    horizon) by one jump per sweep; the others keep their state. The live
    samples are held compacted, in sample-index order, as three arrays:
    their positions in the ensemble, their states and their clocks, so a
    sweep costs O(live samples). A sweep draws one standard exponential
    holding time per live sample, drops those whose clock passes t, then
    draws one uniform per remaining sample and picks its target as the
    number of cumulative jump probabilities of its state below the
    uniform. Distributionally identical to per-trajectory sampling,
    orders of magnitude faster.
    """
    n = W.n
    init = rng.choice(n, size=n_samples, p=p0.p)
    states = init.copy()
    if t == 0.0:
        return init, states
    jump = W.w.copy()
    np.fill_diagonal(jump, 0.0)
    col = jump.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        jump = np.where(col > 0.0, jump / col, 0.0)
    # Row j, state s: probability of a jump from s to a state <= j. The
    # last row (1 up to rounding) is never needed: a target is at most n-1.
    thresholds = np.cumsum(jump, axis=0)[:-1]
    escape = W.escape
    pos = np.flatnonzero(escape.take(init) > 0.0)
    cur = init.take(pos)
    clock = np.zeros(pos.size)
    while pos.size:
        hold = rng.standard_exponential(pos.size)
        hold /= escape.take(cur)
        clock += hold
        pos, cur, clock = _compact(np.flatnonzero(clock < t), pos, cur, clock)
        if not pos.size:
            break
        u = rng.random(pos.size)
        target = np.zeros(pos.size, dtype=states.dtype)
        for row in thresholds:
            target += row.take(cur) < u
        states[pos] = target
        pos, cur, clock = _compact(np.flatnonzero(escape.take(target) > 0.0), pos, target, clock)
    return init, states


def _compact(keep: np.ndarray, *arrays: np.ndarray) -> tuple:
    """The entries ``keep`` of each array; the arrays themselves when
    ``keep`` is all of them."""
    if keep.size == arrays[0].size:
        return arrays
    return tuple(a.take(keep) for a in arrays)


def mc_two_point(
    W: RateMatrix,
    p0: ProbVector,
    S: ScoreVector,
    T: ScoreVector,
    t: float,
    n_samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of <S(0) T(t)> with its standard error.

    Returns (sample mean, standard error) of S(X(0)) T(X(t)) over
    ``n_samples`` independent Gillespie trajectories.
    """
    _check_dims(W, p0, S, T)
    t = _check_time(t)
    n_samples = _as_int(n_samples, "n_samples")
    if n_samples < 100:
        raise TooFewSamplesError(f"need >= 100 samples, got {n_samples}")
    rng = make_rng(seed)
    init, final = _sample_states_at(W, p0, t, n_samples, rng)
    values = S.s[init] * T.s[final]
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(n_samples))
    return mean, stderr
