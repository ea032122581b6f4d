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
proportionally to the outgoing rates. The sampler takes an explicit
generator and the estimator a seed, so callers can shard sampling
across threads and merge means and variances themselves.

There is one sampler, ``_sample_states_at``. It runs the whole ensemble
at once, one jump per sweep, and returns each sample's initial state,
its state at the horizon and its number of jumps in between, whose mean
estimates the dynamical activity A(t). Its initial states are
``Generator.choice``'s draw, bit for bit, taken as one uniform per
sample compared against the cumulative law. It keeps only the live
samples, compacted in sample-index order (state and clock, and from the
first compaction on their positions in the ensemble); a sample leaves
them when its clock passes the horizon or it reaches an absorbing state,
so a sweep costs O(live samples), not O(ensemble). Each temporary is
released once used, so the working set peaks near 60 bytes per sample,
20 of them the outputs. Tests pin its output for fixed seeds, so any
change to the order or number of draws shows.
"""

from __future__ import annotations

import numpy as np

from .bounds import _chain, _check_probes, _Plan
from .errors import TooFewSamplesError
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


def _sample_states_at(
    W: RateMatrix,
    p0: ProbVector,
    t: float,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ensemble Gillespie: initial states, states at time t, and the
    number of jumps each sample makes in [0, t].

    The initial states are ``rng.choice(n, n_samples, p=p0.p)``, drawn as
    ``choice`` draws them: one uniform u per sample, and the state is the
    number of entries of cdf[:-1] that are <= u, where cdf is the
    cumulative sum of p0 divided by its last entry. The same int64 array
    and the same stream follow, without ``choice``'s validation.

    Advances the live samples (not yet absorbed, clock inside the
    horizon) by one jump per sweep; the others keep their state. The live
    samples are held compacted, in sample-index order, as their states and
    clocks, so a sweep costs O(live samples). Their positions in the
    ensemble exist from the first compaction on, as its kept indices;
    while every sample is live, the live states are the final states
    themselves. A sweep draws one standard exponential holding time per
    live sample, drops those whose clock passes t, then draws one uniform
    per remaining sample and picks its target as the number of cumulative
    jump probabilities of its state below the uniform; when some state
    absorbs, it then drops the samples that reached one. A sample still
    live after the clock test of sweep k has jumped k times, so the count
    is one store per sweep and no draw.

    Each temporary is released once used and a compaction replaces one
    live array at a time, so the working set peaks near 60 bytes per
    sample on a 3-state chain, 20 of them the outputs.
    """
    n = W.n
    u = rng.random(n_samples)
    cdf = np.cumsum(p0.p)
    cdf /= cdf[-1]
    init = np.zeros(n_samples, dtype=np.int64)
    for c in cdf[:-1]:
        init += c <= u
    del u
    states = init.copy()
    counts = np.zeros(n_samples, dtype=np.int32)
    if t == 0.0:
        return init, states, counts
    jump = W.w.copy()
    np.fill_diagonal(jump, 0.0)
    col = jump.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        jump = np.where(col > 0.0, jump / col, 0.0)
    # Row j, state s: probability of a jump from s to a state <= j. The
    # last row (1 up to rounding) is never needed: a target is at most n-1.
    thresholds = np.cumsum(jump, axis=0)[:-1]
    escape = W.escape
    absorbing = not escape.min() > 0.0
    # pos is None while every sample is live, and cur is then states itself
    pos = None
    cur = states
    clock = np.zeros(n_samples)

    def compact(keep: np.ndarray) -> None:
        # one live array is replaced at a time, the old one released
        nonlocal pos, cur, clock
        if keep.size == cur.size:
            return
        pos = keep if pos is None else pos.take(keep)
        cur = cur.take(keep)
        clock = clock.take(keep)

    if absorbing:
        compact(np.flatnonzero(escape.take(cur) > 0.0))
    sweep = 0
    while cur.size:
        hold = rng.standard_exponential(cur.size)
        hold /= escape.take(cur)
        clock += hold
        del hold
        compact(np.flatnonzero(clock < t))
        if not cur.size:
            break
        sweep += 1
        u = rng.random(cur.size)
        target = np.zeros(cur.size, dtype=np.int64)
        for row in thresholds:
            target += row.take(cur) < u
        del u
        if pos is None:
            counts.fill(sweep)
            states = target
        else:
            counts[pos] = sweep
            states[pos] = target
        cur = target
        del target
        if absorbing:
            compact(np.flatnonzero(escape.take(cur) > 0.0))
    return init, states, counts


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
    init, final, _ = _sample_states_at(W, p0, t, n_samples, rng)
    values = S.s[init] * T.s[final]
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(n_samples))
    return mean, stderr
