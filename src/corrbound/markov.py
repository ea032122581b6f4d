"""Finite-state Markov jump processes: generators, exact propagation, steady states.

Conventions used throughout the library:

* A generator ``W`` acts on column probability vectors, ``dP/dt = W P``.
  ``w[nu, mu]`` is the jump rate from state ``mu`` to state ``nu`` (units
  1/time), so every column of ``W`` sums to zero and the diagonal is the
  negative escape rate, ``w[mu, mu] = -R(mu)``.
* The diagonal of user-supplied rate matrices is never trusted: it is
  recomputed from the off-diagonal entries on construction.
* All value types are immutable after construction and safe to share
  across threads; the operations below are pure functions.

Every propagation goes through two primitives over whole time arrays,
``_propagator_apply`` (e^{W t} v) and ``_integral_apply`` (int_0^t e^{W s} ds v).
Each has two regimes, chosen from W: the eigenvector basis when it is well
conditioned and reproduces W; otherwise (defective W) one batched
``scipy.linalg.expm``, for the integral of the augmented generator
``t [[W, v], [0, 0]]`` (Van Loan, "Computing integrals involving the matrix
exponential", IEEE TAC 1978).

Tolerances in rate dimension are relative to the largest escape rate max R,
with no unit floor, so no result depends on the rate unit (max R = max|W|:
a float sum of nonnegative rates is never below any of them). Probability
and ratio tolerances are dimensionless and absolute.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import (
    BadDimensionError,
    DimensionMismatchError,
    NegativeProbabilityError,
    NegativeRateError,
    NegativeTimeError,
    NoConvergenceError,
    NonFiniteError,
    NonSquareError,
    NonUniqueSteadyStateError,
    NotNormalizedError,
)

# Eigenvector-basis propagation is used only when the basis is this
# well conditioned and reproduces W to near machine precision.
_EIG_COND_LIMIT = 1e8
_EIG_RECON_RTOL = 1e-12

# Acceptance tolerances for probability vectors: sums may drift by the
# propagator's column-sum error; genuine negative mass is a bug.
_PROB_SUM_ATOL = 1e-10
_PROB_NEG_DEFICIT = 1e-12

# Memory cap of one _integral_apply block: times x n elements on the
# eigenvector path, times x (n + 1)^2 (the augmented generators) on the
# expm path. Longer time arrays are evaluated block by block.
_APPLY_ELEMENTS = 2**15


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class _Spectral:
    """Eigendecomposition W = V diag(lam) V^{-1}, kept only if trustworthy."""

    lam: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray

    def phi_t(self, t) -> np.ndarray:
        """(e^{lam t} - 1)/lam elementwise, as expm1(z)/z * t with z = lam t.

        numpy's complex expm1 has no cancellation for small |z|; z = 0
        (the pinned zero eigenvalue, or t = 0) gives exactly t. Accepts
        scalar or array ``t``; result broadcasts t against lam.
        """
        t = np.asarray(t, dtype=float)
        z = np.multiply.outer(t, self.lam)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(z == 0, 1, np.expm1(z) / z) * t[..., None]


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Generator of a continuous-time Markov chain over ``n >= 2`` states.

    Construct through :func:`validate_rate_matrix`; the raw constructor
    also validates and recomputes the diagonal.
    """

    w: np.ndarray

    def __post_init__(self):
        w = _as_float_array(self.w, "rate matrix")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise NonSquareError(f"rate matrix must be square, got shape {w.shape}")
        n = w.shape[0]
        if n < 2:
            raise BadDimensionError(f"need at least 2 states, got {n}")
        off = w.copy()
        np.fill_diagonal(off, 0.0)
        neg = np.argwhere(off < 0.0)
        if neg.size:
            nu, mu = neg[0]
            raise NegativeRateError(
                f"negative rate {w[nu, mu]!r} at (row {nu + 1}, col {mu + 1})"
            )
        np.fill_diagonal(off, -off.sum(axis=0))
        off.setflags(write=False)
        object.__setattr__(self, "w", off)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @cached_property
    def escape(self) -> np.ndarray:
        """Escape rate R(mu) = total rate of leaving state mu."""
        r = -np.diag(self.w)
        r.setflags(write=False)
        return r

    @cached_property
    def _spectral(self) -> _Spectral | None:
        lam, V = np.linalg.eig(self.w)
        try:
            cond = np.linalg.cond(V)
            if not np.isfinite(cond) or cond >= _EIG_COND_LIMIT:
                return None
            Vinv = np.linalg.inv(V)
        except np.linalg.LinAlgError:
            return None
        scale = float(self.escape.max())
        recon = np.real(V @ np.diag(lam) @ Vinv)
        if np.abs(recon - self.w).max() > _EIG_RECON_RTOL * scale:
            return None
        # 0 is exact (columns sum to 0); pin it, or e^{lam t} drifts by eps*max|W|*t
        lam = np.where(np.abs(lam) <= self.n * np.finfo(float).eps * scale, 0.0, lam)
        return _Spectral(lam, V, Vinv)

    def scaled(self, factor: float) -> "RateMatrix":
        """Generator with all rates multiplied by ``factor >= 0``."""
        if factor < 0.0:
            raise NegativeRateError("scale factor must be >= 0")
        return RateMatrix(self.w * factor)


def _clamped_probs(p: np.ndarray) -> np.ndarray:
    """Probability vectors along the last axis of finite ``p``, clamped and
    renormalized as a new read-only array: the rule of :class:`ProbVector`.

    Negative entries are set to zero when a vector's negative mass is
    roundoff sized (< 1e-12) and each vector is renormalized exactly;
    larger negative mass, or a sum off 1 by more than 1e-10, raises for
    the first vector at fault.
    """
    q = np.maximum(p, 0.0)
    deficit = (q - p).sum(axis=-1)  # exactly the negative mass
    total = p.sum(axis=-1)
    negative = deficit > _PROB_NEG_DEFICIT
    bad = negative | (abs(total - 1.0) > _PROB_SUM_ATOL)
    if np.count_nonzero(bad):
        first = np.argmax(bad) if p.ndim > 1 else ()
        if negative[first]:
            raise NegativeProbabilityError(
                f"negative probability mass {float(deficit[first]):.3e} "
                "exceeds roundoff tolerance"
            )
        raise NotNormalizedError(
            f"probabilities sum to {float(total[first])!r}, expected 1"
        )
    q /= q.sum(axis=-1, keepdims=True)
    q.setflags(write=False)
    return q


@dataclass(frozen=True, eq=False)
class ProbVector:
    """Probability distribution over ``n`` states.

    Entries are clamped to zero when the total negative mass is roundoff
    sized (< 1e-12) and the vector is renormalized exactly; anything
    larger is rejected as a genuine bug rather than noise.
    """

    p: np.ndarray

    def __post_init__(self):
        p = _as_float_array(self.p, "probability vector")
        if p.ndim != 1:
            raise BadDimensionError("probability vector must be one-dimensional")
        object.__setattr__(self, "p", _clamped_probs(p))

    @property
    def n(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Real-valued score over states; ``max_abs`` is the sup norm."""

    s: np.ndarray

    def __post_init__(self):
        s = _as_float_array(self.s, "score vector")
        if s.ndim != 1:
            raise BadDimensionError("score vector must be one-dimensional")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "s", s)

    @property
    def n(self) -> int:
        return self.s.shape[0]

    @cached_property
    def max_abs(self) -> float:
        return float(np.abs(self.s).max()) if self.s.size else 0.0


def validate_rate_matrix(w) -> RateMatrix:
    """Validate a raw square matrix of jump rates and wrap it.

    The diagonal of ``w`` is ignored and recomputed as the negative
    column escape rate; off-diagonal entries must be finite and >= 0.
    """
    return RateMatrix(np.asarray(w, dtype=float))


def _check_dims(W: RateMatrix, *others) -> None:
    for o in others:
        if o.n != W.n:
            raise DimensionMismatchError(f"expected dimension {W.n}, got {o.n}")


def _check_times(times) -> np.ndarray:
    """Times as a float array, all finite and >= 0; the first bad one raises."""
    times = np.asarray(times, dtype=float)
    bad = ~(np.isfinite(times) & (times >= 0.0))
    if bad.any():
        t = float(times[bad].flat[0])
        if not np.isfinite(t):
            raise NonFiniteError("time must be finite")
        raise NegativeTimeError(f"time must be >= 0, got {t}")
    return times


def _check_time(t: float) -> float:
    return float(_check_times(float(t)))


def propagator(W: RateMatrix, t: float) -> np.ndarray:
    """Transition-probability matrix e^{W t}; column ``mu`` is the law at
    time ``t`` started from state ``mu``."""
    t = _check_time(t)
    return _propagator_apply(W, np.eye(W.n), np.full(W.n, t)).T


def propagate(W: RateMatrix, p0: ProbVector, t: float) -> ProbVector:
    """Evolve an initial distribution: P(t) = e^{W t} P(0)."""
    _check_dims(W, p0)
    return ProbVector(_propagator_apply(W, p0.p, np.array([_check_time(t)]))[0])


def propagator_integral(W: RateMatrix, t: float) -> np.ndarray:
    """Time-integrated propagator: the matrix ``int_0^t e^{W s} ds``."""
    t = _check_time(t)
    return _integral_apply(W, np.eye(W.n), np.full(W.n, t)).T


def _propagator_apply(W: RateMatrix, vec: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Rows ``e^{W t} @ vec`` for a whole array of times; ``vec`` is one
    vector or one row per time. No propagator matrix is formed on the
    eigenvector path, and rows at t = 0 are ``vec`` exactly."""
    times = np.asarray(times, dtype=float)
    sd = W._spectral
    if sd is not None:
        coeff = vec @ sd.Vinv.T
        rows = np.real((np.exp(np.multiply.outer(times, sd.lam)) * coeff) @ sd.V.T)
    else:
        rows = (scipy.linalg.expm(np.multiply.outer(times, W.w)) @ vec[..., None])[..., 0]
    return np.where((times == 0.0)[..., None], vec, rows)


def _integral_apply(
    W: RateMatrix, vec: np.ndarray, times: np.ndarray, left: np.ndarray | None = None
) -> np.ndarray:
    """Rows ``[int_0^t e^{W s} ds] @ vec`` for a whole array of times, or
    with ``left`` given their dot products with it; ``vec`` is one vector
    or one row per time, and rows at t = 0 are 0.

    Quadratures over the dynamical activity call this in batch, with
    ``left`` the escape rates. Both paths evaluate the times in blocks of
    at most ``_APPLY_ELEMENTS`` elements, so their working memory does
    not grow with the times.
    """
    times = np.asarray(times, dtype=float)
    width = W.n if W._spectral is not None else (W.n + 1) ** 2
    step = max(_APPLY_ELEMENTS // width, 1)
    if times.size <= step:
        return _integral_block(W, vec, times, left)
    per_time = np.ndim(vec) > 1
    return np.concatenate([
        _integral_block(W, vec[i:i + step] if per_time else vec, times[i:i + step], left)
        for i in range(0, times.size, step)
    ])


def _integral_block(W: RateMatrix, vec: np.ndarray, times: np.ndarray, left) -> np.ndarray:
    """One block of ``_integral_apply``, all times in one shot."""
    sd = W._spectral
    if sd is not None:
        coeff = vec @ sd.Vinv.T
        # real rows first: folding left into V.T (a complex matrix-vector
        # product) measured 1.6x slower on the hard_generators benchmark
        rows = np.real((sd.phi_t(times) * coeff) @ sd.V.T)
    else:
        n = W.n
        aug = np.zeros(times.shape + (n + 1, n + 1))
        aug[..., :n, :n], aug[..., :n, n] = W.w, vec
        rows = scipy.linalg.expm(aug * times[..., None, None])[..., :n, n]
    return rows if left is None else rows @ left


def steady_state(W: RateMatrix) -> ProbVector:
    """Stationary distribution P_st with W P_st = 0, when it is unique.

    The kernel of W is extracted by SVD; a kernel of dimension > 1 (within
    tolerance) means the chain decomposes and no unique stationary law
    exists.
    """
    try:
        _, sing, vt = np.linalg.svd(W.w)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"SVD of generator failed: {exc}") from exc
    kernel_dim = int(np.sum(sing <= W.n * 1e-13 * W.escape.max()))
    if kernel_dim != 1:
        raise NonUniqueSteadyStateError(
            f"generator kernel has dimension {kernel_dim}; need exactly 1"
        )
    v = vt[-1]
    if v.sum() < 0.0:
        v = -v
    if v.min() < -1e-9:
        raise NoConvergenceError("kernel vector has genuinely negative entries")
    v = np.clip(v, 0.0, None)
    pst = ProbVector(v / v.sum())
    if np.abs(W.w @ pst.p).max() > 1e-10 * W.escape.max():
        raise NoConvergenceError("candidate steady state does not satisfy W P = 0")
    return pst


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox); identical streams on every platform."""
    if not 0 <= int(seed) < 2**64:
        raise BadDimensionError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def random_model(n: int, seed: int) -> tuple[RateMatrix, ProbVector, ScoreVector]:
    """Seeded random test model.

    Distributions (recorded here because they are a choice, not a given):
    off-diagonal rates i.i.d. uniform on (0, 1]; initial probabilities
    uniform on the simplex via normalized exponentials; scores i.i.d.
    uniform on [-1, 1]. Same ``(n, seed)`` always yields bitwise-identical
    output.
    """
    if n < 2:
        raise BadDimensionError(f"need at least 2 states, got {n}")
    rng = make_rng(seed)
    rates = 1.0 - rng.random((n, n))  # uniform on (0, 1]
    np.fill_diagonal(rates, 0.0)
    W = RateMatrix(rates)
    p0 = ProbVector(_normalized_exponentials(rng, n))
    scores = ScoreVector(rng.uniform(-1.0, 1.0, size=n))
    return W, p0, scores


def _normalized_exponentials(rng: np.random.Generator, n: int) -> np.ndarray:
    e = rng.exponential(1.0, size=n)
    return e / e.sum()


RANDOM_MODEL_METADATA = {
    "generator": "philox",
    "rates": "iid uniform (0,1] off-diagonal",
    "p0": "uniform on simplex (normalized exponentials)",
    "scores": "iid uniform [-1,1]",
}


def load_model(source) -> tuple[RateMatrix, ProbVector, ScoreVector, ScoreVector]:
    """Read a model description from a JSON file, path, or plain dict.

    Schema: ``{"n": int, "rates": n x n (diagonal ignored), "p0": [...],
    "S": [...], "T": [...]}`` with ``T`` optional (defaults to ``S``).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    if not isinstance(data, dict):
        raise BadDimensionError("model description must be a JSON object")
    try:
        n = int(data["n"])
        rates = data["rates"]
        p0 = data["p0"]
        s = data["S"]
    except KeyError as exc:
        raise BadDimensionError(f"model file missing required field {exc}") from exc
    W = validate_rate_matrix(rates)
    if W.n != n:
        raise DimensionMismatchError(f"'n'={n} but rates are {W.n}x{W.n}")
    pv = ProbVector(np.asarray(p0, dtype=float))
    sv = ScoreVector(np.asarray(s, dtype=float))
    tv = ScoreVector(np.asarray(data.get("T", s), dtype=float))
    _check_dims(W, pv, sv, tv)
    return W, pv, sv, tv
