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
``_propagator_apply`` (e^{W t} v) and ``_integral_apply`` (int_0^t e^{W s} ds v),
both one loop (``_apply``) over two regimes, chosen per model: the
eigenvector basis when it reproduces W; otherwise (defective W) the matrix
exponential ``_expm`` of W t, and for the integral of the augmented
generator ``t [[W, v], [0, 0]]`` (Van Loan, "Computing integrals involving
the matrix exponential", IEEE TAC 1978). ``_expm`` is the
scaling-and-squaring method of Higham ("The scaling and squaring method for
the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26, 2005) at
the one Pade degree 13, vectorised over a whole stack of matrices. It squares
Y = e^{2^-s A} - I rather than e^{2^-s A}: I + Y would round away the digits
of a slow mode, which a stiff chain's many squarings then amplify, and a zero
column of A (an absorbing state) gives an exactly zero column of Y. The loop
evaluates in blocks of bounded memory, so no product's working memory grows
with the times. ``steady_state`` reads the stationary law from the same
eigenbasis where it settles the kernel of W, so a model takes one
decomposition; only the others (the expm regime, nearly reducible chains)
take an SVD.

A value may also hold a stack of models over the same states along a leading
model axis (``_random_stack`` draws and validates seeded random models as one
stack): the primitives and ``steady_state`` then take and return that axis,
and run each step once for the whole stack. Every model of a stack gets the
same numbers, bit for bit, as when it is alone: BLAS results depend on a
product's row count, so the models are batched only with others of the
same regime and the same arithmetic (a real spectrum
stays real, as ``np.linalg.eig`` returns it for one model), and every
model of a call has the same times.

The activity quadrature of ``bounds`` refines a stack as one: each level
evaluates every model at the points of the pieces still open for any of
them. A stacked model gets its single-model numbers bit for bit whenever the
models of its stack refine alike, as on every default-grid sweep, where all
pieces converge at the first level. Where they refine differently, a
model's rows come from a call with more rows than it has alone, and BLAS
blocking can move their last bit. On stacks of 12 rate-scaled random models
with 7, 8 or 64 states and knots 0, 0.5, 1, 100 and 1000, no model of a
stack moved in the activity integral
(``tests/test_bounds.py::TestStackedPlan``).

Tolerances in rate dimension are relative to the largest escape rate max R,
with no unit floor, so no result depends on the rate unit (max R = max|W|:
a float sum of nonnegative rates is never below any of them). Probability
and ratio tolerances are dimensionless and absolute.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

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

# Eigenvector-basis propagation is used only when the basis reproduces W
# to near machine precision.
_EIG_RECON_RTOL = 1e-12

# A law P is stationary when max |W P| is at most this times max R: the rule
# for the package's own law (``steady_state``) and for a caller's.
_STEADY_RTOL = 1e-10

# Acceptance tolerances for probability vectors: sums may drift by the
# propagator's column-sum error; genuine negative mass is a bug.
_PROB_SUM_ATOL = 1e-10
_PROB_NEG_DEFICIT = 1e-12

# Memory cap of one block of the propagation primitives: models x times x n
# elements on the eigenvector path; on the expm path models x times x the
# working set of ``_expm`` per time, 4 (n + 1)^2 (it holds several arrays of
# augmented generators; the propagator's n^2 fit in them). Longer time
# arrays, and larger stacks, are evaluated block by block.
_APPLY_ELEMENTS = 2**15

# Coefficients b_0..b_13 of the degree-13 Pade approximant to e^x, and the
# largest 1-norm theta_13 at which its backward error is at most the unit
# roundoff of double precision (Higham 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _as_float_array(x, name: str) -> np.ndarray:
    """``x`` as a float array of finite numbers. Booleans, integers and
    reals convert; text, bytes and other objects raise, whatever their
    spelling, where ``np.asarray(x, dtype=float)`` would parse numeric
    text."""
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError) as exc:
        raise BadDimensionError(f"{name} is not a rectangular array of numbers") from exc
    if arr.dtype.kind not in "biuf":
        raise BadDimensionError(f"{name} is not an array of numbers (dtype {arr.dtype})")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def _as_int(x, name: str) -> int:
    """``x`` as an int when it is one (numpy integers too); a float or any
    other value raises, where ``int`` would truncate it."""
    try:
        return operator.index(x)
    except TypeError:
        raise BadDimensionError(f"{name} must be an integer, got {x!r}") from None


@dataclass(frozen=True, eq=False)
class _Spectral:
    """Eigendecompositions W = V diag(lam) V^{-1} of the models ``models``
    of a stack, kept only if trustworthy; all of them have a real spectrum
    (real ``lam``) or none has.

    ``V`` is stored complex. ``basis`` is V in the arithmetic of lam: for a
    real spectrum the real part of the complex array, the layout in which
    ``np.linalg.eig`` returns a real basis for one model. Its products then
    take numpy's own loops rather than BLAS, as they do for that model.
    """

    lam: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray
    models: np.ndarray

    def __getitem__(self, pos) -> "_Spectral":
        """The bases at positions ``pos`` of this part."""
        return _Spectral(self.lam[pos], self.V[pos], self.Vinv[pos], self.models[pos])

    @property
    def basis(self) -> np.ndarray:
        return self.V.real if self.lam.dtype.kind == "f" else self.V

    def exp_t(self, t) -> np.ndarray:
        """e^{lam t} elementwise, in the layout of ``phi_t``."""
        return np.exp(t[:, None] * self.lam[:, None, :])

    def phi_t(self, t) -> np.ndarray:
        """(e^{lam t} - 1)/lam elementwise, as expm1(z)/z * t with z = lam t.

        numpy's complex expm1 has no cancellation for small |z|; z = 0
        (the pinned zero eigenvalue, or t = 0) gives exactly t. ``t`` is one
        1-d array of times for every model; the result has a trailing
        eigenvalue axis.
        """
        return _phi(t[:, None] * self.lam[:, None, :], t[:, None])


def _phi(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """expm1(z)/z * t, exactly t at z = 0; ``t`` broadcasts against z."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi = np.expm1(z)
        phi /= z
    phi[z == 0] = 1
    phi *= t
    return phi


def _where(mask: np.ndarray, *arrays):
    """Each array at the True entries of ``mask``; as they are when all are."""
    return arrays if all(mask.tolist()) else tuple(a[mask] for a in arrays)


def _inverses(a: np.ndarray) -> np.ndarray:
    """The inverse of every matrix of the stack ``a``, NaN for an exactly
    singular one: the batched ``np.linalg.inv`` raises for the whole stack
    then, so each matrix is inverted alone, with the same bits."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        out = np.full_like(a, np.nan)
        for i, m in enumerate(a):
            try:
                out[i] = np.linalg.inv(m)
            except np.linalg.LinAlgError:
                pass
        return out


def _trusted_bases(w, lam, V, scale, models, real: bool) -> _Spectral | None:
    """The eigendecompositions (complex ``lam`` and ``V``) of the generators
    ``w`` that reproduce w, in real arithmetic for real spectra, with the
    zero eigenvalue pinned; None when there is none. A singular V (NaN
    inverse) or an overflowing reconstruction fails the test."""
    lam_a, V_a = (lam.real, V.real) if real else (lam, V)
    Vinv = _inverses(V_a)
    with np.errstate(over="ignore", invalid="ignore"):
        recon = np.real((V_a * lam_a[:, None, :]) @ Vinv)
    ok = np.abs(recon - w).max(axis=(1, 2)) <= _EIG_RECON_RTOL * scale
    if not any(ok.tolist()):
        return None
    n = w.shape[-1]
    # 0 is exact (columns sum to 0); pin it, or e^{lam t} drifts by eps*max|W|*t
    lam_a = np.where(np.abs(lam_a) <= n * np.finfo(float).eps * scale[:, None], 0.0, lam_a)
    return _Spectral(*_where(ok, lam_a, V, Vinv, models))


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Generator of a continuous-time Markov chain over ``n >= 2`` states.

    Construct through :func:`validate_rate_matrix`; the raw constructor
    also validates and recomputes the diagonal. A stack of generators
    (``_random_stack``) holds ``w`` of shape (models, n, n).
    """

    w: np.ndarray

    def __post_init__(self):
        w = _as_float_array(self.w, "rate matrix")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise NonSquareError(f"rate matrix must be square, got shape {w.shape}")
        n = w.shape[0]
        if n < 2:
            raise BadDimensionError(f"need at least 2 states, got {n}")
        object.__setattr__(self, "w", _generators(w.copy()))

    @property
    def n(self) -> int:
        return self.w.shape[-1]

    @cached_property
    def escape(self) -> np.ndarray:
        """Escape rate R(mu) = total rate of leaving state mu."""
        r = -np.diagonal(self.w, axis1=-2, axis2=-1)
        r.setflags(write=False)
        return r

    @cached_property
    def _spectral(self) -> tuple[_Spectral, ...] | None:
        """The trusted eigenbases of the stack: one part for the models with
        a real spectrum, one for the rest; None when no model has one."""
        n = self.n
        w = self.w.reshape(-1, n, n)
        lam, V = np.linalg.eig(w)
        lam, V = lam.astype(complex, copy=False), V.astype(complex, copy=False)
        real = ~lam.imag.any(axis=-1)
        kinds = set(real.tolist())
        scale = self.escape.reshape(-1, n).max(axis=-1)
        models = np.arange(w.shape[0])
        parts = (
            _trusted_bases(*_where(real == is_real, w, lam, V, scale, models), is_real)
            for is_real in (True, False)
            if is_real in kinds
        )
        return tuple(p for p in parts if p is not None) or None

    @cached_property
    def _regimes(self) -> list:
        """(basis, models) per propagation regime of the stack: each part of
        ``_spectral``, then the rates of the models left to ``expm``, with
        the ascending indices of the models of each."""
        w = self.w.reshape(-1, self.n, self.n)
        parts = [(sd, sd.models) for sd in self._spectral or ()]
        rest = np.ones(w.shape[0], dtype=bool)
        for _, models in parts:
            rest[models] = False
        if rest.any():
            parts.append((w[rest], np.flatnonzero(rest)))
        return parts


def _generators(off: np.ndarray) -> np.ndarray:
    """The generators of the finite rates ``off`` (..., n, n), in place and
    read-only: the diagonal is ignored and becomes the negative column sums.
    A negative off-diagonal rate raises for the first at fault."""
    diag = np.arange(off.shape[-1])
    off[..., diag, diag] = 0.0
    neg = np.argwhere(off < 0.0)
    if neg.size:
        *_, nu, mu = neg[0]
        raise NegativeRateError(
            f"negative rate {off[tuple(neg[0])]!r} at (row {nu + 1}, col {mu + 1})"
        )
    off[..., diag, diag] = -off.sum(axis=-2)
    off.setflags(write=False)
    return off


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
        return self.p.shape[-1]


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
        return self.s.shape[-1]

    @cached_property
    def max_abs(self) -> float:
        """The sup norm; one per vector of a stack."""
        return np.abs(self.s).max(axis=-1, initial=0.0)


def _raw(cls, array: np.ndarray):
    """A value of type ``cls`` around ``array`` as it is: for arrays that
    already satisfy the type's rules, which validation could change (a
    probability vector is renormalized)."""
    value = object.__new__(cls)
    array.setflags(write=False)
    object.__setattr__(value, fields(cls)[0].name, array)
    return value


def _contract(rows: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``rows @ vec`` per model: the product of each model's matrix (or
    rows) with its own vector, one vector per model of a stack."""
    return (rows @ vec[..., None])[..., 0]


def validate_rate_matrix(w) -> RateMatrix:
    """Validate a raw square matrix of jump rates and wrap it.

    The diagonal of ``w`` is ignored and recomputed as the negative
    column escape rate; off-diagonal entries must be finite and >= 0.
    """
    return RateMatrix(w)


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


def _survival(W: RateMatrix, p0: ProbVector, times) -> np.ndarray:
    """``sum_mu p0[mu] exp(-t R(mu) / 2)`` for each t of the 1-d ``times``,
    capped at 1; after the model axis of a stack."""
    decay = np.exp((-0.5 * np.asarray(times))[:, None] * W.escape[..., None, :])
    return np.minimum(_contract(decay, p0.p), 1.0)


def _propagator_apply(W: RateMatrix, vec: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Rows ``e^{W t} @ vec`` for a whole array of times, in the layouts of
    ``_integral_apply``. No propagator matrix is formed on the eigenvector
    path, and rows at t = 0 are ``vec`` exactly."""
    return _apply(_propagator_block, W, vec, times)


def _integral_apply(
    W: RateMatrix, vec: np.ndarray, times: np.ndarray, left: np.ndarray | None = None
) -> np.ndarray:
    """Rows ``[int_0^t e^{W s} ds] @ vec`` for the 1-d array ``times``, or
    with ``left`` given their dot products with it; ``vec`` is one vector
    or one row per time, and rows at t = 0 are 0.

    For a stack W, ``vec`` and ``left`` lead with the model axis, and every
    model takes the same ``times``; the rows lead with the model axis too.

    Quadratures over the dynamical activity call this in batch, with
    ``left`` the escape rates and the nodes of a level shared by the stack.
    """
    return _apply(_integral_block, W, vec, times, left)


def _apply(block, W: RateMatrix, vec, times, left=None) -> np.ndarray:
    """The evaluation loop of both primitives, in the layouts of
    ``_integral_apply``: ``block(basis, vec, times)`` on each regime of W in
    blocks of at most ``_APPLY_ELEMENTS`` elements, each model's times cut as
    for that model alone, and each block's rows contracted with ``left``
    before the next block is evaluated.

    When W has one regime and all its models and times fit one block (one
    model at the nodes of a quadrature level, say), that block is the
    whole call: ``vec``, ``left`` and the block's rows pass straight
    through, with no slicing of the times or the bases, no gathering of
    rows per block and no scatter into a result array, and the numbers are
    those of the loop bit for bit."""
    times, vec = np.asarray(times, dtype=float), np.asarray(vec)
    lead, n = W.w.shape[:-2], W.n
    m = math.prod(lead)
    vec = vec.reshape(m, -1, n)
    per_time = vec.shape[1] > 1
    left = None if left is None else left.reshape(m, n)
    c = times.size
    regimes = W._regimes
    out = np.empty((m, c) + ((n,) if left is None else ()))
    for basis, index in regimes:
        width = n if isinstance(basis, _Spectral) else 4 * (n + 1) ** 2
        step = max(_APPLY_ELEMENTS // width, 1)
        # each model's times in blocks of `step`, as for one model; and as
        # many models per block as the memory cap leaves room for
        per = max(_APPLY_ELEMENTS // (max(min(c, step), 1) * width), 1)
        if len(regimes) == 1 and 0 < c <= step and m <= per:
            # the loop below in one block; its gathers hand every block
            # C-contiguous copies, and so does this
            got = block(basis, np.ascontiguousarray(vec), times)
            got = got if left is None else _contract(got, np.ascontiguousarray(left))
            return got.reshape(lead + got.shape[1:])
        for j in range(0, index.size, per):
            sel = index[j:j + per]
            chunk = basis[j:j + per]
            for i in range(0, c, step):
                at = (sel, slice(i, i + step))
                got = block(chunk, vec[at] if per_time else vec[sel], times[i:i + step])
                # real rows first: folding left into V.T (a complex
                # matrix-vector product) measured 1.6x slower on the
                # hard_generators benchmark
                out[at] = got if left is None else _contract(got, left[sel])
    return out.reshape(lead + out.shape[1:])


def _propagator_block(basis, vec: np.ndarray, times: np.ndarray) -> np.ndarray:
    """e^{W t} vec for the models of one regime at the 1-d ``times``:
    ``basis`` is their _Spectral, or their rates for ``_expm``; ``vec``
    leads with the model axis. Rows at t = 0 are ``vec`` exactly."""
    if isinstance(basis, _Spectral):
        coeff = vec @ basis.Vinv.mT
        rows = np.real((basis.exp_t(times) * coeff) @ basis.basis.mT)
    else:
        rows = (_expm(times[:, None, None] * basis[:, None]) @ vec[..., None])[..., 0]
    return np.where(times[:, None] == 0.0, vec, rows)


def _integral_block(basis, vec: np.ndarray, times: np.ndarray) -> np.ndarray:
    """[int_0^t e^{W s} ds] vec for the models of one regime, as in
    ``_propagator_block``."""
    if isinstance(basis, _Spectral):
        coeff = vec @ basis.Vinv.mT
        return np.real((basis.phi_t(times) * coeff) @ basis.basis.mT)
    n = basis.shape[-1]
    aug = np.zeros((len(basis), times.size, n + 1, n + 1))
    aug[..., :n, :n], aug[..., :n, n] = basis[:, None], vec
    return _expm(aug * times[:, None, None])[..., :n, n]


def _expm(a: np.ndarray) -> np.ndarray:
    """e^A for every matrix A of the (..., k, k) stack ``a``.

    Each A is scaled by 2^-s, with s the least integer >= 0 that brings its
    1-norm to at most theta_13, where the Pade approximant r_13 is exact to
    double precision; Y = r_13(2^-s A) - I = 2 (V - U)^{-1} U, with U and V
    its odd and even parts, is then squared s times as Y <- 2 Y + Y^2,
    which is (I + Y)^2 - I. Every matrix is computed alone, so its result
    does not depend on the others of the stack.
    """
    b = _PADE13
    with np.errstate(divide="ignore"):  # a zero matrix has log2(0) = -inf
        s = np.maximum(np.ceil(np.log2(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA13)), 0).astype(int)
    a = np.ldexp(a, -s[..., None, None])
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    y = np.linalg.solve(v - u, u)
    y *= 2.0
    # square the matrices with the most rounds first: sorted by s, the ones
    # still squared in a round are a leading run of the stack
    order = np.argsort(-s, axis=None, kind="stable")
    rounds = s.reshape(-1)[order]
    y = y.reshape(-1, *y.shape[-2:])[order]
    for r in range(s.max(initial=0)):
        run = y[: np.count_nonzero(rounds > r)]
        sq = run @ run
        run *= 2.0
        run += sq
    y += eye
    out = np.empty_like(y)
    out[order] = y
    return out.reshape(a.shape)


def steady_state(W: RateMatrix) -> ProbVector:
    """Stationary distribution P_st with W P_st = 0, when it is unique.

    The kernel of W is decided by an SVD: singular values within the
    tolerance tol = n 1e-13 max R span it, and a kernel of dimension > 1
    means the chain decomposes and no unique stationary law exists. A model
    whose trusted eigenbasis (``RateMatrix._spectral``, held for
    propagation anyway) settles that decision takes no SVD, and its law is
    the kernel column of V. It settles it when exactly one eigenvalue has
    |lam| <= tol, its column of V is real, and the sum over the other
    eigenvalues of |V_i| |U_i| / |lam_i| (columns V_i of V, rows U_i of
    V^{-1}) is below 1 / tol: the sum bounds the 2-norm of the group
    inverse of W, and so that of its pseudo-inverse, 1 / sigma_{n-1}, and
    the SVD would find a kernel of dimension 1. Every other model (on the
    expm regime, or nearly reducible) takes the SVD. For a stack W, the
    stack of the laws of its models; one model without a unique law
    raises, as does a law whose residual max |W P| exceeds ``_STEADY_RTOL``
    max R.
    """
    n = W.n
    w = W.w.reshape(-1, n, n)
    tol = n * 1e-13 * W.escape.max(axis=-1).reshape(-1)
    v = np.empty((w.shape[0], n))
    svd = np.ones(w.shape[0], dtype=bool)
    for sd in W._spectral or ():
        lam, at = np.abs(sd.lam), tol[sd.models]
        kernel = lam <= at[:, None]
        col = sd.basis[np.arange(len(kernel)), :, kernel.argmax(axis=-1)]
        kappa = np.linalg.norm(sd.basis, axis=-2) * np.linalg.norm(sd.Vinv, axis=-1)
        spread = (kappa / np.where(kernel, np.inf, lam)).sum(axis=-1)
        one = kernel.sum(axis=-1) == 1
        one &= ~col.imag.any(axis=-1) & (at * spread < 1.0)
        v[sd.models[one]] = col[one].real
        svd[sd.models[one]] = False
    if svd.any():
        v[svd] = _svd_kernel(w[svd], tol[svd])
    v = v.reshape(W.w.shape[:-1])
    v = np.where(v.sum(axis=-1, keepdims=True) < 0.0, -v, v)
    if (v.min(axis=-1) < -1e-9).any():
        raise NoConvergenceError("kernel vector has genuinely negative entries")
    v = np.maximum(v, 0.0)
    pst = _raw(ProbVector, _clamped_probs(v / v.sum(axis=-1, keepdims=True)))
    _check_stationary(W, pst, NoConvergenceError, "candidate steady state")
    return pst


def _check_stationary(W: RateMatrix, P: ProbVector, error, name: str) -> None:
    """Raise ``error`` unless the law P of every model is stationary:
    max |W P| at most ``_STEADY_RTOL`` max R."""
    resid = np.abs(_contract(W.w, P.p)).max(axis=-1)
    if (resid > _STEADY_RTOL * W.escape.max(axis=-1)).any():
        raise error(f"{name} is not stationary: max |W P| = {float(resid.max()):.3e}")


def _svd_kernel(w: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """The unit kernel vector of each generator of the stack ``w`` by SVD,
    whose singular values at most ``tol`` (one per model) span the kernel;
    a kernel of another dimension than 1 raises for the first at fault."""
    try:
        _, sing, vt = np.linalg.svd(w)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"SVD of generator failed: {exc}") from exc
    kernel_dim = (sing <= tol[:, None]).sum(axis=-1)
    bad = kernel_dim != 1
    if bad.any():
        raise NonUniqueSteadyStateError(
            f"generator kernel has dimension {kernel_dim[bad][0]}; need exactly 1"
        )
    return vt[:, -1, :]


def _philox_key(seed) -> np.ndarray:
    """The Philox key of ``seed``, an integer 0 <= seed < 2**64, as the two
    64-bit words of the 128-bit key."""
    seed = _as_int(seed, "seed")
    if not 0 <= seed < 2**64:
        raise BadDimensionError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return np.array([seed, 0], dtype=np.uint64)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox); identical streams on every platform."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed)))


def random_model(n: int, seed: int) -> tuple[RateMatrix, ProbVector, ScoreVector]:
    """Seeded random test model.

    Distributions (recorded here because they are a choice, not a given):
    off-diagonal rates i.i.d. uniform on (0, 1]; initial probabilities
    uniform on the simplex via normalized exponentials; scores i.i.d.
    uniform on [-1, 1]. Same ``(n, seed)`` always yields bitwise-identical
    output. The one-model case of ``_random_stack``.
    """
    W, p0, s = _random_stack(n, (seed,))
    return _raw(RateMatrix, W.w[0]), _raw(ProbVector, p0.p[0]), _raw(ScoreVector, s.s[0])


def _random_stack(n: int, seeds) -> tuple[RateMatrix, ProbVector, ScoreVector]:
    """The models ``random_model(n, seed)`` of ``seeds``, in order, as one
    stack along a leading model axis.

    One Philox, re-keyed to the start of ``make_rng(seed)``'s stream for
    each seed, draws every model into preallocated arrays: its rates
    ``1 - random()``, then its exponentials, then its scores ``2 random() - 1``,
    the draws of ``rng.uniform(-1, 1)``. The rates, laws and scores are then
    finished and validated once for the whole stack.
    """
    n = _as_int(n, "n")
    if n < 2:
        raise BadDimensionError(f"need at least 2 states, got {n}")
    keys = [_philox_key(seed) for seed in seeds]
    m = len(keys)
    rates, expo, scores = np.empty((m, n, n)), np.empty((m, n)), np.empty((m, n))
    rng = make_rng(0)
    state = rng.bit_generator.state  # counter 0 and an empty buffer
    for i, key in enumerate(keys):
        state["state"]["key"] = key
        rng.bit_generator.state = state
        rng.random(out=rates[i])
        rng.standard_exponential(out=expo[i])
        rng.random(out=scores[i])
    np.subtract(1.0, rates, out=rates)  # uniform on (0, 1]
    expo /= expo.sum(axis=-1, keepdims=True)
    scores *= 2.0
    scores -= 1.0  # uniform on [-1, 1)
    W = _generators(_as_float_array(rates, "rate matrix"))
    return _raw(RateMatrix, W), _raw(ProbVector, _clamped_probs(expo)), _raw(ScoreVector, scores)


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
        n = _as_int(data["n"], "'n'")
        rates = data["rates"]
        p0 = data["p0"]
        s = data["S"]
    except KeyError as exc:
        raise BadDimensionError(f"model file missing required field {exc}") from exc
    W = validate_rate_matrix(rates)
    if W.n != n:
        raise DimensionMismatchError(f"'n'={n} but rates are {W.n}x{W.n}")
    pv = ProbVector(p0)
    sv = ScoreVector(s)
    tv = ScoreVector(data.get("T", s))
    _check_dims(W, pv, sv, tv)
    return W, pv, sv, tv
