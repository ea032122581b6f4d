"""Every domain error is a typed ``CorrboundError``.

One row per raise site that no other test reaches: the call and the exact
error type it must raise.
"""

from unittest import mock

import numpy as np
import pytest

from corrbound import (
    ProbVector,
    PathSkeleton,
    PulseDrive,
    SampledDrive,
    ScoreVector,
    bound_main,
    bound_multipoint,
    bound_onepoint,
    canonical_perturbation,
    cmax,
    convolved_shift,
    load_model,
    make_rng,
    mc_two_point,
    multipoint,
    perturbed_oracle,
    random_model,
    skeleton_distribution,
    steady_state,
    validate_rate_matrix,
)
from corrbound.cli import (
    RunConfig,
    _build_parser,
    _parse_tgrid,
    _random_sweep,
    _run,
    cmd_response,
    evaluate_bounds,
)
from corrbound.errors import (
    BadDimensionError,
    BadIntervalError,
    CorrboundError,
    NegativeTimeError,
    NonFiniteError,
    NonPositiveTimeError,
    NonSquareError,
    ResourceError,
    StepTooLargeError,
    TimesNotSortedError,
)
from corrbound.linear_response import Perturbation

W, P0, S = random_model(3, 1)
DRIVE = SampledDrive(np.linspace(0.0, 2.0, 5), np.ones(5))
SKEL = PathSkeleton(3, 2, 1.0)


def check_out_of_memory():
    """`check` on a random model whose eigendecomposition runs out of memory."""
    with mock.patch.object(np.linalg, "eig", side_effect=MemoryError):
        _run(_build_parser().parse_args(["check", "--states", "3"]))

CASES = [
    ("prob-vector-2d", lambda: ProbVector(np.full((2, 2), 0.25)), BadDimensionError),
    ("score-vector-2d", lambda: ScoreVector(np.zeros((2, 2))), BadDimensionError),
    ("rng-negative-seed", lambda: make_rng(-1), BadDimensionError),
    ("rng-fractional-seed", lambda: make_rng(2.9), BadDimensionError),
    ("random-model-fractional-n", lambda: random_model(2.5, 1), BadDimensionError),
    ("random-model-float-n", lambda: random_model(3.0, 1), BadDimensionError),
    ("sweep-fractional-states", lambda: _random_sweep(4, 1, (2.5, 3)), BadDimensionError),
    ("model-not-an-object", lambda: load_model([1, 2]), BadDimensionError),
    (
        "model-fractional-n",
        lambda: load_model({"n": 2.5, "rates": W.w, "p0": P0.p, "S": S.s}),
        BadDimensionError,
    ),
    ("rate-matrix-ragged", lambda: validate_rate_matrix([[0, 1], [1]]), BadDimensionError),
    ("prob-vector-non-numeric", lambda: ProbVector([0.5, "x"]), BadDimensionError),
    ("bound-main-reversed", lambda: bound_main(W, P0, S, S, 2.0, 1.0), BadIntervalError),
    ("path-skeleton-nan-tau", lambda: PathSkeleton(3, 2, np.nan), BadIntervalError),
    ("path-skeleton-no-states", lambda: PathSkeleton(0, 2, 1.0), BadDimensionError),
    ("path-skeleton-fractional-states", lambda: PathSkeleton(2.5, 2, 1.0), BadDimensionError),
    ("path-skeleton-fractional-steps", lambda: PathSkeleton(3, 2.5, 1.0), BadDimensionError),
    ("skeleton-encode-state-too-large", lambda: SKEL.encode((0, 3, 0)), BadDimensionError),
    ("skeleton-encode-short", lambda: SKEL.encode((1, 2)), BadDimensionError),
    ("skeleton-encode-long", lambda: SKEL.encode((1, 2, 0, 0)), BadDimensionError),
    ("skeleton-encode-negative-state", lambda: SKEL.encode((1, -1, 0)), BadDimensionError),
    ("skeleton-encode-fractional-state", lambda: SKEL.encode((0, 1.7, 0)), BadDimensionError),
    ("skeleton-encode-not-a-sequence", lambda: SKEL.encode(5), BadDimensionError),
    ("skeleton-decode-past-end", lambda: SKEL.decode(27), BadDimensionError),
    ("skeleton-decode-negative", lambda: SKEL.decode(-1), BadDimensionError),
    ("skeleton-decode-fractional", lambda: SKEL.decode(2.0), BadDimensionError),
    ("mc-fractional-samples", lambda: mc_two_point(W, P0, S, S, 1.0, 1000.5, 1), BadDimensionError),
    ("mc-negative-horizon", lambda: mc_two_point(W, P0, S, S, -1.0, 1000, 1), NegativeTimeError),
    ("mc-nan-horizon", lambda: mc_two_point(W, P0, S, S, np.nan, 1000, 1), NonFiniteError),
    ("skeleton-zero-tau", lambda: skeleton_distribution(W, P0, 0.0, 2, 0.0), BadIntervalError),
    ("config-empty-grid", lambda: RunConfig(t_grid=[]), CorrboundError),
    ("config-unsorted-grid", lambda: RunConfig(t_grid=[1.0, 0.5]), CorrboundError),
    ("config-no-bounds", lambda: RunConfig(t_grid=[1.0], bounds=()), CorrboundError),
    ("config-negative-rhs-scale", lambda: RunConfig(t_grid=[1.0], rhs_scale=-0.5), CorrboundError),
    ("evaluate-unknown-bound", lambda: evaluate_bounds(W, P0, S, S, [1.0], ("BOGUS",)), CorrboundError),
    ("tgrid-unknown-kind", lambda: _parse_tgrid("0:1:3:cubic"), CorrboundError),
    ("response-unknown-drive", lambda: cmd_response("bogus"), CorrboundError),
    ("onepoint-unknown-variant", lambda: bound_onepoint(W, P0, S, 1.0, "bogus"), CorrboundError),
    (
        "multipoint-unknown-variant",
        lambda: bound_multipoint(W, P0, [S, S], [0.0, 1.0], "bogus"),
        CorrboundError,
    ),
    ("cmax-unknown-mode", lambda: cmax(S, S, "bogus"), CorrboundError),
    ("multipoint-no-times", lambda: multipoint(W, P0, [], []), TimesNotSortedError),
    ("pulse-zero-width", lambda: PulseDrive(width=0.0), NonPositiveTimeError),
    (
        "sampled-drive-mismatch",
        lambda: SampledDrive(np.array([0.0, 1.0, 2.0]), np.ones(2)),
        BadDimensionError,
    ),
    (
        "sampled-drive-unsorted",
        lambda: SampledDrive(np.array([0.0, 2.0, 1.0]), np.ones(3)),
        TimesNotSortedError,
    ),
    ("perturbation-non-square", lambda: Perturbation(np.zeros((2, 3)), 0.1, DRIVE), NonSquareError),
    ("perturbation-text-chi", lambda: Perturbation(np.eye(2), "x", DRIVE), BadDimensionError),
    # numeric text is text: it is refused whatever its spelling
    ("perturbation-numeric-text-chi", lambda: Perturbation(np.eye(2), "0.1", DRIVE), BadDimensionError),
    ("prob-vector-numeric-text", lambda: ProbVector(["0.5", "0.5"]), BadDimensionError),
    (
        "rate-matrix-numeric-text",
        lambda: validate_rate_matrix([["0", "1"], ["1", "0"]]),
        BadDimensionError,
    ),
    (
        "perturbation-array-chi",
        lambda: Perturbation(np.eye(2), np.array([0.1, 0.2]), DRIVE),
        BadDimensionError,
    ),
    (
        "convolution-zero-step",
        lambda: convolved_shift(
            W, steady_state(W), canonical_perturbation(W, S), S, 0.01, DRIVE, 1.0, 0.0
        ),
        StepTooLargeError,
    ),
    (
        "oracle-zero-step",
        lambda: perturbed_oracle(W, canonical_perturbation(W, S), 0.01, DRIVE, 1.0, 0.0),
        StepTooLargeError,
    ),
    ("cli-out-of-memory", check_out_of_memory, ResourceError),
]


@pytest.mark.parametrize("call, error", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_raise_site_has_its_type(call, error):
    with pytest.raises(CorrboundError) as info:
        call()
    assert type(info.value) is error
