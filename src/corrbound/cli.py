"""Command-line harness: bound checking, figure data, stress sweeps.

Subcommands::

    check    evaluate selected bounds for one model over a time grid
    figure2  correlation-bound curves and ratio sweeps (fig2a-fig2d CSVs)
    figure3  pulse/step response curves with their bounds (fig3a, fig3b)
    stress   randomized sweep over many models; JSON violation tally
    response pulse or step response sweep for a single model

Exit codes are uniform: 0 all checked ratios within tolerance, 1 at
least one bound violated, 2 input or configuration error. All emitted
reals carry 17 significant digits (round-trip exact for float64), CSV
files start with ``# key: value`` metadata lines, and identical seeds
produce byte-identical output. Non-finite reals are written as ``inf``,
``-inf`` and ``nan``, quoted in JSON. The bounds of one model are
evaluated through one plan over the time grid (``bounds._Plan``); the
random sweeps of stress and figure2 evaluate the models of each state count
together, through one plan over their stack (``markov._stack``), and read
its ratio arrays.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    BOUND_IDS,
    CSV_HEADER,
    GEODESIC_ATOL,
    RATIO_SLACK,
    BoundReport,
    _BOUNDS,
    _Plan,
    _csv_line,
    _ratio,
    fmt17,
)
from .errors import CorrboundError
from .linear_response import _report, _response_plan, _shift
from .markov import (
    RANDOM_MODEL_METADATA,
    ProbVector,
    RateMatrix,
    ScoreVector,
    _stack,
    load_model,
    make_rng,
    random_model,
    steady_state,
    validate_rate_matrix,
)

DEFAULT_CHI = 0.01
# every bound but the response bounds, which need a unique stationary law
DEFAULT_BOUNDS = tuple(b for b in BOUND_IDS if not _BOUNDS[b][1])


def fig2_model() -> tuple[RateMatrix, ProbVector, ScoreVector, ScoreVector]:
    """Two-state chain with a single decay channel at unit rate."""
    W = validate_rate_matrix([[0.0, 1.0], [0.0, -1.0]])
    p0 = ProbVector(np.array([0.0, 1.0]))
    s = ScoreVector(np.array([-1.0, 1.0]))
    return W, p0, s, s


def fig3_model() -> tuple[RateMatrix, ScoreVector, ScoreVector]:
    """Symmetric two-state chain at unit rate (stationary at 1/2, 1/2)."""
    W = validate_rate_matrix([[0.0, 1.0], [1.0, 0.0]])
    s = ScoreVector(np.array([-1.0, 1.0]))
    return W, s, s


@dataclass(frozen=True)
class RunConfig:
    """Inputs for one `check` run."""

    t_grid: np.ndarray
    bounds: tuple = DEFAULT_BOUNDS
    model_path: str | None = None
    gen_states: int | None = None
    seed: int = 0
    cmax_mode: str = "standard"
    output_path: str | None = None
    output_format: str = "csv"
    chi: float = DEFAULT_CHI
    rhs_scale: float = 1.0  # self-test hook: scaled bound sides must fail

    def __post_init__(self):
        grid = np.asarray(self.t_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise CorrboundError("time grid must be a non-empty 1-d array")
        if np.any(np.diff(grid) < 0.0) or grid[0] < 0.0:
            raise CorrboundError("time grid must be sorted and non-negative")
        if not self.bounds:
            raise CorrboundError("at least one bound must be selected")
        if not (math.isfinite(self.rhs_scale) and self.rhs_scale >= 0.0):
            # a negative or infinite scale passes every bound, nan fails each
            raise CorrboundError(f"rhs scale must be finite and >= 0, got {self.rhs_scale}")
        unknown = set(self.bounds) - set(BOUND_IDS)
        if unknown:
            raise CorrboundError(f"unknown bound ids: {sorted(unknown)}")
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "bounds", tuple(self.bounds))


def _json17(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits;
    non-finite floats become the strings "inf", "-inf" and "nan"."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_json17(v, indent + 2).lstrip()}"
            for k, v in sorted(obj.items())
        )
        return f"{pad}{{\n{items}\n{pad}}}" if obj else f"{pad}{{}}"
    if isinstance(obj, (list, tuple)):
        items = ",\n".join(_json17(v, indent + 2) for v in obj)
        return f"{pad}[\n{items}\n{pad}]" if len(obj) else f"{pad}[]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        text = fmt17(float(obj))
        return pad + (text if math.isfinite(obj) else json.dumps(text))
    if obj is None:
        return pad + "null"
    return pad + json.dumps(str(obj))


def _meta(**extra) -> dict:
    meta = {
        "artifact": f"corrbound {__version__}",
        "ratio_slack": fmt17(RATIO_SLACK),
        "geodesic_atol": fmt17(GEODESIC_ATOL),
    }
    meta.update({k: v for k, v in extra.items() if v is not None})
    return meta


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _write_table(path: str | None, header: str, rows, meta: dict, fmt: str = "csv") -> None:
    """Write rows, tuples in ``header`` order, as a CSV under ``# key: value``
    metadata lines or as a JSON document of the metadata and one object per
    row keyed by the header."""
    if fmt == "json":
        keys = header.split(",")
        text = _json17({"meta": meta, "rows": [dict(zip(keys, row)) for row in rows]})
    else:
        lines = [f"# {k}: {v}" for k, v in meta.items()]
        text = "\n".join([*lines, header, *map(_csv_line, rows)])
    _write_text(path, text + "\n")


def _walk_bounds(W, p0, S, T, t_grid, bound_ids, mode, chi):
    """The intervals of each selected bound on the plan of one model, or
    of a stack of models.

    Yields (bound id, grid rows, plan, t1, t2): the start plan (the
    stationary one for pulse/step) and the applicable intervals at grid
    rows ``rows``, with t1 the bound's share of t2; single-time bounds
    (share 1) skip t = 0, where they divide by t.
    """
    grid = np.asarray(t_grid, dtype=float)
    unknown = set(bound_ids) - set(_BOUNDS)
    if unknown:
        raise CorrboundError(f"unknown bound ids: {sorted(unknown)}")
    # knots: the grid and the interval starts of the selected bounds
    shares = {_BOUNDS[bid][0] for bid in bound_ids}
    knots = np.concatenate([grid] + [share * grid for share in shares])
    plan = _Plan(W, p0, knots, S, T, mode, chi)
    for bid in bound_ids:
        t1_share, stationary, _, _ = _BOUNDS[bid]
        rows = np.flatnonzero(grid > 0.0) if t1_share == 1.0 else np.arange(grid.size)
        start = plan.stationary if stationary else plan
        yield bid, rows, start, t1_share * grid[rows], grid[rows]


def evaluate_bounds(
    W: RateMatrix,
    p0: ProbVector,
    S: ScoreVector,
    T: ScoreVector,
    t_grid: np.ndarray,
    bound_ids,
    mode: str = "standard",
    chi: float = DEFAULT_CHI,
) -> list[BoundReport]:
    """Evaluate the selected bounds at every applicable grid time.

    Two-interval bounds use (t/2, t) per grid point; J-point bounds use
    three probes (S, T, S) at (0, t/2, t). Grid points outside a bound's
    time domain (t = 0 for the derivative and pulse forms) are skipped.
    Pulse/step bounds are evaluated from the stationary state of W.
    Reports come grid time by grid time, in the order of ``bound_ids``;
    a repeated id is evaluated and reported once.
    """
    bound_ids = tuple(dict.fromkeys(bound_ids))
    by_bound = {
        bid: dict(zip(rows.tolist(), plan.reports(bid, t1, t2)))
        for bid, rows, plan, t1, t2 in _walk_bounds(W, p0, S, T, t_grid, bound_ids, mode, chi)
    }
    return [
        by_bound[bid][k]
        for k in range(len(t_grid))
        for bid in bound_ids
        if k in by_bound[bid]
    ]


def _apply_rhs_scale(reports: list[BoundReport], scale: float) -> list[BoundReport]:
    if scale == 1.0:
        return reports
    scaled = [(r, r.rhs * scale if r.rhs and scale else 0.0) for r in reports]  # 0 * inf = 0
    return [replace(r, rhs=rhs, ratio=float(_ratio(r.lhs, rhs))) for r, rhs in scaled]


def cmd_check(config: RunConfig) -> int:
    """Evaluate bounds for one model; 0 = all hold, 1 = violation."""
    if config.model_path is not None:
        W, p0, S, T = load_model(config.model_path)
        source = config.model_path
    elif config.gen_states is not None:
        W, p0, S = random_model(config.gen_states, config.seed)
        T = S
        source = f"random(n={config.gen_states}, seed={config.seed})"
    else:
        raise CorrboundError("check needs either a model file or --states")
    reports = evaluate_bounds(
        W, p0, S, T, config.t_grid, config.bounds, config.cmax_mode, config.chi
    )
    reports = _apply_rhs_scale(reports, config.rhs_scale)
    meta = _meta(
        seed=config.seed,
        generator=RANDOM_MODEL_METADATA["generator"],
        model=source,
        cmax_mode=config.cmax_mode,
        rhs_scale=fmt17(config.rhs_scale) if config.rhs_scale != 1.0 else None,
    )
    _write_table(
        config.output_path, CSV_HEADER, [r.row() for r in reports], meta, config.output_format
    )
    violations = [r for r in reports if not r.satisfied]
    for v in violations:
        print(
            f"VIOLATION {v.bound_id} t1={fmt17(v.t1)} t2={fmt17(v.t2)} "
            f"lhs={fmt17(v.lhs)} rhs={fmt17(v.rhs)} ratio={fmt17(v.ratio)}",
            file=sys.stderr,
        )
    return 1 if violations else 0


_RESPONSE_HEADER = "t,shift,bound_rhs,ratio,in_domain"


def _response_sweep(W, pst, S, T, chi: float, drive: str, t_grid) -> list[tuple]:
    """One row under ``_RESPONSE_HEADER`` per grid time of a pulse or step
    response, all read from one plan over the grid; pulse sweeps skip t <= 0,
    where the pulse bound is undefined."""
    if drive not in ("pulse", "step"):
        raise CorrboundError(f"unknown drive {drive!r}")
    pulse = drive == "pulse"
    ts = np.asarray(t_grid, dtype=float)
    if pulse:
        ts = ts[ts > 0.0]
    plan, idx = _response_plan(W, pst, S, T, chi, ts, pulse)
    return [
        (t, shift, rep.rhs, rep.ratio, rep.in_validity_domain)
        for t, shift, rep in zip(
            ts.tolist(), _shift(plan, idx, pulse).tolist(), _report(plan, idx, pulse)
        )
    ]


FIG2_CURVE_GRID = np.linspace(0.0, 10.0, 201)
FIG2_RATIO_GRID = np.geomspace(1e-2, 10.0, 20)
FIG3_STEP_GRID = np.linspace(0.0, 5.0, 101)
FIG3_PULSE_GRID = np.linspace(0.05, 5.0, 100)


def _random_sweep(n_models: int, seed: int, n_list=(2, 3, 4)):
    """The randomized sweep protocol of figure2 and stress: state counts
    cycling ``n_list`` and per-model seeds drawn from one master stream;
    scores are reused for both probes."""
    if n_models < 0:
        raise CorrboundError("n_models must be >= 0")
    if not n_list:
        raise CorrboundError("need at least one state count")
    sizes = [int(n_list[i % len(n_list)]) for i in range(n_models)]
    seeds = [int(s) for s in make_rng(seed).integers(0, 2**63 - 1, size=n_models)]
    return sizes, seeds


# models per stacked plan of a sweep, so that its working memory does not
# grow with the number of models
_STACK_MODELS = 256


def _stacks(sizes, model):
    """The models of a sweep as stacks of one state count each, in runs of
    at most ``_STACK_MODELS``: (sweep indices, W, p0, S) per stack, where
    ``model(i)`` builds model i and has ``sizes[i]`` states."""
    for n in dict.fromkeys(sizes):
        group = [i for i, size in enumerate(sizes) if size == n]
        for start in range(0, len(group), _STACK_MODELS):
            chunk = group[start:start + _STACK_MODELS]
            yield (chunk, *map(_stack, zip(*map(model, chunk))))


def cmd_figure2(out_dir: str, n_random: int = 100, seed: int = 20230) -> int:
    """Write fig2a-fig2d CSVs plus a sidecar with the sweep seeds."""
    sizes, seeds = _random_sweep(n_random, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    W, p0, S, T = fig2_model()
    curve = evaluate_bounds(
        W, p0, S, T, FIG2_CURVE_GRID, ("ZERO_T_EQ6", "ETA_EQ8", "DERIV_EQ7")
    )
    sines = [r for r in curve if r.bound_id == "ZERO_T_EQ6"]
    etas = [r for r in curve if r.bound_id == "ETA_EQ8"]
    rows_a = [(s.t2, s.lhs, s.rhs, e.rhs, s.in_validity_domain) for s, e in zip(sines, etas)]
    rows_b = [(r.t2, r.lhs, r.rhs) for r in curve if r.bound_id == "DERIV_EQ7"]

    models = [fig2_model()[:3]] + [random_model(n, s) for n, s in zip(sizes, seeds)]
    sweep = {}  # (bound id, model index) -> (t2, ratio, in_domain) per grid time
    for chunk, Wm, p0m, Sm in _stacks([m[0].n for m in models], models.__getitem__):
        for bid, _, plan, t1, t2 in _walk_bounds(
            Wm, p0m, Sm, Sm, FIG2_RATIO_GRID, ("ZERO_T_EQ6", "DERIV_EQ7"), "standard", DEFAULT_CHI
        ):
            _, _, ratio, in_domain, _ = plan.sides(bid, t1, t2)
            for j, idx in enumerate(chunk):
                sweep[bid, idx] = list(zip(t2.tolist(), ratio[j].tolist(), in_domain[j].tolist()))
    rows_c = [(idx, *x) for idx in range(len(models)) for x in sweep["ZERO_T_EQ6", idx]]
    rows_d = [(idx, t, r) for idx in range(len(models)) for t, r, _ in sweep["DERIV_EQ7", idx]]

    meta = _meta(seed=seed, generator=RANDOM_MODEL_METADATA["generator"])
    _write_table(str(out / "fig2a.csv"), "t,lhs,rhs_sin,rhs_eta,in_domain", rows_a, meta)
    _write_table(str(out / "fig2b.csv"), "t,lhs,rhs", rows_b, meta)
    _write_table(str(out / "fig2c.csv"), "model,t,ratio,in_domain", rows_c, meta)
    _write_table(str(out / "fig2d.csv"), "model,t,ratio", rows_d, meta)
    sidecar = {
        "meta": meta,
        "master_seed": seed,
        "model_states": sizes,
        "model_seeds": seeds,
        "distributions": RANDOM_MODEL_METADATA,
    }
    _write_text(str(out / "fig2_models.json"), _json17(sidecar) + "\n")
    return 0


def cmd_figure3(out_dir: str, chi: float = DEFAULT_CHI) -> int:
    """Write pulse (fig3a) and step (fig3b) response curves with bounds."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    W, S, T = fig3_model()
    pst = steady_state(W)
    sweeps = {
        name: _response_sweep(W, pst, S, T, chi, drive, grid)
        for name, drive, grid in (
            ("fig3a.csv", "pulse", FIG3_PULSE_GRID),
            ("fig3b.csv", "step", FIG3_STEP_GRID),
        )
    }
    meta = _meta(
        seed="none",
        generator=RANDOM_MODEL_METADATA["generator"],
        chi=fmt17(chi),
        model="two-state symmetric, unit rates",
    )
    for name, rows in sweeps.items():
        _write_table(str(out / name), _RESPONSE_HEADER, rows, meta)
    return 0


def cmd_stress(
    n_models: int = 500,
    n_list: tuple = (2, 3, 4),
    seed: int = 31415,
    t_grid: np.ndarray | None = None,
    cmax_mode: str = "standard",
    output_path: str | None = None,
    chi: float = DEFAULT_CHI,
) -> tuple[int, dict]:
    """Run every bound on every random model; tally violations.

    The models of one state count are evaluated together (``_stacks``);
    each model gets the numbers it gets alone. Returns (exit code, tally).
    The JSON document is byte-identical for identical arguments.
    """
    if t_grid is None:
        t_grid = np.geomspace(1e-2, 10.0, 20)
    sizes, seeds = _random_sweep(n_models, seed, n_list)
    tally = {
        bid: {"evaluations": 0, "max_ratio": 0.0, "violations": 0, "worst": None}
        for bid in BOUND_IDS
    }
    worst_at = {}  # bound id -> sweep index of its worst case
    for chunk, W, p0, S in _stacks(sizes, lambda i: random_model(sizes[i], seeds[i])):
        for bid, _, plan, t1, t2 in _walk_bounds(W, p0, S, S, t_grid, BOUND_IDS, cmax_mode, chi):
            ratio = plan.sides(bid, t1, t2)[2]
            if ratio.size == 0:
                continue
            cell = tally[bid]
            cell["evaluations"] += ratio.size
            cell["violations"] += int(np.count_nonzero(~(ratio <= 1.0 + RATIO_SLACK)))
            # NaN is never the maximum or the worst case; ties keep the
            # first in sweep order, then in grid order
            j, k = np.unravel_index(
                np.argmax(np.where(np.isnan(ratio), -math.inf, ratio)), ratio.shape
            )
            top, at = ratio[j, k], chunk[j]
            if np.isnan(top) or not (
                cell["worst"] is None or top > cell["max_ratio"]
                or (top == cell["max_ratio"] and at < worst_at[bid])
            ):
                continue
            cell["max_ratio"] = max(cell["max_ratio"], float(top))
            cell["worst"] = {
                "states": sizes[at], "seed": seeds[at], "t1": float(t1[k]), "t2": float(t2[k])
            }
            worst_at[bid] = at
    total_violations = sum(c["violations"] for c in tally.values())
    payload = {
        "meta": _meta(
            seed=seed,
            generator=RANDOM_MODEL_METADATA["generator"],
            n_models=n_models,
            states=list(n_list),
            cmax_mode=cmax_mode,
            t_grid=[float(t) for t in t_grid],
        ),
        "tally": tally,
    }
    _write_text(output_path, _json17(payload) + "\n")
    return (0 if total_violations == 0 else 1), tally


def cmd_response(
    drive: str,
    model_path: str | None = None,
    chi: float = DEFAULT_CHI,
    t_grid: np.ndarray | None = None,
    output_path: str | None = None,
    output_format: str = "csv",
) -> int:
    """Pulse or step response sweep from the model's stationary state."""
    if model_path is not None:
        W, _, S, T = load_model(model_path)
    else:
        W, S, T = fig3_model()
    pst = steady_state(W)
    if t_grid is None:
        t_grid = FIG3_PULSE_GRID if drive == "pulse" else FIG3_STEP_GRID
    rows = _response_sweep(W, pst, S, T, chi, drive, t_grid)
    violations = sum(not ratio <= 1.0 + RATIO_SLACK for _, _, _, ratio, _ in rows)
    meta = _meta(
        seed="none",
        generator=RANDOM_MODEL_METADATA["generator"],
        chi=fmt17(chi),
        drive=drive,
        model=model_path or "built-in symmetric",
    )
    _write_table(output_path, _RESPONSE_HEADER, rows, meta, output_format)
    return 1 if violations else 0


def _parse_tgrid(spec: str) -> np.ndarray:
    """Grid spec ``start:stop:points:log|lin``."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise CorrboundError(f"bad tgrid spec {spec!r}, want start:stop:points:kind")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CorrboundError(f"bad tgrid spec {spec!r}: {exc}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise CorrboundError(f"tgrid start and stop must be finite in {spec!r}")
    if points < 1 or stop < start or start < 0.0:
        raise CorrboundError(f"bad tgrid range in {spec!r}")
    if parts[3] == "lin":
        return np.linspace(start, stop, points)
    if parts[3] == "log":
        if start <= 0.0:
            raise CorrboundError("log grid needs start > 0")
        return np.geomspace(start, stop, points)
    raise CorrboundError(f"tgrid kind must be log or lin, got {parts[3]!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrbound",
        description="Verify activity-based correlation bounds for Markov jump processes.",
    )
    parser.add_argument("--version", action="version", version=f"corrbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate bounds for one model")
    p_check.add_argument("--model", help="JSON model file")
    p_check.add_argument("--states", type=int, help="generate a random model with N states")
    p_check.add_argument("--seed", type=int, default=0, help="seed for --states")
    p_check.add_argument("--tgrid", default="1e-2:10:20:log", help="start:stop:points:log|lin")
    p_check.add_argument("--bounds", default=",".join(DEFAULT_BOUNDS), help="comma-separated bound ids")
    p_check.add_argument("--cmax", choices=("standard", "tight"), default="standard")
    p_check.add_argument("--chi", type=float, default=DEFAULT_CHI)
    p_check.add_argument("--out", help="output file (default stdout)")
    p_check.add_argument("--format", choices=("csv", "json"), default="csv")
    p_check.add_argument(
        "--rhs-scale", type=float, default=1.0,
        help="self-test hook: scale every bound rhs (0.5 must trigger exit 1)",
    )

    p_f2 = sub.add_parser("figure2", help="correlation-bound figure data")
    p_f2.add_argument("--out", default=".", help="output directory")
    p_f2.add_argument("--models", type=int, default=100, help="random models for the ratio sweep")
    p_f2.add_argument("--seed", type=int, default=20230)

    p_f3 = sub.add_parser("figure3", help="linear-response figure data")
    p_f3.add_argument("--out", default=".", help="output directory")
    p_f3.add_argument("--chi", type=float, default=DEFAULT_CHI)

    p_st = sub.add_parser("stress", help="randomized validity sweep")
    p_st.add_argument("--models", type=int, default=500)
    p_st.add_argument("--states", default="2,3,4", help="comma-separated state counts to cycle")
    p_st.add_argument("--seed", type=int, default=31415)
    p_st.add_argument("--tgrid", default="1e-2:10:20:log")
    p_st.add_argument("--cmax", choices=("standard", "tight"), default="standard")
    p_st.add_argument("--chi", type=float, default=DEFAULT_CHI)
    p_st.add_argument("--out", help="tally JSON file (default stdout)")

    p_re = sub.add_parser("response", help="pulse/step response sweep")
    p_re.add_argument("--drive", choices=("pulse", "step"), required=True)
    p_re.add_argument("--model", help="JSON model file (default: built-in symmetric)")
    p_re.add_argument("--chi", type=float, default=DEFAULT_CHI)
    p_re.add_argument("--tgrid", help="start:stop:points:log|lin")
    p_re.add_argument("--out", help="output file (default stdout)")
    p_re.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            config = RunConfig(
                t_grid=_parse_tgrid(args.tgrid),
                bounds=tuple(b.strip() for b in args.bounds.split(",") if b.strip()),
                model_path=args.model,
                gen_states=args.states,
                seed=args.seed,
                cmax_mode=args.cmax,
                output_path=args.out,
                output_format=args.format,
                chi=args.chi,
                rhs_scale=args.rhs_scale,
            )
            return cmd_check(config)
        if args.command == "figure2":
            return cmd_figure2(args.out, n_random=args.models, seed=args.seed)
        if args.command == "figure3":
            return cmd_figure3(args.out, chi=args.chi)
        if args.command == "stress":
            states = tuple(int(s) for s in args.states.split(",") if s.strip())
            code, _ = cmd_stress(
                n_models=args.models,
                n_list=states,
                seed=args.seed,
                t_grid=_parse_tgrid(args.tgrid),
                cmax_mode=args.cmax,
                output_path=args.out,
                chi=args.chi,
            )
            return code
        # argparse admits only the five subcommands: this one is response
        grid = _parse_tgrid(args.tgrid) if args.tgrid else None
        return cmd_response(
            drive=args.drive,
            model_path=args.model,
            chi=args.chi,
            t_grid=grid,
            output_path=args.out,
            output_format=args.format,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
