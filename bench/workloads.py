"""The four benchmark workloads: seeded inputs, the calls they make, output checks.

A workload turns a seed into a fixed list of calls into the package. The
timed loop runs the calls in order, over and over, and times each call on
its own. Running a call returns one ``Outcome`` per op; for every workload
but stress_small a call is one op. The benchmark compares the outcomes of
every repeat of a call with those of its first run, so an answer that
changes between repeats is caught as well as a wrong one.

Every call into the package goes through a module attribute
(``cli.cmd_stress``, not a name bound at import), so that the traced run,
which replaces those attributes with timing wrappers, sees each call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from corrbound import bounds, cli, correlation, linear_response, markov, path_space
from corrbound.errors import CorrboundError

# An op fails its check when a bound ratio exceeds this (the package's own
# slack), or when two verification routes disagree beyond the limits below.
RATIO_LIMIT = 1.0 + bounds.RATIO_SLACK
MC_Z_LIMIT = 5.0  # |MC mean - two_point| in standard errors
RK4_ERR_LIMIT = 10.0  # times chi**2: the second-order term of the step response
CONV_RTOL, CONV_ATOL = 1e-4, 1e-9  # trapezoidal convolution against the closed form

DEFAULT_GRID = np.geomspace(1e-2, 10.0, 20)


@dataclass(frozen=True)
class Outcome:
    """Result of one op.

    ``status`` is ``"ok"``, ``"violation"`` (a ratio above the limit),
    ``"disagree"`` (two routes disagree) or the class name of the
    ``CorrboundError`` the op raised, with ``where`` naming the bound id or
    route that raised it. ``rows`` is the op's tally, one
    ``(bound_id, evaluations, violations, max_ratio)`` row per bound;
    ``route`` holds an oracle route's name and compared values. Floats are
    17-digit text, so equal outcomes mean bit-identical results.
    """

    status: str
    rows: tuple = ()
    route: tuple = ()
    where: str = ""

    @property
    def wrong(self) -> bool:
        return self.status in ("violation", "disagree")


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # what one op is, for the printed summary
    make_calls: Callable[[int], list]  # seed -> call inputs
    run_call: Callable[[object], list]  # call input -> one Outcome per op
    warmup: Callable[[object], object]  # first call input -> one untimed op


def _rng(workload: str, seed: int) -> random.Random:
    # Inputs come from the benchmark's own seed derivation, never from the
    # package's generators, except where a workload names random_model.
    return random.Random(f"{workload}:{seed}")


def _tally(pairs) -> Outcome:
    """Outcome of an op that produced ``(bound_id, ratio)`` pairs."""
    cells: dict = {}
    for bid, ratio in pairs:
        evals, viol, top = cells.get(bid, (0, 0, 0.0))
        cells[bid] = (evals + 1, viol + (not ratio <= RATIO_LIMIT), max(top, ratio))
    rows = tuple((bid, e, v, bounds.fmt17(m)) for bid, (e, v, m) in sorted(cells.items()))
    return Outcome("violation" if any(r[2] for r in rows) else "ok", rows=rows)


def _raw_model(W, p0, S) -> tuple:
    """Plain arrays of a model; each op builds its own package objects."""
    return (np.array(W.w), np.array(p0.p), np.array(S.s))


def _build(raw) -> tuple:
    w, p, s = raw
    return markov.validate_rate_matrix(w), markov.ProbVector(p), markov.ScoreVector(s)


# --- stress_small -----------------------------------------------------------
# Why: cli.cmd_stress over random models with n cycling 2, 3, 4, all 12
# bounds and the default 20-point log grid; an op is one model. Per-call
# Python overhead and the activity integral (bounds.geodesic_arg plus
# markov._integral_apply) dominate it, so it is the workload where a
# per-model evaluation plan, a geodesic_arg cache or batching across models
# shows. It makes one cmd_stress call over all its models, rather than
# looping per model, so that cross-model batching stays visible: the call
# holds STRESS_MODELS models, the count of the `figure2 --models 100` CLI
# traffic, so each n-group has 33 or 34 models to batch. Linear algebra is
# small here.
STRESS_MODELS = 100


def _stress_calls(seed: int) -> list:
    return [_rng("stress_small", seed).randrange(2**63)]


def _stress(stress_seed: int, n_models: int = STRESS_MODELS) -> list[Outcome]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code, tally = cli.cmd_stress(n_models=n_models, n_list=(2, 3, 4), seed=stress_seed)
    try:
        printed = json.loads(out.getvalue())["tally"]
    except ValueError:  # e.g. an infinite ratio printed as "inf"
        printed = None
    rows = tuple(
        (bid, cell["evaluations"], cell["violations"], bounds.fmt17(cell["max_ratio"]))
        for bid, cell in sorted(tally.items())
    )
    bad = (
        code != 0
        or printed != tally
        or any(c["violations"] or not c["max_ratio"] <= RATIO_LIMIT for c in tally.values())
    )
    # The tally is per call, so a violation cannot be pinned to one model:
    # every model of a call that reports one counts as failed.
    status = "violation" if bad else "ok"
    return [Outcome(status, rows=rows)] + [Outcome(status)] * (n_models - 1)


# --- large_n ----------------------------------------------------------------
# Why: cli.cmd_check with all 12 bound ids on seeded random models at n = 64
# and n = 200; an op is one model. Linear algebra dominates: dense propagator
# formation inside correlation.two_point, the SVD in markov.steady_state and
# the eigendecomposition. Python-overhead work barely moves it, propagation
# changes do. It is the contrast workload for stress_small.
LARGE_SIZES = (64, 200)
LARGE_PAIRS = 2


def _large_calls(seed: int) -> list:
    rng = _rng("large_n", seed)
    return [(n, rng.randrange(2**63)) for _ in range(LARGE_PAIRS) for n in LARGE_SIZES]


def _check_model(call) -> list[Outcome]:
    n, model_seed = call
    config = cli.RunConfig(
        t_grid=DEFAULT_GRID, bounds=bounds.BOUND_IDS, gen_states=n, seed=model_seed
    )
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.cmd_check(config)
    except CorrboundError as exc:
        return [Outcome(type(exc).__name__, where=f"n={n}")]
    lines = [ln for ln in out.getvalue().splitlines() if not ln.startswith("#")]
    outcome = _tally((r["bound_id"], float(r["ratio"])) for r in csv.DictReader(lines))
    if (code != 0) != (outcome.status != "ok"):  # exit code disagrees with the rows
        return [Outcome("violation", rows=outcome.rows)]
    return [outcome]


# --- hard_generators ----------------------------------------------------------
# Why: generators the eigenbasis path cannot take or that break validation.
# cli.evaluate_bounds is called once per (model, bound id); an op is one call
# and fails if it raises a CorrboundError. The defective Jordan chain loads
# the markov layer through the scipy.linalg.expm fallback and the 2n-block
# propagator_integral path that the other workloads bypass. The known
# failures are counted, not avoided: NotNormalizedError on the ONEPOINT_*
# bounds of the rate-scaled and stiff models (whenever propagate's sum check
# trips, which depends on the seed) and NonUniqueSteadyStateError on
# PULSE/STEP for the reducible chain.
HARD_COPIES = 4  # models of each kind
STIFF_GRID = np.geomspace(1e-2, 1e4, 20)


def _defective(rng: np.random.Generator):
    """Chain 0 -> 1 -> 2 -> 3 at one rate: a single 3x3 Jordan block."""
    w = np.zeros((4, 4))
    k = rng.uniform(0.5, 2.0)
    for i in range(3):
        w[i + 1, i] = k
    return w, rng.dirichlet(np.ones(4)), rng.uniform(-1.0, 1.0, 4)


def _stiff(rng: np.random.Generator):
    """Dense 6-state chain, rates log-uniform on [1e-4, 1e4]."""
    w = 10.0 ** rng.uniform(-4.0, 4.0, size=(6, 6))
    np.fill_diagonal(w, 0.0)
    return w, rng.dirichlet(np.ones(6)), rng.uniform(-1.0, 1.0, 6)


def _scaled(model_seed: int):
    """random_model(4, seed) in other time units: W times 1e6."""
    w, p, s = _raw_model(*markov.random_model(4, model_seed))
    return w * 1e6, p, s


def _reducible(rng: np.random.Generator):
    """States 0 and 3 absorb; 1 and 2 exchange and leak into both."""
    w = np.zeros((4, 4))
    for nu, mu in ((0, 1), (2, 1), (1, 2), (3, 2)):
        w[nu, mu] = rng.uniform(0.5, 2.0)
    return w, rng.dirichlet(np.ones(4)), rng.uniform(-1.0, 1.0, 4)


def _hard_calls(seed: int) -> list:
    rng = _rng("hard_generators", seed)

    def gen():
        return np.random.default_rng(rng.randrange(2**63))

    models = []
    for _ in range(HARD_COPIES):
        models.append((_defective(gen()), DEFAULT_GRID))
        models.append((_stiff(gen()), STIFF_GRID))
        models.append((_scaled(rng.randrange(2**63)), DEFAULT_GRID))
        models.append((_reducible(gen()), DEFAULT_GRID))
    return [(raw, grid, bid) for raw, grid in models for bid in bounds.BOUND_IDS]


def _hard_op(call) -> list[Outcome]:
    raw, grid, bid = call
    W, p0, S = _build(raw)
    try:
        reports = cli.evaluate_bounds(W, p0, S, S, grid, (bid,))
    except CorrboundError as exc:
        return [Outcome(type(exc).__name__, where=bid)]
    return [_tally((r.bound_id, r.ratio) for r in reports)]


# --- oracles ------------------------------------------------------------------
# Why: the three independent verification routes, which no other workload
# runs: skeleton enumeration (path_space.skeleton_distribution and the fsum
# passes in distances), the ensemble Gillespie sampler behind
# correlation.mc_two_point, and the RK4 integrator of
# linear_response.perturbed_oracle next to the trapezoidal convolved_shift.
# An op is one route check; the bound layers do little here. Work per check
# is fixed rather than left to the random rates: the MC horizon is MC_JUMPS
# mean holding times of the initial law, and RK4 always takes RK4_STEPS
# steps of dt = 1e-3 / max escape rate.
ORACLE_SETS = 4  # each: skeletons at n=3, L=10 and n=4, L=8; MC; RK4; convolution
MC_SAMPLES = 200_000
MC_JUMPS = 2.0
RK4_STEPS = 2000
CHI = 0.01


def _oracle_calls(seed: int) -> list:
    rng = _rng("oracles", seed)

    def model(n: int) -> tuple:
        return _raw_model(*markov.random_model(n, rng.randrange(2**63)))

    calls = []
    for _ in range(ORACLE_SETS):
        calls += [
            ("path", model(3), 10, rng.uniform(0.0, 0.3), rng.uniform(0.5, 1.0)),
            ("path", model(4), 8, rng.uniform(0.0, 0.3), rng.uniform(0.5, 1.0)),
            ("mc", model(3), rng.randrange(2**63)),
            ("rk4", model(3)),
            ("conv", model(3)),
        ]
    return calls


def _path_route(raw, L: int, t1: float, t2: float) -> Outcome:
    W, p0, _ = _build(raw)
    rep = path_space.verify_path_inequalities(W, p0, 1.0, L, t1, t2)
    route = (
        "path", W.n, L, rep.tvd_ok, rep.bhat_ok,
        bounds.fmt17(rep.tvd_path), bounds.fmt17(rep.bhat_path),
    )
    return Outcome("ok" if rep.tvd_ok and rep.bhat_ok else "disagree", route=route)


def _mc_route(raw, mc_seed: int) -> Outcome:
    W, p0, S = _build(raw)
    t = MC_JUMPS / bounds.activity_rate(W, p0)
    est, se = correlation.mc_two_point(W, p0, S, S, t, MC_SAMPLES, mc_seed)
    z = (est - correlation.two_point(W, p0, S, S, t)) / se
    return Outcome("ok" if abs(z) <= MC_Z_LIMIT else "disagree", route=("mc", bounds.fmt17(z)))


def _rk4_route(raw) -> Outcome:
    W, _, S = _build(raw)
    pst = markov.steady_state(W)
    F = linear_response.canonical_perturbation(W, S)
    dt = 1e-3 / float(W.escape.max())
    drive = linear_response.StepDrive()
    series = linear_response.perturbed_oracle(W, F, CHI, drive, RK4_STEPS * dt, dt)
    shifts = series.shift(S)
    probes = np.linspace(0, len(series.times) - 1, 10).astype(int)
    err = max(
        abs(shifts[k] - linear_response.step_shift(W, pst, S, S, CHI, float(series.times[k])))
        for k in probes
    )
    ok = err <= RK4_ERR_LIMIT * CHI**2
    return Outcome("ok" if ok else "disagree", route=("rk4", bounds.fmt17(err)))


def _conv_route(raw) -> Outcome:
    W, _, S = _build(raw)
    pst = markov.steady_state(W)
    F = linear_response.canonical_perturbation(W, S)
    drive = linear_response.SampledDrive(np.linspace(0.0, 2.0, 2001), np.ones(2001))
    got = linear_response.convolved_shift(W, pst, F, S, CHI, drive, 1.5, 1e-3)
    expect = linear_response.step_shift(W, pst, S, S, CHI, 1.5)
    ok = abs(got - expect) <= CONV_RTOL * abs(expect) + CONV_ATOL
    return Outcome("ok" if ok else "disagree", route=("conv", bounds.fmt17(got - expect)))


_ROUTES = {"path": _path_route, "mc": _mc_route, "rk4": _rk4_route, "conv": _conv_route}


def _oracle_op(call) -> list[Outcome]:
    kind, *args = call
    try:
        return [_ROUTES[kind](*args)]
    except CorrboundError as exc:
        return [Outcome(type(exc).__name__, where=kind)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stress_small",
            f"one model; the call is cmd_stress over {STRESS_MODELS}",
            _stress_calls,
            _stress,
            lambda stress_seed: _stress(stress_seed, 1),
        ),
        Workload("large_n", f"cmd_check of one model, n in {LARGE_SIZES}", _large_calls, _check_model, _check_model),
        Workload("hard_generators", "evaluate_bounds for one (model, bound id)", _hard_calls, _hard_op, _hard_op),
        Workload("oracles", "one route check", _oracle_calls, _oracle_op, _oracle_op),
    )
}


def fingerprint(call_outcomes: list[list[Outcome]]) -> dict:
    """Per bound id: evaluations, violations and max ratio; per error class
    and per (class, bound id or route): failed ops; per oracle route: its
    compared values, in op order."""
    tally: dict = {}
    by_class: dict = {}
    by_site: dict = {}
    routes = []
    for outcomes in call_outcomes:
        for o in outcomes:
            if o.where:
                by_class[o.status] = by_class.get(o.status, 0) + 1
                site = f"{o.status} at {o.where}"
                by_site[site] = by_site.get(site, 0) + 1
            if o.route:
                routes.append(list(o.route))
            for bid, evals, viol, top in o.rows:
                cell = tally.setdefault(bid, [0, 0, 0.0])
                cell[0] += evals
                cell[1] += viol
                cell[2] = max(cell[2], float(top))
    return {
        "bounds": {
            bid: {"evaluations": e, "violations": v, "max_ratio": bounds.fmt17(m)}
            for bid, (e, v, m) in sorted(tally.items())
        },
        "failures_by_class": dict(sorted(by_class.items())),
        "failures_by_site": dict(sorted(by_site.items())),
        "routes": routes,
    }
