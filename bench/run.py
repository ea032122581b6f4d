#!/usr/bin/env python3
"""corrbound benchmark: four seeded workloads run against the package's public
functions, single-process, on the default serial path.

Run from the repository root:

    python3 bench/run.py --workload stress_small --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs every call once untraced and once traced, checks that both give the
same fingerprint bit for bit, and reports the per-layer metrics; its spans go
to ``bench/out/spans-<workload>-seed<seed>.npz``. ``--workload all`` runs each
workload named in BENCHMARK.json in a child process of its own, since set-up
time and peak memory are per process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are those
that BENCHMARK.json lists. The lines before it give every metric by name and
unit, the failed share, failures per error class and the result fingerprint;
the full record, with the run environment, goes to
``bench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Bytecode of every module imported after start-up, the package's included,
# is cached here rather than beside its source, and written even where
# PYTHONDONTWRITEBYTECODE is set. Every run then imports the same way,
# whether or not the tests have left __pycache__ directories in the
# checkout; the first run in a checkout fills the cache.
PYCACHE = OUT / "pycache"
SPEC = ROOT / "BENCHMARK.json"

# Set-up is timed in this many fresh child processes and in this process;
# the median of all of them is reported.
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def set_up(workload: str, seed: int):
    """Import corrbound, generate the workload's inputs, run one untimed
    warm-up op. Returns (seconds, workload, call inputs)."""
    t0 = time.perf_counter()
    import corrbound

    if Path(corrbound.__file__).resolve().parent != SRC / "corrbound":
        raise BenchError(f"corrbound imported from {corrbound.__file__}, not from {SRC}")
    import workloads  # imports numpy and the package modules: part of set-up

    wl = workloads.WORKLOADS[workload]
    calls = wl.make_calls(seed)
    wl.warmup(calls[0])
    return time.perf_counter() - t0, wl, calls


def _child(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def probe_setup(workload: str, seed: int) -> float:
    proc = _child(["--workload", workload, "--seed", str(seed), "--setup-probe"])
    return float(proc.stdout.strip().splitlines()[-1])


def _completed(outcomes) -> int:
    return sum(o.status == "ok" for o in outcomes)


def timed_run(wl, calls, seconds: float) -> dict:
    """Run the calls in order, cycling, until ``seconds`` have passed and
    every call has run at least once, timing each call. Throughput is the
    completed ops of one pass over the calls divided by the sum of each
    call's mean time over its repeats: ops per second of the timed
    section, with each input counted once however often it ran.

    Attempted and failed ops are counted the same way, over one pass: a
    repeat must give the first run's outcomes, or the run is not
    repeatable, so the counts depend on the seed alone and not on how many
    repeats the deadline allowed."""
    times: list[list[float]] = [[] for _ in calls]
    first: list = [None] * len(calls)
    repeatable = True
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(calls) or time.perf_counter() < deadline:
        c = i % len(calls)
        t0 = time.perf_counter()
        outcomes = wl.run_call(calls[c])
        times[c].append(time.perf_counter() - t0)
        if first[c] is None:
            first[c] = outcomes
        elif outcomes != first[c]:
            repeatable = False
        i += 1
    ops = [o for call in first for o in call]
    return {
        "outcomes": first,
        "attempted": len(ops),
        "failed": len(ops) - _completed(ops),
        "repeatable": repeatable,
        "ops_per_s": sum(_completed(o) for o in first) / sum(map(statistics.mean, times)),
        "call_times": times,
    }


def traced_run(wl, calls, seed: int, spans_path: Path) -> dict:
    """Every call once untraced and once under the tracer, back to back in
    alternating order, so that drift in machine speed cancels out of the
    overhead. The traced inputs are generated again under the tracer; spans
    of that generation carry op id -1, and each traced call gets the next."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_calls = wl.make_calls(seed)
    finally:
        tracer.uninstall()

    outcomes: dict = {False: [], True: []}
    seconds = {False: 0.0, True: 0.0}
    for c, inputs in enumerate(zip(calls, traced_calls)):
        for traced in (False, True) if c % 2 == 0 else (True, False):
            if traced:
                tracer.install()
                tracer.next_op()
            t0 = time.perf_counter()
            try:
                outcomes[traced].append(wl.run_call(inputs[traced]))
            finally:
                tracer.uninstall()  # a no-op when not installed
            seconds[traced] += time.perf_counter() - t0
    tracer.save(spans_path)
    layers = tracer.layer_metrics()
    layers["trace.overhead_share"] = ((seconds[True] - seconds[False]) / seconds[False], "share")
    ops = [o for call in outcomes[False] for o in call]
    return {
        "outcomes": outcomes[False],
        "attempted": len(ops),
        "failed": len(ops) - _completed(ops),
        "repeatable": outcomes[False] == outcomes[True],
        "available": layers,
        "pass_s": {"untraced": seconds[False], "traced": seconds[True]},
        "spans": len(tracer.name_id),
    }


def environment(seed: int, threads_env: str | None) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas_desc = "unknown"
    sha = None
    if (ROOT / ".git").exists():  # a plain source checkout has no history
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "corrbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_desc,
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "CORRBOUND_THREADS": threads_env,  # as found; the run itself has it unset
        "pycache_prefix": str(PYCACHE.relative_to(ROOT)),
    }


def _select(available: dict, wanted: list[dict]) -> dict:
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        if name not in available:
            raise BenchError(f"BENCHMARK.json lists {name!r}, which this run does not measure")
        value, unit = available[name]
        if unit != spec["unit"]:
            raise BenchError(f"{name}: unit {unit!r} here, {spec['unit']!r} in BENCHMARK.json")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_workload(args, threads_env: str | None) -> dict:
    spec = json.loads(SPEC.read_text())
    # The probes run first, so that a cold bytecode cache is filled by a
    # child and compiling never adds to this process's peak memory.
    probes = [] if args.trace or args.setup_probe else [
        probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
    ]
    setup_main, wl, calls = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_main))
        return {}
    OUT.mkdir(exist_ok=True)
    import workloads

    if args.trace:
        run = traced_run(wl, calls, args.seed, OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics = _select(run["available"], spec["per_layer"])
    else:
        run = timed_run(wl, calls, args.seconds)
        setups = probes + [setup_main]
        run["setup_samples"] = setups
        available = {
            "ops_per_s": (run["ops_per_s"], "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = _select(available, spec["end_to_end"])
    fp = workloads.fingerprint(run["outcomes"])
    wrong = sum(o.wrong for outcomes in run["outcomes"] for o in outcomes)
    correct = run["repeatable"] and wrong == 0
    failed_share = run["failed"] / run["attempted"]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: op = {wl.op}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:<24.10g} {m['unit']}")
    print(f"  {'failed_share':<48} {failed_share:<24.10g} share ({run['failed']} of {run['attempted']} ops)")
    print(f"  failures by error class: {json.dumps(fp['failures_by_class'])}")
    print(f"  failures by site: {json.dumps(fp['failures_by_site'])}")
    if not run["repeatable"]:
        print("  NOT REPEATABLE: a call gave different outcomes on another run")
    if wrong:
        print(f"  WRONG OUTPUTS: {wrong} ops over the calls' first runs")
    fp_text = json.dumps(fp, sort_keys=True)
    print(f"  fingerprint sha256 {hashlib.sha256(fp_text.encode()).hexdigest()}")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed, threads_env),
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failed_share": failed_share,
        "metrics": metrics,
        "fingerprint": fp,
        **{k: run[k] for k in ("call_times", "setup_samples", "pass_s", "spans") if k in run},
    }
    if args.trace:
        record["all_layer_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in run["available"].items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(f"  environment: {json.dumps(record['environment'], sort_keys=True)}")
    return {"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}


def run_all(args) -> dict:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in json.loads(SPEC.read_text())["workloads"]:
        argv = ["--workload", w["name"], "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        lines = _child(argv).stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{w['name']}.{name}"] = m
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "corrbound" / "__init__.py").is_file():
        print(f"error: no corrbound package under {SRC}", file=sys.stderr)
        return 2
    threads_env = os.environ.pop("CORRBOUND_THREADS", None)  # children inherit the unset
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args, threads_env)
    except (BenchError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
