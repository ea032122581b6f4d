"""Span tracing for the traced benchmark run, installed from outside the package.

``Tracer.install`` replaces selected functions of the corrbound modules with
wrappers that record one span per call: name, start, end, parent span and op
id. A function is replaced wherever a corrbound module holds it under a name,
so ``bounds.two_point`` and ``cli.bound_main`` are traced as well as the
definitions in ``correlation`` and ``bounds``. ``RateMatrix._spectral``, the
cached eigendecomposition, gets its own span, once per ``RateMatrix``.
``uninstall`` puts every original back. Spans stay in memory, in flat typed
arrays, until ``save`` writes them out.
"""

from __future__ import annotations

import sys
import weakref
from array import array
from functools import cached_property
from time import perf_counter

import numpy as np
from corrbound import linear_response, markov

# (defining module, attribute): one span per call, named "<module>.<attr>"
# with a leading underscore dropped.
TRACED = (
    ("markov", "propagator"),
    ("markov", "propagator_integral"),
    ("markov", "_integral_apply"),
    ("markov", "steady_state"),
    ("markov", "random_model"),
    ("correlation", "two_point"),
    ("correlation", "correlation_derivative"),
    ("correlation", "multipoint"),
    ("correlation", "mc_two_point"),
    ("bounds", "geodesic_arg"),
    ("bounds", "dynamical_activity"),
    ("bounds", "bound_main"),
    ("bounds", "bound_zero_t"),
    ("bounds", "bound_derivative"),
    ("bounds", "bound_eta"),
    ("bounds", "bound_tangent_tur"),
    ("bounds", "bound_multipoint"),
    ("bounds", "bound_onepoint"),
    ("path_space", "skeleton_distribution"),
    ("path_space", "eta"),
    ("distances", "tvd"),
    ("distances", "bhattacharyya"),
    ("linear_response", "bound_pulse"),
    ("linear_response", "bound_step"),
    ("linear_response", "perturbed_oracle"),
    ("linear_response", "convolved_shift"),
    ("cli", "evaluate_bounds"),
    ("cli", "cmd_stress"),
    ("cli", "cmd_check"),
)
RK4_STEPS_METRIC = "linear_response.perturbed_oracle.rk4_steps"


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """Records spans and layer counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._intervals = weakref.WeakKeyDictionary()  # model -> {(t1, t2)}
        self._rejected: set[bytes] = set()  # rates of models whose eigenbasis was rejected
        self._undo: list = []

    # -- recording -------------------------------------------------------------

    def next_op(self) -> None:
        self.op_id += 1

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, pre=None, post=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, start, end, parent, op, stack = (
            self.name_id, self.start, self.end, self.parent, self.op, self._stack
        )

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            if pre is not None:
                pre(args, kwargs)
            stack.append(idx)
            start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-span counters -------------------------------------------------------

    def _hooks(self) -> dict:
        def nodes(args, kwargs):
            self._add("markov.integral_apply.nodes", np.size(_arg(args, kwargs, 2, "times")))

        def samples(args, kwargs):
            self._add("correlation.mc.samples", _arg(args, kwargs, 5, "n_samples"))

        def paths(args, kwargs):
            W, L = _arg(args, kwargs, 0, "W"), _arg(args, kwargs, 3, "L")
            self._add("path_space.paths", W.n ** (L + 1))

        def distance_bytes(args, kwargs):
            p, q = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "q")
            self._add("distances.bytes_computed", p.probs.nbytes + q.probs.nbytes)

        def interval(args, kwargs):
            W = _arg(args, kwargs, 0, "W")
            key = (float(_arg(args, kwargs, 2, "t1")), float(_arg(args, kwargs, 3, "t2")))
            seen = self._intervals.setdefault(W, set())
            if key not in seen:
                seen.add(key)
                self._add("bounds.geodesic_arg.distinct", 1)

        return {
            "markov.integral_apply": nodes,
            "correlation.mc_two_point": samples,
            "path_space.skeleton_distribution": paths,
            "distances.tvd": distance_bytes,
            "distances.bhattacharyya": distance_bytes,
            "bounds.geodesic_arg": interval,
        }

    # -- install / uninstall -----------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "corrbound" or k.startswith("corrbound.")]
        hooks = self._hooks()
        for module, attr in TRACED:
            original = getattr(sys.modules[f"corrbound.{module}"], attr)
            name = f"{module}.{attr.lstrip('_')}"
            self._replace(modules, original, self.wrap(name, original, pre=hooks.get(name)))

        def rk4_step(*args, **kwargs):
            self._add(RK4_STEPS_METRIC, 1)
            return step(*args, **kwargs)

        step = linear_response._rk4_step
        self._replace(modules, step, rk4_step)

        def rejected(args, kwargs, result):
            # Each op builds its own RateMatrix, so one model is decomposed
            # once per op; count it once, by its rates.
            if result is None:
                self._rejected.add(args[0].w.tobytes())

        cls = markov.RateMatrix
        spectral = cls.__dict__["_spectral"]
        traced = cached_property(self.wrap("markov.spectral", spectral.func, post=rejected))
        traced.__set_name__(cls, "_spectral")
        setattr(cls, "_spectral", traced)
        self._undo.append((cls, "_spectral", spectral))

    def _replace(self, modules, original, replacement) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._undo.append((module, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------------------

    def _arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int64),
        )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Calls, self time and inclusive time per span name, and the derived
        per-layer counters and rates. Self time is a span's duration minus
        the durations of its direct children."""
        name_id, start, end, parent = self._arrays()
        k = len(self.names)
        dur = end - start
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=dur - child, minlength=k)
        incl_s = np.bincount(name_id, weights=dur, minlength=k)
        out: dict[str, tuple[float, str]] = {}
        inclusive = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.self_s"] = (float(self_s[i]), "s")
            inclusive[name] = float(incl_s[i])

        def rate(amount: float, seconds: float) -> float:
            return amount / seconds if seconds > 0.0 else 0.0

        c = self.counts
        geo_calls = out["bounds.geodesic_arg.calls"][0]
        out.update(
            {
                "markov.spectral.reject_count": (len(self._rejected), "count"),
                "markov.integral_apply.nodes": (int(c.get("markov.integral_apply.nodes", 0)), "count"),
                "bounds.geodesic_arg.distinct_share": (
                    rate(c.get("bounds.geodesic_arg.distinct", 0), geo_calls), "share"
                ),
                "correlation.mc.samples_per_s": (
                    rate(c.get("correlation.mc.samples", 0), inclusive["correlation.mc_two_point"]),
                    "1/s",
                ),
                "path_space.paths_per_s": (
                    rate(c.get("path_space.paths", 0), inclusive["path_space.skeleton_distribution"]),
                    "1/s",
                ),
                "distances.bytes_computed": (int(c.get("distances.bytes_computed", 0)), "bytes"),
                RK4_STEPS_METRIC: (int(c.get(RK4_STEPS_METRIC, 0)), "count"),
            }
        )
        return out

    def save(self, path) -> None:
        """Write every span as flat arrays (numpy .npz); ``names[name_id]``
        is a span's name and ``parent`` indexes the same arrays (-1: none)."""
        name_id, start, end, parent = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            start=start,
            end=end,
            parent=parent,
            op=np.frombuffer(self.op, dtype=np.int64),
        )
