"""The names the benchmark's traced run patches must keep existing.

``bench/tracing.py`` replaces package functions by name and wraps the
cached eigendecomposition; a refactor that drops or renames one of them
makes ``bench/run.py --trace 1`` crash instead of measuring.
"""

import importlib
import importlib.util
from functools import cached_property
from pathlib import Path

import pytest

from corrbound import linear_response, markov

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module, attr", _traced_names())
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"corrbound.{module}"), attr))


def test_rk4_step_resolves():
    assert callable(linear_response._rk4_step)


def test_spectral_is_a_cached_property():
    assert isinstance(markov.RateMatrix.__dict__["_spectral"], cached_property)
