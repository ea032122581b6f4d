"""Numeric golden artifacts: the CLI outputs of fixed seeds against tracked
files under ``tests/golden/``.

Strings, booleans and integers (bound ids, domain flags, cmax modes,
evaluation and violation counts, the worst case's model) and the order of
rows and keys must match exactly; floats must agree to within 1e-12
relative, and a zero must stay exactly zero. A change that moves bits on
purpose keeps this test while the sha256 pins of ``test_cli.py`` must be
re-pinned. The 200-state ``check``, whose bits depend on the BLAS build,
is not in the set.

The model files under ``tests/models/`` pin one regime each:
- ``stiff6``, a 6-state chain with rates from 1e-4 to 1e4, and
  ``scaled4-1e6``, a random 4-state model with its rates scaled by 1e6:
  the refinement of stiff plans from t = 0;
- ``stiff3``, a 3-state chain with one rate of 1.5e11 whose eigenbasis is
  refused: the expm regime, at ratios within 4e-12 of saturation;
- ``jordan4``, the chain 0 -> 1 -> 2 -> 3 at one rate: one 3x3 Jordan
  block, defective, the expm regime;
- ``absorbing3``, a 3-state chain with two absorbing states: no unique
  stationary law, so the pulse and step bounds fail and the run exits 2
  with the rows of the other ten;
- ``ring3``, a driven 3-state ring: a complex spectrum;
- ``random4-1e150`` and ``random4-1e-150``, random_model(4, 1) with its
  rates scaled by 1e150 and by 1e-150, on the grid scaled back: the
  ratios of the unscaled model.
Their paths are given relative to the repository root, which the model
path in each artifact's meta records. On one machine every file
regenerates byte for byte, run to run and without scipy; on another,
``check-64`` and ``check-stiff6`` have moved in their last bits, within
the 1e-12.

Regenerate the golden files, after checking why they changed, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import os
from pathlib import Path

from corrbound.bounds import BOUND_IDS
from corrbound.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
RTOL = 1e-12
ALL_BOUNDS = ",".join(BOUND_IDS)

# model file under tests/models -> the time grid it is checked on
MODEL_GRIDS = {
    "stiff6": "1e-2:1e4:20:log",
    "scaled4-1e6": "1e-2:1e4:20:log",
    "stiff3": "1e-2:10:20:log",
    "jordan4": "1e-2:10:20:log",
    "absorbing3": "1e-2:10:20:log",
    "ring3": "1e-2:10:20:log",
    "random4-1e150": "1e-152:1e-149:20:log",
    "random4-1e-150": "1e148:1e151:20:log",
}

# file or directory under the golden root -> the CLI arguments that write it
ARTIFACTS = {
    "stress-500-31415.json": ["stress", "--models", "500", "--seed", "31415"],
    "stress-90-7.json": ["stress", "--models", "90", "--seed", "7"],
    "figure2-10": ["figure2", "--models", "10"],
    "figure3": ["figure3"],
    **{
        f"check-{n}.json": ["check", "--states", str(n), "--seed", "1",
                            "--bounds", ALL_BOUNDS, "--format", "json"]
        for n in (3, 12, 64)
    },
    **{
        f"check-{name}.json": ["check", "--model", f"tests/models/{name}.json",
                               "--tgrid", tgrid, "--bounds", ALL_BOUNDS, "--format", "json"]
        for name, tgrid in MODEL_GRIDS.items()
    },
    "check-12-tight.csv": ["check", "--states", "12", "--seed", "1", "--cmax", "tight"],
    **{f"response-{drive}.csv": ["response", "--drive", drive] for drive in ("pulse", "step")},
    "response-step.json": ["response", "--drive", "step", "--format", "json"],
}


def generate(root: Path) -> None:
    """Write every artifact under ``root``, run from the repository root so
    that model paths read as they are recorded."""
    root.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for name, argv in ARTIFACTS.items():
            main([*argv, "--out", str(root / name)])
    finally:
        os.chdir(cwd)


def _csv_values(text: str) -> list:
    """Comment lines as they are, every other line as its fields."""
    return [line if line.startswith("#") else line.split(",") for line in text.splitlines()]


def _real(x):
    """A finite JSON number, or a CSV field holding one, as a float; None
    for booleans, other strings and non-finite values."""
    if isinstance(x, str):
        try:
            x = float(x)
        except ValueError:
            return None
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
        return None
    return float(x)


def deviation(got, want, where: str = "") -> tuple[float, str]:
    """The largest relative deviation of a float in ``got`` from ``want``,
    and where it is; any other difference fails, naming where it is."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        pairs = [(got[k], want[k], f"{where}/{k}") for k in want]
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        pairs = [(g, w, f"{where}[{i}]") for i, (g, w) in enumerate(zip(got, want))]
    else:
        g, w = _real(got), _real(want)
        if g is None or w is None or w == 0.0 or type(got) is type(want) is int:
            assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"
            return 0.0, where
        return abs(g - w) / abs(w), where
    return max((deviation(*pair) for pair in pairs), default=(0.0, where))


def _load(path: Path):
    text = path.read_text(encoding="utf-8")
    return json.loads(text) if path.suffix == ".json" else _csv_values(text)


def test_artifacts_match_golden_files(tmp_path):
    generate(tmp_path)
    want = sorted(p.relative_to(GOLDEN) for p in GOLDEN.rglob("*") if p.is_file())
    got = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert got == want
    dev, where = max(deviation(_load(tmp_path / n), _load(GOLDEN / n), str(n)) for n in want)
    print(f"largest relative deviation from the golden files: {dev:.3g} at {where}")
    assert dev <= RTOL, f"relative deviation {dev:.3g} at {where}"


def test_missing_law_exits_two_with_the_other_rows(tmp_path, capsys, monkeypatch):
    # the two absorbing states leave the pulse and step bounds without a
    # stationary law; each is named once and the other ten write their rows
    out = tmp_path / "absorbing3.json"
    monkeypatch.chdir(ROOT)
    assert main([*ARTIFACTS["check-absorbing3.json"], "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bid}: generator kernel has dimension 2; need exactly 1"
        for bid in ("PULSE_EQ11", "STEP_EQ12")
    ]
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    others = [bid for bid in BOUND_IDS if bid not in ("PULSE_EQ11", "STEP_EQ12")]
    assert len(others) == 10
    assert [r["bound_id"] for r in rows] == others * 20


if __name__ == "__main__":
    generate(GOLDEN)
