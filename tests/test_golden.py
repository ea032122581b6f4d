"""Numeric golden artifacts: the CLI outputs of fixed seeds against tracked
files under ``tests/golden/``.

Strings, booleans and integers (bound ids, domain flags, cmax modes,
evaluation and violation counts, the worst case's model) and the order of
rows and keys must match exactly; floats must agree to within 1e-12
relative, and a zero must stay exactly zero. A change that moves bits on
purpose keeps this test while the sha256 pins of ``test_cli.py`` must be
re-pinned. The 200-state ``check``, whose bits depend on the BLAS build,
is not in the set.

Regenerate the golden files, after checking why they changed, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

from corrbound.bounds import BOUND_IDS
from corrbound.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

# file or directory under the golden root -> the CLI arguments that write it
ARTIFACTS = {
    "stress-500-31415.json": ["stress", "--models", "500", "--seed", "31415"],
    "stress-90-7.json": ["stress", "--models", "90", "--seed", "7"],
    "figure2-10": ["figure2", "--models", "10"],
    "figure3": ["figure3"],
    **{
        f"check-{n}.json": ["check", "--states", str(n), "--seed", "1",
                            "--bounds", ",".join(BOUND_IDS), "--format", "json"]
        for n in (3, 12, 64)
    },
    "check-12-tight.csv": ["check", "--states", "12", "--seed", "1", "--cmax", "tight"],
    **{f"response-{drive}.csv": ["response", "--drive", drive] for drive in ("pulse", "step")},
    "response-step.json": ["response", "--drive", "step", "--format", "json"],
}


def generate(root: Path) -> None:
    """Write every artifact under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    for name, argv in ARTIFACTS.items():
        main([*argv, "--out", str(root / name)])


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


if __name__ == "__main__":
    generate(GOLDEN)
