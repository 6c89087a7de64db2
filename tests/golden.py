"""Committed golden references: the ``results.json`` of every config in ``configs/``, and the key-by-key comparison
acceptance C13 makes against them.

    python tests/golden.py --write

regenerates ``tests/references/<config>.results.json`` from fresh CLI runs at ``TORSIONGEO_THREADS=1``.  A change
that moves a golden commits the new file, so the move shows in review.  The file name keeps pytest from collecting
this module.

Golden values depend on the BLAS thread count: the eigensolve sums in another order, so levels and traces move in
their last digits and ``min_eigenvalue``, rounding noise under the floor, by tens of percent.  A run matches its
reference when
- strings, integers, booleans and nulls are equal;
- ``min_eigenvalue`` is within the eigensolve's rounding floor n eps max(lambda) of its ladder, max(lambda) read
  from the ladder's lowest level;
- ``difference`` is within RELATIVE of the largest level of the payload, as a difference of nearly equal levels;
- ``asymmetry`` and ``invariant_drift``, rounding-level diagnostics, are within RELATIVE absolutely;
- every other number, energies, traces and ``action`` among them, is within RELATIVE of the largest magnitude of
  its list, or of its own magnitude outside a list.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
REFERENCES = Path(__file__).resolve().parent / "references"
CONFIGS = sorted(path.name for path in CONFIG_DIR.glob("*.json"))
RELATIVE = 1e-12
NOISE = ("asymmetry", "invariant_drift")


def reference_path(name: str) -> Path:
    return REFERENCES / f"{Path(name).stem}.results.json"


def _levels(payload):
    """The magnitudes of every level in a payload."""
    for key, value in payload.items():
        if key.startswith("energies"):
            yield from map(abs, value)
        elif isinstance(value, dict):
            yield from _levels(value)


def _floor(ladder: dict, config) -> float:
    """n eps max(lambda) of the ladder's eigensolve on the config's unrefined grid."""
    from torsiongeo.cli import _grid_nodes

    cfg = config.slices
    return _grid_nodes(config) * sys.float_info.epsilon * math.exp(-cfg.eps * min(ladder["energies"]) / cfg.hbar)


def mismatches(result: dict, reference: dict, config) -> list:
    """The paths at which ``result`` departs from ``reference`` (both parsed results.json) beyond the tolerances
    above, in order; ``config`` is the loaded config of the run."""
    level_size = max(_levels(reference), default=0.0)

    def walk(a, b, path, key, scale, ladder):
        if isinstance(b, dict):
            if not isinstance(a, dict) or a.keys() != b.keys():
                yield path
                return
            for k in b:
                yield from walk(a[k], b[k], f"{path}.{k}", k, None, b if "energies" in b else ladder)
        elif isinstance(b, list):
            if not isinstance(a, list) or len(a) != len(b):
                yield path
                return
            size = max((abs(x) for x in b if type(x) is float), default=0.0)
            for k, (x, y) in enumerate(zip(a, b)):
                yield from walk(x, y, f"{path}[{k}]", key, size, ladder)
        elif type(a) is float and type(b) is float:
            if key == "min_eigenvalue":
                tolerance = _floor(ladder, config)
            elif key == "difference":
                tolerance = RELATIVE * level_size
            else:
                tolerance = RELATIVE * (1.0 if key in NOISE else abs(b) if scale is None else scale)
            if not abs(a - b) <= tolerance:
                yield path
        elif type(a) is not type(b) or a != b:
            yield path

    return list(walk(result, reference, "results", None, None, reference))


def write_references() -> None:
    """Run every config as a fresh CLI process at one BLAS thread and keep its results.json as the reference."""
    REFERENCES.mkdir(exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TORSIONGEO_THREADS": "1"}
    with tempfile.TemporaryDirectory(prefix="torsiongeo-golden-") as tmp:
        for name in CONFIGS:
            command = json.loads((CONFIG_DIR / name).read_text())["command"]
            out = Path(tmp) / name
            subprocess.run([sys.executable, "-m", "torsiongeo.cli", command, "--config", str(CONFIG_DIR / name),
                            "--out", str(out)], env=env, check=True, capture_output=True)
            shutil.copyfile(out / "results.json", reference_path(name))
            print(f"wrote {reference_path(name).relative_to(ROOT)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write_references()
