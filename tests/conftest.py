# One BLAS/OpenMP thread for the suite unless the caller set a count: the
# per-point LAPACK calls on 2x2 matrices wait on thread hand-off otherwise,
# so wall time would follow machine load.  This runs before numpy loads.

import os
from pathlib import Path

import pytest
from hypothesis import Phase, settings

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

# tests/mutants.py loads this profile: a mutant is killed by a failing example, not by its smallest one
settings.register_profile("mutants", phases=[phase for phase in Phase if phase not in (Phase.shrink, Phase.explain)])


@pytest.fixture
def cli_env() -> dict:
    """The environment of a fresh process that runs the package under test: this one's, with the directory the
    package was imported from first on PYTHONPATH, as an absolute path, so it holds in any working directory."""
    import torsiongeo

    src = str(Path(torsiongeo.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
