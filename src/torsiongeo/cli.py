"""
Batch command-line interface.

    torsiongeo <command> --config <path> [--out <dir>] [--seed <u64>]
    torsiongeo report --out <dir>

Commands: ``geom`` (tensor tables at points), ``traj`` (integrate a geodesic
or autoparallel), ``defect`` (Burgers vector / Frank deficit of a contour),
``propagate`` (sliced Euclidean propagator and spectrum), and
``compare-measures`` (difference-measure vs position-measure energy ladders).
``report`` pretty-prints the artifacts of a previous run.

Energies are the eigen-energies -hbar ln(lambda) / eps, with multiplicity, of the
transfer matrix ``propagate`` diagonalized; the trace fit is only an oracle.

The config is one flat JSON object whose keys and rules are the ``KEYS`` table
(``SliceConfig`` states the slice keys' rules and defaults) and whose size bounds
the ``BUDGETS`` table; every validation error names the offending key.  Outputs
are ``results.json`` (byte-stable for a fixed config), ``manifest.json`` (config
hash, versions, wall time, per-stage seconds; the only file with a timestamp),
and command-specific CSV files.
Exit codes: 0 success (also when the reader closes stdout early), 1 computation
error, 2 config error.  The environment variable ``TORSIONGEO_THREADS`` (a
positive integer) caps BLAS/OpenMP parallelism: ``main`` copies it into
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` before
numpy is first imported.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

from .errors import ConfigError, ParseError, SpectrumUnresolved, TorsionGeoError, ValidationError

COMMANDS = ("geom", "traj", "defect", "propagate", "compare-measures")
SPECTRUM = ("propagate", "compare-measures")
# the geometries (by name or topology) a command runs on; absent: any
_RUNS_ON = {"defect": ("dislocation", "disclination"), **dict.fromkeys(SPECTRUM, ("line", "circle", "sphere"))}
REQUIRED = "required"
_SLICE_FIELDS = {"N": "n_slices", **{key: key for key in ("eps", "mass", "hbar", "scheme", "order", "measure")}}
# Size budgets, key: (bound, what its size counts), per topology where a dict; extrapolated from one-core runs below.
BUDGETS = {
    # 1000x the committed configs and benchmark jobs. 2-d sphere runs of 1e5 and 2e5 steps took 25 s / 112 MB and
    # 47 s / 187 MB peak resident (one core), so the budget bounds a run at about 4 minutes and 0.8 GB.
    "dt": (10**6, "RK4 steps"),
    # 1000x the golden contour: 1e6 and 4e6 vertices took 0.6 s / 132 MB and 2.1 s / 400 MB, so about 5 s / 0.9 GB.
    **dict.fromkeys(("contour_segments", "contour_turns"), (10**7, "contour vertices (segments x turns)")),
    # 1e4 and 2e4 torsion-toy points took 5 s / 146 MB and 10 s / 256 MB: about 25 s, 0.6 GB, 86 MB of results.json.
    "n_points": (5 * 10**4, "points"),
    # Circle compare-measures runs with richardson took 0.9 s / 44 MB at N = 1e4 and 5.3 s / 60 MB at N = 1e5, so
    # about a minute, 0.3 GB and a 65 MB results.json at 1e6; N also bounds the default tau_values.
    "N": (10**6, "slices"),
    # 4x the committed line job and refined sphere grid, 8x the circle grid.  2048 line points took 2.3 s / 225 MB
    # peak resident (about 20 s / 0.8 GB at 4096), 512 circle points with 875 winding images 10 s (about 3 minutes
    # at 2048 with 1025), and 724 sphere nodes at order 2 and the finest eps they resolve 8.8 s (25 s at 1024).
    "grid_points": ({"line": 4096, "circle": 2048, "sphere": 1024}, "nodes, counting richardson's refined grid"),
    # The zeta sum grows by |m| nodes: 15 ns an entry and kernel term at 176 nodes, so about a minute per term.
    "m_sector": (4 * 10**9, "sphere kernel entries (nodes^2 / 2 x m_sector)"),
    # 8x the benchmark's 2 x 1024^2: 2 x 2048^2 took 10 s and 180 MB more and wrote 182 MB, so about 21 s and 0.4 GB.
    "amplitude_taus": (2**24, "stored kernel entries (times x nodes^2)"),
}


def _finite(value) -> bool:
    """A JSON number, not a bool, within the float range."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _positive(value, run=None) -> bool:
    return _finite(value) and value > 0


def _count(lo: int):
    return lambda value, run: type(value) is int and value >= lo


def _vector(length=None):
    """A list of finite numbers, ``length`` long (default: the geometry's dimension)."""
    return lambda value, run: (isinstance(value, list) and len(value) == (length or run.geom.dim)
                               and all(map(_finite, value)))


def _multiples(times, step) -> bool:
    """Each time is a positive whole multiple of ``step`` (see ``slicing.whole_steps``)."""
    from .slicing import whole_steps

    return all(_positive(t) and whole_steps(t, step) for t in times)


def _amplitude_csv(tau) -> str:
    """The file name of the amplitude CSV of time ``tau``, as ``perfbench/oracles.py`` also reads it."""
    return f"amplitude_tau_{float(tau):g}.csv"


def _contour_file(path):
    """The contour the file holds (``io.read_contour_csv`` runs ``Contour``'s own checks), or None."""
    from .io import read_contour_csv

    try:
        return read_contour_csv(path)
    except (OSError, ValueError, TorsionGeoError):
        return None


def _grid_nodes(run, refined: bool = False) -> int:
    """The run's grid nodes (the propagator default if grid_points is unset), sqrt(2)-refined for richardson."""
    from .propagator import DEFAULT_NODES

    n = run.options["grid_points"] or DEFAULT_NODES[run.geom.topology]
    return int(math.ceil(n * math.sqrt(2.0))) if refined else n


def _default_taus(run) -> list:
    """Every multiple of eps from tau_min (default: the larger of eps and N eps / 10) to N eps."""
    cfg, tau_min = run.slices, run.options["tau_min"]
    lo = tau_min if tau_min is not None else max(cfg.eps, 0.1 * cfg.total_time)
    k_lo = max(1, int(math.ceil(lo / cfg.eps - 1e-9)))
    return [k * cfg.eps for k in range(k_lo, cfg.n_slices + 1)]


class Key(NamedTuple):
    """One config key; ``ok(value, run)`` tells whether a given value meets ``rule``.
    A check that has to parse the value returns what it read, which becomes the option."""

    ok: Callable | None  # None for a slice key: SliceConfig holds its rule and default
    rule: str | None  # {D} stands for the geometry's dimension
    default: object  # a value, a function of the RunConfig, REQUIRED, or None (unset)
    commands: tuple
    topologies: tuple = ()  # the only topologies it applies to; empty: all
    excludes: tuple = ()  # keys it cannot be given together with
    size: Callable | None = None  # size(value, run): the count its BUDGETS row bounds


def _sliced(commands=SPECTRUM, **where) -> Key:
    """A slice key's row: only where it applies, since SliceConfig checks it and states its default."""
    return Key(None, None, None, commands, **where)


# Every config key but ``geometry``, ``command`` and the geometry's own
# parameters, in resolution order: a check, size or default reads only keys above it.
KEYS = {
    "points": Key(lambda v, run: isinstance(v, list) and len(v) > 0 and all(_vector()(p, run) for p in v),
                  "a nonempty list of {D}-component finite numeric points", None, ("geom",)),
    "n_points": Key(_count(1), "an integer >= 1", 5, ("geom",), excludes=("points",), size=lambda v, run: v),
    "kind": Key(lambda v, run: v in ("geodesic", "autoparallel"), "geodesic or autoparallel", REQUIRED, ("traj",)),
    "q0": Key(_vector(), "a list of {D} finite numbers", REQUIRED, ("traj",)),
    "v0": Key(_vector(), "a list of {D} finite numbers", REQUIRED, ("traj",)),
    "duration": Key(_positive, "a positive finite number", 1.0, ("traj",)),
    "dt": Key(lambda v, run: _positive(v) and _multiples([run.options["duration"]], v),
              "positive, dividing duration into whole steps", 1e-3, ("traj",),
              size=lambda v, run: round(min(run.options["duration"] / v, 2.0**63))),
    "contour_radius": Key(_positive, "a positive finite number", 1.0, ("defect",)),
    "contour_segments": Key(_count(3), "an integer >= 3", 4096, ("defect",), size=lambda v, run: v),
    "contour_center": Key(_vector(2), "a list of 2 finite numbers", (0.0, 0.0), ("defect",)),
    "contour_turns": Key(_count(1), "an integer >= 1", 1, ("defect",),
                         size=lambda v, run: run.options["contour_segments"] * v),
    "contour_csv": Key(lambda v, run: isinstance(v, str) and _contour_file(v),
                       "the path of a contour CSV: q1,q2 rows of finite numbers, at least 4, closed, distinct "
                       "consecutive vertices, none at the origin", None,
                       ("defect",), excludes=("contour_radius", "contour_segments", "contour_center", "contour_turns")),
    "N": _sliced(size=lambda v, run: v),
    **dict.fromkeys(("eps", "mass", "hbar"), _sliced()),
    "scheme": _sliced(topologies=("line", "circle")),
    "order": _sliced(),
    "measure": _sliced(("propagate",)),
    "grid_range": Key(lambda v, run: _vector(2)(v, run) and v[0] < v[1], "[lo, hi], finite, lo < hi", None,
                      ("propagate",), topologies=("line",)),
    "tau_min": Key(lambda v, run: _positive(v) and v / run.slices.eps - 1e-9 <= run.slices.n_slices,
                   "positive, at most N * eps", None, SPECTRUM),
    "tau_values": Key(lambda v, run: isinstance(v, list) and len(v) > 0 and _multiples(v, run.slices.eps),
                      "a nonempty list of positive multiples of eps", _default_taus, SPECTRUM, excludes=("tau_min",)),
    "extract": Key(lambda v, run: isinstance(v, bool), "true or false", True, ("propagate",)),
    "richardson": Key(lambda v, run: isinstance(v, bool) and (not v or run.options.get("extract", True)),
                      "true or false; true needs extract", lambda run: run.command == "compare-measures", SPECTRUM),
    "grid_points": Key(_count(1), "an integer >= 1", None, SPECTRUM,  # None: the propagator default
                       size=lambda v, run: _grid_nodes(run, run.options["richardson"])),
    "m_sector": Key(_count(0), "an integer >= 0", 0, SPECTRUM, topologies=("sphere",),
                    size=lambda v, run: v * _grid_nodes(run, run.options["richardson"]) ** 2 // 2),
    "n_levels": Key(lambda v, run: _count(1)(v, run) and (v <= _grid_nodes(run) or run.options.get("extract") is False),
                    "an integer >= 1, at most the grid's node count when levels are read", 4, SPECTRUM),
    "amplitude_taus": Key(lambda v, run: isinstance(v, list) and _multiples(v, run.slices.eps)
                          and len(set(map(_amplitude_csv, v))) == len(v),
                          "a list of positive multiples of eps, distinct to 6 significant digits", (), ("propagate",),
                          size=lambda v, run: len(v) * _grid_nodes(run) ** 2),
}


@dataclass
class RunConfig:
    """A validated config: ``options`` holds every key of the command, given or default
    (``contour_csv`` as the Contour its check read); ``geom`` is the built geometry and
    ``slices`` the SliceConfig of a spectrum command."""

    geometry: str
    command: str
    options: dict
    raw: dict = field(repr=False, default_factory=dict)
    geom: object = field(repr=False, default=None)
    slices: object = None


def load_config(path) -> RunConfig:
    """Parse, validate and resolve a run config; every fault raises a ConfigError naming its key."""
    from . import catalog

    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"config {path}: top level must be a JSON object")

    name, command = raw.get("geometry"), raw.get("command")
    if command not in COMMANDS:
        raise ValidationError(f"config key 'command': must be one of {list(COMMANDS)}")
    try:
        param_names = catalog.parameter_names(str(name))
    except ValidationError:
        raise ValidationError(f"config key 'geometry': unknown geometry {name!r}") from None
    keys = {key: spec for key, spec in KEYS.items() if command in spec.commands}
    unknown = set(raw) - {"geometry", "command", *param_names, *keys}
    if unknown:
        raise ValidationError(f"config key(s) {sorted(unknown)}: unknown for command '{command}'")

    geometry_params = {k: raw[k] for k in param_names if k in raw}
    try:
        geom = catalog.make(name, **geometry_params)
    except ValidationError as exc:  # every catalog geometry has at most one parameter
        raise ValidationError(f"config key '{', '.join(geometry_params)}': {exc}") from exc
    runs_on = _RUNS_ON.get(command)
    if runs_on and geom.name not in runs_on and geom.topology not in runs_on:
        raise ValidationError(f"config key 'geometry': {command} runs only on {', '.join(runs_on)} geometries")

    run = RunConfig(name, command, {}, raw, geom)
    if command in SPECTRUM:
        from .slicing import SliceConfig

        try:
            run.slices = SliceConfig(**{attr: raw[key] for key, attr in _SLICE_FIELDS.items() if key in raw})
        except ValueError as exc:  # its message starts with the field at fault
            key = next(k for k, f in _SLICE_FIELDS.items() if str(exc).startswith(f))
            raise ValidationError(f"config key '{key}': {exc}") from exc
    for key, spec in keys.items():
        if key in raw and spec.topologies and geom.topology not in spec.topologies:
            raise ValidationError(f"config key '{key}': applies only to {' or '.join(spec.topologies)} geometries")
        if key in _SLICE_FIELDS:  # SliceConfig checked it
            value, verdict = getattr(run.slices, _SLICE_FIELDS[key]), True
        elif key in raw:
            value, clash = raw[key], [k for k in spec.excludes if k in raw]
            if clash:
                raise ValidationError(f"config key '{key}': cannot be given together with '{clash[0]}'")
            verdict = spec.ok(value, run)
        elif spec.default == REQUIRED:
            raise ValidationError(f"config key '{key}': is required for {command}")
        else:
            value = spec.default(run) if callable(spec.default) else spec.default
            verdict = True
        if not verdict:
            raise ValidationError(f"config key '{key}': must be {spec.rule.format(D=geom.dim)}")
        run.options[key] = value if verdict is True else verdict
        if spec.size and value is not None:  # a default too: it sizes the run as much as a given value
            (bound, counted), count = BUDGETS[key], spec.size(value, run)
            bound = bound[geom.topology] if isinstance(bound, dict) else bound
            if count > bound:
                raise ValidationError(f"config key '{key}': asks for {count} {counted}, beyond the budget of {bound}")
    return run


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _stage(stages: dict, name: str):
    """Add the perf_counter span of the block to ``stages[name]`` (seconds)."""
    started = time.perf_counter()
    try:
        yield
    finally:
        stages[name] = stages.get(name, 0.0) + time.perf_counter() - started


def _run_geom(config: RunConfig, out_dir: str, seed: int, stages: dict) -> dict:
    import numpy as np

    geom, opts = config.geom, config.options
    points = (np.array(opts["points"], dtype=float) if opts["points"] is not None
              else geom.random_points(opts["n_points"], np.random.default_rng(seed)))
    pt = geom.batch(points)  # one stacked bundle
    columns = {"point": points, "metric": pt.metric, "sqrt_det": pt.sqrt_metric,
               "christoffel": pt.christoffel, "scalar_riemann": pt.scalar_riemann}
    if not geom.metric_only:
        columns.update(triad=pt.triad, affine=pt.affine, torsion=pt.torsion, contortion=pt.contortion,
                       scalar_affine=pt.scalar)
    rows = [{key: values[k] for key, values in columns.items()} for k in range(len(points))]
    return {"command": "geom", "geometry": config.geometry, "points": rows}


def _run_traj(config: RunConfig, out_dir: str, seed: int, stages: dict) -> dict:
    from .dynamics import evaluate_action, integrate_trajectory
    from .io import write_trajectory_csv

    geom, opts = config.geom, config.options
    duration, dt = float(opts["duration"]), float(opts["dt"])
    traj = integrate_trajectory(geom, opts["kind"], opts["q0"], opts["v0"], duration, dt)
    with _stage(stages, "write"):
        write_trajectory_csv(traj, os.path.join(out_dir, "trajectory.csv"))
    return {"command": "traj", "geometry": config.geometry, "kind": opts["kind"], "q0": list(map(float, opts["q0"])),
            "v0": list(map(float, opts["v0"])), "duration": duration, "dt": dt,
            "action": evaluate_action(traj, 1.0), "invariant_drift": traj.invariant_drift,
            "samples": len(traj.t)}


def _run_defect(config: RunConfig, out_dir: str, seed: int, stages: dict) -> dict:
    from .defects import Contour, DefectGeometry, burgers_vector, frank_rotation_deficit

    opts = config.options
    contour = (opts["contour_csv"] if opts["contour_csv"] is not None  # the Contour its key check read
               else Contour.circle(float(opts["contour_radius"]), opts["contour_segments"],
                                   center=tuple(opts["contour_center"]), turns=opts["contour_turns"]))
    defect = DefectGeometry(config.geom)  # the catalog geometry already built: its name is the kind
    (parameter,) = config.geom.params.values()
    key, value = (("b", burgers_vector(defect, contour)) if config.geom.name == "dislocation"
                  else ("deficit", frank_rotation_deficit(defect, contour)))
    return {"command": "defect", "kind": config.geom.name, "parameter": parameter,
            "winding": contour.winding_number, key: value, "value": value}


def _eigen_energies(result, cfg, n_levels: int) -> list:
    """The n_levels lowest levels -hbar ln(lambda) / eps of the transfer matrix, ascending, with multiplicity.

    A level is resolved only while its eigenvalue stays above the eigensolve's rounding floor.
    """
    resolved = result.eigenvalues[result.eigenvalues > result.floor]
    if resolved.size < n_levels:
        raise SpectrumUnresolved(f"transfer matrix has {resolved.size} eigenvalues above its rounding floor "
                                 f"< n_levels={n_levels}")
    return [-cfg.hbar * math.log(lam) / cfg.eps + 0.0 for lam in resolved[:n_levels]]  # + 0.0 turns -0.0 into 0.0


def _grid_for(config: RunConfig, refined: bool = False):
    """The propagator grid, refined for richardson's halved step; absent grid keys take the propagator defaults."""
    from .propagator import LINE_RANGE

    n = _grid_nodes(config, refined)
    return (*map(float, config.options.get("grid_range") or LINE_RANGE), n) if config.geom.topology == "line" else n


def _spectrum_ladders(config: RunConfig, stages: dict, measures, store_taus=()) -> tuple:
    """``(ladders, results)``: each of ``measures``' ladder payload and propagator result, one build per grid for all.

    compare-measures has no ``extract`` key: its ladders always read levels.
    """
    from .propagator import propagate_measures

    geom, cfg, opts = config.geom, config.slices, config.options
    taus = [float(t) for t in opts["tau_values"]]
    with _stage(stages, "propagate"):
        results = propagate_measures(geom, cfg, measures, grid=_grid_for(config), taus=taus,
                                     m_sector=opts["m_sector"], store_taus=store_taus)
    ladders = {measure: {
        "geometry": config.geometry,
        "measure": measure,
        "scheme": cfg.scheme,
        "N": cfg.n_slices,
        "eps": cfg.eps,
        "tau": taus,
        "trace": result.trace,
        "energies": _eigen_energies(result, cfg, opts["n_levels"]) if opts.get("extract", True) else [],
        "asymmetry": result.asymmetry,
        "min_eigenvalue": result.eigenvalues[-1],
        "clipped_eigenvalues": (result.eigenvalues < -result.floor).sum(),
    } for measure, result in results.items()}
    if opts["richardson"]:
        from .spectrum import richardson_pair

        half = replace(cfg, n_slices=2 * cfg.n_slices, eps=0.5 * cfg.eps)
        with _stage(stages, "propagate"):
            halves = propagate_measures(geom, half, measures, grid=_grid_for(config, refined=True), taus=taus,
                                        m_sector=opts["m_sector"])
        for measure, payload in ladders.items():
            payload["energies_halved_step"] = _eigen_energies(halves[measure], half, opts["n_levels"])
            payload["energies_extrapolated"] = richardson_pair(payload["energies"], payload["energies_halved_step"])
    return ladders, results


def _levels(ladder: dict) -> list:
    """The levels a ladder reports: its step-halving extrapolation when the run made one, else its energies."""
    return ladder.get("energies_extrapolated", ladder["energies"])


def _run_propagate(config: RunConfig, out_dir: str, seed: int, stages: dict) -> dict:
    from .io import write_amplitude_csv

    measure, taus = config.slices.measure, [float(t) for t in config.options["amplitude_taus"]]
    ladders, results = _spectrum_ladders(config, stages, (measure,), taus)
    with _stage(stages, "write"):
        for tau in taus:
            path = os.path.join(out_dir, _amplitude_csv(tau))
            write_amplitude_csv(results[measure].grid, results[measure].amplitudes[tau], tau, path)
    return {"command": "propagate", **ladders[measure]}


def _run_compare(config: RunConfig, out_dir: str, seed: int, stages: dict) -> dict:
    from .slicing import MEASURES, effective_potential

    cfg = config.slices
    ladders, _ = _spectrum_ladders(config, stages, MEASURES)
    # the potential is constant on the line, the circle and the sphere: read it at the sample box's centre
    q_ref = [(lo + hi) / 2 for lo, hi in config.geom.sample_box]
    return {
        "command": "compare-measures",
        "geometry": config.geometry,
        "qep": ladders["qep"],
        "naive_dewitt": ladders["naive-dewitt"],
        "difference": [b - a for a, b in zip(_levels(ladders["qep"]), _levels(ladders["naive-dewitt"]))],
        "reference_shift": -effective_potential(config.geom, q_ref, cfg.mass, cfg.hbar),
    }


_RUNNERS = {
    "geom": _run_geom,
    "traj": _run_traj,
    "defect": _run_defect,
    "propagate": _run_propagate,
    "compare-measures": _run_compare,
}


def run(config: RunConfig, out_dir, seed: int = 0) -> dict:
    """Execute a validated config, writing results.json + manifest.json; the payload results.json holds.

    An earlier run's results.json, manifest.json and CSV files in ``out_dir`` are removed first, so a
    failed run leaves none of them.  The manifest's ``stages_s`` holds the perf_counter seconds spent in
    ``propagate`` (kernel build and composition, spectrum commands) and in
    ``write`` (results.json and the command's CSV files).  A payload holding
    a non-finite number raises ``NonFiniteResult`` before results.json is written.
    """
    import numpy as np

    from .io import dump_json, jsonable

    os.makedirs(out_dir, exist_ok=True)
    earlier = ["results.json", "manifest.json", "trajectory.csv", *glob.glob("amplitude_tau_*.csv", root_dir=out_dir)]
    for name in earlier:  # a failed run leaves no earlier run's results behind
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    started = time.time()
    stages = {}
    with np.errstate(all="ignore"):  # an overflow surfaces as a non-finite value, refused below
        results = _RUNNERS[config.command](config, str(out_dir), seed, stages)
    payload = jsonable({**results, "seed": seed})  # raises NonFiniteResult naming a non-finite entry
    with _stage(stages, "write"):
        dump_json(payload, os.path.join(out_dir, "results.json"))
    canonical = json.dumps(config.raw, sort_keys=True).encode()
    manifest = {
        "config_sha256": hashlib.sha256(canonical).hexdigest(),
        "command": config.command,
        "versions": _versions(),
        "wall_time_s": round(time.time() - started, 3),
        "stages_s": {name: round(seconds, 4) for name, seconds in stages.items()},
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    dump_json(manifest, os.path.join(out_dir, "manifest.json"))
    return payload


def _versions() -> dict:
    """Package versions; scipy's only when the run loaded it, and None otherwise."""
    import numpy

    from . import __version__

    scipy = sys.modules.get("scipy")
    return {
        "torsiongeo": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__ if scipy is not None else None,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def format_report(results: dict) -> str:
    """Fixed-width summary of a results payload."""
    command = results.get("command", "?")
    lines = [f"torsiongeo {command} report"]
    if command == "propagate":
        shown = _levels(results)
        if not shown:  # extract: false
            lines.append("no results")
        else:
            lines.append(f"{'level':>6} {'energy':>14}")
            lines += [f"{k:>6} {_unsigned_zero(e):>14.6f}" for k, e in enumerate(shown)]
            if results.get("residuals"):  # payloads from before levels were read from eigenvalues
                lines.append(f"fit residual {results['residuals'][0]:.3e}")
        lines += _eigen_health([results])
    elif command == "compare-measures":
        lines.append(f"{'level':>6} {'E_qep':>12} {'E_naive':>12} {'dE':>10} {'reference':>10}")
        for k, (a, b) in enumerate(zip(_levels(results["qep"]), _levels(results["naive_dewitt"]))):
            a, b, d = map(_unsigned_zero, (a, b, b - a))
            lines.append(f"{k:>6} {a:>12.6f} {b:>12.6f} {d:>10.6f} {results['reference_shift']:>10.6f}")
        lines += _eigen_health([results["qep"], results["naive_dewitt"]])
    elif command == "defect":
        lines.append(f"{'kind':>14} {'parameter':>12} {'winding':>8} {'value':>24}")
        value = results.get("b", results.get("deficit"))
        lines.append(f"{results['kind']:>14} {results['parameter']:>12.6g} {results['winding']:>8d} {str(value):>24}")
    elif command == "traj":
        lines.append(f"{'samples':>8} {'action':>14} {'invariant drift':>16}")
        lines.append(f"{results['samples']:>8d} {results['action']:>14.8f} {results['invariant_drift']:>16.3e}")
    elif command == "geom":
        lines.append(f"{'point':>28} {'sqrt(det g)':>13} {'scalar_R':>10}")
        for row in results["points"]:
            pt = ",".join(f"{x:+.4f}" for x in row["point"])
            lines.append(f"{pt:>28} {row['sqrt_det']:>13.6f} {row['scalar_riemann']:>10.5f}")
    else:
        lines.append("no results")
    return "\n".join(lines)


def _unsigned_zero(value: float) -> float:
    """``value`` rounded to the tables' 6 decimals, with -0.0 made 0.0: no entry prints as -0.000000."""
    return round(value, 6) + 0.0


def _eigen_health(ladders) -> list:
    return [f"{r['measure']}: min eigenvalue {r['min_eigenvalue']:.3e}, "
            f"{r['clipped_eigenvalues']} negative beyond rounding" for r in ladders if "min_eigenvalue" in r]


def report(out_dir) -> str:
    """The report of ``out_dir``'s results.json; a file its command's table cannot read raises ValueError."""
    path = os.path.join(out_dir, "results.json")
    if not os.path.exists(path):
        return "no results"
    try:
        with open(path) as fh:
            return format_report(json.load(fh))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:  # not JSON, or not a run's payload
        raise ValueError(f"cannot report {path}: {type(exc).__name__} {exc}") from exc


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer from 0 to 2**64 - 1, the seeds numpy's generators take."""
    with contextlib.suppress(ValueError):
        if 0 <= (seed := int(text)) < 2**64:
            return seed
    raise argparse.ArgumentTypeError(f"must be an integer from 0 to 2**64 - 1, got {text!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="torsiongeo", description="geometry with torsion: batch computations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="torsiongeo-out")
        p.add_argument("--seed", type=_seed, default=0)
    p_rep = sub.add_parser("report")
    p_rep.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    threads = os.environ.get("TORSIONGEO_THREADS")
    if threads:
        n_threads = int(threads) if threads.strip().isdecimal() else 0
        if n_threads < 1:
            print(f"config error: TORSIONGEO_THREADS must be a positive integer, got {threads!r}", file=sys.stderr)
            return 2
        # BLAS and OpenMP read these once, when numpy first loads
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[name] = str(n_threads)

    try:
        if args.command == "report":
            print(report(args.out), flush=True)
            return 0
        config = load_config(args.config)
        if config.command != args.command:
            raise ValidationError(
                f"config key 'command': file says '{config.command}' but CLI invoked '{args.command}'"
            )
        print(format_report(run(config, args.out, seed=args.seed)), flush=True)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout; every file was written before the print
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit finds no pipe
        return 0
    except (TorsionGeoError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # a bare MemoryError has no message
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
