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

The config is one flat JSON object; unknown keys are rejected and every
validation error names the offending key.  Outputs are ``results.json``
(byte-stable for a fixed config), ``manifest.json`` (config hash, versions,
wall time, per-stage seconds; the only file with a timestamp), and
command-specific CSV files.
Exit codes: 0 success, 1 computation error, 2 config error.  The environment
variable ``TORSIONGEO_THREADS`` (a positive integer) caps BLAS/OpenMP
parallelism: ``main`` copies it into ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` before numpy is first imported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

from .errors import ConfigError, NonFiniteResult, ParseError, SpectrumUnresolved, TorsionGeoError, ValidationError

COMMANDS = ("geom", "traj", "defect", "propagate", "compare-measures")

_GEOMETRY_PARAMS = {"a", "epsilon", "omega", "s0", "d"}
_SLICE_KEYS = {
    "N": int,
    "eps": float,
    "mass": float,
    "hbar": float,
    "scheme": str,
    "order": int,
    "measure": str,
}
_COMMAND_KEYS = {
    "geom": {"points", "n_points"},
    "traj": {"kind", "q0", "v0", "duration", "dt"},
    "defect": {"contour_radius", "contour_segments", "contour_center", "contour_turns", "contour_csv"},
    "propagate": set(_SLICE_KEYS)
    | {"grid_points", "grid_range", "tau_min", "tau_values", "m_sector", "extract", "n_levels", "richardson", "amplitude_taus"},
    "compare-measures": (set(_SLICE_KEYS) - {"measure"})
    | {"grid_points", "tau_min", "tau_values", "m_sector", "n_levels", "richardson"},
}

_KINDS = ("geodesic", "autoparallel")


@dataclass
class RunConfig:
    geometry: str
    geometry_params: dict
    command: str
    options: dict
    raw: dict = field(repr=False, default_factory=dict)


def _require(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise ValidationError(f"config key '{key}': {message}")


def load_config(path) -> RunConfig:
    """Parse and fully validate a run config; apply defaults later, at use."""
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

    _require("geometry" in raw, "geometry", "is required")
    _require("command" in raw, "command", "is required")
    command = raw["command"]
    _require(command in COMMANDS, "command", f"must be one of {list(COMMANDS)}")
    geometry = raw["geometry"]
    try:
        geo_param_names = set(catalog.parameter_names(geometry))
    except ValidationError:
        raise ValidationError(f"config key 'geometry': unknown geometry '{geometry}'")

    allowed = {"geometry", "command"} | geo_param_names | _COMMAND_KEYS[command]
    unknown = set(raw) - allowed
    if unknown:
        raise ValidationError(f"config key(s) {sorted(unknown)}: unknown for command '{command}'")

    geometry_params = {k: raw[k] for k in geo_param_names if k in raw}
    for key, value in geometry_params.items():
        _require(isinstance(value, (int, float)), key, "must be numeric")
    options = {k: raw[k] for k in _COMMAND_KEYS[command] if k in raw}
    _validate_options(command, options)
    try:
        geom = catalog.make(geometry, **geometry_params)
    except ValidationError as exc:
        raise ValidationError(str(exc)) from exc
    if "points" in options:
        _require(all(isinstance(p, list) and len(p) == geom.dim and all(_is_number(x) for x in p)
                     for p in options["points"]), "points", f"must be a list of {geom.dim}-component numeric points")
    return RunConfig(geometry, geometry_params, command, options, raw)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_options(command: str, options: dict) -> None:
    from .slicing import MEASURES, SCHEMES

    if "scheme" in options:
        _require(options["scheme"] in SCHEMES, "scheme", f"must be one of {list(SCHEMES)}")
    if "measure" in options:
        _require(options["measure"] in MEASURES, "measure", f"must be one of {list(MEASURES)}")
    if "order" in options:
        _require(options["order"] in (2, 3, 4), "order", "must be 2, 3 or 4")
    if "kind" in options:
        _require(options["kind"] in _KINDS, "kind", f"must be one of {list(_KINDS)}")
    for key in ("N", "grid_points", "n_points", "contour_segments", "n_levels", "m_sector", "contour_turns"):
        if key in options:
            _require(isinstance(options[key], int) and options[key] >= (0 if key == "m_sector" else 1), key,
                     "must be a positive integer" if key != "m_sector" else "must be a nonnegative integer")
    for key in ("eps", "dt", "duration", "mass", "hbar", "contour_radius", "tau_min"):
        if key in options:
            _require(isinstance(options[key], (int, float)) and options[key] > 0, key, "must be positive")
    for key in ("q0", "v0", "contour_center"):
        if key in options:
            _require(isinstance(options[key], list) and all(isinstance(x, (int, float)) for x in options[key]),
                     key, "must be a list of numbers")
    for key in ("tau_values", "amplitude_taus"):
        if key in options:
            _require(isinstance(options[key], list) and all(isinstance(x, (int, float)) and x > 0 for x in options[key]),
                     key, "must be a list of positive numbers")
            from .propagator import _tau_indices

            try:
                _tau_indices(options[key], _slice_config(options))
            except ValueError as exc:
                raise ValidationError(f"config key '{key}': {exc}") from exc
    if "points" in options:
        _require(isinstance(options["points"], list) and options["points"], "points", "must be a nonempty list")
    for key in ("extract", "richardson"):
        if key in options:
            _require(isinstance(options[key], bool), key, "must be true or false")


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

    from . import catalog

    geom = catalog.make(config.geometry, **config.geometry_params)
    opts = config.options
    if "points" in opts:
        points = np.array(opts["points"], dtype=float)
    else:
        points = geom.random_points(int(opts.get("n_points", 5)), np.random.default_rng(seed))
    # one stacked bundle; overflow shows up as non-finite entries, reported below
    with np.errstate(all="ignore"):
        pt = geom.batch(points)
        columns = {"point": points, "metric": pt.metric, "sqrt_det": pt.sqrt_metric,
                   "christoffel": pt.christoffel, "scalar_riemann": pt.scalar_riemann}
        if not geom.metric_only:
            columns.update(triad=pt.triad, affine=pt.affine, torsion=pt.torsion, contortion=pt.contortion,
                           scalar_affine=pt.scalar)
    for key, values in columns.items():
        finite = np.isfinite(values).reshape(len(points), -1).all(axis=1)
        if not finite.all():
            raise NonFiniteResult(f"geom: {key} is not finite at point {points[~finite][0].tolist()}")
    rows = [{key: values[k] for key, values in columns.items()} for k in range(len(points))]
    return {"command": "geom", "geometry": config.geometry, "points": rows}


def _run_traj(config: RunConfig, out_dir: str, seed: int, stages: dict) -> dict:
    import numpy as np

    from . import catalog
    from .dynamics import evaluate_action, integrate_trajectory
    from .io import write_trajectory_csv

    geom = catalog.make(config.geometry, **config.geometry_params)
    opts = config.options
    for key in ("kind", "q0", "v0"):
        _require(key in opts, key, "is required for traj")
    duration = float(opts.get("duration", 1.0))
    dt = float(opts.get("dt", 1e-3))
    traj = integrate_trajectory(geom, opts["kind"], opts["q0"], opts["v0"], duration, dt)
    with _stage(stages, "write"):
        write_trajectory_csv(traj, os.path.join(out_dir, "trajectory.csv"))
    inv = traj.kinetic_invariant()
    return {
        "command": "traj",
        "geometry": config.geometry,
        "kind": opts["kind"],
        "q0": list(map(float, opts["q0"])),
        "v0": list(map(float, opts["v0"])),
        "duration": duration,
        "dt": dt,
        "action": evaluate_action(geom, traj, 1.0),
        "invariant_drift": float(np.max(np.abs(inv - inv[0]))),
        "samples": len(traj.t),
    }


def _make_contour(opts: dict):
    from .defects import Contour
    from .io import read_contour_csv

    if "contour_csv" in opts:
        return read_contour_csv(opts["contour_csv"])
    return Contour.circle(
        float(opts.get("contour_radius", 1.0)),
        int(opts.get("contour_segments", 4096)),
        center=tuple(opts.get("contour_center", (0.0, 0.0))),
        turns=int(opts.get("contour_turns", 1)),
    )


def _run_defect(config: RunConfig, out_dir: str, seed: int, stages: dict) -> dict:
    from .defects import DefectGeometry, burgers_vector, frank_rotation_deficit

    if config.geometry not in ("dislocation", "disclination"):
        raise ValidationError("config key 'geometry': defect command needs dislocation or disclination")
    contour = _make_contour(config.options)
    if config.geometry == "dislocation":
        defect = DefectGeometry.dislocation(**config.geometry_params)
        value = [float(x) for x in burgers_vector(defect, contour)]
        payload = {"b": value, "value": value}
    else:
        defect = DefectGeometry.disclination(**config.geometry_params)
        deficit = float(frank_rotation_deficit(defect, contour))
        payload = {"deficit": deficit, "value": deficit}
    return {
        "command": "defect",
        "kind": defect.kind,
        "parameter": defect.parameter,
        "winding": contour.winding_number,
        **payload,
    }


def _slice_config(opts: dict, measure=None):
    from .slicing import SliceConfig

    return SliceConfig(
        n_slices=int(opts.get("N", 32)),
        eps=float(opts.get("eps", 0.05)),
        mass=float(opts.get("mass", 1.0)),
        hbar=float(opts.get("hbar", 1.0)),
        scheme=opts.get("scheme", "postpoint"),
        order=int(opts.get("order", 4)),
        measure=measure if measure is not None else opts.get("measure", "qep"),
    )


def _default_taus(cfg, tau_min=None) -> list:
    lo = tau_min if tau_min is not None else max(cfg.eps, 0.1 * cfg.total_time)
    k_lo = max(1, int(math.ceil(lo / cfg.eps - 1e-9)))
    return [k * cfg.eps for k in range(k_lo, cfg.n_slices + 1)]


def _eigen_energies(result, cfg, n_levels: int) -> list:
    """The n_levels lowest levels -hbar ln(lambda) / eps of the transfer matrix, ascending, with multiplicity."""
    positive = result.eigenvalues[result.eigenvalues > 0.0]
    if positive.size < n_levels:
        raise SpectrumUnresolved(f"transfer matrix has {positive.size} positive eigenvalues < n_levels={n_levels}")
    return [-cfg.hbar * math.log(lam) / cfg.eps + 0.0 for lam in positive[:n_levels]]  # + 0.0 turns -0.0 into 0.0


def _grid_for(geom, opts, factor: float = 1.0):
    if geom.topology == "line":
        rng = opts.get("grid_range", [-8.0, 8.0])
        return (float(rng[0]), float(rng[1]), int(math.ceil(int(opts.get("grid_points", 1024)) * factor)))
    base = int(opts.get("grid_points", 192 if geom.topology == "sphere" else 256))
    return int(math.ceil(base * factor))


def _run_spectrum_command(config: RunConfig, out_dir: str, stages: dict, measure=None) -> dict:
    from . import catalog
    from .io import write_amplitude_csv
    from .propagator import negative_beyond_rounding, propagate
    from .spectrum import richardson_pair

    geom = catalog.make(config.geometry, **config.geometry_params)
    opts = config.options
    cfg = _slice_config(opts, measure=measure)
    taus = [float(t) for t in opts["tau_values"]] if "tau_values" in opts else _default_taus(
        cfg, opts.get("tau_min")
    )
    n_levels = int(opts.get("n_levels", 4))
    extract = bool(opts.get("extract", True))
    m_sector = int(opts.get("m_sector", 0))
    amplitude_taus = [float(t) for t in opts.get("amplitude_taus", [])]
    with _stage(stages, "propagate"):
        result = propagate(geom, cfg, grid=_grid_for(geom, opts), taus=taus, m_sector=m_sector,
                           store_taus=amplitude_taus)
    energies = _eigen_energies(result, cfg, n_levels) if extract else []
    payload = {
        "geometry": config.geometry,
        "measure": cfg.measure,
        "scheme": cfg.scheme,
        "N": cfg.n_slices,
        "eps": cfg.eps,
        "tau": list(map(float, taus)),
        "trace": [float(v) for v in result.trace],
        "energies": energies,
        "asymmetry": float(result.asymmetry),
        "min_eigenvalue": float(result.eigenvalues[-1]),
        "clipped_eigenvalues": negative_beyond_rounding(result.eigenvalues),
    }
    if bool(opts.get("richardson", False)) and extract:
        half = _slice_config({**opts, "N": 2 * cfg.n_slices, "eps": 0.5 * cfg.eps}, measure=cfg.measure)
        with _stage(stages, "propagate"):
            res_half = propagate(geom, half, grid=_grid_for(geom, opts, math.sqrt(2.0)), taus=taus, m_sector=m_sector)
        energies_half = _eigen_energies(res_half, half, n_levels)
        payload["energies_halved_step"] = energies_half
        payload["energies_extrapolated"] = richardson_pair(energies, energies_half)
    with _stage(stages, "write"):
        for tau in amplitude_taus:
            path = os.path.join(out_dir, f"amplitude_tau_{tau:g}.csv")
            write_amplitude_csv(result.grid, result.amplitudes[tau], tau, path)
    return payload


def _run_propagate(config: RunConfig, out_dir: str, seed: int, stages: dict) -> dict:
    return {"command": "propagate", **_run_spectrum_command(config, out_dir, stages)}


def _run_compare(config: RunConfig, out_dir: str, seed: int, stages: dict) -> dict:
    import numpy as np

    from . import catalog
    from .slicing import MEASURES, effective_potential

    opts = dict(config.options)
    opts.setdefault("richardson", True)
    cfg_probe = RunConfig(config.geometry, config.geometry_params, config.command, opts, config.raw)
    ladders = {}
    for measure in MEASURES:
        ladders[measure] = _run_spectrum_command(cfg_probe, out_dir, stages, measure=measure)
    key = "energies_extrapolated" if "energies_extrapolated" in ladders["qep"] else "energies"
    e_qep = ladders["qep"][key]
    e_naive = ladders["naive-dewitt"][key]
    geom = catalog.make(config.geometry, **config.geometry_params)
    q_ref = geom.random_points(1, np.random.default_rng(0))[0]
    mass = float(opts.get("mass", 1.0))
    hbar = float(opts.get("hbar", 1.0))
    reference = -effective_potential(geom, q_ref, mass, hbar)
    return {
        "command": "compare-measures",
        "geometry": config.geometry,
        "qep": ladders["qep"],
        "naive_dewitt": ladders["naive-dewitt"],
        "difference": [float(b - a) for a, b in zip(e_qep, e_naive)],
        "reference_shift": float(reference),
    }


_RUNNERS = {
    "geom": _run_geom,
    "traj": _run_traj,
    "defect": _run_defect,
    "propagate": _run_propagate,
    "compare-measures": _run_compare,
}


def run(config: RunConfig, out_dir, seed: int = 0) -> dict:
    """Execute a validated config, writing results.json + manifest.json.

    The manifest's ``stages_s`` holds the perf_counter seconds spent in
    ``propagate`` (kernel build and composition, spectrum commands) and in
    ``write`` (results.json and the command's CSV files).
    """
    from .io import dump_json

    os.makedirs(out_dir, exist_ok=True)
    started = time.time()
    stages = {}
    results = _RUNNERS[config.command](config, str(out_dir), seed, stages)
    results["seed"] = int(seed)
    with _stage(stages, "write"):
        dump_json(results, os.path.join(out_dir, "results.json"))
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
    return results


def _versions() -> dict:
    import numpy
    import scipy

    from . import __version__

    return {
        "torsiongeo": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def format_report(results: dict) -> str:
    """Fixed-width summary of a results payload."""
    command = results.get("command", "?")
    lines = [f"torsiongeo {command} report"]
    if command in ("propagate",):
        energies = results.get("energies", [])
        if not energies:
            lines.append("no results")
        else:
            lines.append(f"{'level':>6} {'energy':>14}")
            shown = results.get("energies_extrapolated", energies)
            lines += [f"{k:>6} {e:>14.6f}" for k, e in enumerate(shown)]
            if results.get("residuals"):  # payloads from before levels were read from eigenvalues
                lines.append(f"fit residual {results['residuals'][0]:.3e}")
        lines += _eigen_health([results])
    elif command == "compare-measures":
        e_q = results["qep"].get("energies_extrapolated", results["qep"]["energies"])
        e_n = results["naive_dewitt"].get("energies_extrapolated", results["naive_dewitt"]["energies"])
        if not e_q:
            lines.append("no results")
        else:
            lines.append(f"{'level':>6} {'E_qep':>12} {'E_naive':>12} {'dE':>10} {'reference':>10}")
            for k, (a, b) in enumerate(zip(e_q, e_n)):
                lines.append(f"{k:>6} {a:>12.6f} {b:>12.6f} {b - a:>10.6f} {results['reference_shift']:>10.6f}")
        lines += _eigen_health([results["qep"], results["naive_dewitt"]])
    elif command == "defect":
        lines.append(f"{'kind':>14} {'parameter':>12} {'winding':>8} {'value':>24}")
        value = results.get("b", results.get("deficit"))
        lines.append(f"{results['kind']:>14} {results['parameter']:>12.6g} {results['winding']:>8d} {str(value):>24}")
    elif command == "traj":
        lines.append(f"{'samples':>8} {'action':>14} {'invariant drift':>16}")
        lines.append(f"{results['samples']:>8d} {results['action']:>14.8f} {results['invariant_drift']:>16.3e}")
    elif command == "geom":
        pts = results.get("points", [])
        if not pts:
            lines.append("no results")
        else:
            lines.append(f"{'point':>28} {'sqrt(det g)':>13} {'scalar_R':>10}")
            for row in pts:
                pt = ",".join(f"{x:+.4f}" for x in row["point"])
                lines.append(f"{pt:>28} {row['sqrt_det']:>13.6f} {row['scalar_riemann']:>10.5f}")
    else:
        lines.append("no results")
    return "\n".join(lines)


def _eigen_health(ladders) -> list:
    return [f"{r['measure']}: min eigenvalue {r['min_eigenvalue']:.3e}, "
            f"{r['clipped_eigenvalues']} negative beyond rounding" for r in ladders if "min_eigenvalue" in r]


def report(out_dir) -> str:
    from .io import load_json

    path = os.path.join(out_dir, "results.json")
    if not os.path.exists(path):
        return "no results"
    return format_report(load_json(path))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="torsiongeo", description="geometry with torsion: batch computations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="torsiongeo-out")
        p.add_argument("--seed", type=int, default=0)
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

    if args.command == "report":
        print(report(args.out))
        return 0

    try:
        config = load_config(args.config)
        if config.command != args.command:
            raise ValidationError(
                f"config key 'command': file says '{config.command}' but CLI invoked '{args.command}'"
            )
        results = run(config, args.out, seed=args.seed)
        print(format_report(results))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TorsionGeoError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
