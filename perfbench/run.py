"""Layered benchmark of torsiongeo, measured from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/``, ``configs/``, ``perfbench/``).
Workloads (see NOTES.md for why each was chosen):

* ``golden-cli``       fresh ``python -m torsiongeo.cli`` processes on the three
                       committed golden configs, in seeded order
* ``line-amplitudes``  fresh CLI ``propagate`` processes on flat-cartesian d=1
                       with 1024 points and two stored amplitude CSVs
* ``classical``        one warm process: trajectories, variations, Burgers
                       loop and tensor bundles on seeded scenarios

One closed-loop client: each operation starts when the previous one ends, for
``--seconds`` seconds.  Every operation is checked against the acceptance
tests' oracles.  With ``--trace 0`` the last output line carries the
end-to-end metrics; with ``--trace 1`` operations alternate between untraced
and traced, and it carries the per-layer metrics plus the tracing overhead.
The exit code is nonzero when any check fails or the checkout is incomplete.
"""

from __future__ import annotations

import os

# single-threaded BLAS for this process and every child, set before numpy loads
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "TORSIONGEO_THREADS": "1"}
os.environ.update(PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(SRC))

import oracles  # noqa: E402
from tracer import keep_going  # noqa: E402

SETUP_SAMPLES = 3
JOB_TIMEOUT_S = 150

GOLDEN = {
    "burgers": ("defect", "configs/dislocation_burgers.json", oracles.check_burgers),
    "circle": ("propagate", "configs/circle_spectrum.json", oracles.check_circle),
    "sphere": ("compare-measures", "configs/sphere_compare.json", oracles.check_sphere),
}
LINE_CONFIG = {
    "geometry": "flat-cartesian",
    "d": 1,
    "command": "propagate",
    "N": 64,
    "eps": 1 / 64,
    "grid_points": 1024,
    "grid_range": [-8.0, 8.0],
    "tau_values": [0.25, 0.5, 0.75, 1.0],
    "extract": False,
    "amplitude_taus": [0.5, 1.0],
}

# per-layer time metrics: self time of these spans, per operation
LAYER_TIMES = {
    "cli.import_s": ("cli.import",),
    "cli.load_config_s": ("cli.load_config",),
    "spectrum.extract_s": ("spectrum.extract",),
    "spectrum.nnls_s": ("spectrum.nnls",),
    "spectrum.lsq_s": ("spectrum.lsq",),
    "propagator.build_s": ("propagator.build",),
    "propagator.compose_s": ("propagator.compose",),
    "slicing.coef_table_s": ("slicing.coef_table",),
    "geometry.bundle_s": ("geometry.bundle",),
    "triads.field_s": ("triads.field",),
    "dynamics.integrate_s": ("dynamics.integrate",),
    "dynamics.variation_s": ("dynamics.variation",),
    "dynamics.closed_form_s": ("dynamics.closed_form",),
    "dynamics.el_residual_s": ("dynamics.el_residual", "dynamics.torsion_force"),
    "defects.burgers_s": ("defects.burgers",),
    "io.write_s": ("io.write",),
}
# per-layer call counts of spans
LAYER_CALLS = {"spectrum.calls": "spectrum.extract", "propagator.builds": "propagator.build"}
# per-layer counters recorded by the seams
LAYER_COUNTERS = (
    "spectrum.nfev", "propagator.kernel_entries", "propagator.eigh_n", "slicing.coef_points",
    "slicing.jacobian_calls", "geometry.at_calls", "geometry.points_built", "triads.field_calls",
    "dynamics.rk4_steps", "dynamics.expm_calls", "defects.vertices", "io.bytes_written",
)
# counts computed from each call's inputs; they must repeat exactly
EXACT_COUNTS = ("propagator.kernel_entries", "propagator.eigh_n", "dynamics.rk4_steps", "defects.vertices",
                "io.bytes_written")
UNITS = {name: "s" for name in LAYER_TIMES} | {name: "count" for name in (*LAYER_CALLS, *LAYER_COUNTERS)}
UNITS |= {"geometry.cache_hit_ratio": "ratio", "trace.overhead_s": "s", "trace.other_s": "s"}


def child_env() -> dict:
    return {**os.environ, **PINS, "PYTHONPATH": str(SRC)}


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None while that percentile is below the median."""
    n = len(values)
    if n < 20:
        return None
    k = n - 10  # samples at or below the reported one
    return round(100.0 * k / n, 1), sorted(values)[k - 1]


def fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py"), *(ROOT / "configs").glob("*.json")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_metadata(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pins": PINS,
        "source_fingerprint": fingerprint(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------


def time_setup(cmd, ready_line=False) -> float:
    """Wall time of a fresh interpreter from spawn to exit (or to READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=WORK, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if ready_line:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    try:
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if not ready_line:
        elapsed = time.perf_counter() - t0
        line = "READY\n"
    if proc.returncode != 0 or line != "READY\n":
        raise RuntimeError(f"set-up failed ({proc.returncode}): {err.strip()[-2000:]}")
    return elapsed


def run_cli_job(label, command, config_path, checker, config, flag, traced, index) -> dict:
    out = WORK / f"job-{os.getpid()}-{index}"
    spans = WORK / f"spans-{os.getpid()}-{index}.json"
    argv = [command, "--config", str(config_path), "--out", str(out), "--seed", str(flag)]
    if traced:
        cmd = [sys.executable, str(HERE / "bootstrap.py"), "job", "--spans", str(spans), "--", *argv]
    else:
        cmd = [sys.executable, "-m", "torsiongeo.cli", *argv]
    job = {"label": label, "traced": traced, "error": None, "checks": {}, "accuracy": {}, "trace": None}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=WORK, env=child_env(), capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    job["seconds"] = time.perf_counter() - t0
    try:
        if proc is None:
            job["error"] = f"timed out after {JOB_TIMEOUT_S} s"
        elif proc.returncode != 0 or "Traceback" in proc.stderr:
            job["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        else:
            job["checks"], job["accuracy"] = checker(out, config)
            bad = oracles.failures(job["checks"])
            if bad:
                job["error"] = f"checks failed: {bad}"
            job["results_sha256"] = hashlib.sha256((out / "results.json").read_bytes()).hexdigest()
            if traced:
                job["trace"] = json.loads(spans.read_text())
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        job["error"] = f"output check raised {exc!r}"
    finally:
        shutil.rmtree(out, ignore_errors=True)
        spans.unlink(missing_ok=True)
    return job


def cli_workload(jobs: dict, seed: int, seconds: float, trace: bool):
    """Rounds of one job per config, in seeded order; returns set-up samples
    and job records."""
    rng = random.Random(seed)
    flag = rng.randrange(2**32)  # one --seed flag per run keeps results.json byte-comparable
    configs = {label: json.loads(path.read_text()) for label, (_, path, _) in jobs.items()}
    setup_cmd = [sys.executable, str(HERE / "bootstrap.py"), "setup", *(str(p) for _, p, _ in jobs.values())]
    setup = [time_setup(setup_cmd) for _ in range(SETUP_SAMPLES)]
    records, round_times = [], []
    started = time.perf_counter()
    while len(round_times) < 1 + trace or keep_going(started, seconds, round_times):
        traced = trace and len(round_times) % 2 == 1
        t0 = time.perf_counter()
        for label in rng.sample(sorted(jobs), len(jobs)):
            command, path, checker = jobs[label]
            records.append(run_cli_job(label, command, path, checker, configs[label], flag, traced, len(records)))
        round_times.append(time.perf_counter() - t0)
    return setup, records


def classical_workload(seed: int, seconds: float, trace: bool):
    script = str(HERE / "classical.py")
    setup_cmd = [sys.executable, script, "--seed", str(seed), "--setup-only"]
    setup = [time_setup(setup_cmd, ready_line=True) for _ in range(SETUP_SAMPLES - 1)]
    out = WORK / f"classical-{os.getpid()}.json"
    cmd = [sys.executable, script, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out", str(out)]
    setup.append(time_setup(cmd, ready_line=True))
    data = json.loads(out.read_text())
    out.unlink()
    records = []
    for op in data["ops"]:
        error = op["error"]
        if error is None and op["failed_checks"]:
            error = f"checks failed: {op['failed_checks']}"
        record = {"label": "scenario", "traced": op["traced"], "seconds": op["seconds"], "error": error,
                  "checks": op["checks"], "accuracy": {}, "trace": None}
        if op["traced"]:
            record["trace"] = _select_job(data["trace"], op["index"])
        records.append(record)
    return setup, records


def _select_job(dump: dict, job) -> dict:
    return {
        "stats": [s for s in dump["stats"] if s[0] == job],
        "counters": [c for c in dump["counters"] if c[0] == job],
        "spans": [s for s in dump["spans"] if s[0] == job],
        "absent": dump["absent"],
    }


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def job_layers(dump: dict) -> tuple[dict, dict]:
    """Self time per span name and counters of one traced job."""
    self_s, calls = {}, {}
    for _, name, n_calls, _total, self_time in dump["stats"]:
        self_s[name] = self_s.get(name, 0.0) + self_time
        calls[name] = calls.get(name, 0) + n_calls
    counters = {name: n for _, name, n in dump["counters"]}
    return self_s, {**{f"calls:{k}": v for k, v in calls.items()}, **counters}


def per_operation(records, labels):
    """Per-layer values of one operation: for each label the median over its
    traced jobs (counts in EXACT_COUNTS must agree exactly), summed over
    labels.  Returns (span self-time table, metrics, count mismatches)."""
    table, counts, mismatches = {}, {}, []
    for label in labels:
        jobs = [job_layers(r["trace"]) for r in records if r["label"] == label and r["trace"] is not None]
        if not jobs:
            continue
        for name in {n for selfs, _ in jobs for n in selfs}:
            table[name] = table.get(name, 0.0) + median([selfs.get(name, 0.0) for selfs, _ in jobs])
        for name in {n for _, c in jobs for n in c}:
            values = [c.get(name, 0) for _, c in jobs]
            if name in EXACT_COUNTS and len(set(values)) > 1:
                mismatches.append(f"{label}:{name}={values}")
            value = median(values)
            counts[name] = counts.get(name, 0) + (int(value) if value == int(value) else value)
    metrics = {name: sum(table.get(span, 0.0) for span in spans) for name, spans in LAYER_TIMES.items()}
    metrics |= {name: counts.get(f"calls:{span}", 0) for name, span in LAYER_CALLS.items()}
    metrics |= {name: counts.get(name, 0) for name in LAYER_COUNTERS}
    at_calls = metrics["geometry.at_calls"]
    metrics["geometry.cache_hit_ratio"] = 1.0 - metrics["geometry.points_built"] / at_calls if at_calls else 0.0
    covered = {span for spans in LAYER_TIMES.values() for span in spans}
    metrics["trace.other_s"] = sum(v for name, v in table.items() if name not in covered)
    return table, metrics, mismatches


def op_seconds(records, labels, traced) -> float:
    """One operation's time: the sum over labels of each label's median job time."""
    return sum(median([r["seconds"] for r in records if r["label"] == label and r["traced"] == traced])
               for label in labels)


def check_counts_across_runs(workload, seed, counts: dict) -> list:
    """Exact counts must repeat across runs of the same seed and source."""
    path = WORK / f"counts-{workload}-seed{seed}.json"
    record = {"fingerprint": fingerprint(), "counts": counts}
    if path.exists():
        old = json.loads(path.read_text())
        if old["fingerprint"] == record["fingerprint"] and old["counts"] != counts:
            return [f"exact counts differ from an earlier run of seed {seed}: {old['counts']} vs {counts}"]
    path.write_text(json.dumps(record))
    return []


WORKLOADS = ("golden-cli", "line-amplitudes", "classical")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [SRC / "torsiongeo" / "cli.py", *(ROOT / p for _, p, _ in GOLDEN.values())]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"incomplete checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    trace = bool(args.trace)

    if args.workload == "golden-cli":
        jobs = {label: (cmd, ROOT / path, check) for label, (cmd, path, check) in GOLDEN.items()}
        setup, records = cli_workload(jobs, args.seed, args.seconds, trace)
    elif args.workload == "line-amplitudes":
        config_path = WORK / "line_amplitudes.json"
        config_path.write_text(json.dumps(LINE_CONFIG, indent=1))
        jobs = {"line": ("propagate", config_path, oracles.check_line)}
        setup, records = cli_workload(jobs, args.seed, args.seconds, trace)
    else:
        setup, records = classical_workload(args.seed, args.seconds, trace)
    labels = sorted({r["label"] for r in records})

    # C13: results.json byte-identical across repeats of the same job
    first_digest = {}
    for r in records:
        digest = r.get("results_sha256")
        if digest is not None and first_digest.setdefault(r["label"], digest) != digest:
            r["error"] = "results.json differs from the first repeat of this job"
    failed = [r for r in records if r["error"] is not None]
    problems = [f"{r['label']}: {r['error']}" for r in failed]

    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
             f"attempted {len(records)} operations, failed {len(failed)} "
             f"(failed_ratio {len(failed)}/{len(records)} = {len(failed) / len(records):.3g})",
             f"setup_s             {median(setup):.4f} s   median of {len(setup)}: {[round(s, 4) for s in setup]}"]
    for label in labels:
        times = [r["seconds"] for r in records if r["label"] == label and not r["traced"]]
        t = tail(times)
        tail_text = f"p{t[0]:g} {t[1]:.4f} s" if t else "n/a (needs 20 samples)"
        lines.append(f"{label + '_job_s' if label != 'scenario' else 'scenario_s':<20}{median(times):.4f} s   "
                     f"n={len(times)}  tail {tail_text}")
    for name in sorted({k for r in records for k in r["accuracy"]}):
        worst = max(r["accuracy"][name] for r in records if name in r["accuracy"])
        lines.append(f"{name:<20}{worst:.3e}      worst over the run")

    untraced_op = op_seconds(records, labels, traced=False)
    if not trace:
        metrics = {"setup_s": (median(setup), "s"), "op_s": (untraced_op, "s")}
        lines.append(f"{'op_s':<20}{untraced_op:.4f} s   one operation: sum over job kinds of their median")
    else:
        table, layer, mismatches = per_operation(records, labels)
        layer["trace.overhead_s"] = op_seconds(records, labels, traced=True) - untraced_op
        counts = {name: layer[name] for name in EXACT_COUNTS}
        problems += [f"exact count differs between repeats: {m}" for m in mismatches]
        problems += check_counts_across_runs(args.workload, args.seed, counts)
        absent = sorted({a for r in records if r["trace"] for a in r["trace"]["absent"]})
        lines.append("self time per operation by span (s):")
        lines += [f"  {name:<24}{value:.4f}" for name, value in sorted(table.items(), key=lambda kv: -kv[1])]
        lines.append(f"absent seams: {', '.join(absent) if absent else 'none'}")
        lines.append(f"exact counts (computed from inputs): {counts}")
        metrics = {name: (value, UNITS[name]) for name, value in layer.items()}

    metadata = run_metadata(args.seed)
    lines.append(f"run: {json.dumps(metadata, sort_keys=True)}")
    print("\n".join(lines))
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    runs_dir = WORK / "runs"
    runs_dir.mkdir(exist_ok=True)
    record = {"metadata": metadata, "workload": args.workload, "setup_s": setup, "summary": lines,
              "jobs": records}
    (runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
