"""Smoke test of the benchmark's own code.

    python3 perfbench/selftest.py

Checks, in about a minute:

* ``BENCHMARK.json`` follows its schema (keys, name and unit alphabets,
  bounds, workload count) and names the workloads ``run.py`` offers;
* online self times equal the offline interval computation over nested
  spans, and the self times of one job add up to its root span;
* the circle oracle rejects a listing with a missing level and accepts one
  that resolves the +-m degeneracy;
* minimal runs (one or two operations) print exactly the end-to-end metrics
  with ``--trace 0`` and the per-layer metrics with ``--trace 1``, pass every
  oracle, and record no absent seam;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from tracer import Tracer, self_times_from_spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_schema(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, set(spec)
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/"), path
        assert (ROOT / path).is_dir(), path
    assert 1 <= len(spec["command"]) <= 32 and all(len(a) <= 200 for a in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"]), w
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w
        names.append(w["name"])
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
        names.append(m["name"])
    assert len(names) == len(set(names)), "names must be unique"
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s needs the largest bound"
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def check_self_times() -> None:
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    tracer = Tracer()
    tracer.job = 7
    tracer.begin("root")
    busy(0.002)
    for _ in range(2):
        tracer.begin("child")
        busy(0.001)
        tracer.begin("grandchild")
        busy(0.001)
        tracer.end()
        tracer.end()
    busy(0.001)
    tracer.end()
    offline = self_times_from_spans(tracer.spans)
    by_name = {}
    for job, sid, parent, name, start, end in tracer.spans:
        assert job == 7
        by_name[name] = by_name.get(name, 0.0) + offline[sid]
    for (job, name), (calls, total, self_s) in tracer.stats.items():
        assert abs(by_name[name] - self_s) < 1e-9, (name, by_name[name], self_s)
    root = next(s for s in tracer.spans if s[3] == "root")
    assert abs(sum(v[2] for v in tracer.stats.values()) - (root[5] - root[4])) < 1e-9
    assert tracer.stats[(7, "child")][0] == 2 and tracer.stats[(7, "grandchild")][0] == 2


def check_circle_oracle() -> None:
    out = HERE / ".work" / "selftest-circle"
    out.mkdir(parents=True, exist_ok=True)
    cases = {(0.0, 0.5, 2.0, 4.5): True, (0.0, 0.5, 0.5, 2.0): True,
             (0.0, 0.5): False, (0.0, 0.5, 4.5): False, (0.0, 0.5, 4.5, 8.0): False}
    try:
        for energies, ok in cases.items():
            (out / "results.json").write_text(json.dumps({"energies": energies}))
            checks, _ = oracles.check_circle(out, {"a": 1.0, "n_levels": len(energies) if ok else 4})
            assert (not oracles.failures(checks)) == ok, (energies, oracles.failures(checks))
    finally:
        shutil.rmtree(out)


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.01",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_runs(spec: dict) -> None:
    expected = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for workload, trace in (("classical", 0), ("classical", 1), ("golden-cli", 0), ("line-amplitudes", 1)):
        proc = run_bench(ROOT, workload, trace)
        assert proc.returncode == 0, (workload, trace, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        assert set(result["metrics"]) == expected[trace], set(result["metrics"]) ^ expected[trace]
        for name, metric in result["metrics"].items():
            assert set(metric) == {"value", "unit"} and isinstance(metric["value"], (int, float)), name
        if trace:
            assert "absent seams: none" in lines, [line for line in lines if line.startswith("absent")]
        else:
            assert all(result["metrics"][m]["value"] > 0 for m in expected[0])
        print(f"  {workload} --trace {trace}: ok ({result['attempted']} operations)")


def check_incomplete_checkout() -> None:
    bare = HERE / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_bench(bare, "golden-cli", 0)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_schema(spec)
    import run

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    print("schema: ok")
    check_self_times()
    print("self-time arithmetic: ok")
    check_circle_oracle()
    print("circle oracle rejects missing levels: ok")
    check_incomplete_checkout()
    print("incomplete checkout exits nonzero: ok")
    check_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
