# CLI contract: config validation naming offending keys, exit codes,
# deterministic artifacts, schema round-trips, report formatting, and one
# orbit bundle per traj run.

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torsiongeo import cli
from torsiongeo.cli import format_report, load_config, main, run
from torsiongeo.errors import ParseError, ValidationError
from torsiongeo.io import read_contour_csv, read_trajectory_csv, write_contour_csv

REPO = Path(__file__).resolve().parent.parent


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


MINIMAL = {"geometry": "circle", "a": 1.0, "command": "propagate", "N": 64, "eps": 0.0625}


def test_load_minimal_config(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    assert cfg.geometry == "circle"
    assert cfg.command == "propagate"
    assert cfg.options["N"] == 64


def test_negative_radius_names_key(tmp_path):
    with pytest.raises(ValidationError, match="a"):
        load_config(write_config(tmp_path, {"geometry": "sphere", "a": -1.0, "command": "geom"}))


def test_unknown_scheme_lists_alternatives(tmp_path):
    payload = dict(MINIMAL, scheme="weyl")
    with pytest.raises(ValidationError, match="postpoint"):
        load_config(write_config(tmp_path, payload))


def test_unknown_key_rejected(tmp_path):
    payload = dict(MINIMAL, wavelet=3)
    with pytest.raises(ValidationError, match="wavelet"):
        load_config(write_config(tmp_path, payload))


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(path)
    with pytest.raises(ParseError):
        load_config(tmp_path / "missing.json")


def test_exit_codes(tmp_path):
    bad = write_config(tmp_path, {"geometry": "sphere", "a": -1.0, "command": "geom"}, "bad.json")
    assert main(["geom", "--config", str(bad), "--out", str(tmp_path / "o1")]) == 2
    # valid config, computation error: under-resolved propagator grid
    coarse = write_config(
        tmp_path,
        {"geometry": "circle", "a": 1.0, "command": "propagate", "N": 4, "eps": 1e-4, "grid_points": 16},
        "coarse.json",
    )
    assert main(["propagate", "--config", str(coarse), "--out", str(tmp_path / "o2")]) == 1
    good = write_config(tmp_path, {"geometry": "polar", "command": "traj", "kind": "geodesic",
                                   "q0": [1.0, 0.0], "v0": [0.1, 0.4], "duration": 0.5, "dt": 0.001}, "good.json")
    assert main(["traj", "--config", str(good), "--out", str(tmp_path / "o3")]) == 0


def test_unusable_out_dir_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"geometry": "dislocation", "command": "defect", "contour_segments": 64})
    (tmp_path / "taken").write_text("")
    assert main(["defect", "--config", str(cfg), "--out", str(tmp_path / "taken")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_circle_kernel_wider_than_the_image_bound_exits_1(tmp_path, capsys):
    # eps 1e20 would need about 1e10 winding images; the bound is checked before they are allocated
    cfg = write_config(tmp_path, {"geometry": "circle", "command": "propagate", "N": 1, "eps": 1e20})
    assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "winding images" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "out" / "results.json").exists()


def test_overflowing_trajectory_exits_1_quietly(tmp_path, cli_env):
    cfg = write_config(tmp_path, {"geometry": "flat-cartesian", "command": "traj", "kind": "geodesic",
                                  "q0": [0.0, 0.0], "v0": [1e200, 0.0], "duration": 0.01, "dt": 0.001})
    proc = subprocess.run(
        [sys.executable, "-m", "torsiongeo.cli", "traj", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=REPO, env=cli_env,
    )
    assert proc.returncode == 1
    # an overflowed orbit is not drift: no smaller dt mends it
    assert proc.stderr.startswith("error: kinetic invariant is not finite")
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out" / "results.json").exists()


def test_command_mismatch_is_config_error(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    assert main(["defect", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_traj_artifacts_roundtrip_and_straightness(tmp_path, capsys):
    cfg = load_config(
        write_config(
            tmp_path,
            {"geometry": "polar", "command": "traj", "kind": "autoparallel",
             "q0": [1.0, 0.3], "v0": [0.4, 0.5], "duration": 1.0, "dt": 0.001},
        )
    )
    out = tmp_path / "out"
    run(cfg, out)
    t, q, qdot = read_trajectory_csv(out / "trajectory.csv")
    x = np.stack([q[:, 0] * np.cos(q[:, 1]), q[:, 0] * np.sin(q[:, 1])], axis=1)
    line = x[0] + np.outer(t, (x[-1] - x[0]) / t[-1])
    assert np.max(np.abs(x - line)) < 1e-6


def test_traj_run_evaluates_its_orbit_once(tmp_path, monkeypatch):
    # the drift check, invariant_drift and the action share one kinetic invariant, from one bundle
    from torsiongeo.geometry import Geometry

    sizes, batch = [], Geometry.batch
    monkeypatch.setattr(Geometry, "batch", lambda self, points: sizes.append(len(points)) or batch(self, points))
    cfg = write_config(tmp_path, {"geometry": "polar", "command": "traj", "kind": "autoparallel",
                                  "q0": [1.0, 0.3], "v0": [0.4, 0.5], "duration": 1.0, "dt": 0.001})
    assert main(["traj", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert sizes == [1001]


def test_defect_run_burgers_value(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            {"geometry": "dislocation", "epsilon": 0.01, "command": "defect",
             "contour_radius": 1.0, "contour_segments": 10000},
        )
    )
    results = run(cfg, tmp_path / "out")
    assert abs(results["b"][0]) < 1e-8
    assert results["b"][1] == pytest.approx(0.01, rel=1e-6)
    assert results["winding"] == 1


def test_defect_contour_csv_ingestion(tmp_path):
    from torsiongeo.defects import Contour

    contour_path = tmp_path / "contour.csv"
    write_contour_csv(Contour.circle(0.8, 512), contour_path)
    loaded = read_contour_csv(contour_path)
    assert loaded.winding_number == 1
    cfg = load_config(
        write_config(
            tmp_path,
            {"geometry": "disclination", "omega": 0.05, "command": "defect", "contour_csv": str(contour_path)},
        )
    )
    results = run(cfg, tmp_path / "out")
    assert results["deficit"] == pytest.approx(-2 * np.pi * 0.05, rel=1e-4)


def test_geom_command_deterministic_points(tmp_path):
    cfg = load_config(
        write_config(tmp_path, {"geometry": "sphere", "a": 1.0, "command": "geom", "points": [[1.0, 0.4]]})
    )
    results = run(cfg, tmp_path / "out")
    assert results["points"][0]["scalar_riemann"] == pytest.approx(2.0, abs=1e-9)


def test_results_json_byte_stable(tmp_path):
    cfg_path = write_config(
        tmp_path,
        {"geometry": "circle", "a": 1.0, "command": "propagate", "N": 16, "eps": 0.0625,
         "grid_points": 256, "n_levels": 2},
    )
    cfg = load_config(cfg_path)
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "results.json").read_bytes() == (tmp_path / "b" / "results.json").read_bytes()
    # manifests agree apart from the isolated timing fields
    m1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
    for volatile in ("timestamp_utc", "wall_time_s", "stages_s"):
        m1.pop(volatile), m2.pop(volatile)
    assert m1 == m2


def test_manifest_records_stage_seconds(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            {"geometry": "circle", "a": 1.0, "command": "propagate", "N": 8, "eps": 0.0625,
             "grid_points": 256, "extract": False, "amplitude_taus": [0.5]},
        )
    )
    run(cfg, tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    stages = manifest["stages_s"]
    assert sorted(stages) == ["propagate", "write"]
    assert all(v >= 0.0 for v in stages.values())
    assert sum(stages.values()) <= manifest["wall_time_s"] + 1e-3


def test_propagate_amplitude_csv(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            {"geometry": "circle", "a": 1.0, "command": "propagate", "N": 8, "eps": 0.0625,
             "grid_points": 256, "extract": False, "amplitude_taus": [0.5]},
        )
    )
    out = tmp_path / "out"
    run(cfg, out)
    rows = (out / "amplitude_tau_0.5.csv").read_text().strip().splitlines()
    assert float(rows[0].split(",")[0]) == 0.5
    assert len(rows) == 257


def test_amplitude_tau_off_the_float_grid_of_eps(tmp_path):
    # 3 * 0.1 != 0.3 in floating point; the CSV is still found by the requested tau
    cfg = write_config(tmp_path, {"geometry": "circle", "a": 1.0, "command": "propagate", "N": 4, "eps": 0.1,
                                  "grid_points": 200, "extract": False, "amplitude_taus": [0.3]})
    assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "amplitude_tau_0.3.csv").read_text().startswith("0.3,")


def test_report_subcommand_and_empty(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert "no results" in capsys.readouterr().out
    assert format_report({"command": "propagate", "energies": []}).endswith("no results")


# the perfbench line-amplitudes job: a 1024-point line, no levels, two stored kernels
LINE_JOB = {"geometry": "flat-cartesian", "d": 1, "command": "propagate", "N": 64, "eps": 1 / 64, "grid_points": 1024,
            "grid_range": [-8.0, 8.0], "tau_values": [0.25, 0.5, 0.75, 1.0], "extract": False,
            "amplitude_taus": [0.5, 1.0]}
RUNS = {**{path.name: path for path in sorted((REPO / "configs").glob("*.json"))},
        "line-job": LINE_JOB, "geom": {"geometry": "torsion-toy", "command": "geom", "n_points": 3}}


def plain(value) -> bool:
    """Only the values json.load gives: dicts, lists, str, int, float, bool and None."""
    if type(value) is dict:
        return all(map(plain, value.values()))
    if type(value) is list:
        return all(map(plain, value))
    return type(value) in (str, int, float, bool, type(None))


@pytest.mark.parametrize("name", RUNS)
def test_run_returns_the_payload_it_writes(tmp_path, name):
    config = RUNS[name] if isinstance(RUNS[name], Path) else write_config(tmp_path, RUNS[name])
    results = run(load_config(config), tmp_path / "out", seed=7)
    text = (tmp_path / "out" / "results.json").read_text()
    assert plain(results) and results == json.loads(text)
    assert json.dumps(results, sort_keys=True, indent=1) + "\n" == text


@pytest.mark.parametrize("text", ["{not json", '{"command": "traj"}', "[1, 2]", None],
                         ids=["not-json", "partial-payload", "not-an-object", "directory"])
def test_report_of_a_malformed_results_file_exits_1(tmp_path, cli_env, text):
    path = tmp_path / "out" / "results.json"
    if text is None:
        path.mkdir(parents=True)
    else:
        path.parent.mkdir()
        path.write_text(text)
    proc = subprocess.run([sys.executable, "-m", "torsiongeo.cli", "report", "--out", str(path.parent)],
                          capture_output=True, text=True, cwd=REPO, env=cli_env)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert str(path) in proc.stderr and "Traceback" not in proc.stderr


def test_a_run_leaves_no_earlier_results_and_a_config_error_touches_none(tmp_path, capsys):
    golden = json.loads((REPO / "configs" / "circle_spectrum.json").read_text())
    out = tmp_path / "out"
    amplitudes = write_config(tmp_path, {**golden, "amplitude_taus": [0.5, 1.0]}, "amplitudes.json")
    assert main(["propagate", "--config", str(amplitudes), "--out", str(out)]) == 0
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(written) == 4  # results.json, manifest.json and the two amplitude CSVs
    invalid = write_config(tmp_path, {**golden, "eps": -1.0}, "invalid.json")
    assert main(["propagate", "--config", str(invalid), "--out", str(out)]) == 2
    assert main(["defect", "--config", str(amplitudes), "--out", str(out)]) == 2
    assert {path.name: path.read_bytes() for path in out.iterdir()} == written
    # a valid config whose run fails: 31 levels above the rounding floor, 200 asked for
    failing = write_config(tmp_path, {**golden, "eps": 0.25, "N": 16, "n_levels": 200}, "failing.json")
    assert main(["propagate", "--config", str(failing), "--out", str(out)]) == 1
    assert not any(out.iterdir())
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "no results\n"
    # a trajectory that overflows at t = 0 leaves no earlier trajectory.csv either
    traj = REPO / "configs" / "torsion_toy_traj.json"
    assert main(["traj", "--config", str(traj), "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    overflow = write_config(tmp_path, {**json.loads(traj.read_text()), "v0": [1e200, 0]}, "overflow.json")
    assert main(["traj", "--config", str(overflow), "--out", str(out)]) == 1
    assert not any(out.iterdir())


def test_a_reader_closing_stdout_early_is_no_failure(tmp_path, cli_env):
    # a 3000-point geom report, about 160 KB, outgrows the pipe, so the print meets the closed pipe
    cfg = write_config(tmp_path, {"geometry": "torsion-toy", "command": "geom", "n_points": 3000})
    out = str(tmp_path / "out")
    for args in (["geom", "--config", str(cfg), "--out", out], ["report", "--out", out]):
        proc = subprocess.Popen([sys.executable, "-m", "torsiongeo.cli", *args], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, cwd=REPO, env=cli_env)
        assert proc.stdout.readline() == b"torsiongeo geom report\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0 and err == b"", (args[0], err)
    assert len(json.loads((tmp_path / "out" / "results.json").read_text())["points"]) == 3000


SEEDED = {"geom": {"geometry": "torsion-toy", "command": "geom", "n_points": 2},
          "traj": {"geometry": "polar", "command": "traj", "kind": "geodesic", "q0": [1.0, 0.0], "v0": [0.1, 0.4],
                   "duration": 0.01, "dt": 0.001}}


@pytest.mark.parametrize("command", SEEDED)
def test_seed_is_a_u64_checked_when_the_arguments_are_parsed(tmp_path, capsys, command):
    cfg = write_config(tmp_path, SEEDED[command])
    for seed in (-1, 2**64):
        out = tmp_path / f"out{seed}"
        with pytest.raises(SystemExit) as exit_:
            main([command, "--config", str(cfg), "--out", str(out), "--seed", str(seed)])
        assert exit_.value.code == 2 and not out.exists()
        assert f"argument --seed: must be an integer from 0 to 2**64 - 1, got '{seed}'" in capsys.readouterr().err
    for seed in (0, 2**64 - 1):
        out = tmp_path / f"ok{seed}"
        assert main([command, "--config", str(cfg), "--out", str(out), "--seed", str(seed)]) == 0
        assert json.loads((out / "results.json").read_text())["seed"] == seed


def test_report_spectrum_table():
    text = format_report(
        {"command": "propagate", "energies": [0.0, 0.5], "residuals": [1e-8]}
    )
    assert "level" in text and "energy" in text and "residual" in text


def test_report_prints_a_level_that_rounds_to_zero_unsigned():
    # the circle golden's ground level is -3.55e-15 in results.json
    ladder = {"energies": [-3.55e-15, 0.5]}
    propagate = format_report({"command": "propagate", **ladder}).splitlines()
    assert propagate[2].split() == ["0", "0.000000"]
    compare = format_report({"command": "compare-measures", "qep": ladder, "naive_dewitt": {"energies": [-1e-9, 0.8]},
                             "reference_shift": 0.3}).splitlines()
    assert compare[2].split()[:3] == ["0", "0.000000", "0.000000"]
    assert "-0.000000" not in "\n".join(propagate + compare)


def test_console_entry_point(tmp_path, cli_env):
    cfg = write_config(tmp_path, {"geometry": "dislocation", "epsilon": 0.02, "command": "defect",
                                  "contour_radius": 1.0, "contour_segments": 2048})
    proc = subprocess.run(
        [sys.executable, "-m", "torsiongeo.cli", "defect", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=cli_env,
    )
    assert proc.returncode == 0
    assert "dislocation" in proc.stdout


def test_contour_key_is_unknown(tmp_path, capsys):
    # propagation runs on the Euclidean contour only; there is no contour option
    cfg = write_config(tmp_path, dict(MINIMAL, contour="real-time"))
    assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "'contour'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["tau_values", "amplitude_taus"])
def test_tau_off_the_eps_grid_is_config_error(tmp_path, capsys, key):
    cfg = write_config(tmp_path, dict(MINIMAL, N=8, eps=0.1, **{key: [0.2, 0.25]}))
    with pytest.raises(ValidationError, match=key):
        load_config(cfg)
    assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


def test_malformed_threads_env_is_config_error(tmp_path, cli_env):
    cfg = write_config(tmp_path, {"geometry": "dislocation", "epsilon": 0.02, "command": "defect",
                                  "contour_segments": 512})
    for value in ("abc", "0", "-2", "1.5"):
        proc = subprocess.run(
            [sys.executable, "-m", "torsiongeo.cli", "defect", "--config", str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env={**cli_env, "TORSIONGEO_THREADS": value}, cwd=REPO,
        )
        assert proc.returncode == 2
        assert "TORSIONGEO_THREADS" in proc.stderr


THREAD_PINS = """
import os, sys
from torsiongeo import cli
assert "numpy" not in sys.modules  # the pins below must precede the first numpy import
code = cli.main(["defect", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, [os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")])
"""


def test_threads_env_sets_blas_variables_before_numpy(tmp_path, cli_env):
    cfg = write_config(tmp_path, {"geometry": "dislocation", "epsilon": 0.02, "command": "defect",
                                  "contour_segments": 512})
    env = {**cli_env, "TORSIONGEO_THREADS": "2", "OPENBLAS_NUM_THREADS": "7"}
    proc = subprocess.run([sys.executable, "-c", THREAD_PINS, str(cfg), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 ['2', '2', '2']"


def test_threads_env_cap(tmp_path, cli_env):
    cfg = write_config(tmp_path, {"geometry": "dislocation", "epsilon": 0.02, "command": "defect",
                                  "contour_radius": 1.0, "contour_segments": 512})
    proc = subprocess.run(
        [sys.executable, "-m", "torsiongeo.cli", "defect", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env={**cli_env, "TORSIONGEO_THREADS": "1"},
        cwd=REPO,
    )
    assert proc.returncode == 0


def test_variation_csv_roundtrip(tmp_path):
    from torsiongeo import catalog
    from torsiongeo.dynamics import bump_variation, integrate_trajectory, nonholonomic_variation
    from torsiongeo.io import write_variation_csv

    geom = catalog.make("torsion-toy")
    traj = integrate_trajectory(geom, "autoparallel", [0.0, 0.05], [0.45, -0.3], 0.2, 0.01)
    record = nonholonomic_variation(geom, traj, bump_variation(traj, [0.1, -0.05]))
    path = tmp_path / "variation.csv"
    write_variation_csv(record, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,dq1,dq2,db1,db2"
    assert len(rows) == len(traj.t) + 1


def test_geom_command_random_points(tmp_path):
    cfg = load_config(
        write_config(tmp_path, {"geometry": "torsion-toy", "s0": 0.3, "command": "geom", "n_points": 3})
    )
    results = run(cfg, tmp_path / "out", seed=7)
    assert len(results["points"]) == 3
    assert "torsion" in results["points"][0]


@pytest.mark.parametrize("points", [[[0, "a"]], [[0.5]]], ids=["non-numeric", "wrong-dimension"])
def test_geom_malformed_points_are_config_errors(tmp_path, capsys, points):
    cfg = write_config(tmp_path, {"geometry": "torsion-toy", "command": "geom", "points": points})
    assert main(["geom", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "'points'" in capsys.readouterr().err


def test_geom_overflowing_point_exits_1_quietly(tmp_path, cli_env):
    # the bundle refuses an inverse-metric derivative that overflows; the payload walk, a determinant that does
    for point, message in (
        ([1e300, 1e300],
         re.escape("error: torsion-toy: derivative of the inverse metric is not finite at q=[1e+300, 1e+300]")),
        ([6e78, 8e78], r"error: results\.points\[0\]\.\w+(\[\d\])* is not finite"),
    ):
        cfg = write_config(tmp_path, {"geometry": "torsion-toy", "command": "geom", "points": [point]})
        proc = subprocess.run(
            [sys.executable, "-m", "torsiongeo.cli", "geom", "--config", str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, cwd=REPO, env=cli_env,
        )
        assert proc.returncode == 1
        assert re.fullmatch(message + "\n", proc.stderr), proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "out" / "results.json").exists()


def test_geom_at_a_metric_singular_in_floating_point_exits_1_naming_the_point(tmp_path, capsys):
    cfg = write_config(tmp_path, {"geometry": "dislocation", "command": "geom", "points": [[6e-13, 8e-13]]})
    assert main(["geom", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: dislocation: metric singular at q=[6e-13, 8e-13]\n"


# -- energies from the transfer matrix ------------------------------------------


def test_circle_eigen_energies_against_fit_oracle(tmp_path):
    from torsiongeo.spectrum import extract_spectrum

    results = run(load_config(REPO / "configs" / "circle_spectrum.json"), tmp_path / "out")
    # the +-m degeneracy is resolved: each l >= 1 appears twice
    assert results["energies"] == pytest.approx([0.0, 0.5, 0.5, 2.0], abs=1e-9)
    # negative eigenvalues of the symmetrized B are rounding noise here, and none is below the rounding floor
    assert results["clipped_eigenvalues"] == 0 and abs(results["min_eigenvalue"]) < 1e-12
    distinct = [e for k, e in enumerate(results["energies"]) if k == 0 or e - results["energies"][k - 1] > 1e-6]
    taus = results["tau"]
    fit = extract_spectrum(taus, results["trace"], n_levels=9, e_max=min(40.0 / taus[0], 80.0), n_trial=4000,
                           residual_threshold=5e-2)
    assert fit.energies[: len(distinct)] == pytest.approx(distinct, abs=1e-3)


def test_too_few_positive_eigenvalues_exits_1(tmp_path, capsys):
    # 256 grid points leave fewer than 256 positive eigenvalues
    cfg = write_config(tmp_path, {**MINIMAL, "N": 16, "grid_points": 256, "n_levels": 256})
    assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "< n_levels=256" in capsys.readouterr().err


def test_levels_below_the_rounding_floor_exit_1(tmp_path, capsys):
    # A level is resolved only while exp(-eps E / hbar) stays above the
    # eigensolve's rounding floor n eps max|lambda|.  The circle golden has
    # about 63 such levels; beyond them the energies used to read 577-614
    # where k^2 / 2 runs from 612.5 to 1800.
    golden = json.loads((REPO / "configs" / "circle_spectrum.json").read_text())
    cfg = write_config(tmp_path, {**golden, "n_levels": 120})
    assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "rounding floor < n_levels=120" in err and "Traceback" not in err
    # every level above the floor is the circle's k^2 / 2
    resolved = int(err.split("transfer matrix has ")[1].split()[0])
    results = run(load_config(write_config(tmp_path, {**golden, "n_levels": resolved})), tmp_path / "ok")
    want = sorted(k * k / 2 for k in range(-resolved, resolved + 1))[:resolved]
    assert results["energies"] == pytest.approx(want, rel=1e-4, abs=1e-9)


def test_sphere_sector_floor_comes_from_the_unphased_kernel(tmp_path, capsys):
    # An m > 0 sector kernel cancels down from the unphased one, so its levels
    # are resolved only above n eps times the unphased kernel's largest row sum.
    # At m = 50 the lowest levels, exactly 1275 and 1326, sit far below it; the
    # sector's own floor let them through as 610.8 and 611.3.
    golden = json.loads((REPO / "configs" / "sphere_compare.json").read_text())
    sector = {**golden, "command": "propagate", "n_levels": 2, "richardson": False}
    cfg = write_config(tmp_path, {**sector, "m_sector": 50})
    assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rounding floor < n_levels=2" in err and len(err.splitlines()) == 1
    # the levels of m = 10 (exactly 55 and 66) stay resolved
    results = run(load_config(write_config(tmp_path, {**sector, "m_sector": 10})), tmp_path / "ok")
    assert results["energies"] == pytest.approx([55.4476, 66.5342], abs=1e-3)
    # the negative count reads the same floor: at m = 50 no eigenvalue is
    # negative beyond it, though 91 are beyond the sector kernel's own
    unextracted = run(load_config(write_config(tmp_path, {**sector, "m_sector": 50, "extract": False})),
                      tmp_path / "count")
    assert unextracted["clipped_eigenvalues"] == 0


# Runs the CLI after importing it, under an address-space limit 64 MiB above the footprint the imports leave.
LIMITED_CLI = """
import resource, sys
import torsiongeo.cli, torsiongeo.io, torsiongeo.propagator
vm = next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("VmSize:")) << 10
resource.setrlimit(resource.RLIMIT_AS, (vm + (64 << 20),) * 2)
sys.exit(torsiongeo.cli.main(sys.argv[1:]))
"""


def test_memory_failure_exits_1(tmp_path, monkeypatch, capsys, cli_env):
    # a 4096-node line grid, inside every budget, builds 128 MiB kernels: under the limit the first of them
    # fails at once, and the run exits 1 with a one-line error
    cfg = write_config(tmp_path, {"geometry": "flat-cartesian", "d": 1, "command": "propagate", "N": 1,
                                  "eps": 0.0625, "grid_points": 4096, "extract": False})
    env = {**cli_env,
           **dict.fromkeys(("TORSIONGEO_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")}
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, "propagate", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=REPO, env=env, timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: Unable to allocate") and len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "out" / "results.json").exists()

    # a MemoryError without a message still names itself
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run", out_of_memory)
    assert main(["propagate", "--config", str(write_config(tmp_path, MINIMAL)), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_sphere_amplitudes_use_m_sector_and_one_propagate(tmp_path, monkeypatch):
    from torsiongeo import catalog, propagator
    from torsiongeo.io import write_amplitude_csv
    from torsiongeo.slicing import SliceConfig

    calls = []
    original, build_all = propagator.propagate, propagator.propagate_measures

    def counting(*args, **kwargs):
        calls.append(kwargs.get("m_sector"))
        return build_all(*args, **kwargs)

    monkeypatch.setattr(propagator, "propagate_measures", counting)
    taus = [0.1, 0.2, 0.3, 0.4]
    cfg = load_config(write_config(tmp_path, {
        "geometry": "sphere", "a": 1.0, "command": "propagate", "N": 8, "eps": 0.05, "grid_points": 120,
        "tau_values": taus, "m_sector": 1, "amplitude_taus": [0.2]}))
    run(cfg, tmp_path / "out")
    assert calls == [1]
    got = (tmp_path / "out" / "amplitude_tau_0.2.csv").read_text()
    sphere, slices = catalog.make("sphere", a=1.0), SliceConfig(n_slices=8, eps=0.05)
    for m, same in ((1, True), (0, False)):
        ref = original(sphere, slices, grid=120, taus=taus, m_sector=m, store_taus=[0.2])
        write_amplitude_csv(ref.grid, ref.amplitudes[0.2], 0.2, tmp_path / f"ref_m{m}.csv")
        assert ((tmp_path / f"ref_m{m}.csv").read_text() == got) is same


COLD_START = """
import sys
from pathlib import Path
from torsiongeo import cli, defects, dynamics, io, propagator, slicing, spectrum
out, *configs = sys.argv[1:]
for config in map(Path, configs):  # each file is named after its command
    assert cli.main([config.stem, "--config", str(config), "--out", f"{out}/{config.stem}"]) == 0
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_cli_cold_path_imports_no_scipy_solvers(tmp_path, cli_env):
    # every CLI command, run in one fresh interpreter that has imported every module the commands use, leaves no
    # scipy module loaded, and each manifest records no scipy version
    configs = [write_config(tmp_path, config, f"{config['command']}.json") for config in (
        {"geometry": "dislocation", "epsilon": 0.02, "command": "defect", "contour_segments": 512},
        {**MINIMAL, "N": 16, "n_levels": 2},
        {"geometry": "sphere", "command": "geom", "n_points": 3},
        {"geometry": "torsion-toy", "command": "traj", "kind": "autoparallel", "q0": [0.0, 0.0], "v0": [0.5, 0.3],
         "duration": 0.1, "dt": 0.01},
        {**MINIMAL, "command": "compare-measures", "N": 16, "n_levels": 2})]
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path), *map(str, configs)],
                          capture_output=True, text=True, env=cli_env, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    for config in configs:
        manifest = json.loads((tmp_path / config.stem / "manifest.json").read_text())
        assert manifest["versions"]["scipy"] is None


COMMAND_SIZED_START = """
import sys
from torsiongeo import cli
defect_cfg, circle_cfg, out = sys.argv[1:]
assert cli.main(["defect", "--config", defect_cfg, "--out", out + "/defect"]) == 0
assert cli.main(["propagate", "--config", circle_cfg, "--out", out + "/circle"]) == 0
print(sorted({"scipy", "torsiongeo.dynamics", "torsiongeo.spectrum"} & set(sys.modules)))
"""


def test_cli_cold_start_loads_only_the_running_command(tmp_path, cli_env):
    # a fresh interpreter that imports only the CLI: a dislocation defect and a
    # circle propagate without richardson load neither scipy, the dynamics
    # module nor the spectrum module, and the manifest records no scipy version
    defect = write_config(tmp_path, {"geometry": "dislocation", "epsilon": 0.02, "command": "defect",
                                     "contour_segments": 512}, "defect.json")
    circle = write_config(tmp_path, {**MINIMAL, "N": 16, "n_levels": 2}, "circle.json")
    proc = subprocess.run([sys.executable, "-c", COMMAND_SIZED_START, str(defect), str(circle), str(tmp_path)],
                          capture_output=True, text=True, env=cli_env, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    for command in ("defect", "circle"):
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        assert manifest["versions"]["scipy"] is None


COMPARE_START = """
import sys
from torsiongeo import cli
assert cli.main(["compare-measures", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print("numpy.random" in sys.modules)
"""


def test_compare_reads_its_reference_shift_without_a_random_draw(tmp_path, cli_env):
    # -V = hbar^2 R / 6M is 1/3 everywhere on the unit sphere; the run reads it at the sample box's centre
    cfg = write_config(tmp_path, {"geometry": "sphere", "command": "compare-measures", "N": 4, "eps": 0.25,
                                  "grid_points": 64, "n_levels": 1, "richardson": False})
    proc = subprocess.run([sys.executable, "-c", COMPARE_START, str(cfg), str(tmp_path / "out")],
                          capture_output=True, text=True, env=cli_env, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    assert results["reference_shift"] == pytest.approx(1 / 3, rel=1e-12)
