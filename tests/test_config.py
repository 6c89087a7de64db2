# Config schema: every config fault exits 2 with one ``config error:`` line that
# names the key, never a traceback; the size budgets of ``cli.BUDGETS`` are
# checked before anything is allocated; the README documents exactly the
# schema's keys; a hypothesis fuzzer draws cheap valid configs for every
# command, runs each, then breaks it one key or one structural rule at a time.

import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torsiongeo import catalog, cli
from torsiongeo.cli import BUDGETS, KEYS, SPECTRUM, load_config, main
from torsiongeo.defects import Contour
from torsiongeo.errors import ValidationError
from torsiongeo.io import write_contour_csv
from torsiongeo.slicing import SliceConfig

REPO = Path(__file__).resolve().parent.parent
NAN, INF = float("nan"), float("inf")
MAX_TRAJ_STEPS, MAX_SLICES, MAX_GRID_POINTS = (BUDGETS[key][0] for key in ("dt", "N", "grid_points"))

CIRCLE = {"geometry": "circle", "command": "propagate", "N": 4, "eps": 0.0625, "grid_points": 64}
LINE = {**CIRCLE, "geometry": "flat-cartesian", "d": 1}
TRAJ = {"geometry": "polar", "command": "traj", "kind": "geodesic", "q0": [1.0, 0.0], "v0": [0.1, 0.4],
        "duration": 0.05, "dt": 0.01}
DEFECT = {"geometry": "dislocation", "command": "defect", "contour_segments": 64}
GOLDEN_CIRCLE = json.loads((REPO / "configs" / "circle_spectrum.json").read_text())  # 256 nodes

# contour files that exist but do not read as a contour
BAD_CONTOURS = {
    "non-numeric.csv": "q1,q2\r\n1,0\r\nzero,1\r\n-1,0\r\n1,0\r\n",
    "three-rows.csv": "1,0\r\n0,1\r\n1,0\r\n",
    "through-origin.csv": "1,0\r\n0,0\r\n0,1\r\n1,0\r\n",
    "nan-vertex.csv": "1,0\r\n0,nan\r\n-1,0\r\n1,0\r\n",
}

# config, key the error line must name; "contour.csv" and BAD_CONTOURS exist in the run directory,
# "missing.csv" does not
PROBES = {
    "eps-overflow": ({**CIRCLE, "eps": 1e308}, "eps"),
    "eps-infinite": ({**CIRCLE, "eps": INF}, "eps"),
    "a-nan": ({**CIRCLE, "a": NAN}, "a"),
    "N-bool": ({**CIRCLE, "N": True}, "N"),
    "n_levels-bool": ({**CIRCLE, "n_levels": True}, "n_levels"),
    "d-fractional": ({"geometry": "flat-cartesian", "d": 2.5, "command": "geom"}, "d"),
    "d-bool": ({"geometry": "flat-cartesian", "d": True, "command": "geom"}, "d"),
    "grid_range-string": ({**LINE, "grid_range": "x"}, "grid_range"),
    "grid_range-reversed": ({**LINE, "grid_range": [1, -1]}, "grid_range"),
    "grid_range-on-circle": ({**CIRCLE, "grid_range": [-1, 1]}, "grid_range"),
    "m_sector-on-circle": ({**CIRCLE, "m_sector": 1}, "m_sector"),
    "scheme-on-sphere": ({**CIRCLE, "geometry": "sphere", "scheme": "midpoint"}, "scheme"),
    "tau_min-with-tau_values": ({**CIRCLE, "tau_min": 0.125, "tau_values": [0.125]}, "tau_min"),
    "tau_min-beyond-N-eps": ({**CIRCLE, "N": 8, "tau_min": 100}, "tau_min"),
    "richardson-without-extract": ({**CIRCLE, "richardson": True, "extract": False}, "richardson"),
    "points-with-n_points": ({"geometry": "polar", "command": "geom", "points": [[1, 0]], "n_points": 3}, "n_points"),
    "contour_segments-2": ({**DEFECT, "contour_segments": 2}, "contour_segments"),
    "contour_center-short": ({**DEFECT, "contour_center": [0]}, "contour_center"),
    "contour_csv-missing": ({"geometry": "dislocation", "command": "defect", "contour_csv": "missing.csv"},
                            "contour_csv"),
    **{f"contour_csv-{name[:-4]}": ({"geometry": "dislocation", "command": "defect", "contour_csv": name},
                                    "contour_csv") for name in BAD_CONTOURS},
    "contour_csv-with-radius": ({"geometry": "dislocation", "command": "defect", "contour_csv": "contour.csv",
                                 "contour_radius": 2.0}, "contour_radius"),
    "propagate-on-plane": ({"geometry": "flat-cartesian", "d": 2, "command": "propagate"}, "geometry"),
    "geometry-unknown": ({**CIRCLE, "geometry": "moebius"}, "geometry"),
    "kind-missing": ({k: v for k, v in TRAJ.items() if k != "kind"}, "kind"),
    "q0-short": ({**TRAJ, "q0": [1]}, "q0"),
    "q0-nan": ({**TRAJ, "q0": [NAN, 0]}, "q0"),
    "dt-beyond-duration": ({**TRAJ, "dt": 5, "duration": 1}, "dt"),
    "dt-not-dividing-duration": ({**TRAJ, "dt": 0.3, "duration": 1}, "dt"),
    "dt-beyond-step-budget": ({**TRAJ, "duration": 1e9, "dt": 1e-3}, "dt"),
    "default-dt-beyond-step-budget": ({**{k: v for k, v in TRAJ.items() if k != "dt"}, "duration": 1e9}, "dt"),
    # each would allocate TiB, or 0.27 GB for the amplitudes, were its budget not checked
    "contour_segments-beyond-budget": ({**DEFECT, "contour_segments": 10**12}, "contour_segments"),
    "contour_turns-beyond-budget": ({"geometry": "dislocation", "command": "defect", "contour_turns": 10**12},
                                    "contour_turns"),
    "n_points-beyond-budget": ({"geometry": "torsion-toy", "command": "geom", "n_points": 2 * 10**12}, "n_points"),
    "m_sector-beyond-budget": ({"geometry": "sphere", "command": "propagate", "N": 80, "eps": 0.05,
                                "grid_points": 176, "m_sector": 10**12}, "m_sector"),
    "amplitude_taus-beyond-budget": ({**LINE, "grid_points": 4096, "amplitude_taus": [0.0625, 0.125]},
                                     "amplitude_taus"),
    # amplitude CSVs are named by the time to 6 significant digits: a repeated time, or two that print alike,
    # would write one file twice
    "amplitude_taus-repeated": ({**LINE, "amplitude_taus": [0.125, 0.125]}, "amplitude_taus"),
    "amplitude_taus-one-file-name": ({**LINE, "eps": 1e-7, "amplitude_taus": [0.1234561, 0.1234562]},
                                     "amplitude_taus"),
    # 257 levels of a 256-node transfer matrix
    "n_levels-beyond-nodes": ({**GOLDEN_CIRCLE, "n_levels": 257}, "n_levels"),
}


def run_main(directory: Path, payload: dict):
    """Write the config into ``directory`` and run the CLI there in-process; return the exit code."""
    (directory / "config.json").write_text(json.dumps(payload))
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return main([payload["command"], "--config", "config.json", "--out", "out"])
    finally:
        os.chdir(cwd)


def assert_config_error(err: str, key: str):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), err
    assert f"'{key}'" in lines[0], (key, lines[0])


@pytest.mark.parametrize("payload, key", PROBES.values(), ids=list(PROBES))
def test_config_probe_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, payload, key):
    # a probe that wrongly passes load_config fails here, before its run could start a budget probe's allocation
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: pytest.fail("the config passed load_config"))
    write_contour_csv(Contour.circle(0.8, 64), tmp_path / "contour.csv")
    for name, text in BAD_CONTOURS.items():
        (tmp_path / name).write_bytes(text.encode())
    assert run_main(tmp_path, payload) == 2
    assert_config_error(capsys.readouterr().err, key)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "top level must be a JSON object"),
    # main runs geom, so an unknown command in the file must be refused before the command-mismatch check
    ('{"geometry": "circle", "command": "frobnicate"}', "config key 'command': must be one of"),
    ('{"geometry": "moebius", "command": "geom"}', "config key 'geometry': unknown geometry 'moebius'"),
], ids=["top-level-list", "command-unknown", "geometry-unknown"])
def test_config_faults_before_the_key_table_exit_2(tmp_path, capsys, text, message):
    (tmp_path / "config.json").write_text(text)
    assert main(["geom", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ") and message in err, err


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2_000_000 << 10, 2_000_000 << 10))  # ulimit -v 2000000


@pytest.mark.parametrize("probe", ["eps-overflow", "q0-nan", "contour_csv-missing",
                                   *(name for name in PROBES if name.endswith(("-budget", "-nodes")))])
def test_config_probe_as_fresh_process_prints_one_line(tmp_path, cli_env, probe):
    payload, key = PROBES[probe]
    (tmp_path / "config.json").write_text(json.dumps(payload))
    env = {**cli_env, "TORSIONGEO_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "torsiongeo.cli", payload["command"], "--config", "config.json",
                           "--out", "out"], capture_output=True, text=True, cwd=tmp_path, env=env,
                          preexec_fn=limit_address_space, timeout=300)
    assert proc.returncode == 2
    assert_config_error(proc.stderr, key)


def test_traj_step_budget_is_checked_before_the_run(tmp_path):
    # only loaded, never run: the budget itself is accepted, one step more names dt
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TRAJ, "duration": MAX_TRAJ_STEPS * 1e-3, "dt": 1e-3}))
    assert load_config(path).options["dt"] == 1e-3
    path.write_text(json.dumps({**TRAJ, "duration": (MAX_TRAJ_STEPS + 1) * 1e-3, "dt": 1e-3}))
    with pytest.raises(ValidationError, match="config key 'dt'"):
        load_config(path)


def test_grid_and_slice_budgets_are_checked_before_the_run(tmp_path):
    # only loaded, never run: each budget is accepted, one more names its key
    path = tmp_path / "config.json"

    def load(payload):
        path.write_text(json.dumps(payload))
        return load_config(path)

    for topology, cfg in (("line", LINE), ("circle", CIRCLE), ("sphere", {**CIRCLE, "geometry": "sphere"})):
        bound = MAX_GRID_POINTS[topology]
        # under richardson the halved step runs on ceil(sqrt(2) n) nodes, which must fit the budget too
        for richardson, largest in ((False, bound), (True, int(bound / math.sqrt(2.0)))):
            assert load({**cfg, "grid_points": largest, "richardson": richardson}).options["grid_points"] == largest
            with pytest.raises(ValidationError, match="config key 'grid_points'"):
                load({**cfg, "grid_points": largest + 1, "richardson": richardson})
    # the default tau_values runs from N eps / 10 to N eps
    assert len(load({**CIRCLE, "N": MAX_SLICES}).options["tau_values"]) == MAX_SLICES - MAX_SLICES // 10 + 1
    with pytest.raises(ValidationError, match="config key 'N'"):
        load({**CIRCLE, "N": MAX_SLICES + 1})


def test_readme_config_table_names_exactly_the_schema_keys():
    text = (REPO / "README.md").read_text()
    section = text.split("### Config format", 1)[1].split("\n### ", 1)[0]
    named = {m.group(1) for m in re.finditer(r"^\| `([^`]+)` \|", section, re.MULTILINE)}
    params = {p for name in catalog.names() for p in catalog.parameter_names(name)}
    assert named == {"geometry", "command"} | params | set(KEYS)


def test_readme_slice_key_defaults_are_slice_config_defaults():
    # the README's default column for N ... measure states what SliceConfig states, the only source of both
    section = (REPO / "README.md").read_text().split("### Config format", 1)[1].split("\n### ", 1)[0]
    # | key | check | default | commands | topology |
    rows = {line.split("`")[1]: line.rsplit(" | ", 3)[1] for line in section.splitlines() if line.startswith("| `")}
    defaults = {key: str(getattr(SliceConfig(), attr)) for key, attr in cli._SLICE_FIELDS.items()}
    assert {key: rows[key].strip("`") for key in defaults} == defaults


def test_readme_key_table_columns_say_where_each_key_applies():
    # the commands and topology columns of every row state what KEYS, or the catalog for a geometry parameter, says
    section = (REPO / "README.md").read_text().split("### Config format", 1)[1].split("\n### ", 1)[0]
    # | key | check | default | commands | topology |
    rows = {line.split("`")[1]: line.removesuffix(" |").rsplit(" | ", 2)[1:]
            for line in section.splitlines() if line.startswith("| `")}
    words = {"all": set(cli.COMMANDS), "spectrum": set(SPECTRUM), "any": set()}
    read = {key: tuple(words.get(column, {name.strip("`") for name in column.split(", ")}) for column in columns)
            for key, columns in rows.items()}
    params = {p: {name for name in catalog.names() if p in catalog.parameter_names(name)}
              for name in catalog.names() for p in catalog.parameter_names(name)}
    assert read == {**dict.fromkeys(("geometry", "command"), (set(cli.COMMANDS), set())),
                    **{p: (set(cli.COMMANDS), names) for p, names in params.items()},
                    **{key: (set(spec.commands), set(spec.topologies)) for key, spec in KEYS.items()}}


# -- fuzzer ------------------------------------------------------------------------

EPS = (0.0625, 0.1, 0.125, 0.25)
RUNS_ON = {"geom": catalog.names(), "traj": ["polar", "torsion-toy", "flat-cartesian", "sphere", "dislocation"],
           "defect": ["dislocation", "disclination"], "propagate": ["circle", "sphere", "line"],
           "compare-measures": ["circle", "sphere", "line"]}
# values no key accepts; True is also refused by every key but the two flags
ALWAYS_BAD = ["x", None, NAN, INF, -INF, {}]
OUT_OF_RANGE = {
    "n_points": [0, 2.5, 2 * 10**12], "duration": [0, -1.0], "contour_radius": [0, -2.0],
    "contour_segments": [2, 3.5, 10**12], "contour_turns": [0, 10**12], "N": [0, 2.5, MAX_SLICES + 1],
    "eps": [0, -0.1], "mass": [0], "hbar": [-1], "scheme": ["weyl"], "order": [1, 4.0], "measure": ["dewitt"],
    "n_levels": [0], "m_sector": [-1, 10**12],
    # beyond every topology's budget, and at an allocation that fails at once were the budget not checked
    "grid_points": [0, 8.5, 2_000_000],
    "tau_min": [100.0], "tau_values": [[], [1e-3], [NAN]], "amplitude_taus": [[1e-3], [INF]],
    "grid_range": [[1, -1], [0], [-INF, 1.0]], "q0": [[0.5] * 3, [NAN, 0.5]], "v0": [[0.5], [0.5, INF]],
    "contour_center": [[0], [0, 0, 0], [NAN, 0.0]], "points": [[], [[0.5] * 3], [[0.5, NAN]]],
    "kind": ["straight"], "contour_csv": ["missing.csv"], "extract": [1], "richardson": [0],
    "a": [-1.0, 0], "d": [2.5, 0], "s0": [1.5], "omega": [0.5], "epsilon": [True],
}


@st.composite
def valid_configs(draw):
    command = draw(st.sampled_from(sorted(RUNS_ON)))
    name = draw(st.sampled_from(RUNS_ON[command]))
    cfg = {"command": command, "geometry": "flat-cartesian" if name == "line" else name}
    if name == "line":
        cfg["d"] = 1
    if name in ("circle", "sphere") and draw(st.booleans()):
        cfg["a"] = draw(st.sampled_from([0.5, 1.0, 2.0]))
    geom = catalog.make(cfg["geometry"], **{k: v for k, v in cfg.items() if k == "d" or k == "a"})
    point = st.tuples(*[st.floats(lo, hi) for lo, hi in geom.sample_box]).map(list)
    if command == "geom":
        if draw(st.booleans()):
            cfg["points"] = draw(st.lists(point, min_size=1, max_size=3))
        elif draw(st.booleans()):
            cfg["n_points"] = draw(st.integers(1, 4))
    elif command == "traj":
        dt = draw(st.sampled_from([0.01, 0.02, 0.05]))
        cfg.update(kind=draw(st.sampled_from(["geodesic", "autoparallel"])), q0=draw(point),
                   v0=draw(st.lists(st.floats(-0.5, 0.5), min_size=geom.dim, max_size=geom.dim)),
                   dt=dt, duration=dt * draw(st.integers(1, 50)))
    elif command == "defect":
        if draw(st.booleans()):
            cfg["contour_csv"] = "contour.csv"
        else:
            cfg.update(contour_radius=draw(st.floats(0.5, 2.0)), contour_segments=draw(st.integers(3, 256)),
                       contour_turns=draw(st.integers(1, 2)),
                       contour_center=draw(st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=2)))
    else:
        n_slices, eps = draw(st.integers(1, 8)), draw(st.sampled_from(EPS))
        # small masses widen the kernel, so some of these coarse grids resolve it
        cfg.update(N=n_slices, eps=eps, mass=draw(st.sampled_from([0.0625, 0.25, 1.0])),
                   grid_points=draw(st.sampled_from([24, 48, 64])), n_levels=draw(st.integers(1, 3)),
                   order=draw(st.sampled_from([2, 3, 4])))
        if name != "sphere":
            cfg["scheme"] = draw(st.sampled_from(["postpoint", "prepoint", "midpoint"]))
        if draw(st.booleans()):
            cfg["tau_values"] = [k * eps for k in draw(st.lists(st.integers(1, n_slices), min_size=1, max_size=3))]
        elif draw(st.booleans()):
            cfg["tau_min"] = eps * draw(st.integers(1, n_slices))
        if name == "sphere" and draw(st.booleans()):
            cfg["m_sector"] = draw(st.integers(0, 2))
        if command == "propagate":
            cfg.update(measure=draw(st.sampled_from(["qep", "naive-dewitt"])), extract=draw(st.booleans()))
            cfg["richardson"] = cfg["extract"] and draw(st.booleans())
            if name == "line":
                cfg["grid_range"] = [-2.0, 2.0]
            if draw(st.booleans()):
                cfg["amplitude_taus"] = [eps * n_slices]
        else:
            cfg["richardson"] = draw(st.booleans())
    return cfg


def config_keys(cfg: dict) -> list:
    """The keys a config of this command and geometry may set, parameters first."""
    params = catalog.parameter_names(cfg["geometry"])
    return sorted(params) + [key for key, spec in KEYS.items() if cfg["command"] in spec.commands]


def broken_variants(draw, cfg: dict) -> list:
    """One broken copy of a valid config per key it may set, and one per structural fault that
    applies to it: a misplaced, conflicting, foreign key or a geometry the command does not run on.
    Each comes with the key its error line must name."""
    variants = []
    for key in config_keys(cfg):
        bad = ALWAYS_BAD + ([] if key in ("extract", "richardson") else [True]) + OUT_OF_RANGE.get(key, [])
        if key == "dt":
            bad += [2 * cfg["duration"], cfg["duration"] / (MAX_TRAJ_STEPS + 1)]  # zero steps, beyond the budget
        if key == "amplitude_taus":  # one distinct time more than the budget holds matrices of the grid
            bad += [[k * cfg["eps"] for k in range(1, BUDGETS[key][0] // cfg["grid_points"] ** 2 + 2)]]
        if key == "n_levels" and cfg.get("extract", True):  # more levels than the grid has nodes
            bad += [cfg["grid_points"] + 1]
        variants.append(({**cfg, key: draw(st.sampled_from(bad))}, key))
    if cfg["command"] in SPECTRUM and cfg["geometry"] != "sphere":
        variants.append(({**cfg, "m_sector": 1}, "m_sector"))
    if cfg["command"] in SPECTRUM and cfg["geometry"] == "sphere":
        variants.append(({**cfg, "scheme": "postpoint"}, "scheme"))
    if cfg["command"] == "propagate" and "d" not in cfg:
        variants.append(({**cfg, "grid_range": [-1.0, 1.0]}, "grid_range"))
    dim = catalog.make(cfg["geometry"], **{k: cfg[k] for k in catalog.parameter_names(cfg["geometry"]) if k in cfg}).dim
    eps = cfg.get("eps")
    conflicts = {"geom": [({"points": [[0.5] * dim], "n_points": 2}, "n_points")],
                 "defect": [({"contour_csv": "contour.csv", "contour_radius": 1.0}, "contour_csv")],
                 "propagate": [({"tau_min": eps, "tau_values": [eps]}, "tau_values"),
                               ({"richardson": True, "extract": False}, "richardson")],
                 "compare-measures": [({"tau_min": eps, "tau_values": [eps]}, "tau_values")]}
    variants += [({**cfg, **pair}, key) for pair, key in conflicts.get(cfg["command"], [])]
    wrong = {"defect": "circle", "propagate": "polar", "compare-measures": "torsion-toy"}.get(cfg["command"])
    if wrong:
        variants.append(({k: v for k, v in cfg.items() if k not in ("a", "d")} | {"geometry": wrong}, "geometry"))
    foreign = draw(st.sampled_from([k for k, spec in KEYS.items() if cfg["command"] not in spec.commands]))
    return variants + [({**cfg, foreign: 1}, foreign)]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=valid_configs(), data=st.data())
def test_fuzzed_configs_keep_the_exit_code_contract(tmp_path, capsys, cfg, data):
    write_contour_csv(Contour.circle(0.8, 64), tmp_path / "contour.csv")
    capsys.readouterr()
    code = run_main(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code in (0, 1) and (code == 0 or err.startswith("error: ")), err
    for broken, key in broken_variants(data.draw, cfg):
        assert run_main(tmp_path, broken) == 2, (broken, key)
        assert_config_error(capsys.readouterr().err, key)
