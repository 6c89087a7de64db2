"""Mutation check of the slice-action coefficients, the kernel builders and their one resolution rule, the energy
rule and its floor, the derivative fallback of fields, the RK4 step, the action's Simpson rule, the size budgets, the
level ceiling, the amplitude file names, the golden references, the one orbit bundle of a trajectory, the payload walk
that refuses non-finite numbers, the payload ``run`` returns, the levels a ladder reports, the report's error handling,
the ``--seed`` range, the removal of an earlier run's results and CSV files, the closure of a contour and a reader that
closes stdout early.

    python tests/mutants.py

Each mutant is one exact text edit of a file under ``src/`` together with the
tests that must catch it.  For each mutant the script copies ``src/`` to a
temporary directory, applies the edit there (the checkout is never touched),
and runs only the named tests against the copy, two mutants at a time.  A
mutant is killed when every named test fails; a named test id without
brackets counts as failed when any of its parametrized cases fails.  Before
the mutants, the named tests run once against the unedited source and must
all pass there.

The script reports each mutant as killed or surviving and exits 1 when a
mutant survives, when its old text is not found exactly once, or when the
unedited source fails a named test.  Hypothesis runs with a fixed seed, and its
example database stays in the temporary directory.  The file name keeps pytest
from collecting it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2  # pytest processes at a time
TEST_TIMEOUT_S = 600  # per pytest process; a mutant that hangs its tests stops the check with an error

SLICING = "torsiongeo/slicing.py"
PROPAGATOR = "torsiongeo/propagator.py"
CLI = "torsiongeo/cli.py"
TRIADS = "torsiongeo/triads.py"
DYNAMICS = "torsiongeo/dynamics.py"
IO = "torsiongeo/io.py"
DEFECTS = "torsiongeo/defects.py"
ENTRIES = "tests/test_propagator.py::test_build_1d_entries_match_per_entry_formula"
ORBIT_ACTION = "tests/test_slicing.py::test_postpoint_action_converges_to_orbit_action"
VARYING_1D = "tests/test_propagator.py::test_schemes_agree_on_varying_1d_metric"
FULL_PERIOD = "tests/test_propagator.py::test_build_sphere_matches_full_period_reference"
UNCUT = "tests/test_propagator.py::test_build_sphere_matches_uncut_4000_point_build"
SECTOR_FLOOR = "tests/test_cli.py::test_sphere_sector_floor_comes_from_the_unphased_kernel"
PROBE = "tests/test_config.py::test_config_probe_exits_2_naming_the_key"
FRESH_PROBE = "tests/test_config.py::test_config_probe_as_fresh_process_prints_one_line"

# (name, file under src/, exact old text, new text, tests that must fail)
MUTANTS = [
    ("midpoint index without + 1", PROPAGATOR,
     "ref = (i + index + 1 - n * windings) % (2 * n)", "ref = (i + index - n * windings) % (2 * n)",
     [ENTRIES]),
    ("midpoint index without - w n", PROPAGATOR,
     "ref = (i + index + 1 - n * windings) % (2 * n)", "ref = (i + index + 1) % (2 * n)",
     [ENTRIES]),
    ("no prepoint transpose", PROPAGATOR,
     'scale * (kernel.T if config.scheme == "prepoint" else kernel)', "scale * kernel",
     [ENTRIES]),
    ("node i read at lattice point 2 i, a cell edge", PROPAGATOR,
     "else 2 * i + 1", "else 2 * i",
     [VARYING_1D]),
    ("one winding image on each side of the line", PROPAGATOR,
     "w_max = 0 if period is None", "w_max = 1 if period is None",
     ["tests/test_propagator.py::test_flat_line_matches_exact_gaussian"]),
    ("one winding image fewer", PROPAGATOR,
     "windings = np.arange(-w_max, w_max + 1)[:, None]", "windings = np.arange(-w_max, w_max)[:, None]",
     [ENTRIES]),
    ("flipped cubic sign", SLICING,
     "t3 = -pt.affine_first if", "t3 = pt.affine_first if",
     [ORBIT_ACTION, VARYING_1D]),
    ("Gamma_first Gamma / 4 dropped from the quartic coefficient", SLICING,
     't4 = t4a + 0.25 * np.einsum("...mnk,...slk->...mnsl", pt.affine_first, pt.affine)', "t4 = t4a",
     [ORBIT_ACTION, VARYING_1D]),
    ("a stack's metrics not broadcast over H's leading indices", SLICING,
     "lower_last(_h_tensor(pt), g[..., None, None, :, :])", "lower_last(_h_tensor(pt), g)",
     ["tests/test_batched.py::test_action_coefficients_of_a_stack_match_the_per_point_call"]),
    ("first-order 1-d correction factor", PROPAGATOR,
     "factor = 1.0 + c + 0.5 * c**2", "factor = 1.0 + c",
     ["tests/test_propagator.py::test_slice_kernel_terms_against_hand_sum"]),
    ("sqrt(20) for sqrt(74) in the sphere zeta grid", PROPAGATOR,
     "math.sqrt(74.0 * 2.0 * pref", "math.sqrt(20.0 * 2.0 * pref",
     [UNCUT]),
    ("n_phi's sqrt(74 x_max) term scaled by 0.6", PROPAGATOR,
     "math.sqrt(74.0 * 2.0 * pref * float(np.max(g_phi)))",
     "0.6 * math.sqrt(74.0 * 2.0 * pref * float(np.max(g_phi)))",
     ["tests/test_acceptance.py::test_c13_cli_golden_runs[sphere_compare.json]"]),
    ("sphere trust-region cut restored", PROPAGATOR,
     "(gauss * (1.0 + c + 0.5 * (c * c)) @ phase)",
     "(gauss * np.where(pref * (p_form[:, None] + q_form) >= EXPONENT_CUT, 1.0, 1.0 + c + 0.5 * (c * c)) @ phase)",
     [UNCUT]),
    ("order 2 taking the resummed Q", PROPAGATOR,
     "g_phi[i, None] * zeta**2 if config.order == 2", "g_phi[i, None] * zeta**2 if False",
     ["tests/test_propagator.py::test_sphere_expansion_order_ablation"]),
    ("n_phi without 2|m|", PROPAGATOR,
     "+ 2 * abs(m) + 8) / 2)", "+ 8) / 2)",
     ["tests/test_propagator.py::test_sphere_zeta_grid_grows_with_m"]),
    ("dzeta for 2 dzeta", PROPAGATOR,
     "@ phase).T * (2.0 * dzeta)", "@ phase).T * dzeta",
     [FULL_PERIOD, UNCUT]),
    ("quarter-step zeta offset", PROPAGATOR,
     "zeta = dzeta * (np.arange(n_phi // 2) + 0.5)", "zeta = dzeta * (np.arange(n_phi // 2) + 0.25)",
     [FULL_PERIOD, UNCUT]),
    ("sphere mirror dropped", PROPAGATOR,
     "    if config.order >= 3:\n        sums[..., cols, rows] = sums[..., rows, cols]\n", "",
     [FULL_PERIOD]),
    ("measure term's sign flipped", PROPAGATOR,
     "r_mean = (ricci[:, i] + ricci[:, j]) / 24.0", "r_mean = -(ricci[:, i] + ricci[:, j]) / 24.0",
     [FULL_PERIOD, UNCUT]),
    ("qep's curvature term for every measure", PROPAGATOR,
     'terms = {measure: measure == "qep" and geom.topology',
     'terms = {measure: "qep" in measures and geom.topology',
     ["tests/test_propagator.py::test_shared_build_is_bit_identical_to_one_measure_builds"]),
    ("quartic residue Q^2 / 6", PROPAGATOR,
     "quartic_q = quartic / 12.0 * q_form", "quartic_q = quartic / 6.0 * q_form",
     [FULL_PERIOD, UNCUT]),
    ("per-measure kernels at order 2", PROPAGATOR,
     'geom.topology == "sphere" and config.order >= 3 for measure in measures}',
     'geom.topology == "sphere" and config.order >= 2 for measure in measures}',
     ["tests/test_propagator.py::test_one_eigensolve_per_distinct_kernel"]),
    ("one eigensolve per measure", PROPAGATOR,
     "return {measure: replace(composed[term], amplitudes=dict(composed[term].amplitudes))",
     "return {measure: _compose(*kernels[term], weights, nodes, ks, store)",
     ["tests/test_propagator.py::test_one_eigensolve_per_distinct_kernel"]),
    ("sector floor without the unphased kernel's scale", PROPAGATOR,
     "floor=rounding_floor(eigenvalues, scale)", "floor=rounding_floor(raw)",
     [SECTOR_FLOOR]),
    ("resolution bound halved", PROPAGATOR,
     "if width / spacing < MIN_POINTS_PER_SIGMA:", "if width / spacing < MIN_POINTS_PER_SIGMA / 2:",
     ["tests/test_propagator.py::test_one_resolution_rule_for_every_builder"]),
    ("no order-2 Nyquist check", PROPAGATOR,
     "if 2 * abs(m) >= n_phi:", "if False:",
     ["tests/test_propagator.py::test_sphere_order_2_rejects_m_beyond_its_nyquist_limit"]),
    ("_eigen_energies counting every positive eigenvalue", CLI,
     "result.eigenvalues[result.eigenvalues > result.floor]", "result.eigenvalues[result.eigenvalues > 0.0]",
     ["tests/test_cli.py::test_levels_below_the_rounding_floor_exit_1", SECTOR_FLOOR]),
    ("levels on the sector kernel's own floor", CLI,
     "result.eigenvalues[result.eigenvalues > result.floor]",
     "result.eigenvalues[result.eigenvalues > result.eigenvalues.size * 2.220446049250313e-16"
     " * abs(result.eigenvalues).max()]",
     [SECTOR_FLOOR]),
    ("clipped count on the sector kernel's own floor", CLI,
     "(result.eigenvalues < -result.floor).sum()",
     "(result.eigenvalues < -result.eigenvalues.size * 2.220446049250313e-16"
     " * abs(result.eigenvalues).max()).sum()",
     [SECTOR_FLOOR]),
    ("ladders report their unextrapolated energies", CLI,
     'return ladder.get("energies_extrapolated", ladder["energies"])', 'return ladder["energies"]',
     ["tests/test_acceptance.py::test_c13_cli_golden_runs[sphere_compare.json]"]),
    ("grid budget without richardson's refined grid", CLI,
     'size=lambda v, run: _grid_nodes(run, run.options["richardson"])),', "size=lambda v, run: _grid_nodes(run)),",
     ["tests/test_config.py::test_grid_and_slice_budgets_are_checked_before_the_run"]),
    ("contour vertices counted from the segments alone", CLI,
     'size=lambda v, run: run.options["contour_segments"] * v),',
     'size=lambda v, run: run.options["contour_segments"]),',
     [FRESH_PROBE + "[contour_turns-beyond-budget]"]),
    ("n_levels above the node count accepted", CLI,
     '_count(1)(v, run) and (v <= _grid_nodes(run) or run.options.get("extract") is False)', "_count(1)(v, run)",
     [PROBE + "[n_levels-beyond-nodes]"]),
    ("amplitude times that name one file accepted", CLI,
     "_multiples(v, run.slices.eps)\n                          and len(set(map(_amplitude_csv, v))) == len(v),",
     "_multiples(v, run.slices.eps),",
     [PROBE + "[amplitude_taus-repeated]", PROBE + "[amplitude_taus-one-file-name]"]),
    ("run returns the payload before the walk", CLI,
     "    return payload\n", "    return results\n",
     ["tests/test_cli.py::test_run_returns_the_payload_it_writes"]),
    ("report outside main's error handling", CLI,
     '    try:\n        if args.command == "report":\n            print(report(args.out), flush=True)\n            return 0\n',
     '    if args.command == "report":\n        print(report(args.out), flush=True)\n        return 0\n    try:\n',
     ["tests/test_cli.py::test_report_of_a_malformed_results_file_exits_1"]),
    ("negative seeds accepted", CLI,
     "if 0 <= (seed := int(text)) < 2**64:", "if (seed := int(text)) < 2**64:",
     ["tests/test_cli.py::test_seed_is_a_u64_checked_when_the_arguments_are_parsed"]),
    ("removal of an earlier run's results skipped", CLI,
     "            os.remove(os.path.join(out_dir, name))", "            pass",
     ["tests/test_cli.py::test_a_run_leaves_no_earlier_results_and_a_config_error_touches_none"]),
    ("removal of an earlier run's CSV files skipped", CLI,
     '"trajectory.csv", *glob.glob("amplitude_tau_*.csv", root_dir=out_dir)]', "]",
     ["tests/test_cli.py::test_a_run_leaves_no_earlier_results_and_a_config_error_touches_none"]),
    ("closed stdout reported as a failure", CLI,
     "    except BrokenPipeError:", "    except ZeroDivisionError:",
     ["tests/test_cli.py::test_a_reader_closing_stdout_early_is_no_failure"]),
    ("MemoryError not caught in main", CLI,
     "except (TorsionGeoError, ValueError, OSError, MemoryError) as exc:",
     "except (TorsionGeoError, ValueError, OSError) as exc:",
     ["tests/test_cli.py::test_memory_failure_exits_1"]),
    ("kinetic invariant evaluated per call", DYNAMICS,
     "@cached_property\n    def kinetic_invariant", "@property\n    def kinetic_invariant",
     ["tests/test_cli.py::test_traj_run_evaluates_its_orbit_once"]),
    ("fourth RK4 stage from k2", DYNAMICS,
     "k4 = rhs(1.0, y + dt * k3)", "k4 = rhs(1.0, y + dt * k2)",
     ["tests/test_dynamics.py::test_autoparallel_conserves_anholonomic_velocity"]),
    ("Simpson weight 2 in place of 4", DYNAMICS,
     "4.0 * y[1:m:2].sum()", "2.0 * y[1:m:2].sum()",
     ["tests/test_dynamics.py::test_simpson_matches_scipy_on_even_step_counts",
      "tests/test_dynamics.py::test_simpson_is_exact_on_cubics"]),
    ("trajectory steps counted by rounding duration / dt", DYNAMICS,
     "n_steps = whole_steps(duration, dt) if dt > 0 else 0", "n_steps = int(round(duration / dt))",
     ["tests/test_dynamics.py::test_duration_must_be_a_whole_number_of_steps"]),
    ("contour closure checked with numpy's default rtol", DEFECTS,
     "np.allclose(pts[0], pts[-1], rtol=0.0, atol=1e-12)", "np.allclose(pts[0], pts[-1], atol=1e-12)",
     ["tests/test_defects.py::test_contour_validation"]),
    ("payload walk skips list entries", IO,
     'return [jsonable(v, f"{path}[{k}]") for k, v in enumerate(obj)]', "return list(obj)",
     ["tests/test_io.py::test_jsonable_names_the_first_non_finite_entry"]),
    ("second derivative differences eval twice, ignoring a given first derivative", TRIADS,
     "_derivative(evals, order - 1, p, dim, step, name)",
     "_derivative((evals[0], None, None), order - 1, p, dim, step, name)",
     ["tests/test_geometry.py::test_finite_difference_fields_match_the_analytic_catalog"]),
]

FAILED = re.compile(r"^FAILED (\S+?)(?: - .*)?$", re.MULTILINE)


def run_tests(src: Path, workdir: Path, tests) -> set:
    """Run ``tests`` against the package under ``src``; the node ids that failed."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "--hypothesis-seed=0",
         "--hypothesis-profile=mutants",
         "--rootdir", str(ROOT), *(str(ROOT / test) for test in tests)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=TEST_TIMEOUT_S,
    )
    if proc.returncode not in (0, 1):  # 2-5: interrupted, internal or usage error, or nothing collected
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    # pytest prints node ids relative to its working directory
    return {(workdir / node).resolve().relative_to(ROOT).as_posix() + "::" + rest
            for node, rest in (found.split("::", 1) for found in FAILED.findall(proc.stdout))}


def caught(test: str, failed: set) -> bool:
    return any(node == test or node.startswith(test + "[") for node in failed)


def check(mutant, tmp: Path) -> str:
    """Apply ``mutant`` to a copy of ``src/`` under ``tmp`` and run its tests; one report line."""
    name, rel, old, new, tests = mutant
    copy = tmp / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    text = (copy / rel).read_text()
    if text.count(old) != 1:
        return f"STALE     {name}: old text found {text.count(old)} times in {rel}"
    (copy / rel).write_text(text.replace(old, new))
    failed = run_tests(copy, tmp, tests)
    missed = [test for test in tests if not caught(test, failed)]
    return f"SURVIVED  {name} (passes: {', '.join(missed)})" if missed else f"killed    {name}"


def main() -> int:
    start = time.perf_counter()
    named = sorted({test for *_, tests in MUTANTS for test in tests})
    with tempfile.TemporaryDirectory(prefix="torsiongeo-mutants-") as tmp:
        tmp = Path(tmp)
        clean = run_tests(ROOT / "src", tmp, named)
        if clean:
            print("unedited source fails: " + ", ".join(sorted(clean)))
            return 1
        dirs = [tmp / f"mutant-{k}" for k in range(len(MUTANTS))]
        for d in dirs:
            d.mkdir()
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:  # each worker waits on one pytest process
            reports = list(pool.map(check, MUTANTS, dirs))
    print("\n".join(reports))
    killed = sum(report.startswith("killed") for report in reports)
    print(f"{killed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
