# Acceptance suite: one test per criterion, each asserting its stated
# tolerances (and runtime budget) and printing a PASS line with the measured
# numbers.  Run with `pytest tests/test_acceptance.py -v -s`.

import json
import time
from pathlib import Path

import numpy as np
import pytest

from torsiongeo import catalog
from torsiongeo.cli import load_config, main
from torsiongeo.defects import Contour, DefectGeometry, burgers_vector, disclination_geometry, frank_rotation_deficit
from torsiongeo.dynamics import (
    bump_variation,
    integrate_trajectory,
    modified_el_residual,
    nonholonomic_variation,
    torsion_force,
    variation_closed_form,
)
from torsiongeo.geometry import Geometry
from torsiongeo.propagator import flat_line_kernel, propagate
from torsiongeo.slicing import (
    SliceConfig,
    delta_jacobian_action,
    effective_potential,
    jacobian_action,
    phase_space_kernel_check,
)
from torsiongeo.spectrum import extract_spectrum, richardson_pair
from torsiongeo.triads import TriadField

import golden  # tests/golden.py: the committed references and their comparison
from bundle_oracles import curvature_relation_residual, sphere_dyad

RNG = np.random.default_rng(1996)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _passline(num, text):
    print(f"\n[criterion {num:02d}] PASS - {text}")


def test_c01_tensor_identity_suite():
    started = time.time()
    triad_geoms = [catalog.make(n) for n in ("flat-cartesian", "polar", "circle", "dislocation", "torsion-toy")]
    triad_geoms.append(sphere_dyad())
    metric_geoms = [catalog.make(n) for n in ("sphere", "disclination")]
    worst = {"k_antisym": 0.0, "decomp": 0.0, "trace": 0.0, "forms": 0.0}
    for geom in triad_geoms:
        for q in geom.random_points(100, RNG):
            pt = geom.at(q)
            s = pt.torsion
            assert np.array_equal(s, -np.swapaxes(s, 0, 1))  # exact antisymmetry
            k1 = pt.contortion_first
            worst["k_antisym"] = max(worst["k_antisym"], np.max(np.abs(k1 + np.swapaxes(k1, 1, 2))))
            worst["decomp"] = max(worst["decomp"], np.max(np.abs(pt.affine - pt.christoffel - pt.contortion)))
            worst["trace"] = max(
                worst["trace"], np.max(np.abs(np.einsum("abb->a", pt.affine) - np.einsum("abb->a", pt.christoffel)))
            )
            worst["forms"] = max(worst["forms"], np.max(np.abs(pt.affine - pt.affine_from_inverse)))
    for geom in metric_geoms:
        for q in geom.random_points(100, RNG):
            pt = geom.at(q)
            assert np.array_equal(pt.torsion, np.zeros((2, 2, 2)))
            assert np.array_equal(pt.contortion, np.zeros((2, 2, 2)))
            worst["decomp"] = max(worst["decomp"], np.max(np.abs(pt.affine - pt.christoffel)))
    elapsed = time.time() - started
    assert worst["k_antisym"] < 1e-12
    assert worst["decomp"] < 1e-10
    assert worst["trace"] < 1e-10
    assert worst["forms"] < 1e-10
    assert elapsed < 5.0
    _passline(1, f"identities on 100 pts x 8 geometries, worst residuals {worst}, {elapsed:.2f}s")


def test_c02_curvature_relation():
    started = time.time()
    geom = catalog.make("torsion-toy")
    worst = max(curvature_relation_residual(geom.at(q)) for q in geom.random_points(100, RNG))
    assert worst < 1e-8
    fd_geom = Geometry(TriadField(2, geom.field.triad, fd_step=1e-5), sample_box=geom.sample_box)
    worst_fd = max(curvature_relation_residual(fd_geom.at(q)) for q in fd_geom.random_points(25, RNG))
    assert worst_fd < 1e-5
    elapsed = time.time() - started
    assert elapsed < 10.0
    _passline(2, f"analytic residual {worst:.2e} < 1e-8, finite-difference {worst_fd:.2e} < 1e-5, {elapsed:.2f}s")


def test_c03_sphere_curvature_and_effective_potential():
    started = time.time()
    geom = catalog.make("sphere", a=1.0)
    q = np.array([1.05, 0.7])
    scalar = geom.at(q).scalar_riemann
    veff = effective_potential(geom, q, 1.0, 1.0)
    assert scalar == pytest.approx(2.0, abs=1e-9)
    assert veff == pytest.approx(-1.0 / 3.0, abs=1e-9)
    elapsed = time.time() - started
    assert elapsed < 1.0
    _passline(3, f"scalar curvature {scalar:.12f}, effective potential {veff:.12f}, {elapsed:.2f}s")


def test_c04_flat_space_roundtrip():
    started = time.time()
    geom = catalog.make("polar")
    q0, v0 = np.array([1.0, 0.3]), np.array([0.4, 0.5])
    traj = integrate_trajectory(geom, "autoparallel", q0, v0, 1.0, 1e-3)
    x = np.stack([traj.q[:, 0] * np.cos(traj.q[:, 1]), traj.q[:, 0] * np.sin(traj.q[:, 1])], axis=1)
    xdot0 = geom.at(q0).triad @ v0
    straightness = np.max(np.abs(x - (x[0] + np.outer(traj.t, xdot0))))
    assert straightness < 1e-6
    cases = {
        "polar": ([1.2, 0.1], [0.3, 0.4]),
        "dislocation": ([1.5, 1.0], [-0.3, 0.2]),
        "sphere": ([1.1, 0.4], [0.2, 0.5]),
        "circle": ([0.3], [0.8]),
    }
    worst = 0.0
    for name, (p0, w0) in cases.items():
        g = catalog.make(name)
        tg = integrate_trajectory(g, "geodesic", p0, w0, 1.0, 1e-3)
        ta = integrate_trajectory(g, "autoparallel", p0, w0, 1.0, 1e-3)
        worst = max(worst, np.max(np.abs(tg.q - ta.q)))
    assert worst < 1e-8
    elapsed = time.time() - started
    assert elapsed < 5.0
    _passline(4, f"straightness {straightness:.2e} < 1e-6, geodesic=autoparallel {worst:.2e} < 1e-8, {elapsed:.2f}s")


def test_c05_modified_euler_lagrange():
    started = time.time()
    geom = catalog.make("torsion-toy")
    auto = integrate_trajectory(geom, "autoparallel", [0.05, -0.1], [0.5, 0.4], 1.0, 1e-3)
    res_auto = np.max(np.abs(modified_el_residual(geom, auto, 1.0)))
    assert res_auto < 1e-6
    geo = integrate_trajectory(geom, "geodesic", [0.05, -0.1], [0.5, 0.4], 1.0, 1e-3)
    res_geo = modified_el_residual(geom, geo, 1.0)
    force = torsion_force(geom, geo, 1.0)[2:-2]
    rel = abs(np.max(np.abs(res_geo)) - np.max(np.abs(force))) / np.max(np.abs(force))
    assert rel < 0.05
    elapsed = time.time() - started
    assert elapsed < 5.0
    _passline(5, f"autoparallel residual {res_auto:.2e} < 1e-6, torsion-force match {rel:.2%} < 5%, {elapsed:.2f}s")


def test_c06_variation_closure():
    started = time.time()
    geom = catalog.make("torsion-toy")
    traj = integrate_trajectory(geom, "autoparallel", [0.0, 0.05], [0.45, -0.3], 1.0, 1e-3)
    dq = bump_variation(traj, [0.2, -0.15])
    record = nonholonomic_variation(geom, traj, dq)
    db_prod = variation_closed_form(geom, traj, dq, order=4)
    agreement = np.max(np.abs(record.db - db_prod))
    assert agreement < 1e-8
    assert np.linalg.norm(record.db[-1]) > 1e-5  # genuine closure failure
    flat = catalog.make("polar")
    tf = integrate_trajectory(flat, "geodesic", [1.0, 0.2], [0.3, 0.4], 1.0, 1e-3)
    db_free = nonholonomic_variation(flat, tf, bump_variation(tf, [0.1, 0.1])).db
    assert np.max(np.abs(db_free)) == 0.0
    elapsed = time.time() - started
    assert elapsed < 5.0
    _passline(6, f"ode vs ordered product {agreement:.2e} < 1e-8, torsion-free closure exactly zero, {elapsed:.2f}s")


def test_c07_burgers_and_frank():
    started = time.time()
    defect = DefectGeometry.dislocation(0.01)
    b = burgers_vector(defect, Contour.circle(1.0, 10_000))
    assert abs(b[0]) < 1e-6 * 0.01
    assert b[1] == pytest.approx(0.01, rel=1e-6)
    b_out = burgers_vector(defect, Contour.circle(0.3, 4096, center=(2.0, 1.0)))
    assert np.linalg.norm(b_out) < 1e-9
    deficit = frank_rotation_deficit(disclination_geometry(0.05), Contour.circle(1.0, 8192))
    assert deficit == pytest.approx(-2 * np.pi * 0.05, rel=1e-6)
    elapsed = time.time() - started
    assert elapsed < 2.0
    _passline(7, f"b=({b[0]:.2e},{b[1]:.8f}), outside |b|={np.linalg.norm(b_out):.1e}, deficit {deficit:.8f}, {elapsed:.2f}s")


def test_c08_jacobian_action_identities():
    started = time.time()
    toy = catalog.make("torsion-toy")
    worst_naive = 0.0
    for q in toy.random_points(20, RNG):
        a = jacobian_action(toy, q, route="naive-affine")
        m = jacobian_action(toy, q, route="naive-metric")
        worst_naive = max(worst_naive, np.max(np.abs(a.linear - m.linear)), np.max(np.abs(a.quadratic - m.quadratic)))
    assert worst_naive < 1e-10
    polar = catalog.make("polar")
    worst_polar = 0.0
    for q in polar.random_points(20, RNG):
        qep = jacobian_action(polar, q, route="qep")
        naive = jacobian_action(polar, q, route="naive-affine")
        worst_polar = max(worst_polar, np.max(np.abs(qep.linear - naive.linear)), np.max(np.abs(qep.quadratic - naive.quadratic)))
    assert worst_polar < 1e-10
    sphere = catalog.make("sphere")
    worst_sphere = 0.0
    for q in sphere.random_points(20, RNG):
        delta = delta_jacobian_action(sphere, q)
        worst_sphere = max(worst_sphere, np.max(np.abs(delta.quadratic - sphere.at(q).ricci_riemann / 6.0)))
    assert worst_sphere < 1e-8
    elapsed = time.time() - started
    assert elapsed < 2.0
    _passline(
        8,
        f"affine vs metric {worst_naive:.2e}, qep vs naive on polar {worst_polar:.2e}, "
        f"curvature/6 on sphere {worst_sphere:.2e}, {elapsed:.2f}s",
    )


def test_c09_flat_line_propagator():
    started = time.time()
    geom = catalog.make("flat-cartesian", d=1)
    cfg = SliceConfig(n_slices=64, eps=1 / 64)
    res = propagate(geom, cfg, taus=[1.0], store_taus=[1.0])
    x = res.grid
    sel = np.abs(x) <= 2.0
    exact = flat_line_kernel(x[sel][:, None], x[sel][None, :], 1.0)
    err = np.max(np.abs(res.amplitudes[1.0][np.ix_(sel, sel)] - exact) / exact)
    assert err < 1e-6
    elapsed = time.time() - started
    assert elapsed < 10.0
    _passline(9, f"N=64 composed kernel vs exact Gaussian: {err:.2e} < 1e-6, {elapsed:.2f}s")


def test_c10_circle_spectrum():
    started = time.time()
    cfg = SliceConfig(n_slices=64, eps=1 / 16)
    taus = [k / 16 for k in range(1, 65)]
    res = propagate(catalog.make("circle", a=1.0), cfg, taus=taus, grid=256)
    fit = extract_spectrum(taus, res.trace, n_levels=10, e_max=60.0, n_trial=4000)
    es = fit.energies
    ratios = [es[l] / es[1] for l in (1, 2, 3)]
    for l, ratio in zip((1, 2, 3), ratios):
        assert ratio == pytest.approx(l * l, rel=0.01)
    elapsed = time.time() - started
    assert elapsed < 60.0
    _passline(10, f"E_l/E_1 = {np.round(ratios, 5)} vs (1,4,9) within 1%, {elapsed:.2f}s")


def _sphere_levels(measure, eps, grid):
    cfg = SliceConfig(n_slices=int(round(4.0 / eps)), eps=eps, measure=measure)
    ks = sorted(set(int(round(t / eps)) for t in np.arange(0.4, 4.0001, 0.05)))
    taus = [k * eps for k in ks]
    res = propagate(catalog.make("sphere", a=1.0), cfg, taus=taus, grid=grid)
    fit = extract_spectrum(taus, res.trace, n_levels=8, e_max=40.0, n_trial=4000, residual_threshold=5e-2)
    return fit.energies[:3]


def test_c11_dewitt_term_cancellation():
    started = time.time()
    levels = {}
    for measure in ("qep", "naive-dewitt"):
        full = _sphere_levels(measure, 0.05, 176)
        half = _sphere_levels(measure, 0.025, 249)
        levels[measure] = richardson_pair(full, half)
    exact = [l * (l + 1) / 2.0 for l in range(3)]
    offset_qep = float(np.mean([e - x for e, x in zip(levels["qep"], exact)]))
    shifts = [n - x for n, x in zip(levels["naive-dewitt"], exact)]
    assert abs(offset_qep) < 0.025
    for shift in shifts:
        assert shift == pytest.approx(1.0 / 3.0, abs=0.05)
    elapsed = time.time() - started
    assert elapsed < 300.0
    _passline(
        11,
        f"qep offset {offset_qep:+.5f} (<0.025), naive shifts {np.round(shifts, 5)} = 1/3 +- 0.05, {elapsed:.1f}s",
    )


def test_c12_phase_space_identity():
    started = time.time()
    flat = phase_space_kernel_check(catalog.make("flat-cartesian"), [0.0, 0.0], [0.1, -0.05], 0.05, 1.0, 1.0)
    sphere = phase_space_kernel_check(catalog.make("sphere"), [1.0, 0.4], [0.06, 0.02], 0.04, 1.3, 0.8)
    assert flat < 1e-10
    assert sphere < 1e-10
    elapsed = time.time() - started
    assert elapsed < 1.0
    _passline(12, f"momentum-integral residuals: flat {flat:.1e}, sphere {sphere:.1e}, {elapsed:.2f}s")


@pytest.mark.parametrize("name", golden.CONFIGS)
def test_c13_cli_golden_runs(name, tmp_path):
    # the first run matches the committed reference (see tests/golden.py for the tolerances), and repeats bytewise
    cfg_path = CONFIG_DIR / name
    config = load_config(cfg_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([config.command, "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main([config.command, "--config", str(cfg_path), "--out", str(out_b)]) == 0
    bytes_a = (out_a / "results.json").read_bytes()
    reference = json.loads(golden.reference_path(name).read_text())
    assert golden.mismatches(json.loads(bytes_a), reference, config) == []
    assert bytes_a == (out_b / "results.json").read_bytes()
    _passline(13, f"{name}: results.json matches its reference, byte-stable ({len(bytes_a)} bytes), exit code 0")


def test_c13_cli_exit_code_contract(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"geometry": "sphere", "a": -2.0, "command": "geom"}))
    assert main(["geom", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    coarse = tmp_path / "coarse.json"
    coarse.write_text(
        json.dumps({"geometry": "circle", "a": 1.0, "command": "propagate", "N": 4, "eps": 1e-4, "grid_points": 16})
    )
    assert main(["propagate", "--config", str(coarse), "--out", str(tmp_path / "o")]) == 1
    _passline(13, "exit codes: config error -> 2, computation error -> 1")
