"""The ``classical`` workload: one warm process calling the library.

    python perfbench/classical.py --seed N --seconds S --trace 0|1 --out FILE
    python perfbench/classical.py --seed N --setup-only

Set-up imports the package, builds every catalog geometry and runs one
warm-up scenario, then prints ``READY``.  Each measured scenario, drawn from
the seed, runs on ``torsion-toy`` an autoparallel and a geodesic (1000 RK4
steps each), the closure-failure variation both ways and the modified
Euler-Lagrange residual; then a Burgers vector on a 10k-vertex dislocation
contour and the full tensor bundle at 200 points of each catalog geometry.
Every result is checked against the thresholds of acceptance tests C01, C05,
C06 and C07.  No propagator, spectrum or file I/O work is done.

With ``--trace 1`` scenarios alternate between untraced and traced, so the
tracing overhead is the difference of the two medians.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from oracles import failures
from tracer import Patcher, Tracer, keep_going

import numpy as np
from torsiongeo import catalog, defects, dynamics, geometry

STEPS = 1000  # RK4 steps per trajectory: duration 1, dt 1e-3 as in C04-C06
BUNDLE_POINTS = 200
CONTOUR_VERTICES = 10_000


def draw_scenario(rng) -> dict:
    """Ranges follow the magnitudes of C05-C07 and the catalog sample boxes."""
    signs = rng.choice([-1.0, 1.0], size=3)
    v0 = signs[:2] * rng.uniform(0.3, 0.5, size=2)
    # transverse to v0: a variation along the path closes even with torsion,
    # so the C06 floor on the closure failure only holds across it
    normal = np.array([-v0[1], v0[0]]) / np.hypot(*v0)
    radius = rng.uniform(0.5, 1.5)
    angle = rng.uniform(0.0, 2 * np.pi)
    offset = rng.uniform(0.0, 0.2) * radius
    return {
        "q0": rng.uniform(-0.1, 0.1, size=2),
        "v0": v0,
        "bump": signs[2] * rng.uniform(0.15, 0.25) * normal,
        "epsilon": rng.uniform(0.005, 0.02),
        "radius": radius,
        "center": (offset * np.cos(angle), offset * np.sin(angle)),
        "points_seed": int(rng.integers(2**63)),
    }


def run_scenario(geoms: dict, s: dict) -> dict:
    """One scenario; returns its checks as name -> (value, limit)."""
    checks = {}
    toy = geoms["torsion-toy"]
    auto = dynamics.integrate_trajectory(toy, "autoparallel", s["q0"], s["v0"], 1.0, 1.0 / STEPS)
    geo = dynamics.integrate_trajectory(toy, "geodesic", s["q0"], s["v0"], 1.0, 1.0 / STEPS)

    # C06: ODE against time-ordered product, and a genuine closure failure
    dq = dynamics.bump_variation(auto, s["bump"])
    record = dynamics.nonholonomic_variation(toy, auto, dq)
    db_prod = dynamics.variation_closed_form(toy, auto, dq, order=4)
    checks["c06_ode_vs_product"] = (float(np.max(np.abs(record.db - db_prod))), 1e-8)
    checks["c06_closure_floor"] = (1e-5, float(np.linalg.norm(record.db[-1])))

    # C05: autoparallels zero the modified EL residual; geodesics leave the torsion force
    checks["c05_auto_residual"] = (float(np.max(np.abs(dynamics.modified_el_residual(toy, auto, 1.0)))), 1e-6)
    res_geo = np.max(np.abs(dynamics.modified_el_residual(toy, geo, 1.0)))
    force = np.max(np.abs(dynamics.torsion_force(toy, geo, 1.0)[2:-2]))
    checks["c05_force_match"] = (float(abs(res_geo - force) / force), 0.05)

    # C07: Burgers vector (0, epsilon) of a contour winding once around the core
    eps = s["epsilon"]
    contour = defects.Contour.circle(s["radius"], CONTOUR_VERTICES, center=s["center"])
    b = defects.burgers_vector(defects.DefectGeometry.dislocation(eps), contour)
    checks["c07_burgers_b1"] = (float(abs(b[0])), 1e-6 * eps)
    checks["c07_burgers_b2"] = (float(abs(b[1] - eps)), 1e-6 * eps)

    # C01: tensor identities over the full bundle of every catalog geometry
    worst = {"c01_torsion_antisym": 0.0, "c01_k_antisym": 0.0, "c01_decomp": 0.0, "c01_trace": 0.0, "c01_forms": 0.0}
    points_rng = np.random.default_rng(s["points_seed"])
    for name, geom in geoms.items():
        for q in geom.random_points(BUNDLE_POINTS, points_rng):
            g = geometry.induced_metric(geom, q)["g"]
            conn = geometry.connection_bundle(geom, q)
            geometry.curvature_bundle(geom, q)
            s_t, k = conn["torsion"], conn["contortion"]
            k1 = geometry.lower_last(k, g)
            gap = {
                "c01_torsion_antisym": np.max(np.abs(s_t + np.swapaxes(s_t, 0, 1))),
                "c01_k_antisym": np.max(np.abs(k1 + np.swapaxes(k1, 1, 2))),
                "c01_decomp": np.max(np.abs(conn["affine"] - conn["christoffel"] - k)),
                "c01_trace": np.max(np.abs(np.einsum("abb->a", conn["affine"]) - np.einsum("abb->a", conn["christoffel"]))),
                "c01_forms": np.max(np.abs(conn["affine"] - conn["affine_alt"])),
            }
            for key, val in gap.items():
                worst[key] = max(worst[key], float(val))
    tolerances = {"c01_torsion_antisym": 0.0, "c01_k_antisym": 1e-12, "c01_decomp": 1e-10, "c01_trace": 1e-10,
                  "c01_forms": 1e-10}
    for key, val in worst.items():
        checks[key] = (val, tolerances[key])
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    rng = np.random.default_rng([args.seed, 0xC1A551CA1])
    geoms = {name: catalog.make(name) for name in catalog.names()}
    run_scenario(geoms, draw_scenario(rng))  # warm-up
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer()
    patcher = Patcher(tracer)
    ops = []  # per scenario: index, traced, seconds, failed checks, checks, error
    started = time.perf_counter()
    times = []
    while len(ops) < 1 + args.trace or keep_going(started, args.seconds, times):
        index = len(ops)
        traced = bool(args.trace) and index % 2 == 1
        scenario = draw_scenario(rng)
        op = {"index": index, "traced": traced, "error": None, "failed_checks": [], "checks": {}}
        if traced:
            tracer.job = index
            patcher.install()
            tracer.begin("scenario")
        t0 = time.perf_counter()
        try:
            op["checks"] = run_scenario(geoms, scenario)
        except Exception:  # any exception is a failed operation, reported with its traceback
            op["error"] = traceback.format_exc()
        op["seconds"] = time.perf_counter() - t0
        if traced:
            tracer.end()
            patcher.uninstall()
        op["failed_checks"] = failures(op["checks"]) if op["error"] is None else []
        times.append(op["seconds"])
        ops.append(op)

    with open(args.out, "w") as fh:
        json.dump({"ops": ops, "trace": tracer.dump() if args.trace else None}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
