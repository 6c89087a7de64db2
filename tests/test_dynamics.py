# Trajectory integration and its whole-step rule, the anholonomic velocity
# autoparallels conserve, actions, the torsion-modified Euler-Lagrange
# residual, and the closure-failure variation machinery.

import numpy as np
import pytest

from torsiongeo import catalog, dynamics
from torsiongeo.dynamics import (
    Trajectory,
    bump_variation,
    evaluate_action,
    integrate_trajectory,
    modified_el_residual,
    nonholonomic_variation,
    time_ordered_propagator,
    torsion_force,
    variation_closed_form,
)
from torsiongeo.errors import ChartSingularity, GridMismatch, GridTooCoarse, NonFiniteResult, StepTooLarge


def polar_to_cartesian(q):
    r, phi = q[..., 0], q[..., 1]
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)


def test_flat_trajectory_is_straight_line():
    geom = catalog.make("flat-cartesian")
    q0, v0 = np.array([0.2, -0.1]), np.array([0.7, 1.3])
    traj = integrate_trajectory(geom, "autoparallel", q0, v0, 1.0, 1e-3)
    expected = q0[None, :] + traj.t[:, None] * v0[None, :]
    assert np.max(np.abs(traj.q - expected)) < 1e-12
    assert np.max(np.abs(traj.v - v0[None, :])) < 1e-12


def test_polar_autoparallel_maps_back_to_straight_line():
    geom = catalog.make("polar")
    q0, v0 = np.array([1.0, 0.3]), np.array([0.4, 0.5])
    traj = integrate_trajectory(geom, "autoparallel", q0, v0, 1.0, 1e-3)
    x = polar_to_cartesian(traj.q)
    xdot0 = geom.at(q0).triad @ v0
    expected = x[0][None, :] + traj.t[:, None] * xdot0[None, :]
    assert np.max(np.abs(x - expected)) < 1e-6


def test_geodesic_equals_autoparallel_without_torsion():
    cases = [
        ("polar", np.array([1.2, 0.1]), np.array([0.3, 0.4])),
        ("dislocation", np.array([1.5, 1.0]), np.array([-0.3, 0.2])),
        ("sphere", np.array([1.1, 0.4]), np.array([0.2, 0.5])),
        ("circle", np.array([0.3]), np.array([0.8])),
    ]
    for name, q0, v0 in cases:
        geom = catalog.make(name)
        tg = integrate_trajectory(geom, "geodesic", q0, v0, 1.0, 1e-3)
        ta = integrate_trajectory(geom, "autoparallel", q0, v0, 1.0, 1e-3)
        assert np.max(np.abs(tg.q - ta.q)) < 1e-8, name


def test_torsion_toy_geodesic_differs_from_autoparallel():
    geom = catalog.make("torsion-toy")
    q0, v0 = np.array([0.0, 0.0]), np.array([0.5, 0.3])
    tg = integrate_trajectory(geom, "geodesic", q0, v0, 1.0, 1e-3)
    ta = integrate_trajectory(geom, "autoparallel", q0, v0, 1.0, 1e-3)
    assert np.max(np.abs(tg.q - ta.q)) > 1e-4


def test_ode_rhs_difference_is_symmetrized_torsion():
    # The two equations of motion differ by twice the torsion tensor with its
    # raised index first, contracted with the (symmetric) velocity product.
    geom = catalog.make("torsion-toy")
    rng = np.random.default_rng(7)
    for q in geom.random_points(5, rng):
        v = rng.normal(size=2)
        pt = geom.at(q)
        diff = np.einsum("abc,a,b->c", pt.affine - pt.christoffel, v, v)
        expected = 2.0 * np.einsum("mn,nab,a,b->m", pt.metric_inverse, pt.torsion_first, v, v)
        assert np.allclose(diff, expected, atol=1e-10)


def test_kinetic_invariant_conserved():
    geom = catalog.make("torsion-toy")
    traj = integrate_trajectory(geom, "autoparallel", [0.1, -0.2], [0.4, 0.6], 1.0, 1e-3)
    inv = traj.kinetic_invariant
    assert np.max(np.abs(inv - inv[0])) < 1e-8


def test_chart_singularity_at_polar_origin():
    geom = catalog.make("polar")
    with pytest.raises(ChartSingularity):
        integrate_trajectory(geom, "autoparallel", [1.0, 0.0], [-1.5, 0.0], 1.0, 1e-3)


def test_zero_step_run_is_rejected():
    # round(duration / dt) = 0 used to return a one-sample orbit that evaluate_action could not integrate
    with pytest.raises(ValueError, match="dt"):
        integrate_trajectory(catalog.make("polar"), "geodesic", [1.0, 0.0], [0.1, 0.4], 1.0, 5.0)


@pytest.mark.parametrize("dt", [0.3, 0.4])
def test_duration_must_be_a_whole_number_of_steps(dt):
    # a rounded step count would end the orbit short of duration: at t = 0.9 for dt = 0.3, 0.8 for dt = 0.4
    with pytest.raises(ValueError, match=rf"duration=1\.0 .*dt={dt}"):
        integrate_trajectory(catalog.make("polar"), "geodesic", [1.0, 0.0], [0.1, 0.4], 1.0, dt)


def anholonomic_velocity(traj):
    """xi^i = e^i_mu qd^mu along the path."""
    return np.einsum("kim,km->ki", traj.geometry.batch(traj.q).triad, traj.v)


def relative_drift(values):
    return np.max(np.linalg.norm(values - values[0], axis=1)) / np.linalg.norm(values[0])


@pytest.mark.parametrize("name, q0, v0", [
    ("polar", [1.0, 0.3], [0.4, 0.5]),
    ("dislocation", [1.5, 1.0], [-0.3, 0.2]),
    ("torsion-toy", [0.05, -0.02], [0.4, -0.35]),
])
def test_autoparallel_conserves_anholonomic_velocity(name, q0, v0):
    # Gamma_ab^c = e_i^c d_a e^i_b makes xi constant on autoparallels (straight lines of x);
    # an oracle of the integrator that does not go through the Euler-Lagrange residual
    traj = integrate_trajectory(catalog.make(name), "autoparallel", q0, v0, 1.0, 1e-3)
    assert relative_drift(anholonomic_velocity(traj)) < 1e-13


def test_torsion_toy_geodesic_does_not_conserve_anholonomic_velocity():
    traj = integrate_trajectory(catalog.make("torsion-toy"), "geodesic", [0.05, -0.02], [0.4, -0.35], 1.0, 1e-3)
    assert relative_drift(anholonomic_velocity(traj)) > 1e-3


def test_step_too_large_guard():
    # a polar geodesic passing the chart origin at r = 0.01, where the angle turns at 1/r per unit speed: at
    # dt = 0.02 the kinetic invariant drifts by about 0.5, far beyond 10 max(1e-6, 1e3 dt^4); dt = 1e-3 holds it
    geom = catalog.make("polar")
    with pytest.raises(StepTooLarge):
        integrate_trajectory(geom, "geodesic", [1.0, 0.0], [-1.0, 0.01], 1.0, 0.02)
    integrate_trajectory(geom, "geodesic", [1.0, 0.0], [-1.0, 0.01], 1.0, 1e-3)


def test_overflowed_invariant_is_not_drift():
    # g v v overflows from the first sample; a smaller dt cannot help, so it is not StepTooLarge
    with np.errstate(all="ignore"), pytest.raises(NonFiniteResult, match="kinetic invariant is not finite at t=0"):
        integrate_trajectory(catalog.make("flat-cartesian"), "geodesic", [0.0, 0.0], [1e200, 0.0], 0.01, 0.001)


# -- actions -----------------------------------------------------------------


def test_flat_action_value():
    geom = catalog.make("flat-cartesian")
    v = np.array([0.8, 0.6])
    traj = integrate_trajectory(geom, "autoparallel", [0.0, 0.0], v, 2.0, 1e-3)
    mass = 1.7
    assert evaluate_action(traj, mass) == pytest.approx(0.5 * mass * 1.0 * 2.0, rel=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6, 10, 50, 1000])
def test_simpson_matches_scipy_on_even_step_counts(n):
    from scipy.integrate import simpson

    t = np.linspace(0.0, 1.3, n + 1)
    y = np.exp(np.sin(3.0 * t))
    assert dynamics._simpson(y, t[1] - t[0]) == pytest.approx(simpson(y, x=t), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", range(1, 9))
def test_simpson_is_exact_on_cubics(n):
    # x^3 - x on [0, 1.3]: Simpson's panels and the closing 3/8 panel integrate a cubic exactly; one step is the
    # trapezoid
    t = 1.3 * np.arange(n + 1) / n
    y = t**3 - t
    exact = 0.5 * 1.3 * y[1] if n == 1 else 1.3**4 / 4 - 1.3**2 / 2
    assert dynamics._simpson(y, t[1] - t[0]) == pytest.approx(exact, rel=1e-14, abs=1e-15)


def test_action_is_chart_invariant():
    # One physical straight line, evaluated in Cartesian and polar charts.
    flat = catalog.make("flat-cartesian")
    pol = catalog.make("polar")
    t = np.linspace(0.0, 1.0, 1001)
    x0, xdot = np.array([1.0, 0.2]), np.array([0.3, 0.45])
    x = x0[None, :] + t[:, None] * xdot[None, :]
    xd = np.broadcast_to(xdot, x.shape)
    cart = Trajectory("autoparallel", t, x.copy(), xd.copy(), flat)

    r = np.hypot(x[:, 0], x[:, 1])
    phi = np.arctan2(x[:, 1], x[:, 0])
    rdot = (x[:, 0] * xdot[0] + x[:, 1] * xdot[1]) / r
    phidot = (x[:, 0] * xdot[1] - x[:, 1] * xdot[0]) / r**2
    polar_traj = Trajectory("autoparallel", t, np.stack([r, phi], axis=1), np.stack([rdot, phidot], axis=1), pol)

    a1 = evaluate_action(cart, 1.0)
    a2 = evaluate_action(polar_traj, 1.0)
    assert a1 == pytest.approx(a2, abs=1e-8)


def test_autoparallel_lagrangian_constant_on_toy():
    geom = catalog.make("torsion-toy")
    traj = integrate_trajectory(geom, "autoparallel", [0.0, 0.1], [0.5, -0.2], 1.0, 1e-3)
    # the Lagrangian at unit mass is half the kinetic invariant
    assert 0.5 * traj.invariant_drift < 1e-8


# -- modified Euler-Lagrange ---------------------------------------------------


def test_el_residual_vanishes_for_torsion_free_geodesic():
    geom = catalog.make("polar")
    traj = integrate_trajectory(geom, "geodesic", [1.0, 0.2], [0.3, 0.4], 1.0, 1e-3)
    res = modified_el_residual(geom, traj, 1.0)
    assert np.max(np.abs(res)) < 1e-6


def test_el_residual_vanishes_for_autoparallel_with_torsion():
    geom = catalog.make("torsion-toy")
    traj = integrate_trajectory(geom, "autoparallel", [0.05, -0.1], [0.5, 0.4], 1.0, 1e-3)
    res = modified_el_residual(geom, traj, 1.0)
    assert np.max(np.abs(res)) < 1e-6


def test_el_residual_of_geodesic_matches_torsion_force():
    geom = catalog.make("torsion-toy")
    traj = integrate_trajectory(geom, "geodesic", [0.05, -0.1], [0.5, 0.4], 1.0, 1e-3)
    res = modified_el_residual(geom, traj, 1.0)
    force = torsion_force(geom, traj, 1.0)[2:-2]
    assert np.max(np.abs(res + force)) < 0.05 * np.max(np.abs(force))
    assert abs(np.max(np.abs(res)) - np.max(np.abs(force))) < 0.05 * np.max(np.abs(force))


# -- nonholonomic variation ----------------------------------------------------


def toy_setup(dt=1e-3):
    geom = catalog.make("torsion-toy")
    traj = integrate_trajectory(geom, "autoparallel", [0.0, 0.05], [0.45, -0.3], 1.0, dt)
    dq = bump_variation(traj, [0.2, -0.15])
    return geom, traj, dq


def test_variation_zero_for_torsion_free_geometry():
    geom = catalog.make("polar")
    traj = integrate_trajectory(geom, "geodesic", [1.0, 0.2], [0.3, 0.4], 1.0, 1e-3)
    dq = bump_variation(traj, [0.1, 0.1])
    rec = nonholonomic_variation(geom, traj, dq)
    assert np.max(np.abs(rec.db)) == 0.0
    assert np.max(np.abs(variation_closed_form(geom, traj, dq))) == 0.0


def test_variation_zero_for_zero_source():
    geom, traj, _ = toy_setup()
    rec = nonholonomic_variation(geom, traj, np.zeros_like(traj.q))
    assert np.max(np.abs(rec.db)) == 0.0


def test_variation_record_contents():
    geom, traj, dq = toy_setup(dt=5e-3)
    rec = nonholonomic_variation(geom, traj, dq)
    assert rec.db[0] @ rec.db[0] == 0.0
    assert rec.G.shape == (len(traj.t), 2, 2)
    # Endpoint closure failure is nonzero in a torsionful geometry.
    assert np.linalg.norm(rec.db[-1]) > 1e-5


def test_variation_ode_matches_time_ordered_solution():
    geom, traj, dq = toy_setup()
    rec = nonholonomic_variation(geom, traj, dq)
    db_prod = variation_closed_form(geom, traj, dq, order=4)
    assert np.max(np.abs(rec.db - db_prod)) < 1e-8


def test_variation_grid_mismatch():
    geom, traj, dq = toy_setup(dt=5e-3)
    with pytest.raises(GridMismatch):
        nonholonomic_variation(geom, traj, dq[:-1])


def flat_orbit():
    return integrate_trajectory(catalog.make("flat-cartesian"), "geodesic", [0.0, 0.0], [1.0, 0.5], 0.1, 0.01)


@pytest.mark.parametrize("call, message", [
    (lambda: Trajectory("geodesic", np.array([0.0, 0.1, 0.3]), np.zeros((3, 2)), np.zeros((3, 2)),
                        catalog.make("flat-cartesian")), "time grid must be strictly increasing and uniform"),
    (lambda: integrate_trajectory(catalog.make("flat-cartesian"), "straight", [0.0, 0.0], [1.0, 0.0], 0.1, 0.01),
     "kind must be 'geodesic' or 'autoparallel'"),
    (lambda: variation_closed_form(catalog.make("flat-cartesian"), flat_orbit(), np.ones((11, 2))),
     "holonomic variation must vanish at both endpoints"),
    (lambda: variation_closed_form(catalog.make("flat-cartesian"), flat_orbit(), np.zeros((11, 2)), order=3),
     "order must be 2 or 4"),
    (lambda: time_ordered_propagator(np.zeros((3, 2, 2)), 0.1, order=3), "order must be 2 or 4"),
], ids=["non-uniform-time-grid", "unknown-kind", "variation-at-the-endpoints", "closed-form-order",
        "ordered-product-order"])
def test_dynamics_guards_name_their_fault(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert type(raised.value) is ValueError and str(raised.value) == message


def test_ordered_product_identity_for_zero_generator():
    G = np.zeros((11, 2, 2))
    assert np.array_equal(time_ordered_propagator(G, 0.1), np.eye(2))


def test_ordered_product_scalar_case_matches_quadrature():
    # Scalars commute: U = exp(-int G dt); with linear interpolation the
    # integral of the samples is the trapezoid rule.
    t = np.linspace(0.0, 1.0, 101)
    g = 0.8 + 0.5 * np.sin(3 * t)
    G = g.reshape(-1, 1, 1)
    U = time_ordered_propagator(G, t[1] - t[0], order=4)
    assert U[0, 0] == pytest.approx(np.exp(-np.trapezoid(g, t)), rel=1e-12)


def test_ordered_product_richardson_second_order():
    # Noncommuting 2x2 generator: the plain midpoint product converges at
    # O(dt^2), so the dt vs dt/2 deviation from a reference shrinks by ~4.
    def g_of(t):
        return np.array([[0.0, 1.0 + t], [-1.0 + 0.5 * t, 0.3 * t]])

    def sampled(n):
        ts = np.linspace(0.0, 1.0, n + 1)
        return np.stack([g_of(t) for t in ts]), ts[1] - ts[0]

    G_ref, dt_ref = sampled(4096)
    U_ref = time_ordered_propagator(G_ref, dt_ref, order=4)
    errs = []
    for n in (32, 64):
        G, dt = sampled(n)
        errs.append(np.max(np.abs(time_ordered_propagator(G, dt, order=2) - U_ref)))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def _split_generators(G, k, dt, order, lo=0.0):
    """The separate full-step and step-tail Magnus generators, as two formulas."""
    root3 = np.sqrt(3.0) / 12.0
    gauss = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
    if lo == 0.0:
        if order == 2:
            return -dynamics._interp(G, k, 0.5) * dt
        a1, a2 = (-dynamics._interp(G, k, c) for c in gauss)
        return 0.5 * dt * (a1 + a2) + root3 * dt**2 * (a2 @ a1 - a1 @ a2)
    if order == 2:  # the one order-2 tail: from the midpoint source node to the step's end
        assert lo == 0.5
        return -dynamics._interp(G, k, 0.75) * (0.5 * dt)
    h = (1.0 - lo) * dt
    a1, a2 = (-dynamics._interp(G, k, lo + (1.0 - lo) * c) for c in gauss)
    return 0.5 * h * (a1 + a2) + root3 * h**2 * (a2 @ a1 - a1 @ a2)


def test_merged_magnus_generator_is_bit_identical(monkeypatch):
    geom, traj, dq = toy_setup(dt=5e-3)
    G, _ = dynamics._orbit_matrices(geom, traj)
    runs = []
    for generator in (dynamics._step_generator, _split_generators):
        monkeypatch.setattr(dynamics, "_step_generator", generator)
        runs.append([variation_closed_form(geom, traj, dq, order=o) for o in (2, 4)]
                    + [time_ordered_propagator(G, traj.dt, order=o) for o in (2, 4)])
    for merged, split in zip(*runs):
        assert np.array_equal(merged, split)


def test_el_residual_needs_enough_samples():
    geom = catalog.make("polar")
    traj = integrate_trajectory(geom, "geodesic", [1.0, 0.2], [0.3, 0.4], 0.003, 1e-3)
    with pytest.raises(GridTooCoarse):
        modified_el_residual(geom, traj, 1.0)


def test_closure_field_satisfies_equation_on_grid():
    # Finite-difference the solved closure field and compare with the
    # right-hand side -G db + Sigma dq at interior grid points.
    geom, traj, dq = toy_setup(dt=1e-3)
    rec = nonholonomic_variation(geom, traj, dq)
    dt = traj.dt
    db_dot = (rec.db[2:] - rec.db[:-2]) / (2 * dt)
    rhs = np.einsum("kml,kl->km", -rec.G[1:-1], rec.db[1:-1]) + np.einsum(
        "kmn,kn->km", rec.Sigma[1:-1], rec.dq[1:-1]
    )
    assert np.max(np.abs(db_dot - rhs)) < 1e-5  # second-order grid derivative
