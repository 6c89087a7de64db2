# Property tests of the stacked geometry bundle: Geometry.batch against
# Geometry.at, the slice-action coefficients of a stack against the per-point
# call, the C01 tensor identities at drawn points, Burgers-vector
# linearity and contour invariance, and the stacked closure-failure solvers
# against a per-step reference.

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsiongeo import catalog, dynamics
from torsiongeo.defects import Contour, DefectGeometry, burgers_vector
from torsiongeo.geometry import Geometry, lower_last
from torsiongeo.slicing import SCHEMES, _action_coefficients
from torsiongeo.triads import TriadField


def sphere_dyad() -> Geometry:
    """The diagonal square root of the sphere metric as a torsion-carrying dyad."""
    base = catalog.make("sphere").field
    field = TriadField(2, base.triad, base.d_triad, base.dd_triad, name="sphere-dyad")
    return Geometry(field, sample_box=[(0.3, np.pi - 0.3), (0.0, 2 * np.pi)])


def toy_fd() -> Geometry:
    """The torsion toy with every derivative taken by finite differences."""
    toy = catalog.make("torsion-toy")
    return Geometry(TriadField(2, toy.field.triad, fd_step=1e-5, name="toy-fd"), sample_box=toy.sample_box)


CASES = {name: catalog.make(name) for name in catalog.names()}
CASES["sphere-dyad"] = sphere_dyad()
CASES["toy-fd"] = toy_fd()

METRIC_SIDE = ("metric", "metric_inverse", "det_metric", "sqrt_metric", "d_metric", "dd_metric",
               "d_metric_inverse", "christoffel_first", "christoffel", "d_christoffel", "affine",
               "affine_from_inverse", "torsion", "contortion", "d_affine", "d_contortion", "curvature",
               "curvature_riemann", "ricci", "ricci_riemann", "scalar", "scalar_riemann", "einstein")
TRIAD_SIDE = ("triad", "triad_inverse", "d_triad", "dd_triad", "d_triad_inverse", "affine_first",
              "torsion_first", "torsion_trace", "contortion_first")

PROPERTY = settings(max_examples=20, deadline=None)


def covariant_curl_of_contortion(pt):
    """Dbar_m K_{nl}^k - Dbar_n K_{ml}^k on a stack, Dbar the Levi-Civita derivative (cf. test_geometry)."""
    k, dk, gbar = pt.contortion, pt.d_contortion, pt.christoffel
    dbar = (np.einsum("...nlkm->...mnlk", dk) + np.einsum("...msk,...nls->...mnlk", gbar, k)
            - np.einsum("...mns,...slk->...mnlk", gbar, k) - np.einsum("...mls,...nsk->...mnlk", gbar, k))
    return dbar - np.swapaxes(dbar, -4, -3)


def points_in(geom: Geometry):
    """Stacks of 1-6 points drawn from the geometry's sample box."""
    coords = [st.floats(lo, hi, allow_nan=False) for lo, hi in geom.sample_box]
    return st.lists(st.tuples(*coords), min_size=1, max_size=6).map(np.array)


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_batch_matches_per_point_bundle(name, data):
    geom = CASES[name]
    pts = data.draw(points_in(geom))
    stacked = geom.batch(pts)
    names = METRIC_SIDE + (() if geom.metric_only else TRIAD_SIDE)
    for prop in names:
        single = np.array([np.asarray(getattr(geom.at(q), prop)) for q in pts])
        batched = np.asarray(getattr(stacked, prop))
        assert batched.shape == single.shape, prop
        scale = max(1.0, float(np.max(np.abs(single))))
        assert np.max(np.abs(batched - single)) <= 1e-14 * scale, prop


@pytest.mark.parametrize("name", catalog.names())
@PROPERTY
@given(data=st.data())
def test_action_coefficients_of_a_stack_match_the_per_point_call(name, data):
    # the 1-d kernel builder reads the stacked call, short_time_action the per-point one
    geom = CASES[name]
    pts = data.draw(points_in(geom))
    stacked = geom.batch(pts)
    for scheme in SCHEMES:
        for order in (2, 3, 4):
            batched = _action_coefficients(stacked, scheme, order)
            for row, q in enumerate(pts):
                for b, s in zip(batched, _action_coefficients(geom.at(q), scheme, order)):
                    assert b[row].shape == s.shape, (scheme, order)
                    assert np.max(np.abs(b[row] - s)) <= 1e-12 * np.max(np.abs(s)), (scheme, order)


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_c01_identities_at_drawn_points(name, data):
    geom = CASES[name]
    pt = geom.batch(data.draw(points_in(geom)))
    tol = 1e-5 if name == "toy-fd" else 1e-10
    s = pt.torsion
    assert np.array_equal(s, -np.swapaxes(s, -3, -2))
    k1 = lower_last(pt.contortion, pt.metric[:, None])
    assert np.max(np.abs(k1 + np.swapaxes(k1, -2, -1))) < 1e-12
    assert np.max(np.abs(pt.affine - pt.christoffel - pt.contortion)) < tol
    assert np.max(np.abs(pt.affine - pt.affine_from_inverse)) < tol
    # R = Rbar + covariant curl of K - [K, K]
    k = pt.contortion
    commutator = np.einsum("...mls,...nsk->...mnlk", k, k) - np.einsum("...nls,...msk->...mnlk", k, k)
    rhs = pt.curvature_riemann + covariant_curl_of_contortion(pt) - commutator
    assert np.max(np.abs(pt.curvature - rhs)) < (1e-5 if name == "toy-fd" else 1e-8)


def deformed_loop(radius: float, amplitude: float, k: int, phase: float, vertices: int = 10_000) -> Contour:
    """A radial deformation r (1 + a sin(k phi + phase)) of a circle about the core; |a| < 1 keeps
    the core inside and off the contour."""
    phi = np.linspace(0.0, 2 * np.pi, vertices + 1)
    rad = radius * (1.0 + amplitude * np.sin(k * phi + phase))
    pts = np.stack([rad * np.cos(phi), rad * np.sin(phi)], axis=1)
    pts[-1] = pts[0]
    return Contour(pts)


@settings(max_examples=10, deadline=None)
@given(eps=st.floats(0.005, 0.02), scale=st.floats(0.5, 2.0), radius=st.floats(0.5, 1.5))
def test_burgers_vector_is_linear_in_epsilon(eps, scale, radius):
    contour = Contour.circle(radius, 10_000)
    b = burgers_vector(DefectGeometry.dislocation(eps), contour)
    b_scaled = burgers_vector(DefectGeometry.dislocation(scale * eps), contour)
    assert np.max(np.abs(b_scaled - scale * b)) <= 1e-6 * eps


@settings(max_examples=10, deadline=None)
@given(radius=st.floats(0.5, 1.5), amplitude=st.floats(0.0, 0.3), k=st.integers(1, 3),
       phase=st.floats(0.0, 2 * np.pi), offset=st.floats(2.0, 3.0), angle=st.floats(0.0, 2 * np.pi))
def test_burgers_vector_invariant_under_deformations_off_the_core(radius, amplitude, k, phase, offset, angle):
    eps = 0.01
    defect = DefectGeometry.dislocation(eps)
    circle = burgers_vector(defect, Contour.circle(radius, 10_000))
    deformed = burgers_vector(defect, deformed_loop(radius, amplitude, k, phase))
    assert np.max(np.abs(deformed - circle)) <= 1e-6 * eps
    assert np.max(np.abs(circle - [0.0, eps])) <= 1e-6 * eps
    # shrinking the loop onto a point away from the core removes the whole vector
    centre = (offset * radius * np.cos(angle), offset * radius * np.sin(angle))
    assert np.max(np.abs(burgers_vector(defect, Contour.circle(0.5 * radius, 10_000, center=centre)))) <= 1e-6 * eps


# -- stacked closure-failure solvers against the per-step recurrence ----------


def closed_form_per_step(G, Sigma, dq, dt, order):
    """variation_closed_form with one exponential per generator, step by step."""
    interp, gen, expm = dynamics._interp, dynamics._step_generator, dynamics.expm
    n, d = dq.shape
    db = np.zeros((n, d))
    b = np.zeros(d)
    for k in range(n - 1):
        U_full = expm(gen(G, k, dt, order))
        if order == 2:
            U_half = expm(-interp(G, k, 0.75) * (0.5 * dt))
            src = dt * (U_half @ (interp(Sigma, k, 0.5) @ interp(dq, k, 0.5)))
        else:
            src = np.zeros(d)
            for c in dynamics._GAUSS_NODES:
                tail = gen(G, k, dt, order, lo=c)
                src += 0.5 * dt * (expm(tail) @ (interp(Sigma, k, c) @ interp(dq, k, c)))
        b = U_full @ b + src
        db[k + 1] = b
    return db


def ordered_product_per_step(G, dt, order):
    U = np.eye(G.shape[1])
    for k in range(len(G) - 1):
        U = dynamics.expm(dynamics._step_generator(G, k, dt, order)) @ U
    return U


@settings(max_examples=5, deadline=None)
@given(q0=st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
       v0=st.tuples(st.floats(0.3, 0.5), st.floats(-0.5, -0.3)),
       bump=st.tuples(st.floats(-0.25, 0.25), st.floats(-0.25, 0.25)))
def test_stacked_closed_form_matches_per_step_reference(q0, v0, bump):
    geom = catalog.make("torsion-toy")
    traj = dynamics.integrate_trajectory(geom, "autoparallel", q0, v0, 0.3, 5e-3)
    dq = dynamics.bump_variation(traj, bump)
    G, Sigma = dynamics._orbit_matrices(geom, traj)
    for order in (2, 4):
        ref = closed_form_per_step(G, Sigma, dq, traj.dt, order)
        got = dynamics.variation_closed_form(geom, traj, dq, order=order)
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(1e-300, float(np.max(np.abs(ref))))
        U_ref = ordered_product_per_step(G, traj.dt, order)
        U = dynamics.time_ordered_propagator(G, traj.dt, order=order)
        assert np.max(np.abs(U - U_ref)) <= 1e-13 * float(np.max(np.abs(U_ref)))
