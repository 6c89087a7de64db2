# Dislocation / disclination maps: branch-continued angles, Burgers vectors,
# and Frank rotation deficits measured by discrete loop integrals.

import numpy as np
import pytest

from torsiongeo.defects import (
    Contour,
    DefectGeometry,
    burgers_vector,
    burgers_vector_chart,
    disclination_geometry,
    frank_rotation_deficit,
    multivalued_angle_along,
)
from torsiongeo.errors import OriginOnContour, ValidationError


def test_angle_increment_one_winding():
    contour = Contour.circle(1.0, 1000)
    phi = multivalued_angle_along(contour)
    assert phi[-1] - phi[0] == pytest.approx(2 * np.pi, abs=1e-12)
    assert contour.winding_number == 1


def test_angle_increment_non_enclosing():
    contour = Contour.circle(0.2, 500, center=(2.0, 0.5))
    phi = multivalued_angle_along(contour)
    assert phi[-1] - phi[0] == pytest.approx(0.0, abs=1e-12)
    assert not contour.encloses_origin


def test_angle_increment_double_winding():
    # Brute-force check: continuation on a finely sampled double loop.
    contour = Contour.circle(1.3, 4000, turns=2)
    phi = multivalued_angle_along(contour)
    assert phi[-1] - phi[0] == pytest.approx(4 * np.pi, abs=1e-10)
    assert contour.winding_number == 2
    steps = np.abs(np.diff(phi))
    assert steps.max() < 0.01  # continuation never jumps a branch


def test_contour_validation():
    with pytest.raises(OriginOnContour):
        Contour(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="close"):
        Contour(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.5, 0.5]]))
    # a 5e-4 gap about (100, 0) is within numpy's default rtol of 1e-5; a run would report it as b = [5e-4, 0]
    far = Contour.circle(1.0, 64, center=(100.0, 0.0)).points
    far[-1, 0] += 5e-4
    with pytest.raises(ValueError, match="close"):
        Contour(far)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Contour(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]])), ValueError,
     "consecutive contour points must be distinct"),
    (lambda: Contour.circle(0.0, 16), ValueError, "need positive radius and at least 3 segments"),
    (lambda: Contour.circle(1.0, 2), ValueError, "need positive radius and at least 3 segments"),
    (lambda: burgers_vector_chart(disclination_geometry(0.05), Contour.circle(1.0, 64)), ValidationError,
     "burgers_vector_chart needs a dislocation defect"),
], ids=["repeated-vertex", "circle-radius", "circle-segments", "chart-burgers-of-a-disclination"])
def test_defect_guards_name_their_fault(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


def test_burgers_vector_unit_circle():
    defect = DefectGeometry.dislocation(0.01)
    contour = Contour.circle(1.0, 10_000)
    b = burgers_vector(defect, contour)
    assert abs(b[0]) < 1e-6 * 0.01
    assert b[1] == pytest.approx(0.01, rel=1e-6)


def test_burgers_vector_non_enclosing():
    defect = DefectGeometry.dislocation(0.01)
    contour = Contour.circle(0.3, 4096, center=(2.0, 1.0))
    b = burgers_vector(defect, contour)
    assert np.linalg.norm(b) < 1e-9


def test_burgers_vector_surface_independence():
    # Two concentric contours with the same winding measure the same torsion flux.
    defect = DefectGeometry.dislocation(0.02)
    b1 = burgers_vector(defect, Contour.circle(0.7, 4096))
    b2 = burgers_vector(defect, Contour.circle(1.9, 4096))
    assert np.allclose(b1, b2, atol=1e-8)


def test_burgers_vector_homotopy_invariance_square_vs_circle():
    defect = DefectGeometry.dislocation(0.015)
    side = np.linspace(-1.0, 1.0, 1500)
    square = np.concatenate(
        [
            np.stack([side, np.full_like(side, -1.0)], axis=1),
            np.stack([np.full_like(side, 1.0), side], axis=1)[1:],
            np.stack([side[::-1], np.full_like(side, 1.0)], axis=1)[1:],
            np.stack([np.full_like(side, -1.0), side[::-1]], axis=1)[1:],
        ]
    )
    b_square = burgers_vector(defect, Contour(square))
    b_circle = burgers_vector(defect, Contour.circle(1.0, 6000))
    assert np.allclose(b_square, b_circle, atol=1e-8)


def test_burgers_vector_linear_in_epsilon():
    contour = Contour.circle(1.0, 2048)
    b1 = burgers_vector(DefectGeometry.dislocation(0.01), contour)
    b2 = burgers_vector(DefectGeometry.dislocation(0.02), contour)
    assert np.allclose(b2, 2.0 * b1, atol=1e-14)


def test_burgers_vector_double_winding():
    defect = DefectGeometry.dislocation(0.01)
    b = burgers_vector(defect, Contour.circle(1.0, 4096, turns=2))
    assert b[1] == pytest.approx(0.02, rel=1e-6)


def test_chart_burgers_vector_opposes_flat_one():
    # The q-space closure failure of a flat closed loop is minus the
    # flat-index Burgers vector, to leading order in epsilon.
    eps = 1e-3
    defect = DefectGeometry.dislocation(eps)
    contour = Contour.circle(1.0, 2000)
    b_chart = burgers_vector_chart(defect, contour)
    b_flat = burgers_vector(defect, contour)
    assert np.linalg.norm(b_chart + b_flat) < 10 * eps**2


def test_disclination_zero_defect_is_flat():
    defect = disclination_geometry(0.0)
    q = np.array([0.7, -0.4])
    assert np.allclose(defect.geometry.at(q).metric, np.eye(2), atol=1e-15)


def test_disclination_metric_componentwise():
    omega = 0.05
    defect = disclination_geometry(omega)
    q = np.array([1.0, 0.0])
    assert np.allclose(defect.geometry.at(q).metric, np.diag([1.0, 1.0 - 2 * omega]), atol=1e-14)


def test_disclination_torsion_vanishes_off_origin():
    defect = disclination_geometry(0.05)
    rng = np.random.default_rng(3)
    for q in defect.geometry.random_points(8, rng):
        assert np.max(np.abs(defect.geometry.at(q).torsion)) < 1e-9


def test_disclination_flat_off_origin():
    # The sector-deficit metric is a cone: curvature vanishes pointwise away
    # from the apex (it is concentrated there, seen only by loop integrals).
    defect = disclination_geometry(0.08)
    rng = np.random.default_rng(4)
    for q in defect.geometry.random_points(6, rng):
        assert np.max(np.abs(defect.geometry.at(q).curvature_riemann)) < 1e-9


def test_dislocation_no_curvature_off_origin():
    defect = DefectGeometry.dislocation(0.05)
    rng = np.random.default_rng(5)
    for q in defect.geometry.random_points(6, rng):
        assert np.max(np.abs(defect.geometry.at(q).curvature)) < 1e-9
        assert np.max(np.abs(defect.geometry.at(q).curvature_riemann)) < 1e-9


def test_frank_deficit_unit_circle():
    omega = 0.05
    defect = disclination_geometry(omega)
    deficit = frank_rotation_deficit(defect, Contour.circle(1.0, 8192))
    assert deficit == pytest.approx(-2 * np.pi * omega, rel=1e-6)


def test_frank_deficit_non_enclosing():
    defect = disclination_geometry(0.05)
    deficit = frank_rotation_deficit(defect, Contour.circle(0.4, 2048, center=(1.5, 1.5)))
    assert deficit == pytest.approx(0.0, abs=1e-12)


def test_frank_deficit_double_winding():
    omega = 0.03
    defect = disclination_geometry(omega)
    deficit = frank_rotation_deficit(defect, Contour.circle(1.0, 8192, turns=2))
    assert deficit == pytest.approx(-4 * np.pi * omega, rel=1e-9)


def test_frank_deficit_linear_in_omega():
    contour = Contour.circle(1.0, 2048)
    d1 = frank_rotation_deficit(disclination_geometry(0.02), contour)
    d2 = frank_rotation_deficit(disclination_geometry(0.04), contour)
    assert d2 == pytest.approx(2.0 * d1, rel=1e-12)


def test_kind_mismatch_raises():
    disl = DefectGeometry.dislocation(0.01)
    decl = disclination_geometry(0.05)
    contour = Contour.circle(1.0, 512)
    with pytest.raises(ValidationError):
        burgers_vector(decl, contour)
    with pytest.raises(ValidationError):
        frank_rotation_deficit(disl, contour)


def test_disclination_bound_enforced():
    with pytest.raises(ValidationError):
        disclination_geometry(0.5)
