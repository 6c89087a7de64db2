# Tensor-level tests: reciprocal triads, induced metrics, connections,
# torsion/contortion identities, curvature, finite-difference fields against
# the analytic catalog, and covariant derivatives.

import re
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torsiongeo import catalog
from torsiongeo.errors import (DerivativeUnavailable, MetricNotPositiveDefinite, NonFiniteResult, TorsionGeoError,
                               TriadUnavailable, ValidationError)
from torsiongeo.geometry import (
    Geometry,
    PointGeometry,
    TensorValue,
    _memo,
    connection_bundle,
    covariant_derivative,
    curvature_bundle,
    induced_metric,
    lower_last,
    reciprocal_triad,
)
from torsiongeo.triads import MetricField, TriadField

from bundle_oracles import curvature_relation_residual, sphere_dyad

RNG = np.random.default_rng(42)

TRIAD_GEOMETRIES = ["flat-cartesian", "polar", "circle", "dislocation", "torsion-toy"]
ALL_GEOMETRIES = TRIAD_GEOMETRIES + ["sphere", "disclination"]


def triad_cases():
    cases = [catalog.make(name) for name in TRIAD_GEOMETRIES]
    cases.append(sphere_dyad())
    return cases


# -- reciprocal triads -------------------------------------------------------


def test_reciprocal_identity_triad():
    geom = catalog.make("flat-cartesian", d=3)
    assert np.allclose(reciprocal_triad(geom, [0.2, -1.0, 0.5]), np.eye(3))


def test_reciprocal_polar_matches_matrix_inverse():
    geom = catalog.make("polar")
    q = np.array([2.0, 0.0])
    e = geom.at(q).triad
    assert np.allclose(e, [[1.0, 0.0], [0.0, 2.0]])
    rec = reciprocal_triad(geom, q)
    # rec[i, mu] = e_i^mu must invert e^i_mu in both index pairings
    assert np.allclose(np.einsum("im,in->mn", rec, e), np.eye(2), atol=1e-12)
    assert np.allclose(np.einsum("im,jm->ij", e, rec), np.eye(2), atol=1e-12)
    assert np.allclose(rec, np.linalg.inv(e).T, atol=1e-14)


def test_reciprocal_dislocation_matches_matrix_inverse():
    geom = catalog.make("dislocation", epsilon=0.01)
    q = np.array([1.0, 1.0])
    e = geom.at(q).triad
    assert np.allclose(reciprocal_triad(geom, q), np.linalg.inv(e).T, atol=1e-14)


# -- induced metric ----------------------------------------------------------


def test_metric_identity_for_flat():
    data = induced_metric(catalog.make("flat-cartesian"), [0.3, 0.4])
    assert np.allclose(data["g"], np.eye(2))
    assert data["det"] == pytest.approx(1.0)


def test_metric_polar_diagonal():
    data = induced_metric(catalog.make("polar"), [3.0, 1.1])
    assert np.allclose(data["g"], np.diag([1.0, 9.0]), atol=1e-12)
    assert data["sqrt_det"] == pytest.approx(3.0)


def test_metric_disclination_componentwise():
    # Transformed metric: delta - (2 omega / q^2) eps_{m l} eps_{n k} q^l q^k
    omega = 0.05
    geom = catalog.make("disclination", omega=omega)
    eps2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for q in geom.random_points(6, RNG):
        w = eps2 @ q
        expected = np.eye(2) - (2 * omega / (q @ q)) * np.outer(w, w)
        assert np.allclose(geom.at(q).metric, expected, atol=1e-14)
    q0 = np.array([1.0, 0.0])
    assert np.allclose(geom.at(q0).metric, np.diag([1.0, 1.0 - 2 * omega]), atol=1e-14)


def test_metric_positive_definite_and_inverse():
    for geom in triad_cases() + [catalog.make("sphere"), catalog.make("disclination")]:
        for q in geom.random_points(10, RNG):
            pt = geom.at(q)
            assert np.all(np.linalg.eigvalsh(pt.metric) > 0)
            assert np.allclose(pt.metric, pt.metric.T, atol=1e-14)
            assert np.allclose(pt.metric_inverse @ pt.metric, np.eye(geom.dim), atol=1e-12)
            if not geom.metric_only:  # a metric field has no triad
                assert pt.sqrt_metric == pytest.approx(abs(np.linalg.det(pt.triad)), rel=1e-12)


# -- connections -------------------------------------------------------------


def test_flat_connection_bundle_all_zero():
    out = connection_bundle(catalog.make("flat-cartesian"), [0.1, 0.2])
    for key in ("affine", "christoffel", "torsion", "torsion_trace", "contortion"):
        assert np.allclose(out[key], 0.0)


def test_polar_christoffel_components():
    out = connection_bundle(catalog.make("polar"), [1.7, 0.4])
    r = 1.7
    gbar = out["christoffel"]
    assert gbar[1, 1, 0] == pytest.approx(-r, abs=1e-12)  # Gammabar_{phi phi}^r
    assert gbar[0, 1, 1] == pytest.approx(1 / r, abs=1e-12)
    assert gbar[1, 0, 1] == pytest.approx(1 / r, abs=1e-12)
    assert np.allclose(out["torsion"], 0.0, atol=1e-13)


def test_dislocation_torsion_vanishes_off_origin():
    geom = catalog.make("dislocation", epsilon=0.01)
    for q in geom.random_points(10, RNG):
        assert np.allclose(geom.at(q).torsion, 0.0, atol=1e-12)


def test_connection_identities_on_all_triad_geometries():
    for geom in triad_cases():
        for q in geom.random_points(20, RNG):
            pt = geom.at(q)
            # Both forms of the affine connection agree.
            assert np.max(np.abs(pt.affine - pt.affine_from_inverse)) < 1e-10
            # Torsion is the antisymmetric part, exactly.
            s = pt.torsion
            assert np.array_equal(s, 0.5 * (pt.affine - np.swapaxes(pt.affine, 0, 1)))
            # Contortion is antisymmetric in its last two (lowered) indices.
            k1 = pt.contortion_first
            assert np.max(np.abs(k1 + np.swapaxes(k1, 1, 2))) < 1e-12
            # Decomposition into Christoffel plus contortion.
            assert np.max(np.abs(pt.affine - pt.christoffel - pt.contortion)) < 1e-10
            # Trace identity: contortion drops out of the (b, c) trace.
            assert np.max(np.abs(np.einsum("abb->a", pt.affine) - np.einsum("abb->a", pt.christoffel))) < 1e-10


def test_decomposition_with_finite_differences():
    geom = catalog.make("torsion-toy")
    fd_field = TriadField(2, geom.field.triad, fd_step=1e-5, name="toy-fd")
    fd_geom = Geometry(fd_field)
    for q in geom.random_points(10, RNG):
        pt = fd_geom.at(q)
        assert np.max(np.abs(pt.affine - pt.christoffel - pt.contortion)) < 1e-5


# -- curvature ---------------------------------------------------------------


def test_flat_curvature_zero():
    out = curvature_bundle(catalog.make("flat-cartesian"), [0.5, -0.5])
    assert np.allclose(out["curvature"], 0.0)
    assert out["scalar_riemann"] == pytest.approx(0.0, abs=1e-14)


def test_sphere_scalar_curvature():
    for a in (1.0, 2.0):
        geom = catalog.make("sphere", a=a)
        for q in geom.random_points(5, RNG):
            out = curvature_bundle(geom, q)
            assert out["scalar_riemann"] == pytest.approx(2.0 / a**2, abs=1e-10)
            # Einstein tensor vanishes identically in two dimensions.
            assert np.allclose(out["einstein"], 0.0, atol=1e-10)


def test_holonomic_triads_have_zero_affine_curvature_and_rbar_matches():
    # Smooth single-valued triads are flat in the affine sense; for the
    # torsion-free members the Riemann curvature coincides with it.
    for name in ("polar", "dislocation"):
        geom = catalog.make(name)
        for q in geom.random_points(5, RNG):
            pt = geom.at(q)
            assert np.max(np.abs(pt.curvature)) < 1e-8
            assert np.max(np.abs(pt.curvature_riemann)) < 1e-8


def test_curvature_antisymmetric_first_pair():
    geom = sphere_dyad()
    for q in geom.random_points(5, RNG):
        r = geom.at(q).curvature_riemann
        assert np.allclose(r, -np.swapaxes(r, 0, 1), atol=1e-10)


def test_curvature_relation_between_affine_and_riemann():
    # R = Rbar + (covariant curl of K) - [K, K], checked componentwise on a
    # geometry with torsion.  The affine curvature of a smooth triad field
    # vanishes, which makes the check sharp.
    geom = catalog.make("torsion-toy")
    for q in geom.random_points(10, RNG):
        assert curvature_relation_residual(geom.at(q)) < 1e-8


def test_curvature_relation_with_finite_differences():
    geom = catalog.make("torsion-toy")
    fd_geom = Geometry(TriadField(2, geom.field.triad, fd_step=1e-5))
    for q in geom.random_points(3, RNG):
        assert curvature_relation_residual(fd_geom.at(q)) < 1e-5


FD_ORACLE_PROPERTIES = ("d_affine", "d_christoffel", "d_contortion", "curvature", "curvature_riemann",
                        "scalar_riemann")


def _rebuilt(field, first: bool):
    """``field`` from its evaluator alone, or with its analytic first derivative; both at step 1e-5
    (``DEFAULT_FD_STEP`` for a metric field)."""
    if isinstance(field, MetricField):
        return MetricField(field.dim, field.metric, field.d_metric if first else None)
    return TriadField(field.dim, field.triad, field.d_triad if first else None, fd_step=1e-5)


@pytest.mark.parametrize("first, bound", [(False, 5e-6), (True, 2e-7)])
@pytest.mark.parametrize("name", ALL_GEOMETRIES)
def test_finite_difference_fields_match_the_analytic_catalog(name, first, bound):
    # the bundle's connection derivatives come from the field's own first and
    # second derivatives, each missing one the difference of the next lower one
    geom = catalog.make(name)
    points = geom.random_points(400, np.random.default_rng(20261019))
    ref, fd = geom.batch(points), Geometry(_rebuilt(geom.field, first)).batch(points)
    for prop in FD_ORACLE_PROPERTIES:
        err = float(np.max(np.abs(np.asarray(getattr(fd, prop)) - np.asarray(getattr(ref, prop)))))
        assert err < bound, f"{prop}: {err:.2e}"


def test_d_affine_matches_fd_of_affine():
    geom = catalog.make("torsion-toy")
    q = np.array([0.2, -0.1])
    h = 1e-6
    num = np.empty((2, 2, 2, 2))
    for s in range(2):
        qp, qm = q.copy(), q.copy()
        qp[s] += h
        qm[s] -= h
        num[..., s] = (geom.at(qp).affine - geom.at(qm).affine) / (2 * h)
    assert np.allclose(geom.at(q).d_affine, num, atol=1e-8)


def test_d_contortion_matches_fd():
    geom = catalog.make("torsion-toy")
    q = np.array([-0.3, 0.25])
    h = 1e-6
    num = np.empty((2, 2, 2, 2))
    for s in range(2):
        qp, qm = q.copy(), q.copy()
        qp[s] += h
        qm[s] -= h
        num[..., s] = (geom.at(qp).contortion - geom.at(qm).contortion) / (2 * h)
    assert np.allclose(geom.at(q).d_contortion, num, atol=1e-8)


# -- covariant derivatives ---------------------------------------------------


def test_covariant_derivative_constant_field_flat():
    geom = catalog.make("flat-cartesian")
    out = covariant_derivative(geom, lambda q: np.array([1.0, 2.0]), [0.1, 0.9], variance=("upper",))
    assert np.allclose(out.array, 0.0, atol=1e-9)


def test_covariant_derivative_scalar_is_gradient():
    geom = catalog.make("polar")
    q = np.array([1.2, 0.4])
    for mode in ("riemann", "affine"):
        out = covariant_derivative(geom, lambda p: np.array(p[0] ** 2 + p[1]), q, variance=(), mode=mode)
        assert np.allclose(out.array, [2 * q[0], 1.0], atol=1e-8)


@pytest.mark.parametrize("mode", ["riemann", "affine"])
def test_metric_compatibility(mode):
    # Both connections annihilate the metric they are built from.
    for name in ("polar", "torsion-toy", "sphere"):
        geom = catalog.make(name)
        for q in geom.random_points(4, RNG):
            out = covariant_derivative(
                geom, lambda p: geom.at(p).metric, q, variance=("lower", "lower"), mode=mode
            )
            assert np.max(np.abs(out.array)) < 1e-7


@pytest.mark.parametrize("field, kwargs, error, message", [
    (np.array([1.0, 2.0]), {}, DerivativeUnavailable, "field must be callable"),
    (lambda q: q, {"mode": "levi-civita"}, ValueError, "mode must be"),
    (lambda q: q, {"variance": ("upper", "upper")}, ValueError, "one position per tensor index"),
    (lambda q: q, {"variance": ("sideways",)}, ValueError, "variance entries must be"),
], ids=["not-callable", "mode", "variance-length", "variance-entry"])
def test_covariant_derivative_rejects_malformed_arguments(field, kwargs, error, message):
    with pytest.raises(error, match=message):
        covariant_derivative(catalog.make("polar"), field, [1.2, 0.4], **kwargs)


@pytest.mark.parametrize("call, message", [
    (lambda: Geometry(TriadField(1, lambda q: np.ones(np.shape(q) + (1,))), name="unit").random_points(
        3, np.random.default_rng(0)), "unit: no sample box defined"),
], ids=["random-points-without-a-sample-box"])
def test_geometry_guards_name_their_fault(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert type(raised.value) is ValueError and str(raised.value) == message


def test_tensor_value_validation():
    with pytest.raises(ValueError):
        TensorValue(("upper",), np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        TensorValue(("upper", "lower"), np.zeros((2, 3)), np.zeros(2))


def test_lowering_round_trip():
    geom = catalog.make("torsion-toy")
    pt = geom.at(np.array([0.1, 0.2]))
    lowered = lower_last(pt.affine, pt.metric)
    assert np.allclose(lowered, pt.affine_first, atol=1e-14)


def test_metric_field_positive_definite_guard():
    from torsiongeo.errors import MetricNotPositiveDefinite
    from torsiongeo.triads import MetricField

    field = MetricField(2, lambda q: np.diag([1.0, 1.0 - q[0] ** 2]), name="degenerate")
    field.metric(np.array([0.5, 0.0]))
    with pytest.raises(MetricNotPositiveDefinite):
        field.metric(np.array([1.5, 0.0]))


def test_point_shape_is_checked_before_the_cache():
    # a (1, 2) point has the bytes of a (2,) point; it must not hit its cache entry
    geom = catalog.make("polar")
    pt = geom.at([1.0, 0.3])
    for bad in ([[1.0, 0.3]], [1.0], 1.0, [1.0, 0.3, 0.0]):
        with pytest.raises(ValueError, match="shape"):
            geom.at(bad)
    assert geom.at(np.array([1.0, 0.3])) is pt


def test_at_remembers_only_the_last_point():
    geom = catalog.make("polar")
    first = geom.at([1.0, 0.3])
    assert geom.at(np.array([1.0, 0.3])) is first
    second = geom.at([1.2, 0.3])
    assert second is not first
    assert geom.at([1.0, 0.3]) is not first


def test_batch_takes_a_stack_of_points():
    geom = catalog.make("polar")
    pts = np.array([[1.0, 0.3], [2.0, 1.1], [0.7, 4.0]])
    stacked = geom.batch(pts)
    assert stacked.metric.shape == (3, 2, 2)
    assert stacked.sqrt_metric.shape == (3,)
    assert np.array_equal(stacked.affine[1], geom.at(pts[1]).affine)
    for bad in ([1.0, 0.3], np.zeros((3, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="shape"):
            geom.batch(bad)


@pytest.mark.parametrize("name", ["sphere", "disclination"])
def test_metric_only_bundle_is_its_own_riemann_side(name):
    # torsion-free by construction: each affine-side quantity is the Riemann-side object itself, torsion and the
    # contortion derivative are exact zeros, and the chart scale is the least metric eigenvalue
    geom = catalog.make(name)
    pts = geom.random_points(4, np.random.default_rng(7))
    for pt in (geom.at(pts[0]), geom.batch(pts)):
        stack = pt.q.shape[:-1]
        for affine, riemann in (("affine", "christoffel"), ("affine_from_inverse", "christoffel"),
                                ("d_affine", "d_christoffel"), ("curvature", "curvature_riemann"),
                                ("ricci", "ricci_riemann"), ("scalar", "scalar_riemann")):
            assert getattr(pt, affine) is getattr(pt, riemann), affine
        assert pt.torsion.shape == stack + (2,) * 3 and not pt.torsion.any()
        assert pt.d_contortion.shape == stack + (2,) * 4 and not pt.d_contortion.any()
        assert np.shape(pt.chart_scale) == stack
        assert np.array_equal(pt.chart_scale, np.linalg.eigvalsh(pt.metric).min(axis=-1))


def _counting(calls, order, evaluator):
    def counted(q):
        calls[order] += 1
        return evaluator(q)
    return counted


@pytest.mark.parametrize("name, kind", [("torsion-toy", TriadField), ("sphere", MetricField)])
def test_each_bundle_property_is_computed_once_per_bundle(name, kind):
    # the memo is the only thing between a bundle and its field: each evaluator runs once per derivative order,
    # however often and in whatever order the properties are read
    geom = catalog.make(name)
    field = geom.field
    evaluators = (field.triad, field.d_triad, field.dd_triad) if kind is TriadField else (
        field.metric, field.d_metric, field.dd_metric)
    calls = Counter()
    counted = Geometry(kind(2, *(_counting(calls, k, f) for k, f in enumerate(evaluators))))
    pts = geom.random_points(3, np.random.default_rng(5))
    first = counted.at(pts[0])
    names = {n for cls in type(first).__mro__ for n, attr in vars(cls).items() if isinstance(attr, (_memo, property))}
    for pt in (first, counted.batch(pts)):
        calls.clear()
        unavailable = set()
        for _ in range(2):
            for prop in sorted(names):
                try:
                    getattr(pt, prop)
                except TriadUnavailable:
                    unavailable.add(prop)
        assert calls == {0: 1, 1: 1, 2: 1}
        assert unavailable == (set() if kind is TriadField else
                               {"triad", "triad_inverse", "d_triad", "dd_triad", "d_triad_inverse"})
    # read on the class, a memoized property is its descriptor, with the function's docstring
    assert PointGeometry.affine is vars(PointGeometry)["affine"]
    assert PointGeometry.affine.__doc__ == "Gamma_{ab}^c = e_i^c e^i_{b,a}."


def test_threads_reading_one_bundle_see_the_values_of_a_lone_reader():
    # the memo takes no lock: threads reading one bundle at once may each compute a property, and store equal values
    geom = catalog.make("torsion-toy")
    pts = geom.random_points(16, np.random.default_rng(3))
    names = sorted(n for n, attr in vars(PointGeometry).items() if isinstance(attr, _memo))
    alone = geom.batch(pts)
    expected = {n: getattr(alone, n) for n in names}
    shared = geom.batch(pts)
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: seen.append({n: getattr(shared, n) for n in names}))
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and len(seen) == 4
    for values in seen:
        for n in names:
            assert np.array_equal(values[n], expected[n]), n


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_metric_singular_in_floating_point_is_a_named_error():
    # near the dislocation core |det e| passes the triad guard, yet e^T e rounds to a singular matrix
    geom = catalog.make("dislocation")
    with pytest.raises(MetricNotPositiveDefinite, match=r"^dislocation: metric singular at q=\[6e-13, 8e-13\]$"):
        geom.at([6e-13, 8e-13]).christoffel
    # on a stack, the first point whose own metric cannot be inverted
    with pytest.raises(MetricNotPositiveDefinite, match=r"at q=\[6e-13, 8e-13\]$"):
        geom.batch([[1.0, 1.0], [6e-13, 8e-13], [6e-14, 8e-14]]).metric_inverse


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("theta", [2e-162, 1e-150, 1e-120, 2.2e-103])
def test_connection_derivative_near_a_sphere_pole_is_a_named_error(theta):
    # g^phiphi = 1/sin^2 theta is finite there, but its derivative overflows
    geom = catalog.make("sphere")
    message = "^" + re.escape(f"sphere: derivative of the inverse metric is not finite at q=[{theta}, 0.3]") + "$"
    for prop in ("d_christoffel", "curvature", "ricci", "scalar_riemann", "einstein"):
        with pytest.raises(NonFiniteResult, match=message):
            getattr(geom.at([theta, 0.3]), prop)
    with pytest.raises(NonFiniteResult, match=message):
        geom.batch([[1.0, 0.3], [theta, 0.3]]).scalar_riemann
    assert np.isfinite(geom.at([3e-103, 0.3]).scalar_riemann)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("theta", [2e-162, 1e-158, 7e-155])
def test_inverse_metric_near_a_sphere_pole_is_a_named_error(theta):
    # sin^2 theta is below 1 / DBL_MAX there: g^phiphi overflows, and so would every connection raised with it
    geom = catalog.make("sphere")
    message = "^" + re.escape(f"sphere: inverse metric is not finite at q=[{theta}, 0.3]") + "$"
    for prop in ("metric_inverse", "christoffel", "affine", "affine_from_inverse", "affine_first", "contortion"):
        for pt in (geom.at([theta, 0.3]), geom.batch([[1.0, 0.3], [theta, 0.3]])):
            with pytest.raises(NonFiniteResult, match=message):
                getattr(pt, prop)
    assert np.isfinite(geom.at([1e-150, 0.3]).christoffel).all()


BUNDLE_PROPERTIES = sorted(n for n, attr in vars(PointGeometry).items() if isinstance(attr, _memo))


@st.composite
def sample_box_points(draw):
    name = draw(st.sampled_from(catalog.names()))
    return name, [draw(st.floats(lo, hi)) for lo, hi in catalog.make(name).sample_box]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(sample_box_points())
@example(("polar", [0.0, 0.0]))  # the catalog's singular points: the polar origin, the defect cores
@example(("dislocation", [0.0, 0.0]))
@example(("disclination", [0.0, 0.0]))
@example(("dislocation", [6e-13, 8e-13]))  # a metric singular in floating point
@example(("sphere", [0.0, 0.3]))  # the sphere's poles
@example(("sphere", [np.pi, 0.3]))
@example(("sphere", [1e-158, 0.3]))  # an overflowing inverse metric
@example(("sphere", [1e-120, 0.3]))  # an overflowing derivative of the inverse metric
def test_every_bundle_property_is_finite_or_a_named_error(case):
    # at sample points and at the catalog's singular points, read through both at and batch
    name, q = case
    geom = catalog.make(name)
    assert len(BUNDLE_PROPERTIES) == 33
    for pt in (geom.at(q), geom.batch([q])):
        for prop in BUNDLE_PROPERTIES:
            try:
                value = getattr(pt, prop)
            except TorsionGeoError:
                continue
            assert np.isfinite(value).all(), f"{name} {prop} at q={q}"


@pytest.mark.parametrize("name", ["torsion-toy", "polar"])
def test_triad_bundle_chart_scale_is_the_triad_determinant(name):
    geom = catalog.make(name)
    pts = geom.random_points(4, np.random.default_rng(7))
    for pt in (geom.at(pts[0]), geom.batch(pts)):
        assert np.shape(pt.chart_scale) == pt.q.shape[:-1]
        assert np.array_equal(pt.chart_scale, np.linalg.det(pt.triad))


def test_evaluator_shape_is_checked_against_the_stack():
    # a per-point closed form that ignores the batch axis is caught, not broadcast
    field = TriadField(1, lambda q: np.array([[1.0 + q[..., 0].sum()]]), name="scalar-only")
    Geometry(field).at([0.5]).triad
    with pytest.raises(ValueError, match="shape"):
        Geometry(field).batch(np.zeros((4, 1))).triad


def test_catalog_metadata_is_passed_to_the_constructor():
    geom = Geometry(TriadField(1, lambda q: np.ones(np.shape(q) + (1,))), name="unit", params={"k": 1},
                    topology="line", sample_box=[(0.0, 1.0)])
    assert (geom.name, geom.params, geom.topology) == ("unit", {"k": 1}, "line")
    assert geom.random_points(3, np.random.default_rng(0)).shape == (3, 1)
    assert catalog.make("sphere").topology == "sphere"
    assert catalog.make("flat-cartesian", d=1).params == {"d": 1}


@pytest.mark.parametrize("name, params", [("flat-cartesian", {"d": 2.5}), ("flat-cartesian", {"d": True}),
                                          ("flat-cartesian", {"d": 0}), ("sphere", {"a": float("nan")}),
                                          ("circle", {"a": float("inf")}), ("torsion-toy", {"s0": "0.1"})])
def test_catalog_make_rejects_malformed_parameters(name, params):
    # d used to be truncated with int(), and a NaN radius passed the a > 0 check
    with pytest.raises(ValidationError, match=next(iter(params))):
        catalog.make(name, **params)


@pytest.mark.parametrize("name, params, message", [
    ("circle", {"a": 0.0}, "circle: radius a must be positive"),
    ("circle", {"a": -1.0}, "circle: radius a must be positive"),
    ("moebius", {}, "unknown geometry 'moebius'; known: circle"),
    ("sphere", {"radius": 2.0}, r"geometry 'sphere' does not take parameter\(s\) \['radius'\]"),
    ("torsion-toy", {"s0": 1.0}, r"torsion-toy: \|s0\| must be below 1 to keep the triad invertible"),
    ("torsion-toy", {"s0": -1.0}, r"torsion-toy: \|s0\| must be below 1 to keep the triad invertible"),
], ids=["radius-zero", "radius-negative", "unknown-name", "unknown-parameter", "s0-one", "s0-minus-one"])
def test_catalog_make_refuses_names_parameters_and_radii_it_does_not_know(name, params, message):
    with pytest.raises(ValidationError, match=message):
        catalog.make(name, **params)
