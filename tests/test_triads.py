# Tests of triad/metric fields: analytic derivatives, finite-difference
# fallback, holonomic symmetry, and the CSV grid schema.

import numpy as np
import pytest

from torsiongeo import catalog
from torsiongeo.errors import SingularTriad, TriadUnavailable
from torsiongeo.triads import MetricField, TriadField, sample_triad_to_csv, triad_grid_from_csv

RNG = np.random.default_rng(20260808)

TRIAD_GEOMETRIES = ["flat-cartesian", "polar", "circle", "dislocation", "torsion-toy"]
METRIC_GEOMETRIES = ["sphere", "disclination"]


@pytest.mark.parametrize("name", TRIAD_GEOMETRIES)
def test_analytic_first_derivatives_match_fd(name):
    geom = catalog.make(name)
    field = geom.field
    fd = TriadField(field.dim, field.triad, fd_step=1e-6)
    for q in geom.random_points(5, RNG):
        assert np.allclose(field.d_triad(q), fd.d_triad(q), atol=5e-7)


@pytest.mark.parametrize("name", TRIAD_GEOMETRIES)
def test_analytic_second_derivatives_match_fd(name):
    geom = catalog.make(name)
    field = geom.field
    fd = TriadField(field.dim, field.triad, fd_step=1e-4)
    for q in geom.random_points(5, RNG):
        assert np.allclose(field.dd_triad(q), fd.dd_triad(q), atol=1e-5)


@pytest.mark.parametrize("name", METRIC_GEOMETRIES)
def test_metric_derivatives_match_fd(name):
    field = catalog.make(name).field
    geom = catalog.make(name)
    for q in geom.random_points(5, RNG):
        num_d = np.empty(field.metric(q).shape + (field.dim,))
        h = 1e-6
        for s in range(field.dim):
            qp, qm = q.copy(), q.copy()
            qp[s] += h
            qm[s] -= h
            num_d[..., s] = (field.metric(qp) - field.metric(qm)) / (2 * h)
        assert np.allclose(field.d_metric(q), num_d, atol=5e-8)
        num_dd = np.empty(field.metric(q).shape + (field.dim, field.dim))
        h = 1e-4
        for s in range(field.dim):
            qp, qm = q.copy(), q.copy()
            qp[s] += h
            qm[s] -= h
            num_dd[..., s] = (field.d_metric(qp) - field.d_metric(qm)) / (2 * h)
        assert np.allclose(field.dd_metric(q), num_dd, atol=1e-6)


def test_fd_mode_converges_quadratically():
    # Central differences approach the analytic derivatives at rate O(h^2).
    geom = catalog.make("polar")
    q = np.array([1.3, 0.7])
    exact = geom.field.d_triad(q)
    errs = []
    for h in (1e-3, 5e-4):
        fd = TriadField(2, geom.field.triad, fd_step=h)
        errs.append(np.max(np.abs(fd.d_triad(q) - exact)))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_holonomic_triads_have_symmetric_derivatives():
    for name in ("flat-cartesian", "polar", "circle"):
        geom = catalog.make(name)
        for q in geom.random_points(5, RNG):
            de = geom.field.d_triad(q)
            assert np.allclose(de, np.swapaxes(de, 1, 2), atol=1e-13)


def test_second_derivatives_symmetric_in_last_pair():
    # Partials of a given component commute even for nonholonomic triads.
    for name in TRIAD_GEOMETRIES:
        geom = catalog.make(name)
        for q in geom.random_points(3, RNG):
            dde = geom.field.dd_triad(q)
            assert np.allclose(dde, np.swapaxes(dde, 2, 3), atol=1e-13)


def test_singular_triad_detected():
    field = catalog.make("polar").field
    with pytest.raises(SingularTriad):
        field.triad(np.array([0.0, 0.3]))


def test_metric_field_rejects_triad_requests_when_not_diagonal():
    field = catalog.make("disclination").field
    with pytest.raises(TriadUnavailable):
        field.triad(np.array([1.0, 0.5]))


def skew_metric(q):
    return np.broadcast_to(np.array([[1.0, 0.5], [0.5, 2.0]]), np.shape(q)[:-1] + (2, 2)).copy()


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp: TriadField(0, np.eye), ValueError, "dim must be a positive integer"),
    (lambda tmp: MetricField(2, skew_metric, diagonal=True, name="skew").triad(np.array([0.5, 0.25])),
     TriadUnavailable, "skew: metric not diagonal at q=[0.5, 0.25]; no square-root triad"),
    (lambda tmp: sample_triad_to_csv(catalog.make("polar").field, [np.linspace(1.0, 2.0, 4)], tmp / "grid.csv"),
     ValueError, "one axis per chart dimension required"),
], ids=["dim", "diagonal-metric-off-diagonal", "sample-axes"])
def test_triad_guards_name_their_fault(tmp_path, call, error, message):
    with pytest.raises(error) as raised:
        call(tmp_path)
    assert type(raised.value) is error and str(raised.value) == message
    assert not (tmp_path / "grid.csv").exists()


def test_sphere_diagonal_square_root_triad():
    field = catalog.make("sphere", a=2.0).field
    q = np.array([0.9, 0.2])
    e = field.triad(q)
    assert np.allclose(e, np.diag([2.0, 2.0 * np.sin(0.9)]))
    # Derivatives of the diagonal root match finite differences of it.
    h = 1e-6
    de_num = np.empty((2, 2, 2))
    for s in range(2):
        qp, qm = q.copy(), q.copy()
        qp[s] += h
        qm[s] -= h
        de_num[..., s] = (field.triad(qp) - field.triad(qm)) / (2 * h)
    assert np.allclose(field.d_triad(q), de_num, atol=1e-8)


def test_csv_grid_roundtrip(tmp_path):
    geom = catalog.make("polar")
    path = tmp_path / "polar_grid.csv"
    axes = [np.linspace(0.8, 2.2, 15), np.linspace(0.2, 1.4, 15)]
    sample_triad_to_csv(geom.field, axes, path)
    loaded = triad_grid_from_csv(path)
    assert loaded.dim == 2
    q = np.array([1.5, 0.8])
    assert np.allclose(loaded.triad(q), geom.field.triad(q), atol=1e-4)
    assert np.allclose(loaded.d_triad(q), geom.field.d_triad(q), atol=1e-3)


def test_csv_grid_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["q1,e_1_1"]
    for x in (0.0, 0.1, 0.25, 0.4, 0.5):
        rows.append(f"{x},1.0")
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="uniform"):
        triad_grid_from_csv(path)


AXIS = "\n".join(f"{0.1 * k},1.0" for k in range(5))


@pytest.mark.parametrize("text, message", [
    ("", "empty CSV"),
    ("q1,f_1_1\n" + AXIS, "does not match schema"),
    ("q1,e_1_1\n" + "\n".join(f"{0.1 * k},1.0,0.0" for k in range(5)), "wrong column count"),
    ("q1,e_1_1\n0.0,1.0\n0.1,1.0\n0.2,1.0", "at least 4 distinct values"),
    ("q1,q2,e_1_1,e_1_2,e_2_1,e_2_2\n" + "\n".join(f"{0.1 * i},{0.1 * j},1,0,0,1" for i in range(4) for j in range(4)
                                                   if (i, j) != (3, 3)), "does not fill the rectilinear grid"),
], ids=["empty", "header", "columns", "three-values", "missing-row"])
def test_csv_grid_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        triad_grid_from_csv(path)
