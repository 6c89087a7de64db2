# Slice-level machinery: difference expansion, short-time actions in the
# three schemes against the connecting-orbit oracle, Jacobian actions of the
# measure, the curvature effective potential, and the phase-space identity.

import numpy as np
import pytest

from torsiongeo import catalog
from torsiongeo.errors import NoConvergence, TorsionPresentWarning
from torsiongeo.slicing import (
    ActionTerms,
    SliceConfig,
    classical_orbit_action,
    delta_action_expectation,
    delta_jacobian_action,
    delta_x_expansion,
    effective_potential,
    jacobian_action,
    phase_space_kernel_check,
    shoot_autoparallel,
    short_time_action,
)

from bundle_oracles import sphere_dyad

EPS = 0.05


def config(scheme="postpoint", order=4, eps=EPS, **kw):
    return SliceConfig(n_slices=1, eps=eps, scheme=scheme, order=order, **kw)


# -- coordinate-difference expansion ------------------------------------------


@pytest.mark.parametrize("call, message", [
    (lambda: delta_x_expansion(catalog.make("polar"), [1.2, 0.3], [0.01, 0.02], order=4), "order must be 1, 2 or 3"),
    (lambda: jacobian_action(catalog.make("polar"), [1.2, 0.3], route="dewitt"),
     "route must be one of ('naive-affine', 'naive-metric', 'qep')"),
], ids=["expansion-order", "jacobian-route"])
def test_slicing_guards_name_their_fault(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert type(raised.value) is ValueError and str(raised.value) == message



def test_delta_x_flat_is_identity():
    geom = catalog.make("flat-cartesian")
    dq = np.array([0.3, -0.2])
    for order in (1, 2, 3):
        assert np.allclose(delta_x_expansion(geom, [0.1, 0.4], dq, order), dq, atol=1e-15)


def test_delta_x_order_one_is_linear_map():
    geom = catalog.make("polar")
    q, dq = np.array([1.3, 0.6]), np.array([0.05, -0.04])
    assert np.allclose(delta_x_expansion(geom, q, dq, 1), geom.at(q).triad @ dq, atol=1e-15)


def _delta_x_oracle(geom, q, dq, duration=1.0):
    # Exact flat image of the chart difference: the image velocity of the
    # connecting autoparallel is constant, so dx = duration * e(q) v_end.
    _, v_end = shoot_autoparallel(geom, q - dq, q, duration, steps=64)
    return duration * (geom.at(q).triad @ v_end)


@pytest.mark.parametrize("name,q", [("sphere", [1.0, 0.5]), ("polar", [1.2, 0.3])])
def test_delta_x_matches_orbit_oracle_at_fourth_order(name, q):
    geom = sphere_dyad() if name == "sphere" else catalog.make(name)  # delta_x needs a triad
    q = np.array(q)
    base = np.array([1.0, 1.0])
    residuals = []
    for scale in (1e-2, 2e-2):
        dq = scale * base
        res = np.linalg.norm(delta_x_expansion(geom, q, dq, 3) - _delta_x_oracle(geom, q, dq))
        residuals.append(res)
    assert residuals[0] < 5e-8
    ratio = residuals[1] / residuals[0]
    assert 10.0 < ratio < 24.0  # fourth-order truncation


# -- short-time actions --------------------------------------------------------


def test_flat_action_exact_all_schemes():
    geom = catalog.make("flat-cartesian")
    dq = np.array([0.1, 0.07])
    expected = (dq @ dq) / (2 * EPS)
    for scheme in ("postpoint", "prepoint", "midpoint"):
        terms = short_time_action(geom, [0.2, 0.2], dq, config(scheme))
        assert terms.total == pytest.approx(expected, rel=1e-14)
        assert terms.cubic == 0.0 and terms.quartic == 0.0


def test_order_two_truncation_is_metric_term():
    geom = catalog.make("sphere")
    q, dq = np.array([1.1, 0.2]), np.array([0.03, 0.05])
    terms = short_time_action(geom, q, dq, config(order=2))
    g = geom.at(q).metric
    assert terms.total == pytest.approx((dq @ g @ dq) / (2 * EPS), rel=1e-14)
    assert terms.cubic == 0.0 and terms.quartic == 0.0


def test_postpoint_action_converges_to_orbit_action():
    geom = catalog.make("sphere")
    q_to = np.array([1.0, 0.5])
    base = np.array([1.0, -0.75])
    errs = {2: [], 4: []}
    for scale in (0.02, 0.04):
        dq = scale * base
        oracle = classical_orbit_action(geom, q_to - dq, q_to, EPS, 1.0)
        for order in (2, 4):
            val = short_time_action(geom, q_to, dq, config(order=order)).total
            errs[order].append(abs(val - oracle))
    # Quartic truncation: error scales ~ dq^6 relative to dq^2, i.e. 16x
    # smaller at half the step; quadratic truncation only ~ 2 powers.
    assert errs[4][0] < 1e-6
    assert errs[4][0] < 1e-3 * errs[2][0] / 16
    assert 8.0 < errs[4][1] / errs[4][0] < 100.0


def test_three_schemes_agree_on_the_physical_action():
    geom = catalog.make("sphere")
    q_to = np.array([1.2, 0.4])
    dq = np.array([0.02, -0.016])
    q_from = q_to - dq
    oracle = classical_orbit_action(geom, q_from, q_to, EPS, 1.0)
    post = short_time_action(geom, q_to, dq, config("postpoint")).total
    pre = short_time_action(geom, q_from, dq, config("prepoint")).total
    mid = short_time_action(geom, 0.5 * (q_from + q_to), dq, config("midpoint")).total
    for val in (post, pre, mid):
        assert val == pytest.approx(oracle, abs=2e-7)


def test_orbit_action_flat_closed_form():
    geom = catalog.make("flat-cartesian")
    q_from, q_to = np.array([0.1, 0.2]), np.array([0.22, 0.14])
    d2 = float((q_to - q_from) @ (q_to - q_from))
    assert classical_orbit_action(geom, q_from, q_to, EPS, 1.3) == pytest.approx(1.3 * d2 / (2 * EPS), rel=1e-10)


def test_orbit_action_chart_invariant():
    # Same physical endpoints in Cartesian and polar charts of flat space.
    flat, pol = catalog.make("flat-cartesian"), catalog.make("polar")
    x_from, x_to = np.array([1.0, 0.2]), np.array([1.09, 0.13])

    def to_polar(x):
        return np.array([np.hypot(*x), np.arctan2(x[1], x[0])])

    a_cart = classical_orbit_action(flat, x_from, x_to, EPS, 1.0)
    a_pol = classical_orbit_action(pol, to_polar(x_from), to_polar(x_to), EPS, 1.0)
    assert a_pol == pytest.approx(a_cart, rel=1e-9)


def test_action_terms_sum():
    geom = catalog.make("torsion-toy")
    terms = short_time_action(geom, [0.1, 0.0], [0.04, 0.03], config())
    assert isinstance(terms, ActionTerms)
    assert terms.total == terms.quadratic + terms.cubic + terms.quartic


# -- Jacobian actions -----------------------------------------------------------


def test_jacobian_actions_vanish_flat():
    geom = catalog.make("flat-cartesian")
    for route in ("naive-affine", "naive-metric", "qep"):
        series = jacobian_action(geom, [0.3, -0.5], route=route)
        assert np.allclose(series.linear, 0.0, atol=1e-14)
        assert np.allclose(series.quadratic, 0.0, atol=1e-14)


def test_naive_routes_agree_with_torsion():
    # Affine-trace and Christoffel-trace forms of the position-measure
    # Jacobian coincide even on a torsionful geometry.
    geom = catalog.make("torsion-toy")
    rng = np.random.default_rng(11)
    for q in geom.random_points(8, rng):
        a = jacobian_action(geom, q, route="naive-affine")
        m = jacobian_action(geom, q, route="naive-metric")
        assert np.max(np.abs(a.linear - m.linear)) < 1e-10
        assert np.max(np.abs(a.quadratic - m.quadratic)) < 1e-10


def test_contortion_trace_in_contracted_pair_vanishes():
    geom = catalog.make("torsion-toy")
    pt = geom.at(np.array([0.2, -0.3]))
    assert np.max(np.abs(np.einsum("abb->a", pt.contortion))) < 1e-14


def test_qep_equals_naive_on_integrable_chart():
    geom = catalog.make("polar")
    rng = np.random.default_rng(12)
    for q in geom.random_points(8, rng):
        qep = jacobian_action(geom, q, route="qep")
        naive = jacobian_action(geom, q, route="naive-affine")
        assert np.max(np.abs(qep.linear - naive.linear)) < 1e-10
        assert np.max(np.abs(qep.quadratic - naive.quadratic)) < 1e-10


def test_unsymmetrized_qep_reduces_to_naive_on_integrable_chart():
    geom = catalog.make("polar")
    q = np.array([1.7, 0.9])
    loose = jacobian_action(geom, q, route="qep", symmetrized=False)
    naive = jacobian_action(geom, q, route="naive-affine")
    assert np.max(np.abs(loose.linear - naive.linear)) < 1e-12
    assert np.max(np.abs(loose.quadratic - naive.quadratic)) < 1e-12


def test_naive_jacobian_expands_root_metric_ratio():
    # exp(j(dq)) approximates sqrt(g(q - dq)) / sqrt(g(q)) with cubic error.
    geom = catalog.make("sphere")
    q = np.array([0.9, 0.3])
    series = jacobian_action(geom, q, route="naive-metric")
    errs = []
    for scale in (0.02, 0.01):
        dq = scale * np.array([1.0, 0.6])
        ratio = geom.at(q - dq).sqrt_metric / geom.at(q).sqrt_metric
        errs.append(abs(np.exp(series.value(dq)) - ratio))
    assert errs[0] / errs[1] > 6.0  # cubic scaling ~ 8x


def test_delta_jacobian_flat_zero():
    geom = catalog.make("polar")  # flat space, curvilinear chart
    delta = delta_jacobian_action(geom, [1.5, 0.7])
    assert np.allclose(delta.linear, 0.0, atol=1e-12)
    assert np.allclose(delta.quadratic, 0.0, atol=1e-12)


def test_delta_jacobian_is_sixth_of_ricci_on_sphere():
    geom = catalog.make("sphere")
    rng = np.random.default_rng(13)
    for q in geom.random_points(6, rng):
        delta = delta_jacobian_action(geom, q)
        ricci = geom.at(q).ricci_riemann
        assert np.max(np.abs(delta.linear)) < 1e-10
        assert np.max(np.abs(delta.quadratic - ricci / 6.0)) < 1e-8


def test_delta_jacobian_with_torsion_recorded():
    # With torsion the closed form does not apply; record the difference.
    geom = catalog.make("torsion-toy")
    q = np.array([0.15, -0.2])
    delta = delta_jacobian_action(geom, q)
    ricci = geom.at(q).ricci_riemann
    assert delta.quadratic.shape == (2, 2)
    assert not np.allclose(delta.quadratic, ricci / 6.0, atol=1e-12)


# -- effective potential --------------------------------------------------------


def test_effective_potential_values():
    flat = catalog.make("flat-cartesian")
    assert effective_potential(flat, [0.1, 0.1], 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    sphere = catalog.make("sphere")
    assert effective_potential(sphere, [1.0, 0.3], 1.0, 1.0) == pytest.approx(-1.0 / 3.0, abs=1e-9)
    sphere2 = catalog.make("sphere", a=2.0)
    assert effective_potential(sphere2, [1.0, 0.3], 1.0, 1.0) == pytest.approx(-1.0 / 12.0, abs=1e-9)


def test_effective_potential_warns_with_torsion():
    geom = catalog.make("torsion-toy")
    with pytest.warns(TorsionPresentWarning):
        effective_potential(geom, [0.1, 0.1], 1.0, 1.0)


def test_expectation_contraction_consistency():
    # Contracting the measure-difference quadratic with <dq dq> reproduces
    # -eps V_eff / hbar on the sphere.
    geom = catalog.make("sphere")
    q = [1.1, 0.8]
    eps, mass, hbar = 0.03, 1.4, 0.9
    lhs = delta_action_expectation(geom, q, eps, mass, hbar)
    veff = effective_potential(geom, q, mass, hbar)
    assert lhs == pytest.approx(-eps * veff / hbar, rel=1e-9)


# -- phase-space identity ---------------------------------------------------------


def test_phase_space_check_flat():
    geom = catalog.make("flat-cartesian")
    res = phase_space_kernel_check(geom, [0.0, 0.0], [0.1, -0.05], 0.05, 1.0, 1.0)
    assert res < 1e-13


def test_phase_space_check_sphere():
    geom = catalog.make("sphere")
    res = phase_space_kernel_check(geom, [1.0, 0.4], [0.06, 0.02], 0.04, 1.3, 0.8)
    assert res < 1e-10


def test_slice_expectation_monte_carlo():
    # Draw flat Gaussian slice differences and map them to the chart: the
    # sample covariance reproduces eps hbar g^inv / M.
    geom = catalog.make("polar")
    q = np.array([1.4, 0.9])
    eps, mass, hbar = 0.05, 1.0, 1.0
    rng = np.random.default_rng(20260808)
    n = 200_000
    dx = rng.normal(scale=np.sqrt(eps * hbar / mass), size=(n, 2))
    dq = dx @ geom.at(q).triad_inverse  # dq^mu = e_i^mu dx^i
    cov = dq.T @ dq / n
    expected = eps * hbar * geom.at(q).metric_inverse / mass
    scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
    assert np.max(np.abs(cov - expected) / scale) < 4.0 / np.sqrt(n) * 3


def test_slice_config_validation():
    # each message starts with the field at fault; the CLI maps it to the config key
    bad = [{"n_slices": 0}, {"scheme": "weyl"}, {"order": 5}, {"measure": "lattice"}, {"n_slices": True},
           {"n_slices": 4.0}, {"eps": float("nan")}, {"eps": float("inf")}, {"eps": 1e308}, {"mass": True},
           {"hbar": -1.0}, {"order": 4.0}]
    for kw in bad:
        with pytest.raises(ValueError, match=f"^{next(iter(kw))}"):
            SliceConfig(**{"n_slices": 4, "eps": 0.1, **kw})
    cfg = SliceConfig(n_slices=np.int64(4), eps=np.float32(0.25), mass=1)
    assert (type(cfg.n_slices), type(cfg.eps), type(cfg.mass)) == (int, float, float)


def test_shooting_reports_no_convergence():
    geom = catalog.make("sphere")
    with pytest.raises(NoConvergence):
        shoot_autoparallel(geom, [0.5, 0.1], [2.4, 2.9], 1.0, max_iter=1, tol=1e-14)
