# Transfer-matrix propagators: flat-line Gaussian reproduction, circle traces
# against the exact mode sum, sphere sector machinery, measure comparison,
# spectrum extraction, the one resolution rule at its bound on the line, the
# circle and the sphere, the assembled slice kernel against the per-point action
# and measure formulas (exact midpoints included, on the bumpy line and on a
# circle with a varying metric), the 1-d measure exponent that vanishes and
# the one 1-d kernel both measures get, the symmetry-reduced sphere kernel
# against its full-period reference and an uncut 4000-point build, the
# sphere's zeta grid growing with m, the stored amplitudes' exact symmetry,
# the rounding floor and the negative-eigenvalue count below it, the one build
# shared by both measures against one-measure builds, one eigensolve per
# distinct kernel (one for both measures on the order-2 sphere), and the taus
# checked before any kernel is built.
# tests/mutants.py checks that these oracles catch edits of the builders and
# the energy rule.

import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsiongeo import catalog, propagator
from torsiongeo.errors import GridResolutionInsufficient, IllConditionedFit, TorsionGeoError
from torsiongeo.geometry import Geometry
from torsiongeo.propagator import (
    EXPONENT_CUT,
    MIN_POINTS_PER_SIGMA,
    TAIL_SIGMA,
    _build_1d,
    _build_sphere,
    _line_nodes,
    _slice_kernel,
    flat_line_kernel,
    propagate,
    propagate_measures,
    rounding_floor,
)
from torsiongeo.slicing import MEASURES, SliceConfig, delta_jacobian_action, short_time_action
from torsiongeo.spectrum import extract_spectrum, richardson_pair
from torsiongeo.triads import TriadField


def flat_line():
    return catalog.make("flat-cartesian", d=1)


def sphere_term(cfg, measure):
    """The sphere's measure term: qep's curvature exponent, absent from the bare order-2 chart."""
    return measure == "qep" and cfg.order >= 3


def build_1d(geom, cfg, nodes, du, period):
    """The one kernel of _build_1d's record: (B, weights)."""
    kernels, weights, _ = _build_1d(geom, cfg, nodes, du, period)
    return kernels[False][0], weights


def build_sphere(geom, cfg, n_theta, m):
    """_build_sphere's record under the config's measure: (B, weights, theta)."""
    term = sphere_term(cfg, cfg.measure)
    kernels, weights, theta = _build_sphere(geom, cfg, n_theta, m, (term,))
    return kernels[term][0], weights, theta


def circle_trace_oracle(taus, a=1.0, hbar=1.0, mass=1.0):
    ls = np.arange(-80, 81)
    return np.array([np.exp(-t * hbar * ls**2 / (2 * mass * a * a)).sum() for t in taus])


def sphere_sector_oracle(taus, shift=0.0):
    Ls = np.arange(0, 80)
    return np.array([np.exp(-t * (Ls * (Ls + 1) / 2.0 + shift)).sum() for t in taus])


# -- flat line -----------------------------------------------------------------


def test_flat_line_matches_exact_gaussian():
    cfg = SliceConfig(n_slices=64, eps=1 / 64)
    res = propagate(flat_line(), cfg, taus=[1.0], store_taus=[1.0])
    x = res.grid
    sel = np.abs(x) <= 2.0
    exact = flat_line_kernel(x[sel][:, None], x[sel][None, :], 1.0)
    got = res.amplitudes[1.0][np.ix_(sel, sel)]
    assert np.max(np.abs(got - exact) / exact) < 1e-6


def test_flat_line_kernel_normalization():
    # One Euclidean slice integrates to unit probability.
    cfg = SliceConfig(n_slices=1, eps=0.02)
    res = propagate(flat_line(), cfg, taus=[0.02], store_taus=[0.02], grid=(-4, 4, 512))
    mass = res.amplitudes[0.02] @ res.weights
    inner = np.abs(res.grid) < 1.0
    assert np.max(np.abs(mass[inner] - 1.0)) < 1e-12


def test_grid_resolution_guard():
    cfg = SliceConfig(n_slices=4, eps=1e-4)
    with pytest.raises(GridResolutionInsufficient):
        propagate(flat_line(), cfg, grid=(-8, 8, 256))


def build_at_resolution(topology, n):
    """A kernel near the resolution bound on ``topology`` at ``n`` nodes.

    The line's kernel width 1/8 over the spacing 2/n is exactly 8 points per width at n = 128, in binary
    as on paper; the circle at eps 0.04 (width 0.2, spacing 2 pi / n) and the sphere at eps 0.01 (width
    0.1, spacing pi / n) reach 8 points per width at n = 80 pi = 251.3.
    """
    if topology == "sphere":
        return _build_sphere(catalog.make("sphere"), SliceConfig(eps=0.01), n, 0, (False,))
    if topology == "circle":
        return _build_1d(catalog.make("circle"), SliceConfig(eps=0.04), *_line_nodes((0.0, 2 * np.pi, n)), 2 * np.pi)
    return _build_1d(flat_line(), SliceConfig(eps=1 / 64), *_line_nodes((-1.0, 1.0, n)), None)


@pytest.mark.parametrize("topology, enough, too_few, width, spacing", [
    ("line", (128, 129), 127, "0.125", "0.0157"),
    ("circle", (252,), 251, "0.2", "0.025"),
    ("sphere", (252,), 251, "0.1", "0.0125"),
], ids=["line", "circle", "sphere"])
def test_one_resolution_rule_for_every_builder(topology, enough, too_few, width, spacing):
    # both builders refuse a grid below MIN_POINTS_PER_SIGMA points per kernel width with one message
    for n in enough:
        build_at_resolution(topology, n)
    message = f"kernel width {width} needs at least 8.0 points per width, got grid spacing {spacing}$"
    with pytest.raises(GridResolutionInsufficient, match=message.replace(".", r"\.")):
        build_at_resolution(topology, too_few)


def test_no_topology_rejected():
    cfg = SliceConfig(n_slices=4, eps=0.1)
    with pytest.raises(ValueError, match="topology"):
        propagate(catalog.make("polar"), cfg)


# -- circle --------------------------------------------------------------------


def test_circle_trace_matches_mode_sum():
    cfg = SliceConfig(n_slices=32, eps=1 / 16)
    taus = [k / 16 for k in range(4, 33, 4)]
    res = propagate(catalog.make("circle"), cfg, taus=taus, grid=256)
    oracle = circle_trace_oracle(taus)
    assert np.max(np.abs(res.trace - oracle) / oracle) < 1e-10


def test_circle_winding_matters_at_large_eps():
    # With a wide kernel the winding images carry visible weight: dropping
    # them (via a smaller period guard) would break the mode sum; the
    # implementation includes them, so the trace still matches.
    cfg = SliceConfig(n_slices=2, eps=2.0)
    res = propagate(catalog.make("circle"), cfg, taus=[4.0], grid=64)
    oracle = circle_trace_oracle([4.0])
    assert abs(res.trace[0] - oracle[0]) / oracle[0] < 1e-10


def test_circle_slice_composition_consistency():
    taus = [1.0, 2.0]
    z16 = propagate(catalog.make("circle"), SliceConfig(n_slices=16, eps=1 / 8), taus=taus, grid=256).trace
    z32 = propagate(catalog.make("circle"), SliceConfig(n_slices=32, eps=1 / 16), taus=taus, grid=256).trace
    assert np.max(np.abs(z16 - z32) / z32) < 1e-8  # slicing is exact here


def test_circle_spectrum_ratios():
    cfg = SliceConfig(n_slices=64, eps=1 / 16)
    taus = [k / 16 for k in range(1, 65)]
    res = propagate(catalog.make("circle"), cfg, taus=taus, grid=256)
    fit = extract_spectrum(taus, res.trace, n_levels=10, e_max=60.0, n_trial=4000)
    es = fit.energies
    assert abs(es[0]) < 5e-3
    assert es[1] == pytest.approx(0.5, rel=5e-3)
    assert es[2] / es[1] == pytest.approx(4.0, rel=0.01)
    assert es[3] / es[1] == pytest.approx(9.0, rel=0.01)


def test_circle_kernel_hermitian_and_positive():
    cfg = SliceConfig(n_slices=8, eps=1 / 16)
    res = propagate(catalog.make("circle"), cfg, taus=[0.5], store_taus=[0.5], grid=256)
    assert res.asymmetry < 1e-12  # constant metric: exactly symmetric
    k = res.amplitudes[0.5]
    assert np.allclose(k, k.T, atol=1e-12)
    assert res.eigenvalues[-1] > -1e-12
    assert res.trace[0] > 0


def test_schemes_coincide_on_circle():
    # Constant metric: all reference-point schemes give the same kernel.
    taus = [1.0]
    vals = []
    for scheme in ("postpoint", "prepoint", "midpoint"):
        cfg = SliceConfig(n_slices=16, eps=1 / 16, scheme=scheme)
        vals.append(propagate(catalog.make("circle"), cfg, taus=taus, grid=256).trace[0])
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[0] == pytest.approx(vals[2], rel=1e-12)


def bumpy_line_geometry():
    """1-d line with a gently varying metric, for scheme consistency checks."""

    def evaluate(q):
        return (1.0 + 0.25 * np.sin(q[..., 0]))[..., None, None]

    def d_evaluate(q):
        return (0.25 * np.cos(q[..., 0]))[..., None, None, None]

    def dd_evaluate(q):
        return (-0.25 * np.sin(q[..., 0]))[..., None, None, None, None]

    field = TriadField(1, evaluate, d_evaluate, dd_evaluate, name="bumpy-line")
    geom = Geometry(field)
    geom.name = "bumpy-line"
    geom.topology = "line"
    return geom


def test_schemes_agree_on_varying_1d_metric():
    # Postpoint, prepoint and midpoint slicings of the same geometry differ
    # only beyond the retained order; their traces must agree closely.
    geom = bumpy_line_geometry()
    taus = [0.5]
    traces = {}
    for scheme in ("postpoint", "prepoint", "midpoint"):
        cfg = SliceConfig(n_slices=10, eps=0.05, scheme=scheme)
        traces[scheme] = propagate(geom, cfg, taus=taus, grid=(-9, 9, 1024)).trace[0]
    base = traces["postpoint"]
    # the symmetrized transfer frame makes prepoint and postpoint identical
    assert traces["prepoint"] == pytest.approx(base, rel=1e-12)
    assert traces["midpoint"] == pytest.approx(base, rel=3e-3)


# -- assembled kernel against the per-entry formula -------------------------------


@functools.lru_cache(maxsize=None)
def _oracle_case(topology, scheme, order, measure):
    """Geometry, config, nodes, period, winding bound and the unnormalized kernel of _build_1d."""
    if topology == "circle":
        geom, grid, period = catalog.make("circle"), (0.0, 2 * np.pi, 256), 2 * np.pi
    elif topology == "varying-circle":  # eps keeps 10 nodes per width of the narrowest kernel
        geom, grid, period = _varying_circle(), (0.0, 2 * np.pi, 256), 2 * np.pi
    else:
        geom, grid, period = _bumpy_line(), (-5.0, 5.0, 512), None
    eps = 0.1 if topology == "varying-circle" else 0.05
    cfg = SliceConfig(n_slices=8, eps=eps, scheme=scheme, order=order, measure=measure)
    nodes, du = _line_nodes(grid)
    b_mat, weights = build_1d(geom, cfg, nodes, du, period)
    norm = (2 * np.pi * cfg.hbar * cfg.eps / cfg.mass) ** -0.5
    w_max = 0
    if period is not None:  # images out to TAIL_SIGMA widths of the widest kernel at a node
        g_min = min(geom.at([x]).metric[0, 0] for x in nodes)
        w_max = math.ceil((TAIL_SIGMA * math.sqrt(cfg.eps * cfg.hbar / cfg.mass / g_min) + period / 2) / period)
    return geom, cfg, nodes, period, w_max, b_mat / (norm * np.sqrt(np.outer(weights, weights)))


@functools.lru_cache(maxsize=None)
def _bumpy_line():
    return bumpy_line_geometry()


@functools.lru_cache(maxsize=None)
def _varying_circle():
    """The bumpy line's triad 1 + 0.25 sin(phi), which is 2 pi periodic, on the circle."""
    geom = bumpy_line_geometry()
    geom.name, geom.topology = "varying-circle", "circle"
    return geom


def _kernel_entry_oracle(geom, cfg, later, earlier, period, w_max):
    """exp(-A / hbar) (1 + c + c^2 / 2) from short_time_action and
    delta_jacobian_action, summed over the winding images |w| <= w_max."""
    total = 0.0
    for w in range(-w_max, w_max + 1):
        shift = w * period if period is not None else 0.0
        dq = later - earlier + shift
        if cfg.scheme == "postpoint":
            ref, u = later, dq
        elif cfg.scheme == "prepoint":
            ref, u = earlier, -dq
        else:
            ref, u = 0.5 * (later + earlier) - 0.5 * shift, dq
            ref = ref % period if period is not None else ref
        terms = short_time_action(geom, [ref], [dq], cfg)
        quad = terms.quadratic / cfg.hbar
        corr = -(terms.cubic + terms.quartic) / cfg.hbar
        if cfg.measure == "qep":
            corr += delta_jacobian_action(geom, [ref]).value([u])
        total += math.exp(-quad) * (1.0 + corr + 0.5 * corr**2 if quad < EXPONENT_CUT else 1.0)
    return total


@settings(max_examples=150, deadline=None)
@given(
    topology=st.sampled_from(["circle", "varying-circle", "bumpy-line"]),
    scheme=st.sampled_from(["postpoint", "prepoint", "midpoint"]),
    order=st.sampled_from([2, 3, 4]),
    measure=st.sampled_from(["qep", "naive-dewitt"]),
    data=st.data(),
)
def test_build_1d_entries_match_per_entry_formula(topology, scheme, order, measure, data):
    geom, cfg, nodes, period, w_max, kernel = _oracle_case(topology, scheme, order, measure)
    n = nodes.size
    row = data.draw(st.integers(0, n - 1), label="row")
    # on the line, columns within about 8 kernel widths, across the trust-region edge
    near = (0, n - 1) if period is not None else (max(0, row - 100), min(n - 1, row + 100))
    col = data.draw(st.integers(*near), label="column")
    want = _kernel_entry_oracle(geom, cfg, nodes[row], nodes[col], period, w_max)
    # the midpoint reference of every image pair is a point of the builder's
    # half-step lattice, so every scheme matches to rounding
    assert kernel[row, col] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_slice_kernel_terms_against_hand_sum():
    # Synthetic 1-d tables, one reference point per row, with every action
    # correction nonzero; the differences straddle the trust-region edge.  The
    # cubic and quartic terms enter the exponent with a minus sign.
    rng = np.random.default_rng(7)
    n_rows, n_cols, pref = 3, 40, 10.0
    g = 1.0 + 0.2 * rng.uniform(size=n_rows)
    t3 = 0.3 * rng.normal(size=n_rows)
    t4 = 0.1 * rng.normal(size=n_rows)
    u = rng.uniform(-2.5, 2.5, size=(n_rows, n_cols))
    got = _slice_kernel(g[:, None], t3[:, None], t4[:, None], u, pref)
    assert got.shape == (n_rows, n_cols)
    inside = 0
    for r, col in itertools.product(range(n_rows), range(n_cols)):
        x = u[r, col]
        quad = pref * g[r] * x**2
        c = -pref * (t3[r] * x**3 + t4[r] * x**4)
        inside += quad < EXPONENT_CUT
        want = math.exp(-quad) * (1.0 + c + 0.5 * c**2 if quad < EXPONENT_CUT else 1.0)
        assert got[r, col] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert 0 < inside < n_rows * n_cols


# -- one dimension: the measure exponent vanishes ---------------------------------


@pytest.mark.parametrize("geom, grid, bound", [
    (catalog.make("circle", a=1.0), (0.0, 2 * np.pi, 256), 0.0),
    (catalog.make("circle", a=2.0), (0.0, 2 * np.pi, 256), 0.0),
    (catalog.make("flat-cartesian", d=1), (-8.0, 8.0, 1024), 0.0),
    (bumpy_line_geometry(), (-5.0, 5.0, 512), 1e-15),
], ids=["circle-a1", "circle-a2", "flat-line", "bumpy-line"])
def test_measure_exponent_vanishes_at_1d_nodes(geom, grid, bound):
    # Ricci dq dq / 6 and the torsion terms are identically 0 on a line, which
    # is why _build_1d has no measure term; only rounding is left on a varying metric
    delta = delta_jacobian_action(geom, _line_nodes(grid)[0][:, None])
    for table in (delta.linear, delta.quadratic):
        assert np.max(np.abs(table)) <= bound


@settings(max_examples=12, deadline=None)
@given(
    radius=st.floats(0.5, 2.0),
    scheme=st.sampled_from(["postpoint", "prepoint", "midpoint"]),
    order=st.sampled_from([2, 3, 4]),
)
def test_1d_measures_give_bit_identical_spectra(radius, scheme, order):
    geom = catalog.make("circle", a=radius)
    # eps keeps about 10 nodes per kernel width on 128 nodes
    eps = (0.4 * radius) ** 2
    cfg = SliceConfig(n_slices=4, eps=eps, scheme=scheme, order=order)
    taus = [eps, 4 * eps]
    together = propagate_measures(geom, cfg, MEASURES, grid=128, taus=taus)
    for name in ("eigenvalues", "trace"):
        assert _bits(getattr(together["qep"], name)) == _bits(getattr(together["naive-dewitt"], name))
    for measure in MEASURES:
        alone = propagate(geom, replace(cfg, measure=measure), grid=128, taus=taus)
        for name in ("eigenvalues", "trace"):
            assert _bits(getattr(together[measure], name)) == _bits(getattr(alone, name)), name


# -- sphere --------------------------------------------------------------------


def test_sphere_sector_trace_against_mode_sum():
    cfg = SliceConfig(n_slices=40, eps=0.05, measure="qep")
    taus = [0.5, 1.0, 2.0]
    res = propagate(catalog.make("sphere"), cfg, taus=taus, grid=160)
    oracle = sphere_sector_oracle(taus)
    assert np.max(np.abs(res.trace - oracle) / oracle) < 0.02
    assert res.asymmetry < 0.2  # symmetric up to truncation-order terms


def test_sphere_naive_measure_shifts_every_level():
    # Position-measure slicing multiplies the trace by exp(-tau R / 6) up to
    # truncation error: all levels shift by hbar^2 R / 6 M = 1/3.
    taus = [0.8, 1.6, 2.4]
    qep = propagate(catalog.make("sphere"), SliceConfig(n_slices=48, eps=0.05, measure="qep"), taus=taus, grid=160)
    naive = propagate(
        catalog.make("sphere"), SliceConfig(n_slices=48, eps=0.05, measure="naive-dewitt"), taus=taus, grid=160
    )
    ratio = np.log(qep.trace / naive.trace) / np.array(taus)
    assert np.max(np.abs(ratio - 1.0 / 3.0)) < 0.02


def test_sphere_measure_equivalence_with_effective_potential():
    # Adding the effective potential to the naive form reproduces the
    # difference-measure trace within the quadratic-truncation error.
    from torsiongeo.slicing import effective_potential

    taus = [1.0, 2.0]
    veff = effective_potential(catalog.make("sphere"), [1.0, 0.0], 1.0, 1.0)
    qep = propagate(catalog.make("sphere"), SliceConfig(n_slices=64, eps=1 / 32, measure="qep"), taus=taus, grid=200)
    naive = propagate(
        catalog.make("sphere"), SliceConfig(n_slices=64, eps=1 / 32, measure="naive-dewitt"), taus=taus, grid=200
    )
    corrected = naive.trace * np.exp(-veff * np.array(taus))
    # agreement within the quadratic-truncation error, which scales with eps
    assert np.max(np.abs(corrected - qep.trace) / qep.trace) < 0.015


def test_sphere_m_sector_one_drops_l_zero():
    # The |m| = 1 sector starts at L = 1: its large-tau trace decays like
    # exp(-tau), without the constant L = 0 term.
    cfg = SliceConfig(n_slices=48, eps=0.05, measure="qep")
    taus = [1.6, 2.4]
    res = propagate(catalog.make("sphere"), cfg, taus=taus, m_sector=1, grid=160)
    rate = -np.log(res.trace[1] / res.trace[0]) / 0.8
    assert rate == pytest.approx(1.0, abs=0.05)


# -- spectrum extraction ---------------------------------------------------------


def test_extract_single_mode():
    taus = np.linspace(0.3, 3.0, 12)
    fit = extract_spectrum(taus, np.exp(-2.0 * taus), n_levels=2)
    assert fit.energies[0] == pytest.approx(2.0, abs=1e-6)


def test_extract_two_modes():
    taus = np.linspace(0.2, 4.0, 24)
    vals = np.exp(-taus) + 0.5 * np.exp(-3.0 * taus)
    fit = extract_spectrum(taus, vals, n_levels=3)
    assert fit.energies[0] == pytest.approx(1.0, abs=1e-3)
    assert fit.energies[1] == pytest.approx(3.0, abs=1e-3)
    amps = [lev.amplitude for lev in fit.levels[:2]]
    assert amps[0] == pytest.approx(1.0, abs=1e-3)
    assert amps[1] == pytest.approx(0.5, abs=1e-3)


def test_extract_rejects_bad_input():
    with pytest.raises(ValueError):
        extract_spectrum([0.5, 1.0, 2.0], [1.0, 0.5, 0.2])
    taus = np.linspace(0.2, 2.0, 8)
    with pytest.raises(IllConditionedFit):
        # data that is not a sum of decaying exponentials at all
        extract_spectrum(taus, 1.0 + np.sin(8 * taus) ** 2, residual_threshold=1e-6)


@pytest.mark.parametrize("values, message", [
    ([1.0, 0.5, 0.25, 0.125], "taus and values must have equal length"),
    ([1.0, 0.5, 0.0, 0.1, 0.05], "trace values must be positive on the Euclidean contour"),
], ids=["lengths", "non-positive-trace"])
def test_extract_spectrum_guards_name_their_fault(values, message):
    with pytest.raises(ValueError) as raised:
        extract_spectrum([0.2, 0.4, 0.6, 0.8, 1.0], values)
    assert type(raised.value) is ValueError and str(raised.value) == message


def test_richardson_pair():
    assert richardson_pair([1.1], [1.05]) == [pytest.approx(1.0)]


def test_circle_spectrum_from_decade_anchors():
    # Ladder spanning the decade [0.5, 4] that contains the anchor times
    # 0.5, 1, 2, 4; the first two excited levels come out within 1 percent.
    cfg = SliceConfig(n_slices=64, eps=1 / 16)
    taus = [k / 4 for k in range(2, 17)]
    res = propagate(catalog.make("circle"), cfg, taus=taus, grid=256)
    fit = extract_spectrum(taus, res.trace, n_levels=6, e_max=30.0, n_trial=3000)
    assert fit.energies[1] == pytest.approx(0.5, rel=0.01)
    assert fit.energies[2] == pytest.approx(2.0, rel=0.01)


def test_extract_caps_levels_at_identifiability():
    taus = np.linspace(0.3, 3.0, 6)
    fit = extract_spectrum(taus, np.exp(-2.0 * taus), n_levels=12)
    assert len(fit.levels) <= 3


def test_tau_must_be_multiple_of_eps():
    cfg = SliceConfig(n_slices=8, eps=1 / 16)
    with pytest.raises(ValueError, match="multiple"):
        propagate(catalog.make("circle"), cfg, taus=[0.1], grid=256)


def test_sphere_radius_scaling():
    # Levels scale as 1/a^2: the a=2 trace matches the rescaled mode sum.
    geom = catalog.make("sphere", a=2.0)
    taus = [2.0, 4.0]
    cfg = SliceConfig(n_slices=40, eps=0.1, measure="qep")
    res = propagate(geom, cfg, taus=taus, grid=160)
    Ls = np.arange(0, 60)
    oracle = np.array([np.exp(-t * Ls * (Ls + 1) / 8.0).sum() for t in taus])
    assert np.max(np.abs(np.log(res.trace / oracle))) < 5e-3


def test_sphere_expansion_order_ablation():
    # Each retained order tightens the trace against the exact tower; the
    # quartic corrections buy about two orders of magnitude.
    geom = catalog.make("sphere", a=1.0)
    taus = [1.0]
    Ls = np.arange(0, 60)
    oracle = float(np.exp(-1.0 * Ls * (Ls + 1) / 2.0).sum())
    errs = {}
    for order in (2, 3, 4):
        cfg = SliceConfig(n_slices=20, eps=0.05, measure="qep", order=order)
        trace = propagate(geom, cfg, taus=taus, grid=160).trace[0]
        errs[order] = abs(np.log(trace / oracle))
    assert errs[3] < errs[2]
    assert errs[4] < 0.01 * errs[2]


def test_sphere_eigen_ground_level_against_fit_oracle():
    # the golden compare-measures sphere under the position measure
    eps = 0.05
    taus = [k * eps for k in range(8, 81)]
    res = propagate(catalog.make("sphere", a=1.0), SliceConfig(n_slices=80, eps=eps, measure="naive-dewitt"),
                    taus=taus, grid=176)
    assert np.all(np.diff(res.eigenvalues) <= 0.0)
    fit = extract_spectrum(taus, res.trace, n_levels=8, e_max=40.0 / taus[0], n_trial=4000,
                           residual_threshold=5e-2)
    assert -np.log(res.eigenvalues[0]) / eps == pytest.approx(fit.energies[0], abs=1e-5)


def _sphere_reference(geom, cfg, n_theta, m):
    """The sphere sector kernel row by row: every (row, column) pair, the full
    zeta period, and the row's scalar curvature in the measure term."""
    a = float(geom.params.get("a", 1.0))
    x_nodes, x_weights = np.polynomial.legendre.leggauss(n_theta)
    theta, weights = np.arccos(x_nodes)[::-1], a * a * x_weights[::-1]
    sigma = math.sqrt(cfg.eps * cfg.hbar / cfg.mass)
    pref = cfg.mass / (2.0 * cfg.eps * cfg.hbar)
    sin_t = np.sin(theta)
    ricci = [geom.at(np.array([th, 0.0])).scalar_riemann for th in theta]
    n_phi = max(64, int(2 * math.ceil(math.pi * a * MIN_POINTS_PER_SIGMA * 1.5 / sigma)))
    zeta = -math.pi + (2 * math.pi / n_phi) * (np.arange(n_phi) + 0.5)
    kernel = np.empty((n_theta, n_theta))
    for row in range(n_theta):
        p_form = a * a * (theta[row] - theta)[:, None] ** 2
        if cfg.order == 2:
            vals = np.exp(-pref * (p_form + a * a * sin_t[row] ** 2 * zeta**2))
        else:
            q_form = 2.0 * a * a * (sin_t[row] * sin_t)[:, None] * (1.0 - np.cos(zeta))
            corr = np.zeros(q_form.shape)
            if cfg.order >= 4:
                corr -= pref * (p_form * q_form / 6.0 + q_form**2 / 12.0) / a**2
            if cfg.measure == "qep":
                corr += ricci[row] * (p_form + q_form) / 12.0
            vals = np.exp(-pref * (p_form + q_form)) * (1.0 + corr + 0.5 * corr**2)
        kernel[row] = vals @ np.cos(m * zeta) * (2 * math.pi / n_phi)
    norm = cfg.mass / (2 * np.pi * cfg.hbar * cfg.eps)
    return norm * np.sqrt(np.outer(weights, weights)) * kernel, weights, theta


SPHERE_REFERENCE_CASES = [
    *((1.0, 120, order, measure, m)
      for order in (2, 3, 4) for measure in ("qep", "naive-dewitt") for m in (0, 1, 2)),
    # the a = 2 resolution floor (160 nodes raise GridResolutionInsufficient)
    (2.0, 232, 2, "qep", 0),
    (2.0, 232, 3, "naive-dewitt", 1),
    (2.0, 232, 4, "qep", 2),
]


@pytest.mark.parametrize("a, n_theta, order, measure, m", SPHERE_REFERENCE_CASES)
def test_build_sphere_matches_full_period_reference(a, n_theta, order, measure, m):
    # the half zeta period, the mirrored node-pair triangle, the endpoint-mean
    # curvature and, at order >= 3, the builder's own shorter zeta grid change
    # the kernel only at rounding level
    geom = catalog.make("sphere", a=a)
    cfg = SliceConfig(n_slices=8, eps=0.05, order=order, measure=measure)
    got, weights, theta = build_sphere(geom, cfg, n_theta, m)
    want, ref_weights, ref_theta = _sphere_reference(geom, cfg, n_theta, m)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(weights, ref_weights)
    assert np.array_equal(theta, ref_theta)


SPHERE_SECTORS = (0, 2, 10, 24, 48)


@functools.cache
def _uncut_sphere_reference(n_theta, eps, n_phi=4000):
    """Unit-sphere sector kernels {(order, measure): {m: B}} for m in SPHERE_SECTORS on an n_phi-point
    zeta grid with no trust region: the analytic curvature 2 / a^2 in the measure term, node pairs
    i <= j mirrored, the zeta > 0 half period at weight 2 dzeta."""
    x_nodes, x_weights = np.polynomial.legendre.leggauss(n_theta)
    theta, weights = np.arccos(x_nodes)[::-1], x_weights[::-1]
    pref, sin_t = 1.0 / (2.0 * eps), np.sin(theta)
    zeta = (2 * math.pi / n_phi) * (np.arange(n_phi // 2) + 0.5)
    phase = np.cos(np.outer(zeta, SPHERE_SECTORS)) * (4 * math.pi / n_phi)
    cases = list(itertools.product((3, 4), MEASURES))
    out = {case: np.empty((len(SPHERE_SECTORS), n_theta, n_theta)) for case in cases}
    rows, cols = np.triu_indices(n_theta)
    for lo in range(0, rows.size, 256):
        i, j = rows[lo:lo + 256], cols[lo:lo + 256]
        p_form = ((theta[i] - theta[j]) ** 2)[:, None]
        q_form = 2.0 * (sin_t[i] * sin_t[j])[:, None] * (1.0 - np.cos(zeta))
        gauss = np.exp(-pref * (p_form + q_form))
        for order, measure in cases:
            corr = -pref * (p_form * q_form / 6.0 + q_form**2 / 12.0) if order == 4 else 0.0
            if measure == "qep":
                corr = corr + 2.0 * (p_form + q_form) / 12.0
            vals = gauss * (1.0 + corr + 0.5 * corr**2)
            # one product per sector: a blocked gemm adds a few ulps of K_0 to every
            # sector, which the cancellation at m = 10 magnifies about 15-fold
            out[order, measure][:, i, j] = [vals @ column for column in phase.T]
    scale = np.sqrt(np.outer(weights, weights)) / (2 * np.pi * eps)
    for kernels in out.values():
        kernels[:, cols, rows] = kernels[:, rows, cols]
        kernels *= scale
    return {case: dict(zip(SPHERE_SECTORS, kernels)) for case, kernels in out.items()}


@pytest.mark.parametrize("n_theta, eps", [(176, 0.05), (249, 0.025)])  # the golden grids
@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("measure", MEASURES)
def test_build_sphere_matches_uncut_4000_point_build(n_theta, eps, order, measure):
    # at order >= 3 the periodic zeta integrand converges spectrally on the
    # short grid: a 4000-point build without a trust region agrees to rounding
    cfg = SliceConfig(n_slices=8, eps=eps, order=order, measure=measure)
    reference = _uncut_sphere_reference(n_theta, eps)[order, measure]
    for m in (0, 2, 10):
        got, _, _ = build_sphere(catalog.make("sphere"), cfg, n_theta, m)
        want = reference[m]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), m


def test_sphere_zeta_grid_grows_with_m():
    # the golden grid integrates m = 0 on 48 zeta points.  A fixed 48-point grid
    # would integrate cos(24 zeta) to exactly 0, about 1e-6 of K_0 off, and
    # alias m = 48 onto -K_0; the grid grows with m, so both sectors keep the
    # reference's accuracy on the scale of K_0
    cfg = SliceConfig(n_slices=8, eps=0.05, order=4)
    reference = _uncut_sphere_reference(176, 0.05)[4, "qep"]
    assert np.max(np.abs(reference[24])) > 1e-8 * np.max(np.abs(reference[0]))
    for m in (24, 48):
        got, _, _ = build_sphere(catalog.make("sphere"), cfg, 176, m)
        assert np.max(np.abs(got - reference[m])) <= 1e-14 * np.max(np.abs(reference[0])), m


def test_sphere_order_2_rejects_m_beyond_its_nyquist_limit():
    # the non-periodic order-2 integrand keeps a fixed grid of 12 points per
    # kernel width: 338 zeta points at eps 0.05, so m = 169 would alias
    cfg = SliceConfig(n_slices=8, eps=0.05, order=2)
    build_sphere(catalog.make("sphere"), cfg, 120, 168)
    with pytest.raises(TorsionGeoError, match="Nyquist"):
        build_sphere(catalog.make("sphere"), cfg, 120, 169)


def test_sphere_radius_two_at_160_nodes_is_under_resolved():
    cfg = SliceConfig(n_slices=8, eps=0.05)
    with pytest.raises(GridResolutionInsufficient):
        build_sphere(catalog.make("sphere", a=2.0), cfg, 160, 0)


@pytest.mark.parametrize("measure", ["qep", "naive-dewitt"])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_sphere_asymmetry_vanishes_beyond_the_bare_chart(order, measure):
    # order >= 3 kernels are built symmetric; the order-2 chart quadratic takes
    # the row's g_phi, so its recorded asymmetry stays a real diagnostic
    cfg = SliceConfig(n_slices=8, eps=0.05, order=order, measure=measure)
    res = propagate(catalog.make("sphere"), cfg, grid=120)
    if order == 2:
        assert res.asymmetry > 0.1
    else:
        assert res.asymmetry == 0.0


# -- stored amplitudes and the eigenvalue diagnostics ---------------------------


def _parent_amplitude(b_mat, weights, k):
    """The kernel as composed before it was stored as H H^T: V diag(lambda^k) V^T, then weighted on both sides."""
    evals, evecs = np.linalg.eigh(0.5 * (b_mat + b_mat.T))
    evals = np.clip(evals, 0.0, None)
    inv_root_w = 1.0 / np.sqrt(weights)
    return inv_root_w[:, None] * ((evecs * evals**k) @ evecs.T) * inv_root_w[None, :]


def _amplitude_case(topology, m):
    if topology == "line":
        geom, cfg, grid = flat_line(), SliceConfig(n_slices=16, eps=1 / 64), (-4.0, 4.0, 512)
        nodes, du = _line_nodes(grid)
        b_mat, weights = build_1d(geom, cfg, nodes, du, period=None)
    elif topology == "circle":
        geom, cfg, grid = catalog.make("circle", a=1.0), SliceConfig(n_slices=16, eps=0.0625), 256
        nodes, du = _line_nodes((0.0, 2 * np.pi, grid))
        b_mat, weights = build_1d(geom, cfg, nodes, du, period=2 * np.pi)
    else:
        geom, cfg, grid = catalog.make("sphere", a=1.0), SliceConfig(n_slices=8, eps=0.05), 120
        b_mat, weights, _ = build_sphere(geom, cfg, grid, m)
    return geom, cfg, grid, b_mat, weights


@pytest.mark.parametrize("topology, m", [("line", 0), ("circle", 0), ("sphere", 0), ("sphere", 1)])
def test_stored_amplitudes_are_exactly_symmetric(topology, m):
    geom, cfg, grid, b_mat, weights = _amplitude_case(topology, m)
    store = [cfg.eps, 4 * cfg.eps, cfg.total_time]
    res = propagate(geom, cfg, grid=grid, m_sector=m, store_taus=store)
    assert sorted(res.amplitudes) == sorted(store)
    for tau, amp in res.amplitudes.items():
        assert np.array_equal(amp, amp.T)
        want = _parent_amplitude(b_mat, weights, int(round(tau / cfg.eps)))
        assert np.max(np.abs(amp - want)) <= 1e-13 * np.max(np.abs(want))


def _negative_beyond_floor(b_mat):
    """Eigenvalues of the symmetrized B below -rounding_floor, the CLI's m = 0 count."""
    ev = np.linalg.eigvalsh(0.5 * (b_mat + b_mat.T))
    return int(np.count_nonzero(ev < -rounding_floor(ev)))


@pytest.mark.parametrize("measure, count", [("qep", 4), ("naive-dewitt", 2)])
def test_negative_eigenvalue_count_ignores_last_bit_noise(measure, count):
    # the golden compare-measures sphere: about 70 eigenvalues are negative by
    # rounding alone, and their number moves with the kernel's last bits
    b_mat, _, _ = build_sphere(catalog.make("sphere", a=1.0), SliceConfig(n_slices=80, eps=0.05, measure=measure),
                                176, 0)
    assert _negative_beyond_floor(b_mat) == count
    rng = np.random.default_rng(20261018)
    for _ in range(5):
        bumped = b_mat * (1.0 + np.finfo(float).eps * rng.uniform(-1.0, 1.0, b_mat.shape))
        assert _negative_beyond_floor(bumped) == count


def test_rounding_floor():
    eps = np.finfo(float).eps
    assert rounding_floor([2.0, 1.0, -0.5, 0.0]) == 4 * eps * 2.0
    assert rounding_floor([-3.0, 1.0]) == 2 * eps * 3.0  # the largest magnitude, of either sign
    assert rounding_floor(np.array([2.0, 1.0, -0.5, 0.0]), scale=10.0) == 4 * eps * 10.0  # scale replaces max|ev|
    assert rounding_floor([], scale=5.0) == 0.0
    assert rounding_floor([]) == 0.0


# -- one build for both measures ------------------------------------------------

SHARED_BUILD_CASES = [
    *(("sphere", "postpoint", order, m) for order in (2, 3, 4) for m in (0, 2)),
    *((topology, scheme, order, 0)
      for topology in ("circle", "line") for scheme in ("postpoint", "prepoint", "midpoint") for order in (2, 3, 4)),
]


def _kernels(topology, geom, cfg, grid, m, measures):
    """Each measure's kernel, read from one build record by the measure's term."""
    if topology == "sphere":
        terms = {measure: sphere_term(cfg, measure) for measure in measures}
        kernels = _build_sphere(geom, cfg, grid, m, set(terms.values()))[0]
    else:
        terms = dict.fromkeys(measures, False)
        nodes, du = _line_nodes((0.0, 2 * np.pi, grid) if topology == "circle" else grid)
        kernels = _build_1d(geom, cfg, nodes, du, 2 * np.pi if topology == "circle" else None)[0]
    return {measure: kernels[term][0] for measure, term in terms.items()}


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("topology, scheme, order, m", SHARED_BUILD_CASES)
def test_shared_build_is_bit_identical_to_one_measure_builds(topology, scheme, order, m):
    # propagate_measures evaluates the measure-independent part of each kernel
    # block once; each kernel, eigenvalue, trace and stored amplitude is still
    # bit for bit what a build under that measure alone gives
    if topology == "sphere":
        geom, grid, eps = catalog.make("sphere"), 120, 0.05
    elif topology == "circle":
        geom, grid, eps = catalog.make("circle"), 128, 0.25
    else:
        geom, grid, eps = _bumpy_line(), (-4.0, 4.0, 256), 0.1
    cfg = SliceConfig(n_slices=4, eps=eps, scheme=scheme, order=order)
    taus, store = [eps, 4 * eps], [2 * eps]
    shared = _kernels(topology, geom, cfg, grid, m, MEASURES)
    together = propagate_measures(geom, cfg, MEASURES, grid=grid, taus=taus, m_sector=m, store_taus=store)
    for measure in MEASURES:
        one = replace(cfg, measure=measure)
        assert _bits(shared[measure]) == _bits(_kernels(topology, geom, one, grid, m, (measure,))[measure])
        alone = propagate(geom, one, grid=grid, taus=taus, m_sector=m, store_taus=store)
        got = together[measure]
        for name in ("eigenvalues", "trace", "grid", "weights"):
            assert _bits(getattr(got, name)) == _bits(getattr(alone, name)), name
        assert _bits(got.amplitudes[store[0]]) == _bits(alone.amplitudes[store[0]])
        assert got.asymmetry == alone.asymmetry
    if topology == "sphere" and order >= 3:  # the measures differ, so the check is not vacuous
        assert _bits(together["qep"].eigenvalues) != _bits(together["naive-dewitt"].eigenvalues)


def test_one_eigensolve_per_distinct_kernel(monkeypatch):
    # both measures share the 1-d kernel, so it is diagonalized once; the
    # sphere's two kernels differ at order >= 3, so each is
    calls = []
    original = propagator._compose
    monkeypatch.setattr(propagator, "_compose", lambda b_mat, *args: calls.append(b_mat) or original(b_mat, *args))
    cfg = SliceConfig(n_slices=4, eps=0.25)
    circle = propagate_measures(catalog.make("circle"), cfg, MEASURES, grid=128, store_taus=[0.5])
    assert len(calls) == 1
    assert circle["qep"] is not circle["naive-dewitt"]
    assert circle["qep"].amplitudes is not circle["naive-dewitt"].amplitudes
    propagate_measures(catalog.make("sphere"), replace(cfg, eps=0.05), MEASURES, grid=120)
    assert len(calls) == 3
    # at order 2 the curvature term is absent, so both measures share one sphere kernel
    bare = propagate_measures(catalog.make("sphere"), replace(cfg, eps=0.05, order=2), MEASURES, grid=120)
    assert len(calls) == 4
    assert _bits(bare["qep"].eigenvalues) == _bits(bare["naive-dewitt"].eigenvalues)


def test_taus_are_checked_before_any_build(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("a kernel was built before the taus were checked")

    monkeypatch.setattr(propagator, "_build_1d", build)
    monkeypatch.setattr(propagator, "_build_sphere", build)
    cfg = SliceConfig(n_slices=4, eps=0.25)
    for geom, grid in ((flat_line(), (-4.0, 4.0, 64)), (catalog.make("circle"), 128), (catalog.make("sphere"), 120)):
        with pytest.raises(ValueError, match="tau=0.3 is not a positive multiple of eps=0.25"):
            propagate_measures(geom, cfg, MEASURES, grid=grid, taus=[0.5, 0.3])


def test_propagate_measures_rejects_an_unknown_measure():
    with pytest.raises(ValueError, match="measures"):
        propagate_measures(catalog.make("circle"), SliceConfig(n_slices=4, eps=0.25), ("qep", "dewitt"), grid=128)
