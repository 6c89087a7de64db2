"""
Imaginary-time sliced propagators as transfer matrices.

The finite-time kernel is composed from short-time kernels

    K_eps(q, q - dq) = (2 pi hbar eps / M)^(-D/2) exp(-A_eps / hbar + dj),

with the slice action A_eps truncated at the configured order (the 1-d
builder tabulates the coefficients :mod:`torsiongeo.slicing` states for every
dimension) and, for the difference-measure ("qep") variant, the
measure-difference exponent dj added (for the position-measure
"naive-dewitt" variant dj is absent);
:func:`propagate_measures` says where dj is nonzero, and so which measures
share one kernel and one eigensolve.  Every 1-d scheme reads the half-step
lattice of nodes and cell edges, of which midpoints are exact points.  Composition
weights carry sqrt(g) at the integrated point; in the similarity frame

    B = W^(1/2) K W^(1/2),   W_j = sqrt(g_j) * (node weight),

traces and spectra are those of the asymmetric transfer matrix, while B is
symmetric up to the truncation order and is symmetrized numerically before
the eigendecomposition (the recorded asymmetry is a diagnostic, 0.0 by
construction on the sphere at order >= 3 and the chart asymmetry at order 2);
its levels are E = -hbar ln(lambda) / eps, from the eigenvalues kept unclipped.
A stored finite-time kernel W^(-1/2) V diag(lambda^k) V^T W^(-1/2), with the
negative eigenvalues clipped to 0, is composed as H H^T and is exactly symmetric.

Supported endpoint topologies:

* ``line``    open 1-d chart on a truncated grid with absorbing ends,
* ``circle``  compact 1-d chart; the kernel sums over winding images,
* ``sphere``  2-d chart (theta, phi) reduced to azimuthal sectors m: the
  phi difference is integrated against cos(m dphi) over one compact period
  of a resummed kernel (see :func:`_build_sphere`), and theta lives on
  Gauss-Legendre nodes in cos(theta), whose quadrature is exact for the
  Legendre eigenfunctions of the m = 0 sector.

Corrections beyond the quadratic term (cubic and quartic action terms and
the measure exponent) are relevant-order perturbations: they multiply the
Gaussian as the truncated exponential series 1 + c + c^2/2, which is positive
and polynomially bounded, so Gaussian tails are never amplified.  On the line
and the circle, where c is unbounded, the bare Gaussian is used outside a
trust region where the kernel is below exp(-30); the compact sphere bounds c
and keeps no trust region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridResolutionInsufficient, TorsionGeoError
from .geometry import Geometry
from .slicing import MEASURES, SliceConfig, _action_coefficients, whole_steps

EXPONENT_CUT = 30.0  # quadratic exponent beyond which corrections are dropped
TAIL_SIGMA = 7.5  # kernel support half-width in units of the slice width
MIN_POINTS_PER_SIGMA = 8.0
BLOCK_ENTRIES = 1 << 16  # (row, column, image or zeta) kernel entries assembled per block
DEFAULT_NODES = {"line": 1024, "circle": 256, "sphere": 192}  # grid nodes when no grid is given
LINE_RANGE = (-8.0, 8.0)  # chart interval of the default line grid
# Most winding images a periodic kernel sums (kernel width up to about 68 periods).  A wrapped
# kernel wider than about 1.4 periods is already uniform to rounding; the bound caps memory and time.
MAX_WINDING_IMAGES = 1025


@dataclass
class PropagatorResult:
    """Composed kernels, traces over requested times, and diagnostics."""

    trace: np.ndarray
    grid: np.ndarray
    weights: np.ndarray
    eigenvalues: np.ndarray  # of the symmetrized B, unclipped, descending
    floor: float  # rounding floor of the eigensolve: no eigenvalue is resolved at or below it
    amplitudes: dict  # tau -> exactly symmetric kernel matrix
    asymmetry: float


def flat_line_kernel(x, xp, tau: float, mass: float = 1.0, hbar: float = 1.0):
    """Closed-form Euclidean free-particle kernel on a line."""
    dx2 = (np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)) ** 2
    return (2 * np.pi * hbar * tau / mass) ** -0.5 * np.exp(-mass * dx2 / (2 * hbar * tau))


# ---------------------------------------------------------------------------
# Slice-action coefficient tables
# ---------------------------------------------------------------------------


class _CoefficientTable:
    """Slice-action coefficients of a 1-d chart at reference points: (n,) tables g, t3, t4 and sqrt_g.

    g, t3 and t4 are those of :func:`torsiongeo.slicing._action_coefficients`, with their relative signs:
    the slice action is pref * (g u^2 + t3 u^3 + t4 u^4).
    """

    def __init__(self, geom: Geometry, points: np.ndarray, config: SliceConfig):
        pt = geom.batch(points)
        coefficients = _action_coefficients(pt, config.scheme, config.order)
        self.g, self.t3, self.t4 = (t.reshape(len(points)) for t in coefficients)
        self.sqrt_g = pt.sqrt_metric


def _slice_kernel(g, t3, t4, u: np.ndarray, pref: float) -> np.ndarray:
    """Euclidean 1-d slice kernel (unnormalized) at differences ``u``; the coefficient tables
    broadcast against ``u``: one reference point per row, or one per entry.

    It is exp(-quad) (1 + c + c^2/2) on the trust region quad < EXPONENT_CUT, with c the
    cubic and quartic action terms, and the bare exp(-quad) elsewhere: exponentiating these
    relevant-order corrections raw would amplify Gaussian tails where the expansion is
    meaningless, whereas 1 + c + c^2/2 = ((c+1)^2 + 1)/2 is positive, polynomially bounded,
    and correct through the retained order.
    """
    quad = pref * (g * u * u)
    c = -pref * (t3 * u * u * u) - pref * (t4 * u * u * u * u)
    factor = 1.0 + c + 0.5 * c**2
    factor[quad >= EXPONENT_CUT] = 1.0
    return np.exp(-quad) * factor


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _blocks(n_items: int, entries_per_item: int):
    """Slices of kernel rows or node pairs holding about BLOCK_ENTRIES entries each."""
    step = max(1, BLOCK_ENTRIES // entries_per_item)
    return (slice(lo, lo + step) for lo in range(0, n_items, step))


def _check_resolution(width: float, spacing: float) -> None:
    """The grid must hold at least MIN_POINTS_PER_SIGMA points per kernel width."""
    if width / spacing < MIN_POINTS_PER_SIGMA:
        raise GridResolutionInsufficient(f"kernel width {width:.3g} needs at least {MIN_POINTS_PER_SIGMA} points "
                                         f"per width, got grid spacing {spacing:.3g}")


def _line_nodes(grid) -> tuple[np.ndarray, float]:
    lo, hi, n = grid
    n = int(n)
    du = (hi - lo) / n
    return lo + du * (np.arange(n) + 0.5), du


def _build_1d(geom: Geometry, config: SliceConfig, nodes: np.ndarray, du: float, period):
    """Transfer matrix of the line (``period`` None) or the circle: ``({False: (B, None)}, weights, nodes)``,
    the record of :func:`_build_sphere` with the one kernel, which carries no measure term and no scale.

    Every scheme's coefficients are evaluated once on the half-step lattice of cell edges and nodes (2n points),
    where node i is lattice point 2 i + 1; the midpoint of nodes i and j under winding w is lattice point
    (i + j + 1 - w n) mod 2n.  The line is the circle without winding images.
    """
    n = nodes.size
    pref = config.mass / (2.0 * config.eps * config.hbar)
    table = _CoefficientTable(geom, np.stack([nodes - 0.5 * du, nodes], axis=-1).reshape(-1, 1), config)
    sigma_u = math.sqrt(config.eps * config.hbar / config.mass) / np.sqrt(table.g[1::2])
    _check_resolution(float(np.min(sigma_u)), du)

    w_max = 0 if period is None else int(math.ceil((TAIL_SIGMA * float(np.max(sigma_u)) + period / 2) / period))
    if 2 * w_max + 1 > MAX_WINDING_IMAGES:
        raise TorsionGeoError(f"kernel width {np.max(sigma_u):.3g} needs {2 * w_max + 1} winding images of "
                              f"period {period:.3g}, more than {MAX_WINDING_IMAGES}; reduce eps")
    windings = np.arange(-w_max, w_max + 1)[:, None]
    shifts = windings * (period or 0.0)

    kernel = np.empty((n, n))
    index = np.arange(n)
    for rows in _blocks(n, n * windings.size):
        i = index[rows, None, None]
        ref = (i + index + 1 - n * windings) % (2 * n) if config.scheme == "midpoint" else 2 * i + 1
        at = [t[ref] for t in (table.g, table.t3, table.t4)]
        kernel[rows] = _slice_kernel(*at, nodes[rows, None, None] - nodes + shifts, pref).sum(axis=1)
    norm = (2 * np.pi * config.hbar * config.eps / config.mass) ** -0.5
    weights = table.sqrt_g[1::2] * du
    scale = norm * np.sqrt(np.outer(weights, weights))
    # prepoint rows hold the reference point and its outgoing difference;
    # indexing by (later, earlier) with the sign flip of the difference is the
    # transpose of that matrix
    return {False: (scale * (kernel.T if config.scheme == "prepoint" else kernel), None)}, weights, nodes


def _build_sphere(geom: Geometry, config: SliceConfig, n_theta: int, m: int, terms):
    """Azimuthal-sector transfer matrices on the sphere, one per measure term: ``({term: (B, scale)}, weights, nodes)``.

    At order >= 3 the quadratic-plus-cubic part of the chart expansion is
    resummed into the geometrically exact compact form

        P + Q = a^2 dtheta^2 + 2 a^2 sin(theta_b) sin(theta_a) (1 - cos zeta),

    which reproduces the flat-disk (Bessel) kernel near the chart poles, is
    symmetric by construction, and lets the zeta integral run over one
    compact period with the periodic trapezoid rule (winding images resummed
    exactly).  Its Taylor expansion reproduces the chart cubic term exactly;
    the remaining quartic residue of the chart expansion equals
    P Q / 6 a^2 + Q^2 / 12 a^2 through the retained order, and the
    torsion-free measure exponent equals R (P + Q) / 12; both forms vanish
    at the poles, so the corrections stay perturbative everywhere.  In this
    resummed representation the three expansion schemes coincide (their
    differences are beyond the retained order), so the scheme field only
    changes the 1-d builders.  Order semantics: 2 = bare chart quadratic,
    3 = resummed core, 4 = core plus quartic residue.  Every integrand is even
    in zeta, so the zeta > 0 half of the even midpoint grid is summed at
    weight 2 dzeta.  At order >= 3 the measure term takes the endpoint mean of
    the per-node R (2 / a^2 up to rounding), so the kernel is symmetric and
    only columns >= row are evaluated, then mirrored; order 2 keeps full rows,
    as its quadratic takes the row's g_phi.  ``terms`` lists the kernels to
    build: True adds the measure exponent R (P + Q) / 12 at order >= 3, False
    builds without it, and order 2 builds the bare chart quadratic for either.
    Each block evaluates the Gaussian core and the pair forms once, then the
    correction factor (exactly 1 at order 2) and the phase integral per term.

    The zeta grid: at order >= 3 the integrand, exp(-x (1 - cos zeta)) with
    x = 2 pref a^2 sin(theta_a) sin(theta_b) times a degree-4 polynomial in
    cos zeta, is smooth and periodic, so the periodic trapezoid rule against
    cos(m zeta) errs by about exp(-(n_phi - |m| - 4)^2 / 2x), and
    n_phi = 2 ceil((sqrt(74 x_max) + 2|m| + 8) / 2) puts that below e^-37.
    No trust-region cut applies: P <= pi^2 a^2 and Q <= 4 a^2 bound c, the
    factor ((c+1)^2 + 1)/2 is positive, and a cut would make the integrand
    jump in zeta and stall the rule at the jump.  Order 2, whose g_phi zeta^2
    is not periodic, keeps 12 points per kernel width around the circle and
    rejects |m| at or beyond their Nyquist limit.  For m != 0 the kernel
    cancels down from the unphased one, so ``scale`` is the largest row sum
    of the symmetrized unphased B, integrated beside it: a Gershgorin bound
    on its eigenvalues, as it is nonnegative.  At m = 0 ``scale`` is None.
    """
    a = float(geom.params.get("a", 1.0))
    x_nodes, x_weights = np.polynomial.legendre.leggauss(int(n_theta))
    theta = np.arccos(x_nodes)[::-1]
    gl_w = x_weights[::-1]
    sigma = math.sqrt(config.eps * config.hbar / config.mass)
    _check_resolution(sigma / a, math.pi / n_theta)
    pref = config.mass / (2.0 * config.eps * config.hbar)
    sin_t = np.sin(theta)
    g_phi = a * a * sin_t**2
    quartic = pref / a**2 if config.order >= 4 else 0.0
    terms = sorted(set(terms))
    ricci = np.stack([geom.batch(np.stack([theta, np.zeros_like(theta)], axis=-1)).scalar_riemann
                      if term and config.order >= 3 else np.zeros(n_theta) for term in terms])

    if config.order == 2:
        n_phi = max(64, int(2 * math.ceil(math.pi * a * MIN_POINTS_PER_SIGMA * 1.5 / sigma)))
        if 2 * abs(m) >= n_phi:
            raise TorsionGeoError(f"sector m={m} is at or beyond the Nyquist limit of the {n_phi}-point "
                                  f"order-2 azimuth grid")
    else:
        n_phi = 2 * math.ceil((math.sqrt(74.0 * 2.0 * pref * float(np.max(g_phi))) + 2 * abs(m) + 8) / 2)
    dzeta = 2 * math.pi / n_phi
    zeta = dzeta * (np.arange(n_phi // 2) + 0.5)
    one_minus_cos = 1.0 - np.cos(zeta)
    phase = np.cos(np.outer(zeta, (m, 0) if m else (0,)))  # [cos m zeta, 1], or [1] at m = 0
    rows, cols = np.divmod(np.arange(n_theta**2), n_theta) if config.order == 2 else np.triu_indices(n_theta)

    # blocks of (node pair, zeta) entries, integrated against the phase columns
    sums = np.empty((len(terms), phase.shape[1], n_theta, n_theta))
    for block in _blocks(rows.size, zeta.size):
        i, j = rows[block], cols[block]
        # the Gaussian core, shared by every term: the bare chart quadratic at order 2, else the resummed form
        p_form = a * a * (theta[i] - theta[j]) ** 2
        q_form = (g_phi[i, None] * zeta**2 if config.order == 2
                  else (2.0 * a * a * (sin_t[i] * sin_t[j]))[:, None] * one_minus_cos)
        gauss = np.exp(-pref * (p_form[:, None] + q_form))
        quartic_q = quartic / 12.0 * q_form
        # c = -quartic (P Q/6 + Q^2/12) + R (P+Q)/12 = q (lin - quartic q/12) + const per pair
        r_mean = (ricci[:, i] + ricci[:, j]) / 24.0
        lin, const = r_mean - quartic * p_form / 6.0, r_mean * p_form
        for kernel, lin_t, const_t in zip(sums, lin, const):
            c = q_form * (lin_t[:, None] - quartic_q) + const_t[:, None]
            kernel[:, i, j] = (gauss * (1.0 + c + 0.5 * (c * c)) @ phase).T * (2.0 * dzeta)
    norm = config.mass / (2 * np.pi * config.hbar * config.eps)
    weights = a * a * gl_w
    if config.order >= 3:
        sums[..., cols, rows] = sums[..., rows, cols]
    sums *= norm * np.sqrt(np.outer(weights, weights))
    return ({term: (s[0], float(np.max(s[1].sum(axis=0) + s[1].sum(axis=1))) / 2 if m else None)
             for term, s in zip(terms, sums)}, weights, theta)


# ---------------------------------------------------------------------------
# Propagation driver
# ---------------------------------------------------------------------------


def _tau_indices(taus, config: SliceConfig) -> list[int]:
    ks = [whole_steps(tau, config.eps) for tau in taus]
    if not all(ks):
        raise ValueError(f"tau={taus[ks.index(0)]} is not a positive multiple of eps={config.eps}")
    return ks


def rounding_floor(eigenvalues, scale=None) -> float:
    """n eps max|lambda|, the rounding floor of an n x n symmetric eigensolve: no eigenvalue is resolved below it.

    ``scale`` stands in for max|lambda| when the matrix cancels down from entries of that size.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    return ev.size * np.finfo(float).eps * (np.max(np.abs(ev), initial=0.0) if scale is None else scale)


def _compose(b_mat: np.ndarray, scale, weights: np.ndarray, nodes: np.ndarray, ks, store) -> PropagatorResult:
    """Diagonalize one kernel of a build record and compose it: traces at the steps ``ks``, amplitudes at ``store``."""
    asym = float(np.max(np.abs(b_mat - b_mat.T)) / max(np.max(np.abs(b_mat)), 1e-300))
    b_sym = 0.5 * (b_mat + b_mat.T)
    raw, evecs = np.linalg.eigh(b_sym)
    evals = np.clip(raw, 0.0, None)
    trace = np.array([float(np.sum(evals**k)) for k in ks])
    amplitudes = {}
    inv_root_w = 1.0 / np.sqrt(weights)
    for tau, k in store.items():
        # W^(-1/2) V diag(lambda^k) V^T W^(-1/2) as H H^T: numpy runs a product
        # with its own transpose as one syrk plus a mirror, so it is exactly symmetric
        half = inv_root_w[:, None] * evecs * evals ** (0.5 * k)
        amplitudes[tau] = half @ half.T
    eigenvalues = raw[::-1]
    return PropagatorResult(trace=trace, grid=nodes, weights=weights, eigenvalues=eigenvalues,
                            floor=rounding_floor(eigenvalues, scale), amplitudes=amplitudes, asymmetry=asym)


def propagate_measures(
    geom: Geometry,
    config: SliceConfig,
    measures,
    *,
    grid=None,
    taus=None,
    m_sector: int = 0,
    store_taus=(),
) -> dict:
    """
    :func:`propagate` under each of ``measures`` (``config.measure`` is not
    read), as ``{measure: PropagatorResult}``, each bit for bit what
    :func:`propagate` gives under that measure.

    The measures differ only in their measure exponent, and qep's is the
    curvature term R (P + Q) / 12 on the sphere at order >= 3 alone: it
    vanishes identically in one dimension, and the bare order-2 chart carries
    none.  Measures with the same term share one kernel build and one
    eigensolve.  Every tau is checked before anything is built.
    """
    if geom.topology not in ("line", "circle", "sphere"):
        raise ValueError(f"geometry '{geom.name}' has no propagation topology")
    if not set(measures) <= set(MEASURES):
        raise ValueError(f"measures must be among {MEASURES}")
    ks = _tau_indices(list(taus) if taus is not None else [config.total_time], config)
    store = dict(zip(map(float, store_taus), _tau_indices(store_taus, config)))
    terms = {measure: measure == "qep" and geom.topology == "sphere" and config.order >= 3 for measure in measures}

    if geom.topology == "sphere":
        n_theta = int(grid) if grid is not None else DEFAULT_NODES["sphere"]
        kernels, weights, nodes = _build_sphere(geom, config, n_theta, m_sector, set(terms.values()))
    else:
        period = 2 * np.pi if geom.topology == "circle" else None
        if grid is None:
            grid = DEFAULT_NODES["circle"] if period else (*LINE_RANGE, DEFAULT_NODES["line"])
        nodes, du = _line_nodes((0.0, period, grid) if period else grid)
        kernels, weights, nodes = _build_1d(geom, config, nodes, du, period)

    composed = {term: _compose(b_mat, scale, weights, nodes, ks, store) for term, (b_mat, scale) in kernels.items()}
    return {measure: replace(composed[term], amplitudes=dict(composed[term].amplitudes))
            for measure, term in terms.items()}


def propagate(
    geom: Geometry,
    config: SliceConfig,
    *,
    grid=None,
    taus=None,
    m_sector: int = 0,
    store_taus=(),
) -> PropagatorResult:
    """
    Compose the sliced Euclidean propagator on the geometry's topology.

    ``taus`` (default: the single total time N eps) must be positive
    multiples of eps; the trace over the endpoint grid is returned for each.
    ``store_taus`` selects times whose full kernel matrix is kept, keyed by
    the requested time.  For the sphere, ``m_sector`` picks the azimuthal
    sector; the m = 0 trace contains every angular-momentum level exactly once.

    ``grid`` is ``(lo, hi, n)`` for the line, a point count for the circle,
    and a node count for the sphere.
    """
    return propagate_measures(geom, config, (config.measure,), grid=grid, taus=taus, m_sector=m_sector,
                              store_taus=store_taus)[config.measure]
