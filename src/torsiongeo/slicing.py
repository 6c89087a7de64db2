"""
Short-time slice machinery: coordinate-difference expansion, slice actions in
the three reference-point schemes, Jacobian actions of the slice measure, the
curvature effective potential, and the phase-space cross-check.

Everything here is a small polynomial in the slice difference Delta q whose
coefficients are built from the geometry bundle at a reference point:

* postpoint scheme: coefficients at the later point q, difference
  dq = q - q';  the flat image difference is
  dx = e [dq - Gamma dq dq / 2 + (dGamma + Gamma Gamma_sym) dq dq dq / 6]
  and the slice action is (M / 2 eps) (dx)^2 truncated at the configured
  order in dq (2, 3 or 4).
* prepoint scheme: the same polynomial with dq -> -dq and coefficients at the
  earlier point.
* midpoint scheme: coefficients at the coordinate midpoint; the cubic term
  cancels identically and a single quartic structure remains.

The slice-measure Jacobian enters as a real exponent j(dq) (an inverse-length
free series: linear plus quadratic in dq).  Two inequivalent prescriptions are
implemented: the position-measure ("naive") Jacobian, which is the expansion
of sqrt(g(q - dq)) / sqrt(g(q)) and can be computed from either connection
(their relevant traces coincide), and the difference-measure Jacobian, the
honest log-determinant of the dq -> dx map above with its coefficients
symmetrized before taking traces.  Their difference is quadratic in dq and,
for torsion-free geometries, equals Ricci_munu dq^mu dq^nu / 6 -- the origin
of the curvature effective potential -hbar^2 R / 6M that distinguishes the
two slicing measures of the propagator module.

All Euclidean conventions: exponents are real, <dq dq> = eps hbar g^inv / M.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, TorsionPresentWarning
from .geometry import Geometry, PointGeometry, lower_last

SCHEMES = ("postpoint", "prepoint", "midpoint")
MEASURES = ("qep", "naive-dewitt")
_NUMBER = {int: numbers.Integral, float: numbers.Real}


@dataclass
class SliceConfig:
    """Time-slicing parameters shared by the propagator stack, and the CLI's one statement of the slice keys'
    rules and defaults; construction checks every field, each ``ValueError`` naming the field at fault first."""

    n_slices: int = 32
    eps: float = 0.05
    mass: float = 1.0
    hbar: float = 1.0
    scheme: str = "postpoint"
    order: int = 4
    measure: str = "qep"

    def __post_init__(self):
        for name, kind in (("n_slices", int), ("eps", float), ("mass", float), ("hbar", float)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, _NUMBER[kind]) or not 0 < value <= np.finfo(float).max:
                raise ValueError(f"{name} must be a positive finite {'integer' if kind is int else 'number'}")
            setattr(self, name, kind(value))
        if not np.isfinite(self.n_slices * self.eps):
            raise ValueError("eps * n_slices overflows")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if not isinstance(self.order, numbers.Integral) or self.order not in (2, 3, 4):
            raise ValueError("order must be 2, 3 or 4")
        if self.measure not in MEASURES:
            raise ValueError(f"measure must be one of {MEASURES}")

    @property
    def total_time(self) -> float:
        return self.n_slices * self.eps


def whole_steps(total: float, step: float) -> int:
    """The k >= 1 with k * step == total to within 1e-9 step, or 0 when there is none."""
    k = round(min(total / step, 2.0**63))  # a ratio beyond 2**63 is no whole number of steps
    return k if k >= 1 and abs(k * step - total) <= 1e-9 * step else 0


@dataclass
class ActionTerms:
    """Slice action split by power of the coordinate difference."""

    quadratic: float
    cubic: float
    quartic: float

    @property
    def total(self) -> float:
        return self.quadratic + self.cubic + self.quartic


def _sym_pair(conn: np.ndarray) -> np.ndarray:
    return 0.5 * (conn + np.swapaxes(conn, -3, -2))


def _h_tensor(pt: PointGeometry) -> np.ndarray:
    """H[m, n, s, l] = d_s Gamma_{mn}^l + Gamma_{mn}^t Gamma_{{s t}}^l, the
    cubic coefficient of the difference map (inner index pair symmetrized); batch axes lead."""
    conn = pt.affine
    d_conn = pt.d_affine
    sym = _sym_pair(conn)
    return np.einsum("...mnls->...mnsl", d_conn) + np.einsum("...mnt,...stl->...mnsl", conn, sym)


def _sym3_first(h: np.ndarray) -> np.ndarray:
    """Symmetrize H over its first three (lower) indices."""
    return (
        h
        + np.einsum("...nmsl->...mnsl", h)
        + np.einsum("...msnl->...mnsl", h)
        + np.einsum("...smnl->...mnsl", h)
        + np.einsum("...nsml->...mnsl", h)
        + np.einsum("...snml->...mnsl", h)
    ) / 6.0


def delta_x_expansion(geom: Geometry, q, dq, order: int = 3) -> np.ndarray:
    """
    Flat image of a finite chart difference, postpoint coefficients:
    dx^i = e^i_l [dq - Gamma dq dq / 2 + H dq dq dq / 6]^l truncated after
    ``order`` powers inside the bracket (order 1 keeps the linear term only).
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    q = np.asarray(q, dtype=float)
    u = np.asarray(dq, dtype=float)
    pt = geom.at(q)
    bracket = u.copy()
    if order >= 2:
        bracket -= 0.5 * np.einsum("mnl,m,n->l", pt.affine, u, u)
    if order >= 3:
        bracket += np.einsum("mnsl,m,n,s->l", _h_tensor(pt), u, u, u) / 6.0
    return pt.triad @ bracket


def _action_coefficients(pt: PointGeometry, scheme: str, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients (g, t3, t4) of the slice action (M / 2 eps)(g dq^2 + t3 dq^3 + t4 dq^4) at the reference
    point(s) of ``pt``, batch axes leading, in postpoint signs (the prepoint scheme contracts them with -dq):
    t3 = -Gamma_first and t4 = H_first / 3 + Gamma_first Gamma / 4, or 0 and H_first / 12 at the midpoint."""
    g = pt.metric
    t3 = -pt.affine_first if order >= 3 and scheme != "midpoint" else np.zeros(g.shape + g.shape[-1:])
    t4 = np.zeros(g.shape + g.shape[-2:])
    if order >= 4:
        t4a = lower_last(_h_tensor(pt), g[..., None, None, :, :]) / 3.0
        if scheme == "midpoint":
            t4 = 0.25 * t4a
        else:
            t4 = t4a + 0.25 * np.einsum("...mnk,...slk->...mnsl", pt.affine_first, pt.affine)
    return g, t3, t4


def short_time_action(geom: Geometry, q, dq, config: SliceConfig) -> ActionTerms:
    """
    Slice action for difference ``dq`` about the reference point ``q``.

    The reference is the postpoint, prepoint or coordinate midpoint according
    to ``config.scheme``; ``dq`` is always (later point) - (earlier point).
    The returned terms carry the M / 2 eps prefactor.
    """
    u = np.asarray(dq, dtype=float)
    if config.scheme == "prepoint":
        u = -u
    g, t3, t4 = _action_coefficients(geom.at(np.asarray(q, dtype=float)), config.scheme, config.order)
    pref = config.mass / (2.0 * config.eps)
    quad = float(u @ g @ u)
    cubic = float(np.einsum("mns,m,n,s->", t3, u, u, u))
    quart = float(np.einsum("mnsl,m,n,s,l->", t4, u, u, u, u))
    return ActionTerms(pref * quad, pref * cubic, pref * quart)


def shoot_autoparallel(
    geom: Geometry,
    q_from,
    q_to,
    duration: float,
    *,
    steps: int = 48,
    tol: float = 1e-12,
    max_iter: int = 30,
):
    """
    Solve the two-point boundary problem for the autoparallel from q_from to
    q_to by Newton shooting on the initial velocity.  Returns (v0, v_final).
    """
    from .dynamics import integrate_trajectory

    q_from = np.asarray(q_from, dtype=float)
    q_to = np.asarray(q_to, dtype=float)
    dt = duration / steps
    scale = max(1.0, float(np.linalg.norm(q_to - q_from)))

    def final_state(v0):
        traj = integrate_trajectory(geom, "autoparallel", q_from, v0, duration, dt)
        return traj.q[-1], traj.v[-1]

    v = (q_to - q_from) / duration
    for _ in range(max_iter):
        q_end, v_end = final_state(v)
        miss = q_end - q_to
        if np.linalg.norm(miss) < tol * scale:
            return v, v_end
        jac = np.empty((geom.dim, geom.dim))
        h = 1e-7 * max(1.0, np.linalg.norm(v))
        for col in range(geom.dim):
            vp = v.copy()
            vp[col] += h
            jac[:, col] = (final_state(vp)[0] - q_end) / h
        try:
            v = v - np.linalg.solve(jac, miss)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"shooting Jacobian singular near v={v.tolist()}") from exc
    raise NoConvergence(f"autoparallel shooting did not converge from {q_from.tolist()} to {q_to.tolist()}")


def classical_orbit_action(geom: Geometry, q_from, q_to, eps: float, mass: float) -> float:
    """
    Action of the short connecting autoparallel over duration ``eps``: the
    Lagrangian is conserved along it, so the action is M eps g(qd, qd) / 2
    evaluated at the postpoint.
    """
    _, v_end = shoot_autoparallel(geom, q_from, q_to, eps)
    g = geom.at(np.asarray(q_to, dtype=float)).metric
    return float(0.5 * mass * eps * (v_end @ g @ v_end))


# ---------------------------------------------------------------------------
# Jacobian actions of the slice measure
# ---------------------------------------------------------------------------

JACOBIAN_ROUTES = ("naive-affine", "naive-metric", "qep")


@dataclass
class JacobianSeries:
    """Real Euclidean measure exponent j(dq) = linear . dq + dq . quadratic . dq."""

    linear: np.ndarray
    quadratic: np.ndarray

    def value(self, dq) -> float:
        u = np.asarray(dq, dtype=float)
        return float(self.linear @ u + u @ self.quadratic @ u)


def jacobian_action(geom: Geometry, q, *, route: str = "qep", symmetrized: bool = True) -> JacobianSeries:
    """
    Measure exponent of one slice at postpoint ``q``, a point (D,) or a stack
    of them (n, D); on a stack the coefficients carry a leading n axis.

    ``naive-affine`` and ``naive-metric`` are the position-measure Jacobian
    computed from the affine-connection trace and from the Christoffel trace
    respectively; the two coincide identically (the contortion trace in the
    contracted pair vanishes), which makes them a dual-route consistency
    check.  ``qep`` is the difference-measure Jacobian: trace log of the
    symmetrized dq -> dx derivative.  ``symmetrized=False`` skips the outer
    symmetrizations (diagnostic; reproduces the naive route on integrable
    charts).
    """
    if route not in JACOBIAN_ROUTES:
        raise ValueError(f"route must be one of {JACOBIAN_ROUTES}")
    q = np.asarray(q, dtype=float)
    pt = geom.at(q) if q.ndim == 1 else geom.batch(q)
    if route == "naive-affine":
        conn, d_conn = pt.affine, pt.d_affine
    elif route == "naive-metric":
        conn, d_conn = pt.christoffel, pt.d_christoffel
    if route in ("naive-affine", "naive-metric"):
        linear = -np.einsum("...abb->...a", conn)
        tr = np.einsum("...abbs->...as", d_conn)  # d_s Gamma_{a b}^b
        quadratic = 0.25 * (tr + np.swapaxes(tr, -1, -2))
        return JacobianSeries(linear, quadratic)

    h = _h_tensor(pt)
    if symmetrized:
        gam = _sym_pair(pt.affine)
        h = _sym3_first(h)
    else:
        gam = pt.affine
    linear = -np.einsum("...lnl->...n", gam)
    tr_b2 = np.einsum("...rnl,...lsr->...ns", gam, gam)
    quadratic = 0.5 * np.einsum("...lnsl->...ns", h) - 0.5 * tr_b2
    quadratic = 0.5 * (quadratic + np.swapaxes(quadratic, -1, -2))
    return JacobianSeries(linear, quadratic)


def delta_jacobian_action(geom: Geometry, q) -> JacobianSeries:
    """
    Difference between the difference-measure and position-measure exponents.
    For torsion-free geometries its quadratic coefficient equals one sixth of
    the Ricci tensor of the Christoffel connection (and the linear part
    vanishes); with torsion, it is whatever the two routes give.
    """
    qep = jacobian_action(geom, q, route="qep")
    naive = jacobian_action(geom, q, route="naive-affine")
    return JacobianSeries(qep.linear - naive.linear, qep.quadratic - naive.quadratic)


def effective_potential(geom: Geometry, q, mass: float, hbar: float) -> float:
    """
    Curvature effective potential -hbar^2 R / 6M (Riemann scalar), the value
    by which the position-measure slicing shifts every level relative to the
    difference-measure slicing.  Warns when torsion is present, since the
    closed form assumes it away.
    """
    pt = geom.at(np.asarray(q, dtype=float))
    if np.max(np.abs(pt.torsion)) > 1e-10:
        warnings.warn(
            "effective potential evaluated at a point with torsion; the torsion-free closed form is used",
            TorsionPresentWarning,
        )
    return -(hbar**2) * pt.scalar_riemann / (6.0 * mass)


def delta_action_expectation(geom: Geometry, q, eps: float, mass: float, hbar: float) -> float:
    """Quadratic measure-difference exponent contracted with the Euclidean
    slice expectation <dq dq> = eps hbar g^inv / M (postpoint metric)."""
    pt = geom.at(np.asarray(q, dtype=float))
    delta = delta_jacobian_action(geom, q)
    return float(np.einsum("mn,mn->", delta.quadratic, eps * hbar * pt.metric_inverse / mass))


def phase_space_kernel_check(geom: Geometry, q, dq, eps: float, mass: float, hbar: float) -> float:
    """
    Residual between the slice kernel at quadratic order and the analytic
    momentum integral of its phase-space form, with the measure carrying
    1 / sqrt(g) at the reference point.  Both sides are evaluated on the
    Euclidean contour; the residual is relative and should be at rounding
    level for any geometry.
    """
    q = np.asarray(q, dtype=float)
    u = np.asarray(dq, dtype=float)
    pt = geom.at(q)
    d = geom.dim

    # Configuration-space kernel at quadratic order.
    config_val = (2.0 * np.pi * hbar * eps / mass) ** (-d / 2.0) * np.exp(
        -(mass / (2.0 * hbar * eps)) * float(u @ pt.metric @ u)
    )

    # Momentum integral: int d^D p / ((2 pi hbar)^D sqrt(g))
    #   exp[(i/hbar) p.dq - (eps / 2 M hbar) g^inv(p, p)]
    amat = (eps / (mass * hbar)) * pt.metric_inverse
    bvec = (1j / hbar) * u
    gauss = (2.0 * np.pi) ** (d / 2.0) * np.linalg.det(amat) ** -0.5 * np.exp(
        0.5 * bvec @ np.linalg.inv(amat) @ bvec
    )
    momentum_val = gauss / ((2.0 * np.pi * hbar) ** d * pt.sqrt_metric)
    if abs(momentum_val.imag) > 1e-13 * abs(momentum_val.real):
        raise AssertionError("momentum integral acquired a spurious imaginary part")
    return abs(momentum_val.real - config_val) / config_val
