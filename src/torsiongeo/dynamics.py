"""
Classical motion: geodesics, autoparallels, actions, and the closure-failure
variation equation.

Geodesics solve ``qdd + Gammabar qd qd = 0`` (shortest lines), autoparallels
``qdd + Gamma qd qd = 0`` (straightest lines); the two coincide exactly when
torsion vanishes.  Trajectories, over a whole number of ``dt`` steps, the closure-failure
equation below and the chart-index Burgers loop of ``defects`` take one classical RK4 step,
``_rk4_step``, whose deterministic O(dt^4) error model the tolerances below rely on.

The variation objects implement the first-order equation

    d/dt db^m = -G^m_l(t) db^l + Sigma^m_n(t) dq^n,   db(t_a) = 0,

with G^m_l = Gamma_{l n}^m qd^n and Sigma^m_n = 2 S_{l n}^m qd^l evaluated on
a precomputed orbit (linear interpolation between grid points), plus the
equivalent time-ordered product solution

    db(t) = int_{t_a}^t dt' U(t, t') Sigma(t') dq(t'),
    U(t, t') = ordered product of substep matrix exponentials of -G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ChartSingularity, GridMismatch, GridTooCoarse, MetricNotPositiveDefinite, NonFiniteResult,
                     SingularTriad, StepTooLarge)
from .geometry import Geometry, _memo
from .slicing import whole_steps

SINGULAR_TOL = 1e-8  # |PointGeometry.chart_scale| at which a path has reached a chart singularity


@dataclass
class Trajectory:
    """A time-gridded path with the ODE kind that produced it."""

    kind: str
    t: np.ndarray
    q: np.ndarray  # (n, D)
    v: np.ndarray  # (n, D)
    geometry: Geometry

    def __post_init__(self):
        steps = np.diff(self.t)
        if np.any(steps <= 0) or np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
            raise ValueError("time grid must be strictly increasing and uniform")

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @_memo
    def kinetic_invariant(self) -> np.ndarray:
        """g_munu qd^mu qd^nu along the path; constant for both line kinds.  Evaluated once per trajectory."""
        inv = np.einsum("km,kmn,kn->k", self.v, self.geometry.batch(self.q).metric, self.v)
        inv.flags.writeable = False  # shared by every caller
        return inv

    @_memo
    def invariant_drift(self) -> float:
        """max |I - I(0)| of the kinetic invariant I over the path."""
        return float(np.max(np.abs(self.kinetic_invariant - self.kinetic_invariant[0])))


@dataclass
class VariationRecord:
    """Holonomic variation, closure field, and the orbit matrices G, Sigma."""

    t: np.ndarray
    dq: np.ndarray  # (n, D) holonomic variation, zero at both ends
    db: np.ndarray  # (n, D) closure failure, zero at t_a
    G: np.ndarray  # (n, D, D)
    Sigma: np.ndarray  # (n, D, D)


def _rk4_step(rhs, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of dy/ds = rhs(frac, y) from s to s + dt, where ``frac``
    is the fraction of the step at which the stage is taken: 0, 1/2 or 1."""
    k1 = rhs(0.0, y)
    k2 = rhs(0.5, y + 0.5 * dt * k1)
    k3 = rhs(0.5, y + 0.5 * dt * k2)
    k4 = rhs(1.0, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate_trajectory(geom: Geometry, kind: str, q0, v0, duration: float, dt: float) -> Trajectory:
    """
    Integrate a geodesic or autoparallel from (q0, v0) over ``duration``, a whole
    number of ``dt`` steps (``slicing.whole_steps``), by ``_rk4_step`` on [q, v].

    Raises ``ValueError`` when ``duration`` is no positive whole number of steps,
    ``ChartSingularity`` when the path starts at or reaches a singular chart point (a
    field guard fails at the start point or an RK4 stage, or the bundle's ``chart_scale``
    falls below ``SINGULAR_TOL`` or changes sign between steps),
    ``NonFiniteResult`` when the kinetic invariant overflows, and ``StepTooLarge``
    when it drifts by more than ten times the tolerance ``max(1e-6, 1e3 dt^4)`` relative.
    """
    if kind not in ("geodesic", "autoparallel"):
        raise ValueError("kind must be 'geodesic' or 'autoparallel'")
    n_steps = whole_steps(duration, dt) if dt > 0 else 0
    if not n_steps:
        raise ValueError(f"duration={duration} is not a positive whole number of dt={dt} steps")
    d = geom.dim
    ts = dt * np.arange(n_steps + 1)
    ys = np.empty((n_steps + 1, 2 * d))  # the stacked states [q, v]
    ys[0] = np.ravel([q0, v0])  # a ragged pair raises

    def rhs(frac, yy):
        q, v = yy[:d], yy[d:]
        pt = geom.at(q)
        conn = pt.christoffel if kind == "geodesic" else pt.affine
        return np.concatenate([v, -np.einsum("abc,a,b->c", conn, v, v)])

    try:
        scale0 = geom.at(ys[0, :d]).chart_scale
        for k in range(n_steps):
            ys[k + 1] = _rk4_step(rhs, ys[k], dt)
            scale = geom.at(ys[k + 1, :d]).chart_scale  # Geometry.at keeps this bundle for the next step's k1
            if abs(scale) < SINGULAR_TOL or scale * scale0 < 0.0:
                raise ChartSingularity(f"chart became singular near q={ys[k + 1, :d].tolist()} at t={ts[k + 1]:.6g}")
    except (SingularTriad, MetricNotPositiveDefinite, NonFiniteResult) as exc:
        raise ChartSingularity(str(exc)) from exc

    traj = Trajectory(kind, ts, ys[:, :d].copy(), ys[:, d:].copy(), geom)
    tol = max(1e-6, 1e3 * dt**4)
    inv = traj.kinetic_invariant
    finite = np.isfinite(inv)
    if not finite.all():  # an overflowed orbit, which no smaller dt mends
        raise NonFiniteResult(f"kinetic invariant is not finite at t={ts[np.argmin(finite)]:.6g}")
    drift = traj.invariant_drift / max(abs(inv[0]), 1e-300)
    if drift > 10.0 * tol:
        raise StepTooLarge(f"kinetic invariant drifted by {drift:.3e} (relative); reduce dt")
    return traj


def evaluate_action(traj: Trajectory, mass: float) -> float:
    """Composite-Simpson quadrature of the kinetic Lagrangian M I / 2 along the orbit."""
    return _simpson(0.5 * mass * traj.kinetic_invariant, traj.dt)


def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson sum of the samples ``y`` on a uniform grid of step ``h``.  An odd
    number of steps ends on a 3/8 panel; one step is the trapezoid."""
    n = len(y) - 1
    if n == 1:
        return float(0.5 * h * (y[0] + y[1]))
    m = n - 3 if n % 2 else n  # the steps Simpson's 1/3 rule covers
    total = h / 3.0 * (y[0] + 4.0 * y[1:m:2].sum() + 2.0 * y[2:m:2].sum() + y[m]) if m else 0.0
    if n % 2:
        total += 3.0 * h / 8.0 * (y[m] + 3.0 * (y[m + 1] + y[m + 2]) + y[m + 3])
    return float(total)


def _time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order central differences on the interior (second order at the
    two points adjacent to each boundary)."""
    n = len(values)
    if n < 5:
        raise GridTooCoarse("need at least 5 samples for stable grid derivatives")
    out = np.empty_like(values)
    out[2:-2] = (-values[4:] + 8 * values[3:-1] - 8 * values[1:-3] + values[:-4]) / (12 * dt)
    out[1] = (values[2] - values[0]) / (2 * dt)
    out[-2] = (values[-1] - values[-3]) / (2 * dt)
    out[0] = (values[1] - values[0]) / dt
    out[-1] = (values[-1] - values[-2]) / dt
    return out


def modified_el_residual(geom: Geometry, traj: Trajectory, mass: float) -> np.ndarray:
    """
    Residual of the torsion-modified Euler-Lagrange equation at interior
    grid points:

        r_l = dL/dq^l - d/dt dL/dqd^l - 2 S_{l m}^n qd^m dL/dqd^n.

    Autoparallels zero this residual; geodesics leave the torsion force.
    """
    pt, v = geom.batch(traj.q), traj.v
    dLdq = 0.5 * mass * np.einsum("kmns,km,kn->ks", pt.d_metric, v, v)
    p = mass * np.einsum("kmn,kn->km", pt.metric, v)
    torsion_term = 2.0 * np.einsum("klmn,km,kn->kl", pt.torsion, v, p)
    dp_dt = _time_derivative(p, traj.dt)
    res = dLdq - dp_dt - torsion_term
    return res[2:-2]


def torsion_force(geom: Geometry, traj: Trajectory, mass: float) -> np.ndarray:
    """The torsion contribution 2 M S_{l m n} qd^m qd^n, evaluated directly."""
    v = traj.v
    return 2.0 * mass * np.einsum("klmn,km,kn->kl", geom.batch(traj.q).torsion_first, v, v)


# ---------------------------------------------------------------------------
# Nonholonomic variation: closure-failure ODE and time-ordered solution
# ---------------------------------------------------------------------------


def _orbit_matrices(geom: Geometry, traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    pt = geom.batch(traj.q)
    # G^m_l = Gamma_{l n}^m qd^n ; Sigma^m_n = 2 S_{l n}^m qd^l
    G = np.einsum("klnm,kn->kml", pt.affine, traj.v)
    Sigma = 2.0 * np.einsum("klnm,kl->kmn", pt.torsion, traj.v)
    return G, Sigma


def _check_variation_grid(traj: Trajectory, dq: np.ndarray) -> np.ndarray:
    dq = np.asarray(dq, dtype=float)
    if dq.shape != traj.q.shape:
        raise GridMismatch(f"variation field shape {dq.shape} does not match trajectory {traj.q.shape}")
    if np.max(np.abs(dq[0])) > 1e-12 or np.max(np.abs(dq[-1])) > 1e-12:
        raise ValueError("holonomic variation must vanish at both endpoints")
    return dq


def _interp(values: np.ndarray, idx, frac: float) -> np.ndarray:
    """Linear interpolation at fraction ``frac`` of step ``idx`` (an index or an index array)."""
    if frac == 0.0:
        return values[idx]
    return (1.0 - frac) * values[idx] + frac * values[idx + 1]


def nonholonomic_variation(geom: Geometry, traj: Trajectory, dq) -> VariationRecord:
    """
    Solve the closure-failure equation along the orbit with ``_rk4_step`` at the
    trajectory step, with G, Sigma and dq interpolated linearly between grid
    points.  Returns db together with the orbit matrices.
    """
    dq = _check_variation_grid(traj, dq)
    G, Sigma = _orbit_matrices(geom, traj)
    n, d = dq.shape
    steps = np.arange(n - 1)
    # -G and Sigma dq at the start, midpoint and end of every step: [step, 2 frac]
    stages = [(steps, 0.0), (steps, 0.5), (steps + 1, 0.0)]
    minus_g = np.stack([-_interp(G, idx, frac) for idx, frac in stages], axis=1)
    source = np.stack([_matvec(_interp(Sigma, idx, frac), _interp(dq, idx, frac)) for idx, frac in stages], axis=1)

    def rhs(frac, b):
        j = int(2 * frac)
        return minus_g[k, j] @ b + source[k, j]

    db, dt = np.zeros((n, d)), traj.dt
    for k in range(n - 1):
        db[k + 1] = _rk4_step(rhs, db[k], dt)
    return VariationRecord(traj.t.copy(), dq, db, G, Sigma)


_GAUSS_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential; scipy.linalg loads on first use, not on import."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(a)


def _step_generator(G: np.ndarray, k, dt: float, order: int, lo: float = 0.0) -> np.ndarray:
    """Exponent of the ordered product U(t_{k+1}, t_k + lo dt) over the tail [lo, 1] of step k:
    the midpoint rule at order 2, the two-node Gauss (fourth-order Magnus) generator at order 4.
    ``k`` may be an index array, which gives the stack of generators of those steps."""
    span = 1.0 - lo
    h = span * dt
    if order == 2:
        return -_interp(G, k, lo + 0.5 * span) * h
    a1 = -_interp(G, k, lo + span * _GAUSS_NODES[0])
    a2 = -_interp(G, k, lo + span * _GAUSS_NODES[1])
    return 0.5 * h * (a1 + a2) + (np.sqrt(3.0) / 12.0) * h**2 * (a2 @ a1 - a1 @ a2)


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products a[k] @ x[k]."""
    return (a @ x[..., None])[..., 0]


def variation_closed_form(geom: Geometry, traj: Trajectory, dq, *, order: int = 4) -> np.ndarray:
    """
    Closure failure via the time-ordered product: db(t_k) accumulated as

        db_{k+1} = U_k db_k + int over the step of U(t_{k+1}, t') Sigma dq dt'

    with U built from per-substep matrix exponentials (scaling-and-squaring).
    ``order=2`` uses the plain midpoint exponential and midpoint quadrature
    (second-order, Richardson-checkable); ``order=4`` uses two-node Gauss
    generators and Gauss quadrature of the source term.  The exponentials of
    every step are taken in one stacked call; only the recurrence is serial.
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    dq = _check_variation_grid(traj, dq)
    G, Sigma = _orbit_matrices(geom, traj)
    n, d = dq.shape
    dt = traj.dt
    steps = np.arange(n - 1)
    # full step, and U(t_{k+1}, t_k + c dt) at each node of the source quadrature:
    # the midpoint at order 2, both Gauss nodes at order 4
    nodes = (0.5,) if order == 2 else _GAUSS_NODES
    tails = [_step_generator(G, steps, dt, order, lo=c) for c in nodes]
    weight = dt / len(nodes)
    exps = expm(np.concatenate([_step_generator(G, steps, dt, order)] + tails)).reshape(-1, n - 1, d, d)
    src = 0.0
    for U_tail, c in zip(exps[1:], nodes):
        src = src + weight * _matvec(U_tail, _matvec(_interp(Sigma, steps, c), _interp(dq, steps, c)))
    db = np.zeros((n, d))
    b = np.zeros(d)
    for k in range(n - 1):
        b = exps[0, k] @ b + src[k]
        db[k + 1] = b
    return db


def time_ordered_propagator(G: np.ndarray, dt: float, *, order: int = 4) -> np.ndarray:
    """
    Ordered product U(t_end, t_0) of per-substep matrix exponentials of -G,
    for G sampled on a uniform grid (shape (n, D, D), linearly interpolated
    inside each step).
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    U = np.eye(G.shape[1])
    if len(G) > 1:
        for step in expm(_step_generator(G, np.arange(len(G) - 1), dt, order)):
            U = step @ U
    return U


def bump_variation(traj: Trajectory, amplitude) -> np.ndarray:
    """A smooth sin^2-shaped holonomic variation vanishing at both endpoints."""
    amp = np.atleast_1d(np.asarray(amplitude, dtype=float))
    span = traj.t[-1] - traj.t[0]
    shape = np.sin(np.pi * (traj.t - traj.t[0]) / span) ** 2
    return shape[:, None] * amp[None, :]
