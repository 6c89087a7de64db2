"""
Built-in geometry catalog with hand-coded analytic derivatives.

Every entry returns a fully wired :class:`~torsiongeo.geometry.Geometry` with
metadata used by the dynamics, defect and propagator layers:

``flat-cartesian(d)``        flat space, identity triad
``polar()``                  flat 2-d space in polar coordinates (r, phi)
``sphere(a)``                round 2-sphere of radius a, chart (theta, phi);
                             metric-sourced, hence torsion-free by construction
``circle(a)``                1-d circle of radius a, chart phi in [0, 2 pi)
``dislocation(epsilon)``     edge-dislocation dyad; epsilon is the Burgers
                             modulus (the closure failure of a unit loop)
``disclination(omega)``      wedge-disclination metric (missing sector angle
                             2 pi omega), single-valued, flat off the origin
``torsion-toy(s0)``          linear triad deformation with constant leading-
                             order torsion, for exercising the torsion sector

The dislocation density is normalized so that a contour enclosing the origin
once picks up exactly ``(0, epsilon)``: the multivalued angle contributes
2 pi per winding, so the dyad carries ``epsilon / (2 pi)`` times its gradient.
"""

from __future__ import annotations

import inspect
import math
import numbers
from typing import Callable, Dict

import numpy as np

from .errors import ValidationError
from .geometry import Geometry
from .triads import MetricField, TriadField

TWO_PI = 2.0 * math.pi
OMEGA_BOUND = 0.1  # largest |omega| of a disclination: the metric is a leading-order expansion in omega

# Fixed deformation pattern of the torsion toy; asymmetry in the lower pair
# of e^i_{mu,nu} = s0 * t[i, mu, nu] is what generates the torsion.
_TOY_PATTERN = np.array(
    [
        [[0.0, 0.5], [0.1, 0.2]],
        [[0.3, 0.0], [-0.4, 0.1]],
    ]
)


def _constant(value: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator of a constant tensor, broadcast over the batch axes of the points (a single
    point gets the array itself: RK4 calls this per stage, and broadcast_to costs microseconds)."""
    return lambda q: value if np.ndim(q) == 1 else np.broadcast_to(value, np.shape(q)[:-1] + value.shape)


def _zeros(q: np.ndarray, *shape: int) -> np.ndarray:
    return np.zeros(np.shape(q)[:-1] + shape)


def angle_gradient(q: np.ndarray) -> np.ndarray:
    """Gradient of the polar angle atan2(q2, q1); single-valued off the origin."""
    u, v = q[..., 0], q[..., 1]
    rho2 = u * u + v * v
    return np.stack([-v / rho2, u / rho2], axis=-1)


def angle_hessian(q: np.ndarray) -> np.ndarray:
    u, v = q[..., 0], q[..., 1]
    rho4 = (u * u + v * v) ** 2
    out = _zeros(q, 2, 2)
    out[..., 0, 0] = 2 * u * v
    out[..., 0, 1] = out[..., 1, 0] = v * v - u * u
    out[..., 1, 1] = -2 * u * v
    return out / rho4[..., None, None]


def angle_third(q: np.ndarray) -> np.ndarray:
    u, v = q[..., 0], q[..., 1]
    rho6 = (u * u + v * v) ** 3
    f111 = 2 * v * (v * v - 3 * u * u) / rho6
    f112 = 2 * u * (u * u - 3 * v * v) / rho6
    out = _zeros(q, 2, 2, 2)
    out[..., 0, 0, 0] = f111
    out[..., 0, 0, 1] = out[..., 0, 1, 0] = out[..., 1, 0, 0] = f112
    out[..., 0, 1, 1] = out[..., 1, 0, 1] = out[..., 1, 1, 0] = -f111
    out[..., 1, 1, 1] = -f112
    return out


def flat_cartesian(d: int = 2) -> Geometry:
    if not float(d).is_integer() or d < 1:
        raise ValidationError(f"flat-cartesian: dimension d must be a positive integer, got {d!r}")
    d = int(d)
    field = TriadField(d, _constant(np.eye(d)), _constant(np.zeros((d,) * 3)), _constant(np.zeros((d,) * 4)),
                       name="flat-cartesian")
    return Geometry(field, name="flat-cartesian", params={"d": d}, topology="line" if d == 1 else None,
                    sample_box=[(-2.0, 2.0)] * d)


def polar() -> Geometry:
    def evaluate(q):
        r, phi = q[..., 0], q[..., 1]
        c, s = np.cos(phi), np.sin(phi)
        e = _zeros(q, 2, 2)
        e[..., 0, 0], e[..., 0, 1], e[..., 1, 0], e[..., 1, 1] = c, -r * s, s, r * c
        return e

    def d_evaluate(q):
        r, phi = q[..., 0], q[..., 1]
        c, s = np.cos(phi), np.sin(phi)
        de = _zeros(q, 2, 2, 2)
        de[..., 0, 1, 0] = de[..., 0, 0, 1] = -s
        de[..., 1, 1, 0] = de[..., 1, 0, 1] = c
        de[..., 0, 1, 1] = -r * c
        de[..., 1, 1, 1] = -r * s
        return de

    def dd_evaluate(q):
        r, phi = q[..., 0], q[..., 1]
        c, s = np.cos(phi), np.sin(phi)
        dde = _zeros(q, 2, 2, 2, 2)
        dde[..., 0, 1, 0, 1] = dde[..., 0, 1, 1, 0] = -c
        dde[..., 1, 1, 0, 1] = dde[..., 1, 1, 1, 0] = -s
        dde[..., 0, 0, 1, 1] = -c
        dde[..., 0, 1, 1, 1] = r * s
        dde[..., 1, 0, 1, 1] = -s
        dde[..., 1, 1, 1, 1] = -r * c
        return dde

    field = TriadField(2, evaluate, d_evaluate, dd_evaluate, name="polar")
    return Geometry(field, name="polar", sample_box=[(0.5, 3.0), (0.0, TWO_PI)])


def sphere(a: float = 1.0) -> Geometry:
    if a <= 0:
        raise ValidationError("sphere: radius a must be positive")
    a2 = a * a

    def metric(q):
        s = np.sin(q[..., 0])
        g = _zeros(q, 2, 2)
        g[..., 0, 0] = a2
        g[..., 1, 1] = a2 * s * s
        return g

    def d_metric(q):
        th = q[..., 0]
        dg = _zeros(q, 2, 2, 2)
        dg[..., 1, 1, 0] = 2 * a2 * np.sin(th) * np.cos(th)
        return dg

    def dd_metric(q):
        ddg = _zeros(q, 2, 2, 2, 2)
        ddg[..., 1, 1, 0, 0] = 2 * a2 * np.cos(2 * q[..., 0])
        return ddg

    field = MetricField(2, metric, d_metric, dd_metric, diagonal=True, name="sphere")
    return Geometry(field, name="sphere", params={"a": float(a)}, topology="sphere",
                    sample_box=[(0.3, math.pi - 0.3), (0.0, TWO_PI)])


def circle(a: float = 1.0) -> Geometry:
    if a <= 0:
        raise ValidationError("circle: radius a must be positive")
    field = TriadField(1, _constant(np.array([[float(a)]])), _constant(np.zeros((1, 1, 1))),
                       _constant(np.zeros((1, 1, 1, 1))), name="circle")
    return Geometry(field, name="circle", params={"a": float(a)}, topology="circle",
                    sample_box=[(0.0, TWO_PI)])


def dislocation(epsilon: float = 0.01) -> Geometry:
    coeff = float(epsilon) / TWO_PI

    def evaluate(q):
        grad = angle_gradient(q)
        e = _zeros(q, 2, 2)
        e[..., 0, 0] = 1.0
        e[..., 1, 0] = coeff * grad[..., 0]
        e[..., 1, 1] = 1.0 + coeff * grad[..., 1]
        return e

    def d_evaluate(q):
        de = _zeros(q, 2, 2, 2)
        de[..., 1, :, :] = coeff * angle_hessian(q)
        return de

    def dd_evaluate(q):
        dde = _zeros(q, 2, 2, 2, 2)
        dde[..., 1, :, :, :] = coeff * angle_third(q)
        return dde

    field = TriadField(2, evaluate, d_evaluate, dd_evaluate, name="dislocation")
    # torsion-free pointwise, away from the origin
    return Geometry(field, name="dislocation", params={"epsilon": float(epsilon)},
                    sample_box=[(0.4, 2.4), (0.4, 2.4)])


def disclination(omega: float = 0.05) -> Geometry:
    if abs(omega) > OMEGA_BOUND:
        raise ValidationError(f"disclination: |omega| must not exceed {OMEGA_BOUND}")
    om = float(omega)
    eps2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

    # eps_pair[m, n, s, t] = eps2[m, s] eps2[n, t] + eps2[m, t] eps2[n, s]
    eps_pair = np.einsum("ms,nt->mnst", eps2, eps2) + np.einsum("mt,ns->mnst", eps2, eps2)
    delta = np.eye(2)

    def parts(q):
        """|q|^2, w w^T with w = (q2, -q1), and sym[..., m, n, s] = eps2[m, s] w[n] + w[m] eps2[n, s]."""
        w = np.stack([q[..., 1], -q[..., 0]], axis=-1)
        rho2 = np.einsum("...k,...k->...", q, q)[..., None, None]
        ew = eps2[:, None, :] * w[..., None, :, None]  # [m, n, s] = eps2[m, s] w[n]
        return rho2, w[..., :, None] * w[..., None, :], ew + np.swapaxes(ew, -3, -2)

    def metric(q):
        rho2, ww, _ = parts(q)
        return np.eye(2) - (2 * om / rho2) * ww

    def d_metric(q):
        rho2, ww, sym = parts(q)
        r2 = rho2[..., None]
        return -2 * om * (sym / r2 - 2 * q[..., None, None, :] * ww[..., None] / r2**2)

    def dd_metric(q):
        rho2, ww, sym = parts(q)
        r2, ww4 = rho2[..., None, None], ww[..., None, None]
        qs, qt = q[..., None, None, :, None], q[..., None, None, None, :]
        term = eps_pair / r2
        term = term - 2 * qt * sym[..., None] / r2**2
        term = term - 2 * delta * ww4 / r2**2
        term = term - 2 * qs * sym[..., None, :] / r2**2
        term = term + 8 * qs * qt * ww4 / r2**3
        return -2 * om * term

    field = MetricField(2, metric, d_metric, dd_metric, diagonal=False, name="disclination")
    return Geometry(field, name="disclination", params={"omega": om},
                    sample_box=[(0.4, 2.4), (0.4, 2.4)])


def torsion_toy(s0: float = 0.3) -> Geometry:
    if abs(s0) >= 1.0:
        raise ValidationError("torsion-toy: |s0| must be below 1 to keep the triad invertible")
    t = float(s0) * _TOY_PATTERN

    eye = np.eye(2)

    def evaluate(q):
        # e^i_mu = delta + t[i, mu, nu] q^nu; einsum rounds a point and a stack alike
        return eye + np.einsum("...n,imn->...im", q, t)

    field = TriadField(2, evaluate, _constant(t), _constant(np.zeros((2, 2, 2, 2))),
                       name="torsion-toy")
    return Geometry(field, name="torsion-toy", params={"s0": float(s0)},
                    sample_box=[(-0.5, 0.5), (-0.5, 0.5)])


# each factory's keyword parameters, with its defaults, are the geometry's parameters
_REGISTRY: Dict[str, Callable[..., Geometry]] = {
    "flat-cartesian": flat_cartesian,
    "polar": polar,
    "sphere": sphere,
    "circle": circle,
    "dislocation": dislocation,
    "disclination": disclination,
    "torsion-toy": torsion_toy,
}


def names() -> list[str]:
    return sorted(_REGISTRY)


def parameter_names(name: str) -> list[str]:
    if name not in _REGISTRY:
        raise ValidationError(f"unknown geometry '{name}'; known: {', '.join(names())}")
    return sorted(inspect.signature(_REGISTRY[name]).parameters)


def make(name: str, **params) -> Geometry:
    """Instantiate a catalog geometry by name; unknown and non-finite parameters are rejected."""
    unknown = set(params) - set(parameter_names(name))
    if unknown:
        raise ValidationError(f"geometry '{name}' does not take parameter(s) {sorted(unknown)}")
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= np.finfo(float).max:
            raise ValidationError(f"geometry '{name}': parameter {key} must be a finite number, got {value!r}")
    return _REGISTRY[name](**params)
