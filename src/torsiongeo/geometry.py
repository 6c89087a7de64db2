"""
Metric-affine geometry bundle: metric, connections, torsion, curvature.

All tensors are dense numpy arrays in the chart basis.  Index layout follows
the comma convention (partial-derivative indices appended last):

* ``affine[a, b, c]``      -> Gamma_{ab}^c       (affine connection, e d e)
* ``christoffel[a, b, c]`` -> Gammabar_{ab}^c    (Riemann connection)
* ``*_first[a, b, c]``     -> all indices lower (third lowered with g)
* ``torsion[a, b, c]``     -> S_{ab}^c = (Gamma_{ab}^c - Gamma_{ba}^c)/2
* ``contortion[a, b, c]``  -> K_{ab}^c
* ``d_affine[a, b, c, s]`` -> partial_s Gamma_{ab}^c
* ``curvature[m, n, l, k]``-> R_{mnl}^k, the covariant curl of the connection
  with the matrix commutator subtracted; ``curvature_riemann`` is the same
  curl of the Christoffel symbol.

One :class:`PointGeometry` serves both shapes: ``Geometry.at(q)`` takes a
``(D,)`` point (batch shape ``()``), ``Geometry.batch(points)`` an ``(n, D)``
stack, whose tensors carry a leading ``n`` axis and scalars are ``(n,)``
arrays, from one stacked field evaluation.  ``at`` remembers the last point's
bundle (so the wrappers below, and an RK4 step and the next step's first
stage, share one); ``batch`` keeps nothing.

Raising and lowering is never implicit; use :func:`raise_last` /
:func:`lower_last` or the ``*_first`` properties.

:class:`Geometry` chooses one bundle class per field kind.  A
:class:`~torsiongeo.triads.MetricField`'s is :class:`_TorsionFreePoint`: its
affine side *is* its Riemann side, and torsion and contortion vanish identically.

Every connection derivative is formed from the field's ``d_triad`` and
``dd_triad`` (or ``d_metric`` and ``dd_metric``); the bundle takes no finite
differences.  A derivative the field was not given is the central difference
of the next lower one (:mod:`torsiongeo.triads`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DerivativeUnavailable, MetricNotPositiveDefinite, NonFiniteResult
from .triads import MetricField, TriadField, _central_diff, _first

Field = Union[TriadField, MetricField]

COVARIANT_FD_STEP = 1e-6  # relative step of the partial derivative in covariant_derivative


def lower_last(tensor: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Lower the last index of ``tensor`` with the metric ``g`` (``tensor @ g``; a stack
    of rank-3 tensors takes its stack of metrics as ``g[..., None, :, :]``)."""
    return tensor @ g


def raise_last(tensor: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Raise the last index of ``tensor`` with the inverse metric (``tensor @ g_inv``)."""
    return tensor @ g_inv


def _scalar(value):
    """A Python float at a single point, the (n,) array on a stack."""
    return float(value) if np.ndim(value) == 0 else value


class _memo:
    """A property computed once per instance: the first read stores its value in the instance
    ``__dict__``, where every later read finds it without reaching this descriptor.  Unlike
    ``functools.cached_property`` on Python 3.11 it takes no lock: two threads reading one
    property at once may both compute it, and each stores an equal value."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def _first_singular(q: np.ndarray, g: np.ndarray) -> list:
    """The first point of ``q`` (..., D) whose own matrix in ``g`` (..., D, D) numpy cannot invert."""
    for index in np.ndindex(q.shape[:-1]):
        try:
            np.linalg.inv(g[index])
        except np.linalg.LinAlgError:
            return q[index].tolist()


@dataclass
class TensorValue:
    """A dense tensor at a base point with explicit index variance."""

    variance: tuple
    array: np.ndarray
    point: np.ndarray

    def __post_init__(self):
        self.array = np.asarray(self.array, dtype=float)
        self.point = np.asarray(self.point, dtype=float)
        if self.array.ndim != len(self.variance):
            raise ValueError("variance length must equal array rank")
        if any(n != self.point.size for n in self.array.shape):
            raise ValueError("all tensor extents must equal the chart dimension")


class PointGeometry:
    """Lazily derived geometric quantities at a point ``q`` (D,) or at every
    point of a stack ``q`` (n, D); tensors carry the batch axes ``q.shape[:-1]``
    in front of their own."""

    def __init__(self, geometry: "Geometry", q: np.ndarray):
        self.geometry = geometry
        self.q = np.asarray(q, dtype=float)

    # -- triad level -------------------------------------------------------

    @_memo
    def triad(self) -> np.ndarray:
        return self.geometry.field.triad(self.q)

    @_memo
    def triad_inverse(self) -> np.ndarray:
        # einv[i, mu] = e_i^mu, so that sum_i einv[i, mu] e[i, nu] = delta.
        return np.linalg.inv(self.triad).swapaxes(-1, -2)

    @_memo
    def d_triad(self) -> np.ndarray:
        return self.geometry.field.d_triad(self.q)

    @_memo
    def dd_triad(self) -> np.ndarray:
        return self.geometry.field.dd_triad(self.q)

    @_memo
    def d_triad_inverse(self) -> np.ndarray:
        # partial_l e_i^m = -e_j^m e^j_{r,l} e_i^r
        return -np.einsum("...jm,...jrl,...ir->...iml", self.triad_inverse, self.d_triad, self.triad_inverse)

    @_memo
    def chart_scale(self):
        """det e: its zero or change of sign marks a singular chart point."""
        return _scalar(np.linalg.det(self.triad))

    # -- metric level ------------------------------------------------------

    @_memo
    def metric(self) -> np.ndarray:
        e = self.triad
        return e.swapaxes(-1, -2) @ e

    @_memo
    def metric_inverse(self) -> np.ndarray:
        """g^-1; a metric singular in floating point raises ``MetricNotPositiveDefinite``."""
        try:
            return np.linalg.inv(self.metric)
        except np.linalg.LinAlgError:
            bad = _first_singular(self.q, self.metric)
            raise MetricNotPositiveDefinite(f"{self.geometry.name}: metric singular at q={bad}") from None

    _inverse = property(lambda self: self.metric_inverse)  # the curvature side's g^-1, unchecked if metric-only

    @_memo
    def det_metric(self):
        return _scalar(np.linalg.det(self.metric))

    @_memo
    def sqrt_metric(self):
        return _scalar(np.sqrt(self.det_metric))

    @_memo
    def d_metric(self) -> np.ndarray:
        a = np.einsum("...ims,...in->...mns", self.d_triad, self.triad)  # e^i_{m,s} e^i_n
        return a + a.swapaxes(-3, -2)

    @_memo
    def dd_metric(self) -> np.ndarray:
        # e^i_{m,st} e^i_n + e^i_{m,s} e^i_{n,t}, plus the second with s <-> t and the first with m <-> n
        a = np.einsum("...imst,...in->...mnst", self.dd_triad, self.triad)
        b = np.einsum("...ims,...int->...mnst", self.d_triad, self.d_triad)
        return a + b + b.swapaxes(-2, -1) + a.swapaxes(-4, -3)

    @_memo
    def d_metric_inverse(self) -> np.ndarray:
        """partial_s g^mn; one that overflows (near a pole of the sphere) raises ``NonFiniteResult``."""
        gi, dg = self._inverse, self.d_metric
        d = -np.einsum("...ma,...abs,...bn->...mns", gi, dg, gi)
        if not np.isfinite(d).all():
            bad = _first(self.q, ~np.isfinite(d).all(axis=(-3, -2, -1)))
            raise NonFiniteResult(f"{self.geometry.name}: derivative of the inverse metric is not finite at q={bad}")
        return d

    # -- connections -------------------------------------------------------

    @_memo
    def christoffel_first(self) -> np.ndarray:
        dg = self.d_metric
        return 0.5 * (np.einsum("...bca->...abc", dg) + np.einsum("...acb->...abc", dg) - dg)

    @_memo
    def christoffel(self) -> np.ndarray:
        return raise_last(self.christoffel_first, self.metric_inverse[..., None, :, :])

    @_memo
    def affine(self) -> np.ndarray:
        """Gamma_{ab}^c = e_i^c e^i_{b,a}."""
        return np.einsum("...ic,...iba->...abc", self.triad_inverse, self.d_triad)

    @_memo
    def affine_from_inverse(self) -> np.ndarray:
        """Alternative form Gamma_{ab}^c = -e^i_b partial_a e_i^c."""
        return -np.einsum("...ib,...ica->...abc", self.triad, self.d_triad_inverse)

    @_memo
    def affine_first(self) -> np.ndarray:
        return lower_last(self.affine, self.metric[..., None, :, :])

    @_memo
    def torsion(self) -> np.ndarray:
        c = self.affine
        return 0.5 * (c - c.swapaxes(-3, -2))

    @_memo
    def torsion_first(self) -> np.ndarray:
        return lower_last(self.torsion, self.metric[..., None, :, :])

    @_memo
    def torsion_trace(self) -> np.ndarray:
        """S_a = S_{ab}^b."""
        return np.einsum("...abb->...a", self.torsion)

    @_memo
    def contortion_first(self) -> np.ndarray:
        s = self.torsion_first
        return s - np.einsum("...bca->...abc", s) + np.einsum("...cab->...abc", s)

    @_memo
    def contortion(self) -> np.ndarray:
        return raise_last(self.contortion_first, self.metric_inverse[..., None, :, :])

    # -- connection derivatives --------------------------------------------

    @_memo
    def d_affine(self) -> np.ndarray:
        """partial_s Gamma_{ab}^c, derivative index last."""
        dei, de, dde = self.d_triad_inverse, self.d_triad, self.dd_triad
        return np.einsum("...ics,...iba->...abcs", dei, de) + np.einsum(
            "...ic,...ibas->...abcs", self.triad_inverse, dde
        )

    @_memo
    def d_christoffel(self) -> np.ndarray:
        ddg = self.dd_metric
        d_first = 0.5 * (np.einsum("...bcas->...abcs", ddg) + np.einsum("...acbs->...abcs", ddg) - ddg)
        return np.einsum("...cds,...abd->...abcs", self.d_metric_inverse, self.christoffel_first) + np.einsum(
            "...cd,...abds->...abcs", self.metric_inverse, d_first
        )

    @_memo
    def d_contortion(self) -> np.ndarray:
        dc = self.d_affine
        ds = 0.5 * (dc - dc.swapaxes(-4, -3))
        ds_first = np.einsum("...abds,...dc->...abcs", ds, self.metric) + np.einsum(
            "...abd,...dcs->...abcs", self.torsion, self.d_metric
        )
        dk_first = ds_first - np.einsum("...bcas->...abcs", ds_first) + np.einsum("...cabs->...abcs", ds_first)
        return np.einsum("...cds,...abd->...abcs", self.d_metric_inverse, self.contortion_first) + np.einsum(
            "...cd,...abds->...abcs", self.metric_inverse, dk_first
        )

    # -- curvature ---------------------------------------------------------

    @_memo
    def curvature(self) -> np.ndarray:
        """R_{mnl}^k from the affine connection."""
        return _curvature_from(self.d_affine, self.affine)

    @_memo
    def curvature_riemann(self) -> np.ndarray:
        """Rbar_{mnl}^k from the Christoffel symbol."""
        return _curvature_from(self.d_christoffel, self.christoffel)

    @_memo
    def ricci(self) -> np.ndarray:
        return np.einsum("...mnlm->...nl", self.curvature)

    @_memo
    def ricci_riemann(self) -> np.ndarray:
        return np.einsum("...mnlm->...nl", self.curvature_riemann)

    @_memo
    def scalar(self):
        return _scalar(np.einsum("...nl,...nl->...", self._inverse, self.ricci))

    @_memo
    def scalar_riemann(self):
        return _scalar(np.einsum("...nl,...nl->...", self._inverse, self.ricci_riemann))

    @_memo
    def einstein(self) -> np.ndarray:
        """G_munu = Rbar_munu - g_munu Rbar / 2 (diagnostic tensor only)."""
        return self.ricci_riemann - 0.5 * self.metric * np.asarray(self.scalar_riemann)[..., None, None]


class _TorsionFreePoint(PointGeometry):
    """The bundle of a metric-only geometry: torsion-free by construction, so each
    affine-side quantity is the Riemann-side one itself."""

    metric = _memo(lambda self: self.geometry.field.metric(self.q))
    d_metric = _memo(lambda self: self.geometry.field.d_metric(self.q))
    dd_metric = _memo(lambda self: self.geometry.field.dd_metric(self.q))
    affine = property(lambda self: self.christoffel)
    affine_from_inverse = property(lambda self: self.christoffel)
    d_affine = property(lambda self: self.d_christoffel)
    curvature = property(lambda self: self.curvature_riemann)
    ricci = property(lambda self: self.ricci_riemann)
    scalar = property(lambda self: self.scalar_riemann)
    torsion = _memo(lambda self: np.zeros_like(self.d_metric))  # S_{ab}^c, shaped as g_{ab,c}
    d_contortion = _memo(lambda self: np.zeros(self.torsion.shape + self.torsion.shape[-1:]))
    _inverse = _memo(PointGeometry.metric_inverse.func)  # unchecked: d_metric_inverse names its overflow

    @_memo
    def metric_inverse(self) -> np.ndarray:
        """g^-1; one that overflows (near a pole of the sphere) raises ``NonFiniteResult``."""
        gi = self._inverse
        if not np.isfinite(gi).all():
            bad = _first(self.q, ~np.isfinite(gi).all(axis=(-2, -1)))
            raise NonFiniteResult(f"{self.geometry.name}: inverse metric is not finite at q={bad}")
        return gi

    @_memo
    def chart_scale(self):
        """The least metric eigenvalue: the metric degenerates where it reaches zero."""
        return _scalar(np.linalg.eigvalsh(self.metric)[..., 0])


def _curvature_from(d_conn: np.ndarray, conn: np.ndarray) -> np.ndarray:
    curl = np.einsum("...nlkm->...mnlk", d_conn) - np.einsum("...mlkn->...mnlk", d_conn)
    comm = np.einsum("...mls,...nsk->...mnlk", conn, conn) - np.einsum("...nls,...msk->...mnlk", conn, conn)
    return curl - comm


class Geometry:
    """
    Evaluator bundle over a triad or metric field, with its catalog metadata:
    ``name`` (default: the field's), factory ``params``, the propagation
    ``topology`` (line, circle, sphere or None) and the ``sample_box`` of
    :meth:`random_points`.  The field supplies every derivative the bundle
    needs; one it was not given is the central difference of the next lower
    one.
    """

    def __init__(self, field: Field, *, name: str | None = None, params: dict | None = None,
                 topology: str | None = None, sample_box: list | None = None):
        self.field = field
        self.dim = field.dim
        self.metric_only = isinstance(field, MetricField)
        self._point = _TorsionFreePoint if self.metric_only else PointGeometry
        self.name = name if name is not None else getattr(field, "name", "geometry")
        self.params = dict(params or {})
        self.topology = topology
        self.sample_box = sample_box
        self._last = None  # (bytes of q, PointGeometry) of the last point passed to at()

    def at(self, q) -> PointGeometry:
        """The bundle at one point ``q`` of shape (D,); the last point's bundle is reused."""
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dim,):
            raise ValueError(f"{self.name}: point must have shape ({self.dim},), got {q.shape}")
        key = q.tobytes()
        last = self._last  # read and replaced as one tuple: a concurrent caller still gets its own point
        if last is not None and last[0] == key:
            return last[1]
        pt = self._point(self, q.copy())
        self._last = (key, pt)
        return pt

    def batch(self, points) -> PointGeometry:
        """The bundle at every row of ``points`` (n, D), evaluated as one stack."""
        points = np.array(points, dtype=float)  # a copy: the bundle is evaluated lazily
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(f"{self.name}: points must have shape (n, {self.dim}), got {points.shape}")
        return self._point(self, points)

    def random_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw points from the catalog sample box (set for catalog entries)."""
        if self.sample_box is None:
            raise ValueError(f"{self.name}: no sample box defined")
        lo = np.array([b[0] for b in self.sample_box])
        hi = np.array([b[1] for b in self.sample_box])
        return rng.uniform(lo, hi, size=(n, self.dim))


# ---------------------------------------------------------------------------
# Operation-level wrappers
# ---------------------------------------------------------------------------


def reciprocal_triad(geom: Geometry, q) -> np.ndarray:
    """Reciprocal D-ad e_i^mu at q, satisfying e_i^mu e^i_nu = delta^mu_nu."""
    return geom.at(q).triad_inverse


def induced_metric(geom: Geometry, q) -> dict:
    """Metric data {g, g_inv, det, sqrt_det} induced by the triad at q."""
    pt = geom.at(q)
    return {"g": pt.metric, "g_inv": pt.metric_inverse, "det": pt.det_metric, "sqrt_det": pt.sqrt_metric}


def connection_bundle(geom: Geometry, q) -> dict:
    """
    Connections and torsion content at q.

    Returns the affine connection in both equivalent forms (direct and via
    the derivative of the reciprocal triad), the Christoffel symbol, torsion,
    its vector trace, and the contortion tensor.
    """
    pt = geom.at(q)
    return {
        "affine": pt.affine,
        "affine_alt": pt.affine_from_inverse,
        "christoffel": pt.christoffel,
        "christoffel_first": pt.christoffel_first,
        "torsion": pt.torsion,
        "torsion_trace": pt.torsion_trace,
        "contortion": pt.contortion,
    }


def curvature_bundle(geom: Geometry, q) -> dict:
    """Curvature tensors, Ricci contractions, scalars and Einstein tensor at q."""
    pt = geom.at(q)
    return {
        "curvature": pt.curvature,
        "curvature_riemann": pt.curvature_riemann,
        "ricci": pt.ricci,
        "ricci_riemann": pt.ricci_riemann,
        "scalar": pt.scalar,
        "scalar_riemann": pt.scalar_riemann,
        "einstein": pt.einstein,
    }


def covariant_derivative(
    geometry: Geometry,
    field: Callable[[np.ndarray], np.ndarray],
    q,
    *,
    variance: Sequence[str] = ("upper",),
    mode: str = "riemann",
) -> TensorValue:
    """
    Covariant derivative of a tensor field at q.

    ``mode='riemann'`` uses the Christoffel symbol, ``mode='affine'`` the full
    affine connection.  Upper indices receive ``+Gamma`` terms, lower indices
    ``-Gamma`` terms; a rank-0 (scalar) field returns the plain gradient.
    The partial derivative of ``field`` is formed by central differences with
    relative step ``COVARIANT_FD_STEP``.
    """
    if not callable(field):
        raise DerivativeUnavailable("field must be callable to be differentiated")
    if mode not in ("riemann", "affine"):
        raise ValueError("mode must be 'riemann' or 'affine'")
    q = np.asarray(q, dtype=float)
    pt = geometry.at(q)
    conn = pt.christoffel if mode == "riemann" else pt.affine
    value = np.asarray(field(q), dtype=float)
    rank = value.ndim
    if rank != len(variance):
        raise ValueError("variance must list one position per tensor index")

    partial = _central_diff(field, q, COVARIANT_FD_STEP)  # derivative axis last
    # Result layout: derivative index first, then the field's own indices.
    out = np.moveaxis(partial, -1, 0)
    for slot, pos in enumerate(variance):
        if pos not in ("upper", "lower"):
            raise ValueError("variance entries must be 'upper' or 'lower'")
        # upper: + Gamma_{m s}^{n} T^{... s ...}; lower: - Gamma_{m n}^{s} T_{... s ...}; both [m, n, rest]
        corr = np.tensordot(conn, value, axes=([1], [slot])) if pos == "upper" else -np.tensordot(
            conn, value, axes=([2], [slot]))
        out = out + np.moveaxis(corr, 1, slot + 1)
    return TensorValue(("lower",) + tuple(variance), out, q)
