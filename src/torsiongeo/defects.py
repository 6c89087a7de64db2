"""
Crystal-defect mappings and their discrete loop diagnostics.

The dislocation dyad carries torsion concentrated at the origin; the loop
integral of the dyad around a contour (the closure failure of the mapped-back
path, i.e. the Burgers vector) measures the torsion flux through the contour.
The disclination chart removes an angular sector; its metric is single-valued
and flat off the origin, but the local rotation field -omega phi is
multivalued: its loop integral, the Frank rotation deficit, restates the
strength as -2 pi omega per winding.  A defect is its catalog geometry.

Distributional statements are implemented only in integrated (loop) form; the
concentrated sources are never evaluated pointwise.  The multivalued angle is
tracked by branch continuation along contours, never by a principal-value
arctangent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import TWO_PI
from .catalog import disclination as _disclination_geometry
from .catalog import dislocation as _dislocation_geometry
from .errors import OriginOnContour, ValidationError
from .geometry import Geometry

DEFAULT_SEGMENTS = 4096
ORIGIN_TOL = 1e-9  # closest a contour vertex may come to the origin


@dataclass
class Contour:
    """A closed polyline in the plane, with winding metadata about the origin."""

    points: np.ndarray  # (K+1, 2), closed: points[-1] == points[0]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4 or not np.isfinite(pts).all():
            raise ValueError("contour needs an (n, 2) array of finite numbers with at least 4 rows")
        if not np.allclose(pts[0], pts[-1], rtol=0.0, atol=1e-12):  # numpy's rtol would close a far contour
            raise ValueError("contour must close on itself (first row == last row)")
        if np.any(np.all(np.abs(np.diff(pts[:-1], axis=0)) < 1e-15, axis=1)):
            raise ValueError("consecutive contour points must be distinct")
        if np.min(np.hypot(pts[:, 0], pts[:, 1])) < ORIGIN_TOL:
            raise OriginOnContour("contour vertex at (or too near) the origin")
        self.points = pts

    @classmethod
    def circle(cls, radius: float, segments: int = DEFAULT_SEGMENTS, center=(0.0, 0.0), turns: int = 1) -> "Contour":
        if radius <= 0 or segments < 3:
            raise ValueError("need positive radius and at least 3 segments")
        angles = np.linspace(0.0, TWO_PI * turns, segments * abs(turns) + 1)
        cx, cy = center
        pts = np.stack([cx + radius * np.cos(angles), cy + radius * np.sin(angles)], axis=1)
        pts[-1] = pts[0]
        return cls(pts)

    @property
    def winding_number(self) -> int:
        """Signed number of turns about the origin (branch-continued angle)."""
        phi = multivalued_angle_along(self)
        return int(round((phi[-1] - phi[0]) / TWO_PI))

    @property
    def encloses_origin(self) -> bool:
        return self.winding_number != 0


def multivalued_angle_along(contour: Contour) -> np.ndarray:
    """
    Continuous samples of the polar angle along the contour, with the branch
    chosen by nearest continuation.  The total increment is 2 pi per winding
    about the origin and zero for non-enclosing contours.
    """
    pts = contour.points
    raw = np.arctan2(pts[:, 1], pts[:, 0])
    steps = np.diff(raw)
    steps = (steps + math.pi) % TWO_PI - math.pi
    return raw[0] + np.concatenate([[0.0], np.cumsum(steps)])


@dataclass
class DefectGeometry:
    """A dislocation or disclination: its catalog geometry, named by its kind, with its strength as one parameter."""

    geometry: Geometry

    @classmethod
    def dislocation(cls, epsilon: float = 0.01) -> "DefectGeometry":
        return cls(_dislocation_geometry(epsilon))


def disclination_geometry(omega: float) -> DefectGeometry:
    """Wedge disclination with a missing sector of angle 2 pi omega (to
    leading order in omega): single-valued metric, zero torsion, curvature
    concentrated at the origin."""
    return DefectGeometry(_disclination_geometry(omega))


def burgers_vector(defect: DefectGeometry, contour: Contour) -> np.ndarray:
    """
    Flat-index Burgers vector b^i = loop integral of e^i_mu dq^mu, by the
    trapezoidal rule on the contour vertices.  A contour winding once around
    the origin of a dislocation of modulus epsilon yields (0, epsilon).
    """
    if defect.geometry.name != "dislocation":
        raise ValidationError("burgers_vector needs a dislocation defect")
    pts = contour.points
    triads = defect.geometry.batch(pts).triad  # (K+1, 2, 2)
    dq = np.diff(pts, axis=0)  # (K, 2)
    avg = 0.5 * (triads[:-1] + triads[1:])
    return np.einsum("kim,km->i", avg, dq)


def burgers_vector_chart(defect: DefectGeometry, contour: Contour) -> np.ndarray:
    """
    Chart-index Burgers vector: the closure failure of the q-space image of a
    closed flat-space contour, obtained by integrating dq^mu = e_i^mu dx^i
    along the contour with one ``dynamics._rk4_step`` per segment.  To leading
    order in the defect strength this is minus the flat-index Burgers vector.
    """
    from .dynamics import _rk4_step  # here: the defect command loads no dynamics

    if defect.geometry.name != "dislocation":
        raise ValidationError("burgers_vector_chart needs a dislocation defect")
    geom = defect.geometry
    x_pts = contour.points
    q = x_pts[0]
    for seg in np.diff(x_pts, axis=0):  # dq/ds = e_i^mu dx^i/ds along the straight segment
        q = _rk4_step(lambda frac, y: geom.at(y).triad_inverse.T @ seg, q, 1.0)
    return q - x_pts[0]


def frank_rotation_deficit(defect: DefectGeometry, contour: Contour) -> float:
    """
    Loop integral of the local rotation field -omega phi along the contour, in
    closed form: the Frank rotation deficit -2 pi omega w, for the contour's
    winding number w about the origin.  This is the surface-integrated
    concentrated curvature of the defect.
    """
    if defect.geometry.name != "disclination":
        raise ValidationError("frank_rotation_deficit needs a disclination defect")
    (omega,) = defect.geometry.params.values()
    return -TWO_PI * omega * contour.winding_number + 0.0
