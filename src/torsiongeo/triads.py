"""
Triad and metric fields: the raw input of every geometric computation.

A triad field supplies the D x D matrix e^i_mu(q) relating flat differentials
dx^i to chart differentials dq^mu, together with its first and second partial
derivatives.  Everything else (metric, connections, torsion, curvature) is
derived from it.  A metric field supplies g_munu(q) and its derivatives
directly: its bundle is torsion-free (the affine connection is the Christoffel
symbol), and the field has no triad, so asking it for one raises
``TriadUnavailable``.

Evaluator contract: every evaluator takes points of shape ``(..., D)`` and
returns arrays with the same leading (batch) axes, ``(..., D, D)``,
``(..., D, D, D)`` or ``(..., D, D, D, D)``.  A single point of shape ``(D,)``
has batch shape ``()`` and gets the per-point arrays; a stack of n points
``(n, D)`` is evaluated in one call.  Every field checks the returned shape,
and its ``|det e|`` and positive-definiteness guards run over the whole stack;
a NaN fails them.  A derivative that is not finite raises ``NonFiniteResult``.
Index conventions, after the batch axes:

* ``triad(q)[..., i, mu]``          -> e^i_mu
* ``d_triad(q)[..., i, mu, nu]``    -> e^i_{mu,nu}  (partial-derivative index last)
* ``dd_triad(q)[..., i, mu, nu, la]`` -> e^i_{mu,nu la}, symmetric in (nu, la)
* ``metric(q)[..., mu, nu]``        -> g_munu
* ``d_metric(q)[..., mu, nu, si]``  -> g_{munu,si}
* ``dd_metric(q)[..., mu, nu, si, ta]`` -> g_{munu,si ta}

A missing derivative is the central difference of the next lower one (the
analytic first derivative when one is given, else the difference of the
evaluator), with the per-point step ``h = fd_step * (1 + |q|)`` (``fd_step``
is a TriadField argument; metric fields use ``DEFAULT_FD_STEP``).  Each
shifted copy of the whole stack is one evaluator call, so a field given by its
evaluator alone costs 2D calls for the first derivative and (2D)^2 for the
second.
"""

from __future__ import annotations

import csv
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import MetricNotPositiveDefinite, NonFiniteResult, SingularTriad, TriadUnavailable
from .io import _write_table

DEFAULT_FD_STEP = 1e-5
GRID_FD_STEP = 1e-4  # fields interpolated from a CSV grid
DET_THRESHOLD = 1e-12


def _per_point(values: np.ndarray, ndim: int) -> np.ndarray:
    """Append unit axes to per-point ``values`` so they broadcast over ``ndim``-d outputs."""
    return np.reshape(values, np.shape(values) + (1,) * (ndim - np.ndim(values)))


def _central_diff(func: Callable[[np.ndarray], np.ndarray], q: np.ndarray, step: float) -> np.ndarray:
    """Central first differences of ``func`` at points ``q`` (..., D); derivative axis appended last."""
    q = np.asarray(q, dtype=float)
    h = step * (1.0 + np.linalg.norm(q, axis=-1))
    shift = h[..., None, None] * np.eye(q.shape[-1])  # [..., nu, :] = h e_nu
    d = np.stack([np.asarray(func(q + e)) - np.asarray(func(q - e)) for e in np.moveaxis(shift, -2, 0)], axis=-1)
    return d / _per_point(2.0 * h, d.ndim)


def _checked(values, q: np.ndarray, dim: int, rank: int, name: str) -> np.ndarray:
    """``values`` as a float array, which must have shape ``q.shape[:-1] + (dim,) * rank``."""
    values = np.asarray(values, dtype=float)
    expected = q.shape[:-1] + (dim,) * rank
    if values.shape != expected:
        raise ValueError(f"{name}: evaluator returned shape {values.shape}, expected {expected}")
    return values


def _derivative(evals: tuple, order: int, q, dim: int, step: float, name: str) -> np.ndarray:
    """Derivative of the given ``order`` of ``evals[0]`` at ``q``: the analytic ``evals[order]``
    when supplied, else the central difference of the derivative one order lower.  A value that
    is not finite raises ``NonFiniteResult`` naming the first point that has one."""
    q = np.asarray(q, dtype=float)
    if evals[order] is not None:
        values = _checked(evals[order](q), q, dim, 2 + order, name)
    else:
        values = _central_diff(lambda p: _derivative(evals, order - 1, p, dim, step, name), q, step)
    return _finite(values, q, f"derivative of order {order}", name)


def _first(q: np.ndarray, bad: np.ndarray) -> Optional[list]:
    """The first point of ``q`` (..., D) flagged by ``bad`` (...), or None."""
    if bad.ndim == 0:  # a single point: skip the reduction machinery
        return q.tolist() if bad else None
    return q[bad][0].tolist() if bad.any() else None


def _finite(values: np.ndarray, q: np.ndarray, what: str, name: str) -> np.ndarray:
    """``values`` at the points ``q`` (..., D); one that is not finite raises
    ``NonFiniteResult("<name>: <what> is not finite at q=<first bad point>")``."""
    if not np.isfinite(values).all():
        bad = _first(q, ~np.isfinite(values).all(axis=tuple(range(q.ndim - 1, values.ndim))))
        raise NonFiniteResult(f"{name}: {what} is not finite at q={bad}")
    return values


class TriadField:
    """
    Field of basis D-ads e^i_mu(q) with first/second derivative evaluators.

    Parameters
    ----------
    dim : int
        Chart dimension D.
    eval : callable
        points ``(..., D) -> (..., D, D)`` array with ``[..., i, mu]`` layout.
    d_eval, dd_eval : callable, optional
        Analytic first/second partials (layouts as in the module docstring).
        A missing one is the central difference of the next lower one.
    fd_step : float
        Relative step of those central differences.
    name : str
        Label used in diagnostics.
    """

    def __init__(
        self,
        dim: int,
        eval: Callable[[np.ndarray], np.ndarray],
        d_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        dd_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        *,
        fd_step: float = DEFAULT_FD_STEP,
        name: str = "triad",
    ):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self.dim = int(dim)
        self._eval = eval
        self._d_eval = d_eval
        self._dd_eval = dd_eval
        self.fd_step = float(fd_step)
        self.name = name

    def triad(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        e = _checked(self._eval(q), q, self.dim, 2, self.name)
        with np.errstate(invalid="ignore"):  # a NaN triad fails the guard below, without a warning
            det = np.linalg.det(e)
        bad = _first(q, ~(np.abs(det) >= DET_THRESHOLD))
        if bad is not None:
            raise SingularTriad(f"{self.name}: |det e| below {DET_THRESHOLD} or NaN at q={bad}")
        return e

    def d_triad(self, q) -> np.ndarray:
        return _derivative((self._eval, self._d_eval, self._dd_eval), 1, q, self.dim, self.fd_step, self.name)

    def dd_triad(self, q) -> np.ndarray:
        return _derivative((self._eval, self._d_eval, self._dd_eval), 2, q, self.dim, self.fd_step, self.name)


class MetricField:
    """
    Geometry specified by a metric alone.  Its bundle is torsion-free by
    construction, and the field has no triad: ``triad``, ``d_triad`` and
    ``dd_triad`` raise ``TriadUnavailable``.
    """

    def __init__(
        self,
        dim: int,
        metric: Callable[[np.ndarray], np.ndarray],
        d_metric: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        dd_metric: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        *,
        name: str = "metric",
    ):
        self.dim = int(dim)
        self._metric = metric
        self._d_metric = d_metric
        self._dd_metric = dd_metric
        self.name = name

    def metric(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        g = _checked(self._metric(q), q, self.dim, 2, self.name)
        bad = _first(q, ~(np.linalg.eigvalsh(0.5 * (g + np.swapaxes(g, -1, -2))).min(axis=-1) > 0.0))
        if bad is not None:
            raise MetricNotPositiveDefinite(f"{self.name}: metric not positive definite at q={bad}")
        return g

    def d_metric(self, q) -> np.ndarray:
        return _derivative((self._metric, self._d_metric, self._dd_metric), 1, q, self.dim, DEFAULT_FD_STEP, self.name)

    def dd_metric(self, q) -> np.ndarray:
        return _derivative((self._metric, self._d_metric, self._dd_metric), 2, q, self.dim, DEFAULT_FD_STEP, self.name)

    def triad(self, q) -> np.ndarray:
        raise TriadUnavailable(f"{self.name}: a metric field has no triad")

    d_triad = dd_triad = triad


def _grid_header(dim: int) -> list:
    """The triad grid CSV header: ``q1..qD`` then the triad entries ``e_i_mu`` in row-major ``[i, mu]`` order."""
    return [f"q{k + 1}" for k in range(dim)] + [f"e_{i + 1}_{m + 1}" for i in range(dim) for m in range(dim)]


def triad_grid_from_csv(path) -> TriadField:
    """
    Load a triad field sampled on a uniform rectilinear grid from CSV.

    Expected header: ``q1,...,qD,e_1_1,...,e_D_D`` with the triad entries in
    row-major ``[i, mu]`` order.  Components are interpolated with cubic
    splines (at least four points per axis) and derivatives are taken by
    finite differences of the interpolant, with relative step ``GRID_FD_STEP``.
    The field is labelled ``grid:<path>``.
    """
    from scipy.interpolate import RegularGridInterpolator

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    header = [c.strip() for c in rows[0]]
    dim = sum(1 for c in header if c.startswith("q"))
    expected = _grid_header(dim)
    if header != expected:
        raise ValueError(f"{path}: header {header} does not match schema {expected}")
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    if data.shape[1] != dim + dim * dim:
        raise ValueError(f"{path}: wrong column count")

    axes = []
    for k in range(dim):
        vals = np.unique(data[:, k])
        if vals.size < 4:
            raise ValueError(f"{path}: axis q{k + 1} needs at least 4 distinct values for cubic interpolation")
        steps = np.diff(vals)
        if np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
            raise ValueError(f"{path}: axis q{k + 1} is not uniformly spaced")
        axes.append(vals)
    shape = tuple(len(a) for a in axes)
    if data.shape[0] != int(np.prod(shape)):
        raise ValueError(f"{path}: row count does not fill the rectilinear grid")

    # Sort rows lexicographically by (q1, ..., qD) so values reshape onto the grid.
    order = np.lexsort(tuple(data[:, k] for k in reversed(range(dim))))
    data = data[order]
    # one interpolator of all D * D components, evaluated on the whole point stack
    interp = RegularGridInterpolator(axes, data[:, dim:].reshape(shape + (dim * dim,)), method="cubic")

    def evaluate(q: np.ndarray) -> np.ndarray:
        return interp(q).reshape(q.shape[:-1] + (dim, dim))

    return TriadField(dim, evaluate, fd_step=GRID_FD_STEP, name=f"grid:{path}")


def sample_triad_to_csv(field: TriadField, axes: Sequence[np.ndarray], path) -> None:
    """Write ``field`` sampled on the outer product of ``axes`` in the CSV schema."""
    dim = field.dim
    if len(axes) != dim:
        raise ValueError("one axis per chart dimension required")
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    _write_table(path, np.column_stack([points, field.triad(points).reshape(len(points), -1)]), _grid_header(dim))
