"""CSV writers/readers and the JSON writer, with fixed schemas.

Schemas (column order is part of the contract):

* trajectory CSV: ``t,q1..qD,qdot1..qdotD``
* variation CSV:  ``t,dq1..dqD,db1..dbD``
* contour CSV:    ``q1,q2`` closed vertex list
* amplitude CSV:  first row ``tau,<grid values...>``, then one row per grid
  point: ``q_b,<kernel row>``; the kernel block is exactly symmetric

Every CSV value is the shortest round-trip ``repr`` of a float, fields are
comma separated and rows end in CRLF, the bytes ``csv.writer`` produces for
such rows.  All four writers, and ``triads.sample_triad_to_csv``, go through
:func:`_write_table`, which formats each distinct float once, so a symmetric
kernel costs about half the formatting of its entry count.

JSON payloads are written with sorted keys and a fixed float notation so a
given result is byte-stable across runs; :func:`jsonable` converts a payload
and refuses its non-finite numbers, and :func:`dump_json` writes what it is given.
"""

from __future__ import annotations

import csv
import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import NonFiniteResult

if TYPE_CHECKING:  # the writers only read attributes; a command loads neither module unless it runs it
    from .defects import Contour
    from .dynamics import Trajectory, VariationRecord


def jsonable(obj, path: str = "results"):
    """The payload with numpy scalars and arrays turned into plain numbers and lists, in one walk.

    A non-finite number raises ``NonFiniteResult`` naming its entry from ``path``,
    for example ``results.energies[2] is not finite``.
    """
    if isinstance(obj, dict):
        return {k: jsonable(v, f"{path}.{k}") for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [jsonable(v, f"{path}[{k}]") for k, v in enumerate(obj)]
    if isinstance(obj, (np.floating, float)):
        if not math.isfinite(obj):
            raise NonFiniteResult(f"{path} is not finite")
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def dump_json(obj, path) -> None:
    """Write ``obj``, plain JSON values (see :func:`jsonable`), with sorted keys."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_table(path, table, header=None) -> None:
    """Write a 2-d float table as CSV rows of ``repr`` text, after an optional text header row.

    Each distinct float is formatted once: ``np.unique`` runs on the int64 bit
    patterns, which keeps ``-0.0`` apart from ``0.0``, and the strings are
    scattered back through the inverse index.
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    bits, inverse = np.unique(table.view(np.int64).ravel(), return_inverse=True)
    text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    rows = text[inverse].reshape(table.shape).tolist()
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    d = traj.q.shape[1]
    header = ["t"] + [f"q{i + 1}" for i in range(d)] + [f"qdot{i + 1}" for i in range(d)]
    _write_table(path, np.column_stack([traj.t, traj.q, traj.v]), header)


def read_trajectory_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    d = (len(header) - 1) // 2
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    return data[:, 0], data[:, 1 : 1 + d], data[:, 1 + d :]


def write_variation_csv(record: VariationRecord, path) -> None:
    d = record.dq.shape[1]
    header = ["t"] + [f"dq{i + 1}" for i in range(d)] + [f"db{i + 1}" for i in range(d)]
    _write_table(path, np.column_stack([record.t, record.dq, record.db]), header)


def read_contour_csv(path) -> Contour:
    from .defects import Contour

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows and rows[0] and rows[0][0].strip().lower() == "q1":
        rows = rows[1:]
    pts = np.array([[float(a), float(b)] for a, b in rows])
    return Contour(pts)


def write_contour_csv(contour: Contour, path) -> None:
    _write_table(path, contour.points, ["q1", "q2"])


def write_amplitude_csv(grid: np.ndarray, matrix: np.ndarray, tau: float, path) -> None:
    _write_table(path, np.column_stack([np.r_[tau, grid], np.vstack([grid, matrix])]))
