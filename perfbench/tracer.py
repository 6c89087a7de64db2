"""Span recorder and seam patching for the per-layer (traced) benchmark runs,
and the run-length rule every workload shares.

Spans are recorded by this file's wrappers around calls into torsiongeo's
modules; nothing inside the package is changed.  A span has a name, start,
end, parent span and job id.  Spans are kept in memory and written out once,
when the traced process ends.

Self time is computed online: when a span ends, its duration is added to its
parent's child time, and the span's self time is its duration minus its own
child time.  Calls are strictly nested in one thread, so this equals the
duration minus the part of the interval its children cover
(:func:`self_times_from_spans` recomputes it offline for the self-test).

Hot seams (``geometry.bundle``, ``triads.field``) fire thousands of times
per operation; they are aggregated per (job, name) but not listed one by
one, which keeps memory flat.
"""

from __future__ import annotations

import functools
import importlib.util
import inspect
import json
import math
import os
import sys
import time

HOT = frozenset({"geometry.bundle", "triads.field"})


def keep_going(started: float, seconds: float, times: list) -> bool:
    """Start another operation only if a typical one still fits."""
    elapsed = time.perf_counter() - started
    typical = sorted(times)[len(times) // 2] if times else 0.0
    return elapsed + typical <= seconds


class Tracer:
    def __init__(self):
        self.job = None
        self.spans = []  # (job, id, parent id, name, start, end) of non-hot spans
        self.stats = {}  # (job, name) -> [calls, total_s, self_s]
        self.counters = {}  # (job, name) -> count
        self.absent = set()  # seams or counters the program no longer offers
        self._stack = []  # [name, id, start, child_s]
        self._next_id = 0

    def begin(self, name):
        self._next_id += 1
        self._stack.append([name, self._next_id, time.perf_counter(), 0.0])

    def end(self):
        end = time.perf_counter()
        name, sid, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        stat = self.stats.setdefault((self.job, name), [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        if name not in HOT:
            self.spans.append((self.job, sid, parent[1] if parent else None, name, start, end))

    def count(self, name, n):
        key = (self.job, name)
        self.counters[key] = self.counters.get(key, 0) + n

    def dump(self) -> dict:
        """JSON-ready copy of everything recorded."""
        return {
            "spans": [list(s) for s in self.spans],
            "stats": [[job, name, *vals] for (job, name), vals in self.stats.items()],
            "counters": [[job, name, n] for (job, name), n in self.counters.items()],
            "absent": sorted(self.absent),
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


def self_times_from_spans(spans):
    """Offline self time per span id: duration minus the union of the
    intervals its direct children cover."""
    children = {}
    for job, sid, parent, name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for job, sid, parent, name, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, [])):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


# ---------------------------------------------------------------------------
# Seams: which public or module-level callables are wrapped, and the counts
# computed from each call's inputs.
# ---------------------------------------------------------------------------


def _kernel_entries_1d(a, result, mod):
    """n^2 x images: one kernel entry per (row, column, winding image)."""
    n, period, config = len(a["nodes"]), a["period"], a["config"]
    if period is None:
        return n * n
    sigma = math.sqrt(config.eps * config.hbar / config.mass) / float(a["geom"].params.get("a", 1.0))
    w_max = math.ceil((mod.TAIL_SIGMA * sigma + period / 2) / period)
    return n * n * (2 * w_max + 1)


def _kernel_entries_sphere(a, result, mod):
    """n_theta^2 x n_zeta: one kernel entry per (row, column, azimuth node)."""
    config, radius = a["config"], float(a["geom"].params.get("a", 1.0))
    sigma = math.sqrt(config.eps * config.hbar / config.mass)
    n_zeta = max(64, int(2 * math.ceil(math.pi * radius * mod.MIN_POINTS_PER_SIGMA * 1.5 / sigma)))
    return int(a["n_theta"]) ** 2 * n_zeta


def _bytes_written(a, result, mod):
    # manifest.json carries a timestamp and wall time; its size is not a count
    path = a["path"]
    return 0 if os.path.basename(str(path)) == "manifest.json" else os.path.getsize(path)


# (module, attribute path, span name or None for a counter-only seam,
#  counter name, counter function of (arguments by name, result, module) or
#  None for a call count)
SEAMS = [
    ("torsiongeo.cli", "load_config", "cli.load_config", None, None),
    ("torsiongeo.cli", "run", "cli.run", None, None),
    ("torsiongeo.catalog", "make", "catalog.make", None, None),
    ("torsiongeo.spectrum", "extract_spectrum", "spectrum.extract", None, None),
    ("torsiongeo.spectrum", "nnls", "spectrum.nnls", None, None),
    ("torsiongeo.spectrum", "least_squares", "spectrum.lsq", "spectrum.nfev", lambda a, r, m: int(r.nfev)),
    ("torsiongeo.propagator", "propagate", "propagator.propagate", None, None),
    ("torsiongeo.propagator", "_build_1d", "propagator.build", "propagator.kernel_entries", _kernel_entries_1d),
    ("torsiongeo.propagator", "_build_sphere", "propagator.build", "propagator.kernel_entries", _kernel_entries_sphere),
    ("torsiongeo.propagator", "_compose", "propagator.compose", "propagator.eigh_n", lambda a, r, m: len(a["b_mat"])),
    ("torsiongeo.propagator", "_CoefficientTable.__init__", "slicing.coef_table", "slicing.coef_points",
     lambda a, r, m: len(a["points"])),
    ("torsiongeo.slicing", "jacobian_action", None, "slicing.jacobian_calls", None),
    ("torsiongeo.geometry", "Geometry.at", None, "geometry.at_calls", None),
    ("torsiongeo.geometry", "PointGeometry.__init__", None, "geometry.points_built", None),
    ("torsiongeo.geometry", "induced_metric", "geometry.bundle", None, None),
    ("torsiongeo.geometry", "connection_bundle", "geometry.bundle", None, None),
    ("torsiongeo.geometry", "curvature_bundle", "geometry.bundle", None, None),
    ("torsiongeo.triads", "TriadField.triad", "triads.field", "triads.field_calls", None),
    ("torsiongeo.triads", "TriadField.d_triad", "triads.field", "triads.field_calls", None),
    ("torsiongeo.triads", "TriadField.dd_triad", "triads.field", "triads.field_calls", None),
    ("torsiongeo.triads", "MetricField.metric", "triads.field", "triads.field_calls", None),
    ("torsiongeo.triads", "MetricField.d_metric", "triads.field", "triads.field_calls", None),
    ("torsiongeo.triads", "MetricField.dd_metric", "triads.field", "triads.field_calls", None),
    ("torsiongeo.dynamics", "integrate_trajectory", "dynamics.integrate", "dynamics.rk4_steps",
     lambda a, r, m: int(round(a["duration"] / a["dt"]))),
    ("torsiongeo.dynamics", "nonholonomic_variation", "dynamics.variation", None, None),
    ("torsiongeo.dynamics", "variation_closed_form", "dynamics.closed_form", None, None),
    ("torsiongeo.dynamics", "expm", None, "dynamics.expm_calls", None),
    ("torsiongeo.dynamics", "modified_el_residual", "dynamics.el_residual", None, None),
    ("torsiongeo.dynamics", "torsion_force", "dynamics.torsion_force", None, None),
    ("torsiongeo.defects", "burgers_vector", "defects.burgers", "defects.vertices",
     lambda a, r, m: len(a["contour"].points)),
    ("torsiongeo.io", "dump_json", "io.write", "io.bytes_written", _bytes_written),
    ("torsiongeo.io", "write_amplitude_csv", "io.write", "io.bytes_written", _bytes_written),
    ("torsiongeo.io", "write_trajectory_csv", "io.write", "io.bytes_written", _bytes_written),
]


def _wrap(fn, tracer, span, counter, compute, mod):
    signature = inspect.signature(fn) if compute is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if span is not None:
            tracer.begin(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            if span is not None:
                tracer.end()
        if counter is not None:
            if compute is None:
                tracer.count(counter, 1)
            else:
                try:
                    tracer.count(counter, compute(signature.bind(*args, **kwargs).arguments, result, mod))
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                    tracer.absent.add(counter)
        return result

    return wrapper


class Patcher:
    """Installs the SEAMS wrappers and restores the originals on uninstall.

    Only modules already loaded are patched, so tracing imports nothing the
    command would not.  A module-level seam is replaced in every loaded
    torsiongeo module that binds the same object under that name, so
    ``from .x import f`` copies are covered.  A seam missing from the program
    is recorded as absent.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def install(self):
        for mod_name, path, span, counter, compute in SEAMS:
            mod = sys.modules.get(mod_name)
            if mod is None:  # not loaded by this command, or gone from the package
                if importlib.util.find_spec(mod_name) is None:
                    self.tracer.absent.add(span or counter)
                continue
            *owner_path, attr = path.split(".")
            owner = mod
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.tracer.absent.add(span or counter)
                continue
            wrapped = _wrap(original, self.tracer, span, counter, compute, mod)
            if owner_path:
                targets = [owner]
            else:
                targets = [m for name, m in list(sys.modules.items())
                           if name.startswith("torsiongeo") and m is not None and vars(m).get(attr) is original]
            for target in targets:
                setattr(target, attr, wrapped)
                self._undo.append((target, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()
