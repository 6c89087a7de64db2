"""torsiongeo: geometry with curvature and torsion, from triad fields to sliced propagators.

The public names load on first access, so importing the package (and
``torsiongeo.cli``) does not import numpy: the CLI sets the BLAS thread
variables before numpy first loads.
"""

import importlib

_EXPORTS = {
    "Geometry": "geometry",
    "TensorValue": "geometry",
    "connection_bundle": "geometry",
    "covariant_derivative": "geometry",
    "curvature_bundle": "geometry",
    "induced_metric": "geometry",
    "reciprocal_triad": "geometry",
    "MetricField": "triads",
    "TriadField": "triads",
    "triad_grid_from_csv": "triads",
    "TorsionGeoError": "errors",
}

__all__ = sorted([*_EXPORTS, "catalog"])

__version__ = "0.1.0"


def __getattr__(name):
    if name == "catalog":
        return importlib.import_module(".catalog", __name__)
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
