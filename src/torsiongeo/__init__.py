"""torsiongeo: geometry with curvature and torsion, from triad fields to sliced propagators.

Every public name lives in its module (``from torsiongeo.geometry import Geometry``).  Importing
the package imports nothing else, so the CLI sets the BLAS thread variables before numpy first loads.
"""

__version__ = "0.1.0"
