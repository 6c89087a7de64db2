# Oracles shared by the geometry tests: the sphere's diagonal dyad as a
# torsion-carrying triad field, and the curvature relation between the affine
# and the Riemann side of a bundle, at one point or on a stack.

import numpy as np

from torsiongeo import catalog
from torsiongeo.geometry import Geometry
from torsiongeo.triads import TriadField


def sphere_dyad() -> Geometry:
    """The diagonal square root of the sphere metric, treated as a genuine (nonholonomic, torsion-carrying) dyad."""
    base = catalog.make("sphere").field
    field = TriadField(2, base.triad, base.d_triad, base.dd_triad, name="sphere-dyad")
    return Geometry(field, sample_box=[(0.3, np.pi - 0.3), (0.0, 2 * np.pi)])


def curvature_relation_residual(pt) -> float:
    """max |R - (Rbar + Dbar_m K_{nl}^k - Dbar_n K_{ml}^k - [K, K])| of a bundle, with Dbar the Levi-Civita derivative

        Dbar_m K_{nl}^k = d_m K_{nl}^k + Gammabar_{ms}^k K_{nl}^s - Gammabar_{mn}^s K_{sl}^k - Gammabar_{ml}^s K_{ns}^k.
    """
    k, dk, gbar = pt.contortion, pt.d_contortion, pt.christoffel
    dbar = (np.einsum("...nlkm->...mnlk", dk) + np.einsum("...msk,...nls->...mnlk", gbar, k)
            - np.einsum("...mns,...slk->...mnlk", gbar, k) - np.einsum("...mls,...nsk->...mnlk", gbar, k))
    curl = dbar - np.swapaxes(dbar, -4, -3)
    commutator = np.einsum("...mls,...nsk->...mnlk", k, k) - np.einsum("...nls,...msk->...mnlk", k, k)
    return float(np.max(np.abs(pt.curvature - (pt.curvature_riemann + curl - commutator))))
