# Oracles shared by the geometry tests: the unit sphere's dyad diag(1, sin theta)
# as a torsion-carrying triad field, and the curvature relation between the
# affine and the Riemann side of a bundle, at one point or on a stack.

import numpy as np

from torsiongeo.geometry import Geometry
from torsiongeo.triads import TriadField


def sphere_dyad() -> Geometry:
    """The unit sphere's dyad e = diag(1, sin theta), in closed form, treated as a genuine (nonholonomic,
    torsion-carrying) dyad: its metric is the sphere's, its connection e^-1 de is not the Christoffel symbol."""

    def evaluate(q):
        e = np.zeros(np.shape(q)[:-1] + (2, 2))
        e[..., 0, 0], e[..., 1, 1] = 1.0, np.sin(q[..., 0])
        return e

    def d_evaluate(q):
        de = np.zeros(np.shape(q)[:-1] + (2, 2, 2))
        de[..., 1, 1, 0] = np.cos(q[..., 0])
        return de

    def dd_evaluate(q):
        dde = np.zeros(np.shape(q)[:-1] + (2, 2, 2, 2))
        dde[..., 1, 1, 0, 0] = -np.sin(q[..., 0])
        return dde

    field = TriadField(2, evaluate, d_evaluate, dd_evaluate, name="sphere-dyad")
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
