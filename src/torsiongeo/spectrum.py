"""
Energy extraction from Euclidean traces.

A trace Z(tau) sampled at several times is fit to a sum of decaying
exponentials sum_k A_k exp(-E_k tau / hbar) with nonnegative amplitudes:
first a nonnegative least squares solve over a dense trial energy grid,
whose support clusters seed the level list, then a bounded local refinement
of (A_k, E_k) on relative residuals.

The CLI reads its levels from the transfer matrix's eigenvalues instead; this
fit is their independent oracle and the tool for externally supplied traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedFit

E_MIN = -2.0  # lowest trial energy of the NNLS grid
AMPLITUDE_FLOOR = 1e-4  # clusters below this fraction of the largest amplitude are dropped


@dataclass
class EnergyLevel:
    energy: float
    amplitude: float


@dataclass
class SpectrumFit:
    levels: list[EnergyLevel]
    residual: float  # rms relative misfit

    @property
    def energies(self) -> list[float]:
        return [lev.energy for lev in self.levels]


def extract_spectrum(
    taus,
    values,
    *,
    hbar: float = 1.0,
    n_levels: int = 4,
    e_max: float | None = None,
    n_trial: int = 2400,
    residual_threshold: float = 1e-3,
) -> SpectrumFit:
    """
    Fit ``values(taus)`` to a nonnegative sum of decaying exponentials.

    Needs at least four tau values.  ``e_max`` defaults to the decay rate
    resolvable at the smallest tau.  Raises ``IllConditionedFit`` when the
    refined rms relative residual exceeds ``residual_threshold``.
    """
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    if taus.size < 4:
        raise ValueError("need at least 4 tau samples")
    if taus.size != values.size:
        raise ValueError("taus and values must have equal length")
    if np.any(values <= 0):
        raise ValueError("trace values must be positive on the Euclidean contour")
    order = np.argsort(taus)
    taus, values = taus[order], values[order]
    if e_max is None:
        e_max = 12.0 * hbar / taus[0]
    # each level carries two parameters; more levels than the data can pin
    # would make the refinement stage non-unique
    n_levels = min(int(n_levels), taus.size // 2)

    # Stage 1: nonnegative least squares on a dense trial grid, relative rows.
    trial = np.linspace(E_MIN, e_max, int(n_trial))
    design = np.exp(-np.outer(taus, trial) / hbar) / values[:, None]
    amps, _ = nnls(design, np.ones_like(values))

    clusters = _cluster(trial, amps)
    if not clusters:
        raise IllConditionedFit("no decaying components found")
    clusters.sort(key=lambda ea: ea[0])
    floor = AMPLITUDE_FLOOR * max(a for _, a in clusters)
    clusters = [(e, a) for e, a in clusters if a >= floor][: int(n_levels)]

    # Stage 2: joint local refinement with nonnegative amplitudes.
    e0 = np.array([e for e, _ in clusters])
    a0 = np.array([a for _, a in clusters])
    x0 = np.concatenate([e0, np.sqrt(a0)])

    def model(x):
        es, ra = x[: len(e0)], x[len(e0):]
        return (ra**2)[None, :] * np.exp(-np.outer(taus, es) / hbar)

    def resid(x):
        return (model(x).sum(axis=1) - values) / values

    lo = np.concatenate([np.full(len(e0), E_MIN), np.zeros(len(e0))])
    hi = np.concatenate([np.full(len(e0), e_max), np.full(len(e0), np.inf)])
    sol = least_squares(resid, x0, bounds=(lo, hi), xtol=1e-14, ftol=1e-14, gtol=1e-14)
    es, amps = sol.x[: len(e0)], sol.x[len(e0):] ** 2
    rms = float(np.sqrt(np.mean(resid(sol.x) ** 2)))
    if rms > residual_threshold:
        raise IllConditionedFit(f"spectrum fit residual {rms:.3e} exceeds {residual_threshold:.3e}")
    order = np.argsort(es)
    levels = [EnergyLevel(float(es[i]), float(amps[i])) for i in order]
    return SpectrumFit(levels, rms)


def nnls(a, b):
    """scipy.optimize.nnls, imported on first call so that importing this module loads no solver."""
    from scipy.optimize import nnls as solve
    return solve(a, b)


def least_squares(fun, x0, **kwargs):
    """scipy.optimize.least_squares, imported on first call like :func:`nnls`."""
    from scipy.optimize import least_squares as solve
    return solve(fun, x0, **kwargs)


def _cluster(trial: np.ndarray, amps: np.ndarray) -> list[tuple[float, float]]:
    """Merge contiguous nonzero trial-grid amplitudes into (energy, weight)."""
    out = []
    current_w = 0.0
    current_ew = 0.0
    last_idx = None
    for idx in np.nonzero(amps > 0)[0]:
        if last_idx is not None and idx - last_idx > 2:
            out.append((current_ew / current_w, current_w))
            current_w = current_ew = 0.0
        current_w += amps[idx]
        current_ew += amps[idx] * trial[idx]
        last_idx = idx
    if current_w > 0:
        out.append((current_ew / current_w, current_w))
    return out


def richardson_pair(levels_full: list[float], levels_half: list[float]) -> list[float]:
    """Step-halving extrapolation of leading-order slicing error: levels from
    runs at eps and eps/2 (same total times) combine to 2 E(eps/2) - E(eps)."""
    return [2.0 * eh - ef for ef, eh in zip(levels_full, levels_half)]
