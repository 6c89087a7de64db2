"""Oracle checks on the artifacts of one CLI job, read back after the job's
timed interval.  Each check maps a name to ``(value, limit)`` and passes when
``value <= limit``; the tolerances are those of the acceptance tests named.
Each checker also returns the job's accuracy figure (lower is better).
"""

from __future__ import annotations

import json
import math
import os


def _results(out_dir):
    with open(os.path.join(out_dir, "results.json")) as fh:
        return json.load(fh)


def check_burgers(out_dir, config):
    """C07: a unit loop around the dislocation core gives b = (0, epsilon)."""
    b = _results(out_dir)["b"]
    eps = config["epsilon"]
    checks = {"c07_b1": (abs(b[0]), 1e-6 * eps), "c07_b2": (abs(b[1] - eps), 1e-6 * eps)}
    return checks, {"burgers_rel_err": abs(b[1] - eps) / eps}


def check_circle(out_dir, config):
    """C10's 1% rule, applied to every reported level against the nearest
    analytic level l^2 / 2a^2 (relative to E_1 for the ground level), so a
    listing that resolves the +-m degeneracy passes as well.  The config's
    n_levels levels must all be reported, and the matched l must run from 0
    without a gap up to at least 2, so a dropped level fails."""
    energies = _results(out_dir)["energies"]
    n_levels = int(config.get("n_levels", 4))
    a = config.get("a", 1.0)
    e1 = 1.0 / (2 * a * a)
    checks, worst, matched = {}, 0.0, set()
    for k, e in enumerate(energies):
        ell = round(math.sqrt(max(e, 0.0) / e1))
        exact = ell * ell * e1
        err = abs(e - exact)
        checks[f"c10_level_{k}"] = (err, 0.01 * max(exact, e1))
        worst = max(worst, err)
        matched.add(ell)
    checks["c10_level_count"] = (abs(len(energies) - n_levels), 0)
    contiguous = bool(matched) and matched == set(range(max(matched) + 1)) and max(matched) >= 2
    checks["c10_levels_contiguous"] = (0 if contiguous else 1, 0)
    return checks, {"circle_level_err": worst}


def check_sphere(out_dir, config):
    """C11: the difference measure reproduces L(L+1)/2a^2, the position
    measure shifts every level by hbar^2 R / 6M = 1/3a^2; C03 for the
    reported reference shift."""
    res = _results(out_dir)
    a = config.get("a", 1.0)
    e_qep = res["qep"]["energies_extrapolated"]
    e_naive = res["naive_dewitt"]["energies_extrapolated"]
    exact = [ell * (ell + 1) / (2 * a * a) for ell in range(len(e_qep))]
    shift = 1.0 / (3 * a * a)
    checks = {
        "c11_qep_offset": (abs(sum(e - x for e, x in zip(e_qep, exact)) / len(exact)), 0.025),
        "c03_reference_shift": (abs(res["reference_shift"] - shift), 1e-9),
        "c11_levels_present": (0 if len(e_qep) == len(e_naive) == 3 else 1, 0),
    }
    for k, (e, x) in enumerate(zip(e_naive, exact)):
        checks[f"c11_naive_shift_{k}"] = (abs(e - x - shift), 0.05)
    dewitt = max(abs(d - res["reference_shift"]) for d in res["difference"])
    return checks, {"dewitt_shift_err": dewitt}


def _read_amplitude_window(path, half_width):
    """Kernel rows and columns with |q| <= half_width from an amplitude CSV."""
    with open(path) as fh:
        header = fh.readline().split(",")
        grid = [float(x) for x in header[1:]]
        cols = [j for j, x in enumerate(grid) if abs(x) <= half_width]
        rows, xs = [], []
        for line in fh:
            head, _, rest = line.partition(",")
            if abs(float(head)) <= half_width:
                values = rest.split(",")
                xs.append(float(head))
                rows.append([float(values[j]) for j in cols])
    return float(header[0]), xs, [grid[j] for j in cols], rows


def check_line(out_dir, config):
    """C09: every stored amplitude matches the closed-form free kernel to
    1e-6 relative on |x| <= 2."""
    import numpy as np
    from torsiongeo.propagator import flat_line_kernel

    checks, worst = {}, 0.0
    for tau in config["amplitude_taus"]:
        path = os.path.join(out_dir, f"amplitude_tau_{tau:g}.csv")
        tau_read, xs, cols, rows = _read_amplitude_window(path, 2.0)
        exact = flat_line_kernel(np.array(xs)[:, None], np.array(cols)[None, :], tau_read)
        err = float(np.max(np.abs(np.array(rows) - exact) / exact))
        checks[f"c09_tau_{tau:g}"] = (err, 1e-6)
        checks[f"c09_tau_{tau:g}_header"] = (abs(tau_read - tau), 0.0)
        worst = max(worst, err)
    return checks, {"kernel_rel_err": worst}


def failures(checks: dict) -> list:
    return [name for name, (value, limit) in checks.items() if not value <= limit]
