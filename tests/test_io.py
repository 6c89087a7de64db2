# CSV writers against the row-by-row csv.writer + repr loops they replace:
# every output must be byte-identical for any table, symmetric or not, with
# repeated values, signed zeros, subnormals, infinities and NaN.  The JSON
# payload walk converts numpy values and names the first non-finite entry.

import csv
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from torsiongeo import catalog
from torsiongeo.defects import Contour
from torsiongeo.dynamics import Trajectory, VariationRecord
from torsiongeo.errors import NonFiniteResult, OriginOnContour
from torsiongeo.io import jsonable, write_amplitude_csv, write_contour_csv, write_trajectory_csv, write_variation_csv

# -- reference writers: the per-row csv.writer loops, verbatim ------------------


def reference_trajectory_csv(traj, path):
    d = traj.q.shape[1]
    header = ["t"] + [f"q{i + 1}" for i in range(d)] + [f"qdot{i + 1}" for i in range(d)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, q, v in zip(traj.t, traj.q, traj.v):
            writer.writerow([repr(float(t))] + [repr(float(x)) for x in q] + [repr(float(x)) for x in v])


def reference_variation_csv(record, path):
    d = record.dq.shape[1]
    header = ["t"] + [f"dq{i + 1}" for i in range(d)] + [f"db{i + 1}" for i in range(d)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, dq, db in zip(record.t, record.dq, record.db):
            writer.writerow([repr(float(t))] + [repr(float(x)) for x in dq] + [repr(float(x)) for x in db])


def reference_contour_csv(contour, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q1", "q2"])
        for q in contour.points:
            writer.writerow([repr(float(q[0])), repr(float(q[1]))])


def reference_amplitude_csv(grid, matrix, tau, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([repr(float(tau))] + [repr(float(x)) for x in grid])
        for qb, row in zip(grid, matrix):
            writer.writerow([repr(float(qb))] + [repr(float(x)) for x in row])


def same_bytes(tmp_path, write, reference, *args):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(*args, got)
    reference(*args, want)
    return got.read_bytes() == want.read_bytes()


# -- value pools ------------------------------------------------------------------

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -3.5e-315,
           float("inf"), float("-inf"), float("nan"), 1e16, 1e-5, 0.1, -2.5, 123456789.0]
# a NaN with a payload other than the default one
NAN_PAYLOAD = np.array([0x7FF8000000000ABC], dtype=np.int64).view(np.float64)[0]

values = st.one_of(st.sampled_from(SPECIAL + [NAN_PAYLOAD]), st.floats(allow_nan=True, allow_infinity=True))
# few distinct values, so entries repeat within and across rows
repeated = st.lists(st.floats(width=64), min_size=1, max_size=4).flatmap(st.sampled_from)


@st.composite
def square_tables(draw):
    n = draw(st.integers(0, 9))
    matrix = draw(hnp.arrays(np.float64, (n, n), elements=st.one_of(values, repeated)))
    if draw(st.booleans()):
        matrix = np.triu(matrix) + np.triu(matrix, 1).T  # exactly symmetric, specials included
    grid = draw(hnp.arrays(np.float64, (n,), elements=values))
    return grid, matrix, draw(values)


@settings(max_examples=200, deadline=None)
@given(square_tables())
def test_amplitude_csv_bytes_match_csv_writer(tmp_path_factory, table):
    grid, matrix, tau = table
    assert same_bytes(tmp_path_factory.mktemp("amp"), write_amplitude_csv, reference_amplitude_csv,
                      grid, matrix, tau)


def test_amplitude_csv_of_a_propagated_kernel(tmp_path):
    # a real line kernel, stored exactly symmetric, with a long underflowed tail
    from torsiongeo.propagator import propagate
    from torsiongeo.slicing import SliceConfig

    res = propagate(catalog.make("flat-cartesian", d=1), SliceConfig(n_slices=8, eps=1 / 64),
                    grid=(-2.0, 2.0, 256), store_taus=[0.125])
    assert same_bytes(tmp_path, write_amplitude_csv, reference_amplitude_csv,
                      res.grid, res.amplitudes[0.125], 0.125)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(2, 12), st.data())
def test_trajectory_and_variation_csv_bytes_match_csv_writer(tmp_path_factory, d, n, data):
    tmp = tmp_path_factory.mktemp("traj")
    t = 0.25 * np.arange(n) - 1.0
    q, v = (data.draw(hnp.arrays(np.float64, (n, d), elements=values)) for _ in range(2))
    traj = Trajectory("geodesic", t, q, v, catalog.make("flat-cartesian", d=d))
    assert same_bytes(tmp, write_trajectory_csv, reference_trajectory_csv, traj)
    zeros = np.zeros((n, d, d))
    record = VariationRecord(t, q, v, zeros, zeros)
    assert same_bytes(tmp, write_variation_csv, reference_variation_csv, record)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 50.0), st.integers(3, 64), st.integers(1, 3),
       st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_contour_csv_bytes_match_csv_writer(tmp_path_factory, radius, segments, turns, center):
    try:
        contour = Contour.circle(radius, segments, center=center, turns=turns)
    except OriginOnContour:
        assume(False)
    assert same_bytes(tmp_path_factory.mktemp("contour"), write_contour_csv, reference_contour_csv, contour)


# -- JSON payloads ----------------------------------------------------------------


def test_jsonable_converts_numpy_values_to_plain_ones():
    out = jsonable({"e": np.float64(0.5), "n": (np.int64(3), [np.arange(2.0)]), "s": "qep", "none": None})
    assert out == {"e": 0.5, "n": [3, [[0.0, 1.0]]], "s": "qep", "none": None}
    assert [type(x) for x in (out["e"], out["n"][0], out["n"][1][0][0])] == [float, int, float]


@pytest.mark.parametrize("payload, entry", [
    ({"tau": [0.5], "energies": [0.0, 1.0, float("inf"), float("nan")]}, "results.energies[2]"),
    ({"points": [{"metric": np.array([[1.0, 0.0], [0.0, np.nan]])}]}, "results.points[0].metric[1][1]"),
    ({"qep": {"trace": (1.0, np.float64(-np.inf))}}, "results.qep.trace[1]"),
], ids=["list", "array-in-list", "tuple-in-dict"])
def test_jsonable_names_the_first_non_finite_entry(payload, entry):
    with pytest.raises(NonFiniteResult, match=rf"^{re.escape(entry)} is not finite$"):
        jsonable(payload)
