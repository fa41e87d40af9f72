"""Fuzzing of the three input files, through the readers and through ``cli.main``.

Every input stays tiny (at most 20 pairs, at most 2 replicates), so each
example runs in milliseconds.
"""

import csv
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairedgraph import ValidationError, load_scenario, read_paired_csv
from pairedgraph.cli import main

from oracles import read_paired_csv_by_cell

BOM = "\ufeff"
ODD_CELLS = ["nan", "-inf", "inf", "1e999", "1_0", "\u0661", "", " ", '"', '"1"',
             "\x00", BOM, " 2 ", "1\r\n", "abc", "0x10"]
ODD_BYTES = [b"\x00", b'"', BOM.encode(), b"\r\n", b"\r", b",", b"\n", b"\xff",
             b"1e999", b"nan", b"-"]

numbers = st.one_of(
    st.integers(-5, 5).map(str),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
)
cells = st.one_of(numbers, st.sampled_from(ODD_CELLS))


@st.composite
def paired_text(draw):
    """A header x1..xd,y1..yd and up to 20 rows; in half the files, odd cells
    and rows of the wrong width."""
    d = draw(st.integers(1, 2))
    header = [f"x{j}" for j in range(1, d + 1)] + [f"y{j}" for j in range(1, d + 1)]
    if draw(st.booleans()):
        cell, width = numbers, st.just(2 * d)
    else:
        cell, width = cells, st.sampled_from([2 * d] * 6 + [2 * d - 1, 2 * d + 1])
    rows = draw(st.lists(width.flatmap(lambda w: st.lists(cell, min_size=w, max_size=w)),
                         min_size=2, max_size=20))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lead = draw(st.sampled_from(["", "", BOM, "\n"]))
    return lead + end.join(",".join(row) for row in [header, *rows]) + end


@st.composite
def mutated(draw, text):
    """``text`` as UTF-8 with up to three byte spans replaced, inserted or cut."""
    data = bytearray(text.encode())
    junk = st.one_of(st.binary(max_size=3), st.sampled_from(ODD_BYTES))
    for pos, cut, new in draw(st.lists(st.tuples(st.floats(0, 1), st.integers(0, 2), junk),
                                       max_size=3)):
        pos = round(pos * len(data))
        data[pos:pos + cut] = new
    return bytes(data)


def run_main(*args):
    """Exit code of ``pairedgraph *args``; an exception escaping main fails the test."""
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        return main(list(args))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def outcome(reader, path):
    try:
        sample = reader(path)
    except (ValidationError, csv.Error):  # the earlier reader let csv.Error escape
        return "rejected"
    return sample.x.shape, sample.x.tobytes(), sample.y.tobytes()


@settings(max_examples=300, deadline=None)
@given(text=paired_text())
def test_paired_reader_agrees_with_the_cell_by_cell_reader(workdir, text):
    path = workdir / "prop.csv"
    path.write_bytes(text.encode())
    assert outcome(read_paired_csv, path) == outcome(read_paired_csv_by_cell, path)


@settings(max_examples=150, deadline=None)
@given(data=paired_text().flatmap(mutated),
       k=st.integers(1, 3))
def test_fuzzed_paired_csv_exits_0_2_or_3(workdir, data, k):
    path = workdir / "pairs.csv"
    path.write_bytes(data)
    code = run_main("test", "--input", str(path), "--k", str(k),
                    "--pvalue", "both", "--n-perm", "20", "--seed", "0")
    assert code in (0, 2, 3)


@pytest.fixture(scope="module")
def five_pairs(tmp_path_factory):
    rng = np.random.default_rng(7)
    path = tmp_path_factory.mktemp("pairs") / "pairs.csv"
    rows = ["x1,y1"] + [f"{a!r},{b!r}" for a, b in rng.standard_normal((5, 2)).tolist()]
    path.write_text("\n".join(rows) + "\n")
    return path


@st.composite
def distance_text(draw):
    """A symmetric 10 x 10 distance CSV, some cells swapped for odd ones."""
    points = np.array(draw(st.lists(st.integers(0, 3), min_size=20, max_size=20)))
    square = np.abs(points[::2, None] - points[None, ::2]).astype(float)
    square += np.abs(points[1::2, None] - points[None, 1::2])
    rows = [[format(v, ".17g") for v in row] for row in square.tolist()]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, 9)), draw(st.integers(0, 9))
        rows[i][j] = draw(cells)
    return "\n".join(",".join(row) for row in rows) + "\n"


@settings(max_examples=150, deadline=None)
@given(data=distance_text().flatmap(mutated))
def test_fuzzed_distance_csv_exits_0_2_or_3(workdir, five_pairs, data):
    path = workdir / "dist.csv"
    path.write_bytes(data)
    code = run_main("test", "--input", str(five_pairs), "--metric", "precomputed",
                    "--dist-matrix", str(path), "--k", "2", "--pvalue", "both",
                    "--n-perm", "20", "--seed", "0")
    assert code in (0, 2, 3)


@st.composite
def scenario_text(draw):
    lines = [
        "scenario = fuzz",
        f"mode = {draw(st.sampled_from(['size', 'power']))}",
        f"family = {draw(st.sampled_from(['normal', 't3', 'lognormal']))}",
        f"n = {draw(st.integers(2, 12))}",
        f"d = {draw(st.integers(1, 3))}",
        f"k = {draw(st.integers(1, 3))}",
        f"replicates = {draw(st.integers(1, 2))}",
        f"mean_diff_norm = {draw(st.sampled_from(['0', '0.5', '1e308']))}",
        f"levels = {draw(st.sampled_from(['0.05', '0.05, 0.1']))}",
    ]
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=100, deadline=None)
@given(data=scenario_text().flatmap(mutated))
def test_fuzzed_scenario_exits_0_2_or_3(workdir, data):
    path = workdir / "scenario.cfg"
    path.write_bytes(data)
    try:
        scenario = load_scenario(path)
    except ValidationError:
        pass
    else:  # a cut line falls back to the defaults, e.g. 1000 replicates
        spec = scenario.spec
        assume(spec.n <= 20 and spec.d <= 20 and scenario.replicates <= 2)
    assert run_main("simulate", str(path)) in (0, 2, 3)
