"""Fuzzing of the three input files, through the readers and through ``cli.main``,
of numpy's CSV parser against the record parser, and of the command lines of
``test``, ``simulate`` and ``oracle``.

Every input stays tiny (at most 22 pairs, at most 2 replicates, at most 3
oracle instances, one cell of 140 000 characters), so each example runs in
milliseconds.
"""

import csv
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import pairedgraph.io as pgio
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


# --- numpy's parser against the record parser ------------------------------

PADDING = ["", " ", "\t", "\x0b", "\x0c", "\xa0", "\x85", "\u3000"]
BREAKS = ["\n", "\r\n", "\r"]
kept_cells = st.one_of(
    numbers,
    st.tuples(st.sampled_from(PADDING), numbers, st.sampled_from(PADDING)).map("".join),
    numbers.map(lambda s: f'"{s}"'),
    st.tuples(numbers, st.sampled_from(BREAKS + ["\n\n"])).map(lambda t: f'"{t[0]}{t[1]}"'),
    numbers.map(lambda s: f'"{s[:1]}"{s[1:]}'),  # "1"2: csv appends what follows the quote
)
# Cells the record parser refuses, twice over those numpy reads as numbers:
# numpy strips 0x1C-0x1F as whitespace where float does not, and it has no
# field size limit where csv refuses fields over 131 072 characters.
spoilt_cells = st.sampled_from(
    ["nan", "-inf", "1e400", "1\x1c", "\x1f2", " " * 140_000 + "1"] * 2
    + ["1_0", "\u0661", "\u0663.5", "#1", "", '"', "0x10", "1 2", "\x00", BOM])
spoilt_lines = st.sampled_from([" ", "\t", ",", "#1,2", "\x1c"])


@st.composite
def loader_text(draw, header: bool):
    """A paired CSV (``header``) or a distance CSV: 2 to 6 rows of one width and
    up to two blank lines, each line ended by LF, CRLF or CR; then up to two
    spoilt places: a cell, a row's width, an inserted line or the header's d."""
    width = 2 * draw(st.integers(1, 2)) if header else draw(st.integers(1, 4))
    lines = draw(st.lists(st.lists(kept_cells, min_size=width, max_size=width),
                          min_size=2, max_size=6))
    for i in draw(st.lists(st.integers(0, len(lines)), max_size=2)):
        lines.insert(i, [])
    d = width // 2
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        place = draw(st.sampled_from(["cell", "cell", "width", "line", "header"]))
        if place == "cell" and lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(spoilt_cells)
        elif place == "width":
            lines[i] = lines[i][:-1] if draw(st.booleans()) else lines[i] + ["1"]
        elif place == "line":
            lines.insert(i, [draw(spoilt_lines)])
        else:  # rows of one width under a header that asks for another
            d = 3 - d
    if header:
        names = [f"x{j}" for j in range(1, d + 1)] + [f"y{j}" for j in range(1, d + 1)]
        quote = st.sampled_from(["{}", " {} ", '"{}"', '"{}\n"', '"{}\r\n"', '"\r{}"'])
        lines.insert(0, [draw(quote).format(name) for name in names])
    text = "".join(",".join(line) + draw(st.sampled_from(BREAKS)) for line in lines)
    return draw(st.sampled_from(["", "", BOM])) + text


def numpy_rows_are_record_rows(path, header):
    """numpy's parser either leaves the file to the record parser or gives the
    record parser's values, bit for bit."""
    fast = pgio._parsed(path, header)
    event("numpy's parser" if fast is not None else "record parser")
    if fast is not None:
        slow = pgio._paired_records(path) if header else pgio._float_rows(
            path, pgio._records(path))
        assert fast.shape == slow.shape and fast.tobytes() == slow.tobytes()


@settings(max_examples=300, deadline=None)
@given(text=loader_text(header=True))
def test_numpy_parser_reads_paired_text_as_the_record_parser(workdir, text):
    path = workdir / "loader_pairs.csv"
    path.write_bytes(text.encode())
    numpy_rows_are_record_rows(path, header=True)


@settings(max_examples=300, deadline=None)
@given(text=loader_text(header=False))
def test_numpy_parser_reads_distance_text_as_the_record_parser(workdir, text):
    path = workdir / "loader_dist.csv"
    path.write_bytes(text.encode())
    numpy_rows_are_record_rows(path, header=False)


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


# --- flags ------------------------------------------------------------------

INT_JUNK = st.sampled_from(["abc", "1.5", "", "1e3"])  # argparse refuses these


def int_flag(valid, refused):
    """(valid values, spoilt values): the spoilt ones are zero, negative or huge
    values that a guard refuses before anything is allocated, or no integer."""
    return valid, st.one_of(refused, INT_JUNK)


# flag or scenario key: (valid values, spoilt values)
SEED = int_flag(st.integers(0, 2**64), st.integers(-(2**63), -1))
TEST_FLAGS = {
    "--k": int_flag(st.integers(1, 3), st.sampled_from([0, -1, 10**9])),
    "--n-perm": int_flag(st.integers(1, 30), st.sampled_from([0, -5])),
    "--seed": SEED,
    "--pvalue": (st.sampled_from(["asymptotic", "permutation", "both"]), st.just("exact")),
    "--test": (st.sampled_from(["m", "s", "g", "all"]), st.just("z")),
    "--metric": (st.sampled_from(["euclidean", "manhattan"]), st.just("precomputed")),
    "--output": (st.sampled_from(["json", "csv"]), st.just("xml")),
}
SCENARIO_KEYS = {
    "mode": (st.sampled_from(["size", "power"]), st.just("both")),
    "family": (st.sampled_from(["normal", "t3", "lognormal"]), st.just("cauchy")),
    "n": int_flag(st.integers(2, 10), st.sampled_from([0, -1, 10**12])),
    "d": int_flag(st.integers(1, 3), st.sampled_from([0, -1, 10**12])),
    "k": int_flag(st.integers(1, 3), st.sampled_from([0, -1, 10**9])),
    "replicates": int_flag(st.integers(1, 2), st.sampled_from([0, -1])),
    "seed": SEED,
}
ORACLE_FLAGS = {
    "--instances": int_flag(st.integers(1, 3), st.sampled_from([0, -1])),
    "--min-pairs": int_flag(st.integers(1, 4), st.sampled_from([0, -1, 10**9])),
    "--max-pairs": int_flag(st.integers(1, 8), st.sampled_from([0, -1, 10**9])),
    "--max-dim": int_flag(st.integers(1, 4), st.sampled_from([0, -1, 10**9])),
    "--seed": SEED,
}


@st.composite
def flag_values(draw, flags, required):
    """{flag: value} for the ``required`` flags and a few more, at most two spoilt."""
    chosen = sorted(set(required) | draw(st.sets(st.sampled_from(sorted(flags)))))
    spoilt = draw(st.sets(st.sampled_from(chosen), max_size=2)) if chosen else ()
    return {flag: str(draw(flags[flag][flag in spoilt])) for flag in chosen}


@st.composite
def command_line(draw):
    """(argv, scenario text); upper-case words are paths the test fills in.

    Sizes stay tiny unless a guard refuses them: --instances, k and replicates
    are always given, since their defaults are 200, 5 and 1000.
    """
    command = draw(st.sampled_from(["test", "simulate", "oracle"]))
    if command == "test":
        inputs = ["PAIRS5", "PAIRS22"] * 3 + ["MISSING"]
        argv = ["test", "--input", draw(st.sampled_from(inputs))]
        for flag, value in draw(flag_values(TEST_FLAGS, ())).items():
            argv += [flag, value]
        switches = st.sets(st.sampled_from(["--exact", "--strict", "--baseline-ht"]))
        argv += sorted(draw(switches))
        return argv + draw(st.sampled_from([[]] * 3 + [["--dist-matrix", "DIST"]])), None
    if command == "simulate":
        required = ("mode", "family", "n", "d", "k", "replicates")
        values = draw(flag_values(SCENARIO_KEYS, required))
        text = "scenario = argv\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
        argv = ["simulate", draw(st.sampled_from(["SCENARIO"] * 6 + ["MISSING"]))]
        return argv + draw(st.sampled_from([[], ["--output", "OUT"]])), text
    argv = ["oracle"]
    for flag, value in draw(flag_values(ORACLE_FLAGS, ("--instances",))).items():
        argv += [flag, value]
    return argv, None


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory, five_pairs):
    root = tmp_path_factory.mktemp("argv")
    rng = np.random.default_rng(8)
    pairs22 = root / "pairs22.csv"
    rows = ["x1,x2,y1,y2"] + [",".join(map(repr, row)) for row in
                              rng.standard_normal((22, 4)).tolist()]
    pairs22.write_text("\n".join(rows) + "\n")
    points = np.loadtxt(five_pairs, delimiter=",", skiprows=1).T.ravel()
    dist = root / "dist.csv"
    np.savetxt(dist, np.abs(points[:, None] - points[None, :]), delimiter=",")
    return {"PAIRS5": str(five_pairs), "PAIRS22": str(pairs22), "DIST": str(dist),
            "SCENARIO": str(root / "scenario.cfg"), "OUT": str(root / "out.csv"),
            "MISSING": str(root / "missing")}


def run_argv(argv):
    """(exit code, stdout) of ``pairedgraph *argv``; argparse's own exit 2
    counts as a code, any other exception fails the test."""
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(line=command_line())
def test_fuzzed_argv_exits_0_2_or_3(argv_files, line):
    argv, scenario = line
    if scenario is not None:
        Path(argv_files["SCENARIO"]).write_text(scenario)
    argv = [argv_files.get(word, word) for word in argv]
    code, out = run_argv(argv)
    event(f"{argv[0]} exit {code}")
    if code == 1:  # the oracle's FAIL verdict, and nothing else
        assert argv[0] == "oracle" and "result: FAIL" in out
    else:
        assert code in (0, 2, 3)
