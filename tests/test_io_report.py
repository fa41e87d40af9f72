import re
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import squareform

import pairedgraph.io as pgio
from pairedgraph import (
    PairedSample,
    ValidationError,
    distance_matrix,
    load_scenario,
    precomputed_distance,
    read_distance_csv,
    read_paired_csv,
    report_csv,
    report_json,
    run_paired_test,
    write_paired_csv,
)


def test_paired_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    sample = PairedSample(
        x=rng.standard_normal((9, 3)) * 1e-7, y=rng.standard_normal((9, 3)) * 1e5
    )
    path = tmp_path / "pairs.csv"
    write_paired_csv(sample, path)
    back = read_paired_csv(path)
    assert np.array_equal(back.x, sample.x)
    assert np.array_equal(back.y, sample.y)


def test_paired_csv_header_checked(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValidationError, match="header"):
        read_paired_csv(path)


def test_paired_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("x1,y1\n1.0,2.0\n1.0\n")
    with pytest.raises(ValidationError, match="line 3"):
        read_paired_csv(path)
    path.write_text("x1,y1\n1.0,2.0\n1.0,zzz\n")
    with pytest.raises(ValidationError, match="line 3.*y1"):
        read_paired_csv(path)
    path.write_text("x1,y1\n1.0,2.0\nnan,3.0\n")
    with pytest.raises(ValidationError, match="line 3.*non-finite"):
        read_paired_csv(path)
    # the quoted cell spans lines 2-3, so the second record starts on line 4
    path.write_text('x1,y1\n"1\n",2\n3,abc\n')
    with pytest.raises(ValidationError, match="line 4: column y1: cannot parse 'abc'"):
        read_paired_csv(path)


def test_distance_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    points = rng.standard_normal((5, 2))
    dist = distance_matrix(points)
    path = tmp_path / "dist.csv"
    square = squareform(dist.condensed)
    rows = [",".join(format(v, ".17g") for v in row) for row in square]
    path.write_text("\n".join(rows) + "\n")
    back = read_distance_csv(path)
    assert back.metric == "precomputed"
    assert np.array_equal(back.condensed, dist.condensed)


BOM = "\ufeff".encode()  # what spreadsheet "CSV UTF-8" exports put first


def with_and_without_bom(tmp_path, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())
    return plain, marked


def test_paired_csv_ignores_a_leading_bom(tmp_path):
    plain, marked = with_and_without_bom(tmp_path, "x1,x2,y1,y2\n1,2,3,4\n5,6,7,9\n")
    want, got = read_paired_csv(plain), read_paired_csv(marked)
    assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)


def test_distance_csv_ignores_a_leading_bom(tmp_path):
    plain, marked = with_and_without_bom(tmp_path, "0,1,2\n1,0,3\n2,3,0\n")
    want, got = read_distance_csv(plain), read_distance_csv(marked)
    assert np.array_equal(got.condensed, want.condensed)


def test_scenario_ignores_a_leading_bom(tmp_path):
    text = "scenario = bom\nmode = size\nfamily = normal\nn = 6\nd = 2\n"
    plain, marked = with_and_without_bom(tmp_path, text)
    want, got = load_scenario(plain), load_scenario(marked)
    assert got.name == "bom"
    assert repr(got) == repr(want)  # small arrays: repr shows every entry


def test_bad_byte_after_a_bom_names_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(BOM + b"x1,y1\n1,2\n\xff,3\n")
    with pytest.raises(ValidationError, match="line 3: not valid UTF-8"):
        read_paired_csv(path)


def test_distance_csv_rejects_asymmetry(tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text("0,1\n2,0\n")
    with pytest.raises(ValidationError, match="symmetric"):
        read_distance_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("0,1\n1,abc\n", "line 2: column 2: cannot parse 'abc' as a number"),
        ("0,inf\ninf,0\n", "line 1: column 2: non-finite value"),
        ("0,1\n\n1,0,2\n", "line 3: expected 2 fields, got 3"),
    ],
)
def test_distance_csv_names_line_and_column(tmp_path, text, message):
    path = tmp_path / "dist.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=message):
        read_distance_csv(path)


def test_distance_csv_rejects_non_square(tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text("0,1,2\n1,0,3\n")
    with pytest.raises(ValidationError, match="square"):
        read_distance_csv(path)


@pytest.mark.parametrize("row", ["1,2", "1_0,2"])  # numpy's parser reads the first, not the second
def test_paired_csv_with_one_row_names_the_file(tmp_path, row):
    path = tmp_path / "pairs.csv"
    path.write_text(f"x1,y1\n{row}\n")
    message = f"{path}: need at least 2 data rows, got 1"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        read_paired_csv(path)


@pytest.mark.parametrize("reader, text, message", [
    (read_paired_csv, "x1,y1\n", "need at least 2 data rows, got 0"),
    (read_paired_csv, "", "file is empty"),
    (read_paired_csv, "\n\r\n\n", "header must list x1..xd,y1..yd, got 0 columns"),
    (read_distance_csv, "x1,y1\n", "line 1: column 1: cannot parse 'x1' as a number"),
    (read_distance_csv, "", "file is empty"),
    (read_distance_csv, "\n\r\n\n", "file is empty"),
])
def test_readers_let_no_warning_out_of_a_file_without_rows(tmp_path, reader, text, message):
    path = tmp_path / "rows.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
            reader(path)


def test_clean_files_are_read_by_numpys_parser(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    sample = PairedSample(x=rng.standard_normal((300, 100)), y=rng.standard_normal((300, 100)))
    pairs, dist = tmp_path / "pairs.csv", tmp_path / "dist.csv"
    write_paired_csv(sample, pairs)
    square = squareform(distance_matrix(np.vstack([sample.x, sample.y])).condensed)
    dist.write_text("".join(",".join(format(v, ".17g") for v in row) + "\n" for row in square))
    by_records = pgio._paired_records(pairs), pgio._float_rows(dist, pgio._records(dist))

    def no_records(path):
        raise AssertionError(f"the record parser read {path}")

    monkeypatch.setattr(pgio, "_records", no_records)
    got = read_paired_csv(pairs)
    assert np.hstack([got.x, got.y]).tobytes() == by_records[0].tobytes()
    assert np.array_equal(got.x, sample.x) and np.array_equal(got.y, sample.y)
    assert read_distance_csv(dist).condensed.tobytes() == squareform(by_records[1]).tobytes()


def make_report(**kwargs):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((12, 3))
    y = rng.standard_normal((12, 3)) + 0.3
    return run_paired_test(x, y, k=3, seed=11, **kwargs)


def test_report_json_is_deterministic_and_sorted():
    a = report_json(make_report(pvalue="both", n_perm=200))
    b = report_json(make_report(pvalue="both", n_perm=200))
    assert a == b
    assert a.index('"counts"') < a.index('"graph"') < a.index('"input"')


def test_report_json_17_digit_floats():
    text = report_json(make_report())
    report = make_report()
    assert format(report.moments.e_r1, ".17g") in text


def test_report_csv_flat_keys():
    text = report_csv(make_report())
    assert text.startswith("key,value\n")
    assert "moments.sigma_r.0.1," in text
    assert "statistics.z_m," in text


def test_report_includes_pipeline_pieces():
    report = make_report(pvalue="both", n_perm=500, baseline_ht=True)
    assert report.n == 12
    assert report.d == 3
    assert report.n_graph_edges == 3 * 23
    assert report.census_q3 == report.diagnostics.q3
    assert report.pvalues.mode == "exact"  # n = 12 is under the threshold
    assert report.hotelling is not None
    data = report.to_dict()
    assert data["baseline"]["hotelling"]["p"] == report.hotelling.p


def test_precomputed_distance_pipeline():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((10, 2))
    y = rng.standard_normal((10, 2))
    pooled = np.vstack([x, y])
    dist = precomputed_distance(
        np.abs(pooled[:, :1] - pooled[:, :1].T)  # distance on first coordinate
    )
    report = run_paired_test(x, y, k=2, distances=dist)
    assert report.metric == "precomputed"


def test_run_paired_test_argument_validation():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 2))
    y = rng.standard_normal((6, 2))
    with pytest.raises(ValidationError, match="pvalue"):
        run_paired_test(x, y, pvalue="bayesian")
    for k in ({}, {"k": 1}):  # a single pair cannot be tested, whatever k
        with pytest.raises(ValidationError, match="^need at least 2 pairs to run a test$"):
            run_paired_test(x[:1], y[:1], **k)
    with pytest.raises(ValidationError, match="nodes"):
        run_paired_test(x, y, distances=precomputed_distance(np.zeros((4, 4))))
    with pytest.raises(ValidationError, match="seed must be non-negative"):
        run_paired_test(x, y, pvalue="permutation", seed=-1)


@pytest.mark.parametrize("pvalue, seed", [
    ("both", 1.5), ("both", True), ("asymptotic", 1.5), ("asymptotic", True),
])
def test_run_paired_test_refuses_a_seed_that_is_no_integer(pvalue, seed):
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
    with pytest.raises(ValidationError, match=f"^seed must be an integer, got {seed!r}$"):
        run_paired_test(x, y, pvalue=pvalue, seed=seed)
    report = run_paired_test(x, y, pvalue=pvalue, n_perm=10, seed=np.int64(7))
    assert type(report.seed) is int and '"seed":7,' in report_json(report)


@pytest.mark.parametrize("count, value, message", [
    ("k", True, "k must be an integer, got True"),
    ("k", 5.0, "k must be an integer, got 5.0"),
    ("k", None, "k must be an integer, got None"),
    ("k", "5", "k must be an integer, got '5'"),
    ("n_perm", True, "n_perm must be an integer, got True"),
    ("n_perm", 2.5, "n_perm must be an integer, got 2.5"),
    ("n_perm", None, "n_perm must be an integer, got None"),
])
def test_run_paired_test_refuses_a_count_that_is_no_integer(count, value, message):
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((30, 2)), rng.standard_normal((30, 2))
    counts = {"k": 3, "n_perm": 50}
    with pytest.raises(ValidationError) as info:
        run_paired_test(x, y, pvalue="permutation", seed=1, **{**counts, count: value})
    assert str(info.value) == message
    report = run_paired_test(x, y, k=np.int64(3))
    assert type(report.k) is int and '"k":3,' in report_json(report)


def test_library_permutation_run_draws_a_replayable_seed():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((25, 3))
    y = x + rng.standard_normal((25, 3))
    first = run_paired_test(x, y, pvalue="permutation", n_perm=300)
    assert first.seed is not None
    assert first.pvalues.seed == first.seed
    replay = run_paired_test(x, y, pvalue="permutation", n_perm=300, seed=first.seed)
    assert report_json(replay) == report_json(first)
    assert run_paired_test(x, y).seed is None  # asymptotic only: nothing to replay
