import json
import subprocess
import sys

import numpy as np
import pytest
from scipy.spatial.distance import squareform

from pairedgraph import PairedSample, write_paired_csv
from pairedgraph.cli import main

from oracles import exact_pvalues


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pairedgraph", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def pairs_csv(tmp_path_factory):
    rng = np.random.default_rng(20)
    sample = PairedSample(
        x=rng.standard_normal((10, 3)), y=rng.standard_normal((10, 3)) + 0.5
    )
    path = tmp_path_factory.mktemp("data") / "pairs.csv"
    write_paired_csv(sample, path)
    return path


def test_happy_path_json(pairs_csv):
    proc = run_cli(
        "test",
        "--input",
        str(pairs_csv),
        "--k",
        "5",
        "--pvalue",
        "both",
        "--n-perm",
        "10000",
        "--seed",
        "42",
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["input"] == {"n": 10, "d": 3, "k": 5, "metric": "euclidean"}
    assert data["seed"] == 42
    assert data["p_values"]["mode"] == "exact"
    for key in ("m_asymptotic", "s_asymptotic", "g_asymptotic"):
        assert 0.0 <= data["p_values"][key] <= 1.0


def test_same_seed_byte_identical(pairs_csv):
    args = (
        "test",
        "--input",
        str(pairs_csv),
        "--pvalue",
        "both",
        "--n-perm",
        "300",
        "--seed",
        "7",
    )
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_missing_seed_is_drawn_and_reported(pairs_csv):
    proc = run_cli("test", "--input", str(pairs_csv), "--pvalue", "permutation")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["seed"] is not None


def test_unseeded_asymptotic_runs_report_no_seed(pairs_csv):
    # nothing random runs, so nothing is drawn: two runs print the same bytes
    a = run_cli("test", "--input", str(pairs_csv))
    b = run_cli("test", "--input", str(pairs_csv))
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert '"seed":null' in a.stdout


def test_k_zero_is_validation_error(pairs_csv):
    proc = run_cli("test", "--input", str(pairs_csv), "--k", "0")
    assert proc.returncode == 2
    assert "k" in proc.stderr


def test_missing_file_is_validation_error():
    proc = run_cli("test", "--input", "/nonexistent/pairs.csv")
    assert proc.returncode == 2


def test_malformed_csv_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y1\n1.0,2.0\noops,3.0\n")
    proc = run_cli("test", "--input", str(path))
    assert proc.returncode == 2
    assert "line 3" in proc.stderr


def test_duplicated_y_section_maximal_mean_statistic(tmp_path):
    # y identical to x: with k = 1 the cross-pair graph is the first-sample
    # MST, the observed R1 + R2 equals its edge count (the maximum), and the
    # exact p-value is the tie count over 2^n; checked against the
    # independent rational enumerator at n = 8
    rng = np.random.default_rng(33)
    x = rng.standard_normal((8, 2))
    sample = PairedSample(x=x, y=x.copy())
    path = tmp_path / "dup.csv"
    write_paired_csv(sample, path)
    proc = run_cli(
        "test",
        "--input",
        str(path),
        "--k",
        "1",
        "--pvalue",
        "both",
        "--exact",
        "--seed",
        "0",
    )
    assert proc.returncode in (0, 3)  # z_s may degenerate; z_m must be fine
    data = json.loads(proc.stdout)
    assert data["counts"]["r1"] + data["counts"]["r2"] == data["graph"][
        "cross_pair_edges"
    ]
    assert data["statistics"]["z_m"] > 2.0
    assert data["p_values"]["m_permutation"] == 2 / 2**8
    assert data["p_values"]["m_asymptotic"] < 0.02

    # cross-check the exact p against the test-side rational enumerator
    from pairedgraph import build_kmst, distance_matrix, extract_cross_pair_graph, pool

    cross = extract_cross_pair_graph(build_kmst(distance_matrix(pool(sample)), 1))
    want_m, _, _ = exact_pvalues(cross.edges, 8)
    assert data["p_values"]["m_permutation"] == float(want_m)


def test_dist_matrix_flag_requires_precomputed(pairs_csv, tmp_path):
    proc = run_cli(
        "test", "--input", str(pairs_csv), "--metric", "precomputed"
    )
    assert proc.returncode == 2
    assert "dist-matrix" in proc.stderr


def test_precomputed_metric_roundtrip(pairs_csv, tmp_path):
    from pairedgraph import distance_matrix, pool, read_paired_csv

    sample = read_paired_csv(pairs_csv)
    dist = distance_matrix(pool(sample))
    dist_path = tmp_path / "dist.csv"
    square = squareform(dist.condensed)
    rows = [",".join(format(v, ".17g") for v in row) for row in square]
    dist_path.write_text("\n".join(rows) + "\n")

    euclid = run_cli("test", "--input", str(pairs_csv), "--seed", "1")
    pre = run_cli(
        "test",
        "--input",
        str(pairs_csv),
        "--metric",
        "precomputed",
        "--dist-matrix",
        str(dist_path),
        "--seed",
        "1",
    )
    assert pre.returncode == 0, pre.stderr
    a = json.loads(euclid.stdout)
    b = json.loads(pre.stdout)
    assert a["statistics"] == b["statistics"]
    assert b["input"]["metric"] == "precomputed"


def test_degenerate_requested_statistic_exits_3(tmp_path):
    # force the MST {(0,1),(2,3),(0,2)} via precomputed distances: after the
    # within-pair edge (0,2) is dropped, the two remaining mirror-image edges
    # leave Var(R1 - R2) = 0, so z_s and z_g degenerate while z_m is fine
    path = tmp_path / "tiny.csv"
    path.write_text("x1,y1\n0,1\n10,11\n")
    dist = tmp_path / "dist.csv"
    dist.write_text("0,1,1.5,10\n1,0,10,10\n1.5,10,0,1\n10,10,1,0\n")
    args = (
        "test",
        "--input",
        str(path),
        "--k",
        "1",
        "--metric",
        "precomputed",
        "--dist-matrix",
        str(dist),
    )
    proc = run_cli(*args)
    assert proc.returncode == 3
    assert "increase k" in proc.stderr
    data = json.loads(proc.stdout)
    assert data["statistics"]["degenerate"] == ["s", "g"]
    assert data["moments"]["var_diff"] == 0.0

    # asking only for the statistic that is defined exits 0
    assert run_cli(*args, "--test", "m").returncode == 0
    assert run_cli(*args, "--test", "s").returncode == 3


def test_baseline_ht_inapplicable_exits_2(tmp_path):
    rng = np.random.default_rng(44)
    sample = PairedSample(x=rng.standard_normal((4, 6)), y=rng.standard_normal((4, 6)))
    path = tmp_path / "wide.csv"
    write_paired_csv(sample, path)
    proc = run_cli("test", "--input", str(path), "--k", "2", "--baseline-ht")
    assert proc.returncode == 2
    assert "n > d" in proc.stderr


def test_singular_difference_covariance_exits_2(tmp_path):
    # n > d, but difference column 4 duplicates column 3
    rng = np.random.default_rng(45)
    x = rng.standard_normal((30, 4))
    y = rng.standard_normal((30, 4))
    x[:, 3] = y[:, 3] + (x[:, 2] - y[:, 2])
    path = tmp_path / "singular.csv"
    write_paired_csv(PairedSample(x=x, y=y), path)
    proc = run_cli("test", "--input", str(path), "--baseline-ht")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "singular" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_zero_permutations_exits_2(tmp_path):
    # n = 25 exceeds the exact threshold, so permutation mode is monte-carlo
    # and a zero draw count is rejected
    rng = np.random.default_rng(46)
    sample = PairedSample(x=rng.standard_normal((25, 2)), y=rng.standard_normal((25, 2)))
    path = tmp_path / "pairs25.csv"
    write_paired_csv(sample, path)
    proc = run_cli(
        "test", "--input", str(path), "--pvalue", "permutation", "--n-perm", "0"
    )
    assert proc.returncode == 2
    assert "permutation" in proc.stderr


def test_csv_output_mode(pairs_csv):
    proc = run_cli("test", "--input", str(pairs_csv), "--output", "csv", "--seed", "3")
    assert proc.returncode == 0
    assert proc.stdout.startswith("key,value\n")
    assert "statistics.z_m," in proc.stdout


def test_simulate_smoke_and_determinism(tmp_path):
    scenario = tmp_path / "smoke.cfg"
    scenario.write_text(
        "scenario = smoke\nmode = size\nfamily = normal\nn = 12\nd = 2\n"
        "replicates = 10\nk = 2\nseed = 5\nlevels = 0.05, 0.5\n"
    )
    a = run_cli("simulate", str(scenario))
    b = run_cli("simulate", str(scenario))
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    lines = a.stdout.strip().splitlines()
    assert lines[0].startswith("scenario,mode,test,level")
    assert len(lines) == 1 + 3 * 2  # three tests, two levels

    out = tmp_path / "results.csv"
    c = run_cli("simulate", str(scenario), "--output", str(out))
    assert c.returncode == 0
    assert out.read_text() == a.stdout


def test_simulate_rejects_bad_scenario(tmp_path):
    scenario = tmp_path / "bad.cfg"
    scenario.write_text("scenario = x\nmode = size\nfamily = normal\nn = 5\nd = 2\nbogus = 1\n")
    proc = run_cli("simulate", str(scenario))
    assert proc.returncode == 2
    assert "invalid scenario key" in proc.stderr


@pytest.mark.parametrize(
    "d, var1, message",
    [("0", "1", "d >= 1"), ("-1", "1", "d >= 1"), ("2", "-1", "non-negative")],
)
def test_simulate_rejects_bad_dimension_and_variance(tmp_path, d, var1, message):
    # the scenario's arithmetic must not run ahead of its validation
    scenario = tmp_path / "bad.cfg"
    scenario.write_text(
        "scenario = x\nmode = size\nfamily = normal\nn = 5\n"
        f"d = {d}\nvar1 = {var1}\n"
    )
    proc = run_cli("simulate", str(scenario))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_names_variances_whose_distances_overflow(tmp_path):
    # the variances are accepted, but the distances of the drawn points are not
    scenario = tmp_path / "huge.cfg"
    scenario.write_text(
        "scenario = huge\nmode = size\nfamily = normal\nn = 6\nd = 10\n"
        "var1 = 1e307\nvar2 = 1e307\nreplicates = 1\n"
    )
    proc = run_cli("simulate", str(scenario))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: scenario 'huge' (var1=1e+307, var2=1e+307)")
    assert "distances between the finite pooled observations overflow float64" in (
        proc.stderr
    )
    assert "largest absolute coordinate" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_names_the_replicate_whose_graph_disconnects(tmp_path):
    head = "mode = size\nfamily = normal\nd = 1\n"
    good = tmp_path / "good.cfg"
    good.write_text(f"scenario = good\n{head}n = 10\nreplicates = 2\nk = 2\n")
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(f"scenario = tiny\n{head}n = 3\nk = 3\nreplicates = 20\n")
    proc = run_cli("simulate", str(good), str(tiny))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "error: scenario 'tiny' (var1=1, var2=1), replicate 2: "
        "graph is disconnected at MST level 3"
    )
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("reader", ["input", "dist-matrix", "simulate"])
def test_non_utf8_file_exits_2_naming_the_line(tmp_path, pairs_csv, reader):
    bad = tmp_path / "bad.txt"
    if reader == "input":
        bad.write_bytes(b"x1,y1\n1,2\n\xff\xfe,3\n")
        args = ("test", "--input", str(bad))
    elif reader == "dist-matrix":
        bad.write_bytes(b"0,1\n1,0\n\xff\n")
        args = ("test", "--input", str(pairs_csv), "--metric", "precomputed",
                "--dist-matrix", str(bad))
    else:
        bad.write_bytes(b"scenario = x\nmode = size\n\xff = normal\n")
        args = ("simulate", str(bad))
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "line 3: not valid UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("reader, line", [("input", 3), ("input", 1), ("dist-matrix", 2)])
def test_stray_quote_in_a_large_file_exits_2_naming_the_line(
    tmp_path, pairs_csv, reader, line
):
    # the unterminated quoted field runs past csv's 128 KiB field size limit
    bad = tmp_path / "quote.csv"
    if reader == "input":
        rows = ["x1,y1", "1,2", "3.25,4.5"] + ["5.25,6.125"] * 20000
        args = ("test", "--input", str(bad))
    else:
        rows = [",".join(["1"] * 300)] * 300
        args = ("test", "--input", str(pairs_csv), "--metric", "precomputed",
                "--dist-matrix", str(bad))
    rows[line - 1] = '"' + rows[line - 1]
    bad.write_text("\n".join(rows) + "\n")
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert f"line {line}: malformed CSV" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_negative_seed_exits_2(pairs_csv):
    proc = run_cli("test", "--input", str(pairs_csv), "--seed", "-1")
    assert proc.returncode == 2
    assert "seed must be non-negative" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_oracle_command_passes():
    proc = run_cli("oracle", "--instances", "25", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout


def test_oracle_command_validation():
    too_big = run_cli("oracle", "--max-pairs", "25")
    assert too_big.returncode == 2
    assert "threshold" in too_big.stderr
    zero = run_cli("oracle", "--instances", "0")
    assert zero.returncode == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--max-dim", "0"), "need 1 <= max_dim <= 1000, got 0"),
        (("--max-dim", "1001"), "need 1 <= max_dim <= 1000, got 1001"),
        (("--seed", "-1"), "seed must be non-negative, got -1"),
    ],
)
def test_oracle_flag_guards_exit_2(flags, message):
    # --max-dim 0 and --seed -1 used to end in numpy tracebacks with exit 1
    proc = run_cli("oracle", "--instances", "2", *flags)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_k_zero_exits_2_with_the_graph_message(pairs_csv, capsys):
    assert main(["test", "--input", str(pairs_csv), "--k", "0"]) == 2
    err = capsys.readouterr().err
    assert "k must be a positive integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "data, message",
    [
        (b"x1,y1\r1,2\r\xff,3\r", "line 3: not valid UTF-8 text"),
        (b"x1,y1\r1,2\r4,abc\r", "line 3: column y1: cannot parse 'abc'"),
    ],
)
def test_cr_only_csv_counts_lines_one_way(tmp_path, capsys, data, message):
    # a bad byte and a bad cell in the same place name the same line
    path = tmp_path / "cr.csv"
    path.write_bytes(data)
    assert main(["test", "--input", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_scenario_counts_lines_as_the_csv_readers_do(tmp_path, capsys):
    # U+0085 ends a line for str.splitlines but not for csv
    path = tmp_path / "nel.cfg"
    path.write_text(
        "scenario = s\x85mode = size\nfamily = normal\nn = 10\nd = 2\nbogus = 1\n",
        encoding="utf-8",
    )
    assert main(["simulate", str(path)]) == 2
    assert "line 5: invalid scenario key 'bogus'" in capsys.readouterr().err
