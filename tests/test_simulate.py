import csv
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairedgraph import (
    DisconnectedError,
    GeneratorSpec,
    ValidationError,
    load_scenario,
    results_to_csv,
    run_power_study,
    run_scenario,
    run_size_study,
    scalar_block_spec,
)
from pairedgraph import simulate
from pairedgraph.cli import main
from pairedgraph.simulate import _generate

from oracles import dense_generate


def draw_sample(spec, seed):
    """One paired sample drawn from default_rng(seed), as a study replicate is."""
    return _generate(spec, np.random.default_rng(seed))


def spec_with(d=2, n=5, **blocks):
    """A normal GeneratorSpec with zero means and the given block scales."""
    scales = {"gamma1": 1.0, "gamma2": 2.0, "gamma12": 0.5, **blocks}
    return GeneratorSpec(family="normal", nu1=np.zeros(d), nu2=np.zeros(d), n=n, d=d,
                         **scales)


def test_spec_validates_shapes_and_psd():
    with pytest.raises(ValidationError, match="family"):
        scalar_block_spec("cauchy", 10, 2)
    with pytest.raises(ValidationError, match="positive semi-definite"):
        # cross block too strong for the marginals: refused when the spec is built
        scalar_block_spec("normal", 5, 2, rho12=1.2)
    with pytest.raises(ValidationError, match="nu1"):
        GeneratorSpec(
            family="normal",
            nu1=np.zeros(3),
            nu2=np.zeros(2),
            gamma1=np.eye(2),
            gamma2=np.eye(2),
            gamma12=np.zeros((2, 2)),
            n=5,
            d=2,
        )
    # a non-finite mean is named at construction, not in the first replicate
    for name in ("nu1", "nu2"):
        for bad in (math.inf, -math.inf, math.nan):
            means = {"nu1": np.zeros(2), "nu2": np.zeros(2), name: np.array([0.0, bad])}
            with pytest.raises(ValidationError, match=f"{name} must have finite"):
                GeneratorSpec(family="normal", gamma1=1.0, gamma2=1.0, gamma12=0.0,
                              n=5, d=2, **means)

    # a c * I_d block is read as the scalar c: same spec, same draw
    eye = np.eye(3)
    arrays = spec_with(d=3, gamma1=eye, gamma2=2.0 * eye, gamma12=0.5 * eye)
    scalars = spec_with(d=3)
    assert (arrays.gamma1, arrays.gamma2, arrays.gamma12) == (1.0, 2.0, 0.5)
    assert all(type(g) is float for g in (arrays.gamma1, arrays.gamma2, arrays.gamma12))
    a, b = draw_sample(arrays, seed=3), draw_sample(scalars, seed=3)
    assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()
    assert spec_with(d=2, gamma12=np.zeros((2, 2))).gamma12 == 0.0

    # anything but a scalar or c * I_d is refused
    for name, block in [
        ("gamma1", np.diag([1.0, 2.0])),
        ("gamma12", np.array([[0.5, 0.1], [0.1, 0.5]])),
        ("gamma2", np.eye(3)),
        ("gamma12", np.full(2, 0.5)),
        ("gamma1", math.nan),
        ("gamma2", math.inf),
    ]:
        with pytest.raises(ValidationError, match=name):
            spec_with(d=2, **{name: block})

    # singular block covariance (|rho| = 1, or a zero variance): the eigh
    # factor still gives finite draws with covariance S kron I_d
    for var2, rho12 in ((1.0, 1.0), (1.0, -1.0), (0.0, 0.6)):
        spec = scalar_block_spec("normal", 40_000, 2, var2=var2, rho12=rho12)
        sample = draw_sample(spec, seed=8)
        assert np.isfinite(sample.x).all() and np.isfinite(sample.y).all()
        cross = rho12 * math.sqrt(var2)
        target = np.kron([[1.0, cross], [cross, var2]], np.eye(2))
        cov = np.cov(np.hstack([sample.x, sample.y]), rowvar=False)
        assert np.allclose(cov, target, atol=0.03)


@pytest.mark.parametrize("family", ["normal", "t3", "lognormal"])
@pytest.mark.parametrize("var1, var2, rho12", [(1.0, 1.0, 0.6), (2.5, 0.3, -0.8)])
def test_generate_matches_the_dense_draw(family, var1, var2, rho12):
    # the same numbers up to rounding: the dense product may fuse a multiply
    # and an add, and sums the two terms of y in its own order; atol covers
    # y near zero, where those terms cancel
    spec = scalar_block_spec(family, 30, 7, mean_diff_norm=0.8, var1=var1, var2=var2,
                             rho12=rho12)
    for seed in range(3):
        got = draw_sample(spec, seed)
        want = dense_generate(spec, np.random.default_rng(seed))
        np.testing.assert_allclose(got.x, want.x, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(got.y, want.y, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("family", ["normal", "t3", "lognormal"])
def test_study_tallies_match_the_dense_draw(monkeypatch, family):
    spec = scalar_block_spec(family, 12, 3, mean_diff_norm=0.7, var2=1.5)
    elementwise = run_power_study(spec, replicates=6, k=3, seed=5)
    monkeypatch.setattr(simulate, "_generate", dense_generate)
    assert run_power_study(spec, replicates=6, k=3, seed=5) == elementwise


def test_oversized_draw_is_refused_before_allocating(monkeypatch, tmp_path):
    monkeypatch.setattr(simulate, "MAX_DRAW_FLOATS", 20)
    scalar_block_spec("normal", 5, 2)  # 2nd = 20 floats: at the limit
    for build in (lambda: scalar_block_spec("normal", 3, 4),
                  lambda: spec_with(n=3, d=4)):
        with pytest.raises(ValidationError, match=r"20 floats.*n=3, d=4"):
            build()
    path = tmp_path / "big.cfg"
    path.write_text("scenario = big\nmode = size\nfamily = normal\nn = 6\nd = 2\n")
    with pytest.raises(ValidationError, match="n=6, d=2"):
        load_scenario(path)
    with redirect_stderr(StringIO()) as err:
        assert main(["simulate", str(path)]) == 2
    assert "MAX_DRAW_FLOATS" in err.getvalue()


def test_draw_sizes_are_integers():
    for build, message in (
        (lambda: scalar_block_spec("normal", 5.5, 2), "n must be an integer, got 5.5"),
        (lambda: scalar_block_spec("normal", 5, 2.5), "d must be an integer, got 2.5"),
        (lambda: spec_with(n=True, d=2), "n must be an integer, got True"),
    ):
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == message
    spec = scalar_block_spec("normal", np.int64(5), np.int64(2))
    assert (type(spec.n), type(spec.d)) == (int, int)


@pytest.mark.parametrize("var1, var2", [(1e308, 1e308), (1e308, 1.0), (1.0, 1e308)])
def test_overflowing_variances_are_named(var1, var2):
    with pytest.raises(ValidationError, match="var1 and var2"):
        scalar_block_spec("normal", 5, 2, var1=var1, var2=var2)


def test_largest_accepted_variances_keep_the_factor_finite():
    limit = sys.float_info.max / 2
    spec = scalar_block_spec("normal", 5, 2, var1=limit, var2=limit, rho12=0.9)
    assert np.isfinite(spec.factor).all()


def test_huge_cross_correlation_fails_the_psd_check():
    with pytest.raises(ValidationError, match="positive semi-definite"):
        scalar_block_spec("normal", 2, 1, rho12=1e308)


def test_overflowing_lognormal_draw_is_named():
    spec = scalar_block_spec("lognormal", 2, 1, mean_diff_norm=1e308)
    with pytest.raises(ValidationError, match="lognormal draw overflows"):
        draw_sample(spec, seed=0)


def test_mean_shift_norm_is_exact():
    for d, target in ((50, 1.3), (100, 1.5), (1000, 2.9), (7, 0.8)):
        spec = scalar_block_spec("normal", 10, d, mean_diff_norm=target)
        assert np.linalg.norm(spec.nu1 - spec.nu2) == pytest.approx(target, abs=1e-12)


def test_generate_shapes_and_reproducibility():
    spec = scalar_block_spec("t3", 20, 3, mean_diff_norm=1.0)
    a = draw_sample(spec, seed=5)
    b = draw_sample(spec, seed=5)
    assert a.x.shape == (20, 3)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.x, draw_sample(spec, seed=6).x)


def test_zero_cross_block_gives_uncorrelated_samples():
    spec = scalar_block_spec("normal", 10_000, 2, rho12=0.0)
    sample = draw_sample(spec, seed=1)
    for i in range(2):
        for j in range(2):
            r = np.corrcoef(sample.x[:, i], sample.y[:, j])[0, 1]
            assert abs(r) < 0.1


def test_normal_covariance_targets_identity():
    spec = scalar_block_spec("normal", 100_000, 2)
    sample = draw_sample(spec, seed=2)
    cov = np.cov(sample.x, rowvar=False)
    assert np.allclose(cov, np.eye(2), atol=0.05)
    cross = np.cov(sample.x[:, 0], sample.y[:, 0])[0, 1]
    assert cross == pytest.approx(0.6, abs=0.05)


def test_t3_variance_targets_gamma_diagonal():
    # heavy tails (no 4th moment) make the sample variance noisy, so the
    # seed is fixed; a wrong scale matrix would miss by a factor of 3
    spec = scalar_block_spec("t3", 100_000, 2, var1=2.0, var2=2.0, rho12=0.0)
    sample = draw_sample(spec, seed=2)
    for col in range(2):
        assert np.var(sample.x[:, col]) == pytest.approx(2.0, rel=0.05)
        assert np.var(sample.y[:, col]) == pytest.approx(2.0, rel=0.05)


def test_lognormal_is_exp_of_normal():
    spec = scalar_block_spec("lognormal", 1000, 2)
    sample = draw_sample(spec, seed=4)
    assert (sample.x > 0).all() and (sample.y > 0).all()
    # log of the draw should look standard normal
    logs = np.log(sample.x).ravel()
    assert abs(logs.mean()) < 0.1
    assert np.var(logs) == pytest.approx(1.0, rel=0.15)


def test_size_study_requires_null_spec():
    spec = scalar_block_spec("normal", 10, 2, mean_diff_norm=0.5)
    with pytest.raises(ValidationError, match="null"):
        run_size_study(spec, replicates=5, k=1, seed=0)


def test_repeated_levels_are_refused():
    spec = scalar_block_spec("normal", 10, 2)
    for run in (run_size_study, run_power_study):
        with pytest.raises(ValidationError, match="levels must be distinct"):
            run(spec, replicates=5, k=2, levels=(0.1, 0.1))


def test_size_study_level_one_rejects_everything():
    spec = scalar_block_spec("normal", 12, 2)
    result = run_size_study(spec, replicates=30, k=2, seed=0, levels=(1.0,))
    for test in ("z_m", "z_s", "z_g"):
        if result.valid[test]:
            assert result.proportion(test, 1.0) == 1.0


def test_study_results_reproducible():
    spec = scalar_block_spec("normal", 15, 3)
    a = run_size_study(spec, replicates=40, k=2, seed=11)
    b = run_size_study(spec, replicates=40, k=2, seed=11)
    assert a == b
    assert results_to_csv([a]) == results_to_csv([b])


def test_degenerate_replicates_counted_not_dropped():
    # n = 2 pairs and k = 1 gives a 3-edge tree whose cross-pair part is
    # degenerate in at least one direction every time
    spec = scalar_block_spec("normal", 2, 1)
    result = run_size_study(spec, replicates=20, k=1, seed=3)
    for test in ("z_m", "z_s", "z_g"):
        assert result.valid[test] + result.degenerate[test] == 20
    assert sum(result.degenerate.values()) > 0


def test_power_study_reduces_to_size_under_null():
    spec = scalar_block_spec("normal", 30, 2)
    result = run_power_study(spec, replicates=120, k=2, seed=7, levels=(0.05,))
    for test in ("z_m", "z_s", "z_g"):
        assert result.proportion(test, 0.05) <= 0.12


def test_power_study_includes_hotelling_only_when_d_below_n():
    wide = scalar_block_spec("normal", 4, 6, mean_diff_norm=1.0)
    result = run_power_study(wide, replicates=5, k=2, seed=0)
    assert "ht" not in result.rejections
    narrow = scalar_block_spec("normal", 12, 2, mean_diff_norm=1.0)
    result = run_power_study(narrow, replicates=5, k=2, seed=0)
    assert "ht" in result.rejections


def test_power_detects_a_large_mean_shift():
    spec = scalar_block_spec("normal", 30, 3, mean_diff_norm=2.5)
    result = run_power_study(spec, replicates=60, k=5, seed=13, levels=(0.05,))
    assert result.proportion("z_m", 0.05) > 0.8
    assert result.proportion("ht", 0.05) > 0.8


def test_scenario_file_round_trip(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# comment line\n"
        "scenario = smoke\n"
        "mode = power\n"
        "family = normal\n"
        "n = 10\n"
        "d = 2\n"
        "mean_diff_norm = 1.0\n"
        "replicates = 8\n"
        "k = 2\n"
        "seed = 42\n"
        "levels = 0.05, 0.1\n"
    )
    scenario = load_scenario(path)
    assert scenario.name == "smoke"
    assert scenario.levels == (0.05, 0.1)
    spec = scenario.spec
    assert np.linalg.norm(spec.nu1 - spec.nu2) == pytest.approx(1.0, abs=1e-12)
    result = run_scenario(scenario)
    assert result.replicates == 8
    csv_text = results_to_csv([result])
    assert csv_text.startswith("scenario,mode,test,level,")
    assert "smoke,power,z_m,0.05" in csv_text


def test_scenario_names_are_quoted_in_the_csv(tmp_path):
    name = 'normal, d5 "quoted"'
    path = tmp_path / "quoted.cfg"
    path.write_text(
        f"scenario = {name}\nmode = size\nfamily = normal\nn = 8\nd = 2\n"
        "replicates = 3\nk = 2\n"
    )
    out = StringIO()
    with redirect_stdout(out):
        assert main(["simulate", str(path)]) == 0
    spec = scalar_block_spec("normal", 8, 2, mean_diff_norm=1.0)
    study = results_to_csv([run_power_study(spec, replicates=3, k=2, scenario=name)])
    for text in (out.getvalue(), study):
        rows = list(csv.reader(StringIO(text)))
        assert [len(row) for row in rows] == [10] * len(rows)
        assert [row[0] for row in rows[1:]] == [name] * (len(rows) - 1)


def test_scenario_file_errors(tmp_path):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("scenario = x\nmode = size\nfamily = normal\nn = 5\nd = 2\nwat = 1\n")
    with pytest.raises(ValidationError, match="invalid scenario key"):
        load_scenario(bad_key)

    zero_reps = tmp_path / "zero.cfg"
    zero_reps.write_text(
        "scenario = x\nmode = size\nfamily = normal\nn = 5\nd = 2\nreplicates = 0\n"
    )
    with pytest.raises(ValidationError, match="zero.cfg: replicate count must be positive"):
        load_scenario(zero_reps)

    missing = tmp_path / "missing.cfg"
    missing.write_text("scenario = x\nmode = size\nfamily = normal\nn = 5\n")
    with pytest.raises(ValidationError, match="missing required key"):
        load_scenario(missing)

    not_psd = tmp_path / "not_psd.cfg"
    not_psd.write_text("scenario = x\nmode = power\nfamily = normal\nn = 5\nd = 2\n"
                       "rho12 = 1.2\n")
    with pytest.raises(ValidationError, match="not_psd.cfg: .*positive semi-definite"):
        load_scenario(not_psd)


@pytest.mark.parametrize("line, message", [
    ("k = 2.5", "k must be an integer, got '2.5'"),
    ("seed = abc", "seed must be an integer, got 'abc'"),
    ("replicates = 10.0", "replicates must be an integer, got '10.0'"),
    ("var1 = one", "var1 must be a number, got 'one'"),
    ("levels = a, b", "levels must be comma-separated numbers, got 'a, b'"),
])
def test_unparsable_scenario_value_names_its_key_and_line(tmp_path, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"scenario = x\nmode = size\nfamily = normal\nn = 5\nd = 2\n{line}\n")
    with pytest.raises(ValidationError) as info:
        load_scenario(path)
    assert str(info.value) == f"{path}: line 6: {message}"


def test_disconnected_replicate_names_the_scenario_and_keeps_its_level():
    # k = n: some draw of 3 pairs has no third spanning tree
    with pytest.raises(DisconnectedError, match=r"^scenario 'tiny' \(var1=1, var2=1\), "
                       r"replicate 2: graph is disconnected at MST level 3") as info:
        run_size_study(scalar_block_spec("normal", 3, 1), replicates=20, k=3,
                       scenario="tiny")
    assert info.value.level == 3


@pytest.mark.parametrize("key, value", [
    ("replicates", True), ("replicates", 2.5), ("seed", True), ("seed", 1.5),
])
def test_study_seed_and_replicates_must_be_integers(key, value):
    spec = scalar_block_spec("normal", 4, 2)
    with pytest.raises(ValidationError, match=f"^{key} must be an integer, got {value!r}$"):
        run_size_study(spec, k=2, **{"replicates": 2, key: value})
    result = run_size_study(spec, k=2, **{"replicates": 2, key: np.uint8(2)})
    assert type(result.replicates) is int and type(result.seed) is int


# k = 7 is n + 1; a line whose key the head sets replaces that key's line
@pytest.mark.parametrize("bad", [
    "rho12 = 1.2\n", "wat = 1\n", "replicates = 0\n", "seed = -1\n", "levels = 2\n",
    "k = 0\n", "k = 7\n", "mean_diff_norm = 1\n", "levels = 0.1, 0.05, 0.1\n",
])
def test_simulate_checks_every_file_before_any_study(monkeypatch, tmp_path, bad):
    draws = []
    generate = simulate._generate
    monkeypatch.setattr(simulate, "_generate",
                        lambda *args: draws.append(args) or generate(*args))
    head = ["mode = size", "family = normal", "n = 6", "d = 2", "replicates = 2", "k = 2"]
    key = bad.split("=")[0].strip()
    kept = [line for line in head if not line.startswith(f"{key} =")]
    good, last = tmp_path / "good.cfg", tmp_path / "last.cfg"
    good.write_text("\n".join(["scenario = good", *head]) + "\n")
    last.write_text("\n".join(["scenario = last", *kept]) + "\n" + bad)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(["simulate", str(good), str(last)]) == 2
    assert draws == [] and out.getvalue() == ""
    assert "last.cfg" in err.getvalue()


# key: (typical values, edge values: zero, negative, non-finite, out of range)
_BAD_REALS = [-1.0, math.nan, math.inf, 1e308]
_FUZZ_KEYS = {
    "n": (st.integers(2, 12), st.sampled_from([1, 0, -1])),
    "d": (st.integers(1, 4), st.sampled_from([0, -1])),
    "k": (st.integers(1, 3), st.sampled_from([0, -1, 7])),
    "replicates": (st.just(1), st.sampled_from([0, -1])),
    "seed": (st.integers(0, 2**64), st.integers(-(2**63), -1)),
    "mean_diff_norm": (st.sampled_from([0.0, 0.5]), st.sampled_from(_BAD_REALS)),
    "var1": (st.just(1.0), st.sampled_from([0.0, *_BAD_REALS])),
    "var2": (st.just(1.0), st.sampled_from([0.0, *_BAD_REALS])),
    "rho12": (st.floats(-0.9, 0.9), st.sampled_from([1.5, *_BAD_REALS])),
    "levels": (st.sampled_from([0.05, 1.0]), st.sampled_from([0.0, 2.0, *_BAD_REALS])),
}


@st.composite
def scenario_values(draw):
    """Every numeric scenario key; a few of them spoilt, maybe not numbers."""
    spoilt = draw(st.sets(st.sampled_from(sorted(_FUZZ_KEYS)), max_size=3))
    values = {}
    for key, (typical, edge) in _FUZZ_KEYS.items():
        if key not in spoilt:
            values[key] = str(draw(typical))
        else:
            junk = st.sampled_from(["abc", "", "1e", "0x10", "1.5"])
            values[key] = str(draw(st.one_of(edge, junk)))
    return values


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(["size", "power"]),
    family=st.sampled_from(["normal", "t3", "lognormal"]),
    values=scenario_values(),
)
def test_scenario_fuzz_fails_only_with_documented_errors(
    tmp_path_factory, mode, family, values
):
    # a bad file may only raise the errors the CLI maps to exit code 2
    lines = ["scenario = fuzz", f"mode = {mode}", f"family = {family}"]
    lines += [f"{key} = {value}" for key, value in values.items()]
    path = tmp_path_factory.mktemp("fuzz") / "scenario.cfg"
    path.write_text("\n".join(lines) + "\n")
    try:
        result = run_scenario(load_scenario(path))
    except (ValidationError, DisconnectedError):
        return
    assert result.replicates == 1
