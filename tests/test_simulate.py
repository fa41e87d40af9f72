import math
import sys

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
from pairedgraph.simulate import _cov_factor, _generate


def draw_sample(spec, seed):
    """One paired sample drawn from default_rng(seed), as a study replicate is."""
    return _generate(spec, np.random.default_rng(seed), _cov_factor(spec))


def test_spec_validates_shapes_and_psd():
    with pytest.raises(ValidationError, match="family"):
        scalar_block_spec("cauchy", 10, 2)
    with pytest.raises(ValidationError, match="positive semi-definite"):
        # cross block too strong for the marginals
        draw_sample(scalar_block_spec("normal", 5, 2, rho12=1.2), seed=0)
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


@pytest.mark.parametrize("var1, var2", [(1e308, 1e308), (1e308, 1.0), (1.0, 1e308)])
def test_overflowing_variances_are_named(var1, var2):
    with pytest.raises(ValidationError, match="var1 and var2"):
        scalar_block_spec("normal", 5, 2, var1=var1, var2=var2)


def test_largest_accepted_variances_keep_the_factor_finite():
    limit = sys.float_info.max / 2
    spec = scalar_block_spec("normal", 5, 2, var1=limit, var2=limit, rho12=0.9)
    assert np.isfinite(_cov_factor(spec)).all()


def test_huge_cross_correlation_fails_the_psd_check():
    spec = scalar_block_spec("normal", 2, 1, rho12=1e308)
    with pytest.raises(ValidationError, match="positive semi-definite"):
        _cov_factor(spec)


def test_overflowing_lognormal_draw_is_named():
    spec = scalar_block_spec("lognormal", 2, 1, mean_diff_norm=1e308)
    with pytest.raises(ValidationError, match="lognormal draw overflows"):
        draw_sample(spec, seed=0)


def test_mean_shift_norm_is_exact():
    for d, target in ((50, 1.3), (100, 1.5), (1000, 2.9), (7, 0.8)):
        spec = scalar_block_spec("normal", 10, d, mean_diff_norm=target)
        assert spec.mean_diff_norm() == pytest.approx(target, abs=1e-12)


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
    assert scenario.spec.mean_diff_norm() == pytest.approx(1.0, abs=1e-12)
    result = run_scenario(scenario)
    assert result.replicates == 8
    csv_text = results_to_csv([result])
    assert csv_text.startswith("scenario,mode,test,level,")
    assert "smoke,power,z_m,0.05" in csv_text


def test_scenario_file_errors(tmp_path):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("scenario = x\nmode = size\nfamily = normal\nn = 5\nd = 2\nwat = 1\n")
    with pytest.raises(ValidationError, match="invalid scenario key"):
        load_scenario(bad_key)

    zero_reps = tmp_path / "zero.cfg"
    zero_reps.write_text(
        "scenario = x\nmode = size\nfamily = normal\nn = 5\nd = 2\nreplicates = 0\n"
    )
    with pytest.raises(ValidationError, match="replicate"):
        run_scenario(load_scenario(zero_reps))

    missing = tmp_path / "missing.cfg"
    missing.write_text("scenario = x\nmode = size\nfamily = normal\nn = 5\n")
    with pytest.raises(ValidationError, match="missing required key"):
        load_scenario(missing)


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
