import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from pairedgraph import (
    DimensionError,
    ExactTooLargeError,
    PairedSample,
    SingularCovarianceError,
    ValidationError,
    hotelling_paired,
    precomputed_distance,
    run_paired_test,
    write_paired_csv,
)
from pairedgraph import report, stats

from oracles import paired_t_test

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in an interpreter where any import of scipy.stats fails, then hands
# over to ``python -m pairedgraph`` with the CSV path given as argv[1].
WITHOUT_SCIPY_STATS = '''
import runpy, sys
sys.modules["scipy.stats"] = None
import numpy as np
from pairedgraph import run_paired_test
rng = np.random.default_rng(0)
x = rng.standard_normal((30, 3))
y = x + 0.5 * rng.standard_normal((30, 3)) + 0.2
report = run_paired_test(x, y, pvalue="both", n_perm=500, baseline_ht=True, seed=0)
assert 0 < report.hotelling.p < 1
sys.argv = ["pairedgraph", "test", "--input", sys.argv[1], "--baseline-ht"]
runpy.run_module("pairedgraph", run_name="__main__", alter_sys=True)
'''


def sample_from(rng, n, d, shift=0.0):
    x = rng.standard_normal((n, d))
    y = rng.standard_normal((n, d)) + shift
    return PairedSample(x=x, y=y)


class TestHotelling:
    def test_identical_samples(self):
        x = np.random.default_rng(0).standard_normal((10, 3))
        report = hotelling_paired(PairedSample(x=x, y=x))
        assert report.t2 == 0.0
        assert report.p == 1.0

    def test_d1_equals_paired_t(self):
        rng = np.random.default_rng(1)
        sample = sample_from(rng, 25, 1, shift=0.3)
        report = hotelling_paired(sample)
        t, p = paired_t_test(sample.x[:, 0], sample.y[:, 0])
        assert report.t2 == pytest.approx(t**2, rel=1e-10)
        assert report.p == pytest.approx(p, abs=1e-10)

    def test_dimension_error_when_d_at_least_n(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DimensionError):
            hotelling_paired(sample_from(rng, 60, 100))
        with pytest.raises(DimensionError):
            hotelling_paired(sample_from(rng, 5, 5))

    def test_run_paired_test_checks_hotelling_before_the_graph(self, monkeypatch):
        def no_graph(*args):
            pytest.fail("the graph test ran before Hotelling's T2 was checked")

        monkeypatch.setattr(report, "graph_test", no_graph)
        sample = sample_from(np.random.default_rng(2), 8, 8)
        with pytest.raises(DimensionError):
            run_paired_test(sample.x, sample.y, pvalue="both", baseline_ht=True, seed=0)

    def test_run_paired_test_checks_k_before_hotelling_and_distances(self, monkeypatch):
        def too_early(*args, **kwargs):
            pytest.fail("Hotelling's T2 or the distances ran before k was checked")

        monkeypatch.setattr(report, "hotelling_paired", too_early)
        monkeypatch.setattr(stats, "distance_matrix", too_early)
        sample = sample_from(np.random.default_rng(2), 8, 3)
        with pytest.raises(ValidationError, match="^k must be a positive integer, got 0$"):
            run_paired_test(sample.x, sample.y, k=0, baseline_ht=True)

    def test_run_paired_test_refuses_exact_before_hotelling_and_distances(self, monkeypatch):
        def too_early(*args, **kwargs):
            pytest.fail("Hotelling's T2 or the distances ran before exact was checked")

        monkeypatch.setattr(report, "hotelling_paired", too_early)
        monkeypatch.setattr(stats, "distance_matrix", too_early)
        sample = sample_from(np.random.default_rng(2), 21, 3)
        with pytest.raises(ExactTooLargeError, match=r"^exact enumeration needs 2\^21 "):
            run_paired_test(
                sample.x, sample.y, pvalue="permutation", exact=True, baseline_ht=True
            )

    @pytest.mark.parametrize("arguments, message", [
        ({"pvalue": "both", "n_perm": 0}, "need at least one permutation, got n_perm=0"),
        ({"pvalue": "both", "n_perm": -3}, "need at least one permutation, got n_perm=-3"),
        ({"pvalue": "both", "n_perm": 2.5}, "n_perm must be an integer, got 2.5"),
        ({"pvalue": "both", "n_perm": True}, "n_perm must be an integer, got True"),
        ({"metric": "bogus"}, "unknown metric 'bogus'; expected one of ['euclidean', "
         "'manhattan'] or a precomputed matrix"),
        ({"distances": precomputed_distance(np.zeros((4, 4)))},
         "distance matrix covers 4 nodes but the pooled sample has 60"),
    ], ids=["n_perm=0", "n_perm=-3", "n_perm=2.5", "n_perm=True", "metric", "distances"])
    def test_run_paired_test_checks_its_arguments_before_hotelling_and_distances(
        self, monkeypatch, arguments, message
    ):
        def too_early(*args, **kwargs):
            pytest.fail("Hotelling's T2 or the distances ran before the arguments were checked")

        monkeypatch.setattr(report, "hotelling_paired", too_early)
        monkeypatch.setattr(stats, "distance_matrix", too_early)
        sample = sample_from(np.random.default_rng(2), 30, 3)
        with pytest.raises(ValidationError) as info:
            run_paired_test(sample.x, sample.y, baseline_ht=True, seed=1, **arguments)
        assert str(info.value) == message

    def test_singular_covariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 3))
        y = x.copy()
        y[:, 0] -= 1.0  # difference column 0 is constant, columns 1-2 are zero
        with pytest.raises(SingularCovarianceError):
            hotelling_paired(PairedSample(x=x, y=y))

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        sample = sample_from(rng, 40, 4, shift=0.2)
        base = hotelling_paired(sample)
        mat = rng.standard_normal((4, 4)) + 4 * np.eye(4)  # well conditioned
        mapped = hotelling_paired(
            PairedSample(x=sample.x @ mat.T, y=sample.y @ mat.T)
        )
        assert mapped.t2 == pytest.approx(base.t2, rel=1e-8)
        assert mapped.p == pytest.approx(base.p, rel=1e-6)

    def test_f_transform_and_dfs(self):
        rng = np.random.default_rng(5)
        sample = sample_from(rng, 20, 3, shift=0.5)
        report = hotelling_paired(sample)
        assert report.df1 == 3
        assert report.df2 == 17
        assert report.f_stat == pytest.approx(report.t2 * 17 / (3 * 19), rel=1e-12)
        assert report.p == float(sps.f.sf(report.f_stat, 3, 17))

    def test_pvalue_bit_equal_to_scipy_stats(self):
        rng = np.random.default_rng(7)
        for n, d, shift in ((12, 1, 0.0), (30, 4, 0.3), (80, 20, 0.1), (200, 50, 0.05)):
            report = hotelling_paired(sample_from(rng, n, d, shift))
            assert report.p == float(sps.f.sf(report.f_stat, d, n - d))

    def test_zero_mean_difference_gives_p_one(self):
        # integer differences whose columns sum to exactly zero: F = 0, where
        # the F tail area is 1 (scipy.special.fdtrc is NaN below the support)
        rng = np.random.default_rng(8)
        half = rng.integers(-5, 6, size=(10, 3)).astype(float)
        diffs = np.vstack([half, -half])
        y = rng.integers(-50, 51, size=(20, 3)).astype(float)
        report = hotelling_paired(PairedSample(x=y + diffs, y=y))
        assert report.f_stat == 0.0
        assert report.p == 1.0 == float(sps.f.sf(0.0, 3, 17))


class TestPairedT:
    def test_equal_samples(self):
        x = np.arange(5.0)
        assert paired_t_test(x, x) == (0.0, 1.0)

    def test_two_point_closed_form(self):
        # differences (1, 3): mean 2, sd sqrt(2), t = 2, df = 1
        t, p = paired_t_test([1.0, 3.0], [0.0, 0.0])
        assert t == pytest.approx(2.0, rel=1e-14)
        assert p == float(2.0 * sps.t.sf(2.0, 1))

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30) + 0.4
        t, p = paired_t_test(x, y)
        ref = sps.ttest_rel(x, y)
        assert t == pytest.approx(ref.statistic, abs=1e-8)
        assert p == pytest.approx(ref.pvalue, abs=1e-8)

    def test_pvalue_bit_equal_to_scipy_stats(self):
        rng = np.random.default_rng(9)
        for size in (2, 3, 10, 101, 5000):
            for shift in (0.0, 0.2, 3.0):
                x = rng.standard_normal(size)
                t, p = paired_t_test(x + shift, x * 0.5)
                assert p == float(2.0 * sps.t.sf(abs(t), size - 1))

    def test_constant_nonzero_differences(self):
        with pytest.raises(ValueError, match="constant and nonzero"):
            paired_t_test([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])

    def test_needs_two_pairs(self):
        with pytest.raises(ValidationError):
            paired_t_test([1.0], [2.0])


def test_package_runs_without_scipy_stats(tmp_path):
    # scipy.stats costs about a third of the process; the tail areas come
    # from the scipy.special ufuncs behind it
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((2, 12, 2))
    path = tmp_path / "pairs.csv"
    write_paired_csv(PairedSample(x=x, y=y), path)
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY_STATS, str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"hotelling":{"df1":2,"df2":10' in proc.stdout
