"""Data generators and the Monte Carlo size/power harness.

A scenario draws n pairs (X_i, Y_i) whose stacked 2d-vector follows a
multivariate normal, t3 or log-normal law with stacked mean (nu1, nu2) and
covariance (block scales) ⊗ I_d, the block scales being the 2 x 2 matrix
[[gamma1, gamma12], [gamma12, gamma2]]. The covariance has its eigenvalues,
so the PSD check and the factor are 2 x 2 ones: a ``GeneratorSpec`` checks
its block scales and keeps the factor when it is built, and a draw combines
the two halves of one n x 2d standard normal matrix by that factor. The t3
sampler is scaled so its *variance* (not its scale matrix) equals the
covariance.

A study is a ``Scenario``: its spec, mode, k, replicate count, seed and
levels, all checked when it is built, so a bad study fails before its first
replicate. ``run_size_study``, ``run_power_study`` and ``load_scenario`` each
build one, and ``run_scenario`` runs it. Replicate r uses the independent
stream default_rng([seed, r]), so results do not depend on evaluation order.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

import numpy as np

from .baselines import SingularCovarianceError, hotelling_paired
from .core import FLOAT_FORMAT, PairedSample, ValidationError, _readonly, pool
from .core import _check_seed, _integer
from .graph import DisconnectedError, _checked_k
from .inference import asymptotic_pvalues
from .io import _lines, _read_text
from .stats import graph_test

__all__ = [
    "GeneratorSpec",
    "StudyResult",
    "scalar_block_spec",
    "run_size_study",
    "run_power_study",
    "load_scenario",
    "run_scenario",
    "results_to_csv",
]

_FAMILIES = ("normal", "t3", "lognormal")
GRAPH_TESTS = ("z_m", "z_s", "z_g")
MAX_DRAW_FLOATS = 1 << 27  # floats in one replicate's n x 2d draw (1 GiB), checked first


def _check_draw_size(n: int, d: int) -> tuple[int, int]:
    """n and d as ints, refused unless the n x 2d draw fits MAX_DRAW_FLOATS."""
    n, d = _integer(n, "n"), _integer(d, "d")
    if n < 1 or d < 1 or 2 * n * d > MAX_DRAW_FLOATS:
        raise ValidationError(
            "need n >= 1 pairs, d >= 1 dimensions and a draw of 2nd <= "
            f"{MAX_DRAW_FLOATS} floats (MAX_DRAW_FLOATS); got n={n}, d={d}"
        )
    return n, d


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Family, stacked mean and block scales; a c * I_d array block is read as c.

    ``nu1`` and ``nu2`` are read-only copies; ``factor`` is the read-only
    2 x 2 factor of the block scales from ``_cov_factor``.
    """

    family: str
    nu1: np.ndarray
    nu2: np.ndarray
    gamma1: float
    gamma2: float
    gamma12: float
    n: int
    d: int
    factor: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValidationError(
                f"unknown family {self.family!r}; expected one of {_FAMILIES}"
            )
        n, d = _check_draw_size(self.n, self.d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        for name in ("nu1", "nu2"):
            vec = _readonly(np.asarray(getattr(self, name), dtype=float).ravel())
            if vec.size != d:
                raise ValidationError(f"{name} must have length d={d}")
            if not np.isfinite(vec).all():
                raise ValidationError(f"{name} must have finite entries")
            object.__setattr__(self, name, vec)
        for name in ("gamma1", "gamma2", "gamma12"):
            scale = np.asarray(getattr(self, name), dtype=float)
            if scale.shape == (d, d):
                diag = scale.diagonal()
                off = np.count_nonzero(scale) - np.count_nonzero(diag)
                if off == 0 and (diag == diag[0]).all():
                    scale = diag[0]
            if scale.ndim or not math.isfinite(scale):
                raise ValidationError(f"{name} must be a finite scalar or c * I_{d}")
            object.__setattr__(self, name, float(scale))
        object.__setattr__(self, "factor", _readonly(_cov_factor(self)))


def _cov_factor(spec: GeneratorSpec) -> np.ndarray:
    """A 2 x 2 factor L with L L' equal to the block scales; PSD validated."""
    sigma = np.array([[spec.gamma1, spec.gamma12], [spec.gamma12, spec.gamma2]])
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(sigma)
        floor = -1e-10 * max(1.0, float(vals[-1]))
        if vals[0] < floor:
            raise ValidationError(
                "block covariance is not positive semi-definite "
                f"(minimum eigenvalue {vals[0]:.3e})"
            ) from None
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def scalar_block_spec(
    family: str,
    n: int,
    d: int,
    *,
    mean_diff_norm: float = 0.0,
    var1: float = 1.0,
    var2: float = 1.0,
    rho12: float = 0.6,
) -> GeneratorSpec:
    """Scenario from scalar block scales.

    The mean difference is spread uniformly over coordinates: nu1 - nu2 =
    delta * ones with delta = mean_diff_norm / sqrt(d), so the Euclidean norm
    of the shift equals the requested target. gamma12 = rho12 *
    sqrt(var1) * sqrt(var2) keeps the per-coordinate cross correlation at
    rho12 for any variance scaling. Variances above half the largest float
    are rejected, so the block covariance stays clear of overflow.
    """
    n, d = _check_draw_size(n, d)
    limit = sys.float_info.max / 2
    if not (0 <= var1 <= limit and 0 <= var2 <= limit):
        raise ValidationError(
            f"var1 and var2 must be non-negative and at most {limit:.4g}, "
            "or the block covariance overflows"
        )
    if not (math.isfinite(mean_diff_norm) and math.isfinite(rho12)):
        raise ValidationError("mean_diff_norm and rho12 must be finite")
    delta = mean_diff_norm / math.sqrt(d)
    return GeneratorSpec(
        family=family,
        nu1=np.full(d, delta),
        nu2=np.zeros(d),
        gamma1=var1,
        gamma2=var2,
        gamma12=rho12 * math.sqrt(var1) * math.sqrt(var2),
        n=n,
        d=d,
    )


def _generate(spec: GeneratorSpec, rng: np.random.Generator) -> PairedSample:
    """Draw one paired sample from ``rng`` through ``spec.factor``."""
    n, d = spec.n, spec.d
    z = rng.standard_normal((n, 2 * d))
    (a, b), (c, e) = spec.factor  # x = a z1 + b z2, y = c z1 + e z2, coordinatewise
    rows = np.hstack([a * z[:, :d] + b * z[:, d:], c * z[:, :d] + e * z[:, d:]])
    if spec.family == "t3":
        # variance-targeted t3: nu + L z / sqrt(w), w ~ chi2(3), E(1/w) = 1
        w = rng.chisquare(3, size=n)
        rows /= np.sqrt(w)[:, None]
    rows += np.concatenate([spec.nu1, spec.nu2])
    if spec.family == "lognormal":
        top = rows.max()
        if top > np.log(sys.float_info.max):
            raise ValidationError(
                f"lognormal draw overflows float64 (largest log-scale coordinate "
                f"{top:.4g}); lower mean_diff_norm or the variances"
            )
        rows = np.exp(rows)
    return PairedSample(x=rows[:, :d], y=rows[:, d:])


@dataclass(frozen=True)
class StudyResult:
    """Rejection tallies for one scenario."""

    scenario: str
    mode: str  # "size" or "power"
    replicates: int
    seed: int
    k: int
    levels: tuple[float, ...]
    rejections: dict  # test -> {level -> count}
    valid: dict  # test -> replicates where the statistic was defined
    degenerate: dict  # test -> replicates where it was not

    def proportion(self, test: str, level: float) -> float:
        if self.valid[test] == 0:
            return float("nan")
        return self.rejections[test][level] / self.valid[test]

    @property
    def tests(self) -> tuple[str, ...]:
        return tuple(sorted(self.rejections))


@dataclass(frozen=True)
class Scenario:
    """One size or power study, checked when it is built.

    A size study needs a null ``spec`` (nu1 == nu2, gamma1 == gamma2); k
    must give a k-MST on the 2n pooled nodes, 1 <= k <= n; ``levels`` are
    stored sorted and must be distinct and lie in (0, 1].
    """

    name: str
    mode: str  # "size" or "power"
    spec: GeneratorSpec
    k: int = 5
    replicates: int = 1000
    seed: int = 0
    levels: tuple[float, ...] = (0.05, 0.1)

    def __post_init__(self) -> None:
        spec = self.spec
        if self.mode not in ("size", "power"):
            raise ValidationError("mode must be 'size' or 'power'")
        if self.mode == "size" and not (
            np.array_equal(spec.nu1, spec.nu2) and spec.gamma1 == spec.gamma2
        ):
            raise ValidationError(
                "size study needs a null scenario: nu1 == nu2 and gamma1 == gamma2"
            )
        object.__setattr__(self, "replicates", _integer(self.replicates, "replicates"))
        if self.replicates < 1:
            raise ValidationError("replicate count must be positive")
        object.__setattr__(self, "seed", _check_seed(self.seed))
        levels = tuple(sorted(float(a) for a in self.levels))
        if not levels or any(not 0 < a <= 1 for a in levels):
            raise ValidationError("levels must lie in (0, 1]")
        if len(set(levels)) < len(levels):
            raise ValidationError(f"levels must be distinct, got {levels}")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "k", _checked_k(self.k, 2 * spec.n))


def run_scenario(scenario: Scenario) -> StudyResult:
    """Run the study's replicates; replicate r draws from default_rng([seed, r]).

    An error in a replicate's draw, distances or graph names the scenario and
    the replicate, counted from 1.
    """
    spec, k, levels = scenario.spec, scenario.k, scenario.levels
    with_hotelling = scenario.mode == "power" and spec.d < spec.n
    tests = list(GRAPH_TESTS) + (["ht"] if with_hotelling else [])
    rejections = {t: {a: 0 for a in levels} for t in tests}
    valid = {t: 0 for t in tests}
    degenerate = {t: 0 for t in tests}

    for rep in range(scenario.replicates):
        rng = np.random.default_rng([scenario.seed, rep])
        try:
            sample = _generate(spec, rng)
            *_, triple = graph_test(pool(sample), k)
        except (ValidationError, DisconnectedError) as exc:
            # name the study and replicate; the error keeps its type and .level
            exc.args = (
                f"scenario {scenario.name!r} (var1={spec.gamma1:.4g}, "
                f"var2={spec.gamma2:.4g}), replicate {rep + 1}: {exc}",
            )
            raise
        pvals = asymptotic_pvalues(triple)
        found = dict(zip(GRAPH_TESTS, (pvals.p_m_asym, pvals.p_s_asym, pvals.p_g_asym)))
        if with_hotelling:
            try:
                found["ht"] = hotelling_paired(sample).p
            except SingularCovarianceError:
                found["ht"] = None
        for test, p in found.items():  # None: undefined for this replicate
            if p is None:
                degenerate[test] += 1
                continue
            valid[test] += 1
            for a in levels:
                rejections[test][a] += p <= a

    return StudyResult(
        scenario=scenario.name,
        mode=scenario.mode,
        replicates=scenario.replicates,
        seed=scenario.seed,
        k=k,
        levels=levels,
        rejections=rejections,
        valid=valid,
        degenerate=degenerate,
    )


def run_size_study(
    spec: GeneratorSpec,
    replicates: int = 1000,
    k: int = 5,
    seed: int = 0,
    levels=(0.05, 0.1),
    scenario: str = "size",
) -> StudyResult:
    """Empirical size: rejection rates of asymptotic p-values under the null."""
    return run_scenario(Scenario(name=scenario, mode="size", spec=spec, k=k,
                                 replicates=replicates, seed=seed, levels=levels))


def run_power_study(
    spec: GeneratorSpec,
    replicates: int = 1000,
    k: int = 5,
    seed: int = 0,
    levels=(0.05, 0.1),
    scenario: str = "power",
) -> StudyResult:
    """Estimated power; includes the Hotelling baseline whenever d < n."""
    return run_scenario(Scenario(name=scenario, mode="power", spec=spec, k=k,
                                 replicates=replicates, seed=seed, levels=levels))


# --- scenario files ---------------------------------------------------------


def _levels(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


_SCENARIO_KEYS = {
    "scenario": str,
    "mode": str,
    "family": str,
    "n": int,
    "d": int,
    "mean_diff_norm": float,
    "var1": float,
    "var2": float,
    "rho12": float,
    "k": int,
    "replicates": int,
    "seed": int,
    "levels": _levels,
}
_EXPECTED = {int: "an integer", float: "a number", _levels: "comma-separated numbers"}


def load_scenario(path) -> Scenario:
    """Parse and check a flat ``key = value`` scenario file; unset keys keep defaults."""
    values: dict = {}
    for lineno, line in enumerate(_lines(_read_text(Path(path))), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValidationError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _SCENARIO_KEYS:
            raise ValidationError(f"{path}: line {lineno}: invalid scenario key {key!r}")
        if key in values:
            raise ValidationError(f"{path}: line {lineno}: duplicate key {key!r}")
        convert = _SCENARIO_KEYS[key]
        try:
            values[key] = convert(value)
        except ValueError:
            raise ValidationError(
                f"{path}: line {lineno}: {key} must be {_EXPECTED[convert]}, got {value!r}"
            ) from None

    for key in ("scenario", "mode", "family", "n", "d"):
        if key not in values:
            raise ValidationError(f"{path}: missing required key {key!r}")
    try:
        spec = scalar_block_spec(
            values.pop("family"),
            values.pop("n"),
            values.pop("d"),
            **{key: values.pop(key) for key in ("mean_diff_norm", "var1", "var2", "rho12")
               if key in values},
        )
        return Scenario(name=values.pop("scenario"), spec=spec, **values)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def results_to_csv(results) -> str:
    """One CSV row per (scenario, test, level); fields quoted only where CSV must."""
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        "scenario,mode,test,level,rejections,valid,replicates,degenerate,"
        "proportion,seed".split(",")
    )
    for res in results:
        for test in res.tests:
            for level in res.levels:
                writer.writerow(
                    [
                        res.scenario,
                        res.mode,
                        test,
                        format(level, FLOAT_FORMAT),
                        res.rejections[test][level],
                        res.valid[test],
                        res.replicates,
                        res.degenerate[test],
                        format(res.proportion(test, level), FLOAT_FORMAT),
                        res.seed,
                    ]
                )
    return out.getvalue()
