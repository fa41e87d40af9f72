"""The benchmark's workloads: inputs from a seed, one operation, output checks.

Every workload draws ``INPUTS`` distinct inputs with numpy from the seed it
is given (input i from the stream default_rng([seed, i])), so the program
under test receives only arrays and CSV files. Operation j of the closed loop
runs on input j mod INPUTS. A run averages over many inputs, because an
operation's cost depends on the graph its data produce; INPUTS is about the
number of operations one run completes. ``run`` performs one operation and
returns its output, which completes ``units`` units of work; ``check`` returns
the reasons that output is wrong (empty when it is right). The checks are
identities that hold for any seed, byte equality with the input's earlier
output, and on ``DEFAULT_SEED`` the digest of input 0's output: a fixed seed
must keep giving the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

# sha256 of each workload's output for input 0 of DEFAULT_SEED, recorded when
# the benchmark was added (report_json bytes, or the canonical study tallies).
DIGESTS = {
    "test_both": "de62adb5e158869a67594f6991756c825ff3107cdb3a39729969364179598475",
    "power_sweep": "5093eb42bcc9bc67c666b69ad42e0bc2c2294c39335a2f2b3543952a1ebe9710",
}

RHO = 0.6  # within-pair coordinate correlation, as in demos/scenarios
K = 5
LEVELS = (0.05, 0.1)


def paired_normal(rng: np.random.Generator, n: int, d: int, shift_norm: float):
    """n normal pairs with coordinate correlation RHO; y's mean moves by a
    vector of Euclidean norm ``shift_norm`` spread evenly over coordinates."""
    x = rng.standard_normal((n, d))
    noise = rng.standard_normal((n, d))
    y = RHO * x + math.sqrt(1.0 - RHO * RHO) * noise + shift_norm / math.sqrt(d)
    return x, y


def write_pairs_csv(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    """The paired CSV format (header x1..xd,y1..yd); repr round-trips exactly."""
    d = x.shape[1]
    header = [f"x{j}" for j in range(1, d + 1)] + [f"y{j}" for j in range(1, d + 1)]
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in np.hstack([x, y]).tolist()]
    path.write_text("\n".join(lines) + "\n")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_problems(text: str, *, n: int, d: int, seed: int, n_perm: int) -> list[str]:
    """Identities every report_json of a Monte Carlo test with asymptotic
    p-values and the Hotelling baseline must satisfy, whatever the seed.

    Permutation p-values are multiples of 1/(B + 1) in [1/(B + 1), 1]: the
    add-one estimator always counts the identity swap.
    """
    rep = json.loads(text)
    problems = []
    if (rep["input"]["n"], rep["input"]["d"], rep["seed"]) != (n, d, seed):
        problems.append("report does not echo n, d and seed")
    diag = rep["diagnostics"]
    if diag["census_q3"] != diag["q3"]:
        problems.append(f"census_q3 {diag['census_q3']} != q3 {diag['q3']}")
    if rep["moments"]["e_r1"] != rep["graph"]["cross_pair_edges"] / 4:
        problems.append("e_r1 != m/4")
    st = rep["statistics"]
    if st["z_m"] is not None and st["z_s"] is not None:
        want = st["z_m"] ** 2 + st["z_s"] ** 2
        if st["z_g"] is None or not math.isclose(
            st["z_g"], want, rel_tol=1e-9, abs_tol=1e-12
        ):
            problems.append(f"z_g {st['z_g']} != z_m^2 + z_s^2 = {want}")
    pv = rep["p_values"]
    if (pv["mode"], pv["n_permutations"]) != ("monte-carlo", n_perm):
        problems.append(f"expected {n_perm} monte-carlo permutations, got {pv['n_permutations']} {pv['mode']}")
    denom = n_perm + 1
    for which in ("m", "s", "g"):
        defined = st[f"z_{which}"] is not None
        p = pv[f"{which}_permutation"]
        if (p is not None) != defined:
            problems.append(f"{which}_permutation is set iff z_{which} is defined")
        elif p is not None:
            hits = p * denom
            if abs(hits - round(hits)) > 1e-6 or not 1 <= round(hits) <= denom:
                problems.append(f"{which}_permutation {p!r} is not in {{1..{denom}}}/{denom}")
        p = pv[f"{which}_asymptotic"]
        if defined and not (p is not None and 0.0 <= p <= 1.0):
            problems.append(f"{which}_asymptotic {p!r} outside [0, 1]")
    baseline = rep["baseline"]
    if baseline is None:
        problems.append("Hotelling baseline missing")
    elif not 0.0 <= baseline["hotelling"]["p"] <= 1.0:
        problems.append("Hotelling p outside [0, 1]")
    return problems


class Workload:
    """Shared bookkeeping: inputs, same-seed repeatability, the default-seed digest."""

    name = ""
    work_unit = ""
    units = 1  # work_units completed by one operation
    INPUTS = 1

    def __init__(self, pg, seed: int, workdir: Path) -> None:
        self.pg = pg
        self.seed = seed
        self.workdir = workdir
        self.inputs = [self.make_input(np.random.default_rng([seed, i]), i)
                       for i in range(self.INPUTS)]
        self.outputs: dict[int, str] = {}

    def check(self, op: int, output: str) -> list[str]:
        """Problems with the output of operation ``op``."""
        i = op % self.INPUTS
        problems = self.output_problems(output)
        if self.outputs.setdefault(i, output) != output:
            problems.append(f"input {i}: two calls with the same seed gave different bytes")
        if (self.seed, i) == (DEFAULT_SEED, 0) and digest(output) != DIGESTS[self.name]:
            problems.append(f"output digest differs from the one recorded for seed {DEFAULT_SEED}")
        return problems

    def run(self, op: int) -> str:
        """The output of operation ``op``."""
        return self.call(self.inputs[op % self.INPUTS])

    def make_input(self, rng: np.random.Generator, i: int):
        raise NotImplementedError

    def call(self, inp) -> str:
        raise NotImplementedError

    def output_problems(self, output: str) -> list[str]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Exercise every code path once on a tiny input, so lazy set-up is done."""
        raise NotImplementedError


class TestBoth(Workload):
    """Read a paired CSV, run both p-value kinds with Hotelling, render JSON."""

    name = "test_both"
    work_unit = "tests"
    INPUTS = 32
    N, D, SHIFT, N_PERM = 300, 100, 1.0, 10_000

    def make_input(self, rng, i, n=N, d=D, n_perm=N_PERM):
        path = self.workdir / f"pairs{i}.csv"
        write_pairs_csv(path, *paired_normal(rng, n, d, self.SHIFT))
        return path, n_perm

    def call(self, inp):
        path, n_perm = inp
        pg = self.pg
        sample = pg.read_paired_csv(path)
        report = pg.run_paired_test(
            sample.x, sample.y, k=K, pvalue="both", n_perm=n_perm,
            baseline_ht=True, seed=self.seed,
        )
        return pg.report_json(report)

    def warm_up(self):
        self.call(self.make_input(np.random.default_rng(self.seed), "_warm_up", 30, 5, 99))

    def output_problems(self, output):
        return report_problems(output, n=self.N, d=self.D, seed=self.seed, n_perm=self.N_PERM)


# (mode, family, n, d, mean shift norm, second-sample variance), modeled on
# demos/scenarios: the power study at n = 150, d = 100 also runs Hotelling.
STUDIES = (
    ("power", "normal", 60, 100, 1.5, 1.0),
    ("size", "lognormal", 100, 10, 0.0, 1.0),
    ("power", "t3", 150, 100, 1.0, 1.15),
    ("size", "normal", 200, 50, 0.0, 1.0),
)


class PowerSweep(Workload):
    """The size/power harness: the four STUDIES, REPLICATES each, per operation.

    An input is the study seed; the harness draws replicate r of a study from
    default_rng([study seed, r]) itself.
    """

    name = "power_sweep"
    work_unit = "replicates"
    INPUTS = 80
    REPLICATES = 4
    units = REPLICATES * len(STUDIES)

    def __init__(self, pg, seed, workdir):
        self.specs = [(mode, self._spec(pg, family, n, d, shift, var2))
                      for mode, family, n, d, shift, var2 in STUDIES]
        super().__init__(pg, seed, workdir)

    @staticmethod
    def _spec(pg, family, n, d, shift, var2):
        eye = np.eye(d)
        return pg.GeneratorSpec(
            family=family, nu1=np.full(d, shift / math.sqrt(d)), nu2=np.zeros(d),
            gamma1=eye, gamma2=var2 * eye, gamma12=RHO * math.sqrt(var2) * eye,
            n=n, d=d,
        )

    def make_input(self, rng, i):
        return self.specs, int(rng.integers(2**31)), self.REPLICATES

    def call(self, inp):
        specs, study_seed, replicates = inp
        pg = self.pg
        tallies = []
        for pos, (mode, spec) in enumerate(specs):
            runner = pg.run_power_study if mode == "power" else pg.run_size_study
            res = runner(spec, replicates=replicates, k=K, seed=study_seed,
                         levels=LEVELS, scenario=f"{mode}-{spec.family}-{pos}")
            tallies.append({
                "scenario": res.scenario,
                "replicates": int(res.replicates),
                "rejections": {t: {str(a): int(c) for a, c in sorted(r.items())}
                               for t, r in res.rejections.items()},
                "valid": {t: int(c) for t, c in res.valid.items()},
                "degenerate": {t: int(c) for t, c in res.degenerate.items()},
            })
        return json.dumps(tallies, sort_keys=True)

    def warm_up(self):
        tiny = [(mode, self._spec(self.pg, family, 30, 5, shift, var2))
                for mode, family, _, _, shift, var2 in STUDIES]
        self.call((tiny, self.seed, 1))

    def output_problems(self, output):
        tallies = json.loads(output)
        if len(tallies) != len(self.specs):
            return [f"expected {len(self.specs)} studies, got {len(tallies)}"]
        problems = []
        for tally, (mode, spec) in zip(tallies, self.specs):
            tests = {"z_m", "z_s", "z_g"} | ({"ht"} if mode == "power" and spec.d < spec.n else set())
            where = tally["scenario"]
            if tally["replicates"] != self.REPLICATES or set(tally["valid"]) != tests:
                problems.append(f"{where}: wrong replicate count or test set")
                continue
            for test in tests:
                valid, degenerate = tally["valid"][test], tally["degenerate"][test]
                if valid + degenerate != self.REPLICATES:
                    problems.append(f"{where}/{test}: valid + degenerate != replicates")
                if any(not 0 <= c <= valid for c in tally["rejections"][test].values()):
                    problems.append(f"{where}/{test}: rejections outside [0, valid]")
        return problems


WORKLOADS = {cls.name: cls for cls in (TestBoth, PowerSweep)}
