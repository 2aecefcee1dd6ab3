"""The benchmark's workloads: seeded inputs, the CLI call, output checks.

Each workload writes its inputs (YAML config, and a CSV where the command
reads one) into a work directory from the benchmark seed alone, so one
seed always gives byte-identical files.  The CLI runs with that directory
as its working directory and relative paths, so outputs do not depend on
where the checkout lives.

The checks read the outputs with the standard library and NumPy only,
never through glmsub, and test properties that hold for any random
stream: exit codes, record and row counts, finite values, estimates
within a few reported standard errors of the generating parameters, and
probabilities that are positive and sum to one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["Workload", "WORKLOADS", "CheckFailed"]

# How far (in reported standard errors) an estimate may sit from the value
# that generated the data.  At 5 SE a correct estimator trips one of the
# 44 subsample-1m checks with probability below 1e-4.
SE_TOLERANCE = 5.0
# SMSE at r0 + r = 1500 rows is about 0.01 for every strategy; a value 25
# times larger means the estimates are wrong, not unlucky.
SMSE_LIMIT = 0.25
PROB_SUM_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str  # file name of the generated config
    outputs: tuple[str, ...]  # files the CLI writes, relative to the work dir
    extra_args: tuple[str, ...]
    generate: Callable[[Path, int], None]
    check: Callable[[Path], "tuple[int, int]"]  # (cells, failed cells)

    def argv(self) -> list[str]:
        return [self.command, self.config, "--out", self.outputs[0], *self.extra_args]


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _write_csv(path: Path, response: np.ndarray, x: np.ndarray) -> None:
    names = ["y"] + [f"x{j + 1}" for j in range(x.shape[1])]
    np.savetxt(
        path,
        np.column_stack([response, x]),
        fmt=["%d"] + ["%.6f"] * x.shape[1],
        delimiter=",",
        header=",".join(names),
        comments="",
    )


def _read_table(path: Path, header: "list[str]") -> "list[list[str]]":
    if not path.is_file():
        raise CheckFailed(f"{path.name} was not written")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CheckFailed(f"{path.name}: header {rows[:1]} is not {header}")
    return rows[1:]


def _read_table_head(path: Path, header: str) -> None:
    if not path.is_file():
        raise CheckFailed(f"{path.name} was not written")
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\r\n")
    if first != header:
        raise CheckFailed(f"{path.name}: header {first!r} is not {header!r}")


def _finite(text: str, what: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CheckFailed(f"{what} is {text}")
    return value


def _failed_cells(rows: "list[list[str]]", column: int) -> int:
    return sum(int(row[column]) > 0 for row in rows)


# -- sim-desk ------------------------------------------------------------
# Acceptance test 05's design: logistic, theta = (-1, 0.5, 0.1), bivariate
# normal covariates with covariance 1.5 I, quadratic terms over both, so
# Q = 4 models and 6 strategies; N = 1e4, r0 = 100, r = 1400.

SIM_REPLICATES = 16
SIM_SCENARIOS = ["random", "optimal-1", "optimal-2", "optimal-3", "optimal-4", "model-robust"]


def _sim_generate(workdir: Path, seed: int) -> None:
    (workdir / "sim-desk.yaml").write_text(
        f"""mode: simulate
family: logistic
criterion: mMSE
seed: {seed}
population: 10000
replicates: {SIM_REPLICATES}
r0: 100
r_grid: [1400]
covariates:
  distribution: normal
  dimension: 2
  mean: [0.0, 0.0]
  covariance: [[1.5, 0.0], [0.0, 1.5]]
model_set:
  quadratic_over: [1, 2]
data_generating:
  quadratic_terms: []
  theta: [-1.0, 0.5, 0.1]
""",
        encoding="utf-8",
    )


def _sim_check(workdir: Path) -> "tuple[int, int]":
    rows = _read_table(
        workdir / "metrics.csv",
        ["scenario", "estimating_model", "r", "smse", "mean_model_info", "failures"],
    )
    if [row[0] for row in rows] != SIM_SCENARIOS or any(row[2] != "1400" for row in rows):
        raise CheckFailed(f"metrics.csv cells {[row[:3] for row in rows]}")
    for row in rows:
        smse = _finite(row[3], f"smse of {row[0]}")
        if not 0.0 < smse < SMSE_LIMIT:
            raise CheckFailed(f"smse of {row[0]} is {smse}, outside (0, {SMSE_LIMIT})")
        if _finite(row[4], f"model information of {row[0]}") <= 0.0:
            raise CheckFailed(f"model information of {row[0]} is not positive")
    return len(rows), _failed_cells(rows, 5)


# -- subsample-1m ----------------------------------------------------------
# One model-robust mMSE two-stage fit on a 1e6 x 3 logistic CSV with all
# Q = 8 quadratic models, writing every stage-2 probability.

SUB_ROWS = 1_000_000
SUB_THETA = np.array([-0.5, 0.6, -0.4, 0.3])


def _sub_generate(workdir: Path, seed: int) -> None:
    rng = _rng(seed, 1)
    x = rng.standard_normal((SUB_ROWS, 3))
    eta = SUB_THETA[0] + x @ SUB_THETA[1:]
    y = (rng.random(SUB_ROWS) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    _write_csv(workdir / "data.csv", y, x)
    (workdir / "subsample-1m.yaml").write_text(
        f"""mode: subsample
family: logistic
criterion: mMSE
seed: {seed}
r0: 200
r: 1000
dataset:
  path: data.csv
  response: y
  covariates: [x1, x2, x3]
model_set:
  quadratic_over: [x1, x2, x3]
sampling_model: model-robust
""",
        encoding="utf-8",
    )


def _sub_check(workdir: Path) -> "tuple[int, int]":
    rows = _read_table(
        workdir / "estimates.csv", ["model", "term", "estimate", "std_error", "model_info"]
    )
    truth = {"intercept": SUB_THETA[0]}
    for j in range(3):
        truth[f"x{j + 1}"] = SUB_THETA[j + 1]
        truth[f"x{j + 1}^2"] = 0.0
    # 8 models: intercept + 3 main effects, plus 0..3 squared terms each.
    if len(rows) != 8 * 4 + 12 or {row[0] for row in rows} != {str(k) for k in range(1, 9)}:
        raise CheckFailed(f"estimates.csv has {len(rows)} rows, expected 44 over 8 models")
    for model, term, est, se, info in rows:
        what = f"model {model} term {term}"
        est, se = _finite(est, f"{what} estimate"), _finite(se, f"{what} std_error")
        if se <= 0.0 or _finite(info, f"{what} model_info") <= 0.0:
            raise CheckFailed(f"{what}: non-positive std_error or model_info")
        if abs(est - truth[term]) > SE_TOLERANCE * se:
            raise CheckFailed(
                f"{what}: estimate {est} is more than {SE_TOLERANCE} SE ({se}) "
                f"from {truth[term]}"
            )

    probs_path = workdir / "probs.csv"
    _read_table_head(probs_path, "row,probability")
    table = np.loadtxt(probs_path, delimiter=",", skiprows=1)
    if table.shape != (SUB_ROWS, 2) or not np.array_equal(table[:, 0], np.arange(SUB_ROWS)):
        raise CheckFailed(f"probs.csv has shape {table.shape}, expected {SUB_ROWS} rows 0..N-1")
    probs = table[:, 1]
    if not np.all(probs > 0.0) or abs(math.fsum(probs) - 1.0) > PROB_SUM_TOL:
        raise CheckFailed(
            f"probabilities: min {probs.min()}, sum {math.fsum(probs)}; "
            "expected all positive, summing to 1"
        )
    return 1, 0


# -- ssmse-fixed -----------------------------------------------------------
# Repeated subsampling on one fixed 1e5 x 4 Poisson CSV with all Q = 16
# quadratic models and the mVc rule: 18 strategies, full-data MLEs.

SSMSE_ROWS = 100_000
SSMSE_THETA = np.array([0.5, 0.3, -0.2, 0.2, 0.1])
SSMSE_REPLICATES = 1
SSMSE_SCENARIOS = ["random"] + [f"optimal-{k}" for k in range(1, 17)] + ["model-robust"]


def _ssmse_generate(workdir: Path, seed: int) -> None:
    rng = _rng(seed, 2)
    x = rng.standard_normal((SSMSE_ROWS, 4))
    y = rng.poisson(np.exp(SSMSE_THETA[0] + x @ SSMSE_THETA[1:]))
    _write_csv(workdir / "data.csv", y, x)
    (workdir / "ssmse-fixed.yaml").write_text(
        f"""mode: ssmse
family: poisson
criterion: mVc
seed: {seed}
r0: 200
r_grid: [800]
replicates: {SSMSE_REPLICATES}
dataset:
  path: data.csv
  response: y
  covariates: [x1, x2, x3, x4]
  scaling:
    x1: standardize
    x2: standardize
    x3: standardize
    x4: standardize
model_set:
  quadratic_over: [x1, x2, x3, x4]
sampling_model: model-robust
""",
        encoding="utf-8",
    )


def _ssmse_check(workdir: Path) -> "tuple[int, int]":
    rows = _read_table(workdir / "ssmse.csv", ["scenario", "r", "ssmse", "failures"])
    if [row[0] for row in rows] != SSMSE_SCENARIOS or any(row[1] != "800" for row in rows):
        raise CheckFailed(f"ssmse.csv cells {[row[:2] for row in rows]}")
    for row in rows:
        if _finite(row[2], f"ssmse of {row[0]}") <= 0.0:
            raise CheckFailed(f"ssmse of {row[0]} is not positive")
    return len(rows), _failed_cells(rows, 3)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-desk", "simulate", "sim-desk.yaml",
            ("metrics.csv", "metrics.csv.meta.json"), (),
            _sim_generate, _sim_check,
        ),
        Workload(
            "subsample-1m", "subsample", "subsample-1m.yaml",
            ("estimates.csv", "estimates.csv.meta.json", "probs.csv"),
            ("--write-probs", "probs.csv"),
            _sub_generate, _sub_check,
        ),
        Workload(
            "ssmse-fixed", "ssmse", "ssmse-fixed.yaml",
            ("ssmse.csv", "ssmse.csv.meta.json"), (),
            _ssmse_generate, _ssmse_check,
        ),
    )
}
