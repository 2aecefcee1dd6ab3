"""The CSV + config + CLI workflow, end to end in a temp directory.

Writes a synthetic logistic dataset to CSV, a YAML run config next to
it, then drives the command-line interface in-process: one `subsample`
run producing per-model estimates, and a small `ssmse` study comparing
strategies against the full-data MLEs.
"""

import tempfile
from pathlib import Path

import numpy as np

from glmsub.cli import main

workdir = Path(tempfile.mkdtemp(prefix="glmsub-demo-"))
rng = np.random.default_rng(3)

n = 5000
x = rng.normal(size=(n, 2))
eta = -0.5 + 0.9 * x[:, 0] - 0.6 * x[:, 1]
y = rng.binomial(1, 1 / (1 + np.exp(-eta)))
csv_path = workdir / "synthetic.csv"
rows = ["y,a,b"] + [
    f"{int(yi)},{float(r0):.6f},{float(r1):.6f}" for yi, (r0, r1) in zip(y, x)
]
csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
print(f"dataset: {csv_path} ({n} rows)")

subsample_cfg = workdir / "subsample.yaml"
subsample_cfg.write_text(
    f"""mode: subsample
family: logistic
seed: 11
r0: 100
r: 400
dataset:
  path: {csv_path}
  response: y
  covariates: [a, b]
  scaling:
    a: standardize
    b: standardize
""",
    encoding="utf-8",
)
estimates = workdir / "estimates.csv"
assert main(["subsample", str(subsample_cfg), "--out", str(estimates)]) == 0
print("\nper-model estimates:")
print(estimates.read_text(encoding="utf-8"))

ssmse_cfg = workdir / "study.yaml"
ssmse_cfg.write_text(
    subsample_cfg.read_text(encoding="utf-8").replace("mode: subsample", "mode: ssmse").replace(
        "r: 400", "r_grid: [200, 400]\nreplicates: 40"
    ),
    encoding="utf-8",
)
study_out = workdir / "study.csv"
assert main(["ssmse", str(ssmse_cfg), "--out", str(study_out)]) == 0
print("strategy comparison (summed SMSE vs full-data MLEs, lower is better):")
print(study_out.read_text(encoding="utf-8"))
