import csv
import io
import json
import os

import numpy as np
import pytest

import glmsub.cli
import glmsub.simulate
from glmsub import MetricsRecord, NumericOverflowError, read_metrics_csv
from glmsub.cli import METRICS_HEADER, atomic_write, main, write_metrics_csv
from glmsub.config import parse_config
from glmsub.datasets import load_csv
from glmsub.realdata import run_subsample

SIM_YAML = """
mode: simulate
family: logistic
seed: 11
r0: 30
r_grid: [50]
population: 600
replicates: 2
covariates:
  distribution: normal
  dimension: 2
  mean: [0.0, 0.0]
  covariance: [[1.5, 0.0], [0.0, 1.5]]
data_generating:
  quadratic_terms: []
  theta: [-1.0, 0.5, 0.1]
"""


def make_dataset_csv(path, n=400, seed=3, poisson=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    eta = -0.4 + 0.8 * x[:, 0] - 0.5 * x[:, 1]
    if poisson:
        y = rng.poisson(np.exp(eta))
    else:
        y = rng.binomial(1, 1 / (1 + np.exp(-eta)))
    lines = ["y,a,b"]
    lines += [f"{int(yi)},{float(xi[0])!r},{float(xi[1])!r}" for yi, xi in zip(y, x)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def real_yaml(csv_path, mode="subsample", extra="", r0=40):
    text = f"""
mode: {mode}
family: logistic
seed: 4
r0: {r0}
dataset:
  path: {csv_path}
  response: y
  covariates: [a, b]
"""
    return text + extra


_run_replicate = glmsub.simulate._run_replicate


def _replicate_1_kills_its_worker(m):
    """Replicate 1's worker process exits at once, as a killed one does."""
    if m == 1:
        os._exit(3)
    return _run_replicate(m)


def write(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestMetricsRoundTrip:
    def test_field_for_field(self, tmp_path):
        records = [
            MetricsRecord("random", 1, 100, 0.123456789012345678, 3.5e-7, 0),
            MetricsRecord("model-robust", 1, 200, 1.0 / 3.0, 12345.678, 2),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(records, path)
        assert read_metrics_csv(path) == records

    def test_header_contract(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv([], path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == "scenario,estimating_model,r,smse,mean_model_info,failures"
        assert first.split(",") == METRICS_HEADER


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write(target, "one")
        atomic_write(target, "two")
        assert target.read_text(encoding="utf-8") == "two"
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers

    def test_writes_chunks(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write(target, (f"{i}\n" for i in range(3)))
        assert target.read_text(encoding="utf-8") == "0\n1\n2\n"

    def test_failing_chunks_keep_old_target(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write(target, "old")

        def chunks():
            yield "partial"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            atomic_write(target, chunks())
        assert target.read_text(encoding="utf-8") == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


class TestSimulateCommand:
    def test_writes_metrics_and_meta(self, tmp_path, capsys):
        config = write(tmp_path, SIM_YAML)
        out = tmp_path / "m.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 0
        records = read_metrics_csv(out)
        assert len(records) == 6
        meta = json.loads((tmp_path / "m.csv.meta.json").read_text(encoding="utf-8"))
        assert meta["tool"] == "glmsub"
        assert meta["master_seed"] == 11
        assert meta["mode"] == "simulate"
        assert meta["config"]["population"] == 600

    def test_seed_and_threads_reproducibility(self, tmp_path):
        config = write(tmp_path, SIM_YAML)
        out1, out2, out3 = (tmp_path / f"m{i}.csv" for i in range(3))
        assert main(["simulate", str(config), "--seed", "7", "--out", str(out1)]) == 0
        assert main(["simulate", str(config), "--seed", "7", "--out", str(out2)]) == 0
        assert (
            main(["simulate", str(config), "--seed", "7", "--out", str(out3), "--threads", "2"])
            == 0
        )
        assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        config = write(tmp_path, SIM_YAML)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", str(config), "--seed", "1", "--out", str(out1)])
        main(["simulate", str(config), "--seed", "2", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_out_dir_env(self, tmp_path, monkeypatch):
        outdir = tmp_path / "results"
        monkeypatch.setenv("GLMSUB_OUT_DIR", str(outdir))
        monkeypatch.chdir(tmp_path)
        config = write(tmp_path, SIM_YAML)
        assert main(["simulate", str(config)]) == 0
        assert (outdir / "run-metrics.csv").exists()

    def test_wrong_mode_rejected(self, tmp_path):
        csv_path = make_dataset_csv(tmp_path / "d.csv")
        config = write(tmp_path, real_yaml(csv_path, extra="r: 100\n"))
        assert main(["simulate", str(config)]) == 1


class TestSubsampleCommand:
    def test_writes_estimates(self, tmp_path):
        csv_path = make_dataset_csv(tmp_path / "d.csv")
        config = write(tmp_path, real_yaml(csv_path, extra="r: 100\n"))
        out = tmp_path / "est.csv"
        probs_out = tmp_path / "probs.csv"
        code = main(
            ["subsample", str(config), "--out", str(out), "--write-probs", str(probs_out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model,term,estimate,std_error,model_info"
        # Q = 4 models over 2 continuous covariates; 3+4+4+5 terms.
        assert len(lines) - 1 == 16
        probs_lines = probs_out.read_text(encoding="utf-8").splitlines()
        assert probs_lines[0] == "row,probability"
        assert len(probs_lines) - 1 == 400
        total = sum(float(line.split(",")[1]) for line in probs_lines[1:])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_meta_lists_newton_iterations(self, tmp_path):
        csv_path = make_dataset_csv(tmp_path / "d.csv")
        config_path = write(tmp_path, real_yaml(csv_path, extra="r: 100\n"))
        out = tmp_path / "est.csv"
        assert main(["subsample", str(config_path), "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "est.csv.meta.json").read_text(encoding="utf-8"))
        config = parse_config(config_path)
        raw, y = load_csv(config.dataset, family=config.family)
        rng = np.random.default_rng(np.random.SeedSequence([config.master_seed]))
        result = run_subsample(config, raw, y, rng)
        assert meta["newton_iterations"] == [fit.iterations for fit in result.fits]
        assert len(meta["newton_iterations"]) == 4

    def test_deterministic_under_seed(self, tmp_path):
        csv_path = make_dataset_csv(tmp_path / "d.csv")
        config = write(tmp_path, real_yaml(csv_path, extra="r: 100\n"))
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        assert main(["subsample", str(config), "--seed", "7", "--out", str(out1)]) == 0
        assert main(["subsample", str(config), "--seed", "7", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_runtime_failure_exit_code(self, tmp_path):
        # Separated data: every pilot diverges, stage 1 exhausts, exit 2.
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.uniform(-2, -1, 40), rng.uniform(1, 2, 40)])
        lines = ["y,a"] + [f"{int(xi > 0)},{float(xi)!r}" for xi in x]
        csv_path = tmp_path / "sep.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = write(
            tmp_path,
            f"mode: subsample\nfamily: logistic\nseed: 1\nr0: 20\nr: 40\n"
            f"dataset:\n  path: {csv_path}\n  response: y\n  covariates: [a]\n",
        )
        assert main(["subsample", str(config), "--out", str(tmp_path / "o.csv")]) == 2


class TestProbabilitiesCommand:
    def test_emits_full_vector(self, tmp_path):
        csv_path = make_dataset_csv(tmp_path / "d.csv")
        config = write(tmp_path, real_yaml(csv_path, mode="probabilities"))
        out = tmp_path / "p.csv"
        assert main(["probabilities", str(config), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) - 1 == 400
        meta = json.loads((tmp_path / "p.csv.meta.json").read_text(encoding="utf-8"))
        assert meta["criterion"] == "model-robust-mMSE"

    def test_writer_bytes_match_csv_writer(self, tmp_path):
        probs = np.array([1e-7, 1 / 3, 0.5, 5e-324])
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["row", "probability"])
        writer.writerows([i, repr(float(p))] for i, p in enumerate(probs))
        out = tmp_path / "p.csv"
        glmsub.cli._write_probabilities(out, probs)
        assert out.read_bytes() == buf.getvalue().encode("utf-8")

    def test_streamed_writer_bytes_across_chunks(self, tmp_path):
        # One row past a whole chunk: the second chunk starts its row
        # numbers where the first stopped.
        n = glmsub.cli._WRITE_ROWS + 1
        probs = np.random.default_rng(3).random(n)
        probs /= probs.sum()
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["row", "probability"])
        writer.writerows([i, repr(float(p))] for i, p in enumerate(probs))
        out = tmp_path / "p.csv"
        glmsub.cli._write_probabilities(out, probs)
        assert out.read_bytes() == buf.getvalue().encode("utf-8")


class TestSsmseCommand:
    def test_model_robust_not_worse_than_random(self, tmp_path):
        # Q=4 models, M=100 repeats on a synthetic logistic dataset: the
        # model-averaged probabilities should beat plain random sampling on
        # the summed per-model error at the largest subsample size.
        csv_path = make_dataset_csv(tmp_path / "d.csv", n=2000, seed=12)
        config = write(
            tmp_path,
            real_yaml(
                csv_path, mode="ssmse", r0=100,
                extra="r_grid: [100, 200]\nreplicates: 100\n",
            ),
        )
        out = tmp_path / "s.csv"
        assert main(["ssmse", str(config), "--out", str(out), "--threads", "2"]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "scenario,r,ssmse,failures"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 12  # (random + 4 optimal + model-robust) x 2 sizes
        values = {(row[0], int(row[1])): float(row[2]) for row in rows}
        assert values[("model-robust", 200)] <= values[("random", 200)]


class TestExitCodes:
    def test_validation_error(self, tmp_path):
        config = write(tmp_path, "mode: simulate\nfamily: logistic\n")
        assert main(["simulate", str(config)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", str(tmp_path / "none.yaml")]) == 1

    def test_numeric_overflow_is_runtime(self, tmp_path, monkeypatch, capsys):
        def overflow(config, threads=1):
            raise NumericOverflowError("mean overflowed")

        monkeypatch.setattr(glmsub.cli, "run_study", overflow)
        config = write(tmp_path, SIM_YAML)
        assert main(["simulate", str(config), "--out", str(tmp_path / "m.csv")]) == 2
        assert "glmsub: error: mean overflowed" in capsys.readouterr().err

    def test_poisson_mean_beyond_sampler_limit_is_runtime(self, tmp_path, capsys):
        # exp(44) is finite but above the largest mean NumPy's Poisson
        # sampler accepts.
        text = SIM_YAML.replace("family: logistic", "family: poisson")
        config = write(tmp_path, text.replace("[-1.0, 0.5, 0.1]", "[44.0, 0.0, 0.0]"))
        assert main(["simulate", str(config), "--out", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err.startswith("glmsub: error: ")

    def test_unwritable_output_is_runtime(self, tmp_path, capsys):
        config = write(tmp_path, SIM_YAML)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n", encoding="utf-8")
        out = blocker / "m.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("glmsub: error: ")

    def test_dead_worker_is_runtime(self, tmp_path, monkeypatch, capsys):
        # The pool sends its workers the task function by name, so they run
        # the patched replicate; one of the two workers dies.
        monkeypatch.setattr(glmsub.simulate, "_run_replicate", _replicate_1_kills_its_worker)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        config = write(tmp_path, SIM_YAML)
        out = tmp_path / "m.csv"
        assert main(["simulate", str(config), "--out", str(out), "--threads", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("glmsub: error: a worker process died: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_usage(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
