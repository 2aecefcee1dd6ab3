import csv
import io
import json
import mmap
import os
import platform
import signal
import stat
import subprocess
import sys
import time

import numpy as np
import pytest
import yaml

import glmsub._workers
import glmsub.cli
import glmsub.simulate
from glmsub import (
    MetricsRecord,
    NumericOverflowError,
    atomic_write,
    write_metrics_csv,
)
from glmsub._artifacts import METRICS_HEADER
from glmsub.cli import main
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
_gen_response = glmsub.simulate.gen_response


def _replicate_1_kills_its_worker(config, data, summarize, m):
    """Replicate 1's worker process exits at once, as a killed one does."""
    if m == 1:
        os._exit(3)
    return _run_replicate(config, data, summarize, m)


def _replicate_1_overflows(family, theta, design, rng):
    """The responses of replicate 1 (data substream ``[seed, 1, 0, 0]``)
    overflow."""
    if rng.bit_generator.seed_seq.entropy[1] == 1:
        raise NumericOverflowError("Poisson response mean is non-finite")
    return _gen_response(family, theta, design, rng)


def csv_writer_bytes(probs):
    """The probability file that csv.writer makes of ``probs``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["row", "probability"])
    writer.writerows([i, repr(float(p))] for i, p in enumerate(probs))
    return buf.getvalue().encode("utf-8")


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
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == METRICS_HEADER
        assert [
            MetricsRecord(s, int(q), int(r), float(v), float(i), int(f))
            for s, q, r, v, i, f in rows
        ] == records

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

    def test_outputs_get_the_umask_mode(self, tmp_path):
        # A CSV and its sidecar get 0o666 less the umask, as open() gives.
        csv_path = make_dataset_csv(tmp_path / "d.csv")
        config = write(tmp_path, real_yaml(csv_path, extra="r: 100\n"))
        out, probs_out = tmp_path / "est.csv", tmp_path / "probs.csv"
        argv = ["subsample", str(config), "--out", str(out), "--write-probs", str(probs_out)]
        old = os.umask(0o027)
        try:
            assert main(argv) == 0
        finally:
            os.umask(old)
        for path in (out, probs_out, tmp_path / "est.csv.meta.json", tmp_path / "probs.csv.meta.json"):
            assert stat.S_IMODE(path.stat().st_mode) == 0o640, path.name

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

    def test_error_survives_a_vanished_temp_file(self, tmp_path):
        # The cleanup tolerates a temp file that is already gone, so the
        # error that ended the write is the one raised.
        target = tmp_path / "out.txt"

        def chunks():
            for tmp in tmp_path.glob(".out.txt.*.tmp"):
                tmp.unlink()
            yield "partial"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            atomic_write(target, chunks())
        assert list(tmp_path.iterdir()) == []


class TestSimulateCommand:
    def test_writes_metrics_and_meta(self, tmp_path, capsys):
        config = write(tmp_path, SIM_YAML)
        out = tmp_path / "m.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == METRICS_HEADER
        assert len(rows) == 6
        meta = json.loads((tmp_path / "m.csv.meta.json").read_text(encoding="utf-8"))
        assert meta["tool"] == "glmsub"
        assert meta["master_seed"] == 11
        assert meta["mode"] == "simulate"
        assert meta["config"]["population"] == 600

    def test_seed_and_worker_count_reproducibility(self, tmp_path, monkeypatch):
        config = write(tmp_path, SIM_YAML)
        outs = [tmp_path / f"m{i}.csv" for i in range(3)]
        for out, cpus in zip(outs, (1, 1, 2)):
            monkeypatch.setattr(glmsub._workers, "_cpu_budget", lambda: cpus)
            assert main(["simulate", str(config), "--seed", "7", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

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

    def test_probability_file_gets_a_sidecar(self, tmp_path):
        csv_path = make_dataset_csv(tmp_path / "d.csv")
        config = write(tmp_path, real_yaml(csv_path, extra="r: 100\n"))
        out, probs_out = tmp_path / "est.csv", tmp_path / "probs.csv"
        argv = ["subsample", str(config), "--out", str(out), "--write-probs", str(probs_out)]
        assert main(argv) == 0
        meta = json.loads((tmp_path / "probs.csv.meta.json").read_text(encoding="utf-8"))
        assert meta["mode"] == "subsample"
        assert meta["master_seed"] == 4
        assert meta["criterion"] == "model-robust-mMSE"

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


class TestOutputPaths:
    """An output path that resolves to an input or to another output is
    refused before the dataset is read, so nothing is written."""

    @staticmethod
    def run(tmp_path, monkeypatch, command, *flags):
        def unreachable(*args, **kwargs):
            pytest.fail("read the dataset")

        monkeypatch.setattr(glmsub.cli, "load_csv", unreachable)
        monkeypatch.setattr(glmsub.cli, "run_study", unreachable)
        monkeypatch.chdir(tmp_path)
        make_dataset_csv(tmp_path / "d.csv")
        extra = {"subsample": "r: 100\n", "ssmse": "r_grid: [100]\nreplicates: 1\n"}
        if command == "simulate":
            text = SIM_YAML
        else:
            text = real_yaml("d.csv", command, extra.get(command, ""))
        write(tmp_path, text)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        code = main([command, "run.yaml", *flags])
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        return code

    def test_probabilities_and_estimates_in_one_file(self, tmp_path, monkeypatch, capsys):
        flags = ["--out", "same.csv", "--write-probs", "same.csv"]
        assert self.run(tmp_path, monkeypatch, "subsample", *flags) == 1
        err = capsys.readouterr().err
        assert err == "glmsub: error: output same.csv would overwrite the output same.csv\n"

    def test_probabilities_over_the_estimates_sidecar(self, tmp_path, monkeypatch, capsys):
        flags = ["--out", "e.csv", "--write-probs", "./e.csv.meta.json"]
        assert self.run(tmp_path, monkeypatch, "subsample", *flags) == 1
        assert "would overwrite the output e.csv.meta.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("subsample", ["--out", "e.csv", "--write-probs", "d.csv"]),
            ("subsample", ["--out", "d.csv"]),
            ("probabilities", ["--out", "d.csv"]),
            ("ssmse", ["--out", "sub/../d.csv"]),
        ],
    )
    def test_output_over_the_dataset(self, tmp_path, monkeypatch, capsys, command, flags):
        assert self.run(tmp_path, monkeypatch, command, *flags) == 1
        assert "would overwrite the dataset d.csv\n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "subsample", "probabilities", "ssmse"])
    def test_output_over_the_config(self, tmp_path, monkeypatch, capsys, command):
        assert self.run(tmp_path, monkeypatch, command, "--out", str(tmp_path / "run.yaml")) == 1
        assert "would overwrite the config file run.yaml\n" in capsys.readouterr().err

    def test_dataset_through_a_symlink(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "link.csv").symlink_to(tmp_path / "d.csv")
        assert self.run(tmp_path, monkeypatch, "probabilities", "--out", "link.csv") == 1
        assert "would overwrite the dataset d.csv\n" in capsys.readouterr().err


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
        out = tmp_path / "p.csv"
        glmsub.cli._write_probabilities(out, probs)
        assert out.read_bytes() == csv_writer_bytes(probs)

    def test_streamed_writer_bytes_across_chunks(self, tmp_path):
        # One row past a whole chunk: the second chunk starts its row
        # numbers where the first stopped.
        n = glmsub.cli.WRITE_ROWS + 1
        probs = np.random.default_rng(3).random(n)
        probs /= probs.sum()
        out = tmp_path / "p.csv"
        glmsub.cli._write_probabilities(out, probs)
        assert out.read_bytes() == csv_writer_bytes(probs)


def split_probs(n):
    """Random values with 5e-324, 1/3, 0.5 and 1e-7 on both sides of row
    n // 2, which near _SPLIT_ROWS is a block edge where the rows pass from
    one share of the write to the next."""
    probs = np.random.default_rng(n).random(n)
    m = n // 2
    probs[m - 4 : m + 4] = [5e-324, 1 / 3, 0.5, 1e-7] * 2
    return probs


_format_rows = glmsub.cli._format_rows


def _worker_format_fails(probs, start, region):
    """The block formatter, failing in a worker the way a full disk makes
    it; the blocks of the CLI process's share are formatted."""
    if not glmsub._workers._in_worker:
        return _format_rows(probs, start, region)
    raise OSError("disk full")


def _worker_format_dies(probs, start, region):
    if not glmsub._workers._in_worker:
        return _format_rows(probs, start, region)
    os.kill(os.getpid(), signal.SIGKILL)


class TestSplitWriter:
    # T - 1 and T + 1 are not multiples of WRITE_ROWS: the last block is short.
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_bytes_around_the_threshold(self, tmp_path, two_cpus, forks, offset):
        probs = split_probs(glmsub._workers._SPLIT_ROWS + offset)
        out = tmp_path / "p.csv"
        glmsub.cli._write_probabilities(out, probs)
        assert out.read_bytes() == csv_writer_bytes(probs)
        assert len(forks) == (offset >= 0)  # one worker formats every other block
        assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]
        with pytest.raises(ChildProcessError):  # the workers were reaped
            os.waitpid(-1, os.WNOHANG)

    def test_three_shares_give_the_same_bytes(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(glmsub._workers, "_cpu_budget", lambda: 3)
        probs = split_probs(glmsub._workers._SPLIT_ROWS + 1)
        out = tmp_path / "p.csv"
        glmsub.cli._write_probabilities(out, probs)
        assert out.read_bytes() == csv_writer_bytes(probs)
        assert len(forks) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_process_on_one_cpu(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        probs = split_probs(glmsub._workers._SPLIT_ROWS + 1)
        out = tmp_path / "p.csv"
        glmsub.cli._write_probabilities(out, probs)
        assert out.read_bytes() == csv_writer_bytes(probs)
        assert forks == []

    def test_one_process_when_the_helper_cannot_start(self, tmp_path, monkeypatch, two_cpus):
        def refuse():
            raise OSError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refuse)
        probs = split_probs(glmsub._workers._SPLIT_ROWS + 1)
        out = tmp_path / "p.csv"
        glmsub.cli._write_probabilities(out, probs)
        assert out.read_bytes() == csv_writer_bytes(probs)
        assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]

    def test_refused_second_fork_after_the_first_worker_wrote(self, tmp_path, monkeypatch):
        # A three-share write: the second fork is refused once the first
        # worker has formatted a block into its region; the worker is
        # killed and the caller formats every block again, over what the
        # worker left.
        monkeypatch.setattr(glmsub._workers, "_cpu_budget", lambda: 3)
        formatted = mmap.mmap(-1, 1)  # set by a worker, seen by this process

        def format_rows(probs, start, region):
            size = _format_rows(probs, start, region)
            if glmsub._workers._in_worker:
                formatted[0] = 1
            return size

        monkeypatch.setattr(glmsub.cli, "_format_rows", format_rows)
        fork = os.fork
        calls = []

        def refuse_second():
            calls.append(1)
            if len(calls) == 1:
                return fork()
            deadline = time.monotonic() + 60
            while not formatted[0]:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            raise OSError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refuse_second)
        probs = split_probs(glmsub._workers._SPLIT_ROWS + 1)
        out = tmp_path / "p.csv"
        glmsub.cli._write_probabilities(out, probs)
        assert out.read_bytes() == csv_writer_bytes(probs)
        assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]
        assert len(calls) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_helper_is_runtime(self, tmp_path, monkeypatch, capsys, two_cpus):
        # A worker's error reaches main as itself; a worker that dies is a
        # ChildProcessError.  Either way nothing is left behind.  400 rows
        # in blocks of 100 are four blocks, two in the worker's share.
        monkeypatch.setattr(glmsub._workers, "_SPLIT_ROWS", 100)
        monkeypatch.setattr(glmsub.cli, "WRITE_ROWS", 100)
        csv_path = make_dataset_csv(tmp_path / "d.csv")
        config = write(tmp_path, real_yaml(csv_path, mode="probabilities"))
        outdir = tmp_path / "out"
        for fail, message in (
            (_worker_format_fails, "disk full"),
            (_worker_format_dies, "a worker process died: killed by signal 9"),
        ):
            monkeypatch.setattr(glmsub.cli, "_format_rows", fail)
            assert main(["probabilities", str(config), "--out", str(outdir / "p.csv")]) == 2
            assert capsys.readouterr().err == f"glmsub: error: {message}\n"
            assert list(outdir.iterdir()) == []
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)


class TestSsmseCommand:
    def test_model_robust_not_worse_than_random(self, tmp_path, monkeypatch):
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
        monkeypatch.setattr(glmsub._workers, "_cpu_budget", lambda: 2)
        assert main(["ssmse", str(config), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "scenario,r,ssmse,failures"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 12  # (random + 4 optimal + model-robust) x 2 sizes
        values = {(row[0], int(row[1])): float(row[2]) for row in rows}
        assert values[("model-robust", 200)] <= values[("random", 200)]

    def test_sampling_model_is_not_read(self, tmp_path):
        # ssmse runs every strategy whatever sampling_model says, so runs
        # that differ only in the key write the same bytes.
        csv_path = make_dataset_csv(tmp_path / "d.csv", n=600, seed=13)
        outputs = []
        for key in ("model-robust", "1", "4"):
            config = write(
                tmp_path,
                real_yaml(
                    csv_path, mode="ssmse", r0=60,
                    extra=f"r_grid: [120]\nreplicates: 3\nsampling_model: {key}\n",
                ),
            )
            out = tmp_path / f"s-{key}.csv"
            assert main(["ssmse", str(config), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


class TestExitCodes:
    def test_validation_error(self, tmp_path):
        config = write(tmp_path, "mode: simulate\nfamily: logistic\n")
        assert main(["simulate", str(config)]) == 1

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "run.yaml"
        config.write_bytes(b"mode: simulate\n# \xff\n")
        assert main(["simulate", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == f"glmsub: error: {config}: not UTF-8: byte 0xff (invalid start byte)\n"

    def test_non_utf8_data_row_names_the_file(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"y,a\n0,0.5\n1,\xff.5\n")
        text = "mode: subsample\nfamily: logistic\nr0: 10\nr: 20\n"
        config = write(tmp_path, text + f"dataset:\n  path: {data}\n  response: y\n  covariates: [a]\n")
        assert main(["subsample", str(config), "--out", str(tmp_path / "e.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"glmsub: error: {data} is not UTF-8: byte 0xff (invalid start byte)\n"

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", str(tmp_path / "none.yaml")]) == 1

    def test_directory_as_config_names_it(self, tmp_path, capsys):
        config = tmp_path / "cfgdir"
        config.mkdir()
        assert main(["subsample", str(config)]) == 1
        assert capsys.readouterr().err == f"glmsub: error: {config}: is a directory, not a config file\n"

    def test_directory_as_dataset_names_it(self, tmp_path, capsys):
        data = tmp_path / "dirdata"
        data.mkdir()
        config = write(tmp_path, real_yaml(data, extra="r: 100\n"))
        assert main(["subsample", str(config), "--out", str(tmp_path / "e.csv")]) == 1
        assert capsys.readouterr().err == f"glmsub: error: dataset {data} is a directory, not a CSV file\n"

    def test_directory_as_output_is_refused_before_the_dataset_is_read(
        self, tmp_path, monkeypatch, capsys
    ):
        def unread(*args, **kwargs):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(glmsub.cli, "load_csv", unread)
        csv_path = make_dataset_csv(tmp_path / "d.csv")
        config = write(tmp_path, real_yaml(csv_path, extra="r: 100\n"))
        outdir, taken = tmp_path / "out", tmp_path / "taken"
        outdir.mkdir()
        taken.mkdir()
        (taken / "e.csv.meta.json").mkdir()
        for flags, bad in (
            (["--out", str(taken)], taken),
            (["--out", str(taken / "e.csv")], taken / "e.csv.meta.json"),
            (["--out", str(outdir / "e.csv"), "--write-probs", str(taken)], taken),
        ):
            assert main(["subsample", str(config), *flags]) == 1
            assert capsys.readouterr().err == f"glmsub: error: output {bad} is a directory\n"
            assert list(outdir.iterdir()) == []
            assert [p.name for p in taken.iterdir()] == ["e.csv.meta.json"]

    def test_stray_quote_in_the_dataset_names_the_file(self, tmp_path, capsys):
        csv_path = make_dataset_csv(tmp_path / "d.csv", n=20_000)
        lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[5] = '1,"0.5,0.5\n'  # data row 5
        csv_path.write_text("".join(lines), encoding="utf-8")
        config = write(tmp_path, real_yaml(csv_path, extra="r: 100\n"))
        assert main(["subsample", str(config), "--out", str(tmp_path / "e.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"glmsub: error: {csv_path}: row 6 cannot be read as CSV")
        assert "Traceback" not in err

    def test_piped_config_is_echoed(self, tmp_path):
        csv_path = make_dataset_csv(tmp_path / "d.csv")
        text = real_yaml(csv_path, extra="r: 100\n")
        out, probs_out = tmp_path / "e.csv", tmp_path / "p.csv"
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            argv = ["subsample", f"/dev/fd/{read_end}", "--out", str(out), "--write-probs", str(probs_out)]
            assert main(argv) == 0
        finally:
            os.close(read_end)
        for path in (out, probs_out):
            meta = json.loads(path.with_name(path.name + ".meta.json").read_text(encoding="utf-8"))
            assert meta["config"] == yaml.safe_load(text)

    def test_piped_config_needs_out(self, tmp_path, monkeypatch, capsys):
        # The default output is named after the config, and a pipe's name is
        # its fd number, so without --out the command writes nothing.
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(glmsub.cli.OUT_DIR_ENV, raising=False)
        csv_path = make_dataset_csv(tmp_path / "d.csv")
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w", encoding="utf-8") as fh:
            fh.write(real_yaml(csv_path, extra="r: 100\n"))
        try:
            assert main(["subsample", f"/dev/fd/{read_end}"]) == 1
        finally:
            os.close(read_end)
        assert "--out" in capsys.readouterr().err
        assert not list(tmp_path.glob("*-estimates.csv"))

    def test_numeric_overflow_is_runtime(self, tmp_path, monkeypatch, capsys):
        def overflow(config):
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
        # Two workers take the replicates in strides, so replicate 1 runs in
        # the second worker, never in this process; that worker dies.
        monkeypatch.setattr(glmsub.simulate, "_run_replicate", _replicate_1_kills_its_worker)
        monkeypatch.setattr(glmsub._workers, "_cpu_budget", lambda: 2)
        config = write(tmp_path, SIM_YAML)
        out = tmp_path / "m.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("glmsub: error: a worker process died: ")
        assert "Traceback" not in err
        assert not out.exists()
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_worker_error_is_the_serial_error(self, tmp_path, monkeypatch, capsys):
        # An error raised in a worker reaches main as the same exception.
        monkeypatch.setattr(glmsub.simulate, "gen_response", _replicate_1_overflows)
        config = write(tmp_path, SIM_YAML)
        errs = []
        for cpus in (1, 2):
            monkeypatch.setattr(glmsub._workers, "_cpu_budget", lambda: cpus)
            out = tmp_path / f"m{cpus}.csv"
            assert main(["simulate", str(config), "--out", str(out)]) == 2
            errs.append(capsys.readouterr().err)
            assert not out.exists()
        assert errs[0] == errs[1] == "glmsub: error: Poisson response mean is non-finite\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_usable_cpu_forks_nothing(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        config = write(tmp_path, SIM_YAML)
        assert main(["simulate", str(config), "--out", str(tmp_path / "m.csv")]) == 0
        assert forks == []

    @pytest.mark.parametrize("command", ["simulate", "subsample", "probabilities", "ssmse"])
    def test_negative_seed_flag_names_the_key(self, tmp_path, monkeypatch, capsys, command):
        # --seed is checked like seed: in the config, before any data is
        # generated or loaded.
        def unreachable(*args, **kwargs):
            pytest.fail("ran past the config check")

        monkeypatch.setattr(glmsub.cli, "run_study", unreachable)
        monkeypatch.setattr(glmsub.cli, "load_csv", unreachable)
        extra = {"subsample": "r: 100\n", "ssmse": "r_grid: [100]\nreplicates: 1\n"}
        if command == "simulate":
            text = SIM_YAML
        else:
            text = real_yaml(make_dataset_csv(tmp_path / "d.csv"), command, extra.get(command, ""))
        config = write(tmp_path, text)
        out = tmp_path / "out" / "o.csv"
        assert main([command, str(config), "--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("glmsub: error: seed: must be non-negative, got -1")
        assert "Traceback" not in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["simulate", "ssmse"])
    def test_empty_r_grid_names_the_key(self, tmp_path, capsys, command):
        if command == "simulate":
            text = SIM_YAML.replace("r_grid: [50]", "r_grid: []")
        else:
            csv_path = make_dataset_csv(tmp_path / "d.csv")
            text = real_yaml(csv_path, command, "r_grid: []\nreplicates: 1\n")
        config = write(tmp_path, text)
        out = tmp_path / "out" / "o.csv"
        assert main([command, str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("glmsub: error: r_grid: must be non-empty")
        assert not out.parent.exists()

    def test_bad_usage(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main(["simulate", "run.yaml", "--threads", "2"]) == 1  # taskset narrows the workers

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    def test_module_runs_as_a_script(self):
        # ``python -m glmsub.cli`` reaches main through the __main__ guard.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "glmsub.cli", "--version"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        # No runpy warning: importing the package does not import glmsub.cli.
        assert (out.returncode, out.stdout, out.stderr) == (0, f"glmsub {glmsub.__version__}\n", "")


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter with glibc's malloc settings at
    their defaults (no ``MALLOC_*`` variable) and return its stdout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return out.stdout


_CLI = "import sys; from glmsub.cli import main; sys.exit(main(sys.argv[1:]))"
_LIBRARY_SIMULATE = """
import sys
from glmsub import parse_config, run_study, write_metrics_csv
write_metrics_csv(run_study(parse_config(sys.argv[1])), sys.argv[2])
"""
_LIBRARY_PROBABILITIES = """
import sys
import numpy as np
from glmsub import load_csv, parse_config, pilot_probabilities
from glmsub.cli import _write_probabilities
c = parse_config(sys.argv[1])
raw, y = load_csv(c.dataset, family=c.family)
rng = np.random.default_rng(np.random.SeedSequence([c.master_seed]))
pv = pilot_probabilities(c.family, c.model_set, raw, y, c.r0, rng, criterion=c.criterion,
                         sampling_model=c.sampling_model, eps=c.eps)
_write_probabilities(sys.argv[2], pv.probs)
"""


class TestMallocThresholds:
    def test_main_sets_both_thresholds(self, monkeypatch):
        calls = []
        monkeypatch.setattr(glmsub.cli, "_mallopt", lambda: lambda *args: calls.append(args))
        assert main(["--version"]) == 0
        assert calls == [(-3, 33554432), (-1, 67108864)]  # M_MMAP_, M_TRIM_THRESHOLD

    def test_main_runs_without_mallopt(self, tmp_path, monkeypatch):
        monkeypatch.setattr(glmsub.cli, "_mallopt", lambda: None)
        out = tmp_path / "m.csv"
        assert main(["simulate", str(write(tmp_path, SIM_YAML)), "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
        reason="glibc's malloc thresholds",
    )
    def test_block_temporaries_stop_faulting(self):
        # 200 rounds of (5, 8192) temporaries (320 KiB each, above glibc's
        # default 128 KiB mmap threshold) took about 25,500 minor faults
        # with the thresholds left dynamic and about 150 with them fixed.
        code = """
import resource
import numpy as np
from glmsub.cli import main
main(["--version"])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    a = np.ones((5, 8192))
    a @ a.T
    b = np.ones((5, 8192))
    del a, b
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        faults = int(run_python(code).split()[-1])
        assert faults < 2000

    def test_simulate_bytes_do_not_depend_on_the_setting(self, tmp_path):
        config = write(tmp_path, SIM_YAML)
        run_python(_CLI, "simulate", config, "--out", tmp_path / "cli.csv")
        run_python(_LIBRARY_SIMULATE, config, tmp_path / "library.csv")
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()

    def test_probability_bytes_do_not_depend_on_the_setting(self, tmp_path):
        data = make_dataset_csv(tmp_path / "d.csv", n=glmsub._workers._SPLIT_ROWS + 3)
        config = write(tmp_path, real_yaml(data, "probabilities"))
        run_python(_CLI, "probabilities", config, "--out", tmp_path / "cli.csv")
        run_python(_LIBRARY_PROBABILITIES, config, tmp_path / "library.csv")
        cli_bytes = (tmp_path / "cli.csv").read_bytes()
        assert cli_bytes.count(b"\n") == glmsub._workers._SPLIT_ROWS + 4
        assert cli_bytes == (tmp_path / "library.csv").read_bytes()
