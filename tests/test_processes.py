"""The commands and demos as a shell runs them, each in a fresh interpreter
where a RuntimeWarning (NumPy overflow or invalid value) or a
ResourceWarning (a file handle left unclosed) is an error.

probabilities, simulate, ssmse and subsample each run at the default, which
forks one worker per usable CPU, and with their affinity narrowed to one CPU
of this process's set, which keeps one process; each pair must write the
same bytes.  The phases that read every row run in shares, one per usable
CPU: the command process runs share 0 itself and one worker, forked once for
the phase, runs each other share.  They are the 1 MiB ranges of a CSV body of
at least two whole ranges (mid.csv's 2.5 MB, big.csv's 8 MB and robust.csv's
32 MB are shared out, small.csv's 0.1 MB is parsed by the command alone); and
from _workers._SPLIT_ROWS = 131,072 rows the model-robust models
(robust.csv's 800,000 rows and four quadratic models: one model a share on
4 CPUs) and the 8,192-row blocks of a probability file (big.csv's 200,000
rows are 25 blocks).  big.csv's probabilities are also written on two CPUs,
so on 4 CPUs the writer is compared at 1, 2 and 4 shares.  The replicates
and ssmse's full-data fit run in forked workers while the command waits.

Off Linux glmsub forks no worker and ``taskset`` does not exist, so there is
no split to compare and the command tests skip.
"""

import contextlib
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
WARNINGS_ARE_ERRORS = ["-W", "error::RuntimeWarning", "-W", "error::ResourceWarning"]
MAIN = "import sys; from glmsub.cli import main; sys.exit(main(sys.argv[1:]))"
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def write_csv(path, y, x):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,a,b\n")
        fh.writelines(f"{yi},{a!r},{b!r}\n" for yi, (a, b) in zip(y.tolist(), x.tolist()))


def logistic_rows(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    eta = -0.4 + 0.8 * x[:, 0] - 0.5 * x[:, 1]
    return rng.binomial(1, 1 / (1 + np.exp(-eta))), x


def write_config(path, head, data, tail=""):
    dataset = f"dataset:\n  path: {data}\n  response: y\n  covariates: [a, b]\n"
    path.write_text(head + dataset + tail, encoding="utf-8")


QUADRATIC = "model_set:\n  quadratic_over: [a, b]\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The datasets and configs that every command test reads, and the
    directory that each writes its outputs to."""
    d = tmp_path_factory.mktemp("processes")
    write_csv(d / "big.csv", *logistic_rows(12, 200_000))
    head = "mode: probabilities\nfamily: logistic\nseed: 5\nr0: 400\n"
    write_config(d / "probabilities.yaml", head, "big.csv")
    with open(d / "big.csv", encoding="utf-8") as source, open(d / "mid.csv", "w", encoding="utf-8") as fh:
        fh.writelines(source.readline() for _ in range(60_001))
    write_config(d / "mid.yaml", head, "mid.csv")
    write_csv(d / "robust.csv", *logistic_rows(13, 800_000))
    with open(d / "robust.csv", encoding="utf-8") as source, open(
        d / "robust-quoted.csv", "w", encoding="utf-8"
    ) as fh:
        source.readline()
        fh.write('"y","a","b"\n')
        fh.writelines(source)
    head = "mode: probabilities\nfamily: logistic\nseed: 6\nr0: 400\n"
    for name in ("robust", "robust-quoted"):
        write_config(d / f"{name}.yaml", head, f"{name}.csv", QUADRATIC)
    head = "mode: subsample\nfamily: logistic\nseed: 8\nr0: 400\nr: 1000\n"
    write_config(d / "subsample.yaml", head, "robust.csv", QUADRATIC)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2_000, 2))
    write_csv(d / "small.csv", rng.poisson(np.exp(0.3 + 0.4 * x[:, 0] - 0.2 * x[:, 1])), x)
    head = "mode: ssmse\nfamily: poisson\nseed: 9\nr0: 50\nr_grid: [100]\nreplicates: 3\n"
    write_config(d / "ssmse.yaml", head, "small.csv", QUADRATIC)
    head = "mode: probabilities\nfamily: poisson\nseed: 5\nr0: 100\n"
    write_config(d / "small-probabilities.yaml", head, "small.csv")
    (d / "simulate.yaml").write_text(
        "mode: simulate\nfamily: logistic\nseed: 3\nr0: 30\nr_grid: [60]\npopulation: 600\n"
        "replicates: 4\ncovariates:\n  distribution: normal\n  dimension: 2\n  mean: [0.0, 0.0]\n"
        "  covariance: [[1.5, 0.0], [0.0, 1.5]]\ndata_generating:\n  theta: [-1.0, 0.5, 0.1]\n",
        encoding="utf-8",
    )
    return d


def run(cwd, *args, cpus=None):
    """Run ``main(args)`` in a fresh interpreter in ``cwd``, on the first
    ``cpus`` CPUs of this process's set (all of them if None), and check
    that it ended cleanly: exit 0, nothing on stderr (Python reports a
    ResourceWarning raised in a finalizer there but still exits 0), no
    process of its own left running and no part or temp file left."""
    argv = [sys.executable, *WARNINGS_ARE_ERRORS, "-c", MAIN, *args]
    if cpus is not None:
        argv = ["taskset", "-c", ",".join(map(str, sorted(os.sched_getaffinity(0))[:cpus])), *argv]
    # stderr goes to a file: a worker left running would hold a pipe open.
    with tempfile.TemporaryFile("w+", encoding="utf-8") as err:
        proc = subprocess.Popen(
            argv, cwd=cwd, env=ENV, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True
        )
        try:
            proc.wait(timeout=300)
            # The command leads a process group of its own, which outlives it
            # only in a process that it left running.
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        err.seek(0)
        assert (proc.returncode, err.read()) == (0, "")
    assert [*cwd.rglob("*.part"), *cwd.rglob("*.tmp")] == []


def same_bytes(cwd, first, *others):
    for other in others:
        assert (cwd / first).read_bytes() == (cwd / other).read_bytes(), (first, other)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glmsub forks workers on Linux only")
class TestOneCpuWritesTheSameBytes:
    @pytest.mark.parametrize(
        "command, config", [("simulate", "simulate"), ("ssmse", "ssmse"), ("probabilities", "mid")]
    )
    def test_command(self, workdir, command, config):
        run(workdir, command, f"{config}.yaml", "--out", f"{config}-default.csv")
        run(workdir, command, f"{config}.yaml", "--out", f"{config}-pinned.csv", cpus=1)
        same_bytes(workdir, f"{config}-default.csv", f"{config}-pinned.csv")

    def test_probabilities_on_one_two_and_every_cpu(self, workdir):
        run(workdir, "probabilities", "probabilities.yaml", "--out", "probabilities-default.csv")
        run(workdir, "probabilities", "probabilities.yaml", "--out", "probabilities-pinned.csv", cpus=1)
        run(workdir, "probabilities", "probabilities.yaml", "--out", "probabilities-two.csv", cpus=2)
        same_bytes(workdir, "probabilities-default.csv", "probabilities-pinned.csv", "probabilities-two.csv")
        # Every row must read i,repr(p) for the p its text parses to, which
        # holds only if the text is the shortest round-trip repr.  big.csv's
        # probabilities all lie in the writer's vectorised domain
        # [1e-10, 1e-4); most of small.csv's lie above it, so their rows
        # take repr and are spliced in among the vectorised ones.
        run(workdir, "probabilities", "small-probabilities.yaml", "--out", "probabilities-small.csv")
        values = []
        for name in ("probabilities-default.csv", "probabilities-small.csv"):
            with open(workdir / name, newline="", encoding="utf-8") as fh:
                lines = fh.read().split("\r\n")
            assert lines[0] == "row,probability" and lines[-1] == "", name
            for i, line in enumerate(lines[1:-1]):
                value = float(line.split(",")[1])
                assert line == f"{i},{value!r}", (name, line)
                values.append(value)
        assert len(values) == 202_000
        assert sum(1e-10 <= v < 1e-4 for v in values) > 200_000, "vectorised rows"
        assert sum(v >= 1e-4 for v in values) > 1_000, "repr rows"

    def test_quoted_header(self, workdir):
        # robust-quoted.csv is robust.csv with its header quoted, as R's
        # write.csv writes it.
        for name in ("robust", "robust-quoted"):
            run(workdir, "probabilities", f"{name}.yaml", "--out", f"{name}-default.csv")
            run(workdir, "probabilities", f"{name}.yaml", "--out", f"{name}-pinned.csv", cpus=1)
        quoted = ("robust-quoted-default.csv", "robust-quoted-pinned.csv")
        same_bytes(workdir, "robust-default.csv", "robust-pinned.csv", *quoted)

    def test_subsample_estimates_sidecars_and_probabilities(self, workdir):
        # The one command that writes per-model estimates and Newton
        # iteration counts (in its sidecar).
        for tag, cpus in (("default", None), ("pinned", 1)):
            out = ("--out", f"subsample-{tag}.csv", "--write-probs", f"subsample-probs-{tag}.csv")
            run(workdir, "subsample", "subsample.yaml", *out, cpus=cpus)
        for name in ("subsample-{}.csv", "subsample-probs-{}.csv"):
            for suffix in ("", ".meta.json"):
                same_bytes(workdir, name.format("default") + suffix, name.format("pinned") + suffix)
        sidecar = workdir / "subsample-default.csv.meta.json"
        assert "newton_iterations" in sidecar.read_text(encoding="utf-8")


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(tmp_path, demo):
    # The demos call the public API; 04 writes to a temp directory, here in
    # tmp_path, and removes it.
    env = {**ENV, "TMPDIR": str(tmp_path)}
    argv = [sys.executable, *WARNINGS_ARE_ERRORS, str(demo)]
    out = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert not list(tmp_path.glob("glmsub-demo-*"))
