"""glmsub benchmark: drive the CLI on seeded workloads, check, report.

Run from the root of a checkout::

    python3 bench/run.py --workload sim-desk --seed 1 --seconds 30 --trace 0

The workloads are in ``workloads.py``.  Inputs are generated from the seed
into ``.bench_work/`` outside the timed region.  Every repeat is a fresh
interpreter (``child.py``) that imports ``glmsub.cli`` from ``src/`` and
makes one ``main(argv)`` call with ``--threads`` at its default of 1;
repeats continue until ``--seconds`` of measuring is used up.

With ``--trace 0`` the last line carries the end-to-end metrics of
untraced repeats: ``setup_s`` (median time from starting an interpreter
until ``glmsub.cli`` is imported, over five import-only processes and
every repeat), ``run_s`` (median wall time of the ``main`` call) and
``peak_rss_mb`` (median peak resident memory of a repeat).  With ``--trace 1`` untraced
and traced repeats alternate and the last line carries the per-layer
metrics of ``tracer.py`` (medians over traced repeats), plus the
tracing overhead, traced minus untraced median ``run_s``.

One operation is one strategy cell of the output (one record); a cell
fails when its ``failures`` count is non-zero.  A non-zero exit code, a
failed output check, outputs that differ between repeats with the same
seed, or counters that differ between traced repeats make the run
incorrect.  The line before the last holds the environment, input sizes
and hashes, and every sample.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import COUNTERS, layer_metrics
from workloads import WORKLOADS, CheckFailed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"

SETUP_SAMPLES = 5  # import-only processes per untraced run, after one warm-up
MIN_UNTRACED = 2
MIN_TRACED = 2  # so that the counters of two traced repeats can be compared
TIME_LIMIT_S = 165.0  # everything, generation included, ends before this


class RunFailed(Exception):
    """The program exited non-zero or crashed."""


# -- environment -------------------------------------------------------------


def _blas_threads() -> "int | None":
    """Thread count of the OpenBLAS that NumPy loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def _blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _git_commit() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _tree_sha256(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _tree_sha256(ROOT / "src"),
    }


# -- child processes -----------------------------------------------------------


def spawn(workdir: Path, argv, trace: bool, deadline: float) -> dict:
    """Run ``child.py`` once and return its report with ``setup_s`` added."""
    result = workdir / "child-report.json"
    result.unlink(missing_ok=True)
    spec = {"src": str(ROOT / "src"), "argv": argv, "trace": trace, "result": str(result)}
    env = dict(os.environ, TMPDIR=str(workdir))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            cwd=workdir,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{argv} did not finish before the time limit") from None
    if proc.returncode != 0 or not result.is_file():
        raise RunFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(result.read_text(encoding="utf-8"))
    report["setup_s"] = report["imported"] - started
    if argv is not None and report["rc"] != 0:
        raise RunFailed(f"glmsub {' '.join(argv)} exited {report['rc']}: {proc.stderr.strip()}")
    return report


def _next_is_traced(trace: bool, n_untraced: int, n_traced: int) -> bool:
    """Untraced first, then two traced, then alternate."""
    if not trace or n_untraced == 0:
        return False
    return n_traced < MIN_TRACED or n_traced <= n_untraced


def _minimum_met(trace: bool, n_untraced: int, n_traced: int) -> bool:
    if trace:
        return n_untraced >= 1 and n_traced >= MIN_TRACED
    return n_untraced >= MIN_UNTRACED


def measure(workload, workdir: Path, seconds: float, trace: bool, deadline: float):
    """Repeat the workload until ``seconds`` are used; check every repeat."""
    untraced, traced = [], []
    cells = failed = 0
    reference = None  # output hashes of the first repeat
    start = time.monotonic()
    last_wall = 0.0
    while True:
        now = time.monotonic()
        minimum = _minimum_met(trace, len(untraced), len(traced))
        if minimum and (now - start + last_wall > seconds or now + last_wall > deadline):
            break
        for name in workload.outputs:
            (workdir / name).unlink(missing_ok=True)
        is_traced = _next_is_traced(trace, len(untraced), len(traced))
        report = spawn(workdir, workload.argv(), is_traced, deadline)
        if reference is None:
            try:
                rep_cells, rep_failed = workload.check(workdir)
            except (ValueError, KeyError, IndexError) as exc:
                raise CheckFailed(f"unreadable output: {exc!r}") from None
            reference = {name: _file_sha256(workdir / name) for name in workload.outputs}
        elif {name: _file_sha256(workdir / name) for name in workload.outputs} != reference:
            raise CheckFailed("outputs differ between repeats with the same seed")
        cells += rep_cells
        failed += rep_failed
        (traced if is_traced else untraced).append(report)
        last_wall = time.monotonic() - now
    return untraced, traced, cells, failed, reference


def trace_metrics(untraced: "list[dict]", traced: "list[dict]") -> "tuple[dict, list]":
    per_rep = [layer_metrics(rep["trace"]) for rep in traced]
    for rep in per_rep[1:]:
        changed = [name for name in COUNTERS if rep[name] != per_rep[0][name]]
        if changed:
            raise CheckFailed(f"counters differ between traced repeats: {changed}")
    metrics = {name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]}
    metrics["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced) - statistics.median(
        r["run_s"] for r in untraced
    )
    missing = sorted({name for rep in traced for name in rep["trace"]["missing"]})
    return metrics, missing


# -- main ----------------------------------------------------------------------


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def benchmark(args, workload, workdir: Path, detail: dict, deadline: float) -> dict:
    """Generate, measure and check; fill ``detail``; return the result."""
    workload.generate(workdir, args.seed)
    detail["inputs"] = {
        p.name: {"bytes": p.stat().st_size, "sha256": _file_sha256(p)}
        for p in sorted(workdir.iterdir())
    }
    detail["environment"] = environment()

    spawn(workdir, None, False, deadline)  # warm-up: bytecode and file caches
    setup = [] if args.trace else [
        spawn(workdir, None, False, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)
    ]
    untraced, traced, cells, failed, detail["outputs"] = measure(
        workload, workdir, args.seconds, bool(args.trace), deadline
    )
    setup += [r["setup_s"] for r in untraced + traced]
    run_s = [r["run_s"] for r in untraced]
    rss_mb = [r["peak_rss_kb"] / 1024 for r in untraced]
    detail["samples"] = {
        "setup_s": setup,
        "run_s": run_s,
        "traced_run_s": [r["run_s"] for r in traced],
        "peak_rss_mb": rss_mb,
    }
    if args.trace:
        values, detail["missing"] = trace_metrics(untraced, traced)
        for name in detail["missing"]:
            print(f"bench: hook point {name} is missing; its layer reads 0", file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(run_s),
            "peak_rss_mb": statistics.median(rss_mb),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    return {
        "correct": True,
        "attempted": cells,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    begun = time.monotonic()
    if not (ROOT / "src" / "glmsub" / "cli.py").is_file():
        print(f"bench: no glmsub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "loadavg_at_start": os.getloadavg(),
    }
    try:
        result = benchmark(args, workload, workdir, detail, begun + TIME_LIMIT_S)
    except (CheckFailed, RunFailed) as exc:
        detail["error"] = str(exc)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["elapsed_s"] = time.monotonic() - begun
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
