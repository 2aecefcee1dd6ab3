"""Command-line interface.

Subcommands (each takes a YAML config, see :mod:`glmsub.config`):

* ``simulate <config>``       run the Monte Carlo study, write a metrics CSV
* ``subsample <config>``      one two-stage run on a CSV dataset, write
  per-model estimates and standard errors
* ``probabilities <config>``  write the stage-2 selection probabilities
  produced by a pilot fit
* ``ssmse <config>``          repeated-subsampling comparison on a CSV
  dataset, write summed-SMSE records

Common flags: ``--seed`` overrides the config seed, ``--out`` sets the
output path.  Without ``--out`` the output is named after the config
file, so a config read from a pipe needs ``--out``.  ``simulate`` and
``ssmse`` run their replicates in one forked worker process per usable
CPU on Linux, as the library does, without changing results, while the
CLI process waits.  ``subsample`` and ``probabilities`` share a large
CSV parse, model-robust scoring and a large probability write among the
CLI process and one forked worker per other usable CPU
(:mod:`glmsub._workers`).  ``taskset -c 0`` keeps one process.  While
workers run, the CLI process holds OpenBLAS at one thread, which each
worker inherits.
Outputs are written atomically (temp file + rename) and every CSV gets a
``<name>.meta.json`` sidecar echoing the config as it was read, once (so
a config on a pipe is echoed too), the master seed and the tool version;
``subsample`` adds ``newton_iterations``, one count per model in model
order, and a probability file's sidecar adds ``criterion``.  The
``GLMSUB_OUT_DIR`` environment variable redirects default output
locations.  An output path that is a directory or resolves to the config
file, the dataset or another output, sidecars included, is refused before
any data is read.

A probability file holds the rows ``i,repr(p)``.  :mod:`glmsub._shortest`
computes the shortest round-trip digits of a block of values in [1e-10,
1e-4) with NumPy integer arithmetic and takes ``repr`` for any other
value, so the bytes are those of one ``repr`` per value.  The rows are
formatted in blocks of ``WRITE_ROWS``, shared out from
``_workers._SPLIT_ROWS`` rows, and the CLI process writes the header and
then every block in order.  The bytes are the same either way, and
``taskset -c 0`` keeps the write to one process.  When the system refuses
a fork, every command runs all of its work in the CLI process.

On glibc, :func:`main` first fixes malloc's mmap threshold at 32 MiB and
its trim threshold at 64 MiB, the ceiling glibc's own dynamic rule reaches,
so the block temporaries of every fit and probability pass are reused from
the heap instead of being handed back to the kernel and faulted in again;
the workers inherit it.  Results are the same bytes.  The library leaves
malloc at glibc's defaults, because its caller owns the process.

Exit codes: 0 success, 1 validation error, 2 runtime failure (estimation,
numeric overflow or I/O).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, _shortest, _workers
from ._artifacts import _atomic_path, _csv_text, atomic_write, write_metrics_csv
from .config import RealDataConfig, _parse_mapping, _read_config
from .datasets import load_csv
from .errors import (
    FitError,
    GlmsubError,
    NumericOverflowError,
    StageOneError,
    ValidationError,
)
from .realdata import run_ssmse_study, run_subsample
from .simulate import ScenarioConfig, model_information, run_study
from .twostage import pilot_probabilities

__all__ = ["main"]

OUT_DIR_ENV = "GLMSUB_OUT_DIR"
# Probability rows per block: one task of the write, formatted into its
# share's region, so the text of all N rows never exists at once.  Writing
# 1e6 rows in one process grew the resident set by about 3.4 MB at 8,192 rows
# a block and 23 MB at 65,536; 4,096 to 16,384 rows took the same time
# (0.27-0.30 s), 1,024 took 0.47 s.
WRITE_ROWS = 8192


def _default_out(config_path: Path, suffix: str, explicit: "str | None") -> Path:
    if explicit is not None:
        return Path(explicit)
    if not config_path.is_file():  # a pipe's name, such as /dev/fd/63, names no run
        raise ValidationError(
            f"config {config_path} is not a regular file; name the output with --out"
        )
    base = Path(os.environ.get(OUT_DIR_ENV, "."))
    return base / f"{config_path.stem}-{suffix}.csv"


def _write_meta(out_path: "str | Path", meta: dict, extra: dict | None = None) -> None:
    text = json.dumps({**meta, **(extra or {})}, indent=2, sort_keys=True)
    atomic_write(f"{out_path}.meta.json", text + "\n")


def _format_rows(probs: np.ndarray, start: int, region: np.ndarray) -> int:
    """Format the rows ``i,repr(p)`` of ``probs``, numbered from ``start``,
    into the head of ``region``'s bytes and return their byte count."""
    text = _shortest.rows(probs, start)
    region.view(np.uint8)[: len(text)] = np.frombuffer(text, np.uint8)
    return len(text)


def _write_probabilities(path: "str | Path", probs: np.ndarray) -> None:
    """Write the probability file: the header, then the rows ``i,repr(p)``
    (the bytes csv.writer gives, as no field needs quoting).  Each block
    of ``WRITE_ROWS`` rows is a :func:`glmsub._workers._fork_stream` task,
    shared out from ``_workers._SPLIT_ROWS`` rows, that formats it into
    its share's buffer, and this process writes the buffers' bytes in
    block order."""
    path = Path(path)
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.shape[0]
    tasks = [partial(_format_rows, probs[a : a + WRITE_ROWS], a) for a in range(0, n, WRITE_ROWS)]
    # A row is at most the row number, a comma, a 24-character repr and CRLF;
    # a share's buffer holds that many bytes for each row of a block.
    floats = -(-WRITE_ROWS * (len(str(n)) + 27) // 8)
    with _atomic_path(path) as tmp, open(tmp, "wb") as fh:
        fh.write(b"row,probability\r\n")
        # Closed however the loop ends, so that no worker outlives the write.
        with closing(_workers._fork_stream(tasks, n >= _workers._SPLIT_ROWS, floats)) as stream:
            for region, size in stream:
                fh.write(region.view(np.uint8)[:size])


def _load_config(args, mode: str, suffix: str) -> "tuple[ScenarioConfig | RealDataConfig, Path, dict]":
    """Parse the config file, check that it is for ``mode`` and apply
    ``--seed``; return the config, the output path and the sidecar fields,
    which echo the YAML document as read, once.  An output path (or its
    ``.meta.json`` sidecar) that is a directory or resolves to the config
    file, the dataset or another output is refused before anything is
    read."""
    document = _read_config(args.config)
    config = _parse_mapping(document)
    got = config.mode if isinstance(config, RealDataConfig) else "simulate"
    if got != mode:
        raise ValidationError(
            f"'{mode}' needs a config with mode: {mode}, got mode: {got}"
        )
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    out = _default_out(Path(args.config), suffix, args.out)
    taken = {Path(args.config).resolve(): f"the config file {args.config}"}
    if got != "simulate":
        taken.setdefault(Path(config.dataset.path).resolve(), f"the dataset {config.dataset.path}")
    for output in filter(None, (out, getattr(args, "write_probs", None))):
        for path in (Path(output), Path(f"{output}.meta.json")):
            if path.is_dir():
                raise ValidationError(f"output {path} is a directory")
            key = path.resolve()
            if key in taken:
                raise ValidationError(f"output {path} would overwrite {taken[key]}")
            taken[key] = f"the output {path}"
    meta = {
        "tool": "glmsub",
        "version": __version__,
        "mode": mode,
        "master_seed": config.master_seed,
        "config_file": str(Path(args.config)),
        "config": document,
    }
    return config, out, meta


def _cmd_simulate(args) -> int:
    config, out, meta = _load_config(args, "simulate", "metrics")
    records = run_study(config)
    write_metrics_csv(records, out)
    _write_meta(out, meta)
    print(f"wrote {len(records)} records to {out}")
    return 0


def _cmd_subsample(args) -> int:
    config, out, meta = _load_config(args, "subsample", "estimates")
    raw, y = load_csv(config.dataset, family=config.family)
    rng = np.random.default_rng(np.random.SeedSequence([config.master_seed]))
    result = run_subsample(config, raw, y, rng)

    names = config.dataset.covariate_names
    rows = []
    for k, (spec, fit) in enumerate(zip(config.model_set.specs, result.fits), start=1):
        info = model_information(fit)
        for label, est, se in zip(spec.term_labels(names), fit.theta, fit.std_errors):
            rows.append([k, label, repr(float(est)), repr(float(se)), repr(info)])
    atomic_write(out, _csv_text(["model", "term", "estimate", "std_error", "model_info"], rows))
    _write_meta(out, meta, {"newton_iterations": [fit.iterations for fit in result.fits]})
    if args.write_probs is not None:
        probs = result.stage2_probs
        _write_probabilities(args.write_probs, probs.probs)
        _write_meta(args.write_probs, meta, {"criterion": probs.criterion.value})
    print(f"wrote estimates for {len(config.model_set)} models to {out}")
    return 0


def _cmd_probabilities(args) -> int:
    config, out, meta = _load_config(args, "probabilities", "probabilities")
    raw, y = load_csv(config.dataset, family=config.family)
    rng = np.random.default_rng(np.random.SeedSequence([config.master_seed]))
    pv = pilot_probabilities(
        config.family,
        config.model_set,
        raw,
        y,
        config.r0,
        rng,
        criterion=config.criterion,
        sampling_model=config.sampling_model,
        eps=config.eps,
    )
    _write_probabilities(out, pv.probs)
    _write_meta(out, meta, {"criterion": pv.criterion.value})
    print(f"wrote {len(pv)} probabilities to {out}")
    return 0


def _cmd_ssmse(args) -> int:
    config, out, meta = _load_config(args, "ssmse", "ssmse")
    raw, y = load_csv(config.dataset, family=config.family)
    records = run_ssmse_study(config, raw, y)
    rows = [
        [rec.scenario, rec.r, repr(rec.ssmse), rec.n_failed]
        for rec in records
    ]
    atomic_write(out, _csv_text(["scenario", "r", "ssmse", "failures"], rows))
    _write_meta(out, meta)
    print(f"wrote {len(records)} records to {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glmsub",
        description="Optimal and model-robust subsampling for big-data GLMs.",
    )
    parser.add_argument("--version", action="version", version=f"glmsub {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output CSV path")

    p = sub.add_parser("simulate", help="run the Monte Carlo simulation study")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("subsample", help="two-stage subsample fit on a CSV dataset")
    common(p)
    p.add_argument(
        "--write-probs",
        default=None,
        metavar="PATH",
        help="also write the stage-2 selection probabilities",
    )
    p.set_defaults(func=_cmd_subsample)

    p = sub.add_parser("probabilities", help="emit stage-2 selection probabilities")
    common(p)
    p.set_defaults(func=_cmd_probabilities)

    p = sub.add_parser("ssmse", help="repeated-subsampling comparison on a CSV dataset")
    common(p)
    p.set_defaults(func=_cmd_ssmse)
    return parser


# glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD at the ceiling its dynamic
# rule reaches after a 32 MiB block is freed.  Left dynamic, they can stay at
# 128 KiB, and every (d, 8192) block temporary of a fit or probability pass
# (about 330 KB) is handed back to the kernel and faulted in again.  Setting
# one alone fixes the other at its default, so both are set.
_MALLOC_THRESHOLDS = ((-3, 32 << 20), (-1, 64 << 20))


def _mallopt():
    """libc's ``mallopt``, or None off Linux or where libc has none."""
    if not sys.platform.startswith("linux"):
        return None
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def main(argv=None) -> int:
    mallopt = _mallopt()  # the CLI owns its process; the library leaves malloc alone
    if mallopt is not None:
        for param, value in _MALLOC_THRESHOLDS:
            mallopt(param, value)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; bad arguments are validation errors.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (GlmsubError, OSError) as exc:
        runtime = isinstance(exc, (FitError, StageOneError, NumericOverflowError, OSError))
        print(f"glmsub: error: {exc}", file=sys.stderr)
        return 2 if runtime else 1


if __name__ == "__main__":
    sys.exit(main())
