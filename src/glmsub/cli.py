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
output path, ``--threads`` bounds parallelism without changing results.
Outputs are written atomically (temp file + rename) and every CSV gets a
``<name>.meta.json`` sidecar echoing the config, the master seed and the
tool version.  The ``GLMSUB_OUT_DIR`` environment variable redirects
default output locations.

Exit codes: 0 success, 1 validation error, 2 runtime failure (estimation,
numeric overflow or I/O).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .config import RealDataConfig, parse_config
from .datasets import load_csv
from .errors import (
    FitError,
    GlmsubError,
    NumericOverflowError,
    StageOneError,
    ValidationError,
)
from .realdata import run_ssmse_study, run_subsample
from .simulate import MetricsRecord, ScenarioConfig, model_information, run_study
from .twostage import pilot_probabilities

__all__ = ["main", "write_metrics_csv", "read_metrics_csv", "atomic_write"]

METRICS_HEADER = ["scenario", "estimating_model", "r", "smse", "mean_model_info", "failures"]
OUT_DIR_ENV = "GLMSUB_OUT_DIR"
# Probability rows formatted per write, so the text of all N rows never
# exists at once.
_WRITE_ROWS = 65536


def atomic_write(path: "str | Path", text: "str | Iterable[str]") -> None:
    """Write a file so that readers never observe a partial artifact.
    ``text`` is the whole content or an iterable of its consecutive chunks."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)  # shortest exact round-trip representation
    return str(value)


def write_metrics_csv(records: "list[MetricsRecord]", path: "str | Path") -> None:
    rows = [
        [
            rec.scenario,
            rec.estimating_model,
            rec.r,
            _format_value(rec.smse),
            _format_value(rec.mean_model_info),
            rec.n_failed,
        ]
        for rec in records
    ]
    atomic_write(path, _csv_text(METRICS_HEADER, rows))


def read_metrics_csv(path: "str | Path") -> "list[MetricsRecord]":
    """Parse a metrics CSV back into the records that produced it."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != METRICS_HEADER:
            raise ValidationError(
                f"unexpected metrics header {header!r}; expected {METRICS_HEADER!r}"
            )
        records = []
        for row in reader:
            if not row:
                continue
            records.append(
                MetricsRecord(
                    scenario=row[0],
                    estimating_model=int(row[1]),
                    r=int(row[2]),
                    smse=float(row[3]),
                    mean_model_info=float(row[4]),
                    n_failed=int(row[5]),
                )
            )
    return records


def _default_out(config_path: Path, suffix: str, explicit: "str | None") -> Path:
    if explicit is not None:
        return Path(explicit)
    base = Path(os.environ.get(OUT_DIR_ENV, "."))
    return base / f"{config_path.stem}-{suffix}.csv"


def _write_meta(out_path: Path, config_path: Path, seed: int, mode: str, extra: dict | None = None) -> None:
    with open(config_path, encoding="utf-8") as fh:
        config_echo = yaml.safe_load(fh)
    meta = {
        "tool": "glmsub",
        "version": __version__,
        "mode": mode,
        "master_seed": seed,
        "config_file": str(config_path),
        "config": config_echo,
    }
    if extra:
        meta.update(extra)
    atomic_write(
        Path(str(out_path) + ".meta.json"),
        json.dumps(meta, indent=2, sort_keys=True) + "\n",
    )


def _csv_text(header: "list[str]", rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _probability_lines(probs: np.ndarray) -> Iterator[str]:
    # The bytes csv.writer gives for [i, repr(p)] rows (no field needs
    # quoting), _WRITE_ROWS rows at a time.
    yield "row,probability\r\n"
    for start in range(0, probs.shape[0], _WRITE_ROWS):
        chunk = probs[start : start + _WRITE_ROWS].tolist()
        yield "".join(f"{i},{p!r}\r\n" for i, p in enumerate(chunk, start))


def _write_probabilities(path: "str | Path", probs: np.ndarray) -> None:
    atomic_write(path, _probability_lines(probs))


def _load_config(args, mode: str) -> "ScenarioConfig | RealDataConfig":
    """Parse the config file, check that it is for ``mode`` and apply
    ``--seed``."""
    config = parse_config(args.config)
    got = config.mode if isinstance(config, RealDataConfig) else "simulate"
    if got != mode:
        raise ValidationError(
            f"'{mode}' needs a config with mode: {mode}, got mode: {got}"
        )
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    return config


def _cmd_simulate(args) -> int:
    config = _load_config(args, "simulate")
    records = run_study(config, threads=args.threads)
    out = _default_out(Path(args.config), "metrics", args.out)
    write_metrics_csv(records, out)
    _write_meta(out, Path(args.config), config.master_seed, "simulate")
    print(f"wrote {len(records)} records to {out}")
    return 0


def _cmd_subsample(args) -> int:
    config = _load_config(args, "subsample")
    raw, y = load_csv(config.dataset, family=config.family)
    rng = np.random.default_rng(np.random.SeedSequence([config.master_seed]))
    result = run_subsample(config, raw, y, rng)

    names = config.dataset.covariate_names
    rows = []
    for k, (spec, fit) in enumerate(zip(config.model_set.specs, result.fits), start=1):
        info = model_information(fit)
        for label, est, se in zip(spec.term_labels(names), fit.theta, fit.std_errors):
            rows.append([k, label, repr(float(est)), repr(float(se)), repr(info)])
    out = _default_out(Path(args.config), "estimates", args.out)
    atomic_write(out, _csv_text(["model", "term", "estimate", "std_error", "model_info"], rows))
    _write_meta(out, Path(args.config), config.master_seed, "subsample")
    if args.write_probs is not None:
        _write_probabilities(args.write_probs, result.stage2_probs.probs)
    print(f"wrote estimates for {len(config.model_set)} models to {out}")
    return 0


def _cmd_probabilities(args) -> int:
    config = _load_config(args, "probabilities")
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
    out = _default_out(Path(args.config), "probabilities", args.out)
    _write_probabilities(out, pv.probs)
    _write_meta(
        out, Path(args.config), config.master_seed, "probabilities",
        extra={"criterion": pv.criterion.value},
    )
    print(f"wrote {len(pv)} probabilities to {out}")
    return 0


def _cmd_ssmse(args) -> int:
    config = _load_config(args, "ssmse")
    raw, y = load_csv(config.dataset, family=config.family)
    records = run_ssmse_study(config, raw, y, threads=args.threads)
    out = _default_out(Path(args.config), "ssmse", args.out)
    rows = [
        [rec.scenario, rec.r, _format_value(rec.ssmse), rec.n_failed]
        for rec in records
    ]
    atomic_write(out, _csv_text(["scenario", "r", "ssmse", "failures"], rows))
    _write_meta(out, Path(args.config), config.master_seed, "ssmse")
    print(f"wrote {len(records)} records to {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glmsub",
        description="Optimal and model-robust subsampling for big-data GLMs.",
    )
    parser.add_argument("--version", action="version", version=f"glmsub {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads=False):
        p.add_argument("config", help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output CSV path")
        if threads:
            p.add_argument(
                "--threads",
                type=int,
                default=1,
                help="worker processes for replicates (results are identical "
                "for any value)",
            )

    p = sub.add_parser("simulate", help="run the Monte Carlo simulation study")
    common(p, threads=True)
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
    common(p, threads=True)
    p.set_defaults(func=_cmd_ssmse)
    return parser


def main(argv=None) -> int:
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
