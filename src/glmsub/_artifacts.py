"""Artifact I/O shared by the library and the CLI: atomic writes and the
metrics CSV.  :mod:`glmsub` and :mod:`glmsub.cli` both import from here, so
importing the package does not import the CLI and ``python -m glmsub.cli``
runs its module once."""

from __future__ import annotations

import csv
import io
import os
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .simulate import MetricsRecord

__all__ = ["atomic_write", "write_metrics_csv"]

METRICS_HEADER = ["scenario", "estimating_model", "r", "smse", "mean_model_info", "failures"]


@contextmanager
def _atomic_path(path: Path) -> Iterator[str]:
    """Yield the name of an empty temp file beside ``path``, to be written
    in the block.  On a clean exit the file gets the mode a plain ``open``
    would give it, ``0o666`` less the umask, and replaces ``path``; on an
    error it is removed.  Readers never observe a partial artifact."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    os.close(fd)
    try:
        yield tmp
        umask = os.umask(0o022)  # os.umask only reads by setting, so set it back
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write(path: "str | Path", text: "str | Iterable[str]") -> None:
    """Write a file so that readers never observe a partial artifact.
    ``text`` is the whole content or an iterable of its consecutive chunks."""
    with _atomic_path(Path(path)) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def _csv_text(header: "list[str]", rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_metrics_csv(records: "list[MetricsRecord]", path: "str | Path") -> None:
    rows = [
        [
            rec.scenario,
            rec.estimating_model,
            rec.r,
            repr(rec.smse),  # shortest exact round-trip representation
            repr(rec.mean_model_info),
            rec.n_failed,
        ]
        for rec in records
    ]
    atomic_write(path, _csv_text(METRICS_HEADER, rows))
