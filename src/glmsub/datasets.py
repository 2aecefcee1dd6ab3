"""CSV dataset ingestion with per-column scaling.

Files must be UTF-8 (a leading byte-order mark is skipped; a byte that
does not decode is a validation error naming the file) with a header row
(RFC-4180-style quoting, ``.`` decimal) that names each requested column
once.  A body of ``_SPLIT_BYTES`` or more is parsed in two forked workers,
one per half, when two or more CPUs are usable on Linux; the arrays are
the same bits as from one pass.  Two scaling rules are supported
besides none: standardize to mean zero and population variance one, and
map the observed range onto [0, 1].  Scaling is applied once, globally,
before any subsampling.
"""

from __future__ import annotations

import csv
import io
import os
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from . import _workers
from .errors import ValidationError
from .families import Family

__all__ = ["Scaling", "CovariateColumn", "DatasetDescriptor", "load_csv", "apply_scaling"]

# Rows per block when the covariates are moved to the front of the table.
_MOVE_ROWS = 65536
# Bodies of at least this many bytes are parsed by two forked workers; on a
# 2-vCPU VM the break-even lies near 2 MiB.  Medians of 21 interleaved
# in-process loads of a y,x1,x2,x3 file (%d, %.6f), one process -> two
# workers (pairs where two were lower): 19.9 -> 23.0 ms at 1 MiB (2 of 21),
# 34.5 -> 35.9 ms at 2 MiB (12), 86.0 -> 74.1 ms at 4 MiB (15), 155.6 ->
# 132.0 ms at 8 MiB (16) and 326.3 -> 258.7 ms at 16 MiB (20).
_SPLIT_BYTES = 4 << 20


class Scaling(str, Enum):
    NONE = "none"
    STANDARDIZE = "standardize"
    RANGE_TO_UNIT = "range-to-unit"


@dataclass(frozen=True)
class CovariateColumn:
    name: str
    continuous: bool = True
    scaling: Scaling = Scaling.NONE

    def __post_init__(self):
        try:
            object.__setattr__(self, "scaling", Scaling(self.scaling))
        except ValueError:
            names = ", ".join(Scaling)
            raise ValidationError(f"expected a scaling ({names}), got {self.scaling!r}") from None


@dataclass(frozen=True)
class DatasetDescriptor:
    """Where a dataset lives and how to read it: the response column name
    and the covariate columns with their continuity flags and scaling."""

    path: "str | Path"
    response: str
    covariates: tuple[CovariateColumn, ...]

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        if len(self.covariates) == 0:
            raise ValidationError("need at least one covariate column")
        names = [c.name for c in self.covariates]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate covariate names in {names}")
        if self.response in names:
            raise ValidationError(
                f"response column {self.response!r} also listed as a covariate"
            )

    @property
    def covariate_names(self) -> list[str]:
        return [c.name for c in self.covariates]

    @property
    def continuous_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.covariates) if c.continuous)


def apply_scaling(column: np.ndarray, rule: Scaling, name: str = "") -> np.ndarray:
    """Scale one column; raises on degenerate (constant) columns."""
    if rule is Scaling.NONE:
        return column
    if rule is Scaling.STANDARDIZE:
        var = float(np.var(column))  # population variance
        if var == 0.0:
            raise ValidationError(
                f"column {name!r} is constant and cannot be standardized"
            )
        return (column - column.mean()) / np.sqrt(var)
    lo, hi = float(column.min()), float(column.max())
    if hi == lo:
        raise ValidationError(
            f"column {name!r} is constant and cannot be range-scaled"
        )
    return (column - lo) / (hi - lo)


def _parse_cell(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(
            f"non-numeric value {text!r} at row {row}, column {column!r}"
        ) from None
    if not np.isfinite(value):
        raise ValidationError(
            f"non-finite value {text!r} at row {row}, column {column!r}"
        )
    return value


def _parse_table(fh, n_fields: int) -> "np.ndarray | None":
    """Parse the rest of an open CSV file in one vectorised pass and return
    the whole table.

    Returns ``None`` unless the body is a non-empty table of exactly
    ``n_fields`` finite numbers per row; the caller then rescans the file
    row by row for the precise error.  Every column is parsed, so a row
    with an extra field is refused here, and ``comments=None`` makes a
    ``#``-prefixed row a parse failure rather than a skipped line.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty body
            table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[0] == 0 or table.shape[1] != n_fields or not np.isfinite(table).all():
        return None
    return table


def _parse_rows(path: Path, n_fields: int, positions: "list[int]", columns: "list[str]") -> np.ndarray:
    """Parse the file row by row with :func:`_parse_cell`; the only source
    of ingestion error messages.  Returns the columns at ``positions``."""
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_fields:
                raise ValidationError(
                    f"row {row_number} has {len(row)} fields, header has {n_fields}"
                )
            rows.append(
                [_parse_cell(row[p], row_number, col) for p, col in zip(positions, columns)]
            )
    if not rows:
        raise ValidationError(f"{path} contains a header but no data rows")
    return np.asarray(rows, dtype=float)


def _split_table(table: np.ndarray, positions: "list[int]") -> tuple[np.ndarray, np.ndarray]:
    """The response column (``positions[0]``) and the C-contiguous
    covariate columns of a parsed table.

    The covariates are moved, one row block at a time, to the front of the
    table's own buffer, which is then cut to their size: the table and a
    copy of it are never held together.  Row i lands at ``i * p``, at or
    before its source at ``i * n_fields``, so no unread row is overwritten.
    """
    n = table.shape[0]
    covariates = positions[1:]
    p = len(covariates)
    y = table[:, positions[0]].copy()
    flat = table.reshape(-1)
    for start in range(0, n, _MOVE_ROWS):
        block = np.take(table[start : start + _MOVE_ROWS], covariates, axis=1)
        flat[start * p : start * p + block.size] = block.ravel()
    del flat
    table.resize((n, p), refcheck=False)  # no view of the table is left
    return y, table


def _parse_range(
    path: Path, start: int, stop: int, n_fields: int, positions: "list[int]", out: np.ndarray
) -> "int | None":
    """Parse bytes ``[start, stop)`` of the file as :func:`_parse_table`
    parses a body, write the columns at ``positions`` into the first rows
    of ``out`` and return how many rows that is.  ``None`` if the range
    does not parse, or holds an odd number of quote characters because the
    split fell inside a quoted field."""
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(stop - start)
    if data.count(b'"') % 2:
        return None
    # Not a StringIO, which would hold four bytes a character.
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as text:
        table = _parse_table(text, n_fields)
    if table is None or table.shape[0] > out.shape[0]:
        return None
    out[: table.shape[0]] = table[:, positions]
    return table.shape[0]


def _parse_halves(
    path: Path, header: "list[str]", positions: "list[int]"
) -> "tuple[np.ndarray, np.ndarray] | None":
    """The response and the covariate columns, parsed by two
    :func:`glmsub._workers._fork_map` tasks, one for each half of the body
    split at the first newline after its midpoint.  Each task writes into
    a shared region sized for the most rows its bytes can hold, at
    ``2 * len(header)`` bytes a row, and the parent copies the regions out
    in file order.  ``None`` with fewer than two workers, for a body under
    ``_SPLIT_BYTES``, when the first line is not the plain header, or when
    a half does not parse: the caller then parses the body in one pass."""
    if _workers._worker_count(2) < 2:
        return None
    with open(path, "rb") as fh:
        first = fh.readline().decode("utf-8-sig", "replace")
        start, stop = fh.tell(), os.fstat(fh.fileno()).st_size
        if stop - start < _SPLIT_BYTES or first.rstrip("\r\n").split(",") != header:
            return None
        fh.seek((start + stop) // 2)
        fh.readline()
        mid = fh.tell()
    n_fields, ranges = len(header), ((start, mid), (mid, stop))
    outs = [_workers._shared_array((b - a) // (2 * n_fields) + 1, len(positions)) for a, b in ranges]
    rows = _workers._fork_map(
        [partial(_parse_range, path, *ab, n_fields, positions, out) for ab, out in zip(ranges, outs)]
    )
    if None in rows:
        return None
    y, raw = np.empty(sum(rows)), np.empty((sum(rows), len(positions) - 1))
    at = 0
    for k in rows:
        out = outs.pop(0)  # so that each region is unmapped once copied
        y[at : at + k] = out[:k, 0]
        raw[at : at + k] = out[:k, 1:]
        at += k
    return y, raw


def load_csv(
    descriptor: DatasetDescriptor, family: Family | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Load, validate and scale a dataset.

    Returns the scaled raw covariate matrix (columns in descriptor order)
    and the response vector.  When a family is given the response is
    validated against it (e.g. a 0/1 check for logistic data).  A large
    body is parsed in two halves (:func:`_parse_halves`); a body that they
    do not parse is parsed again in one pass, for the same messages.
    """
    path = Path(descriptor.path)
    if not path.exists():
        raise ValidationError(f"dataset file not found: {path}")
    columns = [descriptor.response, *descriptor.covariate_names]
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise ValidationError(f"{path} is empty (missing header)") from None
            for col in columns:
                if col not in header:
                    raise ValidationError(f"column {col!r} not found in {path} header")
                if header.count(col) > 1:
                    raise ValidationError(
                        f"column {col!r} appears more than once in {path} header"
                    )
            positions = [header.index(col) for col in columns]
            parsed = _parse_halves(path, header, positions)
            if parsed is None:
                table = _parse_table(fh, len(header))
        if parsed is None:
            if table is None:
                table = _parse_rows(path, len(header), positions, columns)
                positions = list(range(len(columns)))
            parsed = _split_table(table, positions)
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise ValidationError(f"{path} is not UTF-8: byte 0x{bad:02x} ({exc.reason})") from None
    y, raw = parsed
    for j, col in enumerate(descriptor.covariates):
        raw[:, j] = apply_scaling(raw[:, j], col.scaling, col.name)
    if family is not None:
        family.validate_response(y)
    return raw, y
