"""CSV dataset ingestion with per-column scaling.

Files must be UTF-8 (a leading byte-order mark is skipped; a byte that
does not decode is a validation error naming the file) with a header row
(RFC-4180-style quoting, ``.`` decimal) that names each requested column
once.  The body is parsed in ranges of about ``_RANGE_BYTES``, split at
newlines, each in one vectorised pass; a body of at least two whole
ranges is shared out among this process, which parses every W-th range,
and one forked worker per other usable CPU on Linux, and the arrays are
the same bits either way.  A body that the ranges do not parse is parsed
again row by row, the one source of error messages, so each message and
row number is the same whatever the body's size and the CPU count.  Two
scaling rules are supported besides none: standardize to mean zero and
population variance one, and map the observed range onto [0, 1].  Scaling
is applied once, globally, before any subsampling.
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

# Bytes per parsed range of a body.  A range's table and its region are held
# together, so a larger range raises the peak, and each range costs a fixed
# parse; on a 2-vCPU VM the load's peak (VmHWM) at 256 KiB, 1 MiB and 4 MiB
# ranges was 35.0, 37.0 and 45.5 MB for a 4.0 MB y,x1,x2,x3,x4 body parsed
# in one process, and 61.1, 61.6 and 64.2 MB for a 30 MB y,x1,x2,x3 body
# parsed by two workers.  Medians of 9 interleaved in-process loads took as
# long at 256 KiB as at 1 MiB, 6-13% longer at 4 MiB, and for the 30 MB body
# 7-11% longer at 64 KiB.  A body of two whole ranges or more is shared out:
# fresh-process loads, one share -> two, took 15.3 -> 17.0 ms at 1.1 MiB (two
# lower in 0 of 11), 20.4 -> 16.9 at 1.5 MiB (11) and 26.2 -> 19.1 at 2 MiB (11).
_RANGE_BYTES = 1 << 20


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


def _parse_cell(path: Path, text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(
            f"{path}: non-numeric value {text!r} at row {row}, column {column!r}"
        ) from None
    if not np.isfinite(value):
        raise ValidationError(
            f"{path}: non-finite value {text!r} at row {row}, column {column!r}"
        )
    return value


def _unreadable(path: Path, row: int, exc: csv.Error) -> ValidationError:
    return ValidationError(
        f"{path}: row {row} cannot be read as CSV ({exc}); is a quote left open?"
    )


def _parse_rows(
    path: Path, n_fields: int, positions: "list[int]", columns: "list[str]"
) -> tuple[np.ndarray, np.ndarray]:
    """Parse the file row by row with :func:`_parse_cell`; the only source
    of ingestion error messages.  Returns the response and the covariate
    columns, those at ``positions``."""
    rows, row_number = [], 1
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        try:
            for row_number, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != n_fields:
                    raise ValidationError(
                        f"{path}: row {row_number} has {len(row)} fields, header has {n_fields}"
                    )
                rows.append(
                    [_parse_cell(path, row[p], row_number, col) for p, col in zip(positions, columns)]
                )
        except csv.Error as exc:  # raised by the reader, for the row after the last it gave
            raise _unreadable(path, row_number + 1, exc) from None
    if not rows:
        raise ValidationError(f"{path} contains a header but no data rows")
    table = np.asarray(rows, dtype=float)
    return table[:, 0].copy(), table[:, 1:].copy()


def _parse_range(
    path: Path, start: int, stop: int, n_fields: int, positions: "list[int]", out: np.ndarray
) -> "int | None":
    """Parse bytes ``[start, stop)`` of the file in one vectorised pass,
    write the columns at ``positions`` into the first rows of ``out`` and
    return how many rows that is (0 for a range of blank lines).

    ``None`` unless the range is a table of exactly ``n_fields`` finite
    numbers per row, at most ``len(out)`` rows, holding an even number of
    quote characters (an odd number means that a range edge fell inside a
    quoted field); the caller then parses the file row by row for the
    precise error.  Every column is parsed, so a row with an extra field
    is refused here, and ``comments=None`` makes a ``#``-prefixed row a
    parse failure rather than a skipped line.
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(stop - start)
    if b'"' in data and data.count(b'"') % 2:  # memchr first: most bodies hold none
        return None
    try:
        # Not a StringIO, which would hold four bytes a character.
        with warnings.catch_warnings(), io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", newline=""
        ) as text:
            warnings.simplefilter("ignore", UserWarning)  # no rows
            table = np.loadtxt(text, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError:  # a UnicodeDecodeError too
        return None
    if table.shape[0] == 0:
        return 0
    if table.shape[1] != n_fields or table.shape[0] > len(out) or not np.isfinite(table).all():
        return None
    out[: table.shape[0]] = table[:, positions]
    return table.shape[0]


def _parse_ranges(
    path: Path, header: "list[str]", positions: "list[int]"
) -> "tuple[np.ndarray, np.ndarray] | None":
    """The response and the covariate columns, parsed by one
    :func:`_parse_range` task for each range of the body: ``_RANGE_BYTES``
    and the rest of the line they end in.  Each task writes into a shared
    region sized for the most rows its bytes can hold, at
    ``2 * len(header)`` bytes a row, and the regions are copied out in file
    order, each unmapped once copied.  The tasks go through
    :func:`glmsub._workers._fork_stream`: from two whole ranges of body,
    range k is parsed in share k mod W, share 0 in this process and each
    other share in one forked worker; a shorter body's ranges are all
    parsed by this process.  ``None`` when the first line is not the whole
    header, when a range does not parse, or when the body holds no row:
    the caller then parses the file row by row."""
    with open(path, "rb") as fh:
        first = fh.readline().decode("utf-8-sig", "replace")
        bounds, stop = [fh.tell()], os.fstat(fh.fileno()).st_size
        while bounds[-1] < stop:
            fh.seek(bounds[-1] + _RANGE_BYTES)
            fh.readline()
            bounds.append(min(fh.tell(), stop))
    if list(csv.reader(io.StringIO(first, newline=""))) != [header]:
        return None  # the header runs past the first line
    n_fields, ranges = len(header), list(zip(bounds, bounds[1:]))
    # Every range gets a shared region, the ranges this process parses too:
    # heap regions for those raised the load's peak (VmHWM) by 2-80 MB.
    outs = [_workers._shared_array((b - a) // (2 * n_fields) + 1, len(positions)) for a, b in ranges]
    tasks = [partial(_parse_range, path, *ab, n_fields, positions, out) for ab, out in zip(ranges, outs)]
    shares = _workers._worker_count(len(tasks)) if stop - bounds[0] >= 2 * _RANGE_BYTES else 1
    rows = list(_workers._fork_stream(tasks, shares))
    del tasks  # which hold every region
    if None in rows or sum(rows) == 0:
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
    validated against it (e.g. a 0/1 check for logistic data).  The body
    is parsed in ranges (:func:`_parse_ranges`); a body that they do not
    parse is parsed again row by row (:func:`_parse_rows`), the one source
    of error messages.
    """
    path = Path(descriptor.path)
    if not path.exists():
        raise ValidationError(f"dataset file not found: {path}")
    if path.is_dir():
        raise ValidationError(f"dataset {path} is a directory, not a CSV file")
    if not path.is_file():  # the ranged parse seeks, and a FIFO with no writer blocks open()
        raise ValidationError(
            f"dataset {path} is not a regular file; a pipe cannot be parsed in ranges, write it to a file"
        )
    columns = [descriptor.response, *descriptor.covariate_names]
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise ValidationError(f"{path} is empty (missing header)") from None
            except csv.Error as exc:
                raise _unreadable(path, 1, exc) from None
        for col in columns:
            if col not in header:
                raise ValidationError(f"column {col!r} not found in {path} header")
            if header.count(col) > 1:
                raise ValidationError(
                    f"column {col!r} appears more than once in {path} header"
                )
        positions = [header.index(col) for col in columns]
        parsed = _parse_ranges(path, header, positions)
        if parsed is None:
            parsed = _parse_rows(path, len(header), positions, columns)
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise ValidationError(f"{path} is not UTF-8: byte 0x{bad:02x} ({exc.reason})") from None
    y, raw = parsed
    for j, col in enumerate(descriptor.covariates):
        raw[:, j] = apply_scaling(raw[:, j], col.scaling, col.name)
    if family is not None:
        family.validate_response(y)
    return raw, y
