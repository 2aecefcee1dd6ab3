"""CSV dataset ingestion with per-column scaling.

Files must be UTF-8 (a leading byte-order mark is skipped; a byte that
does not decode is a validation error naming the file) with a header row
(RFC-4180-style quoting, ``.`` decimal).  Two scaling rules are supported
besides none: standardize to mean zero and population variance one, and
map the observed range onto [0, 1].  Scaling is applied once, globally,
before any subsampling.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .families import Family

__all__ = ["Scaling", "CovariateColumn", "DatasetDescriptor", "load_csv", "apply_scaling"]

# Rows per block when the covariates are moved to the front of the table.
_MOVE_ROWS = 65536


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


def load_csv(
    descriptor: DatasetDescriptor, family: Family | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Load, validate and scale a dataset.

    Returns the scaled raw covariate matrix (columns in descriptor order)
    and the response vector.  When a family is given the response is
    validated against it (e.g. a 0/1 check for logistic data).
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
            positions = [header.index(col) for col in columns]
            table = _parse_table(fh, len(header))
        if table is None:
            table = _parse_rows(path, len(header), positions, columns)
            positions = list(range(len(columns)))
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise ValidationError(f"{path} is not UTF-8: byte 0x{bad:02x} ({exc.reason})") from None
    y, raw = _split_table(table, positions)
    for j, col in enumerate(descriptor.covariates):
        raw[:, j] = apply_scaling(raw[:, j], col.scaling, col.name)
    if family is not None:
        family.validate_response(y)
    return raw, y
