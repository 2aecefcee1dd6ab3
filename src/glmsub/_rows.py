"""Rows of the probability file, shared by the CLI and its helper process.

The CLI formats the first rows of a large probability file itself and
runs this file as a script for the rest::

    python -I -S _rows.py START COUNT PART

The script reads COUNT native float64 values from stdin and writes their
rows, numbered from START, to the file PART.  It imports only the standard
library, so that it can run without the site module: ``-I -S`` starts in
16-18 ms on a 2-vCPU VM, against 50-60 ms with it.
"""

import sys

# Probability rows formatted per write, so the text of all N rows never
# exists at once.  Writing 1e6 rows grows the resident set by about 1.5 MB
# at 8,192 rows and 10.4 MB at 65,536, in the same time.
WRITE_ROWS = 8192


def rows_text(start, values) -> str:
    """The bytes csv.writer gives for the rows ``[i, repr(p)]`` of the
    floats ``values``, numbered from ``start`` (no field needs quoting)."""
    return "".join(f"{i},{p!r}\r\n" for i, p in enumerate(values, start))


def _main(argv) -> None:
    from array import array

    start, count, part = int(argv[1]), int(argv[2]), argv[3]
    values = array("d", bytes(8)) * count  # filled in place: no second copy
    if sys.stdin.buffer.readinto(values) != 8 * count or sys.stdin.buffer.read(1):
        raise SystemExit(f"expected exactly {count} float64 values on stdin")
    with open(part, "w", encoding="utf-8", newline="") as fh:
        for k in range(0, count, WRITE_ROWS):
            fh.write(rows_text(start + k, values[k : k + WRITE_ROWS]))


if __name__ == "__main__":
    _main(sys.argv)
