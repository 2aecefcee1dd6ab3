"""The probability-row kernel against Python's own float repr.

The reference is the f-string the writer used before the kernel, written
out here so that no code under test builds it.
"""

import numpy as np

import glmsub._workers
import glmsub.cli
from glmsub._shortest import rows

LOW, HIGH = 1e-10, 1e-4  # the kernel's domain; other values take repr


def reference(values, start=0):
    return "".join(f"{i},{p!r}\r\n" for i, p in enumerate(values.tolist(), start)).encode()


def blocks(values):
    """The rows of ``values`` formatted in writer-sized blocks."""
    step = glmsub.cli.WRITE_ROWS
    return b"".join(rows(values[k : k + step], k) for k in range(0, values.shape[0], step))


def around(points, ulps):
    """``points`` and their neighbours up to ``ulps`` steps on each side."""
    out = [np.asarray(points, dtype=np.float64)]
    down = up = out[0]
    for _ in range(ulps):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, 1.0)
        out += [down, up]
    return np.concatenate(out)


def test_random_bit_patterns_across_the_domain():
    # Uniform over bit patterns, so every binary exponent of the domain is
    # sampled alike, and rows 0 to 10^6 - 1 cross every row-number width.
    lo, hi = np.array([LOW, HIGH]).view(np.uint64)
    bits = np.random.default_rng(2101).integers(lo, hi, size=1_000_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert blocks(values) == reference(values)


def test_powers_of_two_and_their_neighbours():
    # The rounding interval of 2^k is narrower below than above.
    values = around(2.0 ** np.arange(-36, -11), 3)
    assert rows(values, 0) == reference(values)


def test_powers_of_ten_and_their_neighbours():
    values = around(10.0 ** -np.arange(3, 12), 3)
    assert rows(values, 0) == reference(values)


def test_short_values():
    values = np.array([1e-05, 2.5e-06, 1.25e-09])
    assert rows(values, 7) == b"7,1e-05\r\n8,2.5e-06\r\n9,1.25e-09\r\n"
    # k * 10^-e for every k < 1000 and 3 <= e <= 11, with their neighbours:
    # one to three significant digits, inside the domain and above it.
    mantissas = np.arange(1, 1000, dtype=np.float64)
    values = np.array([float(f"{k:g}e-{e}") for e in range(3, 12) for k in mantissas])
    values = around(values, 1)
    assert rows(values, 0) == reference(values)


def test_short_binary_fractions():
    # Odd k times 2^e is a decimal of a few digits, and the shortest
    # output can lie exactly halfway between two candidates, as it does
    # for 2^-25: repr then picks the even one.
    assert rows(np.array([2.0**-25]), 0) == b"0,2.9802322387695312e-08\r\n"
    k, e = np.meshgrid(np.arange(1, 4000, 2), np.arange(-50, -10))
    values = (k * 2.0**e).ravel()
    assert blocks(values) == reference(values)


def test_values_at_the_domain_bounds():
    values = around([LOW, HIGH], 4)
    assert rows(values, 99_995) == reference(values, 99_995)


def test_out_of_domain_values():
    values = np.array([1.0, 0.5, 1e-4, 1e-12, 5e-324, 0.0, 1 / 3])
    assert rows(values, 0) == reference(values)
    assert rows(values[:0], 5) == b""


def test_log10_one_ulp_off(monkeypatch):
    # The digits must not rest on log10 being correctly rounded: one ulp
    # off at a power of ten moves floor(log10 x) by one, and below -10 at
    # the domain's least value.
    values = around(10.0 ** -np.arange(4, 11), 2)
    log10 = np.log10
    for direction in (-np.inf, np.inf):
        monkeypatch.setattr(np, "log10", lambda x: np.nextafter(log10(x), direction))
        assert rows(values, 0) == reference(values)


def mixed(n):
    """In-domain values with out-of-domain ones at the first and last rows,
    around every block edge, where the rows pass from one share of a split
    write to the next, and around row n // 2."""
    values = np.random.default_rng(n).uniform(1e-7, 1e-5, size=n)
    odd = [1.0, 0.5, 1e-4, 1e-12, 5e-324]
    edges = list(range(0, n, glmsub.cli.WRITE_ROWS)) + [n // 2, n]
    for edge in edges:
        for offset, value in zip((-3, -1, 0, 2, 4), odd):
            if 0 <= edge + offset < n:
                values[edge + offset] = value
    return values


def test_mixed_blocks():
    values = mixed(3 * glmsub.cli.WRITE_ROWS + 5)
    assert blocks(values) == reference(values)


def test_mixed_values_in_a_split_file(tmp_path, two_cpus, forks):
    values = mixed(glmsub._workers._SPLIT_ROWS + 1)
    out = tmp_path / "p.csv"
    glmsub.cli._write_probabilities(out, values)
    assert out.read_bytes() == b"row,probability\r\n" + reference(values)
    assert len(forks) == 1  # one worker formats every other block
    assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]
