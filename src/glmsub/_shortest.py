"""The rows ``i,repr(p)`` of a block of probabilities, formatted without a
``repr`` call for each value.

:func:`rows` gives the ASCII bytes of ``f"{i},{p!r}\\r\\n"`` for every value
of a block.  For a value in [1e-10, 1e-4), where ``repr`` writes the
shortest round-trip digits in exponent notation, the digits are found with
exact integer arithmetic on the whole block at once, as in Steele & White
(1990) and Adams (2018, Ryu): scale the value's rounding interval by 10^q,
take the most trailing zeros an integer in it can have, and of those
integers the one nearest the value.  Every operand is ``uint64`` (a 128-bit
product is kept as two of them).  Any other value (fixed notation, 0, a
subnormal, 1.0) and the rare value that lies exactly halfway between two
shortest candidates go through ``repr`` and are spliced in at their row.
"""

from __future__ import annotations

import numpy as np

# 5^q < 2^63 for q <= 27, which bounds the domain below at 1e-10; 10^j is
# 5^j << j.
_POW5 = np.array([5**q for q in range(28)], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_TEN = np.uint64(10)


def _mul(a: np.ndarray, b: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The high and low words of a * b, for a < 2^55 and b < 2^63."""
    a0, a1 = a & _LOW32, a >> np.uint64(32)
    b0, b1 = b & _LOW32, b >> np.uint64(32)
    low = a0 * b0
    mid = a0 * b1 + a1 * b0  # < 2^63 + 2^55
    carry = (low >> np.uint64(32)) + (mid & _LOW32)
    high = a1 * b1 + (mid >> np.uint64(32)) + (carry >> np.uint64(32))
    return high, (low & _LOW32) | (carry << np.uint64(32))


def _shr(hi: np.ndarray, lo: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(hi * 2^64 + lo) >> s for 0 < s < 64, when the result is below 2^64."""
    return (hi << (np.uint64(64) - s)) | (lo >> s)


def _digits(n: np.ndarray, count: int) -> np.ndarray:
    """The last ``count`` decimal digits of each value of ``n`` in ASCII,
    with leading zeros, as the columns of a ``(count, len(n))`` array."""
    out = np.empty((count, n.shape[0]), dtype=np.uint8)
    for end in range(count, 0, -8):  # eight digits at a time, in uint32
        high = n // np.uint64(10**8)
        part = (n - high * np.uint64(10**8)).astype(np.uint32)
        for row in range(end - 1, max(end - 8, 0) - 1, -1):
            rest = part // np.uint32(10)
            out[row] = part - rest * np.uint32(10) + np.uint32(48)
            part = rest
        n = high
    return out


def rows(values: np.ndarray, start: int) -> bytes:
    """The ASCII bytes of ``f"{i},{p!r}\\r\\n"`` for each value ``p`` of the
    float64 array ``values``, with ``i`` counting from ``start``."""
    values = np.asarray(values, dtype=np.float64)
    b = values.shape[0]
    kernel = (values >= 1e-10) & (values < 1e-4)  # the rest take repr
    x = np.where(kernel, values, 1e-6)
    # floor(log10 x) is -10 at the least x, so q <= 27 even if log10 rounds
    # below -10 there; a q off by one elsewhere only changes over below.
    q = np.minimum(17 - np.floor(np.log10(x)), 27).astype(np.uint64)  # 21..27

    # x = m * 2^e, e = biased exponent - 1075.  The values that round to x
    # lie strictly between (m - 1/2) * 2^e (m - 1/4 at m = 2^52) and
    # (m + 1/2) * 2^e.  Scaled by 10^q = 5^q * 2^q, about 1e17, 4x and the
    # two ends are B, A and C over 2^s: 128-bit numerators, two words each.
    bits = x.view(np.uint64)
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    s = np.uint64(1077) - (bits >> np.uint64(52)) - q  # 2 - e - q, in [46, 61]
    five = _POW5[q]
    hi, lo = _mul(m, five)
    b_hi, b_lo = (hi << np.uint64(2)) | (lo >> np.uint64(62)), lo << np.uint64(2)
    below = np.where(m == np.uint64(1 << 52), five, five << np.uint64(1))
    a_lo = b_lo - below
    a_hi = b_hi - (a_lo > b_lo)
    c_lo = b_lo + (five << np.uint64(1))
    c_hi = b_hi + (c_lo < b_lo)
    # A and C hold at most one factor 2, so neither end is an integer, and
    # the integers that round to x are [dmin, dmax] whatever m's parity.
    dmin = _shr(a_hi, a_lo, s) + np.uint64(1)
    dmax = _shr(c_hi, c_lo, s)
    twice = _shr(b_hi, b_lo, s - np.uint64(1))  # floor(2 * x * 10^q)
    exact = (b_lo & ((np.uint64(1) << (s - np.uint64(1))) - np.uint64(1))) == 0

    # The shortest output is the largest j such that a multiple of 10^j lies
    # in [dmin, dmax]; if one of 10^(j+1) does, so does one of 10^j.
    j = np.zeros(b, dtype=np.uint64)
    step = np.uint64(1)
    while True:
        step *= _TEN
        fits = dmax // step * step >= dmin
        if not fits.any():
            break
        j += fits
    # Of its multiples in range, take the one nearest x * 10^q: lower is at
    # or below it and upper above, so compare twice with their sum.  An
    # exact tie between two in range is left to repr.
    step = _POW5[j] << j
    lower = (twice >> np.uint64(1)) // step * step
    upper = lower + step
    middle = lower + upper
    fits_low, fits_up = lower >= dmin, upper <= dmax
    best = np.where(twice < middle, np.where(fits_low, lower, upper), np.where(fits_up, upper, lower))
    kernel &= ~((twice == middle) & exact & fits_low & fits_up)

    # best has 17 + over digits, over = 0, 1 or 2.  The interval is wider
    # than 10^over, so the last over digits are zeros; keep the first 17.
    over = (best >= np.uint64(10**17)).astype(np.uint64) + (best >= np.uint64(10**18))
    digits = _digits(best // (_POW5[over] << over), 17)
    count = (np.uint64(17) + over - j).astype(np.intp)  # significant digits
    power = q + np.uint64(1) - np.uint64(17) - over  # the exponent is -power

    top = start + b - 1
    width = len(str(top))
    # Every row is laid out as "i,d.ddddddddddddddde-XX\r\n"; keep drops the
    # row number's leading zeros, the '.' of a one-digit mantissa, the
    # digits past its count, and every byte of a row that repr formats.
    template = np.frombuffer(b"0" * width + b",0.0000000000000000e-00\r\n", dtype=np.uint8)
    table = np.empty((b, template.size), dtype=np.uint8)
    table[:] = template
    table[:, :width] = _digits(np.arange(start, top + 1, dtype=np.uint64), width).T
    table[:, width + 1] = digits[0]
    table[:, width + 3 : width + 19] = digits[1:].T
    table[:, width + 21 : width + 23] = _digits(power, 2).T
    # Row c of shapes keeps the '.' and digits 1 to 16 of a c-digit mantissa.
    shapes = np.ones((18, template.size), dtype=bool)
    shapes[:, width + 2 : width + 19] = np.maximum(np.arange(17), 1) < np.arange(18)[:, None]
    keep = shapes.take(count, axis=0)
    for col in range(width - 1):
        keep[: max(10 ** (width - 1 - col) - start, 0), col] = False
    keep[~kernel] = False
    text = table[keep]

    odd = np.flatnonzero(~kernel)
    if odd.size == 0:
        return text.tobytes()
    # Row r's bytes go after the kept bytes of the rows up to r.
    cuts = np.cumsum(keep.sum(axis=1))[odd].tolist()
    view = memoryview(text)
    pieces, done = [], 0
    for r, cut, p in zip(odd.tolist(), cuts, values[odd].tolist()):
        pieces += [view[done:cut], f"{start + r},{p!r}\r\n".encode()]
        done = cut
    pieces.append(view[done:])
    return b"".join(pieces)
