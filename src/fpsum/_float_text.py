"""Python's ``repr`` of float64 values, for whole arrays at once.

``float_rows(values, nan, pos_inf, neg_inf)`` gives one row of ASCII bytes per
value, padded with zero bytes: exactly ``repr(float(v))`` for a finite value,
and the given spelling for NaN and +-inf.  The report writers lay these rows
side by side with their separators and drop the zero bytes, which yields the
text that ``json.dumps`` and ``csv.writer`` would write, without a Python call
per value.

Most values take an exact, vectorized form of the shortest-digit search of
Ryu (Adams, PLDI 2018).  For 1e-4 <= |x| < 1e15, repr is positional and, when
x is not a power of two, the reals that round to x are those within h of it,
h half the gap 2^e between x and its neighbours.  With E = floor(log10|x|)
and k = 16 - E, y = |x| 10^k lies in [1e16, 1e17).  Since 10^k is exact for
k <= 22 (Clinger, PLDI 1990), Dekker's two-product gives y exactly as an
int64 P plus a fraction f, and h 10^k = 2^(e-1) 10^k is exact too.  The
shortest digits are then the multiple of 10^j nearest y, for the largest j
such that some integer in [y - h, y + h] is a multiple of 10^j.

A value goes to ``repr`` when these margins cannot decide it: an interval
end within 1e-9 of an integer (whether an end belongs to the interval depends
on the parity of the mantissa), a nearest multiple that is within 1e-9 of a
tie, or a rounding that carries into an 18th digit.  So does every value
outside the domain: NaN, +-inf, zeros, |x| < 1e-4, |x| >= 1e15 and powers of
two, whose interval is not symmetric.
"""

from __future__ import annotations

import functools

import numpy as np

# the longest repr of a float64, e.g. '-2.2250738585072014e-308'
_WIDTH = 24
_MARGIN = 1e-9
_MANTISSA = np.uint64((1 << 52) - 1)
# 10^k, exact for k <= 22, and its Veltkamp split into two 26-bit halves
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLITTER = 134217729.0  # 2^27 + 1
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_INT_POW10 = np.array([10**j for j in range(18)], dtype=np.int64)
# the first two bytes of a row: no sign or '-', then the zero of 0.ddd
_SIGN_PAIRS = np.frombuffer(b"\x000-0", np.uint16)
_ZERO_PAIR = np.frombuffer(b"00", np.uint16)[0]


@functools.cache
def _tables():
    """Byte tables of the layout.  ``quads[v]`` is the ASCII of 0000..9999, four
    bytes to a uint32.  A value with decimal exponent E (index E + 4) of
    which repr writes ``keep`` of the 17 digits (index keep - 1) lays out
    as: byte 0 the sign, bytes 1-4 the zeros of 0.000ddd, bytes 5-21 the
    digits; ``low`` keeps the written bytes up to the point, ``high`` those
    after it once shifted one byte on, and ``point`` holds the '.'."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    quads[..., 0] = digit[:, None, None, None]
    quads[..., 1] = digit[:, None, None]
    quads[..., 2] = digit[:, None]
    quads[..., 3] = digit
    quads = quads.view(np.uint32).ravel()
    e10 = np.arange(-4, 15)[:, None, None]
    keep = np.arange(1, 18)[None, :, None]
    byte = np.arange(_WIDTH)
    written = (byte == 0) | (byte >= 5 + np.minimum(e10, 0)) & (byte < 5 + keep)
    shifted = np.zeros_like(written)
    shifted[..., 1:] = written[..., :-1]
    ones = np.uint8(0xFF)
    low = (written & (byte <= 5 + e10)) * ones
    high = (shifted & (byte >= 7 + e10)) * ones
    point = np.broadcast_to((byte == 6 + e10) * np.uint8(ord(".")), low.shape)
    words = (t.reshape(-1, _WIDTH // 8, 8).copy().view(np.uint64) for t in (low, high, point))
    return quads, *words


def _shortest(a: np.ndarray):
    """For each 1e-4 <= a < 1e15 not a power of two: the shortest digits that
    round to a, as the 17-digit int64 M, the count of M's leading digits that
    repr writes (its significant digits, and at least through the first digit
    after the point), the decimal exponent E, and whether the margins certify
    the result."""
    e10 = np.floor(np.log10(a)).astype(np.int64)
    p = a * _POW10[16 - e10]
    e10 += (p >= 1e17).astype(np.int64) - (p < 1e16)
    k = 16 - e10
    # a 10^k = p + err exactly (Dekker's two-product)
    p = a * _POW10[k]
    t = a * _SPLITTER
    a_hi = t - (t - a)
    a_lo = a - a_hi
    c_hi, c_lo = _POW10_HI[k], _POW10_LO[k]
    err = ((a_hi * c_hi - p) + a_hi * c_lo + a_lo * c_hi) + a_lo * c_lo
    whole = np.floor(err)
    y_int = p.astype(np.int64) + whole.astype(np.int64)
    y_frac = err - whole
    half_gap = np.ldexp(_POW10[k], np.frexp(a)[1] - 54)

    lo, hi = y_frac - half_gap, y_frac + half_gap
    lo_up, hi_down = np.ceil(lo), np.floor(hi)
    ok = (lo_up - lo > _MARGIN) & (lo_up - lo < 1 - _MARGIN)
    ok &= (hi - hi_down > _MARGIN) & (hi - hi_down < 1 - _MARGIN)
    first = y_int + lo_up.astype(np.int64) - 1  # one below the interval
    last = y_int + hi_down.astype(np.int64)

    # the most trailing zeros that an integer of the interval has
    j = (last // 10 > first // 10).astype(np.int64)
    live = np.flatnonzero(j)
    for jj in range(2, 18):
        q = _INT_POW10[jj]
        live = live[last[live] // q > first[live] // q]
        if not live.size:
            break
        j[live] = jj

    # the multiple of 10^j nearest y: round up past the midpoint
    q = _INT_POW10[j]
    digits, rest = np.divmod(y_int, q)
    past_half = (2 * rest - q).astype(np.float64) + 2 * y_frac
    ok &= np.abs(past_half) > 2 * _MARGIN
    m = (digits + (past_half > 0)) * q
    ok &= m < 10**17
    return m, np.maximum(17 - j, e10 + 2), e10, ok


def float_rows(values, nan: str, pos_inf: str, neg_inf: str) -> np.ndarray:
    """(n, 24) uint8: row i is the ASCII of repr(float(values[i])), or the
    spelling of a non-finite value (at most 24 characters), left-aligned and
    padded with zero bytes."""
    x = np.asarray(values, dtype=np.float64).ravel()
    n = x.size
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e15) & (x.view(np.uint64) & _MANTISSA != 0)
    m, keep, e10, ok = _shortest(np.where(fast, ax, 1.5))
    ok &= fast

    # text: the sign, 4 lead zeros, then m's 17 digits, in byte pairs
    quads, low, high, point = _tables()
    text = np.empty((n, _WIDTH // 2), np.uint16)
    text[:, 0] = _SIGN_PAIRS.take(x < 0)
    text[:, 1] = _ZERO_PAIR
    lead = m // 10**16
    text[:, 2] = quads.take(lead).view(np.uint16)[1::2]  # "0d" of "000d"
    m -= lead * 10**16
    upper = m // 10**8
    m -= upper * 10**8
    groups = np.empty((n, 4), np.uint32)
    for col, value in ((0, upper), (2, m)):
        hi4 = value // 10**4
        groups[:, col] = quads.take(hi4)
        groups[:, col + 1] = quads.take(value - hi4 * 10**4)
    text[:, 3:11] = groups.view(np.uint16)
    text[:, 11] = 0
    text = text.view(np.uint8)

    # the point goes after byte 5 + E: the bytes past it move one on
    layout = (e10 + 4) * 17 + keep - 1
    after = np.empty_like(text)
    after[:, 0] = 0
    after[:, 1:] = text[:, :-1]
    rows = text & low.take(layout, axis=0).view(np.uint8).reshape(n, _WIDTH)
    rows |= after & high.take(layout, axis=0).view(np.uint8).reshape(n, _WIDTH)
    rows |= point.take(layout, axis=0).view(np.uint8).reshape(n, _WIDTH)

    slow = np.flatnonzero(~ok)
    if slow.size:
        inf = float("inf")
        texts = [
            nan if v != v else pos_inf if v == inf else neg_inf if v == -inf else repr(v)
            for v in x[slow].tolist()
        ]
        rows[slow] = np.array(texts, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return rows
