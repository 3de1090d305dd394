"""CSV rows whose every value reads exactly as ``"%.12g" % v``.

Each value v is written as +-D * 10**(X - 11), with D the 12-digit
mantissa, and laid out as five little-endian 8-byte words, NUL wherever
nothing prints:

    word 0     the sign and, for X in -4..-1, the lead "0.", "0.0", ...
    words 1-3  the 12 digits of D, four per word, each followed by a NUL
               gap; a mask clears the trailing zeros and puts the "."
               into the gap after the last integer digit
    word 4     the exponent suffix "e+XX" (scientific form), then the
               separator byte

All of it comes from table lookups on whole arrays; deleting the NULs
yields the text.  A value goes through ``"%.12g" %`` itself when its
scaled mantissa lies within _TIE_BAND of a rounding tie, or when its
exponent X is outside -290..290 (zero and subnormals included).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import reduce

import numpy as np

# values per formatted block: its temporary arrays (~150 bytes a value) set
# the writer's share of a run's peak memory; fewer, larger blocks run faster
_BLOCK_VALUES = 4096
# |v| * 10**(11 - X) carries two roundings, the power of ten's and the
# product's: at most 2.3e-4 below 1e12 + 1, so rint can round the wrong way
# only that close to a half-integer.  Values within this band, about twice
# that, go through the fallback
_TIE_BAND = 5e-4
_X0 = 295  # table row of exponent X is X + _X0; |v| is clipped to 10**+-_X0
_TINY, _HUGE = 10.0**-_X0, 10.0**_X0
_U8 = np.dtype("<u8")


def _packed(strings: list[bytes]) -> np.ndarray:
    """One little-endian word per string of at most 8 bytes, NUL padded."""
    return np.frombuffer(b"".join(s.ljust(8, b"\0") for s in strings), _U8)


def _tables():
    x = np.arange(-_X0, _X0 + 1)
    # correctly rounded 10**(11 - X); 0 past |X| = 290 sends v to the fallback
    scale = np.array([float(f"1e{11 - k}") for k in x.tolist()])
    scale[np.abs(x) > 290] = 0.0
    # per X: the lead after the sign byte, the suffix and the mask row
    lead = _packed([b"\0" + b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b"" for k in x.tolist()])
    suffix = _packed([b"" if -4 <= k <= 11 else b"e%+03d" % k for k in x.tolist()])
    mask_row = np.where((x >= -4) & (x <= 11), x + 4, 16) * 13

    # the four-digit groups 0000..9999 as outer products over their digits:
    # digit j at byte 2j, and the place of the last nonzero digit (0 if none)
    ten = np.arange(10)
    groups = reduce(np.bitwise_or, np.ix_(*[(ten + ord("0")).astype(_U8) << np.uint64(16 * j)
                                             for j in range(4)])).ravel()
    last = reduce(np.maximum, np.ix_(*[np.where(ten > 0, j + 1, 0).astype(np.uint8)
                                       for j in range(4)])).ravel()
    # significant digits of D up to group k's last nonzero digit (0 if none)
    sig = np.where(last > 0, last + np.array([[0], [4], [8]], np.uint8), np.uint8(0))

    # masks keyed by (class, significant digits 0..12); classes 0..15 are
    # fixed notation with X = class - 4, class 16 is scientific
    cls = np.arange(17)
    int_digits = np.where(cls < 16, np.maximum(cls - 3, 1), 1)  # digits before "."
    # "." goes after the integer digits when more digits follow, except for
    # X < 0, whose "0." is in the lead
    dotted = (cls >= 4)[:, None] & (np.arange(13) > int_digits[:, None])
    keep = np.maximum(np.arange(13), int_digits[:, None])
    and_bytes = np.zeros((17, 13, 24), np.uint8)
    and_bytes[..., ::2] = np.where(np.arange(12) < keep[..., None], 0xFF, 0)
    or_bytes = np.zeros((17, 13, 24), np.uint8)
    c, n = np.nonzero(dotted)
    or_bytes[c, n, 2 * int_digits[c] - 1] = ord(".")
    return (scale, lead, suffix, mask_row, groups, *sig,
            *and_bytes.view(_U8).reshape(-1, 3).T.copy(),
            *or_bytes.view(_U8).reshape(-1, 3).T.copy())


(_SCALE, _LEAD, _SUFFIX, _MASK_ROW, _GROUPS, _SIG0, _SIG1, _SIG2,
 _AND1, _AND2, _AND3, _OR1, _OR2, _OR3) = _tables()
_MINUS = np.uint64(ord("-"))


def _mantissas(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Table rows of the exponents X, the 12-digit mantissas D and the
    fallback flags of ``v``."""
    a = np.clip(np.abs(v), _TINY, _HUGE)
    # log10 + _X0 >= 0, so truncation is floor; its rounding can put X one
    # too high or low only next to a power of ten, where rint and the
    # roll-over below still give the right digits
    xi = (np.log10(a) + _X0).astype(np.intp)
    a *= _SCALE[xi]
    d = np.rint(a)
    # near-ties, and mantissas far outside [1e11, 1e12]: scale 0 (X past
    # +-290), or an X further off than log10's rounding allows
    fallback = (np.abs(a - d) > 0.5 - _TIE_BAND) | (a < 99999999999.96) | (a >= 1000000000001.0)
    # a mantissa that rounds up to 10**12 is 10**11 at the next exponent
    roll = d >= 1e12
    xi += roll
    d[roll] = 1e11
    return xi, d.astype(np.intp), fallback


def _block(values: np.ndarray, seps: np.ndarray) -> bytes:
    """Text of the row-major ``values``; ``seps`` holds each column's separator word."""
    v = values.ravel()
    xi, g3, fallback = _mantissas(v)
    g1 = g3 // 100000000
    g3 -= g1 * 100000000
    g2 = g3 // 10000
    g3 -= g2 * 10000
    mask = _MASK_ROW[xi] + np.maximum(np.maximum(_SIG0[g1], _SIG1[g2]), _SIG2[g3])

    words = np.empty((v.size, 5), _U8)
    words[:, 0] = _LEAD[xi] | np.signbit(v) * _MINUS
    words[:, 1] = _GROUPS[g1] & _AND1[mask] | _OR1[mask]
    words[:, 2] = _GROUPS[g2] & _AND2[mask] | _OR2[mask]
    words[:, 3] = _GROUPS[g3] & _AND3[mask] | _OR3[mask]
    words[:, 4] = (_SUFFIX[xi].reshape(values.shape) | seps).ravel()
    idx = np.flatnonzero(fallback)
    if idx.size:
        text = b"".join(("%.12g" % f).encode().ljust(32, b"\0") for f in v[idx].tolist())
        words[idx, :4] = np.frombuffer(text, _U8).reshape(-1, 4)
        words[idx, 4] = seps[idx % seps.size]
    # bytes.translate runs faster than bytearray.translate, copy included
    return words.tobytes().translate(None, b"\0")


def csv_rows(cols: list[np.ndarray]) -> Iterator[bytes]:
    """Lines of the equal-length float columns ``cols`` as ASCII bytes, one
    block of _BLOCK_VALUES values or fewer at a time: one line per row,
    values joined by commas, each exactly ``"%.12g" % v``.  All values are
    finite."""
    seps = np.full(len(cols), ord(",") << 56, _U8)
    seps[-1] = ord("\n") << 56
    step = max(1, _BLOCK_VALUES // len(cols))
    for i in range(0, len(cols[0]), step):
        yield _block(np.stack([c[i:i + step] for c in cols], axis=1), seps)
