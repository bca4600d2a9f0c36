"""The array renderer behind esdsim.cli.render_csv: a curve block as "%.17g" CSV text.

The esdsim.cli module docstring gives the exactness argument and the
values handed to "%.17g" itself. This module is apart from cli, and
imported by the first curve block, so that `import esdsim.cli`, which
compiles cli's source in a fresh process with no bytecode cache, does not
compile it too; its tables are built by that import as well.

Each value's field is laid out in 32 bytes, read as _FIELDS: bytes 0 the
sign, 1-5 the lead "0." to "0.000" of a fixed-notation |v| < 1, 6 the
first digit, 7 the point, 8-23 digits 2 to 17 in four groups of four,
24-28 the exponent, 31 the separator. The others stay NUL, and render
deletes every NUL, as it does a stripped trailing zero or an absent point.
"""

from __future__ import annotations

import sys

import numpy as np

from .scalar import CURVE_FIELDS

# the fast path takes |v| in this range, whose decimal exponents lie inside
# the tables' _EXP_MIN.._EXP_MAX with one to spare each side for an off-by-one log10
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_EXP_MIN, _EXP_MAX = -282, 281
_TIE_MARGIN = 1e-6
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves

_FIELDS = np.dtype([("head", np.uint64), ("digits", "V16"), ("tail", np.uint64)])


def _word(text: bytes) -> int:
    """The native uint64 whose bytes are text, then NULs."""
    return int.from_bytes(text.ljust(8, b"\0"), sys.byteorder)


def _exponent_tables():
    """Indexed by decimal exponent k, at k - _EXP_MIN: 10**(16 - k) as hi + lo, hi's Veltkamp halves,
    and the head (lead and point; with the point, then without) and tail (exponent) words of k's notation.
    """
    hi, lo, head, tail = [], [], [], []
    for k in range(_EXP_MIN, _EXP_MAX + 1):
        power = 10 ** abs(16 - k)
        if k <= 16:  # int -> float and int / int both round correctly
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:  # 1 / power - num / den, exactly, then rounded
            num, den = (1 / power).as_integer_ratio()
            hi.append(num / den)
            lo.append((den - num * power) / (den * power))
        if -4 <= k <= -1:
            head += [_word(b"\0" + b"0." + b"0" * (-k - 1))] * 2
        else:
            head += [_word(b"\0" * 7 + b"."), 0]
        tail.append(0 if -4 <= k <= 16 else _word(b"e%+03d" % k))
    hi = np.array(hi)
    split = hi * _VELTKAMP
    hi_top = split - (split - hi)
    return hi, np.array(lo), hi_top, hi - hi_top, np.array(head, np.uint64), np.array(tail, np.uint64)


_HI, _LO, _HI_TOP, _HI_LOW, _HEAD, _TAIL = _exponent_tables()
_SIGN_DIGIT = np.array([_word(sign + b"\0" * 5 + b"%d" % d) for sign in (b"\0", b"-") for d in range(10)], np.uint64)
_SEPARATORS = np.array([_word(b"\0" * 7 + sep) for sep in [b","] * (len(CURVE_FIELDS) - 1) + [b"\n"]], np.uint64)
_FAST_BITS = np.array([_FAST_MIN, _FAST_MAX]).view(np.uint64)


def _digit_groups():
    """Every 4-digit group as four ASCII bytes in a uint32, then again with its trailing zeros NUL (all four for 0)."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    ascii_digits = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1).reshape(-1, 4)
    trailing_zeros = np.logical_and.accumulate(ascii_digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    return np.concatenate([ascii_digits, np.where(trailing_zeros, 0, ascii_digits)]).view(np.uint32).ravel()


_GROUPS = _digit_groups()


def _format_each(values) -> list[str]:
    """`"%.17g" % v` for each value, for the ones render's fast path cannot prove exact."""
    return ["%.17g" % v for v in values]


def _significands(values):
    """Each |v| as N * 10**(e - 16), N its 17-digit significand to nearest (0 for 0), and the values not proved.

    The range checks read the bits, so that no NaN, signalling or not,
    enters float arithmetic; a value outside the fast range is scaled as 1.
    """
    magnitude = values.view(np.uint64) & np.uint64(2 ** 63 - 1)
    fast = (magnitude >= _FAST_BITS[0]) & (magnitude <= _FAST_BITS[1])
    nonzero = magnitude != 0
    a = np.where(fast, magnitude.view(float), 1.0)
    exponent = np.floor(np.log10(a)).astype(np.intp)
    row = exponent - _EXP_MIN
    p = a * _HI.take(row)  # Dekker's two-product: p + err = a * hi exactly
    split = a * _VELTKAMP
    a_top = split - (split - a)
    a_low = a - a_top
    top, low = _HI_TOP.take(row), _HI_LOW.take(row)
    s = (((a_top * top - p) + a_top * low + a_low * top) + a_low * low) + a * _LO.take(row)
    whole = np.floor(s)
    remainder = s - whole
    floor = p.astype(np.int64) + whole.astype(np.int64)
    significand = floor + (remainder > 0.5)
    slow = (nonzero & ~fast) | (np.abs(remainder - 0.5) < _TIE_MARGIN)
    slow |= (floor < 10 ** 16) | (significand >= 10 ** 17)
    return significand * nonzero, exponent, slow


def _layout(values, significand, exponent, slow) -> bytearray:
    """The values' fields, 32 bytes each; marks slow the integers it cannot lay out.

    The digits are the first, then 16 as four groups of four, a group's
    index in the NUL half of _GROUPS when every digit after it is 0, so
    that the last nonzero group loses its trailing zeros.
    """
    upper = significand // 10 ** 8
    first = upper // 10 ** 8
    middle = upper - first * 10 ** 8  # digits 2 to 9
    lower = significand - upper * 10 ** 8  # digits 10 to 17
    quads = np.empty((values.size, 4), np.intp)
    quads[:, 0] = middle // 10 ** 4
    quads[:, 1] = middle - quads[:, 0] * 10 ** 4
    quads[:, 2] = lower // 10 ** 4
    quads[:, 3] = lower - quads[:, 2] * 10 ** 4
    lower_zero = lower == 0
    quads[:, 0] += 10_000 * (lower_zero & (quads[:, 1] == 0))
    quads[:, 1] += 10_000 * lower_zero
    quads[:, 2] += 10_000 * (quads[:, 3] == 0)
    quads[:, 3] += 10_000

    buffer = bytearray(_FIELDS.itemsize * values.size)
    fields = np.frombuffer(buffer, _FIELDS)
    row = exponent - _EXP_MIN
    sign = (values.view(np.uint64) >> np.uint64(63)).astype(np.intp)
    no_point = lower_zero & (middle == 0)
    fields["head"] = _HEAD.take(2 * row + no_point) | _SIGN_DIGIT.take(10 * sign + first)
    fields["digits"] = _GROUPS.take(quads).view(_FIELDS["digits"])[:, 0]
    fields["tail"] = (_TAIL.take(row).reshape(-1, len(CURVE_FIELDS)) | _SEPARATORS).ravel()

    # fixed notation with 2 to 17 integer digits: the point moves from after the first digit to
    # after the last integer one, or goes when the fraction is all 0
    wide = np.flatnonzero((exponent >= 1) & (exponent <= 16) & ~slow)
    if wide.size:
        text = np.frombuffer(buffer, np.uint8).reshape(-1, _FIELDS.itemsize)
        point = exponent[wide]  # the point's column in bytes 7-23
        region = text[wide, 7:24]  # the point, then digits 2 to 17
        shifted = np.zeros_like(region)  # digits 2 to 17, then a NUL
        shifted[:, :-1] = region[:, 1:]
        rows = np.arange(wide.size)
        integral = shifted[rows, point] == 0  # the first fraction digit, NUL when the fraction is all 0
        moved = np.where(np.arange(region.shape[1]) < point[:, None], shifted, region)
        moved[rows, point] = np.where(integral, 0, ord("."))
        text[wide, 7:24] = moved
        slow[wide[integral & (shifted[rows, point - 1] == 0)]] = True  # a stripped 0 of the integer
    return buffer


def render(block) -> str:
    """One curve block's CSV rows, no header, each value as `"%.17g" % v`, from the block's flat float buffer."""
    values = np.asarray(block).view(float)
    # two stages, so that the first one's temporaries are freed before the second one allocates
    significand, exponent, slow = _significands(values)
    buffer = _layout(values, significand, exponent, slow)
    text = np.frombuffer(buffer, np.uint8).reshape(-1, _FIELDS.itemsize)
    slow_rows = np.flatnonzero(slow)
    for i, formatted in zip(slow_rows.tolist(), _format_each(values[slow_rows].tolist())):
        text[i, :-1] = 0
        text[i, :len(formatted)] = np.frombuffer(formatted.encode("ascii"), np.uint8)
    return buffer.translate(None, b"\0").decode("ascii")
