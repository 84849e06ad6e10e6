"""Event rows as text, each value in its shortest round-trip form.

:func:`format_rows` writes an ``(n, 2)`` block of finite floats as the lines
``"%r,%r\\n"`` writes, byte for byte, without a Python float per value.
Each value's digits are Ryu's (Adams, "Ryu: fast float-to-string
conversion", PLDI 2018): the shortest digits that read back as the value,
the closest to it where several are that short and the even one on a tie,
which are the digits ``repr`` writes.  Ryu's arithmetic runs on uint64
lanes: the value's mantissa times a 128-bit table entry of ``2^k / 5^q`` or
``5^i`` as 32-bit limb products, and its loop that drops digits while the
bounds of the values that round to it still differ.  The digits are then
laid out as ``repr`` lays them out: positional unless the decimal point
falls 4 or more places left of the first digit or more than 16 right of
it, ``.0`` on integral values, an exponent of at least two digits, and the
sign of ``-0.0``.

The tables, 0.25 MiB, are built on the first call, in a few ms.  Every
operand of the integer arithmetic is ``np.uint64``: NumPy before 2.0 turns
``uint64`` combined with ``int64`` into ``float64``.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

__all__ = ["format_rows"]

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_ONE = _U(1)
_TEN = _U(10)

# Ryu's table sizes and entry widths for float64
_INV_ROWS, _POW_ROWS, _BITS = 342, 326, 125
# A value's layout is found by its decimal point's place (``decpt``: the
# value is 0.d1d2... times 10^decpt), offset by _DECPT to index a table.
_DECPT, _DECPT_MAX = 323, 309

# The slots of one value's text, in 4-byte words: the sign, the "0" before
# a point, a pad, 17 integer digits, the point, 3 zeros after it, 3 pads, 17
# fraction digits, "e" and the exponent's sign, its 3 digits, the
# separator and 2 pads.  Both digit runs hold the value's 17 digits, padded
# with zeros; a layout uses the first of them before the point and the
# rest after it.
_INT, _POINT, _ZEROS, _FRAC, _E, _EXP, _SEP, _WIDTH = (
    3, 20, 21, 27, 44, 46, 49, 52)
_USED = 0xFF  # a digit slot the layout uses; an unused slot is 0


def format_rows(block) -> bytes:
    """The text of the finite float64 ``(n, 2)`` array ``block``: one
    ``"x,y\\n"`` line per row, each value written as ``repr`` writes it."""
    t = _tables()
    bits = np.ascontiguousarray(block, dtype=np.float64).reshape(-1).view(_U)
    digits, exp10 = _shortest(t, bits)
    count = np.searchsorted(t.count, digits, side="right")
    decpt = count + exp10 + _DECPT
    negative = (bits >> _U(63)).astype(np.int16)
    layout = t.layout[decpt, count] + negative * t.forms
    first, quads = _digit_words(t, digits * t.pow10[17 - count])
    del digits, exp10, count, negative  # hold fewer lanes from here on
    # words[k] is word k of every value's slots: its layout's template, with
    # the digits and the exponent written into the slots the layout uses
    words = t.templates.take(layout, axis=1)
    for run in (_INT // 4, _FRAC // 4):
        words[run] &= first
        for k, quad in enumerate(quads, start=run + 1):
            words[k] &= quad
    words[_E // 4:] &= t.exponent.take(decpt, axis=1)
    text = words.view(np.uint8)
    sep = _SEP % 4  # the separator's byte in its word, for even values
    text[_SEP // 4, sep::8] = ord(",")
    text[_SEP // 4, sep + 4::8] = ord("\n")
    return words.T.tobytes().translate(None, b"\0")


def _digit_words(t, digits):
    """The text words of 17 zero-padded ``digits``: the word that carries
    the first digit, and one word for each of the four quads after it."""
    high = digits // _U(10 ** 8)
    low = digits - high * _U(10 ** 8)
    high4 = high // _U(10 ** 4)
    low4 = low // _U(10 ** 4)
    first = high4 // _U(10 ** 4)
    quads = (high4 - first * _U(10 ** 4), high - high4 * _U(10 ** 4), low4,
             low - low4 * _U(10 ** 4))
    return t.first[first], [t.quads[quad] for quad in quads]


def _shortest(t, bits):
    """Ryu's shortest digits and decimal exponent of each finite value of
    the float64 ``bits``, sign aside: the value is ``digits * 10^exp10``.

    Ryu's loop drops digits while ``vp // 10 > vm // 10``: the ``drop``
    digits a gap ``vp - vm >= 10^drop`` guarantees go at once, and the few
    more it drops one at a time.  Lanes where Ryu keeps trailing-zero
    flags, and lanes of exponents whose gap guarantees no digit, take
    :func:`_general`.
    """
    e, mv, mm = _fields(t, bits)
    vr, vp, vm = _bounds(t, e, mv, mm)
    drop = t.drop[e] + ((vp - vm) >= t.gap[e])
    p = t.pow10[drop]
    vp //= p
    vm //= p
    vp10 = vp // _TEN
    vm10 = vm // _TEN
    step = vp10 > vm10
    drop += step
    np.copyto(vp, vp10, where=step)
    np.copyto(vm, vm10, where=step)
    more = np.flatnonzero(step & (vp10 // _TEN > vm10 // _TEN))
    while more.size:
        vp[more] //= _TEN
        vm[more] //= _TEN
        drop[more] += 1
        more = more[vp[more] // _TEN > vm[more] // _TEN]
    vr //= t.pow10[drop - 1]
    digits = vr // _TEN
    # round up past the bound or on a dropped digit of 5 or more
    digits += (digits == vm) | (vr - digits * _TEN >= _U(5))
    exp10 = t.exp10[e] + drop
    general = np.flatnonzero(t.general[e] | ((mv & t.zeros[e]) == 0))
    if general.size:
        digits[general], exp10[general] = _general(
            t, e[general], mv[general], mm[general])
    return digits, exp10


def _fields(t, bits):
    """Each value's biased exponent (an index), Ryu's ``mv = 4 m2`` and its
    ``mmShift`` (0 only on a power of two above the smallest normal)."""
    e = (bits >> _U(52)).astype(np.intp) & 0x7FF
    mant = bits & _U((1 << 52) - 1)
    mv = (mant | t.implicit[e]) << _U(2)
    mm = ((mant != 0) | (e <= 1)).astype(_U)
    return e, mv, mm


def _product(m0, m1, x):
    """The low and high words of ``(m1 2^32 + m0) x``, with ``m0`` below
    2^32, ``m1`` below 2^23 and ``x`` a uint64; in place where it can be,
    to hold fewer lanes at once."""
    x0 = x & _M32
    x1 = x >> _U(32)
    low = m0 * x0
    mid = low >> _U(32)  # ends below 2^57
    low &= _M32
    x0 *= m1
    mid += x0
    np.multiply(m0, x1, out=x0)
    x1 *= m1
    x1 += x0 >> _U(32)
    x0 &= _M32
    mid += x0
    x1 += mid >> _U(32)
    mid <<= _U(32)
    low |= mid
    return low, x1


def _bounds(t, e, mv, mm):
    """Ryu's ``vr, vp, vm``: ``mv``, ``mv + 2`` and ``mv - 1 - mm`` times
    the exponent's 128-bit table entry, shifted right by its ``j``."""
    lo = t.mul_lo[e]
    hi = t.mul_hi[e]
    m0 = mv & _M32
    m1 = mv >> _U(32)
    # mv times the entry: w0 + w1 2^64 + w2 2^128
    w0, carry = _product(m0, m1, lo)
    w1, w2 = _product(m0, m1, hi)
    del m0, m1
    w1 += carry
    w2 += w1 < carry
    del carry
    s = t.shift[e]  # j - 64, in 1..63
    u = t.unshift[e]  # 64 - s
    vr = (w2 << u) | (w1 >> s)
    # plus twice the entry
    a0 = w0 + (lo << _ONE)
    a1 = w1 + ((hi << _ONE) | (lo >> _U(63))) + (a0 < w0)
    del a0
    vp = ((w2 + (a1 < w1)) << u) | (a1 >> s)
    del a1
    # less 1 + mm times the entry
    b0 = w0 - (lo << mm)
    b1 = w1 - ((hi << mm) | ((lo >> _U(63)) & mm)) - (b0 > w0)
    vm = ((w2 - (b1 > w1)) << u) | (b1 >> s)
    return vr, vp, vm


def _general(t, e, mv, mm):
    """Ryu's general case, a digit at a time with its trailing-zero flags:
    the digits and exponent of the values of exponents ``e``.  A zero (``mv
    == 0``) gives digits 0 and exponent 0."""
    vr, vp, vm = _bounds(t, e, mv, mm)
    q = t.q[e]
    accept = (mv & _U(4)) == 0  # an even mantissa takes its bounds
    big = e >= 1077  # Ryu's e2 >= 0
    vm_zeros = np.zeros(len(e), bool)
    vr_zeros = np.zeros(len(e), bool)
    small = np.flatnonzero(big & (q <= 21))
    if small.size:
        p5 = t.pow5[q[small]]
        m = mv[small]
        five = m % _U(5) == 0
        even = accept[small]
        vr_zeros[small] = five & (m % p5 == 0)
        vm_zeros[small] = ~five & even & ((m - _ONE - mm[small]) % p5 == 0)
        vp[small] -= ~five & ~even & ((m + _U(2)) % p5 == 0)
    tiny = ~big & (q <= 1)
    vr_zeros |= tiny | (~big & ((mv & t.zeros[e]) == 0))
    vm_zeros |= tiny & accept & (mm == _ONE)
    vp -= tiny & ~accept
    exp10 = t.exp10[e]
    last = np.zeros(len(e), _U)
    lanes = np.arange(len(e))
    while lanes.size:
        vp10 = vp[lanes] // _TEN
        vm10 = vm[lanes] // _TEN
        step = vp10 > vm10
        lanes = lanes[step]
        vm10 = vm10[step]
        vm_zeros[lanes] &= vm[lanes] == vm10 * _TEN
        vr_zeros[lanes] &= last[lanes] == 0
        vr10 = vr[lanes] // _TEN
        last[lanes] = vr[lanes] - vr10 * _TEN
        vr[lanes] = vr10
        vp[lanes] = vp10[step]
        vm[lanes] = vm10
        exp10[lanes] += 1
    lanes = np.flatnonzero(vm_zeros)
    while lanes.size:
        vm10 = vm[lanes] // _TEN
        step = vm[lanes] == vm10 * _TEN
        lanes = lanes[step]
        vr_zeros[lanes] &= last[lanes] == 0
        vr10 = vr[lanes] // _TEN
        last[lanes] = vr[lanes] - vr10 * _TEN
        vr[lanes] = vr10
        vp[lanes] //= _TEN
        vm[lanes] = vm10[step]
        exp10[lanes] += 1
    # round half to even where the dropped digits are exactly 5000...
    last[vr_zeros & (last == _U(5)) & ((vr & _ONE) == 0)] = 4
    digits = vr + (((vr == vm) & (~accept | ~vm_zeros)) | (last >= _U(5)))
    zero = mv == 0
    digits[zero] = 0
    exp10[zero] = 0
    return digits, exp10


@functools.cache
def _tables() -> SimpleNamespace:
    """Every table the kernel reads, built on the first call."""
    t = SimpleNamespace(pow5=_U(5) ** np.arange(23, dtype=_U),
                        pow10=_TEN ** np.arange(20, dtype=_U))
    # a value's digit count is where its digits sort in these (1 for 0)
    t.count = np.concatenate([[_U(0)], t.pow10[1:17]])
    _exponent_tables(t)
    # 4-digit text, and the words that carry the first digit and exponent
    k = np.arange(10 ** 4, dtype=np.int16)
    quads = np.empty((len(k), 4), np.uint8)
    for place in range(4):
        quads[:, place] = k // 10 ** (3 - place) % 10 + ord("0")
    t.quads = quads.view(np.uint32).ravel()
    t.first = np.frombuffer(
        b"".join(b"\xff\xff\xff" + bytes([48 + d]) for d in range(10)),
        np.uint32)
    t.exponent = np.frombuffer(b"".join(
        b"\xff\xff%03d\xff\xff\xff" % abs(d - 1)
        for d in range(-_DECPT, _DECPT_MAX + 1)), np.uint32
    ).reshape(-1, 2).T.copy()
    t.templates, t.layout = _layouts()
    t.forms = t.templates.shape[1] // 2
    for table in vars(t).values():  # every caller shares them
        if isinstance(table, np.ndarray):
            table.flags.writeable = False
    return t


def _exponent_tables(t):
    """Ryu's table entry, shift ``j - 64``, ``q`` and decimal exponent for
    each biased exponent, as its ``d2d`` computes them, and the digits the
    bounds' least gap surely drops."""
    # Ryu's 2^k / 5^q entries (rounded up), then the top bits of each 5^i,
    # each with 3 times itself shifted right by 64
    muls, pow5 = [], 1
    for q in range(_INV_ROWS):
        muls.append((1 << (pow5.bit_length() - 1 + _BITS)) // pow5 + 1)
        pow5 *= 5
    pow5 = 1
    for i in range(_POW_ROWS):
        shift = pow5.bit_length() - _BITS
        muls.append(pow5 >> shift if shift >= 0 else pow5 << -shift)
        pow5 *= 5
    mul_lo = np.array([m & 0xFFFFFFFFFFFFFFFF for m in muls], _U)
    mul_hi = np.array([m >> 64 for m in muls], _U)
    triple = np.array([3 * m >> 64 for m in muls], _U)
    del muls
    e2 = np.maximum(np.arange(2048, dtype=np.int32), 1) - 1077
    big = e2 >= 0
    ep, en = np.maximum(e2, 0), np.maximum(-e2, 0)
    qp = ((ep * 78913) >> 18) - (ep > 3)
    qn = ((en * 732923) >> 20) - (en > 1)
    t.q = np.where(big, qp, qn)
    t.exp10 = np.where(big, qp, qn + e2)
    row = np.where(big, qp, _INV_ROWS + en - qn)
    j = np.where(big, _pow5bits(qp) - 1 + _BITS - ep + qp,
                 qn - _pow5bits(en - qn) + _BITS)
    t.mul_lo, t.mul_hi = mul_lo[row], mul_hi[row]
    t.shift = (j - 64).astype(_U)
    t.unshift = _U(64) - t.shift
    t.implicit = np.where(np.arange(2048) > 0, _U(1 << 52), _U(0))
    # vr has a trailing zero bit per place Ryu's vrIsTrailingZeros counts
    counted = ~big & (t.q > 1) & (t.q < 63)
    t.zeros = np.where(counted, (_ONE << t.q.astype(_U)) - _ONE, ~_U(0))
    # vp - vm > least >= 10^drop: Ryu's loop drops at least drop digits
    least = (triple[row] >> t.shift) - _ONE
    t.general = (big & (t.q <= 21)) | (~big & (t.q <= 1)) | (least < _TEN)
    places = np.searchsorted(t.pow10, least, side="right") - 1
    t.drop = np.where(t.general, 1, places).astype(np.int8)
    t.gap = t.pow10[t.drop + 1]


def _pow5bits(e):
    """Ryu's ``pow5bits``: the bit length of ``5^e`` (1 at ``e = 0``)."""
    return ((e * 1217359) >> 19) + 1


def _layouts():
    """The template of each layout, unsigned and then signed, and the
    layout of each ``(decpt + _DECPT, count)``.

    A template holds each character its layout always writes, ``_USED`` in
    each digit slot it writes and 0 in each slot it leaves out.  Positional
    layouts come first, one for each ``decpt`` in -3..16 and digit count
    1..17; then the exponent layouts, one for each count, exponent sign and
    exponent width.
    """
    cols = np.arange(_WIDTH)

    def fill(rows, lo, hi, value):
        rows[(cols >= lo[:, None]) & (cols < hi[:, None])] = value

    dp, nd = (a.ravel() for a in np.mgrid[-3:17, 1:18])
    pos = np.zeros((len(dp), _WIDTH), np.uint8)
    whole = np.clip(dp, 0, 17)  # digits before the point
    pos[dp <= 0, 1] = ord("0")
    fill(pos, np.full_like(dp, _ZEROS), _ZEROS + np.maximum(-dp, 0), ord("0"))
    fill(pos, np.full_like(dp, _INT), _INT + whole, _USED)
    pos[:, _POINT] = ord(".")
    fill(pos, _FRAC + whole, _FRAC + np.maximum(nd, whole + 1), _USED)
    en, neg, wide = (a.ravel() for a in np.mgrid[1:18, 0:2, 0:2])
    exp = np.zeros((len(en), _WIDTH), np.uint8)
    exp[:, _INT] = _USED
    exp[en > 1, _POINT] = ord(".")
    fill(exp, np.full_like(en, _FRAC + 1), _FRAC + en, _USED)
    exp[:, _E] = ord("e")
    exp[:, _E + 1] = np.where(neg, ord("-"), ord("+"))
    fill(exp, _EXP + 1 - wide, np.full_like(en, _EXP + 3), _USED)
    rows = np.concatenate([pos, exp])
    rows[:, _SEP] = _USED
    signed = rows.copy()
    signed[:, 0] = ord("-")
    templates = np.concatenate([rows, signed]).view(np.uint32).T.copy()
    decpt = np.arange(-_DECPT, _DECPT_MAX + 1, dtype=np.int16)[:, None]
    count = np.arange(18, dtype=np.int16)
    ex = decpt - 1
    layout = np.where(
        (decpt > -4) & (decpt <= 16),
        (decpt + 3) * 17 + count - 1,
        len(dp) + (count - 1) * 4 + (ex < 0) * 2 + (abs(ex) >= 100))
    return templates, layout.astype(np.int16)
