"""Write column data as CSV rows, formatting a block of rows in numpy at once.

A float cell gets the bytes of ``'%.9g' % v`` and an integer or boolean cell
those of ``'%d' % i``, by construction:

- Digits.  For finite nonzero v, e = floor(log10|v|) is only estimated
  (``log10`` rounds differently on different SIMD loops), and s = |v|·10^(8−e)
  is kept only if it lies in [1e8, 1e9), which holds exactly when e was
  right.  Fixed notation needs only e ∈ [−4, 8], so 10^(8−e) ∈ {1, …, 1e12}
  is exact and s is one correctly rounded multiply: it is off by at most
  2⁻⁵³·s < 1.2e-7 from the exact product.  Hence ``rint(s)`` is the correctly
  rounded 9-digit mantissa m whenever |frac(s) − ½| ≥ 1e-6.  The integer
  part ⌊m/10^(8−e)⌋ and the fraction digits are then exact float
  arithmetic on integers below 1e12.
- Fallback.  ``cell`` formats the cells that argument does not cover:
  near-ties, exponent notation (e < −4 or e ≥ 9, and values that round
  across 1e-4 or up to a power of ten), a wrong estimate of e, nan and
  ±inf.  Zero and −0.0 are written ``0`` and ``-0`` directly.
- Layout.  Each character slot of a block is one row of a ``(slots, rows)``
  uint8 array, so every store is contiguous.  Text (a str, or the cells of
  a column or of a gathered column's values) becomes NUL-padded slot rows
  once.  A float field is ``[sign][integer digits][.][fraction digits]``
  and an integer field ``[sign][digits]``, as wide as the column's widest
  value in the block.  The floats' integer parts, the integers and the
  floats' fractions are three families of 3-digit groups, as many as the
  family's widest column needs, and one lookup in small tables indexed by
  uint divmod writes group u of a family.  Plus signs, leading integer
  zeros, trailing fraction zeros, a bare dot and a narrower column's extra
  groups are NUL.  One gather puts the slots in row order, and deleting the
  NULs from the block's bytes leaves the CSV text, so no cell has a NUL.
- Cells.  Numbers that vary row by row, a ``range`` or a numpy float,
  integer or boolean array, are formatted in numpy.  Every other cell is
  written once, in Python, by ``cell``: a fallback float, the values of any
  other column, and those of ``Gathered(values, index)``, whose row r is
  the cell of ``values[index[r]]``.  Each block copies a gathered column's
  slots with ``index[lo:hi]``, so a column that repeats a few values, such
  as a sweep axis or a trace flag, costs one byte copy per row and character.
"""

from __future__ import annotations

import functools
from typing import IO, Sequence

import numpy as np

# Rows formatted per pass.  3000 rows were as fast as 8000 and 5% faster than
# 2000, and their temporaries stay under 1 MB: 8000-row blocks raised the
# peak RSS of a traced simulate by 2.8 MB.  A power of two is about 5%
# slower: the transposing copy then reads rows that share cache sets.
BLOCK_ROWS = 3000

_POW10 = np.array([10.0 ** k for k in range(13)])  # 1e0 ... 1e12, each exact
# 10^(8-e) by i = trunc(log10(c) + 5) = e + 5 for c in [1e-5, 1e10]: an e in
# [-4, 8] scales c into [1e8, 1e9), any other e scales it outside.
_SCALE = np.array([10.0 ** min(max(13 - i, 0), 12) for i in range(16)])
_SEP = b",\n\0"  # the slot rows after a block's numbers


@functools.cache
def _digit_tables():
    """The three ASCII digits of 0..999, in columns g, 1000 + g and 2000 + g.

    Integer groups: all digits; leading zeros as NUL; leading zeros as NUL
    but the units digit kept.  Fraction groups: all digits; trailing zeros
    as NUL.  Built on first use, so that a table of str cells needs none.
    """
    g = np.arange(1000)
    full = (np.stack([g // 100, g // 10 % 10, g % 10]) + 48).astype(np.uint8)
    lead = full * (g >= np.array([[100], [10], [1]]))
    units = lead.copy()
    units[2] = full[2]
    trail = full * (g % np.array([[1000], [100], [10]]) != 0)
    return np.concatenate([full, lead, units], axis=1), np.concatenate([full, trail], axis=1)


class Gathered:
    """A column whose row r is the cell of ``values[index[r]]``.

    ``values`` is a sequence that ``cell`` writes, such as an array or a
    list of str, and ``index`` an integer array.  It is neither a tuple nor
    iterable, so it cannot pass for a column of cells.
    """

    __slots__ = ("values", "index")

    def __init__(self, values, index):
        self.values, self.index = values, index

    def __len__(self):
        return len(self.index)


def cell(v) -> str:
    """The text of one cell: None as ``NA``, a boolean or an integer as
    ``%d``, a str as it is, and anything else, a 0-d array too, as
    ``'%.9g'`` of its float."""
    if isinstance(v, float):  # the commonest cell first
        return "%.9g" % v
    if v is None:
        return "NA"
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return "%d" % v
    return v if isinstance(v, str) else "%.9g" % float(v)


def write_rows(f: IO[str], columns: Sequence):
    """Write one CSV line per row of ``columns``.

    A column is a float array (cells as ``%.9g``), an integer or boolean
    array or a ``range`` (cells as ``%d``), a ``Gathered`` column, one
    ``str``: the same cell in every row, or any other sequence, whose
    values are written by ``cell``.  The columns that are not one str have
    equal length.  Text becomes slot rows once, and each block copies its
    rows' cells from those bytes.
    """
    n = next(len(c) for c in columns if not isinstance(c, str))
    columns = [_column(c, n) for c in columns]
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        table = _table([_block(c, lo, hi) for c in columns], hi - lo)
        f.write(table.tobytes().translate(None, b"\0").decode())


def _column(c, n: int):
    """Column c of n rows, with its text as ``(width, n)`` slot rows."""
    if isinstance(c, str):
        text = _slot_rows([c])
        return np.broadcast_to(text, (len(text), n))
    if isinstance(c, Gathered):
        return Gathered(_slot_rows(c.values), c.index)
    if isinstance(c, range) or isinstance(c, np.ndarray) and c.dtype.kind in "fiub":
        return c
    return _slot_rows(c)


def _block(c, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of column c: a numeric array or slot rows."""
    if isinstance(c, Gathered):
        return c.values.take(c.index[lo:hi], axis=1)
    if isinstance(c, range):
        c = c[lo:hi]
        return np.arange(c.start, c.stop, c.step, dtype=np.int64)
    return c[..., lo:hi]


def _slot_rows(values) -> np.ndarray:
    """The ``cell`` of each value as NUL-padded ``(width, len(values))``
    uint8 slot rows."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return _ascii([cell(v) for v in values]).T


def _table(columns: list, n: int) -> np.ndarray:
    """The ``(n, line length)`` uint8 bytes of ``n`` rows of ``columns``, NULs
    included: every slot row, gathered in the order of a CSV line.  A column
    is a numeric array or text as ``(width, n)`` slot rows."""
    numeric = [c for c in columns if c.ndim == 1]
    numbers = _Numbers(numeric, n) if numeric else None
    texts = [c for c in columns if c.ndim == 2]

    # The numbers' slot rows, the separators, then each text column's.
    sep = numbers.rows if numbers else 0
    starts = [sep + len(_SEP)]
    for t in texts:
        starts.append(starts[-1] + len(t))
    slots = np.empty((starts[-1], n), np.uint8)
    if numbers:
        numbers.write(slots)
    slots[sep:starts[0]] = np.frombuffer(_SEP, np.uint8)[:, None]
    for t, start in zip(texts, starts):
        slots[start:start + len(t)] = t

    # A fallback cell's field gets NUL slots where the text is wider.
    order, spans, fields, starts = [], [], numbers and numbers.fields(), iter(starts)
    for c in columns:
        if order:
            order.append(sep)
        if c.ndim == 2:
            start = next(starts)
            order.extend(range(start, start + len(c)))
            continue
        rows, fallback = next(fields)
        start = len(order)
        order.extend(rows)
        if fallback:
            cells, text = fallback
            order.extend([sep + 2] * (text.shape[1] - len(rows)))
            spans.append((cells, start, len(order), text))
    order.append(sep + 1)
    table = slots[order].T
    for cells, start, end, text in spans:
        table[cells, start:end] = 0
        table[cells, start:start + text.shape[1]] = text
    return table


class _Numbers:
    """The slot rows of a block's numeric columns: signs, floats first; the
    families of the floats' integer parts and of the integers; dots; the
    family of the fractions.  Group u of a family is one (3, columns, n)
    block of rows; a narrower column's field leaves out its extra groups.
    """

    def __init__(self, columns: list, n: int):
        self.is_float = [c.dtype.kind == "f" for c in columns]
        floats = [c for c, f in zip(columns, self.is_float) if f]
        mags = [_magnitude(c) for c, f in zip(columns, self.is_float) if not f]
        whole, self.frac, self.frac_width, neg, fallback = \
            _split_floats(np.array(floats, dtype=np.float64).reshape(-1, n))
        self.fallback = _fallback_cells(floats, fallback)
        whole = whole.astype(np.uint32)
        wide = any(m.max() >= 2 ** 32 for m, _ in mags)
        ints = np.array([m for m, _ in mags], np.uint64 if wide else np.uint32).reshape(-1, n)
        self.neg = np.concatenate([neg, np.array([s for _, s in mags], bool).reshape(-1, n)])
        self.signed = self.neg.any(axis=1).tolist()
        self.whole_width, self.int_width = (
            [len(str(d)) for d in x.max(axis=1).tolist()] for x in (whole, ints))
        k_f, k = len(floats), len(columns)

        # Each family's digits, first slot row and number of groups.
        groups = [-(-max(w, default=0) // 3)
                  for w in (self.whole_width, self.int_width, self.frac_width)]
        self.o_dot = k + 3 * groups[0] * k_f + 3 * groups[1] * (k - k_f)
        self.families = ((whole, k, groups[0]),
                         (ints, k + 3 * groups[0] * k_f, groups[1]),
                         (self.frac, self.o_dot + k_f, groups[2]))
        self.rows = self.o_dot + k_f + 3 * groups[2] * k_f

    def write(self, slots: np.ndarray):
        """Fill the first ``rows`` slot rows."""
        np.multiply(self.neg, np.uint8(45), out=slots[:len(self.neg)])
        np.multiply(self.frac > 0, np.uint8(46), out=slots[self.o_dot:self.o_dot + len(self.frac)])
        for digits, (x, row, g) in zip((_integer_digits, _integer_digits, _fraction_digits),
                                       self.families):
            digits(x, slots[row:row + 3 * g * len(x)].reshape(g, 3, x.size))

    def fields(self):
        """Yield each column's slot rows, sign if any is negative, digits and
        for a float its dot and fraction, with its fallback cells or None."""
        (_, o_whole, _), (ints, o_int, _), (_, o_frac, frac_groups) = self.families
        k_f = len(self.frac)
        floats = 0  # the float columns before column c
        for c, is_float in enumerate(self.is_float):
            i = floats if is_float else c - floats  # c's place in its families
            sign = i if is_float else k_f + i
            rows = [sign] if self.signed[sign] else []
            if is_float:
                rows += _digit_rows(o_whole + i, k_f, self.whole_width[i] - 1,
                                    self.whole_width[i])
                rows.append(self.o_dot + i)
                rows += _digit_rows(o_frac + i, k_f, 3 * frac_groups - 1, self.frac_width[i])
                yield rows, self.fallback.get(i)
                floats += 1
            else:
                yield rows + _digit_rows(o_int + i, len(ints), self.int_width[i] - 1,
                                         self.int_width[i]), None


def _digit_rows(row: int, count: int, top: int, width: int) -> list:
    """The slot rows of digits top, top − 1, ... (width of them, 0 the lowest)
    of a column of a family of ``count`` columns, its digits from ``row``."""
    return [row + (p // 3 * 3 + 2 - p % 3) * count for p in range(top, top - width, -1)]


def _ascii(cells: list) -> np.ndarray:
    """``str`` cells as the rows of a NUL-padded uint8 array."""
    data = [c.encode() for c in cells]
    assert not any(b"\0" in c for c in data), "a CSV cell contains NUL"
    data = np.array(data, dtype=bytes)
    return data.view(np.uint8).reshape(len(data), data.itemsize)


def _split_floats(v: np.ndarray):
    """The fixed-notation ``%.9g`` digits of v, and the cells left to Python.

    Returns the integer part and the fraction as float integers, each
    column's largest number of fraction digits, the sign bits and the mask
    of the fallback cells.  The fraction is scaled to 3·⌈w/3⌉ digits, w the
    largest of all columns.  Fallback cells and zeros get integer part and
    fraction 0.  v is overwritten.
    """
    neg, nonzero = np.signbit(v), v != 0
    c = np.abs(v, out=v)
    np.fmax(c, 1e-5, out=c)
    np.fmin(c, 1e10, out=c)
    i = np.log10(c)
    i += 5.0
    i = i.astype(np.intp)
    p = _SCALE[i]
    s = np.multiply(c, p, out=c)
    m = np.rint(s)
    ok = s >= 1e8
    ok &= m < 1e9
    s -= m
    ok &= np.abs(s, out=s) <= 0.5 - 1e-6
    m *= ok
    whole = np.floor(np.divide(m, p, out=s), out=s)
    m -= np.multiply(whole, p, out=p)
    k = np.subtract(13, i, out=i)  # fraction digits
    width = (k * ok).max(axis=1).tolist()
    np.subtract(3 * -(-max(width, default=0) // 3), k, out=k)
    m *= _POW10.take(k, mode="clip", out=p)
    return whole, m, width, neg, nonzero > ok


def _fallback_cells(floats: list, fallback: np.ndarray) -> dict:
    """{column: (rows, ``cell`` bytes as NUL-padded uint8 rows)} of the fallback cells."""
    cols, rows = np.nonzero(fallback)
    return {col: (rows[cols == col], _ascii([cell(floats[col][r]) for r in rows[cols == col]]))
            for col in set(cols.tolist())}


def _magnitude(c: np.ndarray):
    """|c| as uint64 and its sign, for an integer or boolean array."""
    if c.dtype.kind != "i":
        return c.astype(np.uint64), np.zeros(len(c), bool)
    c = c.astype(np.int64, copy=False)
    s = c >> 63
    return ((c ^ s) - s).astype(np.uint64), s < 0


def _integer_digits(x: np.ndarray, out: np.ndarray):
    """Write the digit groups of x's rows into ``out``, one (3, x.size) block
    per group, units first; leading zeros as NUL."""
    x = x.reshape(-1)
    for u, block in enumerate(out):
        q = x // 1000
        g = x - q * 1000
        g += (q == 0) * g.dtype.type(1000 if u else 2000)
        _digit_tables()[0].take(g, axis=1, out=block)
        x = q


def _fraction_digits(frac: np.ndarray, out: np.ndarray):
    """Write the digit groups of frac's rows into ``out``, one (3, frac.size)
    block per group, lowest first; trailing zeros as NUL.

    frac holds float integers below 1e12: the low three groups are divmods
    of a uint32 below 1e9, the fourth is what is left.
    """
    top = np.floor(frac / 1e9)
    low = (frac - top * 1e9).astype(np.uint32).reshape(-1)
    top = top.astype(np.uint32).reshape(-1)
    lower_zero = np.full(len(low), 1000, np.uint32)  # where all lower groups are 0
    for u, block in enumerate(out):
        if u < 3:
            q = low // 1000
            g = low - q * 1000
            low = q
        else:
            g = top
        g += lower_zero
        _digit_tables()[1].take(g, axis=1, out=block)
        lower_zero = (g == 1000) * np.uint32(1000)
