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
- Fallback.  Python's ``'%.9g'`` formats the cells that argument does not
  cover: near-ties, exponent notation (e < −4 or e ≥ 9, and values that
  round across 1e-4 or up to a power of ten), a wrong estimate of e, nan
  and ±inf.  Zero and −0.0 are written ``0`` and ``-0`` directly.
- Layout.  Each character slot of a block is one row of a ``(slots, rows)``
  uint8 array, so every store is contiguous.  A float field is
  ``[sign][integer digits][.][fraction digits]`` and an integer field
  ``[sign][digits]``, as wide as the column's widest value in the block.
  Digits come three at a time from small tables indexed by uint divmod.
  Plus signs, leading integer zeros, trailing fraction zeros and a bare dot
  are NUL.  One gather puts the slots in row order, and deleting the NULs
  from the block's bytes leaves the CSV text, so no cell may contain NUL.
- Gathered columns.  The row r cell of ``Gathered(values, index)`` is the
  cell of ``values[index[r]]``.  ``values`` is formatted once, by the same
  code in blocks of at most BLOCK_ROWS rows, so each cell keeps the bytes of
  ``'%.9g'``, ``'%d'`` or the str; each block then copies its rows' cells
  from that byte table with ``index[lo:hi]`` into slot rows laid out like
  those of str cells.  A column that repeats a few values, such as a sweep
  axis or a trace flag, costs one byte copy per row and character.
"""

from __future__ import annotations

import functools
from collections import defaultdict
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
_SEP = b",\n\0"  # the first constant slot rows of a block


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

    ``values`` is a float, integer or boolean array or a list of ``str``
    cells, and ``index`` an integer array.  It is neither a tuple nor
    iterable, so it cannot pass for a column of cells.
    """

    __slots__ = ("values", "index")

    def __init__(self, values, index):
        self.values, self.index = values, index

    def __len__(self):
        return len(self.index)


def write_rows(f: IO[str], columns: Sequence):
    """Write one CSV line per row of ``columns``.

    A column is a float array (cells as ``%.9g``), an integer or boolean
    array or a ``range`` (cells as ``%d``), a list of ``str`` cells, a
    ``Gathered`` column, or one ``str``: the same cell in every row.  The
    other columns have equal length.  A gathered column's ``values`` are
    formatted once, and each block copies its rows' cells from those bytes.
    """
    columns = [Gathered(_cell_slots(c.values), c.index) if isinstance(c, Gathered) else c
               for c in columns]
    n = next(len(c) for c in columns if not isinstance(c, str))
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        table = _table([_block(c, lo, hi) for c in columns], hi - lo)
        f.write(table.tobytes().translate(None, b"\0").decode())


def _block(c, lo: int, hi: int):
    """Rows lo:hi of column c; a gathered column's cells as slot rows."""
    if isinstance(c, str):
        return c
    if isinstance(c, Gathered):
        return c.values.take(c.index[lo:hi], axis=1)
    return c[lo:hi]


def _cell_slots(values) -> np.ndarray:
    """The cells of the column ``values`` as ``(width, len(values))`` uint8
    slot rows, NUL-padded, formatted by ``_table`` at most BLOCK_ROWS at a time."""
    n = len(values)
    starts = range(0, n, BLOCK_ROWS)
    blocks = [_table([values[lo:lo + BLOCK_ROWS]], min(BLOCK_ROWS, n - lo))[:, :-1].T
              for lo in starts]
    slots = np.zeros((max((len(b) for b in blocks), default=0), n), np.uint8)
    for lo, b in zip(starts, blocks):
        slots[:len(b), lo:lo + b.shape[1]] = b
    return slots


def _table(columns: list, n: int) -> np.ndarray:
    """The ``(n, line length)`` uint8 bytes of ``n`` rows of ``columns``, NULs
    included: every slot row, gathered in the order of a CSV line.  A 2-D
    column is formatted cells, as ``(width, n)`` slot rows."""
    fields, floats, ints, cells, texts, const = [], [], [], [], [], bytearray(_SEP)
    for c in columns:
        if isinstance(c, range):
            c = np.arange(c.start, c.stop, c.step, dtype=np.int64)
        if isinstance(c, str):
            cell = _ascii([c]).tobytes()
            fields.append(("const", len(const), len(cell)))
            const += cell
        elif not isinstance(c, np.ndarray):
            fields.append(("text", len(texts)))
            texts.append(len(cells) // n)  # the list's place among the str cells
            cells.extend(c)
        elif c.ndim == 2:
            fields.append(("text", len(texts)))
            texts.append(c)
        elif c.dtype.kind == "f":
            fields.append(("float", len(floats)))
            floats.append(c)
        else:
            fields.append(("int", len(ints)))
            ints.append(c)

    # The numbers' slot rows, the constant bytes, then each text column's
    # (character, row) slot rows; the str cells are encoded together.
    numbers = _Numbers(floats, ints, n) if floats or ints else None
    o_const = numbers.rows if numbers else 0
    if cells:
        text = _ascii(cells)
        text = text.reshape(len(cells) // n, n, text.shape[1]).transpose(0, 2, 1)
        texts = [text[t] if isinstance(t, int) else t for t in texts]
    starts = [o_const + len(const)]
    for t in texts:
        starts.append(starts[-1] + len(t))
    slots = np.empty((starts[-1], n), np.uint8)
    if numbers:
        numbers.write(slots)
    slots[o_const:starts[0]] = np.frombuffer(const, np.uint8)[:, None]
    for t, start in zip(texts, starts):
        slots[start:start + len(t)] = t

    # A fallback cell's field gets NUL slots where the text is wider.
    order, spans = [], []
    for kind, j, *length in fields:
        if order:
            order.append(o_const)
        if kind == "const":
            order.extend(range(o_const + j, o_const + j + length[0]))
        elif kind == "text":
            order.extend(range(starts[j], starts[j + 1]))
        else:
            c = j if kind == "float" else len(floats) + j
            start = len(order)
            order.extend(numbers.field(c))
            if c in numbers.fallback:
                rows, fb = numbers.fallback[c]
                order.extend([o_const + 2] * (fb.shape[1] - (len(order) - start)))
                spans.append((rows, start, len(order), fb))
    order.append(o_const + 1)
    table = slots[order].T
    for rows, start, end, fb in spans:
        table[rows, start:end] = 0
        table[rows, start:start + fb.shape[1]] = fb
    return table


class _Numbers:
    """The slot rows of a block's numeric columns, floats first.

    Each column has a sign row, integer digit groups, and for floats a dot
    row and fraction digit groups, aligned to whole groups of three.  Group
    u of all columns with more than u groups is one (3, count, n) block of
    rows, the columns widest first, so one table lookup writes all of them.
    """

    def __init__(self, floats: list, ints: list, n: int):
        k_f, k = len(floats), len(floats) + len(ints)
        mags = [_magnitude(c) for c in ints]
        wide = any(m.max() >= 2 ** 32 for m, _ in mags)
        self.whole = np.empty((k, n), np.uint64 if wide else np.uint32)
        self.neg = np.empty((k, n), bool)
        self.frac_width, self.fallback = [], {}
        if floats:
            self.whole[:k_f], frac, self.frac_width, self.neg[:k_f], fallback = \
                _split_floats(np.array(floats, dtype=np.float64))
            self.fallback = _fallback_cells(floats, fallback)
        for j, (m, s) in enumerate(mags, k_f):
            self.whole[j], self.neg[j] = m, s
        self.int_width = [len(str(d)) for d in self.whole.max(axis=1).tolist()]
        self.signed = self.neg.any(axis=1).tolist()
        self.frac_groups = [-(-w // 3) for w in self.frac_width]
        self.int_rank, self.int_blocks, self.o_dot = _group_blocks(
            [-(-w // 3) for w in self.int_width], k)
        self.frac_rank, self.frac_blocks, self.rows = _group_blocks(
            self.frac_groups, self.o_dot + k_f)
        if floats:
            self.dots = frac > 0
            self.frac = np.empty_like(frac)
            self.frac[self.frac_rank] = frac

    def write(self, slots: np.ndarray):
        """Fill the first ``rows`` slot rows."""
        np.multiply(self.neg, np.uint8(45), out=slots[:len(self.neg)])
        whole = np.empty_like(self.whole)
        whole[self.int_rank] = self.whole
        _integer_digits(whole, self.int_blocks, slots)
        if self.frac_width:
            np.multiply(self.dots, np.uint8(46), out=slots[self.o_dot:self.o_dot + len(self.dots)])
            _fraction_digits(self.frac, self.frac_blocks, slots)

    def field(self, c: int) -> list:
        """Column c's slot rows: sign if any is negative, digits, dot, fraction."""
        rows = [c] if self.signed[c] else []
        for p in range(self.int_width[c] - 1, -1, -1):
            row, count = self.int_blocks[p // 3]
            rows.append(row + (2 - p % 3) * count + self.int_rank[c])
        if c < len(self.frac_width):
            rows.append(self.o_dot + c)
            for i in range(self.frac_width[c]):
                row, count = self.frac_blocks[self.frac_groups[c] - 1 - i // 3]
                rows.append(row + i % 3 * count + self.frac_rank[c])
        return rows


def _group_blocks(groups: list, row: int):
    """Lay out digit groups: columns widest first, one block per group index.

    Returns each column's rank, widest first, and for each group index u the
    first slot row and the number of columns with more than u groups, whose
    (3, count, n) block of rows holds group u; then the row after the last.
    """
    rank = [0] * len(groups)
    for r, c in enumerate(sorted(range(len(groups)), key=lambda c: -groups[c])):
        rank[c] = r
    blocks = []
    for u in range(max(groups, default=0)):
        count = sum(g > u for g in groups)
        blocks.append((row, count))
        row += 3 * count
    return rank, blocks, row


def _ascii(cells: list) -> np.ndarray:
    """``str`` cells as the rows of a NUL-padded uint8 array."""
    data = [c.encode() for c in cells]
    assert not any(b"\0" in c for c in data), "a CSV cell contains NUL"
    data = np.array(data, dtype=bytes)
    return data.view(np.uint8).reshape(len(data), data.itemsize)


def _split_floats(v: np.ndarray):
    """The fixed-notation ``%.9g`` digits of v, and the cells left to Python.

    Returns the integer part and the fraction as float integers, each
    column's largest number of fraction digits w, the sign bits and the
    mask of the fallback cells.  The fraction is scaled to 3·⌈w/3⌉ digits.
    Fallback cells and zeros get integer part and fraction 0.  v is
    overwritten.
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
    width = (k * ok).max(axis=1)
    np.subtract(3 * (-(-width // 3))[:, None], k, out=k)
    m *= _POW10.take(k, mode="clip", out=p)
    return whole, m, width.tolist(), neg, nonzero > ok


def _fallback_cells(floats: list, fallback: np.ndarray) -> dict:
    """{column: (rows, ``%.9g`` bytes as NUL-padded uint8 rows)} of the fallback cells."""
    if not fallback.any():
        return {}
    found = defaultdict(list)
    for col, row in zip(*np.nonzero(fallback)):
        found[int(col)].append((row, "%.9g" % floats[col][row]))
    return {col: (np.array([r for r, _ in hits]), _ascii([t for _, t in hits]))
            for col, hits in found.items()}


def _magnitude(c: np.ndarray):
    """|c| as uint64 and its sign, for an integer or boolean array."""
    if c.dtype.kind != "i":
        return c.astype(np.uint64), np.zeros(len(c), bool)
    c = c.astype(np.int64, copy=False)
    s = c >> 63
    return ((c ^ s) - s).astype(np.uint64), s < 0


def _integer_digits(x: np.ndarray, blocks: list, slots: np.ndarray):
    """Write the digit groups of x's rows, leading zeros as NUL."""
    n = x.shape[1]
    x = x.reshape(-1)
    for u, (row, count) in enumerate(blocks):
        x = x[:count * n]
        q = x // 1000
        g = x - q * 1000
        g += (q == 0) * g.dtype.type(1000 if u else 2000)
        _digit_tables()[0].take(g, axis=1, out=slots[row:row + 3 * count].reshape(3, -1))
        x = q


def _fraction_digits(frac: np.ndarray, blocks: list, slots: np.ndarray):
    """Write the digit groups of frac's rows, trailing zeros as NUL.

    frac holds float integers below 1e12: the low three groups are divmods
    of a uint32 below 1e9, the fourth is what is left.
    """
    n = frac.shape[1]
    top = np.floor(frac / 1e9)
    low = (frac - top * 1e9).astype(np.uint32).reshape(-1)
    top = top.astype(np.uint32).reshape(-1)
    lower_zero = np.full(len(low), 1000, np.uint32)  # where all lower groups are 0
    for u, (row, count) in enumerate(blocks):
        m = count * n
        if u < 3:
            q = low[:m] // 1000
            g = low[:m] - q * 1000
            low = q
        else:
            g = top[:m]
        g += lower_zero[:m]
        _digit_tables()[1].take(g, axis=1, out=slots[row:row + 3 * count].reshape(3, -1))
        lower_zero = (g == 1000) * np.uint32(1000)
