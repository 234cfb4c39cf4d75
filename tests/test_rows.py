"""The numpy row writer against the ``%``-template writer it replaced."""

import io
from itertools import chain

import numpy as np
import pytest

from ransomgame import SimulationTrace, write_trace_csv
from ransomgame._rows import BLOCK_ROWS, Gathered, write_rows


def _reference_write_rows(f, row, columns, block=1024):
    """The replaced writer: one ``%`` call on a repeated row template per block.

    ``row`` has one conversion per column; array blocks go through
    ``.tolist()``, so ``%.9g`` formats Python floats.
    """
    n = len(columns[0])
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        parts = (c[lo:hi] for c in columns)
        cells = zip(*(p.tolist() if isinstance(p, np.ndarray) else p for p in parts))
        f.write((row * (hi - lo)) % tuple(chain.from_iterable(cells)))


def _exponent_span(n, rng):
    """Floats whose decimal exponents run through -4 ... 8 within every 13 rows."""
    return rng.uniform(1.0, 10.0, n) * 10.0 ** np.resize(np.arange(-4, 9), n) * \
        np.resize([1.0, -1.0, 1.0], n)


_SPECIALS = np.array([0.0, -0.0, 5e-324, 1e16, -1e16, 1e-05, 9.9999999995e-05, 123456789.5,
                      999999999.5, 0.1, -2.5, float("nan"), float("inf"), float("-inf")])


def _gathered(n, rng):
    """(gathered column, the column it stands for, its template) for float,
    int and str values, with indexes that repeat and run out of order, and
    float values longer than a block."""
    strs = ["NA", "", "optimal", "é"]
    ints = np.array([-2 ** 63, 0, 7, 2 ** 62, -1])
    long = _exponent_span(BLOCK_ROWS + 7, rng)
    specials_index = ((np.arange(n) * 5 + 3) % len(_SPECIALS)).astype(np.uint8)
    ints_index = rng.integers(0, len(ints), n)
    strs_index = (n - np.arange(n)) % len(strs)
    long_index = rng.integers(0, len(long), n).astype(np.uint16)
    return [(Gathered(_SPECIALS, specials_index), _SPECIALS[specials_index], "%.9g"),
            (Gathered(ints, ints_index), ints[ints_index], "%d"),
            (Gathered(strs, strs_index), [strs[i] for i in strs_index], "%s"),
            (Gathered(long, long_index), long[long_index], "%.9g")]


def _columns(n):
    rng = np.random.default_rng(n)
    specials = np.resize(_SPECIALS, n)
    return {
        "%d": range(7 * n, 8 * n),
        "x": "-3.25",
        "%.9g": [_exponent_span(n, rng), specials, rng.normal(size=n), rng.random(n) * 1e-4],
        "%d ": [rng.integers(-2 ** 63, 2 ** 63 - 1, n, endpoint=True), rng.random(n) < 0.5,
                np.resize(np.array([0, 2 ** 64 - 1], np.uint64), n),
                (np.arange(n) % 7).astype(np.int8) - 3],
        "%s": [["NA", "", "optimal", "é"][k % 4] for k in range(n)],
        "gathered": _gathered(n, rng),
    }


def _both(n):
    """(write_rows text, reference text) of the same mixed columns."""
    cols = _columns(n)
    floats, ints, gathered = cols["%.9g"], cols["%d "], cols["gathered"]
    got = io.StringIO()
    write_rows(got, [cols["%d"], cols["x"], *floats, *ints, cols["%s"],
                     *(g for g, _, _ in gathered)])
    want = io.StringIO()
    row = ",".join(["%d", cols["x"]] + ["%.9g"] * len(floats) + ["%d"] * len(ints) + ["%s"]
                   + [template for _, _, template in gathered])
    _reference_write_rows(want, row + "\n", [cols["%d"], *floats, *ints, cols["%s"],
                                             *(column for _, column, _ in gathered)])
    return got.getvalue(), want.getvalue()


@pytest.mark.parametrize("n", [1, 13, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               2 * BLOCK_ROWS + 7])
def test_bytes_match_template_reference(n):
    got, want = _both(n)
    assert got == want


def test_exponents_minus_4_to_8_share_a_block():
    values = _exponent_span(BLOCK_ROWS, np.random.default_rng(5))
    buf = io.StringIO()
    write_rows(buf, [values])
    assert buf.getvalue().splitlines() == ["%.9g" % v for v in values]
    assert {len(line.split(".")[0].lstrip("-")) for line in buf.getvalue().splitlines()} == \
        set(range(1, 10))


def test_trace_chunk_run_index_crosses_a_power_of_ten():
    # Runs 9990 ... 10009: the run index widens from 4 to 5 digits mid-block.
    n, first_run = 20, 9990
    rng = np.random.default_rng(3)
    values = [rng.random(n) * 10.0 ** rng.integers(-4, 3, n) for _ in range(6)]
    trace = SimulationTrace(0.5, *values[:4], kind=np.arange(n, dtype=np.uint8) % 5,
                            attacker_payoff=-values[4], defender_payoff=values[5])
    buf = io.StringIO()
    write_trace_csv(trace, buf, first_run=first_run)
    want = io.StringIO()
    _reference_write_rows(want, "%d,0.5,%.9g,%.9g,%.9g,%.9g,%d,%d,%.9g,%.9g\n",
                          (range(first_run, first_run + n), trace.x_tilde, trace.demand,
                           trace.counteroffer, trace.alpha, trace.aggressive, trace.decrypted,
                           trace.attacker_payoff, trace.defender_payoff))
    assert buf.getvalue() == want.getvalue()
    assert [line.split(",")[0] for line in buf.getvalue().splitlines()] == \
        [str(i) for i in range(first_run, first_run + n)]


def test_cell_with_nul_is_refused():
    with pytest.raises(AssertionError, match="NUL"):
        write_rows(io.StringIO(), [["a\0b"]])
