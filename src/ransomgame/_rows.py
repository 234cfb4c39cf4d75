"""Write column data as text rows, a block of rows per format call."""

from __future__ import annotations

from itertools import chain
from typing import IO, Sequence

import numpy as np

# Rows formatted per write.  Larger blocks are no faster and raise the peak
# memory of a traced simulation.
BLOCK_ROWS = 1024


def write_rows(f: IO[str], row: str, columns: Sequence):
    """Write one line per index of ``columns``, each formatted by ``row``.

    ``row`` is a ``%`` template with one conversion per column, ending in a
    newline.  Columns are arrays, lists or ranges of equal length; array
    blocks go through ``.tolist()``, so ``%.9g`` formats Python floats.
    """
    n = len(columns[0])
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        parts = (c[lo:hi] for c in columns)
        block = zip(*(p.tolist() if isinstance(p, np.ndarray) else p for p in parts))
        f.write((row * (hi - lo)) % tuple(chain.from_iterable(block)))
