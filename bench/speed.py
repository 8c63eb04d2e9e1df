"""Host speed, measured by a fixed probe run between the timed cases.

The machines this benchmark runs on share their cores: on a 2-core VM the
same `witt_enum` run took anywhere from 4.3 s to 7.4 s within a few
minutes, so raw times spread across runs by more than the benchmark's
bounds.  Every timed interval is therefore also reported at reference
speed: its raw time times ``REFERENCE_S / probe``, where ``probe`` is the
probe time measured right around it.  ``REFERENCE_S`` is a constant, so a
change in ktrunc moves the scaled times exactly as it moves the raw ones,
as long as the probe reads the same whatever ktrunc ran before it.

That is why the probe allocates no arrays: every numpy operation writes
into buffers made at import, and its temporaries come to under 1 KB, so
its time does not depend on how ktrunc's earlier allocations and frees
have left the allocator.  The Python part only makes small ints, tuples
and big ints of two digits.  The probe
mixes the kinds of work ktrunc does: tuple-keyed dict lookups and
big-integer arithmetic in the interpreter, small numpy operations, and a
mod-p row elimination on a 160x140 int64 array.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one probe takes at reference speed.
REFERENCE_S = 0.002

_TABLE = {(i, j): 7 * i + j for i in range(64) for j in range(7)}
_SMALL0 = np.arange(48, dtype=np.int64).reshape(6, 8)
_MATRIX0 = (np.arange(160 * 140, dtype=np.int64) * 7919 % 101).reshape(
    160, 140)
_SMALL = np.empty_like(_SMALL0)
_MATRIX = np.empty_like(_MATRIX0)
_OUTER = np.empty_like(_MATRIX0)
_COLUMN = np.empty((160, 1), dtype=np.int64)


def probe() -> float:
    """Seconds taken by the fixed probe, now."""
    table = _TABLE
    start = time.perf_counter()
    acc = 0
    for i in range(1500):
        acc = (acc + 3 * table[i & 63, i % 7]) & 0xFFFF
        acc = (acc + (acc << 70) % 1000003) & 0xFFFF
    a = _SMALL
    np.copyto(a, _SMALL0)
    for _ in range(40):
        np.multiply(a, 3, out=a)
        np.add(a, 1, out=a)
        np.remainder(a, 7, out=a)
    m = _MATRIX
    np.copyto(m, _MATRIX0)
    for c in range(6):
        below, outer, column = m[c + 1:], _OUTER[c + 1:], _COLUMN[c + 1:]
        # a broadcast multiply would allocate ufunc buffers; matmul does not
        np.copyto(column, below[:, c:c + 1])
        np.matmul(column, m[c:c + 1], out=outer)
        np.subtract(below, outer, out=below)
        np.remainder(below, 101, out=below)
    return time.perf_counter() - start
