"""How fast the shared machine runs at the moment.

The benchmark machine is shared with other tenants, which slow every process
on it by up to 2x in spells lasting from a fraction of a second to minutes.
A run cannot wait such a spell out, so the harness measures the machine's
pace next to its timed steps: :func:`sample` times a fixed computation that
mixes what the library spends its time on (Python dictionaries, tuples and
sorting as in term rewriting and mesh walks; small dense products, a sparse
product and elementwise work as in network evaluation; a pass over an array
larger than the caches, as when a large dense layer is applied).  A timed step is then
scaled by ``REFERENCE_S / pace``, which gives the time it would have taken
at the reference pace.  The computation does not call the library, so a
change to the library does not move the pace.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# About the median time of one timed run in :func:`sample` on the reference
# machine when no other tenant was busy (2-vCPU VM, Python 3.11, numpy 2.4,
# one BLAS thread).  It only sets the unit: scaled times read as seconds at
# this pace.
REFERENCE_S = 0.0075

_rng = np.random.default_rng(20180710)
_DENSE = _rng.standard_normal((220, 220))
_SPARSE = sp.random(2000, 2000, density=0.003, random_state=7, format="csr")
_BLOCK = _rng.standard_normal((2000, 48))
_KEYS = [(i % 97, (i * 31) % 89) for i in range(9000)]
_STREAM = np.ones(3_000_000)  # 24 MB


def _work() -> float:
    acc: dict[tuple[int, int], int] = {}
    for i, key in enumerate(_KEYS):
        acc[key] = acc.get(key, 0) + i
    order = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))
    dense = _DENSE @ _DENSE
    act = np.maximum(_SPARSE @ _BLOCK, 0.0)
    return float(dense[0, 0] + act.sum() + order[0][1] + _STREAM.sum())


def sample(reps: int = 2) -> list[float]:
    """``reps`` timings of the fixed computation, in seconds.

    One untimed run first brings the computation's small data back into
    the caches, so that the pace does not depend on how much memory the step
    before it touched.
    """
    _work()
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _work()
        out.append(time.perf_counter() - t0)
    return out
