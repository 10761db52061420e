"""The background digest as text rows.

:func:`text_digest` is the fingerprint ``FluidBackground.digest()`` used
to compute: one ``index:remaining:rate:done:fct:stalled;`` row per
tenant, rates and bytes rounded to 6 decimals and completion times to 9,
hashed with sha256. ``digest()`` now hashes the same five columns' raw
bytes; the pinned worlds keep their text digests through this function,
so the literals captured before the change still hold the state.
"""

from __future__ import annotations

import hashlib

import numpy as np


def text_digest(fluid):
    """sha256 over ``fluid``'s tenant state printed as one row per tenant."""
    h = hashlib.sha256()
    columns = (fluid._remaining, fluid._rate, fluid._done, fluid._fct, ~np.isnan(fluid._stalled_at))
    # 4,096 tenants at a time: five whole-population lists of Python
    # objects would set the run's peak memory at fleet scale.
    for lo in range(0, len(fluid._fct), 4096):
        hi = lo + 4096
        rows = zip(range(lo, hi), *(col[lo:hi].tolist() for col in columns))
        h.update("".join("%d:%.6f:%.6f:%d:%.9f:%d;" % row for row in rows).encode())
    return h.hexdigest()
