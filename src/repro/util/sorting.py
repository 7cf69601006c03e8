"""Sort kernels for the columnar data plane."""

from __future__ import annotations

import numpy as np

#: Integer columns spanning fewer values than this sort as ``uint16``...
_RADIX_SPAN = 1 << 16
#: ...when they are at least this long: below it the shift costs more
#: than the radix sort saves.
_RADIX_MIN = 512


def stable_argsort(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")``, faster on narrow integer columns.

    numpy's stable sort is a radix sort for integers of up to 16 bits
    and a merge sort otherwise.  A long, wider integer column whose
    values span fewer than 65,536 (part indices, group indices, a
    part's vertex ids) is shifted to start at zero and sorted as
    ``uint16``, which orders it identically; anything else — short
    columns, wide spans, floats, object columns — sorts as given, and
    an object column whose keys are not mutually orderable still raises
    :class:`TypeError`.
    """
    if values.dtype.kind in "iu" and values.dtype.itemsize > 2 and len(values) >= _RADIX_MIN:
        low = values.min()
        if int(values.max()) - int(low) < _RADIX_SPAN:
            # the shift may wrap in the column's dtype, but the true
            # offsets fit in 16 bits, so the cast keeps them exactly
            return np.argsort((values - low).astype(np.uint16), kind="stable")
    return np.argsort(values, kind="stable")
