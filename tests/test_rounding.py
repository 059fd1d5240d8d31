"""The balanced digit split shared by the tau squarings."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from terncorr.rounding import split_digits


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**62) + 1, 2**62 - 1), min_size=1, max_size=30),
       st.integers(4, 40))
@example([2**62 - 1, -(2**62) + 1, 0], 4)
@example([-(2**11) - 1], 12)  # just past one balanced 12-bit digit
def test_balanced_digits_reconstruct_within_half(values, bits):
    a = np.array(values, dtype=np.int64)
    bound, pieces = split_digits(a, bits, balanced=True)
    half = 1 << (bits - 1)
    m = max(abs(v) for v in values)
    assert len(pieces) == 1 if m <= half else len(pieces) > 1
    assert bound == min(max(m, 1), half + 1)
    total = [0] * len(values)
    for i, (shift, d) in enumerate(pieces):
        assert shift == bits * i and d.dtype == np.int64
        low = i < len(pieces) - 1
        assert all(-half <= v < half if low else abs(v) <= bound for v in d.tolist())
        total = [t + (v << shift) for t, v in zip(total, d.tolist())]
    assert total == values

