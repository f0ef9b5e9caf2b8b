"""Three-heap Nim P-position counts in closed form.

A position (a, b, c) is a P-position exactly when a XOR b XOR c == 0.
"""

from __future__ import annotations

from .parity import binary_weight


def a128975_closed(n: int) -> int:
    """Unordered P-positions with three non-zero heaps: (3**(w(n/2)-1) - 1) / 2 for even n."""
    if n < 1:
        raise ValueError(f"a128975 is defined for n >= 1, got {n}")
    if n & 1:
        return 0
    return (3 ** (binary_weight(n // 2) - 1) - 1) // 2
