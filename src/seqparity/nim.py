"""Three-heap Nim P-position counts in closed form.

A position (a, b, c) is a P-position exactly when a XOR b XOR c == 0.
"""

from __future__ import annotations


def a128975_closed(n: int) -> int:
    """Unordered P-positions with three non-zero heaps: (3**(w(n/2)-1) - 1) / 2 for even n."""
    return a128975_terms(n, n + 1)[0]


def a128975_terms(start: int, stop: int) -> list[int]:
    """Window of a128975_closed.  An even n has the binary weight w of n/2,
    so its term is read from a table of (3**(w-1) - 1) / 2; an even n below
    stop has w < stop.bit_length()."""
    if start < 1:
        raise ValueError(f"a128975 is defined for n >= 1, got {start}")
    half = [0, *((3 ** (w - 1) - 1) // 2 for w in range(1, stop.bit_length()))]
    return [0 if n & 1 else half[n.bit_count()] for n in range(start, stop)]
