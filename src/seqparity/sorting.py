"""Worst-case comparison counts for list-merge and binary-insertion sorting,
and the halving-recursion chain A113474 / A101925 / A005187 / A122248."""

from __future__ import annotations

from itertools import accumulate, islice
from operator import add, sub


def a003071(n: int) -> int:
    """Maximal comparisons to sort n elements by list merging.

    The final merge joins a block of size 2**k (the largest power of two that
    fits) with the remainder x = n - 2**k, costing n - 1 comparisons; an exact
    power of two splits into two equal halves instead, which solves to
    a(2**k) = (k-1) * 2**k + 1.
    """
    return a003071_terms(n, n + 1)[0]


def a003071_terms(start: int, stop: int) -> list[int]:
    """A003071 at n = start .. stop - 1, one block [2**k, 2**(k+1)) at a time.

    For n = 2**k + r with 0 < r < 2**k the final merge gives the merge rule
    a(n) = a(2**k) + a(r) + n - 1 = ((k-1) << k) + a(r) + n, one addition per
    term.  The a(r) with r >= start are earlier terms of the window.  Those
    with r < start form a window of their own: in the block that holds start,
    [start - 2**k, min(stop, 2**(k+1)) - 2**k), as wide as the block's part
    and with the top bit of start cleared; in each block above, or where
    start is a power of two, [1, min(stop - 2**k, start)), a window from the
    offset, which reads no lower window.  The first of these recurses once per
    set bit of start, so the windows are walked down in a loop and built back
    up, each from the one below it: a window at n costs O(width * weight(n)).
    """
    if start < 1:
        raise ValueError(f"a003071 is defined for n >= 1, got {start}")
    levels = []  # the windows down to one that starts at a power of two
    while start < stop and start & (start - 1):
        levels.append((start, stop))
        top = 1 << (start.bit_length() - 1)
        start, stop = start - top, min(stop, top << 1) - top
    levels.append((start, stop))
    out: list[int] = []
    for start, stop in reversed(levels):
        below, out = out, []  # a(r) for the r < start of the first block
        n = start
        while n < stop:
            k = n.bit_length() - 1
            top = 1 << k
            end = min(stop, top << 1)
            if n == top:
                out.append(((k - 1) << k) + 1)
                n += 1
                below = a003071_terms(1, min(end - top, start))
            base = (k - 1) << k
            mid = n + len(below)  # the r below start end at r = mid - top
            out.extend(map(add, below, range(base + n, base + mid)))
            if mid < end:
                # a(r) for r >= start, all already in out; islice reads them
                # without a copy while extend appends past them
                earlier = islice(out, mid - top - start, end - top - start)
                out.extend(map(add, earlier, range(base + mid, base + end)))
            n = end
    return out


def a001855(n: int) -> int:
    """Maximal comparisons to sort n elements by binary insertion.

    Inserting the k-th element costs ceil(log2 k) comparisons, so
    a(n) = a(n-1) + ceil(log2 n) with a(1) = 0.  With k = ceil(log2 n), the
    sum telescopes to n*k - 2**k + 1.
    """
    return a001855_terms(n, n + 1)[0]


def a001855_terms(start: int, stop: int) -> list[int]:
    """Window of a001855."""
    if start < 1:
        raise ValueError(f"a001855 is defined for n >= 1, got {start}")
    return [n * (k := (n - 1).bit_length()) - (1 << k) + 1 for n in range(start, stop)]


def a113474(n: int) -> int:
    """a(n) = a(n//2) + n//2 with a(1) = 1.

    Unrolled, a(n) = 1 + sum of n // 2**j over j >= 1 = n - binary_weight(n) + 1.
    """
    return a113474_terms(n, n + 1)[0]


def a113474_terms(start: int, stop: int) -> list[int]:
    """Window of a113474."""
    if start < 1:
        raise ValueError(f"a113474 is defined for n >= 1, got {start}")
    return [n - n.bit_count() + 1 for n in range(start, stop)]


def a101925(k: int) -> int:
    """b(k) = b(k//2) + k with b(0) = 1; equals a113474(2k) for k >= 1.

    Unrolled, b(k) = 1 + sum of k // 2**j over j >= 0 = 2k - binary_weight(k) + 1.
    """
    return a101925_terms(k, k + 1)[0]


def a101925_terms(start: int, stop: int) -> list[int]:
    """Window of a101925."""
    if start < 0:
        raise ValueError(f"a101925 is defined for k >= 0, got {start}")
    return [2 * k - k.bit_count() + 1 for k in range(start, stop)]


def a005187(n: int) -> int:
    """2-adic valuation of (2n)!, which telescopes to 2n - binary_weight(n)."""
    return a005187_terms(n, n + 1)[0]


def a005187_terms(start: int, stop: int) -> list[int]:
    """Window of a005187."""
    if start < 0:
        raise ValueError(f"a005187 is defined for n >= 0, got {start}")
    return [2 * n - n.bit_count() for n in range(start, stop)]


def a122248_terms(start: int, stop: int) -> list[int]:
    """A122248 at n = start .. stop - 1, the partial sums of a113474:
    a(0) = 0, a(n) = a113474(1) + ... + a113474(n).

    As a113474(k) = k - binary_weight(k) + 1, the first term is
    a(n) = n(n+1)/2 + n - W(n), with W(n) the binary weight summed over
    k = 0..n.  Bit j is set in 2**j of every 2**(j+1) consecutive integers, so
    of the n + 1 integers 0..n, (n+1) // 2**(j+1) whole periods contribute 2**j
    each and the last, partial period the part of it past 2**j, so the first
    term takes O(log start) steps.  The rest of the window accumulates the
    a113474 terms, one addition each.
    """
    if start < 0:
        raise ValueError(f"a122248 is defined for n >= 0, got {start}")
    if stop <= start:
        return []
    m = start + 1
    weights = sum(
        (m >> (j + 1) << j) + max((m & ((2 << j) - 1)) - (1 << j), 0)
        for j in range(m.bit_length())
    )
    first = start * (start + 3) // 2 - weights
    # a113474(k) = k + 1 - binary_weight(k) for k = start + 1 .. stop - 1, fed
    # lazily, so that no second list as wide as the window is held
    gains = map(sub, range(start + 2, stop + 1), map(int.bit_count, range(start + 1, stop)))
    return list(accumulate(gains, initial=first))
