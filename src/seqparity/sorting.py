"""Worst-case comparison counts for list-merge and binary-insertion sorting,
and the halving-recursion chain A113474 / A101925 / A005187 / A122248."""

from __future__ import annotations

from itertools import accumulate, islice
from operator import add

from .parity import binary_weight


def a003071(n: int) -> int:
    """Maximal comparisons to sort n elements by list merging.

    The final merge joins a block of size 2**k (the largest power of two that
    fits) with the remainder x = n - 2**k, costing n - 1 comparisons; an exact
    power of two splits into two equal halves instead, which solves to
    a(2**k) = (k-1) * 2**k + 1.  Unrolling the first rule peels one set bit of
    n per merge.  Let the suffixes m of n be n, then n with its top bit
    cleared, and so on down to lowbit(n), and let k = m.bit_length() - 1.
    Each suffix adds (k-1) * 2**k + 1, and each but the last a merge cost
    m - 1.  The 2**k sum to n, so a(n) = 1 - n - lowbit(n) + sum of (m + k * 2**k).
    """
    if n < 1:
        raise ValueError(f"a003071 is defined for n >= 1, got {n}")
    total = 1 - n - (n & -n)
    while n:
        k = n.bit_length() - 1
        total += n + (k << k)
        n ^= 1 << k
    return total


def a003071_terms(start: int, stop: int) -> list[int]:
    """A003071 at n = start .. stop - 1, one block [2**k, 2**(k+1)) at a time.

    For n = 2**k + r with 0 < r < 2**k the final merge gives the merge rule
    a(n) = a(2**k) + a(r) + n - 1 = ((k-1) << k) + a(r) + n.  Where r >= start,
    a(r) is an earlier term of this window, so a window from the offset costs
    one addition per term.  Where r < start, as in a window that starts high,
    each term takes the scalar suffix-sum form a003071(n).
    """
    if start < 1:
        raise ValueError(f"a003071 is defined for n >= 1, got {start}")
    out: list[int] = []
    n = start
    while n < stop:
        k = n.bit_length() - 1
        top = 1 << k
        end = min(stop, top << 1)
        if n == top:
            out.append(((k - 1) << k) + 1)
            n += 1
        # r = n - top is below start up to n = top + start
        below = min(end, top + start)
        out.extend(map(a003071, range(n, below)))
        n = max(n, below)
        if n < end:
            base = (k - 1) << k
            # a(r) for r < top, all already in out; islice reads them
            # without a copy while extend appends past them
            earlier = islice(out, n - top - start, end - top - start)
            out.extend(map(add, earlier, range(base + n, base + end)))
            n = end
    return out


def a001855(n: int) -> int:
    """Maximal comparisons to sort n elements by binary insertion.

    Inserting the k-th element costs ceil(log2 k) comparisons, so
    a(n) = a(n-1) + ceil(log2 n) with a(1) = 0.  With k = ceil(log2 n), the
    sum telescopes to n*k - 2**k + 1.
    """
    if n < 1:
        raise ValueError(f"a001855 is defined for n >= 1, got {n}")
    k = (n - 1).bit_length()
    return n * k - (1 << k) + 1


def a113474(n: int) -> int:
    """a(n) = a(n//2) + n//2 with a(1) = 1.

    Unrolled, a(n) = 1 + sum of n // 2**j over j >= 1 = n - binary_weight(n) + 1.
    """
    if n < 1:
        raise ValueError(f"a113474 is defined for n >= 1, got {n}")
    return n - n.bit_count() + 1


def a101925(k: int) -> int:
    """b(k) = b(k//2) + k with b(0) = 1; equals a113474(2k) for k >= 1.

    Unrolled, b(k) = 1 + sum of k // 2**j over j >= 0 = 2k - binary_weight(k) + 1.
    """
    if k < 0:
        raise ValueError(f"a101925 is defined for k >= 0, got {k}")
    return 2 * k - k.bit_count() + 1


def a005187(n: int) -> int:
    """2-adic valuation of (2n)!, which telescopes to 2n - binary_weight(n)."""
    if n < 0:
        raise ValueError(f"a005187 is defined for n >= 0, got {n}")
    return 2 * n - binary_weight(n)


def a122248_prefix(count: int) -> list[int]:
    """First `count` terms of A122248 (indices 0..count-1), the partial sums of
    a113474: a(0) = 0, a(n) = a113474(1) + ... + a113474(n)."""
    return list(accumulate(map(a113474, range(1, count)), initial=0))[:count]
