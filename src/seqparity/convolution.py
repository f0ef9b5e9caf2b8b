"""Self-convolutions of Thue-Morse variants.

A247303 convolves tbar with itself, a(n) = sum of tbar(i) * tbar(n-i) over
i <= n, and A029886 convolves a001285 = 2 - tbar the same way.  Their parity
is m: the terms i and n-i of either sum are equal and cancel mod 2 in pairs,
leaving the middle term, which is tbar(n/2) = m(n) mod 2 for even n, and none
for odd n.

Both come from one set of coefficients.  With s(k) = (-1)^t(k), let S(n) be
the running sum of s and c(n) the coefficient of x^n in P^2, for
P(x) = sum of s(n) x^n.  Writing tbar = (1 + s)/2 and 2 - tbar = (3 - s)/2,
    4*a247303(n) = (n+1) + 2S(n) + c(n)
    4*a029886(n) = 9(n+1) - 6S(n) + c(n)
so a029886(n) = a247303(n) + 2(n+1) - 2S(n).  S(n) is s(n) at even n and 0 at
odd n, as s(2j+1) = -s(2j); the difference is thus 2n + 4t(n) at even n and
2(n+1) at odd n, and the two sequences agree mod 4.

A window of A247303 is built by halving.  P(x) = (1-x) P(x^2) makes
P^2 = (1-x)^2 P(x^2)^2, so c(2k) = c(k) + c(k-1) and c(2k+1) = -2c(k).
Putting c(k) = 4a(k) - (k+1) - 2S(k) back in, with a(0) = 1 and a(1) = 0:
    a(2k)   = a(k) + a(k-1) + [k odd] s(k)
    a(2k+1) = k + 1 - 2a(k) + [k even] s(k)
so the window [start, stop) is read off the window [start//2 - 1, (stop+1)//2)
one level down, about half as wide.  The levels end at a window from 0 or 1,
which feeds on its own earlier terms; a window at n thus costs about twice
its width plus O(log n) levels.
"""

from __future__ import annotations

from itertools import islice
from operator import add

from .parity import _thue_morse_bytes

_ONE_TWO = bytes.maketrans(b"\0\1", b"\1\2")
_ZERO_FOUR = bytes.maketrans(b"\0\1", b"\0\4")


def a001285(n: int) -> int:
    """Thue-Morse over {1, 2}: 1 at evil n, 2 at odious n (i.e. 2 - tbar(n))."""
    return a001285_terms(n, n + 1)[0]


def a001285_terms(start: int, stop: int) -> list[int]:
    """Window of a001285: 1 + t(n)."""
    if start < 0:
        raise ValueError(f"a001285 is defined for n >= 0, got {start}")
    return list(_thue_morse_bytes(start, stop).translate(_ONE_TWO))


def _halve(out: list[int], below: list[int], k_lo: int, k_hi: int) -> None:
    """Append a(2k), a(2k+1) for k = k_lo .. k_hi - 1 to out, reading a(k - 1)
    and a(k) from below, whose first term is a(k_lo - 1).  below may be out
    itself, when its terms come far enough ahead of the ones appended."""
    tm = _thue_morse_bytes(k_lo, k_hi)
    for k, t, prev, a in zip(range(k_lo, k_hi), tm, below, islice(below, 1, None)):
        s, odd = 1 - 2 * t, k & 1
        out.append(a + prev + odd * s)
        out.append(k + 1 - 2 * a + (1 - odd) * s)


def a247303_terms(start: int, stop: int) -> list[int]:
    """Self-convolution of the negated Thue-Morse sequence at n = start .. stop - 1.

    The windows one level down are listed first, in a loop rather than by
    recursion, so a start near 2**1100 needs no deeper stack than one near 0.
    """
    if start < 0:
        raise ValueError(f"a247303 is defined for n >= 0, got {start}")
    if stop <= start:
        return []
    levels = []
    while start > 1:
        levels.append((start, stop))
        start, stop = start // 2 - 1, (stop + 1) // 2
    out = [1, 0]
    _halve(out, out, 1, (stop + 1) // 2)
    del out[stop:]
    del out[:start]
    for start, stop in reversed(levels):
        below, out = out, []
        first = start & ~1  # the pairs cover [first, stop rounded up to even)
        _halve(out, below, first >> 1, (stop + 1) >> 1)
        del out[stop - first :]
        del out[: start - first]
    return out


def a247303(n: int) -> int:
    """Self-convolution of tbar at index n: the one-term window of a247303_terms."""
    return a247303_terms(n, n + 1)[0]


def a029886_from_a247303(start: int, terms: list[int]) -> list[int]:
    """Turn the A247303 window at n = start .. start + len(terms) - 1 into the
    A029886 window on the same range, in place: add 2(n+1) at odd n and
    2n + 4t(n) at even n.  Each half is replaced by one slice assignment at C
    speed, which holds that half's new terms beside the window."""
    stop = start + len(terms)
    odd, even = 1 - (start & 1), start & 1  # the first index of each
    terms[odd::2] = map(
        add, islice(terms, odd, None, 2), range(2 * (start + odd) + 2, 2 * stop + 2, 4)
    )
    four_t = _thue_morse_bytes(start, stop).translate(_ZERO_FOUR)
    terms[even::2] = map(
        add,
        map(add, islice(terms, even, None, 2), range(2 * (start + even), 2 * stop, 4)),
        islice(four_t, even, None, 2),
    )
    return terms


def a029886_terms(start: int, stop: int) -> list[int]:
    """Self-convolution of a001285 at n = start .. stop - 1: the A247303 window
    turned by a029886_from_a247303."""
    if start < 0:
        raise ValueError(f"a029886 is defined for n >= 0, got {start}")
    return a029886_from_a247303(start, a247303_terms(start, stop))


def a029886(n: int) -> int:
    """Self-convolution of a001285 at index n: the one-term window of a029886_terms."""
    return a029886_terms(n, n + 1)[0]
