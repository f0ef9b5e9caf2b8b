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

A prefix of A247303 is built by halving.  P(x) = (1-x) P(x^2) makes
P^2 = (1-x)^2 P(x^2)^2, so c(2k) = c(k) + c(k-1) and c(2k+1) = -2c(k).
Putting c(k) = 4a(k) - (k+1) - 2S(k) back in, with a(0) = 1 and a(1) = 0:
    a(2k)   = a(k) + a(k-1) + [k odd] s(k)
    a(2k+1) = k + 1 - 2a(k) + [k even] s(k)
"""

from __future__ import annotations

from .parity import thue_morse, thue_morse_bar


def a001285(n: int) -> int:
    """Thue-Morse over {1, 2}: 1 at evil n, 2 at odious n (i.e. 2 - tbar(n))."""
    if n < 0:
        raise ValueError(f"a001285 is defined for n >= 0, got {n}")
    return 2 - thue_morse_bar(n)


def a247303_prefix(count: int) -> list[int]:
    """First `count` terms of the self-convolution of the negated Thue-Morse sequence."""
    if count <= 0:
        return []
    terms = [1, 0]
    for k in range(1, (count + 1) // 2):
        s, odd = 1 - 2 * thue_morse(k), k & 1
        terms.append(terms[k] + terms[k - 1] + odd * s)
        terms.append(k + 1 - 2 * terms[k] + (1 - odd) * s)
    return terms[:count]


def a247303(n: int) -> int:
    """Self-convolution of tbar at index n: sum of tbar(i) * tbar(n-i)."""
    if n < 0:
        raise ValueError(f"a247303 is defined for n >= 0, got {n}")
    return a247303_prefix(n + 1)[n]


def a029886_prefix(count: int) -> list[int]:
    """First `count` terms of the self-convolution of a001285."""
    return [
        a + 2 * n + (2 if n & 1 else 4 * thue_morse(n))
        for n, a in enumerate(a247303_prefix(count))
    ]


def a029886(n: int) -> int:
    """Self-convolution of a001285 at index n, as a247303(n) + 2(n+1) - 2S(n)."""
    if n < 0:
        raise ValueError(f"a029886 is defined for n >= 0, got {n}")
    return a029886_prefix(n + 1)[n]
