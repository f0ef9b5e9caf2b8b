"""Self-convolutions of Thue-Morse variants.

The one sum here is A247303, a(n) = sum of tbar(i) * tbar(n-i) over i <= n.
A029886 convolves a001285 = 2 - tbar; expanding the product and summing gives
a029886(n) = a247303(n) + 4 * #{odious k <= n}, so the two agree mod 4.  Their
parity is m: the terms i and n-i of a247303's sum are equal and cancel mod 2 in
pairs, leaving the middle term tbar(n/2) = m(n) for even n and none for odd n.

A prefix is built by halving.  With s(k) = (-1)^t(k), tbar = (1 + s)/2 gives
4a(n) = (n+1) + 2S(n) + c(n), where S(n) is the running sum of s and c(n) is
the coefficient of x^n in P^2 for P(x) = sum of s(n) x^n.  P(x) = (1-x) P(x^2)
makes P^2 = (1-x)^2 P(x^2)^2, so c(2k) = c(k) + c(k-1) and c(2k+1) = -2c(k).
S(n) is s(n) at even n and 0 at odd n, as s(2j+1) = -s(2j).  Putting
c(k) = 4a(k) - (k+1) - 2S(k) back in, with a(0) = 1 and a(1) = 0:
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


def _odious_count(n: int) -> int:
    """#{odious k in [0, n]}: one per pair {2j, 2j+1}, plus t(n) if n is even."""
    return (n + 1) // 2 + (thue_morse(n) if n % 2 == 0 else 0)


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
    terms = a247303_prefix(count)
    for n in range(count):
        terms[n] += 4 * _odious_count(n)
    return terms


def a029886(n: int) -> int:
    """Self-convolution of a001285 at index n, as a247303(n) + 4 * #{odious k <= n}."""
    if n < 0:
        raise ValueError(f"a029886 is defined for n >= 0, got {n}")
    return a029886_prefix(n + 1)[n]
