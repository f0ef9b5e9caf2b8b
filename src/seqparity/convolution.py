"""Self-convolutions of Thue-Morse variants.

The one sum here is A247303, a(n) = sum of tbar(i) * tbar(n-i) over i <= n.
A029886 convolves a001285 = 2 - tbar; expanding the product and summing gives
a029886(n) = a247303(n) + 4 * #{odious k <= n}, so the two agree mod 4.  Their
parity is m: the terms i and n-i of a247303's sum are equal and cancel mod 2 in
pairs, leaving the middle term tbar(n/2) = m(n) for even n and none for odd n.
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


def _tbar_convolution(bits: list[int], n: int) -> int:
    """Sum of bits[i] * bits[n-i] over i in [0, n]; bits is tbar on [0, n] or more."""
    return sum(x * y for x, y in zip(bits, bits[n::-1]))


def a247303_prefix(count: int) -> list[int]:
    """First `count` terms of the self-convolution of the negated Thue-Morse sequence."""
    bits = [thue_morse_bar(i) for i in range(count)]
    return [_tbar_convolution(bits, n) for n in range(count)]


def a247303(n: int) -> int:
    """Self-convolution of tbar at index n: sum of tbar(i) * tbar(n-i)."""
    if n < 0:
        raise ValueError(f"a247303 is defined for n >= 0, got {n}")
    return _tbar_convolution([thue_morse_bar(i) for i in range(n + 1)], n)


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
    return a247303(n) + 4 * _odious_count(n)
