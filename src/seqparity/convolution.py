"""Self-convolutions of Thue-Morse variants.

The one sum here is A247303, a(n) = sum of tbar(i) * tbar(n-i) over i <= n.
A029886 convolves a001285 = 2 - tbar; expanding the product and summing gives
a029886(n) = a247303(n) + 4 * #{odious k <= n}, so the two agree mod 4.  Their
parity is m: the terms i and n-i of a247303's sum are equal and cancel mod 2 in
pairs, leaving the middle term tbar(n/2) = m(n) for even n and none for odd n.

A prefix of `count` terms is one big-integer square (Kronecker substitution):
tbar(i) goes into byte slot i of a little-endian integer, each slot `width` =
ceil(count.bit_length() / 8) bytes wide.  A coefficient of the square is a sum
of at most `count` products of 0/1 bits, so it fits its slot and no carry
crosses into the next one; term n is then the bytes of slot n.  The terms are
read by slicing `to_bytes` output, because shifting the square right once per
term copies it each time and makes extraction quadratic again.  The scalar
`a247303(n)` sums the products directly and is the independent route.
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
    width = (count.bit_length() + 7) // 8
    slots = bytearray(count * width)
    for i in range(count):
        slots[i * width] = thue_morse_bar(i)
    square = (int.from_bytes(slots, "little") ** 2).to_bytes(2 * len(slots), "little")
    return [
        int.from_bytes(square[n * width:(n + 1) * width], "little") for n in range(count)
    ]


def a247303(n: int) -> int:
    """Self-convolution of tbar at index n: sum of tbar(i) * tbar(n-i)."""
    if n < 0:
        raise ValueError(f"a247303 is defined for n >= 0, got {n}")
    bits = [thue_morse_bar(i) for i in range(n + 1)]
    return sum(x * y for x, y in zip(bits, reversed(bits)))


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
