"""Binary-weight primitives: Thue-Morse bits, evil/odious numbers, the master sequence.

The master sequence m is the alternate merge of the negated Thue-Morse
sequence with zeros: m(2k) = tbar(k), m(2k+1) = 0.  Every parity relation
checked elsewhere in this package is stated against m.

Each sequence has a ``*_terms(start, stop)`` window, the values at
n = start .. stop - 1, written on ``n.bit_count()``.  Its per-index scalar is
the window's one-term case.
"""

from __future__ import annotations

_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def binary_weight(n: int) -> int:
    """Number of 1-bits in the binary expansion of n."""
    if n < 0:
        raise ValueError(f"binary weight requires n >= 0, got {n}")
    return n.bit_count()


def thue_morse(n: int) -> int:
    """Thue-Morse bit t(n) = binary_weight(n) mod 2; 1 iff n is odious."""
    return binary_weight(n) & 1


def thue_morse_bar(n: int) -> int:
    """Negated Thue-Morse bit tbar(n) = 1 - t(n); 1 iff n is evil."""
    return 1 - thue_morse(n)


def evil(k: int) -> int:
    """The k-th evil number (1-indexed): the k-th n with even binary weight.

    Each pair {2j, 2j+1} contains exactly one evil and one odious number;
    the evil one is 2j + t(j), so no search is needed.
    """
    return evil_terms(k, k + 1)[0]


def odious(k: int) -> int:
    """The k-th odious number (1-indexed): the k-th n with odd binary weight."""
    return odious_terms(k, k + 1)[0]


def master_m(n: int) -> int:
    """Master sequence bit: m(2k) = tbar(k), m(2k+1) = 0."""
    return master_m_terms(n, n + 1)[0]


def a228495(n: int) -> int:
    """Characteristic bit of the odd odious numbers: 1 iff n is odd and odious."""
    return a228495_terms(n, n + 1)[0]


def thue_morse_terms(start: int, stop: int) -> list[int]:
    """Window of t, A010060."""
    if start < 0:
        raise ValueError(f"the Thue-Morse sequence is defined for n >= 0, got {start}")
    return [n.bit_count() & 1 for n in range(start, stop)]


def thue_morse_bar_terms(start: int, stop: int) -> list[int]:
    """Window of tbar, A010059."""
    if start < 0:
        raise ValueError(f"the negated Thue-Morse sequence is defined for n >= 0, got {start}")
    return [~n.bit_count() & 1 for n in range(start, stop)]


def evil_terms(start: int, stop: int) -> list[int]:
    """Window of the evil numbers, A001969: 2j + t(j) for j = k - 1."""
    if start < 1:
        raise ValueError(f"evil numbers are 1-indexed, got k={start}")
    return [2 * j + (j.bit_count() & 1) for j in range(start - 1, stop - 1)]


def odious_terms(start: int, stop: int) -> list[int]:
    """Window of the odious numbers, A000069: 2j + tbar(j) for j = k - 1."""
    if start < 1:
        raise ValueError(f"odious numbers are 1-indexed, got k={start}")
    return [2 * j + (~j.bit_count() & 1) for j in range(start - 1, stop - 1)]


def master_m_terms(start: int, stop: int) -> list[int]:
    """Window of m: 0 at odd n, and tbar(n/2) = tbar(n) at even n."""
    if start < 0:
        raise ValueError(f"master sequence is defined for n >= 0, got {start}")
    return [0 if n & 1 else ~n.bit_count() & 1 for n in range(start, stop)]


def a228495_terms(start: int, stop: int) -> list[int]:
    """Window of A228495: the low bits of n and of its binary weight, both set."""
    if start < 1:
        raise ValueError(f"a228495 is defined for n >= 1, got {start}")
    return [n & n.bit_count() & 1 for n in range(start, stop)]


def a048883_terms(start: int, stop: int) -> list[int]:
    """Window of A048883, 3 raised to the binary weight of n."""
    if start < 0:
        raise ValueError(f"a048883 is defined for n >= 0, got {start}")
    return [3 ** n.bit_count() for n in range(start, stop)]


def master_prefix(length: int) -> list[int]:
    """First `length` master-sequence bits as a list of ints, built by doubling.

    For a power of two L >= 2, m on [L, 2L) is m on [0, L) with every even
    position complemented: m(L + 2k) = tbar(L/2 + k) = 1 - tbar(k) for k < L/2.
    So the bits, packed into one int from m(0), m(1) = 1, 0, double in length
    with one XOR against the even-position mask, one shift and one OR.
    """
    word, size = 0b01, 2
    while size < length:
        word |= (word ^ ((1 << size) - 1) // 3) << size
        size <<= 1
    length = max(length, 0)
    digits = bin(word & ((1 << length) - 1))[:1:-1].encode().translate(_BIT_VALUES)
    return list(digits.ljust(length, b"\0")[:length])
