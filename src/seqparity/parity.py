"""Binary-weight primitives: Thue-Morse bits, evil/odious numbers, the master sequence.

The master sequence m is the alternate merge of the negated Thue-Morse
sequence with zeros: m(2k) = tbar(k), m(2k+1) = 0.  Every parity relation
checked elsewhere in this package is stated against m.

Every window of t, tbar or m, here and in the modules that import it, reads
t from `_thue_morse_bytes`.
"""

from __future__ import annotations

from operator import add

_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


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


def _thue_morse_bytes(start: int, stop: int) -> bytes:
    """t(n) for n = start .. stop - 1 (start >= 0), one byte of 0 or 1 each.

    A block of t on [0, L), for L the least power of two at or above the
    width, is doubled from one byte: t on [L, 2L) is t on [0, L) flipped.  As
    t(jL + i) = t(j) XOR t(i) for i < L, t on [jL, (j+1)L) is the block,
    flipped when t(j) = 1.  With j = start // L the window lies in blocks j
    and j + 1, the second flipped when t(j + 1) = 1, so a window near 2**200
    costs what one near 0 does.
    """
    width = max(stop - start, 0)
    block = b"\0"
    while len(block) < width:
        block += block.translate(_FLIP)
    j, i = divmod(start, len(block))
    window = block.translate(_FLIP) if thue_morse(j) else block
    if i + width > len(block):
        window += block.translate(_FLIP) if thue_morse(j + 1) else block
    return window[i : i + width]


def thue_morse_terms(start: int, stop: int) -> list[int]:
    """Window of t, A010060."""
    if start < 0:
        raise ValueError(f"the Thue-Morse sequence is defined for n >= 0, got {start}")
    return list(_thue_morse_bytes(start, stop))


def thue_morse_bar_terms(start: int, stop: int) -> list[int]:
    """Window of tbar, A010059."""
    if start < 0:
        raise ValueError(f"the negated Thue-Morse sequence is defined for n >= 0, got {start}")
    return list(_thue_morse_bytes(start, stop).translate(_FLIP))


def evil_terms(start: int, stop: int) -> list[int]:
    """Window of the evil numbers, A001969: 2j + t(j) for j = k - 1."""
    if start < 1:
        raise ValueError(f"evil numbers are 1-indexed, got k={start}")
    evens = range(2 * start - 2, 2 * stop - 2, 2)
    return list(map(add, evens, _thue_morse_bytes(start - 1, stop - 1)))


def odious_terms(start: int, stop: int) -> list[int]:
    """Window of the odious numbers, A000069: 2j + tbar(j) for j = k - 1."""
    if start < 1:
        raise ValueError(f"odious numbers are 1-indexed, got k={start}")
    evens = range(2 * start - 2, 2 * stop - 2, 2)
    return list(map(add, evens, _thue_morse_bytes(start - 1, stop - 1).translate(_FLIP)))


def master_m_terms(start: int, stop: int) -> list[int]:
    """Window of m: tbar(k) spread to the even positions n = 2k, 0 between."""
    if start < 0:
        raise ValueError(f"master sequence is defined for n >= 0, got {start}")
    out = bytearray(max(stop - start, 0))
    out[start & 1 :: 2] = _thue_morse_bytes((start + 1) // 2, (stop + 1) // 2).translate(_FLIP)
    return list(out)


def a228495_terms(start: int, stop: int) -> list[int]:
    """Window of A228495: t(n) at odd n, 0 at even n."""
    if start < 1:
        raise ValueError(f"a228495 is defined for n >= 1, got {start}")
    out = bytearray(_thue_morse_bytes(start, stop))
    out[start & 1 :: 2] = bytes(len(range(start & 1, len(out), 2)))
    return list(out)


def a048883_terms(start: int, stop: int) -> list[int]:
    """Window of A048883, 3 raised to the binary weight of n."""
    if start < 0:
        raise ValueError(f"a048883 is defined for n >= 0, got {start}")
    return [3 ** n.bit_count() for n in range(start, stop)]


def master_prefix(length: int) -> list[int]:
    """First `length` master-sequence bits as a list of ints: the window of m from 0."""
    return master_m_terms(0, max(length, 0))
