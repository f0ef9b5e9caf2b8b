"""Sequences built by re-reading binary digits in another base, and the wicked evil sequence."""

from __future__ import annotations

from array import array
from itertools import compress, count, islice
from math import isqrt
from operator import mul

from .parity import _FLIP, _thue_morse_bytes

#: Primes up to this bound are sieved onto a whole window at once; larger ones,
#: needed only above its square, are listed and applied one segment at a time.
_SIEVE_LIMIT = 1 << 16
#: The segment walk lists the primes below this bound and no further, so every
#: n below its square is factored, and a larger n only if it has a prime factor
#: below the bound.  A window holding any other n is refused: at the largest
#: prime below 2**48 the walk takes about a second, at one near 2**64 minutes.
_PRIME_REACH = 1 << 24


def _primes(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi), for lo >= 2: a bytearray sieve of Eratosthenes
    over the segment, struck by the primes up to sqrt(hi - 1) from p*p on."""
    if hi <= lo:
        return []
    width = hi - lo
    sieve = bytearray([1]) * width
    for p in _primes(2, isqrt(hi - 1) + 1):
        first = max(p * p, -(-lo // p) * p) - lo
        sieve[first::p] = bytes(len(range(first, width, p)))
    return list(compress(range(lo, hi), sieve))


def _spf_window(start: int, stop: int) -> array:
    """Smallest prime factor of each n in [start, stop), start >= 1, or 0 where
    n is 1 or prime.

    The even entries but n = 2's are filled with 2 from a repeated two-entry
    pattern, so no temporary half as wide as the window is held.  The odd
    primes up to min(sqrt(stop - 1), _SIEVE_LIMIT) are slice-assigned onto
    their odd multiples from p*p on, step 2p, largest prime first, so the
    smallest prime dividing an entry is the last to write it.  An entry above
    _SIEVE_LIMIT**2 still at 0 may have a larger factor; those few entries are
    settled by the primes above the limit in increasing order, one segment at
    a time, and the walk ends as soon as none is left that a larger prime could
    divide.  Memory is the window plus one segment, however large `stop` is.
    An entry of at least _PRIME_REACH**2 that no prime below _PRIME_REACH
    divides is a ValueError, raised once the window is allocated, so that a
    window too wide to allocate is a MemoryError first.
    """
    width = max(stop - start, 0)
    spf = array("Q", [0, 2] if start & 1 else [2, 0]) * ((width + 1) // 2)
    del spf[width:]
    if width == 0:
        return spf
    if start <= 2 < stop:
        spf[2 - start] = 0
    limit = min(isqrt(stop - 1), _SIEVE_LIMIT)
    for p in reversed(_primes(3, limit + 1)):
        first = max(p * p, (-(-start // p) | 1) * p) - start  # odd multiples only
        if first < width:
            spf[first :: 2 * p] = array("Q", [p]) * ((width - 1 - first) // (2 * p) + 1)
    lo = limit + 1
    pending = [i for i in range(max(lo * lo - start, 0), width) if not spf[i]]
    while pending and lo * lo <= start + pending[-1]:
        if lo >= _PRIME_REACH:
            k = _PRIME_REACH.bit_length() - 1
            raise ValueError(f"smallest prime factors are found below 2**{k} only, and "
                             f"n = {start + pending[-1]} >= 2**{2 * k} has none there")
        hi = min(lo + _SIEVE_LIMIT, isqrt(start + pending[-1]) + 1, _PRIME_REACH)
        for p in _primes(lo, hi):
            for i in range(max(p * p, -(-start // p) * p) - start, width, p):
                if not spf[i]:
                    spf[i] = p
        pending = [i for i in pending if not spf[i]]
        lo = hi
    return spf


def smallest_prime_factor(n: int) -> int:
    """Least prime dividing n (n >= 2): the one-term window of the sieve behind
    A092524, so a ValueError for an n >= 2**48 with no prime factor below 2**24."""
    if n < 2:
        raise ValueError(f"smallest prime factor requires n >= 2, got {n}")
    return _spf_window(n, n + 1)[0] or n


def reinterpret_binary(n: int, base: int) -> int:
    """Read the binary digits of n as digits of a base-`base` numeral.

    Horner's rule over the octal digits of n, exact for every base: each octal
    digit is three binary digits, so it steps by base**3 and adds the three
    digits read in base `base`.
    """
    if n < 0:
        raise ValueError(f"binary digits require n >= 0, got {n}")
    square = base * base
    table = (0, 1, base, base + 1, square, square + 1, square + base, square + base + 1)
    step = square * base
    total = 0
    for digit in format(n, "o").encode():
        total = total * step + table[digit - 48]  # 48 is ord("0")
    return total


def a092524_from_a104258(start: int, terms: list[int]) -> list[int]:
    """Turn the A104258 window at n = start .. start + len(terms) - 1 into the
    A092524 window on the same range, in place: an even n read in base 2 is n
    itself, an odd composite is read in its smallest prime factor, and a prime
    or n = 1, read in its own base, keeps A104258's value.  One index at a
    time, so no window-wide temporary is held beside the terms, and the even
    n are set before the sieve is allocated, so their A104258 values are gone
    by then; where the sieve refuses the window, they stay set."""
    for i in range(start & 1, len(terms), 2):
        terms[i] = start + i
    spf = _spf_window(start, start + len(terms))
    return _reread_odd_composites(start, terms, spf)


def _reread_odd_composites(start: int, terms: list[int], spf: array) -> list[int]:
    """Set each odd composite n of the window at start to its binary digits
    read in its smallest prime factor spf[n - start], in place; int() parses
    the bases up to 36."""
    first = 1 - (start & 1)
    for i, p in zip(count(first, 2), islice(spf, first, None, 2)):
        if p:
            n = start + i
            terms[i] = int(bin(n)[2:], p) if p <= 36 else reinterpret_binary(n, p)
    return terms


def a092524_terms(start: int, stop: int) -> list[int]:
    """A092524 at n = start .. stop - 1, from one smallest-prime-factor sieve of
    the window: n at even n, A104258's value at the primes and n = 1, and the
    odd composites read as in a092524_from_a104258."""
    if start < 1:
        raise ValueError(f"a092524 is defined for n >= 1, got {start}")
    spf = _spf_window(start, stop)
    terms = [n if p else reinterpret_binary(n, n) for n, p in zip(range(start, stop), spf)]
    return _reread_odd_composites(start, terms, spf)


def a092524(n: int) -> int:
    """Binary expansion of n re-read in base p, p the smallest prime factor of n.

    n = 1 has no prime factor; any base reads the single digit "1" as 1.
    """
    return a092524_terms(n, n + 1)[0]


def a104258(n: int) -> int:
    """Binary expansion of n re-read in base n."""
    return a104258_terms(n, n + 1)[0]


def a104258_terms(start: int, stop: int) -> list[int]:
    """Window of a104258."""
    if start < 1:
        raise ValueError(f"a104258 is defined for n >= 1, got {start}")
    return [reinterpret_binary(n, n) for n in range(start, stop)]


def a102393(n: int) -> int:
    """The wicked evil sequence: n + 1 at evil positions, 0 at odious ones."""
    return a102393_terms(n, n + 1)[0]


def a102393_terms(start: int, stop: int) -> list[int]:
    """Window of a102393: n + 1 where the binary weight of n is even, else 0."""
    if start < 0:
        raise ValueError(f"a102393 is defined for n >= 0, got {start}")
    evil = _thue_morse_bytes(start, stop).translate(_FLIP)
    return list(map(mul, range(start + 1, stop + 1), evil))
