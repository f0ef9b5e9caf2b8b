"""Sequences built by re-reading binary digits in another base, and the wicked evil sequence."""

from __future__ import annotations

from array import array
from itertools import compress
from math import isqrt
from operator import mul

from .parity import _FLIP, _thue_morse_bytes

#: Primes up to this bound are sieved onto a whole window at once; larger ones,
#: needed only above its square, are listed and applied one segment at a time.
_SIEVE_LIMIT = 1 << 16


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

    The primes up to min(sqrt(stop - 1), _SIEVE_LIMIT) are slice-assigned onto
    their multiples from p*p on, largest prime first, so the smallest prime
    dividing an entry is the last to write it.  An entry above _SIEVE_LIMIT**2
    still at 0 may have a larger factor; those few entries are settled by the
    primes above the limit in increasing order, one segment at a time, and the
    walk ends as soon as none is left that a larger prime could divide.  Memory
    is the window plus one segment, however large `stop` is.
    """
    width = max(stop - start, 0)
    spf = array("Q", [0]) * width
    if width == 0:
        return spf
    limit = min(isqrt(stop - 1), _SIEVE_LIMIT)
    for p in reversed(_primes(2, limit + 1)):
        first = max(p * p, -(-start // p) * p) - start
        if first < width:
            spf[first::p] = array("Q", [p]) * ((width - 1 - first) // p + 1)
    lo = limit + 1
    pending = [i for i in range(max(lo * lo - start, 0), width) if not spf[i]]
    while pending and lo * lo <= start + pending[-1]:
        hi = min(lo + _SIEVE_LIMIT, isqrt(start + pending[-1]) + 1)
        for p in _primes(lo, hi):
            for i in range(max(p * p, -(-start // p) * p) - start, width, p):
                if not spf[i]:
                    spf[i] = p
        pending = [i for i in pending if not spf[i]]
        lo = hi
    return spf


def smallest_prime_factor(n: int) -> int:
    """Least prime dividing n (n >= 2): the one-term window of the sieve behind A092524."""
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


def a092524_terms(start: int, stop: int) -> list[int]:
    """A092524 at n = start .. stop - 1, from one smallest-prime-factor sieve of the window."""
    if start < 1:
        raise ValueError(f"a092524 is defined for n >= 1, got {start}")
    spf = _spf_window(start, stop)
    # an even n read in base 2 is n itself, and a base int() parses is read
    # inline; an entry left at 0 is a prime, read in its own base, or n = 1,
    # which any base reads as 1
    return [
        n if not n & 1
        else int(format(n, "b"), p) if 3 <= p <= 36
        else reinterpret_binary(n, p or n)
        for n, p in zip(range(start, stop), spf)
    ]


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
