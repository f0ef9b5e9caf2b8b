"""Sums of lcm-window quotients in exact arithmetic, plus their 2-adic parity shortcut.

a061297(n) sums q_r = lcm(n, n-1, ..., n-r+1) / lcm(1, 2, ..., r) over
r = 0..n; the empty window has lcm 1.  Every prime power P <= r divides one of
any r consecutive integers, so lcm(1..r) divides the window lcm and every
summand is an exact integer.  The sum is taken in its prime-power event form:
q_r changes only where a prime power enters the window or the base, so the
walk does about two small multiply/divide steps per prime power up to n and
adds each run of equal summands at once.  A range of n shares one sieve and
one table of prime powers; the prime powers up to each n are a prefix of it.
Parity questions are answered separately via 2-adic valuations without any
big-integer work.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from math import isqrt

from .parity import binary_weight


def a061297_terms(start: int, stop: int) -> list[int]:
    """a061297(n) for n = start .. stop - 1, from one prime-power table of the window.

    For a prime power P = p**j <= n the window {n-r+1, ..., n} holds a multiple
    of P exactly when n mod P < r, and {1, ..., r} holds P exactly when P <= r.
    So the summand gains a factor p at r = n mod P + 1 and loses it at r = P;
    between events it is constant, and each run of equal summands is added in
    one multiplication.  Where n = -1 (mod P) the gain and the loss fall on the
    same event and cancel.
    """
    if start < 0:
        raise ValueError(f"a061297 is defined for n >= 0, got {start}")
    if stop <= start:
        return []
    sieve = bytearray(2) + bytearray([1]) * (stop - 2)  # sieve[k]: k is prime
    for p in range(2, isqrt(stop - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, stop, p)))
    loss = [1] * stop  # loss[P] = p at each prime power P = p**j below stop
    for p in compress(range(stop), sieve):
        power = p
        while power < stop:
            loss[power] = p
            power *= p
    powers = [P for P, p in enumerate(loss) if p != 1]  # increasing
    primes = [loss[P] for P in powers]
    gain = [1] * stop  # per n: product of the primes gained at each r
    out = []
    for n in range(start, stop):
        window = powers[: bisect_right(powers, n)]
        positions = [n % P + 1 for P in window]
        for pos, p in zip(positions, primes):
            gain[pos] *= p
        total = q = r = 1  # r = 0 summand; the run of summand q starts at r
        for event in sorted(set(positions).union(window)):
            total += q * (event - r)
            q *= gain[event]
            gain[event] = 1
            if loss[event] != 1:  # even a division by 1 is a pass over q
                q //= loss[event]
            r = event
        out.append(total + q * (n + 1 - r))
    return out


def a061297(n: int) -> int:
    """Sum over r = 0..n of lcm(n, ..., n-r+1) // lcm(1, ..., r), exactly:
    the one-term window of a061297_terms."""
    return a061297_terms(n, n + 1)[0]


def a093431_terms(start: int, stop: int) -> list[int]:
    """a093431(n) for n = start .. stop - 1: the a061297 window less its r = 0 summand."""
    if start < 1:
        raise ValueError(f"a093431 is defined for n >= 1, got {start}")
    return [v - 1 for v in a061297_terms(start, stop)]


def a093431(n: int) -> int:
    """Same sum as a061297 but starting at r = 1; the r = 0 summand is 1."""
    if n < 1:
        raise ValueError(f"a093431 is defined for n >= 1, got {n}")
    return a061297(n) - 1


def a061297_parity_shortcut(n: int) -> int:
    """Parity of a061297(n) with no big-integer arithmetic.

    Odd n pair up even contributions, giving 0.  For even n the count of odd
    summands is binary_weight(n/2) + 1.
    """
    if n < 0:
        raise ValueError(f"a061297 is defined for n >= 0, got {n}")
    if n & 1:
        return 0
    return (binary_weight(n // 2) + 1) & 1
