"""Sums of lcm-window quotients in exact arithmetic, plus their 2-adic parity shortcut.

a061297(n) sums q_r = lcm(n, n-1, ..., n-r+1) / lcm(1, 2, ..., r) over
r = 0..n; the empty window has lcm 1.  Every prime power P <= r divides one of
any r consecutive integers, so lcm(1..r) divides the window lcm and every
summand is an exact integer.  The sum is taken in its prime-power event form:
q_r changes only where a prime power enters the window or the base, so the
walk does about two small multiply/divide steps per prime power up to n and
adds each run of equal summands at once.  Parity questions are answered
separately via 2-adic valuations without any big-integer work.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt

from .parity import binary_weight


def a061297(n: int) -> int:
    """Sum over r = 0..n of lcm(n, ..., n-r+1) // lcm(1, ..., r), exactly.

    For a prime power P = p**j <= n the window {n-r+1, ..., n} holds a multiple
    of P exactly when n mod P < r, and {1, ..., r} holds P exactly when P <= r.
    So the summand gains a factor p at r = n mod P + 1 and loses it at r = P;
    between events it is constant, and each run of equal summands is added in
    one multiplication.
    """
    if n < 0:
        raise ValueError(f"a061297 is defined for n >= 0, got {n}")
    sieve = bytearray(2) + bytearray([1]) * (n - 1)  # sieve[k]: k is prime
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    gains: dict[int, int] = {}  # r -> product of the primes gained at r
    losses: dict[int, int] = {}  # r -> the prime lost at r (r is a power of it)
    for p in compress(range(n + 1), sieve):
        power = p
        while power <= n:
            gain = n % power + 1
            if gain != power:  # n = -1 (mod P): gain and loss cancel
                gains[gain] = gains.get(gain, 1) * p
                losses[power] = p
            power *= p
    total = 1  # r = 0: empty window over empty base
    q = 1  # the summand on the current run, which starts at r
    r = 1
    for event in sorted(gains.keys() | losses.keys()):
        total += q * (event - r)
        q = q * gains.get(event, 1) // losses.get(event, 1)
        r = event
    return total + q * (n + 1 - r)


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
