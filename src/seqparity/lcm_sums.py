"""Sums of lcm-window quotients in exact arithmetic, plus their 2-adic parity shortcut.

a061297(n) sums q_r = lcm(n, n-1, ..., n-r+1) / lcm(1, 2, ..., r) over
r = 0..n; the empty window has lcm 1.  Every prime power P <= r divides one of
any r consecutive integers, so lcm(1..r) divides the window lcm and every
summand is an exact integer.  a093431(n) is the same sum over r = 1..n.

The sum splits at h = ceil(n/2): its upper half depends on n alone and is
carried from one n to the next, and its lower half is walked in prime-power
event form or stepped from n - 1 to n, as `_a061297_window` describes.  The
module keeps nothing between calls: each call walks its own window, and the
caller holds what it returns.

Parity questions are answered separately via 2-adic valuations without any
big-integer work.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import mul

from .digits import _primes, _spf_window
from .parity import binary_weight

#: n from which a window walks every n: past about n = 9000 a step, which
#: streams through a summand list of several MB, costs more than a walk (4.6
#: against 3.6 ms per n at 12288).
_STEP_LIMIT = 8192


def _prime_power_divisors(n: int, spf) -> list[int]:
    """The prime powers dividing n >= 1, in increasing order, with spf[m - 1]
    the smallest prime factor of m (0 for a prime or 1), as `_spf_window(1, stop)`
    gives it for m < stop."""
    out = []
    while n > 1:
        p = spf[n - 1] or n
        power = p
        while not n % p:
            n //= p
            out.append(power)
            power *= p
    out.sort()
    return out


def _a061297_window(start: int, stop: int) -> list[int]:
    """a061297(n) for n = start .. stop - 1 (start >= 0), from one table of the
    prime powers below stop, whose primes come from `digits._primes`.

    For a prime power P = p**j <= n the window {n-r+1, ..., n} holds a multiple
    of P exactly when n mod P < r, and {1, ..., r} holds P exactly when P <= r.
    So the summand gains a factor p at r = n mod P + 1 and loses it at r = P;
    between events it is constant, and each run of equal summands is added in
    one multiplication.  Where n = -1 (mod P) the gain and the loss fall on the
    same event and cancel.  A walk thus does about one small multiply or
    divide per prime power up to n and one per prime power below n/2.

    The walk covers r < h = ceil(n/2) only.  For r >= h the window holds all
    of (r, n], since n - r <= r, so the summand is L(n)/L(r), with
    L(x) = lcm(1..x), and depends on n alone.  With Lambda(k) = p at a prime
    power k = p**j, else 1 (the `loss` table), that upper half
    V = sum_{r=h..n} L(n)/L(r) and B = L(n)/L(h) step from n-1 to n as
        n even: V = Lambda(n)*V + 1,        B = Lambda(n)*B;
        n odd:  V = Lambda(n)*(V - B) + 1,  B = Lambda(n)*B // Lambda(h),
    since h grows by one at odd n and drops the r = h - 1 summand, which is B.
    At the window's first n one pass down the prime powers in (h, n] gives
    both: B is the running product of their primes, and V adds that product
    once for each r between them, Horner's rule read backward.

    A window at least a sixth as wide as its stop walks its first n only, and
    keeps the walk's runs as the list of lower summands q_0..q_{h-1}.  Each
    later n below _STEP_LIMIT steps that list, as the window of r+1 at n is
    the window of r at n-1 plus {n}:
        q_{r+1}(n) = q_r(n-1) * g_r / Lambda(r+1).
    A q_0 = 1 goes in front, and at even n, where h does not grow, the last
    entry leaves the lower half.  g_r = n / gcd(n, L(r)) is the product of p
    over the prime powers P = p**j dividing n with P > r (n is factored with
    `digits._spf_window`), so g_r = n for r < P_1, the least such P, and each
    P passed drops its p: list index r takes g_{r-1}, one slice at a time up
    to the largest of them.  Each prime-power index P < h is then divided by
    its p; the product before it is exact.  The lower sum moves by (g - 1)
    times each slice's old sum and by each quotient's change, so the other
    summands are not added again.  Narrower windows, one term included, walk
    every n.
    """
    try:
        loss = [1] * stop  # loss[P] = p at each prime power P = p**j below stop
    except MemoryError:  # a size refused outright, such as one near sys.maxsize
        raise ValueError(
            f"the lcm sums' tables up to n = {stop - 1} do not fit in memory") from None
    for p in _primes(2, stop):
        power = p
        while power < stop:
            loss[power] = p
            power *= p
    powers = [P for P, p in enumerate(loss) if p != 1]  # increasing
    primes = [loss[P] for P in powers]
    h = (start + 1) // 2
    upper = 0  # V at n = start, by Horner down the prime powers in (h, start]
    base = 1  # L(start)/L(r) for r from start down to h, so B at the end
    r = start
    for P in reversed(powers[bisect_right(powers, h) : bisect_right(powers, start)]):
        upper += base * (r + 1 - P)  # the summands for r' in [P, r]
        base *= loss[P]
        r = P - 1
    upper += base * (r + 1 - h)
    # n in (start, step_stop) steps from n - 1 to n: only where the list of
    # about n**2/4 bits (0.285 n**2) is no larger than the window's terms in
    # decimal (1.8 n bits a term), so a narrow window such as one term walks
    # every n, and below _STEP_LIMIT
    step_stop = min(stop, _STEP_LIMIT) if 6 * (stop - start) >= stop else start
    spf = _spf_window(1, step_stop) if step_stop > start + 1 else None
    gain = [1] * stop  # per walked n: product of the primes gained at each r < h
    summands: list[int] = []  # q_r for r < h, from n - 1 to n while stepping
    out = []
    for n in range(start, stop):
        if n > start:
            h = (n + 1) // 2
            if n & 1:
                upper = loss[n] * (upper - base) + 1
                base = loss[n] * base // loss[h]
            else:
                upper = loss[n] * upper + 1
                base *= loss[n]
        if start < n < step_stop:
            if not n & 1:  # r = h - 1 at n - 1 is r = h at n
                lower -= summands.pop()
            summands.insert(0, 1)
            lower += 1
            factor = n  # g_{r-1} for the slice of list indices from r on
            r = 1
            for P in _prime_power_divisors(n, spf):
                if r >= h:
                    break
                lower += sum(summands[r : P + 1]) * (factor - 1)
                summands[r : P + 1] = map(mul, summands[r : P + 1], repeat(factor))
                factor //= loss[P]
                r = P + 1
            for P, p in zip(powers[: bisect_left(powers, h)], primes):
                q = summands[P]
                summands[P] = q // p
                lower -= q - summands[P]
        else:
            window = powers[: bisect_right(powers, n)]
            events = set(powers[: bisect_left(powers, h)])  # the losses below h
            for P, p in zip(window, primes):
                pos = n % P + 1
                if pos < h:
                    gain[pos] *= p
                    events.add(pos)
            total = q = r = 1  # r = 0 summand; the run of summand q starts at r
            keep = n + 1 < step_stop  # the next n steps from this one's summands
            summands = [1] if keep else []
            for event in sorted(events):
                total += q * (event - r)
                if keep:
                    summands += [q] * (event - r)
                if gain[event] != 1:  # multiplying by 1 is a pass over q as well
                    q *= gain[event]
                    gain[event] = 1
                if loss[event] != 1:  # even a division by 1 is a pass over q
                    q //= loss[event]
                r = event
            # the last run ends at h; at n = 0, h = 0 and it takes back the r = 0
            # summand, which V holds
            lower = total + q * (h - r)
            if keep:
                summands += [q] * (h - r)
                del summands[h:]  # at n = 0 the list is empty
        out.append(lower + upper)
    return out


def a061297_terms(start: int, stop: int) -> list[int]:
    """a061297(n) for n = start .. stop - 1, walked by _a061297_window.

    A stop past sys.maxsize is a one-line ValueError, and so below it are
    tables the allocator refuses outright, as it does near sys.maxsize."""
    if start < 0:
        raise ValueError(f"a061297 is defined for n >= 0, got {start}")
    if stop > sys.maxsize:  # the tables are lists indexed by n
        raise ValueError(f"the lcm sums are computed for n < sys.maxsize = {sys.maxsize}, "
                         f"got n = {stop - 1}")
    return _a061297_window(start, stop) if start < stop else []  # an empty range builds no tables


def a061297(n: int) -> int:
    """Sum over r = 0..n of lcm(n, ..., n-r+1) // lcm(1, ..., r), exactly:
    the one-term window of a061297_terms."""
    return a061297_terms(n, n + 1)[0]


def a093431_from_a061297(start: int, terms: list[int]) -> list[int]:
    """Turn an a061297 window into the a093431 window on the same range, in
    place: each term less its r = 0 summand, 1."""
    for i, v in enumerate(terms):
        terms[i] = v - 1
    return terms


def a093431_terms(start: int, stop: int) -> list[int]:
    """a093431(n) for n = start .. stop - 1: the a061297 window turned by
    a093431_from_a061297."""
    if start < 1:
        raise ValueError(f"a093431 is defined for n >= 1, got {start}")
    return a093431_from_a061297(start, a061297_terms(start, stop))


def a093431(n: int) -> int:
    """Same sum as a061297 but starting at r = 1: the one-term window of a093431_terms."""
    return a093431_terms(n, n + 1)[0]


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
