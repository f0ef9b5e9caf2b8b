"""Independent routes that the tests compare the package's generators against.

None of this ships in seqparity: each function is a deliberately naive or
differently derived evaluation of a quantity the package computes by its one
production route.  Binary words are plain strings over {"0", "1"}.  The one
measuring helper, `traced_peak`, serves the memory pins.
"""

from __future__ import annotations

import argparse
import tracemalloc
from dataclasses import dataclass
from itertools import accumulate
from math import lcm
from typing import Iterable, Mapping

from seqparity import __version__, cli
from seqparity.parity import thue_morse, thue_morse_bar


def traced_peak(func, *args):
    """What func returns, and the peak of memory tracemalloc saw it hold."""
    tracemalloc.start()
    try:
        result = func(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def as_word(bits: Iterable[int]) -> str:
    """The 0/1 string of a sequence of bits, e.g. a prefix from the catalogue."""
    return "".join(map(str, bits))


@dataclass(frozen=True)
class Morphism:
    """A substitution on fixed-size blocks of symbols.

    block_length 1 gives an ordinary letter morphism; block_length 2 rewrites
    non-overlapping symbol pairs.
    """

    block_length: int
    rules: Mapping[str, str]

    def __post_init__(self) -> None:
        if self.block_length < 1:
            raise ValueError(f"block_length must be positive, got {self.block_length}")


#: Letter morphism 0 -> 01, 1 -> 10; the Thue-Morse word is its fixed point.
THUE_MORSE_MORPHISM = Morphism(1, {"0": "01", "1": "10"})

#: Pair morphism 00 -> 0010, 10 -> 1000; the master word is its fixed point.
MASTER_MORPHISM = Morphism(2, {"00": "0010", "10": "1000"})


def apply_morphism(word: str, morphism: Morphism) -> str:
    """Rewrite consecutive non-overlapping blocks of `word` by the morphism rules.

    Example:
        >>> apply_morphism("01", THUE_MORSE_MORPHISM)
        '0110'
        >>> apply_morphism("1000", MASTER_MORPHISM)
        '10000010'
    """
    size = morphism.block_length
    if len(word) % size != 0:
        raise ValueError(
            f"word length {len(word)} is not divisible by block length {size}"
        )
    pieces = []
    for i in range(0, len(word), size):
        block = word[i : i + size]
        try:
            pieces.append(morphism.rules[block])
        except KeyError:
            raise ValueError(f"no rule for block {block!r} at position {i}") from None
    return "".join(pieces)


def thue_morse_by_morphism(n: int) -> int:
    """t(n) read off the fixed point of THUE_MORSE_MORPHISM, with no binary weight.

    The fixed point w is its own image, so w[n] is the letter at n % 2 of the
    image of w[n // 2]: the walk from w[0] = "0" follows the binary digits of n
    from the top, one rule per digit.
    """
    if n < 0:
        raise ValueError(f"the Thue-Morse sequence is defined for n >= 0, got {n}")
    rules, letter = THUE_MORSE_MORPHISM.rules, "0"
    for digit in format(n, "b"):
        letter = rules[letter][digit == "1"]
    return int(letter)


def evil_by_pairs(k: int) -> int:
    """The k-th evil number (1-indexed) as the member of the pair {2j, 2j + 1},
    j = k - 1, whose Thue-Morse letter is 0.

    t(2j + 1) = 1 - t(2j), so each pair holds one evil and one odious number,
    and the k-th evil number is the one in the k-th pair.
    """
    if k < 1:
        raise ValueError(f"evil numbers are 1-indexed, got k={k}")
    n = 2 * (k - 1)
    return n if thue_morse_by_morphism(n) == 0 else n + 1


def odious_by_pairs(k: int) -> int:
    """The k-th odious number (1-indexed): the other member of evil_by_pairs's
    pair {2j, 2j + 1}, whose two members sum to 4j + 1."""
    return 4 * (k - 1) + 1 - evil_by_pairs(k)


def a048883_by_halving(n: int) -> int:
    """3 to the binary weight of n by the recurrence a(0) = 1, a(2n) = a(n),
    a(2n + 1) = 3a(n), unrolled over the binary digits of n."""
    if n < 0:
        raise ValueError(f"a048883 is defined for n >= 0, got {n}")
    value = 1
    while n:
        if n & 1:
            value *= 3
        n >>= 1
    return value


def a128975_by_ordered_count(n: int) -> int:
    """A128975 from the ordered P-positions: an even n >= 2 has a048883(n/2)
    ordered triples (a, b, c) with a + b + c = n and a ^ b ^ c = 0.  Three of
    them hold a zero heap, (0, n/2, n/2) in each order, and every triple of
    non-zero heaps has three distinct heaps, so it is counted six times.  An odd
    n has none, as a ^ b ^ c has the parity of a + b + c."""
    if n < 1:
        raise ValueError(f"a128975 is defined for n >= 1, got {n}")
    return 0 if n & 1 else (a048883_by_halving(n // 2) - 3) // 6


def max_run(word: str, symbol: str) -> int:
    """Length of the longest run of `symbol` in `word`."""
    best = 0
    run = 0
    for ch in word:
        if ch == symbol:
            run += 1
            if run > best:
                best = run
        else:
            run = 0
    return best


def has_cube(word: str, max_block: int) -> bool:
    """True iff `word` contains a factor xxx with 1 <= len(x) <= max_block.

    For each candidate period, a cube is equivalent to word[j] == word[j + period]
    holding at 2*period consecutive positions, so one linear scan per period
    suffices.
    """
    if max_block < 1:
        raise ValueError(f"max_block must be positive, got {max_block}")
    n = len(word)
    for period in range(1, min(max_block, n // 3) + 1):
        run = 0
        for j in range(n - period):
            if word[j] == word[j + period]:
                run += 1
                if run >= 2 * period:
                    return True
            else:
                run = 0
    return False


def smallest_prime_factor_trial(n: int) -> int:
    """Least prime dividing n (n >= 2), by trial division up to sqrt(n)."""
    if n < 2:
        raise ValueError(f"smallest prime factor requires n >= 2, got {n}")
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def binary_digits(n: int) -> list[int]:
    """Binary digits of n, least significant first; empty for n = 0."""
    if n < 0:
        raise ValueError(f"binary digits require n >= 0, got {n}")
    bits = []
    while n:
        bits.append(n & 1)
        n >>= 1
    return bits


def reinterpret_binary_by_powers(n: int, base: int) -> int:
    """The binary digits of n read in base `base`, summing base**i over the set bits i."""
    total = 0
    power = 1
    for bit in binary_digits(n):
        if bit:
            total += power
        power *= base
    return total


def ordered_p_count_bruteforce(n: int) -> int:
    """Count ordered (a, b, c), all >= 0, with a+b+c == n and a^b^c == 0.

    c is forced to a^b, so the full (a, b) grid is scanned and the sum tested.
    """
    if n < 0:
        raise ValueError(f"counter total must be non-negative, got {n}")
    count = 0
    for a in range(n + 1):
        for b in range(n + 1):
            if a + b + (a ^ b) == n:
                count += 1
    return count


def a128975_bruteforce(n: int) -> int:
    """Count triples a < b < c, all >= 1, with a+b+c == n and a^b^c == 0.

    Two equal heaps would force the third to zero, so strictly increasing
    triples are exhaustive for the non-zero-heap count.
    """
    if n < 1:
        raise ValueError(f"a128975 is defined for n >= 1, got {n}")
    count = 0
    for a in range(1, n // 3 + 1):
        for b in range(a + 1, n + 1):
            c = a ^ b
            if c > b and a + b + c == n:
                count += 1
    return count


def a003071_simulate(n: int) -> int:
    """Comparison total from a round-based merge schedule; must agree with a003071.

    Starts from n single-element lists; each round merges neighbours in pairs
    (an odd list carries over) and a merge of sizes (p, q) charges p + q - 1.
    """
    if n < 1:
        raise ValueError(f"a003071 is defined for n >= 1, got {n}")
    sizes = [1] * n
    total = 0
    while len(sizes) > 1:
        merged = []
        i = 0
        while i + 1 < len(sizes):
            p, q = sizes[i], sizes[i + 1]
            total += p + q - 1
            merged.append(p + q)
            i += 2
        if i < len(sizes):
            merged.append(sizes[i])
        sizes = merged
    return total


def a003071_suffix_sum(n: int) -> int:
    """A003071 at n as a sum over the suffixes of n, one set bit at a time.

    The merge rule a(2**k + x) = a(2**k) + a(x) + 2**k + x - 1, with
    a(2**k) = (k-1) * 2**k + 1, peels one set bit of n per merge.  Let the
    suffixes m of n be n, then n with its top bit cleared, and so on down to
    lowbit(n), and let k = m.bit_length() - 1.  Each suffix adds
    (k-1) * 2**k + 1, and each but the last a merge cost m - 1.  The 2**k sum to
    n, so a(n) = 1 - n - lowbit(n) + sum of (m + k * 2**k).
    """
    if n < 1:
        raise ValueError(f"a003071 is defined for n >= 1, got {n}")
    total = 1 - n - (n & -n)
    while n:
        k = n.bit_length() - 1
        total += n + (k << k)
        n ^= 1 << k
    return total


def a001855_by_blocks(n: int) -> int:
    """Binary-insertion comparisons, the sum of ceil(log2 k) over k = 1..n, taken
    one block at a time: the 2**(j-1) values 2**(j-1) < k <= 2**j cost j each."""
    if n < 1:
        raise ValueError(f"a001855 is defined for n >= 1, got {n}")
    total, cost, low = 0, 1, 1
    while low < n:
        total += cost * (min(2 * low, n) - low)
        cost, low = cost + 1, 2 * low
    return total


def a113474_by_halving(n: int) -> int:
    """a113474 at n by its recursion a(n) = a(n//2) + n//2, a(1) = 1, unrolled."""
    if n < 1:
        raise ValueError(f"a113474 is defined for n >= 1, got {n}")
    value = 1
    while n > 1:
        n //= 2
        value += n
    return value


def a101925_by_halving(k: int) -> int:
    """a101925 at k by its recursion b(k) = b(k//2) + k, b(0) = 1, unrolled."""
    if k < 0:
        raise ValueError(f"a101925 is defined for k >= 0, got {k}")
    value = 1
    while k:
        value += k
        k //= 2
    return value


def two_adic_valuation_of_factorial(n: int) -> int:
    """v2(n!) by Legendre's formula, the sum of floor(n / 2**j) over j >= 1."""
    if n < 0:
        raise ValueError(f"factorials are defined for n >= 0, got {n}")
    total = 0
    while n:
        n //= 2
        total += n
    return total


def a092524_by_trial(n: int) -> int:
    """A092524 at n: the binary digits of n summed as powers of its smallest
    prime factor, found by trial division; any base reads n = 1 as 1."""
    if n < 1:
        raise ValueError(f"a092524 is defined for n >= 1, got {n}")
    return 1 if n == 1 else reinterpret_binary_by_powers(n, smallest_prime_factor_trial(n))


def a113474_prefix(count: int) -> list[int]:
    """First `count` terms of a113474 (indices 1..count) by the recursion
    a(n) = a(n//2) + n//2, a(1) = 1."""
    values = [0] * (count + 1)
    if count >= 1:
        values[1] = 1
    for i in range(2, count + 1):
        values[i] = values[i // 2] + i // 2
    return values[1:]


def a122248_prefix(count: int) -> list[int]:
    """First `count` terms of A122248 (indices 0..count-1), the partial sums of
    a113474: a(0) = 0, a(n) = a113474(1) + ... + a113474(n)."""
    return list(accumulate(a113474_prefix(count - 1), initial=0))[:count]


def a122248_by_weights(n: int) -> int:
    """A122248 at n from its unrolled form n(n+1)/2 + n - sum of binary weights,
    the weights counted one integer k <= n at a time."""
    if n < 0:
        raise ValueError(f"a122248 is defined for n >= 0, got {n}")
    return n * (n + 1) // 2 + n - sum(bin(k).count("1") for k in range(n + 1))


def a247303_prefix(count: int) -> list[int]:
    """First `count` terms of A247303 by the halving recurrence, as one prefix
    that feeds on its own earlier terms: a(2k) = a(k) + a(k-1) + [k odd] s(k),
    a(2k+1) = k + 1 - 2a(k) + [k even] s(k), with s(k) = 1 - 2t(k)."""
    if count <= 0:
        return []
    terms = [1, 0]
    for k in range(1, (count + 1) // 2):
        s, odd = 1 - 2 * thue_morse(k), k & 1
        terms.append(terms[k] + terms[k - 1] + odd * s)
        terms.append(k + 1 - 2 * terms[k] + (1 - odd) * s)
    return terms[:count]


def a029886_prefix(count: int) -> list[int]:
    """First `count` terms of A029886 as the A247303 prefix plus 2n + 4t(n) at
    even n and 2(n+1) at odd n."""
    return [
        a + 2 * n + (2 if n & 1 else 4 * thue_morse(n))
        for n, a in enumerate(a247303_prefix(count))
    ]


def thue_morse_pair_counts(n: int) -> list[list[int]]:
    """counts[p][q] = #{i in [0, n] : t(i) = p and t(n - i) = q}.

    A digit walk over the bits of n from the lowest, carrying the addition
    i + j = n: each state is (carry, t(i) so far, t(j) so far), and a pair of
    bits (x, y) is allowed where x + y + carry has the bit of n.  So a term
    at any n costs O(log n) steps, with no halving recurrence.
    """
    if n < 0:
        raise ValueError(f"the convolutions are defined for n >= 0, got {n}")
    states = {(0, 0, 0): 1}
    for b in range(n.bit_length()):
        bit = (n >> b) & 1
        nxt: dict[tuple[int, int, int], int] = {}
        for (carry, p, q), ways in states.items():
            for x in (0, 1):
                for y in (0, 1):
                    total = x + y + carry
                    if total & 1 == bit:
                        key = (total >> 1, p ^ x, q ^ y)
                        nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    counts = [[0, 0], [0, 0]]
    for (carry, p, q), ways in states.items():
        if carry == 0:
            counts[p][q] += ways
    return counts


def a247303_by_digits(n: int) -> int:
    """Self-convolution of tbar at n: the pairs (i, n - i) of evil numbers."""
    return thue_morse_pair_counts(n)[0][0]


def a029886_by_digits(n: int) -> int:
    """Self-convolution of 2 - tbar = 1 + t at n, summed over the four classes
    of pairs (t(i), t(n - i))."""
    counts = thue_morse_pair_counts(n)
    return sum((1 + p) * (1 + q) * counts[p][q] for p in (0, 1) for q in (0, 1))


def a247303_direct(n: int) -> int:
    """Self-convolution of tbar at index n, as the literal sum of tbar(i) * tbar(n-i)."""
    if n < 0:
        raise ValueError(f"a247303 is defined for n >= 0, got {n}")
    bits = [thue_morse_bar(i) for i in range(n + 1)]
    return sum(x * y for x, y in zip(bits, reversed(bits)))


def master_prefix_direct(length: int) -> list[int]:
    """First `length` master-sequence bits, each on its own: m(2k) = tbar(k)
    by the binary weight of k, and m(2k + 1) = 0, with no Thue-Morse window."""
    return [0 if n & 1 else thue_morse_bar(n // 2) for n in range(length)]


def master_m_recursive(n: int) -> int:
    """Master sequence bit via the recursion m(2n+1)=0, m(4n)=m(2n), m(4n+2)=1-m(2n)."""
    if n < 0:
        raise ValueError(f"master sequence is defined for n >= 0, got {n}")
    if n == 0:
        return 1
    if n & 1:
        return 0
    if n % 4 == 0:
        return master_m_recursive(n // 2)
    # n = 4j+2: m(n) = 1 - m(2j) and 2j = (n - 2) // 2
    return 1 - master_m_recursive((n - 2) // 2)


def lcm_range(lo: int, hi: int) -> int:
    """Least common multiple of {lo, ..., hi}; 1 for the empty range (lo > hi)."""
    if lo > hi:
        return 1
    if lo < 1:
        raise ValueError(f"range elements must be positive, got [{lo}, {hi}]")
    out = 1
    for k in range(lo, hi + 1):
        out = lcm(out, k)
    return out


def quotient_term_is_odd(n: int, r: int) -> bool:
    """Parity of the single summand lcm(n..n-r+1) // lcm(1..r), without dividing.

    The quotient is odd iff numerator and denominator have equal 2-adic
    valuation.  v2(lcm(1..r)) is floor(log2 r) -- the exponent of the largest
    power of two at most r -- and v2 of the window lcm is the largest j for
    which {n-r+1, ..., n} contains a multiple of 2**j.
    """
    if n < 0 or r < 0 or r > n:
        raise ValueError(f"need 0 <= r <= n, got n={n}, r={r}")
    if r == 0:
        return True  # the empty-window term is 1
    window_v2 = 0
    j = 1
    # the window holds a multiple of 2**j iff floor(n / 2**j) > floor((n-r) / 2**j)
    while (n >> j) > ((n - r) >> j):
        window_v2 = j
        j += 1
    return window_v2 == r.bit_length() - 1


def build_parser_eager() -> argparse.ArgumentParser:
    """The CLI parser written out in full, apart from cli's subcommand table,
    as the reference for both of cli's parsing routes."""
    def add_generation_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("id",
                            help="sequence id (e.g. A061297, or 'm' for the master sequence)")
        parser.add_argument("--from", dest="start", type=int, default=None,
                            help="first index to emit (default: the sequence offset)")
        parser.add_argument("--count", type=int, default=20, help="number of terms")
        parser.add_argument("--format", choices=["plain", "bfile", "json"],
                            default="plain", help="output format")

    def add_network_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--cache-dir", default=None,
                            help="b-file cache directory (default: $SEQPARITY_CACHE_DIR "
                                 "or ~/.cache/seqparity)")
        parser.add_argument("--offline", dest="offline", action="store_true", default=True,
                            help="never touch the network (default)")
        parser.add_argument("--online", dest="offline", action="store_false",
                            help="allow fetching b-files from oeis.org")

    parser = argparse.ArgumentParser(
        prog="seqparity",
        description="Generate integer sequences and verify their parity relations "
                    "against the master sequence.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="print terms of a catalogued sequence")
    add_generation_flags(gen)
    gen.set_defaults(func=cli.cmd_gen)

    par = sub.add_parser("parity", help="print the parity bits of a sequence's terms")
    add_generation_flags(par)
    par.set_defaults(func=cli.cmd_gen)

    ver = sub.add_parser("verify", help="check claimed parity relations and fit the true ones")
    ver.add_argument("target", help="sequence id or 'all'")
    ver.add_argument("--n-max", type=int, default=4096,
                     help="range bound for cheap sequences (default 4096)")
    ver.add_argument("--n-max-heavy", type=int, default=512,
                     help="range bound for big-integer sequences (default 512)")
    ver.add_argument("--format", choices=["plain", "json"], default="plain")
    ver.add_argument("--timings", action="store_true",
                     help="write each sequence's generation and fit/check seconds "
                          "to stderr")
    ver.set_defaults(func=cli.cmd_verify)

    chk = sub.add_parser("check-bfile", help="cross-check a generator against b-file data")
    chk.add_argument("id", help="OEIS sequence id")
    chk.add_argument("--file", default=None,
                     help="b-file path, or 'fetch' to retrieve; default: bundled fixture")
    chk.add_argument("--limit", type=int, default=10_000,
                     help="maximum number of rows to compare")
    add_network_flags(chk)
    chk.set_defaults(func=cli.cmd_check_bfile)

    fetch = sub.add_parser("fetch-bfile", help="print a sequence's b-file, caching it locally")
    fetch.add_argument("id", help="OEIS sequence id")
    add_network_flags(fetch)
    fetch.set_defaults(func=cli.cmd_fetch_bfile)

    return parser
