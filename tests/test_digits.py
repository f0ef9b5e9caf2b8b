"""Digit re-reading sequences and the wicked evil sequence."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    a092524_by_trial,
    binary_digits,
    reinterpret_binary_by_powers,
    smallest_prime_factor_trial,
    traced_peak,
)
from seqparity import digits
from seqparity.digits import (
    a092524,
    a092524_terms,
    a102393,
    a104258,
    a104258_terms,
    reinterpret_binary,
    smallest_prime_factor,
)
from seqparity.parity import binary_weight, master_m

A092524_PREFIX = [1, 2, 4, 4, 26, 6, 57, 8, 28, 10, 1343, 12, 2367, 14, 40]
A104258_PREFIX = [1, 2, 4, 16, 26, 42, 57, 512, 730, 1010, 1343, 1872]
A102393_PREFIX = [1, 0, 0, 4, 0, 6, 7, 0, 0, 10, 11, 0, 13, 0, 0, 16, 0, 18, 19]


@pytest.mark.parametrize("n, expected", [(2, 2), (9, 3), (11, 11), (91, 7)])
def test_smallest_prime_factor_examples(n, expected):
    assert smallest_prime_factor(n) == expected


def test_smallest_prime_factor_requires_n_at_least_two():
    with pytest.raises(ValueError):
        smallest_prime_factor(1)


@given(st.integers(min_value=0, max_value=10**18))
def test_binary_digits_round_trip(n):
    bits = binary_digits(n)
    assert sum(bit << i for i, bit in enumerate(bits)) == n
    assert all(bit in (0, 1) for bit in bits)
    if n >= 1:
        assert bits[-1] == 1


@given(st.integers(min_value=0, max_value=10**6))
def test_reinterpret_in_base_two_is_identity(n):
    assert reinterpret_binary(n, 2) == n


# the bases int() parses: reinterpret_binary reads them by octal Horner too,
# and agrees with int() and with the power sum
@pytest.mark.parametrize("base", range(2, 37))
def test_reinterpret_agrees_with_int_parsing(base):
    ns = [*range(2048), 2**40 - 1, 2**40, 10**18 + 12345]
    assert [reinterpret_binary(n, base) for n in ns] == [
        int(format(n, "b"), base) for n in ns
    ] == [reinterpret_binary_by_powers(n, base) for n in ns]


# bases int() does not parse; base 0 reads the lowest binary digit and base 1
# the binary weight
@pytest.mark.parametrize("base", [0, 1, 37])
def test_reinterpret_by_octal_horner_agrees_with_power_sum(base):
    ns = [*range(2048), 2**40 - 1, 2**40, 10**18 + 12345]
    assert [reinterpret_binary(n, base) for n in ns] == [
        reinterpret_binary_by_powers(n, base) for n in ns
    ]
    assert reinterpret_binary(0, base) == 0
    assert reinterpret_binary(1, base) == 1


@given(st.integers(min_value=0, max_value=10**18), st.integers(min_value=37, max_value=10**12))
def test_reinterpret_agrees_with_power_sum_above_base_36(n, base):
    assert reinterpret_binary(n, base) == reinterpret_binary_by_powers(n, base)


def test_reinterpret_rejects_negative_n():
    with pytest.raises(ValueError, match="n >= 0"):
        reinterpret_binary(-5, 3)


def spf_listing(start, stop):
    """The window sieve's factors, with its 0 for a prime (or 1) read as n itself."""
    return [p or n for n, p in zip(range(start, stop), digits._spf_window(start, stop))]


def spf_by_trial(start, stop):
    return [n if n == 1 else smallest_prime_factor_trial(n) for n in range(start, stop)]


def test_window_sieve_matches_trial_division_below_2_14():
    assert spf_listing(1, 2**14) == spf_by_trial(1, 2**14)
    assert [smallest_prime_factor(n) for n in range(2, 2**14)] == spf_by_trial(2, 2**14)
    assert a092524_terms(1, 2**14) == [a092524_by_trial(n) for n in range(1, 2**14)]


@given(st.integers(min_value=1, max_value=10**7), st.integers(min_value=1, max_value=300))
def test_window_sieve_matches_trial_division(start, width):
    assert spf_listing(start, start + width) == spf_by_trial(start, start + width)


# squares of primes just below and just above the sieve limit 2**16
@pytest.mark.parametrize("p", [2, 3, 5, 7, 97, 65521, 65537])
def test_windows_that_straddle_a_prime_square(p):
    for lo, hi in [(p * p - 3, p * p + 4), (p * p, p * p + 1), (p * p - 1, p * p)]:
        lo = max(lo, 1)
        assert spf_listing(lo, hi) == spf_by_trial(lo, hi), (lo, hi)


@pytest.mark.parametrize("start", [1, 2, 3])
def test_windows_from_the_first_indices(start):
    for stop in range(start, 40):
        assert spf_listing(start, stop) == spf_by_trial(start, stop)
        assert a092524_terms(start, stop) == [a092524_by_trial(n) for n in range(start, stop)]


# odd and even starts, at and beside 2, squares and powers of two
@pytest.mark.parametrize("start", [1, 2, 3, 4, 5, 9, 24, 25, 1000, 65535, 2**32, 2**32 + 1])
def test_windows_of_every_width_from_starts_of_either_parity(start):
    # the sieve's own entries: 0 at n = 1 and at every prime, n = 2 included
    for stop in [*range(start, start + 70), start + 1025]:
        expected = [0 if p == n else p for n, p in enumerate(spf_by_trial(start, stop), start)]
        assert list(digits._spf_window(start, stop)) == expected, (start, stop)


def test_the_sieve_holds_no_temporary_half_as_wide_as_its_window():
    # tracemalloc measured a 197,312-byte peak (Python 3.11; 197,272-197,784
    # on 3.10 to 3.13) when 2 was struck like the odd primes, with a temporary
    # half as wide as the 131,072-byte window, and 153,624 bytes with the even
    # entries filled from a two-entry pattern (153,584-154,096): the window and
    # the slice for 3.
    digits._spf_window(1, 2**14 + 1)  # settle what any first call allocates once
    spf, peak = traced_peak(digits._spf_window, 1, 2**14 + 1)
    assert len(spf) == 2**14 and spf[2**14 - 1] == 2
    assert peak < 197_272


def primes_by_trial(lo, hi):
    return [n for n in range(lo, hi) if smallest_prime_factor_trial(n) == n]


@pytest.mark.parametrize("lo", [2, 3, 4, 5, 6])
def test_prime_segments_from_the_first_numbers(lo):
    # every hi up to 40, so the segments with hi <= 5 and the empty ones too
    for hi in range(41):
        assert digits._primes(lo, hi) == primes_by_trial(lo, hi), (lo, hi)


# squares of the primes on either side of 2**16
@pytest.mark.parametrize("p", [65521, 65537])
def test_prime_segments_that_straddle_a_prime_square(p):
    for lo, hi in [(p * p - 40, p * p + 41), (p * p, p * p + 1), (p * p - 1, p * p)]:
        assert digits._primes(lo, hi) == primes_by_trial(lo, hi), (lo, hi)


@given(st.integers(min_value=3, max_value=10**7), st.integers(min_value=0, max_value=300))
def test_prime_segments_match_trial_division(lo, width):
    assert digits._primes(lo, lo + width) == primes_by_trial(lo, lo + width)


@pytest.mark.parametrize("limit", [2, 3, 5, 16])
def test_primes_above_the_sieve_limit_settle_the_rest(monkeypatch, limit):
    # a small limit sends most of these windows through the segment walk
    monkeypatch.setattr(digits, "_SIEVE_LIMIT", limit)
    for start, stop in [(1, 2**12), (2, 3), (289, 290), (4000, 4097), (10**6 - 50, 10**6 + 50)]:
        assert spf_listing(start, stop) == spf_by_trial(start, stop), (start, stop)


def test_window_above_the_square_of_the_sieve_limit():
    start = 10**12 - 32
    assert spf_listing(start, start + 64) == spf_by_trial(start, start + 64)


def test_huge_n_with_a_small_factor_needs_no_large_sieve():
    assert smallest_prime_factor(10**30) == 2
    assert smallest_prime_factor(7 * (10**40 + 1)) == 7
    assert a092524(2**100) == 2**100


def test_a092524_window_rejects_a_start_below_one():
    with pytest.raises(ValueError, match="n >= 1, got 0"):
        a092524_terms(0, 5)


@pytest.mark.parametrize("n, expected", [(5, 26), (6, 6), (11, 1343)])
def test_a092524_examples(n, expected):
    assert a092524(n) == expected


def test_a092524_prefix():
    assert [a092524(n) for n in range(1, 16)] == A092524_PREFIX


def test_a092524_fixes_even_numbers():
    assert all(a092524(n) == n for n in range(2, 2048, 2))
    assert all(a092524(2**k) == 2**k for k in range(1, 21))


def test_a092524_parity_on_odd_numbers():
    # a sum of binary_weight(n) odd powers has the perfidy of n
    assert all(a092524(n) % 2 == binary_weight(n) % 2 for n in range(3, 2048, 2))


@pytest.mark.parametrize("n, expected", [(5, 26), (8, 512), (1, 1)])
def test_a104258_examples(n, expected):
    assert a104258(n) == expected


def test_a104258_prefix():
    assert [a104258(n) for n in range(1, 13)] == A104258_PREFIX


def test_a104258_parity_matches_a092524():
    assert all(a104258(n) % 2 == a092524(n) % 2 for n in range(1, 2**12 + 1))


@pytest.mark.parametrize("n, expected", [(3, 4), (1, 0), (9, 10)])
def test_a102393_examples(n, expected):
    assert a102393(n) == expected


def test_a102393_prefix():
    assert [a102393(n) for n in range(19)] == A102393_PREFIX


def test_a102393_values_are_zero_or_n_plus_one():
    assert all(a102393(n) in (0, n + 1) for n in range(512))


def test_a102393_parity_follows_master_sequence():
    assert all(a102393(n) % 2 == master_m(n) for n in range(2**14 + 1))


def test_the_sieve_factors_below_its_reach_and_refuses_past_it(monkeypatch):
    # scaled down: primes below 2**8 reach every n below 2**16, and a larger n
    # with a prime factor below 2**8
    monkeypatch.setattr(digits, "_SIEVE_LIMIT", 16)
    monkeypatch.setattr(digits, "_PRIME_REACH", 1 << 8)
    assert spf_listing(65000, 65536) == spf_by_trial(65000, 65536)
    assert spf_listing(65536, 65537) == [2]
    assert smallest_prime_factor(251 * 65537) == 251
    # 65537 is prime and 67591 = 257 * 263; the message names the largest such n
    for start, stop, n in [(65537, 65538, 65537), (67580, 67600, 67591)]:
        refused = rf"^smallest prime factors are found below 2\*\*8 only, and n = {n} >= 2\*\*16 has none there$"
        with pytest.raises(ValueError, match=refused):
            digits._spf_window(start, stop)
        with pytest.raises(ValueError, match=refused):
            a092524_terms(start, stop)
        with pytest.raises(ValueError, match=refused):
            digits.a092524_from_a104258(start, a104258_terms(start, stop))


def test_the_sieve_reaches_the_largest_prime_below_2_48_and_refuses_2_64_minus_59():
    assert smallest_prime_factor(2**48 - 59) == 2**48 - 59
    refused = (r"^smallest prime factors are found below 2\*\*24 only, and "
               r"n = 18446744073709551557 >= 2\*\*48 has none there$")
    with pytest.raises(ValueError, match=refused):
        smallest_prime_factor(2**64 - 59)
