"""Merge and insertion sort comparison counts and the halving-recursion chain."""

from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    a003071_simulate,
    a003071_suffix_sum,
    a113474_prefix,
    a122248_by_weights,
    a122248_prefix,
    two_adic_valuation_of_factorial,
)
from seqparity.parity import master_prefix, thue_morse_bar
from seqparity.sorting import (
    a001855,
    a003071,
    a003071_terms,
    a005187,
    a101925,
    a113474,
    a122248_terms,
)

A003071_PREFIX = [0, 1, 3, 5, 9, 11, 14, 17, 25, 27, 30, 33, 38, 41, 45, 49, 65]
A001855_PREFIX = [0, 1, 3, 5, 8, 11, 14, 17, 21, 25, 29, 33]
A113474_PREFIX = [1, 2, 2, 4, 4, 5, 5, 8, 8, 9, 9]
A122248_PREFIX = [0, 1, 3, 5, 9, 13, 18, 23, 31, 39, 48, 57, 68, 79, 91, 103, 119]


ORACLE_RANGE = 5000


def merge_comparisons_by_recursion(count: int) -> list[int]:
    """Oracle: a003071(1..count) by the defining merge recursion."""
    values = [0, 0]  # index 0 unused, a(1) = 0
    for n in range(2, count + 1):
        top = 1 << (n.bit_length() - 1)
        if top == n:
            values.append(2 * values[n // 2] + n - 1)
        else:
            values.append(values[top] + values[n - top] + n - 1)
    return values[1:]


def insertion_comparisons_by_summation(count: int) -> list[int]:
    """Oracle: a001855(1..count) as running sums of ceil(log2 k)."""
    values, total = [], 0
    for k in range(1, count + 1):
        total += (k - 1).bit_length()
        values.append(total)
    return values


def halving_recursion(count: int) -> list[int]:
    """Oracle: a101925(0..count-1) by b(k) = b(k//2) + k, b(0) = 1."""
    values = [1]
    for k in range(1, count):
        values.append(values[k // 2] + k)
    return values


@pytest.mark.parametrize("n, expected", [(1, 0), (5, 9), (16, 49)])
def test_a003071_examples(n, expected):
    assert a003071(n) == expected


def test_a003071_prefix():
    assert [a003071(n) for n in range(1, 18)] == A003071_PREFIX


@pytest.mark.parametrize("n, expected", [(1, 0), (7, 14), (16, 49)])
def test_simulation_examples(n, expected):
    assert a003071_simulate(n) == expected


def test_seven_element_schedule_by_hand():
    # rounds 1^7 -> (2,2,2,1) -> (4,3) -> 7 cost 3 + 5 + 6
    assert a003071_simulate(7) == 14
    assert a003071(7) == 14


def test_recursion_matches_simulation():
    assert all(a003071(n) == a003071_simulate(n) for n in range(1, 1025))


def test_suffix_sum_matches_simulation_beyond_4096():
    # the two reference routes, and the scalar, which is the window's one-term case
    near_powers = [2**k + d for k in range(12, 19) for d in (-1, 0, 1)]
    stride = range(4097, 2**17, 2**17 // 40 + 1)
    for n in [*near_powers, *stride]:
        assert a003071_suffix_sum(n) == a003071_simulate(n) == a003071(n), n


# The windows below are checked against the per-term suffix sum of oracles.py,
# a per-index route that shares no code with the window's merge rule.
def test_range_generator_matches_the_scalar_from_the_offset():
    assert a003071_terms(1, 2**17) == [a003071_suffix_sum(n) for n in range(1, 2**17)]


# windows that start high read a(r) from their own lower windows, and windows
# that straddle a power of two switch blocks inside the window
@pytest.mark.parametrize(
    "start, stop",
    [
        (2**40, 2**40 + 4096),
        (2**40 - 2048, 2**40 + 2048),
        (10**12, 10**12 + 4096),
        (2**16 - 3, 2**17 + 5),
        (2**12 + 5, 2**14 - 1),
        (3 * 2**11, 2**13 + 2**12),
        (2**12, 2**12 + 1),
    ],
)
def test_range_generator_matches_the_scalar_on_windows(start, stop):
    assert a003071_terms(start, stop) == [a003071_suffix_sum(n) for n in range(start, stop)]


@given(st.integers(min_value=1, max_value=2**20), st.integers(min_value=0, max_value=3000))
def test_range_generator_matches_the_scalar_on_drawn_windows(start, width):
    stop = start + width
    assert a003071_terms(start, stop) == [a003071_suffix_sum(n) for n in range(start, stop)]


def test_range_generator_rejects_a_start_below_one():
    with pytest.raises(ValueError, match="n >= 1, got 0"):
        a003071_terms(0, 5)


def test_a003071_odd_at_powers_of_two():
    assert all(a003071(2**k) % 2 == 1 for k in range(1, 13))


@pytest.mark.parametrize("n, expected", [(1, 0), (5, 8), (12, 33)])
def test_a001855_examples(n, expected):
    assert a001855(n) == expected


def test_a001855_prefix():
    assert [a001855(n) for n in range(1, 13)] == A001855_PREFIX


@pytest.mark.parametrize("n, expected", [(1, 1), (6, 5), (11, 9)])
def test_a113474_examples(n, expected):
    assert a113474(n) == expected


def test_a113474_prefix_forms_agree():
    assert a113474_prefix(11) == A113474_PREFIX
    assert [a113474(n) for n in range(1, 12)] == A113474_PREFIX


def test_a113474_odd_even_pairs():
    assert all(a113474(2 * k + 1) == a113474(2 * k) for k in range(1, 2**13))


@pytest.mark.parametrize("k, expected", [(0, 1), (3, 5), (4, 8)])
def test_a101925_examples(k, expected):
    assert a101925(k) == expected


def test_a101925_interleaves_a113474():
    assert all(a101925(k) == a113474(2 * k) for k in range(1, 4097))


def test_a101925_parity_is_negated_thue_morse():
    assert all(a101925(k) % 2 == thue_morse_bar(k) for k in range(2**14 + 1))


@pytest.mark.parametrize("n, expected", [(0, 0), (3, 4), (4, 7)])
def test_a005187_examples(n, expected):
    assert a005187(n) == expected


def test_a005187_equals_factorial_valuation():
    assert all(
        a005187(n) == two_adic_valuation_of_factorial(2 * n)
        for n in range(2**10 + 1)
    )


def test_a101925_is_a005187_plus_one():
    assert all(a101925(n) == a005187(n) + 1 for n in range(2**14 + 1))


@pytest.mark.parametrize("n, expected", [(0, 0), (4, 9), (16, 119)])
def test_a122248_examples(n, expected):
    assert a122248_terms(n, n + 1) == [expected]


def test_a122248_prefix_forms_agree():
    assert a122248_terms(0, 17) == A122248_PREFIX
    assert a122248_prefix(17) == A122248_PREFIX
    assert list(accumulate(a113474_prefix(16), initial=0)) == A122248_PREFIX


def test_a122248_first_term_matches_the_weight_sum():
    # the closed form starts every window; each n here is a window of its own
    for n in [*range(0, 3000, 7), *range(2**12 - 3, 2**12 + 4), 70_000]:
        assert a122248_terms(n, n + 1) == [a122248_by_weights(n)], n


def test_a122248_odd_at_odd_indices():
    prefix = a122248_terms(0, 2**13)
    assert all(prefix[n] % 2 == 1 for n in range(1, len(prefix), 2))


def test_a122248_parity_complements_master_sequence():
    prefix = a122248_terms(0, 2**14 + 1)
    m_bits = master_prefix(2**14 + 1)
    assert all(prefix[n] % 2 == 1 - m_bits[n] for n in range(len(prefix)))


def test_closed_forms_match_their_recursions():
    ns = range(1, ORACLE_RANGE)
    assert [a003071(n) for n in ns] == merge_comparisons_by_recursion(ORACLE_RANGE - 1)
    assert [a001855(n) for n in ns] == insertion_comparisons_by_summation(ORACLE_RANGE - 1)
    assert [a113474(n) for n in ns] == a113474_prefix(ORACLE_RANGE - 1)
    assert [a101925(k) for k in range(ORACLE_RANGE)] == halving_recursion(ORACLE_RANGE)


def test_domain_errors():
    with pytest.raises(ValueError):
        a003071(0)
    with pytest.raises(ValueError):
        a003071_simulate(0)
    with pytest.raises(ValueError):
        a001855(0)
    with pytest.raises(ValueError):
        a113474(0)
    with pytest.raises(ValueError):
        a101925(-1)
    with pytest.raises(ValueError):
        a005187(-1)
