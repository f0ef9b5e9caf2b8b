"""Closed forms versus brute-force enumeration for three-heap Nim P-positions."""

import pytest

from oracles import a128975_bruteforce, ordered_p_count_bruteforce
from seqparity.catalogue import CATALOGUE
from seqparity.nim import a128975_closed
from seqparity.parity import master_m

A128975_PREFIX = [0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 4, 0, 0, 0]


def ordered_p_count(n: int) -> int:
    """Ordered P-position triples summing to n, from the catalogue: A048883 at
    n/2 for even n, 0 for odd n."""
    return 0 if n & 1 else CATALOGUE["A048883"].terms(n // 2, n // 2 + 1)[0]


@pytest.mark.parametrize("n, expected", [(0, 1), (4, 3), (5, 0), (6, 9)])
def test_ordered_closed_examples(n, expected):
    assert ordered_p_count(n) == expected


@pytest.mark.parametrize("n, expected", [(0, 1), (2, 3), (4, 3)])
def test_ordered_bruteforce_examples(n, expected):
    assert ordered_p_count_bruteforce(n) == expected


@pytest.mark.parametrize("n, expected", [(6, 1), (14, 4), (7, 0)])
def test_unordered_closed_examples(n, expected):
    assert a128975_closed(n) == expected


@pytest.mark.parametrize("n, expected", [(6, 1), (5, 0), (14, 4)])
def test_unordered_bruteforce_examples(n, expected):
    assert a128975_bruteforce(n) == expected


def test_a128975_prefix():
    assert [a128975_closed(n) for n in range(1, 18)] == A128975_PREFIX


def test_closed_matches_bruteforce_on_modest_range():
    for n in range(0, 121, 2):
        assert ordered_p_count_bruteforce(n) == ordered_p_count(n)
    for n in range(1, 121):
        assert a128975_bruteforce(n) == a128975_closed(n)


def test_bruteforce_zero_for_odd_totals():
    assert all(ordered_p_count_bruteforce(n) == 0 for n in range(1, 60, 2))


def test_ordered_count_is_six_unordered_plus_three():
    for n in range(2, 301, 2):
        assert ordered_p_count(n) == 6 * a128975_closed(n) + 3


def test_parity_follows_master_sequence():
    assert all(a128975_closed(n) % 2 == master_m(n) for n in range(1, 2**14 + 1))


def test_domain_errors():
    with pytest.raises(ValueError):
        ordered_p_count_bruteforce(-2)
    with pytest.raises(ValueError):
        a128975_closed(0)
    with pytest.raises(ValueError):
        a128975_bruteforce(0)
