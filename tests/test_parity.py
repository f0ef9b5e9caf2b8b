"""Thue-Morse primitives, evil/odious enumeration, and the master sequence."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import as_word, master_m_recursive, master_prefix_direct, thue_morse_by_morphism
from seqparity.catalogue import CATALOGUE
from seqparity.parity import (
    _thue_morse_bytes,
    a228495,
    binary_weight,
    evil,
    master_m,
    master_prefix,
    odious,
    thue_morse,
    thue_morse_bar,
)

# published prefixes (A010060, A010059, A001969, A000069, and the master sequence)
THUE_MORSE_PREFIX = [0, 1, 1, 0, 1, 0, 0, 1]
THUE_MORSE_BAR_PREFIX = [1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1]
EVIL_PREFIX = [0, 3, 5, 6, 9, 10, 12, 15, 17, 18, 20, 23, 24]
ODIOUS_PREFIX = [1, 2, 4, 7, 8, 11, 13, 14, 16, 19, 21, 22, 25, 26]
MASTER_PREFIX = [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1]


@pytest.mark.parametrize("n, expected", [(0, 0), (7, 3), (12, 2)])
def test_binary_weight_examples(n, expected):
    assert binary_weight(n) == expected


def test_binary_weight_rejects_negative():
    with pytest.raises(ValueError):
        binary_weight(-1)


@given(st.integers(min_value=0, max_value=10**30))
def test_binary_weight_matches_string_count(n):
    assert binary_weight(n) == bin(n).count("1")


def test_thue_morse_prefix():
    assert [thue_morse(n) for n in range(8)] == THUE_MORSE_PREFIX
    assert [thue_morse_bar(n) for n in range(13)] == THUE_MORSE_BAR_PREFIX


@pytest.mark.parametrize("n, expected", [(0, 0), (3, 0), (4, 1)])
def test_thue_morse_examples(n, expected):
    assert thue_morse(n) == expected


@pytest.mark.parametrize("n, expected", [(0, 1), (5, 1), (1, 0)])
def test_thue_morse_bar_examples(n, expected):
    assert thue_morse_bar(n) == expected


@given(st.integers(min_value=0, max_value=10**12))
def test_thue_morse_recursion(n):
    assert thue_morse(2 * n) == thue_morse(n)
    assert thue_morse(2 * n + 1) == 1 - thue_morse(n)


@given(st.integers(min_value=0, max_value=10**12))
def test_thue_morse_complement(n):
    assert thue_morse(n) + thue_morse_bar(n) == 1
    # complementing twice is the identity
    assert 1 - (1 - thue_morse(n)) == thue_morse(n)


@pytest.mark.parametrize("k, expected", [(1, 0), (2, 3), (5, 9)])
def test_evil_examples(k, expected):
    assert evil(k) == expected


@pytest.mark.parametrize("k, expected", [(1, 1), (4, 7), (13, 25)])
def test_odious_examples(k, expected):
    assert odious(k) == expected


def test_evil_odious_prefixes():
    assert [evil(k) for k in range(1, 14)] == EVIL_PREFIX
    assert [odious(k) for k in range(1, 15)] == ODIOUS_PREFIX


def test_evil_odious_against_exhaustive_enumeration():
    # independent oracle: filter the integers by digit-sum parity
    evens = [n for n in range(1024) if bin(n).count("1") % 2 == 0]
    odds = [n for n in range(1024) if bin(n).count("1") % 2 == 1]
    assert [evil(k) for k in range(1, len(evens) + 1)] == evens
    assert [odious(k) for k in range(1, len(odds) + 1)] == odds


def test_evil_odious_partition_integers():
    k_max = 512
    merged = sorted(
        [evil(k) for k in range(1, k_max + 1)] + [odious(k) for k in range(1, k_max + 1)]
    )
    assert merged == list(range(2 * k_max))
    assert all(binary_weight(evil(k)) % 2 == 0 for k in range(1, k_max + 1))
    assert all(binary_weight(odious(k)) % 2 == 1 for k in range(1, k_max + 1))


def test_enumerations_are_one_indexed():
    with pytest.raises(ValueError):
        evil(0)
    with pytest.raises(ValueError):
        odious(0)


@pytest.mark.parametrize("n, expected", [(0, 1), (6, 1), (7, 0)])
def test_master_examples(n, expected):
    assert master_m(n) == expected


def test_master_prefix_matches_listing():
    assert [master_m(n) for n in range(25)] == MASTER_PREFIX
    assert master_prefix(25) == MASTER_PREFIX


def test_master_prefix_doubling_matches_direct_form():
    for length in range(-2, 300):
        assert master_prefix(length) == master_prefix_direct(length), length
    for k in range(9, 18):
        for length in (2**k - 1, 2**k, 2**k + 1):
            assert master_prefix(length) == master_prefix_direct(length), length
    for length in (4101, 65541):
        assert master_prefix(length) == master_prefix_direct(length), length


def morphism_window(start, stop):
    return bytes(thue_morse_by_morphism(n) for n in range(start, stop))


def test_thue_morse_bytes_match_the_morphism_at_block_edges():
    # a window of width w lies in the blocks j and j + 1 of the least power of
    # two L >= w; j = 1, 2, 3 and 5 give (t(j), t(j + 1)) = (1, 1), (1, 0),
    # (0, 1) and (0, 0), and starts of jL - 1 and jL + 1 straddle two blocks
    for width in range(1, 71):
        size = 1 << (width - 1).bit_length()
        for j in (0, 1, 2, 3, 5):
            for start in (j * size - 1, j * size, j * size + 1):
                if start >= 0:
                    stop = start + width
                    assert _thue_morse_bytes(start, stop) == morphism_window(start, stop), (
                        start, width)


@pytest.mark.parametrize("start", [10**12, 2**64 - 3, 2**200 + 7])
@pytest.mark.parametrize("width", [0, 1, 2, 3, 5, 64, 65, 1000])
def test_thue_morse_bytes_match_the_morphism_on_deep_windows(start, width):
    stop = start + width
    assert _thue_morse_bytes(start, stop) == morphism_window(start, stop)


def test_an_empty_or_reversed_thue_morse_window_is_empty():
    assert _thue_morse_bytes(7, 7) == _thue_morse_bytes(9, 3) == b""


@pytest.mark.parametrize("n, expected", [(0, 1), (10, 1), (12, 1)])
def test_master_recursive_examples(n, expected):
    assert master_m_recursive(n) == expected


def test_master_recursive_agrees_everywhere():
    assert all(master_m(n) == master_m_recursive(n) for n in range(2**16 + 1))


def test_master_equals_shifted_odd_odious_indicator():
    assert all(master_m(n) == a228495(n + 1) for n in range(2**14))


def test_master_even_index_digit_sum_rule():
    # for even n, m(n) is the parity of binary_weight(n/2) - 1; the
    # non-negative-remainder convention makes n = 0 come out as 1
    for n in range(0, 2**14, 2):
        assert master_m(n) == (binary_weight(n // 2) - 1) % 2


@pytest.mark.parametrize("n, expected", [(2, 0), (1, 1), (7, 1)])
def test_a228495_examples(n, expected):
    assert a228495(n) == expected


def test_a228495_requires_positive_index():
    with pytest.raises(ValueError):
        a228495(0)


def test_word_builders_agree_with_bits():
    assert as_word(CATALOGUE["A010060"].terms(0, 8)) == "01101001"
    assert as_word(CATALOGUE["A010059"].terms(0, 8)) == "10010110"
    assert as_word(master_prefix(8)) == "10000010"
    word = as_word(master_prefix(200))
    assert [int(ch) for ch in word] == [master_m(n) for n in range(200)]


def test_master_rejects_negative():
    with pytest.raises(ValueError):
        master_m(-2)
    with pytest.raises(ValueError):
        master_m_recursive(-2)
