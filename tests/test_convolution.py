"""Self-convolutions of Thue-Morse variants and their shared parity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import a247303_direct, a247303_prefix
from seqparity.convolution import (
    a001285,
    a029886,
    a029886_terms,
    a247303,
    a247303_terms,
)
from seqparity.parity import master_m, master_prefix, thue_morse, thue_morse_bar

A001285_PREFIX = [1, 2, 2, 1, 2, 1, 1, 2, 2, 1, 1]
A029886_PREFIX = [1, 4, 8, 10, 12, 14, 15, 16, 22, 24, 23, 26, 29]
A247303_PREFIX = [1, 0, 0, 2, 0, 2, 3, 0, 2, 4, 3, 2, 5, 2, 2, 8, 2, 4, 7]

RANGE = 2**16


@pytest.fixture(scope="module")
def conv247303():
    return a247303_terms(0, RANGE + 1)


@pytest.fixture(scope="module")
def conv029886():
    return a029886_terms(0, RANGE + 1)


@pytest.mark.parametrize("n, expected", [(0, 1), (1, 2), (6, 1)])
def test_a001285_examples(n, expected):
    assert a001285(n) == expected


def test_a001285_prefix():
    assert [a001285(n) for n in range(11)] == A001285_PREFIX


@pytest.mark.parametrize("n, expected", [(0, 1), (1, 4), (6, 15)])
def test_a029886_examples(n, expected):
    assert a029886(n) == expected


def test_a029886_prefix_values():
    assert a029886_terms(0, 13) == A029886_PREFIX
    assert [a029886(n) for n in range(13)] == A029886_PREFIX


@pytest.mark.parametrize("n, expected", [(0, 1), (3, 2), (18, 7)])
def test_a247303_examples(n, expected):
    assert a247303(n) == expected


def test_a247303_prefix_values():
    assert a247303_terms(0, 19) == A247303_PREFIX
    assert [a247303(n) for n in range(19)] == A247303_PREFIX


def test_a247303_convolution_window_sums(conv247303):
    # spot-check that the batch values really are the symmetric product sums
    bar = [thue_morse_bar(i) for i in range(101)]
    for n in (0, 1, 17, 64, 100):
        window = [bar[i] * bar[n - i] for i in range(n + 1)]
        assert sum(window) == conv247303[n]


def test_a247303_prefix_matches_scalar_sum():
    # every term past index 1 comes from the halving rules, so 600 terms run
    # both rules at both parities of k on every level up to k = 299
    prefix = a247303_terms(0, 600)
    assert prefix == [a247303_direct(n) for n in range(600)]


@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 65536])
def test_a247303_prefix_slot_width_boundaries(count):
    # 0 and 1 stop before the recurrence; an odd count cuts the odd half off the
    # last pair of terms it builds, an even count keeps it
    prefix = a247303_terms(0, count)
    assert len(prefix) == count
    for n in {0, 1, count // 2, count - 1} & set(range(count)):
        assert prefix[n] == a247303_direct(n)


def test_a247303_prefix_matches_direct_sum_below_1024():
    prefix = a247303_terms(0, 1024)
    assert prefix == [a247303_direct(n) for n in range(1024)]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**15))
def test_a247303_prefix_matches_direct_sum_at_drawn_n(n):
    assert a247303_prefix(n + 1)[n] == a247303_direct(n) == a247303(n)


def test_a247303_stretched_range_pin():
    # values from the big-integer square the recurrence replaced
    prefix = a247303_terms(0, 2**20 + 1)
    assert prefix[2**20] == 174762
    assert prefix[2**20 - 1] == 524288
    assert sum(prefix) == 137439390378
    assert a247303(999999) == 264096
    assert a029886(999999) == 2264096


@pytest.mark.parametrize("fn", [a247303, a029886])
def test_negative_index_is_rejected(fn):
    with pytest.raises(ValueError, match="defined for n >= 0"):
        fn(-1)


def test_a029886_convolution_window_sums(conv029886):
    # both routes derive a029886 from a247303 by an identity, so this literal
    # sum of (2 - tbar(i)) * (2 - tbar(n - i)) is their independent check
    ones_twos = [2 - thue_morse_bar(i) for i in range(2**18)]
    for n in (0, 1, 17, 64, 100, 4095, 8192, 65535, 65536):
        window = [ones_twos[i] * ones_twos[n - i] for i in range(n + 1)]
        assert sum(window) == conv029886[n] == a029886(n)
    prefix = a029886_terms(0, 2**18)
    for n in (2**18 - 2, 2**18 - 1):
        window = [ones_twos[i] * ones_twos[n - i] for i in range(n + 1)]
        assert sum(window) == prefix[n] == a029886(n)


def test_odious_count_closed_form():
    # a029886 - a247303 is four times the count of odious k <= n
    running = 0
    differences = zip(a029886_terms(0, 3000), a247303_terms(0, 3000))
    for n, (a029886_n, a247303_n) in enumerate(differences):
        running += thue_morse(n)
        assert a029886_n - a247303_n == 4 * running


def test_a247303_even_at_odd_indices(conv247303):
    assert all(conv247303[n] % 2 == 0 for n in range(1, RANGE + 1, 2))


def test_a247303_parity_at_even_indices(conv247303):
    for n in range(0, RANGE + 1, 2):
        assert conv247303[n] % 2 == thue_morse_bar(n // 2) == master_m(n)


def test_both_convolutions_share_parity(conv247303, conv029886):
    assert [v % 2 for v in conv247303] == [v % 2 for v in conv029886]


def test_convolution_parity_follows_master_sequence(conv029886, conv247303):
    m_bits = master_prefix(RANGE + 1)
    assert [v % 2 for v in conv029886] == m_bits
    assert [v % 2 for v in conv247303] == m_bits
