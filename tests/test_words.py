"""Block morphisms, run lengths, and cube detection on binary words.

The word tools are test oracles; the words themselves come from the catalogue
and from master_prefix.
"""

from itertools import groupby

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    MASTER_MORPHISM,
    THUE_MORSE_MORPHISM,
    Morphism,
    apply_morphism,
    as_word,
    has_cube,
    max_run,
)
from seqparity.catalogue import CATALOGUE
from seqparity.parity import master_prefix

binary_words = st.text(alphabet="01", max_size=40)


def naive_has_cube(word: str, max_block: int) -> bool:
    # reference implementation: scan every factor of every admissible size
    n = len(word)
    for size in range(1, min(max_block, n // 3) + 1):
        for i in range(n - 3 * size + 1):
            x = word[i : i + size]
            if word[i + size : i + 2 * size] == x and word[i + 2 * size : i + 3 * size] == x:
                return True
    return False


def test_apply_morphism_thue_morse_step():
    assert apply_morphism("01", THUE_MORSE_MORPHISM) == "0110"


def test_apply_morphism_empty_word():
    assert apply_morphism("", THUE_MORSE_MORPHISM) == ""
    assert apply_morphism("", MASTER_MORPHISM) == ""


def test_apply_morphism_master_step():
    assert apply_morphism("1000", MASTER_MORPHISM) == "10000010"


def test_apply_morphism_rejects_bad_length():
    with pytest.raises(ValueError, match="not divisible"):
        apply_morphism("100", MASTER_MORPHISM)


def test_apply_morphism_rejects_missing_rule():
    with pytest.raises(ValueError, match="no rule"):
        apply_morphism("11", MASTER_MORPHISM)


def test_morphism_rejects_zero_block_length():
    with pytest.raises(ValueError):
        Morphism(0, {})


def test_thue_morse_word_is_morphism_fixed_point():
    word = as_word(CATALOGUE["A010060"].terms(0, 2**11))
    length = 1
    while length <= 2**10:
        image = apply_morphism(word[:length], THUE_MORSE_MORPHISM)
        assert image == word[: 2 * length]
        length *= 2


def test_master_word_is_morphism_fixed_point():
    word = as_word(master_prefix(2**11))
    length = 2
    while length <= 2**10:
        image = apply_morphism(word[:length], MASTER_MORPHISM)
        assert image == word[: 2 * length]
        length *= 2


@pytest.mark.parametrize(
    "word, symbol, expected",
    [("1000001", "0", 5), ("", "0", 0), ("111", "1", 3), ("010", "1", 1)],
)
def test_max_run_examples(word, symbol, expected):
    assert max_run(word, symbol) == expected


def test_max_run_on_master_prefix():
    word = as_word(master_prefix(32))
    assert max_run(word, "1") == 1
    # oracle: longest group of equal symbols
    longest = max(
        (len(list(group)) for symbol, group in groupby(word) if symbol == "1"),
        default=0,
    )
    assert longest == 1


@given(binary_words, st.sampled_from("01"))
def test_max_run_matches_groupby(word, symbol):
    longest = max(
        (len(list(group)) for s, group in groupby(word) if s == symbol),
        default=0,
    )
    assert max_run(word, symbol) == longest


def test_has_cube_examples():
    assert has_cube("000", 1) is True
    assert has_cube("0110", 2) is False
    assert has_cube("010101", 2) is True  # x = "01"
    assert has_cube("", 4) is False


def test_thue_morse_prefix_is_cube_free():
    assert has_cube(as_word(CATALOGUE["A010060"].terms(0, 4096)), 64) is False
    assert has_cube(as_word(CATALOGUE["A010059"].terms(0, 4096)), 64) is False


@given(binary_words, st.integers(min_value=1, max_value=8))
def test_has_cube_matches_naive_scan(word, max_block):
    assert has_cube(word, max_block) == naive_has_cube(word, max_block)


def test_master_word_run_bounds():
    word = as_word(master_prefix(2**14))
    assert max_run(word, "0") <= 5
    assert max_run(word, "1") <= 1
    assert "101010" not in word
