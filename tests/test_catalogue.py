"""The range contract every catalogue generator keeps."""

import pytest

from seqparity.catalogue import CATALOGUE

# (start, stop) relative to the offset; the empty window included
WINDOWS = [(0, 1), (0, 24), (3, 24), (17, 40), (5, 5)]


@pytest.mark.parametrize("seq_id", sorted(CATALOGUE))
def test_a_window_is_the_tail_of_the_prefix_it_ends(seq_id):
    seq = CATALOGUE[seq_id]
    for lo, hi in WINDOWS:
        a, b = seq.offset + lo, seq.offset + hi
        window = seq.terms(a, b)
        assert len(window) == hi - lo
        assert window == seq.terms(seq.offset, b)[a - seq.offset:], (a, b)


@pytest.mark.parametrize("seq_id", sorted(CATALOGUE))
def test_a_start_below_the_offset_is_rejected(seq_id):
    seq = CATALOGUE[seq_id]
    with pytest.raises(ValueError):
        seq.terms(seq.offset - 1, seq.offset + 4)


@pytest.mark.parametrize("seq_id", sorted(CATALOGUE))
def test_a_reversed_window_is_empty(seq_id):
    seq = CATALOGUE[seq_id]
    for lo, hi in [(0, -1), (0, -3), (5, 2)]:
        assert seq.terms(seq.offset + lo, seq.offset + hi) == [], (lo, hi)
