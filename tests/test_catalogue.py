"""The range contract every catalogue generator keeps."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import a029886_prefix, a122248_prefix, a247303_prefix
from seqparity.catalogue import CATALOGUE
from seqparity.sorting import a003071
from seqparity.verify import W

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


# The generators that compute a window without its prefix, each against a
# prefix from an independent route: the halving recurrence fed by its own
# earlier terms, partial sums of the a113474 recursion, and the per-term
# suffix sum of A003071.
PREFIX_ORACLES = {
    "A247303": a247303_prefix,
    "A029886": a029886_prefix,
    "A122248": a122248_prefix,
    "A003071": lambda count: [None, *map(a003071, range(1, count))],
}
LIMIT = 70_000
# windows that straddle a power of two, or a multiple of the verifier's W
STRADDLING = [
    *((2**k - d, 2**k + d) for k in range(6, 17) for d in (1, 3, 40)),
    *((j * W - d, j * W + d) for j in range(1, 5) for d in (1, 5, 300)),
    (W - 100, 2 * W + 100),
    (3 * W, 4 * W + 1),
    (2**16 - 3, LIMIT),
]


@pytest.fixture(scope="module", params=sorted(PREFIX_ORACLES))
def windowed(request):
    seq_id = request.param
    return CATALOGUE[seq_id], PREFIX_ORACLES[seq_id](LIMIT + 1)


def test_every_window_from_a_small_start_matches_the_prefix_oracle(windowed):
    seq, prefix = windowed
    for start in range(seq.offset, 200):
        for stop in range(start, start + 40):
            assert seq.terms(start, stop) == prefix[start:stop], (start, stop)


def test_windows_across_powers_of_two_and_multiples_of_w_match(windowed):
    seq, prefix = windowed
    for start, stop in STRADDLING:
        assert seq.terms(start, stop) == prefix[start:stop], (start, stop)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(start=st.integers(min_value=1, max_value=LIMIT), width=st.integers(0, 3000))
def test_drawn_windows_below_the_limit_match(windowed, start, width):
    seq, prefix = windowed
    stop = min(start + width, LIMIT + 1)
    assert seq.terms(start, stop) == prefix[start:stop]
