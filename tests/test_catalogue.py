"""The range contract every catalogue generator keeps."""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    a001855_by_blocks,
    a003071_suffix_sum,
    a029886_by_digits,
    a029886_prefix,
    a048883_by_halving,
    a092524_by_trial,
    a101925_by_halving,
    a113474_by_halving,
    a122248_prefix,
    a128975_by_ordered_count,
    a247303_prefix,
    evil_by_pairs,
    master_m_recursive,
    odious_by_pairs,
    reinterpret_binary_by_powers,
    thue_morse_by_morphism,
    two_adic_valuation_of_factorial,
)
from seqparity.catalogue import CATALOGUE
from seqparity.verify import W

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

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
def test_every_term_is_a_plain_int(seq_id):
    # the CLI writes terms with %d, which prints a bool as 1 where str() gives True
    seq = CATALOGUE[seq_id]
    for start in (seq.offset, seq.offset + 1000):
        assert all(type(v) is int for v in seq.terms(start, start + 300))


@pytest.mark.parametrize("seq_id", sorted(CATALOGUE))
def test_a_reversed_window_is_empty(seq_id):
    seq = CATALOGUE[seq_id]
    for lo, hi in [(0, -1), (0, -3), (5, 2)]:
        assert seq.terms(seq.offset + lo, seq.offset + hi) == [], (lo, hi)


# The generators that compute a window without its prefix, each against a
# prefix from an independent route: the halving recurrence fed by its own
# earlier terms, partial sums of the a113474 recursion, and the per-term
# suffix sum of A003071, which the package does not use.
PREFIX_ORACLES = {
    "A247303": a247303_prefix,
    "A029886": a029886_prefix,
    "A122248": a122248_prefix,
    "A003071": lambda count: [None, *map(a003071_suffix_sum, range(1, count))],
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


# The windows that evaluate one formula per index, each against a per-index
# route from oracles.py that shares no formula with it.  The package's own
# scalars are one-term windows, so they cannot serve here.  The Thue-Morse
# letters come from the morphism read digit by digit, never from a binary
# weight; the deep windows need routes that cost O(log n) a term.
SCALARS = {
    "A010060": thue_morse_by_morphism,
    "A010059": lambda n: 1 - thue_morse_by_morphism(n),
    "A001969": evil_by_pairs,
    "A000069": odious_by_pairs,
    "m": master_m_recursive,
    "A228495": lambda n: n & 1 and thue_morse_by_morphism(n),
    "A048883": a048883_by_halving,
    "A128975": a128975_by_ordered_count,
    "A102393": lambda n: 0 if thue_morse_by_morphism(n) else n + 1,
    "A001285": lambda n: 1 + thue_morse_by_morphism(n),
    "A104258": lambda n: reinterpret_binary_by_powers(n, n),
    "A001855": a001855_by_blocks,
    "A113474": a113474_by_halving,
    "A101925": a101925_by_halving,
    "A005187": lambda n: two_adic_valuation_of_factorial(2 * n),
    "A092524": a092524_by_trial,
}


@pytest.mark.parametrize("seq_id", sorted(SCALARS))
def test_every_window_from_a_small_start_matches_the_scalar(seq_id):
    seq, scalar = CATALOGUE[seq_id], SCALARS[seq_id]
    values = [scalar(n) for n in range(seq.offset, 240)]
    for start in range(seq.offset, 200):
        for stop in range(start, start + 40):
            expected = values[start - seq.offset : stop - seq.offset]
            assert seq.terms(start, stop) == expected, (start, stop)


@pytest.mark.parametrize("seq_id", sorted(SCALARS))
def test_windows_across_powers_of_two_and_multiples_of_w_match_the_scalar(seq_id):
    seq, scalar = CATALOGUE[seq_id], SCALARS[seq_id]
    for start, stop in STRADDLING:
        assert seq.terms(start, stop) == [scalar(n) for n in range(start, stop)], (start, stop)


# past 2**32, just below 2**40, and where binary weights pass 64
DEEP_STARTS = [10**12, 2**40 - 2048, 2**200]


@pytest.mark.parametrize("seq_id", sorted(SCALARS.keys() - {"A092524"}))
def test_deep_windows_match_the_scalar(seq_id):
    seq, scalar = CATALOGUE[seq_id], SCALARS[seq_id]
    for start in DEEP_STARTS:
        stop = start + 300
        assert seq.terms(start, stop) == [scalar(n) for n in range(start, stop)], start


def test_a092524_deep_windows_match_the_scalar():
    # the smallest prime factors near 2**200 would need factoring
    scalar = SCALARS["A092524"]
    for start in DEEP_STARTS[:2]:
        stop = start + 64
        assert CATALOGUE["A092524"].terms(start, stop) == [
            scalar(n) for n in range(start, stop)
        ], start


def test_a092524_window_at_one_even_n_and_primes_above_36():
    window = CATALOGUE["A092524"].terms(1, 200)
    assert window[0] == 1
    assert all(window[n - 1] == n for n in range(2, 200, 2))
    for p in (37, 41, 43, 47, 193, 197, 199):
        assert window[p - 1] == reinterpret_binary_by_powers(p, p), p
    # 2**31 - 1 and 10**12 + 39 are prime
    for p in (2**31 - 1, 10**12 + 39):
        window = CATALOGUE["A092524"].terms(p - 2, p + 2)
        assert window == [SCALARS["A092524"](n) for n in range(p - 2, p + 2)], p
        assert window[1:] == [p - 1, reinterpret_binary_by_powers(p, p), p + 1], p


@pytest.mark.parametrize("start, stop", [(1, 2), (1, 40), (97, 131), (1020, 1030)])
def test_a_declared_base_window_plus_its_constant_is_the_window(start, stop):
    # verify derives a sequence's windows from its base's, in place; its own
    # terms must agree
    built = {sid: seq.base[0] for sid, seq in CATALOGUE.items() if seq.base is not None}
    assert built == {"A029886": "A247303", "A092524": "A104258", "A093431": "A061297"}
    for sid, base in built.items():
        window = CATALOGUE[base].terms(start, stop)
        derived = CATALOGUE[sid].base[1](start, window)
        assert derived is window
        assert derived == CATALOGUE[sid].terms(start, stop)


# n = 1, odd and even starts, the prime 8191, windows across multiples of
# verify.W and where binary weights pass 32
DERIVED_WINDOWS = [
    (1, 2), (1, 64), (2, 3), (97, 161), (1020, 1084), (8191, 8255),
    (W - 3, W + 3), (2 * W - 1, 2 * W + 2), (2**32 - 31, 2**32 + 33),
]


DEEP_ORACLES = {"A029886": a029886_by_digits, "A092524": a092524_by_trial}


@pytest.mark.parametrize("sid", ["A029886", "A092524", "A093431"])
def test_each_declared_derivation_matches_its_standalone_window(sid):
    seq = CATALOGUE[sid]
    base, derive = seq.base
    for start, stop in DERIVED_WINDOWS:
        if sid == "A093431" and start > W:
            continue  # each lcm term deeper than W walks for tens of milliseconds
        window = CATALOGUE[base].terms(start, stop)
        assert derive(start, window) == seq.terms(start, stop), (start, stop)
    if sid in DEEP_ORACLES:  # and a deep window against a route of its own
        start, stop = DERIVED_WINDOWS[-1]
        expected = [DEEP_ORACLES[sid](n) for n in range(start, stop)]
        assert derive(start, CATALOGUE[base].terms(start, stop)) == expected


# The layer each generator's time counts under in the benchmark's traces:
# the module that defines it, never the catalogue, whose name is taken by
# the catalogue.terms_s total.
LAYERS = {
    **dict.fromkeys(
        ["A010060", "A010059", "A001969", "A000069", "m", "A228495", "A048883"], "parity"
    ),
    "A128975": "nim",
    **dict.fromkeys(["A102393", "A092524", "A104258"], "digits"),
    **dict.fromkeys(["A029886", "A001285", "A247303"], "convolution"),
    **dict.fromkeys(["A061297", "A093431"], "lcm_sums"),
    **dict.fromkeys(
        ["A003071", "A001855", "A122248", "A113474", "A101925", "A005187"], "sorting"
    ),
}


def test_each_generator_counts_under_the_module_that_owns_it(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read the benchmark, write nothing
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclass looks itself up
    spec.loader.exec_module(tracing)
    layers = {sid: tracing.generator_layer(seq.terms) for sid, seq in CATALOGUE.items()}
    assert layers == LAYERS
    assert "catalogue" not in layers.values()
