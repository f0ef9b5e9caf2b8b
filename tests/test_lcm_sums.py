"""Exact lcm-quotient sums and the 2-adic parity shortcut."""

import sys
import tracemalloc
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lcm_range, quotient_term_is_odd, traced_peak
from seqparity import lcm_sums, verify
from seqparity.catalogue import CATALOGUE
from seqparity.digits import _spf_window
from seqparity.lcm_sums import (
    _a061297_window,
    a061297,
    a061297_parity_shortcut,
    a061297_terms,
    a093431,
    a093431_terms,
)
from seqparity.parity import master_m
from seqparity.verify import verify_all, verify_sequences

A061297_PREFIX = [1, 2, 4, 8, 14, 32, 39, 114, 166, 266, 421, 1608]
A093431_PREFIX = [1, 3, 7, 13, 31, 38, 113, 165, 265, 420, 1607, 1004]


def exact_term(n: int, r: int) -> int:
    """Oracle for a single summand: the literal big-integer quotient."""
    return lcm_range(n - r + 1, n) // lcm_range(1, r)


def lcm_chain_terms(n: int):
    """The summands for r = 0..n, from one running lcm chain each for the
    window and the base and a big division per r."""
    yield 1  # r = 0: empty window over empty base
    window = 1
    base = 1
    for r in range(1, n + 1):
        window = lcm(window, n - r + 1)
        base = lcm(base, r)
        yield window // base


def lcm_chain_sum(n: int) -> int:
    """Independent route to a061297: the direct lcm-chain sum."""
    return sum(lcm_chain_terms(n))


def walked(n: int) -> int:
    """a061297(n) as the kernel computes it, past a061297_terms' range checks."""
    return _a061297_window(n, n + 1)[0]


@pytest.fixture
def sieves(monkeypatch):
    """Record each smallest-prime-factor sieve the kernel asks for: one per
    window that steps from n - 1 to n, none for a window that walks every n."""
    calls = []

    def counted(start, stop):
        calls.append((start, stop))
        return _spf_window(start, stop)

    monkeypatch.setattr(lcm_sums, "_spf_window", counted)
    return calls


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record each (start, stop) the kernel walks."""
    calls = []

    def counted(start, stop):
        calls.append((start, stop))
        return _a061297_window(start, stop)

    monkeypatch.setattr(lcm_sums, "_a061297_window", counted)
    return calls


# n at, just below and just above prime powers: 2**7, 3**5, 31**2, 2**10, 11**3, 2**11
PRIME_POWER_BOUNDARIES = [127, 128, 243, 960, 961, 1023, 1024, 1025, 1330, 1331, 2047, 2048]

# prime powers P at which the upper-half carry of _a061297_window steps by a factor p
CARRY_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 16, 27, 32, 125, 128, 243, 256, 512]


@pytest.mark.parametrize("lo, hi, expected", [(1, 4, 12), (5, 4, 1), (3, 4, 12)])
def test_lcm_range_examples(lo, hi, expected):
    assert lcm_range(lo, hi) == expected


def test_lcm_range_rejects_nonpositive_elements():
    with pytest.raises(ValueError):
        lcm_range(0, 3)
    with pytest.raises(ValueError):
        lcm_range(-4, -2)


def test_a061297_prefix():
    assert [a061297(n) for n in range(12)] == A061297_PREFIX


def test_a061297_term_breakdown_at_four():
    assert [exact_term(4, r) for r in range(5)] == [1, 4, 6, 2, 1]
    assert list(lcm_chain_terms(4)) == [1, 4, 6, 2, 1]
    assert a061297(4) == walked(4) == lcm_chain_sum(4) == 14


def test_a061297_matches_lcm_chain_sum():
    assert all(walked(n) == lcm_chain_sum(n) for n in range(600))


@pytest.mark.parametrize("n", PRIME_POWER_BOUNDARIES)
def test_a061297_matches_lcm_chain_sum_at_prime_power_boundaries(n):
    assert walked(n) == lcm_chain_sum(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=1500))
def test_a061297_matches_lcm_chain_sum_sampled(n):
    assert walked(n) == lcm_chain_sum(n)


def test_a061297_terms_match_lcm_chain_sum_on_every_small_window():
    expected = [lcm_chain_sum(n) for n in range(64)]
    for start in range(65):
        for stop in range(start, 65):
            assert _a061297_window(start, stop) == expected[start:stop]


@pytest.mark.parametrize("n", PRIME_POWER_BOUNDARIES)
def test_a061297_terms_match_lcm_chain_sum_across_prime_power_boundaries(n):
    for start, stop in [(n - 3, n + 4), (n, n + 1), (n - 1, n + 1), (n, n + 2)]:
        assert _a061297_window(start, stop) == [lcm_chain_sum(k) for k in range(start, stop)]


@settings(max_examples=40, deadline=None)
@given(
    # a start below 150 is often within five widths of 0, where the window steps
    st.integers(min_value=0, max_value=2000) | st.integers(min_value=0, max_value=150),
    st.integers(min_value=0, max_value=30),
)
def test_a061297_terms_match_lcm_chain_sum_sampled(start, width):
    stop = start + width
    assert _a061297_window(start, stop) == [lcm_chain_sum(n) for n in range(start, stop)]


@pytest.mark.parametrize(
    "start, stop, steps",
    # 6 * width >= stop steps; one less width walks every n, as one term does
    [(15, 18, True), (16, 18, False), (5, 6, False), (0, 64, True), (500, 600, True),
     (501, 600, False), (1195, 1200, False)],
)
def test_a_window_steps_when_at_least_a_sixth_of_its_stop_wide(sieves, start, stop, steps):
    assert _a061297_window(start, stop) == [lcm_chain_sum(n) for n in range(start, stop)]
    assert sieves == ([(1, stop)] if steps else [])


@pytest.mark.parametrize("start, stop", [(0, 150), (40, 150), (99, 150), (100, 150)])
def test_a_window_walks_from_the_step_limit_on(sieves, monkeypatch, start, stop):
    monkeypatch.setattr(lcm_sums, "_STEP_LIMIT", 100)
    assert _a061297_window(start, stop) == [lcm_chain_sum(n) for n in range(start, stop)]
    assert sieves == ([(1, 100)] if start < 99 else [])  # from 99 only its first n is below


@pytest.mark.parametrize("b", PRIME_POWER_BOUNDARIES)
def test_stepped_windows_across_prime_power_boundaries(sieves, b):
    # Windows from just below, at and just above b run through n = b, b + 1,
    # 2b - 1 and 2b.  At a prime power P = b the whole list takes P's prime at
    # n = P, h reaches P at n = 2P - 1, and at n = 2P the slice that P ends
    # stops at h.  At every prime n, and wherever the largest prime power
    # dividing n lies above a prime-power index below h, a slice and a
    # division land on the same index.  The three windows differ in the n
    # they walk first and must agree where they overlap; single walked terms
    # check them at those n and every 50 n.
    stop = 2 * b + 2
    windows = {start: _a061297_window(start, stop) for start in (b - 1, b, b + 1)}
    assert sieves == [(1, stop)] * 3  # all three step
    first = windows[b - 1]
    for start, terms in windows.items():
        assert terms == first[start - (b - 1) :]
    points = {b - 1, b, b + 1, b + 2, 2 * b - 1, 2 * b, 2 * b + 1, *range(b - 1, stop, 50)}
    assert {n: first[n - (b - 1)] for n in points} == {n: walked(n) for n in points}


def test_upper_half_summands_depend_on_n_alone():
    """For r >= ceil(n/2) the window lcm is lcm(1..n): the identity the carry rests on."""
    base = [lcm_range(1, k) for k in range(400)]
    for n in range(400):
        h = (n + 1) // 2
        window = lcm_range(n - h + 2, n)
        for r in range(h, n + 1):
            window = lcm(window, n - r + 1)  # now lcm_range(n - r + 1, n)
            assert window // base[r] == base[n] // base[r]


@pytest.mark.parametrize("P", CARRY_PRIME_POWERS)
def test_a061297_windows_carry_the_upper_half_across_its_steps(P):
    # the carry multiplies by p at n = P and divides B by p at n = 2P - 1,
    # where ceil(n/2) = P; each window either starts at that step or crosses it
    for n in (P, 2 * P - 1):
        expected = {k: lcm_chain_sum(k) for k in range(max(0, n - 5), n + 5)}
        for width in range(1, 9):
            for start in (n - width // 2 - 1, n - width // 2):  # one odd, one even
                if start >= 0:
                    assert _a061297_window(start, start + width) == [
                        expected[k] for k in range(start, start + width)
                    ]


def test_a_deep_narrow_window_walks_without_the_summand_list():
    # tracemalloc measured an 880,304-byte peak at the parent, which walked
    # every window, and 882,356 bytes with windows that step from n - 1 to n
    # where wide enough (Python 3.11; on 3.10 to 3.13 865,376-880,304 and
    # 867,476-882,356): the tables up to 19702 and one walk.  Two terms are
    # far narrower than a sixth of their stop, so they walk; a summand list
    # at n = 19700, about 14 MB, would break the bound many times over.
    terms, peak = traced_peak(_a061297_window, 19700, 19702)
    assert terms == [walked(19700), walked(19701)]
    assert peak < 1_000_000


def test_the_verify_heavy_window_peaks_below_a_measured_bound():
    # tracemalloc measured a 142,152-byte peak at the parent, which walked
    # [0, 1025), and 249,244 bytes stepped (Python 3.11; on 3.10 to 3.13
    # 141,864-142,152 and 249,132-249,244): the terms, the summand list of
    # about 57 KB at n = 1024 and, at a prime n, the product of the whole
    # list beside it.
    terms, peak = traced_peak(_a061297_window, 0, 1025)
    assert terms[1024] == walked(1024)
    assert peak < 275_000


def test_a061297_terms_reject_a_negative_start():
    with pytest.raises(ValueError):
        a061297_terms(-1, 3)
    with pytest.raises(ValueError):
        a061297(-1)


def test_a061297_terms_return_a_fresh_list(kernel_calls):
    first = a061297_terms(10, 40)
    expected = [lcm_chain_sum(n) for n in range(10, 40)]
    assert first == expected
    first[:] = [0]
    part = a061297_terms(20, 30)
    assert part == expected[10:20]
    part.append(-1)
    assert a061297_terms(20, 30) == expected[10:20]
    assert kernel_calls == [(10, 40), (20, 30), (20, 30)]  # every call walks


def test_a061297_terms_reject_a_stop_past_sys_maxsize_before_allocating(kernel_calls):
    with pytest.raises(ValueError, match=rf"n < sys.maxsize = {sys.maxsize}, got n = {sys.maxsize}$"):
        a061297_terms(sys.maxsize, sys.maxsize + 1)
    with pytest.raises(ValueError, match=r"got n = 1000000000000000000000$"):
        a093431(10**21)
    assert a061297_terms(sys.maxsize - 1, sys.maxsize - 1) == []  # empty: nothing to compute
    assert kernel_calls == []


def test_a061297_terms_refuse_tables_the_allocator_cannot_hold(kernel_calls):
    refused = rf"^the lcm sums' tables up to n = {sys.maxsize - 1} do not fit in memory$"
    with pytest.raises(ValueError, match=refused):
        a061297_terms(sys.maxsize - 1, sys.maxsize)
    with pytest.raises(ValueError, match=refused):
        a093431(sys.maxsize - 1)
    assert kernel_calls == [(sys.maxsize - 1, sys.maxsize)] * 2


@pytest.mark.parametrize(
    "call",
    [lambda n_max: a061297_terms(0, n_max + 1),
     lambda n_max: verify_sequences([CATALOGUE["A061297"]], 64, n_max)],
    ids=["a061297_terms", "verify_sequences"],
)
def test_a_long_lived_process_holds_no_lcm_window_after_a_call(call):
    # the module once kept the last window it walked until a later call was
    # served from it: 32,892 bytes of integers for [0, 513), the default heavy
    # range (284,800 for [0, 2049), which takes 7 s to trace).  A small call
    # first settles what any first call allocates once.
    call(64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call(512)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 1024


def test_verify_all_walks_the_lcm_sums_once_and_keeps_no_window(kernel_calls):
    report = verify_all(64, 200)
    assert {check.sequence_id for check in report.checks} >= {"A061297", "A093431"}
    assert kernel_calls == [(0, 201)]


def test_verify_walks_each_lcm_term_once_across_many_windows(kernel_calls, monkeypatch):
    # with W at 256, n_max 1500 takes six windows a sequence; walked one sequence
    # after the other they cost 3001 terms, and in lockstep A093431 slices each
    # window from the one A061297 has just walked
    sequences = [CATALOGUE["A061297"], CATALOGUE["A093431"]]
    one_window = verify_sequences(sequences, 64, 1500).to_text()
    kernel_calls.clear()
    monkeypatch.setattr(verify, "W", 256)
    report = verify_sequences(sequences, 64, 1500)
    assert kernel_calls == [(lo, min(lo + 256, 1501)) for lo in range(1280, -1, -256)]
    assert sum(stop - start for start, stop in kernel_calls) == 1501
    assert report.to_text() == one_window


def test_verify_walks_each_a093431_term_once_without_its_base(kernel_calls):
    report = verify_sequences([CATALOGUE["A093431"]], 64, 200)
    assert report.checks[0].error is None
    assert kernel_calls == [(1, 201)]


def test_a_base_listed_after_its_dependent_gives_the_same_report(kernel_calls, monkeypatch):
    # listed first, A093431 still runs right after A061297 in each round and
    # derives its windows from A061297's, so the lcm sums are walked once
    monkeypatch.setattr(verify, "W", 64)
    lcm = [CATALOGUE["A061297"], CATALOGUE["A093431"]]
    in_catalogue_order = verify_sequences(lcm, 64, 300).to_text().splitlines()
    assert sum(stop - start for start, stop in kernel_calls) == 301
    kernel_calls.clear()
    reversed_lines = verify_sequences(lcm[::-1], 64, 300).to_text().splitlines()
    assert sum(stop - start for start, stop in kernel_calls) == 301
    assert reversed_lines[::-1] == in_catalogue_order


@pytest.mark.parametrize("start, stop", [(1, 1), (1, 2), (1, 40), (7, 12), (120, 131), (1020, 1030)])
def test_a093431_terms_match_lcm_chain_sum_less_one(start, stop):
    assert a093431_terms(start, stop) == [lcm_chain_sum(n) - 1 for n in range(start, stop)]


def test_a093431_terms_reject_start_zero():
    with pytest.raises(ValueError):
        a093431_terms(0, 5)
    with pytest.raises(ValueError, match=r"^a093431 is defined for n >= 1, got 0$"):
        a093431(0)


def test_a093431_prefix():
    assert [a093431(n) for n in range(1, 13)] == A093431_PREFIX


def test_a093431_is_a061297_minus_one():
    assert all(a093431(n) == a061297(n) - 1 for n in range(1, 101))


def test_a093431_matches_literal_sum_from_r_one():
    for n in range(1, 60):
        assert a093431(n) == sum(exact_term(n, r) for r in range(1, n + 1))


def test_base_lcm_divides_window_lcm():
    for n in range(0, 121):
        for r in range(0, n + 1):
            assert lcm_range(n - r + 1, n) % lcm_range(1, r) == 0


def test_valuation_of_initial_lcm_is_floor_log2():
    # exponent of the largest power of two at most r
    running = 1
    for r in range(1, 2**12 + 1):
        running = lcm(running, r)
        assert (running & -running).bit_length() - 1 == r.bit_length() - 1


@pytest.mark.parametrize(
    "n, r, expected",
    [
        (4, 0, True),
        (4, 2, False),  # exact quotient is 6
        (4, 3, False),  # exact quotient is 2
        (4, 1, False),  # exact quotient is 4
        (4, 4, True),   # exact quotient is 1
    ],
)
def test_quotient_parity_examples(n, r, expected):
    assert quotient_term_is_odd(n, r) is expected
    assert (exact_term(n, r) % 2 == 1) is expected


def test_quotient_parity_matches_exact_division_exhaustively():
    # incremental form of the exact_term oracle, to keep n <= 200 affordable
    for n in range(0, 201):
        assert quotient_term_is_odd(n, 0) is True
        for r, term in enumerate(lcm_chain_terms(n)):
            assert quotient_term_is_odd(n, r) == (term % 2 == 1)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=120), st.data())
def test_quotient_parity_matches_literal_lcm_range(n, data):
    r = data.draw(st.integers(min_value=0, max_value=n))
    assert quotient_term_is_odd(n, r) == (exact_term(n, r) % 2 == 1)


def test_quotient_parity_rejects_bad_arguments():
    with pytest.raises(ValueError):
        quotient_term_is_odd(4, 5)
    with pytest.raises(ValueError):
        quotient_term_is_odd(-1, 0)


@pytest.mark.parametrize("n, expected", [(3, 0), (0, 1), (6, 1)])
def test_parity_shortcut_examples(n, expected):
    assert a061297_parity_shortcut(n) == expected


def test_parity_shortcut_matches_exact_sum():
    exact = _a061297_window(0, 2049)
    assert all(exact[n] % 2 == a061297_parity_shortcut(n) for n in range(2049))


def test_parity_shortcut_follows_master_sequence():
    assert all(a061297_parity_shortcut(n) == master_m(n) for n in range(2**14 + 1))
