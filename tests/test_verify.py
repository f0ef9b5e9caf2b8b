"""Relation checking and fitting against the master sequence."""

import dataclasses
import os
import sys
import threading
import time

import pytest
from oracles import traced_peak

from seqparity.catalogue import (
    BIGNUM_HEAVY,
    CATALOGUE,
    ParityRelation,
    SequenceDescriptor,
    parity_catalogue,
)
from seqparity import verify
from seqparity.parity import master_m, master_prefix
from seqparity.verify import (
    MAX_SHIFT,
    MISMATCH_SAMPLE_CAP,
    W,
    _pack,
    _window_parities,
    check_relation,
    fit_relation,
    verify_all,
    verify_sequences,
)

# (shift, complement) fits re-derived from the exact generators; the four
# claims that disagree with their own sequence data are A092524, A104258,
# A093431 and A003071
EXPECTED_FITS = {
    "A128975": (0, False),
    "A102393": (0, False),
    "A029886": (0, False),
    "A247303": (0, False),
    "A061297": (0, False),
    "A122248": (0, True),
    "A092524": (-1, False),
    "A104258": (-1, False),
    "A093431": (0, True),
    "A003071": (-1, True),
}
EXPECTED_CLAIM_FAILURES = {"A092524", "A104258", "A093431", "A003071"}


@pytest.fixture(scope="module")
def report():
    return verify_all(2048, 256)


def test_parity_catalogue_lists_the_ten_claimed_sequences():
    assert [d.id for d in parity_catalogue()] == [
        "A128975",
        "A102393",
        "A029886",
        "A247303",
        "A092524",
        "A104258",
        "A061297",
        "A093431",
        "A003071",
        "A122248",
    ]


def test_relation_description():
    assert ParityRelation(0, False).describe() == "m(n)"
    assert ParityRelation(1, False).describe() == "m(n+1)"
    assert ParityRelation(-1, True).describe() == "1-m(n-1)"
    assert ParityRelation(0, True).describe() == "1-m(n)"


def test_check_relation_passing_cases():
    assert check_relation(CATALOGUE["A102393"], ParityRelation(0, False), 2**12) == []
    assert check_relation(CATALOGUE["A122248"], ParityRelation(0, True), 2**12) == []


def test_check_relation_complement_fails_everywhere():
    bad = check_relation(CATALOGUE["A102393"], ParityRelation(0, True), 16)
    assert bad == list(range(17))


def test_check_relation_skips_indices_before_master_domain():
    # with shift -2 the comparison can only start at n = 2
    mismatches = check_relation(CATALOGUE["A102393"], ParityRelation(-2, False), 40)
    assert all(n >= 2 for n in mismatches)


def test_fit_relation_examples():
    assert fit_relation(CATALOGUE["A061297"], 2**10) == ParityRelation(0, False)
    assert fit_relation(CATALOGUE["A092524"], 2**10) == ParityRelation(-1, False)
    assert fit_relation(CATALOGUE["A003071"], 2**10) == ParityRelation(-1, True)


def test_fit_relation_returns_none_when_nothing_fits():
    # odious numbers' parities do not follow the master sequence at any shift
    assert fit_relation(CATALOGUE["A000069"], 2**10) is None


def test_fit_relation_rejects_tiny_ranges():
    with pytest.raises(ValueError):
        fit_relation(CATALOGUE["A102393"], 4)


def test_fit_relation_is_ambiguous_on_constant_sequences():
    constant = SequenceDescriptor(
        id="zeros", offset=0, terms=lambda start, stop: [0] * (stop - start)
    )
    # every all-zero window of the master sequence admits several shifts
    assert fit_relation(constant, 64) is None


def test_a_claimed_sequence_that_fits_nothing_reports_the_failed_claim():
    zeros = SequenceDescriptor(
        id="zeros",
        offset=0,
        terms=lambda start, stop: [0] * (stop - start),
        claimed=ParityRelation(0, False),
    )
    report = verify_sequences([zeros], 64, 64)
    assert report.to_text() == (
        "zeros  claimed: FAIL [m(n)]  fitted: none  range: 0..64  mismatches: 16\n"
    )
    (record,) = report.to_records()
    assert record["fitted"] is None
    assert record["claimed_status"] == "FAIL"
    assert record["mismatch_sample"] == [0, 6, 10, 12, 18, 20, 24, 30, 34, 36]
    assert not report.all_fitted()


def test_check_relation_rejects_a_range_below_the_offset():
    with pytest.raises(ValueError, match="^n_max 0 is below the offset of A003071$"):
        check_relation(CATALOGUE["A003071"], ParityRelation(0, False), 0)


def test_fitted_catalogue(report):
    fits = {
        c.sequence_id: (c.fitted.shift, c.fitted.complement) for c in report.checks
    }
    assert fits == EXPECTED_FITS


def test_claim_outcomes(report):
    assert set(report.failed_claims()) == EXPECTED_CLAIM_FAILURES
    passed = {c.sequence_id for c in report.checks if c.claimed_passed}
    assert passed == set(EXPECTED_FITS) - EXPECTED_CLAIM_FAILURES
    assert report.all_fitted()


def test_report_has_one_record_per_claimed_sequence(report):
    assert len(report.checks) == 10
    records = report.to_records()
    for record in records:
        for key in (
            "id",
            "range",
            "claimed",
            "claimed_status",
            "fitted",
            "mismatch_count",
        ):
            assert key in record


def test_report_text_contains_status_lines(report):
    text = report.to_text()
    assert "A102393  claimed: PASS" in text
    assert "A092524  claimed: FAIL" in text
    assert "fitted: shift=-1" in text


def test_fits_are_stable_across_ranges():
    for seq in parity_catalogue():
        if seq.cost_class == BIGNUM_HEAVY:
            continue
        assert fit_relation(seq, 2**10) == fit_relation(seq, 2**12)


def test_mismatch_sample_is_capped(report):
    for check in report.checks:
        assert len(check.claimed_mismatch_sample) <= 10
        if check.claimed_mismatch_count:
            assert check.claimed_mismatch_sample[0] >= check.offset


def test_verify_sequences_rejects_small_bounds():
    with pytest.raises(ValueError):
        verify_all(16, 512)
    with pytest.raises(ValueError):
        verify_all(4096, 8)


def test_verify_all_smoke_run_at_minimum_range():
    # prefix-only run: must complete and report ten records, fitted or not
    report = verify_all(32, 32)
    assert len(report.checks) == 10
    assert all(c.error is None for c in report.checks)


def test_generator_failures_are_aggregated():
    def broken(start, stop):
        raise RuntimeError("boom")

    seq = SequenceDescriptor(
        id="broken",
        offset=0,
        terms=broken,
        claimed=ParityRelation(0, False),
    )
    report = verify_sequences([seq], 64, 64)
    assert report.checks[0].error == "RuntimeError: boom"
    assert report.checks[0].fitted is None
    assert not report.all_fitted()


def test_sequences_walk_their_windows_in_lockstep_and_a_failure_stops_one(monkeypatch):
    monkeypatch.setattr(verify, "W", 64)
    monkeypatch.setattr(verify, "_spare_cpu", lambda: False)  # record every call here
    calls = []

    def recording(name, fail_at=None):
        def terms(start, stop):
            calls.append((name, start))
            if start == fail_at:
                raise RuntimeError("boom")
            return CATALOGUE["A102393"].terms(start, stop)

        return SequenceDescriptor(
            id=name, offset=0, terms=terms, claimed=ParityRelation(0, False)
        )

    report = verify_sequences([recording("a"), recording("b", 128), recording("c")], 200, 200)
    # each window goes to every sequence before the next; b stops at its error
    assert calls == [
        ("a", 192), ("b", 192), ("c", 192), ("a", 128), ("b", 128), ("c", 128),
        ("a", 64), ("c", 64), ("a", 0), ("c", 0),
    ]
    assert [check.error for check in report.checks] == [None, "RuntimeError: boom", None]
    for check in report.checks[::2]:
        assert (check.claimed_mismatch_count, check.fitted) == (0, ParityRelation(0, False))
        assert check.generate_s > 0 and check.fit_s > 0


@pytest.mark.parametrize("n_max", [64, 8])
def test_verify_sequences_requires_a_claim_before_the_range_check(n_max):
    # an unclaimed sequence is refused before the ranges are looked at
    with pytest.raises(ValueError, match="^no parity relation is catalogued for A010060$"):
        verify_sequences([CATALOGUE["A010060"]], n_max, n_max)


def test_verify_sequences_generates_nothing_when_a_claim_is_missing():
    calls = []

    def recording(start, stop):
        calls.append((start, stop))
        return [0] * (stop - start)

    claimed = SequenceDescriptor(
        id="recording", offset=0, terms=recording, claimed=ParityRelation(0, False)
    )
    with pytest.raises(ValueError, match="^no parity relation is catalogued for A010060$"):
        verify_sequences([claimed, CATALOGUE["A010060"]], 64, 64)
    assert calls == []


CANDIDATES = [
    ParityRelation(shift, complement)
    for shift in range(-MAX_SHIFT, MAX_SHIFT + 1)
    for complement in (False, True)
]


def naive_mismatches(parities, offset, rel, n_max):
    """Oracle: compare index by index, from where m(n + shift) is defined."""
    return [
        n
        for n in range(max(offset, -rel.shift), n_max + 1)
        if parities[n - offset] != rel.complement ^ master_m(n + rel.shift)
    ]


@pytest.mark.parametrize("seq", parity_catalogue(), ids=lambda d: d.id)
def test_packed_core_matches_a_naive_scan(seq):
    n_max = 64 if seq.cost_class == BIGNUM_HEAVY else 300
    parities = [v & 1 for v in seq.terms(seq.offset, n_max + 1)]
    naive = {rel: naive_mismatches(parities, seq.offset, rel, n_max) for rel in CANDIDATES}
    for rel, bad in naive.items():
        assert check_relation(seq, rel, n_max) == bad, rel.describe()
    check = verify_sequences([seq], n_max, n_max).checks[0]
    claimed_bad = naive[seq.claimed]
    assert check.claimed_mismatch_count == len(claimed_bad)
    assert check.claimed_mismatch_sample == claimed_bad[:MISMATCH_SAMPLE_CAP]
    fits = [rel for rel, bad in naive.items() if not bad]
    assert check.fitted == (fits[0] if len(fits) == 1 else None)


def test_claim_shifted_beyond_the_fit_window_is_checked_in_full():
    # at n = 66 the claim reads m(72) = tbar(36) = 1, past the fit's master bits
    far = ParityRelation(6, False)
    assert far.shift > MAX_SHIFT
    seq = SequenceDescriptor(
        id="far", offset=0, terms=CATALOGUE["A102393"].terms, claimed=far
    )
    parities = [v & 1 for v in seq.terms(0, 67)]
    check = verify_sequences([seq], 66, 66).checks[0]
    assert check.claimed_mismatch_count == len(naive_mismatches(parities, 0, far, 66))


# A102393 starts at 0 and A003071 at 1; both are cheap at 3W + 5
@pytest.mark.parametrize("seq_id", ["A102393", "A003071"])
@pytest.mark.parametrize("n_max", [W - 2, W - 1, W, W + 1, 3 * W + 5])
def test_parity_word_equals_the_packed_list_of_the_whole_range(seq_id, n_max):
    seq = CATALOGUE[seq_id]
    windows = []

    def terms(start, stop):
        windows.append((start, stop))
        return seq.terms(start, stop)

    word = sum(_window_parities(dataclasses.replace(seq, terms=terms), n_max))
    assert word == _pack([v & 1 for v in seq.terms(seq.offset, n_max + 1)])
    # the windows tile [offset, n_max], from the top down, each inside one [jW, (j+1)W)
    tiles = sorted(windows)
    assert windows == tiles[::-1]
    assert tiles[0][0] == seq.offset and tiles[-1][1] == n_max + 1
    assert all(left[1] == right[0] for left, right in zip(tiles, tiles[1:]))
    assert all(start < stop and start // W == (stop - 1) // W for start, stop in tiles)


@pytest.mark.parametrize("seq_id", ["A102393", "A003071"])
@pytest.mark.parametrize("n_max", [63, 64, 65, 200])
def test_every_route_requests_the_same_windows_from_the_top_down(monkeypatch, seq_id, n_max):
    monkeypatch.setattr(verify, "W", 64)
    monkeypatch.setattr(verify, "_spare_cpu", lambda: False)  # record every call here
    seq = CATALOGUE[seq_id]
    windows = []

    def terms(start, stop):
        windows.append((start, stop))
        return seq.terms(start, stop)

    recording = dataclasses.replace(seq, terms=terms)
    routes = [
        lambda: check_relation(recording, seq.claimed, n_max),
        lambda: fit_relation(recording, n_max),
        lambda: verify_sequences([recording], n_max, n_max),
    ]
    # the multiples of 64 inside the range cut [offset, n_max] into the tiles
    bounds = sorted({seq.offset, *range(64, n_max + 1, 64), n_max + 1})
    expected = list(zip(bounds, bounds[1:]))[::-1]
    for route in routes:
        windows.clear()
        route()
        assert windows == expected


@pytest.mark.parametrize("seq_id", ["A102393", "A003071"])
@pytest.mark.parametrize("shift", [-9, -6, -5, 5, 6, 9])
@pytest.mark.parametrize("complement", [False, True])
def test_check_relation_beyond_max_shift_matches_a_naive_scan(seq_id, shift, complement):
    rel = ParityRelation(shift, complement)
    assert abs(rel.shift) > MAX_SHIFT
    seq = CATALOGUE[seq_id]
    parities = [v & 1 for v in seq.terms(seq.offset, 301)]
    assert check_relation(seq, rel, 300) == naive_mismatches(parities, seq.offset, rel, 300)


@pytest.mark.parametrize("shift", [-MAX_SHIFT, MAX_SHIFT])
@pytest.mark.parametrize("n_max", [64, 65, 66, 67])
def test_a_relation_at_the_fit_edge_is_fitted_by_every_route(shift, n_max):
    # m at n + shift up to n_max + MAX_SHIFT, whose top bit is m(68) = 1 at n_max 64
    rel = ParityRelation(shift, False)
    seq = SequenceDescriptor(
        id="edge", offset=MAX_SHIFT,
        terms=lambda start, stop: [master_m(n + shift) for n in range(start, stop)],
        claimed=ParityRelation(0, False),
    )
    parities = seq.terms(MAX_SHIFT, n_max + 1)
    assert fit_relation(seq, n_max) == rel
    assert check_relation(seq, rel, n_max) == []
    check = verify_sequences([seq], n_max, n_max).checks[0]
    assert check.fitted == rel
    assert check.claimed_mismatch_count == len(
        naive_mismatches(parities, MAX_SHIFT, seq.claimed, n_max))


# each sequence built on another, and its base
PAIRS = [("A029886", "A247303"), ("A092524", "A104258"), ("A093431", "A061297")]


def recorded(calls, seq):
    """seq with its terms and its derivation, if any, appending to calls."""

    def terms(start, stop):
        calls.append(("terms", seq.id, start, stop))
        return seq.terms(start, stop)

    base = None
    if seq.base is not None:
        def derive(start, window):
            calls.append(("derive", seq.id, start, start + len(window)))
            return seq.base[1](start, window)

        base = (seq.base[0], derive)
    return SequenceDescriptor(seq.id, seq.offset, terms, claimed=seq.claimed,
                              cost_class=seq.cost_class, base=base)


def test_each_dependent_derives_every_window_from_its_base_in_the_same_round(monkeypatch):
    monkeypatch.setattr(verify, "W", 64)
    calls = []
    sequences = [recorded(calls, seq) for seq in parity_catalogue()]
    report = verify_sequences(sequences, 200, 100)
    # in each round a dependent runs right after its base, listed before it or not
    first_round = [(kind, sid) for kind, sid, start, stop in calls if stop in (201, 101)]
    assert first_round == [
        ("terms", "A128975"), ("terms", "A102393"), ("terms", "A247303"),
        ("derive", "A029886"), ("terms", "A104258"), ("derive", "A092524"),
        ("terms", "A061297"), ("derive", "A093431"), ("terms", "A003071"),
        ("terms", "A122248"),
    ]
    # every window of a dependent is derived: it never generates its own
    for dependent, base in PAIRS:
        derived = [(start, stop) for kind, sid, start, stop in calls if sid == dependent]
        walked = [(start, stop) for kind, sid, start, stop in calls if sid == base]
        offset = CATALOGUE[dependent].offset
        assert derived == [(max(start, offset), stop) for start, stop in walked]
        assert all(kind == "derive" for kind, sid, *_ in calls if sid == dependent)
    assert [check.sequence_id for check in report.checks] == [
        seq.id for seq in parity_catalogue()]
    assert report.to_text() == verify_all(200, 100).to_text()


@pytest.mark.parametrize("dependent, base", PAIRS)
def test_a_dependent_reports_the_same_before_after_or_without_its_base(
        monkeypatch, dependent, base):
    # W at 64 makes several rounds, each sharing one base window
    monkeypatch.setattr(verify, "W", 64)
    dep, own = CATALOGUE[dependent], CATALOGUE[base]
    alone = [verify_sequences([seq], 300, 200).checks[0].to_line() for seq in (dep, own)]
    before = [check.to_line() for check in verify_sequences([dep, own], 300, 200).checks]
    after = [check.to_line() for check in verify_sequences([own, dep], 300, 200).checks]
    assert before == alone
    assert after == alone[::-1]


def test_a_dependent_whose_base_refuses_generates_its_own_windows(monkeypatch):
    # the base's step ends at its error, so no window of its is handed over
    monkeypatch.setattr(verify, "W", 64)

    def broken(start, stop):
        raise RuntimeError("boom")

    base = SequenceDescriptor("A247303", 0, broken, claimed=ParityRelation(0, False))
    calls = []
    dep = recorded(calls, CATALOGUE["A029886"])
    report = verify_sequences([dep, base], 200, 200)
    assert [check.error for check in report.checks] == [None, "RuntimeError: boom"]
    assert {kind for kind, *_ in calls} == {"terms"}
    assert report.checks[0].to_line() == verify_sequences(
        [CATALOGUE["A029886"]], 200, 200).checks[0].to_line()


@pytest.mark.parametrize("n_max_cheap, n_max_heavy, builds", [
    (64, 48, [64 + MAX_SHIFT + 1, 48 + MAX_SHIFT + 1]),
    (64, 64, [64 + MAX_SHIFT + 1]),
])
def test_the_master_word_is_built_once_per_range_and_reach(
        monkeypatch, n_max_cheap, n_max_heavy, builds):
    lengths = []

    def counted(length):
        lengths.append(length)
        return master_prefix(length)

    monkeypatch.setattr(verify, "master_prefix", counted)
    report = verify_all(n_max_cheap, n_max_heavy)
    assert sorted(lengths, reverse=True) == builds
    lengths.clear()
    # a claim past MAX_SHIFT reaches further, and builds one word of its own
    far = SequenceDescriptor("far", 0, CATALOGUE["A102393"].terms,
                             claimed=ParityRelation(6, False))
    with_far = verify_sequences([*parity_catalogue(), far], n_max_cheap, n_max_heavy)
    assert sorted(lengths, reverse=True) == sorted(
        [*builds, n_max_cheap + 6 + 1], reverse=True)
    assert with_far.to_text().startswith(report.to_text())


def test_a_shared_master_word_counts_in_the_fit_time_of_the_check_that_builds_it(monkeypatch):
    def slow(length):
        time.sleep(0.05)
        return master_prefix(length)

    monkeypatch.setattr(verify, "master_prefix", slow)
    report = verify_all(64, 64)
    # A128975 runs first, so it builds the one word every check reads
    assert report.checks[0].sequence_id == "A128975"
    assert report.checks[0].fit_s >= 0.05
    assert all(check.fit_s < 0.05 for check in report.checks[1:])


@pytest.mark.parametrize("n_max_cheap, bound", [(4096, 305_054), (65536, 1_484_731)])
def test_verify_all_peaks_below_the_figures_measured_before_windows_were_shared(
        monkeypatch, n_max_cheap, bound):
    # tracemalloc measured these peaks for verify_all(n_max_cheap, 512) before
    # a dependent derived its windows from its base's (Python 3.11; 277,258 and
    # 1,398,812 on 3.10, 304,630 and 1,484,267 on 3.12 and 3.13).  A base's
    # window now stays alive while its parities are packed, and with the list
    # of parities dropped once it is bytes the peaks read 266,937 and 1,475,078
    # (3.11), 266,737 and 1,474,694 (3.12) and 266,737 and 1,474,647 (3.13).
    # On 3.10 they read 266,484 and 1,417,969: the 65536 run holds the 16384
    # A104258 terms and their parity list at once, 19,157 bytes above that
    # version's earlier peak, still below this bound.  The walk stays in this
    # process, so that the peak covers all of it.
    monkeypatch.setattr(verify, "_spare_cpu", lambda: False)
    verify_all(64, 64)  # settle what any first call allocates once
    report, peak = traced_peak(verify_all, n_max_cheap, 512)
    assert report.checks[-1].error is None
    assert peak <= bound


@pytest.fixture
def forks(monkeypatch):
    """W at 64, so that a range of a few hundred spans several windows, and the
    list of the children verify_sequences forks."""
    monkeypatch.setattr(verify, "W", 64)
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def in_one_process_and_split(monkeypatch, forks, run):
    """run() with the windows walked in this process, then split with a child."""
    monkeypatch.setattr(verify, "_spare_cpu", lambda: False)
    whole = run()
    assert forks == []
    monkeypatch.setattr(verify, "_spare_cpu", lambda: True)
    split = run()
    assert len(forks) == 1
    return whole, split


def reported(report):
    return report.to_text(), report.to_records()


LISTS = {
    **{seq.id: [seq] for seq in parity_catalogue()},
    "all": parity_catalogue(),
    **{f"{dep} before {base}": [CATALOGUE[dep], CATALOGUE[base]] for dep, base in PAIRS},
    **{f"{dep} after {base}": [CATALOGUE[base], CATALOGUE[dep]] for dep, base in PAIRS},
}


@pytest.mark.parametrize("name", LISTS)
def test_a_split_walk_reports_what_one_process_reports(monkeypatch, forks, name):
    # at W = 64 the cheap range holds five windows and the heavy range four
    whole, split = in_one_process_and_split(
        monkeypatch, forks, lambda: reported(verify_sequences(LISTS[name], 300, 200)))
    assert split == whole


def failing_base(fail_at):
    """A247303, A029886's base, raising at each window that starts in fail_at."""

    def terms(start, stop):
        if start in fail_at:
            raise RuntimeError(f"boom at {start}")
        return CATALOGUE["A247303"].terms(start, stop)

    return dataclasses.replace(CATALOGUE["A247303"], terms=terms)


# at W = 64 the windows of [0, 300] start at 256, 192 and 128 in this process
# and at 64 and 0 in the child
@pytest.mark.parametrize("fail_at, error", [
    ({192}, "RuntimeError: boom at 192"),
    ({64}, "RuntimeError: boom at 64"),
    ({128, 0}, "RuntimeError: boom at 128"),
    ({192, 64}, "RuntimeError: boom at 192"),
])
def test_a_failure_in_either_half_is_the_error_one_process_meets_first(
        monkeypatch, forks, fail_at, error):
    sequences = [CATALOGUE["A029886"], failing_base(fail_at), CATALOGUE["A102393"]]
    whole, split = in_one_process_and_split(
        monkeypatch, forks, lambda: reported(verify_sequences(sequences, 300, 200)))
    assert split == whole
    assert whole[0].splitlines()[1] == f"A247303  error: {error}"
    assert whole[0].count("error") == 1


def test_a_child_that_dies_changes_nothing_in_the_report(monkeypatch, forks):
    parent = os.getpid()

    def terms(start, stop):
        if os.getpid() != parent:
            os._exit(3)
        return CATALOGUE["A102393"].terms(start, stop)

    sequences = [dataclasses.replace(CATALOGUE["A102393"], terms=terms), CATALOGUE["A003071"]]
    whole, split = in_one_process_and_split(
        monkeypatch, forks, lambda: reported(verify_sequences(sequences, 300, 200)))
    assert split == whole
    assert "error" not in whole[0]


def test_generation_seconds_are_summed_over_both_processes(monkeypatch, forks):
    parent = os.getpid()

    def terms(start, stop):
        if os.getpid() != parent:
            time.sleep(0.05)
        return CATALOGUE["A102393"].terms(start, stop)

    sequences = [dataclasses.replace(CATALOGUE["A102393"], terms=terms)]
    monkeypatch.setattr(verify, "_spare_cpu", lambda: True)
    report = verify_sequences(sequences, 300, 200)
    assert len(forks) == 1
    # the child walks the windows at 64 and 0
    assert report.checks[0].generate_s >= 0.1
    assert report.checks[0].fit_s < 0.05


def test_the_child_is_reaped_after_a_return_and_after_an_interrupt(monkeypatch, forks):
    monkeypatch.setattr(verify, "_spare_cpu", lambda: True)
    verify_sequences([CATALOGUE["A102393"]], 300, 200)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    parent = os.getpid()

    def terms(start, stop):
        if os.getpid() != parent:  # a child still at work when this process raises
            time.sleep(60)
        elif start == 192:  # in this process's half
            raise KeyboardInterrupt
        return CATALOGUE["A102393"].terms(start, stop)

    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify_sequences([dataclasses.replace(CATALOGUE["A102393"], terms=terms)], 300, 200)
    assert time.monotonic() - started < 30  # the child is killed, not waited for
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_child_drops_a_sequence_that_has_failed_in_the_parent(monkeypatch, forks, tmp_path):
    parent = os.getpid()
    failed = tmp_path / "failed"

    def bad(start, stop):
        if os.getpid() == parent:
            failed.touch()
            raise RuntimeError("boom")
        with open(tmp_path / "walked-in-child", "a") as out:
            out.write(f"{start}\n")
        return [0] * (stop - start)

    def slow(start, stop):
        if os.getpid() != parent and start == 192:  # the child's first round
            deadline = time.monotonic() + 10
            while not failed.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)  # for the stop this process sends after its round
        return CATALOGUE["A102393"].terms(start, stop)

    claim = ParityRelation(0, False)
    sequences = [SequenceDescriptor("bad", 0, bad, claimed=claim),
                 SequenceDescriptor("slow", 0, slow, claimed=claim)]
    monkeypatch.setattr(verify, "_spare_cpu", lambda: True)
    # eight windows: 448 down to 256 in this process, 192 down to 0 in the child
    report = verify_sequences(sequences, 511, 511)
    assert len(forks) == 1
    assert [check.error for check in report.checks] == ["RuntimeError: boom", None]
    assert (tmp_path / "walked-in-child").read_text() == "192\n"


@pytest.fixture
def no_fork(monkeypatch):
    monkeypatch.setattr(verify, "W", 64)

    def refused():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refused)


def test_nothing_forks_with_one_cpu(monkeypatch, no_fork):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert verify_sequences(parity_catalogue(), 300, 200).all_fitted()


def test_nothing_forks_for_ranges_of_one_window(monkeypatch, no_fork):
    monkeypatch.setattr(verify, "_spare_cpu", lambda: True)
    assert verify_sequences(parity_catalogue(), 63, 63).all_fitted()


def test_nothing_forks_with_a_second_live_thread(monkeypatch, no_fork):
    monkeypatch.setattr(verify, "_spare_cpu", lambda: True)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        report = verify_sequences(parity_catalogue(), 300, 200)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert report.all_fitted()


@pytest.mark.parametrize("shift", [0, -6])
def test_a_cheap_range_the_master_word_cannot_index_is_refused_before_any_work(
        monkeypatch, no_fork, shift):
    monkeypatch.setattr(verify, "_spare_cpu", lambda: True)
    reach = max(MAX_SHIFT, -shift)
    calls = []

    def terms(start, stop):
        calls.append(start)
        raise RuntimeError("generated")

    seq = SequenceDescriptor("far", 0, terms, claimed=ParityRelation(shift, False))
    refused = (rf"^verification ranges must keep n_max \+ {reach} below "
               rf"sys.maxsize = {sys.maxsize}, got n_max = {sys.maxsize - reach}$")
    with pytest.raises(ValueError, match=refused):
        verify_sequences([seq], sys.maxsize - reach, 64)
    assert calls == []
    # one below the limit is walked, from its top window down
    monkeypatch.setattr(verify, "_spare_cpu", lambda: False)
    report = verify_sequences([seq], sys.maxsize - reach - 1, 64)
    assert report.checks[0].error == "RuntimeError: generated"
    assert calls == [(sys.maxsize - reach - 1) // 64 * 64]
