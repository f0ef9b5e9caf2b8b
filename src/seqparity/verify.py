"""Empirical verification of parity relations against the master sequence.

Every catalogued claim is checked term by term over a configurable range, and
independently of the claim a best-fitting (shift, complement) pair is searched
for.  Where the recorded claim disagrees with the data by an index shift, the
report shows both; it never substitutes the fit for the claim.

A sequence's terms are generated one window of at most W indices at a time
and only their parities are kept, one bit per term, so the terms held at once
stay bounded however far the range reaches.
"""

from __future__ import annotations

import marshal
import os
import re
import sys
from collections.abc import Callable, Generator, Iterator
from functools import partial
from itertools import islice, zip_longest
from time import perf_counter

from .catalogue import (
    BIGNUM_HEAVY,
    ParityRelation,
    Record,
    SequenceDescriptor,
    parity_catalogue,
)
from .parity import master_prefix

MAX_SHIFT = 4
#: The width of the windows _window_parities generates terms in.
W = 1 << 14
MISMATCH_SAMPLE_CAP = 10
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _pack(bits: list[int] | bytes) -> int:
    """The 0/1 bits as one int whose bit i is bits[i]."""
    return int(bytes(bits)[::-1].translate(_BINARY_DIGITS) or b"0", 2)


def _set_bits(word: int, cap: int | None = None) -> list[int]:
    """Positions of the lowest `cap` set bits of word (all when cap is None)."""
    # one pass over bin(word); peeling bits with word & -word copies word per bit
    return [m.start() for m in islice(re.finditer("1", bin(word)[:1:-1]), cap)]


def _windows(offset: int, n_max: int) -> Iterator[tuple[int, int]]:
    """The windows [lo, hi) of [offset, n_max], from the top down.

    Bounded by multiples of W, the windows never straddle a power of two
    above W.  Taken from the top down, a generator that refuses the range's
    top (the lcm sums past sys.maxsize) raises before any work is done.
    """
    hi = n_max + 1
    while hi > offset:
        lo = max((hi - 1) // W * W, offset)
        yield lo, hi
        hi = lo


def _window_parities(seq: SequenceDescriptor, n_max: int, start: int = 0) -> Iterator[int]:
    """The parities of seq's values at [max(offset, start), n_max], one window
    of _windows at a time: each is packed by _pack and shifted to its place in
    the parity word, and its terms are dropped before the next is generated.
    The windows' bits are disjoint, so their sum is the whole word.  The list
    of parities is dropped as soon as it is bytes, before _pack copies them,
    since a base's terms stay alive for the sequence built on it
    (_shared_terms)."""
    if n_max < seq.offset:
        raise ValueError(f"n_max {n_max} is below the offset of {seq.id}")
    for lo, hi in _windows(max(seq.offset, start), n_max):
        yield _pack(bytes([v & 1 for v in seq.terms(lo, hi)])) << (lo - seq.offset)


def _reach(rel: ParityRelation) -> int:
    """How far past n_max the master bits a check of rel and the fit read reach."""
    return max(MAX_SHIFT, abs(rel.shift))


def _master_word(n_max: int, reach: int) -> int:
    """The master bits on [0, n_max + reach], packed into one int."""
    return _pack(master_prefix(n_max + reach + 1))


class _PackedParities:
    """A sequence's parity word on [offset, n_max] and the master word of
    _master_word at a reach of at least the shift checked, so that the fit's
    relations and one of the given shift are each checked with a few big-int
    operations."""

    def __init__(self, offset: int, n_max: int, parities: int, master: int) -> None:
        self.offset = offset
        self.n_max = n_max
        self.parities = parities
        self.master = master

    def mismatches(self, rel: ParityRelation) -> int:
        """Bit n is set iff the relation fails at n, for n in [max(offset, -shift), n_max]."""
        # indices with n + shift < 0 are outside the master sequence's domain
        start = max(self.offset, -rel.shift)
        ones = (1 << max(self.n_max - start + 1, 0)) - 1
        word = (
            (self.parities >> (start - self.offset))
            ^ (self.master >> (start + rel.shift))
            ^ (ones if rel.complement else 0)
        )
        return (word & ones) << start

    def fit(self) -> ParityRelation | None:
        hits = [
            rel
            for shift in range(-MAX_SHIFT, MAX_SHIFT + 1)
            for rel in (ParityRelation(shift, False), ParityRelation(shift, True))
            if not self.mismatches(rel)
        ]
        return hits[0] if len(hits) == 1 else None


def check_relation(
    seq: SequenceDescriptor, rel: ParityRelation, n_max: int
) -> list[int]:
    """All n in [max(offset, -shift), n_max] where the relation fails."""
    parities = sum(_window_parities(seq, n_max))
    packed = _PackedParities(seq.offset, n_max, parities, _master_word(n_max, _reach(rel)))
    return _set_bits(packed.mismatches(rel))


def fit_relation(seq: SequenceDescriptor, n_max: int) -> ParityRelation | None:
    """The unique relation with zero mismatches on [offset, n_max], if any.

    Scans shifts -MAX_SHIFT..+MAX_SHIFT with and without complement; returns
    None when no candidate fits or when several do (ambiguity is surfaced,
    never resolved silently).
    """
    if n_max < seq.offset + 2 * MAX_SHIFT:
        raise ValueError(
            f"n_max {n_max} too small to fit relations for {seq.id} "
            f"(need at least offset + {2 * MAX_SHIFT})"
        )
    parities = sum(_window_parities(seq, n_max))
    return _PackedParities(seq.offset, n_max, parities, _master_word(n_max, MAX_SHIFT)).fit()


class SequenceCheck(Record):
    """Outcome of checking one sequence: the claim's fate and the fitted relation,
    plus the seconds spent generating its parities and checking and fitting them.
    The mismatch sample defaults to a new empty list."""

    __slots__ = __match_args__ = (
        "sequence_id", "offset", "n_max", "claimed", "claimed_mismatch_count",
        "claimed_mismatch_sample", "fitted", "error", "generate_s", "fit_s",
    )

    def __init__(
        self,
        sequence_id: str,
        offset: int,
        n_max: int,
        claimed: ParityRelation,
        claimed_mismatch_count: int = 0,
        claimed_mismatch_sample: list[int] | None = None,
        fitted: ParityRelation | None = None,
        error: str | None = None,
        generate_s: float = 0.0,
        fit_s: float = 0.0,
    ) -> None:
        self.sequence_id = sequence_id
        self.offset = offset
        self.n_max = n_max
        self.claimed = claimed
        self.claimed_mismatch_count = claimed_mismatch_count
        self.claimed_mismatch_sample = (
            [] if claimed_mismatch_sample is None else claimed_mismatch_sample
        )
        self.fitted = fitted
        self.error = error
        self.generate_s = generate_s
        self.fit_s = fit_s

    @property
    def claimed_passed(self) -> bool | None:
        if self.error is not None:
            return None
        return self.claimed_mismatch_count == 0

    def to_record(self) -> dict:
        def rel_dict(rel: ParityRelation | None) -> dict | None:
            if rel is None:
                return None
            return {
                "shift": rel.shift,
                "complement": rel.complement,
                "text": rel.describe(),
            }

        status = self.claimed_passed
        return {
            "id": self.sequence_id,
            "range": [self.offset, self.n_max],
            "claimed": rel_dict(self.claimed),
            "claimed_status": None if status is None else ("PASS" if status else "FAIL"),
            "fitted": rel_dict(self.fitted),
            "mismatch_count": self.claimed_mismatch_count,
            "mismatch_sample": list(self.claimed_mismatch_sample),
            "error": self.error,
        }

    def to_line(self) -> str:
        if self.error is not None:
            return f"{self.sequence_id}  error: {self.error}"
        status = "PASS" if self.claimed_passed else "FAIL"
        if self.fitted is None:
            fitted = "fitted: none"
        else:
            fitted = (
                f"fitted: shift={self.fitted.shift} "
                f"complement={'yes' if self.fitted.complement else 'no'} "
                f"[{self.fitted.describe()}]"
            )
        return (
            f"{self.sequence_id}  claimed: {status} [{self.claimed.describe()}]  {fitted}  "
            f"range: {self.offset}..{self.n_max}  "
            f"mismatches: {self.claimed_mismatch_count}"
        )


class VerificationReport(Record):
    """Per-sequence results in catalogue order, plus the ranges used; the
    checks default to a new empty list."""

    __slots__ = __match_args__ = ("n_max_cheap", "n_max_heavy", "checks")

    def __init__(
        self, n_max_cheap: int, n_max_heavy: int, checks: list[SequenceCheck] | None = None
    ) -> None:
        self.n_max_cheap = n_max_cheap
        self.n_max_heavy = n_max_heavy
        self.checks = [] if checks is None else checks

    def all_fitted(self) -> bool:
        return all(c.fitted is not None and c.error is None for c in self.checks)

    def failed_claims(self) -> list[str]:
        return [c.sequence_id for c in self.checks if c.claimed_passed is False]

    def to_text(self) -> str:
        return "\n".join(c.to_line() for c in self.checks) + "\n"

    def to_records(self) -> list[dict]:
        return [c.to_record() for c in self.checks]

    def to_timings(self) -> str:
        """Generation and fit/check seconds, one line per sequence, then the total.

        A sequence derived from its base's windows shows only the time of its
        derivation, and a shared master word counts in the fit time of the
        check that builds it, so the total still covers all the work."""
        rows = [(c.sequence_id, c.generate_s, c.fit_s) for c in self.checks]
        rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
        return "".join(
            f"{name}  generate: {gen:.4f} s  fit: {fit:.4f} s\n" for name, gen, fit in rows
        )


def _shared_terms(seq: SequenceDescriptor, windows: dict, start: int, stop: int) -> list[int]:
    """seq's window [start, stop) in one verify_sequences call.  A base puts each
    of its windows in windows as (start, terms); the sequence built on it,
    which runs next, takes it out, cuts it to its own range and derives its
    window from it in place.  Where the base's window does not hold its own, it
    generates its own."""
    if seq.id in windows:
        windows[seq.id] = None  # an unread window is not held through the next
        windows[seq.id] = start, seq.terms(start, stop)
        return windows[seq.id][1]
    (base, derive), (lo, window) = seq.base, windows[seq.base[0]] or (0, [])
    windows[base] = None
    if lo <= start and stop <= lo + len(window):
        del window[stop - lo :]
        del window[: start - lo]
        return derive(start, window)
    del window  # not held while seq generates its own
    return seq.terms(start, stop)


def _walk(
    seq: SequenceDescriptor, check: SequenceCheck, start: int, n_max: int
) -> Generator[None, None, int]:
    """seq's parity word on [max(offset, start), n_max], one window per step,
    each window's seconds added to check.generate_s."""
    word = 0
    started = perf_counter()
    for bits in _window_parities(seq, n_max, start):
        word |= bits
        check.generate_s += perf_counter() - started
        yield
        started = perf_counter()
    return word


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _check_steps(
    seq: SequenceDescriptor, check: SequenceCheck, masters: dict, cut: int,
    lower: Callable | None,
) -> Iterator[None]:
    """Fill in check for seq, one window of parities per step: those at and
    above cut, then, where cut is above the offset, the word below it that
    lower(seq, check, cut) returns.  After that the claim is checked and the
    relation fitted, against the master word of masters at (n_max, reach),
    built here if it is not there yet.  An error is recorded in check and ends
    the steps."""
    try:
        word = yield from _walk(seq, check, cut, check.n_max)
        if cut > seq.offset:
            below = yield from lower(seq, check, cut)
            if check.error is not None:  # the child's error
                return
            word |= below
        started = perf_counter()
        key = check.n_max, _reach(seq.claimed)
        if key not in masters:
            masters[key] = _master_word(*key)
        packed = _PackedParities(seq.offset, check.n_max, word, masters[key])
        bad = packed.mismatches(seq.claimed)
        check.claimed_mismatch_count = bad.bit_count()
        check.claimed_mismatch_sample = _set_bits(bad, MISMATCH_SAMPLE_CAP)
        check.fitted = packed.fit()
        check.fit_s = perf_counter() - started
    except Exception as exc:  # aggregate failures instead of aborting the run
        check.error = _error_text(exc)


def _split_at(offset: int, n_max: int) -> int:
    """The multiple of W that cuts the windows of [offset, n_max] into a top
    and a bottom half; the offset when the range fits one window."""
    return max((offset // W + n_max // W + 1) // 2 * W, offset)


def _spare_cpu() -> bool:
    """Whether this process may run on two CPUs or more."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def _may_fork() -> bool:
    threading = sys.modules.get("threading")  # unloaded, it has started no thread
    one_thread = threading is None or threading.active_count() == 1
    return hasattr(os, "fork") and one_thread and _spare_cpu()


def _lower_steps(
    seq: SequenceDescriptor, check: SequenceCheck, cut: int, words: dict, i: int
) -> Iterator[None]:
    """The child's steps for seq: the windows below cut, into words[i]."""
    try:
        words[i] = yield from _walk(seq, check, seq.offset, cut - 1)
    except Exception as exc:
        check.error = _error_text(exc)


def _stopped(stop: int) -> list[int]:
    """The indices the parent has written to the non-blocking stop since the
    last call.  At EOF the parent is gone, and the child leaves."""
    data = b""
    while True:
        try:
            chunk = os.read(stop, 1 << 12)
        except BlockingIOError:
            return [int(i) for i in data.split()]
        if not chunk:
            os._exit(0)
        data += chunk


def _lower_report(
    halves: list[tuple[int, SequenceDescriptor, SequenceCheck, int]], stop: int
) -> dict[int, tuple[int, str | None, float]]:
    """In the child: the word, error and generation seconds of each sequence
    below its cut, by its index."""
    os.set_blocking(stop, False)
    words: dict[int, int] = {}
    steps = {i: _lower_steps(seq, check, cut, words, i) for i, seq, check, cut in halves}
    for _ in zip_longest(*steps.values()):
        for i in _stopped(stop):
            steps[i].close()
    return {i: (words.get(i, 0), check.error, check.generate_s) for i, _, check, _ in halves}


class _Child:
    """The forked process that walks the bottom halves of verify_sequences:
    halves lists (index, sequence, check, cut) for each sequence with one, in
    the order of the rounds."""

    def __init__(self, halves: list[tuple[int, SequenceDescriptor, SequenceCheck, int]]) -> None:
        self._pending = {i for i, *_ in halves}
        self._report: dict | None = None
        stop_r, self._stop = os.pipe()
        self._reader, writer = os.pipe()
        try:
            self._pid = os.fork()
        except OSError:  # no child: the parent walks the bottom halves itself
            self._pid, self._report = None, {}
        if self._pid == 0:
            try:
                os.close(self._stop)
                os.close(self._reader)
                data = memoryview(marshal.dumps(_lower_report(halves, stop_r)))
                while data:
                    data = data[os.write(writer, data):]
            finally:
                os._exit(0)
        os.close(stop_r)
        os.close(writer)

    def stop(self, checks: list[SequenceCheck]) -> None:
        """Tell the child which of its sequences have failed here."""
        failed = [i for i in self._pending if checks[i].error is not None]
        if failed:
            self._pending.difference_update(failed)
            try:
                os.write(self._stop, b"".join(b"%d " % i for i in failed))
            except OSError:  # the child has left
                pass

    def lower(
        self, i: int, seq: SequenceDescriptor, check: SequenceCheck, cut: int
    ) -> Generator[None, None, int]:
        """seq's word below cut, its error and seconds put in check: the
        child's, or walked here, one window per step, where it has none."""
        if self._report is None:
            self._report = self._read()
        entry = self._report.get(i)
        if entry is None:
            return (yield from _walk(seq, check, seq.offset, cut - 1))
        word, check.error, seconds = entry
        check.generate_s += seconds
        return word

    def _read(self) -> dict:
        """The child's report, read to EOF; empty if the child left before it was written."""
        chunks = []
        while chunk := os.read(self._reader, 1 << 16):
            chunks.append(chunk)
        try:
            return marshal.loads(b"".join(chunks))
        except (EOFError, ValueError, TypeError):
            return {}

    def close(self) -> None:
        """Reap the child, killed first if its report is unread."""
        os.close(self._stop)
        os.close(self._reader)
        if self._pid is not None:
            if self._report is None:
                os.kill(self._pid, 9)  # SIGKILL
            os.waitpid(self._pid, 0)


def verify_sequences(
    sequences: list[SequenceDescriptor], n_max_cheap: int, n_max_heavy: int
) -> VerificationReport:
    """Check each given sequence's claim and fit its relation, choosing the
    range by cost class.  Every sequence must carry a claimed relation: one
    without is a ValueError before any term is generated, and so is a cheap
    sequence's range whose master word, which reaches n_max + _reach past it,
    could not be indexed (sys.maxsize or more; the lcm sums refuse such a
    range at their top window).

    The sequences walk their windows in lockstep, from the top down: each
    window goes to every sequence before the next is taken.  Each keeps its
    own parity word, times and error, so one that raises stops and the others
    go on.  A sequence whose base is listed runs right after it in each
    round, wherever it is listed, and derives its window from the base's
    window of that round (_shared_terms); the report keeps the listed order.
    So a base's windows are generated once for both, at most one base window
    is held at a time and none past the call, and a sequence whose base is
    not listed generates its own.  Sequences on the same range and reach
    share one master word, built by the first check that needs it, so an
    error in building it is recorded on that check's line.

    When some range spans two windows or more, and os.fork exists, this
    process runs one thread and may run on two CPUs or more, one child is
    forked to walk the bottom half of every sequence's windows (those below
    _split_at) while this process walks the top half, each in the lockstep
    above.  Before each round the child drains a stop pipe, through which
    this process names the sequences that have failed here, and drops them;
    at EOF there it leaves.  It sends each sequence's word, error and
    generation seconds through a pipe with marshal and leaves through
    os._exit, writing nothing to stdout or stderr.  After its top half each
    sequence takes the child's part, the first one waiting for the report;
    then the claim is checked and the relation fitted here.  A child's error
    is a sequence's error only where its top half raised none, so each error
    is the one a walk in one process meets first.  Generation seconds are
    summed over both processes.  Where the report is missing or short (the
    child died, or no child could be forked), this process walks the bottom
    halves itself.  The child is reaped before the call returns or raises,
    killed first if its report is unread.
    """
    for seq in sequences:
        if seq.claimed is None:
            raise ValueError(f"no parity relation is catalogued for {seq.id}")
    if n_max_cheap < 32 or n_max_heavy < 32:
        raise ValueError("verification ranges must be at least 32")
    for seq in sequences:
        reach = _reach(seq.claimed)
        if seq.cost_class != BIGNUM_HEAVY and n_max_cheap + reach >= sys.maxsize:
            raise ValueError(f"verification ranges must keep n_max + {reach} below "
                             f"sys.maxsize = {sys.maxsize}, got n_max = {n_max_cheap}")
    report = VerificationReport(n_max_cheap=n_max_cheap, n_max_heavy=n_max_heavy)
    windows = dict.fromkeys(seq.base[0] for seq in sequences if seq.base is not None)
    masters: dict[tuple[int, int], int] = {}
    walked = []
    for seq in sequences:
        n_max = n_max_heavy if seq.cost_class == BIGNUM_HEAVY else n_max_cheap
        report.checks.append(SequenceCheck(
            sequence_id=seq.id, offset=seq.offset, n_max=n_max, claimed=seq.claimed
        ))
        if seq.id in windows or seq.base is not None:
            terms = partial(_shared_terms, seq, windows)
            seq = SequenceDescriptor(seq.id, seq.offset, terms, claimed=seq.claimed)
        walked.append(seq)
    listed = {seq.id: i for i, seq in enumerate(sequences)}

    def run_position(i: int) -> tuple[int, int]:  # right after a listed base
        base = sequences[i].base
        return (listed[base[0]], 1) if base is not None and base[0] in listed else (i, 0)

    order = sorted(range(len(sequences)), key=run_position)
    cuts = [_split_at(seq.offset, check.n_max) for seq, check in zip(walked, report.checks)]
    halves = [(i, walked[i], report.checks[i], cuts[i])
              for i in order if cuts[i] > walked[i].offset]
    child = _Child(halves) if halves and _may_fork() else None
    if child is None:
        cuts = [seq.offset for seq in walked]  # this process walks every window
    steps = [
        _check_steps(seq, check, masters, cut, child and partial(child.lower, i))
        for i, (seq, check, cut) in enumerate(zip(walked, report.checks, cuts))
    ]
    try:
        for _ in zip_longest(*[steps[i] for i in order]):  # one step of each sequence per round
            if child is not None:
                child.stop(report.checks)
    finally:
        if child is not None:
            child.close()
    return report


def verify_all(n_max_cheap: int, n_max_heavy: int) -> VerificationReport:
    """Run every catalogued parity claim plus a relation fit for each sequence."""
    return verify_sequences(parity_catalogue(), n_max_cheap, n_max_heavy)
