"""Empirical verification of parity relations against the master sequence.

Every catalogued claim is checked term by term over a configurable range, and
independently of the claim a best-fitting (shift, complement) pair is searched
for.  Where the recorded claim disagrees with the data by an index shift, the
report shows both; it never substitutes the fit for the claim.

The report's parity words and those of check_relation and fit_relation come
from one walk, _parity_words: a sequence's terms are generated one window of
at most W indices at a time and only their parities are kept, one bit per
term, so the terms held at once stay bounded however far the range reaches.
With a spare CPU a range may be cut in two (_split_at) and its bottom half
walked by a forked child.
"""

from __future__ import annotations

import marshal
import os
import re
import sys
from collections.abc import Callable, Iterator
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
#: The width of the windows _lockstep generates terms in.
W = 1 << 14
#: The heavy n_max from which _split_at cuts a range where its work halves:
#: a standalone fork-and-pipe probe of the lcm walk (2 vCPUs, medians of 15
#: alternated runs) read 16.8 -> 12.8 ms at 513 terms, but 5.8 -> 7.4 ms at
#: 257 and 2.2 -> 4.8 ms at 129.
_HEAVY_SPLIT_MIN = 512
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
    parities = _parity_word(seq, n_max)
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
    parities = _parity_word(seq, n_max)
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
    """seq's window [start, stop) in one _parity_words call.  A base puts each
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


def _error_text(error: Exception | str | None) -> str | None:
    """An error as a report shows it; one the child met arrives as text."""
    if error is None or isinstance(error, str):
        return error
    return f"{type(error).__name__}: {error}"


def _lockstep(
    parts: list[tuple[int, SequenceDescriptor, int, int]], walks: list[list],
    after_round: Callable[[], None] = lambda: None,
) -> None:
    """Walk each part (i, seq, start, n_max), seq's windows of
    [max(offset, start), n_max], in lockstep from the top down: each part
    takes one window per round, in the order given, and after_round is called
    after each round.  Each window's parities are packed by _pack and ored
    into walks[i][0] at their place in the parity word, and its seconds are
    added to walks[i][2].  Its terms are dropped before the next window is
    generated, and the list of parities as soon as it is bytes, before _pack
    copies them, since a base's terms stay alive for the sequence built on it
    (_shared_terms).  A part that raises keeps the exception, without its
    traceback, in walks[i][1] and stops while the others go on."""

    def step(i: int, seq: SequenceDescriptor, start: int, n_max: int) -> Iterator[None]:
        walk = walks[i]
        try:
            if n_max < seq.offset:
                raise ValueError(f"n_max {n_max} is below the offset of {seq.id}")
            for lo, hi in _windows(max(seq.offset, start), n_max):
                started = perf_counter()
                walk[0] |= _pack(bytes([v & 1 for v in seq.terms(lo, hi)])) << (lo - seq.offset)
                walk[2] += perf_counter() - started
                yield
        except Exception as exc:  # aggregate failures instead of aborting the run
            walk[1] = exc.with_traceback(None)  # its frames would hold the failed window

    for _ in zip_longest(*[step(*part) for part in parts]):
        after_round()


def _check(seq: SequenceDescriptor, check: SequenceCheck, word: int, masters: dict) -> None:
    """Check seq's claim and fit its relation on its parity word, unless its
    walk failed, against the master word of masters at (n_max, reach), built
    here if it is not there yet.  An error is recorded in check."""
    if check.error is not None:
        return
    try:
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
    except Exception as exc:
        check.error = _error_text(exc)


def _split_at(seq: SequenceDescriptor, n_max: int) -> int:
    """Where seq's range [offset, n_max] is cut into a top and a bottom half;
    the offset where it is not cut.

    A BIGNUM_HEAVY range of _HEAVY_SPLIT_MIN terms or more is cut at 0.7
    (n_max + 1).  A step of the lcm sums at n costs about n**2 (n/2 summands
    of about n bits), and the top half also walks its first n in full, so
    the halves balance there near 1024 terms: [0, 717) and [717, 1025) took
    34.0 and 33.7 ms on a 2-vCPU VM.  Further up the top half costs more, as
    its window-start pass grows faster than n**2: [0, 2867) and [2867, 4097)
    took 0.41 and 0.52 s, [0, 5735) and [5735, 8193) 2.14 and 3.72 s.  The
    cut depends on n_max alone, so A093431 is cut where its base A061297 is
    and still derives every window, and the range above it stays at least a
    sixth of its stop wide, so that its window steps through n
    (lcm_sums._a061297_window).  Any other range is cut at the multiple of W
    that halves its windows, so a range of one window is not cut: a heavy
    range below the floor is one window at the default W, and there a fork
    and its pipe cost more than the half they save.
    """
    if seq.cost_class == BIGNUM_HEAVY and n_max >= _HEAVY_SPLIT_MIN:
        return max((n_max + 1) * 7 // 10, seq.offset)
    return max((seq.offset // W + n_max // W + 1) // 2 * W, seq.offset)


def _spare_cpu() -> bool:
    """Whether this process may run on two CPUs or more."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def _may_fork() -> bool:
    threading = sys.modules.get("threading")  # unloaded, it has started no thread
    one_thread = threading is None or threading.active_count() == 1
    return hasattr(os, "fork") and one_thread and _spare_cpu()


class _Child:
    """The forked process that walks the bottom halves of _parity_words, the
    _lockstep parts given, and sends each one's word, error text and
    generation seconds by its index.  It leaves through os._exit, flushing
    nothing to stdout or stderr: after its report, or after any round at
    which the process it was forked from is no longer its parent (it died
    without reaping the child).  Where the pipe or the fork is refused, the
    OSError is raised with no descriptor left open."""

    def __init__(
        self, bottoms: list[tuple[int, SequenceDescriptor, int, int]], walks: list[list]
    ) -> None:
        parent = os.getpid()
        self._reader, writer = os.pipe()
        try:
            self._pid = os.fork()
        except OSError:
            os.close(self._reader)
            os.close(writer)
            raise
        if self._pid == 0:
            try:
                os.close(self._reader)

                def leave_if_orphaned() -> None:
                    if os.getppid() != parent:
                        os._exit(0)

                _lockstep(bottoms, walks, leave_if_orphaned)
                report = {i: (walks[i][0], _error_text(walks[i][1]), walks[i][2])
                          for i, *_ in bottoms}
                data = memoryview(marshal.dumps(report))
                while data:
                    data = data[os.write(writer, data):]
            finally:
                os._exit(0)
        os.close(writer)

    def report(self) -> dict[int, tuple[int, str | None, float]]:
        """The child's report, read to EOF; empty if the child left before it was written."""
        chunks = []
        while chunk := os.read(self._reader, 1 << 16):
            chunks.append(chunk)
        try:
            return marshal.loads(b"".join(chunks))
        except (EOFError, ValueError, TypeError):
            return {}

    def close(self) -> None:
        """Reap the child, killed first in case it is still at work."""
        os.close(self._reader)
        os.kill(self._pid, 9)  # SIGKILL
        os.waitpid(self._pid, 0)


def _parity_words(sequences: list[SequenceDescriptor], n_maxes: list[int]) -> list[list]:
    """[word, error, seconds] for each sequence, in the order given: its
    parity word on [offset, n_max] at its n_max in n_maxes, the error its
    walk met first, if any, and its generation seconds.  No claim is read.

    The sequences walk their windows in lockstep (_lockstep), from the top
    down, so one that raises stops and the others go on.  A sequence whose
    base is listed runs right after it in each round, wherever it is listed,
    and derives its window from the base's window of that round
    (_shared_terms).  So a base's windows are generated once for both, at
    most one base window is held at a time and none past the call, and a
    sequence whose base is not listed generates its own.

    When _split_at cuts some range, and os.fork exists, this process runs one
    thread and may run on two CPUs or more, one child (_Child) walks the
    bottom half of every cut range (the windows of [offset, cut)) in its own
    lockstep; where the pipe or the fork is refused, this process walks every
    range in one lockstep.  This process walks every top half, then reads the
    child's report once, unless a sequence with a bottom half has failed in
    its top half: then the child is killed unread.  It walks itself each
    bottom half the report lacks (the child died or was killed) of a sequence
    that has not failed.  So each error is the one a walk in one process
    meets first: an exception met here, or the text of one the child met.
    Generation seconds are summed over both processes.  The child is reaped
    before the call returns or raises, killed first in case it is still at
    work.
    """
    windows = dict.fromkeys(seq.base[0] for seq in sequences if seq.base is not None)
    walked = [
        SequenceDescriptor(seq.id, seq.offset, partial(_shared_terms, seq, windows))
        if seq.id in windows or seq.base is not None else seq
        for seq in sequences
    ]
    listed = {seq.id: i for i, seq in enumerate(sequences)}

    def run_position(i: int) -> tuple[int, int]:  # right after a listed base
        base = sequences[i].base
        return (listed[base[0]], 1) if base is not None and base[0] in listed else (i, 0)

    order = sorted(range(len(sequences)), key=run_position)
    walks = [[0, None, 0.0] for _ in sequences]
    cuts = [_split_at(seq, n_max) for seq, n_max in zip(sequences, n_maxes)]
    bottoms = [(i, walked[i], walked[i].offset, cuts[i] - 1)
               for i in order if cuts[i] > walked[i].offset]
    child = None
    if bottoms and _may_fork():
        try:
            child = _Child(bottoms, walks)
        except OSError:  # no pipe or no child
            pass
    if child is None:  # this process walks every window, in one lockstep
        cuts, bottoms = [seq.offset for seq in walked], []
    lower = {}
    try:
        _lockstep([(i, walked[i], cuts[i], n_maxes[i]) for i in order], walks)
        if child is not None and all(walks[i][1] is None for i, *_ in bottoms):
            lower = child.report()
    finally:
        if child is not None:
            child.close()
    for i, (word, error, seconds) in lower.items():
        walks[i] = [walks[i][0] | word, error, walks[i][2] + seconds]
    _lockstep([part for part in bottoms if part[0] not in lower and walks[part[0]][1] is None],
              walks)
    return walks


def _parity_word(seq: SequenceDescriptor, n_max: int) -> int:
    """seq's parity word on [offset, n_max], walked by _parity_words.  Its
    error is raised: the exception itself where this process met it, or a
    RuntimeError of its text where the child met it first."""
    [(word, error, _)] = _parity_words([seq], [n_max])
    if isinstance(error, str):
        raise RuntimeError(error)
    if error is not None:
        raise error
    return word


def verify_sequences(
    sequences: list[SequenceDescriptor], n_max_cheap: int, n_max_heavy: int
) -> VerificationReport:
    """Check each given sequence's claim and fit its relation, choosing the
    range by cost class.  Every sequence must carry a claimed relation: one
    without is a ValueError before any term is generated, and so is a cheap
    sequence's range whose master word, which reaches n_max + _reach past it,
    could not be indexed (sys.maxsize or more; the lcm sums refuse such a
    range at their top window).

    The parity words come from _parity_words, which may fork; a sequence
    whose walk raised reports that error.  After every walk has ended the
    claims are checked and the relations fitted (_check), in the listed
    order.  Sequences on the same range and reach share one master word,
    built by the first check that needs it, so an error in building it is
    recorded on that check's line.
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
    n_maxes = [n_max_heavy if seq.cost_class == BIGNUM_HEAVY else n_max_cheap
               for seq in sequences]
    report = VerificationReport(n_max_cheap=n_max_cheap, n_max_heavy=n_max_heavy)
    masters: dict[tuple[int, int], int] = {}
    for seq, n_max, (word, error, seconds) in zip(sequences, n_maxes,
                                                  _parity_words(sequences, n_maxes)):
        report.checks.append(SequenceCheck(seq.id, seq.offset, n_max, seq.claimed,
                                           error=_error_text(error), generate_s=seconds))
        _check(seq, report.checks[-1], word, masters)
    return report


def verify_all(n_max_cheap: int, n_max_heavy: int) -> VerificationReport:
    """Run every catalogued parity claim plus a relation fit for each sequence."""
    return verify_sequences(parity_catalogue(), n_max_cheap, n_max_heavy)
