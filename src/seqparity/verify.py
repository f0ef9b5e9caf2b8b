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

import re
from itertools import islice
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
#: The width of the windows _parity_word generates terms in; their
#: boundaries fall on multiples of W.
W = 1 << 14
MISMATCH_SAMPLE_CAP = 10
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _pack(bits: list[int]) -> int:
    """The 0/1 list as one int whose bit i is bits[i]."""
    return int(bytes(bits)[::-1].translate(_BINARY_DIGITS) or b"0", 2)


def _set_bits(word: int, cap: int | None = None) -> list[int]:
    """Positions of the lowest `cap` set bits of word (all when cap is None)."""
    # one pass over bin(word); peeling bits with word & -word copies word per bit
    return [m.start() for m in islice(re.finditer("1", bin(word)[:1:-1]), cap)]


def _parity_word(seq: SequenceDescriptor, n_max: int) -> int:
    """The parities of seq's values at [offset, n_max], packed by _pack.

    The terms come one window at a time, [offset, W), [W, 2W) and so on up
    to n_max, and each window's bits are packed and its terms dropped before
    the next.  Bounded by multiples of W, the windows never straddle a power
    of two above W.  They are taken from the top down, so a generator that
    refuses the range's top (the lcm sums past sys.maxsize) raises before
    any work is done.
    """
    if n_max < seq.offset:
        raise ValueError(f"n_max {n_max} is below the offset of {seq.id}")
    word = 0
    hi = n_max + 1
    while hi > seq.offset:
        lo = max((hi - 1) // W * W, seq.offset)
        word |= _pack([v & 1 for v in seq.terms(lo, hi)]) << (lo - seq.offset)
        hi = lo
    return word


class _PackedParities:
    """A sequence's parity word on [offset, n_max] and the master bits on
    [0, n_max + reach], each packed into one int, so that a relation with
    |shift| <= reach is checked with a few big-int operations."""

    def __init__(self, offset: int, n_max: int, parities: int, reach: int) -> None:
        self.offset = offset
        self.n_max = n_max
        self.parities = parities
        self.master = _pack(master_prefix(n_max + reach + 1))

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
    packed = _PackedParities(seq.offset, n_max, _parity_word(seq, n_max), abs(rel.shift))
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
    return _PackedParities(seq.offset, n_max, _parity_word(seq, n_max), MAX_SHIFT).fit()


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
        """Generation and fit/check seconds, one line per sequence, then the total."""
        rows = [(c.sequence_id, c.generate_s, c.fit_s) for c in self.checks]
        rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
        return "".join(
            f"{name}  generate: {gen:.4f} s  fit: {fit:.4f} s\n" for name, gen, fit in rows
        )


def _check_sequence(seq: SequenceDescriptor, n_max: int) -> SequenceCheck:
    check = SequenceCheck(
        sequence_id=seq.id, offset=seq.offset, n_max=n_max, claimed=seq.claimed
    )
    try:
        reach = max(MAX_SHIFT, abs(seq.claimed.shift))
        started = perf_counter()
        parities = _parity_word(seq, n_max)
        generated = perf_counter()
        check.generate_s = generated - started
        packed = _PackedParities(seq.offset, n_max, parities, reach)
        bad = packed.mismatches(seq.claimed)
        check.claimed_mismatch_count = bad.bit_count()
        check.claimed_mismatch_sample = _set_bits(bad, MISMATCH_SAMPLE_CAP)
        check.fitted = packed.fit()
        check.fit_s = perf_counter() - generated
    except Exception as exc:  # aggregate failures instead of aborting the run
        check.error = f"{type(exc).__name__}: {exc}"
    return check


def verify_sequences(
    sequences: list[SequenceDescriptor], n_max_cheap: int, n_max_heavy: int
) -> VerificationReport:
    """Check each given sequence's claim and fit its relation, choosing the
    range by cost class; every sequence must carry a claimed relation."""
    for seq in sequences:
        if seq.claimed is None:
            raise ValueError(f"no parity relation is catalogued for {seq.id}")
    if n_max_cheap < 32 or n_max_heavy < 32:
        raise ValueError("verification ranges must be at least 32")
    report = VerificationReport(n_max_cheap=n_max_cheap, n_max_heavy=n_max_heavy)
    for seq in sequences:
        n_max = n_max_heavy if seq.cost_class == BIGNUM_HEAVY else n_max_cheap
        report.checks.append(_check_sequence(seq, n_max))
    return report


def verify_all(n_max_cheap: int, n_max_heavy: int) -> VerificationReport:
    """Run every catalogued parity claim plus a relation fit for each sequence."""
    return verify_sequences(parity_catalogue(), n_max_cheap, n_max_heavy)
