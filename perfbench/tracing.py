"""Spans around the public entry points of each seqparity layer.

Only a traced pass calls ``install``; untraced passes run the program as
shipped.  Spans are kept in memory and written out when the pass ends.  The
layer of a span is the module under ``src/seqparity/`` whose code it times.
"""

from __future__ import annotations

import dataclasses
import functools
import time
import types
from collections import defaultdict


@dataclasses.dataclass(slots=True)
class Span:
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = dataclasses.field(default_factory=dict)


class Recorder:
    """Nested spans of one single-threaded process, in start order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, layer: str, count=None):
        """``fn`` recorded as a span; ``count(args, result)`` gives its counts.

        Counting runs after the span closes, in a span of the ``trace``
        layer, so that it lands in no program layer's self time.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._start(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stop(sid)
            if count is not None:
                bid = self._start("count", "trace")
                self.spans[sid].counts = count(args, result)
                self._stop(bid)
            return result

        return traced

    def _start(self, name: str, layer: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, layer, parent, time.perf_counter()))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _stop(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def records(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


def generator_layer(fn) -> str:
    """The module that defines a catalogue generator.

    Catalogue helpers such as ``_scalar`` close over the real generator, and
    a generator written in the catalogue itself counts under the seqparity
    module it calls into.
    """
    for cell in getattr(fn, "__closure__", None) or ():
        if callable(cell.cell_contents):
            return generator_layer(cell.cell_contents)
    module = fn.__module__
    if module == "seqparity.catalogue" and hasattr(fn, "__code__"):
        for name in _global_names(fn.__code__):
            target = fn.__globals__.get(name)
            if isinstance(target, types.ModuleType):
                owner = target.__name__
            else:
                owner = getattr(target, "__module__", None) or ""
            if owner.startswith("seqparity.") and owner != module:
                module = owner
                break
    return module.rsplit(".", 1)[-1]


def _global_names(code: types.CodeType):
    """Names a function's code looks up, comprehensions included."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _global_names(const)


def _terms_counts(args, result) -> dict:
    return {"computed": len(result), "bits": sum(v.bit_length() for v in result)}


def install(recorder: Recorder) -> None:
    """Route every traced entry point of the imported package through ``recorder``."""
    from seqparity import catalogue, cli, oeis, verify

    for sid, desc in list(catalogue.CATALOGUE.items()):
        terms = recorder.wrap(desc.terms, f"terms {sid}", generator_layer(desc.terms),
                              _terms_counts)
        catalogue.CATALOGUE[sid] = dataclasses.replace(desc, terms=terms)
    verify.master_prefix = recorder.wrap(
        verify.master_prefix, "master_prefix", "parity",
        lambda args, result: {"bits": len(result)})
    verify_sequences = recorder.wrap(
        verify.verify_sequences, "verify_sequences", "verify",
        lambda args, result: {"sequences": len(args[0])})
    verify.verify_sequences = cli.verify_sequences = verify_sequences
    oeis.parse_bfile = recorder.wrap(
        oeis.parse_bfile, "parse_bfile", "oeis",
        lambda args, result: {"rows": len(result)})
    oeis.cross_check = recorder.wrap(oeis.cross_check, "cross_check", "oeis")
    oeis.fixture_table = recorder.wrap(oeis.fixture_table, "fixture_table", "oeis")
    cli.main = recorder.wrap(cli.main, "main", "cli")


def layer_totals(recorder: Recorder) -> dict[str, float]:
    """Per-layer figures of one traced pass, named as in BENCHMARK.json."""
    out: dict[str, float] = defaultdict(float)
    for span, self_s in zip(recorder.spans, recorder.self_times()):
        counts = span.counts
        if span.name.startswith("terms "):
            out[f"{span.layer}.terms_s"] += self_s
            out[f"{span.layer}.out_bits"] += counts["bits"]
            out["catalogue.terms_s"] += span.end - span.start
            out["catalogue.terms_computed"] += counts["computed"]
        elif span.name == "master_prefix":
            out["parity.master_prefix_s"] += self_s
            out["parity.master_prefix_bits"] += counts["bits"]
        elif span.name == "verify_sequences":
            out["verify.self_s"] += self_s
            out["verify.sequences"] += counts["sequences"]
        elif span.name == "parse_bfile":
            out["oeis.parse_s"] += self_s
            out["oeis.parse_rows"] += counts["rows"]
        elif span.name == "cross_check":
            out["oeis.cross_check_self_s"] += self_s
        elif span.name == "fixture_table":
            out["oeis.fixture_s"] += self_s
        elif span.name == "main":
            out["cli.self_s"] += self_s
        else:
            out["trace.count_s"] += self_s
        out["trace.self_sum_s"] += self_s
    return dict(out)
