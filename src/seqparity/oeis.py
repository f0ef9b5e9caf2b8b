"""OEIS b-file parsing, serialization, cross-checking, and offline-first retrieval.

A b-file is plain text with one "<index> <value>" pair per line; '#' lines are
comments.  The indices run on by one, so a `BFileTable` is the first index and
the values.  Files, cache entries and fixtures are all read by `read_bfile`,
whose lines end at "\n" only, as a download's do.  Fixture b-files bundled for
every generated sequence make all of this work offline; fetching from oeis.org
is opt-in and falls back to the local cache and then to the fixtures.  The
network stack is imported only by such a fetch, so an offline caller never
loads it.
"""

from __future__ import annotations

import importlib.resources
import itertools
import operator
import os
import tempfile
from pathlib import Path

from .catalogue import FrozenRecord, SequenceDescriptor

_FIXTURE_PACKAGE = "seqparity"
_CHUNK = 1 << 15  # characters of canonical text checked and split at a time


class BFileFormatError(ValueError):
    """Raised when b-file text violates the format or the table invariants."""


class BFileUnavailableError(RuntimeError):
    """Raised when no source (cache, network, fixture) can produce a b-file."""


class OffsetMismatchError(ValueError):
    """Raised when a table's first index disagrees with the descriptor offset."""


class BFileTable(FrozenRecord):
    """Parsed b-file: a sequence id, the first index `start`, and one or more
    non-negative `values`, values[i] being the row of index start + i."""

    __slots__ = __match_args__ = ("sequence_id", "start", "values")

    def __init__(self, sequence_id: str, start: int, values: tuple[int, ...]) -> None:
        if not values:
            raise BFileFormatError("no '<index> <value>' rows")
        if min(values) < 0:
            value = next(v for v in values if v < 0)
            raise BFileFormatError(
                f"negative value {value} at index {start + values.index(value)}; "
                "all catalogued sequences are non-negative"
            )
        object.__setattr__(self, "sequence_id", sequence_id)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


def bfile_name(sequence_id: str) -> str:
    """Canonical b-file filename for an OEIS id, e.g. A061297 -> b061297.txt."""
    # "A" and six digits of Unicode category Nd, those a regex's \d matches
    if not (len(sequence_id) == 7 and sequence_id[0] == "A" and sequence_id[1:].isdecimal()):
        raise ValueError(f"{sequence_id!r} is not an OEIS sequence id")
    return f"b{sequence_id[1:]}.txt"


def bfile_url(sequence_id: str) -> str:
    """Public URL for a sequence's b-file."""
    return f"https://oeis.org/{sequence_id}/{bfile_name(sequence_id)}"


def parse_bfile(text: str, sequence_id: str = "") -> BFileTable:
    """Parse b-file text; blank lines and '#' comments are skipped.

    Lines end at a line feed only, less one trailing carriage return, so a
    comment may hold any other character.  A row is two ASCII decimal integers,
    each `-?[0-9]+`, separated by spaces or tabs.  Text with no rows (empty, or
    only comments) is not a b-file.

    Text in the canonical form, as `serialize_bfile` writes it, is read at C
    speed a chunk at a time: after any leading '#' lines, every line is
    '<index> <value>' with a single space and ends in a line feed, the indices
    running on by one.  Any other text is read line by line, to the same table
    or the same error.
    """
    rows = _parse_canonical(text)
    if rows is None:
        return _parse_lines(text, sequence_id)
    start, values = rows
    return BFileTable(sequence_id, start, tuple(values))


def _parse_canonical(text: str) -> tuple[int, list[int]] | None:
    """The first index and the values of canonical b-file text, or None if
    the text is not canonical, has a gap or has a token int() declines."""
    pos = 0
    while text.startswith("#", pos):  # the leading comment block
        pos = text.find("\n", pos) + 1
        if not pos:
            return None
    start, values = None, []
    try:
        while pos < len(text):
            # whole lines, about _CHUNK characters: no check copies the text
            end = text.find("\n", pos + _CHUNK)
            end = len(text) if end < 0 else end + 1
            chunk = text[pos:end].encode("ascii")  # raises on a non-ASCII character
            pos = end
            # each line two tokens of -?[0-9]+ characters around one space:
            # one space then one "\n" per line, and no token empty
            if (
                chunk.translate(None, b"0123456789-") != b" \n" * chunk.count(b"\n")
                or not chunk.endswith(b"\n")
                or chunk.startswith(b" ")
                or b"\n " in chunk
                or b" \n" in chunk
            ):
                return None
            # int() reads ASCII bytes as it reads the same str, limit included
            tokens = chunk.split()
            if start is None:
                start = int(tokens[0])
            indices = map(int, tokens[0::2])
            if not all(map(operator.eq, indices, itertools.count(start + len(values)))):
                return None
            values.extend(map(int, tokens[1::2]))
    except ValueError:  # a non-ASCII character, or a token int() does not read
        return None
    return None if start is None else (start, values)


def _parse_lines(text: str, sequence_id: str = "") -> BFileTable:
    """`parse_bfile` line by line: any text, and the error for a bad one."""
    indices, values = [], []
    # int() also takes '+1', '1_0' and non-ASCII digits, and tokens may stand
    # apart only by spaces and tabs; a text with none of those characters in it
    # needs no check of its rows for them
    odd_tokens = not text.isascii() or "_" in text or "+" in text
    odd_spaces = any(c in text for c in "\r\x0b\x0c\x1c\x1d\x1e\x1f")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise _row_error(lineno, raw, "expected '<index> <value>', got")
        line = raw.strip() if odd_tokens or odd_spaces else raw
        try:
            # with those ruled out int() takes exactly -?[0-9]+, and it
            # raises on the rest
            if odd_tokens and (not line.isascii() or "_" in line or "+" in line):
                raise ValueError
            index, value = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise _row_error(lineno, raw, "non-integer token in") from None
        # the tokens are ASCII decimals, so an unprintable character other
        # than a tab is whitespace between them that is not a space or a tab
        if odd_spaces and not line.replace("\t", " ").isprintable():
            raise _row_error(lineno, raw, "expected '<index> <value>', got")
        indices.append(index)
        values.append(value)
    start = indices[0] if indices else 0
    if not all(map(operator.eq, indices, range(start, start + len(indices)))):
        gap = next(i for i in range(1, len(indices)) if indices[i] != indices[i - 1] + 1)
        # these raise for a negative value before the gap or on its row, which comes first
        BFileTable(sequence_id, start, tuple(values[:gap]))
        BFileTable(sequence_id, indices[gap], (values[gap],))
        raise BFileFormatError(f"index gap: {indices[gap - 1]} followed by {indices[gap]}")
    return BFileTable(sequence_id, start, tuple(values))


def read_bfile(path: Path, sequence_id: str = "") -> BFileTable:
    """Parse the UTF-8 b-file at a path or package resource; lines end at "\n" only."""
    return parse_bfile(path.read_bytes().decode("utf-8"), sequence_id)


def _row_error(lineno: int, raw: str, problem: str) -> BFileFormatError:
    """The error for a bad row, quoting its line less the CR of a CRLF line end."""
    quoted = raw.removesuffix("\r")
    return BFileFormatError(f"line {lineno}: {problem} {quoted!r}")


def serialize_bfile(table: BFileTable) -> str:
    """Emit one '<index> <value>' line per row, each with a single space and
    ended by a line feed: the canonical form, which parses back to the table
    at C speed."""
    n = len(table.values)
    rows = zip(range(table.start, table.start + n), table.values)
    return ("%d %d\n" * n) % tuple(itertools.chain.from_iterable(rows))


def cross_check(
    seq: SequenceDescriptor, table: BFileTable, limit: int
) -> list[tuple[int, int, int]]:
    """Compare generated terms against table rows.

    Returns (index, expected, actual) triples where `expected` is the table's
    value (the external reference) and `actual` is the generator's output.
    """
    if table.sequence_id and table.sequence_id != seq.id:
        raise ValueError(f"table is for {table.sequence_id!r}, descriptor is {seq.id!r}")
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    if table.start != seq.offset:
        raise OffsetMismatchError(
            f"{seq.id}: table starts at index {table.start}, "
            f"catalogue offset is {seq.offset}"
        )
    values = table.values[:limit]
    generated = seq.terms(seq.offset, seq.offset + len(values))
    return [
        (index, value, actual)
        for index, (value, actual) in enumerate(zip(values, generated), table.start)
        if actual != value
    ]


def fixture_table(sequence_id: str) -> BFileTable:
    """The bundled b-file for a sequence id."""
    name = bfile_name(sequence_id)
    resource = importlib.resources.files(_FIXTURE_PACKAGE) / "fixtures" / name
    try:
        return read_bfile(resource, sequence_id)
    except FileNotFoundError:
        raise BFileUnavailableError(f"no bundled fixture for {sequence_id}") from None


def default_cache_dir() -> Path:
    """Cache directory: $SEQPARITY_CACHE_DIR, else ~/.cache/seqparity."""
    return Path(os.environ.get("SEQPARITY_CACHE_DIR") or Path.home() / ".cache" / "seqparity")


def _download(url: str, timeout: float) -> str:
    import urllib.request

    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # the text as downloaded, whatever the locale: read_bfile reads it back as UTF-8
    handle = tempfile.NamedTemporaryFile(
        mode="w", encoding="utf-8", newline="", dir=path.parent, suffix=".tmp", delete=False
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


def fetch_bfile(
    sequence_id: str,
    cache_dir: str | Path | None = None,
    *,
    offline: bool = True,
    timeout: float = 10.0,
) -> BFileTable:
    """Return the b-file table for an id: cache first, then network, then fixture.

    Offline mode (the default) never touches the network; the result is then a
    pure function of the cache contents and the bundled fixtures.  A cache entry
    that cannot be read or does not parse is a cache miss.  A network fetch
    retries once on any failure, and caches only text that parses, with a
    write-to-temporary-then-rename so concurrent readers never see a partial
    file.  A cache that cannot be written does not lose the download: the
    parsed table is returned uncached.
    """
    cache_path = Path(cache_dir if cache_dir is not None else default_cache_dir())
    cached = cache_path / bfile_name(sequence_id)
    try:
        return read_bfile(cached, sequence_id)
    except (OSError, ValueError):  # absent, unreadable, undecodable or not a b-file
        pass
    if not offline:
        import http.client

        url = bfile_url(sequence_id)
        for _ in range(2):
            try:
                text = _download(url, timeout)
                table = parse_bfile(text, sequence_id)  # validate before caching
            except (OSError, http.client.HTTPException, ValueError):
                continue  # no connection, cut short, undecodable or not a b-file
            try:
                _write_atomic(cached, text)
            except OSError:  # e.g. the cache directory is a file: serve it uncached
                pass
            return table
    try:
        return fixture_table(sequence_id)
    except (BFileUnavailableError, ValueError):
        network = "" if offline else ", network failed"
        raise BFileUnavailableError(
            f"no source for {sequence_id}: cache miss{network}, no bundled fixture"
        ) from None
