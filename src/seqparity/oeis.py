"""OEIS b-file parsing, serialization, cross-checking, and offline-first retrieval.

A b-file is plain text with one "<index> <value>" pair per line; '#' lines are
comments.  The indices run on by one, so a `BFileTable` is the first index and
the values.  Cache entries and fixtures are read by `read_bfile`, and a
download by `parse_bfile`.  `text_chunks` is the one writer: it writes the
canonical form (and plain one-term lines) a fixed number of rows at a time, so
no caller holds the whole text.  A b-file given by the user is checked by
`cross_check_text`, which compares canonical text with what the writer would
write and parses only text that differs.  Fixture b-files bundled for every
generated sequence make all of this work offline; fetching from oeis.org is
opt-in (`fetch_bfile`).  The network stack is imported only by such a fetch,
so an offline caller never loads it.
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
_CHUNK = 1 << 13  # characters of canonical text checked, split and compared at a time
_ROWS = 1 << 8  # rows of text written at a time


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
    only comments) is not a b-file.  Canonical text is read by
    `_parse_canonical` and any other by `_parse_lines`, to the same table or
    the same error.
    """
    rows = _parse_canonical(text)
    if rows is None:
        return _parse_lines(text, sequence_id)
    start, values = rows
    return BFileTable(sequence_id, start, tuple(values))


def _parse_canonical(text: str) -> tuple[int, list[int]] | None:
    """The first index and the values of b-file text in the canonical form
    that `text_chunks` writes, or None for any other text.

    After any leading '#' lines, every line of canonical text is
    '<index> <value>' with a single space and ends in a line feed, the
    indices written as "%d" writes them and running on by one, and every
    value one int() reads.  It is read at C speed, whole lines of about
    _CHUNK characters at a time."""
    start, values = None, []
    try:
        for chunk in _canonical_chunks(text, _rows_start(text)):
            if chunk is None:
                return None
            # int() reads ASCII bytes as it reads the same str, limit included
            tokens = chunk.split()
            if start is None:
                start = int(tokens[0])
            # the chunk's indices as "%d" writes them, in one formatted run that
            # the chunk's size bounds; an index it would not write, such as 007
            # or -0, goes to the line loop
            indices = tokens[0::2]
            first = start + len(values)
            expected = b"%d " * len(indices) % tuple(range(first, first + len(indices)))
            if b" ".join(indices) + b" " != expected:
                return None
            values.extend(map(int, tokens[1::2]))
    except ValueError:  # a token int() does not read
        return None
    return None if start is None else (start, values)


def _rows_start(text: str) -> int:
    """Where the rows of b-file text begin: after its leading '#' lines, or at
    its end if those take all of it."""
    pos = 0
    while text.startswith("#", pos):
        pos = text.find("\n", pos) + 1 or len(text)
    return pos


def _canonical_chunks(text: str, pos: int):
    """Yield text[pos:] as ASCII bytes, whole lines of about _CHUNK characters
    at a time, each line checked to be canonical in form: two -?[0-9]+ tokens
    around one space, ended by a line feed.  The first chunk that is not, or
    that holds a non-ASCII character, is yielded as None and ends the walk."""
    while pos < len(text):
        # whole lines, about _CHUNK characters: no check copies the text
        end = text.find("\n", pos + _CHUNK)
        end = len(text) if end < 0 else end + 1
        chunk = text[pos:end]
        chunk = chunk.encode("ascii") if chunk.isascii() else b""
        pos = end
        # one space then one "\n" per line, and no token empty
        if (
            chunk.translate(None, b"0123456789-") != b" \n" * chunk.count(b"\n")
            or not chunk.endswith(b"\n")
            or chunk.startswith(b" ")
            or b"\n " in chunk
            or b" \n" in chunk
        ):
            yield None
            return
        yield chunk


def _parse_lines(text: str, sequence_id: str = "") -> BFileTable:
    """`parse_bfile` line by line: any text, and the error for a bad one."""
    indices, values = [], []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise _row_error(lineno, raw, "expected '<index> <value>', got")
        line = raw.strip()
        try:
            # int() also takes '+1', '1_0' and non-ASCII digits: with those
            # ruled out it takes exactly -?[0-9]+, and it raises on the rest
            if not line.isascii() or "_" in line or "+" in line:
                raise ValueError
            index, value = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise _row_error(lineno, raw, "non-integer token in") from None
        # the tokens are ASCII decimals, so an unprintable character other
        # than a tab is whitespace between them that is not a space or a tab
        if not line.replace("\t", " ").isprintable():
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
    """Parse the UTF-8 b-file at a path or package resource, with no newline translation."""
    return parse_bfile(path.read_bytes().decode("utf-8"), sequence_id)


def _row_error(lineno: int, raw: str, problem: str) -> BFileFormatError:
    """The error for a bad row, quoting its line less the CR of a CRLF line end."""
    quoted = raw.removesuffix("\r")
    return BFileFormatError(f"line {lineno}: {problem} {quoted!r}")


def text_chunks(values: list[int] | tuple[int, ...] | bytes, start: int | None = None):
    """Yield the lines of values, _ROWS lines at a time: the canonical b-file
    rows '<index> <value>' from index start, each with a single space and
    ended by a line feed, or one value a line where start is None.

    Each chunk is one %-format over a cell list that slice assignment fills,
    so the text is never held whole."""
    line = "%d\n" if start is None else "%d %d\n"
    cells = [0] * (2 * _ROWS)  # a row's index cell, then its value cell
    for lo in range(0, len(values), _ROWS):
        part = values[lo:lo + _ROWS]
        n = len(part)
        if start is not None:
            del cells[2 * n:]  # the last chunk's rows only
            cells[0::2] = range(start + lo, start + lo + n)
            cells[1::2] = part
            part = cells
        yield line * n % tuple(part)


def serialize_bfile(table: BFileTable) -> str:
    """The table's text in the canonical form that `text_chunks` writes."""
    return "".join(text_chunks(table.values, table.start))


def cross_check(
    seq: SequenceDescriptor,
    table: BFileTable,
    limit: int,
    *,
    generated: list[int] | None = None,
) -> list[tuple[int, int, int]]:
    """Compare generated terms against table rows.

    Returns (index, expected, actual) triples where `expected` is the table's
    value (the external reference) and `actual` is the generator's output.
    `generated`, the generator's terms from its offset where the caller has
    them already, stands for the generator if it holds as many terms as the
    rows compared.
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
    if generated is None or len(generated) != len(values):
        generated = seq.terms(seq.offset, seq.offset + len(values))
    rows = zip(itertools.count(table.start), values, generated)
    return list(itertools.compress(rows, map(operator.ne, values, generated)))


def cross_check_text(
    seq: SequenceDescriptor, text: str, limit: int
) -> tuple[int, list[tuple[int, int, int]]]:
    """The rows checked and the mismatches of b-file text against a generator:
    those of `cross_check(seq, parse_bfile(text, seq.id), limit)`, with its
    errors.

    Text is first checked as text.  If it is canonical in form after its
    leading '#' lines, its first and last rows are at the indices that 1 to
    limit rows from the offset would have, and it holds no '-', those rows
    are generated once and each chunk that `text_chunks` writes of them is
    compared in place, up to the first that differs.  Only text that
    differs, or fails one of those checks, is parsed, and the terms already
    generated are compared with its table.  So a negative value, or an index
    gap that the last row's index shows, is found by the parse before any
    term is generated.
    """
    pos = _rows_start(text)
    rows = text.count("\n", pos)
    last = text.rfind("\n", pos, len(text) - 1) + 1 or pos
    generated = None
    if (
        0 < rows <= limit
        and text.startswith(f"{seq.offset} ", pos)
        and text.startswith(f"{seq.offset + rows - 1} ", last)
        and text.find("-", pos) < 0
        and None not in _canonical_chunks(text, pos)
    ):
        generated = seq.terms(seq.offset, seq.offset + rows)
        for chunk in text_chunks(generated, seq.offset):
            if not text.startswith(chunk, pos):
                break
            pos += len(chunk)
        else:
            return rows, []
    table = parse_bfile(text, seq.id)
    return min(limit, len(table)), cross_check(seq, table, limit, generated=generated)


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
    parsed table is returned uncached.  An empty cache_dir means the default,
    as an empty $SEQPARITY_CACHE_DIR does.
    """
    cache_path = Path(cache_dir or default_cache_dir())
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
