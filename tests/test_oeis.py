"""b-file parsing, serialization, fixtures, cross-checking, and retrieval."""

import http.client
import re
import sys
import urllib.request

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import traced_peak
from seqparity import oeis
from seqparity.catalogue import CATALOGUE, SequenceDescriptor
from seqparity.oeis import (
    BFileFormatError,
    BFileTable,
    BFileUnavailableError,
    OffsetMismatchError,
    bfile_name,
    bfile_url,
    cross_check,
    fetch_bfile,
    fixture_table,
    parse_bfile,
    serialize_bfile,
)

FIXTURE_IDS = sorted(seq_id for seq_id in CATALOGUE if seq_id != "m")


@st.composite
def tables(draw):
    start = draw(st.integers(min_value=-3, max_value=50))
    values = draw(
        st.lists(st.integers(min_value=0, max_value=10**30), min_size=1, max_size=40)
    )
    return BFileTable(draw(st.sampled_from(["", "A000001"])), start, tuple(values))


def write_loosely(draw, rows):
    """b-file text of (index, value) token pairs with drawn separators, line
    ends, comments and blank lines; also the line number of each row."""
    lines, linenos = [], []
    for index, value in rows:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            lines.append(draw(st.sampled_from(["", " \t", "#", "# 1 +2 x"])))
        linenos.append(len(lines) + 1)
        separator = draw(st.sampled_from([" ", "\t", " \t  "]))
        lines.append(f"{index}{separator}{value}")
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    ends[-1] = draw(st.sampled_from(["", "\n", "\r\n"]))
    return "".join(line + end for line, end in zip(lines, ends)), linenos


def inject(draw, rows, fault):
    """A copy of (index, value) rows with one drawn row given a fault: its
    index one too high (a gap), its value negative, or a '+' before its value;
    also the position of that row."""
    rows = list(rows)
    position = draw(st.integers(min_value=1 if fault == "gap" else 0, max_value=len(rows) - 1))
    index, value = rows[position]
    rows[position] = {
        "gap": (index + 1, value),
        "negative": (index, -value - 1),
        "plus": (index, f"+{value}"),
    }[fault]
    return rows, position


def outcome(parse, text):
    """The table a parse route reads from text, or the message of its error."""
    try:
        return parse(text, "A000001")
    except BFileFormatError as exc:
        return str(exc)


def test_parse_simple_table():
    table = parse_bfile("0 1\n1 0\n2 0\n")
    assert (table.start, table.values) == (0, (1, 0, 0))
    # a CRLF line end and tab separators read the same
    assert parse_bfile("0 1\r\n1\t0\r\n2 \t 0") == table


def test_parse_skips_comments_and_blank_lines():
    table = parse_bfile("# comment\n\n1 1\n2 3\n")
    assert table == BFileTable("", 1, (1, 3))


def test_parse_rejects_index_gap():
    with pytest.raises(BFileFormatError, match="gap"):
        parse_bfile("1 1\n3 7\n")


def test_parse_rejects_extra_tokens():
    with pytest.raises(BFileFormatError, match="expected"):
        parse_bfile("1 1 9\n")
    # rows are split at spaces and tabs only, and lines at "\n" only
    for text in ["0\x1f1\n", "0 1\u20281 2\n", "0 1\r1 2\r\n", "0\x0b1\n"]:
        with pytest.raises(BFileFormatError, match=r"^line 1: expected '<index> <value>', got "):
            parse_bfile(text)


def test_parse_rejects_non_integers():
    with pytest.raises(BFileFormatError, match="non-integer"):
        parse_bfile("1 x\n")
    # a form feed inside a comment does not start a new line
    with pytest.raises(BFileFormatError, match=r"^line 3: non-integer token in '1 x'$"):
        parse_bfile("# page\x0cbreak\n0 1\n1 x\n")
    # the CR of a CRLF line end is not quoted
    with pytest.raises(BFileFormatError, match=r"^line 2: non-integer token in '1 x'$"):
        parse_bfile("0 1\r\n1 x\r\n")


# int() reads each of these, but none is an ASCII decimal integer -?[0-9]+
NON_DECIMAL_ROWS = ["1_0 0", "1 +1", "+1 1", "\u0661 1", "1 \uff11", "1 1_0", "-1_0 0"]


@pytest.mark.parametrize("row", NON_DECIMAL_ROWS)
def test_parse_rejects_tokens_that_are_not_ascii_decimal(row):
    with pytest.raises(BFileFormatError, match=r"^line 2: non-integer token in "):
        parse_bfile(f"0 0\n{row}\n")


def test_parse_keeps_comments_free_form_and_reads_negative_indices():
    table = parse_bfile("# a_1 = +1, \u0661\n-1 10\n0 0\n")
    assert table == BFileTable("", -1, (10, 0))
    # characters str.splitlines() breaks at stay inside the comment
    breaks = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\r"
    comment = "# " + " x ".join(breaks) + " 1 2\n"
    assert parse_bfile(comment + "-1 10\n0 0\n") == table
    with pytest.raises(BFileFormatError, match=r"^line 3: non-integer token in '1 x'$"):
        parse_bfile(comment + "0 1\n1 x\n")


def test_fetch_online_never_caches_a_non_decimal_download(tmp_path, monkeypatch):
    monkeypatch.setattr(oeis, "_download", lambda url, timeout: "0 1\n1 +2\n")
    assert fetch_bfile("A061297", tmp_path, offline=False) == fixture_table("A061297")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "text", ["", "\n\n", "# header only\n#\n"], ids=["empty", "blank", "comments"]
)
def test_parse_rejects_text_with_no_rows(text):
    with pytest.raises(BFileFormatError, match="no '<index> <value>' rows"):
        parse_bfile(text)


def test_parse_rejects_negative_values():
    with pytest.raises(BFileFormatError, match="negative"):
        parse_bfile("0 -5\n")


def test_a_negative_value_after_a_gap_names_its_own_index():
    with pytest.raises(BFileFormatError, match=r"^negative value -1 at index 2; "):
        parse_bfile("0 1\n2 -1\n")


def test_the_first_faulty_row_names_the_table_error():
    with pytest.raises(BFileFormatError, match=r"^index gap: 0 followed by 2$"):
        parse_bfile("0 1\n2 5\n3 -1\n")


def test_a_syntax_error_on_any_line_comes_before_a_table_error():
    with pytest.raises(BFileFormatError, match=r"^line 2: non-integer token in 'x y'$"):
        parse_bfile("0 -1\nx y\n")


def test_a_value_beyond_the_int_digit_limit_is_a_format_error_outside_the_cli():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int/str conversion limit before Python 3.11")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        with pytest.raises(BFileFormatError, match=r"^line 1: non-integer token in "):
            parse_bfile("0 " + "7" * 5000 + "\n")
    finally:
        sys.set_int_max_str_digits(saved)


def a104258_table(rows):
    seq = CATALOGUE["A104258"]
    return BFileTable(seq.id, seq.offset, tuple(seq.terms(seq.offset, seq.offset + rows)))


def test_parsing_4096_rows_peaks_below_a_measured_bound():
    # tracemalloc measured a 363,950-byte peak (Python 3.11; 363,950 to
    # 365,156 on 3.10 to 3.13) for these 158,162 bytes of canonical text: one
    # chunk, its split tokens, the values and the table.  The line loop,
    # which splits the whole text into lines first, peaked at 728,542 bytes,
    # and a whole-text regex match that keeps backtracking state for each
    # row would add about 1.7 MB at this row count.
    table = a104258_table(4096)
    text = serialize_bfile(table)
    parsed, peak = traced_peak(parse_bfile, text, table.sequence_id)
    assert parsed == table
    assert peak < 400_000


def test_serializing_4096_rows_peaks_below_a_measured_bound():
    # tracemalloc measured a 397,557-byte peak (Python 3.11; 382,589 to
    # 397,557 on 3.10 to 3.13) for one %-format over the flat row tuple: the
    # tuple, the index ints, the format string and the 158,162-byte text.
    # Joining one f-string per row peaked at 517,517 to 550,565 bytes.
    table = a104258_table(4096)
    text, peak = traced_peak(serialize_bfile, table)
    assert len(text) == 158_162
    assert peak < 450_000


def test_serialize_examples():
    assert serialize_bfile(BFileTable("", 0, (1, 0))) == "0 1\n1 0\n"
    assert serialize_bfile(BFileTable("", 1, (1608,))) == "1 1608\n"


@given(tables())
def test_round_trip_identity(table):
    assert parse_bfile(serialize_bfile(table), table.sequence_id) == table


@given(st.data())
def test_a_loosely_written_table_parses_back(data):
    table = data.draw(tables())
    text, _ = write_loosely(data.draw, enumerate(table.values, table.start))
    assert parse_bfile(text, table.sequence_id) == table


@given(st.data(), st.sampled_from(["gap", "negative", "plus"]))
def test_an_injected_fault_is_named_by_its_row(data, fault):
    table = data.draw(tables())
    assume(fault != "gap" or len(table) > 1)
    rows, position = inject(data.draw, enumerate(table.values, table.start), fault)
    index, value = table.start + position, table.values[position]
    if fault == "gap":
        expected = rf"^index gap: {index - 1} followed by {index + 1}$"
    elif fault == "negative":
        expected = rf"^negative value {-value - 1} at index {index}; "
    text, linenos = write_loosely(data.draw, rows)
    if fault == "plus":
        expected = rf"^line {linenos[position]}: non-integer token in "
    with pytest.raises(BFileFormatError, match=expected):
        parse_bfile(text)


@given(st.data(), st.sampled_from([None, "gap", "negative", "plus"]), st.booleans())
def test_the_chunked_route_reads_what_the_line_loop_reads(data, fault, loosely):
    # the same table or the same error, from canonical text with or without a
    # comment header and from loosely written text, each with or without a fault
    table = data.draw(tables())
    rows = list(enumerate(table.values, table.start))
    if fault is not None and (fault != "gap" or len(rows) > 1):
        rows, _ = inject(data.draw, rows, fault)
    if loosely:
        text, _ = write_loosely(data.draw, rows)
    else:
        header = data.draw(st.sampled_from(["", "# A000001\n", "#\n# n a(n)\n"]))
        text = header + "".join(f"{index} {value}\n" for index, value in rows)
    assert outcome(parse_bfile, text) == outcome(oeis._parse_lines, text)


LONG = "".join(f"{i} {3 * i + 1}\n" for i in range(20_000))
# the first row of LONG's second chunk, and the rows before it
SECOND = LONG.find("\n", oeis._CHUNK) + 1
HEAD, ROW, TAIL = LONG[:SECOND], *LONG[SECOND:].split("\n", 1)


@pytest.mark.parametrize(
    "text",
    [
        "1 2 2\n3\n",  # as many spaces as line feeds, but not one of each a line
        " 0\n",
        "0 \n1 1\n",
        "0 1\n 1\n",
        "0 1\n1",
        "0 1\n1 1",
        " 0 1\n1 1\n",
        "0 1 \n1 1\n",
        "0 1\n\n1 1\n",
        "0 1\n#\n1 1\n",
        "0 1\n2 1\n",
        "0 -1\n2 1\n",
        "0 1\n1 --1\n",
        "0 1\n1 1-\n",
        "0 1\n-\n",
        "0 \u0661\n",
        "# only\n",
        "#",
        "",
        pytest.param(HEAD + ROW.replace(" ", "  ") + "\n" + TAIL, id="long-double-space"),
        pytest.param(HEAD + "#\n" + ROW + "\n" + TAIL, id="long-comment"),
        pytest.param(HEAD + " " + ROW + "\n" + TAIL, id="long-leading-space"),
        pytest.param(HEAD + ROW + " \n" + TAIL, id="long-trailing-space"),
        pytest.param(HEAD + ROW + "\r\n" + TAIL, id="long-crlf"),
        pytest.param(LONG[:-1], id="long-no-final-line-feed"),
        pytest.param(LONG + "20000", id="long-lone-last-index"),
        # the second chunk's indices start again from 0
        pytest.param(HEAD + HEAD, id="long-chunk-restarts"),
    ],
)
def test_the_chunked_route_declines_what_is_not_canonical(text):
    assert oeis._parse_canonical(text) is None
    assert outcome(parse_bfile, text) == outcome(oeis._parse_lines, text)


@pytest.mark.parametrize(
    "text",
    [LONG, "# A000001\n#\n" + LONG, "-2 0\n-1 -0\n0 007\n", "0 -5\n"],
    ids=["long", "header", "signs", "negative"],
)
def test_canonical_text_is_read_by_the_chunked_route(text):
    assert oeis._parse_canonical(text) is not None
    assert outcome(parse_bfile, text) == outcome(oeis._parse_lines, text)


def test_bfile_naming():
    assert bfile_name("A061297") == "b061297.txt"
    assert bfile_url("A061297") == "https://oeis.org/A061297/b061297.txt"
    with pytest.raises(ValueError):
        bfile_name("m")
    with pytest.raises(ValueError):
        bfile_name("A1234")


def _bfile_name_by_regex(sequence_id: str) -> str | None:
    """The b-file name by the regex bfile_name once matched, None for a non-id."""
    match = re.match(r"\AA(\d{6})\Z", sequence_id)
    return None if match is None else f"b{match.group(1)}.txt"


def _bfile_name_or_none(sequence_id: str) -> str | None:
    try:
        return bfile_name(sequence_id)
    except ValueError:
        return None


@pytest.mark.parametrize("sequence_id", [
    "A000001", "A000001\n", "A00001", "A0000001", "a000001", "B000001", "A", "",
    " A000001", "A-00001", "A+00001", "A 00001", "A00_001",
    "A\u0660\u0660\u0660\u0660\u0660\u0661",  # Arabic-Indic digits, category Nd
    "A\uff10\uff10\uff10\uff10\uff10\uff11",  # fullwidth digits, Nd
    "A00000\u00b9",  # superscript one: a digit to isdigit(), category No
    "A00000\u2160",  # Roman numeral one: numeric, category Nl
])
def test_bfile_name_takes_the_ids_a_regex_digit_does(sequence_id):
    assert _bfile_name_or_none(sequence_id) == _bfile_name_by_regex(sequence_id)


# ASCII digits, Nd digits of three scripts, an No and an Nl numeral, and a
# few non-digits
ID_TAIL = st.text(st.sampled_from("0123456789\u0661\u0967\uff11\u00b9\u2160\nAx "),
                  min_size=5, max_size=8)


@given(ID_TAIL.map("A".__add__))
def test_bfile_name_agrees_with_the_regex_on_any_tail(sequence_id):
    assert _bfile_name_or_none(sequence_id) == _bfile_name_by_regex(sequence_id)


@pytest.mark.parametrize("seq_id", FIXTURE_IDS)
def test_every_generator_matches_its_fixture(seq_id):
    table = fixture_table(seq_id)
    assert len(table) > 0
    assert cross_check(CATALOGUE[seq_id], table, len(table)) == []


def test_cross_check_reports_corruption():
    table = fixture_table("A061297")
    values = list(table.values)
    values[5] += 1  # the fixture starts at index 0
    corrupted = BFileTable(table.sequence_id, table.start, tuple(values))
    mismatches = cross_check(CATALOGUE["A061297"], corrupted, 50)
    assert mismatches == [(5, 33, 32)]  # table said 33, generator says 32


def test_cross_check_respects_limit():
    table = fixture_table("A061297")
    values = list(table.values)
    values[10] += 1
    corrupted = BFileTable(table.sequence_id, table.start, tuple(values))
    assert cross_check(CATALOGUE["A061297"], corrupted, 5) == []
    assert cross_check(CATALOGUE["A061297"], corrupted, 0) == []
    with pytest.raises(ValueError):
        cross_check(CATALOGUE["A061297"], corrupted, -1)


def test_cross_check_rejects_id_disagreement():
    table = fixture_table("A061297")
    with pytest.raises(ValueError, match="descriptor"):
        cross_check(CATALOGUE["A102393"], table, 10)


def test_cross_check_reports_offset_disagreement():
    shifted = BFileTable("A061297", 5, (1, 2))
    with pytest.raises(OffsetMismatchError):
        cross_check(CATALOGUE["A061297"], shifted, 10)


def test_fixture_missing_id():
    with pytest.raises(BFileUnavailableError):
        fixture_table("A000000")


def test_fetch_prefers_cache(tmp_path, monkeypatch):
    def explode(url, timeout):
        raise AssertionError("network touched")

    monkeypatch.setattr(oeis, "_download", explode)
    cached = tmp_path / "b061297.txt"
    cached.write_text("0 7\n1 8\n", encoding="utf-8")
    table = fetch_bfile("A061297", tmp_path, offline=False)
    assert table == BFileTable("A061297", 0, (7, 8))


def test_fetch_offline_never_touches_network(tmp_path, monkeypatch):
    def explode(url, timeout):
        raise AssertionError("network touched")

    monkeypatch.setattr(oeis, "_download", explode)
    table = fetch_bfile("A061297", tmp_path, offline=True)
    assert table == fixture_table("A061297")


def test_fetch_offline_unknown_id_has_no_source(tmp_path):
    with pytest.raises(BFileUnavailableError, match="no source"):
        fetch_bfile("A000000", tmp_path, offline=True)


def test_fetch_online_downloads_and_caches(tmp_path, monkeypatch):
    payload = "# header\n0 1\n1 3\n"
    calls = []

    def fake_download(url, timeout):
        calls.append(url)
        return payload

    monkeypatch.setattr(oeis, "_download", fake_download)
    table = fetch_bfile("A048883", tmp_path, offline=False)
    assert calls == ["https://oeis.org/A048883/b048883.txt"]
    assert table == BFileTable("A048883", 0, (1, 3))
    assert (tmp_path / "b048883.txt").read_text(encoding="utf-8") == payload
    # second call is served from the cache
    monkeypatch.setattr(oeis, "_download", lambda url, timeout: 1 / 0)
    assert fetch_bfile("A048883", tmp_path, offline=False) == table


def test_fetch_online_retries_then_falls_back_to_fixture(tmp_path, monkeypatch):
    import urllib.error

    attempts = []

    def flaky(url, timeout):
        attempts.append(url)
        raise urllib.error.URLError("unreachable")

    monkeypatch.setattr(oeis, "_download", flaky)
    table = fetch_bfile("A061297", tmp_path, offline=False)
    assert len(attempts) == 2  # one retry
    assert table == fixture_table("A061297")
    assert not (tmp_path / "b061297.txt").exists()


@pytest.mark.parametrize(
    "corrupt",
    [b"0 1\n2 5\n", b"<html>not found</html>\n", b"0 \xff\n"],
    ids=["index-gap", "html", "not-utf8"],
)
def test_fetch_offline_corrupt_cache_serves_fixture(tmp_path, monkeypatch, corrupt):
    def explode(url, timeout):
        raise AssertionError("network touched")

    monkeypatch.setattr(oeis, "_download", explode)
    cached = tmp_path / "b061297.txt"
    cached.write_bytes(corrupt)
    assert fetch_bfile("A061297", tmp_path, offline=True) == fixture_table("A061297")
    assert cached.read_bytes() == corrupt  # left as it was, not quarantined


def test_fetch_offline_unreadable_cache_entry_serves_fixture(tmp_path, monkeypatch):
    def explode(url, timeout):
        raise AssertionError("network touched")

    monkeypatch.setattr(oeis, "_download", explode)
    (tmp_path / "b061297.txt").mkdir()  # reading it raises IsADirectoryError
    assert fetch_bfile("A061297", tmp_path, offline=True) == fixture_table("A061297")


def test_fetch_online_unwritable_cache_returns_download(tmp_path, monkeypatch):
    monkeypatch.setattr(oeis, "_download", lambda url, timeout: "0 1\n1 3\n")
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("", encoding="utf-8")
    table = fetch_bfile("A048883", not_a_dir, offline=False)
    assert table == BFileTable("A048883", 0, (1, 3))
    assert not_a_dir.read_text(encoding="utf-8") == ""
    assert [p.name for p in tmp_path.iterdir()] == ["cache"]  # no temporary left


def test_fetch_online_replaces_corrupt_cache(tmp_path, monkeypatch):
    payload = "0 1\n1 3\n"
    monkeypatch.setattr(oeis, "_download", lambda url, timeout: payload)
    cached = tmp_path / "b048883.txt"
    cached.write_text("0 1\n0 1\n", encoding="utf-8")
    table = fetch_bfile("A048883", tmp_path, offline=False)
    assert table == BFileTable("A048883", 0, (1, 3))
    assert cached.read_text(encoding="utf-8") == payload


def _incomplete_read(url, timeout):
    raise http.client.IncompleteRead(b"0 1\n1 2\n", 4096)


def _undecodable(url, timeout):
    raise UnicodeDecodeError("utf-8", b"0 \xff\n", 2, 3, "invalid start byte")


def _garbled(url, timeout):
    return "<html>502 Bad Gateway</html>\n"


def _empty(url, timeout):
    return ""


@pytest.mark.parametrize("download", [_incomplete_read, _undecodable, _garbled, _empty])
def test_fetch_online_failed_download_falls_back_to_fixture(
    tmp_path, monkeypatch, download
):
    attempts = []

    def counted(url, timeout):
        attempts.append(url)
        return download(url, timeout)

    monkeypatch.setattr(oeis, "_download", counted)
    table = fetch_bfile("A061297", tmp_path, offline=False)
    assert len(attempts) == 2  # one retry
    assert table == fixture_table("A061297")
    assert list(tmp_path.iterdir()) == []  # nothing cached


class _Response:
    """What urlopen returns: a context manager whose read() gives the body."""

    def __init__(self, read):
        self.read = read
        self.closed = False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.closed = True


def _serve(monkeypatch, read):
    """Make urlopen answer every request with `read`; return the responses
    and the (url, timeout) of each request."""
    responses, requests = [], []

    def urlopen(url, timeout):
        requests.append((url, timeout))
        responses.append(_Response(read))
        return responses[-1]

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    return responses, requests


def test_download_decodes_and_caches_good_bytes(tmp_path, monkeypatch):
    # a non-ASCII comment shows the decode is UTF-8 and the cache keeps the bytes
    body = "# A048883 \u00b7 3^wt(n)\r\n0 1\n1 3\n".encode("utf-8")
    responses, requests = _serve(monkeypatch, lambda: body)
    table = fetch_bfile("A048883", tmp_path, offline=False, timeout=2.5)
    assert table == BFileTable("A048883", 0, (1, 3))
    assert requests == [("https://oeis.org/A048883/b048883.txt", 2.5)]
    assert [r.closed for r in responses] == [True]
    assert (tmp_path / "b048883.txt").read_bytes() == body


def _incomplete_body():
    raise http.client.IncompleteRead(b"0 1\n1 2\n", 4096)


@pytest.mark.parametrize(
    "read", [lambda: b"0 1\n1 \xff\n", _incomplete_body], ids=["not-utf8", "incomplete-read"]
)
def test_download_of_a_bad_body_is_retried_never_cached_and_falls_back(
    tmp_path, monkeypatch, read
):
    responses, requests = _serve(monkeypatch, read)
    assert fetch_bfile("A061297", tmp_path, offline=False) == fixture_table("A061297")
    assert len(requests) == 2  # one retry
    assert [r.closed for r in responses] == [True, True]
    assert list(tmp_path.iterdir()) == []  # nothing cached


def test_fetch_offline_empty_cache_entry_serves_fixture(tmp_path):
    (tmp_path / "b061297.txt").write_text("", encoding="utf-8")
    assert fetch_bfile("A061297", tmp_path, offline=True) == fixture_table("A061297")


def test_fetch_is_deterministic_offline(tmp_path):
    first = fetch_bfile("A128975", tmp_path, offline=True)
    second = fetch_bfile("A128975", tmp_path, offline=True)
    assert serialize_bfile(first) == serialize_bfile(second)


def test_table_invariants_enforced_on_construction():
    # a gap cannot be built: the indices are start, start + 1, ...
    with pytest.raises(BFileFormatError):
        BFileTable("", 0, (-1,))
    # the first negative value is named, with its own index
    with pytest.raises(BFileFormatError, match=r"^negative value -1 at index 4; "):
        BFileTable("", 3, (0, -1, -2))


def test_a_table_with_no_rows_is_rejected():
    # so cross_check never meets a table it cannot read the offset of
    with pytest.raises(BFileFormatError, match="no '<index> <value>' rows"):
        BFileTable("A061297", 0, ())
