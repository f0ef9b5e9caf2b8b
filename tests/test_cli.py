"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import argparse
import contextlib
import dataclasses
import errno
import gc
import http.client
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    a003071_suffix_sum,
    a029886_by_digits,
    a113474_by_halving,
    a247303_by_digits,
    build_parser_eager,
    master_m_recursive,
)
from seqparity import __version__, digits, oeis
from seqparity.catalogue import CATALOGUE, parity_catalogue
from seqparity.cli import build_parser, main, parse_args
from seqparity.lcm_sums import a061297
from seqparity.parity import thue_morse


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_plain(capsys):
    code, out, _ = run_cli(capsys, "gen", "A061297", "--from", "0", "--count", "5")
    assert code == 0
    assert out == "1\n2\n4\n8\n14\n"


def test_gen_plain_thue_morse(capsys):
    code, out, _ = run_cli(capsys, "gen", "A010060", "--from", "0", "--count", "4")
    assert code == 0
    assert out == "0\n1\n1\n0\n"


def test_gen_bfile(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "A061297", "--from", "0", "--count", "3", "--format", "bfile"
    )
    assert code == 0
    assert out == "0 1\n1 2\n2 4\n"


def test_gen_json(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "A128975", "--count", "6", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record == {
        "id": "A128975",
        "from": 1,
        "count": 6,
        "terms": [0, 0, 0, 0, 0, 1],
    }


@pytest.mark.parametrize("argv", [
    ["gen", "A061297", "--count", "1"],
    ["gen", "A061297", "--count", "600"],  # big integers, in three chunks
    ["parity", "A029886", "--from", "65530", "--count", "600"],
    ["gen", "m", "--count", "20"],
])
def test_gen_json_is_the_text_of_json_dumps(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    seq = CATALOGUE[argv[1]]
    start = int(argv[argv.index("--from") + 1]) if "--from" in argv else seq.offset
    count = int(argv[-1])
    terms = seq.terms(start, start + count)
    if argv[0] == "parity":
        terms = [v & 1 for v in terms]
    record = {"id": argv[1], "from": start, "count": count, "terms": terms}
    assert out == json.dumps(record, sort_keys=True) + "\n"


def test_gen_defaults_to_sequence_offset(capsys):
    code, out, _ = run_cli(capsys, "gen", "A093431", "--count", "3")
    assert code == 0
    assert out == "1\n3\n7\n"


def test_gen_master_sequence(capsys):
    code, out, _ = run_cli(capsys, "gen", "m", "--count", "8")
    assert code == 0
    assert out == "1\n0\n0\n0\n0\n0\n1\n0\n"


def test_gen_unknown_id(capsys):
    code, _, err = run_cli(capsys, "gen", "A999999", "--count", "4")
    assert code == 2
    assert "A999999" in err


def test_gen_from_below_offset(capsys):
    code, _, err = run_cli(capsys, "gen", "A128975", "--from", "0", "--count", "4")
    assert code == 2
    assert "starts at index 1" in err


def test_gen_rejects_non_positive_count(capsys):
    code, _, err = run_cli(capsys, "gen", "A128975", "--count", "0")
    assert code == 2
    assert "count" in err


def test_parity_command(capsys):
    code, out, _ = run_cli(capsys, "parity", "A061297", "--count", "12")
    assert code == 0
    assert out == "1\n0\n0\n0\n0\n0\n1\n0\n0\n0\n1\n0\n"


def test_parity_matches_master_prefix(capsys):
    code, parities, _ = run_cli(capsys, "parity", "A102393", "--count", "25")
    code2, master, _ = run_cli(capsys, "gen", "m", "--count", "25")
    assert code == code2 == 0
    assert parities == master


def test_verify_single_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "A102393", "--n-max", "4096")
    assert code == 0
    assert "claimed: PASS" in out


def test_verify_single_shifted_claim(capsys):
    code, out, _ = run_cli(capsys, "verify", "A092524")
    assert code == 0  # a fitted relation exists, so the run succeeds
    assert "claimed: FAIL" in out
    assert "fitted: shift=-1" in out


def test_verify_unknown_id(capsys):
    code, _, err = run_cli(capsys, "verify", "A999999")
    assert code == 2
    assert "unknown" in err


def test_verify_uncatalogued_relation(capsys):
    code, _, err = run_cli(capsys, "verify", "A010060")
    assert code == 2
    assert "no parity relation" in err


def test_verify_all_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "all", "--n-max", "512", "--n-max-heavy", "64",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["n_max_cheap"] == 512
    assert payload["meta"]["n_max_heavy"] == 64
    records = payload["sequences"]
    assert len(records) == 10
    failed = {r["id"] for r in records if r["claimed_status"] == "FAIL"}
    assert failed == {"A092524", "A104258", "A093431", "A003071"}
    for record in records:
        assert record["fitted"] is not None
        assert set(record) >= {
            "id", "range", "claimed", "claimed_status", "fitted", "mismatch_count",
        }


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_verify_timings_are_opt_in_and_on_stderr(capsys, fmt):
    argv = ["verify", "all", "--n-max", "512", "--n-max-heavy", "64", "--format", fmt]
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    timed_code, timed_out, timed_err = run_cli(capsys, *argv, "--timings")
    assert (timed_code, timed_out) == (code, out)
    lines = timed_err.splitlines()
    ids = [seq.id for seq in parity_catalogue()]
    assert [line.split()[0] for line in lines] == ids + ["total"]
    row = re.compile(r"\A\S+  generate: (\d+\.\d{4}) s  fit: (\d+\.\d{4}) s\Z")
    assert all(row.match(line) for line in lines)
    generate, fit = zip(*(map(float, row.match(line).groups()) for line in lines[:-1]))
    total = row.match(lines[-1]).groups()
    # each row is rounded to 0.1 ms
    assert abs(float(total[0]) - sum(generate)) < 1e-4 * len(lines)
    assert abs(float(total[1]) - sum(fit)) < 1e-4 * len(lines)


def test_check_bfile_against_fixture(capsys):
    code, out, _ = run_cli(capsys, "check-bfile", "A128975", "--limit", "17")
    assert code == 0
    assert "0 mismatches" in out


def test_check_bfile_detects_corruption(capsys, tmp_path):
    bad = tmp_path / "b061297.txt"
    bad.write_text("0 1\n1 2\n2 4\n3 8\n4 15\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "check-bfile", "A061297", "--file", str(bad), "--limit", "12"
    )
    assert code == 1
    assert "4 expected 15 got 14" in out


HAS_INT_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")


@contextlib.contextmanager
def no_int_digit_limit():
    """Lift the interpreter's int/str conversion limit, where it has one."""
    if not HAS_INT_DIGIT_LIMIT:
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("fmt", ["plain", "bfile", "json"])
def test_gen_prints_terms_beyond_the_int_digit_limit(capsys, fmt):
    # a061297(19700) has 4310 decimal digits, above the default limit of 4300
    code, out, err = run_cli(
        capsys, "gen", "A061297", "--from", "19700", "--count", "1", "--format", fmt
    )
    assert (code, err) == (0, "")
    with no_int_digit_limit():
        expected = str(a061297(19700))
        assert len(expected) > 4300
        if fmt == "plain":
            assert out == f"{expected}\n"
        elif fmt == "bfile":
            assert out == f"19700 {expected}\n"
        else:
            assert json.loads(out) == {
                "id": "A061297", "from": 19700, "count": 1, "terms": [int(expected)],
            }


with no_int_digit_limit():
    # an index of 4301 decimal digits, above the default limit of 4300
    DEEP_FROM = 10**4300 + 7
    DEEP_FROM_TEXT = str(DEEP_FROM)


@pytest.mark.parametrize("fmt", ["plain", "bfile", "json"])
def test_gen_reads_a_from_beyond_the_int_digit_limit(capsys, fmt):
    code, out, err = run_cli(
        capsys, "gen", "A010060", "--from", DEEP_FROM_TEXT, "--count", "3", "--format", fmt
    )
    assert (code, err) == (0, "")
    expected = [thue_morse(DEEP_FROM + k) for k in range(3)]
    assert expected == [1, 1, 0]
    with no_int_digit_limit():
        if fmt == "plain":
            assert out == "".join(f"{v}\n" for v in expected)
        elif fmt == "bfile":
            assert out == "".join(f"{DEEP_FROM + k} {v}\n" for k, v in enumerate(expected))
        else:
            assert json.loads(out) == {
                "id": "A010060", "from": DEEP_FROM, "count": 3, "terms": expected,
            }


def test_check_bfile_reads_values_beyond_the_int_digit_limit(capsys, tmp_path):
    table = tmp_path / "b061297.txt"
    table.write_text("0 " + "1" * 5000 + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "check-bfile", "A061297", "--file", str(table))
    assert "non-integer" not in err
    assert (code, err) == (1, "")
    assert out == "0 expected " + "1" * 5000 + " got 1\nA061297: checked 1 terms, 1 mismatches\n"


@pytest.mark.skipif(not HAS_INT_DIGIT_LIMIT, reason="no int/str conversion limit")
@pytest.mark.parametrize("argv", [
    ["gen", "A061297", "--from", "19700", "--count", "1"],
    ["gen", "A999999"],
    ["check-bfile", "A010060", "--file", "no-such-b-file.txt"],
    ["gen", "A010060", "--from", DEEP_FROM_TEXT, "--count", "3"],
])
def test_main_restores_the_callers_int_digit_limit(argv):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        main(argv)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(saved)


def test_check_bfile_unknown_id(capsys):
    code, _, err = run_cli(capsys, "check-bfile", "A999999")
    assert code == 2
    assert "unknown" in err


def test_check_bfile_unreadable_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "check-bfile", "A061297", "--file", str(tmp_path / "missing.txt")
    )
    assert code == 2


def test_check_bfile_invalid_file(capsys, tmp_path):
    bad = tmp_path / "b061297.txt"
    bad.write_text("0 1\n5 2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "check-bfile", "A061297", "--file", str(bad))
    assert code == 2
    assert "gap" in err


@pytest.mark.parametrize(
    "position, row",
    [(10, "1_0 0"), (1, "1 +1"), (1, "\u0661 1")],
    ids=["underscore", "plus", "arabic"],
)
def test_check_bfile_rejects_a_token_that_is_not_ascii_decimal(capsys, tmp_path, position, row):
    # int() reads the row as the A010060 term it replaces, so only the
    # token check stands between the file and "0 mismatches"
    rows = [f"{n} {n.bit_count() & 1}" for n in range(11)]
    rows[position] = row
    bad = tmp_path / "b010060.txt"
    bad.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "check-bfile", "A010060", "--file", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: line {position + 1}: non-integer token in {row!r}\n"


# lines end at "\n" only, so this is one line, "0 0\r1 1" less its last CR
LONE_CR_BFILE = b"0 0\r1 1\r"


def test_check_bfile_reads_a_lone_carriage_return_as_no_line_end(capsys, tmp_path):
    bad = tmp_path / "b010060.txt"
    bad.write_bytes(LONE_CR_BFILE)
    code, out, err = run_cli(capsys, "check-bfile", "A010060", "--file", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: line 1: expected '<index> <value>', got '0 0\\r1 1'\n"


def test_a_lone_carriage_return_cache_entry_is_a_cache_miss(capsys, tmp_path):
    cached = tmp_path / "b010060.txt"
    cached.write_bytes(LONE_CR_BFILE)
    code, out, err = run_cli(
        capsys, "check-bfile", "A010060", "--file", "fetch", "--cache-dir", str(tmp_path)
    )
    assert (code, out, err) == (0, "A010060: checked 8 terms, 0 mismatches\n", "")
    assert cached.read_bytes() == LONE_CR_BFILE


def test_check_bfile_reads_crlf_line_ends(capsys, tmp_path):
    crlf = tmp_path / "b010060.txt"
    crlf.write_bytes(b"# A010060\r\n0 0\r\n1 1\r\n2 1\r\n")
    code, out, err = run_cli(capsys, "check-bfile", "A010060", "--file", str(crlf))
    assert (code, out, err) == (0, "A010060: checked 3 terms, 0 mismatches\n", "")


def test_check_bfile_offset_mismatch_is_a_failure(capsys, tmp_path):
    shifted = tmp_path / "table.txt"
    shifted.write_text("3 8\n4 14\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "check-bfile", "A061297", "--file", str(shifted)
    )
    assert code == 1
    assert "offset mismatch" in err


def _parse_route(seq, text, limit):
    """`oeis.cross_check_text` as a parse of the whole text, the route it
    takes for text that differs from what the writer would write."""
    table = oeis.parse_bfile(text, seq.id)
    return min(limit, len(table)), oeis.cross_check(seq, table, limit)


def _counting(monkeypatch, seq_id):
    """The (lo, hi) of every terms call the CLI makes for seq_id, as they come."""
    seq, calls = CATALOGUE[seq_id], []

    def terms(lo, hi):
        calls.append((lo, hi))
        return seq.terms(lo, hi)

    monkeypatch.setitem(CATALOGUE, seq_id, dataclasses.replace(seq, terms=terms))
    return calls


def _change_row(text, index):
    """The b-file text with the value at one index raised by one."""
    head, row, tail = text.partition(f"\n{index} ")
    value, _, rest = tail.partition("\n")
    return f"{head}{row}{int(value) + 1}\n{rest}"


# 3000 rows: eleven full 256-row chunks and a partial last one
WRITTEN_ROWS = 3000


@pytest.mark.parametrize("edit, extra, parsed", [
    (lambda text: text, [], False),
    (lambda text: _change_row(text, 2990), [], True),
    (lambda text: text.replace("\n", "\r\n"), [], True),
    (lambda text: text[:-1], [], True),
    (lambda text: "# A104258\n# written by gen\n" + text, [], False),
    (lambda text: "# A104258\n# no rows\n", [], True),
    (lambda text: "".join(f"{int(i) + 1} {v}\n" for i, v in map(str.split, text.splitlines())),
     [], True),
    (lambda text: text, ["--limit", "100"], True),
    (lambda text: re.sub(r"\n1500 \d+\n", "\n", text), [], True),
    (lambda text: text.replace("\n2990 ", "\n2990 -"), [], True),
], ids=["written", "last-chunk-changed", "crlf", "no-final-newline", "comment-block",
        "comments-only", "first-index-off-by-one", "limit-below-rows", "index-gap",
        "negative-value"])
def test_check_bfile_text_route_answers_as_the_parse_route(
    capsys, monkeypatch, tmp_path, edit, extra, parsed
):
    code, written, _ = run_cli(
        capsys, "gen", "A104258", "--count", str(WRITTEN_ROWS), "--format", "bfile"
    )
    assert code == 0
    path = tmp_path / "b104258.txt"
    path.write_bytes(edit(written).encode())
    argv = ["check-bfile", "A104258", "--file", str(path), *extra]
    parses, parse = [], oeis.parse_bfile
    monkeypatch.setattr(oeis, "parse_bfile", lambda *a: parses.append(a) or parse(*a))
    calls = _counting(monkeypatch, "A104258")
    by_text = run_cli(capsys, *argv)
    assert bool(parses) == parsed
    text_calls = calls[:]
    calls.clear()
    monkeypatch.setattr(oeis, "cross_check_text", _parse_route)
    assert run_cli(capsys, *argv) == by_text
    # the same terms, each generated once, whichever route answers: none
    # where the file is not a b-file
    assert text_calls == calls
    assert len(calls) <= 1


def test_check_bfile_finds_a_changed_value_in_the_last_chunk(capsys, tmp_path):
    _, written, _ = run_cli(
        capsys, "gen", "A104258", "--count", str(WRITTEN_ROWS), "--format", "bfile"
    )
    path = tmp_path / "b104258.txt"
    path.write_text(_change_row(written, 2990), encoding="utf-8")
    code, out, err = run_cli(capsys, "check-bfile", "A104258", "--file", str(path))
    got = int(written.split("\n2990 ")[1].split("\n")[0])
    assert (code, err) == (1, "")
    assert out == (f"2990 expected {got + 1} got {got}\n"
                   f"A104258: checked {WRITTEN_ROWS} terms, 1 mismatches\n")


def test_a_malformed_bfile_errors_before_any_term_is_generated(capsys, monkeypatch, tmp_path):
    rows = [f"{n} {n.bit_count() & 1}" for n in range(10_000)]
    rows[9990] = rows[9990].replace(" ", "  ")  # not the canonical form
    path = tmp_path / "b010060.txt"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rows[9991] = "9991 x"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(rows) + "\n", encoding="utf-8")
    calls = _counting(monkeypatch, "A010060")
    code, out, err = run_cli(capsys, "check-bfile", "A010060", "--file", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: line 9992: non-integer token in '9991 x'\n"
    assert calls == []
    # the same file less the bad token is parsed, then generated once
    code, out, err = run_cli(capsys, "check-bfile", "A010060", "--file", str(path))
    assert (code, out, err) == (0, "A010060: checked 10000 terms, 0 mismatches\n", "")
    assert calls == [(0, 10_000)]


def test_check_bfile_fetch_offline_uses_fixture(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "check-bfile", "A247303", "--file", "fetch",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert "0 mismatches" in out


def test_fetch_bfile_prints_table(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "fetch-bfile", "A113474", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert out.startswith("1 1\n2 2\n")


def test_fetch_bfile_unknown_id(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "fetch-bfile", "A000000", "--cache-dir", str(tmp_path)
    )
    assert code == 2


def test_fetch_bfile_rejects_non_oeis_id(capsys, tmp_path):
    code, _, err = run_cli(capsys, "fetch-bfile", "m", "--cache-dir", str(tmp_path))
    assert code == 2


def test_fetch_bfile_online_incomplete_read_serves_fixture(
    capsys, tmp_path, monkeypatch
):
    def cut_short(url, timeout):
        raise http.client.IncompleteRead(b"0 1\n", 4096)

    monkeypatch.setattr(oeis, "_download", cut_short)
    code, out, err = run_cli(
        capsys, "fetch-bfile", "A061297", "--online", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert out == oeis.serialize_bfile(oeis.fixture_table("A061297"))
    assert err == ""


def test_fetch_bfile_unreadable_cache_entry_serves_fixture(capsys, tmp_path):
    (tmp_path / "b061297.txt").mkdir()
    code, out, err = run_cli(
        capsys, "fetch-bfile", "A061297", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert out == oeis.serialize_bfile(oeis.fixture_table("A061297"))
    assert err == ""


def test_fetch_bfile_online_unwritable_cache_prints_download(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.setattr(oeis, "_download", lambda url, timeout: "0 1\n1 2\n2 4\n")
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "fetch-bfile", "A061297", "--online", "--cache-dir", str(not_a_dir)
    )
    assert code == 0
    assert out == "0 1\n1 2\n2 4\n"
    assert err == ""


def test_cache_dir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SEQPARITY_CACHE_DIR", str(tmp_path))
    cached = tmp_path / "b113474.txt"
    cached.write_text("1 99\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "fetch-bfile", "A113474")
    assert code == 0
    assert out == "1 99\n"


def test_an_empty_cache_dir_is_the_default_not_the_working_directory(
    capsys, tmp_path, monkeypatch
):
    # a b-file in the working directory that disagrees with every generator
    (tmp_path / "work").mkdir()
    (tmp_path / "work" / "b010060.txt").write_text("0 7\n1 7\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path / "work")
    monkeypatch.setenv("SEQPARITY_CACHE_DIR", "")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))  # an empty default cache
    code, out, err = run_cli(capsys, "fetch-bfile", "A010060", "--cache-dir", "")
    assert (code, err) == (0, "")
    assert out == oeis.serialize_bfile(oeis.fixture_table("A010060"))
    code, out, err = run_cli(
        capsys, "check-bfile", "A010060", "--file", "fetch", "--cache-dir", ""
    )
    assert (code, out, err) == (0, "A010060: checked 8 terms, 0 mismatches\n", "")


def test_repeated_runs_are_byte_identical(capsys):
    outputs = set()
    for _ in range(2):
        code, out, err = run_cli(
            capsys, "verify", "all", "--n-max", "256", "--n-max-heavy", "64",
            "--format", "json",
        )
        assert code == 0
        outputs.add(out.encode())
    assert len(outputs) == 1


def _source_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_console_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "seqparity", "gen", "A010059", "--count", "5"],
        capture_output=True,
        text=True,
        env=_source_env(),
    )
    assert result.returncode == 0
    assert result.stdout == "1\n0\n0\n1\n0\n"


OPT_IN_MODULES = ("http.client", "urllib.request", "ssl", "email", "json")


def test_a_fresh_interpreter_imports_the_network_stack_and_json_only_when_used(capsys):
    # the network stack is for --online and json for --format json; an
    # import of the package or the CLI loads neither
    probe = (
        "import sys; before = set(sys.modules); import seqparity, seqparity.cli; "
        f"print(sorted((set(sys.modules) - before) & set({OPT_IN_MODULES!r})))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_source_env()
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
    # and the JSON formats, which import json on use, print what they print in-process
    for argv in (
        ["gen", "A010060", "--count", "3", "--format", "json"],
        ["verify", "A128975", "--format", "json"],
    ):
        result = subprocess.run(
            [sys.executable, "-m", "seqparity", *argv],
            capture_output=True, text=True, env=_source_env(),
        )
        assert (result.returncode, result.stdout, result.stderr) == run_cli(capsys, *argv)


def test_a_fresh_interpreter_defines_one_dataclass_only():
    # the dataclass decorator generates and compiles its methods at every
    # import, so the records are plain classes; SequenceDescriptor stays a
    # dataclass because perfbench/tracing.py rebuilds each catalogued one with
    # dataclasses.replace to wrap its generator in a span
    probe = (
        "import dataclasses, sys, seqparity.cli\n"
        "print(sorted(f'{m}.{n}' for m, module in list(sys.modules.items())"
        " if m.startswith('seqparity') for n, obj in vars(module).items()"
        " if dataclasses.is_dataclass(obj) and getattr(obj, '__module__', '') == m))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_source_env()
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "['seqparity.catalogue.SequenceDescriptor']\n"


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["gen"])  # missing required id
    assert excinfo.value.code == 2


def _parse(capsys, parse, argv: list[str]):
    """Exit code, stdout, stderr and parsed namespace (None on exit) of one parse."""
    try:
        namespace = vars(parse(argv))
        code = 0
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["--version"],
    *([command, "--help"]
      for command in ("gen", "parity", "verify", "check-bfile", "fetch-bfile")),
    [],
    ["bogus"],
    ["gen"],
    ["gen", "A010060", "--count", "x"],
    ["verify", "all", "--format", "xml"],
    ["verify", "all", "--bogus"],
    ["gen", "A010060", "--version"],
    ["gen", "A010060", "--from", "3", "--count", "4", "--format", "json"],
    ["parity", "m"],
    ["verify", "all", "--n-max", "64", "--n-max-heavy", "32", "--timings"],
    ["check-bfile", "A128975", "--file", "b.txt", "--limit", "5", "--online"],
    ["fetch-bfile", "A010060", "--cache-dir", "cache"],
    ["-h", "gen"],
    ["--", "gen", "A010060", "--count", "3"],
    ["check-bfile", "gen"],
    ["gen", "verify"],
    ["gen", "A010060", "--bogus"],
    ["gen", "--", "A010060"],
    ["gen", "A010060", "--", "--count"],
    ["gen", "A010060", "-h", "--bogus"],
    ["gen", "A010060", "--bogus", "-h"],
    ["gen", "A010060", "--cou", "3"],
    ["gen", "A010060", "--count=3"],
    ["verify", "all", "--n", "5"],
    ["gen", "A010060", "extra"],
    ["gen", "-x"],
    ["gen", "A010060", "--count", "3", "gen"],
    ["gen", "--from", "-3", "A1"],
    ["check-bfile", "A1", "--file"],
    ["verify"],
    ["verify", "all", "--format"],
    # "--=x" abbreviates both --help and --version of the top-level parser
    ["gen", "A010060", "--=x"],
    ["gen", "--", "--=x"],
], ids=lambda argv: " ".join(argv) or "no command")
def test_the_parser_matches_the_eager_reference(capsys, argv):
    # help, version, usage errors and exit codes byte for byte, and the namespace
    expected = _parse(capsys, build_parser_eager().parse_args, argv)
    assert _parse(capsys, build_parser().parse_args, argv) == expected
    # and the same through the one-parser route main takes
    assert _parse(capsys, parse_args, argv) == expected


def test_no_top_level_option_takes_a_value():
    # parse_args's rules for when a subcommand's own parser is enough were
    # worked out for a top-level parser of flags only, --help and --version
    parser = build_parser()
    options = [action for action in parser._actions
               if not isinstance(action, argparse._SubParsersAction)]
    assert options and all(action.nargs == 0 for action in options)


@pytest.fixture
def built_parsers(monkeypatch):
    """The prog of each argparse parser built while the test runs."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


@pytest.mark.parametrize("argv", [
    ["gen", "A010060", "--count", "3"],
    ["parity", "m", "--count", "3"],
    ["verify", "A128975", "--n-max", "64"],
    ["check-bfile", "A128975", "--limit", "5"],
    ["fetch-bfile", "A113474", "--cache-dir", "{tmp}"],
], ids=lambda argv: argv[0])
def test_a_named_command_builds_one_parser(capsys, tmp_path, built_parsers, argv):
    argv = _with_tmp(tmp_path, argv)
    assert main(argv) == 0
    assert built_parsers == [f"seqparity {argv[0]}"]
    # the full parser builds the top-level parser and five subparsers
    built_parsers.clear()
    build_parser().parse_args(argv)
    assert len(built_parsers) == 6


def test_words_left_over_fall_back_to_the_top_level_error(capsys, built_parsers):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "A010060", "--bogus"])
    assert excinfo.value.code == 2
    assert len(built_parsers) == 1 + 6
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "seqparity: error: unrecognized arguments: --bogus"


# one call with one parser leaves 40-50 objects (58-73 on Python 3.10); with
# the top-level parser and five subparsers it left 175-186 (234-249 on 3.10)
CYCLIC_GARBAGE_PER_CALL = 100


@pytest.mark.parametrize("argv", [
    ["check-bfile", "A128975"],
    ["gen", "A010060", "--count", "5"],
    ["verify", "A128975", "--n-max", "64"],
], ids=" ".join)
def test_a_command_leaves_little_cyclic_garbage(capsys, argv):
    # argparse actions point back at their parser, so only the cyclic
    # collector frees a parser: fewer parsers, fewer objects held between
    # collections in a long-lived caller
    main(argv)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        main(argv)
        freed = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert freed < CYCLIC_GARBAGE_PER_CALL


@pytest.mark.parametrize(
    "argv",
    [
        ["check-bfile", "A128975", "--limit", "-1"],
        ["verify", "all", "--n-max", "10"],
        ["verify", "A061297", "--n-max-heavy", "20"],
    ],
)
def test_out_of_range_numbers_are_one_line_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_check_bfile_limit_zero_checks_nothing(capsys):
    code, out, _ = run_cli(capsys, "check-bfile", "A128975", "--limit", "0")
    assert code == 0
    assert out == "A128975: checked 0 terms, 0 mismatches\n"


def _with_tmp(tmp_path: Path, items: list[str]) -> list[str]:
    return [item.replace("{tmp}", str(tmp_path)) for item in items]


# Every error path of the commands, with this exact stderr and no stdout.
ERROR_PATHS = [
    (["gen", "A999999"], 2, "error: \"unknown sequence id 'A999999'\"\n"),
    (["parity", "A010060", "--from", "-1"], 2,
     "error: A010060 starts at index 0, --from -1 is below it\n"),
    (["gen", "A104258", "--from", "0"], 2,
     "error: A104258 starts at index 1, --from 0 is below it\n"),
    (["gen", "A010060", "--count", "0"], 2, "error: --count must be positive, got 0\n"),
    (["verify", "A999999"], 2, "error: \"unknown sequence id 'A999999'\"\n"),
    (["verify", "A010060"], 2, "error: no parity relation is catalogued for A010060\n"),
    (["verify", "all", "--n-max", "10"], 2, "error: verification ranges must be at least 32\n"),
    (["check-bfile", "A999999"], 2, "error: \"unknown sequence id 'A999999'\"\n"),
    (["check-bfile", "A128975", "--limit", "-1"], 2,
     "error: --limit must be non-negative, got -1\n"),
    (["check-bfile", "A010060", "--file", "{tmp}/missing.txt"], 2,
     "error: [Errno 2] No such file or directory: '{tmp}/missing.txt'\n"),
    (["check-bfile", "A010060", "--file", "{tmp}/adir"], 2,
     "error: [Errno 21] Is a directory: '{tmp}/adir'\n"),
    (["check-bfile", "A010060", "--file", "{tmp}/gap.txt"], 2,
     "error: index gap: 1 followed by 5\n"),
    (["check-bfile", "A010060", "--file", "{tmp}/shifted.txt"], 1,
     "offset mismatch: A010060: table starts at index 5, catalogue offset is 0\n"),
    (["check-bfile", "m"], 2, "error: 'm' is not an OEIS sequence id\n"),
    (["fetch-bfile", "m", "--cache-dir", "{tmp}/cache"], 2,
     "error: 'm' is not an OEIS sequence id\n"),
    (["fetch-bfile", "A999999", "--cache-dir", "{tmp}/cache"], 2,
     "error: no source for A999999: cache miss, no bundled fixture\n"),
    (["check-bfile", "A061297", "--file", "{tmp}/empty.txt"], 2,
     "error: no '<index> <value>' rows\n"),
    (["check-bfile", "A061297", "--file", "{tmp}/comments.txt"], 2,
     "error: no '<index> <value>' rows\n"),
    (["gen", "A061297", "--from", str(10**21), "--count", "1"], 2,
     f"error: the lcm sums are computed for n < sys.maxsize = {sys.maxsize}, got n = {10**21}\n"),
    (["parity", "A093431", "--from", str(sys.maxsize), "--count", "1"], 2,
     f"error: the lcm sums are computed for n < sys.maxsize = {sys.maxsize}, got n = {sys.maxsize}\n"),
]


@pytest.mark.parametrize("argv, expected_code, expected_err", ERROR_PATHS)
def test_error_paths_are_pinned(capsys, tmp_path, argv, expected_code, expected_err):
    (tmp_path / "adir").mkdir()
    (tmp_path / "gap.txt").write_text("0 0\n1 1\n5 1\n", encoding="utf-8")
    (tmp_path / "shifted.txt").write_text("5 0\n6 0\n7 1\n", encoding="utf-8")
    (tmp_path / "empty.txt").write_text("", encoding="utf-8")
    (tmp_path / "comments.txt").write_text("# A061297\n\n", encoding="utf-8")
    code, out, err = run_cli(capsys, *_with_tmp(tmp_path, argv))
    assert (code, out, err) == (expected_code, "", _with_tmp(tmp_path, [expected_err])[0])


def test_verify_records_an_lcm_range_past_sys_maxsize_in_json(capsys):
    code, out, err = run_cli(capsys, "verify", "A061297", "--n-max-heavy", str(10**21),
                             "--format", "json")
    assert (code, err) == (1, "")
    (record,) = json.loads(out)["sequences"]
    assert record["claimed_status"] is None
    assert record["fitted"] is None
    assert record["error"] == (f"ValueError: the lcm sums are computed for n < sys.maxsize = "
                               f"{sys.maxsize}, got n = {10**21}")


def test_verify_reports_an_lcm_range_past_sys_maxsize_on_its_line(capsys):
    code, out, err = run_cli(capsys, "verify", "A061297", "--n-max-heavy", str(10**21))
    assert (code, err) == (1, "")
    assert out == (f"A061297  error: ValueError: the lcm sums are computed for n < sys.maxsize = "
                   f"{sys.maxsize}, got n = {10**21}\n")


@pytest.mark.parametrize("seq_id", ["A102393", "A092524"])
def test_verify_refuses_a_range_its_master_word_cannot_index_in_one_line(capsys, seq_id):
    # refused before any term is generated: A102393's parity word once raised
    # an OverflowError on its line, and A092524 walked its sieve for a second
    # before its reach error
    code, out, err = run_cli(capsys, "verify", seq_id, "--n-max", str(10**20))
    assert (code, out) == (2, "")
    assert err == ("error: verification ranges must keep n_max + 4 below "
                   f"sys.maxsize = {sys.maxsize}, got n_max = {10**20}\n")


def test_gen_refuses_an_a092524_window_past_the_sieve_reach_in_one_line(capsys):
    # 2**64 - 59 is prime: its smallest prime factor is past the 2**24 the
    # sieve's walk reaches, which it gets to about a second in
    code, out, err = run_cli(capsys, "gen", "A092524", "--from", str(2**64 - 59), "--count", "2")
    assert (code, out) == (2, "")
    assert err == ("error: smallest prime factors are found below 2**24 only, and "
                   f"n = {2**64 - 59} >= 2**48 has none there\n")


# the sieve's reach scaled down, so that a range past 2**16 is refused quickly
SMALL_REACH_REFUSED = ("smallest prime factors are found below 2**8 only, and "
                       "n = 65537 >= 2**16 has none there")


@pytest.fixture
def small_reach(monkeypatch):
    monkeypatch.setattr(digits, "_SIEVE_LIMIT", 16)
    monkeypatch.setattr(digits, "_PRIME_REACH", 1 << 8)


def test_parity_refuses_an_a092524_window_past_the_sieve_reach_in_one_line(capsys, small_reach):
    code, out, err = run_cli(capsys, "parity", "A092524", "--from", "65530", "--count", "8")
    assert (code, out, err) == (2, "", f"error: {SMALL_REACH_REFUSED}\n")


@pytest.mark.parametrize("argv", [["A092524"], ["all"]])
def test_verify_records_an_a092524_range_past_the_sieve_reach_on_its_line(
        capsys, small_reach, argv):
    # alone or derived from the A104258 window of its round, A092524 is refused
    # at its top window, 65536..65537, and the others go on
    code, out, err = run_cli(capsys, "verify", *argv, "--n-max", "65537")
    assert (code, err) == (1, "")
    assert f"A092524  error: ValueError: {SMALL_REACH_REFUSED}\n" in out
    assert out.count("error") == 1
    assert len(out.splitlines()) == (1 if argv == ["A092524"] else 10)


# the lcm sums' tables hold one entry per n up to the range's top; near
# sys.maxsize the allocator refuses them at once, before any term is computed
TABLE_REFUSED = f"the lcm sums' tables up to n = {sys.maxsize - 1} do not fit in memory"


@pytest.mark.parametrize("command, seq_id", [("gen", "A061297"), ("parity", "A061297"),
                                             ("gen", "A093431")])
def test_an_lcm_table_too_large_to_allocate_is_a_one_line_error(command, seq_id):
    result = subprocess.run(
        [sys.executable, "-m", "seqparity", command, seq_id,
         "--from", str(sys.maxsize - 1), "--count", "1"],
        capture_output=True, text=True, env=_source_env(),
    )
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {TABLE_REFUSED}\n")


def test_verify_names_an_lcm_table_too_large_to_allocate():
    argv = [sys.executable, "-m", "seqparity", "verify", "A061297",
            "--n-max-heavy", str(sys.maxsize - 1)]
    result = subprocess.run(argv, capture_output=True, text=True, env=_source_env())
    assert (result.returncode, result.stdout, result.stderr) == (
        1, f"A061297  error: ValueError: {TABLE_REFUSED}\n", "")
    result = subprocess.run([*argv, "--format", "json"], capture_output=True, text=True,
                            env=_source_env())
    assert (result.returncode, result.stderr) == (1, "")
    (record,) = json.loads(result.stdout)["sequences"]
    assert record["error"] == f"ValueError: {TABLE_REFUSED}"


# the first allocation for 10**15 terms, 10**15 bytes or the sieve's 8 * 10**15,
# is larger than the address space, so the allocator refuses it at once, and
# 10**20 is past any size a list or buffer can index; a generator whose memory
# grows term by term could fill the RAM instead
@pytest.mark.parametrize("argv", [
    [*command, "--count", str(count)]
    for count in (10**15, 10**20)
    for command in (["gen", "m"], ["parity", "A092524"], ["gen", "m", "--format", "json"])
])
def test_an_allocation_refused_is_a_one_line_error(argv):
    result = subprocess.run(
        [sys.executable, "-m", "seqparity", *argv],
        capture_output=True, text=True, env=_source_env(),
    )
    assert (result.returncode, result.stdout, result.stderr) == (2, "", "error: out of memory\n")


class _UnwritableStdout:
    """A stdout whose every write and flush fails with one error."""

    def __init__(self, error: OSError):
        self.error = error

    def write(self, text: str) -> int:
        raise self.error

    def flush(self) -> None:
        raise self.error


@pytest.mark.parametrize(
    "error",
    [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
     BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))],
    ids=["ENOSPC", "EPIPE"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "A010060", "--count", "5"],
        ["parity", "A061297", "--count", "12"],
        ["verify", "A102393", "--n-max", "64"],
        ["verify", "all", "--n-max", "64", "--n-max-heavy", "64", "--format", "json"],
        ["check-bfile", "A128975", "--limit", "17"],
        ["fetch-bfile", "A113474", "--cache-dir", "{tmp}"],
    ],
    ids=lambda argv: " ".join(argv[:2]) + (" json" if "json" in argv else ""),
)
def test_unwritable_output_is_one_line_exit_two(tmp_path, argv, error):
    err = io.StringIO()
    with contextlib.redirect_stdout(_UnwritableStdout(error)), contextlib.redirect_stderr(err):
        code = main(_with_tmp(tmp_path, argv))
    assert code == 2
    assert err.getvalue() == f"error: {error}\n"


NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target, argv", [
    # more than a buffer's worth fails in write(), a few terms only in flush()
    pytest.param("closed pipe", ["gen", "A010060", "--count", "20000"], id="pipe-gen"),
    # 600 KB, more than a pipe holds, so the reader closes it mid-write: raw
    # unbuffered stdout then sees a short write, not an error
    pytest.param("pipe closed mid-stream", ["gen", "A010060", "--count", "300000"],
                 id="pipe-mid-stream-gen"),
    pytest.param("/dev/full", ["gen", "A010060", "--count", "5"], marks=NEEDS_DEV_FULL,
                 id="full-gen"),
    pytest.param("/dev/full", ["verify", "all", "--format", "json", "--n-max", "64",
                               "--n-max-heavy", "64"], marks=NEEDS_DEV_FULL,
                 id="full-verify-json"),
    # argparse drops a refused write of its help and version text, and
    # Python 3.10's lets it escape: either way it is output like any other
    pytest.param("/dev/full", ["--version"], marks=NEEDS_DEV_FULL, id="full-version"),
    pytest.param("/dev/full", ["--help"], marks=NEEDS_DEV_FULL, id="full-help"),
    pytest.param("/dev/full", ["gen", "--help"], marks=NEEDS_DEV_FULL, id="full-gen-help"),
])
def test_unwritable_stdout_of_the_process_is_one_line_exit_two(target, argv, unbuffered):
    env = _source_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end = None
    if target == "/dev/full":
        stdout = os.open(target, os.O_WRONLY)
    else:
        read_end, stdout = os.pipe()
    if target == "closed pipe":
        os.close(read_end)
    try:
        child = subprocess.Popen(
            [sys.executable, "-m", "seqparity", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(stdout)
    if target == "pipe closed mid-stream":
        try:
            head = os.read(read_end, 10)
        finally:
            os.close(read_end)
        assert head == b"0\n1\n1\n0\n1\n"
    stderr = child.communicate(timeout=120)[1]
    assert child.returncode == 2
    assert stderr.count("\n") == 1
    assert stderr.startswith("error: [Errno ")
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


@NEEDS_DEV_FULL
def test_a_full_disk_leaves_nothing_for_the_exit_flush_under_dev_mode():
    # dev mode reports every exception ignored at exit, the final flush of a
    # stdout main left unwritable among them
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "seqparity", "gen", "A010060", "--count", "5"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=_source_env(), timeout=120,
        )
    assert result.returncode == 2
    assert result.stderr == "error: [Errno 28] No space left on device\n"


def _run_redirected(argv: list[str], redirect: str) -> subprocess.CompletedProcess:
    """The CLI run by sh with its stdio redirected first: a descriptor that sh
    closes ('>&-', '2>&-') leaves the interpreter's stream None, and one open
    for reading only ('2</dev/null') refuses every write with EBADF."""
    return subprocess.run(
        ["sh", "-c", f'exec "$0" "$@" {redirect}', sys.executable, "-m", "seqparity", *argv],
        capture_output=True, text=True, env=_source_env(), timeout=120,
    )


@pytest.mark.parametrize("argv", [
    ["gen", "A010060", "--count", "3"],
    ["parity", "A010060", "--count", "3"],
    ["verify", "A092524", "--n-max", "64"],
    ["check-bfile", "A010060"],
    ["fetch-bfile", "A010060", "--cache-dir", "{tmp}"],
    # the --count error would come from the work, which is never started
    ["gen", "A010060", "--count", "0"],
    # nor are the arguments read: no help, and no usage error
    ["--help"],
    ["gen", "A010060", "--count", "x"],
], ids=" ".join)
def test_a_closed_stdout_is_one_line_exit_two_before_any_work(tmp_path, argv):
    result = _run_redirected(_with_tmp(tmp_path, argv), ">&-")
    assert (result.returncode, result.stderr) == (2, "error: stdout is closed\n")


@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
@pytest.mark.parametrize("argv, code", [
    (["gen", "A010060", "--count", "3"], 0),
    (["gen", "A010060", "--count", "0"], 2),
    (["gen", "A010060", "--count", "x"], 2),
    (["check-bfile", "A010060", "--file", "{tmp}/missing.txt"], 2),
    (["check-bfile", "A010060", "--file", "{tmp}/shifted.txt"], 1),
    (["verify", "A092524", "--n-max", "64"], 0),
    # the one output stderr owes: timings it cannot write are unwritable output
    (["verify", "A092524", "--n-max", "64", "--timings"], 2),
], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
def test_an_unwritable_stderr_changes_no_exit_but_that_of_its_timings(
    tmp_path, argv, code, redirect
):
    (tmp_path / "shifted.txt").write_text("5 0\n6 0\n", encoding="utf-8")
    argv = _with_tmp(tmp_path, argv)
    written = _run_redirected(argv, "")
    assert written.returncode == (0 if "--timings" in argv else code)
    result = _run_redirected(argv, redirect)
    assert (result.returncode, result.stdout) == (code, written.stdout)


def test_an_unreadable_input_leaves_stdout_alone(capsys, tmp_path):
    # a file, unlike capsys, has a descriptor that main could take away
    with open(tmp_path / "out.txt", "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out):
        assert main(["check-bfile", "A010060", "--file", str(tmp_path)]) == 2
        assert main(["gen", "A010060", "--count", "4"]) == 0
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "0\n1\n1\n0\n"
    assert capsys.readouterr().err.startswith("error: [Errno 21] ")


def test_an_unbuffered_stdout_is_given_back(tmp_path):
    # the text layer straight on the raw file, as python -u makes sys.stdout
    with open(tmp_path / "out.txt", "wb", buffering=0) as raw:
        out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
        with contextlib.redirect_stdout(out):
            assert main(["gen", "A010060", "--count", "4"]) == 0
            assert sys.stdout is out
        out.write("end\n")
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "0\n1\n1\n0\nend\n"


@pytest.mark.skipif(not HAS_INT_DIGIT_LIMIT, reason="no int/str conversion limit")
def test_argparse_exit_gives_the_callers_stdio_and_digit_limit_back(tmp_path):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    err = io.StringIO()
    try:
        with open(tmp_path / "out.txt", "wb", buffering=0) as raw:
            # unbuffered, so main stands its own writer in for stdout
            out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                for argv, code in [(["--version"], 0), (["gen"], 2)]:
                    with pytest.raises(SystemExit) as excinfo:
                        main(argv)
                    assert excinfo.value.code == code
                    assert sys.stdout is out and sys.stderr is err
                    assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(saved)
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == f"seqparity {__version__}\n"
    assert err.getvalue().endswith("error: the following arguments are required: id\n")


SMALL_INT = st.integers(-64, 64).map(str)
ANY_ID = st.sampled_from(sorted(CATALOGUE) + ["A999999"])
TESTS_DIR = Path(__file__).resolve().parent
# A missing file, a directory, a file that is not a b-file, and a real b-file
# that matches only A010060.
BAD_FILE = st.sampled_from([
    str(TESTS_DIR / "no-such-b-file.txt"), str(TESTS_DIR), __file__,
    str(TESTS_DIR.parent / "src" / "seqparity" / "fixtures" / "b010060.txt"),
])
INTEGER_FLAG_COMMANDS = st.one_of(
    st.builds(
        lambda cmd, seq_id, start, count: [cmd, seq_id, "--from", start, "--count", count],
        st.sampled_from(["gen", "parity"]), ANY_ID, SMALL_INT, SMALL_INT,
    ),
    st.builds(
        lambda target, cheap, heavy: ["verify", target, "--n-max", cheap, "--n-max-heavy", heavy],
        st.sampled_from(["all", "A003071", "A061297", "A010060"]), SMALL_INT, SMALL_INT,
    ),
    st.builds(lambda seq_id, limit: ["check-bfile", seq_id, "--limit", limit], ANY_ID, SMALL_INT),
    st.builds(
        lambda seq_id, path, limit: ["check-bfile", seq_id, "--file", path, "--limit", limit],
        ANY_ID, BAD_FILE, SMALL_INT,
    ),
    st.builds(
        lambda seq_id: ["fetch-bfile", seq_id, "--cache-dir", str(TESTS_DIR / "no-such-cache")],
        st.one_of(ANY_ID, st.just("A000000")),
    ),
)


@settings(max_examples=60, deadline=None)
@given(INTEGER_FLAG_COMMANDS)
def test_integer_flags_never_escape_as_a_traceback(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)


# Each of these took about 1.2 ms in-process on a 2-vCPU VM (Python 3.11.7).
# Before the convolutions and A122248 were true windows the same command
# built all 10**12 earlier terms and ran out of memory.
DEEP_GEN_SECONDS = 0.5


@pytest.mark.parametrize("seq_id", ["A122248", "A247303", "A029886"])
def test_gen_at_a_deep_start_is_bounded(capsys, seq_id):
    start = 10**12
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "gen", seq_id, "--from", str(start), "--count", "64")
    elapsed = time.perf_counter() - started
    assert (code, err) == (0, "")
    assert elapsed < DEEP_GEN_SECONDS
    values = [int(line) for line in out.splitlines()]
    ns = range(start, start + 64)
    if seq_id == "A122248":
        # partial sums of a113474, with every term's parity 1 - m(n)
        assert [b - a for a, b in zip(values, values[1:])] == [
            a113474_by_halving(n) for n in ns[1:]
        ]
        assert [v & 1 for v in values] == [1 - master_m_recursive(n) for n in ns]
    else:
        oracle = a247303_by_digits if seq_id == "A247303" else a029886_by_digits
        assert values == [oracle(n) for n in ns]


def test_gen_of_a247303_far_past_the_recursion_limit(capsys):
    start = 2**1100
    code, out, err = run_cli(capsys, "gen", "A247303", "--from", str(start), "--count", "4")
    assert (code, err) == (0, "")
    assert out == "".join(f"{a247303_by_digits(n)}\n" for n in range(start, start + 4))


def test_gen_of_a003071_one_below_a_deep_power_of_two(capsys):
    start = 2**1200 - 1
    code, out, err = run_cli(capsys, "gen", "A003071", "--from", str(start), "--count", "2")
    assert (code, err) == (0, "")
    assert out == f"{a003071_suffix_sum(start)}\n{a003071_suffix_sum(start + 1)}\n"


# Peak memory of one verify in a fresh interpreter, above what it holds once
# the package is imported.  On a 2-vCPU VM (Python 3.11.7) this read 22.6 MB
# when the parity word was packed from a list of every term, and 4.1 MB when it
# is packed one window of terms at a time; the bound sits between the two.
VERIFY_WIDE_PEAK_GROWTH_MB = 12
# the child's own high-water mark: its ru_maxrss would start at this process's
# peak, which Linux carries across fork and exec
_PEAK_KIB = "int(re.search(r'VmHWM:\\s*(\\d+)', open('/proc/self/status').read())[1])"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_verify_holds_one_window_of_terms_at_a_time():
    probe = (
        "import re, sys; from seqparity.cli import main; "
        f"before = {_PEAK_KIB}; "
        "code = main(['verify', 'A104258', '--n-max', '262144']); "
        f"print(code, {_PEAK_KIB} - before, file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_source_env()
    )
    code, growth_kib = map(int, result.stderr.split())
    assert code == 0
    assert "A104258  claimed: FAIL" in result.stdout
    assert growth_kib / 1024 < VERIFY_WIDE_PEAK_GROWTH_MB


# Peak memory of `gen A010060 --count 1000000` in a fresh interpreter, above
# what it holds once the package is imported.  On a 2-vCPU VM (Python 3.10 to
# 3.13) the b-file form grew VmHWM by 76.3-76.5 MB when the whole text was
# formatted from a BFileTable copy and a flat row tuple, and by 8.6-8.7 MB
# when it is written 256 rows at a time; plain output by 20.0-20.1 MB as one
# string and by 8.6-8.7 MB in chunks, the term list being 8 MB of it.  JSON
# output grew it by 14.5-15.9 MB as one json.dumps string and by 8.5-8.6 MB in
# chunks; `parity` of the same terms by 16.2-16.9 MB with a second list of its
# bits and by 8.6 MB with the bits in one bytes object.  Each bound sits
# between the two.
GEN_PEAK_GROWTH_MB = {"bfile": 40, "plain": 14, "json": 12, "parity": 12}


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("fmt", ["bfile", "plain", "json", "parity"])
def test_gen_writes_a_million_terms_a_chunk_at_a_time(tmp_path, fmt):
    # "parity" is the parity command's plain output; the bits of A010060 are its terms
    argv = ["parity", "A010060"] if fmt == "parity" else ["gen", "A010060", "--format", fmt]
    probe = (
        "import re, sys; from seqparity.cli import main; "
        f"before = {_PEAK_KIB}; "
        f"code = main({argv + ['--count', '1000000']}); "
        f"print(code, {_PEAK_KIB} - before, file=sys.stderr)"
    )
    out = tmp_path / "out.txt"
    with out.open("wb") as stdout:
        result = subprocess.run(
            [sys.executable, "-c", probe], stdout=stdout, stderr=subprocess.PIPE, text=True,
            env=_source_env(),
        )
    code, growth_kib = map(int, result.stderr.split())
    assert code == 0
    last = {"bfile": f"999999 {thue_morse(999999)}\n",
            "json": f", {thue_morse(999999)}]}}\n"}.get(fmt, f"{thue_morse(999999)}\n")
    with out.open("rb") as written:
        lines = sum(1 for _ in written)
        written.seek(-len(last), os.SEEK_END)
        assert written.read().decode() == last
    assert lines == (1 if fmt == "json" else 1_000_000)
    assert growth_kib / 1024 < GEN_PEAK_GROWTH_MB[fmt]
