"""Acceptance suite: every deliverable criterion at its full range and tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  Module-level tests elsewhere cover the same ground on smaller
ranges; this file is the authoritative gate.  It pins prefix exactness for
every generator against the published listings, the fitted-relation
catalogue, brute-force-versus-closed-form equivalences for the Nim counts,
exact integrality of every lcm-quotient summand, merge-sort recursion versus
schedule simulation, cube-freeness and morphism fixed points of the
underlying words, the halving-chain identities, and the b-file/CLI contracts.
"""

import json
import time
from contextlib import contextmanager
from math import lcm

import pytest

from oracles import (
    MASTER_MORPHISM,
    THUE_MORSE_MORPHISM,
    a003071_simulate,
    a113474_prefix,
    a128975_bruteforce,
    apply_morphism,
    as_word,
    has_cube,
    lcm_range,
    ordered_p_count_bruteforce,
)
from seqparity import (
    a001285,
    a001855,
    a003071,
    a005187,
    a061297,
    a061297_parity_shortcut,
    a092524,
    a093431,
    a101925,
    a102393,
    a104258,
    a113474,
    a128975_closed,
    a228495,
    a247303,
    binary_weight,
    cross_check,
    evil,
    fixture_table,
    master_m,
    master_prefix,
    odious,
    parse_bfile,
    serialize_bfile,
    thue_morse,
    thue_morse_bar,
    verify_all,
)
from seqparity.catalogue import CATALOGUE
from seqparity.cli import main as cli_main
from seqparity.oeis import BFileFormatError, BFileTable
from seqparity.sorting import a122248_terms


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"\n[criterion {number}] {name}: FAIL")
        raise
    print(f"\n[criterion {number}] {name}: PASS")


@pytest.fixture(scope="module")
def relation_suite():
    started = time.perf_counter()
    report = verify_all(4096, 512)
    return report, time.perf_counter() - started


# published prefixes, zero tolerance
PREFIXES = {
    "A010060": (thue_morse, 0, [0, 1, 1, 0, 1, 0, 0, 1]),
    "A010059": (thue_morse_bar, 0, [1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1]),
    "A001969": (evil, 1, [0, 3, 5, 6, 9, 10, 12, 15, 17, 18, 20, 23, 24]),
    "A000069": (odious, 1, [1, 2, 4, 7, 8, 11, 13, 14, 16, 19, 21, 22, 25, 26]),
    "m": (master_m, 0,
          [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1]),
    "A128975": (a128975_closed, 1, [0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 4, 0, 0, 0]),
    "A102393": (a102393, 0, [1, 0, 0, 4, 0, 6, 7, 0, 0, 10, 11, 0, 13, 0, 0, 16, 0, 18, 19]),
    "A029886": (None, 0, [1, 4, 8, 10, 12, 14, 15, 16, 22, 24, 23, 26, 29]),
    "A001285": (a001285, 0, [1, 2, 2, 1, 2, 1, 1, 2, 2, 1, 1]),
    "A247303": (a247303, 0, [1, 0, 0, 2, 0, 2, 3, 0, 2, 4, 3, 2, 5, 2, 2, 8, 2, 4, 7]),
    "A092524": (a092524, 1, [1, 2, 4, 4, 26, 6, 57, 8, 28, 10, 1343, 12, 2367, 14, 40]),
    "A104258": (a104258, 1, [1, 2, 4, 16, 26, 42, 57, 512, 730, 1010, 1343, 1872]),
    "A061297": (a061297, 0, [1, 2, 4, 8, 14, 32, 39, 114, 166, 266, 421, 1608]),
    "A093431": (a093431, 1, [1, 3, 7, 13, 31, 38, 113, 165, 265, 420, 1607, 1004]),
    "A003071": (a003071, 1, [0, 1, 3, 5, 9, 11, 14, 17, 25, 27, 30, 33, 38, 41, 45, 49, 65]),
    "A001855": (a001855, 1, [0, 1, 3, 5, 8, 11, 14, 17, 21, 25, 29, 33]),
    "A122248": (None, 0, [0, 1, 3, 5, 9, 13, 18, 23, 31, 39, 48, 57, 68, 79, 91, 103, 119]),
    "A113474": (a113474, 1, [1, 2, 2, 4, 4, 5, 5, 8, 8, 9, 9]),
}

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


def test_criterion_1_prefix_exactness():
    with criterion(1, "prefix exactness"):
        started = time.perf_counter()
        for seq_id, (fn, offset, expected) in PREFIXES.items():
            if fn is None:
                produced = CATALOGUE[seq_id].terms(offset, offset + len(expected))
            else:
                produced = [fn(n) for n in range(offset, offset + len(expected))]
            assert produced == expected, f"{seq_id} prefix mismatch"
        assert time.perf_counter() - started < 5.0


def test_criterion_2_parity_relation_suite(relation_suite):
    report, elapsed = relation_suite
    with criterion(2, "parity relation suite"):
        fits = {}
        for check in report.checks:
            assert check.error is None, f"{check.sequence_id}: {check.error}"
            assert check.fitted is not None, f"{check.sequence_id} has no fitted relation"
            fits[check.sequence_id] = (check.fitted.shift, check.fitted.complement)
        assert fits == EXPECTED_FITS
        assert elapsed < 60.0


def test_criterion_3_discrepancy_report(relation_suite):
    report, _ = relation_suite
    with criterion(3, "discrepancy report"):
        failed = {c.sequence_id for c in report.checks if c.claimed_passed is False}
        passed = {c.sequence_id for c in report.checks if c.claimed_passed is True}
        assert failed == {"A092524", "A104258", "A093431", "A003071"}
        assert passed == {"A128975", "A102393", "A029886", "A247303", "A061297", "A122248"}
        assert all(c.fitted is not None for c in report.checks)


def test_criterion_4_nim_oracle_equivalence():
    with criterion(4, "Nim oracle equivalence"):
        started = time.perf_counter()
        for n in range(1, 301):
            assert a128975_bruteforce(n) == a128975_closed(n), f"n={n}"
        for n in range(0, 301, 2):
            ordered = ordered_p_count_bruteforce(n)
            assert ordered == CATALOGUE["A048883"].terms(n // 2, n // 2 + 1)[0], f"n={n}"
            if n >= 2:
                assert ordered == 6 * a128975_closed(n) + 3
        assert time.perf_counter() - started < 10.0


def test_criterion_5_lcm_integrality_and_shortcut():
    with criterion(5, "lcm integrality and parity shortcut"):
        for n in range(0, 401):
            window = 1
            base = 1
            for r in range(1, n + 1):
                window = lcm(window, n - r + 1)  # lcm(n-r+1 .. n)
                base = lcm(base, r)              # lcm(1 .. r)
                assert window % base == 0, f"summand not integral at n={n}, r={r}"
            assert window == lcm_range(1, n)
        assert all(a061297(n) % 2 == a061297_parity_shortcut(n) for n in range(1201))
        assert all(a093431(n) == a061297(n) - 1 for n in range(1, 401))


def test_criterion_6_sorting_equivalence():
    with criterion(6, "sorting recursion vs schedule simulation"):
        assert all(a003071(n) == a003071_simulate(n) for n in range(1, 4097))
        assert all(a003071(2**k) % 2 == 1 for k in range(1, 13))


def test_criterion_7_word_properties():
    with criterion(7, "word properties"):
        size = 2**16
        t_word = as_word(CATALOGUE["A010060"].terms(0, size))
        assert has_cube(t_word, 64) is False
        assert has_cube(as_word(CATALOGUE["A010059"].terms(0, size)), 64) is False
        word = as_word(master_prefix(size))

        length = 1
        while length <= 2**13:
            image = apply_morphism(t_word[:length], THUE_MORSE_MORPHISM)
            assert image == t_word[: 2 * length]
            length *= 2
        length = 2
        while length <= 2**13:
            assert apply_morphism(word[:length], MASTER_MORPHISM) == word[: 2 * length]
            length *= 2

        assert max(len(run) for run in word.split("1")) <= 5  # 0-runs
        assert "11" not in word  # 1-runs are isolated
        assert "101010" not in word

        assert all(master_m(n) == a228495(n + 1) for n in range(size + 1))
        assert all(
            master_m(n) == (binary_weight(n // 2) - 1) % 2 for n in range(0, size + 1, 2)
        )


def test_criterion_8_chain_identities():
    with criterion(8, "halving-chain identities"):
        top = 2**14
        m_bits = master_prefix(top + 1)
        a113474_values = a113474_prefix(2 * top + 2)  # indices 1 .. 2*top+1
        a122248_values = a122248_terms(0, top + 1)
        assert all(a101925(n) == a005187(n) + 1 for n in range(top + 1))
        assert all(a101925(k) % 2 == thue_morse_bar(k) for k in range(top + 1))
        assert all(
            a113474_values[2 * k] == a113474_values[2 * k - 1]  # a(2k+1) == a(2k)
            for k in range(1, top + 1)
        )
        assert all(a122248_values[n] % 2 == 1 - m_bits[n] for n in range(top + 1))


def test_criterion_9_io_and_cli(capsys, tmp_path):
    with criterion(9, "I/O round trip, fixtures, CLI contract"):
        # round-trip identity on representative tables
        for start, values in [(0, (0,)), (-2, (5, 0, 7)), (1, (10**40, 3))]:
            table = BFileTable("A000001", start, values)
            assert parse_bfile(serialize_bfile(table), "A000001") == table
        # a text with no rows is not a b-file, and no table holds zero rows
        with pytest.raises(BFileFormatError, match="no '<index> <value>' rows"):
            parse_bfile("", "A000001")
        with pytest.raises(BFileFormatError, match="no '<index> <value>' rows"):
            BFileTable("A000001", 0, ())

        # every generator agrees with its bundled fixture
        for seq_id in CATALOGUE:
            if seq_id == "m":
                continue
            table = fixture_table(seq_id)
            assert cross_check(CATALOGUE[seq_id], table, len(table)) == [], seq_id

        # exit statuses: 0 success, 1 cross-check failure, 2 input error
        assert cli_main(["gen", "A010060", "--count", "4"]) == 0
        corrupt = tmp_path / "bad.txt"
        corrupt.write_text("0 1\n1 2\n2 5\n", encoding="utf-8")
        assert cli_main(["check-bfile", "A061297", "--file", str(corrupt)]) == 1
        assert cli_main(["gen", "A999999"]) == 2
        assert cli_main(["verify", "all", "--n-max", "64", "--n-max-heavy", "64"]) == 0
        capsys.readouterr()

        # offline runs with identical arguments are byte-identical
        outputs = []
        for _ in range(2):
            code = cli_main(
                ["verify", "all", "--n-max", "128", "--n-max-heavy", "64",
                 "--format", "json"]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert {r["id"] for r in payload["sequences"]} == set(EXPECTED_FITS)
