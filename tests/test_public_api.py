"""The public surface: README's Library example, the names seqparity exports
and the behaviour of its four record types."""

import copy
import doctest
import inspect
import pickle
import pkgutil
import re
from pathlib import Path

import pytest

import seqparity
from seqparity.oeis import BFileFormatError
from seqparity.verify import SequenceCheck

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = set("""
    BFileTable CATALOGUE ParityRelation SequenceDescriptor VerificationReport __version__
    a001285 a001855 a003071 a005187 a029886 a061297 a061297_parity_shortcut a092524
    a093431 a101925 a102393 a104258 a113474 a128975_closed a228495 a247303
    binary_weight check_relation cross_check evil fetch_bfile fit_relation fixture_table
    master_m master_prefix odious parity_catalogue parse_bfile serialize_bfile
    smallest_prime_factor thue_morse thue_morse_bar verify_all verify_sequences
""".split())


def test_readme_library_block_runs():
    # only the fenced block's text: doctest would read the closing fence as output
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n\n```python\n(.*?)^```$", text, re.M | re.S)
    lineno = text.count("\n", 0, match.start(1))
    test = doctest.DocTestParser().get_doctest(
        match.group(1), {}, "README Library", str(README), lineno
    )
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, len(test.examples))
    assert len(test.examples) > 0


def test_public_names_are_pinned():
    assert len(seqparity.__all__) == len(PUBLIC_NAMES) == 40
    assert set(seqparity.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    assert [name for name in seqparity.__all__ if not hasattr(seqparity, name)] == []


def test_no_words_module_ships():
    assert "words" not in {module.name for module in pkgutil.iter_modules(seqparity.__path__)}


# Every public per-index scalar, each its sequence's one-term window: the index
# one below its offset, and the message that index raises.
PER_INDEX_SCALARS = {
    "evil": (0, "evil numbers are 1-indexed, got k=0"),
    "odious": (0, "odious numbers are 1-indexed, got k=0"),
    "master_m": (-1, "master sequence is defined for n >= 0, got -1"),
    "a228495": (0, "a228495 is defined for n >= 1, got 0"),
    "a128975_closed": (0, "a128975 is defined for n >= 1, got 0"),
    "a102393": (-1, "a102393 is defined for n >= 0, got -1"),
    "a104258": (0, "a104258 is defined for n >= 1, got 0"),
    "a092524": (0, "a092524 is defined for n >= 1, got 0"),
    "a001285": (-1, "a001285 is defined for n >= 0, got -1"),
    "a247303": (-1, "a247303 is defined for n >= 0, got -1"),
    "a029886": (-1, "a029886 is defined for n >= 0, got -1"),
    "a061297": (-1, "a061297 is defined for n >= 0, got -1"),
    "a093431": (0, "a093431 is defined for n >= 1, got 0"),
    "a003071": (0, "a003071 is defined for n >= 1, got 0"),
    "a001855": (0, "a001855 is defined for n >= 1, got 0"),
    "a113474": (0, "a113474 is defined for n >= 1, got 0"),
    "a101925": (-1, "a101925 is defined for k >= 0, got -1"),
    "a005187": (-1, "a005187 is defined for n >= 0, got -1"),
}


@pytest.mark.parametrize("name", sorted(PER_INDEX_SCALARS))
def test_a_scalar_rejects_the_index_below_its_offset(name):
    below, message = PER_INDEX_SCALARS[name]
    with pytest.raises(ValueError) as excinfo:
        getattr(seqparity, name)(below)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("name", sorted(PER_INDEX_SCALARS))
def test_a_scalar_returns_a_plain_int(name):
    # the offset, the indices either side of 16, and 1000
    scalar, offset = getattr(seqparity, name), PER_INDEX_SCALARS[name][0] + 1
    for n in (offset, offset + 1, 15, 16, 17, 1000):
        assert type(scalar(n)) is int, n


# The four record types: constructor, attributes, equality, hashing, frozenness
# and repr, which the README example prints for a ParityRelation.
REL = seqparity.ParityRelation(shift=-1, complement=False)
TABLE = seqparity.BFileTable("A000001", 0, (1, 2))


def _check(**fields):
    return SequenceCheck("A000001", 0, 32, seqparity.ParityRelation(0, False), **fields)


RECORDS = {
    "ParityRelation": (
        REL,
        ("shift", "complement"),
        "ParityRelation(shift=-1, complement=False)",
    ),
    "BFileTable": (
        TABLE,
        ("sequence_id", "start", "values"),
        "BFileTable(sequence_id='A000001', start=0, values=(1, 2))",
    ),
    "SequenceCheck": (
        _check(),
        ("sequence_id", "offset", "n_max", "claimed", "claimed_mismatch_count",
         "claimed_mismatch_sample", "fitted", "error", "generate_s", "fit_s"),
        "SequenceCheck(sequence_id='A000001', offset=0, n_max=32, "
        "claimed=ParityRelation(shift=0, complement=False), claimed_mismatch_count=0, "
        "claimed_mismatch_sample=[], fitted=None, error=None, generate_s=0.0, fit_s=0.0)",
    ),
    "VerificationReport": (
        seqparity.VerificationReport(64, 32),
        ("n_max_cheap", "n_max_heavy", "checks"),
        "VerificationReport(n_max_cheap=64, n_max_heavy=32, checks=[])",
    ),
}
FROZEN = {"ParityRelation", "BFileTable"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_keeps_its_fields_repr_and_equality(name):
    record, fields, text = RECORDS[name]
    cls = type(record)
    assert cls.__match_args__ == fields
    assert list(inspect.signature(cls).parameters) == list(fields)
    assert repr(record) == text
    values = [getattr(record, field) for field in fields]
    assert cls(*values) == record == cls(**dict(zip(fields, values)))
    assert record != tuple(values) and record != object()
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record == copy.deepcopy(record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_is_frozen_and_hashed_or_mutable_and_unhashable(name):
    record, fields, _ = RECORDS[name]
    if name in FROZEN:
        assert hash(record) == hash(tuple(getattr(record, field) for field in fields))
        with pytest.raises(AttributeError):
            setattr(record, fields[0], getattr(record, fields[0]))
        with pytest.raises(AttributeError):
            delattr(record, fields[0])
    else:
        assert type(record).__hash__ is None
        with pytest.raises(TypeError):
            hash(record)
        changed = copy.copy(record)
        setattr(changed, fields[0], 1)
        assert getattr(changed, fields[0]) == 1 and changed != record


def test_records_match_by_position():
    match REL, TABLE:
        case seqparity.ParityRelation(shift, complement), seqparity.BFileTable(_, start, values):
            assert (shift, complement, start, values) == (-1, False, 0, (1, 2))
        case _:
            pytest.fail("no match")


def test_record_equality_is_on_the_field_tuple():
    assert seqparity.ParityRelation(1, True) != seqparity.ParityRelation(1, False)
    assert seqparity.ParityRelation(0, False) == seqparity.ParityRelation(0, 0)
    assert seqparity.BFileTable("", 1, (3,)) != seqparity.BFileTable("A000001", 1, (3,))
    assert len({seqparity.ParityRelation(1, True), seqparity.ParityRelation(1, True)}) == 1
    assert _check(fitted=REL) != _check() == _check(claimed_mismatch_sample=[])


def test_bfile_table_keeps_its_length_and_errors():
    assert len(TABLE) == 2
    with pytest.raises(BFileFormatError, match=r"^no '<index> <value>' rows$"):
        seqparity.BFileTable("A000001", 0, ())
    with pytest.raises(BFileFormatError) as excinfo:
        seqparity.BFileTable("A000001", 3, (0, -1, -2))
    assert str(excinfo.value) == (
        "negative value -1 at index 4; all catalogued sequences are non-negative"
    )


def test_mutable_records_default_to_a_fresh_list_each():
    first, second = _check(), _check()
    first.claimed_mismatch_sample.append(5)
    assert second.claimed_mismatch_sample == [] and _check().claimed_mismatch_sample == []
    report, other = seqparity.VerificationReport(64, 32), seqparity.VerificationReport(64, 32)
    report.checks.append(first)
    assert other.checks == [] and seqparity.VerificationReport(64, 32).checks == []
    assert (_check().claimed_mismatch_count, _check().fitted, _check().error) == (0, None, None)
    assert (_check().generate_s, _check().fit_s) == (0.0, 0.0)


def test_readme_lists_each_shipped_module_once_on_one_line():
    # the Modules section ends in its list, so every line from the first
    # bullet on must be a bullet of its own
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Modules\n(.*?)(?=^## )", text, re.M | re.S)
    assert match, "README has no Modules section"
    lines = match.group(1).strip().splitlines()
    bullets = lines[next(i for i, line in enumerate(lines) if line.startswith("- ")) :]
    assert all(line.startswith("- ") for line in bullets), bullets
    named = [re.findall(r"seqparity\.(\w+)", bullet) for bullet in bullets]
    package = Path(seqparity.__file__).parent
    shipped = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__"}
    assert all(len(names) == 1 for names in named), bullets
    assert sorted(names[0] for names in named) == sorted(shipped)
