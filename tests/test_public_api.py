"""The public surface: README's Library example and the names seqparity exports."""

import doctest
import pkgutil
import re
from pathlib import Path

import pytest

import seqparity

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
