"""The public surface: README's Library example and the names seqparity exports."""

import doctest
import pkgutil
import re
from pathlib import Path

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
