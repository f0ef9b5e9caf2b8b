"""seqparity: exact integer-sequence generators, their parity structure, and
an empirical verifier relating each sequence's parity to the master sequence.

The package also reads, writes, and cross-checks OEIS b-files, entirely
offline by default.
"""

__version__ = "0.1.0"

from .catalogue import CATALOGUE, ParityRelation, SequenceDescriptor, parity_catalogue
from .convolution import a001285, a029886, a247303
from .digits import a092524, a102393, a104258, smallest_prime_factor
from .lcm_sums import a061297, a061297_parity_shortcut, a093431
from .nim import a128975_closed
from .oeis import (
    BFileTable,
    cross_check,
    fetch_bfile,
    fixture_table,
    parse_bfile,
    serialize_bfile,
)
from .parity import (
    a228495,
    binary_weight,
    evil,
    master_m,
    master_prefix,
    odious,
    thue_morse,
    thue_morse_bar,
)
from .sorting import a001855, a003071, a005187, a101925, a113474
from .verify import (
    VerificationReport,
    check_relation,
    fit_relation,
    verify_all,
    verify_sequences,
)

__all__ = [
    "CATALOGUE",
    "BFileTable",
    "ParityRelation",
    "SequenceDescriptor",
    "VerificationReport",
    "__version__",
    "a001285",
    "a001855",
    "a003071",
    "a005187",
    "a029886",
    "a061297",
    "a061297_parity_shortcut",
    "a092524",
    "a093431",
    "a101925",
    "a102393",
    "a104258",
    "a113474",
    "a128975_closed",
    "a228495",
    "a247303",
    "binary_weight",
    "check_relation",
    "cross_check",
    "evil",
    "fetch_bfile",
    "fit_relation",
    "fixture_table",
    "master_m",
    "master_prefix",
    "odious",
    "parity_catalogue",
    "parse_bfile",
    "serialize_bfile",
    "smallest_prime_factor",
    "thue_morse",
    "thue_morse_bar",
    "verify_all",
    "verify_sequences",
]
