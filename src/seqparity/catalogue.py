"""Catalogue of every sequence the package generates.

Each descriptor carries the first valid index, a range generator, and -- for
the ten sequences whose parity is asserted to follow the master sequence --
the parity relation as originally claimed, even where that claim turns out to
be off by a shift.  The verifier reports claimed-versus-fitted side by side
rather than silently correcting anything.

Every range generator is a ``*_terms(start, stop)`` window in the module that
owns its sequence, the values at n = start .. stop - 1.  It computes the terms
it returns and no prefix of terms below them, at the cost that module states.
The per-index scalars beside the windows (`evil`, `a001855`, ...) are the
public per-index API, each the one-term window of its sequence, so a window
is the only route that computes its terms; `thue_morse`, `thue_morse_bar` and
`binary_weight` are the primitives that define t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import convolution, digits, lcm_sums, nim, parity, sorting

CHEAP = "cheap"
BIGNUM_HEAVY = "bignum-heavy"


class Record:
    """Base of the package's plain record types.

    A subclass names its fields in ``__slots__``, in constructor order, and
    gets a dataclass-style repr, ``==`` on the field tuple and pickling from
    them; it is not hashable.  The records are not dataclasses because the
    dataclass decorator generates and compiles such methods at every import.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """A Record whose fields are set once, by ``object.__setattr__`` in
    ``__init__``, and hashed on as a tuple."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ParityRelation(FrozenRecord):
    """Assertion that parity(A(n)) == complement XOR m(n + shift)."""

    __slots__ = __match_args__ = ("shift", "complement")

    def __init__(self, shift: int, complement: bool) -> None:
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "complement", complement)

    def describe(self) -> str:
        core = "m(n)" if self.shift == 0 else f"m(n{self.shift:+d})"
        return f"1-{core}" if self.complement else core


@dataclass(frozen=True)
class SequenceDescriptor:
    """One catalogued sequence: identity, domain, generator, and parity claim.

    ``terms(start, stop)`` returns the values at indices ``start .. stop - 1``,
    for ``offset <= start``; a start below the offset raises ValueError.
    ``base``, when set, is ``(id, derive)``: ``derive(start, window)`` turns
    that sequence's window at ``start`` into this one's on the same indices,
    in place in the given list, which it returns, and ``terms`` is the same
    step on the base's own window.  So `verify` generates one window for both.
    """

    id: str
    offset: int
    terms: Callable[[int, int], list[int]]
    summary: str = ""
    claimed: ParityRelation | None = None
    cost_class: str = CHEAP
    base: tuple[str, Callable[[int, list[int]], list[int]]] | None = None


_DESCRIPTORS = [
    SequenceDescriptor(
        id="A010060",
        offset=0,
        terms=parity.thue_morse_terms,
        summary="Thue-Morse sequence t",
    ),
    SequenceDescriptor(
        id="A010059",
        offset=0,
        terms=parity.thue_morse_bar_terms,
        summary="negated Thue-Morse sequence tbar",
    ),
    SequenceDescriptor(
        id="A001969",
        offset=1,
        terms=parity.evil_terms,
        summary="evil numbers (even binary weight)",
    ),
    SequenceDescriptor(
        id="A000069",
        offset=1,
        terms=parity.odious_terms,
        summary="odious numbers (odd binary weight)",
    ),
    SequenceDescriptor(
        id="m",
        offset=0,
        terms=parity.master_m_terms,
        summary="master sequence: alternate merge of tbar with zeros",
    ),
    SequenceDescriptor(
        id="A228495",
        offset=1,
        terms=parity.a228495_terms,
        summary="characteristic function of odd odious numbers",
    ),
    SequenceDescriptor(
        id="A128975",
        offset=1,
        terms=nim.a128975_terms,
        summary="unordered three-heap Nim P-positions with non-zero heaps",
        claimed=ParityRelation(shift=0, complement=False),
    ),
    SequenceDescriptor(
        id="A048883",
        offset=0,
        terms=parity.a048883_terms,
        summary="3 raised to the binary weight of n",
    ),
    SequenceDescriptor(
        id="A102393",
        offset=0,
        terms=digits.a102393_terms,
        summary="wicked evil sequence: n+1 at evil n, else 0",
        claimed=ParityRelation(shift=0, complement=False),
    ),
    SequenceDescriptor(
        id="A029886",
        offset=0,
        terms=convolution.a029886_terms,
        summary="self-convolution of the {1,2} Thue-Morse sequence",
        claimed=ParityRelation(shift=0, complement=False),
        base=("A247303", convolution.a029886_from_a247303),
    ),
    SequenceDescriptor(
        id="A001285",
        offset=0,
        terms=convolution.a001285_terms,
        summary="Thue-Morse sequence over {1, 2}",
    ),
    SequenceDescriptor(
        id="A247303",
        offset=0,
        terms=convolution.a247303_terms,
        summary="self-convolution of tbar",
        claimed=ParityRelation(shift=0, complement=False),
    ),
    SequenceDescriptor(
        id="A092524",
        offset=1,
        terms=digits.a092524_terms,
        summary="binary digits of n read in base smallest-prime-factor(n)",
        claimed=ParityRelation(shift=1, complement=False),
        base=("A104258", digits.a092524_from_a104258),
    ),
    SequenceDescriptor(
        id="A104258",
        offset=1,
        terms=digits.a104258_terms,
        summary="binary digits of n read in base n",
        claimed=ParityRelation(shift=1, complement=False),
    ),
    SequenceDescriptor(
        id="A061297",
        offset=0,
        terms=lcm_sums.a061297_terms,
        summary="sum of lcm-window quotients, r = 0..n",
        claimed=ParityRelation(shift=0, complement=False),
        cost_class=BIGNUM_HEAVY,
    ),
    SequenceDescriptor(
        id="A093431",
        offset=1,
        terms=lcm_sums.a093431_terms,
        summary="sum of lcm-window quotients, r = 1..n",
        claimed=ParityRelation(shift=1, complement=True),
        cost_class=BIGNUM_HEAVY,
        base=("A061297", lcm_sums.a093431_from_a061297),
    ),
    SequenceDescriptor(
        id="A003071",
        offset=1,
        terms=sorting.a003071_terms,
        summary="worst-case comparisons for list-merge sorting",
        claimed=ParityRelation(shift=1, complement=True),
    ),
    SequenceDescriptor(
        id="A001855",
        offset=1,
        terms=sorting.a001855_terms,
        summary="worst-case comparisons for binary-insertion sorting",
    ),
    SequenceDescriptor(
        id="A122248",
        offset=0,
        terms=sorting.a122248_terms,
        summary="partial sums of a113474",
        claimed=ParityRelation(shift=0, complement=True),
    ),
    SequenceDescriptor(
        id="A113474",
        offset=1,
        terms=sorting.a113474_terms,
        summary="a(n) = a(n//2) + n//2, a(1) = 1",
    ),
    SequenceDescriptor(
        id="A101925",
        offset=0,
        terms=sorting.a101925_terms,
        summary="b(k) = b(k//2) + k, b(0) = 1",
    ),
    SequenceDescriptor(
        id="A005187",
        offset=0,
        terms=sorting.a005187_terms,
        summary="2-adic valuation of (2n)!",
    ),
]

CATALOGUE: dict[str, SequenceDescriptor] = {d.id: d for d in _DESCRIPTORS}


def get(sequence_id: str) -> SequenceDescriptor:
    """Look up a descriptor; KeyError names the unknown id."""
    try:
        return CATALOGUE[sequence_id]
    except KeyError:
        raise KeyError(f"unknown sequence id {sequence_id!r}") from None


def parity_catalogue() -> list[SequenceDescriptor]:
    """The sequences carrying a claimed parity relation, in report order."""
    return [d for d in CATALOGUE.values() if d.claimed is not None]
