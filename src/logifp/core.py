"""Finite relational structures, signatures and string structures.

Domains are always initial segments {0, ..., n-1}; an ordered structure
carries the natural order on its domain.  Strings live over the five
character alphabet 0 1 # [ ] where '[' and ']' are the ASCII spellings of
the opening/closing encoding brackets.
"""

from __future__ import annotations

import itertools
import json
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    ArityMismatch,
    BadCharacter,
    EmptyString,
    OutOfRange,
    ParseError,
    SignatureMismatch,
    ZeroArgument,
    ZeroDomain,
)

STRING_ALPHABET = "01#[]"

# Unicode brackets are accepted on input and normalized to ASCII.
_BRACKET_TRANSLATION = str.maketrans({"⟨": "[", "⟩": "]", "〈": "[", "〉": "]"})

# character -> unary predicate name of the string signature
CHAR_PREDICATES = {"0": "P0", "1": "P1", "#": "PH", "[": "PL", "]": "PR"}
PREDICATE_CHARS = {v: k for k, v in CHAR_PREDICATES.items()}


def ceil_log(n: int) -> int:
    """Smallest w with 2**w >= n (so ceil_log(1) == 0)."""
    if n < 1:
        raise ZeroArgument(f"ceil_log undefined for {n}")
    return (n - 1).bit_length()


def log_pow(n: int, k: int) -> int:
    """ceil_log(n) raised to the k-th power."""
    return ceil_log(n) ** k


@dataclass(frozen=True)
class Signature:
    """Ordered list of (relation name, arity) plus an order flag.

    When `ordered` is set the structure carries the natural linear order
    on its domain; "<" is built in and never a relation name.
    """

    relations: tuple[tuple[str, int], ...]
    ordered: bool = False

    def __post_init__(self):
        names = [name for name, _ in self.relations]
        if len(set(names)) != len(names):
            raise SignatureMismatch(f"duplicate relation names in {names}")
        for name, arity in self.relations:
            if name == "<":
                raise SignatureMismatch('"<" is reserved for the built-in order')
            if arity < 1:
                raise ArityMismatch(f"relation {name} has arity {arity} < 1")

    def arity(self, name: str) -> int:
        for rel, arity in self.relations:
            if rel == name:
                return arity
        raise SignatureMismatch(f"no relation named {name}")

    def has(self, name: str) -> bool:
        return any(rel == name for rel, _ in self.relations)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.relations)

    def extended(self, *extra: tuple[str, int]) -> "Signature":
        return Signature(self.relations + tuple(extra), self.ordered)


def _shown(x) -> str:
    """repr(x), unless an integer in it is past Python's int-to-string limit."""
    try:
        return repr(x)
    except ValueError:
        return "<an integer too long to print>"


class Structure:
    """Immutable finite structure over a Signature.

    The domain is {0, ..., n-1}.  Every signature relation has an entry in
    `rels` (possibly empty).
    """

    __slots__ = ("sig", "n", "rels", "_key")

    def __init__(self, sig: Signature, n: int, rels: Mapping[str, Iterable[tuple]]):
        if n < 1:
            raise ZeroDomain(f"domain size {n} < 1")
        interp: dict[str, frozenset] = {}
        for name, arity in sig.relations:
            tuples = frozenset(tuple(t) for t in rels.get(name, ()))
            for t in tuples:
                if len(t) != arity:
                    raise ArityMismatch(f"{name} expects arity {arity}, got tuple {_shown(t)}")
                for comp in t:
                    if not (isinstance(comp, int) and 0 <= comp < n):
                        raise OutOfRange(f"component {_shown(comp)} of {name}{_shown(t)} "
                                         f"not in [0,{_shown(n)})")
            interp[name] = tuples
        for name in rels:
            if name not in interp:
                raise SignatureMismatch(f"relation {name} not in signature")
        self.sig = sig
        self.n = n
        self.rels = interp
        self._key = (sig, n, tuple(interp[name] for name in sig.names))

    def __eq__(self, other):
        return isinstance(other, Structure) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Structure(n={self.n}, rels={ {k: sorted(v) for k, v in self.rels.items()} })"


STR_SIG = Signature(
    relations=(("P0", 1), ("P1", 1), ("PH", 1), ("PL", 1), ("PR", 1)),
    ordered=True,
)


class StringStructure(Structure):
    """A structure over the string signature; one position per character."""

    __slots__ = ("text",)

    def __init__(self, text: str):  # sets the fields without Structure's check of each tuple
        text = text.translate(_BRACKET_TRANSLATION)
        if not text:
            raise EmptyString("the empty string has no structure")
        rels: dict[str, list] = {p: [] for p in STR_SIG.names}
        try:
            for i, ch in enumerate(text):
                rels[CHAR_PREDICATES[ch]].append((i,))
        except KeyError:
            raise BadCharacter(
                f"character {ch!r} at position {i} not in {STRING_ALPHABET!r}") from None
        self.sig, self.n, self.text = STR_SIG, len(text), text
        self.rels = {p: frozenset(ts) for p, ts in rels.items()}
        self._key = (STR_SIG, self.n, tuple(self.rels.values()))


def from_text(s: str) -> StringStructure:
    return StringStructure(s)


def render(u: Structure) -> str:
    """Read the text back off a structure over the string signature."""
    if u.sig != STR_SIG:
        raise SignatureMismatch("not a structure over the string signature")
    chars = []
    for i in range(u.n):
        hits = [p for p in STR_SIG.names if (i,) in u.rels[p]]
        if len(hits) != 1:
            raise BadCharacter(f"position {i} carries {len(hits)} predicates, expected exactly 1")
        chars.append(PREDICATE_CHARS[hits[0]])
    return "".join(chars)


def isomorphic(a: Structure, b: Structure) -> bool:
    """Exhaustive isomorphism test; intended for small domains (n <= ~8)."""
    if a.sig != b.sig:
        raise SignatureMismatch("structures have different signatures")
    if a.n != b.n:
        return False
    if a.sig.ordered:
        # the only order-preserving bijection on [n] is the identity
        return a == b
    for perm in itertools.permutations(range(a.n)):
        if all(
            frozenset(tuple(perm[c] for c in t) for t in a.rels[name]) == b.rels[name]
            for name in a.sig.names
        ):
            return True
    return False


def mention_set(tuples: Iterable[tuple]) -> frozenset:
    """Elements occurring as a component of some tuple."""
    return frozenset(c for t in tuples for c in t)


# --- JSON structure files ---

def structure_to_json(a: Structure) -> dict:
    return {
        "signature": [[name, arity] for name, arity in a.sig.relations],
        "ordered": a.sig.ordered,
        "n": a.n,
        "relations": {name: sorted([list(t) for t in a.rels[name]]) for name in a.sig.names},
    }


def signature_from_json(doc: dict, key: str) -> Signature:
    """The signature whose `[name, arity]` pairs are `doc[key]`, ordered if
    `doc` says so."""
    return Signature(tuple((name, operator.index(arity)) for name, arity in doc[key]),
                     bool(doc.get("ordered", False)))


@contextmanager
def malformed(kind: str):
    """A missing key, a wrong type or a number out of range in a `kind` document, as ParseError."""
    try:
        yield
    except (KeyError, ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ParseError(f"malformed {kind} document: {type(exc).__name__}: {exc}") from exc


def structure_from_json(doc: dict) -> Structure:
    with malformed("structure"):
        sig = signature_from_json(doc, "signature")
        rels = {name: [tuple(t) for t in ts] for name, ts in doc.get("relations", {}).items()}
        return Structure(sig, operator.index(doc["n"]), rels)


def read_json(path: str, kind: str):
    """The JSON document in the file at `path`, a `kind` document."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    with malformed(kind):
        return json.loads(text)


def load_structure(path: str) -> Structure:
    return structure_from_json(read_json(path, "structure"))


def save_structure(a: Structure, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(structure_to_json(a), fh, indent=1, sort_keys=True)
        fh.write("\n")
