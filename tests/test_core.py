"""Structures, signatures, strings, isomorphism and JSON files, and the
oldest Python the package declares."""

import ast
import random
from pathlib import Path

import pytest

from logifp.core import (
    STR_SIG,
    Signature,
    Structure,
    ceil_log,
    from_text,
    isomorphic,
    load_structure,
    log_pow,
    mention_set,
    render,
    save_structure,
    structure_from_json,
    structure_to_json,
)
from logifp.errors import (
    ArityMismatch,
    BadCharacter,
    EmptyString,
    OutOfRange,
    ParseError,
    SignatureMismatch,
    ZeroArgument,
    ZeroDomain,
)

DIGRAPH = Signature((("E", 2),), ordered=False)
ORDERED_DIGRAPH = Signature((("E", 2),), ordered=True)


def test_ceil_log_values():
    assert ceil_log(1) == 0
    assert ceil_log(2) == 1
    assert ceil_log(8) == 3
    assert ceil_log(9) == 4
    # minimal length of n's binary expression is ceil_log(n+1)
    assert ceil_log(10) == 4 == len(bin(9)[2:])
    for n in range(1, 200):
        w = ceil_log(n)
        assert 2 ** w >= n
        assert w == 0 or 2 ** (w - 1) < n


def test_ceil_log_rejects_nonpositive():
    with pytest.raises(ZeroArgument):
        ceil_log(0)
    with pytest.raises(ZeroArgument):
        ceil_log(-3)


def test_log_pow():
    assert log_pow(8, 1) == 3
    assert log_pow(8, 2) == 9
    assert log_pow(1, 5) == 0
    assert log_pow(10, 2) == 16


def test_signature_validation():
    with pytest.raises(SignatureMismatch):
        Signature((("E", 2), ("E", 1)))
    with pytest.raises(SignatureMismatch):
        Signature((("<", 2),))
    with pytest.raises(ArityMismatch):
        Signature((("E", 0),))


def test_signature_helpers():
    sig = Signature((("E", 2), ("P", 1)), ordered=True)
    assert sig.arity("P") == 1
    assert sig.has("E") and not sig.has("Q")
    assert sig.names == ("E", "P")
    ext = sig.extended(("R1", 2))
    assert ext.has("R1") and ext.ordered
    with pytest.raises(SignatureMismatch):
        sig.arity("Q")


def test_structure_validation():
    with pytest.raises(ZeroDomain):
        Structure(DIGRAPH, 0, {})
    with pytest.raises(ArityMismatch):
        Structure(DIGRAPH, 2, {"E": {(0,)}})
    with pytest.raises(OutOfRange):
        Structure(DIGRAPH, 2, {"E": {(0, 2)}})
    with pytest.raises(SignatureMismatch):
        Structure(DIGRAPH, 2, {"F": set()})
    # a component must be an integer (bool, an int subclass, passes)
    with pytest.raises(OutOfRange, match=r"component 1\.5 of E\(0, 1\.5\) not in \[0,3\)"):
        Structure(DIGRAPH, 3, {"E": {(0, 1.5)}})
    with pytest.raises(OutOfRange, match="component '1'"):
        Structure(DIGRAPH, 3, {"E": {(0, "1")}})
    assert Structure(DIGRAPH, 2, {"E": {(True, False)}}).rels["E"] == {(1, 0)}


def test_messages_of_components_past_the_int_string_limit():
    # str() of a 5,001-digit integer raises ValueError, so the message must not print it
    with pytest.raises(OutOfRange, match="component 2 of E"):
        Structure(DIGRAPH, 2, {"E": {(0, 2)}})
    with pytest.raises(OutOfRange, match="too long to print"):
        Structure(DIGRAPH, 2, {"E": {(0, 10 ** 5000)}})
    with pytest.raises(OutOfRange):
        Structure(DIGRAPH, 10 ** 5000, {"E": {(0, -1)}})
    with pytest.raises(ArityMismatch, match="too long to print"):
        Structure(DIGRAPH, 2, {"E": {(10 ** 5000,)}})


def test_structure_equality_and_defaults():
    a = Structure(DIGRAPH, 3, {"E": {(0, 1)}})
    b = Structure(DIGRAPH, 3, {"E": [(0, 1)]})
    assert a == b and hash(a) == hash(b)
    # every signature relation gets an (empty) entry
    c = Structure(DIGRAPH, 3, {})
    assert c.rels["E"] == frozenset()
    assert a != c


def test_string_structure_round_trip():
    for text in ("0", "01011", "01#[]", "[[[0][1]][]]"):
        u = from_text(text)
        assert u.n == len(text)
        assert u.text == text
        assert render(u) == text


def test_string_structure_accepts_unicode_brackets():
    u = from_text("⟨01⟩")
    assert u.text == "[01]"


def test_string_structure_rejects_bad_input():
    with pytest.raises(EmptyString):
        from_text("")
    with pytest.raises(BadCharacter, match="character '2' at position 2 not in '01#\\[\\]'"):
        from_text("012")


def test_string_structure_equals_the_checked_structure():
    """A string structure, built without Structure's check of each tuple,
    equals and hashes as the structure built through that check from the
    same text."""
    rng = random.Random(61)
    predicates = dict(zip("01#[]", STR_SIG.names))
    for _ in range(300):
        text = "".join(rng.choice("01[]#") for _ in range(rng.randint(1, 12)))
        rels = {p: [(i,) for i, ch in enumerate(text) if predicates[ch] == p] for p in STR_SIG.names}
        checked = Structure(STR_SIG, len(text), rels)
        u = from_text(text)
        assert u == checked and checked == u and hash(u) == hash(checked), text
        assert (u.sig, u.n, u.rels) == (checked.sig, checked.n, checked.rels), text


def test_render_rejects_wrong_signature():
    a = Structure(DIGRAPH, 2, {})
    with pytest.raises(SignatureMismatch):
        render(a)


def test_isomorphic_ordered_strings_differ():
    # ordered structures only admit the identity bijection
    assert not isomorphic(from_text("01"), from_text("10"))
    assert isomorphic(from_text("01"), from_text("01"))


def test_isomorphic_unordered_relabelling():
    a = Structure(DIGRAPH, 3, {"E": {(0, 1)}})
    b = Structure(DIGRAPH, 3, {"E": {(2, 0)}})
    c = Structure(DIGRAPH, 3, {"E": {(0, 1), (1, 0)}})
    assert isomorphic(a, b)
    assert not isomorphic(a, c)
    assert not isomorphic(a, Structure(DIGRAPH, 2, {"E": {(0, 1)}}))
    with pytest.raises(SignatureMismatch):
        isomorphic(a, Structure(ORDERED_DIGRAPH, 3, {}))


def test_mention_set_bound():
    # |ment(R)| <= arity * |R|
    r = frozenset({(0, 1), (2, 3), (4, 5)})
    assert mention_set(r) == frozenset(range(6))
    assert len(mention_set(r)) <= 2 * len(r)


def test_json_round_trip(tmp_path):
    a = Structure(ORDERED_DIGRAPH, 4, {"E": {(0, 1), (3, 2)}})
    doc = structure_to_json(a)
    assert structure_from_json(doc) == a
    path = tmp_path / "a.json"
    save_structure(a, str(path))
    assert load_structure(str(path)) == a
    path.write_text('{"signature": [["E", 2]], "n": %s}' % ("1" * 5001))
    with pytest.raises(ParseError, match="malformed structure document: ValueError"):
        load_structure(str(path))
    path.write_text('{"signature": [["E", 2]], "n": 3, "relations": {"E": [[0, 1.5]]}}')
    with pytest.raises(OutOfRange):
        load_structure(str(path))
    path.write_text('{"signature": [["E", 2]], "n": 1e400}')
    with pytest.raises(ParseError, match="malformed structure document: TypeError"):
        load_structure(str(path))


def test_str_sig_shape():
    assert STR_SIG.ordered
    assert STR_SIG.names == ("P0", "P1", "PH", "PL", "PR")
    assert all(STR_SIG.arity(p) == 1 for p in STR_SIG.names)


PACKAGE = Path(__file__).parents[1] / "src" / "logifp"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
