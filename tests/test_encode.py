"""Bit-exact encodings and their inverses."""

import itertools
import random
import re

import pytest

from logifp.core import Signature, Structure, from_text
from logifp.encode import (
    concat_hash,
    dec_structure,
    enc_element,
    enc_relation,
    enc_structure,
    enc_tuple,
    j_encode,
    j_preimage,
    to_string_structure,
)
from logifp.errors import (
    ArityMismatch,
    DomainTooSmall,
    LogifpError,
    NotChunkAligned,
    Overflow,
    OutOfRange,
    ParseError,
    TooManyChunks,
    Unordered,
    UnsupportedShape,
)

ORDERED_DIGRAPH = Signature((("E", 2),), ordered=True)


def test_enc_element_worked_values():
    # LSB-first: 3 -> 110, 2 -> 010, 0 -> 000 at width 3
    assert enc_element(3, 3) == "[110]"
    assert enc_element(2, 3) == "[010]"
    assert enc_element(0, 3) == "[000]"


def test_enc_element_overflow():
    with pytest.raises(Overflow):
        enc_element(8, 3)
    with pytest.raises(Overflow):
        enc_element(-1, 3)


def test_enc_tuple_and_relation_sorted():
    assert enc_tuple((1, 0), 2) == "[[10][00]]"
    # relations are emitted in ascending tuple order: a set function
    assert enc_relation({(1, 0), (0, 1)}, 2) == \
        enc_relation([(0, 1), (1, 0)], 2) == "[[[00][10]][[10][00]]]"


def test_enc_structure_small_examples():
    one_edge = Structure(ORDERED_DIGRAPH, 2, {"E": {(0, 1)}})
    assert enc_structure(one_edge) == "[[[0][1]][[[0][1]]]]"
    edgeless = Structure(ORDERED_DIGRAPH, 2, {})
    assert enc_structure(edgeless) == "[[[0][1]][]]"


def test_enc_structure_length_formula():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 9)
        edges = {(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, n))}
        a = Structure(ORDERED_DIGRAPH, n, {"E": edges})
        width = (n - 1).bit_length()
        cell = width + 2
        expected = 2 + (2 + n * cell) + (2 + len(edges) * (2 * cell + 2))
        assert len(enc_structure(a)) == expected


def test_enc_structure_preconditions():
    with pytest.raises(Unordered):
        enc_structure(Structure(Signature((("E", 2),)), 2, {}))
    with pytest.raises(DomainTooSmall):
        enc_structure(Structure(ORDERED_DIGRAPH, 1, {}))


def test_dec_round_trip_path():
    a = Structure(ORDERED_DIGRAPH, 3, {"E": {(0, 1), (1, 2)}})
    assert dec_structure(enc_structure(a), ORDERED_DIGRAPH) == a


def test_dec_round_trip_two_relation_signatures():
    sig = Signature((("E", 2), ("P", 1)), ordered=True)
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(2, 8)
        a = Structure(sig, n, {
            "E": {(rng.randrange(n), rng.randrange(n))
                  for _ in range(rng.randint(0, n))},
            "P": {(rng.randrange(n),) for _ in range(rng.randint(0, n))},
        })
        assert dec_structure(enc_structure(a), sig) == a


def test_dec_rejects_corrupt_input():
    good = enc_structure(Structure(ORDERED_DIGRAPH, 2, {"E": {(0, 1)}}))
    for bad in (good[:-1], good + "]", good.replace("[1]", "[0]", 1),
                "", "[]", "[[[0]][]]",
                "[[[0][1]][[[1][0]][[0][1]]]]",  # tuples out of order
                "[[[0][1]][[[0][1]][[0][1]]]]"):  # a repeated tuple
        with pytest.raises((ParseError, ArityMismatch)):
            dec_structure(bad, ORDERED_DIGRAPH)
    with pytest.raises(Unordered):
        dec_structure(good, Signature((("E", 2),)))


def test_dec_errors_carry_a_position():
    cases = [
        ("[[[0][1]][]]x", "unexpected 'x' at position 12"),
        # otherwise the first position where s and its re-encoding differ
        ("[[[0][1]][]]]", "at position 12"),
        ("[[[0][1]][]", "at position 11"),
        ("[[[0][1]][[[1][0]][[0][1]]]]", "at position 12"),
        ("[[[0][1]][[[0][1]][[0][1]]]]", "at position 18"),
        ("[[[0]][]]", "at position 5"),
        ("[[[0][1]][[[0][11]]]]", "at position 10"),  # component 3 of 2 elements
        # a run of bits too long to print as a decimal number
        ("[[[0][1]][[[0][" + "1" * 20000 + "]]]]", "at position 10"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError, match=re.escape(message) + "$"):
            dec_structure(text, ORDERED_DIGRAPH)


def _one_flip_encodings(a):
    """The encodings one character edit away from enc(a).  An edit of a
    bracket unbalances the string, an inserted or deleted bit changes an
    element's width, and a domain bit must spell its index, so such a
    string flips one bit of one tuple component: it encodes `a` with that
    bit flipped, when that keeps the tuples in range and increasing."""
    s = enc_structure(a)
    found = set()
    for name in a.sig.names:
        tuples = sorted(a.rels[name])
        for i, t in enumerate(tuples):
            for j, b in itertools.product(range(len(t)), range((a.n - 1).bit_length())):
                c = t[j] ^ (1 << b)
                if c < a.n:
                    flipped = tuples[:i] + [t[:j] + (c,) + t[j + 1:]] + tuples[i + 1:]
                    text = enc_structure(Structure(a.sig, a.n, {**a.rels, name: flipped}))
                    if len(text) == len(s) and sum(x != y for x, y in zip(text, s)) == 1:
                        found.add(text)
    return found


def test_dec_accepts_exactly_the_encodings():
    # one-character edits of an encoding: substitutions, insertions, deletions
    rng = random.Random(15)
    flips = rejected = 0
    for _ in range(120):
        n = rng.randint(2, 6)
        sig = Signature(tuple((name, rng.randint(1, 2))
                              for name in ("E", "P")[:rng.randint(1, 2)]), ordered=True)
        a = Structure(sig, n, {
            name: {tuple(rng.randrange(n) for _ in range(arity))
                   for _ in range(rng.randint(0, n))}
            for name, arity in sig.relations})
        s = enc_structure(a)
        encodings = _one_flip_encodings(a) | {s}
        for _ in range(30):
            i, ch = rng.randrange(len(s) + 1), rng.choice("01[]x")
            edit = rng.choice((s[:i] + ch + s[i + 1:], s[:i] + ch + s[i:], s[:i] + s[i + 1:]))
            try:
                b = dec_structure(edit, sig)
            except LogifpError:
                assert edit not in encodings
                rejected += 1
            else:
                assert enc_structure(b) == edit and edit in encodings
                flips += edit != s
    assert flips >= 10 and rejected >= 1000


def test_ordered_strings_encode_differently():
    assert to_string_structure(from_text("01")).text != \
        to_string_structure(from_text("10")).text


def test_to_string_structure_is_injective_on_samples():
    rng = random.Random(3)
    seen = {}
    for _ in range(60):
        n = rng.randint(2, 5)
        a = Structure(ORDERED_DIGRAPH, n, {
            "E": {(rng.randrange(n), rng.randrange(n))
                  for _ in range(rng.randint(0, n))}})
        text = to_string_structure(a).text
        assert seen.setdefault(text, a) == a
    assert len(seen) > 1


def test_j_encode_worked_values():
    assert j_encode(8, [(1, 3), (1, 0), (2, 0)]) == "110000"
    # set input sorts tuples: (1,0),(1,3),(2,0) gives chunks 00,11,00
    assert j_encode(8, frozenset({(1, 3), (1, 0), (2, 0)})) == "001100"
    assert j_encode(8, []) == ""


def test_j_encode_preconditions():
    with pytest.raises(DomainTooSmall):
        j_encode(2, [(0, 1)])
    with pytest.raises(ArityMismatch):
        j_encode(8, [(0, 1, 2)])
    with pytest.raises(OutOfRange):
        j_encode(8, [(0, 9)])


def test_j_preimage_worked_value():
    assert j_preimage(8, "110000", 1) == frozenset({(0, 3), (1, 0), (2, 0)})
    assert j_preimage(8, "", 1) == frozenset()


def test_j_preimage_errors():
    with pytest.raises(NotChunkAligned):
        j_preimage(8, "1", 1)
    with pytest.raises(NotChunkAligned):
        j_preimage(8, "101", 1)
    with pytest.raises(TooManyChunks):
        j_preimage(8, "01" * 4, 1)  # 4 chunks > ceil_log(8) = 3
    with pytest.raises(DomainTooSmall):
        j_preimage(2, "", 1)
    with pytest.raises(ParseError):
        j_preimage(4, "2", 1)  # only 0 and 1 are bits
    with pytest.raises(UnsupportedShape):
        j_preimage(8, "110000", -1)


def test_j_encode_after_preimage_is_identity():
    for n in (5, 8, 16):
        chunk = (n - 1).bit_length() - 1
        for count in range((n - 1).bit_length() + 1):
            for bits in itertools.product("01", repeat=count * chunk):
                z = "".join(bits)
                assert j_encode(n, j_preimage(n, z, 1)) == z


def test_j_images_cover_exactly_chunk_aligned_lengths():
    # at n=8, k=1: images of sets with <= 3 tuples are exactly the strings
    # of lengths 0, 2, 4, 6; odd lengths are unreachable
    n, bound = 8, 3
    images = set()
    universe = list(itertools.product(range(n), repeat=2))
    for size in range(bound + 1):
        for combo in itertools.combinations(universe, size):
            images.add(j_encode(n, frozenset(combo)))
    expected = {"".join(bits)
                for length in (0, 2, 4, 6)
                for bits in itertools.product("01", repeat=length)}
    assert images == expected
    assert not any(len(z) % 2 for z in images)


def test_concat_hash():
    assert concat_hash("01", "10").text == "01#10"
    assert concat_hash(from_text("01"), "110000").text == "01#110000"
    assert concat_hash("01").text == "01"
