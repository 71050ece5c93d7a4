"""Bit-exact encodings: the enumerating structure encoding enc(.), the
relation-to-bitstring encoding J with its canonical preimage, and the
ordered-structure-to-string reduction.

Bit order is least-significant-bit first throughout (element 3 in width 3
is "110"); brackets are written as the ASCII characters '[' and ']'.
"""

from __future__ import annotations

import operator
import re
from os.path import commonprefix
from typing import Iterable, Optional, Sequence, Union

from .core import Signature, StringStructure, Structure, ceil_log, from_text, log_pow
from .errors import (
    ArityMismatch,
    DomainTooSmall,
    NotChunkAligned,
    Overflow,
    OutOfRange,
    ParseError,
    TooManyChunks,
    Unordered,
    UnsupportedShape,
)


def _bits_lsb_first(j: int, width: int) -> str:
    return format(j, f"0{width}b")[::-1][:width]


def enc_element(j: int, width: int) -> str:
    """'[' + width bits of j, LSB first + ']'."""
    if j < 0 or j >= (1 << width):
        raise Overflow(f"{j} does not fit in {width} bits")
    return "[" + _bits_lsb_first(j, width) + "]"


def enc_tuple(t: Sequence[int], width: int) -> str:
    return "[" + "".join(enc_element(c, width) for c in t) + "]"


def enc_relation(tuples: Iterable[tuple], width: int) -> str:
    """Tuples in lexicographic ascending order, making enc a set function."""
    return "[" + "".join(enc_tuple(t, width) for t in sorted(tuples)) + "]"


def enc_structure(a: Structure) -> str:
    if not a.sig.ordered:
        raise Unordered("enc needs an ordered structure")
    if a.n < 2:
        raise DomainTooSmall(f"enc needs n >= 2, got {a.n}")
    width = ceil_log(a.n)
    domain = "[" + "".join(enc_element(j, width) for j in range(a.n)) + "]"
    rels = "".join(enc_relation(a.rels[name], width) for name in a.sig.names)
    return "[" + domain + rels + "]"


def _tuple(node) -> Optional[tuple]:
    """(c1, ..., ck) for a tuple node [[c1]...[ck]], else None."""
    try:
        return tuple(operator.index(c) for [c] in node)
    except (TypeError, ValueError):
        return None


def dec_structure(s: str, sig: Signature) -> Structure:
    """Inverse of enc_structure: the structure that the brackets and bit runs
    of s spell, if its encoding is s.  What spells nothing, such as a tuple
    with a component outside the domain, is left out (and a domain under two
    elements counts as two), so the encoding differs from s there."""
    if not sig.ordered:
        raise Unordered("dec needs an ordered signature")
    bad = re.search(r"[^01\[\]]", s)
    if bad:
        raise ParseError(f"unexpected {bad.group()!r} at position {bad.start()}")
    stack: list = [[]]  # a list joins its parent on opening: unclosed ones stay
    for tok in re.findall(r"[01]+|.", s):  # runs of bits and single brackets
        if tok == "[":
            stack[-1].append([])
            stack.append(stack[-1][-1])
        elif tok != "]":
            stack[-1].append(int(tok[::-1], 2))
        elif len(stack) > 1:
            stack.pop()
    top = stack[0][0] if stack[0] else None
    domain, *blocks = top if type(top) is list and top else [[]]
    n = max(2, len(domain) if type(domain) is list else 0)
    rels = {name: {t for t in map(_tuple, block) if t is not None and max(t, default=0) < n}
            for name, block in zip(sig.names, blocks) if type(block) is list}
    a = Structure(sig, n, rels)
    t = enc_structure(a)
    if t != s:
        raise ParseError(f"not an encoding: differs from the encoding of the "
                         f"structure it spells at position {len(commonprefix((s, t)))}")
    return a


def j_encode(u_size: int, s: Union[Sequence[tuple], frozenset, set]) -> str:
    """Lossy relation-to-bitstring encoding: per tuple (a, b) emit b's low
    ceil_log(u_size)-1 bits, LSB first; the first component and the top bit
    are dropped.  Sequences keep their given order; sets are sorted."""
    width = ceil_log(u_size)
    if width < 2:
        raise DomainTooSmall(f"ceil_log({u_size}) = {width} < 2")
    tuples = list(s) if isinstance(s, (list, tuple)) else sorted(s)
    out = []
    for t in tuples:
        if len(t) != 2:
            raise ArityMismatch(f"tuple {t} is not binary")
        a, b = t
        if not (0 <= a < u_size and 0 <= b < u_size):
            raise OutOfRange(f"tuple {t} not over [0,{u_size})")
        out.append(_bits_lsb_first(b, width)[:-1])
    return "".join(out)


def j_preimage(u_size: int, w: str, k: int) -> frozenset:
    """Canonical preimage of a chunk-aligned {0,1} string: chunk i becomes
    the tuple (i mod u_size, b_i) with b_i's top bit 0."""
    width = ceil_log(u_size)
    if width < 2:
        raise DomainTooSmall(f"ceil_log({u_size}) = {width} < 2")
    if k < 0:
        raise UnsupportedShape(f"exponent k = {k} < 0")
    bad = re.search("[^01]", w)
    if bad:
        raise ParseError(f"unexpected {bad.group()!r} at position {bad.start()}")
    chunk = width - 1
    if len(w) % chunk != 0:
        raise NotChunkAligned(f"length {len(w)} not a multiple of {chunk}")
    count = len(w) // chunk
    if count > log_pow(u_size, k):
        raise TooManyChunks(f"{count} chunks exceeds bound {log_pow(u_size, k)}")
    return frozenset((i % u_size, int(w[i * chunk:(i + 1) * chunk][::-1], 2))
                     for i in range(count))


def to_string_structure(a: Structure) -> StringStructure:
    """The string structure of enc_structure(a); equal strings iff equal
    ordered structures."""
    return from_text(enc_structure(a))


def concat_hash(*parts) -> StringStructure:
    """Join strings (or string structures) with single '#' separators."""
    texts = [p.text if isinstance(p, StringStructure) else str(p) for p in parts]
    return from_text("#".join(texts))
