"""Model checking: FO semantics, inflationary fixed points, log-bounded
second-order quantifiers by enumeration, and the guess-then-check runner.

An assignment is a plain dict mapping element-variable names to domain
indices and relation-variable names to frozensets of tuples; the two kinds
never collide because element variables are lowercase and relation
variables uppercase.  The first fixed point met in one top-level call
adds, under the non-string key _MEMO, the fixed points computed so far,
keyed by the Ifp node and the values of the names its body reads from the
assignment; every call copies the caller's dict, so the memo lives as long
as that call.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional

from .core import StringStructure, Structure, ceil_log, from_text, log_pow
from .errors import (
    NotPrenex,
    OrderUsedUnordered,
    OutOfRange,
    UnboundVariable,
    UnsupportedShape,
)
from .formula import (
    And,
    Atom,
    Bit,
    Eq,
    Exists,
    ExistsLog,
    Forall,
    ForallLog,
    Formula,
    Ifp,
    Implies,
    Less,
    Lit,
    LogN,
    Not,
    Or,
    Var,
    metrics,
    terms,
    walk,
)

__all__ = [
    "ceil_log",
    "log_pow",
    "enumerate_bounded_relations",
    "evaluate",
    "ifp_fixpoint",
    "evaluate_via_bitstrings",
    "gc_check",
]


def enumerate_bounded_relations(n: int, arity: int, bound: int) -> Iterator[frozenset]:
    """All subsets S of [n]^arity with |S| <= bound, sizes ascending and
    lexicographic within each size; starts with the empty relation."""
    universe = sorted(itertools.product(range(n), repeat=arity))
    for size in range(min(bound, len(universe)) + 1):
        for combo in itertools.combinations(universe, size):
            yield frozenset(combo)


_MISSING = object()
_MEMO = object()


def _term_value(a: Structure, t, env: dict) -> int:
    if type(t) is Var:
        v = env.get(t.name, _MISSING)
        if v is _MISSING:
            raise UnboundVariable(t.name)
        return v
    if type(t) is Lit:
        if not a.sig.ordered:
            raise OrderUsedUnordered(f"literal {t.value} needs the built-in order")
        if t.value >= a.n:
            raise OutOfRange(f"literal {t.value} not in [0,{a.n})")
        return t.value
    if type(t) is LogN:
        if not a.sig.ordered:
            raise OrderUsedUnordered("logn needs the built-in order")
        v = ceil_log(a.n)
        if v >= a.n:
            raise OutOfRange(f"logn = {v} not in [0,{a.n})")
        return v
    raise TypeError(f"not a term: {t!r}")


def evaluate(a: Structure, f: Formula, env: Optional[dict] = None) -> bool:
    """Truth of `f` in `a` under the given assignment."""
    return _ev(a, f, dict(env) if env else {})


def _ev(a: Structure, f: Formula, env: dict) -> bool:
    t = type(f)
    if t is Atom:
        args = tuple(_term_value(a, x, env) for x in f.args)
        rel = a.rels.get(f.name)
        if rel is None:
            rel = env.get(f.name)
            if rel is None:
                raise UnboundVariable(f"relation {f.name}")
        return args in rel
    if t is Eq:
        return _term_value(a, f.left, env) == _term_value(a, f.right, env)
    if t is Less:
        if not a.sig.ordered:
            raise OrderUsedUnordered("'<' on an unordered structure")
        return _term_value(a, f.left, env) < _term_value(a, f.right, env)
    if t is Bit:
        if not a.sig.ordered:
            raise OrderUsedUnordered("BIT on an unordered structure")
        y = _term_value(a, f.value, env)
        x = _term_value(a, f.index, env)
        return (y >> x) & 1 == 1
    if t is Not:
        return not _ev(a, f.body, env)
    if t is And:
        return _ev(a, f.left, env) and _ev(a, f.right, env)
    if t is Or:
        return _ev(a, f.left, env) or _ev(a, f.right, env)
    if t is Implies:
        return (not _ev(a, f.left, env)) or _ev(a, f.right, env)
    if t is Exists or t is Forall:
        want = t is Exists
        old = env.get(f.var, _MISSING)
        try:
            for elem in range(a.n):
                env[f.var] = elem
                if _ev(a, f.body, env) == want:
                    return want
            return not want
        finally:
            if old is _MISSING:
                env.pop(f.var, None)
            else:
                env[f.var] = old
    if t is ExistsLog or t is ForallLog:
        want = t is ExistsLog
        bound = log_pow(a.n, f.k)
        old = env.get(f.relvar, _MISSING)
        try:
            for rel in enumerate_bounded_relations(a.n, f.arity, bound):
                env[f.relvar] = rel
                if _ev(a, f.body, env) == want:
                    return want
            return not want
        finally:
            if old is _MISSING:
                env.pop(f.relvar, None)
            else:
                env[f.relvar] = old
    if t is Ifp:
        memo = env.get(_MEMO)
        if memo is None:
            memo = env[_MEMO] = {}
        reads = memo.get(f)
        if reads is None:
            reads = memo[f] = _ifp_reads(a, f)
        key = (f, *[env.get(name, _MISSING) for name in reads])
        fixed = memo.get(key)
        if fixed is None:
            fixed = memo[key] = ifp_fixpoint(a, f.body, f.vars, f.relvar, env)
        point = tuple(_term_value(a, x, env) for x in f.terms)
        return point in fixed
    raise TypeError(f"not a formula: {f!r}")


def _ifp_reads(a: Structure, f: Ifp) -> tuple:
    """The names the body of `f` reads from the assignment: its free
    element variables other than f.vars and its free relation variables
    other than f.relvar and the relations of `a`."""
    reads = set()
    for g, bound, rels, _ in walk(f.body):
        reads.update(x.name for x in terms(g) if type(x) is Var and x.name not in bound)
        if type(g) is Atom and g.name not in rels and g.name not in a.rels:
            reads.add(g.name)
    return tuple(reads.difference(f.vars, (f.relvar,)))


def ifp_fixpoint(a: Structure, body: Formula, vars: tuple, relvar: str,
                 env: Optional[dict] = None) -> frozenset:
    """Inflationary iteration X_{i+1} = X_i U {t : body(t, X_i)} until stable.

    Extra free element variables in `body` act as frozen parameters.
    """
    env = dict(env) if env else {}
    arity = len(vars)
    stage: set = set()
    candidates = list(itertools.product(range(a.n), repeat=arity))
    while True:
        env[relvar] = frozenset(stage)
        added = []
        for point in candidates:
            if point in stage:
                continue
            for name, value in zip(vars, point):
                env[name] = value
            if _ev(a, body, env):
                added.append(point)
        for name in vars:
            env.pop(name, None)
        if not added:
            return frozenset(stage)
        stage.update(added)


def _log_prefix(f: Formula):
    """Peel the leading existential log-quantifiers;
    returns ([(relvar, arity, k), ...], matrix)."""
    prefix = []
    while type(f) is ExistsLog:
        prefix.append((f.relvar, f.arity, f.k))
        f = f.body
    return prefix, f


def _j_fiber(n: int, z: str, chunk_width: int) -> Iterator[frozenset]:
    """All arity-2 relations whose lexicographic J-image is exactly `z`."""
    from .encode import j_encode

    count = len(z) // chunk_width
    lows = [
        int(z[j * chunk_width:(j + 1) * chunk_width][::-1], 2)
        for j in range(count)
    ]
    if count == 0:
        yield frozenset()
        return
    seen = set()
    for firsts in itertools.product(range(n), repeat=count):
        for tops in itertools.product((0, 1), repeat=count):
            seconds = [low + top * (1 << chunk_width) for low, top in zip(lows, tops)]
            if any(b >= n for b in seconds):
                continue
            rel = frozenset(zip(firsts, seconds))
            if rel in seen:
                continue
            seen.add(rel)
            if j_encode(n, rel) == z:
                yield rel


def evaluate_via_bitstrings(u: StringStructure, f: Formula) -> bool:
    """Alternative evaluation of a prenex sentence over a string: witness
    relations are guessed as bitstring encodings (chunk-aligned J-images
    plus the bits J drops) instead of enumerated set-first.

    Restricted to prefixes where every quantified relation is binary.
    """
    if not metrics(f).prenex_existential:
        raise NotPrenex("formula is not an existential log-prefix over an IFP matrix")
    prefix, matrix = _log_prefix(f)
    if any(arity != 2 for _, arity, _ in prefix):
        raise UnsupportedShape("all log-quantified variables must be binary")
    n = u.n
    width = ceil_log(n)
    if width < 2:
        raise UnsupportedShape(f"ceil_log({n}) = {width} < 2")
    chunk_width = width - 1

    def assign(rest: list, env: dict) -> bool:
        if not rest:
            return _ev(u, matrix, env)
        relvar, _, k = rest[0]
        max_chunks = log_pow(n, k)
        for count in range(max_chunks + 1):
            for bits in itertools.product("01", repeat=count * chunk_width):
                z = "".join(bits)
                for rel in _j_fiber(n, z, chunk_width):
                    env[relvar] = rel
                    if assign(rest[1:], env):
                        return True
        env.pop(relvar, None)
        return False

    return assign(prefix, {})


def gc_check(u: StringStructure, k: int, c: int,
             checker: Callable[[StringStructure], bool]):
    """Guess-then-check: search v in {0,1}* with |v| <= c * ceil_log(|u|)**k
    in length-then-lex order; returns (True, first witness) or (False, None)."""
    bound = c * log_pow(u.n, k)
    for length in range(bound + 1):
        for bits in itertools.product("01", repeat=length):
            v = "".join(bits)
            if checker(from_text(u.text + "#" + v)):
                return True, v
    return False, None
