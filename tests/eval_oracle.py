"""Reference implementations kept as differential oracles for the tests.

* `j_fiber`: the J-fiber as it stood before it was built directly: every
  choice of first components and dropped top bits is generated,
  deduplicated and kept when j_encode maps it back onto the string.
* `evaluate`, `ifp_fixpoint` and `apply_interpretation`: the evaluator as
  it stood before satisfying assignments were generated from atoms and
  equality pins.  Every quantifier tries each domain element in ascending
  order and tests the body, every fixed-point stage tests all n**arity
  candidate tuples, and the universe of an interpretation is the
  satisfying tuples of all n**width.  Errors are raised lazily, in
  argument order, at the first binding that reaches them.
* `kleene` and `kleene_fixpoint`: three-valued truth, for the inputs where
  the evaluator answers and the order above meets an error first.
* `Partial`: the node of the log search as it stood before each node held
  the tuples its branch answered "out": a node keeps its parent and finds
  those answers by walking its ancestors.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from logifp.core import Structure, ceil_log, log_pow
from logifp.encode import j_encode
from logifp.errors import (
    EmptyUniverse,
    LogifpError,
    NotLinearOrder,
    OrderUsedUnordered,
    OutOfRange,
    UnboundVariable,
)
from logifp.evaluate import enumerate_bounded_relations
from logifp.formula import (
    And,
    Atom,
    Bit,
    Eq,
    Exists,
    ExistsLog,
    Forall,
    ForallLog,
    Ifp,
    Implies,
    Less,
    Lit,
    LogN,
    Not,
    Or,
    Var,
    terms,
    walk,
)
from logifp.interp import canon_vars


def j_fiber(n: int, z: str, chunk_width: int):
    """All arity-2 relations whose lexicographic J-image is exactly `z`."""
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


_MISSING = object()
_MEMO = object()


def _term_value(a, t, env: dict) -> int:
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
        return ceil_log(a.n)
    raise TypeError(f"not a term: {t!r}")


def evaluate(a, f, env=None) -> bool:
    return _ev(a, f, dict(env) if env else {})


def _ev(a, f, env: dict) -> bool:
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


def _ifp_reads(a, f) -> tuple:
    reads = set()
    for g, bound, rels, _ in walk(f.body):
        reads.update(x.name for x in terms(g) if type(x) is Var and x.name not in bound)
        if type(g) is Atom and g.name not in rels and g.name not in a.rels:
            reads.add(g.name)
    return tuple(reads.difference(f.vars, (f.relvar,)))


def ifp_fixpoint(a, body, vars, relvar, env=None) -> frozenset:
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


def apply_interpretation(i, a, evaluate=evaluate) -> Structure:
    """apply_interpretation over `evaluate` (this module's by default),
    with the universe scanned from all n**width tuples (the source-signature
    check is left to the library)."""
    w = i.width
    names = canon_vars(w)
    universe = [
        t for t in itertools.product(range(a.n), repeat=w)
        if evaluate(a, i.uni, dict(zip(names, t)))
    ]
    if not universe:
        raise EmptyUniverse("no tuple satisfies the universe formula")
    if i.less is not None:
        names = canon_vars(2 * w)
        less = {
            (t, u): evaluate(a, i.less, dict(zip(names, t + u)))
            for t in universe
            for u in universe
        }
        below = {t: sum(1 for u in universe if less[(u, t)]) for t in universe}
        for t in universe:
            if less[(t, t)]:
                raise NotLinearOrder(f"order is reflexive at {t}")
        if sorted(below.values()) != list(range(len(universe))):
            raise NotLinearOrder("order formula is not a strict linear order on the universe")
        for t in universe:
            for u in universe:
                if less[(t, u)] != (below[t] < below[u]):
                    raise NotLinearOrder(f"order formula is not transitive at ({t}, {u})")
        universe.sort(key=below.__getitem__)
    index = {t: j for j, t in enumerate(universe)}
    rels = {}
    for name, arity in i.target.relations:
        names = canon_vars(arity * w)
        f = i.rels[name]
        hits = set()
        for combo in itertools.product(universe, repeat=arity):
            flat = tuple(c for t in combo for c in t)
            if evaluate(a, f, dict(zip(names, flat))):
                hits.add(tuple(index[t] for t in combo))
        rels[name] = hits
    return Structure(i.target, len(universe), rels)


# the errors the evaluators raise lazily, where an evaluation reaches them
LAZY = (OrderUsedUnordered, OutOfRange, UnboundVariable)


def kleene(a, f, env=None):
    """Truth of `f` in Kleene's three-valued logic, with None for unknown:
    an atomic formula that raises OrderUsedUnordered, OutOfRange or
    UnboundVariable is unknown, and so is a fixed point with a stage that
    an unknown leaves undecided.  An evaluator
    may answer where this oracle raises only if this value is that answer.
    """
    return _k(a, f, dict(env) if env else {})


def _k(a, f, env):
    t = type(f)
    if t in (Atom, Eq, Less, Bit):
        try:
            return _ev(a, f, env)
        except LAZY:
            return None
    if t is Ifp:
        try:
            fixed = kleene_fixpoint(a, f.body, f.vars, f.relvar, env)
            return tuple(_term_value(a, x, env) for x in f.terms) in fixed
        except (Unknown, *LAZY):
            return None
    if t is Not:
        value = _k(a, f.body, env)
        return None if value is None else not value
    if t is Implies:
        return _any([_negate(_k(a, f.left, env)), _k(a, f.right, env)])
    if t is And or t is Or:
        values = [_k(a, f.left, env), _k(a, f.right, env)]
        return _any(values) if t is Or else _all(values)
    if t is Exists or t is Forall:
        values = [_k(a, f.body, {**env, f.var: elem}) for elem in range(a.n)]
        return _any(values) if t is Exists else _all(values)
    if t is ExistsLog or t is ForallLog:
        values = [_k(a, f.body, {**env, f.relvar: rel})
                  for rel in enumerate_bounded_relations(a.n, f.arity, log_pow(a.n, f.k))]
        return _any(values) if t is ExistsLog else _all(values)
    raise TypeError(f"not a formula: {f!r}")


def _negate(value):
    return None if value is None else not value


def _any(values):
    if True in values:
        return True
    return None if None in values else False


def _all(values):
    if False in values:
        return False
    return None if None in values else True


def kleene_fixpoint(a, body, vars, relvar, env=None) -> frozenset:
    """The inflationary fixed point with each candidate outside the stage
    decided by `kleene`; raises Unknown when one of them is unknown."""
    env = dict(env) if env else {}
    stage = frozenset()
    while True:
        env[relvar] = stage
        added = set()
        for point in itertools.product(range(a.n), repeat=len(vars)):
            if point in stage:
                continue
            if decided(a, body, {**env, **dict(zip(vars, point))}):
                added.add(point)
        if not added:
            return stage
        stage |= added


class Unknown(Exception):
    """Three-valued logic leaves the formula undecided."""


def decided(a, f, env=None) -> bool:
    """The `kleene` value of `f`, which must be known."""
    value = kleene(a, f, env)
    if value is None:
        raise Unknown(f)
    return value


def outcome(fn, *args):
    """fn(*args), or the class of the LogifpError or Unknown it raises."""
    try:
        return fn(*args)
    except (LogifpError, Unknown) as exc:
        return type(exc)


def agrees(got, expected, settle) -> bool:
    """The outcome `got` of the evaluator is the oracle's `expected`, or
    the oracle, testing one binding after another, meets a lazy error
    where generation takes another path.  Then `got` is a lazy error too
    (which one is met first depends on the order), or it is the answer
    three-valued logic decides (`settle()`, an outcome of `decided` or
    `kleene_fixpoint`)."""
    if got == expected:
        return True
    if expected not in LAZY:
        return False
    return got in LAZY or got == settle()


class Partial:
    """A node of `evaluate._search`: the relation that holds `members` and no other
    tuple.  A membership test records each tuple of its arity that neither
    the node nor an ancestor answered in `reads`, in the order first asked;
    a scan reads the tuples with its fixed values and repeated entries, and
    those not asked before follow in order when the children are built.
    `index` maps each tuple recorded to its place in `reads`, or to -1
    where an ancestor answered it "out".  Child `cut` of `parent` answers
    the parent's reads before place `cut` "out" and the one at it "in"."""

    __slots__ = ("members", "parent", "cut", "n", "arity", "reads", "index", "scans")

    def __init__(self, members: frozenset, parent, cut: int, n: int, arity: int):
        self.members, self.parent, self.cut, self.n, self.arity = members, parent, cut, n, arity
        self.reads, self.index, self.scans = [], {}, set()

    def __contains__(self, t) -> bool:
        if t in self.members:
            return True
        if t not in self.index and len(t) == self.arity:
            self._ask(t)
        return False

    def scan(self, values: tuple, repeated: tuple) -> Iterator[tuple]:
        self.scans.add((values, repeated))
        return iter(self.members)

    def _ask(self, t: tuple) -> None:
        # the nearest ancestor that indexed t decides: this branch answered
        # it "out" there if it came before the cut the branch took
        node, place = self, None
        while place is None and node.parent is not None:
            place, cut, node = node.parent.index.get(t), node.cut, node.parent
        if place is not None and place < cut:
            self.index[t] = -1
        else:
            self.index[t] = len(self.reads)
            self.reads.append(t)

    def children(self) -> Iterator[Partial]:
        if self.scans:
            for t in itertools.product(range(self.n), repeat=self.arity):
                if t not in self.members and t not in self.index and any(
                        all(t[i] == v for i, v in fixed) and all(t[i] == t[j] for i, j in repeated)
                        for fixed, repeated in self.scans):
                    self._ask(t)
        for cut, t in enumerate(self.reads):
            yield Partial(self.members | {t}, self, cut, self.n, self.arity)
