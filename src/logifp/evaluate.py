"""Model checking: FO semantics, inflationary fixed points, log-bounded
second-order quantifiers by a search over the tuples their body reads, and
the guess-then-check runner.

An assignment is a plain dict mapping element-variable names to domain
indices and relation-variable names to relations (frozensets of tuples,
or a `_Partial` during the search); the two kinds never collide because
element variables are lowercase and relation variables uppercase.  No
function writes into an assignment it was handed or a solution it was
given: an extension is always a new dict.

Existential quantifiers, fixed-point stages and interpretation universes
are built from the satisfying assignments `_solve` generates: an atom
scans its relation, `x = t` binds x, conjunctions thread solutions left
to right, disjunctions chain them, and any other formula pads its unbound
variables from the domain and is tested.

`E2log`/`A2log` branch on the tuples the body reads (`_search`): the body
is evaluated under a relation that is fixed on the tuples answered so far
and empty elsewhere, and each tuple it asks about without an answer
splits the rest of the search.  Where that meets an `OutOfRange`,
`UnboundVariable` or `OrderUsedUnordered` error, the relations are
enumerated in `enumerate_bounded_relations` order instead.

Each top-level call also creates one memo dict, passed down explicitly,
that holds the fixed points computed so far, keyed by the Ifp node and
the values of the names its body reads from the assignment, so the memo
lives as long as that call.  A fixed point keyed on a node of the search
lives in that node's `_Memo` and dies with it.
"""

from __future__ import annotations

import bisect
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
    _ATOMIC,
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
    "satisfying",
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

# Generation can meet these errors where testing each binding in ascending
# order, with short-circuits, would not reach them; when it does, the
# callers of _solve test each binding in that order instead.
_LAZY_ERRORS = (OrderUsedUnordered, OutOfRange, UnboundVariable)


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
        return ceil_log(a.n)  # < n for every n >= 1
    raise TypeError(f"not a term: {t!r}")


def evaluate(a: Structure, f: Formula, env: Optional[dict] = None) -> bool:
    """Truth of `f` in `a` under the given assignment."""
    return _ev(a, f, env or {}, {})


def _relation(a: Structure, name: str, env: dict):
    rel = a.rels.get(name)
    if rel is None:
        rel = env.get(name)
        if rel is None:
            raise UnboundVariable(f"relation {name}")
    return rel


def _chain(f: Formula, t: type):
    """The members of the maximal chain of `t` nodes at f, left to right."""
    if type(f.left) is not t and type(f.right) is not t:
        return (f.left, f.right)
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        if type(g) is t:
            todo += (g.right, g.left)
        else:
            out.append(g)
    return out


def _ev(a: Structure, f: Formula, env: dict, memo: dict) -> bool:
    t = type(f)
    if t is Atom:
        args = tuple(_term_value(a, x, env) for x in f.args)
        return args in _relation(a, f.name, env)
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
        return not _ev(a, f.body, env, memo)
    if t is And or t is Or:
        decided = t is Or
        for g in _chain(f, t):
            if _ev(a, g, env, memo) == decided:
                return decided
        return not decided
    if t is Implies:
        return (not _ev(a, f.left, env, memo)) or _ev(a, f.right, env, memo)
    if t is Exists:
        env = _without(env, f.var)
        try:
            return next(_solve(a, f.body, env, (f.var,), memo), None) is not None
        except _LAZY_ERRORS:
            return _some(a, f.body, env, f.var, range(a.n), True, memo)
    if t is Forall:
        return not _some(a, f.body, env, f.var, range(a.n), False, memo)
    if t is ExistsLog or t is ForallLog:
        want = t is ExistsLog
        try:
            return _search(a, f, env, want, memo) == want
        except _LAZY_ERRORS:
            rels = enumerate_bounded_relations(a.n, f.arity, log_pow(a.n, f.k))
            return _some(a, f.body, env, f.relvar, rels, want, memo) == want
    if t is Ifp:
        reads = memo.get(f)
        if reads is None:
            # the names the body reads from the assignment, other than its own
            reads = memo[f] = tuple(_reads(a, f.body).difference(f.vars, (f.relvar,)))
        key = (f, *[env.get(name, _MISSING) for name in reads])
        fixed = memo.get(key)
        if fixed is None:
            fixed = memo[key] = ifp_fixpoint(a, f.body, f.vars, f.relvar, env, memo)
        point = tuple(_term_value(a, x, env) for x in f.terms)
        return point in fixed
    raise TypeError(f"not a formula: {f!r}")


def _some(a: Structure, body: Formula, env: dict, name: str, values, want: bool,
          memo: dict) -> bool:
    """Whether `body` evaluates to `want` with `name` bound to some of
    `values`, tried in order."""
    env = dict(env)
    for value in values:
        env[name] = value
        if _ev(a, body, env, memo) == want:
            return True
    return False


class _Partial:
    """A node of `_search`: the relation that holds `members` and no other
    tuple.  A membership test records each tuple of its arity that neither
    the node nor an ancestor answered in `reads`, in the order first asked;
    a scan reads every tuple, and the ones not asked before follow in
    order when the children are built.  `index` maps each tuple recorded
    to its place in `reads`, or to -1 where an ancestor answered it "out".
    Child `cut` of `parent` answers the parent's reads before place `cut`
    "out" and the one at it "in"."""

    __slots__ = ("members", "parent", "cut", "n", "arity", "reads", "index", "scanned")

    def __init__(self, members: frozenset, parent, cut: int, n: int, arity: int):
        self.members, self.parent, self.cut, self.n, self.arity = members, parent, cut, n, arity
        self.reads, self.index, self.scanned = [], {}, False

    def __contains__(self, t) -> bool:
        if t in self.members:
            return True
        if not self.scanned and t not in self.index and len(t) == self.arity:
            self._ask(t)
        return False

    def __iter__(self):
        self.scanned = True
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

    def children(self) -> Iterator[_Partial]:
        if self.scanned:
            for t in itertools.product(range(self.n), repeat=self.arity):
                if t not in self.members and t not in self.index:
                    self._ask(t)
        for cut, t in enumerate(self.reads):
            yield _Partial(self.members | {t}, self, cut, self.n, self.arity)


class _Memo(dict):
    """The memo of one node of `_search`: it keeps the fixed points keyed
    on the node's relation and hands every other entry to the memo of the
    enclosing evaluation, which the whole search shares."""

    __slots__ = ("outer", "rel")

    def __init__(self, outer: dict, rel: _Partial):
        self.outer, self.rel = outer, rel

    def get(self, key):
        if type(key) is tuple and self.rel in key:
            return dict.get(self, key)
        return self.outer.get(key)

    def __setitem__(self, key, value):
        if type(key) is tuple and self.rel in key:
            dict.__setitem__(self, key, value)
        else:
            self.outer[key] = value


def _search(a: Structure, f: Formula, env: dict, want: bool, memo: dict) -> bool:
    """Whether the body of the log quantifier `f` evaluates to `want` under
    some relation of at most log_pow(n, k) tuples.

    Each node evaluates the body once.  Evaluation is deterministic given
    the answers, so the value holds for every relation that agrees with
    the node on the tuples it read, and the children of a node with fewer
    members than the bound split the other relations among them.  Nodes
    are visited fewest members first, children in read order, and a level
    is built only when it is reached.
    """
    bound = log_pow(a.n, f.k)
    level = [_Partial(frozenset(), None, 0, a.n, f.arity)]
    while True:
        parents = []
        for node in level:
            if _ev(a, f.body, {**env, f.relvar: node}, _Memo(memo, node)) == want:
                return True
            if len(node.members) < bound:
                parents.append(node)
        if not parents:
            return False
        level = (child for node in parents for child in node.children())


def _without(env: dict, name: str) -> dict:
    """`env` with `name` unbound."""
    return {k: v for k, v in env.items() if k != name} if name in env else env


def _solve(a: Structure, f: Formula, env: dict, want: tuple, memo: dict) -> Iterator[dict]:
    """An iterator over the extensions of `env` under which `f` holds.

    Only names in `want` that are unbound in `env` are bound.  Each
    extension is a dict of its own, or `env` itself where nothing was
    bound.  A name `f` does not constrain may stay unbound: `f` then holds
    for every value of it.
    """
    for name in want:
        if name not in env:
            break
    else:  # nothing left to bind: a test
        return iter((env,) if _ev(a, f, env, memo) else ())
    t = type(f)
    if t is Atom:
        slot, fixed, repeated = {}, [], []
        for i, x in enumerate(f.args):
            if type(x) is not Var or x.name in env:
                fixed.append(i)
            elif x.name not in want:
                break  # tested below, which raises UnboundVariable
            elif x.name in slot:
                repeated.append((i, slot[x.name]))
            else:
                slot[x.name] = i
        else:
            if slot:
                return _scan(a, f, env, slot, fixed, repeated)
    elif t is Eq:
        for var, other in ((f.left, f.right), (f.right, f.left)):
            if (type(var) is Var and var.name in want and var.name not in env
                    and not (type(other) is Var and other.name not in env)):
                return iter(({**env, var.name: _term_value(a, other, env)},))
    elif t is And:
        return _join(a, _chain(f, And), env, want, memo)
    elif t is Or:
        return itertools.chain.from_iterable(_solve(a, g, env, want, memo)
                                             for g in _chain(f, Or))
    elif t is Exists:
        return _solve_exists(a, f, env, want, memo)
    reads = {x.name for x in terms(f) if type(x) is Var} if t in _ATOMIC else _reads(a, f)
    return _tested(a, f, env, [name for name in want if name not in env and name in reads],
                   memo)


def _tested(a: Structure, f: Formula, env: dict, names: list, memo: dict,
            known=()) -> Iterator[dict]:
    """The extensions of `env` that bind `names` to a combination of domain
    elements, the last name fastest, under which `f` holds, skipping the
    combinations in `known`."""
    ext = dict(env)
    for row in itertools.product(range(a.n), repeat=len(names)):
        ext.update(zip(names, row))
        if row not in known and _ev(a, f, ext, memo):
            yield dict(ext)


def _scan(a: Structure, f: Atom, env: dict, slot: dict, fixed: list,
          repeated: list) -> Iterator[dict]:
    """Extend `env` by each name of `slot` bound to its argument position
    in every tuple of the relation of `f` that agrees with the values of
    the `fixed` arguments and repeats the first position of a name at the
    `repeated` ones."""
    values = [(i, _term_value(a, f.args[i], env)) for i in fixed]
    checked = values or repeated
    slot = list(slot.items())
    for row in _relation(a, f.name, env):
        if checked and not (all(row[i] == v for i, v in values)
                            and all(row[i] == row[j] for i, j in repeated)):
            continue
        ext = dict(env)
        for name, i in slot:
            ext[name] = row[i]
        yield ext


def _join(a: Structure, parts: list, env: dict, want: tuple, memo: dict) -> Iterator[dict]:
    """Solutions of a conjunction: one iterator per conjunct, each started
    from a solution of the ones before, kept on a stack."""
    stack = [_solve(a, parts[0], env, want, memo)]
    while stack:
        if (ext := next(stack[-1], None)) is None:
            stack.pop()
        elif len(stack) == len(parts):
            yield ext
        else:
            stack.append(_solve(a, parts[len(stack)], ext, want, memo))


def _solve_exists(a: Structure, f: Exists, env: dict, want: tuple,
                  memo: dict) -> Iterator[dict]:
    """Solutions of the body with its variable hidden from the caller."""
    for ext in _solve(a, f.body, _without(env, f.var),
                      want if f.var in want else want + (f.var,), memo):
        yield {**ext, f.var: env[f.var]} if f.var in env else _without(ext, f.var)


def satisfying(a: Structure, f: Formula, names: tuple, env: Optional[dict] = None,
               memo: Optional[dict] = None, known: frozenset = frozenset()) -> frozenset:
    """`known` and the tuples of values of `names` under which `f` holds in
    `a`, the other free names taken from `env`.  The tuples of `known` are
    taken to satisfy `f` and are not tested again."""
    env = {k: v for k, v in env.items() if k not in names} if env else {}
    memo = {} if memo is None else memo
    found = set(known)
    try:
        for ext in _solve(a, f, env, tuple(names), memo):
            unbound = [name for name in names if name not in ext]
            for row in itertools.product(range(a.n), repeat=len(unbound)):
                full = {**ext, **dict(zip(unbound, row))}
                found.add(tuple(full[name] for name in names))
    except _LAZY_ERRORS:
        found = set(known)
        for ext in _tested(a, f, env, list(names), memo, known):
            found.add(tuple(ext[name] for name in names))
    return frozenset(found)


def _reads(a: Structure, f: Formula) -> set:
    """The names `f` reads from the assignment: its free element variables
    and its free relation variables other than the relations of `a`."""
    reads = set()
    for g, bound, rels, _ in walk(f):
        reads.update(x.name for x in terms(g) if type(x) is Var and x.name not in bound)
        if type(g) is Atom and g.name not in rels and g.name not in a.rels:
            reads.add(g.name)
    return reads


def ifp_fixpoint(a: Structure, body: Formula, vars: tuple, relvar: str,
                 env: Optional[dict] = None, memo: Optional[dict] = None) -> frozenset:
    """Inflationary iteration X_{i+1} = X_i U {t : body(t, X_i)} until stable.

    Extra free element variables in `body` act as frozen parameters.
    `memo` holds the fixed points already computed in the enclosing
    evaluation.
    """
    env = env or {}
    memo = {} if memo is None else memo
    stage = frozenset()
    while True:
        grown = satisfying(a, body, vars, {**env, relvar: stage}, memo, stage)
        if len(grown) == len(stage):
            return stage
        stage = grown


def _j_fiber(n: int, z: str, chunk_width: int) -> Iterator[frozenset]:
    """All arity-2 relations whose lexicographic J-image is exactly `z`:
    one tuple (x, y) per chunk, y being the chunk's bits with the top bit
    J drops either clear or set, each tuple above the one before."""
    columns = []
    for j in range(0, len(z), chunk_width):
        low = int(z[j:j + chunk_width][::-1], 2)
        columns.append([(x, y) for x in range(n)
                        for y in (low, low | 1 << chunk_width) if y < n])

    def choose(chosen: tuple) -> Iterator[frozenset]:
        if len(chosen) == len(columns):
            yield frozenset(chosen)
            return
        column = columns[len(chosen)]
        # columns are sorted: take only the tuples above the last one chosen
        start = bisect.bisect_right(column, chosen[-1]) if chosen else 0
        for t in column[start:]:
            yield from choose(chosen + (t,))

    return choose(())


def evaluate_via_bitstrings(u: StringStructure, f: Formula) -> bool:
    """Alternative evaluation of a prenex sentence over a string: witness
    relations are guessed as bitstring encodings (chunk-aligned J-images
    plus the bits J drops) instead of enumerated set-first.

    Restricted to prefixes where every quantified relation is binary.
    """
    if not metrics(f).prenex_existential:
        raise NotPrenex("formula is not an existential log-prefix over an IFP matrix")
    prefix, matrix = [], f
    while type(matrix) is ExistsLog:
        prefix.append((matrix.relvar, matrix.arity, matrix.k))
        matrix = matrix.body
    if any(arity != 2 for _, arity, _ in prefix):
        raise UnsupportedShape("all log-quantified variables must be binary")
    n = u.n
    width = ceil_log(n)
    if width < 2:
        raise UnsupportedShape(f"ceil_log({n}) = {width} < 2")
    chunk_width = width - 1

    def assign(rest: list, env: dict) -> bool:
        if not rest:
            return _ev(u, matrix, env, memo)
        relvar, _, k = rest[0]
        max_chunks = log_pow(n, k)
        for count in range(max_chunks + 1):
            for bits in itertools.product("01", repeat=count * chunk_width):
                z = "".join(bits)
                for rel in _j_fiber(n, z, chunk_width):
                    if assign(rest[1:], {**env, relvar: rel}):
                        return True
        return False

    memo: dict = {}
    return assign(prefix, {})


def gc_check(u: StringStructure, k: int, c: int,
             checker: Callable[[StringStructure], bool]):
    """Guess-then-check: search v in {0,1}* with |v| <= c * ceil_log(|u|)**k
    in length-then-lex order; returns (True, first witness) or (False, None)."""
    if k < 0:
        raise UnsupportedShape(f"exponent k = {k} < 0")
    if c < 0:
        raise UnsupportedShape(f"factor c = {c} < 0")
    bound = c * log_pow(u.n, k)
    for length in range(bound + 1):
        for bits in itertools.product("01", repeat=length):
            v = "".join(bits)
            if checker(from_text(u.text + "#" + v)):
                return True, v
    return False, None
