"""Model checking: FO semantics, inflationary fixed points, log-bounded
second-order quantifiers by a search over the tuples their body reads, and
the guess-then-check runner.

`prepare` turns each formula node, once per node object, into a closure
`(structure, assignment, memo) -> bool` with its subformulas' closures,
its flattened `&`/`|` members or quantifier block and its term getters
bound in; `!!g` is g's closure.  No structure is bound in, so one
prepared formula evaluates on any structure, and every check of the
structure stays where it was made.

An assignment is a plain dict mapping element-variable names to domain
indices and relation-variable names to relations (frozensets of tuples,
or a `_Partial` during the search); the two kinds never collide because
element variables are lowercase and relation variables uppercase.  No
function writes into an assignment it was handed or a solution it was
given: an extension is always a new dict.

A maximal prefix of `E` (or of `A`) element quantifiers is one block that
binds its variables at once.  Fixed-point stages and interpretation
universes are built from the satisfying assignments `_solve` generates.
A node whose free element variables are all bound is tested in place by
its closure, any other by its kind's solver in `_SOLVE`: an atom scans its
relation, `x = t` binds x, `x < t` and `t < x` bind x to the range below
or above t, conjunctions thread solutions left to right, disjunctions
chain them, an `E` block hides its variables and yields each binding of
the others once, whatever its witnesses, and any other formula pads its
unbound variables from the domain and is tested (`_tested`, in ascending
order).  An existential block decides from its first witness in one loop
over the conjuncts of its body (`_witnessed`), and a universal block holds
when testing finds no counterexample.

`E2log`/`A2log` branch on the tuples the body reads (`_search`): a node
is the set of tuples its branch answered "in" and the set it answered
"out", the body is evaluated under the relation that holds the first, and
each tuple it asks about in neither set, or that a scan of it could
match, splits the rest of the search.  Where that meets an `OutOfRange`,
`UnboundVariable` or `OrderUsedUnordered` error, the relations are
enumerated in `enumerate_bounded_relations` order instead.

Each top-level call creates one memo, passed down explicitly, of the fixed
points computed so far, keyed by the fixed point's printed form (taken once
when it is prepared, so equal nodes share entries) and the values of the
names its body reads from the assignment.  A fixed point keyed on a node of
the search lives in that node's `_Memo` and dies with it.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from types import FunctionType
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
    fold,
    metrics,
    pretty,
    terms,
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


def evaluate(a: Structure, f: Formula, env: Optional[dict] = None) -> bool:
    """Truth of `f` in `a` under the given assignment."""
    return prepare(f)(a, env or {}, {})


def _relation(a: Structure, name: str, env: dict):
    rel = a.rels.get(name, env.get(name))
    if rel is None:
        raise UnboundVariable(f"relation {name}")
    return rel


def prepare(f: Formula) -> Callable[[Structure, dict, dict], bool]:
    """The closure `(a, env, memo) -> bool` of `f`, built bottom-up by `fold`
    on first use and kept on each node, outside its dataclass fields, as
    `_ev`, beside `_parts` (the members of a maximal `&`/`|` chain, the body
    under a maximal block of one kind of element quantifier, or an atomic
    formula's term getters), `_bound` (the block's variables, each at its
    last binding and in binding order, or a fixed point's), and `_elems` and
    `_rels` (the element variables and relation names it reads free).  None
    refers back to the node, so a dropped formula is freed without the cycle
    collector.  The solvers of `_SOLVE` take prepared nodes only, and test a
    node in place by `_ev` once its `_elems` are bound."""
    ev = getattr(f, "_ev", None)
    return ev if ev is not None else fold(f, None, _PREPARE)[0]._ev


_SUBFORMULAS = {Not: ("body",), Implies: ("left", "right"),
                **dict.fromkeys((ExistsLog, ForallLog, Ifp), ("body",))}


def _descend(g, c, done, push):
    if "_ev" in g.__dict__:  # prepared before, or met earlier in this formula
        done.append(g)
        return
    t, names = type(g), None
    kids = [getattr(g, name) for name in _SUBFORMULAS.get(t, ())]
    if t is And or t is Or:  # the members of the maximal chain, left to right
        todo = [g]
        while todo:
            h = todo.pop()
            if type(h) is t:
                todo += (h.right, h.left)
            else:
                kids.append(h)
    elif t is Exists or t is Forall:  # the block's variables and the body under it
        h, names = g, {}
        while type(h) is t:
            names.pop(h.var, None)
            names[h.var] = None
            h = h.body
        names, kids = tuple(names), [h]
    push([(_finish, (g, len(kids), names)), *[(h, c) for h in reversed(kids)]])


def _finish(data, done, push):
    g, count, names = data
    t, kids = type(g), done[len(done) - count:]  # the prepared subformulas
    del done[len(done) - count:]
    parts = kids if t is And or t is Or or names else [_getter(x) for x in terms(g)]
    bound, own = names or getattr(g, "vars", ()), [x.name for x in terms(g) if type(x) is Var]
    if not kids:  # an atomic formula
        elems, rels = frozenset(own), frozenset((g.name,) if t is Atom else ())
    elif count == 1:  # the body's names, less those the node binds
        elems = kids[0]._elems.difference(bound).union(own) if bound else kids[0]._elems
        rels = kids[0]._rels.difference((g.relvar,)) if hasattr(g, "relvar") else kids[0]._rels
    else:
        elems = frozenset().union(*[k._elems for k in kids])
        rels = frozenset().union(*[k._rels for k in kids])
    g.__dict__.update(_parts=parts, _bound=bound, _elems=elems, _rels=rels)
    g.__dict__["_ev"] = _BUILD[t](g, kids, parts)
    done.append(g)


_PREPARE = {FunctionType: FunctionType.__call__, **dict.fromkeys(Formula.__args__, _descend)}


def _getter(t) -> Callable[[Structure, dict], int]:
    """The value of the term `t` under a structure and an assignment."""
    if type(t) is Var:
        name = t.name

        def var(a, env):
            try:
                return env[name]
            except KeyError:
                raise UnboundVariable(name) from None
        return var
    if type(t) is not Lit and type(t) is not LogN:
        raise TypeError(f"not a term: {t!r}")
    what = f"literal {t}" if type(t) is Lit else "logn"

    def constant(a, env):
        if not a.sig.ordered:
            raise OrderUsedUnordered(f"{what} needs the built-in order")
        value = t.value if type(t) is Lit else ceil_log(a.n)  # ceil_log(n) < n for n >= 1
        if value >= a.n:
            raise OutOfRange(f"literal {t} not in [0,{a.n})")
        return value
    return constant


# An atom over variables, and `=` or `<` between a variable and a variable
# or literal, read the assignment directly; where a read fails or a literal
# is out of range they defer to `read`, which raises the error met first.

def _atom(g, kids, get):
    name, names = g.name, tuple([x.name for x in g.args if type(x) is Var])

    def read(a, env, memo):  # each argument in turn, then the relation
        return tuple([v(a, env) for v in get]) in _relation(a, name, env)
    if not names or len(names) < len(g.args):  # a literal or logn among the arguments
        return read
    x, row = names[0] if len(names) == 1 else None, operator.itemgetter(*names)

    def ev(a, env, memo):
        try:
            return ((env[x],) if x else row(env)) in (a.rels[name] if name in a.rels else env[name])
        except KeyError:
            return read(a, env, memo)
    return ev


def _compare(g, kids, get):
    (left, right), t = get, type(g)
    test = operator.eq if t is Eq else operator.lt if t is Less else lambda y, x: (y >> x) & 1 == 1
    what = None if t is Eq else "'<'" if t is Less else "BIT"

    def read(a, env, memo):  # the order first, then each term in turn
        if what and not a.sig.ordered:
            raise OrderUsedUnordered(f"{what} on an unordered structure")
        return test(left(a, env), right(a, env))
    (u, v), eq = terms(g), t is Eq
    if t is Bit or {type(u), type(v)} not in ({Var}, {Var, Lit}):
        return read
    below = type(u) is Var  # x is the left term
    x, y = (u.name, v) if below else (v.name, u)
    y, c = getattr(y, "name", None), getattr(y, "value", None)

    def equal(a, env, memo):  # x = y
        try:
            return env[x] == env[y]
        except KeyError:
            return read(a, env, memo)

    def less(a, env, memo):  # x < y
        try:
            return env[x] < env[y] if a.sig.ordered else read(a, env, memo)
        except KeyError:
            return read(a, env, memo)

    def one(a, env, memo):  # x and the literal c, in range where the order is
        try:
            if a.sig.ordered and c < a.n:
                return env[x] == c if eq else env[x] < c if below else c < env[x]
        except KeyError:
            pass
        return read(a, env, memo)
    return one if y is None else equal if eq else less


def _not(g, kids, get):
    if type(g.body) is Not:  # !!h is h: `!` has no short-circuit to keep
        return g.body.body._ev
    body = kids[0]._ev
    return lambda a, env, memo: not body(a, env, memo)


def _and_or(g, kids, get):
    evs, decided = [k._ev for k in kids], type(g) is Or
    if len(evs) == 2:  # short-circuit without the member loop
        p, q = evs
        return ((lambda a, env, memo: p(a, env, memo) or q(a, env, memo)) if decided
                else lambda a, env, memo: p(a, env, memo) and q(a, env, memo))

    def ev(a, env, memo):
        for member in evs:
            if member(a, env, memo) == decided:
                return decided
        return not decided
    return ev


def _implies(g, kids, get):
    left, right = kids[0]._ev, kids[1]._ev
    return lambda a, env, memo: (not left(a, env, memo)) or right(a, env, memo)


def _quantifier(g, kids, get):
    names, body, run = g._bound, kids[0], kids[0]._ev
    if type(g) is Forall:  # true when ascending testing finds no counterexample
        return lambda a, env, memo: next(_tested(a, run, env, names, memo, (), False), None) is None
    parts = body._parts if type(body) is And else (body,)  # the conjuncts `_witnessed` walks

    def ev(a, env, memo):
        try:
            return _witnessed(a, parts, _without(env, names), names, memo)
        except _LAZY_ERRORS:
            return next(_tested(a, run, env, names, memo), None) is not None
    return ev


def _log(g, kids, get):
    k, relvar, arity, run = g.k, g.relvar, g.arity, kids[0]._ev
    want = type(g) is ExistsLog

    def ev(a, env, memo):
        bound = log_pow(a.n, k)
        try:
            return _search(a, run, relvar, arity, bound, env, want, memo) == want
        except _LAZY_ERRORS:
            return any(run(a, {**env, relvar: rel}, memo) == want
                       for rel in enumerate_bounded_relations(a.n, arity, bound)) == want
    return ev


def _ifp(g, kids, get):
    body, vars, relvar = g.body, g.vars, g.relvar
    key = (vars, relvar, pretty(body))  # equal fixed points share their memo entries
    # the names the body reads from the assignment, other than its own, sorted
    # so that equal nodes put their values in one order
    reads = sorted(kids[0]._elems.difference(vars) | kids[0]._rels.difference((relvar,)))

    def ev(a, env, memo):
        at = (key, *[env.get(name, _MISSING) for name in reads])
        fixed = memo.get(at)
        if fixed is None:
            fixed = memo[at] = ifp_fixpoint(a, body, vars, relvar, env, memo)
        return tuple([value(a, env) for value in get]) in fixed
    return ev


# The closure of node g from g, its prepared subformulas and its `_parts`;
# none of them refers to g itself.
_BUILD = {Atom: _atom, Eq: _compare, Less: _compare, Bit: _compare, Not: _not, And: _and_or,
          Or: _and_or, Implies: _implies, Exists: _quantifier, Forall: _quantifier,
          ExistsLog: _log, ForallLog: _log, Ifp: _ifp}


class _Partial:
    """A node of `_search`: the relation that holds `members` and no other
    tuple, on a branch that answered the tuples of `out` "out".  A
    membership test records each tuple of its arity that it answers
    neither way in `reads`, in the order first asked; a scan reads the
    tuples with its fixed values and repeated entries, and those not asked
    before follow in order when the children are built.  Child `cut`
    answers the reads before place `cut` "out" and the one at it "in"."""

    __slots__ = ("members", "out", "n", "arity", "reads", "scans")

    def __init__(self, members: frozenset, out: frozenset, n: int, arity: int):
        self.members, self.out, self.n, self.arity = members, out, n, arity
        self.reads, self.scans = {}, set()

    def __contains__(self, t) -> bool:
        if t in self.members:
            return True
        if t not in self.out and len(t) == self.arity:
            self.reads[t] = None
        return False

    def scan(self, values: tuple, repeated: tuple) -> Iterator[tuple]:
        self.scans.add((values, repeated))
        return iter(self.members)

    def children(self) -> Iterator[_Partial]:
        if self.scans:
            for t in itertools.product(range(self.n), repeat=self.arity):
                if t not in self.members and t not in self.out and any(
                        all(t[i] == v for i, v in fixed) and all(t[i] == t[j] for i, j in repeated)
                        for fixed, repeated in self.scans):
                    self.reads[t] = None
        out = self.out
        for t in self.reads:
            yield _Partial(self.members | {t}, out, self.n, self.arity)
            out = out | {t}


class _Memo(dict):
    """The memo of one node of `_search`: it keeps the fixed points keyed
    on the node's relation and hands every other entry to the memo of the
    enclosing evaluation, which the whole search shares."""

    __slots__ = ("outer", "rel")

    def __init__(self, outer: dict, rel: _Partial):
        self.outer, self.rel = outer, rel

    def get(self, key):
        if self.rel in key:
            return dict.get(self, key)
        return self.outer.get(key)

    def __setitem__(self, key, value):
        if self.rel in key:
            dict.__setitem__(self, key, value)
        else:
            self.outer[key] = value


def _search(a: Structure, run: Callable, relvar: str, arity: int, bound: int, env: dict,
            want: bool, memo: dict) -> bool:
    """Whether the prepared body `run` evaluates to `want` with `relvar`
    bound to some relation of `arity` and at most `bound` tuples.

    Each node evaluates the body once.  Evaluation is deterministic given
    the answers, so the value holds for every relation that agrees with
    the node on the tuples it read, and the children of a node with fewer
    members than the bound split the other relations among them.  Nodes
    are visited fewest members first, children in read order, and a level
    is built only when it is reached.  No node refers to another, so a
    node stays alive only until the level of its children is visited.
    """
    level = [_Partial(frozenset(), frozenset(), a.n, arity)]
    while True:
        parents = []
        for node in level:
            if run(a, {**env, relvar: node}, _Memo(memo, node)) == want:
                return True
            if len(node.members) < bound:
                parents.append(node)
        if not parents:
            return False
        level = (child for node in parents for child in node.children())


def _without(env: dict, names: tuple) -> dict:
    """`env` with `names` unbound."""
    if env.keys().isdisjoint(names):
        return env
    return {k: v for k, v in env.items() if k not in names}


def _solve(a: Structure, f: Formula, env: dict, want: tuple, memo: dict) -> Iterator[dict]:
    """An iterator over the extensions of `env` under which `f` holds.

    Only names in `want` that are unbound in `env` are bound.  Each
    extension is a dict of its own, or `env` itself where nothing was
    bound.  A name `f` does not constrain may stay unbound: `f` then holds
    for every value of it.
    """
    prepare(f)
    return _solutions(a, f, env, want, memo)


def _solutions(a: Structure, g: Formula, env: dict, want: tuple, memo: dict) -> Iterator[dict]:
    """`_solve` of the prepared node g, which the solvers call for the nodes under them."""
    if env.keys() >= g._elems:  # every name g reads is bound: a test in place
        return iter((env,) if g._ev(a, env, memo) else ())
    return _SOLVE[type(g)](a, g, env, want, memo)


def _solve_tested(a, g, env, want, memo):  # g's unbound wanted names padded from the domain
    return _tested(a, g._ev, env, [x for x in want if x not in env and x in g._elems], memo)


def _solve_compare(a, g, env, want, memo):  # x = t binds x to t; x < t and t < x to a range
    left, right = g._parts
    for var, other, value, above in ((g.left, g.right, right, False),
                                     (g.right, g.left, left, True)):
        if (type(var) is Var and var.name in want and var.name not in env
                and not (type(other) is Var and other.name not in env)):
            if type(g) is Eq:
                return iter(({**env, var.name: value(a, env)},))
            if not a.sig.ordered:
                raise OrderUsedUnordered("'<' on an unordered structure")
            values = range(value(a, env) + 1, a.n) if above else range(value(a, env))
            return ({**env, var.name: x} for x in values)
    return _solve_tested(a, g, env, want, memo)


def _solve_or(a, g, env, want, memo):
    return itertools.chain.from_iterable(_solutions(a, h, env, want, memo) for h in g._parts)


def _solve_exists(a, g, env, want, memo):  # the body's solutions, the block's names hidden
    names, kept = g._bound, {name: env[name] for name in g._bound if name in env}
    free, seen = [x for x in want if x not in env and x not in names], set()
    for ext in _solutions(a, g._parts[0], _without(env, names),
                          tuple(dict.fromkeys(want + names)), memo):
        if (key := tuple([ext.get(x, _MISSING) for x in free])) not in seen:  # once per binding
            seen.add(key)
            yield {**_without(ext, names), **kept}


def _tested(a: Structure, ev: Callable, env: dict, names, memo: dict,
            known=(), holds=True) -> Iterator[dict]:
    """The extensions of `env` that bind `names` to a combination of domain
    elements, the last name fastest, under which the prepared `ev` is
    `holds`, skipping the combinations in `known`."""
    ext = dict(env)
    for row in itertools.product(range(a.n), repeat=len(names)):
        ext.update(zip(names, row))
        if row not in known and ev(a, ext, memo) is holds:
            yield dict(ext)


def _scan(a: Structure, g: Atom, env: dict, want: tuple, memo: dict) -> Iterator[dict]:
    """Extend `env` by each unbound argument of g bound to its position in
    every tuple of g's relation that agrees with the values of the bound
    arguments and repeats the first position of a name at its later ones."""
    get, slot, fixed, repeated = g._parts, {}, [], []
    for i, x in enumerate(g.args):
        if type(x) is not Var or x.name in env:
            fixed.append(i)
        elif x.name not in want:  # unbound wherever g is tested
            raise UnboundVariable(x.name)
        elif x.name in slot:
            repeated.append((i, slot[x.name]))
        else:
            slot[x.name] = i
    values = tuple([(i, get[i](a, env)) for i in fixed])
    slot = list(slot.items())
    rel = _relation(a, g.name, env)
    # a relation of another arity, seen on its first tuple, has no row to bind
    if (rel.arity if type(rel) is _Partial else len(next(iter(rel), get))) != len(get):
        return
    for row in rel.scan(values, tuple(repeated)) if type(rel) is _Partial else rel:
        if (values or repeated) and not (all(row[i] == v for i, v in values)
                                         and all(row[i] == row[j] for i, j in repeated)):
            continue
        ext = dict(env)
        for name, i in slot:
            ext[name] = row[i]
        yield ext


def _witnessed(a: Structure, parts, env: dict, want: tuple, memo: dict) -> bool:
    """Whether the conjuncts `parts` hold together under some extension of
    `env`, decided from the first: a conjunct whose names are all bound is
    tested in place, any other is solved by its kind's solver, and where
    one fails or has no solution left the last one solved takes its next."""
    stack, i = [], 0
    while i < len(parts):
        g, i = parts[i], i + 1
        if not env.keys() >= g._elems:
            stack.append((i, _SOLVE[type(g)](a, g, env, want, memo)))
        elif g._ev(a, env, memo):
            continue
        while stack and (env := next(stack[-1][1], None)) is None:
            stack.pop()
        if not stack:
            return False
        i = stack[-1][0]
    return True


def _join(a: Structure, g: And, env: dict, want: tuple, memo: dict) -> Iterator[dict]:
    """Solutions of a conjunction: one iterator per conjunct, each started
    from a solution of the ones before, kept on a stack."""
    parts, stack = g._parts, [_solutions(a, g._parts[0], env, want, memo)]
    while stack:
        if (ext := next(stack[-1], None)) is None:
            stack.pop()
        elif len(stack) == len(parts):
            yield ext
        else:
            stack.append(_solutions(a, parts[len(stack)], ext, want, memo))


# The solver of each kind of prepared node that `_solutions` does not test in place.
_SOLVE = {**dict.fromkeys(Formula.__args__, _solve_tested), Atom: _scan, Eq: _solve_compare,
          Less: _solve_compare, And: _join, Or: _solve_or, Exists: _solve_exists}


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
        for ext in _tested(a, f._ev, env, list(names), memo, known):
            found.add(tuple(ext[name] for name in names))
    return frozenset(found)


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

    todo = [()]  # chosen prefixes, the least on top
    while todo:
        chosen = todo.pop()
        if len(chosen) == len(columns):
            yield frozenset(chosen)
            continue
        column = columns[len(chosen)]
        # columns are sorted: take only the tuples above the last one chosen
        start = bisect.bisect_right(column, chosen[-1]) if chosen else 0
        todo += [chosen + (t,) for t in reversed(column[start:])]


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

    def guesses(env: dict, relvar: str, k: int) -> Iterator[dict]:  # env, relvar guessed
        for count in range(log_pow(n, k) + 1):
            for bits in itertools.product("01", repeat=count * chunk_width):
                for rel in _j_fiber(n, "".join(bits), chunk_width):
                    yield {**env, relvar: rel}

    # one iterator of assignments per relation variable bound so far, after the empty one
    run, memo, stack = prepare(matrix), {}, [iter(({},))]
    while stack:
        if (env := next(stack[-1], None)) is None:
            stack.pop()
        elif len(stack) <= len(prefix):
            relvar, _, k = prefix[len(stack) - 1]
            stack.append(guesses(env, relvar, k))
        elif run(u, env, memo):
            return True
    return False


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
