"""First-order/IFP interpretations: applying them to structures, the
induced backward formula translation, and the concrete reduction that
realizes the relation-to-bitstring encoding as formulas.

Member formulas use the canonical variable convention x1..x{w} for the
universe formula, x1..x{arity*w} for each target relation and x1..x{2w}
for the optional order formula.  Renaming and the backward translation are
handler tables on `formula.fold`, so formulas of any depth translate.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

from .core import (STR_SIG, Signature, Structure, ceil_log, malformed, read_json,
                   signature_from_json)
from .errors import (
    ArityOverflow,
    EmptyUniverse,
    LogQuantifierUnsupported,
    NotLinearOrder,
    SignatureMismatch,
    UnsupportedTerm,
)
from .evaluate import prepare, satisfying
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
    REBUILD,
    Var,
    _element_names,
    _refill,
    conj,
    disj,
    fold,
    parse_formula,
    pretty,
    terms,
    validate,
    walk,
)


def canon_vars(count: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(count))


@dataclass(frozen=True)
class Interpretation:
    """Width-w tuple of source-signature formulas defining a target
    structure on the satisfying w-tuples."""

    width: int
    source: Signature
    target: Signature
    uni: Formula
    rels: dict = field(default_factory=dict)  # target relation name -> Formula
    less: Optional[Formula] = None  # over x1..x{2w}, for ordered targets

    def __post_init__(self):
        if self.width < 1:
            raise ArityOverflow(f"width {self.width} < 1")
        self._check(self.uni, self.width, "uni")
        for name, arity in self.target.relations:
            if name not in self.rels:
                raise SignatureMismatch(f"no formula for target relation {name}")
            self._check(self.rels[name], arity * self.width, name)
        if self.target.ordered and self.less is None:
            raise NotLinearOrder("ordered target needs an order formula")
        if self.less is not None:
            self._check(self.less, 2 * self.width, "<")
        # the names of the member formulas, which fresh names avoid; not a
        # field, so == and the JSON round trip do not see it
        names = set()
        for g in (self.uni, *self.rels.values(), self.less):
            if g is not None:
                _collect_names(g, names)
        object.__setattr__(self, "_names", frozenset(names))

    def _check(self, f: Formula, nvars: int, label: str):
        free_elem, free_rel = validate(f, self.source)
        allowed = set(canon_vars(nvars))
        if not free_elem <= allowed:
            raise SignatureMismatch(
                f"formula for {label} uses variables {sorted(free_elem - allowed)} "
                f"outside {sorted(allowed)}"
            )
        if free_rel:
            raise SignatureMismatch(f"formula for {label} has free relation variables {free_rel}")


def apply_interpretation(i: Interpretation, a: Structure) -> Structure:
    """Universe = satisfying w-tuples (sorted by the order formula when
    present, lexicographically otherwise), re-indexed from 0."""
    if a.sig != i.source:
        raise SignatureMismatch("structure is not over the interpretation's source signature")
    w, memo = i.width, {}
    universe = sorted(satisfying(a, i.uni, canon_vars(w), None, memo))
    if not universe:
        raise EmptyUniverse("no tuple satisfies the universe formula")
    if i.less is not None:
        less = set(_holding(a, i.less, universe, 2, w, memo))
        # a strict linear order is the order of the number of tuples below
        universe.sort(key={t: sum((u, t) in less for u in universe) for t in universe}.get)
        for (j, t), (k, u) in itertools.product(enumerate(universe), repeat=2):
            if ((t, u) in less) != (j < k):
                raise NotLinearOrder(f"order formula is not a strict linear order at {t}, {u}")
    index = {t: j for j, t in enumerate(universe)}
    rels = {name: {tuple([index[t] for t in combo])
                   for combo in _holding(a, i.rels[name], universe, arity, w, memo)}
            for name, arity in i.target.relations}
    return Structure(i.target, len(universe), rels)


def _holding(a: Structure, f: Formula, universe: list, arity: int, w: int, memo: dict):
    """The `arity`-tuples of universe elements whose concatenation, as the values
    of x1..x{arity*w}, satisfies `f`, tested by its closure under one assignment."""
    ev, env, names = prepare(f), {}, canon_vars(arity * w)
    for combo in itertools.product(universe, repeat=arity):
        env.update(zip(names, itertools.chain.from_iterable(combo)))
        if ev(a, env, memo):
            yield combo


class _Gensym:
    def __init__(self, used):
        self.used = set(used)
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        while True:
            name = f"{prefix}{self.counter}"
            self.counter += 1
            if name not in self.used:
                self.used.add(name)
                return name


def _collect_names(f: Formula, out: set):
    for g, _, _, _ in walk(f):
        _element_names(g, out)
        if type(g) is Atom:
            out.add(g.name)
        elif type(g) in (ExistsLog, ForallLog, Ifp):
            out.add(g.relvar)


def _renamed(ts: tuple, vm: dict) -> tuple:
    return tuple([Var(vm.get(x.name, x.name)) if type(x) is Var else x for x in ts])


def _rename_quantifier(g, c, done, push):
    vm, gensym = c
    fresh = gensym.fresh("v")
    push([(_refill, (type(g), (fresh,), ())), (g.body, ({**vm, g.var: fresh}, gensym))])


def _rename_ifp(g, c, done, push):
    vm, gensym = c
    fresh = tuple(gensym.fresh("v") for _ in g.vars)
    push([(_refill, (Ifp, (fresh, g.relvar), (_renamed(g.terms, vm),))),
          (g.body, ({**vm, **dict(zip(g.vars, fresh))}, gensym))])


_RENAME = {  # context: (varmap, gensym)
    **REBUILD,
    Atom: lambda g, c, done, push: done.append(Atom(g.name, _renamed(g.args, c[0]))),
    **dict.fromkeys((Eq, Less, Bit),
                    lambda g, c, done, push: done.append(type(g)(*_renamed(terms(g), c[0])))),
    **dict.fromkeys((Exists, Forall), _rename_quantifier),
    Ifp: _rename_ifp,
}


def _rename(f: Formula, varmap: dict, gensym: _Gensym) -> Formula:
    """Substitute free element variables per varmap, renaming every binder
    to a fresh name so capture is impossible."""
    return fold(f, (varmap, gensym), _RENAME)[0]


def transform_formula(f: Formula, i: Interpretation) -> Formula:
    """Backward translation: element variables become width-w tuples,
    target atoms become their defining formulas, quantifiers are
    relativized to the universe formula, and fixed-point variables widen
    from arity l to arity l*width.  Fresh names are drawn in pre-order, but
    the universe guards of a binder after its body."""
    w = i.width
    gensym = _Gensym(i._names)
    _collect_names(f, gensym.used)

    # first uses of free names; the context holds the bound ones:
    # ({element variable: tuple of names}, {relation variable: widened name})
    free_elems: dict[str, tuple[str, ...]] = {}
    free_rels: dict[str, str] = {}

    def fresh_tuple(var: str) -> tuple[str, ...]:
        return tuple(gensym.fresh(f"{var}_") for _ in range(w))

    def tuple_of(x, elems: dict) -> tuple[str, ...]:
        if type(x) is not Var:
            raise UnsupportedTerm(f"term {x} cannot be widened to a tuple")
        return (elems.get(x.name) or free_elems.get(x.name)
                or free_elems.setdefault(x.name, fresh_tuple(x.name)))

    def uni_at(names: tuple[str, ...]) -> Formula:
        return _rename(i.uni, dict(zip(canon_vars(w), names)), gensym)

    def atom(g, c, done, push):
        elems, rels = c
        flat = tuple(n for x in g.args for n in tuple_of(x, elems))
        if g.name in i.rels:
            params = canon_vars(len(g.args) * w)
            done.append(_rename(i.rels[g.name], dict(zip(params, flat)), gensym))
        else:
            widened = (rels.get(g.name) or free_rels.get(g.name)
                       or free_rels.setdefault(g.name, gensym.fresh(g.name)))
            done.append(Atom(widened, tuple(Var(n) for n in flat)))

    def equality(g, c, done, push):
        pairs = zip(tuple_of(g.left, c[0]), tuple_of(g.right, c[0]))
        done.append(conj(Eq(Var(a), Var(b)) for a, b in pairs))

    def less(g, c, done, push):
        if i.less is None:
            raise UnsupportedTerm("'<' in the source formula but no order formula")
        flat = tuple_of(g.left, c[0]) + tuple_of(g.right, c[0])
        done.append(_rename(i.less, dict(zip(canon_vars(2 * w), flat)), gensym))

    def bit(g, *_):
        raise UnsupportedTerm("BIT does not translate through an interpretation")

    def log_quantifier(g, *_):
        raise LogQuantifierUnsupported("log-quantifiers do not translate")

    def quantifier(g, c, done, push):
        names = fresh_tuple(g.var)
        push([(relativize, (type(g), names)), (g.body, ({**c[0], g.var: names}, c[1]))])

    def relativize(q, done, push):  # the guard's names are drawn after the body's
        t, names = q
        guarded = (And if t is Exists else Implies)(uni_at(names), done[-1])
        done[-1] = reduce(lambda body, name: t(name, body), reversed(names), guarded)

    def fixed_point(g, c, done, push):
        elems, rels = c
        flat_terms = tuple(Var(n) for x in g.terms for n in tuple_of(x, elems))
        widened = gensym.fresh(g.relvar)
        blocks = [fresh_tuple(y) for y in g.vars]
        push([(guard_stages, (widened, blocks, flat_terms)),
              (g.body, ({**elems, **dict(zip(g.vars, blocks))}, {**rels, g.relvar: widened}))])

    def guard_stages(p, done, push):  # as relativize, after the body
        widened, blocks, flat_terms = p
        guards = conj(uni_at(block) for block in blocks)
        done[-1] = Ifp(sum(blocks, ()), widened, And(guards, done[-1]), flat_terms)

    table = {**REBUILD, Atom: atom, Eq: equality, Less: less, Bit: bit,
             Exists: quantifier, Forall: quantifier, Ifp: fixed_point,
             ExistsLog: log_quantifier, ForallLog: log_quantifier}
    return fold(f, ({}, {}), table)[0]


def _lex_less(left: list, right: list) -> Formula:
    """Strict lexicographic comparison of two non-empty lists of names."""
    *pairs, (a, b) = [(Var(a), Var(b)) for a, b in zip(left, right)]
    return reduce(lambda rest, ab: Or(Less(*ab), And(Eq(*ab), rest)), reversed(pairs), Less(a, b))


def build_J_reduction(r: int) -> Interpretation:
    """The reduction sending (u, R_1..R_r) to u#J(R_1)...J(R_r).

    Width is ceil_log(r) + 6; the coordinates are, in order,
    (c_u, c_bits, bitpos, bitval, first, second, index bits...), where the
    first two flag which of the three element families a tuple belongs to.
    """
    if r < 1:
        raise ArityOverflow(f"need at least one relation, got {r}")
    lr = ceil_log(r)
    w = lr + 6
    source = STR_SIG.extended(*((f"R{j + 1}", 2) for j in range(r)))

    x = canon_vars(w)
    x1, x2, x3, x4, x5, y = x[:6]
    zs = x[6:]

    def pin(value: int, *names) -> list[Formula]:
        return [Eq(Var(name), Lit(value)) for name in names]

    # family 1: the original string, one element per position (x4)
    fam1 = conj(pin(0, x1, x2, x3, x5, y, *zs))
    # family 2: the single '#' separator
    fam2 = conj(pin(0, x1) + pin(1, x2) + pin(0, x3, x4, x5, y, *zs))
    # family 3: one element per (relation, tuple, bit position); x4 is the
    # emitted bit of the second component's binary expansion
    t = "b0"  # fresh; canonical names are x1..
    guard = Exists(t, And(Less(Var(x3), Var(t)), Less(Var(t), LogN())))
    bit_match = Or(
        And(Eq(Var(x4), Lit(1)), Bit(Var(y), Var(x3))),
        And(Eq(Var(x4), Lit(0)), Not(Bit(Var(y), Var(x3)))),
    )
    per_rel = []
    for j in range(r):
        clause = [Atom(f"R{j + 1}", (Var(x5), Var(y)))]
        clause += [Eq(Var(z), Lit((j >> b) & 1)) for b, z in enumerate(zs)]  # j, LSB first
        clause += [guard, bit_match]
        per_rel.append(conj(clause))
    fam3 = conj(pin(1, x1, x2) + [disj(per_rel)])

    uni = disj([fam1, fam2, fam3])

    # order: family flags first, then relation index, then the tuple in
    # lexicographic order, then bit position, then the position/bit value
    significance = [x1, x2, *zs, x5, y, x3, x4]
    right = dict(zip(x, canon_vars(2 * w)[w:]))  # the second tuple's copy of each name
    less = _lex_less(significance, [right[name] for name in significance])

    def char_formula(pred: str, extra_family=None) -> Formula:
        base = conj(pin(0, x1, x2) + [Atom(pred, (Var(x4),))])
        return base if extra_family is None else Or(base, extra_family)

    rels = {
        "P0": char_formula("P0", conj(pin(1, x1, x2) + pin(0, x4))),
        "P1": char_formula("P1", conj(pin(1, x1, x2, x4))),
        "PH": char_formula("PH", conj(pin(0, x1) + pin(1, x2))),
        "PL": char_formula("PL"),
        "PR": char_formula("PR"),
    }
    return Interpretation(width=w, source=source, target=STR_SIG,
                          uni=uni, rels=rels, less=less)


# --- JSON interpretation files ---

def interpretation_to_json(i: Interpretation) -> dict:
    doc = {
        "width": i.width,
        "source": {"relations": [[n, a] for n, a in i.source.relations],
                   "ordered": i.source.ordered},
        "target": {"relations": [[n, a] for n, a in i.target.relations],
                   "ordered": i.target.ordered},
        "uni": pretty(i.uni),
        "rels": {name: pretty(f) for name, f in i.rels.items()},
    }
    if i.less is not None:
        doc["less"] = pretty(i.less)
    return doc


def interpretation_from_json(doc: dict) -> Interpretation:
    with malformed("interpretation"):
        return Interpretation(
            width=operator.index(doc["width"]),
            source=signature_from_json(doc["source"], "relations"),
            target=signature_from_json(doc["target"], "relations"),
            uni=parse_formula(doc["uni"]),
            rels={name: parse_formula(text) for name, text in doc["rels"].items()},
            less=parse_formula(doc["less"]) if "less" in doc else None,
        )


def load_interpretation(path: str) -> Interpretation:
    return interpretation_from_json(read_json(path, "interpretation"))
