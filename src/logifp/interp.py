"""First-order/IFP interpretations: applying them to structures, the
induced backward formula translation, and the concrete reduction that
realizes the relation-to-bitstring encoding as formulas.

Member formulas use the canonical variable convention x1..x{w} for the
universe formula, x1..x{arity*w} for each target relation and x1..x{2w}
for the optional order formula.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Optional

from .core import STR_SIG, Signature, Structure, ceil_log
from .errors import (
    ArityOverflow,
    EmptyUniverse,
    LogQuantifierUnsupported,
    NotLinearOrder,
    ParseError,
    SignatureMismatch,
    UnsupportedTerm,
)
from .evaluate import evaluate, satisfying
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
    _element_names,
    conj,
    disj,
    parse_formula,
    pretty,
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
    w = i.width
    universe = sorted(satisfying(a, i.uni, canon_vars(w)))
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
    rels: dict[str, set] = {}
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


def _rename(f: Formula, varmap: dict, gensym: _Gensym) -> Formula:
    """Substitute free element variables per varmap, renaming every binder
    to a fresh name so capture is impossible."""

    def term(x, vm):
        if type(x) is Var:
            return Var(vm.get(x.name, x.name))
        return x

    def walk(g, vm):
        t = type(g)
        if t is Atom:
            return Atom(g.name, tuple(term(x, vm) for x in g.args))
        if t is Eq:
            return Eq(term(g.left, vm), term(g.right, vm))
        if t is Less:
            return Less(term(g.left, vm), term(g.right, vm))
        if t is Bit:
            return Bit(term(g.value, vm), term(g.index, vm))
        if t is Not:
            return Not(walk(g.body, vm))
        if t in (And, Or, Implies):
            return t(walk(g.left, vm), walk(g.right, vm))
        if t in (Exists, Forall):
            fresh = gensym.fresh("v")
            return t(fresh, walk(g.body, {**vm, g.var: fresh}))
        if t in (ExistsLog, ForallLog):
            return t(g.k, g.relvar, g.arity, walk(g.body, vm))
        if t is Ifp:
            fresh_vars = tuple(gensym.fresh("v") for _ in g.vars)
            inner = {**vm, **dict(zip(g.vars, fresh_vars))}
            return Ifp(
                fresh_vars,
                g.relvar,
                walk(g.body, inner),
                tuple(term(x, vm) for x in g.terms),
            )
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, dict(varmap))


def transform_formula(f: Formula, i: Interpretation) -> Formula:
    """Backward translation: element variables become width-w tuples,
    target atoms become their defining formulas, quantifiers are
    relativized to the universe formula, and fixed-point variables widen
    from arity l to arity l*width."""
    w = i.width
    used: set[str] = set()
    _collect_names(f, used)
    _collect_names(i.uni, used)
    for g in i.rels.values():
        _collect_names(g, used)
    if i.less is not None:
        _collect_names(i.less, used)
    gensym = _Gensym(used)

    # first uses of free names; bound names travel down the walk
    free_elems: dict[str, tuple[str, ...]] = {}
    free_rels: dict[str, str] = {}

    def fresh_tuple(var: str) -> tuple[str, ...]:
        return tuple(gensym.fresh(f"{var}_") for _ in range(w))

    def tuple_of(x, elems: dict) -> tuple[str, ...]:
        if type(x) is not Var:
            raise UnsupportedTerm(f"term {x} cannot be widened to a tuple")
        names = elems.get(x.name) or free_elems.get(x.name)
        if names is None:
            names = free_elems[x.name] = fresh_tuple(x.name)
        return names

    def uni_at(names: tuple[str, ...]) -> Formula:
        return _rename(i.uni, dict(zip(canon_vars(w), names)), gensym)

    def walk(g: Formula, elems: dict, rels: dict) -> Formula:
        t = type(g)
        if t is Atom:
            flat = tuple(n for x in g.args for n in tuple_of(x, elems))
            if g.name in i.rels:
                params = canon_vars(len(g.args) * w)
                return _rename(i.rels[g.name], dict(zip(params, flat)), gensym)
            widened = rels.get(g.name) or free_rels.get(g.name)
            if widened is None:
                widened = free_rels[g.name] = gensym.fresh(g.name)
            return Atom(widened, tuple(Var(n) for n in flat))
        if t is Eq:
            lt, rt = tuple_of(g.left, elems), tuple_of(g.right, elems)
            return conj(Eq(Var(a), Var(b)) for a, b in zip(lt, rt))
        if t is Less:
            if i.less is None:
                raise UnsupportedTerm("'<' in the source formula but no order formula")
            flat = tuple_of(g.left, elems) + tuple_of(g.right, elems)
            return _rename(i.less, dict(zip(canon_vars(2 * w), flat)), gensym)
        if t is Bit:
            raise UnsupportedTerm("BIT does not translate through an interpretation")
        if t is Not:
            return Not(walk(g.body, elems, rels))
        if t in (And, Or, Implies):
            return t(walk(g.left, elems, rels), walk(g.right, elems, rels))
        if t in (Exists, Forall):
            names = fresh_tuple(g.var)
            body = walk(g.body, {**elems, g.var: names}, rels)
            guard = uni_at(names)
            inner = And(guard, body) if t is Exists else Implies(guard, body)
            for name in reversed(names):
                inner = t(name, inner)
            return inner
        if t in (ExistsLog, ForallLog):
            raise LogQuantifierUnsupported("log-quantifiers do not translate")
        if t is Ifp:
            flat_terms = tuple(Var(n) for x in g.terms for n in tuple_of(x, elems))
            widened = gensym.fresh(g.relvar)
            blocks = [fresh_tuple(y) for y in g.vars]
            body = walk(g.body, {**elems, **dict(zip(g.vars, blocks))},
                        {**rels, g.relvar: widened})
            guards = conj(uni_at(block) for block in blocks)
            flat_vars = tuple(n for block in blocks for n in block)
            return Ifp(flat_vars, widened, And(guards, body), flat_terms)
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, {}, {})


def _lex_less(left: tuple[str, ...], right: tuple[str, ...]) -> Formula:
    """Strict lexicographic comparison as a plain formula."""
    assert len(left) == len(right) and left
    a, b = Var(left[0]), Var(right[0])
    head = Less(a, b)
    if len(left) == 1:
        return head
    return Or(head, And(Eq(a, b), _lex_less(left[1:], right[1:])))


def _binary_of(value: int, names: tuple[str, ...]) -> list[Formula]:
    """Equality literals pinning names to value's bits, LSB first."""
    return [
        Eq(Var(name), Lit((value >> j) & 1))
        for j, name in enumerate(names)
    ]


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

    def zero(*names):
        return [Eq(Var(name), Lit(0)) for name in names]

    # family 1: the original string, one element per position (x4)
    fam1 = conj([Eq(Var(x1), Lit(0)), Eq(Var(x2), Lit(0))]
                + zero(x3, x5, y, *zs))
    # family 2: the single '#' separator
    fam2 = conj([Eq(Var(x1), Lit(0)), Eq(Var(x2), Lit(1))]
                + zero(x3, x4, x5, y, *zs))
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
        clause += _binary_of(j, zs)
        clause += [guard, bit_match]
        per_rel.append(conj(clause))
    fam3 = conj([Eq(Var(x1), Lit(1)), Eq(Var(x2), Lit(1)), disj(per_rel)])

    uni = disj([fam1, fam2, fam3])

    # order: family flags first, then relation index, then the tuple in
    # lexicographic order, then bit position, then the position/bit value
    significance = [x1, x2, *zs, x5, y, x3, x4]
    left = canon_vars(2 * w)[:w]
    right = canon_vars(2 * w)[w:]
    pos_of = {name: idx for idx, name in enumerate(x)}
    less = _lex_less(
        tuple(left[pos_of[name]] for name in significance),
        tuple(right[pos_of[name]] for name in significance),
    )

    def char_formula(pred: str, extra_family=None) -> Formula:
        base = conj([Eq(Var(x1), Lit(0)), Eq(Var(x2), Lit(0)),
                     Atom(pred, (Var(x4),))])
        return base if extra_family is None else Or(base, extra_family)

    rels = {
        "P0": char_formula("P0", conj([Eq(Var(x1), Lit(1)), Eq(Var(x2), Lit(1)),
                                       Eq(Var(x4), Lit(0))])),
        "P1": char_formula("P1", conj([Eq(Var(x1), Lit(1)), Eq(Var(x2), Lit(1)),
                                       Eq(Var(x4), Lit(1))])),
        "PH": char_formula("PH", conj([Eq(Var(x1), Lit(0)), Eq(Var(x2), Lit(1))])),
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
    def sig(d):
        return Signature(tuple((n, int(a)) for n, a in d["relations"]),
                         bool(d.get("ordered", False)))

    try:
        return Interpretation(
            width=int(doc["width"]),
            source=sig(doc["source"]),
            target=sig(doc["target"]),
            uni=parse_formula(doc["uni"]),
            rels={name: parse_formula(text) for name, text in doc["rels"].items()},
            less=parse_formula(doc["less"]) if "less" in doc else None,
        )
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ParseError(
            f"malformed interpretation document: {type(exc).__name__}: {exc}"
        ) from exc


def load_interpretation(path: str) -> Interpretation:
    with open(path, "r", encoding="utf-8") as fh:
        return interpretation_from_json(json.load(fh))
