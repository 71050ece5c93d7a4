"""Interpretations: application, backward formula translation, and the
relation-encoding reduction."""

import importlib
import json
import random
import re
from pathlib import Path

import eval_oracle
import formula_oracle
import pytest
from eval_oracle import agrees, outcome
from test_formula import _random_formula, deep_formula

from logifp.core import STR_SIG, Signature, Structure, ceil_log, from_text, render
from logifp.encode import j_encode
from logifp.errors import (
    EmptyUniverse,
    LogQuantifierUnsupported,
    NotLinearOrder,
    OutOfRange,
    SignatureMismatch,
    UnsupportedTerm,
)
from logifp.evaluate import evaluate
from logifp.formula import (
    And,
    Exists,
    ExistsLog,
    ForallLog,
    Ifp,
    parse_formula,
    pretty,
    validate,
    walk,
)
from logifp.interp import (
    Interpretation,
    _Gensym,
    _rename,
    apply_interpretation,
    build_J_reduction,
    canon_vars,
    interpretation_from_json,
    interpretation_to_json,
    transform_formula,
)

DIGRAPH = Signature((("E", 2),), ordered=False)
ORDERED_DIGRAPH = Signature((("E", 2),), ordered=True)
ORDERED_F = Signature((("F", 2),), ordered=True)


def pairing_interpretation():
    """Width-2 pairing: universe = all pairs, F((a,b),(c,d)) iff E(b,c)."""
    return Interpretation(
        width=2,
        source=ORDERED_DIGRAPH,
        target=ORDERED_F,
        uni=parse_formula("x1=x1 & x2=x2"),
        rels={"F": parse_formula("E(x2,x3) & x1=x1 & x4=x4")},
        less=parse_formula("x1<x3 | (x1=x3 & x2<x4)"),
    )


def test_canon_vars():
    assert canon_vars(3) == ("x1", "x2", "x3")


def test_interpretation_validation():
    with pytest.raises(SignatureMismatch):
        Interpretation(width=1, source=ORDERED_DIGRAPH, target=ORDERED_F,
                       uni=parse_formula("x1=x1"), rels={})
    with pytest.raises(SignatureMismatch):
        Interpretation(width=1, source=ORDERED_DIGRAPH, target=ORDERED_F,
                       uni=parse_formula("x9=x9"),
                       rels={"F": parse_formula("x1=x2")},
                       less=parse_formula("x1<x2"))
    with pytest.raises(NotLinearOrder):
        Interpretation(width=1, source=ORDERED_DIGRAPH, target=ORDERED_F,
                       uni=parse_formula("x1=x1"),
                       rels={"F": parse_formula("x1=x2")})


def test_pairing_universe_size():
    a = Structure(ORDERED_DIGRAPH, 2, {"E": {(0, 1)}})
    b = apply_interpretation(pairing_interpretation(), a)
    assert b.n == 4
    # universe indices are the pairs in lexicographic order; F holds where
    # the middle components form an E-edge: ((0,0),(1,0)) needs E(0,1)
    assert (0, 2) in b.rels["F"]
    assert (1, 2) not in b.rels["F"]  # would need E(1,1)


def test_apply_rejects_wrong_source():
    with pytest.raises(SignatureMismatch):
        apply_interpretation(pairing_interpretation(),
                             Structure(ORDERED_F, 2, {}))


def test_apply_empty_universe():
    i = Interpretation(width=1, source=ORDERED_DIGRAPH, target=ORDERED_F,
                       uni=parse_formula("x1<x1"),
                       rels={"F": parse_formula("x1=x2")},
                       less=parse_formula("x1<x2"))
    with pytest.raises(EmptyUniverse):
        apply_interpretation(i, Structure(ORDERED_DIGRAPH, 2, {}))


def test_apply_rejects_non_linear_order():
    i = Interpretation(width=1, source=ORDERED_DIGRAPH, target=ORDERED_F,
                       uni=parse_formula("x1=x1"),
                       rels={"F": parse_formula("x1=x2")},
                       less=parse_formula("x1=x1"))  # reflexive
    with pytest.raises(NotLinearOrder):
        apply_interpretation(i, Structure(ORDERED_DIGRAPH, 2, {}))


def test_transform_exists_shape():
    f = transform_formula(parse_formula("Ex. F(x,x)"), pairing_interpretation())
    # the element quantifier becomes a width-2 block guarded by the
    # universe formula
    assert isinstance(f, Exists)
    assert isinstance(f.body, Exists)
    assert isinstance(f.body.body, And)


def test_transform_widens_fixed_point_arity():
    f = parse_formula("ifp[Y(u,v) <- F(u,v) | Ez.(F(u,z) & Y(z,v))](x,y)")
    g = transform_formula(f, pairing_interpretation())

    def find_ifp(h):
        if isinstance(h, Ifp):
            return h
        for attr in ("body", "left", "right"):
            if hasattr(h, attr):
                found = find_ifp(getattr(h, attr))
                if found is not None:
                    return found
        return None

    widened = find_ifp(g)
    assert widened is not None
    assert len(widened.vars) == 4  # arity 2 times width 2
    assert len(widened.terms) == 4


def test_transform_result_is_wellformed():
    i = pairing_interpretation()
    for text in ("Ex. F(x,x)", "Ax.Ey.(F(x,y) & !(x=y))", "Ex.Ay. (x<y | x=y)"):
        g = transform_formula(parse_formula(text), i)
        free_elem, free_rel = validate(g, ORDERED_DIGRAPH)
        assert not free_rel
        assert not free_elem  # sentences stay sentences


def test_transform_fundamental_property():
    i = pairing_interpretation()
    sentences = [
        "Ex.Ey.F(x,y)",
        "Ax.Ey.(F(x,y) -> Ez.(F(y,z) | y=z))",
        "Ex.Ay.(x<y | x=y)",
        "Ex.Ey.(ifp[Y(u,v) <- F(u,v) | Ez.(F(u,z) & Y(z,v))](x,y) & !(x=y))",
    ]
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(2, 4)
        a = Structure(ORDERED_DIGRAPH, n, {
            "E": {(rng.randrange(n), rng.randrange(n))
                  for _ in range(rng.randint(1, n * n))}})
        b = apply_interpretation(i, a)
        for text in sentences:
            f = parse_formula(text)
            assert evaluate(a, transform_formula(f, i)) == evaluate(b, f)


def test_transform_avoids_capture_under_shadowing():
    i = pairing_interpretation()
    f = parse_formula("Ex.(F(x,x) & Ex. F(x,x))")
    a = Structure(ORDERED_DIGRAPH, 2, {"E": {(0, 0)}})
    assert evaluate(a, transform_formula(f, i)) == \
        evaluate(apply_interpretation(i, a), f)


def test_transform_rejects_untranslatable_terms():
    i = pairing_interpretation()
    with pytest.raises(UnsupportedTerm):
        transform_formula(parse_formula("Ex.Ey.BIT(x,y)"), i)
    with pytest.raises(LogQuantifierUnsupported):
        transform_formula(parse_formula("E2log[1] X:1 . Ex. X(x)"), i)


def test_build_j_reduction_widths():
    assert build_J_reduction(1).width == 6
    assert build_J_reduction(2).width == 7
    assert build_J_reduction(4).width == 8


def test_build_j_reduction_signatures():
    red = build_J_reduction(2)
    assert red.target == STR_SIG
    assert red.source.ordered
    assert red.source.has("R1") and red.source.has("R2")
    assert red.source.arity("R1") == 2


def _reduction_input(red, u_text, rels):
    n = len(u_text)
    u = from_text(u_text)
    relmap = {p: set(u.rels[p]) for p in STR_SIG.names}
    for j, rel in enumerate(rels):
        relmap[f"R{j + 1}"] = set(rel)
    return Structure(red.source, n, relmap)


def test_build_j_reduction_equation_single_relation():
    red = build_J_reduction(1)
    rng = random.Random(7)
    for _ in range(5):
        n = rng.randint(5, 7)
        u_text = "".join(rng.choice("01") for _ in range(n))
        rel = frozenset((rng.randrange(n), rng.randrange(n))
                        for _ in range(rng.randint(0, 3)))
        a = _reduction_input(red, u_text, [rel])
        out = apply_interpretation(red, a)
        assert render(out) == u_text + "#" + j_encode(n, rel)


def test_build_j_reduction_equation_two_relations():
    red = build_J_reduction(2)
    rng = random.Random(8)
    for _ in range(3):
        n = rng.randint(5, 6)
        u_text = "".join(rng.choice("01") for _ in range(n))
        rels = [frozenset((rng.randrange(n), rng.randrange(n))
                          for _ in range(rng.randint(0, 2))) for _ in range(2)]
        a = _reduction_input(red, u_text, rels)
        out = apply_interpretation(red, a)
        assert render(out) == u_text + "#" + "".join(j_encode(n, r) for r in rels)


def test_interpretation_json_round_trip():
    i = pairing_interpretation()
    doc = interpretation_to_json(i)
    j = interpretation_from_json(doc)
    assert j.width == i.width and j.source == i.source and j.target == i.target
    a = Structure(ORDERED_DIGRAPH, 3, {"E": {(0, 1), (2, 2)}})
    assert apply_interpretation(j, a) == apply_interpretation(i, a)


def test_long_interpretation_json_round_trip():
    # the universe formula is a disjunction of 300 conjunctions
    doc = interpretation_to_json(build_J_reduction(300))
    assert interpretation_to_json(interpretation_from_json(doc)) == doc


def test_transform_formula_golden_output():
    """Translations through the J-reductions for one and two relations and
    the pairing interpretation, recorded before transform_formula passed
    its bound names down the walk: free relation variables, nested fixed
    points, and quantifiers and fixed points that shadow a bound name."""
    interps = {"jred1": build_J_reduction(1), "jred2": build_J_reduction(2),
               "pair": pairing_interpretation()}
    cases = json.loads((Path(__file__).parent / "transform_golden.json").read_text())
    assert len(cases) == 6
    for name, text, expected in cases:
        assert pretty(transform_formula(parse_formula(text), interps[name])) == expected


def _retarget(rng, f, target: Signature):
    """`f` with each binary atom E(a,b) kept as a free relation variable or
    replaced, at random, by an atom of `target` over a and b."""
    def atom(m):
        if rng.random() < 0.3:
            return m.group()
        name, arity = rng.choice(target.relations)
        return f"{name}({','.join(rng.choice(m.groups()) for _ in range(arity))})"

    return parse_formula(re.sub(r"\bE\((\w+),(\w+)\)", atom, pretty(f)))


def test_transform_formula_agrees_with_recursive_oracle():
    """The fold-based translation against the recursive one, through both
    J-reductions and the pairing interpretation: the same formula, with
    the same fresh names, or the same exception class."""
    interps = [build_J_reduction(1), build_J_reduction(2), pairing_interpretation()]
    rng = random.Random(17)
    translated = 0
    for _ in range(600):
        f = _random_formula(rng, rng.randint(1, 4))
        for i in interps:
            g = _retarget(rng, f, i.target)
            got = outcome(transform_formula, g, i)
            assert got == outcome(formula_oracle.transform_formula, g, i), pretty(g)
            translated += not isinstance(got, type)
    assert translated > 300


def test_rename_agrees_with_recursive_oracle():
    rng = random.Random(18)
    for _ in range(600):
        f = _random_formula(rng, rng.randint(1, 5))
        varmap = {v: rng.choice(("x1", "x2", "v0")) for v in rng.sample("xyzuv", 3)}
        assert _rename(f, varmap, _Gensym(("v1",))) == \
            formula_oracle._rename(f, varmap, _Gensym(("v1",)))
    # a fixed point's terms lie outside its binder
    f = parse_formula("ifp[Y(u) <- Y(u) | u=x](u)")
    g = _rename(f, {"u": "x1", "x": "x2"}, _Gensym(()))
    assert pretty(g) == "ifp[Y(v0) <- (Y(v0) | v0=x2)](x1)"


@pytest.mark.parametrize("shape", ["negations", "prefix", "chain"])
def test_deep_formulas_translate(shape):
    red = build_J_reduction(1)
    g = transform_formula(deep_formula(shape), red)
    free = validate(g, red.source)
    assert free == ((frozenset(f"x_{j}" for j in range(red.width)), {}) if shape == "negations"
                    else (frozenset(), {}))
    text = pretty(g)
    assert text.startswith("!(" * 1999 if shape == "negations" else "Ex_0. Ex_1. ")
    assert text.count("P1(") == (3000 if shape == "chain" else 0)


def test_j_reduction_on_one_letter_string():
    # the literal 1 of the '#' and bit families is outside a one-element domain
    red = build_J_reduction(1)
    for text in "01":
        with pytest.raises(OutOfRange):
            apply_interpretation(red, _reduction_input(red, text, [set()]))


def test_j_reduction_tests_only_order_and_relations(monkeypatch):
    """The universe comes from the solutions of the universe formula: the
    only tests left by prepared formulas are the order test of each pair of
    universe tuples and the test of each of the five string relations on
    each tuple, not one per candidate of the 8**6."""
    module = importlib.import_module("logifp.interp")
    calls = []
    original = module.prepare

    def counted(f):
        ev = original(f)
        return lambda *args: calls.append(1) or ev(*args)
    monkeypatch.setattr(module, "prepare", counted)
    red = build_J_reduction(1)
    rel = {(1, 2), (3, 0), (7, 7)}
    b = apply_interpretation(red, _reduction_input(red, "01101001", [rel]))
    assert render(b) == "01101001#" + j_encode(8, rel)
    assert len(calls) <= b.n ** 2 + 5 * b.n


@pytest.mark.parametrize("r,largest", [(1, 8), (2, 7)])
def test_j_reduction_agrees_with_oracle(r, largest):
    # the oracle tests all n**(6 + ceil_log(r)) tuples: 8**7 would take it
    # 10-30 s for r = 2
    red = build_J_reduction(r)
    rng = random.Random(40 + r)
    for n in range(2, largest + 1):
        u_text = "".join(rng.choice("01") for _ in range(n))
        rels = [{(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, ceil_log(n)))}
                for _ in range(r)]
        a = _reduction_input(red, u_text, rels)
        assert apply_interpretation(red, a) == eval_oracle.apply_interpretation(red, a)


UNORDERED_F = Signature((("F", 2),), ordered=False)
LEX_ORDER = {1: parse_formula("x1<x2"), 2: parse_formula("x1<x3 | (x1=x3 & x2<x4)")}


def _random_member(rng, width):
    """A random formula of test_formula over the names x1..x{width}."""
    names = canon_vars(width)
    return _rename(_random_formula(rng, rng.randint(1, 4)),
                   {v: rng.choice(names) for v in "xyz"}, _Gensym(()))


def test_apply_interpretation_agrees_with_oracle():
    """Random universe and relation formulas, with and without an order
    formula, against the oracle that tests every tuple.  Where the oracle
    meets an error first, the result must be the one three-valued logic
    decides."""
    rng = random.Random(31)
    outcomes = set()
    for _ in range(1500):
        w = rng.randint(1, 2)
        ordered = rng.random() < 0.5
        i = Interpretation(width=w, source=ORDERED_DIGRAPH,
                           target=ORDERED_F if ordered else UNORDERED_F,
                           uni=_random_member(rng, w), rels={"F": _random_member(rng, 2 * w)},
                           less=LEX_ORDER[w] if ordered else None)
        logs = any(type(g) in (ExistsLog, ForallLog)
                   for f in (i.uni, i.rels["F"]) for g, _, _, _ in walk(f))
        n = rng.randint(1, 2 if logs else 3)
        a = Structure(ORDERED_DIGRAPH, n, {
            "E": {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 4))}})
        got = outcome(apply_interpretation, i, a)
        expected = outcome(eval_oracle.apply_interpretation, i, a)
        assert agrees(got, expected, lambda: outcome(eval_oracle.apply_interpretation, i, a,
                                                     eval_oracle.decided)), \
            (pretty(i.uni), pretty(i.rels["F"]), n, a.rels)
        outcomes.add(expected if isinstance(expected, type) else Structure)
    assert {Structure, EmptyUniverse, OutOfRange} <= outcomes
