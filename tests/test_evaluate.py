"""Model checking: FO, fixed points, log-quantifiers, and the two
string-based evaluation paths."""

import importlib
import random

import pytest

from logifp.core import Signature, Structure, from_text, log_pow
from logifp.errors import (
    NotPrenex,
    OrderUsedUnordered,
    OutOfRange,
    UnboundVariable,
    UnsupportedShape,
)
from logifp.evaluate import (
    enumerate_bounded_relations,
    evaluate,
    evaluate_via_bitstrings,
    gc_check,
    ifp_fixpoint,
)
from logifp.formula import parse_formula

DIGRAPH = Signature((("E", 2),), ordered=False)
ORDERED = Signature((("E", 2),), ordered=True)


def digraph(n, edges, ordered=False):
    return Structure(ORDERED if ordered else DIGRAPH, n, {"E": edges})


def test_enumerate_bounded_relations_count():
    # sum_{i<=4} C(10,i) = 1+10+45+120+210
    assert sum(1 for _ in enumerate_bounded_relations(10, 1, 4)) == 386


def test_enumerate_bounded_relations_order():
    rels = list(enumerate_bounded_relations(3, 1, 2))
    assert rels[0] == frozenset()
    sizes = [len(r) for r in rels]
    assert sizes == sorted(sizes)
    singletons = rels[1:4]
    assert singletons == [frozenset({(0,)}), frozenset({(1,)}), frozenset({(2,)})]
    # bound larger than the universe is harmless
    assert sum(1 for _ in enumerate_bounded_relations(2, 1, 99)) == 4


def test_fo_basics():
    a = digraph(3, {(0, 1), (1, 2)})
    assert evaluate(a, parse_formula("Ex.Ey.E(x,y)"))
    assert not evaluate(a, parse_formula("Ax.Ey.E(x,y)"))
    assert evaluate(a, parse_formula("Ax.Ay.(E(x,y) -> !E(y,x))"))
    assert evaluate(a, parse_formula("E(x,y)"), {"x": 0, "y": 1})
    assert not evaluate(a, parse_formula("E(x,y)"), {"x": 1, "y": 0})


def test_order_literals_and_bit():
    a = digraph(5, set(), ordered=True)
    assert evaluate(a, parse_formula("Ex.Ay.(x<y | x=y)"))
    assert evaluate(a, parse_formula("x=3"), {"x": 3})
    assert evaluate(a, parse_formula("Ex. x=logn"))  # ceil_log(5) = 3
    assert evaluate(a, parse_formula("BIT(x,y)"), {"x": 5 - 1, "y": 2})
    assert not evaluate(a, parse_formula("BIT(x,y)"), {"x": 4, "y": 0})


def test_order_terms_rejected_on_unordered():
    a = digraph(3, set())
    for text in ("x<y", "x=0", "x=logn", "BIT(x,y)"):
        with pytest.raises(OrderUsedUnordered):
            evaluate(a, parse_formula(text), {"x": 0, "y": 1})


def test_literal_out_of_range():
    a = digraph(2, set(), ordered=True)
    with pytest.raises(OutOfRange):
        evaluate(a, parse_formula("Ex. x=5"))


def test_unbound_variable():
    a = digraph(2, set())
    with pytest.raises(UnboundVariable):
        evaluate(a, parse_formula("E(x,y)"), {"x": 0})
    with pytest.raises(UnboundVariable):
        evaluate(a, parse_formula("Y(x)"), {"x": 0})


def test_log_quantifier_cannot_cover_larger_domain():
    # bound ceil_log(4) = 2 < 4, so no unary S covers all of [4]
    a = digraph(4, set())
    assert not evaluate(a, parse_formula("E2log[1] X:1 . Ay. X(y)"))
    assert evaluate(a, parse_formula("A2log[1] X:1 . Ey. !X(y)"))


def test_log_quantifier_witness():
    a = digraph(4, {(0, 1)})
    f = parse_formula("E2log[1] X:2 . Eu.Ev.(X(u,v) & E(u,v))")
    assert evaluate(a, f)
    assert not evaluate(digraph(4, set()), f)


def test_log_quantifier_on_singleton_domain():
    # ceil_log(1) = 0, so only the empty relation is available
    a = digraph(1, set())
    assert not evaluate(a, parse_formula("E2log[1] X:1 . Ey. X(y)"))
    assert evaluate(a, parse_formula("E2log[1] X:1 . Ey. !X(y)"))


def test_ifp_transitive_closure_path():
    a = digraph(3, {(0, 1), (1, 2)})
    f = parse_formula("ifp[Y(u,v) <- E(u,v) | Ez.(E(u,z) & Y(z,v))](x,y)")
    fixed = ifp_fixpoint(a, f.body, f.vars, f.relvar)
    assert fixed == {(0, 1), (1, 2), (0, 2)}
    assert evaluate(a, f, {"x": 0, "y": 2})
    assert not evaluate(a, f, {"x": 2, "y": 0})


def _reachability(n, edges):
    out = set()
    adj = {i: [] for i in range(n)}
    for u, v in edges:
        adj[u].append(v)
    for src in range(n):
        seen, stack = set(), list(adj[src])
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v])
        out |= {(src, v) for v in seen}
    return out


def test_ifp_matches_search_on_random_digraphs():
    rng = random.Random(5)
    tc = parse_formula("ifp[Y(u,v) <- E(u,v) | Ez.(E(u,z) & Y(z,v))](x,y)")
    for _ in range(40):
        n = rng.randint(1, 6)
        edges = {(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, n * n // 2))}
        a = digraph(n, edges)
        assert ifp_fixpoint(a, tc.body, tc.vars, tc.relvar) == \
            frozenset(_reachability(n, edges))


def test_ifp_is_inflationary_even_for_nonmonotone_bodies():
    a = digraph(2, set())
    fixed = ifp_fixpoint(a, parse_formula("!Y(u)"), ("u",), "Y")
    assert fixed == {(0,), (1,)}


def test_ifp_respects_parameters():
    a = digraph(3, {(0, 1), (1, 2)})
    f = parse_formula("ifp[Y(v) <- E(x,v) | Ez.(Y(z) & E(z,v))](y)")
    assert evaluate(a, f, {"x": 0, "y": 2})
    assert not evaluate(a, f, {"x": 1, "y": 1})


def _random_digraph(rng, n):
    return {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n * n // 2))}


REACH_FROM_X = "ifp[Y(v) <- E(x,v) | Ez.(Y(z) & E(z,v))]"


def test_ifp_memo_keys_on_outer_element_variable(monkeypatch):
    ev = importlib.import_module("logifp.evaluate")  # the package rebinds the name
    calls = []
    original = ev.ifp_fixpoint
    monkeypatch.setattr(ev, "ifp_fixpoint", lambda *args: calls.append(1) or original(*args))
    every = parse_formula(f"Ax.Ey.{REACH_FROM_X}(y)")
    some = parse_formula(f"Ex.Ay.({REACH_FROM_X}(y) | x=y)")
    reach = every.body.body
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = digraph(n, _random_digraph(rng, n))
        fixed = [original(a, reach.body, reach.vars, reach.relvar, {"x": x}) for x in range(n)]
        calls.clear()
        assert evaluate(a, every) == all(any((y,) in fixed[x] for y in range(n))
                                         for x in range(n))
        assert len(calls) <= n
        assert evaluate(a, some) == any(all((y,) in fixed[x] or x == y for y in range(n))
                                        for x in range(n))
    # a body that reads neither x nor y is computed once, not n * n times
    calls.clear()
    closure = parse_formula("Ax.Ay.(ifp[Y(u,v) <- E(u,v) | Ez.(E(u,z) & Y(z,v))](x,y)"
                            " -> Ez.E(x,z))")
    assert evaluate(digraph(4, {(0, 1), (1, 2), (3, 3)}), closure)
    assert len(calls) == 1


def test_ifp_memo_keys_on_log_quantified_relation():
    f = parse_formula("E2log[1] X:2 . Ax.Ay.(E(x,y) -> "
                      "ifp[Y(u,v) <- X(u,v) | Ez.(X(u,z) & Y(z,v))](x,y))")
    closure = f.body.body.body.right
    rng = random.Random(12)
    seen = set()
    for _ in range(25):
        n = rng.randint(1, 4)
        edges = _random_digraph(rng, n)
        a = digraph(n, edges)
        expected = any(
            edges <= ifp_fixpoint(a, closure.body, closure.vars, closure.relvar, {"X": rel})
            for rel in enumerate_bounded_relations(n, 2, log_pow(n, 1)))
        assert evaluate(a, f) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_nested_ifp_memo_keys_on_outer_stage():
    # Y: the sources, then everything E-reachable from Y (the inner Z)
    inner = "ifp[Z(v) <- Y(v) | Ez.(Z(z) & E(z,v))](u)"
    outer = parse_formula(f"ifp[Y(u) <- {inner} | Aw.!E(w,u)](x)")
    z = outer.body.left
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 5)
        edges = _random_digraph(rng, n)
        a = digraph(n, edges)
        stage = frozenset()
        while True:
            added = {(u,) for u in range(n)
                     if (u,) in ifp_fixpoint(a, z.body, z.vars, z.relvar, {"Y": stage, "u": u})
                     or not any(v == u for _, v in edges)}
            if added <= stage:
                break
            stage |= added
        assert ifp_fixpoint(a, outer.body, outer.vars, outer.relvar) == stage
        assert [evaluate(a, outer, {"x": x}) for x in range(n)] == \
            [(x,) in stage for x in range(n)]


def test_bitstring_path_example():
    u = from_text("0101")
    f = parse_formula("E2log[1] X:2 . Ex.Ey. X(x,y)")
    assert evaluate_via_bitstrings(u, f) is True
    assert evaluate(u, f) is True


def test_bitstring_path_agrees_with_direct():
    rng = random.Random(13)
    sentences = [
        "E2log[1] X:2 . Eu.Ev.(X(u,v) & P1(u))",
        "E2log[1] X:2 . Au.Av.(X(u,v) -> u<v)",
        "E2log[1] X:2 . E2log[1] Y:2 . Eu.Ev.(X(u,v) & Y(v,u) & P0(v))",
        "E2log[2] X:2 . Eu.(X(u,u) & P1(u))",
    ]
    for _ in range(6):
        u = from_text("".join(rng.choice("01") for _ in range(rng.randint(4, 6))))
        for text in sentences:
            f = parse_formula(text)
            assert evaluate(u, f) == evaluate_via_bitstrings(u, f)


def test_bitstring_path_rejects_bad_shapes():
    u = from_text("0101")
    with pytest.raises(NotPrenex):
        evaluate_via_bitstrings(u, parse_formula("!(E2log[1] X:2 . Ex.X(x,x))"))
    with pytest.raises(UnsupportedShape):
        evaluate_via_bitstrings(u, parse_formula("E2log[1] X:1 . Ex.X(x)"))
    with pytest.raises(UnsupportedShape):
        evaluate_via_bitstrings(from_text("01"), parse_formula("E2log[1] X:2 . Ex.X(x,x)"))


def test_gc_check_search_space():
    # |u|=8, k=1, c=1: bound 3, candidates 2^0+2^1+2^2+2^3 = 15
    calls = []

    def count_all(candidate):
        calls.append(candidate.text)
        return False

    found, witness = gc_check(from_text("00000000"), 1, 1, count_all)
    assert not found and witness is None
    assert len(calls) == 15
    assert calls[0] == "00000000#"


def test_gc_check_first_witness_in_length_lex_order():
    u = from_text("1111")

    def wants_10(candidate):
        return candidate.text.split("#", 1)[1] in ("10", "01", "111")

    found, witness = gc_check(u, 1, 2, wants_10)
    assert found and witness == "01"  # lex before "10", shorter than "111"
