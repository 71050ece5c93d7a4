"""Model checking: FO, fixed points, log-quantifiers, and the two
string-based evaluation paths."""

import gc
import importlib
import itertools
import math
import pickle
import random
from types import MappingProxyType

import eval_oracle
import pytest
from eval_oracle import agrees, outcome

from logifp.core import Signature, Structure, ceil_log, from_text, log_pow
from logifp.encode import j_encode
from logifp.errors import (
    LogifpError,
    NotPrenex,
    OrderUsedUnordered,
    OutOfRange,
    UnboundVariable,
    UnsupportedShape,
)
from logifp.evaluate import (
    _SOLVE,
    _j_fiber,
    _solve,
    enumerate_bounded_relations,
    evaluate,
    evaluate_via_bitstrings,
    gc_check,
    ifp_fixpoint,
    prepare,
    satisfying,
)
from logifp.formula import (
    And,
    Atom,
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
    conj,
    disj,
    parse_formula,
    pretty,
    terms,
    validate,
    walk,
)
from logifp.interp import apply_interpretation, build_J_reduction
from test_formula import _random_formula

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
    # only the quantified variable is generated, never a free one
    for text in ("Ex. y=y", "Ex. x=y", "Ex. y=x", "Ex. E(x,y)"):
        with pytest.raises(UnboundVariable):
            evaluate(a, parse_formula(text))


def _result(fn, *args):
    """fn(*args), or the class and message of the LogifpError it raises."""
    try:
        return fn(*args)
    except LogifpError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text", ["E(x,y)", "E(y,x)", "P1(x)", "x<y", "y<x", "x=y", "y=x"])
@pytest.mark.parametrize("structure", ["ordered", "unordered", "string"])
def test_atoms_read_in_one_step_raise_as_the_oracle(text, structure):
    """An atom over variables reads them in one step, yet raises what the
    oracle raises, class and message: the first unbound variable in
    argument order, then an unbound relation (E in a string, P1 in a
    digraph), or `<` on an unordered structure first."""
    a = from_text("011") if structure == "string" else digraph(
        3, {(0, 1), (2, 2)}, ordered=structure == "ordered")
    f = parse_formula(text)
    for env in ({}, {"x": 1}, {"y": 2}, {"x": 1, "y": 2}, {"x": 2, "y": 2}):
        assert _result(prepare(f), a, env, {}) == _result(eval_oracle.evaluate, a, f, env), env


# Each atomic formula that reads the assignment directly, in three cases: a
# name unbound on the ordered string 011; an unordered 3-element digraph with
# only x bound; and the literal 3, which is not below n = 3, with x and y
# bound.  The answers and errors are those recorded before the direct reads.
ERROR_PRECEDENCE = [
    ("x=y", "unbound", (UnboundVariable, "x")),
    ("x=y", "unordered", (UnboundVariable, "y")),
    ("x=y", "literal", False),
    ("x<y", "unbound", (UnboundVariable, "x")),
    ("x<y", "unordered", (OrderUsedUnordered, "'<' on an unordered structure")),
    ("x<y", "literal", True),
    ("x=3", "unbound", (UnboundVariable, "x")),
    ("x=3", "unordered", (OrderUsedUnordered, "literal 3 needs the built-in order")),
    ("x=3", "literal", (OutOfRange, "literal 3 not in [0,3)")),
    ("3<x", "unbound", (OutOfRange, "literal 3 not in [0,3)")),
    ("3<x", "unordered", (OrderUsedUnordered, "'<' on an unordered structure")),
    ("3<x", "literal", (OutOfRange, "literal 3 not in [0,3)")),
    ("P1(x)", "unbound", (UnboundVariable, "x")),
    ("P1(x)", "unordered", (UnboundVariable, "relation P1")),
    ("P1(x)", "literal", True),
    ("E(x,y)", "unbound", (UnboundVariable, "x")),
    ("E(x,y)", "unordered", (UnboundVariable, "y")),
    ("E(x,y)", "literal", (UnboundVariable, "relation E")),
    ("BIT(x,y)", "unbound", (UnboundVariable, "x")),
    ("BIT(x,y)", "unordered", (OrderUsedUnordered, "BIT on an unordered structure")),
    ("BIT(x,y)", "literal", False),
]


@pytest.mark.parametrize("text,case,expected", ERROR_PRECEDENCE)
def test_direct_reads_raise_the_error_met_first(text, case, expected):
    a, env = {"unbound": (from_text("011"), {"y": 2}),
              "unordered": (digraph(3, {(0, 1), (2, 2)}), {"x": 1}),
              "literal": (from_text("011"), {"x": 1, "y": 2})}[case]
    f = parse_formula(text)
    assert _result(prepare(f), a, env, {}) == expected
    assert _result(eval_oracle.evaluate, a, f, env) == expected


def test_errors_follow_the_order_of_disjuncts():
    u = from_text("0")
    assert evaluate(u, parse_formula("Ex.(x=0 | x=1)"))
    with pytest.raises(OutOfRange):
        evaluate(u, parse_formula("Ex.(x=1 | x=0)"))
    # generation meets the unbound y under x = 1; testing x = 0 first does not
    assert evaluate(from_text("01"), parse_formula("Ex.((x=1 & y=y) | x=0)"))
    # generation meets the literal 1 under the Ex, which hides the parameter
    # x; testing y = 0 stops at y=x
    body = parse_formula("y=x | Ex.(x=1 & y=y)")
    assert ifp_fixpoint(u, body, ("y",), "Y", {"x": 0}) == {(0,)}


@pytest.mark.parametrize("text,error", [
    ("Ex.(P1(x) | x=5)", OutOfRange),
    ("Ex.(P1(x) | y=y)", UnboundVariable),
])
def test_generated_witness_comes_before_a_later_error(text, error):
    # testing x = 0, 1, ... in turn meets the error of the second disjunct
    # at x = 0; scanning P1 finds the witness x = 1 first, and three-valued
    # logic agrees that the sentence holds
    u, f = from_text("0101"), parse_formula(text)
    with pytest.raises(error):
        eval_oracle.evaluate(u, f)
    assert eval_oracle.kleene(u, f) is True
    assert evaluate(u, f) is True


def test_deep_chains_do_not_hit_recursion_limit():
    x = Var("x")
    u = from_text("01")
    assert evaluate(u, Exists("x", conj([Eq(x, x)] * 3000)))
    assert evaluate(u, Exists("x", disj([Less(x, x)] * 2999 + [Eq(x, Lit(1))])))
    assert evaluate(u, conj([Eq(x, x)] * 3000), {"x": 0})
    assert not evaluate(u, disj([Less(x, x)] * 3000), {"x": 0})
    assert ifp_fixpoint(u, conj([Eq(x, x)] * 3000), ("x",), "Y") == {(0,), (1,)}


def test_deep_negations_do_not_hit_recursion_limit():
    u = from_text("01")
    for count in (2000, 2001, 5001):
        f = parse_formula("Ex. " + "!" * count + "x=x")
        assert evaluate(u, f) is (count % 2 == 0)
        assert satisfying(u, f.body, ("x",)) == ({(0,), (1,)} if count % 2 == 0 else set())
        # the fixed-point memo does not hash the node, whose hash would recurse
        f = parse_formula("Ex. ifp[Y(u) <- " + "!" * count + "u=u](x)")
        assert evaluate(u, f) is (count % 2 == 0)


_ORDER, _RANGE = OrderUsedUnordered, OutOfRange


@pytest.mark.parametrize("text,expected", [
    ("Ex.(E(x,2) | x<1)", [True, _ORDER, _RANGE, True]),
    ("Ex.Ez.(x<z & E(x,z))", [True, _ORDER, False, True]),
    ("ifp[Y(u) <- u=2 | Ev.(Y(v) & E(v,u))](y)", [True, _ORDER, _RANGE, False]),
    ("E2log[1] X:1 . Ex.(X(x) & (E(x,x) | x=2))", [True, _ORDER, _RANGE, True]),
    ("Ax.((E(x,x) & x<2) -> ifp[Y(u) <- E(u,u) | Ev.(Y(v) & v<u)](x))",
     [True, _ORDER, _RANGE, True]),
    # E is the structure's relation in a digraph and the quantified one in a string
    ("E2log[1] E:2 . Ex.(x<2 & ifp[Y(u) <- E(u,u) | Ev.(Y(v) & E(v,u))](x))",
     [True, _ORDER, _RANGE, True]),
])
def test_one_formula_object_on_several_structures(text, expected):
    """One formula object, prepared on first use, evaluated on an ordered
    digraph, an unordered one, a smaller ordered one where the literal 2 is
    out of range, a string that reads E from the assignment and the first
    digraph again, agrees with the oracle each time in its answer or error
    class: no check of a structure, and no set of names a fixed point reads
    from the assignment, is bound into the prepared formula."""
    f = parse_formula(text)
    first = digraph(4, {(0, 2), (2, 1), (1, 1)}, ordered=True)
    runs = [(first, {}), (digraph(4, {(0, 2), (2, 1), (1, 1)}), {}),
            (digraph(2, {(1, 1)}, ordered=True), {}),
            (from_text("0110"), {"E": frozenset({(3, 3), (1, 2)})}), (first, {})]
    seen = []
    for a, env in runs:
        env = {"y": 1, **env}
        got = outcome(evaluate, a, f, env)
        assert got == outcome(eval_oracle.evaluate, a, f, env), (a, got)
        seen.append(got)
    assert seen == expected + expected[:1]


def test_prepared_formulas_evaluate_alike_twice():
    """A random formula evaluated twice, and a pickled copy that is
    prepared afresh, give one outcome."""
    rng = random.Random(41)
    for _ in range(1000):
        f = _random_formula(rng, rng.randint(1, 5))
        logs = any(type(g) in (ExistsLog, ForallLog) for g, _, _, _ in walk(f))
        n = rng.randint(1, 2 if logs else 4)
        u = from_text("".join(rng.choice("01") for _ in range(n)))
        env = {v: rng.randrange(n) for v in "xyz" if rng.random() < 0.5}
        env["E"] = frozenset((rng.randrange(n), rng.randrange(n)) for _ in range(2))
        first = outcome(evaluate, u, f, env)
        assert outcome(evaluate, u, f, env) == first, pretty(f)
        assert outcome(evaluate, u, pickle.loads(pickle.dumps(f)), env) == first, pretty(f)


def test_preparing_leaves_the_formula_as_it_was():
    """Evaluation keeps its prepared closures outside the dataclass fields:
    ==, hash, repr, pretty and pickling see the formula as before."""
    rng = random.Random(42)
    u = from_text("0110")
    for _ in range(300):
        f = _random_formula(rng, rng.randint(1, 5))
        twin = pickle.loads(pickle.dumps(f))
        outcome(evaluate, u, f, {"x": 0, "y": 1, "z": 2, "E": frozenset({(0, 1)})})
        assert f == twin and hash(f) == hash(twin)
        assert repr(f) == repr(twin) and pretty(f) == pretty(twin)
        assert pickle.dumps(f) == pickle.dumps(twin) and pickle.loads(pickle.dumps(f)) == f


@pytest.mark.parametrize("strings", [True, False])
def test_evaluation_agrees_with_oracle_on_random_formulas(strings):
    """evaluate and ifp_fixpoint (x and y generated, E or Y as the stage
    relation) against the element-by-element oracle, over strings, where
    the partial assignment may leave x, y, z or E unbound, and over
    unordered digraphs, where order terms raise."""
    rng = random.Random(21 if strings else 22)
    for _ in range(1500):
        f = _random_formula(rng, rng.randint(1, 5))
        logs = any(type(g) in (ExistsLog, ForallLog) for g, _, _, _ in walk(f))
        n = rng.randint(1, 2 if logs else 4)
        edges = frozenset((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3)))
        env = {v: rng.randrange(n) for v in "xyz" if rng.random() < 0.5}
        if not strings:
            u, stage = digraph(n, edges), "Y"
        else:
            u, stage = from_text("".join(rng.choice("01") for _ in range(n))), "E"
            if rng.random() < 0.7:
                env["E"] = edges
        got = outcome(evaluate, u, f, env)
        expected = outcome(eval_oracle.evaluate, u, f, env)
        assert agrees(got, expected, lambda: outcome(eval_oracle.decided, u, f, env)), pretty(f)
        args = (u, f, ("x", "y"), stage, env)
        got = outcome(ifp_fixpoint, *args)
        expected = outcome(eval_oracle.ifp_fixpoint, *args)
        assert agrees(got, expected, lambda: outcome(eval_oracle.kleene_fixpoint, *args)), pretty(f)


@pytest.mark.parametrize("strings", [True, False])
def test_solve_yields_the_satisfying_extensions(strings):
    """Each solution _solve yields for x and y is a new dict extending the
    read-only assignment by some of them, or that assignment itself, under
    which the oracle finds the formula true for every value of the wanted
    names it leaves unbound; together the solutions cover every pair the
    oracle finds true."""
    rng = random.Random(23 if strings else 24)
    want = ("x", "y")
    for _ in range(1500):
        f = _random_formula(rng, rng.randint(1, 5))
        logs = any(type(g) in (ExistsLog, ForallLog) for g, _, _, _ in walk(f))
        n = rng.randint(1, 2 if logs else 4)
        edges = frozenset((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3)))
        env = {v: rng.randrange(n) for v in "xyz" if rng.random() < 0.5}
        if not strings:
            u = digraph(n, edges)
        else:
            u = from_text("".join(rng.choice("01") for _ in range(n)))
            if rng.random() < 0.7:
                env["E"] = edges
        frozen = MappingProxyType(env)
        solutions = outcome(lambda: list(_solve(u, f, frozen, want, {})))
        if solutions in eval_oracle.LAZY:
            continue  # the callers of _solve test binding by binding instead
        found = set()
        for solution in solutions:
            assert type(solution) is dict or solution is frozen, pretty(f)
            assert env.items() <= solution.items() and set(solution) <= set(env) | set(want)
            unbound = [name for name in want if name not in solution]
            for row in itertools.product(range(n), repeat=len(unbound)):
                full = {**solution, **dict(zip(unbound, row))}
                expected = outcome(eval_oracle.evaluate, u, f, full)
                assert agrees(True, expected,
                              lambda: outcome(eval_oracle.decided, u, f, full)), pretty(f)
                found.add((full["x"], full["y"]))
        for x, y in itertools.product(range(n), repeat=2):
            full = {"x": x, "y": y, **env}
            if (full["x"], full["y"]) != (x, y):
                continue  # not an extension of env
            expected = outcome(eval_oracle.evaluate, u, f, full)
            if expected in eval_oracle.LAZY:
                expected = outcome(eval_oracle.decided, u, f, full)
            if expected is True or expected is False:
                assert ((x, y) in found) == expected, pretty(f)


def test_every_kind_of_formula_has_a_solver():
    assert set(Formula.__args__) <= set(_SOLVE)


@pytest.mark.parametrize("text,env,want,expected", [
    # every name the formula reads is bound: the assignment itself, once
    ("x=x | P1(x)", {"x": 1}, ("x", "y"), [{"x": 1}]),
    ("x=x | P1(x)", {"x": 0}, ("x", "y"), [{"x": 0}]),
    ("P1(x) & x<y", {"x": 1, "y": 0}, ("x", "y"), []),
    ("Ez.(z<x & P1(z))", {"x": 2}, ("x", "y"), [{"x": 2}]),
    ("!P0(x) -> x=1", {"x": 2}, ("y",), []),
    # one name unbound: solved by the formula's kind, never tested as it is
    ("P1(x)", {}, ("x",), [{"x": 1}, {"x": 2}]),
    ("x<y", {"y": 2}, ("x",), [{"x": 0, "y": 2}, {"x": 1, "y": 2}]),
    ("x=x | P1(x)", {}, ("x",), [{"x": 0}, {"x": 1}, {"x": 2}, {"x": 1}, {"x": 2}]),
    ("Ez.(z<x & P1(z))", {}, ("x",), [{"x": 2}]),
    ("Ez.(x<z & P1(z))", {}, ("x",), [{"x": 0}, {"x": 1}]),  # once, whatever the witness z
    ("!P0(x)", {"y": 0}, ("x",), [{"x": 1, "y": 0}, {"x": 2, "y": 0}]),
])
def test_solve_tests_in_place_exactly_where_every_name_is_bound(text, env, want, expected):
    """A formula whose free element variables are all bound is tested in
    place and yields the assignment itself; any other is solved through the
    solver of its kind, one solution per way its kind finds one, and an
    existential block one per binding of the names it does not hide."""
    u, f = from_text("011"), parse_formula(text)
    solutions = list(_solve(u, f, env, want, {}))
    assert solutions == expected
    if expected and env.keys() >= {x for x in "xyz" if x in text}:
        assert solutions[0] is env


@pytest.mark.parametrize("strings", [True, False])
def test_existential_solutions_are_distinct_and_complete(strings):
    """_solve of `Ev.φ` or `Ev.Ew.φ`, for random quantifier-free φ and a
    random partial assignment, yields no two extensions that agree on the
    wanted names, however many witnesses the block has, and the bindings
    they cover are those the oracle finds true."""
    rng = random.Random(51 if strings else 52)
    base, want = (("P1", 1) if strings else ("E", 2)), ("x", "y")
    solved = 0
    for _ in range(800):
        f = _random_matrix(rng, rng.randint(1, 3), base)
        for _ in range(rng.randint(1, 2)):
            f = Exists(rng.choice("xyz"), f)
        n = rng.randint(1, 4)
        if strings:
            u = from_text("".join(rng.choice("01") for _ in range(n)))
        else:
            u = digraph(n, _random_digraph(rng, n))
        env = {v: rng.randrange(n) for v in "xyz" if rng.random() < 0.4}
        solutions = outcome(lambda: list(_solve(u, f, env, want, {})))
        if solutions in eval_oracle.LAZY:
            continue  # the callers of _solve test binding by binding instead
        solved += 1
        keys = [tuple(s.get(name, "unbound") for name in want) for s in solutions]
        assert len(set(keys)) == len(keys), pretty(f)
        covered = set()
        for solution in solutions:
            unbound = [name for name in want if name not in solution]
            for row in itertools.product(range(n), repeat=len(unbound)):
                full = {**solution, **dict(zip(unbound, row))}
                covered.add((full["x"], full["y"]))
        for x, y in itertools.product(range(n), repeat=2):
            full = {"x": x, "y": y, **env}
            if (full["x"], full["y"]) != (x, y):
                continue  # not an extension of env
            expected = outcome(eval_oracle.evaluate, u, f, full)
            if expected in eval_oracle.LAZY:
                expected = outcome(eval_oracle.decided, u, f, full)
            if expected is True or expected is False:
                assert ((x, y) in covered) == expected, pretty(f)
    assert solved > 400


@pytest.mark.parametrize("text,env,expected", [
    ("Ex.((x=1 & y=y) | x=0)", {}, True),  # generation meets the unbound y
    ("Ex.((x=1 & y=y) | x=0)", {"x": 1}, True),
    ("Ex.x=y & Ax.(x<y | x=y | E(x,y))", {"x": 0, "y": 1, "E": frozenset()}, True),
    ("E2log[1] X:1 . Ey.(X(y) & !X(x))", {"x": 0}, True),
    ("ifp[Y(u) <- u=x | Ez.(Y(z) & z<u)](y)", {"x": 1, "y": 0}, False),
])
def test_assignments_are_only_read(text, env, expected):
    """Prepared formulas, satisfying and ifp_fixpoint take a read-only
    assignment, also where an error met by generation makes them test
    binding by binding."""
    u, f = from_text("01"), parse_formula(text)
    frozen = MappingProxyType(dict(env))
    assert prepare(f)(u, frozen, {}) is expected
    assert satisfying(u, f, ("x", "y"), frozen) \
        == frozenset(p for p in itertools.product(range(2), repeat=2)
                     if eval_oracle.evaluate(u, f, {**env, "x": p[0], "y": p[1]}))
    assert ifp_fixpoint(u, f, ("y",), "E", frozen) \
        == eval_oracle.ifp_fixpoint(u, f, ("y",), "E", env)
    assert dict(frozen) == env


def _random_matrix(rng, depth, base):
    """A random quantifier-free formula over x, y and z."""
    if depth <= 0:
        return _random_log_formula(rng, 0, base, {})
    kind = rng.randrange(3)
    if kind == 0:
        return Not(_random_matrix(rng, depth - 1, base))
    return (And, Or)[kind - 1](_random_matrix(rng, depth - 1, base),
                               _random_matrix(rng, depth - 1, base))


@pytest.mark.parametrize("strings", [True, False])
@pytest.mark.parametrize("quant", [Exists, Forall])
def test_repeated_prefix_variables_agree_with_the_oracle(strings, quant):
    """`Qx.Qy.Qx.φ` binds y and then x as one block: its answer, or the
    error it raises, is the oracle's, which tests every binding of all
    three in ascending order.  An existential block may answer where the
    oracle meets an error only as three-valued logic decides."""
    rng = random.Random(41 if strings else 42)
    base = ("P1", 1) if strings else ("E", 2)
    errors = 0
    for _ in range(600):
        f = quant("x", quant("y", quant("x", _random_matrix(rng, rng.randint(0, 3), base))))
        n = rng.randint(1, 4)
        if strings:
            u = from_text("".join(rng.choice("01") for _ in range(n)))
        else:
            u = digraph(n, _random_digraph(rng, n))
        env = {v: rng.randrange(n) for v in "xyz" if rng.random() < 0.5}
        got = outcome(evaluate, u, f, env)
        expected = outcome(eval_oracle.evaluate, u, f, env)
        errors += expected in eval_oracle.LAZY
        if quant is Forall or got in eval_oracle.LAZY:
            assert got == expected, pretty(f)
        else:
            assert agrees(got, expected, lambda: outcome(eval_oracle.decided, u, f, env)), pretty(f)
    assert errors > 50


def test_a_repeated_variable_is_bound_at_its_last_binding():
    # the block binds y, then x: after (y, x) = (0, 0) comes the
    # counterexample (0, 1), before (1, 0) would meet the unbound z
    u, f = from_text("01"), parse_formula("Ax.Ay.Ax.(y=x | (P1(y) & z=z))")
    assert eval_oracle.evaluate(u, f) is False
    assert evaluate(u, f) is False


def _random_bound(rng):
    """A variable, a literal from 0 to 4 or logn."""
    kind = rng.randrange(4)
    return Var(rng.choice("xyz")) if kind < 2 else Lit(rng.randrange(5)) if kind == 2 else LogN()


def _random_order_formula(rng, depth, atoms):
    """A random formula over x, y and z whose atoms are mostly `t<x`, `x<t`
    or `x<x`, t from `_random_bound`, and otherwise one of `atoms` (name,
    arity) over variables, with `Ex.` blocks of one or two variables."""
    if depth <= 0:
        x, kind = Var(rng.choice("xyz")), rng.randrange(7)
        if kind == 0:
            return Less(x, x)
        if kind < 5:
            t = _random_bound(rng)
            return Less(x, t) if kind < 3 else Less(t, x)
        name, arity = rng.choice(atoms)
        return Atom(name, tuple(Var(rng.choice("xyz")) for _ in range(arity)))

    def sub():
        return _random_order_formula(rng, depth - 1, atoms)
    kind = rng.randrange(6)
    if kind == 0:
        return Not(sub())
    if kind < 4:
        return rng.choice((And, Or))(sub(), sub())
    body = sub()
    for var in rng.sample("xyz", rng.randint(1, 2)):
        body = Exists(var, body)
    return body


def _satisfying_oracle(u, f, names, env, truth=eval_oracle.evaluate):
    return frozenset(row for row in itertools.product(range(u.n), repeat=len(names))
                     if truth(u, f, {**env, **dict(zip(names, row))}))


@pytest.mark.parametrize("strings", [True, False])
def test_order_generation_agrees_with_the_oracle(strings):
    """`t<x`, `x<t` and `x<x`, t a variable, a literal or logn, inside `Ex.`
    blocks, `satisfying` calls and fixed-point bodies, against the oracle,
    which tests every binding in ascending order, errors included.  On an
    unordered digraph every `<`, literal and logn raises where it is
    reached."""
    rng = random.Random(51 if strings else 52)
    atoms = [("P1", 1), ("Y", 1)] if strings else [("E", 2), ("Y", 1)]
    answered = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        if strings:
            u = from_text("".join(rng.choice("01") for _ in range(n)))
        else:
            u = digraph(n, _random_digraph(rng, n))
        env = {v: rng.randrange(n) for v in "xyz" if rng.random() < 0.4}
        env["Y"] = frozenset((rng.randrange(n),) for _ in range(rng.randint(0, 2)))
        f = _random_order_formula(rng, rng.randint(1, 3), atoms)
        block = Exists("x", Exists("y", f)) if rng.random() < 0.5 else Exists("z", f)
        got = outcome(evaluate, u, block, env)
        expected = outcome(eval_oracle.evaluate, u, block, env)
        assert agrees(got, expected, lambda: outcome(eval_oracle.decided, u, block, env)), \
            pretty(block)
        names = tuple(rng.sample("xyz", rng.randint(1, 2)))
        got = outcome(satisfying, u, f, names, env)
        expected = outcome(_satisfying_oracle, u, f, names, env)
        assert agrees(got, expected, lambda: outcome(
            _satisfying_oracle, u, f, names, env, eval_oracle.decided)), pretty(f)
        answered += type(got) is frozenset
        args = (u, f, names[:1], "Y", env)  # the stage Y is unary, as the atoms read it
        got = outcome(ifp_fixpoint, *args)
        expected = outcome(eval_oracle.ifp_fixpoint, *args)
        assert agrees(got, expected, lambda: outcome(eval_oracle.kleene_fixpoint, *args)), \
            pretty(f)
    assert answered > (150 if strings else 40)


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


def _random_term(rng, vars_):
    return Lit(rng.randrange(3)) if rng.random() < 0.05 else Var(rng.choice(vars_))


def _random_log_formula(rng, depth, base, rels, vars_=("x", "y", "z"), logs=1):
    """A random formula over the structure's relation `base` (name, arity)
    and the relation variables `rels` (name -> arity) in scope, which its
    atoms read more often than `base`; at most `logs` nested log
    quantifiers bind X or Y, and a fixed point Z over u, v reads the
    relations in scope."""
    if depth <= 0:
        kind = rng.randrange(10)
        if kind < 4 and rels:
            name = rng.choice(sorted(rels))
            return Atom(name, tuple(_random_term(rng, vars_) for _ in range(rels[name])))
        if kind < 6:
            return Atom(base[0], tuple(Var(rng.choice(vars_)) for _ in range(base[1])))
        if kind < 9:
            return Eq(Var(rng.choice(vars_)), _random_term(rng, vars_))
        return Less(Var(rng.choice(vars_)), Var(rng.choice(vars_)))
    kind = rng.randrange(8)

    def sub(rels=rels, vars_=vars_, logs=logs):
        return _random_log_formula(rng, depth - 1, base, rels, vars_, logs)
    if kind == 0:
        return Not(sub())
    if kind <= 2:
        return rng.choice((And, Or, Implies))(sub(), sub())
    if kind <= 4:
        return rng.choice((Exists, Forall))(rng.choice(vars_), sub())
    if kind == 5 and logs:
        name, arity = rng.choice("XY"), rng.randint(1, 2)
        return rng.choice((ExistsLog, ForallLog))(1, name, arity,
                                                 sub({**rels, name: arity}, logs=logs - 1))
    body = sub({**rels, "Z": 2}, vars_ + ("u", "v"))
    return Ifp(("u", "v"), "Z", body, tuple(Var(rng.choice(vars_)) for _ in range(2)))


@pytest.mark.parametrize("strings", [True, False])
def test_log_search_agrees_with_ordered_enumeration(strings):
    """E2log/A2log sentences whose bodies read the quantified relation,
    nest a second log quantifier or read it in a fixed point, against the
    oracle that enumerates the relations in order; where the oracle meets
    an error, the search may answer only what three-valued logic decides."""
    rng = random.Random(31 if strings else 32)
    base = ("P1", 1) if strings else ("E", 2)
    answered = 0
    for _ in range(3000):
        arity = rng.randint(1, 2)
        quant = rng.choice((ExistsLog, ForallLog))
        f = quant(1, "X", arity, _random_log_formula(rng, rng.randint(1, 4), base, {"X": arity}))
        n = rng.randint(1, 4 if arity == 1 else 3)
        if strings:
            u = from_text("".join(rng.choice("01") for _ in range(n)))
        else:
            u = digraph(n, {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))})
        env = {v: rng.randrange(n) for v in "xyz" if rng.random() < 0.9}
        got = outcome(evaluate, u, f, env)
        expected = outcome(eval_oracle.evaluate, u, f, env)
        assert agrees(got, expected, lambda: outcome(eval_oracle.decided, u, f, env)), pretty(f)
        answered += type(got) is bool
    assert answered > 1500


def test_evaluation_is_invariant_under_relabelling():
    """A closed sentence without order terms cannot tell the elements of an
    unordered digraph apart, so relabelling them keeps its value; with no
    order term and no free variable, no lazy error can depend on the order
    in which elements are tried."""
    rng = random.Random(5)
    checked = 0
    for _ in range(400):
        f = _random_log_formula(rng, rng.randint(1, 4), ("E", 2), {})
        if any(type(g) is Less or any(type(x) is not Var for x in terms(g)) for g, *_ in walk(f)):
            continue
        for v in sorted(validate(f, DIGRAPH)[0]):
            f = rng.choice((Exists, Forall))(v, f)
        n = rng.randint(1, 4)
        edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 4))}
        perm = rng.sample(range(n), n)
        relabelled = {(perm[a], perm[b]) for a, b in edges}
        assert evaluate(digraph(n, edges), f) == evaluate(digraph(n, relabelled), f), pretty(f)
        checked += 1
    assert checked > 200


def test_log_search_witness_comes_before_a_later_error():
    # enumeration tries {0} before {1} and meets the unbound z; the search
    # reads X(1) first, so its first child {1} is a witness, and
    # three-valued logic agrees that the sentence holds
    u, f = from_text("01"), parse_formula("E2log[1] X:1 . (X(1) | (X(0) & z=z))")
    with pytest.raises(UnboundVariable):
        eval_oracle.evaluate(u, f)
    assert eval_oracle.kleene(u, f) is True
    assert evaluate(u, f) is True
    # where the search meets an error first, the quantifier is redone in
    # enumeration order: here the search's first child {1} meets z, and
    # enumeration finds the witness {0} before it
    f = parse_formula("E2log[1] X:1 . ((X(1) & z=z) | X(0))")
    assert eval_oracle.evaluate(u, f) is True
    assert evaluate(u, f) is True
    with pytest.raises(UnboundVariable):
        evaluate(u, parse_formula("E2log[1] X:1 . (X(0) & z=z)"))


@pytest.mark.parametrize("text,string,answer", [
    ("A2log[1] X:2 . Ex.(P1(x) & !X(x,x))", "1[1]11", True),
    ("E2log[1] X:2 . Au.Av.((X(u,v) -> (P1(u) & P0(v))) & ((P1(u) & P0(v)) -> X(u,v)))",
     "0101", False),
    ("E2log[2] X:2 . (Ax.Ay.(X(x,y) -> x<y) & Ex.Ey.(X(x,y) & P1(x) & P0(y)))", "01100110",
     True),
    ("A2log[1] X:2 . Ex.Ey.(P1(x) & P0(y)"
     " & !ifp[Y(a,b) <- X(a,b) | Ec.(X(a,c) & Y(c,b))](x,y))", "01101001", True),
    ("E2log[1] X:2 . Eu.Ev.(X(u,v) & P1(u))", "00000001", True),
])
def test_log_search_evaluates_the_body_at_most_as_often_as_enumeration(
        monkeypatch, text, string, answer):
    """An exhaustive search evaluates the body at most once per bounded
    relation, a witnessed one at most once per relation no larger than
    the smallest witness.  The body is evaluated once per node of the
    search, and each node builds one `_Memo`."""
    u, f = from_text(string), parse_formula(text)
    want, bound = type(f) is ExistsLog, log_pow(u.n, f.k)
    calls = _body_evaluations(monkeypatch, u, f, answer)
    size = bound
    if answer == want:  # witnessed
        size = next(len(rel) for rel in enumerate_bounded_relations(u.n, f.arity, bound)
                    if prepare(f.body)(u, {f.relvar: rel}, {}) == want)
    assert 0 < calls <= sum(math.comb(u.n ** f.arity, i) for i in range(size + 1))


@pytest.mark.parametrize("string,count", [("1011", 137), ("10110", 2626)])
def test_log_search_evaluates_a_body_that_never_holds_once_per_bounded_relation(
        monkeypatch, string, count):
    """The body asks for a tuple of X whose first entry is in P0 and forbids
    every such tuple, so it holds for no relation, and the search meets
    each bounded relation exactly once: 1 + 16 + 120 of them on 1011,
    1 + 25 + 300 + 2300 on 10110."""
    u = from_text(string)
    f = parse_formula("E2log[1] X:2 . (Ax.Ay.(X(x,y) -> P1(x)) & Ex.Ey.(X(x,y) & P0(x)))")
    relations = sum(1 for _ in enumerate_bounded_relations(u.n, 2, log_pow(u.n, 1)))
    assert _body_evaluations(monkeypatch, u, f, False) == relations == count


def _body_evaluations(monkeypatch, u, f, answer) -> int:
    """The number of `_Memo`s, one per node of the search, that evaluating
    the sentence `f` in `u` builds; the answer must be `answer`."""
    got, nodes = _searched(monkeypatch, u, f)
    assert got is answer
    return len(nodes)


def _searched(monkeypatch, u, f, env=None, node=None):
    """The outcome of `f` in `u` under `env`, and the nodes of the log
    search, one per `_Memo`, in the order their bodies were evaluated;
    `node`, where given, is the class of the nodes."""
    ev = importlib.import_module("logifp.evaluate")
    nodes = []

    class Logging(ev._Memo):
        def __init__(self, outer, rel):
            nodes.append(rel)
            super().__init__(outer, rel)
    with monkeypatch.context() as patch:
        patch.setattr(ev, "_Memo", Logging)
        if node is not None:
            patch.setattr(ev, "_Partial", node)
        return outcome(evaluate, u, f, env), nodes


class _ReferenceNode(eval_oracle.Partial):
    """`eval_oracle.Partial`, whose root `_search` builds from the
    arguments (members, out, n, arity)."""

    __slots__ = ()

    def __init__(self, members, parent, cut, n, arity=None):
        if arity is None:  # the root
            parent, cut, n, arity = None, 0, cut, n
        super().__init__(members, parent, cut, n, arity)


@pytest.mark.parametrize("strings", [True, False])
def test_log_search_visits_the_nodes_of_the_reference(monkeypatch, strings):
    """The search built from (in, out) sets evaluates the same nodes, in
    the same order, each reading the same tuples in the same order, as the
    reference whose nodes walk their ancestors, and ends in the same answer
    or error.  The random sentences scan X with fixed and repeated
    arguments, test its tuples, nest a second log quantifier and read X in
    a fixed point."""
    monkeypatch.setattr(eval_oracle, "Partial", _ReferenceNode)
    rng = random.Random(41 if strings else 42)
    base = ("P1", 1) if strings else ("E", 2)
    searched = 0
    for _ in range(500):
        arity = rng.randint(1, 2)
        rels = {"X": arity}
        # a scan of X that binds x, its other argument x again, y or a literal
        other = (Var("x"), Var("y")) + ((Lit(rng.randrange(3)),) if strings else ())
        args = (Var("x"), *[rng.choice(other) for _ in range(arity - 1)])
        scan = Exists("x", And(Atom("X", args), _random_log_formula(rng, 1, base, rels)))
        body = _random_log_formula(rng, rng.randint(1, 3), base, rels)
        f = rng.choice((ExistsLog, ForallLog))(
            1, "X", arity, rng.choice((And, Or, Implies))(*rng.sample((scan, body), 2)))
        n = rng.randint(1, 6 if arity == 1 else 4)
        if strings:
            u = from_text("".join(rng.choice("01") for _ in range(n)))
        else:
            u = digraph(n, {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 4))})
        env = {v: rng.randrange(n) for v in "xyz" if rng.random() < 0.9}
        logs = []
        for node in (None, _ReferenceNode):
            got, nodes = _searched(monkeypatch, u, f, env, node)
            logs.append((got, [(sorted(rel.members), list(rel.reads)) for rel in nodes]))
        assert logs[0] == logs[1], pretty(f)
        searched += len(logs[0][1]) > 1
    assert searched > 150


@pytest.mark.parametrize("text", ["E2log[1] X:2 . Ex.(X(x,7) & P1(x))",
                                  "E2log[1] X:2 . Ex.(X(x,x) & P1(x))"])
def test_log_search_branches_only_on_the_tuples_a_scan_can_match(monkeypatch, text):
    """A scan of X with a fixed or a repeated argument reads only the
    tuples that can match it: on 00000001 the root reads the eight tuples
    (i, 7), or (i, i), and the last of its eight children, {(7, 7)}, is
    the witness.  Reading all 64 pairs would take 65 evaluations."""
    u, f = from_text("00000001"), parse_formula(text)
    assert eval_oracle.evaluate(u, f) is True
    assert _body_evaluations(monkeypatch, u, f, True) == 9


@pytest.mark.parametrize("text", ["E2log[1] X:2 . (Ex.(X(x,1) & P1(x)) | X(0,0))",
                                  "E2log[1] X:2 . (Ex.(X(x,x) & P1(x)) | X(0,1))"])
def test_log_search_reads_a_tuple_tested_after_a_scan(text):
    # no P1 on 00: the witness is the one tuple the scan cannot match
    u, f = from_text("00"), parse_formula(text)
    assert eval_oracle.evaluate(u, f) is True
    assert evaluate(u, f) is True


@pytest.mark.parametrize("text,string", [("E2log[1] X:2 . Ex. X(x)", "00"),
                                         ("Ex.Ey. P1(x,y)", "01"),
                                         ("Ex. ifp[Y(a,b) <- a<b | Y(a)](x,x)", "0110")])
def test_scan_of_a_relation_of_another_arity_binds_nothing(monkeypatch, text, string):
    """An unvalidated atom whose argument count is not its relation's arity
    holds for no tuple, whether the relation is log-quantified, the
    structure's or a fixed-point stage; a log search that scans it reads
    nothing and evaluates its body once."""
    u, f = from_text(string), parse_formula(text)
    assert eval_oracle.evaluate(u, f) is False
    assert _body_evaluations(monkeypatch, u, f, False) == (1 if type(f) is ExistsLog else 0)


def test_ifp_memo_under_the_log_search(monkeypatch):
    """A fixed point that does not read the quantified relation is computed
    once for the whole search, although the body is evaluated under several
    relations, and it is the one fixed point the memo of the enclosing
    evaluation keeps; one that reads the relation is computed at most once
    per node of the search and leaves no fixed point in that memo."""
    ev = importlib.import_module("logifp.evaluate")
    relations, asked = [], []
    original, contains = ev.ifp_fixpoint, ev._Partial.__contains__
    monkeypatch.setattr(ev, "ifp_fixpoint",
                        lambda *args: relations.append(args[4].get("X")) or original(*args))
    # the relations the body's atom X(x,y) is tested against, one per evaluation
    monkeypatch.setattr(ev._Partial, "__contains__",
                        lambda rel, t: asked.append(rel) or contains(rel, t))
    free = parse_formula("A2log[1] X:2 . Ex.Ey.(!X(x,y)"
                         " & ifp[Y(u,v) <- E(u,v) | Ez.(E(u,z) & Y(z,v))](x,y))")
    memo, path = {}, {(0, 1), (1, 2), (2, 3)}
    assert prepare(free)(digraph(4, path), {}, memo)
    assert len(relations) == 1 and len({id(rel) for rel in asked}) > 1
    fixed = [value for value in memo.values() if type(value) is frozenset]
    assert fixed == [frozenset(_reachability(4, path))]

    reads = parse_formula("E2log[1] X:2 . Ax.Ay.(E(x,y) -> "
                          "ifp[Y(u,v) <- X(u,v) | Ez.(X(u,z) & Y(z,v))](x,y))")
    rng = random.Random(14)
    for _ in range(25):
        n = rng.randint(2, 4)
        a = digraph(n, _random_digraph(rng, n))
        relations.clear()
        memo = {}
        assert prepare(reads)(a, {}, memo) == eval_oracle.evaluate(a, reads)
        assert len({id(rel) for rel in relations}) == len(relations)
        assert not any(type(value) is frozenset for value in memo.values())


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


def test_ifp_memo_spans_the_stages_of_an_enclosing_fixed_point(monkeypatch):
    ev = importlib.import_module("logifp.evaluate")
    calls = []
    original = ev.ifp_fixpoint
    monkeypatch.setattr(ev, "ifp_fixpoint", lambda *args: calls.append(1) or original(*args))
    # Y: the loops, then what they reach; the loops (Z) read nothing that
    # changes from one stage of Y to the next
    f = parse_formula("ifp[Y(u) <- ifp[Z(v) <- E(v,v)](u) | Ew.(Y(w) & E(w,u))](x)")
    a = digraph(4, {(0, 0), (0, 1), (1, 2), (2, 3)})
    assert evaluate(a, f, {"x": 3})
    assert len(calls) == 2


def test_equal_fixed_points_are_computed_once(monkeypatch):
    ev = importlib.import_module("logifp.evaluate")
    calls = []
    original = ev.ifp_fixpoint
    monkeypatch.setattr(ev, "ifp_fixpoint", lambda *args: calls.append(1) or original(*args))
    reach = "ifp[Y(u,v) <- E(u,v) | Ez.(E(u,z) & Y(z,v))]"
    # one fixed point spelt twice, applied to different terms
    f = parse_formula(f"Ax.Ay.({reach}(x,y) -> ({reach}(x,y) & !{reach}(y,x)))")
    a = digraph(4, {(0, 1), (1, 2), (2, 3)})
    assert evaluate(a, f) is True
    assert len(calls) == 1


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


def test_j_fiber_matches_oracle():
    total = 0
    for n in range(3, 10):
        chunk_width = ceil_log(n) - 1
        for count in range(4 if n < 7 else 3):
            for bits in itertools.product("01", repeat=count * chunk_width):
                z = "".join(bits)
                fiber = list(_j_fiber(n, z, chunk_width))
                assert len(set(fiber)) == len(fiber)
                assert set(fiber) == set(eval_oracle.j_fiber(n, z, chunk_width))
                assert all(j_encode(n, rel) == z for rel in fiber)
                total += len(fiber)
    assert total == 17_889


def test_bitstring_path_rejects_bad_shapes():
    u = from_text("0101")
    with pytest.raises(NotPrenex):
        evaluate_via_bitstrings(u, parse_formula("!(E2log[1] X:2 . Ex.X(x,x))"))
    with pytest.raises(UnsupportedShape):
        evaluate_via_bitstrings(u, parse_formula("E2log[1] X:1 . Ex.X(x)"))
    with pytest.raises(UnsupportedShape):
        evaluate_via_bitstrings(from_text("01"), parse_formula("E2log[1] X:2 . Ex.X(x,x)"))


@pytest.mark.parametrize("call", ["bitstrings", "set-first", "gc_check", "interpretation"])
def test_evaluation_leaves_no_cyclic_garbage(call):
    """Work a call drops is freed by reference counting alone: with the
    cycle collector off, the call leaves nothing for it to collect."""
    prenex = parse_formula("E2log[1] X:2 . Au.Av.((X(u,v) -> (P1(u) & P0(v)))"
                           " & ((P1(u) & P0(v)) -> X(u,v)))")
    checker = parse_formula("Ex.Ey.(PH(x) & x<y & P1(y))")
    red = build_J_reduction(1)
    a = Structure(red.source, 5, {"P0": {(0,), (2,)}, "P1": {(1,), (3,), (4,)},
                                  "R1": {(0, 1), (2, 3), (4, 4)}})
    run = {"bitstrings": lambda: evaluate_via_bitstrings(from_text("0001"), prenex),
           "set-first": lambda: evaluate(from_text("0001"), prenex),
           "gc_check": lambda: gc_check(from_text("0101"), 1, 2,
                                        lambda v: evaluate(v, checker)),
           "interpretation": lambda: apply_interpretation(red, a)}[call]
    run()  # prepares the formulas
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def test_gc_check_rejects_negative_exponent():
    for text in ("0", "0101"):
        with pytest.raises(LogifpError):
            gc_check(from_text(text), -1, 1, lambda candidate: True)


def test_gc_check_rejects_negative_factor():
    for text in ("0", "0101"):
        with pytest.raises(LogifpError):
            gc_check(from_text(text), 1, -1, lambda candidate: True)
