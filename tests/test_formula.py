"""Parser, printer, validation and metrics."""

import random
import sys
from dataclasses import astuple

import pytest

from logifp.core import STR_SIG, Signature
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
    _tokenize,
    conj,
    disj,
    metrics,
    parse_formula,
    pretty,
    terms,
    validate,
    walk,
)
from logifp.errors import (
    ArityMismatch,
    FormulaSyntaxError,
    IfpShapeError,
    OrderUsedUnordered,
    UnknownRelation,
)
from logifp.interp import _collect_names, build_J_reduction, transform_formula

import formula_oracle

DIGRAPH = Signature((("E", 2),), ordered=False)
ORDERED = Signature((("E", 2), ("P", 1)), ordered=True)

SAMPLES = [
    "E(x,y)",
    "x=y",
    "x<y",
    "BIT(y,x)",
    "x=0",
    "x<logn",
    "!E(x,y)",
    "!(x=y & y=z)",
    "(E(x,y) & E(y,z)) | x=z",
    "E(x,y) -> E(y,x) -> x=y",
    "Ex. Ay. (E(x,y) -> x<y)",
    "E x . x=x",
    "E2log[1] X:2 . Eu.Ev.(X(u,v) & E(u,v))",
    "A2log[2] X:3 . Ex.!X(x,x,x)",
    "ifp[Y(u,v) <- E(u,v) | Ez.(E(u,z) & Y(z,v))](x,y)",
    "E(u,v) | Ez.(E(u,z) & Y(z,v))",
    "Ex. E(x,x) & Ey. E(y,y)",
]


@pytest.mark.parametrize("text", SAMPLES)
def test_parse_pretty_round_trip(text):
    f = parse_formula(text)
    assert parse_formula(pretty(f)) == f


def test_quantifier_vs_atom_disambiguation():
    # "Ex." is a quantifier over x; "E(x,y)" stays an atom
    assert parse_formula("Ex. x=x") == Exists("x", Eq(Var("x"), Var("x")))
    assert parse_formula("E(x,y)") == Atom("E", (Var("x"), Var("y")))
    assert parse_formula("A x . x=x") == Forall("x", Eq(Var("x"), Var("x")))


def test_precedence_and_associativity():
    f = parse_formula("E(x,y) & E(y,z) | E(z,x)")
    assert isinstance(f, Or) and isinstance(f.left, And)
    g = parse_formula("x=y -> y=z -> x=z")  # right-associative
    assert isinstance(g, Implies) and isinstance(g.right, Implies)
    h = parse_formula("!x=y & x=z")
    assert isinstance(h, And) and isinstance(h.left, Not)


def test_quantifier_scope_extends_right():
    f = parse_formula("E(x,y) | Ez. E(x,z) & E(z,y)")
    assert isinstance(f, Or)
    assert isinstance(f.right, Exists)
    assert isinstance(f.right.body, And)


def test_log_quantifier_parse():
    f = parse_formula("E2log[2] X:3 . X(x,x,x)")
    assert f == ExistsLog(2, "X", 3, Atom("X", (Var("x"),) * 3))
    g = parse_formula("A2log[1] Y:1 . Y(x)")
    assert g == ForallLog(1, "Y", 1, Atom("Y", (Var("x"),)))


def test_terms():
    f = parse_formula("x=0 & y<logn & BIT(y,x)")
    assert Eq(Var("x"), Lit(0)) == f.left.left
    assert Less(Var("y"), LogN()) == f.left.right
    assert Bit(Var("y"), Var("x")) == f.right


@pytest.mark.parametrize("text,position", [
    ("x=" + "1" * 5000, 2),
    ("E2log[" + "1" * 5000 + "] X:1 . Ex.X(x)", 6),
    ("E2log[1] X:" + "1" * 5000 + " . Ex.X(x)", 11),
], ids=["literal", "exponent", "arity"])
def test_integers_past_the_int_string_limit_are_syntax_errors(text, position):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(text)
    assert (exc.value.position, exc.value.expected, exc.value.found) \
        == (position, f"at most {sys.get_int_max_str_digits()} digits", "5000 digits")


def test_syntax_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("E(x,")
    assert exc.value.position == 4
    with pytest.raises(FormulaSyntaxError):
        parse_formula("x=y y=z")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("E2log[0] X:1 . X(x)")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("x @ y")
    # malformed quantifiers, whether they start the formula or an operand
    for text, position, expected, found in [
        ("Ex.", 3, "a term", "end of input"),
        ("(Ex. x=x", 8, "')'", "end of input"),
        ("Ex. x=x )", 8, "end of input", ")"),
        ("E2log[1] x:1 . x=x", 9, "a relation variable", "x"),
        ("E2log[x] X:1 . x=x", 6, "an integer exponent", "x"),
        ("A2log[1] X:1 X(x)", 13, "'.'", "X"),
        ("E2log[1] X:0 . x=x", 0, "arity >= 1", "0"),
        ("E2log[0] X:0 . x=x", 0, "exponent k >= 1", "0"),
        ("(A2log[0] X:1 . x=x", 1, "exponent k >= 1", "0"),
        ("E2log[0] X:1 . x=", 17, "a term", "end of input"),
        ("Ax.Ey.", 6, "a term", "end of input"),
        ("E x .", 5, "a term", "end of input"),
        ("!Ex.", 4, "a term", "end of input"),
        ("Ex. x=x & Ey.", 13, "a term", "end of input"),
        ("Ex. x=x -> ", 11, "a term", "end of input"),
        # an element quantifier cannot bind the built-in term logn
        ("E logn . x=x", 2, "an element variable", "logn"),
        ("Elogn. logn=0", 0, "an element variable", "logn"),
        ("Alogn. x=x", 0, "an element variable", "logn"),
        ("Ex. x=x & A logn . x=x", 12, "an element variable", "logn"),
    ]:
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(text)
        assert (exc.value.position, exc.value.expected, exc.value.found) \
            == (position, expected, found), text


def test_validate_free_variables():
    free_elem, free_rel = validate(parse_formula("Ex.(E(x,y) & Y(y))"), DIGRAPH)
    assert free_elem == {"y"}
    assert free_rel == {"Y": 1}
    free_elem, free_rel = validate(
        parse_formula("E2log[1] Y:1 . Ex. Y(x)"), DIGRAPH)
    assert free_elem == set() and free_rel == {}


def test_validate_errors():
    with pytest.raises(ArityMismatch):
        validate(parse_formula("E(x,y,z)"), DIGRAPH)
    with pytest.raises(ArityMismatch):
        validate(parse_formula("Y(x) & Y(x,y)"), DIGRAPH)
    with pytest.raises(OrderUsedUnordered):
        validate(parse_formula("x<y"), DIGRAPH)
    with pytest.raises(OrderUsedUnordered):
        validate(parse_formula("BIT(y,x)"), DIGRAPH)
    with pytest.raises(OrderUsedUnordered):
        validate(parse_formula("x=0"), DIGRAPH)
    with pytest.raises(UnknownRelation):
        validate(parse_formula("ifp[E(u,v) <- u=v](x,y)"), DIGRAPH)


def test_ifp_shape_errors():
    with pytest.raises(IfpShapeError):
        validate(Ifp(("u", "v"), "Y", Eq(Var("u"), Var("v")), (Var("x"),)),
                 DIGRAPH)
    with pytest.raises(IfpShapeError):
        validate(Ifp(("u", "u"), "Y", Eq(Var("u"), Var("u")),
                     (Var("x"), Var("y"))), DIGRAPH)


def test_metrics_atomic():
    m = metrics(parse_formula("E(x,y)"), DIGRAPH)
    assert (m.mva, m.height, m.lqr) == (0, 0, 0)
    assert m.prenex_existential  # no log-quantifier at all
    assert m.num_element_vars == 2


def test_metrics_nested_prefix():
    f = parse_formula("E2log[2] X:3 . E2log[1] Y:1 . (X(x,y,z) & Y(x))")
    m = metrics(f)
    assert m.mva == 3
    assert m.height == 2
    assert m.lqr == 2
    assert m.prenex_existential
    assert m.num_element_vars == 3


def test_metrics_negated_prefix_not_prenex():
    f = parse_formula("!(E2log[1] X:1 . Ey. X(y))")
    m = metrics(f)
    assert m.lqr == 1
    assert not m.prenex_existential


def test_metrics_universal_prefix_not_prenex():
    assert not metrics(parse_formula("A2log[1] X:1 . Ex. X(x)")).prenex_existential


def test_metrics_free_relvar_counts_toward_mva():
    m = metrics(parse_formula("Y(x,y,z,w)"))
    assert m.mva == 4
    # with the name bound in the signature it is a relation, not a variable
    sig = Signature((("Y", 4),))
    assert metrics(parse_formula("Y(x,y,z,w)"), sig).mva == 0


def test_metrics_ifp_bound_variable_excluded():
    f = parse_formula("ifp[Y(u,v) <- E(u,v) | Ez.(E(u,z) & Y(z,v))](x,y)")
    assert metrics(f, DIGRAPH).mva == 0


def test_lqr_takes_max_over_connectives():
    f = parse_formula("(E2log[1] X:1 . Ex.X(x)) & (E2log[1] Y:1 . E2log[1] Z:1 . Ex.(Y(x) & Z(x)))")
    m = metrics(f)
    assert (m.lqr, m.height) == (2, 1)


def test_element_variables():
    f = parse_formula("Ex.(E(x,y) & ifp[Y(u,v) <- u=v](x,z))")
    assert metrics(f).num_element_vars == len({"x", "y", "u", "v", "z"})


def _random_formula(rng, depth):
    vars_ = ["x", "y", "z"]
    if depth <= 0:
        kind = rng.randrange(4)
        if kind == 0:
            return Atom("E", (Var(rng.choice(vars_)), Var(rng.choice(vars_))))
        if kind == 1:
            return Eq(Var(rng.choice(vars_)), rng.choice(
                [Var(rng.choice(vars_)), Lit(rng.randrange(3)), LogN()]))
        if kind == 2:
            return Less(Var(rng.choice(vars_)), Var(rng.choice(vars_)))
        return Bit(Var(rng.choice(vars_)), Var(rng.choice(vars_)))
    kind = rng.randrange(7)
    if kind == 0:
        return Not(_random_formula(rng, depth - 1))
    if kind <= 2:
        op = rng.choice((And, Or, Implies))
        return op(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if kind <= 4:
        quant = rng.choice((Exists, Forall))
        return quant(rng.choice(vars_), _random_formula(rng, depth - 1))
    if kind == 5:
        quant = rng.choice((ExistsLog, ForallLog))
        return quant(rng.randint(1, 3), "X", rng.randint(1, 3),
                     _random_formula(rng, depth - 1))
    return Ifp(("u", "v"), "Y", _random_formula(rng, depth - 1),
               (Var(rng.choice(vars_)), Var(rng.choice(vars_))))


def test_round_trip_on_random_asts():
    rng = random.Random(42)
    for _ in range(300):
        f = _random_formula(rng, rng.randint(1, 5))
        assert parse_formula(pretty(f)) == f


def _outcome(fn, *args):
    """The result of fn(*args), or the type of the exception it raised
    (with the position, what was expected and the offending text for a
    syntax error)."""
    try:
        return fn(*args)
    except FormulaSyntaxError as exc:
        return FormulaSyntaxError, exc.position, exc.expected, exc.found
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("sig", [
    DIGRAPH,
    ORDERED,
    Signature((("P", 1),), ordered=True),  # E is then a free relation variable
])
def test_walk_based_functions_agree_with_recursive_oracle(sig):
    rng = random.Random(42)
    for _ in range(300):
        f = _random_formula(rng, rng.randint(1, 5))
        assert _outcome(validate, f, sig) == _outcome(formula_oracle.validate, f, sig)
        for s in (sig, None):
            assert astuple(metrics(f, s)) == formula_oracle.metrics(f, s)
        assert metrics(f).num_element_vars == len(formula_oracle.element_variables(f))
        names, oracle_names = set(), set()
        _collect_names(f, names)
        formula_oracle._collect_names(f, oracle_names)
        assert names == oracle_names


_PARSER_TOKENS = ["Ex", "Ay", "E", "A", "x", "y", "X", "Y", ".", "(", ")", "&", "|", "->",
                  "!", "=", "<", ",", "E2log", "A2log", "[", "]", ":", "0", "1", "2", "ifp",
                  "<-", "BIT", "logn", "Elogn", "P", "#"]


def _drop_parentheses(rng, tokens):
    """`tokens` without a random half of the parentheses that group
    formulas (not those of atoms or fixed points), so that precedence and
    quantifier scope decide the shape."""
    drop, opened = set(), []
    for j, t in enumerate(tokens):
        if t == "(":
            # an atom's or a fixed point's "(" follows a name or "]"
            grouping = j == 0 or tokens[j - 1] != "]" and not tokens[j - 1][0].isalpha()
            opened.append(j if grouping else None)
        elif t == ")":
            i = opened.pop()
            if i is not None and rng.random() < 0.5:
                drop |= {i, j}
    return [t for j, t in enumerate(tokens) if j not in drop]


def test_parser_agrees_with_recursive_descent_oracle():
    rng = random.Random(14)
    parsed = 0
    for i in range(21000):
        if i % 3 == 0:
            tokens = [rng.choice(_PARSER_TOKENS) for _ in range(rng.randint(0, 14))]
        else:
            tokens = [t[1] for t in _tokenize(pretty(_random_formula(rng, rng.randint(1, 5))))]
            tokens.pop()  # eof
        if i % 3 == 1:
            tokens = _drop_parentheses(rng, tokens)
        if i % 3 == 2:
            # 0-2 token deletions, insertions or replacements
            for _ in range(rng.randint(0, 2)):
                j = rng.randrange(len(tokens))
                edit = rng.randrange(3)
                if edit == 0:
                    del tokens[j]
                else:
                    tokens[j:j + (edit == 2)] = [rng.choice(_PARSER_TOKENS)]
        text = " ".join(tokens)
        got = _outcome(parse_formula, text)
        assert got == _outcome(formula_oracle.parse_formula, text), text
        parsed += type(got) is not tuple
    assert parsed > 8000  # both outcomes are compared often


# "\u00b2" is a digit to str.isdigit but not to \d, "\u0663" is a non-ASCII \d, and
# "\x1c" and "\u00a0" are whitespace to both str.split and \s
_LEXER_ALPHABET = "Ex yA09_()[].,=<:!&|#-> \t\n@$%~\u00e9\u00b2\u0663\x1c\u00a0"


def _lexer_texts():
    rng = random.Random(7)
    return ["".join(rng.choice(_LEXER_ALPHABET) for _ in range(rng.randint(0, 12)))
            for _ in range(2000)]


def test_tokenize_agrees_with_position_loop_lexer():
    for text in _lexer_texts():
        assert _outcome(_tokenize, text) == _outcome(formula_oracle._tokenize, text), text


def test_bad_character_check_agrees_with_position_loop_lexer():
    # parse_formula reads the texts of one findall and finds a character that
    # starts no token by comparing lengths; the oracle parser reads _tokenize
    for text in _lexer_texts():
        assert _outcome(parse_formula, text) == _outcome(formula_oracle.parse_formula, text), text


def _literal(rng, p, q):
    atom = rng.choice([f"{rng.choice(STR_SIG.names)}({p})", f"{p}<{q}", f"{p}={q}"])
    return "!" * (rng.random() < 0.3) + atom


def _benchmark_shaped_sentence(rng):
    """An IFP under two element quantifiers, or three element quantifiers over
    three literals, as the `formulas` benchmark draws them."""
    q, op = (lambda: rng.choice("AE")), (lambda: rng.choice(("&", "|", "->")))
    if rng.random() < 0.5:
        step = f"Ec.({_literal(rng, 'a', 'c')} & Y(c,b))"
        return (f"{q()}x.{q()}y.(ifp[Y(a,b) <- {_literal(rng, 'a', 'b')} | {step}](x,y)"
                f" {op()} {_literal(rng, 'x', 'y')})")
    l1, l2, l3 = (_literal(rng, rng.choice("xyz"), rng.choice("xyz")) for _ in range(3))
    return f"{q()}x.{q()}y.{q()}z.({l1} {op()} ({l2} {op()} {l3}))"


def test_errors_in_long_translations_agree_with_oracle():
    # 1-2 token deletions, insertions or replacements in printed J-translations of
    # about 1,500 characters: positions, computed only for an error, stay exact far
    # into the text
    rng = random.Random(22)
    red = build_J_reduction(1)
    positions, parsed = [], 0
    for _ in range(200):
        text = pretty(transform_formula(parse_formula(_benchmark_shaped_sentence(rng)), red))
        assert len(text) > 1000
        for last in [False] * rng.randint(0, 1) + [True]:
            _, val, pos = rng.choice(_tokenize(text)[:-1])
            edit = rng.randrange(3)  # delete, insert before, replace
            new = " " if edit == 0 else f" {rng.choice(_PARSER_TOKENS + ['@', '-'] * last)} "
            text = text[:pos] + new + text[pos + len(val) * (edit != 1):]
        got = _outcome(parse_formula, text)
        assert got == _outcome(formula_oracle.parse_formula, text), text
        if type(got) is tuple:
            positions.append(got[1])
        parsed += type(got) is not tuple
    assert parsed > 5 and len(positions) > 150 and max(positions) > 1000


def test_walk_yields_binding_context_in_pre_order():
    f = parse_formula("E2log[1] X:2 . Ex. (X(x,y) | !ifp[Y(u) <- Y(u) & u=x](y))")
    visited = [(type(g).__name__, sorted(bound), rels, nlog)
               for g, bound, rels, nlog in walk(f)]
    assert visited == [
        ("ExistsLog", [], {}, 0),
        ("Exists", [], {"X": 2}, 1),
        ("Atom", ["x"], {"X": 2}, 1),
        ("Ifp", ["x"], {"X": 2}, 1),
        ("Atom", ["u", "x"], {"X": 2, "Y": 1}, 1),
        ("Eq", ["u", "x"], {"X": 2, "Y": 1}, 1),
    ]
    assert terms(f) == ()
    assert terms(parse_formula("BIT(y,0)")) == (Var("y"), Lit(0))


def test_fold_traversals_agree_with_recursive_oracle():
    rng = random.Random(16)
    for _ in range(3000):
        f = _random_formula(rng, rng.randint(1, 6))
        assert pretty(f) == formula_oracle.pretty(f)
        assert walk(f) == list(formula_oracle.walk(f))
    junk = And(Eq(Var("x"), Var("x")), "x=x")
    for fn in (pretty, formula_oracle.pretty, walk, lambda f: list(formula_oracle.walk(f))):
        assert _outcome(fn, junk) is TypeError


def deep_formula(shape: str):
    """2,000 nested "!" before x=x, 1,000 "Ex." before x=x, or "Ex." over
    a 3,000-member chain of P1(x)."""
    x = Var("x")
    if shape == "chain":
        return Exists("x", conj([Atom("P1", (x,))] * 3000))
    node, depth = (Not, 2000) if shape == "negations" else (lambda g: Exists("x", g), 1000)
    f = Eq(x, x)
    for _ in range(depth):
        f = node(f)
    return f


@pytest.mark.parametrize("shape,text", [
    ("negations", "!(" * 1999 + "!x=x" + ")" * 1999),
    ("prefix", "Ex. " * 1000 + "x=x"),
    ("chain", "Ex. " + "(" * 2999 + "P1(x)" + " & P1(x))" * 2999),
], ids=["negations", "prefix", "chain"])
def test_deep_formulas_print_and_walk(shape, text):
    f = deep_formula(shape)
    assert pretty(f) == text
    # the dataclass == recurses, so compare printed text and node types at this depth
    assert pretty(parse_formula(text)) == text
    free = frozenset({"x"}) if shape == "negations" else frozenset()
    items = walk(f)
    g, bound, rels, nlog = items[-1]
    assert (type(g), bound | free, rels, nlog) == (Atom if shape == "chain" else Eq, {"x"}, {}, 0)
    assert len(items) == {"negations": 1, "prefix": 1001, "chain": 3001}[shape]
    assert validate(f, STR_SIG) == (free, {})


def test_deep_formula_does_not_hit_recursion_limit():
    x = Var("x")
    f = Exists("x", conj([Eq(x, x)] * 3000))
    assert validate(f, STR_SIG) == (frozenset(), {})
    m = metrics(f, STR_SIG)
    assert (m.mva, m.height, m.lqr, m.num_element_vars) == (0, 0, 0, 1)
    assert pretty(f) == "Ex. " + "(" * 2999 + "x=x" + " & x=x)" * 2999
    # the dataclass == recurses, so compare the printed text at this depth
    assert pretty(parse_formula(pretty(f))) == pretty(f)


@pytest.mark.parametrize("chain", [conj, disj])
def test_long_chain_round_trip(chain):
    x = Var("x")
    f = Exists("x", chain([Eq(x, x)] * 300))
    assert parse_formula(pretty(f)) == f


@pytest.mark.parametrize("text,node,depth", [
    ("(" * 3000 + "x=x" + ")" * 3000, None, 0),
    ("!" * 3000 + "x=x", Not, 3000),
    ("Ex. " * 2000 + "x=x", Exists, 2000),
])
def test_deep_nesting_parses(text, node, depth):
    f = parse_formula(text)
    for _ in range(depth):
        assert type(f) is node
        f = f.body
    assert f == Eq(Var("x"), Var("x"))


@pytest.mark.parametrize("text", [
    "E2log[1] P0:1 . Ex. P0(x)",
    "A2log[1] P1:1 . Ex. P1(x)",
])
def test_log_quantified_variable_may_not_shadow_signature_relation(text):
    with pytest.raises(UnknownRelation):
        validate(parse_formula(text), STR_SIG)
