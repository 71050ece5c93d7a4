"""The four workloads.

A workload is set up once per set-up round with the modules of a fresh
import of logifp, then runs operations: `make_input` draws one
operation's inputs from a seeded generator (untimed), `op` is the timed
call into logifp, and `check` compares its output with the benchmark's
own answers (untimed).  Every call into logifp goes through a module
attribute (`self.m.interp.apply_interpretation`, ...) so that the traced
run can wrap it.
"""

from __future__ import annotations

import json

import oracles

STRING_PREDICATES = tuple(oracles.PREDICATE_CHARS)  # P0 P1 PH PL PR


def string_relations(u: str) -> dict:
    return {p: {(i,) for i, ch in enumerate(u) if ch == c}
            for p, c in oracles.PREDICATE_CHARS.items()}


class Jred:
    """apply_interpretation(build_J_reduction(1), A) on a fresh (u, R1) with
    |u| = 5 over {0,1} and exactly ceil(log 5) = 3 pairs in R1: the
    universe scan always tests 5**6 tuples and keeps 12."""

    name = "jred"
    N = 5
    R = 1
    count_ops = 2

    def setup(self, m):
        self.m = m
        self.red = m.interp.build_J_reduction(self.R)

    def make_input(self, rng):
        n = self.N
        u = "".join(rng.choice("01") for _ in range(n))
        rels = []
        for _ in range(self.R):
            rel = set()
            while len(rel) < oracles.clog(n):
                rel.add((rng.randrange(n), rng.randrange(n)))
            rels.append(rel)
        relmap = string_relations(u)
        relmap.update({f"R{j + 1}": rel for j, rel in enumerate(rels)})
        return u, rels, self.m.core.Structure(self.red.source, n, relmap)

    def op(self, inp):
        return self.m.interp.apply_interpretation(self.red, inp[2])

    def check(self, inp, out):
        u, rels, _ = inp
        return oracles.read_string(out.n, out.rels) == oracles.reduction_string(u, rels)


# --- modelcheck sentences ---

_EDGE = "(P1({a}) & {a}<{b} & !(Ed.({a}<d & d<{b})))"
_REACH = ("ifp[Y(a,b) <- " + _EDGE.format(a="a", b="b")
          + " | Ec.(" + _EDGE.format(a="a", b="c") + " & Y(c,b))](x,y)")
_CLOSED = "(x<y & Az.(((x<z | x=z) & z<y) -> P1(z)))"
# y is reachable from x along 1-steps iff x<y and [x, y) holds only 1s
S_REACH = f"Ax.Ay.(({_REACH} -> {_CLOSED}) & ({_CLOSED} -> {_REACH}))"
# true whenever u has more than ceil(log n) 1s: every X of that size misses
# a loop at some 1-position, so all bounded relations are enumerated
S_LOG = "A2log[1] X:2 . Ex.(P1(x) & !X(x,x))"
# false whenever #1s * #0s > ceil(log n): both paths enumerate everything
S_PRENEX = ("E2log[1] X:2 . Au.Av.((X(u,v) -> (P1(u) & P0(v)))"
            " & ((P1(u) & P0(v)) -> X(u,v)))")
_AFTER_HASH = "Eh.(PH(h) & h<{x})"
# states oracles.gc_predicate of u#v
GC_SENTENCE = (
    "(Ex.Ey.(" + _AFTER_HASH.format(x="x")
    + " & P1(x) & P1(y) & x<y & !(Ez.(x<z & z<y))))"
    " & (Eh.Ex.Ey.(PH(h) & x<h & h<y & !(Ez.(x<z & z<h)) & !(Ez.(h<z & z<y))"
    " & ((P1(x) & P0(y)) | (P0(x) & P1(y)))))"
    " & (Ex.Ey.(!(Ez.(z<x)) & !(Ez.(y<z)) & " + _AFTER_HASH.format(x="y")
    + " & ((P1(x) & P1(y)) | (P0(x) & P0(y)))))"
)


class Modelcheck:
    """The way `logifp eval` and `logifp gc-run` work, on fresh strings:
    u (length 6 over 0 1 [ ], exactly four 1s) for the IFP and log-quantified
    sentences, w (length 4 over 0 1, #1s * #0s > 2) for the prenex sentence
    on both evaluation paths, and g (length 6, '0' ... '1') for gc_check."""

    name = "modelcheck"
    LEN_U = 6
    LEN_W = 4
    LEN_G = 6
    GC_K = 1
    GC_C = 2
    count_ops = 1

    def setup(self, m):
        self.m = m
        for text in (S_REACH, S_LOG, S_PRENEX, GC_SENTENCE):
            m.formula.validate(m.formula.parse_formula(text), m.core.STR_SIG)

    def make_input(self, rng):
        u = [rng.choice("0[]") for _ in range(self.LEN_U)]
        for i in rng.sample(range(self.LEN_U), 4):
            u[i] = "1"
        while True:
            w = "".join(rng.choice("01") for _ in range(self.LEN_W))
            if w.count("1") * w.count("0") > oracles.clog(self.LEN_W):
                break
        g = "0" + "".join(rng.choice("01[]") for _ in range(self.LEN_G - 2)) + "1"
        return "".join(u), w, g

    def op(self, inp):
        u_text, w_text, g_text = inp
        core, formula, evaluate = self.m.core, self.m.formula, self.m.evaluate
        sig = core.STR_SIG
        u = core.from_text(u_text)
        answers = []
        for text in (S_REACH, S_LOG):
            f = formula.parse_formula(text)
            formula.validate(f, sig)
            answers.append(evaluate.evaluate(u, f))
        w = core.from_text(w_text)
        f = formula.parse_formula(S_PRENEX)
        formula.validate(f, sig)
        answers.append(evaluate.evaluate(w, f))
        answers.append(evaluate.evaluate_via_bitstrings(w, f))
        g = core.from_text(g_text)
        checker_f = formula.parse_formula(GC_SENTENCE)
        formula.validate(checker_f, sig)
        found = evaluate.gc_check(g, self.GC_K, self.GC_C,
                                  lambda cand: evaluate.evaluate(cand, checker_f))
        return answers, found

    def check(self, inp, out):
        u, w, g = inp
        (reach, log_all, prenex_set, prenex_bits), (found, witness) = out
        max_len = self.GC_C * oracles.clog(len(g)) ** self.GC_K
        expected_witness = oracles.first_gc_witness(g, max_len)
        return (
            reach == oracles.ifp_sentence_truth(u)
            and log_all == oracles.all_bounded_miss_a_one_loop(u, 1)
            and prenex_set == prenex_bits == oracles.some_bounded_equals_one_zero_pairs(w, 1)
            and found == (expected_witness is not None)
            and witness == expected_witness
        )


class Games:
    """`logifp even-demo --m 1 --r 1 --k 1 --s 1` (game_winner and
    verify_fresh_strategy on the edgeless pair of sizes 10 and 11), then
    pebble_game_winner on three fresh pairs: a 4-vertex digraph and a
    relabelling of it, an edgeless pair of sizes 2..5, and a pair of
    4-vertex digraphs separated by a two-variable sentence."""

    name = "games"
    N = 4
    EDGE_PROB = 0.4
    count_ops = 1

    PARAMS = (1, 1, 1, 1)  # m, r, k, s

    def setup(self, m):
        self.m = m
        self.params = m.game.GameParams(*self.PARAMS)
        self.sig = m.core.Signature((("E", 2),), ordered=False)

    def _digraph(self, rng, n):
        return {(x, y) for x in range(n) for y in range(n) if rng.random() < self.EDGE_PROB}

    def make_input(self, rng):
        n = self.N
        g = self._digraph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = {(perm[x], perm[y]) for x, y in g}
        edgeless = (rng.randint(2, 5), rng.randint(2, 5), rng.randint(2, 3))
        while True:
            a, b = self._digraph(rng, n), self._digraph(rng, n)
            if oracles.separating_sentence(n, a, n, b) is not None:
                break
        return (g, perm, relabelled), edgeless, (a, b)

    def op(self, inp):
        (g, _, relabelled), (n_a, n_b, s), (sep_a, sep_b) = inp
        game, core = self.m.game, self.m.core
        n_even_a, n_even_b = game.even_instance(self.params)
        a = core.Structure(self.sig, n_even_a, {})
        b = core.Structure(self.sig, n_even_b, {})
        even_winner, transcript = game.game_winner(a, b, self.params)
        fresh_ok = game.verify_fresh_strategy(a, b, self.params)

        def pebble(edges_a, size_a, edges_b, size_b, pebbles):
            ea = game.ExpandedStructure(core.Structure(self.sig, size_a, {"E": edges_a}))
            eb = game.ExpandedStructure(core.Structure(self.sig, size_b, {"E": edges_b}))
            return game.pebble_game_winner(ea, eb, pebbles)[0]

        n = self.N
        return (
            (n_even_a, n_even_b), even_winner, transcript, fresh_ok,
            pebble(g, n, relabelled, n, 2),
            pebble(set(), n_a, set(), n_b, s),
            pebble(sep_a, n, sep_b, n, 2),
        )

    def check(self, inp, out):
        (g, perm, relabelled), (n_a, n_b, s), (sep_a, sep_b) = inp
        sizes, even_winner, transcript, fresh_ok, iso, edgeless, separated = out
        n = self.N
        return (
            sizes == oracles.even_sizes(*self.PARAMS)
            and str(even_winner) == "Duplicator" == transcript["winner"]
            and fresh_ok is True
            and oracles.is_isomorphism(perm, g, relabelled) and str(iso) == "Duplicator"
            and str(edgeless) == oracles.edgeless_winner(n_a, n_b, s)
            and oracles.separating_sentence(n, sep_a, n, sep_b) is not None
            and str(separated) == "Spoiler"
        )

    def layer_counts(self, out):
        return {"game.solver_nodes": out[2]["nodes"]}


# --- formulas ---

_CONNECTIVES = ("&", "|", "->")


def _binary_literal(rng, p: str, q: str) -> str:
    kind = rng.randrange(3)
    c1, c2 = rng.choice(STRING_PREDICATES), rng.choice(STRING_PREDICATES)
    if kind == 0:
        return f"({c1}({p}) & {p}<{q})"
    if kind == 1:
        return f"({c1}({q}) & {q}<{p})"
    return f"({c1}({p}) & {c2}({q}))"


def _literal(rng, names) -> str:
    kind = rng.randrange(3)
    p, q = rng.choice(names), rng.choice(names)
    atom = (f"{rng.choice(STRING_PREDICATES)}({p})" if kind == 0
            else f"{p}<{q}" if kind == 1 else f"{p}={q}")
    return ("!" if rng.random() < 0.3 else "") + atom


def _quantifier(rng) -> str:
    return rng.choice("AE")


def ifp_sentence(rng) -> str:
    """Q x. Q y. (ifp[Y(a,b) <- e1(a,b) | Ec.(e2(a,c) & Y(c,b))](x,y) op l(x,y))"""
    body = (f"{_binary_literal(rng, 'a', 'b')} | "
            f"Ec.({_binary_literal(rng, 'a', 'c')} & Y(c,b))")
    return (f"{_quantifier(rng)}x.{_quantifier(rng)}y.(ifp[Y(a,b) <- {body}](x,y)"
            f" {rng.choice(_CONNECTIVES)} {_literal(rng, 'xy')})")


def fo_sentence(rng) -> str:
    """Q x. Q y. Q z. (l1 op (l2 op l3))"""
    lits = [_literal(rng, "xyz") for _ in range(3)]
    return (f"{_quantifier(rng)}x.{_quantifier(rng)}y.{_quantifier(rng)}z."
            f"({lits[0]} {rng.choice(_CONNECTIVES)} ({lits[1]} {rng.choice(_CONNECTIVES)} {lits[2]}))")


# a width-1 interpretation of strings over 0 1 # in ordered digraphs,
# small enough to evaluate translated sentences on
SMALL_SOURCE_N = 4
SMALL_INTERPRETATION = {
    "uni": "x1=x1",
    "P0": "E(x1,x1)",
    "P1": "!E(x1,x1) & Ey.E(x1,y)",
    "PH": "!E(x1,x1) & !(Ey.E(x1,y))",
    "PL": "x1<x1",
    "PR": "x1<x1",
    "less": "x1<x2",
}


class Formulas:
    """The formula layer alone: the J-reduction through
    interpretation_to_json / interpretation_from_json (as `build-jred` and
    `interp-apply --interp` do), then two fresh IFP sentences and two fresh
    three-quantifier sentences translated backwards with transform_formula
    and passed through validate, metrics, pretty and parse_formula."""

    name = "formulas"
    R = 1
    count_ops = 3

    def setup(self, m):
        self.m = m
        self.red = m.interp.build_J_reduction(self.R)
        source = m.core.Signature((("E", 2),), ordered=True)
        parse = m.formula.parse_formula
        self.small = m.interp.Interpretation(
            width=1, source=source, target=m.core.STR_SIG,
            uni=parse(SMALL_INTERPRETATION["uni"]),
            rels={p: parse(SMALL_INTERPRETATION[p]) for p in STRING_PREDICATES},
            less=parse(SMALL_INTERPRETATION["less"]),
        )

    def make_input(self, rng):
        texts = [ifp_sentence(rng), ifp_sentence(rng), fo_sentence(rng), fo_sentence(rng)]
        n = SMALL_SOURCE_N
        edges = {(x, y) for x in range(n) for y in range(n) if rng.random() < 0.4}
        return [self.m.formula.parse_formula(t) for t in texts], edges

    def op(self, inp):
        formula, interp = self.m.formula, self.m.interp
        text = json.dumps(interp.interpretation_to_json(self.red), sort_keys=True)
        red = interp.interpretation_from_json(json.loads(text))
        out = []
        for f in inp[0]:
            g = interp.transform_formula(f, red)
            free = formula.validate(g, red.source)
            formula.metrics(g, red.source)
            printed = formula.pretty(g)
            out.append((g, free, printed, formula.parse_formula(printed)))
        return red, out

    def check(self, inp, out):
        sentences, edges = inp
        red, translated = out
        if red != self.red:
            return False
        for g, free, _, reparsed in translated:
            if reparsed != g or free != (frozenset(), {}):
                return False
        # the translation's fundamental property, on the small interpretation
        m = self.m
        a = m.core.Structure(self.small.source, SMALL_SOURCE_N, {"E": edges})
        b = m.interp.apply_interpretation(self.small, a)
        return all(
            m.evaluate.evaluate(a, m.interp.transform_formula(f, self.small))
            == m.evaluate.evaluate(b, f)
            for f in sentences
        )

    def layer_counts(self, out):
        return {"interp.transform_formula.out_chars": sum(len(p) for _, _, p, _ in out[1])}


WORKLOADS = {w.name: w for w in (Jred, Modelcheck, Games, Formulas)}
