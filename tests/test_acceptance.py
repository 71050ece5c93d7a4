"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (past pytest's capture) so the
whole battery can be read off any run.  Numbers are stable identifiers for
the eleven checks; seeds are fixed so every run sees the same sample.
"""

import itertools
import random

from logifp.core import (
    STR_SIG,
    Signature,
    Structure,
    ceil_log,
    from_text,
    render,
)
from logifp.encode import dec_structure, enc_structure, j_encode, j_preimage
from logifp.errors import EmptyUniverse, NotChunkAligned
from logifp.evaluate import evaluate, evaluate_via_bitstrings, ifp_fixpoint
from logifp.formula import parse_formula, validate
from logifp.game import (
    ExpandedStructure,
    GameParams,
    Winner,
    equivalence_sampler,
    even_instance,
    game_winner,
    pebble_game_winner,
    verify_fresh_strategy,
)
from logifp.interp import Interpretation, apply_interpretation, build_J_reduction, transform_formula
from logifp import cli

DIGRAPH = Signature((("E", 2),), ordered=False)
ORDERED_DIGRAPH = Signature((("E", 2),), ordered=True)


def _report(capsys, number, label, ok):
    # step around pytest's capture so the line shows in any run mode
    with capsys.disabled():
        print(f"acceptance {number:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance {number:02d} {label}"


def test_01_relation_encoding_worked_example(capsys):
    ok = j_encode(8, [(1, 3), (1, 0), (2, 0)]) == "110000"
    _report(capsys, 1, "relation-to-bitstring worked example", ok)


def test_02_relation_encoding_surjectivity(capsys):
    n, bound = 8, 3
    universe = list(itertools.product(range(n), repeat=2))
    images = set()
    for size in range(bound + 1):
        for combo in itertools.combinations(universe, size):
            images.add(j_encode(n, frozenset(combo)))
    aligned = {"".join(bits)
               for length in (0, 2, 4, 6)
               for bits in itertools.product("01", repeat=length)}
    ok = images == aligned
    # encode-after-canonical-preimage is the identity on that set
    ok = ok and all(j_encode(n, j_preimage(n, z, 1)) == z for z in aligned)
    # strings of odd length are unreachable: no preimage is even defined
    for z in ("1", "011", "00000"):
        try:
            j_preimage(n, z, 1)
            ok = False
        except NotChunkAligned:
            pass
    ok = ok and not any(len(z) % 2 for z in images)
    _report(capsys, 2, "bitstring image = chunk-aligned strings", ok)


def test_03_structure_encoding_round_trip(capsys):
    ok = True
    pairs = list(itertools.product(range(4), repeat=2))
    for mask in range(1 << 16):
        edges = {pairs[i] for i in range(16) if mask >> i & 1}
        a = Structure(ORDERED_DIGRAPH, 4, {"E": edges})
        if dec_structure(enc_structure(a), ORDERED_DIGRAPH) != a:
            ok = False
            break
    sig = Signature((("E", 2), ("P", 1)), ordered=True)
    rng = random.Random(303)
    for _ in range(200):
        n = rng.randint(2, 8)
        a = Structure(sig, n, {
            "E": {(rng.randrange(n), rng.randrange(n))
                  for _ in range(rng.randint(0, n * n))},
            "P": {(rng.randrange(n),) for _ in range(rng.randint(0, n))},
        })
        if dec_structure(enc_structure(a), sig) != a:
            ok = False
            break
    _report(capsys, 3, "structure encoding round-trips", ok)


def _reachability(n, edges):
    adj = {i: [] for i in range(n)}
    for u, v in edges:
        adj[u].append(v)
    out = set()
    for src in range(n):
        seen, stack = set(), list(adj[src])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(adj[v])
        out |= {(src, v) for v in seen}
    return out


def test_04_fixed_point_matches_graph_search(capsys):
    tc = parse_formula("ifp[Y(u,v) <- E(u,v) | Ez.(E(u,z) & Y(z,v))](x,y)")
    rng = random.Random(404)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 8)
        edges = {(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, n * n // 2))}
        a = Structure(DIGRAPH, n, {"E": edges})
        if ifp_fixpoint(a, tc.body, tc.vars, tc.relvar) != \
                frozenset(_reachability(n, edges)):
            ok = False
            break
    _report(capsys, 4, "inflationary fixed point = reachability", ok)


_UNI_TEMPLATES = {1: ["x1=x1", "Ey. E(x1,y) | x1=x1", "x1<logn | x1=0"],
                  2: ["x1=x1 & x2=x2", "x1<x2 | x1=x2", "E(x1,x2) | x1=x2"]}
_REL_TEMPLATES = {1: ["E(x1,x2)", "x1<x2 | E(x2,x1)", "x1=x2"],
                  2: ["E(x2,x3) & x1=x1 & x4=x4",
                      "(E(x1,x3) | E(x2,x4)) & x1=x1",
                      "x1=x3 & x2<x4"]}
_LESS = {1: "x1<x2",
         2: "x1<x3 | (x1=x3 & x2<x4)"}
_SENTENCES = [
    "Ex.Ey.F(x,y)",
    "Ax.Ey.(F(x,y) -> (F(y,x) | x=y))",
    "Ex.Ay.(x<y | x=y)",
    "Ex.(F(x,x) & Ex. !F(x,x))",
    "Ex.Ey.(ifp[Y(u,v) <- F(u,v) | Ez.(F(u,z) & Y(z,v))](x,y) & !(x=y))",
]


def test_05_backward_translation_fundamental_property(capsys):
    target = Signature((("F", 2),), ordered=True)
    rng = random.Random(505)
    checked = 0
    ok = True
    while checked < 210 and ok:
        w = rng.randint(1, 2)
        interp = Interpretation(
            width=w,
            source=ORDERED_DIGRAPH,
            target=target,
            uni=parse_formula(rng.choice(_UNI_TEMPLATES[w])),
            rels={"F": parse_formula(rng.choice(_REL_TEMPLATES[w]))},
            less=parse_formula(_LESS[w]),
        )
        n = rng.randint(2, 5)
        a = Structure(ORDERED_DIGRAPH, n, {
            "E": {(rng.randrange(n), rng.randrange(n))
                  for _ in range(rng.randint(0, n * n))}})
        try:
            b = apply_interpretation(interp, a)
        except EmptyUniverse:
            continue
        f = parse_formula(rng.choice(_SENTENCES))
        g = transform_formula(f, interp)
        validate(g, ORDERED_DIGRAPH)
        if evaluate(a, g) != evaluate(b, f):
            ok = False
        checked += 1
    _report(capsys, 5, f"translation fundamental property on {checked} triples", ok)


def test_06_reduction_equation(capsys):
    red = build_J_reduction(1)
    rng = random.Random(606)
    ok = True
    failing = None
    checked = 0
    for length, count in ((5, 200), (6, 150), (7, 100), (8, 50)):
        for _ in range(count):
            u_text = "".join(rng.choice("01") for _ in range(length))
            bound = ceil_log(length)
            rel = frozenset((rng.randrange(length), rng.randrange(length))
                            for _ in range(rng.randint(0, bound)))
            relmap = {p: set(from_text(u_text).rels[p]) for p in STR_SIG.names}
            relmap["R1"] = set(rel)
            a = Structure(red.source, length, relmap)
            got = render(apply_interpretation(red, a))
            want = u_text + "#" + j_encode(length, rel)
            checked += 1
            if got != want:
                ok = False
                failing = (u_text, sorted(rel), got, want)
                break
        if not ok:
            break
    label = f"reduction equation on {checked} (u,R) pairs"
    if failing:
        label += f" first failure {failing}"
    _report(capsys, 6, label, ok)


def _prenex_sentence(rng, m):
    relvars = [f"X{i}" for i in range(m)]
    u, v = "u", "v"
    atoms = [f"{x}({u},{v})" for x in relvars] + \
            [f"{x}({v},{u})" for x in relvars] + \
            [f"P0({u})", f"P1({v})", f"{u}<{v}", f"{u}={v}"]
    a1, a2 = rng.choice(atoms), rng.choice(atoms)
    op = rng.choice(["&", "|", "->"])
    quants = rng.choice([f"E{u}.E{v}.", f"E{u}.A{v}.", f"A{u}.E{v}.", f"A{u}.A{v}."])
    body = f"{quants}(({a1}) {op} ({a2}))"
    for x in reversed(relvars):
        body = f"E2log[1] {x}:2 . {body}"
    return parse_formula(body)


def test_07_two_evaluation_paths_agree(capsys):
    rng = random.Random(707)
    ok = True
    checked = 0
    plans = [(1, (4, 5, 6), 70), (1, (7,), 6), (1, (8,), 4), (2, (4,), 30)]
    for m, lengths, count in plans:
        for _ in range(count):
            length = rng.choice(lengths)
            u = from_text("".join(rng.choice("01") for _ in range(length)))
            f = _prenex_sentence(rng, m)
            if evaluate(u, f) != evaluate_via_bitstrings(u, f):
                ok = False
                break
            checked += 1
        if not ok:
            break
    _report(capsys, 7, f"set-first vs bitstring-first evaluation on {checked} cases", ok)


def test_08_even_separation_instance(capsys):
    params = GameParams(1, 1, 1, 1)
    sizes = even_instance(params)
    ok = sizes == (10, 11)
    a = Structure(DIGRAPH, 10, {})
    b = Structure(DIGRAPH, 11, {})
    winner, _ = game_winner(a, b, params)
    ok = ok and winner is Winner.DUPLICATOR
    ok = ok and verify_fresh_strategy(a, b, params) is True
    _report(capsys, 8, "even/odd edgeless pair is duplicator-won", ok)


def test_09_game_verdicts_consistent_with_sampled_sentences(capsys):
    rng = random.Random(909)
    violations = 0
    for trial in range(50):
        n1 = rng.randint(1, 5)
        edges1 = {(rng.randrange(n1), rng.randrange(n1))
                  for _ in range(rng.randint(0, n1 * n1 // 2))}
        a = Structure(DIGRAPH, n1, {"E": edges1})
        if trial % 4 == 0:
            b = a
        else:
            n2 = rng.randint(1, 5)
            b = Structure(DIGRAPH, n2, {
                "E": {(rng.randrange(n2), rng.randrange(n2))
                      for _ in range(rng.randint(0, n2 * n2 // 2))}})
        params = GameParams(rng.randint(0, 1), rng.randint(1, 2), 1,
                            rng.randint(1, 2))
        report = equivalence_sampler(a, b, params, trials=500, seed=trial)
        if report.winner is Winner.DUPLICATOR and report.distinguishing:
            violations += 1
        if report.distinguishing and report.winner is not Winner.SPOILER:
            violations += 1
    _report(capsys, 9, "game verdicts vs 50x500 sampled sentences", violations == 0)


def test_10_pebble_game_sanity(capsys):
    ok = True
    # every structure is indistinguishable from itself
    pairs3 = list(itertools.product(range(3), repeat=2))
    for n in (1, 2, 3):
        cells = [(x, y) for x, y in pairs3 if x < n and y < n]
        for mask in range(1 << len(cells)):
            edges = {cells[i] for i in range(len(cells)) if mask >> i & 1}
            ea = ExpandedStructure(Structure(DIGRAPH, n, {"E": edges}))
            for s in (1, 2, 3):
                if pebble_game_winner(ea, ea, s)[0] is not Winner.DUPLICATOR:
                    ok = False
    rng = random.Random(1010)
    cells4 = list(itertools.product(range(4), repeat=2))
    for _ in range(512):
        edges = {c for c in cells4 if rng.random() < 0.5}
        ea = ExpandedStructure(Structure(DIGRAPH, 4, {"E": edges}))
        for s in (1, 2, 3):
            if pebble_game_winner(ea, ea, s)[0] is not Winner.DUPLICATOR:
                ok = False
    e2 = ExpandedStructure(Structure(DIGRAPH, 2, {}))
    e3 = ExpandedStructure(Structure(DIGRAPH, 3, {}))
    ok = ok and pebble_game_winner(e2, e3, 2)[0] is Winner.DUPLICATOR
    ok = ok and pebble_game_winner(e2, e3, 3)[0] is Winner.SPOILER
    one_edge = ExpandedStructure(Structure(DIGRAPH, 2, {"E": {(0, 1)}}))
    ok = ok and pebble_game_winner(one_edge, e2, 2)[0] is Winner.SPOILER
    _report(capsys, 10, "pebble game sanity battery", ok)


def test_11_cli_golden_transcripts(tmp_path, capsys):
    from logifp.core import save_structure

    g = Structure(ORDERED_DIGRAPH, 3, {"E": {(0, 1), (1, 2)}})
    graph = str(tmp_path / "g.json")
    save_structure(g, graph)
    commands = [
        ["eval", "--structure", graph, "--formula", "Ex. x=x"],
        ["jencode", "--n", "8", "--tuples", "(1,3)(1,0)(2,0)"],
        ["even-demo", "--m", "1", "--r", "1", "--k", "1", "--s", "1"],
    ]
    golden = [
        "result: true\n",
        "bits: 110000\n",
        None,  # checked for stability and key facts below
    ]
    ok = True
    for argv, expected in zip(commands, golden):
        code1 = cli.run_command(argv)
        out1 = capsys.readouterr().out
        code2 = cli.run_command(argv)
        out2 = capsys.readouterr().out
        ok = ok and code1 == code2 == 0 and out1 == out2
        if expected is not None:
            ok = ok and out1 == expected
        else:
            ok = ok and "n_a: 10" in out1 and "n_b: 11" in out1 \
                and "winner: Duplicator" in out1 \
                and "fresh_strategy_verified: true" in out1
    _report(capsys, 11, "command-line transcripts byte-identical", ok)
