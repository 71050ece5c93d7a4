"""Command-line front end: dispatch, formats, exit codes, determinism."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logifp import cli, core, encode, game
from logifp.core import STR_SIG, Signature, Structure, save_structure

ORDERED_DIGRAPH = Signature((("E", 2),), ordered=True)
DIGRAPH = Signature((("E", 2),), ordered=False)


@pytest.fixture
def files(tmp_path):
    paths = {}
    g = Structure(ORDERED_DIGRAPH, 3, {"E": {(0, 1), (1, 2)}})
    paths["graph"] = str(tmp_path / "g.json")
    save_structure(g, paths["graph"])
    e2 = Structure(DIGRAPH, 2, {})
    e3 = Structure(DIGRAPH, 3, {})
    paths["e2"] = str(tmp_path / "e2.json")
    paths["e3"] = str(tmp_path / "e3.json")
    save_structure(e2, paths["e2"])
    save_structure(e3, paths["e3"])
    sig_path = tmp_path / "sig.json"
    sig_path.write_text(json.dumps({"signature": [["E", 2]], "ordered": True}))
    paths["sig"] = str(sig_path)
    return paths


def run(argv, capsys):
    """The exit code and standard output of a command that writes nothing on
    standard error."""
    code, out, err = run_with_stderr(argv, capsys)
    assert err == ""
    return code, out


def run_with_stderr(argv, capsys):
    """The exit code, standard output and standard error of a command."""
    code = cli.run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_trivial_sentence(files, capsys):
    code, out = run(["eval", "--structure", files["graph"],
                     "--formula", "Ex. x=x"], capsys)
    assert code == 0
    assert out == "result: true\n"


def test_eval_inline_string(files, capsys):
    code, out = run(["eval", "--string", "01011",
                     "--formula", "E2log[1] X:1 . Eu.(X(u) & P1(u))"], capsys)
    assert code == 0 and "result: true" in out


def test_eval_a2log_on_sixteen_letters(capsys):
    # 177 M bounded relations: the search answers from the few tuples the body reads
    code, out = run(["eval", "--string", "1101001110100101",
                     "--formula", "A2log[1] X:2 . Ex.(P1(x) & !X(x,x))"], capsys)
    assert code == 0
    assert out == "result: true\n"


def test_check_reports_metrics(files, capsys):
    code, out = run(["--format", "machine", "check", "--sig", files["sig"],
                     "--formula",
                     "E2log[2] X:3 . E2log[1] Y:1 . (X(x,y,z) & Y(x))"], capsys)
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["mva"] == "3"
    assert lines["height"] == "2"
    assert lines["lqr"] == "2"
    assert lines["prenex_existential"] == "true"


def test_check_takes_the_signature_of_a_structure(files, capsys):
    # E is the structure's relation; P0, a string predicate, is free here
    lines = ["formula=Ey. (E(x,y) & P0(x))", "free_element_vars=x", "free_relation_vars=P0:1",
             "mva=1", "height=0", "lqr=0", "prenex_existential=true"]
    assert run(["--format", "machine", "check", "--structure", files["graph"],
                "--formula", "Ey.E(x,y) & P0(x)"], capsys) == (
        0, "".join(line + "\n" for line in lines))


def test_encode_decode_round_trip(files, capsys):
    code, out = run(["--format", "machine", "encode",
                     "--structure", files["graph"]], capsys)
    assert code == 0
    encoding = out.strip().split("=", 1)[1]
    code, out = run(["decode", "--sig", files["sig"], "--text", encoding], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3 and doc["relations"]["E"] == [[0, 1], [1, 2]]


def test_jencode_worked_example(capsys):
    code, out = run(["jencode", "--n", "8", "--tuples", "(1,3)(1,0)(2,0)"], capsys)
    assert code == 0 and out == "bits: 110000\n"
    code, out = run(["jencode", "--n", "8", "--tuples", "(1,3)(1,0)(2,0)",
                     "--as-set"], capsys)
    assert code == 0 and out == "bits: 001100\n"


def test_jdecode_worked_example(capsys):
    code, out = run(["jdecode", "--n", "8", "--bits", "110000"], capsys)
    assert code == 0 and out == "tuples: (0,3)(1,0)(2,0)\n"


def test_build_jred_and_apply(files, tmp_path, capsys):
    code, out = run(["build-jred", "--r", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["width"] == 6
    interp_path = tmp_path / "red.json"
    interp_path.write_text(out)
    code, out = run(["interp-transform", "--interp", str(interp_path),
                     "--formula", "Ex.PH(x)"], capsys)
    assert code == 0 and out.startswith("formula: ")


def test_interp_apply_of_the_j_reduction(tmp_path, capsys):
    # build-jred's interpretation sends (u, R1) to the string u#J(R1)
    u, r1 = "01101", {(0, 1), (2, 4), (4, 3)}
    source = Structure(STR_SIG.extended(("R1", 2)), len(u), {**core.from_text(u).rels, "R1": r1})
    red, pair = tmp_path / "jred.json", tmp_path / "pair.json"
    save_structure(source, str(pair))
    code, doc = run(["build-jred", "--r", "1"], capsys)
    assert code == 0
    red.write_text(doc)
    code, out = run(["interp-apply", "--interp", str(red), "--structure", str(pair)], capsys)
    assert code == 0
    image = core.structure_from_json(json.loads(out))
    assert core.render(image) == u + "#" + encode.j_encode(len(u), frozenset(r1))


def test_pebble_and_game(files, capsys):
    code, out = run(["pebble", "--a", files["e2"], "--b", files["e3"],
                     "--s", "2"], capsys)
    assert code == 0 and "winner: Duplicator" in out
    code, out = run(["pebble", "--a", files["e2"], "--b", files["e3"],
                     "--s", "3"], capsys)
    assert code == 0 and "winner: Spoiler" in out
    code, out = run(["game", "--a", files["e2"], "--b", files["e3"],
                     "--m", "0", "--r", "1", "--k", "1", "--s", "2",
                     "--sample", "20", "--seed", "5"], capsys)
    assert code == 0 and "winner: Duplicator" in out
    assert "distinguishing: 0" in out


def test_even_demo(files, capsys):
    code, out = run(["even-demo", "--m", "1", "--r", "1", "--k", "1",
                     "--s", "1"], capsys)
    assert code == 0
    assert "n_a: 10" in out and "n_b: 11" in out
    assert "winner: Duplicator" in out
    assert "fresh_strategy_verified: true" in out


def test_gc_run(capsys):
    code, out = run(["gc-run", "--string", "1111", "--k", "1", "--c", "1",
                     "--formula", "Ex.P0(x)"], capsys)
    assert code == 0
    assert "accepted: true" in out and "witness: 0" in out


def test_usage_error_exit_code(capsys):
    assert cli.run_command([]) == 1
    capsys.readouterr()
    assert cli.run_command(["eval", "--formula", "Ex. x=x"]) == 1
    capsys.readouterr()


def test_input_error_exit_code(files, capsys):
    for argv in (["eval", "--structure", files["graph"], "--formula", "Ex. x="],
                 ["eval", "--structure", "/nonexistent.json", "--formula", "Ex. x=x"],
                 ["jencode", "--n", "8", "--tuples", "(0,9)"]):
        code, out, err = run_with_stderr(argv, capsys)
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text,position", [
    ("x=" + "1" * 5000, 2),
    ("E2log[" + "1" * 5000 + "] X:1 . Ex.X(x)", 6),
], ids=["literal", "exponent"])
def test_integer_past_the_int_string_limit_exit_code(tmp_path, capsys, text, position):
    path = tmp_path / "long.txt"
    path.write_text(text)
    assert run_with_stderr(["check", "--formula-file", str(path)], capsys) == (
        2, "", f"error: FormulaSyntaxError: at position {position}: expected at most "
               f"{sys.get_int_max_str_digits()} digits, found '5000 digits'\n")


@pytest.mark.parametrize("argv,doc,kind", [
    (["eval", "--formula", "Ex. x=x", "--structure"], {"n": 3, "relations": {}}, "structure"),
    (["eval", "--formula", "Ex. x=x", "--structure"], {"signature": [["E", 2]], "n": "x"},
     "structure"),
    (["check", "--formula", "x=x", "--sig"], {"ordered": True}, "signature"),
    (["interp-transform", "--formula", "x=x", "--interp"], {"width": 1}, "interpretation"),
    # numbers past float range (JSON 1e400) read back as inf, a float, which is no integer
    (["eval", "--formula", "Ex. x=x", "--structure"],
     {"signature": [["E", 2]], "n": float("inf")}, "structure"),
    (["eval", "--formula", "Ex. x=x", "--structure"],
     {"signature": [["E", float("inf")]], "n": 3}, "structure"),
    (["check", "--formula", "x=x", "--sig"], {"signature": [["E", float("inf")]]}, "signature"),
    (["interp-apply", "--structure", "unread.json", "--interp"], {"width": float("inf")},
     "interpretation"),
    # a float arity, domain size or width is not truncated to an integer
    (["eval", "--formula", "Ex.Ey.E(x,y)", "--structure"],
     {"signature": [["E", 2.9]], "ordered": False, "n": 3.7, "relations": {"E": [[0, 2]]}},
     "structure"),
    (["eval", "--formula", "Ex.Ey.E(x,y)", "--structure"],
     {"signature": [["E", 2]], "ordered": False, "n": 3.7, "relations": {"E": [[0, 2]]}},
     "structure"),
    (["check", "--formula", "x=x", "--sig"], {"signature": [["E", 2.9]]}, "signature"),
    (["interp-apply", "--structure", "unread.json", "--interp"], {"width": 7.5},
     "interpretation"),
])
def test_malformed_document_exit_code(tmp_path, capsys, argv, doc, kind):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_with_stderr(argv + [str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: ParseError: malformed {kind} document")


@pytest.mark.parametrize("argv", [
    ["eval", "--formula", "Ex.Ey.E(x,y)", "--structure"],
    ["encode", "--structure"],
])
def test_non_integer_component_exit_code(tmp_path, capsys, argv):
    path = tmp_path / "float.json"
    path.write_text('{"signature": [["E", 2]], "n": 3, "relations": {"E": [[0, 1.5]]}, '
                    '"ordered": true}')
    assert run_with_stderr(argv + [str(path)], capsys) == (
        2, "", "error: OutOfRange: component 1.5 of E(0, 1.5) not in [0,3)\n")


@pytest.mark.parametrize("argv", [
    ["check", "--formula-file"],
    ["check", "--formula", "x=x", "--sig"],
    ["eval", "--formula", "Ex. x=x", "--structure"],
    ["encode", "--structure"],
])
def test_non_utf8_file_exit_code(tmp_path, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes("{\"n\": 3} # \u00e9".encode("latin-1"))
    code, out, err = run_with_stderr(argv + [str(path)], capsys)
    assert code == 2 and out == "" and err.startswith("error: UnicodeDecodeError: ")


def test_log_quantified_signature_name_exit_code(capsys):
    code, out, err = run_with_stderr(["eval", "--string", "1111",
                                      "--formula", "E2log[1] P0:1 . Ex. P0(x)"], capsys)
    assert code == 2 and out == "" and "UnknownRelation" in err


# formulas that together use all 13 node kinds and both constant terms, and
# rejected ones, with the exit code and machine-format output of `check` on
# the string signature
CHECK_GOLDEN = [
    ("E2log[2] X:2 . A2log[1] Y:1 . Ax. Ey. ((X(x,y) & !Y(x)) | x=0 -> BIT(y,x) & x<logn)", 0, [
        "formula=E2log[2] X:2 . A2log[1] Y:1 . Ax. Ey. (((X(x,y) & !Y(x)) | x=0) -> (BIT(y,x) & x<logn))",
        "free_element_vars=-",
        "free_relation_vars=-",
        "mva=2",
        "height=2",
        "lqr=2",
        "prenex_existential=false",
    ]),
    ("ifp[Z(u,v) <- P1(u) & u<v | Ew.(Z(u,w) & Z(w,v))](x,1)", 0, [
        "formula=ifp[Z(u,v) <- ((P1(u) & u<v) | (Ew. (Z(u,w) & Z(w,v))))](x,1)",
        "free_element_vars=x",
        "free_relation_vars=-",
        "mva=0",
        "height=0",
        "lqr=0",
        "prenex_existential=true",
    ]),
    ("!(E2log[1] X:1 . Ex. X(x)) | Q(y,z) -> Ay. PH(y)", 0, [
        "formula=((!(E2log[1] X:1 . Ex. X(x)) | Q(y,z)) -> (Ay. PH(y)))",
        "free_element_vars=y,z",
        "free_relation_vars=Q:2",
        "mva=2",
        "height=1",
        "lqr=1",
        "prenex_existential=false",
    ]),
    ("A2log[3] X:1 . E2log[1] Y:3 . Ex. (X(x) -> Y(x,x,z))", 0, [
        "formula=A2log[3] X:1 . E2log[1] Y:3 . Ex. (X(x) -> Y(x,x,z))",
        "free_element_vars=z",
        "free_relation_vars=-",
        "mva=3",
        "height=3",
        "lqr=2",
        "prenex_existential=false",
    ]),
    ("Ex. (E2log[1] X:1 . X(x)) & E2log[2] Y:2 . Y(x,x)", 0, [
        "formula=Ex. ((E2log[1] X:1 . X(x)) & (E2log[2] Y:2 . Y(x,x)))",
        "free_element_vars=-",
        "free_relation_vars=-",
        "mva=2",
        "height=2",
        "lqr=1",
        "prenex_existential=false",
    ]),
    ("x @ y", 2, [
        "error=FormulaSyntaxError: at position 2: expected a token, found '@'",
    ]),
    ("P0(x,y)", 2, [
        "error=ArityMismatch: P0 expects 1 args, got 2",
    ]),
    ("ifp[P0(u) <- u=u](x)", 2, [
        "error=UnknownRelation: ifp variable P0 shadows a signature relation",
    ]),
    ("Y(x) & Y(x,y)", 2, [
        "error=ArityMismatch: relation variable Y used with arities 1 and 2",
    ]),
    ("E logn . x=x", 2, [
        "error=FormulaSyntaxError: at position 2: expected an element variable, found 'logn'",
    ]),
    ("Elogn. logn=0", 2, [
        "error=FormulaSyntaxError: at position 0: expected an element variable, found 'logn'",
    ]),
    ("Alogn. x=x", 2, [
        "error=FormulaSyntaxError: at position 0: expected an element variable, found 'logn'",
    ]),
]


# winners and surviving positions recorded from the elimination-loop pebble
# solver; nodes and spoiler moves from relation moves played one per orbit
GAME_GOLDEN = [
    (["even-demo", "--m", "1", "--r", "1", "--k", "1", "--s", "1"],
     ["n_a: 10", "n_b: 11", "winner: Duplicator", "nodes: 670",
      "fresh_strategy_verified: true"]),
    (["even-demo", "--m", "0", "--r", "1", "--k", "1", "--s", "2"],
     ["n_a: 10", "n_b: 11", "winner: Duplicator", "nodes: 110",
      "fresh_strategy_verified: true"]),
    (["pebble", "--a", "e2", "--b", "e3", "--s", "2"],
     ["winner: Duplicator", "surviving_positions: 13"]),
    (["pebble", "--a", "e2", "--b", "e3", "--s", "3"],
     ["winner: Spoiler", "surviving_positions: 0"]),
    (["pebble", "--a", "graph", "--b", "graph", "--s", "2"],
     ["winner: Duplicator", "surviving_positions: 7"]),
    (["game", "--a", "e2", "--b", "e3", "--m", "1", "--r", "1", "--k", "1", "--s", "1",
      "--sample", "10", "--seed", "3"],
     ["winner: Duplicator", "sampled: 10", "distinguishing: 0", "nodes: 35"]),
    # at three pebbles Spoiler wins, and a sampled sentence tells 2 elements from 3
    (["game", "--a", "e2", "--b", "e3", "--m", "0", "--r", "1", "--k", "1", "--s", "3",
      "--sample", "20", "--seed", "26"],
     ["winner: Spoiler", "sampled: 20", "distinguishing: 1",
      "sentence: Ev1. Ev2. Av0. (v0=v2 | v0=v1)", "nodes: 6"]),
    # two relation moves: the transcript names the side of each deciding move
    (["game", "--a", "e2", "--b", "e3", "--m", "2", "--r", "1", "--k", "1", "--s", "1"],
     ["winner: Spoiler", "nodes: 216"]
     + ["spoiler_move: " + json.dumps({"arity": 1, "k": 1, "moves_left": left,
                                       "relation": rel, "side": side}, sort_keys=True)
        for left, rel, side in ((1, [[1]], "B"), (1, [], "A"), (1, [[0]], "B"),
                                (2, [[0]], "A"))]),
    # the separation instance of the paper at two pebbles
    (["even-demo", "--m", "1", "--r", "1", "--k", "1", "--s", "2"],
     ["n_a: 22", "n_b: 23", "winner: Duplicator", "nodes: 3554",
      "fresh_strategy_verified: true"]),
    # and at three pebbles, where the fresh check takes one position and one
    # challenge per orbit of the permutations of unmentioned elements
    (["even-demo", "--m", "1", "--r", "1", "--k", "1", "--s", "3"],
     ["n_a: 38", "n_b: 39", "winner: Duplicator", "nodes: 11870",
      "fresh_strategy_verified: true"]),
]


@pytest.mark.parametrize("argv,lines", GAME_GOLDEN)
def test_game_golden_output(argv, lines, files, capsys):
    argv = [files.get(arg, arg) for arg in argv]
    assert run(argv, capsys) == (0, "".join(line + "\n" for line in lines))


@pytest.mark.parametrize("text,code,lines", CHECK_GOLDEN)
def test_check_golden_output(text, code, lines, capsys):
    doc = "".join(line + "\n" for line in lines)  # an error line goes to standard error
    assert run_with_stderr(["--format", "machine", "check", "--formula", text], capsys) == \
        ((code, "", doc) if code else (code, doc, ""))


def test_resource_limit_exit_code(tmp_path, capsys):
    a = Structure(DIGRAPH, 10, {})
    b = Structure(DIGRAPH, 11, {})
    pa, pb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_structure(a, pa)
    save_structure(b, pb)
    code, out, err = run_with_stderr(["game", "--a", pa, "--b", pb, "--m", "1", "--r", "1",
                                      "--k", "1", "--s", "1", "--budget", "500"], capsys)
    assert code == 3 and "error" not in out and err.startswith("error: resource limit: ")


def test_even_demo_budget_bounds_the_fresh_strategy_check(capsys, monkeypatch):
    """--budget bounds the fresh-strategy check's challenges apart from the
    solver's nodes: with the solver given its default budget, a budget of 10
    stops the check, and the command exits 3 naming it."""
    solve = game.game_winner
    monkeypatch.setattr(game, "game_winner", lambda a, b, params, budget: solve(a, b, params))
    assert run_with_stderr(["even-demo", "--m", "1", "--r", "1", "--k", "1", "--s", "1",
                            "--budget", "10"], capsys) == (
        3, "n_a: 10\nn_b: 11\nwinner: Duplicator\nnodes: 670\n",
        "error: resource limit: fresh-strategy check: budget 10 exceeded\n")


def test_outputs_are_deterministic(files, capsys):
    commands = [
        ["eval", "--structure", files["graph"], "--formula", "Ex. x=x"],
        ["--format", "machine", "encode", "--structure", files["graph"]],
        ["jencode", "--n", "8", "--tuples", "(1,3)(1,0)(2,0)"],
        ["jdecode", "--n", "8", "--bits", "110000"],
        ["build-jred", "--r", "2"],
        ["pebble", "--a", files["e2"], "--b", files["e3"], "--s", "2"],
        ["game", "--a", files["e2"], "--b", files["e3"],
         "--m", "1", "--r", "1", "--k", "1", "--s", "1",
         "--sample", "10", "--seed", "3"],
    ]
    for argv in commands:
        first = run(argv, capsys)
        second = run(argv, capsys)
        assert first == second


@pytest.mark.parametrize("argv,code,head", [
    # parsing, validating and printing have no nesting limit
    (["check", "--formula", "(" * 400 + "x=x" + ")" * 400], 0, "formula=x=x\n"),
    (["check", "--formula", "!" * 2000 + "x=x"], 0, "formula="),
], ids=["parentheses", "negations"])
def test_recursion_limit_exit_code(argv, code, head, capsys):
    got, out = run(["--format", "machine"] + argv, capsys)
    assert got == code and out.startswith(head)


@pytest.mark.parametrize("count,result", [(2000, "true"), (2001, "false")])
def test_eval_nested_negations(tmp_path, count, result, capsys):
    # `!!g` evaluates as g, so no nesting of `!` reaches the recursion limit
    negations = tmp_path / "negations.txt"
    negations.write_text("Ex. " + "!" * count + "x=x")
    code, out = run(["--format", "machine", "eval", "--string", "01",
                     "--formula-file", str(negations)], capsys)
    assert code == 0 and out == f"result={result}\n"


def test_check_quantifier_prefix(tmp_path, capsys):
    prefix = tmp_path / "prefix.txt"
    prefix.write_text("Ex. " * 1000 + "x=x")
    code, out = run(["--format", "machine", "check", "--formula-file", str(prefix)], capsys)
    assert code == 0 and out.startswith("formula=" + "Ex. " * 1000 + "x=x\n")


@pytest.mark.parametrize("head", ["Ex. ", "Ax. "])
def test_eval_quantifier_prefix(tmp_path, capsys, head):
    prefix = tmp_path / "prefix.txt"
    prefix.write_text(head * 1000 + "x=x")
    assert run(["eval", "--string", "01", "--formula-file", str(prefix)],
               capsys) == (0, "result: true\n")


def test_interp_transform_deep_conjunction(tmp_path, capsys):
    code, doc = run(["build-jred", "--r", "1"], capsys)
    assert code == 0
    red, chain = tmp_path / "jred.json", tmp_path / "chain.txt"
    red.write_text(doc)
    chain.write_text("Ex. " + " & ".join(["P1(x)"] * 3000))
    code, out = run(["--format", "machine", "interp-transform", "--interp", str(red),
                     "--formula-file", str(chain)], capsys)
    assert code == 0 and out.startswith("formula=Ex_0. Ex_1. ")


@pytest.mark.parametrize("text", [
    "Ex. " + " & ".join(["P1(x)"] * 3000),
    "Ex.Ey.(" + " & ".join(["(P1(x) | x<y)"] * 2000) + " & P0(y))",
], ids=["scanned-chain", "ranged-chain"])
def test_eval_deep_generation(tmp_path, capsys, text):
    # the solutions of a long conjunction are generated from one stack, not
    # from one Python frame per member
    chain = tmp_path / "chain.txt"
    chain.write_text(text)
    assert run(["--format", "machine", "eval", "--string", "01", "--formula-file", str(chain)],
               capsys) == (0, "result=true\n")


def test_eval_deep_conjunction(tmp_path, capsys):
    chain = tmp_path / "chain.txt"
    chain.write_text("Ex. " + " & ".join(["x=x"] * 3000))
    assert run(["--format", "machine", "eval", "--string", "01", "--formula-file", str(chain)],
               capsys) == (0, "result=true\n")


@pytest.mark.parametrize("argv", [
    ["jencode", "--n", "8", "--tuples", "(a,b)"],
    ["gc-run", "--string", "0101", "--k", "-1", "--c", "1", "--formula", "Ex. P0(x)"],
    ["gc-run", "--string", "0", "--k", "-1", "--c", "1", "--formula", "Ex. P0(x)"],
    ["eval", "--string", "", "--formula", "Ex. x=x"],
    ["check", "--formula-file", ""],
    ["gc-run", "--string", "01", "--k", "1", "--c", "-1", "--formula", "Ex. P0(x)"],
    ["jdecode", "--n", "4", "--bits", "2"],
    ["jdecode", "--n", "8", "--bits", "110000", "--k", "-1"],
    # BIG: a structure document with a tuple component past Python's int-string limit
    ["encode", "--structure", "BIG"],
    ["pebble", "--a", "BIG", "--b", "BIG", "--s", "1"],
    ["check", "--formula", "x=x", "--sig", "BIG"],
    ["interp-transform", "--formula", "x=x", "--interp", "BIG"],
])
def test_bad_arguments_exit_code(argv, tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text('{"signature": [["E", 2]], "n": 3, "relations": {"E": [[%s, 0]]}}'
                   % ("1" * 5001))
    code, out, err = run_with_stderr([str(big) if arg == "BIG" else arg for arg in argv], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


# --- property: any argv ends with exit code 0-3 and no traceback ---

_ATOMS = ["x=y", "x<y", "P0(x)", "P1(y)", "X(x)", "BIT(x,y)", "x=0", "y<logn", "Q(x)", "S(x)"]
_TOKENS = _ATOMS + ["Ex.", "Ay.", "(", ")", "&", "|", "->", "!", "=", "x", ",", "E2log[1]",
                    "X:1", ".", "ifp[", "]", "<-", "[", "3", " "]


def _formulas(log: bool):
    quantifiers = ["Ex. ", "Ay. "] + (["E2log[1] X:1 . ", "A2log[1] X:1 . "] if log else [])
    valid = st.recursive(
        st.sampled_from(_ATOMS),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["&", "|", "->"]), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            inner.map(lambda g: f"!({g})"),
            st.tuples(st.sampled_from(quantifiers), inner).map("".join),
            inner.map(lambda g: f"ifp[S(x) <- {g}](y)"),
        ),
        max_leaves=4,
    )
    valid = st.tuples(st.sampled_from(["", "Ex. Ay. "]), valid).map("".join)
    soup = st.lists(st.sampled_from([t for t in _TOKENS if log or "2log" not in t]),
                    max_size=10).map(" ".join)
    return st.one_of(valid, soup)


def _small_ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _strings(alphabet):
    return st.one_of(st.text(alphabet, min_size=1, max_size=4), st.text(alphabet + "x", max_size=2))


_ARGV = st.one_of(
    st.tuples(st.just(["check", "--formula"]), _formulas(True)).map(
        lambda t: t[0] + [t[1]]),
    st.tuples(_strings("01#[]"), _formulas(True)).map(
        lambda t: ["eval", "--string", t[0], "--formula", t[1]]),
    st.tuples(_small_ints(-1, 9), st.text("(),0123-a", max_size=10), st.booleans()).map(
        lambda t: ["jencode", "--n", t[0], "--tuples", t[1]] + ["--as-set"] * t[2]),
    st.tuples(_small_ints(-1, 9), st.text("01x", max_size=8), _small_ints(-1, 2)).map(
        lambda t: ["jdecode", "--n", t[0], "--bits", t[1], "--k", t[2]]),
    _small_ints(-1, 3).map(lambda r: ["build-jred", "--r", r]),
    st.tuples(_strings("01#"), _small_ints(-1, 1), _small_ints(-1, 2),
              _formulas(False)).map(
        lambda t: ["gc-run", "--string", t[0], "--k", t[1], "--c", t[2], "--formula", t[3]]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.booleans(), _ARGV)
def test_cli_exit_codes_on_arbitrary_arguments(machine, argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.run_command(["--format", "machine"] * machine + argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in sink.getvalue()
