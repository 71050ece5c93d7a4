"""Command-line front end: dispatch, formats, exit codes, determinism."""

import json

import pytest

from logifp import cli
from logifp.core import Signature, Structure, save_structure

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
    code = cli.run_command(argv)
    return code, capsys.readouterr().out


def test_eval_trivial_sentence(files, capsys):
    code, out = run(["eval", "--structure", files["graph"],
                     "--formula", "Ex. x=x"], capsys)
    assert code == 0
    assert out == "result: true\n"


def test_eval_inline_string(files, capsys):
    code, out = run(["eval", "--string", "01011",
                     "--formula", "E2log[1] X:1 . Eu.(X(u) & P1(u))"], capsys)
    assert code == 0 and "result: true" in out


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
    code, _ = run(["eval", "--structure", files["graph"],
                   "--formula", "Ex. x="], capsys)
    assert code == 2
    code, _ = run(["eval", "--structure", "/nonexistent.json",
                   "--formula", "Ex. x=x"], capsys)
    assert code == 2
    code, _ = run(["jencode", "--n", "8", "--tuples", "(0,9)"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv,doc,kind", [
    (["eval", "--formula", "Ex. x=x", "--structure"], {"n": 3, "relations": {}}, "structure"),
    (["eval", "--formula", "Ex. x=x", "--structure"], {"signature": [["E", 2]], "n": "x"},
     "structure"),
    (["check", "--formula", "x=x", "--sig"], {"ordered": True}, "signature"),
    (["interp-transform", "--formula", "x=x", "--interp"], {"width": 1}, "interpretation"),
])
def test_malformed_document_exit_code(tmp_path, capsys, argv, doc, kind):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(argv + [str(path)], capsys)
    assert code == 2 and out.startswith(f"error: ParseError: malformed {kind} document")


def test_log_quantified_signature_name_exit_code(capsys):
    code, out = run(["eval", "--string", "1111",
                     "--formula", "E2log[1] P0:1 . Ex. P0(x)"], capsys)
    assert code == 2 and "UnknownRelation" in out


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
]


# recorded from the elimination-loop pebble solver
GAME_GOLDEN = [
    (["even-demo", "--m", "1", "--r", "1", "--k", "1", "--s", "1"],
     ["n_a: 10", "n_b: 11", "winner: Duplicator", "nodes: 62878",
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
     ["winner: Duplicator", "sampled: 10", "distinguishing: 0", "nodes: 76"]),
]


@pytest.mark.parametrize("argv,lines", GAME_GOLDEN)
def test_game_golden_output(argv, lines, files, capsys):
    argv = [files.get(arg, arg) for arg in argv]
    assert run(argv, capsys) == (0, "".join(line + "\n" for line in lines))


@pytest.mark.parametrize("text,code,lines", CHECK_GOLDEN)
def test_check_golden_output(text, code, lines, capsys):
    assert run(["--format", "machine", "check", "--formula", text], capsys) == \
        (code, "".join(line + "\n" for line in lines))


def test_resource_limit_exit_code(tmp_path, capsys):
    a = Structure(DIGRAPH, 10, {})
    b = Structure(DIGRAPH, 11, {})
    pa, pb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_structure(a, pa)
    save_structure(b, pb)
    code, out = run(["game", "--a", pa, "--b", pb, "--m", "1", "--r", "1",
                     "--k", "1", "--s", "1", "--budget", "500"], capsys)
    assert code == 3 and "resource limit" in out


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


def test_subcommand_coverage_table():
    import importlib

    parser = cli.build_parser()
    import argparse
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli.SUBCOMMAND_OPS)
    modules = {short: importlib.import_module(f"logifp.{full}")
               for short, full in (("core", "core"), ("encode", "encode"),
                                   ("eval", "evaluate"), ("formula", "formula"),
                                   ("game", "game"), ("interp", "interp"))}
    for ops in cli.SUBCOMMAND_OPS.values():
        for op in ops:
            mod, name = op.split(".")
            assert hasattr(modules[mod], name), op
    reached = {op for ops in cli.SUBCOMMAND_OPS.values() for op in ops}
    for required in ("eval.evaluate", "eval.ifp_fixpoint", "encode.j_encode",
                     "encode.j_preimage", "encode.enc_structure",
                     "encode.dec_structure", "interp.apply_interpretation",
                     "interp.transform_formula", "interp.build_J_reduction",
                     "game.game_winner", "game.pebble_game_winner",
                     "game.even_instance", "game.verify_fresh_strategy",
                     "eval.gc_check", "eval.evaluate_via_bitstrings"):
        assert required in reached
