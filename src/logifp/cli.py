"""Command-line front end.

Exit codes: 0 computed, 1 usage error, 2 input error, 3 resource limit.
Output is a single result document, either human text (default) or
line-oriented key=value pairs with --format machine.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import core, encode, formula, game, interp
from .errors import LogifpError, ParseError, ResourceLimit
from .evaluate import evaluate as eval_formula
from .evaluate import gc_check


class _Output:
    def __init__(self, machine: bool):
        self.machine = machine

    def emit(self, key: str, value):
        if isinstance(value, bool):
            value = "true" if value else "false"
        if self.machine:
            print(f"{key}={value}")
        else:
            print(f"{key}: {value}")


def _load_formula(args) -> formula.Formula:
    if args.formula_file is not None:
        with open(args.formula_file, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    else:
        text = args.formula
    return formula.parse_formula(text)


def _load_input_structure(args) -> core.Structure:
    if args.string is not None:
        return core.from_text(args.string)
    return core.load_structure(args.structure)


def _parse_tuples(text: str) -> list:
    try:
        return [tuple(int(p) for p in group.split(",") if p.strip() != "")
                for group in re.findall(r"\(([^)]*)\)", text)]
    except ValueError as exc:
        raise ParseError(f"bad tuple list {text!r}: {exc}") from exc


def _sig_from_file(path: str) -> core.Signature:
    doc = core.read_json(path, "signature")
    try:
        return core.signature_from_json(doc, "signature" if "signature" in doc else "relations")
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(f"malformed signature document: {type(exc).__name__}: {exc}") from exc


def _add_formula_args(sp):
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="formula text")
    group.add_argument("--formula-file", help="file containing the formula")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="logifp")
    ap.add_argument("--format", choices=("text", "machine"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="parse and validate a formula")
    _add_formula_args(sp)
    sp.add_argument("--structure", help="structure file supplying the signature")
    sp.add_argument("--sig", help="signature file")

    sp = sub.add_parser("eval", help="evaluate a sentence on a structure")
    _add_formula_args(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--structure", help="structure file")
    group.add_argument("--string", help="string structure given inline")

    sp = sub.add_parser("encode", help="enumerating encoding of an ordered structure")
    sp.add_argument("--structure", required=True)

    sp = sub.add_parser("decode", help="decode an encoding back to a structure")
    sp.add_argument("--sig", required=True, help="signature file")
    sp.add_argument("--text", required=True, help="bracket encoding")

    sp = sub.add_parser("jencode", help="relation-to-bitstring encoding")
    sp.add_argument("--n", type=int, required=True, help="domain size")
    sp.add_argument("--tuples", required=True, help='e.g. "(1,3)(1,0)(2,0)"')
    sp.add_argument("--as-set", action="store_true",
                    help="sort tuples lexicographically first")

    sp = sub.add_parser("jdecode", help="canonical preimage of a bitstring")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--bits", required=True)
    sp.add_argument("--k", type=int, default=1)

    sp = sub.add_parser("interp-apply", help="apply an interpretation to a structure")
    sp.add_argument("--interp", required=True)
    sp.add_argument("--structure", required=True)

    sp = sub.add_parser("interp-transform", help="translate a formula backwards")
    sp.add_argument("--interp", required=True)
    _add_formula_args(sp)

    sp = sub.add_parser("build-jred", help="emit the relation-encoding reduction")
    sp.add_argument("--r", type=int, required=True, help="number of binary relations")

    sp = sub.add_parser("game", help="solve the relation-move game")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--budget", type=int, default=10_000_000)
    sp.add_argument("--sample", type=int, default=0,
                    help="also sample this many sentences for the report")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("pebble", help="solve the plain pebble game")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--s", type=int, required=True)

    sp = sub.add_parser("even-demo", help="the EVEN separation instance")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--budget", type=int, default=10_000_000,
                    help="solver nodes; the fresh-strategy check's challenges count apart")

    sp = sub.add_parser("gc-run", help="guess-then-check with a formula checker")
    sp.add_argument("--string", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--c", type=int, required=True)
    _add_formula_args(sp)

    return ap


def _sig_for_check(args) -> core.Signature:
    if args.structure:
        return core.load_structure(args.structure).sig
    if args.sig:
        return _sig_from_file(args.sig)
    return core.STR_SIG


def run_command(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    out = _Output(args.format == "machine")
    try:
        return _dispatch(args, out)
    except (ResourceLimit, RecursionError) as exc:
        out.emit("error", f"resource limit: {exc}")
        return 3
    except (LogifpError, OSError, UnicodeDecodeError) as exc:
        out.emit("error", f"{type(exc).__name__}: {exc}")
        return 2


def _dispatch(args, out: _Output) -> int:
    cmd = args.command

    if cmd == "check":
        f = _load_formula(args)
        sig = _sig_for_check(args)
        free_elem, free_rel = formula.validate(f, sig)
        m = formula.metrics(f, sig)
        out.emit("formula", formula.pretty(f))
        out.emit("free_element_vars", ",".join(sorted(free_elem)) or "-")
        out.emit("free_relation_vars",
                 ",".join(f"{n}:{a}" for n, a in sorted(free_rel.items())) or "-")
        out.emit("mva", m.mva)
        out.emit("height", m.height)
        out.emit("lqr", m.lqr)
        out.emit("prenex_existential", m.prenex_existential)
        return 0

    if cmd == "eval":
        a = _load_input_structure(args)
        f = _load_formula(args)
        formula.validate(f, a.sig)
        out.emit("result", eval_formula(a, f))
        return 0

    if cmd == "encode":
        a = core.load_structure(args.structure)
        out.emit("encoding", encode.enc_structure(a))
        return 0

    if cmd == "decode":
        sig = _sig_from_file(args.sig)
        a = encode.dec_structure(args.text, sig)
        print(json.dumps(core.structure_to_json(a), sort_keys=True))
        return 0

    if cmd == "jencode":
        tuples = _parse_tuples(args.tuples)
        s = frozenset(tuples) if args.as_set else tuples
        out.emit("bits", encode.j_encode(args.n, s))
        return 0

    if cmd == "jdecode":
        rel = encode.j_preimage(args.n, args.bits, args.k)
        out.emit("tuples", "".join(f"({a},{b})" for a, b in sorted(rel)) or "-")
        return 0

    if cmd == "interp-apply":
        i = interp.load_interpretation(args.interp)
        a = core.load_structure(args.structure)
        result = interp.apply_interpretation(i, a)
        print(json.dumps(core.structure_to_json(result), sort_keys=True))
        return 0

    if cmd == "interp-transform":
        i = interp.load_interpretation(args.interp)
        f = _load_formula(args)
        out.emit("formula", formula.pretty(interp.transform_formula(f, i)))
        return 0

    if cmd == "build-jred":
        i = interp.build_J_reduction(args.r)
        print(json.dumps(interp.interpretation_to_json(i), sort_keys=True))
        return 0

    if cmd == "game":
        a = core.load_structure(args.a)
        b = core.load_structure(args.b)
        params = game.GameParams(args.m, args.r, args.k, args.s)
        if args.sample > 0:
            report = game.equivalence_sampler(a, b, params, args.sample,
                                              args.seed, args.budget)
            out.emit("winner", report.winner)
            out.emit("sampled", report.trials)
            out.emit("distinguishing", len(report.distinguishing))
            for f in report.distinguishing[:5]:
                out.emit("sentence", formula.pretty(f))
            out.emit("nodes", report.transcript["nodes"])
        else:
            winner, transcript = game.game_winner(a, b, params, args.budget)
            out.emit("winner", winner)
            out.emit("nodes", transcript["nodes"])
            for move in transcript["moves"]:
                out.emit("spoiler_move", json.dumps(move, sort_keys=True))
        return 0

    if cmd == "pebble":
        a = core.load_structure(args.a)
        b = core.load_structure(args.b)
        winner, region = game.pebble_game_winner(
            game.ExpandedStructure(a), game.ExpandedStructure(b), args.s)
        out.emit("winner", winner)
        out.emit("surviving_positions", len(region))
        return 0

    if cmd == "even-demo":
        params = game.GameParams(args.m, args.r, args.k, args.s)
        n_a, n_b = game.even_instance(params)
        out.emit("n_a", n_a)
        out.emit("n_b", n_b)
        sig = core.Signature((("E", 2),), ordered=False)
        a = core.Structure(sig, n_a, {})
        b = core.Structure(sig, n_b, {})
        winner, transcript = game.game_winner(a, b, params, args.budget)
        out.emit("winner", winner)
        out.emit("nodes", transcript["nodes"])
        out.emit("fresh_strategy_verified",
                 game.verify_fresh_strategy(a, b, params, args.budget))
        return 0

    if cmd == "gc-run":
        u = core.from_text(args.string)
        f = _load_formula(args)
        formula.validate(f, core.STR_SIG)

        def checker(candidate):
            return eval_formula(candidate, f)

        found, witness = gc_check(u, args.k, args.c, checker)
        out.emit("accepted", found)
        out.emit("witness", witness if witness is not None else "-")
        return 0

    raise AssertionError(f"unhandled subcommand {cmd}")


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
