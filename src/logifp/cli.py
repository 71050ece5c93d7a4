"""Command-line front end.

Exit codes: 0 computed, 1 usage error, 2 input error, 3 resource limit.
Output is a single result document, either human text (default) or
line-oriented key=value pairs with --format machine; exit codes 2 and 3
write one `error` line in the same format on standard error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import core, encode, formula, game, interp
from .errors import LogifpError, ParseError, ResourceLimit
from .evaluate import evaluate as eval_formula, gc_check


def _load_formula(args) -> formula.Formula:
    if args.formula_file is None:
        return formula.parse_formula(args.formula)
    with open(args.formula_file, "r", encoding="utf-8") as fh:
        return formula.parse_formula(fh.read().strip())


def _sig_from_file(path: str) -> core.Signature:
    doc = core.read_json(path, "signature")
    with core.malformed("signature"):
        return core.signature_from_json(doc, "signature" if "signature" in doc else "relations")


def _check(args, emit):
    f = _load_formula(args)
    sig = core.STR_SIG
    if args.structure:
        sig = core.load_structure(args.structure).sig
    elif args.sig:
        sig = _sig_from_file(args.sig)
    free_elem, free_rel = formula.validate(f, sig)
    m = formula.metrics(f, sig)
    emit("formula", formula.pretty(f))
    emit("free_element_vars", ",".join(sorted(free_elem)) or "-")
    emit("free_relation_vars", ",".join(f"{n}:{a}" for n, a in sorted(free_rel.items())) or "-")
    for key in ("mva", "height", "lqr", "prenex_existential"):
        emit(key, getattr(m, key))


def _eval(args, emit):
    if args.string is not None:
        a = core.from_text(args.string)
    else:
        a = core.load_structure(args.structure)
    f = _load_formula(args)
    formula.validate(f, a.sig)
    emit("result", eval_formula(a, f))


def _encode(args, emit):
    emit("encoding", encode.enc_structure(core.load_structure(args.structure)))


def _decode(args, emit):
    a = encode.dec_structure(args.text, _sig_from_file(args.sig))
    print(json.dumps(core.structure_to_json(a), sort_keys=True))


def _jencode(args, emit):
    try:
        tuples = [tuple(int(p) for p in group.split(",") if p.strip() != "")
                  for group in re.findall(r"\(([^)]*)\)", args.tuples)]
    except ValueError as exc:
        raise ParseError(f"bad tuple list {args.tuples!r}: {exc}") from exc
    emit("bits", encode.j_encode(args.n, frozenset(tuples) if args.as_set else tuples))


def _jdecode(args, emit):
    rel = encode.j_preimage(args.n, args.bits, args.k)
    emit("tuples", "".join(f"({a},{b})" for a, b in sorted(rel)) or "-")


def _interp_apply(args, emit):
    i = interp.load_interpretation(args.interp)
    a = interp.apply_interpretation(i, core.load_structure(args.structure))
    print(json.dumps(core.structure_to_json(a), sort_keys=True))


def _interp_transform(args, emit):
    i = interp.load_interpretation(args.interp)
    emit("formula", formula.pretty(interp.transform_formula(_load_formula(args), i)))


def _build_jred(args, emit):
    i = interp.build_J_reduction(args.r)
    print(json.dumps(interp.interpretation_to_json(i), sort_keys=True))


def _game(args, emit):
    a = core.load_structure(args.a)
    b = core.load_structure(args.b)
    params = game.GameParams(args.m, args.r, args.k, args.s)
    if args.sample > 0:
        report = game.equivalence_sampler(a, b, params, args.sample, args.seed, args.budget)
        emit("winner", report.winner)
        emit("sampled", report.trials)
        emit("distinguishing", len(report.distinguishing))
        for f in report.distinguishing[:5]:
            emit("sentence", formula.pretty(f))
        emit("nodes", report.transcript["nodes"])
    else:
        winner, transcript = game.game_winner(a, b, params, args.budget)
        emit("winner", winner)
        emit("nodes", transcript["nodes"])
        for move in transcript["moves"]:
            emit("spoiler_move", json.dumps(move, sort_keys=True))


def _pebble(args, emit):
    a = game.ExpandedStructure(core.load_structure(args.a))
    b = game.ExpandedStructure(core.load_structure(args.b))
    winner, region = game.pebble_game_winner(a, b, args.s)
    emit("winner", winner)
    emit("surviving_positions", len(region))


def _even_demo(args, emit):
    params = game.GameParams(args.m, args.r, args.k, args.s)
    n_a, n_b = game.even_instance(params)
    emit("n_a", n_a)
    emit("n_b", n_b)
    sig = core.Signature((("E", 2),), ordered=False)
    a, b = (core.Structure(sig, n, {}) for n in (n_a, n_b))
    winner, transcript = game.game_winner(a, b, params, args.budget)
    emit("winner", winner)
    emit("nodes", transcript["nodes"])
    emit("fresh_strategy_verified", game.verify_fresh_strategy(a, b, params, args.budget))


def _gc_run(args, emit):
    u = core.from_text(args.string)
    f = _load_formula(args)
    formula.validate(f, core.STR_SIG)
    found, witness = gc_check(u, args.k, args.c, lambda candidate: eval_formula(candidate, f))
    emit("accepted", found)
    emit("witness", witness if witness is not None else "-")


def _add_formula_args(sp):
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="formula text")
    group.add_argument("--formula-file", help="file containing the formula")


def _command(sub, name, run, text, parents=()):
    sp = sub.add_parser(name, help=text, parents=parents)
    sp.set_defaults(run=run)
    return sp


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="logifp")
    ap.add_argument("--format", choices=("text", "machine"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)
    # option groups that several subcommands share
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--a", required=True)
    pair.add_argument("--b", required=True)
    params = argparse.ArgumentParser(add_help=False)
    for name in ("--m", "--r", "--k", "--s"):
        params.add_argument(name, type=int, required=True)

    sp = _command(sub, "check", _check, "parse and validate a formula")
    _add_formula_args(sp)
    sp.add_argument("--structure", help="structure file supplying the signature")
    sp.add_argument("--sig", help="signature file")

    sp = _command(sub, "eval", _eval, "evaluate a sentence on a structure")
    _add_formula_args(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--structure", help="structure file")
    group.add_argument("--string", help="string structure given inline")

    sp = _command(sub, "encode", _encode, "enumerating encoding of an ordered structure")
    sp.add_argument("--structure", required=True)

    sp = _command(sub, "decode", _decode, "decode an encoding back to a structure")
    sp.add_argument("--sig", required=True, help="signature file")
    sp.add_argument("--text", required=True, help="bracket encoding")

    sp = _command(sub, "jencode", _jencode, "relation-to-bitstring encoding")
    sp.add_argument("--n", type=int, required=True, help="domain size")
    sp.add_argument("--tuples", required=True, help='e.g. "(1,3)(1,0)(2,0)"')
    sp.add_argument("--as-set", action="store_true",
                    help="sort tuples lexicographically first")

    sp = _command(sub, "jdecode", _jdecode, "canonical preimage of a bitstring")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--bits", required=True)
    sp.add_argument("--k", type=int, default=1)

    sp = _command(sub, "interp-apply", _interp_apply, "apply an interpretation to a structure")
    sp.add_argument("--interp", required=True)
    sp.add_argument("--structure", required=True)

    sp = _command(sub, "interp-transform", _interp_transform, "translate a formula backwards")
    sp.add_argument("--interp", required=True)
    _add_formula_args(sp)

    sp = _command(sub, "build-jred", _build_jred, "emit the relation-encoding reduction")
    sp.add_argument("--r", type=int, required=True, help="number of binary relations")

    sp = _command(sub, "game", _game, "solve the relation-move game", [pair, params])
    sp.add_argument("--budget", type=int, default=10_000_000)
    sp.add_argument("--sample", type=int, default=0,
                    help="also sample this many sentences for the report")
    sp.add_argument("--seed", type=int, default=0)

    sp = _command(sub, "pebble", _pebble, "solve the plain pebble game", [pair])
    sp.add_argument("--s", type=int, required=True)

    sp = _command(sub, "even-demo", _even_demo, "the EVEN separation instance", [params])
    sp.add_argument("--budget", type=int, default=10_000_000,
                    help="solver nodes; the fresh-strategy check's challenges count apart")

    sp = _command(sub, "gc-run", _gc_run, "guess-then-check with a formula checker")
    sp.add_argument("--string", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--c", type=int, required=True)
    _add_formula_args(sp)

    return ap


def run_command(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    sep = "=" if args.format == "machine" else ": "

    def emit(key: str, value, file=None) -> None:
        print(key, str(value).lower() if isinstance(value, bool) else value, sep=sep, file=file)

    try:
        args.run(args, emit)
    except (ResourceLimit, RecursionError) as exc:
        emit("error", f"resource limit: {exc}", sys.stderr)
        return 3
    except (LogifpError, OSError, UnicodeDecodeError) as exc:
        emit("error", f"{type(exc).__name__}: {exc}", sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
