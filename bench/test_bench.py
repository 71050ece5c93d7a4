"""Hand-worked cases for the benchmark's own oracles, and proof that each
workload's check rejects a corrupted answer.

    python3 -m pytest bench/test_bench.py
"""

import random
import time

import pytest

import oracles
from probe import HostSpeed
from run import fresh_import
from workloads import Formulas, Games, Jred, Modelcheck


@pytest.fixture(scope="module")
def m():
    return fresh_import()


def _workload(cls, m):
    wl = cls()
    wl.setup(m)
    return wl


def test_j_worked_example():
    assert oracles.j_sequence(8, [(1, 3), (1, 0), (2, 0)]) == "110000"
    # a relation is encoded with its pairs in lexicographic order
    assert oracles.j_relation(8, {(1, 3), (1, 0), (2, 0)}) == "001100"
    assert oracles.reduction_string("01", [{(0, 1)}]) == "01#"  # clog(2) - 1 = 0 bits


def test_read_string():
    assert oracles.read_string(3, {"P0": {(0,)}, "P1": {(1,)}, "PH": {(2,)}}) == "01#"
    assert oracles.read_string(2, {"P0": {(0,), (1,)}, "P1": {(1,)}}) is None
    assert oracles.read_string(2, {"P0": {(0,)}}) is None


def test_graph_search_on_a_path():
    path = {(0, 1), (1, 2), (2, 3)}
    assert oracles.reachable(4, path) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    assert oracles.reachable(3, {(0, 1), (1, 0)}) == {(0, 1), (0, 0), (1, 0), (1, 1)}
    assert oracles.one_step_edges("1101") == {(0, 1), (1, 2)}
    assert oracles.ifp_sentence_truth("11[1")


def test_log_quantified_brute_force():
    # four 1s beat ceil(log 6) = 3 loops; two do not
    assert oracles.all_bounded_miss_a_one_loop("1111[]", 1)
    assert not oracles.all_bounded_miss_a_one_loop("11[]0]", 1)
    # #1s * #0s = 2 <= ceil(log 3) = 2, 4 > ceil(log 4) = 2
    assert oracles.some_bounded_equals_one_zero_pairs("100", 1)
    assert not oracles.some_bounded_equals_one_zero_pairs("1010", 1)


def test_gc_witness():
    assert oracles.first_gc_witness("0[]1", 6) == "0110"
    assert oracles.first_gc_witness("1[]0", 6) == "11"
    assert oracles.first_gc_witness("0[]1", 3) is None
    assert not oracles.gc_predicate("0[]1", "110")


def test_even_instance_sizes():
    assert oracles.even_sizes(1, 1, 1, 1) == (10, 11)
    assert oracles.even_sizes(0, 1, 1, 1) == (6, 7)


def test_edgeless_pebble_games():
    assert oracles.edgeless_winner(2, 3, 2) == "Duplicator"
    assert oracles.edgeless_winner(2, 3, 3) == "Spoiler"
    assert oracles.edgeless_winner(3, 3, 5) == "Duplicator"


def test_two_variable_sentences():
    loop, no_loop = {(0, 0)}, {(0, 1)}
    assert oracles.separating_sentence(2, loop, 2, no_loop) == ("ex", "x", ("E", "x", "x"))
    assert oracles.separating_sentence(2, no_loop, 2, {(1, 0)}) is None
    assert oracles.is_isomorphism([1, 0], no_loop, {(1, 0)})
    assert not oracles.is_isomorphism([0, 1], no_loop, {(1, 0)})


def test_logifp_agrees_with_the_two_variable_evaluator(m):
    rng = random.Random(7)
    sig = m.core.Signature((("E", 2),), ordered=False)
    text = {"E": lambda f: f"E({f[1]},{f[2]})", "=": lambda f: f"{f[1]}={f[2]}"}

    def render(f):
        op = f[0]
        if op in text:
            return text[op](f)
        if op == "not":
            return f"!({render(f[1])})"
        if op in ("and", "or"):
            return f"({render(f[1])} {'&' if op == 'and' else '|'} {render(f[2])})"
        return f"{'E' if op == 'ex' else 'A'}{f[1]}.({render(f[2])})"

    for _ in range(20):
        edges = {(x, y) for x in range(3) for y in range(3) if rng.random() < 0.4}
        a = m.core.Structure(sig, 3, {"E": edges})
        for f in oracles.TWO_VARIABLE_SENTENCES:
            assert m.evaluate.evaluate(a, m.formula.parse_formula(render(f))) \
                == oracles.holds(3, edges, f)


# --- every check rejects a corrupted answer ---


def test_jred_check(m):
    wl = _workload(Jred, m)
    inp = wl.make_input(random.Random(1))
    out = wl.op(inp)
    assert wl.check(inp, out)
    rels = {p: set(ts) for p, ts in out.rels.items()}
    pos = next(iter(rels["P0"] or rels["P1"]))
    flip = ("P0", "P1") if pos in rels["P0"] else ("P1", "P0")
    rels[flip[0]].discard(pos)
    rels[flip[1]].add(pos)
    assert not wl.check(inp, m.core.Structure(out.sig, out.n, rels))


def test_modelcheck_check(m):
    wl = _workload(Modelcheck, m)
    inp = wl.make_input(random.Random(1))
    out = wl.op(inp)
    assert wl.check(inp, out)
    answers, (found, witness) = out
    for i in range(len(answers)):
        wrong = list(answers)
        wrong[i] = not wrong[i]
        assert not wl.check(inp, (wrong, (found, witness)))
    assert not wl.check(inp, (answers, (found, witness + "0")))
    assert not wl.check(inp, (answers, (False, None)))


def test_games_check(m):
    wl = _workload(Games, m)
    inp = wl.make_input(random.Random(1))
    (g, perm, relabelled), (n_a, n_b, s), (sep_a, sep_b) = inp
    duplicator, spoiler = m.game.Winner.DUPLICATOR, m.game.Winner.SPOILER
    edgeless = duplicator if oracles.edgeless_winner(n_a, n_b, s) == "Duplicator" else spoiler
    right = [(10, 11), duplicator, {"winner": "Duplicator", "nodes": 1}, True,
             duplicator, edgeless, spoiler]
    assert wl.check(inp, tuple(right))
    corrupted = {0: (10, 12), 1: spoiler, 2: {"winner": "Spoiler", "nodes": 1}, 3: False,
                 4: spoiler, 5: spoiler if edgeless is duplicator else duplicator,
                 6: duplicator}
    for i, value in corrupted.items():
        wrong = list(right)
        wrong[i] = value
        assert not wl.check(inp, tuple(wrong)), i


def test_formulas_check(m, monkeypatch):
    wl = _workload(Formulas, m)
    inp = wl.make_input(random.Random(1))
    red, translated = wl.op(inp)
    assert wl.check(inp, (red, translated))
    g, free, printed, reparsed = translated[0]
    for bad in [(g, free, printed, m.formula.Not(reparsed)),
                (g, (frozenset({"x"}), {}), printed, reparsed)]:
        assert not wl.check(inp, (red, [bad] + translated[1:]))
    assert not wl.check(inp, (m.interp.build_J_reduction(2), translated))
    # a backward translation that breaks the fundamental property
    translate = m.interp.transform_formula
    monkeypatch.setattr(m.interp, "transform_formula",
                        lambda f, i: m.formula.Not(translate(f, i)))
    assert not wl.check(inp, (red, translated))


def test_host_speed_windows():
    speed = HostSpeed()
    for t, seconds in [(1.0, 0.002), (1.2, 0.004), (1.4, 0.003), (3.0, 0.010)]:
        speed.starts.append(t)
        speed.seconds.append(seconds)
        speed.paused.append(speed.paused[-1] + seconds)
    # an operation from 1.1 to 1.3 contains the handler run at 1.2 only
    assert speed.paused_s(1.1, 1.3) == pytest.approx(0.004)
    assert speed.paused_s(1.5, 2.9) == 0.0
    # reference time: mean of the samples within 0.5 s of the operation
    assert speed.reference_s(1.1, 1.3) == pytest.approx(0.003)
    # none within 0.5 s: the nearest sample
    assert speed.reference_s(2.2, 2.3) == pytest.approx(0.010)


def test_host_speed_samples_while_active():
    speed = HostSpeed(interval=0.01)
    with speed:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(speed.starts) >= 3  # one on entry, then one per interval
    assert speed.paused[-1] == pytest.approx(sum(speed.seconds), rel=0.5)
    assert speed.paused_s(speed.starts[0], speed.starts[-1]) > 0
