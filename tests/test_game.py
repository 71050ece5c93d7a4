"""Pebble games, relation moves, strategies, and the sentence sampler."""

import itertools
import random

import pytest

from logifp.core import Signature, Structure
from logifp.errors import HypothesisViolated, ResourceLimit, ShapeMismatch
from logifp.evaluate import evaluate
from logifp.formula import validate
from logifp.game import (
    ExpandedStructure,
    GameParams,
    Winner,
    equivalence_sampler,
    even_instance,
    game_winner,
    game_winner_stop_early,
    is_partial_isomorphism,
    pebble_game_winner,
    sample_sentence,
    verify_fresh_strategy,
)

DIGRAPH = Signature((("E", 2),), ordered=False)
ORDERED_DIGRAPH = Signature((("E", 2),), ordered=True)


def digraph(n, edges=(), ordered=False):
    return Structure(ORDERED_DIGRAPH if ordered else DIGRAPH, n,
                          {"E": set(edges)})


def test_game_params_validation():
    GameParams(0, 1, 1, 1)
    for bad in ((-1, 1, 1, 1), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)):
        with pytest.raises(ShapeMismatch):
            GameParams(*bad)


def test_partial_isomorphism_empty_map():
    a, b = digraph(2), digraph(3)
    assert is_partial_isomorphism(a, (), (), b, (), ())


def test_partial_isomorphism_with_extras():
    a, b = digraph(2), digraph(2)
    extra_a = ((1, frozenset({(0,)})),)
    extra_b = ((1, frozenset({(1,)})),)
    assert is_partial_isomorphism(a, extra_a, (0,), b, extra_b, (1,))
    assert not is_partial_isomorphism(a, extra_a, (0,), b, extra_b, (0,))


def test_partial_isomorphism_respects_relations_and_order():
    a = digraph(2, {(0, 1)})
    b = digraph(2)
    assert not is_partial_isomorphism(a, (), (0, 1), b, (), (0, 1))
    oa = digraph(3, ordered=True)
    ob = digraph(3, ordered=True)
    assert not is_partial_isomorphism(oa, (), (0, 1), ob, (), (1, 0))
    assert is_partial_isomorphism(oa, (), (0, 2), ob, (), (1, 2))


def test_partial_isomorphism_functional_and_injective():
    a, b = digraph(3), digraph(3)
    assert not is_partial_isomorphism(a, (), (0, 0), b, (), (0, 1))
    assert not is_partial_isomorphism(a, (), (0, 1), b, (), (2, 2))
    with pytest.raises(ShapeMismatch):
        is_partial_isomorphism(a, (), (0,), b, (), (0, 1))


def test_pebble_edgeless_two_versus_three():
    e2, e3 = ExpandedStructure(digraph(2)), ExpandedStructure(digraph(3))
    assert pebble_game_winner(e2, e3, 2)[0] is Winner.DUPLICATOR
    assert pebble_game_winner(e2, e3, 3)[0] is Winner.SPOILER


def test_pebble_one_edge_versus_edgeless():
    ea = ExpandedStructure(digraph(2, {(0, 1)}))
    eb = ExpandedStructure(digraph(2))
    assert pebble_game_winner(ea, eb, 2)[0] is Winner.SPOILER


def test_pebble_self_game_duplicator_small_exhaustive():
    pairs = list(itertools.product(range(3), repeat=2))
    for n in (1, 2, 3):
        cells = [(u, v) for u, v in pairs if u < n and v < n]
        for mask in range(1 << len(cells)):
            edges = {cells[i] for i in range(len(cells)) if mask >> i & 1}
            ea = ExpandedStructure(digraph(n, edges))
            for s in (1, 2, 3):
                assert pebble_game_winner(ea, ea, s)[0] is Winner.DUPLICATOR


def test_pebble_survivors_are_partial_isomorphisms_and_closed():
    a = digraph(3, {(0, 1)})
    b = digraph(3, {(1, 2)})
    s = 2
    winner, survivors = pebble_game_winner(
        ExpandedStructure(a), ExpandedStructure(b), s)
    for pos in survivors:
        xs = tuple(x for x, _ in pos)
        ys = tuple(y for _, y in pos)
        assert is_partial_isomorphism(a, (), xs, b, (), ys)
        # back-and-forth closure of the surviving region
        reduced = [pos] if len(pos) < s else []
        reduced += [pos - {pair} for pair in pos]
        for q in reduced:
            for x in range(a.n):
                assert any(q | {(x, y)} in survivors for y in range(b.n))
            for y in range(b.n):
                assert any(q | {(x, y)} in survivors for x in range(a.n))


def test_game_with_no_relation_moves_equals_pebble_game():
    rng = random.Random(4)
    for _ in range(15):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        a = digraph(n1, {(rng.randrange(n1), rng.randrange(n1))
                         for _ in range(rng.randint(0, n1))})
        b = digraph(n2, {(rng.randrange(n2), rng.randrange(n2))
                         for _ in range(rng.randint(0, n2))})
        s = rng.randint(1, 3)
        params = GameParams(0, 1, 1, s)
        winner, _ = game_winner(a, b, params)
        assert winner is pebble_game_winner(
            ExpandedStructure(a), ExpandedStructure(b), s)[0]


def test_game_winner_requires_matching_signatures():
    with pytest.raises(ShapeMismatch):
        game_winner(digraph(2), digraph(2, ordered=True), GameParams(0, 1, 1, 1))


def test_game_spoiler_monotone_in_parameters():
    corpus = [
        (digraph(2, {(0, 1)}), digraph(2)),
        (digraph(2), digraph(3)),
        (digraph(3, {(0, 1), (1, 2)}), digraph(3, {(0, 1)})),
    ]
    grids = [(0, 1, 1, 1), (0, 1, 1, 2), (1, 1, 1, 1), (1, 1, 1, 2),
             (1, 2, 1, 1), (1, 2, 1, 2)]
    for a, b in corpus:
        verdicts = {p: game_winner(a, b, GameParams(*p))[0] for p in grids}
        for p in grids:
            for q in grids:
                if all(x <= y for x, y in zip(p, q)) and \
                        verdicts[p] is Winner.SPOILER:
                    assert verdicts[q] is Winner.SPOILER, (p, q)


def test_announced_and_stop_early_readings_agree():
    rng = random.Random(6)
    for _ in range(8):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        a = digraph(n1, {(rng.randrange(n1), rng.randrange(n1))
                         for _ in range(rng.randint(0, n1))})
        b = digraph(n2, {(rng.randrange(n2), rng.randrange(n2))
                         for _ in range(rng.randint(0, n2))})
        params = GameParams(1, 1, 1, rng.randint(1, 2))
        assert game_winner(a, b, params)[0] is \
            game_winner_stop_early(a, b, params)


def test_game_budget_exhaustion():
    a, b = digraph(10), digraph(11)
    with pytest.raises(ResourceLimit):
        game_winner(a, b, GameParams(1, 1, 1, 1), budget=500)


def test_even_instance_values():
    assert even_instance(GameParams(1, 1, 1, 1)) == (10, 11)
    assert even_instance(GameParams(0, 1, 1, 1)) == (6, 7)


def test_even_instance_monotone():
    base = even_instance(GameParams(1, 1, 1, 1))[0]
    for bump in ((2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2)):
        assert even_instance(GameParams(*bump))[0] >= base


def test_verify_fresh_strategy_rejects_bad_instances():
    with pytest.raises(HypothesisViolated):
        verify_fresh_strategy(digraph(4), digraph(5), GameParams(1, 1, 1, 1))
    with pytest.raises(HypothesisViolated):
        verify_fresh_strategy(digraph(10, {(0, 1)}), digraph(11),
                              GameParams(1, 1, 1, 1))
    with pytest.raises(HypothesisViolated):
        verify_fresh_strategy(digraph(10, ordered=True),
                              digraph(11, ordered=True), GameParams(1, 1, 1, 1))


def test_sampled_sentences_are_wellformed():
    rng = random.Random(0)
    params = GameParams(2, 2, 1, 2)
    for _ in range(100):
        f = sample_sentence(DIGRAPH, params, rng)
        free_elem, free_rel = validate(f, DIGRAPH)
        assert not free_elem and not free_rel
        evaluate(digraph(3, {(0, 1)}), f)  # evaluable as a sentence


def test_sampler_finds_distinguishing_sentence():
    a = digraph(2, {(0, 1)})
    b = digraph(2)
    report = equivalence_sampler(a, b, GameParams(0, 1, 1, 2), trials=100, seed=0)
    assert report.winner is Winner.SPOILER
    assert report.distinguishing
    for f in report.distinguishing:
        assert evaluate(a, f) != evaluate(b, f)


def test_sampler_consistency_on_identical_structures():
    a = digraph(3, {(0, 1), (1, 2)})
    report = equivalence_sampler(a, a, GameParams(1, 2, 1, 2), trials=60, seed=1)
    assert report.winner is Winner.DUPLICATOR
    assert not report.distinguishing


def test_sampler_reports_are_deterministic():
    a, b = digraph(2, {(0, 1)}), digraph(2)
    r1 = equivalence_sampler(a, b, GameParams(0, 1, 1, 2), trials=50, seed=9)
    r2 = equivalence_sampler(a, b, GameParams(0, 1, 1, 2), trials=50, seed=9)
    assert r1.distinguishing == r2.distinguishing
    assert r1.winner is r2.winner
