"""Pebble games, relation moves, strategies, and the sentence sampler."""

import collections
import importlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import game_oracle
from game_oracle import game_winner_stop_early
from logifp.core import Signature, Structure, mention_set
from logifp.errors import HypothesisViolated, ResourceLimit, ShapeMismatch
from logifp.evaluate import enumerate_bounded_relations, evaluate
from logifp.formula import validate
from logifp.game import (
    ExpandedStructure,
    GameParams,
    Winner,
    _canonical,
    _orbit_relations,
    equivalence_sampler,
    even_instance,
    game_winner,
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


# --- differential tests against tests/game_oracle.py ---

SIGNATURES = (DIGRAPH, ORDERED_DIGRAPH,
              Signature((("E", 2), ("P", 1)), ordered=True),
              Signature((("P", 1),), ordered=False))


def _random_structure(rng, sig, n):
    rels = {}
    for name, arity in sig.relations:
        cells = list(itertools.product(range(n), repeat=arity))
        rels[name] = {t for t in cells if rng.random() < 0.35}
    return Structure(sig, n, rels)


def _random_extras(rng, n_a, n_b):
    """Paired extra relations of arity 1 or 2, as relation moves add them."""
    extras_a, extras_b = [], []
    for _ in range(rng.randint(0, 2)):
        arity = rng.randint(1, 2)
        for n, out in ((n_a, extras_a), (n_b, extras_b)):
            cells = list(itertools.product(range(n), repeat=arity))
            out.append((arity, frozenset(t for t in cells if rng.random() < 0.3)))
    return tuple(extras_a), tuple(extras_b)


def _random_pair(rng):
    sig = rng.choice(SIGNATURES)
    n_a, n_b = rng.randint(1, 4), rng.randint(1, 4)
    a, b = _random_structure(rng, sig, n_a), _random_structure(rng, sig, n_b)
    if rng.random() < 0.3:
        b = a  # a self-game, which the duplicator wins
        n_b = n_a
    extras_a, extras_b = _random_extras(rng, n_a, n_b)
    return ExpandedStructure(a, extras_a), ExpandedStructure(b, extras_b)


def test_pebble_solver_matches_elimination_oracle():
    """The colour refinement names the same winner and the same surviving
    positions as round-by-round elimination and as the worklist solver."""
    rng = random.Random(21)
    winners = set()
    for _ in range(120):
        ea, eb = _random_pair(rng)
        for s in (1, 2, 3):
            got = pebble_game_winner(ea, eb, s)
            assert got == game_oracle.pebble_game_winner(ea, eb, s)
            assert got == game_oracle.worklist_pebble_game_winner(ea, eb, s)
            winners.add(got[0])
    assert winners == {Winner.DUPLICATOR, Winner.SPOILER}


def test_partial_isomorphism_matches_oracle():
    rng = random.Random(22)
    verdicts = set()
    for _ in range(600):
        ea, eb = _random_pair(rng)
        a, b = ea.base, eb.base
        size = rng.randint(0, 4)
        elems_a = tuple(rng.randrange(a.n) for _ in range(size))
        elems_b = tuple(rng.randrange(b.n) for _ in range(size))
        got = is_partial_isomorphism(a, ea.extras, elems_a, b, eb.extras, elems_b)
        assert got == game_oracle.is_partial_isomorphism(
            a, ea.extras, elems_a, b, eb.extras, elems_b)
        verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("params,sizes", [
    ((0, 1, 1, 1), (6, 7)), ((0, 1, 1, 1), (7, 6)), ((0, 1, 1, 2), (7, 8)),
    ((1, 1, 1, 1), (10, 11)), ((1, 1, 1, 1), (11, 10)), ((0, 2, 1, 1), (7, 8)),
    ((0, 1, 1, 3), (13, 14)),
])
def test_fresh_strategy_matches_oracle(params, sizes):
    a, b = digraph(sizes[0]), digraph(sizes[1])
    p = GameParams(*params)
    assert verify_fresh_strategy(a, b, p) is game_oracle.exhaustive_fresh_strategy(a, b, p) is True
    if p.s < 3:  # the from-scratch oracle takes about 17 s at (0, 1, 1, 3)
        assert game_oracle.verify_fresh_strategy(a, b, p) is True


def _record_answers(monkeypatch) -> list:
    """Record (table, position, reply pair) for every extension check that
    logifp.game or game_oracle.exhaustive_fresh_strategy makes."""
    module = importlib.import_module("logifp.game")
    answered = []
    original = module._extends
    monkeypatch.setattr(module, "_extends",
                        lambda table, ordered, q, x, y: answered.append((table, q, (x, y)))
                        or original(table, ordered, q, x, y))
    return answered


def _mentioned(table) -> tuple:
    """The elements that a pebble phase's relations mention on A and on B;
    on edgeless structures these are the elements the relation moves
    mentioned."""
    return tuple(mention_set(itertools.chain(*(row[side] for row in table))) for side in (1, 2))


def _blank(pair, ma, mb) -> tuple:
    return (pair[0] if pair[0] in ma else -1, pair[1] if pair[1] in mb else -1)


def _orbit(q, ma, mb) -> tuple:
    """The orbit of position q under the permutations of the elements
    outside ma (on A) and outside mb (on B): q is a partial injection, so
    the multiset of its pairs with unmentioned coordinates blanked fixes it."""
    return tuple(sorted(_blank(c, ma, mb) for c in q))


@pytest.mark.parametrize("params,sizes", [
    ((0, 1, 1, 2), (7, 8)), ((1, 1, 1, 1), (10, 11)), ((1, 1, 1, 1), (11, 10)),
    ((0, 1, 1, 3), (13, 14)), ((1, 1, 1, 2), (22, 23)),
])
def test_fresh_strategy_answers_every_reached_position(params, sizes, monkeypatch):
    """The strategy wins on every valid instance, so its verdict alone
    cannot show a position or a challenge left out.  Record every answered
    challenge (phase table, position, reply pair) of the exhaustive oracle
    and of the check instead.  Every reply lies in the two domains, and in
    each phase the check answers, from canonical positions only, exactly
    the orbits of (position, reply) under the permutations of unmentioned
    elements that the oracle answers.  Which pebbled pair, if any, a reply
    repeats is part of its orbit, so a challenge kind left out shows."""
    answered = _record_answers(monkeypatch)
    a, b = digraph(sizes[0]), digraph(sizes[1])
    p = GameParams(*params)
    phases = []
    for check in (game_oracle.exhaustive_fresh_strategy, verify_fresh_strategy):
        answered.clear()
        assert check(a, b, p)
        orbits: dict = {}
        for table, q, pair in answered:
            assert 0 <= pair[0] < sizes[0] and 0 <= pair[1] < sizes[1]
            ma, mb = _mentioned(table)
            orbits.setdefault(table, set()).add((_orbit(q, ma, mb), _blank(pair, ma, mb),
                                                 pair in q))
        phases.append(orbits)
    assert phases[0] == phases[1]
    for table, q, _ in answered:
        assert _canonical(q, *_mentioned(table)) == q


def test_canonical_position_is_one_per_orbit():
    """Positions related by a permutation of either side's unmentioned
    elements get the same form, and the form lies in the position's orbit,
    so positions in different orbits get different forms."""
    rng = random.Random(23)
    n_a, n_b = 7, 8
    for _ in range(300):
        ma = set(rng.sample(range(n_a), rng.randint(0, 4)))
        mb = set(rng.sample(range(n_b), rng.randint(0, 4)))
        free_a = [x for x in range(n_a) if x not in ma]
        free_b = [y for y in range(n_b) if y not in mb]
        forms: dict = {}
        for _ in range(30):
            size = rng.randint(0, 4)
            q = frozenset(zip(rng.sample(range(n_a), size), rng.sample(range(n_b), size)))
            form = _canonical(q, ma, mb)
            assert _orbit(form, ma, mb) == _orbit(q, ma, mb)
            assert len({x for x, _ in form}) == len({y for _, y in form}) == size
            assert all(0 <= x < n_a and 0 <= y < n_b for x, y in form)
            assert forms.setdefault(_orbit(q, ma, mb), form) == form
            perm_a = dict(zip(free_a, rng.sample(free_a, len(free_a))))
            perm_b = dict(zip(free_b, rng.sample(free_b, len(free_b))))
            image = frozenset((perm_a.get(x, x), perm_b.get(y, y)) for x, y in q)
            assert _canonical(image, ma, mb) == form
        assert len(set(forms.values())) == len(forms)


@pytest.mark.parametrize("kind", ["pebbled", "mentioned", "free"])
def test_fresh_strategy_fails_where_the_oracle_fails(kind, monkeypatch):
    """Let the extension check reject, from a nonempty position, every reply
    of one kind: a pebbled element's partner, a mentioned element's image,
    or a pair of unmentioned, unpebbled elements.  The rule depends only on
    orbits, so the check must fail as the exhaustive oracle does; one that
    leaves that kind of challenge out would pass."""
    module = importlib.import_module("logifp.game")
    original = module._extends

    def rejecting(table, ordered, q, x, y):
        ma, mb = _mentioned(table)
        pebbled = (x, y) in q
        kinds = {"pebbled": pebbled, "mentioned": not pebbled and x in ma and y in mb,
                 "free": not pebbled and x not in ma and y not in mb}
        return not (q and kinds[kind]) and original(table, ordered, q, x, y)

    monkeypatch.setattr(module, "_extends", rejecting)
    a, b, p = digraph(22), digraph(23), GameParams(1, 1, 1, 2)
    assert verify_fresh_strategy(a, b, p) is game_oracle.exhaustive_fresh_strategy(a, b, p) is False


def test_fresh_strategy_budget(monkeypatch):
    """The check counts its challenges apart from the solver's nodes and
    raises ResourceLimit, naming itself, past its budget."""
    answered = _record_answers(monkeypatch)
    a, b, p = digraph(22), digraph(23), GameParams(1, 1, 1, 2)
    assert verify_fresh_strategy(a, b, p, budget=10_000)
    used = len(answered)
    assert verify_fresh_strategy(a, b, p, budget=used)
    with pytest.raises(ResourceLimit, match=f"fresh-strategy check: budget {used - 1} exceeded"):
        verify_fresh_strategy(a, b, p, budget=used - 1)


# --- relation moves one per orbit of the untouched elements ---


def test_fresh_strategy_plays_every_orbit_of_a_second_move(monkeypatch):
    """With two relation moves (13/14 at (2, 1, 1, 1), too large for the
    oracle), every pair of extras the check reaches with one move goes on to
    a second unary relation on each side from every orbit of the
    permutations that fix the elements the first move mentions there."""
    module = importlib.import_module("logifp.game")
    played = []
    original = module._pairing
    monkeypatch.setattr(module, "_pairing", lambda a, extras_a, b, extras_b:
                        played.append((extras_a, extras_b)) or original(a, extras_a, b, extras_b))
    sizes = (13, 14)
    assert verify_fresh_strategy(digraph(sizes[0]), digraph(sizes[1]), GameParams(2, 1, 1, 1))
    firsts = {(ea[0], eb[0]) for ea, eb in played if len(ea) == 1}
    assert len(firsts) > 2
    for first in firsts:
        seconds = [(ea[1], eb[1]) for ea, eb in played if len(ea) == 2 and (ea[0], eb[0]) == first]
        for side, n in enumerate(sizes):
            old = first[side][1]  # the first move's tuples, one per mentioned element
            expected = {(rel & old, len(rel - old))  # bound ceil_log(n) = 4
                        for rel in enumerate_bounded_relations(n, 1, 4)}
            assert expected <= {(rel & old, len(rel - old)) for _, rel in
                                (second[side] for second in seconds)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbit_relations_meet_every_orbit(n):
    """_orbit_relations lists, in enumeration order, the bounded relations
    whose unfixed elements are the least unfixed ones; every orbit of the
    permutations fixing `fixed` pointwise meets it, in exactly one relation
    at arity 1, and with every element fixed it is the whole enumeration."""
    for fixed in (set(), {0}, {n - 1}, {1, 3} & set(range(n)), set(range(n))):
        free = [x for x in range(n) if x not in fixed]
        perms = [dict(zip(free, p)) for p in itertools.permutations(free)]
        for arity, bound in ((1, 0), (1, 2), (1, n), (2, 1), (2, 2)):
            full = list(enumerate_bounded_relations(n, arity, bound))
            got = list(_orbit_relations(n, arity, bound, fixed))
            chosen = set(got)
            assert got == [rel for rel in full if rel in chosen]
            for rel in full:
                new = {c for t in rel for c in t} - fixed
                assert (rel in chosen) == (new == set(free[:len(new)]))
                orbit = {frozenset(tuple(p.get(c, c) for c in t) for t in rel) for p in perms}
                assert len(orbit & chosen) == 1 if arity == 1 else orbit & chosen
            if fixed == set(range(n)):
                assert got == full


def _digraph_with_isolated(rng, n, ordered):
    """A random digraph whose edges lie among its first few elements, so
    that the rest are isolated."""
    live = rng.randint(0, n)
    return digraph(n, {(x, y) for x in range(live) for y in range(live) if rng.random() < 0.4},
                   ordered)


def test_game_winner_matches_full_enumeration():
    """Relation moves played one per orbit give the verdicts of the solver
    that tries every bounded relation on both sides; in an ordered
    signature no element is untouched, so the whole transcript agrees."""
    rng = random.Random(31)
    winners = collections.Counter()
    for _ in range(150):
        ordered = rng.random() < 0.2
        a, b = (_digraph_with_isolated(rng, rng.randint(1, 6), ordered) for _ in range(2))
        m = rng.randint(0, 2)
        r = rng.randint(1, 2) if m < 2 and max(a.n, b.n) <= 4 else 1
        params = GameParams(m, r, 1, rng.randint(1, 2))
        winner, transcript = game_winner(a, b, params)
        expected, full_transcript = game_oracle.game_winner(a, b, params)
        assert winner is expected, (a, b, params)
        if ordered:
            assert transcript == full_transcript
        winners[winner, m > 0, ordered] += 1
    assert all(winners[w, True, False] for w in Winner)
    assert any(winners[w, True, True] for w in Winner)


# --- atomic types: single pairs, and tuples that mix a new element with old ones ---

TERNARY_SIGNATURES = (Signature((("T", 3),), ordered=False),
                      Signature((("T", 3), ("P", 1)), ordered=True))


def _ternary_cells(rng, n, arity):
    """A random relation that holds on few diagonal tuples (x, ..., x), so
    that many pairs share an atomic type and the tuples that mix elements,
    such as (x, x, y) and (x, y, x), decide the larger positions."""
    return frozenset(t for t in itertools.product(range(n), repeat=arity)
                     if rng.random() < (0.15 if len(set(t)) == 1 else 0.3))


def _random_ternary_pair(rng):
    sig = rng.choice(TERNARY_SIGNATURES)
    n_a, n_b = rng.randint(1, 4), rng.randint(1, 4)
    a, b = (Structure(sig, n, {name: _ternary_cells(rng, n, arity)
                               for name, arity in sig.relations}) for n in (n_a, n_b))
    if rng.random() < 0.3:
        b, n_b = a, n_a
    arities = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
    extras_a = tuple((k, _ternary_cells(rng, n_a, k)) for k in arities)
    extras_b = tuple((k, _ternary_cells(rng, n_b, k)) for k in arities)
    return ExpandedStructure(a, extras_a), ExpandedStructure(b, extras_b)


def test_mixed_tuples_decide_pairs_of_equal_atomic_type():
    sig = TERNARY_SIGNATURES[0]
    a = Structure(sig, 2, {"T": {(0, 0, 1)}})
    b = Structure(sig, 2, {"T": {(0, 1, 0)}})
    for elems_a, elems_b in itertools.product(itertools.permutations(range(2)), repeat=2):
        assert not is_partial_isomorphism(a, (), elems_a, b, (), elems_b)
        assert is_partial_isomorphism(a, (), elems_a[:1], b, (), elems_b[:1])
    assert is_partial_isomorphism(a, (), (0, 1), a, (), (0, 1))
    ea, eb = ExpandedStructure(a), ExpandedStructure(b)
    for s, winner in ((1, Winner.DUPLICATOR), (2, Winner.SPOILER)):
        got = pebble_game_winner(ea, eb, s)
        assert got[0] is winner
        assert got == game_oracle.pebble_game_winner(ea, eb, s)


def test_ternary_pebble_solver_and_partial_isomorphism_match_oracle():
    rng = random.Random(23)
    winners, verdicts = set(), set()
    for _ in range(100):
        ea, eb = _random_ternary_pair(rng)
        for s in (1, 2, 3):
            got = pebble_game_winner(ea, eb, s)
            assert got == game_oracle.pebble_game_winner(ea, eb, s)
            assert got == game_oracle.worklist_pebble_game_winner(ea, eb, s)
            winners.add(got[0])
        a, b = ea.base, eb.base
        for _ in range(5):
            size = rng.randint(0, 4)
            elems_a = tuple(rng.randrange(a.n) for _ in range(size))
            elems_b = tuple(rng.randrange(b.n) for _ in range(size))
            got = is_partial_isomorphism(a, ea.extras, elems_a, b, eb.extras, elems_b)
            assert got == game_oracle.is_partial_isomorphism(
                a, ea.extras, elems_a, b, eb.extras, elems_b)
            verdicts.add(got)
    assert winners == {Winner.DUPLICATOR, Winner.SPOILER}
    assert verdicts == {True, False}


def test_single_pairs_need_no_extension_check(monkeypatch):
    """The surviving positions are read off the colour classes, so no
    position, single pair or larger, goes through an extension check; the
    single pairs that survive at s = 1 are the pairs of equal atomic type."""
    module = importlib.import_module("logifp.game")
    sizes = []
    original = module._extends
    monkeypatch.setattr(module, "_extends",
                        lambda table, ordered, q, x, y: sizes.append(len(q))
                        or original(table, ordered, q, x, y))
    ea = ExpandedStructure(digraph(5), ((1, frozenset({(0,), (3,)})),))
    eb = ExpandedStructure(digraph(6), ((1, frozenset({(2,)})),))
    winner, singles = pebble_game_winner(ea, eb, 1)
    assert winner is Winner.DUPLICATOR
    assert len(singles) == 1 + 2 * 1 + 3 * 5
    assert pebble_game_winner(ea, eb, 2)[0] is Winner.SPOILER
    assert sizes == []


def test_even_demo_nodes_and_pebble_solves(monkeypatch):
    """The game solver's work for `logifp even-demo --m 1 --r 1 --k 1 --s 1`
    with relation moves played one per orbit: the nodes it charges (62,878
    when every bounded relation was tried) and the pebble games it solves
    (563 then)."""
    module = importlib.import_module("logifp.game")
    calls = []
    original = module._solve
    monkeypatch.setattr(module, "_solve",
                        lambda *args: calls.append(1) or original(*args))
    params = GameParams(1, 1, 1, 1)
    n_a, n_b = even_instance(params)
    winner, transcript = game_winner(digraph(n_a), digraph(n_b), params)
    assert winner is Winner.DUPLICATOR
    assert transcript["nodes"] == 670
    assert len(calls) == 6


@pytest.mark.parametrize("s", [1, 2, 3])
def test_edgeless_pebble_game_closed_form(s):
    """On edgeless structures the duplicator wins exactly when the sizes
    are equal or both are at least s; this includes the pair of sizes 22
    and 23 at s = 2, the pebble phase of `even-demo --m 1 --r 1 --k 1 --s 2`."""
    for n_a in range(1, 24):
        for n_b in range(n_a, 24):
            winner, _ = game_winner(digraph(n_a), digraph(n_b), GameParams(0, 1, 1, s))
            expected = n_a == n_b or min(n_a, n_b) >= s
            assert (winner is Winner.DUPLICATOR) is expected, (n_a, n_b)


# --- properties: swapping the two structures ---


@st.composite
def digraph_pairs(draw, max_n):
    ordered = draw(st.booleans())
    out = []
    for _ in range(2):
        n = draw(st.integers(1, max_n))
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        out.append(digraph(n, draw(st.sets(cells, max_size=n * n)), ordered))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(digraph_pairs(4), st.integers(1, 3))
def test_pebble_game_is_symmetric(pair, s):
    ea, eb = (ExpandedStructure(x) for x in pair)
    winner, survivors = pebble_game_winner(ea, eb, s)
    winner_swapped, survivors_swapped = pebble_game_winner(eb, ea, s)
    assert winner is winner_swapped
    assert survivors_swapped == {frozenset((y, x) for x, y in p) for p in survivors}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(digraph_pairs(3), st.integers(0, 1), st.integers(1, 2))
def test_relation_move_game_is_symmetric(pair, m, s):
    a, b = pair
    params = GameParams(m, 1, 1, s)
    assert game_winner(a, b, params)[0] is game_winner(b, a, params)[0]
