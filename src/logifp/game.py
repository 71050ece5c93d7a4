"""Pebble games, the relation-move extension, strategies, and the EVEN
separation demonstration.

Positions of the pebble game are frozensets of (left, right) element pairs
of size at most s; the duplicator wins the safety objective computed by
greatest-fixed-point elimination of positions the spoiler can break.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .core import Structure, ceil_log, log_pow, mention_set, mention_union
from .errors import HypothesisViolated, ResourceLimit, ShapeMismatch
from .evaluate import enumerate_bounded_relations, evaluate
from .formula import (
    And,
    Atom,
    Eq,
    Exists,
    ExistsLog,
    Forall,
    ForallLog,
    Formula,
    Implies,
    Not,
    Or,
    Var,
)


class Winner(Enum):
    SPOILER = "Spoiler"
    DUPLICATOR = "Duplicator"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ExpandedStructure:
    """A structure together with the relations added by relation moves."""

    base: Structure
    extras: tuple = ()  # tuple of (arity, frozenset of tuples) pairs

    def expanded(self, arity: int, tuples: frozenset) -> "ExpandedStructure":
        return ExpandedStructure(self.base, self.extras + ((arity, frozenset(tuples)),))


@dataclass(frozen=True)
class GameParams:
    m: int
    r: int
    k: int
    s: int

    def __post_init__(self):
        if self.m < 0 or self.r < 1 or self.k < 1 or self.s < 1:
            raise ShapeMismatch(f"bad game parameters {self}")


def is_partial_isomorphism(a: Structure, extras_a, elems_a,
                           b: Structure, extras_b, elems_b) -> bool:
    """Position-wise map elems_a -> elems_b: well-defined, injective, and
    relation/order/extra preserving in both directions over listed elements."""
    if len(elems_a) != len(elems_b):
        raise ShapeMismatch(f"{len(elems_a)} left elements vs {len(elems_b)} right")
    extras_a = tuple(extras_a)
    extras_b = tuple(extras_b)
    if len(extras_a) != len(extras_b):
        raise ShapeMismatch(f"{len(extras_a)} extra relations vs {len(extras_b)}")
    if a.sig != b.sig:
        raise ShapeMismatch("different signatures")
    for (arity_a, _), (arity_b, _) in zip(extras_a, extras_b):
        if arity_a != arity_b:
            raise ShapeMismatch("paired extra relations of different arities")
    table = _pairing(a, extras_a, b, extras_b)
    q = frozenset()
    for pair in zip(elems_a, elems_b):
        if not _extends(table, a.sig.ordered, q, *pair):
            return False
        q |= {pair}
    return True


def _pairing(a: Structure, extras_a, b: Structure, extras_b) -> tuple:
    """(arity, tuples in a, tuples in b) for every signature relation and
    every pair of extra relations."""
    table = [(arity, a.rels[name], b.rels[name]) for name, arity in a.sig.relations]
    table += [(arity, ta, tb) for (arity, ta), (_, tb) in zip(extras_a, extras_b)]
    return tuple(table)


def _extends(table, ordered: bool, q, x: int, y: int) -> bool:
    """Whether q | {(x, y)} is a partial isomorphism, given that the pairs q
    form one: only the new pair is tested, against the order on the pairs
    of q and on the tuples that mention x."""
    fwd = {x: y}
    for x2, y2 in q:
        if x2 == x or y2 == y:
            return x2 == x and y2 == y
        if ordered and (x2 < x) != (y2 < y):
            return False
        fwd[x2] = y2
    for arity, ta, tb in table:
        for t in itertools.product(fwd, repeat=arity):
            if x in t and (t in ta) != (tuple(map(fwd.get, t)) in tb):
                return False
    return True


def _partial_isos(table, ordered: bool, na: int, nb: int, s: int) -> set:
    """All partial isomorphisms of size <= s, as frozensets of pairs.  Each
    one of size i + 1 is built once, from the one of size i without its
    pair of largest left element."""
    singles = [(x, y) for x in range(na) for y in range(nb)
               if _extends(table, ordered, (), x, y)]
    layer = [frozenset()]
    out = {frozenset()}
    for _ in range(s):
        nxt = []
        for p in layer:
            top = max((x for x, _ in p), default=-1)
            for pair in singles:
                if pair[0] > top and _extends(table, ordered, p, *pair):
                    nxt.append(p | {pair})
        out.update(nxt)
        layer = nxt
    return out


def _challenges(p: frozenset, s: int):
    """The challenges the position p answers.  A challenge (q, side, x) is
    the spoiler placing a pebble on element x of side 0 (left) or 1
    (right) from the reduced position q; p answers it when p = q | {pair}
    for the pair of p that has x on that side."""
    for pair in p:
        q = p - {pair}
        yield q, 0, pair[0]
        yield q, 1, pair[1]
        if len(p) < s:
            yield p, 0, pair[0]
            yield p, 1, pair[1]


def pebble_game_winner(ea: ExpandedStructure, eb: ExpandedStructure, s: int):
    """Solve the s-pebble game: the surviving positions are the greatest
    set of partial isomorphisms of size <= s in which every challenge from
    every reduced position (the position itself if it has fewer than s
    pairs, and the position less one pair) has a surviving reply.

    Worklist algorithm for safety games: each challenge keeps a count of
    its surviving replies; removing a position decrements the counts of
    the challenges it answers, and a count reaching zero removes the
    challenged position q and every position one pair larger than q.  Each
    position is removed at most once, so the cost is linear in the number
    of positions times (s + na + nb).

    Returns (winner, surviving positions).
    """
    if s < 1:
        raise ShapeMismatch(f"s = {s} < 1")
    a, b = ea.base, eb.base
    table = _pairing(a, ea.extras, b, eb.extras)
    survivors = _partial_isos(table, a.sig.ordered, a.n, b.n, s)
    live: dict = {}
    above: dict = {}
    for p in survivors:
        for c in _challenges(p, s):
            live[c] = live.get(c, 0) + 1
        for pair in p:
            above.setdefault(p - {pair}, []).append(p)
    broken = [q for q in survivors if len(q) < s and not all(
        (q, side, x) in live for side, n in ((0, a.n), (1, b.n)) for x in range(n))]
    while broken:
        q = broken.pop()
        for p in [q, *above.get(q, ())]:
            if p in survivors:
                survivors.remove(p)
                for c in _challenges(p, s):
                    live[c] -= 1
                    if not live[c]:
                        broken.append(c[0])
    winner = Winner.DUPLICATOR if frozenset() in survivors else Winner.SPOILER
    return winner, survivors


class _Solver:
    """Exact minimax for the relation-move game with memoized pebble
    solves; a node budget guards against runaway instances."""

    def __init__(self, params: GameParams, budget: int = 10_000_000):
        self.params = params
        self.budget = budget
        self.nodes = 0
        self.pebble_memo: dict = {}
        self.exact_memo: dict = {}
        self.transcript: dict = {"moves": [], "nodes": 0}

    def charge(self, amount: int = 1):
        self.nodes += amount
        if self.nodes > self.budget:
            raise ResourceLimit(f"node budget {self.budget} exceeded")

    def pebble(self, ea: ExpandedStructure, eb: ExpandedStructure) -> Winner:
        key = (ea, eb)
        hit = self.pebble_memo.get(key)
        if hit is None:
            self.charge(ea.base.n * eb.base.n)
            hit, _ = pebble_game_winner(ea, eb, self.params.s)
            self.pebble_memo[key] = hit
        return hit

    def spoiler_moves(self, ea: ExpandedStructure, eb: ExpandedStructure):
        p = self.params
        for side in ("A", "B"):
            picker = ea if side == "A" else eb
            n = picker.base.n
            for arity in range(1, p.r + 1):
                for k in range(1, p.k + 1):
                    for rel in enumerate_bounded_relations(n, arity, log_pow(n, k)):
                        yield side, arity, k, rel

    def replies(self, n_other: int, arity: int, k: int, rel: frozenset):
        """Candidate duplicator relations, promising ones first."""
        bound = log_pow(n_other, k)
        seen = set()
        mentioned = sorted(mention_set(rel))
        if len(rel) <= bound:
            # order-preserving relabel of the mentioned elements into the
            # other domain; equals rel itself when everything fits
            if mentioned and mentioned[-1] >= n_other:
                relabel = {x: i for i, x in enumerate(mentioned)}
            else:
                relabel = {x: x for x in mentioned}
            if len(relabel) <= n_other and all(v < n_other for v in relabel.values()):
                cand = frozenset(tuple(relabel[c] for c in t) for t in rel)
                seen.add(cand)
                yield cand
        for cand in enumerate_bounded_relations(n_other, arity, bound):
            if cand not in seen:
                yield cand

    def wins_exact(self, ea: ExpandedStructure, eb: ExpandedStructure,
                   moves: int) -> Winner:
        """Winner with exactly `moves` relation moves left before PG^s."""
        if moves == 0:
            return self.pebble(ea, eb)
        key = (ea, eb, moves)
        hit = self.exact_memo.get(key)
        if hit is not None:
            return hit
        result = Winner.DUPLICATOR
        witness = None
        for side, arity, k, rel in self.spoiler_moves(ea, eb):
            self.charge()
            if side == "A":
                ea2 = ea.expanded(arity, rel)
                other = eb
            else:
                eb2 = eb.expanded(arity, rel)
                other = ea
            survived = False
            for reply in self.replies(other.base.n, arity, k, rel):
                if side == "A":
                    nxt = (ea2, eb.expanded(arity, reply))
                else:
                    nxt = (ea.expanded(arity, reply), eb2)
                if self.wins_exact(nxt[0], nxt[1], moves - 1) is Winner.DUPLICATOR:
                    survived = True
                    break
            if not survived:
                result = Winner.SPOILER
                witness = {"side": side, "arity": arity, "k": k,
                           "relation": sorted(rel)}
                break
        self.exact_memo[key] = result
        if witness is not None:
            self.transcript["moves"].append({"moves_left": moves, **witness})
        return result


def game_winner(a: Structure, b: Structure, params: GameParams,
                budget: int = 10_000_000):
    """Exact winner of the relation-move game: the spoiler announces some
    number of relation moves up to params.m, the moves are played, then the
    s-pebble game decides.  Returns (winner, transcript)."""
    if a.sig != b.sig:
        raise ShapeMismatch("structures must share a signature")
    solver = _Solver(params, budget)
    ea, eb = ExpandedStructure(a), ExpandedStructure(b)
    winner = Winner.DUPLICATOR
    for announced in range(params.m + 1):
        if solver.wins_exact(ea, eb, announced) is Winner.SPOILER:
            winner = Winner.SPOILER
            solver.transcript["announced"] = announced
            break
    solver.transcript["nodes"] = solver.nodes
    solver.transcript["winner"] = winner.value
    return winner, solver.transcript


# --- the EVEN instance and the fresh-element strategy ---


def even_instance(params: GameParams) -> tuple[int, int]:
    """Smallest even n with (m+1)*r*s*ceil_log(n)**k < n and
    ceil_log(n) == ceil_log(n+1); the pair (n, n+1) of edgeless structures
    is a duplicator instance separating EVEN."""
    p = params
    n = 2
    while True:
        if (p.m + 1) * p.r * p.s * ceil_log(n) ** p.k < n \
                and ceil_log(n) == ceil_log(n + 1):
            return n, n + 1
        n += 2


def _is_edgeless(a: Structure) -> bool:
    return all(not ts for ts in a.rels.values())


def verify_fresh_strategy(a: Structure, b: Structure, params: GameParams) -> bool:
    """Exhaustively check the fresh-element duplicator strategy on a pair
    of edgeless structures: newly mentioned elements map to fresh ones, the
    reply relation is the image under that map, and the pebble phase pairs
    mentioned with mentioned and fresh with fresh."""
    p = params
    if not (_is_edgeless(a) and _is_edgeless(b)):
        raise HypothesisViolated("structures must be edgeless")
    if a.sig.ordered or b.sig.ordered:
        raise HypothesisViolated("strategy is for unordered structures")
    if not ((p.m + 1) * p.r * p.s * ceil_log(a.n) ** p.k < a.n
            and ceil_log(a.n) == ceil_log(b.n)):
        raise HypothesisViolated(
            f"need (m+1)*r*s*ceil_log({a.n})**k < {a.n} and equal ceil_log"
        )

    def pebble_phase(extras_a, extras_b, fwd: dict) -> bool:
        back = {v: k for k, v in fwd.items()}
        mentioned_a = mention_union([ts for _, ts in extras_a])
        mentioned_b = mention_union([ts for _, ts in extras_b])

        def respond(pos: frozenset, side: str, x: int) -> Optional[int]:
            here = dict(pos) if side == "A" else {y: z for z, y in pos}
            if x in here:
                return here[x]
            book = fwd if side == "A" else back
            if x in book:
                return book[x]
            mentioned = mentioned_b if side == "A" else mentioned_a
            taken = {y for _, y in pos} if side == "A" else {z for z, _ in pos}
            limit = b.n if side == "A" else a.n
            for y in range(limit):
                if y not in mentioned and y not in taken:
                    return y
            return None

        table = _pairing(a, extras_a, b, extras_b)
        expanded: set = set()
        seen: set = set()
        stack = [frozenset()]
        while stack:
            pos = stack.pop()
            reduced = [pos] if len(pos) < p.s else []
            reduced += [pos - {pair} for pair in pos]
            for q in reduced:
                # respond is deterministic in (q, side, x): expand q once
                if q in expanded:
                    continue
                expanded.add(q)
                for side, limit in (("A", a.n), ("B", b.n)):
                    for x in range(limit):
                        y = respond(q, side, x)
                        if y is None:
                            return False
                        pair = (x, y) if side == "A" else (y, x)
                        if not _extends(table, a.sig.ordered, q, *pair):
                            return False
                        nxt = q | {pair}
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
        return True

    def relation_phase(extras_a, extras_b, fwd: dict, moves_left: int) -> bool:
        # the spoiler may stop here (any announced count up to m)
        if not pebble_phase(extras_a, extras_b, fwd):
            return False
        if moves_left == 0:
            return True
        mentioned_a = mention_union([ts for _, ts in extras_a])
        mentioned_b = mention_union([ts for _, ts in extras_b])
        for arity in range(1, p.r + 1):
            for k in range(1, p.k + 1):
                for side in ("A", "B"):
                    n_here = a.n if side == "A" else b.n
                    for rel in enumerate_bounded_relations(n_here, arity, log_pow(n_here, k)):
                        book = dict(fwd) if side == "A" else {v: k2 for k2, v in fwd.items()}
                        mentioned_other = mentioned_b if side == "A" else mentioned_a
                        n_other = b.n if side == "A" else a.n
                        free = iter(
                            y for y in range(n_other)
                            if y not in mentioned_other and y not in set(book.values())
                        )
                        ok = True
                        for x in sorted(mention_set(rel)):
                            if x not in book:
                                y = next(free, None)
                                if y is None:
                                    ok = False
                                    break
                                book[x] = y
                        if not ok:
                            return False
                        image = frozenset(tuple(book[c] for c in t) for t in rel)
                        if side == "A":
                            fwd2 = book
                            ext_a = extras_a + ((arity, rel),)
                            ext_b = extras_b + ((arity, image),)
                        else:
                            fwd2 = {v: k2 for k2, v in book.items()}
                            ext_a = extras_a + ((arity, image),)
                            ext_b = extras_b + ((arity, rel),)
                        if not relation_phase(ext_a, ext_b, fwd2, moves_left - 1):
                            return False
        return True

    return relation_phase((), (), {}, p.m)


# --- sentence sampling and the logic/game consistency report ---


def sample_sentence(sig, params: GameParams, rng: random.Random) -> Formula:
    """A random sentence of the finite fragment: log-quantifier prefix of
    length <= m, arities <= r, exponents <= k, at most s element variables,
    first-order matrix."""
    p = params
    pool = [f"v{i}" for i in range(p.s)]
    prefix_len = rng.randint(0, p.m)
    relvars = []
    for i in range(prefix_len):
        relvars.append((f"X{i}", rng.randint(1, p.r), rng.randint(1, p.k),
                        rng.random() < 0.7))

    def atom(bound: list) -> Formula:
        choices = []
        if bound:
            choices.append("sig")
            choices.append("eq")
            if relvars:
                choices.append("relvar")
        kind = rng.choice(choices)
        if kind == "eq":
            return Eq(*(_rv(rng, bound) for _ in range(2)))
        if kind == "relvar":
            name, arity, _, _ = rng.choice(relvars)
            return Atom(name, tuple(_rv(rng, bound) for _ in range(arity)))
        name, arity = rng.choice(sig.relations)
        return Atom(name, tuple(_rv(rng, bound) for _ in range(arity)))

    def matrix(bound: list, depth: int) -> Formula:
        if bound and (depth <= 0 or rng.random() < 0.3):
            return atom(bound)
        roll = rng.random()
        if not bound or roll < 0.35:
            var = rng.choice(pool)
            quant = Exists if rng.random() < 0.6 else Forall
            inner = matrix(bound + [var] if var not in bound else bound,
                           max(depth - 1, 0))
            return quant(var, inner)
        if roll < 0.5:
            return Not(matrix(bound, depth - 1))
        op = rng.choice((And, Or, Implies))
        return op(matrix(bound, depth - 1), matrix(bound, depth - 1))

    f = matrix([], rng.randint(2, 4))
    for name, arity, k, existential in reversed(relvars):
        f = (ExistsLog if existential else ForallLog)(k, name, arity, f)
    return f


def _rv(rng, bound):
    return Var(rng.choice(bound))


@dataclass
class EquivalenceReport:
    winner: Winner
    trials: int
    distinguishing: list = field(default_factory=list)
    transcript: dict = field(default_factory=dict)


def equivalence_sampler(a: Structure, b: Structure, params: GameParams,
                        trials: int, seed: int = 0,
                        budget: int = 10_000_000) -> EquivalenceReport:
    """Sample sentences of the fragment and compare truth on both
    structures against the game verdict."""
    rng = random.Random(seed)
    winner, transcript = game_winner(a, b, params, budget)
    distinguishing = []
    for _ in range(trials):
        f = sample_sentence(a.sig, params, rng)
        if evaluate(a, f) != evaluate(b, f):
            distinguishing.append(f)
    return EquivalenceReport(winner=winner, trials=trials,
                             distinguishing=distinguishing,
                             transcript=transcript)
