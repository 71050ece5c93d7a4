"""Pebble games, the relation-move extension, strategies, and the EVEN
separation demonstration.

Positions of the pebble game are frozensets of (left, right) element pairs
of size at most s; the game is solved by colour refinement of the s-tuples
of both structures together.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field
from enum import Enum

from .core import Structure, ceil_log, log_pow, mention_set
from .errors import HypothesisViolated, ResourceLimit, ShapeMismatch
from .evaluate import evaluate
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
    of q, the diagonal tuples (x, ..., x) and the tuples that mix x with
    elements of q."""
    fwd = {x: y}
    for x2, y2 in q:
        if x2 == x or y2 == y:
            return x2 == x and y2 == y
        if ordered and (x2 < x) != (y2 < y):
            return False
        fwd[x2] = y2
    if any(((x,) * arity in ta) != ((y,) * arity in tb) for arity, ta, tb in table):
        return False
    if not q:
        return True
    for arity, ta, tb in table:
        for t in itertools.product(fwd, repeat=arity):
            if 0 < t.count(x) < arity and (t in ta) != (tuple(map(fwd.get, t)) in tb):
                return False
    return True


def _stable_colours(table, ordered: bool, n_a: int, n_b: int, s: int) -> list:
    """Stable colours of both sides' s-tuples from one palette, a flat list
    per side in itertools.product order: s-dimensional Weisfeiler-Leman
    refinement without counting (Immerman & Lander 1990).  The first colour
    is the atomic type: equalities, the order if any, and every relation on
    every map of its arguments into the s coordinates.  Each round adds,
    per coordinate, the set of colours of the tuples that replace it with
    each element; refinement stops when no class splits."""
    compare = operator.lt if ordered else operator.eq
    pairs = [(i, j) for i in range(s) for j in range(s) if i < j or ordered and i != j]
    maps = [(row, m) for row in table for m in itertools.product(range(s), repeat=row[0])]
    keys, lines = [], []
    for side, n in ((1, n_a), (2, n_b)):
        cols = list(zip(*itertools.product(range(n), repeat=s)))
        bits = [map(compare, cols[i], cols[j]) for i, j in pairs]
        bits += [map(row[side].__contains__, zip(*[cols[i] for i in m])) for row, m in maps]
        keys.append(list(zip(*bits)) or [()] * n ** s)
        # the tuples that differ only in coordinate s - 1 - e lie n ** e apart
        lines.append([[slice(lo, lo + n * step, step) for block in range(0, n ** s, n * step)
                       for lo in range(block, block + step)]
                      for step in (n ** e for e in range(s))])
    classes = 0
    while True:
        palette: dict = {}
        ids = itertools.count()
        colours = [list(map(palette.setdefault, k, ids)) for k in keys]
        if len(palette) == classes:
            return colours
        classes = len(palette)
        keys = []
        for c, side_lines, n in zip(colours, lines, (n_a, n_b)):
            sets = []
            for coordinate in side_lines:
                col = c[:]
                for line in coordinate:
                    col[line] = [frozenset(c[line])] * n
                sets.append(col)
            keys.append(list(zip(c, *sets)))


def _solve(ea: ExpandedStructure, eb: ExpandedStructure, s: int) -> tuple:
    """The winner of the s-pebble game, with the stable colours it was read
    from: the duplicator wins exactly when both sides realise the same
    colours on their diagonal tuples (x, ..., x)."""
    a, b = ea.base, eb.base
    colours = _stable_colours(_pairing(a, ea.extras, b, eb.extras), a.sig.ordered, a.n, b.n, s)
    diagonals = [set(c[::sum(n ** e for e in range(s))]) for c, n in zip(colours, (a.n, b.n))]
    winner = Winner.DUPLICATOR if diagonals[0] == diagonals[1] else Winner.SPOILER
    return winner, colours


def pebble_game_winner(ea: ExpandedStructure, eb: ExpandedStructure, s: int):
    """Solve the s-pebble game.  Returns (winner, surviving positions): the
    empty position if the duplicator wins, and each pairing of a padded left
    tuple (x_1 < ... < x_j, x_j, ..., x_j) with a right tuple of the same
    stable colour, hence of the same atomic type."""
    if s < 1:
        raise ShapeMismatch(f"s = {s} < 1")
    winner, (ca, cb) = _solve(ea, eb, s)
    by_colour: dict = {}
    for c, t in zip(cb, itertools.product(range(eb.base.n), repeat=s)):
        by_colour.setdefault(c, []).append(t)
    survivors = {frozenset()} if winner is Winner.DUPLICATOR else set()
    for c, t in zip(ca, itertools.product(range(ea.base.n), repeat=s)):
        xs = sorted(set(t))
        if t == tuple(xs + xs[-1:] * (s - len(xs))):
            survivors.update(frozenset(zip(xs, u)) for u in by_colour.get(c, ()))
    return winner, survivors


def _touched(e: ExpandedStructure) -> frozenset:
    """The elements in a tuple of the base or the extras, or all if ordered:
    every permutation of the other elements is an automorphism of e."""
    if e.base.sig.ordered:
        return frozenset(range(e.base.n))
    return mention_set(itertools.chain(*e.base.rels.values(), *(ts for _, ts in e.extras)))


def _orbit_relations(n: int, arity: int, bound: int, fixed):
    """The bounded relations on [n] whose elements outside `fixed` are the
    least elements outside `fixed`, in enumerate_bounded_relations order.
    A permutation that fixes `fixed` pointwise maps every bounded relation
    to one of them, and at arity 1 to exactly one; with every element
    fixed they are the whole enumeration."""
    free = [x for x in range(n) if x not in fixed]
    for size in range(min(bound, n ** arity) + 1):
        # `size` tuples mention at most size * arity elements
        allowed = sorted({*fixed, *free[:size * arity]})
        for combo in itertools.combinations(itertools.product(allowed, repeat=arity), size):
            new = {c for t in combo for c in t if c not in fixed}
            if new == set(free[:len(new)]):
                yield frozenset(combo)


class _Solver:
    """Exact minimax for the relation-move game with memoized pebble
    solves; a node budget guards against runaway instances.

    Relation moves are played up to symmetry: a permutation of a side's
    untouched elements (_touched) is an automorphism, and the game value is
    invariant under an isomorphism of either side, so a relation wins
    exactly when its image does and both players try only _orbit_relations.
    `nodes` counts the spoiler moves tried, plus n_A * n_B per pebble solve."""

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
            hit = self.pebble_memo[key] = _solve(ea, eb, self.params.s)[0]
        return hit

    def spoiler_moves(self, ea: ExpandedStructure, eb: ExpandedStructure):
        """The spoiler's relations, one or more per orbit on each side."""
        p = self.params
        for side, picker in (("A", ea), ("B", eb)):
            n, fixed = picker.base.n, _touched(picker)
            for arity in range(1, p.r + 1):
                for k in range(1, p.k + 1):
                    for rel in _orbit_relations(n, arity, log_pow(n, k), fixed):
                        yield side, arity, k, rel

    def replies(self, other: ExpandedStructure, arity: int, k: int, rel: frozenset):
        """Candidate duplicator relations on `other`, promising ones first,
        then one or more per orbit of its untouched elements."""
        n_other = other.base.n
        bound = log_pow(n_other, k)
        mentioned = sorted(mention_set(rel))
        if len(rel) <= bound:
            # order-preserving relabel of the mentioned elements into the
            # other domain; equals rel itself when everything fits
            if mentioned and mentioned[-1] >= n_other:
                relabel = {x: i for i, x in enumerate(mentioned)}
            else:
                relabel = {x: x for x in mentioned}
            if len(relabel) <= n_other:
                yield frozenset(tuple(relabel[c] for c in t) for t in rel)
        yield from _orbit_relations(n_other, arity, bound, _touched(other))

    def wins_exact(self, ea: ExpandedStructure, eb: ExpandedStructure,
                   moves: int) -> Winner:
        """Winner with exactly `moves` relation moves left before PG^s."""
        if moves == 0:
            return self.pebble(ea, eb)
        key = (ea, eb, moves)
        hit = self.exact_memo.get(key)
        if hit is not None:
            return hit
        for side, arity, k, rel in self.spoiler_moves(ea, eb):
            self.charge()
            flip = side == "B"
            here, other = (eb, ea) if flip else (ea, eb)
            moved = here.expanded(arity, rel)
            for reply in self.replies(other, arity, k, rel):
                nxt = (moved, other.expanded(arity, reply))
                if flip:
                    nxt = nxt[::-1]
                if self.wins_exact(*nxt, moves - 1) is Winner.DUPLICATOR:
                    break
            else:
                self.exact_memo[key] = Winner.SPOILER
                self.transcript["moves"].append({"moves_left": moves, "side": side, "arity": arity,
                                                 "k": k, "relation": sorted(rel)})
                return Winner.SPOILER
        self.exact_memo[key] = Winner.DUPLICATOR
        return Winner.DUPLICATOR


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


def _canonical(q: frozenset, fwd: dict, back: dict) -> frozenset:
    """The representative of position q's orbit under the permutations of the
    elements outside fwd (on A) and back (on B).  q is a partial injection: its
    pairs are sorted by their mentioned coordinates, unmentioned ones last, and
    each side's unmentioned ones are relabelled in turn to its least such elements."""
    free_a = itertools.filterfalse(fwd.__contains__, itertools.count())
    free_b = itertools.filterfalse(back.__contains__, itertools.count())
    last = float("inf")
    order = sorted(q, key=lambda c: (c[0] if c[0] in fwd else last,
                                     c[1] if c[1] in back else last))
    return frozenset((x if x in fwd else next(free_a), y if y in back else next(free_b))
                     for x, y in order)


def verify_fresh_strategy(a: Structure, b: Structure, params: GameParams,
                          budget: int = 10_000_000) -> bool:
    """Check the fresh-element duplicator strategy on a pair of edgeless
    structures, in at most `budget` challenges: newly mentioned elements
    map to fresh ones, the reply relation is the image under that map, and
    the pebble phase pairs mentioned with mentioned and fresh with fresh.

    The spoiler plays the solver's moves, one or more relations per orbit
    of the permutations of its side's unmentioned elements, then one
    position per orbit of those of both sides (_canonical), challenged on
    every pebbled and mentioned element and on one other per side.  Such a
    permutation maps the game after a relation, a position and a challenge
    to those after their images, the strategy's answers included, up to
    which unmentioned, unpebbled elements it takes as fresh or challenges;
    any two such choices differ by an automorphism fixing the book and the
    position.  So a whole orbit passes or fails alike."""
    p = params
    if any(a.rels.values()) or any(b.rels.values()):
        raise HypothesisViolated("structures must be edgeless")
    if a.sig.ordered or b.sig.ordered:
        raise HypothesisViolated("strategy is for unordered structures")
    if not ((p.m + 1) * p.r * p.s * ceil_log(a.n) ** p.k < a.n
            and ceil_log(a.n) == ceil_log(b.n)):
        raise HypothesisViolated(f"need (m+1)*r*s*ceil_log({a.n})**k < {a.n} and equal ceil_log")
    challenges = itertools.count(1)

    # A side of the game is (n_here, book, n_other, flip): its size, the
    # map from its mentioned elements to their images on the other side,
    # the other side's size, and whether its pairs are written (other, here).
    def pebble_phase(table, sides) -> bool:
        """Play from each reduced position (fewer than s pairs) reached: a
        pebbled element is answered by its partner, a mentioned one by its
        image, and the least element that is neither by the least such one
        of the other side."""
        (_, fwd, _, _), (_, back, _, _) = sides
        seen, stack = {frozenset()}, [frozenset()]
        while stack:
            q = stack.pop()
            for n_here, book, n_other, flip in sides:
                partner = {y: x for x, y in q} if flip else dict(q)
                taken = {*partner.values(), *book.values()}
                fresh = next((y for y in range(n_other) if y not in taken), None)
                answers = {**book, **partner}
                free = next((x for x in range(n_here) if x not in answers), None)
                answers.update({} if free is None else {free: fresh})
                for x, y in answers.items():
                    if y is None:
                        return False
                    if next(challenges) > budget:
                        raise ResourceLimit(f"fresh-strategy check: budget {budget} exceeded")
                    pair = (y, x) if flip else (x, y)
                    if not _extends(table, a.sig.ordered, q, *pair):
                        return False
                    nxt = q | {pair}
                    for r in [nxt] * (len(nxt) < p.s) + [nxt - {c} for c in nxt]:
                        if r not in seen and (r := _canonical(r, fwd, back)) not in seen:
                            seen.add(r)
                            stack.append(r)
        return True

    def relation_phase(extras_a, extras_b, fwd: dict, moves_left: int) -> bool:
        # fwd maps every element the extras mention on A to its image on B;
        # the spoiler may stop here (any announced count up to m)
        sides = ((a.n, fwd, b.n, False), (b.n, {y: x for x, y in fwd.items()}, a.n, True))
        if not pebble_phase(_pairing(a, extras_a, b, extras_b), sides):
            return False
        if moves_left == 0:
            return True
        moves = _Solver(p).spoiler_moves(ExpandedStructure(a, extras_a),
                                         ExpandedStructure(b, extras_b))
        for side, arity, _, rel in moves:
            _, mapped, n_other, flip = sides[side == "B"]
            new = sorted(mention_set(rel).difference(mapped))
            taken = set(mapped.values())
            fresh = [y for y in range(n_other) if y not in taken][:len(new)]
            if len(fresh) < len(new):
                return False
            book = {**mapped, **dict(zip(new, fresh))}
            image = frozenset(tuple(book[c] for c in t) for t in rel)
            moved = ((arity, rel),), ((arity, image),)
            if flip:
                book = {y: x for x, y in book.items()}
                moved = moved[::-1]
            if not relation_phase(extras_a + moved[0], extras_b + moved[1], book, moves_left - 1):
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
            return Eq(*(Var(rng.choice(bound)) for _ in range(2)))
        if kind == "relvar":
            name, arity, _, _ = rng.choice(relvars)
            return Atom(name, tuple(Var(rng.choice(bound)) for _ in range(arity)))
        name, arity = rng.choice(sig.relations)
        return Atom(name, tuple(Var(rng.choice(bound)) for _ in range(arity)))

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
