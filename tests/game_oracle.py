"""Reference implementations of the partial-isomorphism check, the pebble
game solver and the fresh-element strategy check as they stood before
the incremental extension check and the counter-based solver: every
position is re-checked from scratch and the solver eliminates positions
round by round.  Kept as a differential oracle for tests/test_game.py.

Also holds worklist_pebble_game_winner, the counter-based solver over
positions that the colour refinement of s-tuples replaced, as a second
oracle.

Also holds game_winner_stop_early, the reading of the relation-move game
in which the spoiler may stop the relation phase at any point; only the
test that both readings have the same winner uses it.

Also holds game_winner, the relation-move game solved with the spoiler
and the duplicator trying every bounded relation, as they did before
relation moves were played one per orbit of the untouched elements.

Also holds exhaustive_fresh_strategy, the fresh-element strategy check as
it stood before its pebble phase took one position and one challenge per
orbit of the permutations of unmentioned elements: every reduced position
the strategy reaches, challenged on every element of both sides.  It
calls game._extends through the module, so a test can record its answers.
"""

import itertools
from typing import Optional

from logifp.core import ceil_log, log_pow, mention_set
from logifp.errors import HypothesisViolated, ShapeMismatch
from logifp.evaluate import enumerate_bounded_relations
from logifp import game
from logifp.game import ExpandedStructure, Winner, _Solver


def mention_union(relations) -> frozenset:
    """Elements occurring in some tuple of some relation."""
    return frozenset(c for r in relations for t in r for c in t)


def is_partial_isomorphism(a, extras_a, elems_a, b, extras_b, elems_b) -> bool:
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
    return _pairs_ok(a, extras_a, b, extras_b, tuple(zip(elems_a, elems_b)))


def _pairs_ok(a, extras_a, b, extras_b, pairs) -> bool:
    fwd: dict = {}
    back: dict = {}
    for x, y in pairs:
        if fwd.setdefault(x, y) != y or back.setdefault(y, x) != x:
            return False
    dom = sorted(fwd)
    if a.sig.ordered:
        for x1 in dom:
            for x2 in dom:
                if (x1 < x2) != (fwd[x1] < fwd[x2]):
                    return False
    paired = [(a.rels[name], b.rels[name], a.sig.arity(name)) for name in a.sig.names]
    paired += [(ta, tb, arity) for (arity, ta), (_, tb) in zip(extras_a, extras_b)]
    for ta, tb, arity in paired:
        for t in itertools.product(dom, repeat=arity):
            if (t in ta) != (tuple(fwd[c] for c in t) in tb):
                return False
    return True


def _partial_isos(ea: ExpandedStructure, eb: ExpandedStructure, s: int) -> set:
    a, b = ea.base, eb.base
    singles = [
        (x, y)
        for x in range(a.n)
        for y in range(b.n)
        if _pairs_ok(a, ea.extras, b, eb.extras, ((x, y),))
    ]
    layers = {frozenset()}
    out = {frozenset()}
    for _ in range(s):
        nxt = set()
        for p in layers:
            for pair in singles:
                if pair in p:
                    continue
                q = p | {pair}
                if q in out:
                    continue
                if _pairs_ok(a, ea.extras, b, eb.extras, tuple(q)):
                    nxt.add(q)
        out |= nxt
        layers = nxt
    return out


def pebble_game_winner(ea: ExpandedStructure, eb: ExpandedStructure, s: int):
    if s < 1:
        raise ShapeMismatch(f"s = {s} < 1")
    survivors = _partial_isos(ea, eb, s)
    na, nb = ea.base.n, eb.base.n
    changed = True
    while changed:
        changed = False
        dead = []
        for p in survivors:
            reduced = [p] if len(p) < s else []
            reduced += [p - {pair} for pair in p]
            broken = False
            for q in reduced:
                for x in range(na):
                    if not any(q | {(x, y)} in survivors for y in range(nb)):
                        broken = True
                        break
                if broken:
                    break
                for y in range(nb):
                    if not any(q | {(x, y)} in survivors for x in range(na)):
                        broken = True
                        break
                if broken:
                    break
            if broken:
                dead.append(p)
        if dead:
            survivors.difference_update(dead)
            changed = True
    winner = Winner.DUPLICATOR if frozenset() in survivors else Winner.SPOILER
    return winner, survivors


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


def worklist_pebble_game_winner(ea: ExpandedStructure, eb: ExpandedStructure, s: int):
    """The worklist algorithm for safety games: each challenge keeps a
    count of its surviving replies; removing a position decrements the
    counts of the challenges it answers, and a count reaching zero removes
    the challenged position q and every position one pair larger than q."""
    if s < 1:
        raise ShapeMismatch(f"s = {s} < 1")
    a, b = ea.base, eb.base
    survivors = _partial_isos(ea, eb, s)
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


def _is_edgeless(a) -> bool:
    return all(not ts for ts in a.rels.values())


def verify_fresh_strategy(a, b, params) -> bool:
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

        seen: set = set()
        stack = [frozenset()]
        while stack:
            pos = stack.pop()
            if pos in seen:
                continue
            seen.add(pos)
            reduced = [pos] if len(pos) < p.s else []
            reduced += [pos - {pair} for pair in pos]
            for q in reduced:
                for side, limit in (("A", a.n), ("B", b.n)):
                    for x in range(limit):
                        y = respond(q, side, x)
                        if y is None:
                            return False
                        nxt = q | ({(x, y)} if side == "A" else {(y, x)})
                        if not _pairs_ok(a, extras_a, b, extras_b, tuple(nxt)):
                            return False
                        if nxt not in seen:
                            stack.append(nxt)
        return True

    def relation_phase(extras_a, extras_b, fwd: dict, moves_left: int) -> bool:
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


def game_winner_stop_early(a, b, params, budget: int = 10_000_000) -> Winner:
    """Winner when the spoiler may stop the relation phase at any point."""
    solver = _Solver(params, budget)

    def wins(ea, eb, moves_left) -> Winner:
        if solver.pebble(ea, eb) is Winner.SPOILER:
            return Winner.SPOILER
        if moves_left == 0:
            return Winner.DUPLICATOR
        for side, arity, k, rel in solver.spoiler_moves(ea, eb):
            solver.charge()
            other = eb if side == "A" else ea
            survived = False
            for reply in solver.replies(other, arity, k, rel):
                if side == "A":
                    nxt = (ea.expanded(arity, rel), eb.expanded(arity, reply))
                else:
                    nxt = (ea.expanded(arity, reply), eb.expanded(arity, rel))
                if wins(nxt[0], nxt[1], moves_left - 1) is Winner.DUPLICATOR:
                    survived = True
                    break
            if not survived:
                return Winner.SPOILER
        return Winner.DUPLICATOR

    return wins(ExpandedStructure(a), ExpandedStructure(b), params.m)


class _FullSolver(_Solver):
    """The relation-move solver with every bounded relation tried, by the
    spoiler and by the duplicator after its relabelled candidate."""

    def spoiler_moves(self, ea, eb):
        p = self.params
        for side in ("A", "B"):
            picker = ea if side == "A" else eb
            n = picker.base.n
            for arity in range(1, p.r + 1):
                for k in range(1, p.k + 1):
                    for rel in enumerate_bounded_relations(n, arity, log_pow(n, k)):
                        yield side, arity, k, rel

    def replies(self, other, arity, k, rel):
        n_other = other.base.n
        bound = log_pow(n_other, k)
        seen = set()
        mentioned = sorted(mention_set(rel))
        if len(rel) <= bound:
            if mentioned and mentioned[-1] >= n_other:
                relabel = {x: i for i, x in enumerate(mentioned)}
            else:
                relabel = {x: x for x in mentioned}
            if len(relabel) <= n_other:
                cand = frozenset(tuple(relabel[c] for c in t) for t in rel)
                seen.add(cand)
                yield cand
        for cand in enumerate_bounded_relations(n_other, arity, bound):
            if cand not in seen:
                yield cand


def game_winner(a, b, params, budget: int = 10_000_000):
    """game.game_winner with _FullSolver: (winner, transcript)."""
    solver = _FullSolver(params, budget)
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


def exhaustive_fresh_strategy(a, b, params) -> bool:
    """game.verify_fresh_strategy with every reduced position and every
    challenge played: a pebbled element is answered by its partner, a
    mentioned one by its image, and every other one by the least element of
    the other side that is neither mentioned nor pebbled."""
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

    # a side is (n_here, book, n_other, flip), as in game.verify_fresh_strategy
    def pebble_phase(table, sides) -> bool:
        seen = {frozenset()}
        stack = [frozenset()]
        while stack:
            q = stack.pop()
            for n_here, book, n_other, flip in sides:
                partner = {y: x for x, y in q} if flip else dict(q)
                taken = {*partner.values(), *book.values()}
                fresh = next((y for y in range(n_other) if y not in taken), None)
                for x in range(n_here):
                    y = partner.get(x, book.get(x, fresh))
                    if y is None:
                        return False
                    pair = (y, x) if flip else (x, y)
                    if not game._extends(table, a.sig.ordered, q, *pair):
                        return False
                    nxt = q | {pair}
                    for r in [nxt] * (len(nxt) < p.s) + [nxt - {c} for c in nxt]:
                        if r not in seen:
                            seen.add(r)
                            stack.append(r)
        return True

    def relation_phase(extras_a, extras_b, fwd: dict, moves_left: int) -> bool:
        sides = ((a.n, fwd, b.n, False), (b.n, {y: x for x, y in fwd.items()}, a.n, True))
        if not pebble_phase(game._pairing(a, extras_a, b, extras_b), sides):
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
