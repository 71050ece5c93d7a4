"""The benchmark's own answers, written from the definitions.

Nothing here imports logifp: every check compares the program's output
with a value computed by this module, never with a stored copy of an
earlier output.
"""

from __future__ import annotations

import itertools

PREDICATE_CHARS = {"P0": "0", "P1": "1", "PH": "#", "PL": "[", "PR": "]"}


def clog(n: int) -> int:
    """Smallest w with 2**w >= n."""
    return (n - 1).bit_length()


# --- the relation-to-bitstring encoding J and the reduction ---


def j_sequence(n: int, tuples) -> str:
    """J of a sequence of pairs, in the given order: per pair (a, b) the
    low clog(n) - 1 bits of b, least significant bit first."""
    width = clog(n) - 1
    return "".join(
        "".join(str((b >> i) & 1) for i in range(width)) for _, b in tuples
    )


def j_relation(n: int, rel) -> str:
    """J of a relation: its pairs in lexicographic order."""
    return j_sequence(n, sorted(rel))


def reduction_string(u: str, rels) -> str:
    """u#J(R1)...J(Rr), the string the J-reduction must produce."""
    return u + "#" + "".join(j_relation(len(u), r) for r in rels)


def read_string(n: int, rels: dict):
    """The text of a string structure given as {predicate: set of 1-tuples},
    or None when some position carries no predicate or more than one."""
    chars = []
    for i in range(n):
        hits = [PREDICATE_CHARS[p] for p, ts in rels.items() if (i,) in ts]
        if len(hits) != 1:
            return None
        chars.append(hits[0])
    return "".join(chars)


# --- graph search ---


def reachable(n: int, edges) -> set:
    """Pairs (x, y) joined by a directed path of length >= 1."""
    adj = {i: [] for i in range(n)}
    for x, y in edges:
        adj[x].append(y)
    out = set()
    for src in range(n):
        seen, stack = set(), list(adj[src])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(adj[v])
        out |= {(src, v) for v in seen}
    return out


def one_step_edges(u: str) -> set:
    """Edges of the graph the modelcheck IFP sentence walks: a position
    holding '1' steps to the next position."""
    return {(i, i + 1) for i in range(len(u) - 1) if u[i] == "1"}


def ifp_sentence_truth(u: str) -> bool:
    """Truth of the modelcheck reachability sentence: y is reachable from x
    exactly when x < y and every position in [x, y) holds '1'."""
    reach = reachable(len(u), one_step_edges(u))
    return all(
        ((x, y) in reach) == (x < y and set(u[x:y]) == {"1"})
        for x in range(len(u))
        for y in range(len(u))
    )


# --- log-quantified sentences, by brute force over bounded relations ---


def bounded_relations(universe, bound: int):
    for size in range(min(bound, len(universe)) + 1):
        yield from itertools.combinations(universe, size)


def all_bounded_miss_a_one_loop(u: str, k: int) -> bool:
    """A2log[k] X:2 . Ex.(P1(x) & !X(x,x))"""
    n = len(u)
    ones = {i for i, ch in enumerate(u) if ch == "1"}
    pairs = list(itertools.product(range(n), repeat=2))
    return all(ones - {a for a, b in x if a == b}
               for x in bounded_relations(pairs, clog(n) ** k))


def some_bounded_equals_one_zero_pairs(w: str, k: int) -> bool:
    """E2log[k] X:2 . Au.Av.((X(u,v) -> P1(u) & P0(v)) & (P1(u) & P0(v) -> X(u,v)))"""
    n = len(w)
    target = {(a, b) for a in range(n) for b in range(n) if w[a] == "1" and w[b] == "0"}
    pairs = list(itertools.product(range(n), repeat=2))
    return any(set(x) == target for x in bounded_relations(pairs, clog(n) ** k))


# --- guess-then-check ---


def gc_predicate(u: str, v: str) -> bool:
    """The property the gc_check formula states of u#v: v contains '11',
    u's last and v's first character are one '0' and one '1', and v's last
    character is u's first, a '0' or a '1'."""
    return ("11" in v and {u[-1], v[0]} == {"0", "1"}
            and v[-1] == u[0] and u[0] in "01")


def strings_length_lex(max_len: int):
    for length in range(max_len + 1):
        for bits in itertools.product("01", repeat=length):
            yield "".join(bits)


def first_gc_witness(u: str, max_len: int):
    """First v in length-then-lex order with gc_predicate(u, v), or None."""
    return next((v for v in strings_length_lex(max_len) if gc_predicate(u, v)), None)


# --- games ---


def edgeless_winner(n_a: int, n_b: int, s: int) -> str:
    """Winner of the s-pebble game on edgeless structures of sizes n_a, n_b:
    Spoiler pebbles s distinct elements of the larger one unless the other
    also has at least s."""
    return "Duplicator" if n_a == n_b or min(n_a, n_b) >= s else "Spoiler"


def even_sizes(m: int, r: int, k: int, s: int) -> tuple:
    """The EVEN instance: the smallest even n with (m+1)*r*s*clog(n)**k < n
    and clog(n) == clog(n+1), paired with n + 1."""
    n = 2
    while not ((m + 1) * r * s * clog(n) ** k < n and clog(n) == clog(n + 1)):
        n += 2
    return n, n + 1


# Sentences over one binary relation E as nested tuples:
# ("E", x, y) | ("=", x, y) | ("not", f) | ("and", f, g) | ("or", f, g)
# | ("ex", x, f) | ("all", x, f).  Each uses at most two variables.
TWO_VARIABLE_SENTENCES = [
    ("ex", "x", ("E", "x", "x")),
    ("all", "x", ("ex", "y", ("E", "x", "y"))),
    ("ex", "x", ("all", "y", ("not", ("E", "y", "x")))),
    ("ex", "x", ("ex", "y", ("and", ("E", "x", "y"),
                             ("and", ("E", "y", "x"), ("not", ("=", "x", "y")))))),
    ("all", "x", ("all", "y", ("or", ("not", ("E", "x", "y")), ("E", "y", "x")))),
    ("ex", "x", ("all", "y", ("or", ("=", "x", "y"), ("E", "x", "y")))),
    ("ex", "x", ("ex", "y", ("and", ("E", "x", "y"),
                             ("ex", "x", ("and", ("E", "y", "x"), ("not", ("E", "x", "x"))))))),
]


def holds(n: int, edges, f, env=None) -> bool:
    env = env or {}
    op = f[0]
    if op == "E":
        return (env[f[1]], env[f[2]]) in edges
    if op == "=":
        return env[f[1]] == env[f[2]]
    if op == "not":
        return not holds(n, edges, f[1], env)
    if op == "and":
        return holds(n, edges, f[1], env) and holds(n, edges, f[2], env)
    if op == "or":
        return holds(n, edges, f[1], env) or holds(n, edges, f[2], env)
    if op in ("ex", "all"):
        results = (holds(n, edges, f[2], {**env, f[1]: e}) for e in range(n))
        return any(results) if op == "ex" else all(results)
    raise ValueError(f"unknown connective {op!r}")


def separating_sentence(n_a: int, edges_a, n_b: int, edges_b):
    """A sentence of TWO_VARIABLE_SENTENCES true in exactly one of the two
    digraphs, or None."""
    for f in TWO_VARIABLE_SENTENCES:
        if holds(n_a, edges_a, f) != holds(n_b, edges_b, f):
            return f
    return None


def is_isomorphism(perm, edges_a, edges_b) -> bool:
    return {(perm[x], perm[y]) for x, y in edges_a} == set(edges_b)
