"""Recursive reference implementations of validate, metrics,
element_variables and interp._collect_names, the position-loop lexer and
the recursive-descent parser, as they stood before logifp.formula.walk,
the one-pass lexer and the operator-precedence parser; and the generator
walk, the recursive printer and the recursive interp._rename and
interp.transform_formula, as they stood before logifp.formula.fold.  Kept
as a differential oracle for tests/test_formula.py and
tests/test_interp.py; metrics returns the fields of
logifp.formula.Metrics as a plain tuple in declaration order.  The
parser reads the tokens of logifp.formula._tokenize, with their kinds and
positions.  logifp.formula.parse_formula reads only the token texts of one
findall and calls _tokenize only to raise an error, so comparing the two
parsers also checks that reading and its positions."""

import re

from logifp.core import Signature
from logifp.errors import (
    ArityMismatch,
    FormulaSyntaxError,
    IfpShapeError,
    LogQuantifierUnsupported,
    OrderUsedUnordered,
    UnknownRelation,
    UnsupportedTerm,
)
from logifp.formula import _tokenize as _one_pass_tokenize
from logifp.formula import (
    And,
    Atom,
    Bit,
    Eq,
    Exists,
    ExistsLog,
    Forall,
    ForallLog,
    Formula,
    Ifp,
    Implies,
    Less,
    Lit,
    LogN,
    Not,
    Or,
    Term,
    Var,
    conj,
)
from logifp.interp import Interpretation, _Gensym, canon_vars

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<op>->|<-|[()\[\].,=<:!&|#]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise FormulaSyntaxError(at, "a token", text[at])
        if m.lastgroup is None and m.group().strip() == "":
            pos = m.end()
            continue
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


def validate(f: Formula, sig: Signature):
    """Arity/order checks.  Returns (free element vars, {free relvar: arity})."""
    free_elem: set[str] = set()
    free_rel: dict[str, int] = {}

    def term_check(t: Term, bound: frozenset):
        if isinstance(t, Var):
            if t.name not in bound:
                free_elem.add(t.name)
        elif isinstance(t, (Lit, LogN)):
            if not sig.ordered:
                raise OrderUsedUnordered(f"term {t} needs the built-in order")
        else:
            raise TypeError(f"not a term: {t!r}")

    def relvar_seen(name: str, arity: int, bound_rel: dict):
        declared = bound_rel.get(name, free_rel.get(name))
        if declared is None:
            free_rel[name] = arity
        elif declared != arity:
            raise ArityMismatch(f"relation variable {name} used with arities {declared} and {arity}")

    def walk(g: Formula, bound: frozenset, bound_rel: dict):
        t = type(g)
        if t is Atom:
            for a in g.args:
                term_check(a, bound)
            if sig.has(g.name):
                if len(g.args) != sig.arity(g.name):
                    raise ArityMismatch(
                        f"{g.name} expects {sig.arity(g.name)} args, got {len(g.args)}"
                    )
            else:
                relvar_seen(g.name, len(g.args), bound_rel)
        elif t in (Eq, Less):
            if t is Less and not sig.ordered:
                raise OrderUsedUnordered("'<' used on an unordered signature")
            term_check(g.left, bound)
            term_check(g.right, bound)
        elif t is Bit:
            if not sig.ordered:
                raise OrderUsedUnordered("BIT used on an unordered signature")
            term_check(g.value, bound)
            term_check(g.index, bound)
        elif t is Not:
            walk(g.body, bound, bound_rel)
        elif t in (And, Or, Implies):
            walk(g.left, bound, bound_rel)
            walk(g.right, bound, bound_rel)
        elif t in (Exists, Forall):
            walk(g.body, bound | {g.var}, bound_rel)
        elif t in (ExistsLog, ForallLog):
            walk(g.body, bound, {**bound_rel, g.relvar: g.arity})
        elif t is Ifp:
            if len(g.vars) != len(g.terms):
                raise IfpShapeError(
                    f"ifp over {g.relvar}: {len(g.vars)} variables vs {len(g.terms)} terms"
                )
            if len(set(g.vars)) != len(g.vars):
                raise IfpShapeError(f"ifp variables {g.vars} not distinct")
            if sig.has(g.relvar):
                raise UnknownRelation(f"ifp variable {g.relvar} shadows a signature relation")
            for x in g.terms:
                term_check(x, bound)
            walk(g.body, bound | set(g.vars), {**bound_rel, g.relvar: len(g.vars)})
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f, frozenset(), {})
    for name in free_rel:
        if sig.has(name):
            raise UnknownRelation(name)
    return frozenset(free_elem), dict(free_rel)


def lqr(f: Formula) -> int:
    t = type(f)
    if t in (Atom, Eq, Less, Bit):
        return 0
    if t is Not:
        return lqr(f.body)
    if t in (And, Or, Implies):
        return max(lqr(f.left), lqr(f.right))
    if t in (Exists, Forall):
        return lqr(f.body)
    if t in (ExistsLog, ForallLog):
        return lqr(f.body) + 1
    if t is Ifp:
        return lqr(f.body)
    raise TypeError(f"not a formula: {f!r}")


def height(f: Formula) -> int:
    t = type(f)
    if t in (Atom, Eq, Less, Bit):
        return 0
    if t is Not:
        return height(f.body)
    if t in (And, Or, Implies):
        return max(height(f.left), height(f.right))
    if t in (Exists, Forall):
        return height(f.body)
    if t in (ExistsLog, ForallLog):
        return max(f.k, height(f.body))
    if t is Ifp:
        return height(f.body)
    raise TypeError(f"not a formula: {f!r}")


def _has_log_quantifier(f: Formula) -> bool:
    return height(f) > 0


def _is_prenex_existential(f: Formula) -> bool:
    while type(f) is ExistsLog:
        f = f.body
    return not _has_log_quantifier(f)


def element_variables(f: Formula) -> frozenset:
    out: set[str] = set()

    def term(t):
        if isinstance(t, Var):
            out.add(t.name)

    def walk(g):
        t = type(g)
        if t is Atom:
            for a in g.args:
                term(a)
        elif t in (Eq, Less):
            term(g.left)
            term(g.right)
        elif t is Bit:
            term(g.value)
            term(g.index)
        elif t is Not:
            walk(g.body)
        elif t in (And, Or, Implies):
            walk(g.left)
            walk(g.right)
        elif t in (Exists, Forall):
            out.add(g.var)
            walk(g.body)
        elif t in (ExistsLog, ForallLog):
            walk(g.body)
        elif t is Ifp:
            out.update(g.vars)
            for x in g.terms:
                term(x)
            walk(g.body)

    walk(f)
    return frozenset(out)


def metrics(f, sig=None) -> tuple:
    """mva counts relation variables that are free or log-quantified;
    names belonging to `sig` (when given) are relations, not variables."""
    arities: list[int] = []

    def is_sig(name):
        return sig is not None and sig.has(name)

    def walk(g, bound_rel: frozenset):
        t = type(g)
        if t is Atom:
            if not is_sig(g.name) and g.name not in bound_rel:
                arities.append(len(g.args))  # free relation variable
        elif t is Not:
            walk(g.body, bound_rel)
        elif t in (And, Or, Implies):
            walk(g.left, bound_rel)
            walk(g.right, bound_rel)
        elif t in (Exists, Forall):
            walk(g.body, bound_rel)
        elif t in (ExistsLog, ForallLog):
            arities.append(g.arity)
            walk(g.body, bound_rel | {g.relvar})
        elif t is Ifp:
            walk(g.body, bound_rel | {g.relvar})

    walk(f, frozenset())
    return (
        max(arities, default=0),
        height(f),
        lqr(f),
        _is_prenex_existential(f),
        len(element_variables(f)),
    )


def _collect_names(f: Formula, out: set):
    t = type(f)
    if t is Atom:
        out.add(f.name)
        for x in f.args:
            if type(x) is Var:
                out.add(x.name)
    elif t in (Eq, Less):
        for x in (f.left, f.right):
            if type(x) is Var:
                out.add(x.name)
    elif t is Bit:
        for x in (f.value, f.index):
            if type(x) is Var:
                out.add(x.name)
    elif t is Not:
        _collect_names(f.body, out)
    elif t in (And, Or, Implies):
        _collect_names(f.left, out)
        _collect_names(f.right, out)
    elif t in (Exists, Forall):
        out.add(f.var)
        _collect_names(f.body, out)
    elif t in (ExistsLog, ForallLog):
        out.add(f.relvar)
        _collect_names(f.body, out)
    elif t is Ifp:
        out.add(f.relvar)
        out.update(f.vars)
        for x in f.terms:
            if type(x) is Var:
                out.add(x.name)
        _collect_names(f.body, out)


# --- recursive-descent parser ---

_QUANT_RE = re.compile(r"^([AE])([a-z][A-Za-z0-9_]*)$")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _one_pass_tokenize(text)
        self.i = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self):
        # only called after a peek that matched a token other than eof
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, value):
        kind, val, pos = self.peek()
        if val != value:
            raise FormulaSyntaxError(pos, repr(value), val or "end of input")
        return self.next()

    def fail(self, expected):
        kind, val, pos = self.peek()
        raise FormulaSyntaxError(pos, expected, val or "end of input")

    # implication is right-associative
    def formula(self):
        left = self.or_level()
        if self.peek()[1] == "->":
            self.next()
            return Implies(left, self.formula())
        return left

    def try_quantifier(self):
        kind, val, pos = self.peek()
        if kind != "ident":
            return None
        if val in ("E2log", "A2log") and self.peek(1)[1] == "[":
            self.next()
            self.expect("[")
            ktok = self.peek()
            if ktok[0] != "int":
                self.fail("an integer exponent")
            k = int(self.next()[1])
            self.expect("]")
            rv = self.peek()
            if rv[0] != "ident" or not rv[1][0].isupper():
                self.fail("a relation variable")
            relvar = self.next()[1]
            self.expect(":")
            atok = self.peek()
            if atok[0] != "int":
                self.fail("an arity")
            arity = int(self.next()[1])
            self.expect(".")
            body = self.formula()
            cls = ExistsLog if val == "E2log" else ForallLog
            if k < 1:
                raise FormulaSyntaxError(pos, "exponent k >= 1", str(k))
            if arity < 1:
                raise FormulaSyntaxError(pos, "arity >= 1", str(arity))
            return cls(k, relvar, arity, body)
        m = _QUANT_RE.match(val)
        if m and self.peek(1)[1] == ".":
            if m.group(2) == "logn":
                raise FormulaSyntaxError(pos, "an element variable", "logn")
            self.next()
            self.expect(".")
            body = self.formula()
            return (Exists if m.group(1) == "E" else Forall)(m.group(2), body)
        if val in ("E", "A") and self.peek(1)[0] == "ident" and self.peek(1)[1][0].islower() \
                and self.peek(2)[1] == ".":
            self.next()
            var = self.var_name()
            self.expect(".")
            body = self.formula()
            return (Exists if val == "E" else Forall)(var, body)
        return None

    def or_level(self):
        left = self.and_level()
        while self.peek()[1] == "|":
            self.next()
            left = Or(left, self.and_level())
        return left

    def and_level(self):
        left = self.unary()
        while self.peek()[1] == "&":
            self.next()
            left = And(left, self.unary())
        return left

    def unary(self):
        # a quantifier may start an operand; its body extends maximally right
        q = self.try_quantifier()
        if q is not None:
            return q
        kind, val, pos = self.peek()
        if val == "!":
            self.next()
            return Not(self.unary())
        if val == "(":
            self.next()
            inner = self.formula()
            self.expect(")")
            return inner
        if val == "ifp":
            return self.ifp()
        return self.atom()

    def ifp(self):
        self.expect("ifp")
        self.expect("[")
        rv = self.peek()
        if rv[0] != "ident" or not rv[1][0].isupper():
            self.fail("a relation variable")
        relvar = self.next()[1]
        self.expect("(")
        vars_ = [self.var_name()]
        while self.peek()[1] == ",":
            self.next()
            vars_.append(self.var_name())
        self.expect(")")
        self.expect("<-")
        body = self.formula()
        self.expect("]")
        self.expect("(")
        terms = [self.term()]
        while self.peek()[1] == ",":
            self.next()
            terms.append(self.term())
        self.expect(")")
        return Ifp(tuple(vars_), relvar, body, tuple(terms))

    def var_name(self):
        kind, val, pos = self.peek()
        if kind != "ident" or not val[0].islower() or val == "logn":
            self.fail("an element variable")
        return self.next()[1]

    def term(self):
        kind, val, pos = self.peek()
        if kind == "int":
            self.next()
            return Lit(int(val))
        if kind == "ident" and val == "logn":
            self.next()
            return LogN()
        if kind == "ident" and val[0].islower():
            self.next()
            return Var(val)
        self.fail("a term")

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "ident" and val == "BIT":
            self.next()
            self.expect("(")
            value = self.term()
            self.expect(",")
            index = self.term()
            self.expect(")")
            return Bit(value, index)
        if kind == "ident" and val[0].isupper():
            name = self.next()[1]
            self.expect("(")
            args = [self.term()]
            while self.peek()[1] == ",":
                self.next()
                args.append(self.term())
            self.expect(")")
            return Atom(name, tuple(args))
        left = self.term()
        op = self.peek()[1]
        if op == "=":
            self.next()
            return Eq(left, self.term())
        if op == "<":
            self.next()
            return Less(left, self.term())
        self.fail("'=' or '<'")


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    kind, val, pos = p.peek()
    if kind != "eof":
        raise FormulaSyntaxError(pos, "end of input", val)
    return f


# --- traversals before logifp.formula.fold ---

_ATOMIC = (Atom, Eq, Less, Bit)
_BINARY = {And: "&", Or: "|", Implies: "->"}
_BINDERS = (Exists, Forall, ExistsLog, ForallLog, Ifp)


def walk(f: Formula):
    """Pre-order over the atomic formulas, quantifiers and fixed points of
    `f`, passing through And/Or/Implies/Not without yielding them.

    Yields (node, frozenset of element variables bound above it,
    {relation variable: arity} bound above it, number of log-quantifiers
    above it); the set and the dict are shared between nodes, so callers
    must not mutate them.  An explicit stack replaces recursion, so the
    depth of `f` is not limited by Python's recursion limit.
    """
    stack = [(f, frozenset(), {}, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        g, bound, rels, nlog = item = pop()
        t = type(g)
        if t in _ATOMIC:
            yield item
        elif t in _BINARY:
            push((g.right, bound, rels, nlog))
            push((g.left, bound, rels, nlog))
        elif t is Not:
            push((g.body, bound, rels, nlog))
        elif t in _BINDERS:
            yield item
            if t is Exists or t is Forall:
                push((g.body, bound | {g.var}, rels, nlog))
            elif t is Ifp:
                push((g.body, bound.union(g.vars), {**rels, g.relvar: len(g.vars)}, nlog))
            else:
                push((g.body, bound, {**rels, g.relvar: g.arity}, nlog + 1))
        else:
            raise TypeError(f"not a formula: {g!r}")


def pretty(f: Formula) -> str:
    return _pp(f, operand=False)


def _pp(f: Formula, operand: bool) -> str:
    t = type(f)
    if t is Atom:
        return f"{f.name}({','.join(str(a) for a in f.args)})"
    if t is Eq:
        return f"{f.left}={f.right}"
    if t is Less:
        return f"{f.left}<{f.right}"
    if t is Bit:
        return f"BIT({f.value},{f.index})"
    if t is Not:
        inner = f.body
        if type(inner) in (Atom, Eq, Less, Bit, Ifp):
            return "!" + _pp(inner, True)
        return "!(" + _pp(inner, False) + ")"
    if t in _BINARY:
        # a left-nested chain such as conj builds: one loop, not a frame per link
        closes = []
        while type(f) in _BINARY:
            closes.append(f" {_BINARY[type(f)]} {_pp(f.right, True)})")
            f = f.left
        return "(" * len(closes) + _pp(f, True) + "".join(reversed(closes))
    if t is Exists:
        s = f"E{f.var}. {_pp(f.body, False)}"
    elif t is Forall:
        s = f"A{f.var}. {_pp(f.body, False)}"
    elif t is ExistsLog:
        s = f"E2log[{f.k}] {f.relvar}:{f.arity} . {_pp(f.body, False)}"
    elif t is ForallLog:
        s = f"A2log[{f.k}] {f.relvar}:{f.arity} . {_pp(f.body, False)}"
    elif t is Ifp:
        head = f"{f.relvar}({','.join(f.vars)})"
        return f"ifp[{head} <- {_pp(f.body, False)}]({','.join(str(x) for x in f.terms)})"
    else:
        raise TypeError(f"not a formula: {f!r}")
    return f"({s})" if operand else s


def _rename(f: Formula, varmap: dict, gensym: _Gensym) -> Formula:
    """Substitute free element variables per varmap, renaming every binder
    to a fresh name so capture is impossible."""

    def term(x, vm):
        if type(x) is Var:
            return Var(vm.get(x.name, x.name))
        return x

    def walk(g, vm):
        t = type(g)
        if t is Atom:
            return Atom(g.name, tuple(term(x, vm) for x in g.args))
        if t is Eq:
            return Eq(term(g.left, vm), term(g.right, vm))
        if t is Less:
            return Less(term(g.left, vm), term(g.right, vm))
        if t is Bit:
            return Bit(term(g.value, vm), term(g.index, vm))
        if t is Not:
            return Not(walk(g.body, vm))
        if t in (And, Or, Implies):
            return t(walk(g.left, vm), walk(g.right, vm))
        if t in (Exists, Forall):
            fresh = gensym.fresh("v")
            return t(fresh, walk(g.body, {**vm, g.var: fresh}))
        if t in (ExistsLog, ForallLog):
            return t(g.k, g.relvar, g.arity, walk(g.body, vm))
        if t is Ifp:
            fresh_vars = tuple(gensym.fresh("v") for _ in g.vars)
            inner = {**vm, **dict(zip(g.vars, fresh_vars))}
            return Ifp(
                fresh_vars,
                g.relvar,
                walk(g.body, inner),
                tuple(term(x, vm) for x in g.terms),
            )
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, dict(varmap))


def transform_formula(f: Formula, i: Interpretation) -> Formula:
    """Backward translation: element variables become width-w tuples,
    target atoms become their defining formulas, quantifiers are
    relativized to the universe formula, and fixed-point variables widen
    from arity l to arity l*width."""
    w = i.width
    used: set[str] = set()
    _collect_names(f, used)
    _collect_names(i.uni, used)
    for g in i.rels.values():
        _collect_names(g, used)
    if i.less is not None:
        _collect_names(i.less, used)
    gensym = _Gensym(used)

    # first uses of free names; bound names travel down the walk
    free_elems: dict[str, tuple[str, ...]] = {}
    free_rels: dict[str, str] = {}

    def fresh_tuple(var: str) -> tuple[str, ...]:
        return tuple(gensym.fresh(f"{var}_") for _ in range(w))

    def tuple_of(x, elems: dict) -> tuple[str, ...]:
        if type(x) is not Var:
            raise UnsupportedTerm(f"term {x} cannot be widened to a tuple")
        names = elems.get(x.name) or free_elems.get(x.name)
        if names is None:
            names = free_elems[x.name] = fresh_tuple(x.name)
        return names

    def uni_at(names: tuple[str, ...]) -> Formula:
        return _rename(i.uni, dict(zip(canon_vars(w), names)), gensym)

    def walk(g: Formula, elems: dict, rels: dict) -> Formula:
        t = type(g)
        if t is Atom:
            flat = tuple(n for x in g.args for n in tuple_of(x, elems))
            if g.name in i.rels:
                params = canon_vars(len(g.args) * w)
                return _rename(i.rels[g.name], dict(zip(params, flat)), gensym)
            widened = rels.get(g.name) or free_rels.get(g.name)
            if widened is None:
                widened = free_rels[g.name] = gensym.fresh(g.name)
            return Atom(widened, tuple(Var(n) for n in flat))
        if t is Eq:
            lt, rt = tuple_of(g.left, elems), tuple_of(g.right, elems)
            return conj(Eq(Var(a), Var(b)) for a, b in zip(lt, rt))
        if t is Less:
            if i.less is None:
                raise UnsupportedTerm("'<' in the source formula but no order formula")
            flat = tuple_of(g.left, elems) + tuple_of(g.right, elems)
            return _rename(i.less, dict(zip(canon_vars(2 * w), flat)), gensym)
        if t is Bit:
            raise UnsupportedTerm("BIT does not translate through an interpretation")
        if t is Not:
            return Not(walk(g.body, elems, rels))
        if t in (And, Or, Implies):
            return t(walk(g.left, elems, rels), walk(g.right, elems, rels))
        if t in (Exists, Forall):
            names = fresh_tuple(g.var)
            body = walk(g.body, {**elems, g.var: names}, rels)
            guard = uni_at(names)
            inner = And(guard, body) if t is Exists else Implies(guard, body)
            for name in reversed(names):
                inner = t(name, inner)
            return inner
        if t in (ExistsLog, ForallLog):
            raise LogQuantifierUnsupported("log-quantifiers do not translate")
        if t is Ifp:
            flat_terms = tuple(Var(n) for x in g.terms for n in tuple_of(x, elems))
            widened = gensym.fresh(g.relvar)
            blocks = [fresh_tuple(y) for y in g.vars]
            body = walk(g.body, {**elems, **dict(zip(g.vars, blocks))},
                        {**rels, g.relvar: widened})
            guards = conj(uni_at(block) for block in blocks)
            flat_vars = tuple(n for block in blocks for n in block)
            return Ifp(flat_vars, widened, And(guards, body), flat_terms)
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, {}, {})
