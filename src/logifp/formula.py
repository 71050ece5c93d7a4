"""Formula AST, traversal, concrete grammar, parser, printer, validation and metrics.

Grammar (ASCII):

    formula := chain of & | -> over unary, precedence ! > & > | > ->
    unary   := quant | "!" unary | atom | "(" formula ")" | ifp
    quant   := ("A"|"E") var "." formula
             | ("E2log[" int "]" | "A2log[" int "]") RELVAR ":" int "." formula
    ifp     := "ifp[" RELVAR "(" vars ")" "<-" formula "](" terms ")"
    atom    := NAME "(" terms ")" | term "=" term | term "<" term
             | "BIT(" term "," term ")"
    term    := var | INT | "logn"

Element variables are lowercase identifiers, relation names and relation
variables are uppercase identifiers.  "Ex" lexes as the quantifier E over
variable x when followed by "."; "E(x,y)" stays an atom.  The parser reads the
token texts of one `findall`; `_tokenize` computes positions only for an error.
Every traversal is a table of handlers on `fold`, so none is limited by Python's
recursion limit.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import reduce
from operator import attrgetter
from types import FunctionType

from .core import Signature
from .errors import (
    ArityMismatch,
    FormulaSyntaxError,
    IfpShapeError,
    OrderUsedUnordered,
    UnknownRelation,
)

# --- terms ---


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Lit:
    """Numeric literal: the i-th domain element under the built-in order."""

    value: int

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class LogN:
    """Built-in nullary term with value ceil_log(n)."""

    def __str__(self):
        return "logn"


Term = Var | Lit | LogN


# --- formulas ---


class _Node:
    """Base of the formula nodes.  A node may carry data derived from it
    outside its dataclass fields, such as the evaluator's prepared closure:
    `==`, `hash` and `repr` never see it, and pickling and copying drop it."""

    def __getstate__(self):
        return {name: self.__dict__[name] for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class Atom(_Node):
    """Relation atom; `name` is either a signature relation or a relation
    variable, resolved by context."""

    name: str
    args: tuple


@dataclass(frozen=True)
class Eq(_Node):
    left: Term
    right: Term


@dataclass(frozen=True)
class Less(_Node):
    left: Term
    right: Term


@dataclass(frozen=True)
class Bit(_Node):
    """BIT(y, x): bit x of the binary expansion of element y is 1."""

    value: Term
    index: Term


@dataclass(frozen=True)
class Not(_Node):
    body: "Formula"


@dataclass(frozen=True)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists(_Node):
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall(_Node):
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Ifp(_Node):
    """[IFP_{vars relvar} body](terms), |vars| == |terms| == arity(relvar)."""

    vars: tuple
    relvar: str
    body: "Formula"
    terms: tuple


@dataclass(frozen=True)
class ExistsLog(_Node):
    """Second-order exists over relations of size <= ceil_log(n)**k."""

    k: int
    relvar: str
    arity: int
    body: "Formula"


@dataclass(frozen=True)
class ForallLog(_Node):
    k: int
    relvar: str
    arity: int
    body: "Formula"


Formula = (
    Atom | Eq | Less | Bit | Not | And | Or | Implies
    | Exists | Forall | Ifp | ExistsLog | ForallLog
)


def conj(parts) -> Formula:
    parts = list(parts)
    if not parts:
        raise ValueError("empty conjunction")
    return reduce(And, parts)


def disj(parts) -> Formula:
    parts = list(parts)
    if not parts:
        raise ValueError("empty disjunction")
    return reduce(Or, parts)


# --- traversal ---

_ATOMIC = (Atom, Eq, Less, Bit)
_BINARY = (And, Or, Implies)

_TERMS = {
    Atom: attrgetter("args"),
    Eq: attrgetter("left", "right"),
    Less: attrgetter("left", "right"),
    Bit: attrgetter("value", "index"),
    Ifp: attrgetter("terms"),
}


def terms(g: Formula) -> tuple:
    """The terms an atomic formula or a fixed point is applied to; () for
    any other node."""
    get = _TERMS.get(type(g))
    return get(g) if get else ()


def _not_a_formula(g, *_):
    raise TypeError(f"not a formula: {g!r}")


def fold(f: Formula, ctx, table: dict) -> list:
    """The one formula traversal: a loop over a stack of (node, context)
    entries that calls table[type(node)](node, context, done, push) and returns
    the list `done`.  A handler appends the node's value to `done` or pushes a
    list of entries, the last handled first; an entry (finisher, data) pushed
    before a node's subformulas runs after them where the table extends REBUILD."""
    stack, done = [None, (f, ctx)], []  # the stack is popped down to the None
    push, get = stack.extend, table.get
    for g, c in iter(stack.pop, None):
        get(type(g), _not_a_formula)(g, c, done, push)
    return done


def _refill(template, done, push):
    """Finisher: the node cls(*head, folded body, *tail) of a template."""
    cls, head, tail = template
    done.append(cls(*head, done.pop(), *tail))


def _join(cls, done, push):
    done.append(cls(done.pop(-2), done.pop()))


# the same node around its folded subformulas, which keep the context
REBUILD = {
    FunctionType: FunctionType.__call__,  # (finisher, data): finisher(data, done, push)
    Not: lambda g, c, done, push: push([(_refill, (Not, (), ())), (g.body, c)]),
    **dict.fromkeys((ExistsLog, ForallLog), lambda g, c, done, push: push(
        [(_refill, (type(g), (g.k, g.relvar, g.arity), ())), (g.body, c)])),
    **dict.fromkeys(_BINARY, lambda g, c, done, push: push([(_join, type(g)), (g.right, c),
                                                            (g.left, c)])),
}

# the context of a binder's body from the binder and its own context
_BINDS = {
    Exists: lambda g, bound, rels, nlog: (bound | {g.var}, rels, nlog),
    Forall: lambda g, bound, rels, nlog: (bound | {g.var}, rels, nlog),
    ExistsLog: lambda g, bound, rels, nlog: (bound, {**rels, g.relvar: g.arity}, nlog + 1),
    ForallLog: lambda g, bound, rels, nlog: (bound, {**rels, g.relvar: g.arity}, nlog + 1),
    Ifp: lambda g, bound, rels, nlog: (bound.union(g.vars), {**rels, g.relvar: len(g.vars)}, nlog),
}


def _walk_binder(g, c, done, push):
    done.append((g, *c))
    push([(g.body, _BINDS[type(g)](g, *c))])


_WALK = {
    **dict.fromkeys(_ATOMIC, lambda g, c, done, push: done.append((g, *c))),
    Not: lambda g, c, done, push: push([(g.body, c)]),
    **dict.fromkeys(_BINARY, lambda g, c, done, push: push([(g.right, c), (g.left, c)])),
    **dict.fromkeys(_BINDS, _walk_binder),
}


def walk(f: Formula) -> list:
    """The atomic formulas, quantifiers and fixed points of `f` in pre-order,
    as (node, frozenset of element variables bound above it, {relation
    variable: arity} bound above it, number of log-quantifiers above it);
    the set and the dict are shared, so callers must not mutate them."""
    return fold(f, (frozenset(), {}, 0), _WALK)


def _element_names(g: Formula, out: set):
    """Add to `out` the element variables that node `g` binds or applies to."""
    t = type(g)
    if t is Exists or t is Forall:
        out.add(g.var)
    elif t is Ifp:
        out.update(g.vars)
    out.update([x.name for x in terms(g) if type(x) is Var])


# --- pretty printer ---
# The context is (operand, before, after): whether the node is an operand (a
# quantifier then needs brackets) and the text that comes before and after it.

_INFIX = {And: " & ", Or: " | ", Implies: " -> "}
_HEADS = {Exists: "E{0.var}. ", Forall: "A{0.var}. ",
          ExistsLog: "E2log[{0.k}] {0.relvar}:{0.arity} . ",
          ForallLog: "A2log[{0.k}] {0.relvar}:{0.arity} . "}

_PRETTY = {
    Atom: lambda g, c, done, push: done.append(
        f"{c[1]}{g.name}({','.join(map(str, g.args))}){c[2]}"),
    Eq: lambda g, c, done, push: done.append(f"{c[1]}{g.left}={g.right}{c[2]}"),
    Less: lambda g, c, done, push: done.append(f"{c[1]}{g.left}<{g.right}{c[2]}"),
    Bit: lambda g, c, done, push: done.append(f"{c[1]}BIT({g.value},{g.index}){c[2]}"),
    Not: lambda g, c, done, push: push([(g.body, (True, c[1] + "!", c[2])
                                         if type(g.body) in (Atom, Eq, Less, Bit, Ifp)
                                         else (False, c[1] + "!(", ")" + c[2]))]),
    **dict.fromkeys(_BINARY, lambda g, c, done, push: push([
        (g.right, (True, "", ")" + c[2])), (g.left, (True, c[1] + "(", _INFIX[type(g)]))])),
    **dict.fromkeys(_HEADS, lambda g, c, done, push: push([
        (g.body, (False, c[1] + "(" * c[0] + _HEADS[type(g)].format(g), ")" * c[0] + c[2]))])),
    Ifp: lambda g, c, done, push: push([
        (g.body, (False, f"{c[1]}ifp[{g.relvar}({','.join(g.vars)}) <- ",
                  f"]({','.join(map(str, g.terms))}){c[2]}"))]),
}


def pretty(f: Formula) -> str:
    return "".join(fold(f, (False, "", ""), _PRETTY))


# --- lexer ---

_IDENT, _INT, _OP = r"[A-Za-z][A-Za-z0-9_]*", r"\d+", r"->|<-|[()\[\].,=<:!&|#]"
_TOKEN_RE = re.compile(rf"(?P<ident>{_IDENT})|(?P<int>{_INT})|(?P<op>{_OP})|(?P<bad>\S)")
_TEXT_RE = re.compile(f"{_IDENT}|{_INT}|{_OP}")


def _tokenize(text: str):
    """The (kind, text, position) tokens, then eof: the parser's positions on error."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise FormulaSyntaxError(m.start(), "a token", m.group())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


_QUANT_RE = re.compile(r"^([AE])([a-z][A-Za-z0-9_]*)$")

# connective: (precedence, node); "->" is right-associative.  A pending
# quantifier has precedence 0, so its body extends maximally right, "!"
# has 4, and an open bracket has -1 and is popped only by its closer.
_CONNECTIVES = {"->": (1, Implies), "|": (2, Or), "&": (3, And)}


class _Parser:
    """Reads the token texts of one findall, padded with "" so that looking
    ahead needs no bound check.  A token's first character gives its kind: an
    ASCII letter starts an identifier, a digit an integer.  Positions come from
    `_tokenize`, and only when an error is raised."""

    def __init__(self, text: str):
        tokens = _TEXT_RE.findall(text)
        if len("".join(tokens)) != len("".join(text.split())):
            _tokenize(text)  # raises at the character that starts no token
        self.text, self.tokens, self.i, self.terms = text, tokens + ["", ""], 0, {}

    def fail(self, expected, found=None, at=None):
        at = self.i if at is None else at
        raise FormulaSyntaxError(_tokenize(self.text)[at][2], expected,
                                 found or self.tokens[at] or "end of input")

    def expect(self, value):
        if self.tokens[self.i] != value:
            self.fail(repr(value))
        self.i += 1

    def formula(self):
        """The formula up to the first token that cannot continue it, parsed
        with a stack of operands and a stack of pending operators (operator
        precedence, Pratt 1973), so nesting costs no Python frames.  A pending
        operator is (precedence, node class, fields before the body or None
        for a connective, token index)."""
        tokens, operands, pending = self.tokens, [], []
        while True:
            # operand position: stack prefixes and open brackets up to an atom
            while True:
                i = self.i
                val = tokens[i]
                if val == "(":
                    self.i = i + 1
                    pending.append((-1, None, None, i))
                elif val == "!":
                    self.i = i + 1
                    pending.append((4, Not, (), i))
                elif tokens[i + 1] == "." and (m := _QUANT_RE.match(val)):
                    self.i = i + 2 if m[2] != "logn" else self.fail("an element variable", m[2])
                    pending.append((0, Exists if m[1] == "E" else Forall, (m[2],), i))
                elif val in ("E", "A") and tokens[i + 2] == "." and tokens[i + 1][:1].islower():
                    self.i = i + 1
                    pending.append((0, Exists if val == "E" else Forall, (self.var_name(),), i))
                    self.i += 1
                elif val == "ifp":
                    self.i = i + 1
                    self.expect("[")
                    relvar = self.relvar()
                    vars_ = self.listed(self.var_name)
                    self.expect("<-")
                    pending.append((-1, Ifp, (vars_, relvar), i))
                elif val in ("E2log", "A2log") and tokens[i + 1] == "[":
                    self.i = i + 2
                    k = self.integer("an integer exponent")
                    self.expect("]")
                    relvar = self.relvar()
                    self.expect(":")
                    arity = self.integer("an arity")
                    self.expect(".")
                    cls = ExistsLog if val == "E2log" else ForallLog
                    pending.append((0, cls, (k, relvar, arity), i))
                else:
                    break
            operands.append(self.atom())
            # operator position: reduce what binds at least as tightly as the next
            # connective (more tightly for "->"; all but brackets before a closer)
            while True:
                prec, cls = _CONNECTIVES.get(tokens[self.i], (0, None))
                while pending and pending[-1][0] >= prec + (cls is Implies):
                    _, node, fields, at = pending.pop()
                    body = operands.pop()
                    if fields is None:
                        operands[-1] = node(operands[-1], body)
                        continue
                    if node is ExistsLog or node is ForallLog:
                        # checked once the body has parsed, so its errors come first
                        k, _, arity = fields
                        if k < 1:
                            self.fail("exponent k >= 1", str(k), at)
                        if arity < 1:
                            self.fail("arity >= 1", str(arity), at)
                    operands.append(node(*fields, body))
                if cls is not None:
                    pending.append((prec, cls, None, self.i))
                    self.i += 1
                    break
                if not pending:
                    return operands.pop()
                _, node, fields, _ = pending.pop()
                if node is None:
                    self.expect(")")
                else:
                    self.expect("]")
                    operands.append(Ifp(*fields, operands.pop(), self.listed(self.term)))

    def listed(self, item):
        """A parenthesised, comma-separated, non-empty list of `item`s."""
        self.expect("(")
        items = [item()]
        while self.tokens[self.i] == ",":
            self.i += 1
            items.append(item())
        self.expect(")")
        return tuple(items)

    def integer(self, expected):
        val = self.tokens[self.i]
        if not val[:1].isdigit():
            self.fail(expected)
        try:
            value = int(val)
        except ValueError:  # longer than the int-string limit
            self.fail(f"at most {sys.get_int_max_str_digits()} digits", f"{len(val)} digits")
        self.i += 1
        return value

    def relvar(self):
        val = self.tokens[self.i]
        if not val[:1].isupper():
            self.fail("a relation variable")
        self.i += 1
        return val

    def var_name(self):
        val = self.tokens[self.i]
        if not val[:1].islower() or val == "logn":
            self.fail("an element variable")
        self.i += 1
        return val

    def term(self):  # one term object per token text
        val = self.tokens[self.i]
        if val not in self.terms:
            if val[:1].isdigit():
                return self.terms.setdefault(val, Lit(self.integer("a term")))
            if not val[:1].islower():
                self.fail("a term")
            self.terms[val] = LogN() if val == "logn" else Var(val)
        self.i += 1
        return self.terms[val]

    def atom(self):
        val = self.tokens[self.i]
        if val == "BIT":
            self.i += 1
            self.expect("(")
            value = self.term()
            self.expect(",")
            index = self.term()
            self.expect(")")
            return Bit(value, index)
        if val[:1].isupper():
            self.i += 1
            return Atom(val, self.listed(self.term))
        left = self.term()
        op = self.tokens[self.i]
        if op == "=":
            self.i += 1
            return Eq(left, self.term())
        if op == "<":
            self.i += 1
            return Less(left, self.term())
        self.fail("'=' or '<'")


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    if p.tokens[p.i]:
        p.fail("end of input")
    return f


# --- validation ---


def validate(f: Formula, sig: Signature):
    """Arity/order checks.  Returns (free element vars, {free relvar: arity})."""
    free_elem: set[str] = set()
    free_rel: dict[str, int] = {}
    arities = dict(sig.relations)
    ordered = sig.ordered
    for g, bound, rels, _ in walk(f):
        t = type(g)
        if t is Ifp:
            if len(g.vars) != len(g.terms):
                raise IfpShapeError(
                    f"ifp over {g.relvar}: {len(g.vars)} variables vs {len(g.terms)} terms"
                )
            if len(set(g.vars)) != len(g.vars):
                raise IfpShapeError(f"ifp variables {g.vars} not distinct")
            if g.relvar in arities:
                raise UnknownRelation(f"ifp variable {g.relvar} shadows a signature relation")
        elif t is ExistsLog or t is ForallLog:
            if g.relvar in arities:
                raise UnknownRelation(
                    f"log-quantified variable {g.relvar} shadows a signature relation"
                )
        elif t is Less and not ordered:
            raise OrderUsedUnordered("'<' used on an unordered signature")
        elif t is Bit and not ordered:
            raise OrderUsedUnordered("BIT used on an unordered signature")
        for x in terms(g):
            if type(x) is Var:
                if x.name not in bound:
                    free_elem.add(x.name)
            elif type(x) is not Lit and type(x) is not LogN:
                raise TypeError(f"not a term: {x!r}")
            elif not ordered:
                raise OrderUsedUnordered(f"term {x} needs the built-in order")
        if t is Atom:
            name, arity = g.name, len(g.args)
            if name in arities:
                if arity != arities[name]:
                    raise ArityMismatch(f"{name} expects {arities[name]} args, got {arity}")
            else:
                declared = rels.get(name, free_rel.get(name))
                if declared is None:
                    free_rel[name] = arity
                elif declared != arity:
                    raise ArityMismatch(
                        f"relation variable {name} used with arities {declared} and {arity}"
                    )
    return frozenset(free_elem), free_rel


# --- metrics ---


@dataclass(frozen=True)
class Metrics:
    mva: int
    height: int
    lqr: int
    prenex_existential: bool
    num_element_vars: int


def metrics(f: Formula, sig: Signature | None = None) -> Metrics:
    """mva counts relation variables that are free or log-quantified;
    names belonging to `sig` (when given) are relations, not variables.
    height is the largest exponent k of a log-quantifier, lqr the deepest
    nesting of log-quantifiers."""
    arities = dict(sig.relations) if sig is not None else {}
    mva = top_k = depth = log_quantifiers = 0
    elems: set[str] = set()
    for g, _, rels, nlog in walk(f):
        t = type(g)
        if t is Atom:
            if g.name not in rels and g.name not in arities:
                mva = max(mva, len(g.args))  # free relation variable
        elif t is ExistsLog or t is ForallLog:
            mva = max(mva, g.arity)
            top_k = max(top_k, g.k)
            depth = max(depth, nlog + 1)
            log_quantifiers += 1
        _element_names(g, elems)
    # prenex existential: every log-quantifier is in the leading E2log chain
    prefix = 0
    while type(f) is ExistsLog:
        f = f.body
        prefix += 1
    return Metrics(
        mva=mva,
        height=top_k,
        lqr=depth,
        prenex_existential=prefix == log_quantifiers,
        num_element_vars=len(elems),
    )
