"""Propositional formulas for intuitionistic epistemic logic.

Syntax trees over atoms, falsum, conjunction, disjunction, implication and
the epistemic modality K, with an ASCII concrete syntax.  Negation is not a
constructor: ``~A`` is parsed and printed as sugar for ``A -> false``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable


_NAME_RE = re.compile(r"(?!false\Z)[a-z][a-zA-Z0-9_]*\Z")  # `false` is falsum


class Formula:
    """Base class; concrete shapes are Var, Bottom, And, Or, Imp and K.

    Each node computes its hash, connective count and rendered text once,
    when it is built, from the values its children already hold: none of
    them recurses, and nothing is cached outside the node.
    """

    __slots__ = ("_hash", "_size", "_text", "_level", "_subs")

    def __post_init__(self) -> None:
        fields = tuple(vars(self).values())
        children = [v for v in fields if isinstance(v, Formula)]
        object.__setattr__(self, "_hash", hash((type(self).__name__, *fields)))
        object.__setattr__(self, "_size",
                           sum(c._size for c in children) + (1 if children else 0))
        text, level = _rend(self)
        object.__setattr__(self, "_text", text)
        object.__setattr__(self, "_level", level)
        object.__setattr__(self, "_subs", None)

    def __hash__(self) -> int:
        return self._hash


def _node(cls: type) -> type:
    """A frozen dataclass that keeps Formula's stored hash; a bare
    @dataclass(frozen=True) would give each subclass a recursive __hash__."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class Var(Formula):
    name: str

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(f"bad variable name: {self.name!r}")
        super().__post_init__()


@_node
class Bottom(Formula):
    pass


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Imp(Formula):
    left: Formula
    right: Formula


@_node
class K(Formula):
    body: Formula


# ---------------------------------------------------------------------------
# Structural measures
# ---------------------------------------------------------------------------

def connective_count(f: Formula) -> int:
    """Number of occurrences of &, |, -> and K (atoms and false count 0)."""
    return f._size


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subtrees of f, including f itself; stored on f alone, on first use."""
    if f._subs is None:
        seen = set()
        stack = [f]
        while stack:
            g = stack.pop()
            if g not in seen:
                seen.add(g)
                stack.extend(v for v in vars(g).values() if isinstance(v, Formula))
        object.__setattr__(f, "_subs", frozenset(seen))
    return f._subs


# ---------------------------------------------------------------------------
# Rendering (minimal parentheses; render is injective and parse(render(f)) = f)
# ---------------------------------------------------------------------------

_IMP, _OR, _AND, _UNARY, _ATOM = 1, 2, 3, 4, 5


def _rend(f: Formula) -> tuple[str, int]:
    if isinstance(f, Var):
        return f.name, _ATOM
    if isinstance(f, Bottom):
        return "false", _ATOM
    if isinstance(f, Imp) and f.right == BOT:
        return "~" + _at(f.left, _UNARY), _UNARY
    if isinstance(f, K):
        return ("K " if f.body._level >= _UNARY else "K") + _at(f.body, _UNARY), _UNARY
    if isinstance(f, And):
        return _at(f.left, _AND) + " & " + _at(f.right, _AND + 1), _AND
    if isinstance(f, Or):
        return _at(f.left, _OR) + " | " + _at(f.right, _OR + 1), _OR
    if isinstance(f, Imp):
        return _at(f.left, _IMP + 1) + " -> " + _at(f.right, _IMP), _IMP
    raise TypeError(f"not a formula: {f!r}")


def _at(f: Formula, min_level: int) -> str:
    return f._text if f._level >= min_level else "(" + f._text + ")"


BOT = Bottom()
BINARY_OPS: dict[str, type] = {"and": And, "or": Or, "imp": Imp}


def render(f: Formula) -> str:
    return f._text


def sorted_formulas(fs: Iterable[Formula]) -> list[Formula]:
    """The fixed total order used wherever a canonical choice is needed."""
    return sorted(fs, key=render)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class FormulaSyntaxError(ValueError):
    """Malformed concrete syntax; position is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""\s*(?:
          (?P<bot>false\b|_\|_)
        | (?P<k>K)
        | (?P<var>[a-z][a-zA-Z0-9_]*)
        | (?P<imp>->)
        | (?P<and>&)
        | (?P<or>\|)
        | (?P<neg>~)
        | (?P<lp>\()
        | (?P<rp>\))
        )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise FormulaSyntaxError(f"unexpected character {text[bad]!r}", bad)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str) -> FormulaSyntaxError:
        pos = self.tokens[self.i][2] if self.i < len(self.tokens) else len(self.text)
        return FormulaSyntaxError(message, pos)

    def imp(self) -> Formula:
        left = self.disj()
        if self.peek() == "imp":
            self.next()
            return Imp(left, self.imp())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek() == "or":
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek() == "and":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind = self.peek()
        if kind == "k":
            self.next()
            return K(self.unary())
        if kind == "neg":
            self.next()
            return Imp(self.unary(), BOT)
        return self.atom()

    def atom(self) -> Formula:
        kind = self.peek()
        if kind == "var":
            return Var(self.next()[1])
        if kind == "bot":
            self.next()
            return BOT
        if kind == "lp":
            self.next()
            f = self.imp()
            if self.peek() != "rp":
                raise self.fail("expected ')'")
            self.next()
            return f
        raise self.fail("expected a formula")


def parse(text: str) -> Formula:
    """Parse the ASCII syntax: atoms, `false`/`_|_`, prefix `K` and `~`,
    then `&`, then `|`, then right-associative `->`; parentheses allowed."""
    parser = _Parser(text)
    if not parser.tokens:
        raise FormulaSyntaxError("empty input", 0)
    f = parser.imp()
    if parser.i != len(parser.tokens):
        raise parser.fail("trailing input")
    return f


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def formula_to_json(f: Formula) -> dict:
    if isinstance(f, Var):
        return {"op": "var", "name": f.name}
    if isinstance(f, Bottom):
        return {"op": "bot"}
    if isinstance(f, K):
        return {"op": "k", "body": formula_to_json(f.body)}
    for op, cls in BINARY_OPS.items():
        if isinstance(f, cls):
            return {"op": op, "left": formula_to_json(f.left), "right": formula_to_json(f.right)}
    raise TypeError(f"not a formula: {f!r}")


def formula_from_json(obj: object) -> Formula:
    if not isinstance(obj, dict) or "op" not in obj:
        raise ValueError(f"not a formula object: {obj!r}")
    op = obj["op"]
    if op == "var":
        name = obj.get("name")
        if not isinstance(name, str):
            raise ValueError("var needs a string 'name'")
        return Var(name)
    if op == "bot":
        return BOT
    if op == "k":
        return K(formula_from_json(obj.get("body")))
    if isinstance(op, str) and op in BINARY_OPS:  # a JSON op may be unhashable
        left = formula_from_json(obj.get("left"))
        right = formula_from_json(obj.get("right"))
        return BINARY_OPS[op](left, right)
    raise ValueError(f"unknown op: {op!r}")
