"""Propositional formulas for intuitionistic epistemic logic.

Syntax trees over atoms, falsum, conjunction, disjunction, implication and
the epistemic modality K, with an ASCII concrete syntax.  Negation is not a
constructor: ``~A`` is parsed and printed as sugar for ``A -> false``.

Formulas are hash-consed across the process: there is at most one live
formula per rendered text, and every way of building one (the shapes'
constructors, parse, formula_from_json, copy and pickle) returns it, so
equal formulas are one object and compare and hash by identity.  The table
of live formulas holds weak references only, so a formula is freed once
nothing else refers to it.

The JSON form of a formula is {"op": "var", "name": N}, {"op": "bot"},
{"op": "k", "body": B} or {"op": O, "left": L, "right": R} with O a key of
BINARY_OPS; rules.derivation_json writes it and formula_from_json reads it.
"""

from __future__ import annotations

import re
from _thread import allocate_lock
from _weakref import _remove_dead_weakref
from operator import attrgetter
from typing import Iterable, Optional
from weakref import ref


_NAME_RE = re.compile(r"(?!false\Z)[a-z][a-zA-Z0-9_]*\Z")  # `false` is falsum

# Binding levels, loosest first, for rendering with minimal parentheses.
_IMP, _OR, _AND, _UNARY, _ATOM = 1, 2, 3, 4, 5


def _at(f: Formula, min_level: int) -> str:
    """f's text where a formula of at least min_level is needed."""
    return f._text if f._level >= min_level else "(" + f._text + ")"


class _Entry(ref):
    """A weak reference to a live formula that knows the formula's text."""

    __slots__ = ("text",)


_live: dict[str, _Entry] = {}  # rendered text -> the live formula with that text
_lock = allocate_lock()  # held while a formula is built and registered


def _forget(entry: _Entry) -> None:
    # Called when a formula is freed; keeps a newer formula with the same text.
    _remove_dead_weakref(_live, entry.text)


def _live_formula(text: str) -> Optional[Formula]:
    entry = _live.get(text)
    return None if entry is None else entry()


_set = object.__setattr__  # how formulas set their own fields; plain assignment raises


def _intern(cls: type, text: str, level: int, size: int, *fields: object) -> Formula:
    """The live formula with this text, or else a new one of class cls with
    these fields (in cls.__match_args__ order), built and registered under
    the lock so that two threads never build one text twice."""
    f = _live_formula(text)
    if f is None:
        with _lock:
            f = _live_formula(text)
            if f is None:
                f = object.__new__(cls)
                for key, value in zip(cls.__match_args__, fields):
                    _set(f, key, value)
                _set(f, "_size", size)
                _set(f, "_text", text)
                _set(f, "_level", level)
                _set(f, "_subs", None)
                entry = _live[text] = _Entry(f, _forget)
                entry.text = text
    return f


class Formula:
    """Base class; concrete shapes are Var, Bottom, And, Or, Imp and K.

    Each shape's constructor renders the node's text in one step from its
    children's stored texts and levels, and returns the live formula with
    that text if there is one: render is injective, so that formula is the
    equal one.  Otherwise it builds the node, with its connective count,
    text and binding level, and registers it.  So building a formula does
    not recurse, and equality and hashing are object identity, inherited
    from object.  Its fields (name, body, or left and right, as named by
    __match_args__) are its vars(); none can be set.
    """

    __slots__ = ("_size", "_text", "_level", "_subs")

    def __repr__(self) -> str:
        """Shape(field=value, ...), children in the same form, written from a
        stack of formulas still to write and text, not by recursion."""
        parts: list[str] = []
        stack: list[object] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            parts.append(type(item).__name__ + "(")
            pieces: list[object] = []
            for i, (key, value) in enumerate(vars(item).items()):
                pieces.append((", " if i else "") + key + "=")
                pieces.append(value if isinstance(value, Formula) else repr(value))
            pieces.append(")")
            stack.extend(reversed(pieces))
        return "".join(parts)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        # pickle writes a formula as its text, one flat string at any depth, and
        # loads it through parse, which returns the live formula with that text.
        return parse, (self._text,)

    def __copy__(self) -> Formula:
        return self

    def __deepcopy__(self, memo: dict) -> Formula:
        return self


class Var(Formula):
    __match_args__ = ("name",)

    def __new__(cls, name: str) -> Var:
        f = _live_formula(name)
        if type(f) is Var:  # a live name needs no check; `false` is Bottom's text
            return f
        if not _NAME_RE.match(name):
            raise ValueError(f"bad variable name: {name!r}")
        return _intern(cls, name, _ATOM, 0, name)


class Bottom(Formula):
    __match_args__ = ()

    def __new__(cls) -> Bottom:
        return _intern(cls, "false", _ATOM, 0)


class And(Formula):
    __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> And:
        return _intern(cls, _at(left, _AND) + " & " + _at(right, _AND + 1), _AND,
                       left._size + right._size + 1, left, right)


class Or(Formula):
    __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> Or:
        return _intern(cls, _at(left, _OR) + " | " + _at(right, _OR + 1), _OR,
                       left._size + right._size + 1, left, right)


class Imp(Formula):
    __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> Imp:
        if right is BOT:  # ~A is sugar for A -> false
            text, level = "~" + _at(left, _UNARY), _UNARY
        else:
            text, level = _at(left, _IMP + 1) + " -> " + _at(right, _IMP), _IMP
        return _intern(cls, text, level, left._size + right._size + 1, left, right)


class K(Formula):
    __match_args__ = ("body",)

    def __new__(cls, body: Formula) -> K:
        return _intern(cls, ("K " if body._level >= _UNARY else "K") + _at(body, _UNARY),
                       _UNARY, body._size + 1, body)


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
                cls = type(g)
                if cls is K:
                    stack.append(g.body)
                elif cls is not Var and cls is not Bottom:
                    stack += (g.left, g.right)
        _set(f, "_subs", frozenset(seen))
    return f._subs


# ---------------------------------------------------------------------------
# Rendering (minimal parentheses, built by the constructors; render is
# injective and parse(render(f)) is f)
# ---------------------------------------------------------------------------

BOT = Bottom()
BINARY_OPS: dict[str, type] = {"and": And, "or": Or, "imp": Imp}


def render(f: Formula) -> str:
    return f._text


by_text = attrgetter("_text")  # render, as a sort key without a Python frame per formula
by_size = attrgetter("_size")  # connective_count, likewise


def sorted_formulas(fs: Iterable[Formula]) -> list[Formula]:
    """The fixed total order used wherever a canonical choice is needed."""
    return sorted(fs, key=by_text)


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
        | (?P<bad>\S)
        )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = [(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup))
              for m in _TOKEN_RE.finditer(text)]
    for kind, value, pos in tokens:
        if kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {value!r}", pos)
    return tokens


_PREC = {"imp": 1, "or": 2, "and": 3}  # binary operators; higher binds tighter


def parse(text: str) -> Formula:
    """Parse the ASCII syntax: atoms, `false`/`_|_`, prefix `K` and `~`,
    then `&`, then `|`, then right-associative `->`; parentheses allowed.

    The rendered text of a live formula is looked up, not parsed: render is
    injective and parse(render(f)) is f, so the answer is that formula.
    Any other text goes through one loop over the tokens with an operand
    stack and an operator stack, on which "lp" marks an open parenthesis,
    so nesting depth is not bounded by Python's recursion limit."""
    f = _live_formula(text)
    if f is not None:
        return f
    tokens = _tokenize(text)
    if not tokens:
        raise FormulaSyntaxError("empty input", 0)
    operands: list[Formula] = []
    ops: list[str] = []
    want_operand = True
    for kind, value, pos in [*tokens, (None, "", len(text))]:
        if want_operand:
            if kind in ("k", "neg", "lp"):
                ops.append(kind)
                continue
            if kind not in ("var", "bot"):
                raise FormulaSyntaxError("expected a formula", pos)
            operands.append(Var(value) if kind == "var" else BOT)
        else:
            if kind not in ("and", "or", "imp", "rp", None):
                raise FormulaSyntaxError("expected ')'" if "lp" in ops else "trailing input", pos)
            prec = _PREC.get(kind, 0)
            while ops and ops[-1] in _PREC and (
                    _PREC[ops[-1]] > prec or (_PREC[ops[-1]] == prec and kind != "imp")):
                right = operands.pop()
                operands.append(BINARY_OPS[ops.pop()](operands.pop(), right))
            if kind in _PREC:
                ops.append(kind)
                want_operand = True
                continue
            if kind is None:  # the end; only an open parenthesis can be left
                if ops:
                    raise FormulaSyntaxError("expected ')'", pos)
                break
            if not ops:
                raise FormulaSyntaxError("trailing input", pos)
            ops.pop()  # the "lp" this ")" closes
        # An operand is complete: apply the prefix operators in front of it.
        while ops and ops[-1] in ("k", "neg"):
            f = operands.pop()
            operands.append(K(f) if ops.pop() == "k" else Imp(f, BOT))
        want_operand = False
    return operands[0]


# ---------------------------------------------------------------------------
# JSON decoding
# ---------------------------------------------------------------------------

def formula_from_json(obj: object) -> Formula:
    """Decode in two passes: a pre-order walk checks every object, left to
    right, and builds the leaves; then the compound nodes, children first."""
    built: dict[int, Formula] = {}
    compound: list[tuple[dict, type, tuple[str, ...]]] = []
    stack = [obj]
    while stack:
        o = stack.pop()
        if not isinstance(o, dict) or "op" not in o:
            raise ValueError(f"not a formula object: {o!r}")
        op = o["op"]
        if op == "var":
            name = o.get("name")
            if not isinstance(name, str):
                raise ValueError("var needs a string 'name'")
            built[id(o)] = Var(name)
        elif op == "bot":
            built[id(o)] = BOT
        elif op == "k" or (isinstance(op, str) and op in BINARY_OPS):  # op may be unhashable
            keys = ("body",) if op == "k" else ("left", "right")
            compound.append((o, K if op == "k" else BINARY_OPS[op], keys))
            stack.extend(o.get(key) for key in reversed(keys))
        else:
            raise ValueError(f"unknown op: {op!r}")
    for o, cls, keys in reversed(compound):
        built[id(o)] = cls(*(built[id(o[key])] for key in keys))
    return built[id(obj)]
