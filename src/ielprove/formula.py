"""Propositional formulas for intuitionistic epistemic logic.

Syntax trees over atoms, falsum, conjunction, disjunction, implication and
the epistemic modality K, with an ASCII concrete syntax.  Negation is not a
constructor: ``~A`` is parsed and printed as sugar for ``A -> false``.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterable


_NAME_RE = re.compile(r"(?!false\Z)[a-z][a-zA-Z0-9_]*\Z")  # `false` is falsum


_set = object.__setattr__  # how formulas and sequents set their fields when built


class Formula:
    """Base class; concrete shapes are Var, Bottom, And, Or, Imp and K.

    Each node computes its hash, connective count and rendered text once,
    when it is built, from the values its children already hold: none of
    them recurses, and nothing is cached outside the node.  Two formulas are
    equal when their texts are, so comparing them does not recurse either.
    Its fields (name, body, or left and right) are its vars(); none can be set.
    """

    __slots__ = ("_hash", "_size", "_text", "_level", "_subs")

    def __eq__(self, other: object) -> bool:
        # render is injective, so equal texts mean equal trees.
        if not isinstance(other, Formula):
            return NotImplemented
        return self is other or self._text == other._text

    def _build(self, **fields: object) -> None:
        """Every subclass's __init__ ends here, with its fields in order."""
        vars(self).update(fields)
        children = [v for v in fields.values() if isinstance(v, Formula)]
        _set(self, "_hash", hash((type(self).__name__, *fields.values())))
        _set(self, "_size", sum(c._size for c in children) + (1 if children else 0))
        text, level = _rend(self)
        _set(self, "_text", text)
        _set(self, "_level", level)
        _set(self, "_subs", None)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild a formula from its fields, not slot by slot.
        return type(self), tuple(vars(self).values())


class Var(Formula):
    def __init__(self, name: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"bad variable name: {name!r}")
        self._build(name=name)


class Bottom(Formula):
    def __init__(self) -> None:
        self._build()


class And(Formula):
    def __init__(self, left: Formula, right: Formula) -> None:
        self._build(left=left, right=right)


class Or(Formula):
    def __init__(self, left: Formula, right: Formula) -> None:
        self._build(left=left, right=right)


class Imp(Formula):
    def __init__(self, left: Formula, right: Formula) -> None:
        self._build(left=left, right=right)


class K(Formula):
    def __init__(self, body: Formula) -> None:
        self._build(body=body)


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
        _set(f, "_subs", frozenset(seen))
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
_JSON_OP = {Var: "var", Bottom: "bot", K: "k", **{cls: op for op, cls in BINARY_OPS.items()}}


def render(f: Formula) -> str:
    return f._text


by_text = attrgetter("_text")  # render, as a sort key without a Python frame per formula


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


_PREC = {"imp": 1, "or": 2, "and": 3}  # binary operators; higher binds tighter


def parse(text: str) -> Formula:
    """Parse the ASCII syntax: atoms, `false`/`_|_`, prefix `K` and `~`,
    then `&`, then `|`, then right-associative `->`; parentheses allowed.

    One loop over the tokens with an operand stack and an operator stack,
    on which "lp" marks an open parenthesis, so nesting depth is not bounded
    by Python's recursion limit."""
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
# JSON encoding
# ---------------------------------------------------------------------------

def formula_to_json(f: Formula) -> dict:
    root: dict = {}
    stack = [(f, root)]
    while stack:
        g, obj = stack.pop()
        obj["op"] = _JSON_OP[type(g)]
        for key, value in vars(g).items():  # name, body, or left and right
            if isinstance(value, Formula):
                obj[key] = {}
                stack.append((value, obj[key]))
            else:
                obj[key] = value
    return root


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
