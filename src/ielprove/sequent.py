"""Three-compartment sequents, their axiom tests and their text and JSON forms.

A sequent <Theta ; Gamma => Delta> has three finite formula sets and an
E-flag; E-sequents additionally commit their satisfying world to E-reach
itself.  Terminal sequents split into axioms and flat sequents, with the
axiom/flat roles swapped between the validity calculus and the refutational
calculus.  The axioms of the validity calculus are tested here (liel_axiom),
and they are the sequents no refutational rule applies to.  A flat sequent
of the validity calculus is one that no rule applies to, so its tests live
with the rule table (rules.liel_flat, rules.riel_axiom).
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Iterable, Optional

from .formula import (
    BOT,
    Bottom,
    Formula,
    Var,
    _set,
    formula_from_json,
    formula_to_json,
    render,
    sorted_formulas,
)


_size = attrgetter("_size")  # connective_count, without a Python frame per formula


class Logic(Enum):
    IEL = "iel"
    IEL_MINUS = "iel-"


class Sequent:
    """An immutable sequent; equality and hashing read the compartments and
    the E-flag, not size, the connective count of all three, computed once."""

    __slots__ = ("theta", "gamma", "delta", "e_flag", "size")

    def __init__(self, theta: frozenset[Formula] = frozenset(),
                 gamma: frozenset[Formula] = frozenset(),
                 delta: frozenset[Formula] = frozenset(), e_flag: bool = False) -> None:
        _set(self, "theta", theta)
        _set(self, "gamma", gamma)
        _set(self, "delta", delta)
        _set(self, "e_flag", e_flag)
        _set(self, "size", sum(map(_size, theta)) + sum(map(_size, gamma))
             + sum(map(_size, delta)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Sequent:
            return NotImplemented
        return ((self.theta, self.gamma, self.delta, self.e_flag)
                == (other.theta, other.gamma, other.delta, other.e_flag))

    def __hash__(self) -> int:
        return hash((self.theta, self.gamma, self.delta, self.e_flag))

    def __repr__(self) -> str:
        return (f"Sequent(theta={self.theta!r}, gamma={self.gamma!r}, delta={self.delta!r}, "
                f"e_flag={self.e_flag!r})")

    __setattr__ = __delattr__ = Formula.__setattr__

    def __reduce__(self) -> tuple:
        return Sequent, (self.theta, self.gamma, self.delta, self.e_flag)


def sequent(theta: Iterable[Formula] = (), gamma: Iterable[Formula] = (),
            delta: Iterable[Formula] = (), e: bool = False) -> Sequent:
    return Sequent(frozenset(theta), frozenset(gamma), frozenset(delta), bool(e))


def gamma_vars(s: Sequent) -> frozenset[str]:
    """Variable names in the second compartment (valuation of glued roots)."""
    return frozenset(f.name for f in s.gamma if isinstance(f, Var))


def atoms_only(fs: frozenset[Formula]) -> bool:
    return all(isinstance(f, (Var, Bottom)) for f in fs)


# ---------------------------------------------------------------------------
# Terminal sequents
# ---------------------------------------------------------------------------

def liel_axiom(s: Sequent) -> Optional[str]:
    """Axiom name for the validity calculus, or None.

    Irr/eIrr when falsum sits in the second compartment, Id/eId when the
    second and third compartments overlap; Irr wins when both match.
    """
    if BOT in s.gamma:
        return "eIrr" if s.e_flag else "Irr"
    if s.gamma & s.delta:
        return "eId" if s.e_flag else "Id"
    return None


# ---------------------------------------------------------------------------
# Text and JSON forms
# ---------------------------------------------------------------------------

def _part(fs: frozenset[Formula]) -> str:
    return ", ".join(render(f) for f in sorted_formulas(fs))


def sequent_text(s: Sequent) -> str:
    text = f"{_part(s.theta)} ; {_part(s.gamma)} => {_part(s.delta)}"
    return text + " [E]" if s.e_flag else text


def sequent_to_json(s: Sequent) -> dict:
    return {
        "theta": [formula_to_json(f) for f in sorted_formulas(s.theta)],
        "gamma": [formula_to_json(f) for f in sorted_formulas(s.gamma)],
        "delta": [formula_to_json(f) for f in sorted_formulas(s.delta)],
        "e": s.e_flag,
    }


def sequent_from_json(obj: object) -> Sequent:
    if not isinstance(obj, dict):
        raise ValueError(f"not a sequent object: {obj!r}")
    parts = {}
    for key in ("theta", "gamma", "delta"):
        items = obj.get(key, [])
        if not isinstance(items, list):
            raise ValueError(f"sequent {key!r} must be a list")
        parts[key] = frozenset(formula_from_json(x) for x in items)
    e = obj.get("e", False)
    if not isinstance(e, bool):
        raise ValueError("sequent 'e' must be a boolean")
    return Sequent(parts["theta"], parts["gamma"], parts["delta"], e)
