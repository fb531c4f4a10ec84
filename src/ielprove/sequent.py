"""Three-compartment sequents and their terminal tests.

A sequent <Theta ; Gamma => Delta> has three finite formula sets and an
E-flag; E-sequents additionally commit their satisfying world to E-reach
itself.  Terminal sequents split into axioms and flat sequents, with the
axiom/flat roles swapped between the validity calculus and the refutational
calculus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .formula import (
    BOT,
    Bottom,
    Formula,
    K,
    Var,
    connective_count,
    formula_from_json,
    formula_to_json,
    render,
    sorted_formulas,
)


class Logic(Enum):
    IEL = "iel"
    IEL_MINUS = "iel-"


@dataclass(frozen=True)
class Sequent:
    theta: frozenset[Formula] = frozenset()
    gamma: frozenset[Formula] = frozenset()
    delta: frozenset[Formula] = frozenset()
    e_flag: bool = False
    # Connective count over all three compartments, computed once.
    size: int = field(default=0, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", sum(
            connective_count(f) for part in (self.theta, self.gamma, self.delta)
            for f in part))


def sequent(theta: Iterable[Formula] = (), gamma: Iterable[Formula] = (),
            delta: Iterable[Formula] = (), e: bool = False) -> Sequent:
    return Sequent(frozenset(theta), frozenset(gamma), frozenset(delta), bool(e))


def gamma_vars(s: Sequent) -> frozenset[str]:
    """Variable names in the second compartment (valuation of glued roots)."""
    return frozenset(f.name for f in s.gamma if isinstance(f, Var))


def _vars_only(fs: frozenset[Formula]) -> bool:
    return all(isinstance(f, Var) for f in fs)


def atoms_only(fs: frozenset[Formula]) -> bool:
    return all(isinstance(f, (Var, Bottom)) for f in fs)


def _vars_or_k(fs: frozenset[Formula]) -> bool:
    return all(isinstance(f, (Var, K)) for f in fs)


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


def liel_flat(s: Sequent, logic: Logic) -> bool:
    """No rule of the validity calculus applies (and s is not an axiom).

    Under IEL the second compartment must hold variables only; under IEL-
    a non-E sequent may additionally keep K-formulas on the left, since the
    calculus for IEL- has no left rule for K on plain sequents.
    """
    if s.e_flag or logic is Logic.IEL:
        gamma_ok = _vars_only(s.gamma)
    else:
        gamma_ok = _vars_or_k(s.gamma)
    return gamma_ok and atoms_only(s.delta) and not (s.gamma & s.delta)


def liel_active(s: Sequent, logic: Logic) -> bool:
    """Some rule of the validity calculus applies: s is neither an axiom
    nor flat."""
    return liel_axiom(s) is None and not liel_flat(s, logic)


def riel_axiom(s: Sequent, logic: Logic) -> Optional[str]:
    """Axiom name for the refutational calculus, or None: its axioms are the
    flat sequents of the validity calculus.  kSat is the IEL- case whose
    second compartment keeps a K-formula."""
    if not liel_flat(s, logic):
        return None
    if s.e_flag:
        return "eSat"
    return "Sat" if _vars_only(s.gamma) else "kSat"


def riel_flat(s: Sequent) -> bool:
    """No refutational rule applies: s is an axiom of the validity calculus
    (falsum on the left, or the second and third compartments share a
    formula)."""
    return liel_axiom(s) is not None


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
