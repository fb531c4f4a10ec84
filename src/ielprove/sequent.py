"""Three-compartment sequents, their axiom tests, text form and JSON decoder.

A sequent <Theta ; Gamma => Delta> has three finite formula sets and an
E-flag; E-sequents additionally commit their satisfying world to E-reach
itself.  A Sequent is the NamedTuple of those four fields, so it equals
and unpacks like the plain tuple of them.  Its connective count (size) is
not a field: Sequent.size sums it when read.  Premises must shrink, and
the search and the checkers test that on every premise they visit or
build, so they read sizes through a CompartmentSums table instead: one
table per top-level search or per check, which sums each distinct
compartment once and adds three looked-up sums per sequent.  A
derivation's depth is bounded by its root's size, read once per check.
Terminal sequents split into axioms and flat sequents, with the axiom/flat
roles swapped between the validity calculus and the refutational
calculus.  The axioms of the validity calculus are tested here (liel_axiom),
and they are the sequents no refutational rule applies to.  A flat sequent
of the validity calculus is one that no rule applies to, so its tests live
with the rule table (rules.liel_flat, rules.riel_axiom).  The JSON form of a
sequent is {"delta": [...], "e": E, "gamma": [...], "theta": [...]}, each
compartment's formulas in their JSON form (formula.py), sorted by text.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .formula import (
    BOT,
    Bottom,
    Formula,
    Var,
    by_size,
    formula_from_json,
    render,
    sorted_formulas,
)


class Logic(Enum):
    IEL = "iel"
    IEL_MINUS = "iel-"

    # Members are singletons, so identity hashing is exact; Enum's own
    # __hash__ runs a Python frame on every lookup keyed by a logic.
    __hash__ = object.__hash__


class Sequent(NamedTuple):
    """An immutable sequent: its four fields and nothing else.  It compares,
    hashes and unpacks as the plain tuple (theta, gamma, delta, e_flag);
    size, the connective count of all three compartments, is summed on
    each read from the counts the formulas store, so a caller that needs
    it twice keeps it."""

    theta: frozenset[Formula] = frozenset()
    gamma: frozenset[Formula] = frozenset()
    delta: frozenset[Formula] = frozenset()
    e_flag: bool = False

    @property
    def size(self) -> int:
        return (sum(map(by_size, self.theta)) + sum(map(by_size, self.gamma))
                + sum(map(by_size, self.delta)))


class CompartmentSums(dict):
    """Compartment -> the connective count of its formulas, summed on its
    first lookup.  One table serves one top-level search or one check, and
    is dropped with it: premises share most of their compartments with
    their conclusions, so size_of(s), s.size as three lookups, sums each
    distinct compartment once per call."""

    __slots__ = ()

    def __missing__(self, fs: frozenset[Formula]) -> int:
        n = self[fs] = sum(map(by_size, fs))
        return n

    def size_of(self, s: Sequent) -> int:
        return self[s.theta] + self[s.gamma] + self[s.delta]


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
    if not s.gamma.isdisjoint(s.delta):
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
