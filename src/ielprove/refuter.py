"""The refutational calculi for IEL and IEL-.

Refutations are rule-labelled trees whose leaves are satisfiable flat
shapes (Sat/eSat, plus kSat under IEL-); a refutation maps constructively
onto a Kripke countermodel (refutation_model), and this mapping is the one
place countermodels are built: the search in prover.py emits refutations
only.  Every refutational rule refutes one premise of a validity rule
(rules.REFUTATIONS), so this module holds only the refutational names, the
Glue check, the refutation checker and the model mapping.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .formula import Bottom, Imp, K, Var
from .kripke import KripkeModel, glue, single_world
from .rules import (
    REFUTATIONS,
    Defect,
    Derivation,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
    rule_instances,
)
from .sequent import Logic, Sequent, gamma_vars, riel_axiom, riel_flat, sequent_text

Refutation = Derivation

RIEL_RULES = tuple(dict.fromkeys(REFUTATIONS.values()))

RIEL_AXIOMS = ("Sat", "eSat", "kSat")

# Each refutational rule but Glue/eGlue: the validity premise it refutes.
_PREMISE_OF = {name: key for key, name in REFUTATIONS.items()
               if name not in ("Glue", "eGlue")}


# ---------------------------------------------------------------------------
# Glue
# ---------------------------------------------------------------------------

def glue_premises(s: Sequent, logic: Logic) -> list[Sequent]:
    """The full premise family of a Glue/eGlue node on s: the rightmost
    premise of every instance of ImpR, KR (Glue only) and ImpL."""
    glue_rule = "eGlue" if s.e_flag else "Glue"
    return [inst.premises[i] for (rule, i), name in REFUTATIONS.items() if name == glue_rule
            for inst in rule_instances(rule, s, logic)]


def _glue_shape_ok(s: Sequent) -> bool:
    if s.e_flag:
        return (all(isinstance(f, (Var, Imp)) for f in s.gamma)
                and all(isinstance(f, (Var, Bottom, Imp)) for f in s.delta))
    return (all(isinstance(f, (Var, Imp, K)) for f in s.gamma)
            and all(isinstance(f, (Var, Bottom, Imp, K)) for f in s.delta))


# ---------------------------------------------------------------------------
# Refutation checking
# ---------------------------------------------------------------------------

def check_refutation(t: Refutation, logic: Logic) -> list[Defect]:
    """Validate a refutation: recognised rules under the logic at hand, the
    global proviso, exact (and nonempty) Glue premise families, satisfiable
    leaves, the depth bound and the subformula property."""

    def cannot_fire(node: Refutation) -> Optional[Defect]:
        s, rule = node.sequent, node.rule
        if rule not in RIEL_RULES:
            return Defect("BadRule", repr(rule))
        if logic is Logic.IEL_MINUS and rule in ("KL1", "KL2"):
            return Defect("BadRule", f"{rule} is not available under IEL-")
        if riel_flat(s):
            return Defect("ProvisoViolation", f"{rule} fired on {sequent_text(s)}")
        return None

    def bad_premises(node: Refutation) -> Optional[Defect]:
        s, rule = node.sequent, node.rule
        got = tuple(c.sequent for c in node.children)
        if rule in ("Glue", "eGlue"):
            if (rule == "Glue") == s.e_flag or not _glue_shape_ok(s):
                return Defect("BadInstantiation", f"{rule} on {sequent_text(s)}")
            expected = glue_premises(s, logic)
            if not expected:
                return Defect("EmptyGlue", sequent_text(s))
            if Counter(got) != Counter(expected):
                return Defect("BadInstantiation",
                              f"{rule} premises do not match on {sequent_text(s)}")
            return None
        if rule == "KL2" and not all(isinstance(f, (Var, Bottom)) for f in s.delta):
            return Defect("ProvisoViolation",
                          f"KL2 needs an atomic third compartment: {sequent_text(s)}")
        premise_of, i = _PREMISE_OF[rule]
        if any((inst.premises[i],) == got for inst in rule_instances(premise_of, s, logic)):
            return None
        return Defect("BadInstantiation", f"{rule} on {sequent_text(s)}")

    return check_derivation(t, lambda s, name: riel_axiom(s, logic) == name,
                            cannot_fire, bad_premises)


# ---------------------------------------------------------------------------
# Model extraction
# ---------------------------------------------------------------------------

def extract_model(t: Refutation, logic: Logic) -> KripkeModel:
    """Check t, then map it onto its countermodel (refutation_model)."""
    defects = check_refutation(t, logic)
    if defects:
        raise ValueError(f"invalid refutation: {defects[0]}")
    return refutation_model(t, logic)


def refutation_model(t: Refutation, logic: Logic) -> KripkeModel:
    """Countermodel construction, for a refutation known to be valid (it is
    not checked): leaves become single worlds, Glue/eGlue and KL2 glue the
    models of their children under a fresh root, every other rule passes
    its child's model through.  The root of the result satisfies the root
    sequent of the refutation."""
    s = t.sequent
    if not t.children:
        return single_world(gamma_vars(s), logic is Logic.IEL or s.e_flag)
    if t.rule in ("Glue", "eGlue", "KL2"):
        # A KL2 sequent is plain with an atomic third compartment: no KR links.
        subs = [refutation_model(c, logic) for c in t.children]
        k_right = {inst.premises[-1] for inst in rule_instances("KR", s, logic)}
        links = [i for i, c in enumerate(t.children) if c.sequent in k_right]
        return glue(gamma_vars(s), subs, s.e_flag, e_link_roots=links)
    return refutation_model(t.children[0], logic)


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def refutation_to_json(t: Refutation) -> dict:
    return {**derivation_to_json(t), "calculus": "riel"}


def refutation_from_json(obj: object) -> Refutation:
    return derivation_from_json(obj, RIEL_RULES, RIEL_AXIOMS, "refutation")
