"""The refutational calculi for IEL and IEL-.

Refutations are rule-labelled trees whose leaves are satisfiable flat
shapes (Sat/eSat, plus kSat under IEL-); a refutation maps constructively
onto a Kripke countermodel (refutation_model), and this mapping is the one
place countermodels are built: the search in prover.py emits refutations
only.  Every refutational rule refutes one premise of a validity rule
(rules.REFUTATIONS), so this module holds only the refutational names, the
Glue check (over the rightmost premises of a non-invertible rules.expansion),
the refutation checker and the model mapping.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .kripke import KripkeModel, glue, single_world
from .rules import (
    INVERTIBLE,
    NONINVERTIBLE,
    REFUTATIONS,
    Defect,
    Derivation,
    check_derivation,
    derivation_from_json,
    derivation_json,
    derivation_to_json,
    expand,
    expansion,
    instances,
    riel_axiom,
    rule_instances,
)
from .sequent import Logic, Sequent, atoms_only, gamma_vars, liel_axiom, sequent_text

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
    premise of every instance s is expanded by, when those are the
    non-invertible ones (ImpR, KR and ImpL); none otherwise."""
    return [inst.premises[-1] for inst in expansion(s, logic) if inst.rule in NONINVERTIBLE]


# ---------------------------------------------------------------------------
# Refutation checking
# ---------------------------------------------------------------------------

def check_refutation(t: Refutation, logic: Logic) -> list[Defect]:
    """Validate a refutation: recognised rules under the logic at hand, the
    global proviso, exact (and nonempty) Glue premise families, satisfiable
    leaves, the depth bound and the subformula property."""

    def cannot_fire(node: Refutation, found: dict) -> Optional[Defect]:
        s, rule = node.sequent, node.rule
        if rule not in RIEL_RULES:
            return Defect("BadRule", repr(rule))
        if logic is Logic.IEL_MINUS and rule in ("KL1", "KL2"):
            return Defect("BadRule", f"{rule} is not available under IEL-")
        if liel_axiom(s) is not None:
            return Defect("ProvisoViolation", f"{rule} fired on {sequent_text(s)}")
        return None

    def bad_premises(node: Refutation, found: dict) -> Optional[Defect]:
        s, rule = node.sequent, node.rule
        got = tuple(c.sequent for c in node.children)
        if rule in ("Glue", "eGlue"):
            insts = expand(s, found)
            expected = [inst.premises[-1] for inst in insts if inst.rule in NONINVERTIBLE]
            # With no premises, s may be expanded by an invertible rule instead.
            if (rule == "Glue") == s.e_flag or not expected and any(
                    inst.rule in INVERTIBLE for inst in insts):
                return Defect("BadInstantiation", f"{rule} on {sequent_text(s)}")
            if not expected:
                return Defect("EmptyGlue", sequent_text(s))
            if Counter(got) != Counter(expected):
                return Defect("BadInstantiation",
                              f"{rule} premises do not match on {sequent_text(s)}")
            return None
        if rule == "KL2" and not atoms_only(s.delta):
            return Defect("ProvisoViolation",
                          f"KL2 needs an atomic third compartment: {sequent_text(s)}")
        premise_of, i = _PREMISE_OF[rule]
        if any((inst.premises[i],) == got for inst in instances(premise_of, s, found)):
            return None
        return Defect("BadInstantiation", f"{rule} on {sequent_text(s)}")

    return check_derivation(t, logic, lambda s, name: riel_axiom(s, logic) == name,
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
    nodes, stack = [], [t]
    while stack:  # pre-order
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children)
    models: dict[int, KripkeModel] = {}
    for node in reversed(nodes):  # every child before its parent
        s, children = node.sequent, node.children
        if not children:
            model = single_world(gamma_vars(s), logic is Logic.IEL or s.e_flag)
        elif node.rule in ("Glue", "eGlue", "KL2"):
            # A KL2 sequent is plain with an atomic third compartment: no KR links.
            k_right = {inst.premises[-1] for inst in rule_instances("KR", s, logic)}
            links = [i for i, c in enumerate(children) if c.sequent in k_right]
            model = glue(gamma_vars(s), [models[id(c)] for c in children], s.e_flag,
                         e_link_roots=links)
        else:
            model = models[id(children[0])]
        models[id(node)] = model
    return models[id(t)]


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def refutation_to_json(t: Refutation) -> dict:
    return {**derivation_to_json(t), "calculus": "riel"}


def refutation_json(t: Refutation) -> str:
    """json.dumps(refutation_to_json(t), sort_keys=True), one text per
    distinct node (rules.derivation_json)."""
    return derivation_json(t, calculus="riel")


def refutation_from_json(obj: object) -> Refutation:
    return derivation_from_json(obj, RIEL_RULES, RIEL_AXIOMS, "refutation")
