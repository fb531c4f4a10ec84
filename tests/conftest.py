import random
from collections import Counter
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import strategies as st

from ielprove.formula import (
    BOT,
    And,
    Bottom,
    Formula,
    Imp,
    K,
    Or,
    Var,
    by_text,
    parse,
    render,
    sorted_formulas,
    subformulas,
)
from ielprove.kripke import KripkeModel
from ielprove.oracle import random_formula
from ielprove.refuter import _PREMISE_OF, RIEL_RULES
from ielprove.rules import (
    INVERTIBLE,
    NONINVERTIBLE,
    RULE_TABLE,
    Defect,
    Derivation,
    Instantiation,
    _axiom_fits,
    derivation_depth,
    expansion,
    riel_axiom,
)
from ielprove.sequent import Logic, Sequent, atoms_only, liel_axiom, sequent, sequent_text

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "paper.txt"

formulas = st.recursive(
    st.one_of(st.builds(Var, st.sampled_from(["a", "b", "c", "p", "q"])), st.just(BOT)),
    lambda sub: st.one_of(
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
        st.builds(K, sub),
    ),
    max_leaves=14,
)

sequents = st.builds(
    sequent,
    st.frozensets(formulas, max_size=2),
    st.frozensets(formulas, max_size=3),
    st.frozensets(formulas, max_size=3),
    st.booleans(),
)

# Sequents of atoms, falsum and K-formulas, the shapes flat sequents hold,
# so that many drawn sequents are flat.
_atoms_and_ks = st.one_of(st.sampled_from([Var("a"), Var("b"), BOT]), st.builds(K, formulas))
near_flat_sequents = st.builds(
    sequent,
    st.frozensets(formulas, max_size=2),
    st.frozensets(_atoms_and_ks, max_size=3),
    st.frozensets(_atoms_and_ks, max_size=2),
    st.booleans(),
)


@pytest.fixture(scope="session")
def corpus_records():
    records = []
    for line in CORPUS.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        status, logic, text = line.split(None, 2)
        records.append((status == "valid", Logic(logic), parse(text)))
    return records


@pytest.fixture(scope="session")
def classical_reflection_model():
    """Two worlds 0 < 1, E = {(0,1), (1,1)}, `a` true at world 1 only: the
    minimal countermodel of `K a -> a`."""
    return KripkeModel(
        worlds=frozenset({0, 1}),
        root=0,
        leq=frozenset({(0, 0), (0, 1), (1, 1)}),
        e_rel=frozenset({(0, 1), (1, 1)}),
        valuation={0: frozenset(), 1: frozenset({"a"})},
    )


def random_sequent(rng: random.Random, max_connectives: int = 4,
                   variables: tuple[str, ...] = ("a", "b")) -> Sequent:
    def some(k):
        return frozenset(random_formula(rng, max_connectives, variables)
                         for _ in range(rng.randint(0, k)))
    return Sequent(some(1), some(2), some(2), rng.random() < 0.4)


# The reference dict encoder: the certificate JSON format written plainly,
# by recursion.  rules.derivation_json must give json.dumps of these dicts
# with sort_keys=True, byte for byte.

_OPS = {Var: "var", Bottom: "bot", And: "and", Or: "or", Imp: "imp", K: "k"}


def formula_dict(f: Formula) -> dict:
    obj = {"op": _OPS[type(f)]}
    for key, value in vars(f).items():  # name, body, or left and right
        obj[key] = formula_dict(value) if isinstance(value, Formula) else value
    return obj


def sequent_dict(s: Sequent) -> dict:
    return {"theta": [formula_dict(f) for f in sorted_formulas(s.theta)],
            "gamma": [formula_dict(f) for f in sorted_formulas(s.gamma)],
            "delta": [formula_dict(f) for f in sorted_formulas(s.delta)],
            "e": s.e_flag}


def derivation_dict(t: Derivation, calculus: Optional[str] = None) -> dict:
    obj = {"sequent": sequent_dict(t.sequent), "rule": t.rule, "axiom": t.axiom,
           "children": [derivation_dict(c) for c in t.children]}
    return obj if calculus is None else {**obj, "calculus": calculus}


# The reference principal pass and expansion: one map per E-flag and logic
# from compartment and connective to rule, built here from RULE_TABLE, then
# per-rule lists of principals, each sorted by text.  rules.expansion must
# give reference_expansion's instances, in its order.

def _fires(rule: str, part: str, e_flag: bool, logic: Logic) -> bool:
    return (RULE_TABLE[rule][0] == part and rule.startswith("e") == e_flag
            and (rule != "KL" or logic is Logic.IEL))


_REFERENCE_DISPATCH = {
    (e_flag, logic): tuple({RULE_TABLE[rule][1]: rule for rule in RULE_TABLE
                            if _fires(rule, part, e_flag, logic)}
                           for part in ("gamma", "delta"))
    for e_flag in (False, True) for logic in Logic
}


def principals(s: Sequent, logic: Logic) -> dict:
    """Rule -> its principals in s, in the order of their rendered texts, for
    every rule that has one: one pass over the second and third
    compartments, then a sort of each rule's principals."""
    gamma_rules, delta_rules = _REFERENCE_DISPATCH[s.e_flag, logic]
    found: dict = {}
    for rule_of, fs in ((gamma_rules, s.gamma), (delta_rules, s.delta)):
        for f in fs:
            rule = rule_of.get(type(f))
            if rule is not None:
                found.setdefault(rule, []).append(f)
    for fs in found.values():
        fs.sort(key=by_text)
    return found


def reference_expansion(s: Sequent, logic: Logic) -> tuple:
    """The first instance of the first invertible rule that has one; else
    every instance of the non-invertible rules; else the first instance of
    KL, read off principals."""
    found = principals(s, logic)
    for rule in INVERTIBLE:
        if rule in found:
            return (Instantiation(rule, RULE_TABLE[rule][2](s, found[rule][0])),)
    insts = tuple(Instantiation(rule, RULE_TABLE[rule][2](s, f))
                  for rule in NONINVERTIBLE for f in found.get(rule, ()))
    if insts or "KL" not in found:
        return insts
    return (Instantiation("KL", RULE_TABLE["KL"][2](s, found["KL"][0])),)


# The reference checker skeleton: rules.check_derivation's shared checks,
# written plainly.  It visits every occurrence of the expanded tree, in
# pre-order with children left to right, on its own stack, so a node the
# DAG shares is checked again at each occurrence, not replayed; and it takes
# the depth bound from derivation_depth, not from its walk.

def reference_skeleton(t: Derivation, axiom_fits, rule_defect) -> list:
    root = t.sequent
    allowed = frozenset({BOT}).union(*map(subformulas, root.theta | root.gamma | root.delta))
    defects = []
    stack = [t]
    while stack:
        node = stack.pop()
        s = node.sequent
        for f in sorted_formulas((s.theta | s.gamma | s.delta) - allowed):
            defects.append(Defect(
                "Subformula", f"{render(f)} is not a subformula of the root in {sequent_text(s)}"))
        if node.rule is None:
            if node.children or node.axiom is None:
                defects.append(Defect("NonAxiomLeaf", sequent_text(s)))
            elif not axiom_fits(s, node.axiom):
                defects.append(Defect("BadAxiom", f"{node.axiom} does not fit {sequent_text(s)}"))
        elif node.axiom is not None:
            defects.append(Defect("MalformedNode", sequent_text(s)))
        else:
            defect, descend = rule_defect(node)
            if defect is not None:
                defects.append(defect)
            if descend:
                stack.extend(reversed(node.children))
    depth, size = derivation_depth(t), root.size
    if depth > size:
        defects.append(Defect("DepthBound", f"depth {depth} exceeds {size} connectives"))
    return defects


# The reference rule tests: each rule node's rule checked in two steps, a
# whole principal pass over its sequent, then every instance of the node's
# rule on that pass's principals, in canonical order, run by the reference
# skeleton.  rules.check_proof and refuter.check_refutation must give the
# same defect lists.

def _reference_premises(rule: str, s: Sequent, logic: Logic) -> list:
    return [RULE_TABLE[rule][2](s, f) for f in principals(s, logic).get(rule, ())]


def reference_check_proof(t: Derivation, logic: Logic) -> list:
    def rule_defect(node):
        s = node.sequent
        if liel_axiom(s) is not None or not principals(s, logic):
            return Defect("RuleOnTerminal", f"{node.rule} on terminal {sequent_text(s)}"), False
        got = tuple(c.sequent for c in node.children)
        if got in _reference_premises(node.rule, s, logic):
            return None, True
        return Defect("BadInstantiation", f"{node.rule} on {sequent_text(s)}"), True

    return reference_skeleton(t, _axiom_fits, rule_defect)


def reference_check_refutation(t: Derivation, logic: Logic) -> list:
    def rule_defect(node):
        s, rule = node.sequent, node.rule
        if rule not in RIEL_RULES:
            return Defect("BadRule", repr(rule)), False
        if logic is Logic.IEL_MINUS and rule in ("KL1", "KL2"):
            return Defect("BadRule", f"{rule} is not available under IEL-"), False
        if liel_axiom(s) is not None:
            return Defect("ProvisoViolation", f"{rule} fired on {sequent_text(s)}"), False
        got = tuple(c.sequent for c in node.children)
        if rule in ("Glue", "eGlue"):
            insts = expansion(s, logic)
            expected = [inst.premises[-1] for inst in insts if inst.rule in NONINVERTIBLE]
            if (rule == "Glue") == s.e_flag or not expected and any(
                    inst.rule in INVERTIBLE for inst in insts):
                return Defect("BadInstantiation", f"{rule} on {sequent_text(s)}"), True
            if not expected:
                return Defect("EmptyGlue", sequent_text(s)), True
            if Counter(got) != Counter(expected):
                return Defect("BadInstantiation",
                              f"{rule} premises do not match on {sequent_text(s)}"), True
            return None, True
        if rule == "KL2" and not atoms_only(s.delta):
            return Defect("ProvisoViolation",
                          f"KL2 needs an atomic third compartment: {sequent_text(s)}"), True
        premise_of, i = _PREMISE_OF[rule]
        if got in [(premises[i],) for premises in _reference_premises(premise_of, s, logic)]:
            return None, True
        return Defect("BadInstantiation", f"{rule} on {sequent_text(s)}"), True

    return reference_skeleton(t, lambda s, name: riel_axiom(s, logic) == name, rule_defect)
