"""Rules of the validity calculi for IEL and IEL-.

Bottom-up rule instantiation over three-compartment sequents, proof trees,
and an independent proof checker enforcing rule validity, the depth bound
and the subformula property.  The calculus for IEL- is the same rule set
minus the left K rule on plain sequents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .formula import (
    BOT,
    And,
    Formula,
    Imp,
    K,
    Or,
    render,
    sorted_formulas,
    subformulas,
)
from .sequent import (
    Calculus,
    Logic,
    Sequent,
    classify,
    sequent_from_json,
    sequent_text,
    sequent_to_json,
)

RULES = (
    "AndL", "AndR", "OrL", "OrR", "ImpL", "ImpR", "KL", "KR",
    "eAndL", "eAndR", "eOrL", "eOrR", "eImpL", "eImpR", "eKL", "eKR",
)

AXIOMS = ("Irr", "Id", "eIrr", "eId")


@dataclass(frozen=True)
class Instantiation:
    rule: str
    principal: tuple[Formula, ...]
    premises: tuple[Sequent, ...]


@dataclass(frozen=True)
class ProofTree:
    sequent: Sequent
    rule: Optional[str]
    axiom: Optional[str]
    children: tuple["ProofTree", ...]


def axiom_leaf(s: Sequent, name: str) -> ProofTree:
    return ProofTree(s, None, name, ())


def rule_node(s: Sequent, rule: str, children: tuple[ProofTree, ...]) -> ProofTree:
    return ProofTree(s, rule, None, children)


def sequent_connectives(s: Sequent) -> int:
    return s.size


def proof_depth(t: ProofTree) -> int:
    """Length in edges of the longest branch."""
    return 1 + max(map(proof_depth, t.children)) if t.children else 0


# ---------------------------------------------------------------------------
# Rule instantiation
# ---------------------------------------------------------------------------

def instantiations(s: Sequent, logic: Logic) -> list[Instantiation]:
    """All rule instantiations applicable to an active sequent, in canonical
    order: fixed rule order, principals ordered by rendered text.

    The right K rule always extracts every K-formula from the second
    compartment; the left K rule exists only under IEL on plain sequents.
    """
    if not classify(s, Calculus.LIEL, logic).is_active:
        raise ValueError(f"terminal sequent: {sequent_text(s)}")
    out = list(_enumerate(s, logic))
    # Termination and the depth bound rest on this; raised rather than
    # asserted so that it also holds under -O.
    if not all(p.size < s.size for inst in out for p in inst.premises):
        raise AssertionError(f"premise failed to shrink: {sequent_text(s)}")
    return out


def _enumerate(s: Sequent, logic: Logic) -> Iterator[Instantiation]:
    theta, gamma, delta, e = s.theta, s.gamma, s.delta, s.e_flag
    prefix = "e" if e else ""

    def gsans(p: Formula) -> frozenset[Formula]:
        return gamma - {p}

    def dsans(p: Formula) -> frozenset[Formula]:
        return delta - {p}

    for f in sorted_formulas(g for g in gamma if isinstance(g, And)):
        yield Instantiation(prefix + "AndL", (f,), (
            Sequent(theta, gsans(f) | {f.left, f.right}, delta, e),))
    for f in sorted_formulas(d for d in delta if isinstance(d, And)):
        yield Instantiation(prefix + "AndR", (f,), (
            Sequent(theta, gamma, dsans(f) | {f.left}, e),
            Sequent(theta, gamma, dsans(f) | {f.right}, e),))
    for f in sorted_formulas(g for g in gamma if isinstance(g, Or)):
        yield Instantiation(prefix + "OrL", (f,), (
            Sequent(theta, gsans(f) | {f.left}, delta, e),
            Sequent(theta, gsans(f) | {f.right}, delta, e),))
    for f in sorted_formulas(d for d in delta if isinstance(d, Or)):
        yield Instantiation(prefix + "OrR", (f,), (
            Sequent(theta, gamma, dsans(f) | {f.left, f.right}, e),))
    for f in sorted_formulas(g for g in gamma if isinstance(g, Imp)):
        yield Instantiation(prefix + "ImpL", (f,), (
            Sequent(theta, gsans(f) | {f.right}, delta, e),
            Sequent(theta | {f.right}, gsans(f), delta | {f.left}, e),
            Sequent(frozenset({f.right}), theta | gsans(f), frozenset({f.left}), False),))
    for f in sorted_formulas(d for d in delta if isinstance(d, Imp)):
        yield Instantiation(prefix + "ImpR", (f,), (
            Sequent(theta, gamma | {f.left}, dsans(f) | {f.right}, e),
            Sequent(frozenset(), theta | gamma | {f.left}, frozenset({f.right}), False),))
    if e:
        for f in sorted_formulas(g for g in gamma if isinstance(g, K)):
            yield Instantiation("eKL", (f,), (
                Sequent(theta, gsans(f) | {f.body}, delta, True),))
        for f in sorted_formulas(d for d in delta if isinstance(d, K)):
            yield Instantiation("eKR", (f,), (
                Sequent(theta, gamma, dsans(f) | {f.body}, True),))
    else:
        if logic is Logic.IEL:
            for f in sorted_formulas(g for g in gamma if isinstance(g, K)):
                yield Instantiation("KL", (f,), (
                    Sequent(frozenset({BOT}), gsans(f) | {f.body}, delta, True),
                    Sequent(frozenset({BOT}), theta | gsans(f) | {f.body},
                            frozenset({BOT}), True),))
        ks = sorted_formulas(g for g in gamma if isinstance(g, K))
        bodies = frozenset(g.body for g in ks)
        rest = gamma - frozenset(ks)
        for f in sorted_formulas(d for d in delta if isinstance(d, K)):
            yield Instantiation("KR", (f, *ks), (
                Sequent(theta, rest | bodies, dsans(f) | {f.body}, True),
                Sequent(frozenset(), theta | rest | bodies,
                        frozenset({f.body}), False),))


# ---------------------------------------------------------------------------
# Proof checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Defect:
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def _axiom_fits(s: Sequent, name: str) -> bool:
    if name in ("Irr", "eIrr"):
        return BOT in s.gamma and s.e_flag == name.startswith("e")
    if name in ("Id", "eId"):
        return bool(s.gamma & s.delta) and s.e_flag == name.startswith("e")
    return False


def check_proof(t: ProofTree, logic: Logic) -> list[Defect]:
    """Validate a proof tree: axiom leaves, schema-valid rule nodes, depth
    bounded by the connective count of the root, and the subformula
    property relative to the root sequent (falsum always allowed)."""
    defects: list[Defect] = []
    root = t.sequent
    allowed: frozenset[Formula] = frozenset({BOT})
    for f in root.theta | root.gamma | root.delta:
        allowed |= subformulas(f)

    def visit(node: ProofTree) -> None:
        s = node.sequent
        for f in s.theta | s.gamma | s.delta:
            if f not in allowed:
                defects.append(Defect(
                    "Subformula",
                    f"{render(f)} is not a subformula of the root in {sequent_text(s)}"))
        if node.rule is None:
            if node.children or node.axiom is None:
                defects.append(Defect("NonAxiomLeaf", sequent_text(s)))
            elif not _axiom_fits(s, node.axiom):
                defects.append(Defect(
                    "BadAxiom", f"{node.axiom} does not fit {sequent_text(s)}"))
            return
        if node.axiom is not None:
            defects.append(Defect("MalformedNode", sequent_text(s)))
            return
        if not classify(s, Calculus.LIEL, logic).is_active:
            defects.append(Defect(
                "RuleOnTerminal", f"{node.rule} on terminal {sequent_text(s)}"))
            return
        got = tuple(c.sequent for c in node.children)
        ok = any(inst.premises == got
                 for inst in instantiations(s, logic) if inst.rule == node.rule)
        if not ok:
            defects.append(Defect(
                "BadInstantiation", f"{node.rule} on {sequent_text(s)}"))
        for child in node.children:
            visit(child)

    visit(t)
    if proof_depth(t) > sequent_connectives(root):
        defects.append(Defect(
            "DepthBound",
            f"depth {proof_depth(t)} exceeds {sequent_connectives(root)} connectives"))
    return defects


# ---------------------------------------------------------------------------
# Text and JSON forms
# ---------------------------------------------------------------------------

def proof_text(t: ProofTree, indent: int = 0) -> str:
    pad = "  " * indent
    tag = f"({t.axiom})" if t.axiom is not None else f"[{t.rule}]"
    lines = [f"{pad}{sequent_text(t.sequent)}  {tag}"]
    for child in t.children:
        lines.append(proof_text(child, indent + 1))
    return "\n".join(lines)


def proof_to_json(t: ProofTree) -> dict:
    return {
        "sequent": sequent_to_json(t.sequent),
        "rule": t.rule,
        "axiom": t.axiom,
        "children": [proof_to_json(c) for c in t.children],
    }


def proof_from_json(obj: object) -> ProofTree:
    if not isinstance(obj, dict) or "sequent" not in obj:
        raise ValueError(f"not a proof object: {obj!r}")
    rule = obj.get("rule")
    axiom = obj.get("axiom")
    if rule is not None and rule not in RULES:
        raise ValueError(f"unknown rule: {rule!r}")
    if axiom is not None and axiom not in AXIOMS:
        raise ValueError(f"unknown axiom: {axiom!r}")
    children = obj.get("children", [])
    if not isinstance(children, list):
        raise ValueError("proof 'children' must be a list")
    return ProofTree(
        sequent_from_json(obj["sequent"]),
        rule,
        axiom,
        tuple(proof_from_json(c) for c in children),
    )
