"""The rule schema of both calculi for IEL and IEL-, and their derivations.

RULE_TABLE is the one rule schema: for each rule of the validity calculus,
in canonical order, the compartment and connective of its principal
formulas and how it instantiates bottom-up on one of them.  Every
refutational rule is one premise of a validity rule, and REFUTATIONS names
it.  The calculus for IEL- is the same rule set minus the left K rule on
plain sequents.  One pass over a sequent (principals) finds the principals
of every rule that fires on it, through a map from compartment and
connective to rule derived from the table; rule_instances, the flat tests
(liel_flat, riel_axiom) and expansion, the instances the search decides a
sequent by, all read it.  Proofs and refutations share one tree type, one
checker skeleton (rule validity is the calculus's own; the depth bound and
the subformula property are common) and one JSON codec.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .formula import (
    _JSON_OP,
    BOT,
    And,
    Bottom,
    Formula,
    Imp,
    K,
    Or,
    Var,
    by_text,
    render,
    sorted_formulas,
    subformulas,
)
from .sequent import (
    Logic,
    Sequent,
    liel_axiom,
    sequent_from_json,
    sequent_text,
    sequent_to_json,
)


class Instantiation(NamedTuple):
    rule: str
    premises: tuple[Sequent, ...]


class Derivation(NamedTuple):
    """A proof or a refutation: leaves carry an axiom name, inner nodes a
    rule name of the calculus at hand.

    The memoized search hands back the same node object for a repeated
    subsequent, so a derivation in memory is a DAG.  Every walk over one
    (checking, depth, JSON) visits each distinct node object once per call,
    keyed by identity since equal-valued nodes compare by their whole
    subtree, and keeps its own stack, so depth is not bounded by Python's
    recursion limit."""

    sequent: Sequent
    rule: Optional[str]
    axiom: Optional[str]
    children: tuple["Derivation", ...]


def axiom_leaf(s: Sequent, name: str) -> Derivation:
    return Derivation(s, None, name, ())


def rule_node(s: Sequent, rule: str, children: tuple[Derivation, ...]) -> Derivation:
    return Derivation(s, rule, None, children)


def derivation_depth(t: Derivation) -> int:
    """Length in edges of the longest branch."""
    depth: dict[int, int] = {}
    stack = [t]
    while stack:
        node = stack[-1]
        todo = [c for c in node.children if id(c) not in depth]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        depth[id(node)] = 1 + max(depth[id(c)] for c in node.children) if node.children else 0
    return depth[id(t)]


# ---------------------------------------------------------------------------
# The rule schema
# ---------------------------------------------------------------------------

# A rule fires once per principal: a formula of its connective in its
# compartment (gamma, the second, or delta, the third), in the order of the
# formulas' rendered texts.  Its builder gives the premises for one principal.
_Build = Callable[[Sequent, Formula], tuple[Sequent, ...]]


def _and_l(s: Sequent, f: And) -> tuple[Sequent, ...]:
    return (Sequent(s.theta, (s.gamma - {f}) | {f.left, f.right}, s.delta, s.e_flag),)


def _and_r(s: Sequent, f: And) -> tuple[Sequent, ...]:
    return tuple(Sequent(s.theta, s.gamma, (s.delta - {f}) | {g}, s.e_flag)
                 for g in (f.left, f.right))


def _or_l(s: Sequent, f: Or) -> tuple[Sequent, ...]:
    return tuple(Sequent(s.theta, (s.gamma - {f}) | {g}, s.delta, s.e_flag)
                 for g in (f.left, f.right))


def _or_r(s: Sequent, f: Or) -> tuple[Sequent, ...]:
    return (Sequent(s.theta, s.gamma, (s.delta - {f}) | {f.left, f.right}, s.e_flag),)


def _imp_l(s: Sequent, f: Imp) -> tuple[Sequent, ...]:
    rest = s.gamma - {f}
    return (
        Sequent(s.theta, rest | {f.right}, s.delta, s.e_flag),
        Sequent(s.theta | {f.right}, rest, s.delta | {f.left}, s.e_flag),
        Sequent(frozenset({f.right}), s.theta | rest, frozenset({f.left}), False))


def _imp_r(s: Sequent, f: Imp) -> tuple[Sequent, ...]:
    return (
        Sequent(s.theta, s.gamma | {f.left}, (s.delta - {f}) | {f.right}, s.e_flag),
        Sequent(frozenset(), s.theta | s.gamma | {f.left}, frozenset({f.right}), False))


def _k_l(s: Sequent, f: K) -> tuple[Sequent, ...]:
    rest = (s.gamma - {f}) | {f.body}
    return (
        Sequent(frozenset({BOT}), rest, s.delta, True),
        Sequent(frozenset({BOT}), s.theta | rest, frozenset({BOT}), True))


def _k_r(s: Sequent, f: K) -> tuple[Sequent, ...]:
    # Every K-formula on the left is extracted, whichever K-formula is the target.
    ks = frozenset(g for g in s.gamma if isinstance(g, K))
    rest = (s.gamma - ks) | frozenset(g.body for g in ks)
    return (
        Sequent(s.theta, rest, (s.delta - {f}) | {f.body}, True),
        Sequent(frozenset(), s.theta | rest, frozenset({f.body}), False))


def _e_k_l(s: Sequent, f: K) -> tuple[Sequent, ...]:
    return (Sequent(s.theta, (s.gamma - {f}) | {f.body}, s.delta, True),)


def _e_k_r(s: Sequent, f: K) -> tuple[Sequent, ...]:
    return (Sequent(s.theta, s.gamma, (s.delta - {f}) | {f.body}, True),)


# The validity rules in canonical order: (compartment, connective, build).
RULE_TABLE: dict[str, tuple[str, type, _Build]] = {
    "AndL": ("gamma", And, _and_l), "AndR": ("delta", And, _and_r),
    "OrL": ("gamma", Or, _or_l), "OrR": ("delta", Or, _or_r),
    "ImpL": ("gamma", Imp, _imp_l), "ImpR": ("delta", Imp, _imp_r),
    "KL": ("gamma", K, _k_l), "KR": ("delta", K, _k_r),
    "eAndL": ("gamma", And, _and_l), "eAndR": ("delta", And, _and_r),
    "eOrL": ("gamma", Or, _or_l), "eOrR": ("delta", Or, _or_r),
    "eImpL": ("gamma", Imp, _imp_l), "eImpR": ("delta", Imp, _imp_r),
    "eKL": ("gamma", K, _e_k_l), "eKR": ("delta", K, _e_k_r),
}

RULES = tuple(RULE_TABLE)


# (E-flag, logic) -> one map per compartment (gamma, then delta) from
# connective to the one rule that fires on such a principal, derived from
# RULE_TABLE once, here.  Rules named with an e fire on E-sequents only, the
# others on plain sequents only; the left K rule on plain sequents exists
# only under IEL.
_DISPATCH = {
    (e_flag, logic): tuple(
        {cls: rule for rule, (where, cls, _) in RULE_TABLE.items()
         if where == part and rule.startswith("e") == e_flag
         and (rule != "KL" or logic is Logic.IEL)}
        for part in ("gamma", "delta"))
    for e_flag in (False, True) for logic in Logic
}

# The invertible rules, in the order the search tries them, single-premise
# ones first.  Glue and eGlue fire only where none of them has an instance.
INVERTIBLE = ("AndL", "OrR", "eAndL", "eOrR", "eKL", "eKR",
              "OrL", "AndR", "eOrL", "eAndR")

# Where no invertible rule has an instance, the search tries every instance
# of these; one Glue or eGlue node refutes all their rightmost premises.
NONINVERTIBLE = ("ImpR", "KR", "eImpR", "ImpL", "eImpL")

AXIOMS = ("Irr", "Id", "eIrr", "eId")

# (validity rule, premise index) -> the refutational rule that refutes the
# conclusion from a refutation of that premise alone.  The rightmost
# premises of ImpL, ImpR and KR are refuted together, by one Glue node over
# all of them; KL2 also needs an atomic third compartment.
REFUTATIONS = {
    ("AndL", 0): "AndL", ("AndR", 0): "AndR1", ("AndR", 1): "AndR2",
    ("OrL", 0): "OrL1", ("OrL", 1): "OrL2", ("OrR", 0): "OrR",
    ("ImpL", 0): "ImpL1", ("ImpL", 1): "ImpL2", ("ImpL", 2): "Glue",
    ("ImpR", 0): "ImpR1", ("ImpR", 1): "Glue",
    ("KL", 0): "KL1", ("KL", 1): "KL2", ("KR", 0): "KR1", ("KR", 1): "Glue",
    ("eAndL", 0): "eAndL", ("eAndR", 0): "eAndR1", ("eAndR", 1): "eAndR2",
    ("eOrL", 0): "eOrL1", ("eOrL", 1): "eOrL2", ("eOrR", 0): "eOrR",
    ("eImpL", 0): "eImpL1", ("eImpL", 1): "eImpL2", ("eImpL", 2): "eGlue",
    ("eImpR", 0): "eImpR1", ("eImpR", 1): "eGlue",
    ("eKL", 0): "eKL", ("eKR", 0): "eKR",
}


def principals(s: Sequent, logic: Logic) -> dict[str, list[Formula]]:
    """Rule -> its principals in s, in the order of their rendered texts, for
    every rule that has one: one pass over the second and third
    compartments, then a sort of each rule's principals."""
    gamma_rules, delta_rules = _DISPATCH[s.e_flag, logic]
    found: dict[str, list[Formula]] = {}
    for rule_of, fs in ((gamma_rules, s.gamma), (delta_rules, s.delta)):
        for f in fs:
            rule = rule_of.get(type(f))
            if rule is not None:
                found.setdefault(rule, []).append(f)
    for fs in found.values():
        fs.sort(key=by_text)
    return found


def _instance(s: Sequent, rule: str, f: Formula) -> Instantiation:
    premises = RULE_TABLE[rule][2](s, f)
    # Termination and the depth bound rest on this; raised rather than
    # asserted so that it also holds under -O.
    if not all(p.size < s.size for p in premises):
        raise AssertionError(f"premise failed to shrink: {sequent_text(s)}")
    return Instantiation(rule, premises)


def rule_instances(rule: str, s: Sequent, logic: Logic) -> Iterator[Instantiation]:
    """The instantiations of one validity rule on s, lazily, in canonical
    order; a rule that does not fire on s, or an unknown name, has none."""
    return instances(rule, s, principals(s, logic))


def instances(rule: str, s: Sequent, found: dict[str, list[Formula]]) -> Iterator[Instantiation]:
    """rule_instances(rule, s, logic), given found = principals(s, logic)."""
    return (_instance(s, rule, f) for f in found.get(rule, ()))


def expansion(s: Sequent, logic: Logic) -> tuple[Instantiation, ...]:
    """The instances the search decides s by: the first instance of the
    first invertible rule that has one; else every instance of the
    non-invertible rules; else the first instance of KL.  Empty exactly
    when no rule has an instance."""
    return expand(s, principals(s, logic))


def expand(s: Sequent, found: dict[str, list[Formula]]) -> tuple[Instantiation, ...]:
    """expansion(s, logic), given found = principals(s, logic)."""
    for rule in INVERTIBLE:
        if rule in found:
            return (_instance(s, rule, found[rule][0]),)
    insts = tuple(_instance(s, rule, f) for rule in NONINVERTIBLE for f in found.get(rule, ()))
    if insts or "KL" not in found:
        return insts
    return (_instance(s, "KL", found["KL"][0]),)


# ---------------------------------------------------------------------------
# Terminal sequents
# ---------------------------------------------------------------------------

def liel_flat(s: Sequent, logic: Logic) -> bool:
    """No rule of the validity calculus applies and s is not an axiom: no
    formula of s is a principal of a rule that fires on it."""
    return liel_axiom(s) is None and not principals(s, logic)


def riel_axiom(s: Sequent, logic: Logic) -> Optional[str]:
    """Axiom name for the refutational calculus, or None: its axioms are the
    flat sequents of the validity calculus.  kSat is the IEL- case that the
    left K rule of IEL would still expand."""
    if not liel_flat(s, logic):
        return None
    if s.e_flag:
        return "eSat"
    return "Sat" if liel_flat(s, Logic.IEL) else "kSat"


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

class Defect(NamedTuple):
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def check_derivation(t: Derivation, logic: Logic,
                     axiom_fits: Callable[[Sequent, str], bool],
                     cannot_fire: Callable[[Derivation, dict], Optional[Defect]],
                     bad_premises: Callable[[Derivation, dict], Optional[Defect]]) -> list[Defect]:
    """The checks both calculi share: the subformula property relative to
    the root sequent (falsum always allowed), fitting axiom leaves, no node
    with both a rule and an axiom, and depth bounded by the connective count
    of the root.  At each rule node, cannot_fire reports a rule that cannot
    fire on the node's sequent at all (its subtree is then not visited), and
    bad_premises reports children that are not the rule's premises; both are
    handed the sequent's principals(s, logic), found once per node."""
    defects: list[Defect] = []
    root = t.sequent
    allowed: frozenset[Formula] = frozenset({BOT})
    for f in root.theta | root.gamma | root.delta:
        allowed |= subformulas(f)

    def own_defects(node: Derivation) -> bool:
        """Append the node's own defects; True if its children are checked."""
        s = node.sequent
        if not (s.theta <= allowed and s.gamma <= allowed and s.delta <= allowed):
            for f in sorted_formulas((s.theta | s.gamma | s.delta) - allowed):
                defects.append(Defect(
                    "Subformula",
                    f"{render(f)} is not a subformula of the root in {sequent_text(s)}"))
        if node.rule is None:
            if node.children or node.axiom is None:
                defects.append(Defect("NonAxiomLeaf", sequent_text(s)))
            elif not axiom_fits(s, node.axiom):
                defects.append(Defect(
                    "BadAxiom", f"{node.axiom} does not fit {sequent_text(s)}"))
            return False
        if node.axiom is not None:
            defects.append(Defect("MalformedNode", sequent_text(s)))
            return False
        found = principals(s, logic)
        stop = cannot_fire(node, found)
        if stop is not None:
            defects.append(stop)
            return False
        bad = bad_premises(node, found)
        if bad is not None:
            defects.append(bad)
        return True

    # Pre-order, children left to right.  A subtree's defects form one run
    # of the list, so a repeated node re-appends the run its first
    # occurrence produced: the list is the one a walk of the expanded tree
    # gives.  An entry (node, start) closes node's run, which began at start.
    runs: dict[int, tuple[int, int]] = {}
    stack: list[tuple[Derivation, Optional[int]]] = [(t, None)]
    while stack:
        node, start = stack.pop()
        if start is not None:
            runs[id(node)] = (start, len(defects))
            continue
        run = runs.get(id(node))
        if run is not None:
            defects.extend(defects[run[0]:run[1]])
            continue
        stack.append((node, len(defects)))
        if own_defects(node):
            stack.extend((c, None) for c in reversed(node.children))

    depth = derivation_depth(t)
    if depth > root.size:
        defects.append(Defect("DepthBound", f"depth {depth} exceeds {root.size} connectives"))
    return defects


def _axiom_fits(s: Sequent, name: str) -> bool:
    if name in ("Irr", "eIrr"):
        return BOT in s.gamma and s.e_flag == name.startswith("e")
    if name in ("Id", "eId"):
        return bool(s.gamma & s.delta) and s.e_flag == name.startswith("e")
    return False


def check_proof(t: Derivation, logic: Logic) -> list[Defect]:
    """Validate a proof tree: axiom leaves, schema-valid rule nodes, depth
    bounded by the connective count of the root, and the subformula
    property relative to the root sequent (falsum always allowed)."""

    def cannot_fire(node: Derivation, found: dict) -> Optional[Defect]:
        if liel_axiom(node.sequent) is None and found:
            return None
        return Defect("RuleOnTerminal", f"{node.rule} on terminal {sequent_text(node.sequent)}")

    def bad_premises(node: Derivation, found: dict) -> Optional[Defect]:
        got = tuple(c.sequent for c in node.children)
        if any(inst.premises == got for inst in instances(node.rule, node.sequent, found)):
            return None
        return Defect("BadInstantiation", f"{node.rule} on {sequent_text(node.sequent)}")

    return check_derivation(t, logic, _axiom_fits, cannot_fire, bad_premises)


# ---------------------------------------------------------------------------
# Text and JSON forms
# ---------------------------------------------------------------------------

def derivation_text(t: Derivation) -> str:
    """One line per node of the expanded tree, in pre-order, indented two
    spaces per level; each distinct node's line is rendered once."""
    texts: dict[int, str] = {}
    lines: list[str] = []
    stack = [(t, 0)]
    while stack:
        node, level = stack.pop()
        text = texts.get(id(node))
        if text is None:
            tag = f"({node.axiom})" if node.axiom is not None else f"[{node.rule}]"
            text = texts[id(node)] = f"{sequent_text(node.sequent)}  {tag}"
        lines.append("  " * level + text)
        stack.extend((c, level + 1) for c in reversed(node.children))
    return "\n".join(lines)


def derivation_to_json(t: Derivation) -> dict:
    return {
        "sequent": sequent_to_json(t.sequent),
        "rule": t.rule,
        "axiom": t.axiom,
        "children": [derivation_to_json(c) for c in t.children],
    }


proof_to_json = derivation_to_json


def derivation_json(t: Derivation, calculus: Optional[str] = None) -> str:
    """The text json.dumps(derivation_to_json(t), sort_keys=True) gives, with
    a "calculus" key added at the root when one is named, written without
    building the dict.

    The text is kept as a list of pieces.  A distinct node's pieces are
    written once; a repeated node copies the run of pieces its first
    occurrence wrote, so a parent never copies its children's bytes and a
    chain of n nodes costs O(n), not O(n^2).  Each distinct formula's text
    is built once per call from its children's texts, children first, with
    its own stack; each distinct compartment is sorted and joined once per
    call, and each rule and axiom name encoded once.  Nothing recurses, so
    formulas of any depth encode."""
    texts: dict[Formula, str] = {}
    parts: dict[frozenset[Formula], str] = {}
    names: dict[Optional[str], str] = {}

    def formula_text(f: Formula) -> str:
        """The memoized text of f, after those of its subformulas."""
        stack = [f]
        while stack:
            g = stack[-1]
            if g in texts:
                stack.pop()
                continue
            cls = type(g)
            if cls is Var:
                texts[g] = f'{{"name": {json.dumps(g.name)}, "op": "var"}}'
            elif cls is Bottom:
                texts[g] = '{"op": "bot"}'
            elif cls is K:
                body = texts.get(g.body)
                if body is None:
                    stack.append(g.body)
                    continue
                texts[g] = f'{{"body": {body}, "op": "k"}}'
            else:
                left, right = texts.get(g.left), texts.get(g.right)
                if left is None or right is None:
                    stack.extend((g.right, g.left))
                    continue
                texts[g] = f'{{"left": {left}, "op": "{_JSON_OP[cls]}", "right": {right}}}'
            stack.pop()
        return texts[f]

    def part(fs: frozenset[Formula]) -> str:
        out = parts.get(fs)
        if out is None:
            out = parts[fs] = "[" + ", ".join(
                [texts.get(f) or formula_text(f) for f in sorted_formulas(fs)]) + "]"
        return out

    def name(x: Optional[str]) -> str:
        out = names.get(x)
        if out is None:
            out = names[x] = json.dumps(x)
        return out

    root_key = "" if calculus is None else f'"calculus": {json.dumps(calculus)}, '
    pieces: list[str] = []
    runs: dict[int, tuple[int, int]] = {}
    # (node, separator) enters node after writing the separator; (node,
    # start) closes node, whose run of pieces began at start.
    stack: list[tuple[Derivation, Union[str, int]]] = [(t, "")]
    while stack:
        node, mark = stack.pop()
        if isinstance(mark, int):
            s = node.sequent
            pieces.append(
                f'], "rule": {name(node.rule)}, "sequent": {{"delta": {part(s.delta)}, '
                f'"e": {"true" if s.e_flag else "false"}, "gamma": {part(s.gamma)}, '
                f'"theta": {part(s.theta)}}}}}')
            runs[id(node)] = (mark, len(pieces))
            continue
        if mark:
            pieces.append(mark)
        run = runs.get(id(node))
        if run is not None:
            pieces.extend(pieces[run[0]:run[1]])
            continue
        stack.append((node, len(pieces)))
        pieces.append(f'{{"axiom": {name(node.axiom)}, '
                      f'{root_key if node is t else ""}"children": [')
        kids = node.children
        stack.extend((kids[i], ", " if i else "") for i in range(len(kids) - 1, -1, -1))
    return "".join(pieces)


def derivation_from_json(obj: object, rules: tuple[str, ...], axioms: tuple[str, ...],
                         kind: str) -> Derivation:
    """Decode a derivation whose rule and axiom names must come from the
    given tables; kind ("proof" or "refutation") names it in errors."""
    if not isinstance(obj, dict) or "sequent" not in obj:
        raise ValueError(f"not a {kind} object: {obj!r}")
    rule = obj.get("rule")
    axiom = obj.get("axiom")
    if rule is not None and rule not in rules:
        raise ValueError(f"unknown rule: {rule!r}")
    if axiom is not None and axiom not in axioms:
        raise ValueError(f"unknown axiom: {axiom!r}")
    children = obj.get("children", [])
    if not isinstance(children, list):
        raise ValueError(f"{kind} 'children' must be a list")
    return Derivation(
        sequent_from_json(obj["sequent"]),
        rule,
        axiom,
        tuple(derivation_from_json(c, rules, axioms, kind) for c in children),
    )


def proof_from_json(obj: object) -> Derivation:
    return derivation_from_json(obj, RULES, AXIOMS, "proof")
