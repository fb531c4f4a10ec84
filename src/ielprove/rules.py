"""The rule schema of both calculi for IEL and IEL-, and their derivations.

RULE_TABLE is the one rule schema: for each rule of the validity calculus,
in canonical order, the compartment and connective of its principal
formulas and how it instantiates bottom-up on one of them.  Every
refutational rule is one premise of a validity rule, and REFUTATIONS names
it.  The calculus for IEL- is the same rule set minus the left K rule on
plain sequents.  Each rule has a rank, the order the search prefers it in
(INVERTIBLE, then NONINVERTIBLE, then KL), and one map per logic, E-flag
and compartment, derived from the table once, gives each connective the
rank of the one rule that fires on such a principal.  One pass over a
sequent's second and third compartments through that map finds every
principal with its rank; expansion, the instances the search decides a
sequent by, takes the least (rank, text) of that pass, or sorts it once
when the expansion is non-invertible, and the flat tests (liel_flat,
riel_axiom) ask whether the pass found anything.  What asks about one rule
(rule_instances, and has_instance, the checkers' test of a rule node)
reads that rule's own principals, if the same map gives it their
connective (_FIRES), and checks that each premise it builds is smaller
than its conclusion, summing through one CompartmentSums table per check;
expansion leaves that to the search, which checks each premise it visits.  Proofs and
refutations share one tree type, one checker skeleton (check_derivation:
the subformula property, leaf and node shape, and the depth bound, all
from one walk; a calculus adds an axiom test and a rule test, which
builds the node's own rule's instances) and one JSON codec
(derivation_json writes the text of a certificate, derivation_from_json
reads it back).
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .formula import (
    BINARY_OPS,
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
    CompartmentSums,
    Logic,
    Sequent,
    liel_axiom,
    sequent_from_json,
    sequent_text,
)

# Builds a record from the tuple of its fields, without the Python frame of
# a NamedTuple's generated __new__: the builders' premises, expansion's
# instances and the search's nodes are built with it.
_new = tuple.__new__

# A node's sequent, as a key without a Python frame: the checkers' rule tests
# read the children's sequents with it.
sequent_of = attrgetter("sequent")


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
    return _new(Derivation, (s, None, name, ()))


def rule_node(s: Sequent, rule: str, children: tuple[Derivation, ...]) -> Derivation:
    return _new(Derivation, (s, rule, None, children))


def _bottom_up(t: Derivation, combine: Callable[[list[int]], int]) -> int:
    """t's value, a node's being combine of its children's; once per distinct node."""
    value: dict[int, int] = {}
    stack = [(t, iter(t.children))]
    while stack:
        node, kids = stack[-1]
        for c in kids:
            if id(c) not in value:
                stack.append((c, iter(c.children)))
                break
        else:
            stack.pop()
            value[id(node)] = combine([value[id(c)] for c in node.children])
    return value[id(t)]


def derivation_depth(t: Derivation) -> int:
    """Length in edges of the longest branch."""
    return _bottom_up(t, lambda depths: 1 + max(depths, default=-1))


def derivation_size(t: Derivation) -> int:
    """Number of nodes of t as a tree, which text and JSON write out: a
    shared node counts once per occurrence."""
    return _bottom_up(t, lambda sizes: 1 + sum(sizes))


# ---------------------------------------------------------------------------
# The rule schema
# ---------------------------------------------------------------------------

# A rule fires once per principal: a formula of its connective in its
# compartment (gamma, the second, or delta, the third), in the order of the
# formulas' rendered texts.  Its builder gives the premises for one principal.
_Build = Callable[[Sequent, Formula], tuple[Sequent, ...]]


def _and_l(s: Sequent, f: And) -> tuple[Sequent, ...]:
    return (_new(Sequent, (s.theta, (s.gamma - {f}) | {f.left, f.right}, s.delta, s.e_flag)),)


def _and_r(s: Sequent, f: And) -> tuple[Sequent, ...]:
    rest = s.delta - {f}
    return (_new(Sequent, (s.theta, s.gamma, rest | {f.left}, s.e_flag)),
            _new(Sequent, (s.theta, s.gamma, rest | {f.right}, s.e_flag)))


def _or_l(s: Sequent, f: Or) -> tuple[Sequent, ...]:
    rest = s.gamma - {f}
    return (_new(Sequent, (s.theta, rest | {f.left}, s.delta, s.e_flag)),
            _new(Sequent, (s.theta, rest | {f.right}, s.delta, s.e_flag)))


def _or_r(s: Sequent, f: Or) -> tuple[Sequent, ...]:
    return (_new(Sequent, (s.theta, s.gamma, (s.delta - {f}) | {f.left, f.right}, s.e_flag)),)


def _imp_l(s: Sequent, f: Imp) -> tuple[Sequent, ...]:
    rest = s.gamma - {f}
    return (
        _new(Sequent, (s.theta, rest | {f.right}, s.delta, s.e_flag)),
        _new(Sequent, (s.theta | {f.right}, rest, s.delta | {f.left}, s.e_flag)),
        _new(Sequent, (frozenset({f.right}), s.theta | rest, frozenset({f.left}), False)))


def _imp_r(s: Sequent, f: Imp) -> tuple[Sequent, ...]:
    return (
        _new(Sequent, (s.theta, s.gamma | {f.left}, (s.delta - {f}) | {f.right}, s.e_flag)),
        _new(Sequent, (frozenset(), s.theta | s.gamma | {f.left}, frozenset({f.right}), False)))


def _k_l(s: Sequent, f: K) -> tuple[Sequent, ...]:
    rest = (s.gamma - {f}) | {f.body}
    return (
        _new(Sequent, (frozenset({BOT}), rest, s.delta, True)),
        _new(Sequent, (frozenset({BOT}), s.theta | rest, frozenset({BOT}), True)))


def _k_r(s: Sequent, f: K) -> tuple[Sequent, ...]:
    # Every K-formula on the left is extracted, whichever K-formula is the target.
    ks = frozenset(g for g in s.gamma if isinstance(g, K))
    rest = (s.gamma - ks) | frozenset(g.body for g in ks)
    return (
        _new(Sequent, (s.theta, rest, (s.delta - {f}) | {f.body}, True)),
        _new(Sequent, (frozenset(), s.theta | rest, frozenset({f.body}), False)))


def _e_k_l(s: Sequent, f: K) -> tuple[Sequent, ...]:
    return (_new(Sequent, (s.theta, (s.gamma - {f}) | {f.body}, s.delta, True)),)


def _e_k_r(s: Sequent, f: K) -> tuple[Sequent, ...]:
    return (_new(Sequent, (s.theta, s.gamma, (s.delta - {f}) | {f.body}, True)),)


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


# The invertible rules, in the order the search tries them, single-premise
# ones first.  Glue and eGlue fire only where none of them has an instance.
INVERTIBLE = ("AndL", "OrR", "eAndL", "eOrR", "eKL", "eKR",
              "OrL", "AndR", "eOrL", "eAndR")

# Where no invertible rule has an instance, the search tries every instance
# of these; one Glue or eGlue node refutes all their rightmost premises.
NONINVERTIBLE = ("ImpR", "KR", "eImpR", "ImpL", "eImpL")

# Every rule by its rank, the order the search prefers it in: the
# invertible rules, the non-invertible ones, then KL, which the search
# tries only where neither has an instance.
_RANKED = INVERTIBLE + NONINVERTIBLE + ("KL",)
_RANK = {rule: rank for rank, rule in enumerate(_RANKED)}
_FIRST_NONINVERTIBLE, _KL = len(INVERTIBLE), _RANK["KL"]

# logic -> E-flag -> one map per compartment (gamma, then delta) from
# connective to the rank of the one rule that fires on such a principal,
# derived from RULE_TABLE once, here.  Rules named with an e fire on
# E-sequents only, the others on plain sequents only; the left K rule on
# plain sequents exists only under IEL.
_DISPATCH = {
    logic: tuple(
        tuple({cls: _RANK[rule] for rule, (where, cls, _) in RULE_TABLE.items()
               if where == part and rule.startswith("e") == e_flag
               and (rule != "KL" or logic is Logic.IEL)}
              for part in ("gamma", "delta"))
        for e_flag in (False, True))
    for logic in Logic
}

# logic -> E-flag -> the rules that fire on such sequents: those _DISPATCH
# gives a connective to.  A rule outside RULE_TABLE fires on none.
_FIRES = {logic: tuple(frozenset(_RANKED[rank] for ranks in maps for rank in ranks.values())
                       for maps in by_flag)
          for logic, by_flag in _DISPATCH.items()}

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


def _principals(s: Sequent, logic: Logic) -> list[tuple[int, str, Formula]]:
    """(rank, text, principal) for every principal of a rule that fires on
    s, unsorted: one pass over the second and third compartments.  Within a
    rank the texts differ, so these tuples order by (rank, text) alone."""
    gamma_ranks, delta_ranks = _DISPATCH[logic][s.e_flag]
    found = []
    for ranks, fs in ((gamma_ranks, s.gamma), (delta_ranks, s.delta)):
        for f in fs:
            rank = ranks.get(type(f))
            if rank is not None:
                found.append((rank, by_text(f), f))
    return found


def _built(s: Sequent, rank: int, f: Formula) -> Instantiation:
    """The instance of the rule of this rank on s for principal f, its
    premises as the builder gives them."""
    rule = _RANKED[rank]
    return _new(Instantiation, (rule, RULE_TABLE[rule][2](s, f)))


def expansion(s: Sequent, logic: Logic) -> tuple[Instantiation, ...]:
    """The instances the search decides s by: the first instance of the
    first invertible rule that has one; else every instance of the
    non-invertible rules; else the first instance of KL.  Empty exactly
    when no rule has an instance.  One principal pass gives them: its least
    (rank, text) is the single instance unless its rank is non-invertible,
    and then one sort orders the non-invertible instances.  The premises
    are the builders', not checked to shrink here: the search checks each
    premise it visits, on its own size, and check_refutation each Glue
    premise it compares."""
    found = _principals(s, logic)
    if not found:
        return ()
    rank, _, f = min(found)
    if rank < _FIRST_NONINVERTIBLE or rank == _KL:
        return (_built(s, rank, f),)
    found.sort()
    return tuple([_built(s, rank, f) for rank, _, f in found if rank != _KL])


def shrink_check(s: Sequent, size: int, premises: tuple[Sequent, ...],
                 sums: CompartmentSums) -> tuple[Sequent, ...]:
    """premises, each checked to be smaller than size, s's connective count.
    Each premise is summed on its own, from sums, the check's table, so a
    compartment it shares with s is looked up, not summed again.
    Termination and the depth bound rest on this; raised rather than
    asserted so that it also holds under -O.  has_instance repeats this
    test inline, in its loop over candidate principals."""
    for p in premises:
        if sums[p.theta] + sums[p.gamma] + sums[p.delta] >= size:
            raise AssertionError(f"premise failed to shrink: {sequent_text(s)}")
    return premises


def _instance(s: Sequent, size: int, rule: str, f: Formula,
              sums: CompartmentSums) -> Instantiation:
    """The instance of rule on s for principal f, its premises checked to
    shrink against size, s's.  rule_instances builds its instances here;
    has_instance makes the same check inline, and expansion leaves its
    premises to the search, which checks each one it visits."""
    return _new(Instantiation, (rule, shrink_check(s, size, RULE_TABLE[rule][2](s, f), sums)))


def rule_instances(rule: str, s: Sequent, logic: Logic) -> Iterator[Instantiation]:
    """The instantiations of one validity rule on s, lazily, in canonical
    order; a rule that does not fire on s, or an unknown name, has none."""
    if rule not in _FIRES[logic][s.e_flag]:
        return iter(())
    where, cls, _ = RULE_TABLE[rule]
    sums = CompartmentSums()
    size = sums.size_of(s)
    return (_instance(s, size, rule, f, sums)
            for f in sorted(getattr(s, where), key=by_text) if type(f) is cls)


def has_instance(rule: str, s: Sequent, logic: Logic, got: tuple[Sequent, ...],
                 sums: CompartmentSums, index: Optional[int] = None) -> bool:
    """Whether some instance of rule on s has got as its premises or, given
    index, as the 1-tuple of its premise index.  One loop over the rule's
    compartment of s takes its principals, in any order, and for each one
    builds its premises, checks each to shrink against s's size and
    compares them with got, up to the first that fits, all summed through
    sums, the check's table, so each distinct compartment is summed once
    per check.  Every builder drops its principal from its compartment in
    the first premise, so a principal still there in got's first sequent
    is skipped unbuilt."""
    if rule not in _FIRES[logic][s.e_flag]:
        return False
    where, cls, build = RULE_TABLE[rule]
    kept = getattr(got[0], where) if got and index in (None, 0) else ()
    size = sums[s.theta] + sums[s.gamma] + sums[s.delta]
    for f in getattr(s, where):
        if type(f) is cls and f not in kept:
            premises = build(s, f)
            for p in premises:
                if sums[p.theta] + sums[p.gamma] + sums[p.delta] >= size:
                    raise AssertionError(f"premise failed to shrink: {sequent_text(s)}")
            if (premises if index is None else (premises[index],)) == got:
                return True
    return False


# ---------------------------------------------------------------------------
# Terminal sequents
# ---------------------------------------------------------------------------

def liel_flat(s: Sequent, logic: Logic) -> bool:
    """No rule of the validity calculus applies and s is not an axiom: no
    formula of s is a principal of a rule that fires on it."""
    return liel_axiom(s) is None and not _principals(s, logic)


def flat_axiom(s: Sequent) -> str:
    """The refutational axiom a flat s is: eSat on an E-sequent, and on a
    plain one kSat, the IEL- case that the left K rule of IEL would still
    expand (a K-formula in its second compartment, which under IEL is never
    flat), else Sat.  The search names the flat leaves it finds, where
    expansion gave no instance, by this alone."""
    if s.e_flag:
        return "eSat"
    return "kSat" if any(isinstance(f, K) for f in s.gamma) else "Sat"


def riel_axiom(s: Sequent, logic: Logic) -> Optional[str]:
    """Axiom name for the refutational calculus, or None: its axioms are the
    flat sequents of the validity calculus, named by flat_axiom."""
    return flat_axiom(s) if liel_flat(s, logic) else None


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

class Defect(NamedTuple):
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def check_derivation(t: Derivation, axiom_fits: Callable[[Sequent, str], bool],
                     rule_defect: Callable[[Derivation], tuple[Optional[Defect], bool]]
                     ) -> list[Defect]:
    """The checks both calculi share: the subformula property relative to
    the root sequent (falsum always allowed), fitting axiom leaves, no node
    with both a rule and an axiom, and depth bounded by the connective count
    of the root, the depth taken from the same walk where it descends to
    every node.  A calculus gives the rest as two tests: axiom_fits(s,
    name) for a leaf, and rule_defect(node) for a rule node, which returns
    the rule's defect there, or None, and whether the node's children are
    checked."""
    defects: list[Defect] = []
    root = t.sequent
    allowed: frozenset[Formula] = frozenset({BOT})
    for f in root.theta | root.gamma | root.delta:
        allowed |= subformulas(f)

    # Pre-order, children left to right.  A subtree's defects form one run
    # of the list, so a repeated node re-appends the run its first
    # occurrence produced: the list is the one a walk of the expanded tree
    # gives.  runs maps a node to (depth, start, end of its run).  A leaf, or
    # a node whose children are not checked, closes at its visit; any other
    # goes back under its children with its run's start, an int, above it,
    # and closes when that pops, after its children, so the close records
    # its depth, unless some node's children went unvisited (partial): then
    # the depth bound takes its own pass.
    runs: dict[int, tuple[int, int, int]] = {}
    partial = False
    stack: list[Union[Derivation, int]] = [t]
    while stack:
        node = stack.pop()
        if type(node) is int:
            start, node = node, stack.pop()
            depth = 0 if partial else 1 + max(map(runs.__getitem__, map(id, node.children)))[0]
        else:
            run = runs.get(id(node))
            if run is not None:
                defects.extend(defects[run[1]:run[2]])
                continue
            start = len(defects)
            s, rule, axiom, kids = node
            if not (s.theta <= allowed and s.gamma <= allowed and s.delta <= allowed):
                for f in sorted_formulas((s.theta | s.gamma | s.delta) - allowed):
                    defects.append(Defect(
                        "Subformula",
                        f"{render(f)} is not a subformula of the root in {sequent_text(s)}"))
            if rule is None:
                if kids or axiom is None:
                    defects.append(Defect("NonAxiomLeaf", sequent_text(s)))
                elif not axiom_fits(s, axiom):
                    defects.append(Defect("BadAxiom", f"{axiom} does not fit {sequent_text(s)}"))
            elif axiom is not None:
                defects.append(Defect("MalformedNode", sequent_text(s)))
            else:
                defect, descend = rule_defect(node)
                if defect is not None:
                    defects.append(defect)
                if descend and kids:
                    stack += (node, start, *reversed(kids))
                    continue
            partial = partial or bool(kids)
            depth = 0
        runs[id(node)] = (depth, start, len(defects))

    depth = derivation_depth(t) if partial else runs[id(t)][0]
    size = root.size
    if depth > size:
        defects.append(Defect("DepthBound", f"depth {depth} exceeds {size} connectives"))
    return defects


def _axiom_fits(s: Sequent, name: str) -> bool:
    if name in ("Irr", "eIrr"):
        return BOT in s.gamma and s.e_flag == name.startswith("e")
    if name in ("Id", "eId"):
        return not s.gamma.isdisjoint(s.delta) and s.e_flag == name.startswith("e")
    return False


def check_proof(t: Derivation, logic: Logic) -> list[Defect]:
    """Validate a proof tree: axiom leaves, schema-valid rule nodes, depth
    bounded by the connective count of the root, and the subformula
    property relative to the root sequent (falsum always allowed).  One
    CompartmentSums table serves the whole check."""
    sums = CompartmentSums()

    def rule_defect(node: Derivation) -> tuple[Optional[Defect], bool]:
        s = node.sequent
        if liel_axiom(s) is None:
            if has_instance(node.rule, s, logic, tuple(map(sequent_of, node.children)), sums):
                return None, True
            if _principals(s, logic):
                return Defect("BadInstantiation", f"{node.rule} on {sequent_text(s)}"), True
        return Defect("RuleOnTerminal", f"{node.rule} on terminal {sequent_text(s)}"), False

    return check_derivation(t, _axiom_fits, rule_defect)


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


_JSON_OP = {Var: "var", Bottom: "bot", K: "k", **{cls: op for op, cls in BINARY_OPS.items()}}

# The JSON text of no name and of every rule and axiom name of both calculi.
_NAME_JSON = {x: json.dumps(x) for x in (None, *RULES, *AXIOMS, *REFUTATIONS.values(),
                                          "Sat", "eSat", "kSat")}


def derivation_json(t: Derivation, calculus: Optional[str] = None) -> str:
    """t as JSON text: a node is {"axiom": A, "children": [...], "rule": R,
    "sequent": S}, plus "calculus" at the root when one is named, in the
    sequent and formula forms of sequent.py and formula.py.  Keys are sorted,
    separators are ", " and ": ", and strings are written as json.dumps does.

    The text is kept as a list of pieces.  A distinct node's pieces are
    written once; a repeated node copies the run of pieces its first
    occurrence wrote, so a parent never copies its children's bytes and a
    chain of n nodes costs O(n), not O(n^2).  Each distinct formula's text
    is built once per call from its children's texts, children first, with
    its own stack; each distinct compartment is sorted and joined once per
    call, and looked up in parts before part is called.  Rule and axiom
    names are read from _NAME_JSON, built at import; only a name outside
    both calculi is encoded per node.  Nothing recurses, so formulas of any
    depth encode."""
    texts: dict[Formula, str] = {}
    parts: dict[frozenset[Formula], str] = {}
    known = parts.get

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
        out = parts[fs] = "[" + ", ".join(
            [texts.get(f) or formula_text(f) for f in sorted(fs, key=by_text)]) + "]"
        return out

    root_key = "" if calculus is None else f'"calculus": {json.dumps(calculus)}, '
    pieces: list[str] = []
    runs: dict[int, tuple[int, int]] = {}
    # A node is entered, after ", " unless it opens its parent's children
    # or is the root; a leaf closes there.  Any other goes back under its
    # children with its run's start, an int, above it, and closes when that pops.
    stack: list[Union[Derivation, int]] = [t]
    while stack:
        node = stack.pop()
        if type(node) is int:
            start, node = node, stack.pop()
        else:
            if pieces and pieces[-1][-1] != "[":
                pieces.append(", ")
            run = runs.get(id(node))
            if run is not None:
                pieces.extend(pieces[run[0]:run[1]])
                continue
            start = len(pieces)
            pieces.append(f'{{"axiom": {_NAME_JSON.get(node.axiom) or json.dumps(node.axiom)}, '
                          f'{root_key if node is t else ""}"children": [')
            if node.children:
                stack += (node, start, *reversed(node.children))
                continue
        s = node.sequent
        pieces.append(
            f'], "rule": {_NAME_JSON.get(node.rule) or json.dumps(node.rule)}, "sequent": '
            f'{{"delta": {known(s.delta) or part(s.delta)}, '
            f'"e": {"true" if s.e_flag else "false"}, "gamma": {known(s.gamma) or part(s.gamma)}, '
            f'"theta": {known(s.theta) or part(s.theta)}}}}}')
        runs[id(node)] = (start, len(pieces))
    return "".join(pieces)


def proof_to_json(t: Derivation) -> dict:
    return json.loads(derivation_json(t))


def derivation_from_json(obj: object, rules: tuple[str, ...], axioms: tuple[str, ...],
                         kind: str) -> Derivation:
    """Decode a derivation whose rule and axiom names must come from the
    given tables; kind ("proof" or "refutation") names it in errors.

    Two passes, as in formula_from_json: a pre-order walk checks every
    node, children left to right, and decodes its sequent after its own
    keys; then the nodes are built, children first."""
    walked: list[tuple[dict, Sequent, object, object, list]] = []
    stack = [obj]
    while stack:
        o = stack.pop()
        if not isinstance(o, dict) or "sequent" not in o:
            raise ValueError(f"not a {kind} object: {o!r}")
        rule = o.get("rule")
        axiom = o.get("axiom")
        if rule is not None and rule not in rules:
            raise ValueError(f"unknown rule: {rule!r}")
        if axiom is not None and axiom not in axioms:
            raise ValueError(f"unknown axiom: {axiom!r}")
        children = o.get("children", [])
        if not isinstance(children, list):
            raise ValueError(f"{kind} 'children' must be a list")
        walked.append((o, sequent_from_json(o["sequent"]), rule, axiom, children))
        stack.extend(reversed(children))
    built: dict[int, Derivation] = {}
    for o, s, rule, axiom, children in reversed(walked):
        built[id(o)] = Derivation(s, rule, axiom, tuple(built[id(c)] for c in children))
    return built[id(obj)]


def proof_from_json(obj: object) -> Derivation:
    return derivation_from_json(obj, RULES, AXIOMS, "proof")
