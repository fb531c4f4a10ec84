"""Decision procedures for IEL and IEL-.

One recursive search builds derivations only: a proof of the validity
calculus when the sequent is provable, otherwise a refutation together
with the depth of the Kripke model it maps onto.  _search checks that its
sequent is smaller than the conclusion it is a premise of, proves an
axiom, names a flat leaf (rules.flat_axiom) when rules.expansion gives
the sequent no instances, and otherwise hands them to _choose with its
size, its premises' bound: two frames a level, so formulas about 490 deep
decide under Python's default recursion limit.  A size is three lookups
in one table of compartment sums (sequent.CompartmentSums), which
prove_or_refute makes for its call and drops when it returns, so each
distinct compartment is summed once per decision.  _choose makes the
minimal-depth choice between the refutations of the premises and the
Glue of all rightmost premises.  It skips a premise that could only give
a refutation no shallower than the best one already found, and every
memo entry is still the exact result for its sequent.  piel and decide
build the countermodel once, from the refutation the search returns
(refuter.refutation_model).  outcome_defect is the one test that an
outcome certifies its verdict.
"""

from __future__ import annotations

import sys
from typing import NamedTuple, Optional, Union

from .formula import Formula
from .kripke import KripkeModel, check_frame, satisfies
from .refuter import Refutation, refutation_model
from .rules import (
    REFUTATIONS,
    Derivation,
    Instantiation,
    axiom_leaf,
    check_proof,
    expansion,
    flat_axiom,
    rule_node,
)
from .sequent import CompartmentSums, Logic, Sequent, liel_axiom, sequent_text


class Proof(NamedTuple):
    tree: Derivation


class Countermodel(NamedTuple):
    model: KripkeModel


Outcome = Union[Proof, Countermodel]


_Memo = dict[Sequent, tuple[Derivation, int]]

# The bound of the root, which is no rule's premise.
_NO_CONCLUSION = sys.maxsize

# Validity rule -> for each of its premises, in order: the refutational
# rule that refutes the conclusion from a refutation of that premise alone,
# whether that is Glue/eGlue, whether it is KL2, and the least depth such a
# refutation can have (1, or 2 through Glue or KL2); derived once, here,
# from REFUTATIONS, which lists each rule's premises in order.
def _refuted_by(name: str) -> tuple[str, bool, bool, int]:
    glue, kl2 = name in ("Glue", "eGlue"), name == "KL2"
    return name, glue, kl2, 1 + (glue or kl2)


_REFUTED_BY = {rule: tuple(_refuted_by(name) for (of, _), name in REFUTATIONS.items()
                           if of == rule)
               for rule, _ in REFUTATIONS}


def _search(s: Sequent, logic: Logic, memo: _Memo, bound: int = _NO_CONCLUSION,
            sums: Optional[CompartmentSums] = None) -> tuple[Derivation, int]:
    """Decide s: a proof and depth 0, or a refutation and the depth (at
    least 1) of the model it maps onto.  The memo keeps the results of one
    call's earlier subsequents: the result is a pure function of (sequent,
    logic), so a memo hit is exactly what recomputing would return.

    bound is the size of the conclusion s is a premise of.  Termination and
    the depth of the result rest on s being smaller, so every visit, a memo
    hit included, reads s's size, checks it (raised rather than asserted,
    so that it also holds under -O) and hands it to _choose as its
    premises' bound.  The size comes from sums, the top-level call's table
    of compartment sums, which the recursion passes down; a call without
    one makes its own, so each distinct compartment is summed once per
    top-level call."""
    if sums is None:
        sums = CompartmentSums()
    size = sums[s.theta] + sums[s.gamma] + sums[s.delta]
    if size >= bound:
        raise AssertionError(f"premise failed to shrink: {sequent_text(s)} "
                             f"has {size} connectives, its conclusion {bound}")
    hit = memo.get(s)
    if hit is None:
        name = liel_axiom(s)
        if name is not None:
            hit = axiom_leaf(s, name), 0
        else:
            insts = expansion(s, logic)
            hit = _choose(s, size, insts, logic, memo, sums) if insts else (
                axiom_leaf(s, flat_axiom(s)), 1)
        memo[s] = hit
    return hit


def _choose(s: Sequent, size: int, insts: tuple[Instantiation, ...], logic: Logic,
            memo: _Memo, sums: CompartmentSums) -> tuple[Derivation, int]:
    """Decide s, of the given size, by its rule instances: a proof by the
    first instance whose premises are all provable, otherwise the
    refutation of least depth, ties to the first.  A refuted premise
    refutes s on its own (KL2 adds a world below its model), except a
    rightmost premise of ImpL, ImpR or KR: those are glued under a fresh
    root, and only when every instance's is refuted; the Glue candidate
    comes last.  Each premise's refutational name, Glue and KL2 flags and
    least depth come from _REFUTED_BY, and sums, the top-level call's
    table, goes down to every _search.

    Past an instance's first refuted premise, its premises count only as
    refutations, of depth at least 1, or 2 through KL2 or Glue.  Such a
    premise is not searched when the best depth so far is no greater: it
    comes later, so it loses the tie.  The result is exactly that of
    searching every premise.  Only the premises searched are checked to
    shrink, by _search: the others are used nowhere."""
    best: Optional[tuple[Derivation, int]] = None
    glued: list[tuple[Derivation, int]] = []
    for rule, premises in insts:
        proved: list[Derivation] = []
        refuted = False
        for p, (name, glue, kl2, least) in zip(premises, _REFUTED_BY[rule]):
            # Past a refuted premise, which is never a Glue one, best is set.
            if refuted and best[1] <= least:
                continue
            t, d = _search(p, logic, memo, size, sums)
            if not d:
                proved.append(t)
                continue
            refuted = True
            if glue:
                glued.append((t, d))
            elif best is None or d + kl2 < best[1]:
                best = rule_node(s, name, (t,)), d + kl2
        if not refuted:
            return rule_node(s, rule, tuple(proved)), 0
    if len(glued) == len(insts):
        glue_d = 1 + max(d for _, d in glued)
        if best is None or glue_d < best[1]:
            best = (rule_node(s, "eGlue" if s.e_flag else "Glue", tuple(t for t, _ in glued)),
                    glue_d)
    return best


# ---------------------------------------------------------------------------
# Public procedures
# ---------------------------------------------------------------------------

def piel(s: Sequent, logic: Logic) -> Outcome:
    """Decide a sequent: a proof if it is provable, otherwise a Kripke
    countermodel of minimal depth whose root satisfies it, built from the
    refutation that prove_or_refute returns."""
    out = prove_or_refute(s, logic)
    return out if isinstance(out, Proof) else Countermodel(refutation_model(out, logic))


def decide(f: Formula, logic: Logic) -> Outcome:
    """Decide a formula: Proof means valid, Countermodel means invalid."""
    return piel(Sequent(delta=frozenset({f})), logic)


def prove_or_refute(s: Sequent, logic: Logic) -> Union[Proof, Refutation]:
    """The combined procedure: a proof of the validity calculus or a
    refutation in the refutational calculus, never both."""
    tree, d = _search(s, logic, {}, _NO_CONCLUSION, CompartmentSums())
    return tree if d else Proof(tree)


def prove_or_refute_formula(f: Formula, logic: Logic) -> Union[Proof, Refutation]:
    return prove_or_refute(Sequent(delta=frozenset({f})), logic)


def outcome_defect(f: Formula, outcome: Outcome, logic: Logic) -> Optional[str]:
    """Why outcome fails to certify its verdict on f, or None if it does: a
    proof must pass check_proof, a countermodel check_frame, and its root
    must refute f."""
    if isinstance(outcome, Proof):
        defects = check_proof(outcome.tree, logic)
        return str(defects[0]) if defects else None
    m = outcome.model
    violations = check_frame(m, logic)
    if violations:
        return str(violations[0])
    if not satisfies(m, m.root, Sequent(delta=frozenset({f}))):
        return "countermodel does not refute the formula"
    return None
