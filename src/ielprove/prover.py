"""Decision procedures for IEL and IEL-.

One recursive search builds derivations only: a proof of the validity
calculus when the sequent is provable, otherwise a refutation together
with the depth of the Kripke model it maps onto.  A sequent that is no
axiom is decided by the instances rules.expansion gives, or is flat when
there are none.  One routine (_choose) makes the minimal-depth choice
between the refutations of the premises and the Glue of all rightmost
premises.  It skips a premise that could only give a refutation no
shallower than the best one already found, and every memo entry is still
the exact result for its sequent.  piel and decide build the countermodel
once, from the refutation the search returns (refuter.refutation_model).
outcome_defect is the one test that an outcome certifies its verdict.
"""

from __future__ import annotations

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
    riel_axiom,
    rule_node,
)
from .sequent import Logic, Sequent, liel_axiom


class Proof(NamedTuple):
    tree: Derivation


class Countermodel(NamedTuple):
    model: KripkeModel


Outcome = Union[Proof, Countermodel]


_Memo = dict[Sequent, tuple[Derivation, int]]


def _search(s: Sequent, logic: Logic, memo: _Memo) -> tuple[Derivation, int]:
    """Decide s: a proof and depth 0, or a refutation and the depth (at
    least 1) of the model it maps onto.  The memo keeps the results of one
    call's earlier subsequents: _step is a pure function of (sequent,
    logic), so a memo hit is exactly what recomputing would return."""
    hit = memo.get(s)
    if hit is None:
        hit = memo[s] = _step(s, logic, memo)
    return hit


def _step(s: Sequent, logic: Logic, memo: _Memo) -> tuple[Derivation, int]:
    name = liel_axiom(s)
    if name is not None:
        return axiom_leaf(s, name), 0
    insts = expansion(s, logic)
    if not insts:
        return axiom_leaf(s, riel_axiom(s, logic)), 1
    return _choose(s, insts, logic, memo)


def _choose(s: Sequent, insts: tuple[Instantiation, ...], logic: Logic,
            memo: _Memo) -> tuple[Derivation, int]:
    """Decide s by its rule instances: a proof by the first instance whose
    premises are all provable, otherwise the refutation of least depth,
    ties to the first.  A refuted premise refutes s on its own (KL2 adds a
    world below its model), except a rightmost premise of ImpL, ImpR or KR:
    those are glued under a fresh root, and only when every instance's is
    refuted; the Glue candidate comes last.

    Past an instance's first refuted premise, its premises count only as
    refutations, of depth at least 1, or 2 through KL2 or Glue.  Such a
    premise is not searched when the best depth so far is no greater: it
    comes later, so it loses the tie.  The result is exactly that of
    searching every premise."""
    best: Optional[tuple[Derivation, int]] = None
    glued: list[tuple[Derivation, int]] = []
    for inst in insts:
        proved: list[Derivation] = []
        for i, p in enumerate(inst.premises):
            name = REFUTATIONS[(inst.rule, i)]
            glue, kl2 = name in ("Glue", "eGlue"), name == "KL2"
            # Past a refuted premise, which is never a Glue one, best is set.
            if len(proved) < i and best[1] <= 1 + (glue or kl2):
                continue
            t, d = _search(p, logic, memo)
            if not d:
                proved.append(t)
            elif glue:
                glued.append((t, d))
            elif best is None or d + kl2 < best[1]:
                best = rule_node(s, name, (t,)), d + kl2
        if len(proved) == len(inst.premises):
            return rule_node(s, inst.rule, tuple(proved)), 0
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
    tree, d = _search(s, logic, {})
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
