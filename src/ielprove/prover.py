"""Decision procedures for IEL and IEL-.

One recursive search builds derivations only: a proof of the validity
calculus when the sequent is provable, otherwise a refutation together
with the depth of the Kripke model it maps onto.  The search handles
invertible rules first, then the implication/K-right rules, and finally
falls back to the left K rule under IEL.  At every such node one routine
(_choose) makes the minimal-depth choice between the refutations of the
premises and the Glue of all rightmost premises.  piel and decide build
the countermodel once, from the refutation the search returns
(refuter.refutation_model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .formula import Formula
from .kripke import KripkeModel
from .refuter import Refutation, refutation_model
from .rules import REFUTATIONS, Instantiation, ProofTree, axiom_leaf, rule_instances, rule_node
from .sequent import Logic, Sequent, liel_axiom, liel_flat, riel_axiom


@dataclass(frozen=True)
class Proof:
    tree: ProofTree


@dataclass
class Countermodel:
    model: KripkeModel


Outcome = Union[Proof, Countermodel]


@dataclass
class _Res:
    """A proof, or a refutation and the depth of the model it maps onto."""
    proof: Optional[ProofTree] = None
    refutation: Optional[Refutation] = None
    depth: int = 0


_INVERTIBLE = ("AndL", "OrR", "eAndL", "eOrR", "eKL", "eKR",
               "OrL", "AndR", "eOrL", "eAndR")
_NONINVERTIBLE = ("ImpR", "KR", "eImpR", "ImpL", "eImpL")


def _search(s: Sequent, logic: Logic, memo: dict[Sequent, _Res]) -> _Res:
    """Decide s, reusing the results of earlier subsequents of one call:
    _step is a pure function of (sequent, logic), so a memo hit is exactly
    what recomputing would return."""
    hit = memo.get(s)
    if hit is not None:
        return hit
    res = _step(s, logic, memo)
    assert (res.proof is not None) != (res.refutation is not None)
    memo[s] = res
    return res


def _step(s: Sequent, logic: Logic, memo: dict[Sequent, _Res]) -> _Res:
    name = liel_axiom(s)
    if name is not None:
        return _Res(proof=axiom_leaf(s, name))
    if liel_flat(s, logic):
        sat = riel_axiom(s, logic)
        assert sat is not None
        return _Res(refutation=axiom_leaf(s, sat), depth=1)

    # Invertible rules, single-premise ones first.
    for rule in _INVERTIBLE:
        inst = next(rule_instances(rule, s, logic), None)
        if inst is not None:
            return _choose(s, [inst], logic, memo)

    insts = [inst for rule in _NONINVERTIBLE for inst in rule_instances(rule, s, logic)]
    if not insts:
        # Left K rule, IEL only; reached exactly when the second compartment
        # is variables and K-formulas and the third is atomic.
        inst = next(rule_instances("KL", s, logic), None)
        assert inst is not None, f"active sequent with no applicable rule: {s}"
        insts = [inst]
    return _choose(s, insts, logic, memo)


def _choose(s: Sequent, insts: list[Instantiation], logic: Logic,
            memo: dict[Sequent, _Res]) -> _Res:
    """Decide s by its rule instances: a proof by the first instance whose
    premises are all provable, otherwise the refutation of least depth,
    ties to the first.  A refuted premise refutes s on its own (KL2 adds a
    world below its model), except a rightmost premise of ImpL, ImpR or KR:
    those are glued under a fresh root, and only when every instance's is
    refuted; the Glue candidate comes last."""
    candidates: list[_Res] = []
    glued: list[_Res] = []
    for inst in insts:
        subs = [_search(p, logic, memo) for p in inst.premises]
        if all(x.proof is not None for x in subs):
            return _Res(proof=rule_node(s, inst.rule, tuple(x.proof for x in subs)))
        for i, x in enumerate(subs):
            if x.refutation is None:
                continue
            name = REFUTATIONS[(inst.rule, i)]
            if name in ("Glue", "eGlue"):
                glued.append(x)
            else:
                candidates.append(_Res(refutation=rule_node(s, name, (x.refutation,)),
                                       depth=x.depth + (name == "KL2")))
    if len(glued) == len(insts):
        candidates.append(_Res(
            refutation=rule_node(s, "eGlue" if s.e_flag else "Glue",
                                 tuple(x.refutation for x in glued)),
            depth=1 + max(x.depth for x in glued)))
    return min(candidates, key=lambda r: r.depth)


# ---------------------------------------------------------------------------
# Public procedures
# ---------------------------------------------------------------------------

def piel(s: Sequent, logic: Logic) -> Outcome:
    """Decide a sequent: a proof if it is provable, otherwise a Kripke
    countermodel of minimal depth whose root satisfies it, built from the
    refutation that prove_or_refute returns."""
    res = _search(s, logic, {})
    if res.proof is not None:
        return Proof(res.proof)
    return Countermodel(refutation_model(res.refutation, logic))


def decide(f: Formula, logic: Logic) -> Outcome:
    """Decide a formula: Proof means valid, Countermodel means invalid."""
    return piel(Sequent(delta=frozenset({f})), logic)


def prove_or_refute(s: Sequent, logic: Logic) -> Union[Proof, Refutation]:
    """The combined procedure: a proof of the validity calculus or a
    refutation in the refutational calculus, never both.  Returns a proof
    exactly when piel does; piel's countermodel is this refutation's
    model."""
    res = _search(s, logic, {})
    if res.proof is not None:
        return Proof(res.proof)
    return res.refutation


def prove_or_refute_formula(f: Formula, logic: Logic) -> Union[Proof, Refutation]:
    return prove_or_refute(Sequent(delta=frozenset({f})), logic)
