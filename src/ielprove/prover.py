"""Decision procedures for IEL and IEL-.

One recursive search drives both certificate styles: a proof of the
validity calculus when the sequent is provable, otherwise a countermodel of
minimal depth together with the refutation of the branch that produced it.
The search handles invertible rules first, then loops over the
implication/K-right rules collecting models of rightmost premises (glued
under a fresh root) and models of the remaining premises (which satisfy the
conclusion directly), and finally falls back to the left K rule under IEL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .formula import Formula
from .kripke import KripkeModel, depth, glue, glue_kl, single_world
from .refuter import Refutation
from .rules import REFUTATIONS, Instantiation, ProofTree, axiom_leaf, rule_instances, rule_node
from .sequent import (
    Logic,
    Sequent,
    gamma_vars,
    liel_axiom,
    liel_flat,
    riel_axiom,
)


@dataclass(frozen=True)
class Proof:
    tree: ProofTree


@dataclass
class Countermodel:
    model: KripkeModel


Outcome = Union[Proof, Countermodel]


@dataclass
class _Res:
    proof: Optional[ProofTree] = None
    model: Optional[KripkeModel] = None
    refutation: Optional[Refutation] = None


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
    assert (res.proof is not None) != (res.model is not None)
    memo[s] = res
    return res


def _step(s: Sequent, logic: Logic, memo: dict[Sequent, _Res]) -> _Res:
    name = liel_axiom(s)
    if name is not None:
        return _Res(proof=axiom_leaf(s, name))
    if liel_flat(s, logic):
        reflexive = logic is Logic.IEL or s.e_flag
        sat = riel_axiom(s, logic)
        assert sat is not None
        return _Res(model=single_world(gamma_vars(s), reflexive),
                    refutation=axiom_leaf(s, sat))

    # Invertible rules, single-premise ones first.
    for rule in _INVERTIBLE:
        inst = next(rule_instances(rule, s, logic), None)
        if inst is not None:
            return _each_premise(s, inst, logic, memo)

    # The non-invertible loop.
    insts = [inst for rule in _NONINVERTIBLE for inst in rule_instances(rule, s, logic)]
    if insts:
        inv: list[tuple[KripkeModel, Refutation]] = []
        noninv: list[tuple[KripkeModel, Refutation, bool]] = []
        for inst in insts:
            subs = [_search(p, logic, memo) for p in inst.premises]
            if all(sub.proof is not None for sub in subs):
                return _Res(proof=rule_node(s, inst.rule, tuple(x.proof for x in subs)))
            for i, sub in enumerate(subs[:-1]):
                if sub.model is not None:
                    name = REFUTATIONS[(inst.rule, i)]
                    inv.append((sub.model, rule_node(s, name, (sub.refutation,))))
            last = subs[-1]
            if last.model is not None:
                noninv.append((last.model, last.refutation, inst.rule == "KR"))

        def glued() -> tuple[KripkeModel, Refutation]:
            model = glue(gamma_vars(s), [m for m, _, _ in noninv], s.e_flag,
                         e_link_roots=[i for i, (_, _, kr) in enumerate(noninv) if kr])
            ref = rule_node(s, "eGlue" if s.e_flag else "Glue",
                            tuple(r for _, r, _ in noninv))
            return model, ref

        if not inv:
            assert len(noninv) == len(insts)
            model, ref = glued()
            return _Res(model=model, refutation=ref)
        u_model, u_ref = min(inv, key=lambda pair: depth(pair[0]))
        if len(noninv) < len(insts):
            # Some rightmost premise was provable; no glue candidate exists.
            return _Res(model=u_model, refutation=u_ref)
        m_model, m_ref = glued()
        if depth(m_model) < depth(u_model):
            return _Res(model=m_model, refutation=m_ref)
        return _Res(model=u_model, refutation=u_ref)

    # Left K rule, IEL only; reached exactly when the second compartment is
    # variables and K-formulas and the third is atomic.
    inst = next(rule_instances("KL", s, logic), None)
    assert inst is not None, f"active sequent with no applicable rule: {s}"
    return _each_premise(s, inst, logic, memo)


def _each_premise(s: Sequent, inst: Instantiation, logic: Logic,
                  memo: dict[Sequent, _Res]) -> _Res:
    """Decide s by a rule instance each of whose premises refutes s on its
    own: a proof if every premise is provable, otherwise the shallowest
    model of the conclusion (ties to the first premise).  A model of a
    premise satisfies the conclusion directly, except that a model of KL's
    second premise is first glued under a fresh root."""
    subs = [_search(p, logic, memo) for p in inst.premises]
    if all(x.proof is not None for x in subs):
        return _Res(proof=rule_node(s, inst.rule, tuple(x.proof for x in subs)))
    refuted = []
    for i, x in enumerate(subs):
        if x.model is not None:
            name = REFUTATIONS[(inst.rule, i)]
            model = glue_kl(gamma_vars(s), x.model) if name == "KL2" else x.model
            refuted.append(_Res(model=model, refutation=rule_node(s, name, (x.refutation,))))
    return min(refuted, key=lambda r: depth(r.model))


# ---------------------------------------------------------------------------
# Public procedures
# ---------------------------------------------------------------------------

def piel(s: Sequent, logic: Logic) -> Outcome:
    """Decide a sequent: a proof if it is provable, otherwise a Kripke
    countermodel of minimal depth whose root satisfies it."""
    res = _search(s, logic, {})
    if res.proof is not None:
        return Proof(res.proof)
    return Countermodel(res.model)


def decide(f: Formula, logic: Logic) -> Outcome:
    """Decide a formula: Proof means valid, Countermodel means invalid."""
    return piel(Sequent(delta=frozenset({f})), logic)


def prove_or_refute(s: Sequent, logic: Logic) -> Union[Proof, Refutation]:
    """The combined procedure: a proof of the validity calculus or a
    refutation in the refutational calculus, never both.  Returns a proof
    exactly when piel does; the refutation follows the branch that produced
    piel's countermodel."""
    res = _search(s, logic, {})
    if res.proof is not None:
        return Proof(res.proof)
    return res.refutation


def prove_or_refute_formula(f: Formula, logic: Logic) -> Union[Proof, Refutation]:
    return prove_or_refute(Sequent(delta=frozenset({f})), logic)
