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
from .rules import Instantiation, ProofTree, axiom_leaf, instantiations, rule_node
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


_STEP3 = ("AndL", "OrR", "eAndL", "eOrR", "eKL", "eKR")
_STEP4 = ("OrL", "AndR", "eOrL", "eAndR")
_STEP5_FIRST = ("ImpR", "KR", "eImpR")
_STEP5_SECOND = ("ImpL", "eImpL")

# Refutational rule naming for the i-th non-rightmost premise of each rule.
_WRAP = {
    "AndL": ("AndL",), "OrR": ("OrR",), "eAndL": ("eAndL",), "eOrR": ("eOrR",),
    "eKL": ("eKL",), "eKR": ("eKR",),
    "OrL": ("OrL1", "OrL2"), "AndR": ("AndR1", "AndR2"),
    "eOrL": ("eOrL1", "eOrL2"), "eAndR": ("eAndR1", "eAndR2"),
    "ImpR": ("ImpR1",), "KR": ("KR1",), "eImpR": ("eImpR1",),
    "ImpL": ("ImpL1", "ImpL2"), "eImpL": ("eImpL1", "eImpL2"),
    "KL": ("KL1",),
}


def _wrap(s: Sequent, rule: str, i: int, child: Refutation) -> Refutation:
    return Refutation(s, _WRAP[rule][i], None, (child,))


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
                    refutation=Refutation(s, None, sat, ()))

    groups: dict[str, list[Instantiation]] = {}
    for inst in instantiations(s, logic):
        groups.setdefault(inst.rule, []).append(inst)

    # Single-premise invertible rules: the recursive result passes through.
    for rule in _STEP3:
        if rule in groups:
            inst = groups[rule][0]
            sub = _search(inst.premises[0], logic, memo)
            if sub.proof is not None:
                return _Res(proof=rule_node(s, rule, (sub.proof,)))
            return _Res(model=sub.model,
                        refutation=_wrap(s, rule, 0, sub.refutation))

    # Two-premise invertible rules: a model of either premise satisfies the
    # conclusion; with two models the shallower one wins (ties to the first).
    for rule in _STEP4:
        if rule in groups:
            inst = groups[rule][0]
            subs = [_search(p, logic, memo) for p in inst.premises]
            if all(sub.proof is not None for sub in subs):
                return _Res(proof=rule_node(s, rule, tuple(x.proof for x in subs)))
            i, sub = min(
                ((i, x) for i, x in enumerate(subs) if x.model is not None),
                key=lambda pair: depth(pair[1].model))
            return _Res(model=sub.model,
                        refutation=_wrap(s, rule, i, sub.refutation))

    # The non-invertible loop.
    step5 = [(rule, inst)
             for block in (_STEP5_FIRST, _STEP5_SECOND)
             for rule in block
             for inst in groups.get(rule, [])]
    if step5:
        inv: list[tuple[KripkeModel, Refutation]] = []
        noninv: list[tuple[KripkeModel, Refutation, bool]] = []
        for rule, inst in step5:
            subs = [_search(p, logic, memo) for p in inst.premises]
            if all(sub.proof is not None for sub in subs):
                return _Res(proof=rule_node(s, rule, tuple(x.proof for x in subs)))
            for i, sub in enumerate(subs[:-1]):
                if sub.model is not None:
                    inv.append((sub.model, _wrap(s, rule, i, sub.refutation)))
            last = subs[-1]
            if last.model is not None:
                noninv.append((last.model, last.refutation, rule == "KR"))

        def glued() -> tuple[KripkeModel, Refutation]:
            model = glue(gamma_vars(s), [m for m, _, _ in noninv], s.e_flag,
                         e_link_roots=[i for i, (_, _, kr) in enumerate(noninv) if kr])
            ref = Refutation(s, "eGlue" if s.e_flag else "Glue", None,
                             tuple(r for _, r, _ in noninv))
            return model, ref

        if not inv:
            assert len(noninv) == len(step5)
            model, ref = glued()
            return _Res(model=model, refutation=ref)
        u_model, u_ref = min(inv, key=lambda pair: depth(pair[0]))
        if len(noninv) < len(step5):
            # Some rightmost premise was provable; no glue candidate exists.
            return _Res(model=u_model, refutation=u_ref)
        m_model, m_ref = glued()
        if depth(m_model) < depth(u_model):
            return _Res(model=m_model, refutation=m_ref)
        return _Res(model=u_model, refutation=u_ref)

    # Left K rule, IEL only; reached exactly when the second compartment is
    # variables and K-formulas and the third is atomic.
    insts = groups.get("KL")
    assert insts, f"active sequent with no applicable rule: {s}"
    inst = insts[0]
    u1 = _search(inst.premises[0], logic, memo)
    u2 = _search(inst.premises[1], logic, memo)
    if u1.proof is not None and u2.proof is not None:
        return _Res(proof=rule_node(s, "KL", (u1.proof, u2.proof)))
    if u1.model is not None and u2.proof is None:
        # Both premises have models; compare the direct model against the
        # glued one (ties to the first computed).
        m_model = glue_kl(gamma_vars(s), u2.model)
        if depth(u1.model) <= depth(m_model):
            return _Res(model=u1.model, refutation=_wrap(s, "KL", 0, u1.refutation))
        return _Res(model=m_model,
                    refutation=Refutation(s, "KL2", None, (u2.refutation,)))
    if u1.model is not None:
        return _Res(model=u1.model, refutation=_wrap(s, "KL", 0, u1.refutation))
    m_model = glue_kl(gamma_vars(s), u2.model)
    return _Res(model=m_model, refutation=Refutation(s, "KL2", None, (u2.refutation,)))


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
