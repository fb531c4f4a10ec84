import random

import pytest

from conftest import random_sequent
from ielprove.formula import BOT, K, Var, parse
from ielprove.kripke import satisfies
from ielprove.oracle import enumerate_models
from ielprove.rules import (
    Derivation,
    axiom_leaf,
    RULES,
    check_proof,
    liel_flat,
    proof_from_json,
    proof_to_json,
    rule_instances,
    rule_node,
)
from ielprove.sequent import Logic, liel_axiom, sequent

a, b = Var("a"), Var("b")


def instantiations(s, logic):
    """Every rule instantiation on s, in canonical order."""
    return [inst for rule in RULES for inst in rule_instances(rule, s, logic)]


class TestInstantiations:
    def test_imp_right_with_coinciding_premises(self):
        s = sequent([], [], [parse("K a -> a")])
        insts = instantiations(s, Logic.IEL)
        assert len(insts) == 1
        inst = insts[0]
        assert inst.rule == "ImpR"
        assert inst.premises == (sequent([], [K(a)], [a]), sequent([], [K(a)], [a]))

    def test_left_k(self):
        s = sequent([], [K(a)], [a])
        insts = instantiations(s, Logic.IEL)
        assert len(insts) == 1
        inst = insts[0]
        assert inst.rule == "KL"
        assert inst.premises == (
            sequent([BOT], [a], [a], e=True),
            sequent([BOT], [a], [BOT], e=True),
        )

    def test_two_right_k_targets(self):
        s = sequent([], [parse("K(a | b)")], [K(a), K(b)])
        insts = instantiations(s, Logic.IEL)
        kr = [i for i in insts if i.rule == "KR"]
        assert len(kr) == 2
        # Canonical order: target K a first; all left K-formulas extracted.
        assert kr[0].premises[0] == sequent([], [parse("a | b")], [a, K(b)], e=True)
        assert kr[0].premises[1] == sequent([], [parse("a | b")], [a])

    def test_no_left_k_without_reflection(self):
        s = sequent([], [K(a), parse("a & b")], [])
        rules = {i.rule for i in instantiations(s, Logic.IEL_MINUS)}
        assert "KL" not in rules
        assert "AndL" in rules

    def test_premises_shrink(self):
        rng = random.Random(13)
        for _ in range(300):
            s = random_sequent(rng)
            for logic in Logic:
                if liel_axiom(s) is None and not liel_flat(s, logic):
                    for inst in instantiations(s, logic):
                        for p in inst.premises:
                            assert p.size < s.size

    def test_active_sequents_have_instantiations(self):
        rng = random.Random(17)
        for _ in range(400):
            s = random_sequent(rng)
            for logic in Logic:
                if liel_axiom(s) is None and not liel_flat(s, logic):
                    assert instantiations(s, logic)

    def test_rule_correctness_on_small_models(self):
        # A world satisfying the conclusion satisfies a premise of every
        # instantiation, possibly at another world of the same model.
        rng = random.Random(19)
        pool = list(enumerate_models(frozenset({"a", "b"}), 2, Logic.IEL))
        checked = 0
        while checked < 60:
            s = random_sequent(rng, max_connectives=3)
            if liel_axiom(s) is not None or liel_flat(s, Logic.IEL):
                continue
            witnesses = [(m, w) for m in pool for w in m.worlds if satisfies(m, w, s)]
            if not witnesses:
                continue
            checked += 1
            for m, w in witnesses[:4]:
                for inst in instantiations(s, Logic.IEL):
                    assert any(satisfies(m, v, p)
                               for p in inst.premises for v in m.worlds)


def _ax2_proof() -> Derivation:
    """Hand-built proof of K(a -> b) -> (K a -> K b)."""
    imp = parse("a -> b")
    s3e = sequent([], [a, imp], [b], e=True)
    s3 = sequent([], [a, imp], [b])
    ded_e = rule_node(s3e, "eImpL", (
        axiom_leaf(sequent([], [a, b], [b], e=True), "eId"),
        axiom_leaf(sequent([b], [a], [a, b], e=True), "eId"),
        axiom_leaf(sequent([b], [a], [a]), "Id"),
    ))
    ded = rule_node(s3, "ImpL", (
        axiom_leaf(sequent([], [a, b], [b]), "Id"),
        axiom_leaf(sequent([b], [a], [a, b]), "Id"),
        axiom_leaf(sequent([b], [a], [a]), "Id"),
    ))
    s2 = sequent([], [parse("K(a -> b)"), K(a)], [K(b)])
    kr = rule_node(s2, "KR", (ded_e, ded))
    s1 = sequent([], [parse("K(a -> b)")], [parse("K a -> K b")])
    n1 = rule_node(s1, "ImpR", (kr, kr))
    s0 = sequent([], [], [parse("K(a -> b) -> (K a -> K b)")])
    return rule_node(s0, "ImpR", (n1, n1))


class TestCheckProof:
    def test_distribution_axiom_proof(self):
        assert check_proof(_ax2_proof(), Logic.IEL) == []

    def test_non_axiom_leaf(self):
        t = _ax2_proof()
        bad = Derivation(t.sequent, t.rule, None, (
            axiom_leaf(sequent([], [a], [b]), "Id"),
            t.children[1],
        ))
        kinds = {d.kind for d in check_proof(bad, Logic.IEL)}
        assert "BadAxiom" in kinds or "BadInstantiation" in kinds

    def test_missing_axiom_name(self):
        t = Derivation(sequent([], [a], [a]), None, None, ())
        assert [d.kind for d in check_proof(t, Logic.IEL)] == ["NonAxiomLeaf"]

    def test_wrong_rule(self):
        s = sequent([], [], [parse("K a -> a")])
        t = rule_node(s, "KR", (axiom_leaf(sequent([], [K(a)], [a]), "Id"),))
        assert any(d.kind == "BadInstantiation" for d in check_proof(t, Logic.IEL))

    def test_left_k_rejected_without_reflection(self):
        s = sequent([], [K(a)], [a])
        t = rule_node(s, "KL", (
            axiom_leaf(sequent([BOT], [a], [a], e=True), "eId"),
            axiom_leaf(sequent([BOT], [a], [BOT], e=True), "eIrr"),
        ))
        # Under IEL- the sequent is terminal (flat), so the node is rejected.
        assert check_proof(t, Logic.IEL_MINUS)

    def test_rule_on_terminal(self):
        s = sequent([], [parse("a & b"), a], [a])  # Id axiom, rule applied anyway
        t = rule_node(s, "AndL", (
            axiom_leaf(sequent([], [a, b], [a]), "Id"),))
        assert any(d.kind == "RuleOnTerminal" for d in check_proof(t, Logic.IEL))

    def test_subformula_property_violation(self):
        s = sequent([], [], [parse("a -> a")])
        t = rule_node(s, "ImpR", (
            axiom_leaf(sequent([], [a], [a]), "Id"),
            axiom_leaf(sequent([], [a, b], [a]), "Id"),
        ))
        kinds = {d.kind for d in check_proof(t, Logic.IEL)}
        assert "Subformula" in kinds

    def test_json_roundtrip(self):
        t = _ax2_proof()
        assert proof_from_json(proof_to_json(t)) == t

    def test_json_rejects_unknown_rule(self):
        obj = proof_to_json(_ax2_proof())
        obj["rule"] = "Cut"
        with pytest.raises(ValueError):
            proof_from_json(obj)
