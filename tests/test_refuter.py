import random

import pytest

from conftest import random_sequent
from ielprove.formula import BOT, Bottom, Imp, K, Var, parse
from ielprove.kripke import check_frame, forces, satisfies, single_world
from ielprove.oracle import enumerate_models, random_formulas
from ielprove.prover import Proof, decide, prove_or_refute, prove_or_refute_formula
from ielprove.refuter import (
    Refutation,
    check_refutation,
    extract_model,
    glue_premises,
    refutation_from_json,
    refutation_model,
    refutation_to_json,
)
from ielprove.rules import Defect
from ielprove.sequent import Logic, Sequent, liel_axiom, sequent, sequent_text

a, b = Var("a"), Var("b")


def _classical_reflection_refutation() -> Refutation:
    leaf = Refutation(sequent([BOT], [a], [BOT], e=True), None, "eSat", ())
    kl2 = Refutation(sequent([], [K(a)], [a]), "KL2", None, (leaf,))
    return Refutation(sequent([], [], [parse("K a -> a")]), "ImpR1", None, (kl2,))


class TestProveOrRefute:
    def test_classical_reflection_refutation_shape(self):
        out = prove_or_refute_formula(parse("K a -> a"), Logic.IEL)
        assert out == _classical_reflection_refutation()

    def test_distribution_axiom_proved(self):
        out = prove_or_refute_formula(parse("K(a -> b) -> (K a -> K b)"), Logic.IEL)
        assert isinstance(out, Proof)

    def test_k_disjunction_glue(self):
        out = prove_or_refute_formula(parse("K(a | b) -> (K a | K b)"), Logic.IEL)
        assert isinstance(out, Refutation)
        node = out
        while node.rule != "Glue":
            node = node.children[0]
        assert len(node.children) == 2
        assert {c.rule for c in node.children} == {"OrL1", "OrL2"}

    def test_coherence_with_piel(self, corpus_records):
        for _, logic, f in corpus_records:
            s = Sequent(delta=frozenset({f}))
            assert (isinstance(prove_or_refute(s, logic), Proof)
                    == isinstance(decide(f, logic), Proof))

    def test_every_refutation_checks(self):
        for f in random_formulas(120, seed=5150):
            for logic in Logic:
                out = prove_or_refute_formula(f, logic)
                if isinstance(out, Refutation):
                    assert check_refutation(out, logic) == []


class TestCheckRefutation:
    def test_classical_reflection_checks(self):
        assert check_refutation(_classical_reflection_refutation(), Logic.IEL) == []

    def test_empty_glue_rejected(self):
        s = sequent([], [K(b), parse("K ~b")], [])
        t = Refutation(s, "Glue", None, ())
        assert any(d.kind == "EmptyGlue" for d in check_refutation(t, Logic.IEL))

    def test_empty_glue_sequent_unsatisfiable(self):
        # The zero-premise Glue above would certify a sequent no IEL model
        # satisfies: seriality yields an E-successor forcing both b and ~b.
        s = sequent([], [K(b), parse("K ~b")], [])
        for m in enumerate_models(frozenset({"b"}), 3, Logic.IEL):
            assert not any(satisfies(m, w, s) for w in m.worlds)

    def test_proviso_violation(self):
        s = sequent([], [BOT, parse("a -> b")], [Var("c")])
        t = Refutation(s, "ImpL1", None, (
            Refutation(sequent([], [BOT, b], [Var("c")]), None, "Sat", ()),))
        assert any(d.kind == "ProvisoViolation" for d in check_refutation(t, Logic.IEL))

    def test_kl2_needs_atomic_delta(self):
        s = sequent([], [K(a)], [parse("b -> b")])
        t = Refutation(s, "KL2", None, (
            Refutation(sequent([BOT], [a], [BOT], e=True), None, "eSat", ()),))
        assert any(d.kind == "ProvisoViolation" for d in check_refutation(t, Logic.IEL))

    def test_left_k_rules_unavailable_without_reflection(self):
        t = _classical_reflection_refutation()
        assert any(d.kind == "BadRule" for d in check_refutation(t, Logic.IEL_MINUS))

    def test_ksat_leaf_only_under_iel_minus(self):
        leaf = Refutation(sequent([], [K(a)], [b]), None, "kSat", ())
        assert check_refutation(leaf, Logic.IEL_MINUS) == []
        assert any(d.kind == "BadAxiom" for d in check_refutation(leaf, Logic.IEL))

    def test_non_axiom_leaf(self):
        leaf = Refutation(sequent([], [parse("a & b")], []), None, None, ())
        assert [d.kind for d in check_refutation(leaf, Logic.IEL)] == ["NonAxiomLeaf"]

    def test_glue_premises_must_match_exactly(self):
        s = sequent([], [parse("a -> b")], [Var("c")])
        premises = glue_premises(s, Logic.IEL)
        assert len(premises) == 1
        t = Refutation(s, "Glue", None, (
            Refutation(premises[0], None, "Sat", ()),
            Refutation(premises[0], None, "Sat", ()),
        ))
        assert any(d.kind == "BadInstantiation" for d in check_refutation(t, Logic.IEL))


def _glue_node(rule: str, s: Sequent, logic: Logic) -> Refutation:
    """A Glue or eGlue node on s over exactly its Glue premises, as Sat
    leaves."""
    return Refutation(s, rule, None, tuple(
        Refutation(p, None, "Sat", ()) for p in glue_premises(s, logic)))


def _shape_allows_glue(s: Sequent) -> bool:
    """The Glue side condition written as formula shapes: only variables,
    implications and (on plain sequents) K-formulas on the left; the same
    or falsum on the right."""
    left = (Var, Imp) if s.e_flag else (Var, Imp, K)
    return (all(isinstance(f, left) for f in s.gamma)
            and all(isinstance(f, (*left, Bottom)) for f in s.delta))


@pytest.mark.parametrize("logic", list(Logic))
class TestGlueSideCondition:
    """Glue and eGlue fire only where no invertible rule has an instance
    and the E-flag matches."""

    def _first_defect(self, rule, s, logic):
        defects = check_refutation(_glue_node(rule, s, logic), logic)
        return defects[0] if defects else None

    def test_rejected_where_and_left_applies(self, logic):
        s = sequent([], [parse("a & b")], [parse("c -> d")])
        assert (self._first_defect("Glue", s, logic)
                == Defect("BadInstantiation", f"Glue on {sequent_text(s)}"))

    def test_rejected_where_e_k_left_applies(self, logic):
        s = sequent([], [parse("K a"), parse("b -> c")], [parse("d")], e=True)
        assert (self._first_defect("eGlue", s, logic)
                == Defect("BadInstantiation", f"eGlue on {sequent_text(s)}"))

    def test_e_flag_must_match(self, logic):
        s = sequent([], [parse("b -> c")], [parse("d")], e=True)
        assert (self._first_defect("Glue", s, logic)
                == Defect("BadInstantiation", f"Glue on {sequent_text(s)}"))
        assert self._first_defect("eGlue", s, logic) is None

    def test_same_verdict_as_the_shape_test(self, logic):
        rng = random.Random(9090)
        verdicts = set()
        for _ in range(3000):
            s = random_sequent(rng)
            if liel_axiom(s) is not None:
                continue
            rule = "eGlue" if s.e_flag else "Glue"
            rejected = (self._first_defect(rule, s, logic)
                        == Defect("BadInstantiation", f"{rule} on {sequent_text(s)}"))
            assert rejected != _shape_allows_glue(s), sequent_text(s)
            verdicts.add(rejected)
        assert verdicts == {True, False}


class TestExtractModel:
    def test_classical_reflection(self, classical_reflection_model):
        m = extract_model(_classical_reflection_refutation(), Logic.IEL)
        assert m == classical_reflection_model
        assert not forces(m, m.root, parse("K a -> a"))

    def test_esat_leaf(self):
        t = Refutation(sequent([], [a], [b], e=True), None, "eSat", ())
        assert extract_model(t, Logic.IEL) == single_world(["a"], e_reflexive=True)

    def test_ksat_leaf(self):
        t = Refutation(sequent([], [K(a)], [b]), None, "kSat", ())
        m = extract_model(t, Logic.IEL_MINUS)
        assert m == single_world([], e_reflexive=False)
        assert forces(m, 0, K(a))

    def test_sat_leaf_serial_under_iel(self):
        t = Refutation(sequent([], [a], [b]), None, "Sat", ())
        assert extract_model(t, Logic.IEL) == single_world(["a"], e_reflexive=True)

    def test_long_pass_through_chain_without_recursion(self):
        s = sequent([], [a], [b])
        t = Refutation(s, None, "Sat", ())
        for _ in range(3000):
            t = Refutation(s, "AndL", None, (t,))
        assert refutation_model(t, Logic.IEL) == single_world(["a"], e_reflexive=True)

    def test_invalid_refutation_rejected(self):
        t = Refutation(sequent([], [parse("a & b")], []), None, None, ())
        with pytest.raises(ValueError):
            extract_model(t, Logic.IEL)

    def test_extracted_models_refute(self, corpus_records):
        for valid, logic, f in corpus_records:
            if valid:
                continue
            out = prove_or_refute_formula(f, logic)
            m = extract_model(out, logic)
            assert check_frame(m, logic) == []
            assert not forces(m, m.root, f)


class TestForms:
    def test_json_roundtrip_and_tag(self):
        t = _classical_reflection_refutation()
        obj = refutation_to_json(t)
        assert obj["calculus"] == "riel"
        assert refutation_from_json(obj) == t

    def test_json_rejects_liel_rule(self):
        obj = refutation_to_json(_classical_reflection_refutation())
        obj["rule"] = "ImpR"
        with pytest.raises(ValueError):
            refutation_from_json(obj)
