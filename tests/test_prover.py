import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from ielprove.formula import K, Var, parse, render
from ielprove.kripke import check_frame, depth, model_to_json, satisfies, single_world
from ielprove.oracle import random_formulas
from ielprove.prover import (
    Countermodel,
    Proof,
    decide,
    piel,
    prove_or_refute,
    prove_or_refute_formula,
)
from ielprove.refuter import extract_model, refutation_to_json
from ielprove.rules import check_proof, derivation_depth, proof_to_json, sequent_connectives
from ielprove.sequent import Logic, Sequent, sequent

a = Var("a")

GOLDEN = Path(__file__).resolve().parent / "golden" / "certificates.json"


def _sha(obj: dict) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def golden_text() -> str:
    """Verdict, countermodel depth and certificate digests for 80 seeded
    random formulas under both logics, one entry per (formula, logic)."""
    entries = []
    for f in random_formulas(80, seed=31337):
        for logic in Logic:
            out = decide(f, logic)
            entry = {"formula": render(f), "logic": logic.value}
            if isinstance(out, Proof):
                entry.update(verdict="valid", depth=None, proof=_sha(proof_to_json(out.tree)))
            else:
                refutation = prove_or_refute_formula(f, logic)
                entry.update(verdict="invalid", depth=depth(out.model),
                             model=_sha(model_to_json(out.model)),
                             refutation=_sha(refutation_to_json(refutation)))
            entries.append(entry)
    return json.dumps(entries, indent=1, sort_keys=True) + "\n"


def _countermodel(text: str, logic: Logic):
    out = decide(parse(text), logic)
    assert isinstance(out, Countermodel), f"{text} unexpectedly valid"
    return out.model


class TestKnownStatuses:
    @pytest.mark.parametrize("text", [
        "a -> K a",
        "K(a -> b) -> (K a -> K b)",
        "K a -> ~~a",
        "~~(K a -> a)",
    ])
    def test_valid_in_iel(self, text):
        assert isinstance(decide(parse(text), Logic.IEL), Proof)

    @pytest.mark.parametrize("text", ["K a -> a", "K a", "K(a | b) -> (K a | K b)"])
    def test_invalid_in_iel(self, text):
        assert isinstance(decide(parse(text), Logic.IEL), Countermodel)

    def test_corpus(self, corpus_records):
        for valid, logic, f in corpus_records:
            assert isinstance(decide(f, logic), Proof) == valid, render(f)


class TestCountermodelShapes:
    def test_classical_reflection(self, classical_reflection_model):
        m = _countermodel("K a -> a", Logic.IEL)
        assert m == classical_reflection_model
        assert depth(m) == 2

    def test_bare_k(self):
        m = _countermodel("K a", Logic.IEL)
        assert m == single_world([], e_reflexive=True)
        assert depth(m) == 1

    def test_k_disjunction_distribution(self):
        m = _countermodel("K(a | b) -> (K a | K b)", Logic.IEL)
        assert len(m.worlds) == 3
        assert depth(m) == 2

    def test_intuitionistic_reflection_without_seriality(self):
        m = _countermodel("K a -> ~~a", Logic.IEL_MINUS)
        assert m == single_world([], e_reflexive=False)
        assert m.e_rel == frozenset()


class TestSeparation:
    def test_reflection_separates_the_logics(self):
        f = parse("K a -> ~~a")
        assert isinstance(decide(f, Logic.IEL), Proof)
        assert isinstance(decide(f, Logic.IEL_MINUS), Countermodel)

    def test_distribution_holds_in_both(self):
        f = parse("K(a -> b) -> (K a -> K b)")
        assert isinstance(decide(f, Logic.IEL_MINUS), Proof)


class TestCertificates:
    def test_outcomes_verified(self, corpus_records):
        for _, logic, f in corpus_records:
            out = decide(f, logic)
            if isinstance(out, Proof):
                assert check_proof(out.tree, logic) == []
                assert derivation_depth(out.tree) <= sequent_connectives(out.tree.sequent)
            else:
                m = out.model
                assert check_frame(m, logic) == []
                assert satisfies(m, m.root, Sequent(delta=frozenset({f})))

    def test_random_outcomes_verified(self):
        for f in random_formulas(120, seed=2024):
            for logic in Logic:
                out = decide(f, logic)
                if isinstance(out, Proof):
                    assert check_proof(out.tree, logic) == []
                else:
                    m = out.model
                    assert check_frame(m, logic) == []
                    assert satisfies(m, m.root, Sequent(delta=frozenset({f})))

    def test_piel_on_sequents(self):
        s = sequent([], [K(a)], [a])
        out = piel(s, Logic.IEL)
        assert isinstance(out, Countermodel)
        assert satisfies(out.model, out.model.root, s)


class TestOneModelPerRefutation:
    """piel's countermodel is the model of prove_or_refute's refutation."""

    @staticmethod
    def _same_model(s: Sequent):
        for logic in Logic:
            out = piel(s, logic)
            if isinstance(out, Countermodel):
                assert out.model == extract_model(prove_or_refute(s, logic), logic)

    def test_impr_and_kr_share_a_rightmost_premise(self):
        # An ImpR and a KR instance share their rightmost premise; the KR
        # E-link from the glued root to that premise's model must be kept.
        s = sequent([K(a), a], [parse("a -> K b")],
                    [parse("K a -> b"), parse("K b"), parse("K b -> b")])
        for logic in Logic:
            assert isinstance(piel(s, logic), Countermodel)
        self._same_model(s)

    def test_golden_formulas(self):
        for f in random_formulas(80, seed=31337):
            self._same_model(Sequent(delta=frozenset({f})))


class TestGoldenCertificates:
    def test_reproduces_golden_file(self):
        assert golden_text() == GOLDEN.read_text(encoding="utf-8")


class TestLogicRelations:
    def test_monotonicity(self):
        for f in random_formulas(150, seed=404):
            if isinstance(decide(f, Logic.IEL_MINUS), Proof):
                assert isinstance(decide(f, Logic.IEL), Proof), render(f)

    def test_k_free_agreement(self):
        rng = random.Random(8)
        count = 0
        for f in random_formulas(400, seed=88):
            if any(isinstance(g, K) for g in _walk(f)):
                continue
            count += 1
            assert (isinstance(decide(f, Logic.IEL), Proof)
                    == isinstance(decide(f, Logic.IEL_MINUS), Proof))
        assert count > 30

    @pytest.mark.parametrize("text,valid", [
        ("p -> p", True),
        ("~~(p | ~p)", True),
        ("p | ~p", False),
        ("((p -> q) -> p) -> p", False),
    ])
    def test_intuitionistic_statuses(self, text, valid):
        for logic in Logic:
            assert isinstance(decide(parse(text), logic), Proof) == valid


def _walk(f):
    yield f
    for attr in ("left", "right", "body"):
        sub = getattr(f, attr, None)
        if sub is not None:
            yield from _walk(sub)


if __name__ == "__main__":
    # Re-record the golden file: python tests/test_prover.py --record
    if sys.argv[1:] == ["--record"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(golden_text(), encoding="utf-8")
