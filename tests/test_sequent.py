import random

import pytest

from conftest import random_sequent, sequent_dict
from ielprove.formula import BOT, K, Var, parse
from ielprove.rules import liel_flat, riel_axiom
from ielprove.sequent import (
    Logic,
    liel_axiom,
    sequent,
    sequent_from_json,
    sequent_text,
)

a, b, c = Var("a"), Var("b"), Var("c")


class TestLielAxiom:
    def test_eid_on_e_sequent(self):
        assert liel_axiom(sequent([BOT], [a], [a], e=True)) == "eId"

    def test_irr(self):
        assert liel_axiom(sequent([], [BOT, a], [BOT])) == "Irr"

    def test_no_axiom(self):
        assert liel_axiom(sequent([], [a], [b])) is None

    def test_irr_wins_over_id(self):
        assert liel_axiom(sequent([], [BOT, a], [a])) == "Irr"

    def test_theta_is_ignored(self):
        assert liel_axiom(sequent([BOT], [a], [b])) is None


class TestLielFlat:
    def test_e_sequent_with_atomic_compartments(self):
        assert liel_flat(sequent([BOT], [a], [BOT], e=True), Logic.IEL)

    def test_left_k_is_flat_only_without_the_left_k_rule(self):
        s = sequent([], [K(a)], [b])
        assert liel_flat(s, Logic.IEL_MINUS)
        assert not liel_flat(s, Logic.IEL)

    def test_left_k_on_e_sequent_is_never_flat(self):
        s = sequent([], [K(a)], [b], e=True)
        assert not liel_flat(s, Logic.IEL_MINUS)

    def test_compound_left_formula(self):
        assert not liel_flat(sequent([], [parse("a & b")], [c]), Logic.IEL)

    def test_overlap_is_not_flat(self):
        assert not liel_flat(sequent([], [a], [a]), Logic.IEL)


class TestRielAxiom:
    def test_sat(self):
        assert riel_axiom(sequent([], [b], [a]), Logic.IEL) == "Sat"

    def test_bottom_on_left_is_no_axiom(self):
        assert riel_axiom(sequent([], [a, BOT], [], e=True), Logic.IEL) is None

    def test_ksat(self):
        s = sequent([], [K(a)], [b])
        assert riel_axiom(s, Logic.IEL_MINUS) == "kSat"
        assert riel_axiom(s, Logic.IEL) is None

    def test_ksat_not_on_e_sequents(self):
        s = sequent([], [K(a)], [b], e=True)
        assert riel_axiom(s, Logic.IEL_MINUS) is None


class TestClassify:
    def test_bottom_left_is_riel_flat(self):
        # No refutational rule applies to an axiom of the validity calculus.
        s = sequent([], [BOT], [])
        assert liel_axiom(s) is not None
        assert riel_axiom(s, Logic.IEL) is None

    def test_k_right_is_liel_active(self):
        s = sequent([], [a], [K(b)])
        assert liel_axiom(s) is None and not liel_flat(s, Logic.IEL)

    def test_contradictory_k_pair_is_riel_active(self):
        s = sequent([], [K(b), parse("K ~b")], [])
        assert riel_axiom(s, Logic.IEL) is None
        assert liel_axiom(s) is None

    def test_axiom_and_flat_disjoint(self):
        rng = random.Random(42)
        for _ in range(300):
            s = random_sequent(rng)
            for logic in Logic:
                assert not (liel_axiom(s) is not None and liel_flat(s, logic))
                assert not (riel_axiom(s, logic) is not None and liel_axiom(s) is not None)


class TestForms:
    def test_text(self):
        s = sequent([BOT], [a], [BOT], e=True)
        assert sequent_text(s) == "false ; a => false [E]"

    def test_json_roundtrip(self):
        rng = random.Random(7)
        for _ in range(50):
            s = random_sequent(rng)
            assert sequent_from_json(sequent_dict(s)) == s

    def test_json_rejects_bad_flag(self):
        with pytest.raises(ValueError):
            sequent_from_json({"theta": [], "gamma": [], "delta": [], "e": "yes"})
