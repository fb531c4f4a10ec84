"""The invariants the search and its memo table lean on: stored formula hashes,
stored sequent sizes, the premise-shrink check in instantiations, and the
model depth carried next to each refutation."""

import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import formulas
from ielprove import rules
from ielprove.formula import And, Bottom, Imp, K, Or, Var, parse, render
from ielprove.kripke import depth
from ielprove.oracle import random_formulas
from ielprove.prover import _search, piel
from ielprove.refuter import refutation_model
from ielprove.rules import instantiations
from ielprove.sequent import Calculus, Logic, Sequent, classify, sequent


def _count(f) -> int:
    """Connective count by a fresh walk over the tree."""
    if isinstance(f, (Var, Bottom)):
        return 0
    if isinstance(f, K):
        return 1 + _count(f.body)
    assert isinstance(f, (And, Or, Imp))
    return 1 + _count(f.left) + _count(f.right)


def _recomputed_size(s: Sequent) -> int:
    return sum(_count(f) for part in (s.theta, s.gamma, s.delta) for f in part)


sequents = st.builds(
    sequent,
    st.frozensets(formulas, max_size=2),
    st.frozensets(formulas, max_size=3),
    st.frozensets(formulas, max_size=3),
    st.booleans(),
)


class TestSequentSize:
    @given(sequents)
    def test_size_is_the_connective_sum(self, s):
        assert s.size == _recomputed_size(s)

    @given(sequents, st.sampled_from(list(Logic)))
    def test_premise_sizes_are_the_connective_sum(self, s, logic):
        if not classify(s, Calculus.LIEL, logic).is_active:
            return
        for inst in instantiations(s, logic):
            for p in inst.premises:
                assert p.size == _recomputed_size(p)
                assert p.size < s.size

    def test_size_does_not_affect_equality(self):
        s = sequent([], [K(Var("a"))], [Var("a")])
        assert s == Sequent(s.theta, s.gamma, s.delta, s.e_flag)
        assert "size" not in repr(s)


class TestFormulaHash:
    @given(formulas)
    def test_separately_parsed_formulas_hash_equal(self, f):
        g, h = parse(render(f)), parse(render(f))
        assert g == h and hash(g) == hash(h) == hash(f)

    def test_deep_chain_hashes_without_recursion(self):
        f = Var("a")
        for _ in range(5000):
            f = K(f)
        assert isinstance(hash(f), int)
        assert hash(f) != hash(K(f))
        assert f in {f}

    def test_shape_and_children_both_matter(self):
        a, b = Var("a"), Var("b")
        shapes = [And(a, b), Or(a, b), Imp(a, b), And(b, a), K(a), a]
        assert len({hash(f) for f in shapes}) == len(shapes)


class TestCarriedDepth:
    def test_memo_depths_match_the_models(self):
        deep = parse("K c | (K c -> K b | (K b -> K a | ~K a))")  # depth 4
        refuted = 0
        for f in [deep, *random_formulas(60, seed=77)]:
            for logic in Logic:
                memo = {}
                _search(Sequent(delta=frozenset({f})), logic, memo)
                for s, res in memo.items():
                    if res.refutation is not None:
                        refuted += 1
                        model = refutation_model(res.refutation, logic)
                        assert res.depth == depth(model), (render(f), s)
        assert refuted > 500


class TestShrinkCheck:
    def test_non_shrinking_premise_is_rejected(self, monkeypatch):
        s = sequent([], [], [parse("a -> b")])

        def stuck(s):
            yield tuple(s.delta), (s,)

        monkeypatch.setitem(rules.RULE_TABLE, "ImpR", stuck)
        with pytest.raises(AssertionError, match="premise failed to shrink"):
            instantiations(s, Logic.IEL)
        with pytest.raises(AssertionError, match="premise failed to shrink"):
            piel(s, Logic.IEL)

    def test_check_survives_optimised_mode(self):
        code = (
            "from ielprove import rules\n"
            "from ielprove.formula import parse\n"
            "from ielprove.sequent import Logic, sequent\n"
            "s = sequent([], [], [parse('a -> b')])\n"
            "rules.RULE_TABLE['ImpR'] = lambda s: iter([((), (s,))])\n"
            "try:\n"
            "    rules.instantiations(s, Logic.IEL)\n"
            "except AssertionError:\n"
            "    print('rejected')\n"
        )
        run = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True)
        assert run.stdout.strip() == "rejected", run.stderr
