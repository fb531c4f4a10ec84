"""The invariants the search and its memo table lean on: stored formula hashes,
stored sequent sizes, the premise-shrink check in rule_instances, the model
depth carried next to each refutation, a rule instance on every sequent
that is neither an axiom nor flat, and the one principal pass (principals,
expansion) against per-rule references."""

import gc
import subprocess
import sys
import weakref

import pytest
from hypothesis import example, given, strategies as st

from conftest import formulas
from ielprove import rules
from ielprove.formula import And, Bottom, Imp, K, Or, Var, parse, render, subformulas
from ielprove.kripke import depth
from ielprove.oracle import random_formulas
from ielprove.prover import _search, decide, outcome_defect, piel
from ielprove.refuter import refutation_model
from ielprove.rules import (
    INVERTIBLE,
    NONINVERTIBLE,
    RULE_TABLE,
    RULES,
    expansion,
    liel_flat,
    principals,
    rule_instances,
)
from ielprove.sequent import Logic, Sequent, liel_axiom, sequent


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
        if liel_axiom(s) is not None or liel_flat(s, logic):
            return
        for inst in (i for rule in RULES for i in rule_instances(rule, s, logic)):
            for p in inst.premises:
                assert p.size == _recomputed_size(p)
                assert p.size < s.size

    def test_size_does_not_affect_equality(self):
        s = sequent([], [K(Var("a"))], [Var("a")])
        assert s == Sequent(s.theta, s.gamma, s.delta, s.e_flag)
        assert "size" not in repr(s)


def _fires(rule: str, s: Sequent, logic: Logic) -> bool:
    return rule.startswith("e") == s.e_flag and (rule != "KL" or logic is Logic.IEL)


def _reference_expansion(s: Sequent, logic: Logic) -> list:
    """The search's rule order probed rule by rule: the first instance of
    the first invertible rule that has one, else every non-invertible
    instance, else the first instance of KL."""
    for rule in INVERTIBLE:
        inst = next(rule_instances(rule, s, logic), None)
        if inst is not None:
            return [inst]
    insts = [inst for rule in NONINVERTIBLE for inst in rule_instances(rule, s, logic)]
    return insts or list(rule_instances("KL", s, logic))[:1]


class TestFlatMeansNoRule:
    @given(sequents)
    def test_flat_exactly_when_no_axiom_and_no_instance(self, s):
        for logic in Logic:
            no_instance = all(next(rule_instances(rule, s, logic), None) is None
                              for rule in RULES)
            assert liel_flat(s, logic) == (liel_axiom(s) is None and no_instance)

    @given(sequents)
    def test_principals_are_the_per_rule_filter(self, s):
        for logic in Logic:
            reference = {}
            for rule, (part, cls, _) in RULE_TABLE.items():
                fs = sorted((f for f in getattr(s, part) if isinstance(f, cls)), key=render)
                if fs and _fires(rule, s, logic):
                    reference[rule] = fs
            assert principals(s, logic) == reference

    @given(sequents)
    @example(sequent([], [K(Var("a")), K(Var("b"))], [Var("c")]))  # two KL principals
    def test_expansion_is_the_three_tier_probe(self, s):
        for logic in Logic:
            insts = expansion(s, logic)
            assert list(insts) == _reference_expansion(s, logic)
            # Empty exactly when no rule has an instance.
            assert (not insts) == all(next(rule_instances(rule, s, logic), None) is None
                                      for rule in RULES)

    def test_the_search_tries_every_rule(self):
        # With the properties above, a sequent the search expands has an
        # instance of some rule it tries.
        assert set(RULES) == set(INVERTIBLE) | set(NONINVERTIBLE) | {"KL"}


class TestFormulaHash:
    @given(formulas)
    def test_separately_parsed_formulas_hash_equal(self, f):
        g, h = parse(render(f)), parse(render(f))
        assert g == h and hash(g) == hash(h) == hash(f)

    def test_deep_chain_hashes_without_recursion(self):
        def chain():
            f = Var("a")
            for _ in range(5000):
                f = K(f)
            return f

        f, g = chain(), chain()
        assert f == g and f is not g and len({f, g}) == 1
        assert f != K(f)
        assert isinstance(hash(f), int)
        assert hash(f) != hash(K(f))
        assert f in {f}
        assert len(render(f)) == 10_001
        assert len(subformulas(f)) == 5_001

    def test_decided_formula_is_freed(self):
        # Nothing in the formula layer keeps a formula alive once its
        # callers drop it: rendered text and subformulas live on the node.
        f = parse("(K a -> ~~a) & ~K false")  # valid in IEL only
        for logic in Logic:
            outcome = decide(f, logic)
            assert outcome_defect(f, outcome, logic) is None
        ref = weakref.ref(f)
        del f, outcome
        gc.collect()
        assert ref() is None

    def test_shape_and_children_both_matter(self):
        a, b = Var("a"), Var("b")
        shapes = [And(a, b), Or(a, b), Imp(a, b), And(b, a), K(a), a]
        assert len({hash(f) for f in shapes}) == len(shapes)


class TestCarriedDepth:
    def test_memo_depths_match_the_models(self):
        deep = parse("K c | (K c -> K b | (K b -> K a | ~K a))")  # depth 4
        refuted = 0
        for f in [deep, *random_formulas(80, seed=77)]:
            for logic in Logic:
                memo = {}
                _search(Sequent(delta=frozenset({f})), logic, memo)
                for s, (tree, d) in memo.items():
                    if d:
                        refuted += 1
                        model = refutation_model(tree, logic)
                        assert d == depth(model), (render(f), s)
        assert refuted > 500


class TestShrinkCheck:
    def test_non_shrinking_premise_is_rejected(self, monkeypatch):
        s = sequent([], [], [parse("a -> b")])

        def stuck(s, f):
            return (s,)

        monkeypatch.setitem(rules.RULE_TABLE, "ImpR", ("delta", Imp, stuck))
        with pytest.raises(AssertionError, match="premise failed to shrink"):
            list(rule_instances("ImpR", s, Logic.IEL))
        with pytest.raises(AssertionError, match="premise failed to shrink"):
            piel(s, Logic.IEL)

    def test_check_survives_optimised_mode(self):
        code = (
            "from ielprove import rules\n"
            "from ielprove.formula import Imp, parse\n"
            "from ielprove.sequent import Logic, sequent\n"
            "s = sequent([], [], [parse('a -> b')])\n"
            "rules.RULE_TABLE['ImpR'] = ('delta', Imp, lambda s, f: (s,))\n"
            "try:\n"
            "    list(rules.rule_instances('ImpR', s, Logic.IEL))\n"
            "except AssertionError:\n"
            "    print('rejected')\n"
        )
        run = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True)
        assert run.stdout.strip() == "rejected", run.stderr
