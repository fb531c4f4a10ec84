"""The invariants the search and its memo table lean on: one live object per
distinct formula, stored sequent sizes, premises smaller than their
conclusions in every search result and the checks that enforce it, the
model depth carried next to each refutation, a rule instance on every
sequent that is neither an axiom nor flat, and the one ranked principal
pass and expansion against per-rule references."""

import copy
import gc
import pickle
import subprocess
import sys
import threading
import weakref

import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    formula_dict,
    formulas,
    near_flat_sequents,
    principals,
    reference_expansion,
    sequents,
)
from ielprove import formula, rules
from ielprove.formula import (
    BOT,
    And,
    Bottom,
    Imp,
    K,
    Or,
    Var,
    formula_from_json,
    parse,
    render,
    subformulas,
)
from ielprove.kripke import depth
from ielprove.oracle import random_formulas
from ielprove.prover import _search, decide, outcome_defect, piel
from ielprove.refuter import check_refutation, refutation_model
from ielprove.rules import (
    INVERTIBLE,
    NONINVERTIBLE,
    RULE_TABLE,
    RULES,
    axiom_leaf,
    check_proof,
    expansion,
    liel_flat,
    riel_axiom,
    rule_instances,
    rule_node,
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


def _two_pass_riel_axiom(s: Sequent, logic: Logic):
    """riel_axiom by two flat tests: a flat plain sequent is Sat when it is
    flat under IEL too, and kSat when only IEL's left K rule expands it."""
    if not liel_flat(s, logic):
        return None
    if s.e_flag:
        return "eSat"
    return "Sat" if liel_flat(s, Logic.IEL) else "kSat"


class TestFlatMeansNoRule:
    @given(sequents)
    def test_flat_exactly_when_no_axiom_and_no_instance(self, s):
        for logic in Logic:
            no_instance = all(next(rule_instances(rule, s, logic), None) is None
                              for rule in RULES)
            assert liel_flat(s, logic) == (liel_axiom(s) is None and no_instance)

    @given(sequents)
    def test_principals_are_the_per_rule_filter(self, s):
        # Both the reference pass and the ranked one find each rule's
        # principals by the per-rule filter.
        for logic in Logic:
            reference = {}
            for rule, (part, cls, _) in RULE_TABLE.items():
                fs = sorted((f for f in getattr(s, part) if isinstance(f, cls)), key=render)
                if fs and _fires(rule, s, logic):
                    reference[rule] = fs
            assert principals(s, logic) == reference
            ranked = {}
            for rank, text, f in sorted(rules._principals(s, logic)):
                assert text == render(f)
                ranked.setdefault(rules._RANKED[rank], []).append(f)
            assert ranked == reference

    @given(sequents)
    @example(sequent([], [K(Var("a")), K(Var("b"))], [Var("c")]))  # two KL principals
    def test_expansion_is_the_three_tier_probe(self, s):
        for logic in Logic:
            insts = expansion(s, logic)
            assert list(insts) == _reference_expansion(s, logic)
            # Empty exactly when no rule has an instance.
            assert (not insts) == all(next(rule_instances(rule, s, logic), None) is None
                                      for rule in RULES)

    @given(st.one_of(sequents, near_flat_sequents))
    @example(sequent([], [K(Var("a")), Var("b")], [Var("c")]))  # kSat under IEL- only
    @example(sequent([BOT], [Var("a")], [Var("c")], True))  # eSat under both
    @example(sequent([], [Var("b")], [Var("c")]))  # Sat under both
    def test_riel_axiom_is_the_two_pass_definition(self, s):
        for logic in Logic:
            assert riel_axiom(s, logic) == _two_pass_riel_axiom(s, logic)

    @given(st.one_of(sequents, near_flat_sequents))
    @example(sequent([], [parse("a & b")], [parse("a | b")]))  # AndL before OrR
    @example(sequent([], [parse(t) for t in ("a & b", "b & c", "c & a", "a & c")], []))
    @example(sequent([], [], [parse(t) for t in ("a -> b", "b -> c", "c -> a", "K b", "K a")]))
    @example(sequent([], [K(Var("c")), K(Var("a")), K(Var("b"))], [Var("c")]))  # KL by text
    def test_expansion_is_the_principals_reference(self, s):
        # The ranked pass gives today's per-rule lists' instances, in order:
        # ties within a rank go by text, ranks by the rule order.
        for logic in Logic:
            assert expansion(s, logic) == reference_expansion(s, logic)

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
        assert f == g and f is g and len({f, g}) == 1
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


class TestHashConsing:
    """Formulas are hash-consed: one live object per rendered text."""

    @given(formulas)
    def test_equal_formulas_are_one_object(self, f):
        assert parse(render(f)) is f
        assert type(f)(*vars(f).values()) is f
        assert formula_from_json(formula_dict(f)) is f
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.deepcopy(f) is f and copy.copy(f) is f

    def test_threads_build_one_object_per_text(self):
        # The formulas are dropped before the threads start, so most texts
        # have no live formula and the threads race to build them.
        texts = [render(f) for f in random_formulas(200, seed=5, max_connectives=12)]
        start = threading.Barrier(4, timeout=30)
        built: list[list] = [[] for _ in range(4)]

        def build(out: list) -> None:
            start.wait()
            out.extend(parse(text) for text in texts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(out,)) for out in built]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for i, text in enumerate(texts):
            assert render(built[0][i]) == text
            assert all(out[i] is built[0][i] for out in built)
            assert all(g is formula._live[render(g)]() for g in subformulas(built[0][i]))

    def test_table_holds_only_live_formulas(self):
        gc.collect()
        baseline = len(formula._live)
        f = parse("(K a -> ~~a) & ~K false")
        outcome = decide(f, Logic.IEL)
        assert len(formula._live) > baseline
        del f, outcome
        gc.collect()
        assert len(formula._live) == baseline

    def test_deep_chain_pickles_and_reprs_without_recursion(self):
        f = parse("K " * 3000 + "a")
        data = pickle.dumps(f)
        assert pickle.loads(data) is f
        assert render(f).encode() in data  # one flat string
        assert repr(f) == "K(body=" * 3000 + "Var(name='a')" + ")" * 3000

    @given(formulas)
    @example(parse("~(K a & b) | false -> a_1"))
    def test_repr_is_the_recursive_text(self, f):
        assert repr(f) == _recursive_repr(f)


def _recursive_repr(f) -> str:
    """Formula.__repr__ as it was before it had its own stack."""
    fields = (f"{k}={_recursive_repr(v) if isinstance(v, formula.Formula) else repr(v)}"
              for k, v in vars(f).items())
    return f"{type(f).__name__}({', '.join(fields)})"


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


class TestPremisesShrink:
    """Every child of a search result, proof or refutation, shared or under
    a Glue node, has fewer connectives than its parent."""

    @staticmethod
    def _assert_children_shrink(t) -> int:
        """Check each distinct node of t; the number of Glue/eGlue nodes."""
        seen, stack, glued = set(), [t], 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            glued += node.rule in ("Glue", "eGlue")
            for c in node.children:
                assert c.sequent.size < node.sequent.size, (node.rule, node.sequent)
                stack.append(c)
        return glued

    @given(formulas)
    def test_hypothesis_formulas(self, f):
        for logic in Logic:
            tree, _ = _search(Sequent(delta=frozenset({f})), logic, {})
            self._assert_children_shrink(tree)

    def test_random_formulas(self):
        glued = 0
        for size in (4, 8, 12, 16):
            for f in random_formulas(100, seed=size, max_connectives=size):
                for logic in Logic:
                    tree, _ = _search(Sequent(delta=frozenset({f})), logic, {})
                    glued += self._assert_children_shrink(tree)
        assert glued >= 20


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

    def test_non_shrinking_premise_below_the_root(self, monkeypatch):
        # The root's ImpR instance shrinks; the inner one returns its own
        # conclusion, whose size the search has from the root's call.
        build, inner = RULE_TABLE["ImpR"][2], parse("b -> c")

        def stuck_inside(s, f):
            return (s,) if f is inner else build(s, f)

        monkeypatch.setitem(rules.RULE_TABLE, "ImpR", ("delta", Imp, stuck_inside))
        with pytest.raises(AssertionError, match="premise failed to shrink"):
            piel(sequent([], [], [parse("a -> (b -> c)")]), Logic.IEL)

    def test_non_shrinking_premise_already_decided(self, monkeypatch):
        # AndR decides => a -> a first; then ImpR on b -> b yields that same
        # sequent, no smaller than b -> b's, so the search meets it in the memo.
        build, second = RULE_TABLE["ImpR"][2], parse("b -> b")
        decided = sequent([], [], [parse("a -> a")])

        def to_decided(s, f):
            return (decided,) if f is second else build(s, f)

        monkeypatch.setitem(rules.RULE_TABLE, "ImpR", ("delta", Imp, to_decided))
        root, memo = sequent([], [], [parse("(a -> a) & (b -> b)")]), {}
        with pytest.raises(AssertionError, match="premise failed to shrink"):
            _search(root, Logic.IEL, memo)
        assert decided in memo
        with pytest.raises(AssertionError, match="premise failed to shrink"):
            piel(root, Logic.IEL)

    def test_non_shrinking_glue_premise_is_rejected_by_the_checker(self, monkeypatch):
        # A Glue node whose one child is the rightmost premise the schema
        # gives, here its own conclusion: the children match that premise.
        s = sequent([], [], [parse("a -> b")])
        build = RULE_TABLE["ImpR"][2]

        def stuck_right(s, f):
            return (build(s, f)[0], s)

        monkeypatch.setitem(rules.RULE_TABLE, "ImpR", ("delta", Imp, stuck_right))
        t = rule_node(s, "Glue", (axiom_leaf(s, "Sat"),))
        with pytest.raises(AssertionError, match="premise failed to shrink"):
            check_refutation(t, Logic.IEL)

    def test_non_shrinking_premise_from_summed_compartments(self, monkeypatch):
        # ImpR's rightmost premise is its own conclusion: every compartment
        # of it was summed for the conclusion, so its size comes from the
        # per-call table alone.  => a -> a gives an Id first premise, so the
        # search also visits the second one.
        s, build = sequent([], [], [parse("a -> a")]), RULE_TABLE["ImpR"][2]

        def keeps_conclusion(s, f):
            return (build(s, f)[0], s)

        monkeypatch.setitem(rules.RULE_TABLE, "ImpR", ("delta", Imp, keeps_conclusion))
        first = keeps_conclusion(s, parse("a -> a"))[0]
        proof = rule_node(s, "ImpR", (axiom_leaf(first, "Id"), axiom_leaf(s, "Id")))
        for check in (lambda: _search(s, Logic.IEL, {}), lambda: piel(s, Logic.IEL),
                      lambda: check_proof(proof, Logic.IEL)):
            with pytest.raises(AssertionError, match="premise failed to shrink"):
                check()

    def test_check_survives_optimised_mode(self):
        code = (
            "from ielprove import rules\n"
            "from ielprove.formula import Imp, parse\n"
            "from ielprove.prover import piel\n"
            "from ielprove.sequent import Logic, sequent\n"
            "s = sequent([], [], [parse('a -> b')])\n"
            "rules.RULE_TABLE['ImpR'] = ('delta', Imp, lambda s, f: (s,))\n"
            "for check in (lambda: list(rules.rule_instances('ImpR', s, Logic.IEL)),\n"
            "              lambda: piel(s, Logic.IEL)):\n"
            "    try:\n"
            "        check()\n"
            "    except AssertionError:\n"
            "        print('rejected')\n"
        )
        run = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True)
        assert run.stdout.split() == ["rejected", "rejected"], run.stderr
