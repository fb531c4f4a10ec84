import json
import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    formulas,
    near_flat_sequents,
    random_sequent,
    reference_check_proof,
    reference_check_refutation,
    sequents,
)
from ielprove.formula import BOT, K, Var, parse, render, sorted_formulas
from ielprove.kripke import satisfies
from ielprove.oracle import enumerate_models, random_formulas
from ielprove.prover import Proof, prove_or_refute_formula
from ielprove.refuter import RIEL_RULES, check_refutation, refutation_from_json
from ielprove.rules import (
    REFUTATIONS,
    RULE_TABLE,
    Derivation,
    axiom_leaf,
    RULES,
    check_proof,
    derivation_depth,
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


_ROOT = sequent([], [], [parse("a & b -> c")])  # 2 connectives
_MID = sequent([], [parse("a & b")], [parse("c")])


def _too_deep():
    """Three AndL nodes over an Id leaf, all within the root's subformulas."""
    t = axiom_leaf(sequent([], [a], [a]), "Id")
    for _ in range(3):
        t = rule_node(_MID, "AndL", (t,))
    return t


# A node over the too-deep part that one checker or both do not descend.
_HANGS = {
    "RuleOnTerminal": rule_node(sequent([], [a], [a]), "AndL", (_too_deep(),)),
    "NonAxiomLeaf": Derivation(_MID, None, "Id", (_too_deep(),)),
    "MalformedNode": Derivation(_MID, "AndL", "Id", (_too_deep(),)),
    "BadRule": rule_node(_MID, "ImpR", (_too_deep(),)),
}

_DEPTH = "DepthBound: depth 5 exceeds 2 connectives"
_AND_L = "BadInstantiation: AndL on  ; a & b => c"

# (check_proof of ImpR over the node twice, check_refutation of ImpR1 over it once)
_FALLBACK_DEFECTS = {
    "RuleOnTerminal": (
        ["BadInstantiation: ImpR on  ;  => a & b -> c",
         "RuleOnTerminal: AndL on terminal  ; a => a",
         "RuleOnTerminal: AndL on terminal  ; a => a", _DEPTH],
        ["BadInstantiation: ImpR1 on  ;  => a & b -> c",
         "ProvisoViolation: AndL fired on  ; a => a", _DEPTH]),
    "NonAxiomLeaf": (
        ["NonAxiomLeaf:  ; a & b => c"] * 2 + [_DEPTH],
        ["NonAxiomLeaf:  ; a & b => c", _DEPTH]),
    "MalformedNode": (
        ["MalformedNode:  ; a & b => c"] * 2 + [_DEPTH],
        ["MalformedNode:  ; a & b => c", _DEPTH]),
    "BadRule": (
        (["BadInstantiation: ImpR on  ; a & b => c"] + [_AND_L] * 3) * 2 + [_DEPTH],
        ["BadRule: 'ImpR'", _DEPTH]),
}


class TestDepthBoundFallback:
    """The depth bound counts the branches below a node the walk does not
    descend, so it takes its own pass there."""

    @pytest.mark.parametrize("kind", sorted(_HANGS))
    def test_depth_below_an_unchecked_node(self, kind):
        node = _HANGS[kind]
        proof = rule_node(_ROOT, "ImpR", (node, node))
        refutation = rule_node(_ROOT, "ImpR1", (node,))
        assert derivation_depth(proof) == derivation_depth(refutation) == 5
        for logic in Logic:
            assert ([str(d) for d in check_proof(proof, logic)],
                    [str(d) for d in check_refutation(refutation, logic)]
                    ) == _FALLBACK_DEFECTS[kind]


# ---------------------------------------------------------------------------
# The rule tests against the two-step reference (conftest)
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"

# Every rule name of either calculus, and one of neither.
NAMES = sorted({*RULES, *RIEL_RULES, "Cut"})


@lru_cache(maxsize=1)
def golden_certificates() -> tuple:
    """The proofs and refutations of tests/golden: certificates.json's
    formulas and the tamper sweep's, under both logics, and the two
    certificates whose leaves leave the root's subformulas."""
    from test_tamper import FORMULAS

    texts = [render(f) for f in random_formulas(80, seed=31337)] + FORMULAS
    out = [prove_or_refute_formula(parse(text), logic) for text in texts for logic in Logic]
    out = [t.tree if isinstance(t, Proof) else t for t in out]
    for name, decode in (("proof", proof_from_json), ("refutation", refutation_from_json)):
        out.append(decode(json.loads((GOLDEN / f"nonsubformula-{name}.json").read_text())))
    return tuple(out)


def _preorder(t: Derivation) -> list:
    nodes, stack = [], [t]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(reversed(node.children))
    return nodes


def _replaced(t: Derivation, old: Derivation, new: Derivation) -> Derivation:
    """t with every occurrence of the node object old replaced by new."""
    if t is old:
        return new
    return t._replace(children=tuple(_replaced(c, old, new) for c in t.children))


def _same_defects(t: Derivation) -> None:
    for logic in Logic:
        assert check_proof(t, logic) == reference_check_proof(t, logic)
        assert check_refutation(t, logic) == reference_check_refutation(t, logic)


def _principal(cls: type):
    return st.builds(K, formulas) if cls is K else st.builds(cls, formulas, formulas)


@st.composite
def rule_nodes(draw) -> Derivation:
    """A node over Id leaves: a drawn sequent, often given a principal of a
    drawn validity rule and that rule's E-flag; as children, that rule's
    premises on one of its formulas, whether or not the rule fires on the
    sequent, or one of those premises, or other sequents; and as its name,
    the rule's own name for those children or any name."""
    built_by = draw(st.sampled_from(RULES))
    where, cls, build = RULE_TABLE[built_by]
    s = draw(st.one_of(sequents, near_flat_sequents))
    if draw(st.integers(0, 3)):
        s = s._replace(**{where: getattr(s, where) | {draw(_principal(cls))}},
                       e_flag=built_by.startswith("e") if draw(st.integers(0, 3)) else s.e_flag)
    candidates = sorted_formulas(f for f in getattr(s, where) if type(f) is cls)
    own = "Cut"
    if candidates and draw(st.integers(0, 3)):
        premises = build(s, draw(st.sampled_from(candidates)))
        index = draw(st.one_of(st.none(), st.integers(0, len(premises) - 1)))
        if index is None:
            own = built_by
        else:
            own, premises = REFUTATIONS[built_by, index], premises[index:index + 1]
    else:
        premises = tuple(draw(st.lists(sequents, max_size=3)))
    name = draw(st.one_of(st.just(own), st.sampled_from(NAMES)))
    return rule_node(s, name, tuple(axiom_leaf(p, "Id") for p in premises))


def _two_and_l_principals():
    """AndL on two principals, with the premise of the second in text order."""
    s = sequent([], [parse("a & b"), parse("c & d")], [parse("e")])
    return rule_node(s, "AndL", (axiom_leaf(sequent([], [parse("a & b"), Var("c"), Var("d")],
                                                     [parse("e")]), "Id"),))


def _plain(rule: str, s, index=None) -> Derivation:
    """rule's premises on s's first principal of its connective, built
    whether or not the rule fires on s; given index, the refutational node
    over that premise alone."""
    where, cls, build = RULE_TABLE[rule]
    f = sorted_formulas(f for f in getattr(s, where) if type(f) is cls)[0]
    premises = build(s, f)
    if index is not None:
        rule, premises = REFUTATIONS[rule, index], premises[index:index + 1]
    return rule_node(s, rule, tuple(axiom_leaf(p, "Id") for p in premises))


class TestRuleTestsAgainstReference:
    def test_golden_certificates(self):
        for t in golden_certificates():
            _same_defects(t)

    @given(rule_nodes())
    @example(_two_and_l_principals())
    @example(_plain("eAndL", sequent([], [parse("a & b")], [Var("c")])))  # e-rule, plain sequent
    @example(_plain("eKR", sequent([], [Var("b")], [K(Var("a"))])))
    @example(_plain("eKR", sequent([], [Var("b")], [K(Var("a"))]), 0))
    @example(_plain("KL", sequent([], [K(Var("a"))], [Var("b")])))  # flat under IEL-
    @example(_plain("KL", sequent([], [K(Var("a"))], [Var("b")]), 0))
    @example(_plain("KL", sequent([], [K(Var("a")), parse("a | b")], [Var("b")]), 1))
    @example(_plain("KL", sequent([K(Var("a"))], [K(Var("a"))], [Var("b")]), 1))  # kept by KL2
    @example(_plain("AndL", sequent([], [parse("a & b"), Var("c")], [Var("c")])))  # terminal
    @example(_plain("AndL", sequent([], [parse("a & b")], [Var("c")]), 0))
    def test_rule_nodes(self, t):
        _same_defects(t)

    @given(st.data())
    def test_golden_certificates_with_a_renamed_node(self, data):
        t = data.draw(st.sampled_from(golden_certificates()))
        node = data.draw(st.sampled_from(_preorder(t)))
        _same_defects(_replaced(t, node, node._replace(rule=data.draw(st.sampled_from(NAMES)))))

    @given(st.data())
    def test_golden_certificates_with_a_child_given_another_nodes_sequent(self, data):
        t = data.draw(st.sampled_from([t for t in golden_certificates() if t.children]))
        nodes = _preorder(t)
        node = data.draw(st.sampled_from([n for n in nodes if n.children]))
        i = data.draw(st.integers(0, len(node.children) - 1))
        child = node.children[i]._replace(sequent=data.draw(st.sampled_from(nodes)).sequent)
        kids = (*node.children[:i], child, *node.children[i + 1:])
        _same_defects(_replaced(t, node, node._replace(children=kids)))


class TestFirstPremise:
    """has_instance skips a principal that got's first sequent still holds
    in the rule's compartment: every builder drops its principal there."""

    @given(st.sampled_from(RULES), sequents, st.data())
    def test_every_builder_drops_its_principal_from_its_compartment(self, rule, s, data):
        where, cls, build = RULE_TABLE[rule]
        f = data.draw(_principal(cls))
        s = s._replace(**{where: getattr(s, where) | {f}})
        assert f not in getattr(build(s, f)[0], where)
