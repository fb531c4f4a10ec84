import random

import pytest

from ielprove.formula import BOT, K, Var, parse
from ielprove.kripke import (
    KripkeModel,
    check_frame,
    depth,
    forces,
    glue,
    model_from_json,
    model_to_dot,
    model_to_json,
    satisfies,
    single_world,
)
from ielprove.oracle import enumerate_models, random_formula
from ielprove.sequent import Logic, sequent

a = Var("a")


class TestCheckFrame:
    def test_classical_reflection_model(self, classical_reflection_model):
        assert check_frame(classical_reflection_model, Logic.IEL) == []

    def test_seriality_depends_on_logic(self):
        m = single_world([], e_reflexive=False)
        assert [v.kind for v in check_frame(m, Logic.IEL)] == ["Im3"]
        assert check_frame(m, Logic.IEL_MINUS) == []

    def test_unrooted(self):
        m = KripkeModel(frozenset({0, 1}), 0,
                        frozenset({(0, 0), (1, 1)}), frozenset({(0, 0), (1, 1)}),
                        {0: frozenset(), 1: frozenset()})
        assert any(v.kind == "NotRooted" for v in check_frame(m, Logic.IEL))

    def test_persistence_violation(self):
        m = KripkeModel(frozenset({0, 1}), 0,
                        frozenset({(0, 0), (0, 1), (1, 1)}),
                        frozenset({(1, 1), (0, 1)}),
                        {0: frozenset({"a"}), 1: frozenset()})
        assert any(v.kind == "NotPersistent" for v in check_frame(m, Logic.IEL))

    def test_im1_im2(self):
        # E-edge outside the order.
        m = KripkeModel(frozenset({0, 1}), 0,
                        frozenset({(0, 0), (0, 1), (1, 1)}),
                        frozenset({(1, 0), (1, 1), (0, 1)}),
                        {0: frozenset(), 1: frozenset()})
        kinds = {v.kind for v in check_frame(m, Logic.IEL)}
        assert "Im1" in kinds
        # E-edge not inherited downwards.
        m2 = KripkeModel(frozenset({0, 1}), 0,
                         frozenset({(0, 0), (0, 1), (1, 1)}),
                         frozenset({(1, 1)}),
                         {0: frozenset(), 1: frozenset()})
        assert any(v.kind == "Im2" for v in check_frame(m2, Logic.IEL))


class TestForces:
    def test_classical_reflection_root(self, classical_reflection_model):
        m = classical_reflection_model
        assert forces(m, 0, K(a))
        assert not forces(m, 0, a)
        assert not forces(m, 0, parse("K a -> a"))

    def test_single_reflexive_world_refutes_k(self):
        m = single_world([], e_reflexive=True)
        assert not forces(m, 0, K(a))

    def test_empty_e_forces_k_vacuously(self):
        m = single_world([], e_reflexive=False)
        assert forces(m, 0, K(a))

    def test_reflexive_world_knows_its_facts(self):
        m = single_world(["a"], e_reflexive=True)
        assert forces(m, 0, K(a))

    def test_unknown_world(self, classical_reflection_model):
        with pytest.raises(ValueError):
            forces(classical_reflection_model, 9, a)

    def test_persistence(self):
        rng = random.Random(5)
        pool = list(enumerate_models(frozenset({"a", "b"}), 3, Logic.IEL))
        for _ in range(150):
            m = rng.choice(pool)
            f = random_formula(rng, 5, ("a", "b"))
            for w, v in m.leq:
                if forces(m, w, f):
                    assert forces(m, v, f)

    def test_final_worlds_e_reflexive_in_iel(self):
        for m in enumerate_models(frozenset({"a"}), 3, Logic.IEL):
            for w in m.worlds:
                if all(v == w for v in m.up(w)):
                    assert (w, w) in m.e_rel


class TestSatisfies:
    def test_root_satisfies_unproved_sequent(self, classical_reflection_model):
        m = classical_reflection_model
        assert satisfies(m, 0, sequent([], [K(a)], [a]))

    def test_final_world_satisfies_e_sequent(self, classical_reflection_model):
        # Theta holds vacuously at a final world and E(1,1) holds.
        m = classical_reflection_model
        assert satisfies(m, 1, sequent([BOT], [a], [BOT], e=True))

    def test_forced_delta_fails(self, classical_reflection_model):
        assert not satisfies(classical_reflection_model, 1, sequent([], [], [a]))

    def test_e_flag_strengthens(self):
        rng = random.Random(11)
        pool = list(enumerate_models(frozenset({"a"}), 2, Logic.IEL_MINUS))
        for _ in range(200):
            m = rng.choice(pool)
            g = frozenset(random_formula(rng, 3, ("a",)) for _ in range(rng.randint(0, 2)))
            d = frozenset(random_formula(rng, 3, ("a",)) for _ in range(rng.randint(0, 2)))
            s_e = sequent([], g, d, e=True)
            s_p = sequent([], g, d, e=False)
            for w in m.worlds:
                if satisfies(m, w, s_e):
                    assert satisfies(m, w, s_p)


class TestDepth:
    def test_single(self):
        assert depth(single_world(["a"], True)) == 1

    def test_classical_reflection_model(self, classical_reflection_model):
        assert depth(classical_reflection_model) == 2

    def test_glued_pair(self):
        m = glue([], [single_world(["b"], True), single_world(["a"], True)], False)
        assert depth(m) == 2
        assert len(m.worlds) == 3


class TestGlue:
    def test_three_world_shape(self):
        m = glue([], [single_world(["b"], True), single_world(["a"], True)], False)
        assert check_frame(m, Logic.IEL) == []
        assert m.root == 0
        assert (0, 1) in m.e_rel and (0, 2) in m.e_rel and (0, 0) not in m.e_rel

    def test_root_inherits_e_successor(self):
        m = glue([], [single_world([], True)], False)
        assert check_frame(m, Logic.IEL) == []

    def test_reflexive_root(self):
        m = glue(["p"], [single_world(["p"], True)], True)
        assert depth(m) == 2
        assert (0, 0) in m.e_rel

    def test_e_link_roots(self):
        m = glue([], [single_world(["a"], False)], False, e_link_roots=[0])
        assert (0, 1) in m.e_rel
        assert check_frame(m, Logic.IEL_MINUS) == []

    def test_empty_submodels(self):
        with pytest.raises(ValueError):
            glue([], [], False)

    def test_persistence_guard(self):
        with pytest.raises(ValueError):
            glue(["p"], [single_world(["q"], True)], False)

    def test_preserves_frame(self):
        rng = random.Random(3)
        pool = list(enumerate_models(frozenset({"a"}), 2, Logic.IEL))
        for _ in range(100):
            subs = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            m = glue([], subs, rng.random() < 0.5)
            assert check_frame(m, Logic.IEL) == []


class TestGlueKl:
    """Single-submodel glue without a reflexive root: the KL2 construction."""

    def test_builds_classical_reflection_model(self, classical_reflection_model):
        m = glue([], [single_world(["a"], True)], False)
        assert m == classical_reflection_model

    def test_frame_conditions(self):
        for logic in Logic:
            for sub in enumerate_models(frozenset({"a"}), 2, logic):
                m = glue([], [sub], False)
                assert check_frame(m, logic) == []
                ren = {w: 1 + i for i, w in enumerate(sorted(sub.worlds))}
                assert set(m.e_up(0)) == {ren[v] for v in sub.e_up(sub.root)}

    def test_persistence_guard(self):
        with pytest.raises(ValueError):
            glue(["p"], [single_world([], True)], False)


class TestForms:
    def test_json_roundtrip(self, classical_reflection_model):
        m = classical_reflection_model
        assert model_from_json(model_to_json(m)) == m

    def test_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            model_from_json({"worlds": "zero"})
        with pytest.raises(ValueError):
            model_from_json({"worlds": [0], "root": 0, "leq": [[0]], "e": [], "val": {}})
        with pytest.raises(ValueError):
            model_from_json({"worlds": [0], "root": 0, "leq": [[0, 0]], "e": [],
                             "val": {"7": []}})

    def test_dot(self, classical_reflection_model):
        dot = model_to_dot(classical_reflection_model)
        assert "w0 -> w1;" in dot
        assert "style=dashed" in dot
        assert 'label="1: a"' in dot
