import random
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import strategies as st

from ielprove.formula import BOT, And, Bottom, Formula, Imp, K, Or, Var, parse, sorted_formulas
from ielprove.kripke import KripkeModel
from ielprove.oracle import random_formula
from ielprove.rules import Derivation
from ielprove.sequent import Logic, Sequent

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "paper.txt"

formulas = st.recursive(
    st.one_of(st.builds(Var, st.sampled_from(["a", "b", "c", "p", "q"])), st.just(BOT)),
    lambda sub: st.one_of(
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
        st.builds(K, sub),
    ),
    max_leaves=14,
)


@pytest.fixture(scope="session")
def corpus_records():
    records = []
    for line in CORPUS.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        status, logic, text = line.split(None, 2)
        records.append((status == "valid", Logic(logic), parse(text)))
    return records


@pytest.fixture(scope="session")
def classical_reflection_model():
    """Two worlds 0 < 1, E = {(0,1), (1,1)}, `a` true at world 1 only: the
    minimal countermodel of `K a -> a`."""
    return KripkeModel(
        worlds=frozenset({0, 1}),
        root=0,
        leq=frozenset({(0, 0), (0, 1), (1, 1)}),
        e_rel=frozenset({(0, 1), (1, 1)}),
        valuation={0: frozenset(), 1: frozenset({"a"})},
    )


def random_sequent(rng: random.Random, max_connectives: int = 4,
                   variables: tuple[str, ...] = ("a", "b")) -> Sequent:
    def some(k):
        return frozenset(random_formula(rng, max_connectives, variables)
                         for _ in range(rng.randint(0, k)))
    return Sequent(some(1), some(2), some(2), rng.random() < 0.4)


# The reference dict encoder: the certificate JSON format written plainly,
# by recursion.  rules.derivation_json must give json.dumps of these dicts
# with sort_keys=True, byte for byte.

_OPS = {Var: "var", Bottom: "bot", And: "and", Or: "or", Imp: "imp", K: "k"}


def formula_dict(f: Formula) -> dict:
    obj = {"op": _OPS[type(f)]}
    for key, value in vars(f).items():  # name, body, or left and right
        obj[key] = formula_dict(value) if isinstance(value, Formula) else value
    return obj


def sequent_dict(s: Sequent) -> dict:
    return {"theta": [formula_dict(f) for f in sorted_formulas(s.theta)],
            "gamma": [formula_dict(f) for f in sorted_formulas(s.gamma)],
            "delta": [formula_dict(f) for f in sorted_formulas(s.delta)],
            "e": s.e_flag}


def derivation_dict(t: Derivation, calculus: Optional[str] = None) -> dict:
    obj = {"sequent": sequent_dict(t.sequent), "rule": t.rule, "axiom": t.axiom,
           "children": [derivation_dict(c) for c in t.children]}
    return obj if calculus is None else {**obj, "calculus": calculus}
