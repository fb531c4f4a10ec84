import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from ielprove.formula import BOT, And, Imp, K, Or, Var, parse
from ielprove.kripke import KripkeModel
from ielprove.oracle import random_formula
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
