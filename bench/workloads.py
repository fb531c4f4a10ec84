"""Seeded item lists for the three benchmark workloads.

An item is one CLI call: its argv for ``ielprove.cli.main`` plus, where the
answer is known, the expected verdict and countermodel depth.  Pass ``i``
of a run with seed ``s`` always gets the same list; a run uses passes
``0..PASSES-1`` only.  The program under test only ever sees the generated
formula text.

- ``decide-random``: ``decide`` on seeded random formulas of a fixed size.
  Proof search is almost all of the work.
- ``refute-families``: ``refute`` on scalable formula families whose
  verdict and minimal countermodel depth are known by construction.  The
  seed renames the atoms and orders the items, which changes neither.
  Permuting the operands of ``&`` and ``|`` would change the search cost
  by up to 3x per item, and the per-pass totals with it.  Checking and
  encoding the large certificates is about half of the work.
- ``crosscheck-oracle``: ``crosscheck --bound 3`` on seeded random
  formulas of at most 8 connectives over two variables.  The brute-force
  oracle is most of the work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable, Optional

from ielprove.formula import connective_count, render
from ielprove.oracle import random_formulas

LOGICS = ("iel", "iel-")
DEFAULT_SEED = 1
# A run cycles through the item lists of passes 0..PASSES-1, so a faster
# commit repeats lists instead of drawing new ones: every pass of the
# default seed has pinned references, and every commit measures the same
# lists.
PASSES = 16
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# decide-random: formulas of exactly this many connectives over a-d.  A
# fixed size keeps per-item costs within a few decades; with a budget drawn
# uniformly from 0..16 they span six, and a single formula can take
# longer than a whole run.
DECIDE_CONNECTIVES = 8
DECIDE_VARIABLES = ("a", "b", "c", "d")
DECIDE_FORMULAS = 100

# crosscheck-oracle: the size of `crosscheck --random` (at most 8
# connectives) over a and b.  Over a, b and c a few full scans of the
# 5,500-model IEL- pool (0.2-0.6 s each) make up most of a pass, so pass
# times vary by a factor of five between item lists.
CROSSCHECK_BOUND = 3
CROSSCHECK_FORMULAS = 100
CROSSCHECK_VARIABLES = ("a", "b")


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _item(command: list[str], logic: str, text: str,
          verdict: Optional[str] = None, depth: Optional[int] = None) -> dict:
    return {
        "command": command[0],
        "logic": logic,
        "formula": text,
        "argv": command + ["--format", "json", "--logic", logic, text],
        "verdict": verdict,
        "depth": depth,
    }


# ---------------------------------------------------------------------------
# Random workloads
# ---------------------------------------------------------------------------

def decide_random(seed: int, pass_index: int) -> list[dict]:
    rng = _rng("decide-random", seed, pass_index)
    out: list[dict] = []
    while len(out) < 2 * DECIDE_FORMULAS:
        batch = random_formulas(64, seed=rng.getrandbits(32),
                                max_connectives=DECIDE_CONNECTIVES,
                                variables=DECIDE_VARIABLES)
        for f in batch:
            if connective_count(f) == DECIDE_CONNECTIVES and len(out) < 2 * DECIDE_FORMULAS:
                out.extend(_item(["decide"], logic, render(f)) for logic in LOGICS)
    return out


def crosscheck_oracle(seed: int, pass_index: int) -> list[dict]:
    rng = _rng("crosscheck-oracle", seed, pass_index)
    formulas = random_formulas(CROSSCHECK_FORMULAS, seed=rng.getrandbits(32),
                               variables=CROSSCHECK_VARIABLES)
    return [_item(["crosscheck", "--bound", str(CROSSCHECK_BOUND)], logic, render(f))
            for f in formulas for logic in LOGICS]


# ---------------------------------------------------------------------------
# Families with answers known by construction
# ---------------------------------------------------------------------------

class _Namer:
    """Renders family members with seeded atom names."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def atoms(self, n: int) -> list[str]:
        return [f"p{k}" for k in self.rng.sample(range(10, 1000), n)]

    @staticmethod
    def conj(parts: list[str]) -> str:
        return " & ".join(f"({p})" for p in parts)

    @staticmethod
    def disj(parts: list[str]) -> str:
        return " | ".join(f"({p})" for p in parts)

    def iff(self, a: str, b: str) -> str:
        return self.conj([f"({a}) -> ({b})", f"({b}) -> ({a})"])


def _de_bruijn(b: _Namer, n: int) -> str:
    """SYJ201-style: with 2n+1 atoms in a cycle, if each biconditional of
    neighbours implies all atoms, then all atoms hold."""
    ps = b.atoms(2 * n + 1)
    all_p = b.conj(ps)
    cycle = [f"({b.iff(ps[i], ps[(i + 1) % len(ps)])}) -> ({all_p})" for i in range(len(ps))]
    return f"({b.conj(cycle)}) -> ({all_p})"


def _k_chain(b: _Namer, n: int) -> str:
    ps = b.atoms(n + 1)
    links = b.conj([f"K({ps[i]} -> {ps[i + 1]})" for i in range(n)])
    return f"({links}) -> K {ps[0]} -> K {ps[n]}"


def _k_conj(b: _Namer, n: int) -> str:
    ps = b.atoms(n)
    return f"({b.conj([f'K {p}' for p in ps])}) -> K({b.conj(ps)})"


def _k_power(b: _Namer, n: int) -> str:
    (p,) = b.atoms(1)
    return f"{'K ' * n}{p} -> {'K ' * (n + 1)}{p}"


def _k_reflect(b: _Namer, n: int) -> str:
    ps = b.atoms(n)
    return f"({b.conj([f'K {p}' for p in ps])}) -> ({b.disj([f'~~{p}' for p in ps])})"


def _bounded_depth(b: _Namer, n: int, modal: bool) -> str:
    ps = [f"K {p}" if modal else p for p in b.atoms(n)]
    text = b.disj([ps[0], f"~({ps[0]})"])
    for p in ps[1:]:
        text = b.disj([p, f"({p}) -> ({text})"])
    return text


def _k_disj(b: _Namer, n: int) -> str:
    ps = b.atoms(n)
    return f"K({b.disj(ps)}) -> ({b.disj([f'K {p}' for p in ps])})"


# (name, make, sizes, answer) where answer(n, logic) gives the verdict
# and the minimal countermodel depth (None for valid formulas).
Answer = Callable[[int, str], tuple[str, Optional[int]]]
FAMILIES: list[tuple[str, Callable[[_Namer, int], str], tuple[int, ...], Answer]] = [
    # Intuitionistically valid, so valid in both logics.  n = 2 is left out:
    # each of its items takes 2-3 s, more than a tenth of a run.
    ("de-bruijn", _de_bruijn, (1,), lambda n, lg: ("valid", None)),
    # K distributes over implication and conjunction; co-reflection
    # A -> K A is an axiom of both logics.
    # k-chain stops at 6: at 8 one item takes 0.5-1.7 s.
    ("k-chain", _k_chain, (2, 3, 4, 5, 6), lambda n, lg: ("valid", None)),
    ("k-conj", _k_conj, (2, 3, 4, 5, 6, 7, 8), lambda n, lg: ("valid", None)),
    ("k-power", _k_power, (1, 3, 5, 7, 9, 11), lambda n, lg: ("valid", None)),
    # Intuitionistic reflection K A -> ~~A holds in IEL only; under IEL-
    # one world with an empty E refutes it.
    ("k-reflect", _k_reflect, (1, 2, 3),
     lambda n, lg: ("valid", None) if lg == "iel" else ("invalid", 1)),
    # bd_n holds on every frame of depth at most n and fails on a chain of
    # n+1 worlds.  With E equal to the order, K p is p, so the K-decorated
    # variant needs the same depth.
    ("bd", lambda b, n: _bounded_depth(b, n, False), (1, 2, 3, 4, 5, 6, 7, 8),
     lambda n, lg: ("invalid", n + 1)),
    ("bd-k", lambda b, n: _bounded_depth(b, n, True), (1, 2, 3, 4, 5, 6),
     lambda n, lg: ("invalid", n + 1)),
    # One world never refutes it (E is reflexive there or empty); a root
    # with one successor per disjunct does.
    ("k-disj", _k_disj, (2, 3, 4, 5), lambda n, lg: ("invalid", 2)),
]


def family_items(rng: random.Random) -> list[dict]:
    b = _Namer(rng)
    out = []
    for name, make, sizes, answer in FAMILIES:
        for n in sizes:
            for logic in LOGICS:
                verdict, depth = answer(n, logic)
                item = _item(["refute"], logic, make(b, n), verdict, depth)
                item["family"] = f"{name}/{n}"
                out.append(item)
    return out


def refute_families(seed: int, pass_index: int) -> list[dict]:
    rng = _rng("refute-families", seed, pass_index)
    items = family_items(rng)
    rng.shuffle(items)
    return items


WORKLOADS: dict[str, Callable[[int, int], list[dict]]] = {
    "decide-random": decide_random,
    "refute-families": refute_families,
    "crosscheck-oracle": crosscheck_oracle,
}


def items_for(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The item list of one pass, with pinned references filled in."""
    items = WORKLOADS[workload](seed, pass_index)
    pinned = load_reference(workload, seed)
    for k, item in enumerate(items):
        item["id"] = k
        ref = pinned.get(reference_key(item))
        if ref is not None and item["verdict"] is None:
            item["verdict"], item["depth"] = ref
    return items


# ---------------------------------------------------------------------------
# Pinned references for the random workloads
# ---------------------------------------------------------------------------

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def reference_key(item: dict) -> str:
    return f"{item['logic']} {item['formula']}"


def load_reference(workload: str, seed: int) -> dict[str, tuple[str, Optional[int]]]:
    """(verdict, depth) per item, for the seed the references were pinned
    on; empty for any other seed or workload."""
    path = reference_path(workload)
    if not path.is_file():
        return {}
    data = json.loads(path.read_text())
    if data["seed"] != seed:
        return {}
    return {key: (v, d) for key, (v, d) in data["entries"].items()}
