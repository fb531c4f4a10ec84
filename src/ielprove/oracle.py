"""Brute-force semantic oracle at desk scale.

Enumerates every labelled rooted Kripke model up to a world bound (orders
with a designated root, E-relations built to the frame conditions,
persistent valuations) and scans them for a countermodel of least depth;
it knows nothing of the prover, which the crosscheck command compares it
with.  The scan works a rooted order at a time: it forces a formula in
every model on the order at once, one bit per model (per E-relation and
valuation), and builds a KripkeModel only for the countermodel it reports.
Also hosts the seeded random-formula generator used by the test corpus and
the crosscheck command.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional

from .formula import (BINARY_OPS, BOT, And, Bottom, Formula, Imp, K, Or, Var, connective_count,
                      render, subformulas)
from .kripke import (KripkeModel, Violation, check_frame, depth, e_violations, model_to_json,
                     order_violations)
from .sequent import Logic


class OracleReport(NamedTuple):
    formula: Formula
    logic: Logic
    bound_worlds: int
    countermodel: Optional[KripkeModel]
    min_depth_found: Optional[int]
    models_enumerated: int


def oracle_report_to_json(r: OracleReport) -> dict:
    return {
        "formula": render(r.formula),
        "logic": r.logic.value,
        "bound_worlds": r.bound_worlds,
        "countermodel": None if r.countermodel is None else model_to_json(r.countermodel),
        "min_depth_found": r.min_depth_found,
        "models_enumerated": r.models_enumerated,
    }


def variables(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Var))


# ---------------------------------------------------------------------------
# Model enumeration
# ---------------------------------------------------------------------------

def _is_partial_order(rel: frozenset[tuple[int, int]], n: int) -> bool:
    for a in range(n):
        for b in range(n):
            if a != b and (a, b) in rel and (b, a) in rel:
                return False
            for c in range(n):
                if (a, b) in rel and (b, c) in rel and (a, c) not in rel:
                    return False
    return True


@lru_cache(maxsize=None)
def _rooted_orders(n: int) -> tuple[frozenset[tuple[int, int]], ...]:
    """Labelled partial orders on 0..n-1 in which 0 is below every world."""
    optional = [(i, j) for i in range(1, n) for j in range(1, n) if i != j]
    base = frozenset({(i, i) for i in range(n)} | {(0, j) for j in range(1, n)})
    out = []
    for bits in range(1 << len(optional)):
        rel = base | {optional[k] for k in range(len(optional)) if bits >> k & 1}
        if _is_partial_order(frozenset(rel), n):
            out.append(frozenset(rel))
    return tuple(out)


def _e_relations(leq: frozenset[tuple[int, int]], n: int,
                 logic: Logic) -> list[frozenset[tuple[int, int]]]:
    """Subrelations of the order closed downwards (Im2), serial for IEL,
    sorted by their bitmask over the sorted pairs of the order.

    Built, not filtered: by Im2 the worlds with an edge into c form a
    down-set of the worlds below c, and any such choice, one per world,
    satisfies Im1 and Im2.  For IEL, a maximal world m can reach only
    itself, and every world lies below some maximal world, so the relation
    is serial iff each m has every world below it as its down-set."""
    pairs = sorted(leq)
    bit = {p: 1 << k for k, p in enumerate(pairs)}
    masks = [0]  # of the relations on the worlds so far
    for c in range(n):
        below = [a for a in range(n) if (a, c) in leq]
        if logic is Logic.IEL and not any((c, d) in leq for d in range(n) if d != c):
            downsets = [below]
        else:
            downsets = [ds for ds in ({a for k, a in enumerate(below) if bits >> k & 1}
                                      for bits in range(1 << len(below)))
                        if all(b in ds for a in ds for b in below if (b, a) in leq)]
        edges = [sum(bit[a, c] for a in ds) for ds in downsets]
        masks = [mask | e for mask in masks for e in edges]
    return [frozenset(p for p in pairs if mask & bit[p]) for mask in sorted(masks)]


def _upsets(leq: frozenset[tuple[int, int]], n: int) -> list[frozenset[int]]:
    out = []
    for bits in range(1 << n):
        ws = frozenset(w for w in range(n) if bits >> w & 1)
        if all((a, b) not in leq or b in ws for a in ws for b in range(n)):
            out.append(ws)
    return out


class _Order(NamedTuple):
    """A rooted order with every frame on it, one per E-relation, and every
    persistent valuation of k variables on each frame.

    A mask has one bit per model: bit e * size + i stands for valuation i of
    the frame with E-relation e_rels[e], where valuation i is the i-th pick
    of itertools.product(ups, repeat=k).  With no variables each frame is
    one model, and the mask has one bit per frame."""
    leq: frozenset[tuple[int, int]]
    e_rels: tuple[frozenset[tuple[int, int]], ...]
    ups: tuple[frozenset[int], ...]
    depth: int
    up: tuple[tuple[int, ...], ...]
    # e_up[w]: each u that some frame's E reaches from w, with the mask of
    # the models whose E does not.
    e_up: tuple[tuple[tuple[int, int], ...], ...]
    var_masks: tuple[tuple[int, ...], ...]  # [j][w]: variable j holds at w
    size: int  # valuations per frame
    full: int  # every model

    @property
    def models(self) -> int:
        return self.size * len(self.e_rels)


def _repeat(pattern: int, width: int, count: int) -> int:
    """count copies of a width-bit pattern, side by side."""
    return pattern * (((1 << width * count) - 1) // ((1 << width) - 1))


def _variable_masks(ups: tuple[frozenset[int], ...], n: int, k: int,
                    frames: int) -> tuple[tuple[int, ...], ...]:
    # Variable j's pick runs over ups in blocks of u**(k-1-j) valuations: a
    # cycle of u blocks that repeats u**j times in each frame.
    u = len(ups)
    out = []
    for j in range(k):
        block = u ** (k - 1 - j)
        ones = (1 << block) - 1
        out.append(tuple(
            _repeat(sum(ones << i * block for i, ws in enumerate(ups) if w in ws),
                    u * block, u ** j * frames)
            for w in range(n)))
    return tuple(out)


@lru_cache(maxsize=None)
def _orders(n: int, k: int, logic: Logic) -> tuple[_Order, ...]:
    """Every rooted order on n worlds with its frames and the masks of k
    variables, in enumeration order.

    The orders of no variables are the frames: there every order, up-set
    and E-relation is checked once, and the checks raise rather than
    assert, so they hold under python -O.  The orders of k variables are
    derived from them and share their order, frames and up-sets."""
    if k:
        out = []
        for frames in _orders(n, 0, logic):
            size, count = len(frames.ups) ** k, len(frames.e_rels)
            # A frame's bit becomes its size models' bits; in binary, so
            # that it takes time linear in the mask.
            spread = str.maketrans({"0": "0" * size, "1": "1" * size})
            e_up = tuple(tuple((u, int(f"{absent:0{count}b}".translate(spread), 2))
                               for u, absent in pairs)
                         for pairs in frames.e_up)
            out.append(frames._replace(
                e_up=e_up, var_masks=_variable_masks(frames.ups, n, k, count),
                size=size, full=(1 << size * count) - 1))
        return tuple(out)
    worlds = frozenset(range(n))
    out = []
    for leq in _rooted_orders(n):
        order = KripkeModel(worlds, 0, leq, frozenset(), {})
        _require(order_violations(order))
        ups = _upsets(leq, n)
        for ws in ups:
            if any(b not in ws for a, b in leq if a in ws):
                raise AssertionError(f"oracle up-set {sorted(ws)} is not upward closed")
        e_rels = _e_relations(leq, n, logic)
        for e in e_rels:
            _require(e_violations(KripkeModel(worlds, 0, leq, e, {}), logic))
        full = (1 << len(e_rels)) - 1
        reached: dict[tuple[int, int], int] = {}
        for i, e in enumerate(e_rels):
            for pair in e:
                reached[pair] = reached.get(pair, 0) | 1 << i
        e_up = tuple(tuple((u, full ^ reached[w, u]) for u in range(n) if (w, u) in reached)
                     for w in range(n))
        up = tuple(tuple(sorted(b for a, b in leq if a == w)) for w in range(n))
        out.append(_Order(leq, tuple(e_rels), tuple(ups), depth(order), up, e_up, (), 1, full))
    return tuple(out)


def _require(violations: list[Violation]) -> None:
    if violations:
        raise AssertionError(
            f"oracle model fails check_frame: {', '.join(map(str, violations))}")


def _all_orders(k: int, max_worlds: int, logic: Logic) -> Iterator[_Order]:
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    if max_worlds > 6:  # _rooted_orders(7) tries 2^30 relations: hours
        raise ValueError("max_worlds must be at most 6")
    for n in range(1, max_worlds + 1):
        yield from _orders(n, k, logic)


def _model(order: _Order, names: tuple[str, ...], bit: int,
           logic: Logic) -> KripkeModel:
    """The model of a mask bit, checked by check_frame."""
    e, i = divmod(bit, order.size)
    picks = []
    for _ in names:
        i, pick = divmod(i, len(order.ups))
        picks.append(order.ups[pick])
    picks.reverse()
    n = len(order.up)
    valuation = {w: frozenset(name for name, ws in zip(names, picks) if w in ws)
                 for w in range(n)}
    model = KripkeModel(frozenset(range(n)), 0, order.leq, order.e_rels[e], valuation)
    _require(check_frame(model, logic))
    return model


def _force_masks(order: _Order, f: Formula,
                 names: tuple[str, ...]) -> dict[Formula, tuple[int, ...]]:
    """For each subformula g of f and world w, the mask of the models that
    force g at w."""
    full = order.full
    position = {name: j for j, name in enumerate(names)}
    out: dict[Formula, tuple[int, ...]] = {}
    for g in sorted(subformulas(f), key=connective_count):
        if isinstance(g, Var):
            row = order.var_masks[position[g.name]]
        elif isinstance(g, And):
            row = tuple(x & y for x, y in zip(out[g.left], out[g.right]))
        elif isinstance(g, Or):
            row = tuple(x | y for x, y in zip(out[g.left], out[g.right]))
        elif isinstance(g, Imp):
            holds = [x ^ full | y for x, y in zip(out[g.left], out[g.right])]
            row = tuple(_meet((holds[u] for u in us), full) for us in order.up)
        elif isinstance(g, K):
            body = out[g.body]
            row = tuple(_meet((body[u] | absent for u, absent in pairs), full)
                        for pairs in order.e_up)
        elif isinstance(g, Bottom):
            row = (0,) * len(order.up)
        else:
            raise TypeError(f"not a formula: {g!r}")
        out[g] = row
    return out


def _meet(masks: Iterable[int], full: int) -> int:
    for mask in masks:
        full &= mask
    return full


def enumerate_models(vars: frozenset[str] | set[str], max_worlds: int,
                     logic: Logic) -> Iterator[KripkeModel]:
    """Every rooted model with at most max_worlds worlds over the given
    variables, in a fixed order.  Labelled enumeration; no isomorphism
    reduction."""
    names = tuple(sorted(vars))
    for order in _all_orders(len(names), max_worlds, logic):
        for bit in range(order.models):
            yield _model(order, names, bit, logic)


# ---------------------------------------------------------------------------
# Brute-force refutation search
# ---------------------------------------------------------------------------

def brute_force_invalid(f: Formula, max_worlds: int, logic: Logic) -> OracleReport:
    """Scan all models up to the bound for one whose root does not force f.

    min_depth_found is the minimum depth over every countermodel in the
    bound, and countermodel the first one found.  The scan forces f in all
    models on one rooted order at once, and stops early only once depth one
    is reached, which no model can undercut; models_enumerated counts the
    models of enumerate_models up to and including the one it stopped at.

    The orders of no variables are the frames, built and checked once per
    world count and logic in a process; the orders of each variable count
    are derived from them once, and later scans reuse both.  At bound 5
    the first call, over one variable, takes 1.4-1.8 s under IEL- and
    0.3-0.5 s under IEL, most of it building; a later call over two
    variables takes about 0.4 s and 0.06 s (2-vCPU VM).
    """
    names = tuple(sorted(variables(f)))
    first: Optional[tuple[_Order, int]] = None
    min_depth: Optional[int] = None
    count = 0
    for order in _all_orders(len(names), max_worlds, logic):
        refuted = order.full ^ _force_masks(order, f, names)[f][0]
        if refuted:
            bit = (refuted & -refuted).bit_length() - 1
            if first is None:
                first = (order, bit)
            if min_depth is None or order.depth < min_depth:
                min_depth = order.depth
            if min_depth == 1:
                count += bit + 1
                break
        count += order.models
    model = None if first is None else _model(first[0], names, first[1], logic)
    return OracleReport(f, logic, max_worlds, model, min_depth, count)


# ---------------------------------------------------------------------------
# Seeded random formulas
# ---------------------------------------------------------------------------

def random_formula(rng: random.Random, max_connectives: int,
                   variables: tuple[str, ...] = ("a", "b", "c")) -> Formula:
    budget = rng.randint(0, max_connectives)

    def go(b: int) -> Formula:
        if b == 0:
            return BOT if rng.random() < 0.1 else Var(rng.choice(variables))
        shape = rng.choice(("and", "or", "imp", "imp", "k", "k"))
        if shape == "k":
            return K(go(b - 1))
        left = rng.randint(0, b - 1)
        return BINARY_OPS[shape](go(left), go(b - 1 - left))

    return go(budget)


def random_formulas(count: int, seed: int, max_connectives: int = 8,
                    variables: tuple[str, ...] = ("a", "b", "c")) -> list[Formula]:
    rng = random.Random(seed)
    return [random_formula(rng, max_connectives, variables) for _ in range(count)]
