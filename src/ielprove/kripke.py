"""Finite rooted Kripke models with an epistemic accessibility relation.

Models are posets with a root, a monotone valuation and a second relation E
constrained by Im1 (E is a subrelation of the order), Im2 (E-edges are
inherited downwards along the order) and, for IEL only, Im3 (every world has
an E-successor).  The glue construction puts a fresh root below existing
models; it is the semantic counterpart of the Glue and KL2 refutational
rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .formula import And, Bottom, Formula, Imp, K, Or, Var
from .sequent import Logic, Sequent


Pair = tuple[int, int]


@dataclass
class KripkeModel:
    worlds: frozenset[int]
    root: int
    leq: frozenset[Pair]
    e_rel: frozenset[Pair]
    valuation: dict[int, frozenset[str]]

    def up(self, w: int) -> tuple[int, ...]:
        """Worlds v with w <= v."""
        return self._succ().get(w, ())

    def e_up(self, w: int) -> tuple[int, ...]:
        """Worlds v with w E v."""
        return self._esucc().get(w, ())

    # Adjacency maps are derived data, cached on first use.
    def _succ(self) -> dict[int, tuple[int, ...]]:
        cache = self.__dict__.get("_succ_cache")
        if cache is None:
            cache = _adjacency(self.worlds, self.leq)
            self.__dict__["_succ_cache"] = cache
        return cache

    def _esucc(self) -> dict[int, tuple[int, ...]]:
        cache = self.__dict__.get("_esucc_cache")
        if cache is None:
            cache = _adjacency(self.worlds, self.e_rel)
            self.__dict__["_esucc_cache"] = cache
        return cache


def _adjacency(worlds: frozenset[int], rel: frozenset[Pair]) -> dict[int, tuple[int, ...]]:
    out: dict[int, list[int]] = {w: [] for w in sorted(worlds)}
    for a, b in sorted(rel):
        out[a].append(b)
    return {w: tuple(vs) for w, vs in out.items()}


@dataclass(frozen=True)
class Violation:
    kind: str  # NotPoset | NotRooted | NotPersistent | Im1 | Im2 | Im3
    witness: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}{self.witness}"


def check_frame(m: KripkeModel, logic: Logic) -> list[Violation]:
    """All frame violations; empty iff m is a model for the given logic."""
    out: list[Violation] = []
    ws = m.worlds
    if m.root not in ws:
        out.append(Violation("NotRooted", (m.root,)))
    for a, b in sorted(m.leq):
        if a not in ws or b not in ws:
            out.append(Violation("NotPoset", (a, b)))
    for w in sorted(ws):
        if (w, w) not in m.leq:
            out.append(Violation("NotPoset", (w,)))
    for a, b in sorted(m.leq):
        if a != b and (b, a) in m.leq:
            out.append(Violation("NotPoset", (a, b)))
        for c in sorted(ws):
            if (b, c) in m.leq and (a, c) not in m.leq:
                out.append(Violation("NotPoset", (a, b, c)))
    if m.root in ws:
        for w in sorted(ws):
            if (m.root, w) not in m.leq:
                out.append(Violation("NotRooted", (w,)))
    for a, b in sorted(m.leq):
        if a in ws and b in ws:
            if not m.valuation.get(a, frozenset()) <= m.valuation.get(b, frozenset()):
                out.append(Violation("NotPersistent", (a, b)))
    for a, b in sorted(m.e_rel):
        if (a, b) not in m.leq:
            out.append(Violation("Im1", (a, b)))
    for a, b in sorted(m.leq):
        for c in sorted(ws):
            if (b, c) in m.e_rel and (a, c) not in m.e_rel:
                out.append(Violation("Im2", (a, b, c)))
    if logic is Logic.IEL:
        for w in sorted(ws):
            if not any((w, v) in m.e_rel for v in ws):
                out.append(Violation("Im3", (w,)))
    return out


# ---------------------------------------------------------------------------
# Forcing and sequent satisfaction
# ---------------------------------------------------------------------------

def forces(m: KripkeModel, w: int, f: Formula) -> bool:
    """Recursive forcing, assuming m passes check_frame for the logic in use."""
    if w not in m.worlds:
        raise ValueError(f"unknown world: {w}")
    memo: dict[tuple[int, Formula], bool] = {}

    def go(v: int, g: Formula) -> bool:
        key = (v, g)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(g, Var):
            res = g.name in m.valuation.get(v, frozenset())
        elif isinstance(g, Bottom):
            res = False
        elif isinstance(g, And):
            res = go(v, g.left) and go(v, g.right)
        elif isinstance(g, Or):
            res = go(v, g.left) or go(v, g.right)
        elif isinstance(g, Imp):
            res = all(not go(u, g.left) or go(u, g.right) for u in m.up(v))
        elif isinstance(g, K):
            res = all(go(u, g.body) for u in m.e_up(v))
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[key] = res
        return res

    return go(w, f)


def satisfies(m: KripkeModel, w: int, s: Sequent) -> bool:
    """w forces all of gamma, none of delta, theta holds at all strict
    successors, and an E-sequent additionally needs w E w."""
    if w not in m.worlds:
        raise ValueError(f"unknown world: {w}")
    if s.e_flag and (w, w) not in m.e_rel:
        return False
    if not all(forces(m, w, f) for f in s.gamma):
        return False
    if any(forces(m, w, f) for f in s.delta):
        return False
    for v in m.up(w):
        if v != w and not all(forces(m, v, f) for f in s.theta):
            return False
    return True


def depth(m: KripkeModel) -> int:
    """Maximum number of worlds on an order chain from the root."""
    memo: dict[int, int] = {}

    def chain(w: int) -> int:
        hit = memo.get(w)
        if hit is not None:
            return hit
        best = 1 + max((chain(v) for v in m.up(w) if v != w), default=0)
        memo[w] = best
        return best

    return chain(m.root)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def single_world(vars: Iterable[str], e_reflexive: bool) -> KripkeModel:
    e = frozenset({(0, 0)}) if e_reflexive else frozenset()
    return KripkeModel(
        worlds=frozenset({0}),
        root=0,
        leq=frozenset({(0, 0)}),
        e_rel=e,
        valuation={0: frozenset(vars)},
    )


def glue(root_vars: Iterable[str], submodels: Sequence[KripkeModel],
         reflexive_root_e: bool,
         e_link_roots: Iterable[int] = ()) -> KripkeModel:
    """Fresh root below the disjoint union of the submodels.

    The root inherits an E-edge to every world that is E-reachable inside
    some submodel, plus a reflexive E-edge when requested.  World ids are
    renumbered: the new root is 0, submodel worlds follow in order.

    e_link_roots names submodels (by position) whose root additionally gets
    a direct E-edge from the fresh root.  Submodels satisfying a rightmost
    K-right premise need this: their root refutes the K-body, but nothing
    guarantees it is E-reachable inside its own model (with E-free flat
    models it never is), and without the edge the glued root would force
    the K-formula vacuously.
    """
    if not submodels:
        raise ValueError("glue needs at least one submodel")
    rv = frozenset(root_vars)
    for sub in submodels:
        if not rv <= sub.valuation.get(sub.root, frozenset()):
            raise ValueError("root valuation violates persistence")
    worlds = {0}
    leq = {(0, 0)}
    e_rel: set[Pair] = set()
    valuation: dict[int, frozenset[str]] = {0: rv}
    roots = []
    next_id = 1
    for sub in submodels:
        ren = {w: next_id + i for i, w in enumerate(sorted(sub.worlds))}
        next_id += len(sub.worlds)
        roots.append(ren[sub.root])
        worlds.update(ren.values())
        leq.update((ren[a], ren[b]) for a, b in sub.leq)
        e_rel.update((ren[a], ren[b]) for a, b in sub.e_rel)
        for w, vs in sub.valuation.items():
            valuation[ren[w]] = vs
    leq.update((0, w) for w in worlds)
    e_rel.update((0, b) for (_, b) in list(e_rel))
    for i in e_link_roots:
        e_rel.add((0, roots[i]))
    if reflexive_root_e:
        e_rel.add((0, 0))
    return KripkeModel(frozenset(worlds), 0, frozenset(leq), frozenset(e_rel), valuation)


# ---------------------------------------------------------------------------
# Text, JSON and DOT forms
# ---------------------------------------------------------------------------

def model_text(m: KripkeModel) -> str:
    lines = [f"worlds: {' '.join(str(w) for w in sorted(m.worlds))}   root: {m.root}   depth: {depth(m)}"]
    strict = sorted((a, b) for a, b in m.leq if a != b)
    lines.append("order: " + (" ".join(f"{a}<={b}" for a, b in strict) or "(discrete)"))
    lines.append("E: " + (" ".join(f"({a},{b})" for a, b in sorted(m.e_rel)) or "(empty)"))
    for w in sorted(m.worlds):
        vs = " ".join(sorted(m.valuation.get(w, frozenset()))) or "-"
        lines.append(f"world {w}: {vs}")
    return "\n".join(lines)


def model_to_json(m: KripkeModel) -> dict:
    return {
        "worlds": sorted(m.worlds),
        "root": m.root,
        "leq": [list(p) for p in sorted(m.leq)],
        "e": [list(p) for p in sorted(m.e_rel)],
        "val": {str(w): sorted(m.valuation.get(w, frozenset())) for w in sorted(m.worlds)},
    }


def model_from_json(obj: object) -> KripkeModel:
    if not isinstance(obj, dict):
        raise ValueError(f"not a model object: {obj!r}")
    worlds = obj.get("worlds")
    if not isinstance(worlds, list) or not all(isinstance(w, int) for w in worlds):
        raise ValueError("model 'worlds' must be a list of integers")
    root = obj.get("root")
    if not isinstance(root, int):
        raise ValueError("model 'root' must be an integer")

    def pairs(key: str) -> frozenset[Pair]:
        items = obj.get(key, [])
        if not isinstance(items, list):
            raise ValueError(f"model {key!r} must be a list of pairs")
        out = set()
        for item in items:
            if (not isinstance(item, list) or len(item) != 2
                    or not all(isinstance(x, int) for x in item)):
                raise ValueError(f"model {key!r} entries must be integer pairs")
            out.add((item[0], item[1]))
        return frozenset(out)

    val_obj = obj.get("val", {})
    if not isinstance(val_obj, dict):
        raise ValueError("model 'val' must be an object")
    valuation = {}
    for key, names in val_obj.items():
        try:
            w = int(key)
        except ValueError:
            raise ValueError(f"model 'val' key is not a world: {key!r}") from None
        if w not in worlds:
            raise ValueError(f"model 'val' names an unknown world: {w}")
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise ValueError("model 'val' entries must be lists of variable names")
        valuation[w] = frozenset(names)
    return KripkeModel(frozenset(worlds), root, pairs("leq"), pairs("e"), valuation)


def model_to_dot(m: KripkeModel) -> str:
    """DOT graph: solid arrows for order covers, dashed arrows for E."""
    strict = {(a, b) for a, b in m.leq if a != b}
    covers = sorted(
        (a, b) for a, b in strict
        if not any((a, c) in strict and (c, b) in strict for c in m.worlds)
    )
    lines = ["digraph model {", "  rankdir=BT;"]
    for w in sorted(m.worlds):
        vs = " ".join(sorted(m.valuation.get(w, frozenset())))
        label = f"{w}: {vs}" if vs else str(w)
        shape = ', shape=box' if w == m.root else ""
        lines.append(f'  w{w} [label="{label}"{shape}];')
    for a, b in covers:
        lines.append(f"  w{a} -> w{b};")
    for a, b in sorted(m.e_rel):
        lines.append(f"  w{a} -> w{b} [style=dashed, constraint=false];")
    lines.append("}")
    return "\n".join(lines)
