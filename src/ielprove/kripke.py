"""Finite rooted Kripke models with an epistemic accessibility relation.

Models are posets with a root, a monotone valuation and a second relation E
constrained by Im1 (E is a subrelation of the order), Im2 (E-edges are
inherited downwards along the order) and, for IEL only, Im3 (every world has
an E-successor).  The glue construction puts a fresh root below existing
models; it is the semantic counterpart of the Glue and KL2 refutational
rules.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .formula import And, Bottom, Formula, Imp, K, Or, Var, by_size, subformulas
from .sequent import Logic, Sequent


Pair = tuple[int, int]


class KripkeModel(NamedTuple):
    worlds: frozenset[int]
    root: int
    leq: frozenset[Pair]
    e_rel: frozenset[Pair]
    valuation: dict[int, frozenset[str]]


class Violation(NamedTuple):
    kind: str  # NotPoset | NotRooted | NotPersistent | Im1 | Im2 | Im3
    witness: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}{self.witness}"


def check_frame(m: KripkeModel, logic: Logic) -> list[Violation]:
    """All frame violations; empty iff m is a model for the given logic."""
    return order_violations(m) + e_violations(m, logic)


def order_violations(m: KripkeModel) -> list[Violation]:
    """The violations of the rooted order and of persistence: NotRooted,
    NotPoset and NotPersistent, in check_frame's order."""
    out: list[Violation] = []
    ws = m.worlds
    worlds = sorted(ws)
    leq = sorted(m.leq)
    if m.root not in ws:
        out.append(Violation("NotRooted", (m.root,)))
    for a, b in leq:
        if a not in ws or b not in ws:
            out.append(Violation("NotPoset", (a, b)))
    for w in worlds:
        if (w, w) not in m.leq:
            out.append(Violation("NotPoset", (w,)))
    for a, b in leq:
        if a != b and (b, a) in m.leq:
            out.append(Violation("NotPoset", (a, b)))
        for c in worlds:
            if (b, c) in m.leq and (a, c) not in m.leq:
                out.append(Violation("NotPoset", (a, b, c)))
    if m.root in ws:
        for w in worlds:
            if (m.root, w) not in m.leq:
                out.append(Violation("NotRooted", (w,)))
    for a, b in leq:
        if a in ws and b in ws:
            if not m.valuation.get(a, frozenset()) <= m.valuation.get(b, frozenset()):
                out.append(Violation("NotPersistent", (a, b)))
    return out


def e_violations(m: KripkeModel, logic: Logic) -> list[Violation]:
    """The violations of the E-relation: Im1, Im2 and, for IEL, Im3, in
    check_frame's order."""
    out: list[Violation] = []
    worlds, leq, e_rel = m.worlds, m.leq, m.e_rel
    successors: dict[int, list[int]] = {}  # E-successors among the worlds, ascending
    for a, b in sorted(e_rel):
        if (a, b) not in leq:
            out.append(Violation("Im1", (a, b)))
        if b in worlds:
            successors.setdefault(a, []).append(b)
    for a, b in sorted(leq):
        for c in successors.get(b, ()):
            if (a, c) not in e_rel:
                out.append(Violation("Im2", (a, b, c)))
    if logic is Logic.IEL:
        for w in sorted(worlds):
            if w not in successors:
                out.append(Violation("Im3", (w,)))
    return out


# ---------------------------------------------------------------------------
# Forcing and sequent satisfaction
# ---------------------------------------------------------------------------

def _forcing(m: KripkeModel, formulas: Iterable[Formula]) -> dict[Formula, frozenset[int]]:
    """For each subformula g of the formulas, the worlds of m that force g,
    computed children-first, assuming m passes check_frame for the logic in
    use."""
    out: dict[Formula, frozenset[int]] = {}
    for g in sorted(frozenset().union(*map(subformulas, formulas)), key=by_size):
        cls = type(g)
        if cls is Var:
            ws = frozenset(w for w in m.worlds if g.name in m.valuation.get(w, frozenset()))
        elif cls is Bottom:
            ws = frozenset()
        elif cls is And:
            ws = out[g.left] & out[g.right]
        elif cls is Or:
            ws = out[g.left] | out[g.right]
        elif cls is Imp:
            bad = out[g.left] - out[g.right]
            ws = m.worlds - {a for a, b in m.leq if b in bad}
        elif cls is K:
            body = out[g.body]
            ws = m.worlds - {a for a, b in m.e_rel if b not in body}
        else:
            raise TypeError(f"not a formula: {g!r}")
        out[g] = ws
    return out


def forces(m: KripkeModel, w: int, f: Formula) -> bool:
    """Whether w forces f, assuming m passes check_frame for the logic in use."""
    if w not in m.worlds:
        raise ValueError(f"unknown world: {w}")
    return w in _forcing(m, [f])[f]


def satisfies(m: KripkeModel, w: int, s: Sequent) -> bool:
    """w forces all of gamma, none of delta, theta holds at all strict
    successors, and an E-sequent additionally needs w E w."""
    if w not in m.worlds:
        raise ValueError(f"unknown world: {w}")
    if s.e_flag and (w, w) not in m.e_rel:
        return False
    table = _forcing(m, s.theta | s.gamma | s.delta)
    above = [v for a, v in m.leq if a == w != v]
    return (all(w in table[f] for f in s.gamma)
            and not any(w in table[f] for f in s.delta)
            and all(v in table[f] for f in s.theta for v in above))


def depth(m: KripkeModel) -> int:
    """Maximum number of worlds on an order chain from the root.  A world
    has fewer strict successors than any world strictly below it, so in
    that order each world comes after all of its strict successors."""
    above: dict[int, list[int]] = {w: [] for w in m.worlds}
    for a, b in m.leq:
        if a != b:
            above[a].append(b)
    chain: dict[int, int] = {}
    for w in sorted(above, key=lambda w: len(above[w])):
        chain[w] = 1 + max((chain[v] for v in above[w]), default=0)
    return chain[m.root]


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
    if not isinstance(worlds, list) or not all(type(w) is int for w in worlds):  # not bool
        raise ValueError("model 'worlds' must be a list of integers")
    root = obj.get("root")
    if type(root) is not int:
        raise ValueError("model 'root' must be an integer")

    def pairs(key: str) -> frozenset[Pair]:
        items = obj.get(key, [])
        if not isinstance(items, list):
            raise ValueError(f"model {key!r} must be a list of pairs")
        out = set()
        for item in items:
            if (not isinstance(item, list) or len(item) != 2
                    or not all(type(x) is int for x in item)):
                raise ValueError(f"model {key!r} entries must be integer pairs")
            out.add((item[0], item[1]))
        return frozenset(out)

    val_obj = obj.get("val", {})
    if not isinstance(val_obj, dict):
        raise ValueError("model 'val' must be an object")
    valuation = {}
    by_key = {str(w): w for w in worlds}
    for key, names in val_obj.items():
        if key not in by_key:
            raise ValueError(f"model 'val' key is not a listed world: {key!r}")
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise ValueError("model 'val' entries must be lists of variable names")
        valuation[by_key[key]] = frozenset(Var(x).name for x in names)  # Var checks the name
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
