"""Safe-pair decomposition and certified 1-median lower bounds.

Any non-star cluster can be stripped down to one of the fundamental non-star
shapes (3 disjoint edges, star-plus-lone-edge A_n, or the two-star path
family L_n) by repeatedly removing a *safe pair*: two vertex-disjoint edges
whose removal keeps the graph non-star. Each removed pair is itself a 2-P2
with exact 1-median cost 2, and optimal cluster cost is superadditive over
such splits, so

    cost(G)  >=  2 * (#pairs removed) + cost(residual class)

which turns the per-class closed forms and proven constants into a certified
lower bound for arbitrary non-star clusters. The *ultra-safe* variant also
forbids the remainder from being a bridge graph (two stars joined by an
edge); it terminates in {3-P2, A_n} only and certifies the stronger floor
cost(G) >= |G|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .costs import Block, Cluster, as_block, fundamental_median_cost
from .errors import PreconditionViolated, Stuck
from .graphs import (
    ClassTag,
    Edge,
    GraphClass,
    bridge_from_masks,
    classify_from_masks,
)

MODES = ("safe", "ultra_safe")

# L_n (n >= 3) costs at least |edges| - L_N_SHORTFALL: the safe mode's floor
L_N_SHORTFALL = 0.342

_TERMINAL = {
    "safe": frozenset({ClassTag.THREE_P2, ClassTag.A_N, ClassTag.L_N}),
    "ultra_safe": frozenset({ClassTag.THREE_P2, ClassTag.A_N}),
}


@dataclass(frozen=True)
class DecompositionTrace:
    """Audit record of one decomposition run: the removed pairs in order and
    the class of what was left. Replaying the removals must reproduce the
    residual; |g| = |residual| + 2 * len(removed_pairs)."""

    removed_pairs: tuple[tuple[Edge, Edge], ...]
    residual: GraphClass
    mode: str


@dataclass(frozen=True)
class LowerBoundCertificate:
    """A 1-median lower bound as an auditable sum: one term of exactly 2 per
    removed disjoint pair plus the residual class's certified cost."""

    bound: float
    derivation: tuple[tuple[str, float], ...]


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")


def find_safe_pair(g: Cluster, mode: str) -> tuple[Edge, Edge] | None:
    """Lexicographically first vertex-disjoint edge pair whose removal leaves
    a non-star graph (mode "safe") or a non-star non-bridge graph
    ("ultra_safe"). Returns None when no pair qualifies — exactly the
    fundamental graphs in safe mode, and {3-P2, A_n} in ultra mode. A star,
    a graph with fewer than two edges, or (ultra mode) a bridge graph raises
    ``PreconditionViolated``, as ``_require_safe_pair_preconditions``
    checks; the search itself is ``_first_safe_pair``, on the block's edges,
    degrees and masks.
    """
    _check_mode(mode)
    b = as_block(g)
    _require_safe_pair_preconditions(b, mode)
    return _first_safe_pair(b.edges, b.degrees, b.nbrs, mode)


def _require_safe_pair_preconditions(b: Block, mode: str) -> None:
    """Raise ``PreconditionViolated`` unless b is a non-star with two or
    more edges and, in ultra mode, not a bridge graph."""
    if b.num_edges < 2 or b.center is not None:
        raise PreconditionViolated("safe pairs are defined on non-star graphs")
    if mode == "ultra_safe" and b.bridge is not None:
        raise PreconditionViolated("ultra_safe mode requires a non-bridge graph")


def _first_safe_pair(
    edges: Sequence[Edge], deg: Sequence[int], nbrs: Sequence[int], mode: str
) -> tuple[Edge, Edge] | None:
    """``find_safe_pair`` of the non-star graph (non-bridge in ultra mode)
    whose edges, in index order, degrees and neighbour masks are given.

    A pair is tested on degrees, without building the remainder: with m
    edges, the remainder is a non-star iff no vertex keeps all m - 2
    remaining edges, and only a vertex of degree m - 2 or more can.
    The ultra mode's bridge test is ``bridge_from_masks`` on the neighbour
    masks with e's and f's ends cut from each other, over the candidate
    bridges other than e and f.
    """
    m = len(edges)
    hubs = [v for v, d in enumerate(deg) if d >= m - 2]
    # a bridge (s, t) of the remainder has deg'(s) + deg'(t) - 1 = m - 2,
    # and removing edges lowers degrees
    bridges = [b for b in edges if deg[b[0]] + deg[b[1]] >= m - 1] if mode == "ultra_safe" else []
    for i in range(m):
        e = edges[i]
        for j in range(i + 1, m):
            f = edges[j]
            if e[0] in f or e[1] in f:
                continue
            if any(deg[v] - (v in e) - (v in f) == m - 2 for v in hubs):
                continue
            if mode == "ultra_safe":
                cut = {e[0]: 1 << e[1], e[1]: 1 << e[0], f[0]: 1 << f[1], f[1]: 1 << f[0]}
                rest = [b for b in bridges if b != e and b != f]
                if bridge_from_masks(nbrs, rest, m - 2, cut) is not None:
                    continue
            return (e, f)
    return None


def decompose(g: Cluster, mode: str) -> DecompositionTrace:
    """Strip safe pairs until none is left, then classify the residual once.

    safe mode ends in {3-P2, A_n, L_n}; ultra_safe never passes through a
    bridge graph, so it ends in {3-P2, A_n}. No terminal class has a
    qualifying pair (3-P2 keeps one edge, and every disjoint pair of A_n or
    L_n leaves a star), so the loop stops at the first terminal graph. A
    residual that is not terminal contradicts the existence lemmas and
    raises Stuck (which would indicate a recognizer bug, not an input
    problem). A star, a graph with no edges, or (ultra mode) a bridge graph
    raises ``PreconditionViolated``.

    The preconditions are checked once, on g's ``Block``: its triangle
    test, then ``_require_safe_pair_preconditions``, as ``find_safe_pair``
    checks them. A safe pair leaves a non-star, and in ultra mode a
    non-bridge, so every remainder meets them. Every pair comes from
    ``_first_safe_pair`` on a copy of the block's edges, degrees and masks,
    from which each removed pair is taken out in place, and the residual is
    classified from what is left of them (``classify_from_masks``), so no
    ``Graph`` is built and no mask pass is made after the block's.
    """
    _check_mode(mode)
    b = as_block(g)
    if not b.triangle_free:
        raise PreconditionViolated("decomposition assumes a triangle-free graph")
    _require_safe_pair_preconditions(b, mode)
    edges, deg, nbrs = list(b.edges), list(b.degrees), list(b.nbrs)
    pairs: list[tuple[Edge, Edge]] = []
    pair = _first_safe_pair(edges, deg, nbrs, mode)
    while pair is not None:
        pairs.append(pair)
        for u, v in pair:
            edges.remove((u, v))
            deg[u] -= 1
            deg[v] -= 1
            nbrs[u] ^= 1 << v
            nbrs[v] ^= 1 << u
        pair = _first_safe_pair(edges, deg, nbrs, mode)
    cls = classify_from_masks(nbrs, edges)
    if cls.tag not in _TERMINAL[mode]:
        raise Stuck(f"no {mode} pair in non-terminal graph with edges {tuple(edges)}")
    return DecompositionTrace(tuple(pairs), cls, mode)


def residual_class_bound(cls: GraphClass) -> tuple[str, float]:
    """Certified 1-median cost floor of a fundamental residual class, labelled
    by ``cls.describe()``.

    3-P2, A_n and L_1 take ``fundamental_median_cost``, their exact closed
    forms; the rest of the L_n family takes the proven constants 11/3 (n=2)
    and |edges|-0.342 (n>=3), where L_n has n+2 edges. A class that is not
    fundamental, or an A_n or L_n without its n, raises ``Stuck``.
    """
    if cls.tag not in _TERMINAL["safe"]:
        raise Stuck(f"residual class {cls.describe()} is not fundamental")
    if cls.tag is not ClassTag.THREE_P2 and cls.n is None:
        raise Stuck(f"{cls.tag.value} class without its parameter n")
    exact = fundamental_median_cost(cls)
    if exact is not None:
        return (cls.describe(), exact)
    return (cls.describe(), 11 / 3 if cls.n == 2 else (cls.n + 2) - L_N_SHORTFALL)


def certificate_from_trace(trace: DecompositionTrace) -> LowerBoundCertificate:
    pairs = tuple(("disjoint_pair", 2.0) for _ in trace.removed_pairs)
    derivation = pairs + (residual_class_bound(trace.residual),)
    return LowerBoundCertificate(
        bound=sum(v for _, v in derivation),
        derivation=derivation,
    )


def certify_lower_bound(g: Cluster, mode: str) -> LowerBoundCertificate:
    """Certified 1-median lower bound via decomposition.

    safe mode guarantees bound >= |g| - 0.342; ultra_safe (on non-bridge
    input) guarantees bound >= |g|.
    """
    return certificate_from_trace(decompose(g, mode))


def trace_to_dict(trace: DecompositionTrace) -> dict:
    return {
        "mode": trace.mode,
        "pairs": [[list(e), list(f)] for e, f in trace.removed_pairs],
        "residual": {"tag": trace.residual.tag.value, "n": trace.residual.n},
    }
