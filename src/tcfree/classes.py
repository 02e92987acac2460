"""Recognition and optimization for four hereditary classes defined by
excluded Truemper configurations.

The classes, from largest to smallest surface of exclusions:

  gut     no thetas, pyramids, prisms, or proper wheels
  gu      gut plus no twin wheels
  gt      gut plus no universal wheels
  gutcap  gut plus no caps

Each class obeys the same structure theorem shape: a member either lies in
a small basic family or admits a clique cutset. Recognition therefore tests
every decomposition-tree leaf against the class's basic family, and the
optimization routines plug basic-family solvers into the generic
clique-cutset frameworks. Coloring graphs in gt and every optimization
problem on gut (beyond what the oracle module can brute-force) are out of
scope: maximum clique is NP-hard there and the rest are open.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .chordal import (
    _chordal_colors,
    _mwss_in_order,
    _require_order,
    chordal_mwc,
    chordal_mwss,
    simplicial_order,
)
from .decomposition import (
    DecompositionTree,
    Join,
    build_tree,
    solve_coloring,
    solve_mwc,
    solve_mwss,
)
from .detectors import (
    C6BAR,
    CAP,
    HOLE,
    K23,
    W54,
    Certificate,
    canonical_cycle,
    check_certificate,
    find_cap,
    find_long_hole,
    find_small_obstruction,
    hole_expansion,
)
from .graphs import (
    Coloring,
    Graph,
    WeightedGraph,
    anticomponents,
    complement,
    component_of,
    induced_subgraph,
    iter_bits,
    mask_of,
    masked_components,
    stable_triple,
    true_twin_partition,
)
from .rings import (
    _cycle_mwss,
    _single_cycle_order,
    recognize_hyperhole,
    recognize_ring,
    weighted_cycle_color,
)

CLASS_IDS = ("gut", "gu", "gt", "gutcap")

# Upper bounds on the chromatic number in terms of the clique number omega,
# each with its formula as reported: per class, plus 7-hyperantiholes.
CHI_BOUNDS: dict[str, tuple[str, Callable[[int], int]]] = {
    "gu": ("omega + 1", lambda omega: omega + 1),
    "gt": ("floor(3 * omega / 2)", lambda omega: 3 * omega // 2),
    "gutcap": ("floor(3 * omega / 2)", lambda omega: 3 * omega // 2),
    "gut": ("2 * omega ** 4", lambda omega: 2 * omega**4),
    "hyperantihole7": ("floor(4 * omega / 3)", lambda omega: 4 * omega // 3),
}

class NotInClassError(ValueError):
    """The input lies outside the class, for the reason exc.rejection gives."""

    def __init__(self, rejection: Recognition):
        super().__init__(rejection.reason)
        self.rejection = rejection


@dataclass(frozen=True)
class Recognition:
    """Membership verdict. On rejection, either a concrete small obstruction
    or the decomposition leaf (and when applicable its anticomponent) that
    failed the basic-family test."""

    member: bool
    certificate: Optional[Certificate] = None
    reason: str = ""
    leaf: Optional[frozenset[int]] = None
    anticomponent: Optional[frozenset[int]] = None

    def __bool__(self) -> bool:
        return self.member


# Each class has one leaf function, leaf(g, atom), the one place that
# decides an atom's family: it runs the class's basic-family test on the
# atom, a vertex mask of g, and returns the rejection naming the failing
# leaf, or the atom's basic graphs in g's labels: for gut, gu and gutcap a
# Join of one Piece per anticomponent, for gt one Piece for the atom. A
# Piece is the basic family with its evidence, its parts, and the leaf
# solvers built from them; gut has no solvers, so its pieces are evidence
# only. Anticomponents and twin classes are masks of g too, so no leaf
# copies a subgraph; the only copies are the true-twin quotients that a
# search reads, one per non-clique gt atom and per gut anticomponent of two
# or more vertices, and none for gutcap. gut and gutcap also exclude graphs
# that their leaf tests do not see; their global test returns a rejection
# with a certificate before the decomposition is built.


def _leaf_rejection(reason: str, atom: int, ac: int = 0) -> Recognition:
    return Recognition(False, None, reason, frozenset(iter_bits(atom)), frozenset(iter_bits(ac)) if ac else None)


class Analysis(NamedTuple):
    """The decomposition tree (None on a global rejection), the leaf
    function's answers on the leaves before the first rejection, in tree
    order, and the rejection (None for a member)."""

    tree: Optional[DecompositionTree]
    leaves: list
    rejection: Optional[Recognition]


def analyze(g: Graph, cls: str) -> Analysis:
    """The class's global test, then its leaf function on each leaf in tree
    order up to the first rejection: the one pass that the class's
    recognizer and solvers read."""
    # read per call, so a leaf function patched on the module is the one run
    leaf = {"gut": _gut_leaf, "gu": _gu_leaf, "gt": _gt_leaf, "gutcap": _gutcap_leaf}[cls]
    global_test = {"gut": _gut_global, "gutcap": _gutcap_global}.get(cls)
    rejection = None if global_test is None else global_test(g)
    if rejection is not None:
        return Analysis(None, [], rejection)
    tree, leaves = build_tree(g), []
    for node in tree.leaves():
        got = leaf(g, node.mask)
        if isinstance(got, Recognition):
            return Analysis(tree, leaves, got)
        leaves.append(got)
    return Analysis(tree, leaves, None)


def _recognize(g: Graph, cls: str) -> Recognition:
    rejection = analyze(g, cls).rejection  # falsy, so tested against None
    return Recognition(True) if rejection is None else rejection


def _leaf_solvers(g: Graph, cls: str) -> tuple[DecompositionTree, list]:
    """The tree of a member and its leaves' solvers; NotInClassError else."""
    tree, leaves, rejection = analyze(g, cls)
    if rejection is not None:
        raise NotInClassError(rejection)
    return tree, leaves


def _twin_quotient_search(g: Graph) -> Callable[..., Optional[Certificate]]:
    """search(find, *args) runs find(quotient, *args) on the true-twin
    quotient of g and lifts the certificate to g, each vertex to the least
    vertex of its twin class.

    K23, C6BAR, W54, caps and long holes have no two true twins, so every
    copy in g meets a twin class at most once and g holds one exactly when
    the quotient does. The classes are ordered by least vertex, so the lift
    is monotone: it keeps the least copy, the first one in a search's order
    and canonical_cycle, and the certificate is the one find(g, *args)
    gives. Every search on g shares the one quotient, which is g itself when
    no two vertices are twins.
    """
    _, reps = true_twin_partition(g)
    quotient = g if len(reps) == g.n else induced_subgraph(g, reps)[0]

    def search(find: Callable[..., Optional[Certificate]], *args) -> Optional[Certificate]:
        cert = find(quotient, *args)
        return None if cert is None else cert.relabel(reps.__getitem__)

    return search


# ---------------------------------------------------------------------------
# basic graphs


CLIQUE = "clique"
CHORDAL = "chordal"
HYPERHOLE = "hyperhole"
RING = "ring"
ANTIHOLE = "antihole"
LONG_HOLE_FREE = "long-hole-free"
ALPHA2 = "alpha2"


def _heaviest(w: Sequence, mask: int) -> tuple:
    """The heaviest vertex of positive weight in mask, the least on ties,
    as a (weight, vertices) answer; weight 0 and no vertex when there is
    none."""
    best = 0
    best_set: frozenset[int] = frozenset()
    for v in iter_bits(mask):
        if w[v] > best:
            best, best_set = w[v], frozenset((v,))
    return best, best_set


def _positive(w: Sequence, mask: int) -> tuple:
    """The vertices of positive weight in mask and their total weight."""
    chosen = [v for v in iter_bits(mask) if w[v] > 0]
    return sum(w[v] for v in chosen), frozenset(chosen)


@dataclass(frozen=True)
class Piece:
    """A basic graph of a leaf: its family and its evidence, the parts, with
    the leaf solvers built from them. The parts are vertex masks of the
    whole graph:

      clique     one part, the clique
      chordal    one part, the chordal graph
      hyperhole  k >= 4 clique parts in cyclic order, consecutive parts
                 complete and the others anticomplete
      ring       the parts of a good partition, in cyclic order (k >= 5
                 in gut)
      antihole   the seven parts of a 7-hyperantihole in antihole order,
                 so consecutive parts are anticomplete and the others
                 complete
      long-hole-free  one part, with no hole of length five or more
      alpha2     one part, with no three pairwise nonadjacent vertices

    The last two are gut's, which has no solvers: they are evidence only,
    and every solver raises ValueError on them. Only the chordal and
    hyperhole families have a colorer.
    """

    family: str
    parts: tuple[int, ...]

    @property
    def mask(self) -> int:
        # the parts are disjoint, so their sum is their union
        return sum(self.parts)

    def mwc(self, wg: WeightedGraph) -> tuple:
        w, parts = wg.weights, self.parts
        k = len(parts)
        if self.family == CLIQUE:
            return _positive(w, parts[0])
        if self.family == CHORDAL:
            return chordal_mwc(wg, mask=parts[0])
        if self.family == HYPERHOLE:
            # a clique lies in two consecutive parts, whose union is a clique
            answers = (_positive(w, parts[i] | parts[(i + 1) % k]) for i in range(k))
        elif self.family == RING:
            # parts at cyclic distance two or more are anticomplete, so with
            # k >= 4 a clique lies in two consecutive parts, whose union is
            # chordal: nested neighborhoods leave no C4
            answers = (chordal_mwc(wg, mask=parts[i] | parts[(i + 1) % k]) for i in range(k))
        elif self.family == ANTIHOLE:
            # the maximal cliques: the 7 triples of pairwise nonconsecutive
            # parts
            answers = (_positive(w, parts[i] | parts[(i + 2) % 7] | parts[(i + 4) % 7]) for i in range(7))
        else:
            raise ValueError(f"no solver for a {self.family} piece")
        # a generator, so only the best answer so far stays alive
        return max(answers, key=itemgetter(0))

    def mwss(self, wg: WeightedGraph, mask: int) -> tuple:
        g, w, parts = wg.graph, wg.weights, self.parts
        if self.family == CLIQUE:
            return _heaviest(w, mask)
        if self.family == CHORDAL:
            return chordal_mwss(wg, mask=mask)
        if self.family == HYPERHOLE:
            # a stable set holds at most one vertex per part, from parts
            # stable on the cycle; a part that mask empties weighs 0 and is
            # never chosen
            tops = [_heaviest(w, p & mask) for p in parts]
            value, chosen = _cycle_mwss([top[0] for top in tops])
            return value, frozenset([v for i in chosen for v in tops[i][1]])
        if self.family == ANTIHOLE:
            # a stable set holds at most one vertex from each of two
            # consecutive parts
            tops = [_heaviest(w, p & mask) for p in parts]
            pairs = [(tops[i][0] + tops[i - 1][0], tops[i][1] | tops[i - 1][1]) for i in range(7)]
            return max(pairs, key=itemgetter(0))
        if self.family != RING:
            raise ValueError(f"no solver for a {self.family} piece")
        # a stable set meets a part at most once, and the ring minus any
        # whole part is chordal, for every hole of a ring passes through all
        # its parts; so the optimum either misses the part with the fewest
        # vertices in mask, or holds one vertex u of it and misses N[u].
        # N[u] holds u's part, a clique, so every kernel reads a subset of
        # rest and one elimination order of rest serves them all
        least = min(parts, key=lambda p: (p & mask).bit_count())
        rest = mask & ~least
        order = _require_order(g, rest)
        best, best_set = _mwss_in_order(wg, order, rest)
        for u in iter_bits(least & mask):
            if w[u] > 0:
                value, chosen = _mwss_in_order(wg, order, rest & ~g.closed_mask(u))
                if value + w[u] > best:
                    best, best_set = value + w[u], chosen | {u}
        return best, best_set

    def color(self, g: Graph) -> tuple[dict[int, int], int]:
        parts = self.parts
        if self.family == CHORDAL:
            return _chordal_colors(g, parts[0])
        if self.family != HYPERHOLE:
            raise ValueError(f"no colorer for a {self.family} piece")
        # each part's weighted cycle color set, handed out over its vertices
        sets, count = weighted_cycle_color(len(parts), [p.bit_count() for p in parts])
        return {v: c for part, cs in zip(parts, sets) for v, c in zip(iter_bits(part), cs)}, count


# ---------------------------------------------------------------------------
# gut


def _gut_leaf(g: Graph, atom: int) -> Join | Recognition:
    """The leaf's anticomponents as a Join: a single vertex is a clique,
    and every other anticomponent h must be a long ring, or long-hole-free,
    or have no three pairwise nonadjacent vertices, tested in that order.
    The first two tests run on h's true-twin quotient, which answers each
    the same: h is a ring exactly when its quotient is one, with the same
    k, since all holes of a ring have length k, and h's good partition is
    the quotient's lifted through the twin classes; and a long hole has no
    true twins."""
    out = []
    for ac in anticomponents(g, atom):
        if ac & (ac - 1) == 0:
            out.append(Piece(CLIQUE, (ac,)))
            continue
        classes, reps = true_twin_partition(g, ac)
        quotient = induced_subgraph(g, reps)[0]
        ring = recognize_ring(quotient)
        if ring is not None and ring.k >= 5:
            out.append(Piece(RING, tuple(sum(classes[i] for i in part) for part in ring.parts)))
        elif find_long_hole(quotient) is None:
            out.append(Piece(LONG_HOLE_FREE, (ac,)))
        elif stable_triple(g, ac) is None:
            out.append(Piece(ALPHA2, (ac,)))
        else:
            reason = "leaf anticomponent is not a long ring, contains a long hole, and has a stable set of size three"
            return _leaf_rejection(reason, atom, ac)
    return Join(tuple(out))


def _gut_global(g: Graph) -> Optional[Recognition]:
    search = _twin_quotient_search(g)
    for kind in (K23, C6BAR, W54):
        cert = search(find_small_obstruction, kind)
        if cert is not None:
            return Recognition(False, cert, f"contains {kind}")
    return None


def recognize_gut(g: Graph) -> Recognition:
    """The class forbids exactly the Truemper configurations that are
    anticonnected and contain a long hole, plus three small graphs. So:
    reject on a small obstruction, then test each decomposition leaf."""
    return _recognize(g, "gut")


# ---------------------------------------------------------------------------
# gu


def _path_forest(g: Graph, mask: int) -> bool:
    degrees = [(g.adj[v] & mask).bit_count() for v in iter_bits(mask)]
    if max(degrees) > 2:
        return False
    return sum(degrees) // 2 == len(degrees) - len(masked_components(g, mask))


def recognize_bu_h(g: Graph, mask: Optional[int] = None) -> Optional[tuple[Piece, ...]]:
    """The pieces of a gu decomposition leaf, the subgraph that mask
    induces (all of g when omitted), one per anticomponent, or None.

    Members have every nontrivial anticomponent isomorphic to two
    nonadjacent vertices, or a single nontrivial anticomponent that is a
    long hole or a disjoint union of paths on at least three vertices. A
    hole is a hyperhole with single-vertex parts in cyclic order; K1, K2bar
    and path unions are chordal.
    """
    acs = anticomponents(g, mask)
    wide = [ac for ac in acs if ac.bit_count() > 1]
    if all(ac.bit_count() == 2 for ac in wide):
        return tuple([Piece(CHORDAL, (ac,)) for ac in acs])
    if len(wide) > 1:
        return None
    h = wide[0]
    order = _single_cycle_order(g, h)
    if order is not None and len(order) >= 5:
        # parts from a list, as in build_tree: tuple() of a generator
        # reallocates as it grows, and that churn raises peak memory
        piece = Piece(HYPERHOLE, tuple([1 << v for v in order]))
    elif _path_forest(g, h):
        piece = Piece(CHORDAL, (h,))
    else:
        return None
    return tuple([piece if ac == h else Piece(CHORDAL, (ac,)) for ac in acs])


def _gu_leaf(g: Graph, atom: int) -> Join | Recognition:
    pieces = recognize_bu_h(g, atom)
    if pieces is not None:
        return Join(pieces)
    reason = "leaf is not an expansion of a long hole or a path union by universal and pairwise-nonadjacent vertices"
    return _leaf_rejection(reason, atom)


def recognize_gu(g: Graph) -> Recognition:
    return _recognize(g, "gu")


def mwc_gu(wg: WeightedGraph) -> tuple:
    tree, joins = _leaf_solvers(wg.graph, "gu")
    return solve_mwc(wg, tree, [j.mwc for j in joins])


def mwss_gu(wg: WeightedGraph) -> tuple:
    tree, joins = _leaf_solvers(wg.graph, "gu")
    return solve_mwss(wg, tree, [j.mwss for j in joins])


def color_gu(g: Graph) -> Coloring:
    tree, joins = _leaf_solvers(g, "gu")
    return solve_coloring(g, tree, [j.color for j in joins])


def mwc_mwss_gu(wg: WeightedGraph) -> tuple:
    """((clique weight, clique), (stable weight, stable set)), over one
    decomposition tree and one classification of its leaves."""
    tree, joins = _leaf_solvers(wg.graph, "gu")
    return solve_mwc(wg, tree, [j.mwc for j in joins]), solve_mwss(wg, tree, [j.mwss for j in joins])


# ---------------------------------------------------------------------------
# gt


def _gt_leaf(g: Graph, atom: int) -> Piece | Recognition:
    """The atom's basic family and evidence. Contracted by true twins, a gt
    atom is a single vertex (the atom is a clique), a ring, or the
    7-antihole (the atom is a 7-hyperantihole). The twin classes come from
    closed neighborhoods within the atom, and the quotient's parts are
    lifted through them; the classes are disjoint masks, so the sum of a
    part's classes is their union."""
    classes, reps = true_twin_partition(g, atom)
    if len(classes) == 1:
        return Piece(CLIQUE, (atom,))
    quotient = induced_subgraph(g, reps)[0]
    ring = recognize_ring(quotient)
    if ring is not None:
        return Piece(RING, tuple(sum(classes[i] for i in part) for part in ring.parts))
    if quotient.n == 7:
        order = _single_cycle_order(complement(quotient))
        if order is not None:
            return Piece(ANTIHOLE, tuple(classes[i] for i in order))
    return _leaf_rejection("leaf true-twin quotient is not a ring, a single vertex, or a 7-antihole", atom)


def recognize_gt(g: Graph) -> Recognition:
    return _recognize(g, "gt")


def mwc_gt(wg: WeightedGraph) -> tuple:
    """Maximum weight clique for gt: the best answer over the atoms, each
    atom solved from its basic family (see Piece). Every atom gets the
    recognizer's leaf test, so this rejects exactly what recognize_gt
    rejects."""
    tree, atoms = _leaf_solvers(wg.graph, "gt")
    return solve_mwc(wg, tree, [atom.mwc for atom in atoms])


def mwss_gt(wg: WeightedGraph) -> tuple:
    tree, atoms = _leaf_solvers(wg.graph, "gt")
    return solve_mwss(wg, tree, [atom.mwss for atom in atoms])


# ---------------------------------------------------------------------------
# gutcap


def _gutcap_leaf(g: Graph, atom: int) -> Join | Recognition:
    """The leaf's anticomponents as a Join: each must be chordal or a
    hyperhole with at least 5 parts (an anticomponent is never a
    4-hyperhole, whose complement is disconnected)."""
    out = []
    for ac in anticomponents(g, atom):
        if simplicial_order(g, ac) is not None:
            out.append(Piece(CHORDAL, (ac,)))
            continue
        parts = recognize_hyperhole(g, ac)
        if parts is None or len(parts) < 5:
            return _leaf_rejection("leaf anticomponent is neither chordal nor a long hyperhole", atom, ac)
        out.append(Piece(HYPERHOLE, tuple(parts)))
    return Join(tuple(out))


def _gutcap_global(g: Graph) -> Optional[Recognition]:
    """The leaf test passes K23, a join of two stable sets, and never sees
    a cap whole, since a cap has a clique cutset."""
    search = _twin_quotient_search(g)
    cert = search(find_small_obstruction, K23)
    if cert is not None:
        return Recognition(False, cert, f"contains {K23}")
    cert = search(find_cap)
    return None if cert is None else Recognition(False, cert, "contains a cap")


def recognize_gutcap(g: Graph) -> Recognition:
    return _recognize(g, "gutcap")


def mwc_gutcap(wg: WeightedGraph) -> tuple:
    tree, joins = _leaf_solvers(wg.graph, "gutcap")
    return solve_mwc(wg, tree, [j.mwc for j in joins])


def mwss_gutcap(wg: WeightedGraph) -> tuple:
    tree, joins = _leaf_solvers(wg.graph, "gutcap")
    return solve_mwss(wg, tree, [j.mwss for j in joins])


def color_gutcap(g: Graph) -> Coloring:
    tree, joins = _leaf_solvers(g, "gutcap")
    return solve_coloring(g, tree, [j.color for j in joins])


def mwc_mwss_gutcap(wg: WeightedGraph) -> tuple:
    """((clique weight, clique), (stable weight, stable set)), over one
    decomposition tree and one classification of its leaves."""
    tree, joins = _leaf_solvers(wg.graph, "gutcap")
    return solve_mwc(wg, tree, [j.mwc for j in joins]), solve_mwss(wg, tree, [j.mwss for j in joins])


# ---------------------------------------------------------------------------
# double star cutset


def double_star_cutset_from_cap(g: Graph, cap: Certificate) -> frozenset[int]:
    """Cutset S with S inside N[x] u N[y] for the cap's attachment edge xy,
    separating the cap vertex from the rest of its hole.

    With the hole written x, y, x_1, .., x_h, the set S collects x, y, the
    outside vertices attaching to the hole exactly like x, y, x_1, or x_h
    do, and the vertices complete to the hole. Every piece is inside
    N[x] u N[y] by construction; the separation property holds whenever the
    graph avoids thetas, pyramids, prisms, and proper wheels, and is
    verified here, so a failure proves the graph lies outside gut.
    """
    if cap.kind != CAP or not check_certificate(g, cap):
        raise ValueError("valid cap certificate required")
    rim = list(cap.vertices)
    c = cap.center
    k = len(rim)
    attach = [i for i, v in enumerate(rim) if g.has_edge(c, v)]
    i, j = attach
    p = i if (i + 1) % k == j else j
    x, y = rim[p], rim[(p + 1) % k]
    interior = [rim[(p + 1 + t) % k] for t in range(1, k - 1)]

    expansion = hole_expansion(g, Certificate(HOLE, canonical_cycle(rim)))
    twin_at = {expansion.hole[t]: expansion.twin_sets[t] for t in range(k)}
    cut = {x, y} | set(expansion.universal)
    for v in (x, y, interior[0], interior[-1]):
        cut |= set(twin_at[v]) - {v}

    star = g.closed_mask(x) | g.closed_mask(y)
    if mask_of(cut) & ~star:
        reason = "cutset escapes the closed neighborhoods of the attachment edge"
    elif component_of(g, c, g.full_mask() & ~mask_of(cut)) & mask_of(interior):
        reason = "cap vertex stays connected to the far rim"
    else:
        return frozenset(cut)
    raise NotInClassError(Recognition(False, reason=reason))
