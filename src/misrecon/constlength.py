"""The constant-length schedule pipeline: strip the shared core, classify the
components of alpha ∪ beta, and emit a schedule of exactly 28 steps for any
connected graph of diameter greater than 3: 18 for the non-isolated regime,
which gives 8 to the cascades of all components of diameter at least 3, and
10 for the isolated small components.
"""

from __future__ import annotations

import math

from .errors import InputError, InternalError
from .graph import (
    ComponentInfo,
    Graph,
    VertexSet,
    capped_diameter,
    components_of,
    diameter,
    distances_from,
)
from .schedule import NO_FLIP, PropertySpec, ReconfigInstance, Schedule, net_flip, run_side_by_side, validate
from .sim import Trace, ruling_set_32

def reduce_instance(inst: ReconfigInstance) -> ReconfigInstance:
    """Strip alpha ∩ beta and its neighborhood, returning the reduced instance
    on the remaining nodes (whose alpha' and beta' are again MIS there), or
    ``inst`` itself when alpha and beta are disjoint.

    Nodes in the shared core stay in every schedule step; their neighbors can
    never enter.  So the stripped nodes are those the reduced graph lacks, and
    a schedule for the reduced instance becomes one for the whole instance by
    adding the shared core to its start set.
    """
    g = inst.graph
    core = inst.alpha & inst.beta
    if not core:
        return inst
    kept = g.nodes - core - frozenset(w for v in core for w in g.neighbors(v))
    return ReconfigInstance(g.induced(kept), inst.alpha & kept, inst.beta & kept)


def layer_component(
    g: Graph,
    comp: VertexSet,
    alpha: VertexSet,
    beta: VertexSet,
    ruling: VertexSet,
) -> dict[int, VertexSet]:
    """Partition a component into the eight distance layers of the cascade,
    keyed by layer, from its ruling set (one anchor at diameter 3 or 4).

    Keys run from -2 to 5.  Even layers hold alpha-nodes, odd layers hold
    beta-nodes.  Layer 1 holds the beta-neighbors of the ruling set that
    either lead outward (a distance-2 route to layer 3) or have no neighbors
    outside the ruling set; layer -1 holds the remaining beta-neighbors.
    A distance-2 node adjacent to both layer 1 and layer -1 lands in layer 2:
    it must be gone before layer 1 is added, so the earlier removal wins.
    """
    y = frozenset(comp)
    if not ruling <= (alpha & y):
        raise InputError("ruling set must consist of the component's alpha-nodes")
    dist = distances_from(g, ruling, y)
    if frozenset(dist) != y:
        raise InternalError("ruling set does not reach the whole component")
    by_dist: dict[int, set[int]] = {}
    for v, d in dist.items():
        by_dist.setdefault(d, set()).add(v)
    if max(by_dist) > 5:
        raise InternalError("ruling set is not a (6,5)-ruling set of the component")

    r0 = frozenset(ruling)
    d1 = frozenset(by_dist.get(1, set()))
    d2 = frozenset(by_dist.get(2, set()))
    r3 = frozenset(by_dist.get(3, set()))
    r4 = frozenset(by_dist.get(4, set()))
    r5 = frozenset(by_dist.get(5, set()))

    to_r3 = distances_from(g, r3, y, radius=2)
    r1 = frozenset(
        v for v in d1 if to_r3.get(v) == 2 or (g.neighbors(v) & y) <= r0
    )
    rm1 = d1 - r1
    r2 = frozenset(v for u in r1 for v in g.neighbors(u) & y) - r0
    rm2 = d2 - r2

    layers = {-2: rm2, -1: rm1, 0: r0, 1: r1, 2: r2, 3: r3, 4: r4, 5: r5}
    _check_layers(g, y, alpha, beta, layers)
    return layers


def _check_layers(g, y, alpha, beta, layers) -> None:
    union: set[int] = set()
    for i, layer in layers.items():
        if union & layer:
            raise InternalError("layers overlap")
        union |= layer
        want = alpha if i % 2 == 0 else beta
        if not layer <= want:
            raise InternalError(f"layer {i} contains nodes from the wrong side")
    if union != y:
        raise InternalError("layers do not cover the component")
    # Load-bearing for the cascade: everything next to layer 1 is removed
    # before layer 1 is added.
    around = layers[0] | layers[2]
    for v in layers[1]:
        if not (g.neighbors(v) & y) <= around:
            raise InternalError("layer-1 node has a neighbor outside layers 0 and 2")


def schedule_big_component(
    g: Graph,
    comp: ComponentInfo,
    alpha: VertexSet,
    beta: VertexSet,
    trace: Trace,
) -> list[VertexSet]:
    """Eight-step cascade updating one component of diameter at least 3,
    returned as 8 flips from its alpha-part: steps 1 to 8 remove layer 4,
    add 5, remove 2, add 3, remove 0, add 1, remove -2 and add -1.  The
    ruling set is ``ruling_set_32``'s at diameter >= 5, else the smallest
    alpha-node with a node 3 hops away, which all nodes know after the
    4-round collect.  Each engine run is charged to ``trace``, here as its
    ``ruling-set`` phase; so are those of the other two fragment builders.

    Each ruling node has a layer-3 node 3 hops away, through layer 1: ruling
    nodes are >= 6 hops apart, at diameter >= 5 each node has one, and the
    anchor is chosen so.  As layer -2 touches only layer -1 and layer 2 touches
    layer 1, after every step each node of the component is within 4 hops of
    the set, each alpha-node within 3 except after step 3, and each beta-node
    within 3 except after step 5.  So while cascades run side by side, an
    epsilon-node's alpha- or beta-neighbor keeps it within 4 hops (one in a
    component that sits out part 3 of ``schedule_non_isolated`` is within 1)."""
    y = comp.vertices
    alpha_c, beta_c = alpha & y, beta & y
    if alpha_c & beta_c:
        raise InputError("component must have disjoint alpha and beta parts")
    if alpha_c | beta_c != y:
        raise InputError("component vertices must all be alpha- or beta-nodes")
    if comp.diameter < 3:
        raise InputError(f"component diameter must be at least 3, got {comp.diameter}")

    if comp.diameter <= 4:
        anchor = next((v for v in sorted(alpha_c) if 3 in distances_from(g, v, y, radius=3).values()), None)
        if anchor is None:
            raise InternalError("no alpha endpoint of a distance-3 pair in the component")
        ruling = frozenset({anchor})
    else:
        ruling = ruling_set_32(g, comp, alpha_c, beta_c, trace)
    layers = layer_component(g, y, alpha_c, beta_c, ruling)
    # _check_layers proved that the layers partition the component, even ones
    # alpha-nodes and odd ones beta-nodes, so removing or adding a layer
    # toggles it and the eight flips together toggle alpha_c ^ beta_c.
    return [layers[k] for k in (4, 5, 2, 3, 0, 1, -2, -1)]


def _component_graph(comps: list[ComponentInfo]) -> Graph:
    """Graph on the given components (labeled by minimum vertex id) with an
    edge where one alpha-covers the other: some epsilon-node has an
    alpha-neighbor in one and a beta-neighbor in the other."""
    labels = {comp.min_id for comp in comps}
    return Graph(labels, [(i, comp.min_id) for comp in comps for i in comp.alpha_covered if i in labels])


def _batch_update(flips: list[VertexSet], parts: list[VertexSet], alpha, beta) -> None:
    """The two steps updating a batch of components: remove its alpha-part,
    then add its beta-part."""
    vertices = frozenset().union(*parts)
    flips += [alpha & vertices, beta & vertices]


def schedule_non_isolated(
    g: Graph,
    comps: list[ComponentInfo],
    alpha: VertexSet,
    beta: VertexSet,
    trace: Trace,
) -> list[VertexSet]:
    """Eighteen-step fragment updating the components of ``comps`` that are
    non-isolated or of diameter at least 3, as 18 flips from their alpha-part.

    Order of parts: alpha-covered-only components; components alpha-covered by
    the MIS over doubly-covered components; the big-component cascades in
    parallel; the MIS components; remaining doubly-covered; beta-covered-only.
    """
    comps = [c for c in comps if not c.isolated or c.diameter >= 3]
    small = [c for c in comps if c.diameter <= 2]
    for c in small:
        if not (c.alpha_covered or c.beta_covered):
            raise InternalError("non-isolated small component with no covering label")
    m_labels = trace.mis("component-mis", _component_graph([c for c in small if c.alpha_covered and c.beta_covered]))

    def part(c: ComponentInfo) -> int:
        """The part updating small component c, read off its covering labels:
        1 if only alpha-covered, 6 if only beta-covered; if doubly covered,
        4 in the MIS, else 2 if alpha-covered by an MIS component, else 5."""
        if not (c.alpha_covered and c.beta_covered):
            return 1 if c.alpha_covered else 6
        if c.min_id in m_labels:
            return 4
        return 2 if c.alpha_covered & m_labels else 5

    universe = frozenset().union(*(c.vertices for c in comps))
    flips: list[VertexSet] = []
    for k in (1, 2):
        _batch_update(flips, [c.vertices for c in small if part(c) == k], alpha, beta)
    # Part 3: all big components cascade in parallel over eight steps.
    fragments = [schedule_big_component(g, c, alpha, beta, trace) for c in comps if c.diameter >= 3]
    flips += run_side_by_side(fragments, 8)
    for k in (4, 5, 6):
        _batch_update(flips, [c.vertices for c in small if part(c) == k], alpha, beta)

    if net_flip(flips) != (alpha ^ beta) & universe:
        raise InternalError("non-isolated fragment does not end at beta")
    return flips


def schedule_isolated(
    g: Graph,
    comps: list[ComponentInfo],
    alpha: VertexSet,
    beta: VertexSet,
    trace: Trace,
) -> list[VertexSet]:
    """Ten-step fragment updating the isolated components of ``comps`` of
    diameter at most 2, returned as 10 flips from their alpha-part.

    Each component is absorbed together with its fringe, its epsilon-neighbors.
    Components of absorbed diameter at most 2 are updated in two waves around
    an MIS of their contact graph (4 steps).  Components of absorbed diameter
    3 run the six-step gadget through an escape node: the smallest fringe
    node that misses both an alpha- and a beta-node of its component.
    ``comps`` must come from ``components_of(g, alpha, beta)`` with the same
    alpha and beta.

    Absorbed components are disjoint with no check here: ``components_of``
    marks a component isolated only if each adjacent epsilon-node has all of
    its alpha- and beta-neighbors inside it, so no epsilon-node touches two
    isolated components.  The absorbed diameter is at most the core's plus
    one, which the ``diameter`` check below confirms.
    """
    comps = [c for c in comps if c.isolated and c.diameter <= 2]
    eps = g.nodes - alpha - beta
    shallow: dict[int, VertexSet] = {}  # label -> core, absorbed diameter <= 2
    owner: dict[int, int] = {}  # fringe node -> label, absorbed diameter <= 2
    escapes: dict[int, tuple[VertexSet, VertexSet]] = {}  # escape node -> parts, absorbed diameter 3
    for c in comps:
        fringe = frozenset().union(*(g.neighbors(v) for v in c.vertices)) & eps
        aug = diameter(g, c.vertices | fringe, cap=4)
        if aug == math.inf or aug > 3:
            raise InternalError("augmented isolated component has diameter above 3")
        if aug <= 2:
            shallow[c.min_id] = c.vertices
            owner.update(dict.fromkeys(fringe, c.min_id))
            continue
        a_part, b_part = alpha & c.vertices, beta & c.vertices
        u = next((u for u in sorted(fringe) if b_part - g.neighbors(u) and a_part - g.neighbors(u)), None)
        if u is None:
            raise InternalError(f"no escape triple in a diameter-3 isolated component {sorted(c.vertices)}")
        escapes[u] = a_part, b_part
    universe = frozenset().union(*(c.vertices for c in comps))
    flips: list[VertexSet] = []

    # Part 1: contact graph over the shallow components (edges where their
    # fringes touch), MIS first, then the rest.
    edges = {(i, owner[w]) for e, i in owner.items() for w in g.neighbors(e) if owner.get(w, i) != i}
    m_labels = trace.mis("blob-mis", Graph(shallow, edges))
    for wave in (m_labels, shallow.keys() - m_labels):
        _batch_update(flips, [shallow[i] for i in wave], alpha, beta)

    # Part 2: six-step gadget for the deep components.  A selected one parks
    # u, swaps its core through the anchor b, then drops u; a skipped one
    # swaps its core in the same removal and addition.
    mprime = trace.mis("escape-mis", g.induced(escapes))
    fragments = []
    for u, (a_part, b_part) in escapes.items():
        if u in mprime:
            kept = a_part - g.neighbors(u)
            b = frozenset({min(b_part - g.neighbors(u))})
            fragments.append([a_part - kept, frozenset({u}), kept, b, frozenset({u}), b_part - b])
        else:
            fragments.append([NO_FLIP, NO_FLIP, a_part, b_part])
    flips += run_side_by_side(fragments, 6)

    if net_flip(flips) != (alpha ^ beta) & universe:
        raise InternalError("isolated fragment does not end at beta")
    return flips


def constant_length_schedule_distributed(
    inst: ReconfigInstance, trace: Trace | None = None
) -> tuple[Schedule, Trace]:
    """A valid 28-step schedule for any connected instance of diameter > 3,
    with the trace its cost was charged to (a fresh default one if none is
    given); the trace's mode and seed set every MIS run.

    Every MIS and ruling-set call runs on the round engine; calls of one
    phase run in parallel, so a phase costs its slowest call's rounds.  The
    two fixed-length phases are derived, not executed: their cost is a
    closed form of the graph, ``reduce_instance`` computes the broadcast's
    result centrally and nothing reads the collected balls.  The shared-core
    broadcast (core nodes announce, their neighbors relay) takes 2 rounds and
    one message per port of a core or halo node; the 4-round collect on the
    reduced graph is charged by ``Trace.collect``.  g has no node without
    neighbors, as it is connected with diameter > 3, and the reduced graph
    is empty (when alpha = beta) or has none, as such a node would be in
    both its alpha and its beta.  Both fragment builders always run."""
    if trace is None:
        trace = Trace()
    g = inst.graph
    diam = capped_diameter(g)
    if diam == math.inf:
        raise InputError("graph must be connected")
    if diam <= 3:
        raise InputError("diameter must exceed 3; use the small-diameter fallback")
    red = reduce_instance(inst)
    trace.charge("broadcast", 2, sum(map(g.degree, g.nodes - red.graph.nodes)), g)
    h, alpha, beta = red.graph, red.alpha, red.beta
    trace.collect(h, 4)
    comps = components_of(h, alpha, beta)
    flips = schedule_non_isolated(h, comps, alpha, beta, trace) + schedule_isolated(h, comps, alpha, beta, trace)

    # Alpha is the shared core plus each fragment's start, its alpha-part.
    sched = Schedule(inst.alpha, tuple(flips))
    violation = validate(inst, sched, PropertySpec(4))
    if violation is not None:
        raise InternalError(f"assembled schedule invalid: {violation.describe()}")
    return sched, trace
