"""Constant-round scheduling: each beta-node is inserted by a six-step local
gadget computed from the running set around it, and nodes take turns either
by identifier (slots 6k+1..6k+6 for id k) or by a coloring of the 16th power
(equal colors run concurrently, their gadgets cannot interact)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Iterator

from .errors import InputError, InternalError
from .graph import Graph, VertexSet, ball, diameter, distances_from
from .schedule import NO_FLIP, ReconfigInstance, Schedule, net_flip, run_side_by_side
from .schedule import first_violation, lost_cover, step_defect
from .sim import Trace

SLOT = 6
# Id-slotted schedules have SLOT·(max id + 1) steps; larger ids are refused.
ID_LIMIT = 100_000
# Colourings are proper on this power: same-colour plans, which toggle only
# nodes within 4 hops of their targets, run side by side.  A merged step that
# leaves x uncovered undoes x's running-set cover by some plan A and x's cover
# in A's lone step by another plan B, so both targets lie within 4 + 4 hops of
# x, 16 of each other (independence breaks only within 4 + 1 + 4 = 9).  It is
# even: two nodes lie within 16 hops iff their 8-balls meet, so a colouring is
# checked by walking balls of half this radius.
COLOR_POWER = 16


@dataclass(frozen=True)
class InsertionPlan:
    """Six-step fragment, one flip per step, that brings one beta-node into
    the running set.

    The fragment's final set keeps everything it did not have to remove: net
    removals are confined to the target's set-neighbors, so nodes of
    alpha ∩ beta never leave and previously inserted beta-nodes survive.
    """

    case_tag: str
    six_flips: tuple[VertexSet, ...]


def _complete(g: Graph, partial: VertexSet, pool: VertexSet, alpha: VertexSet, beta: VertexSet) -> VertexSet:
    """The nodes that extend the independent set ``partial`` greedily from
    ``pool``: beta-nodes first, then alpha-nodes, then the rest, each in
    ascending id order.  ``partial`` is not checked: the planner's
    ``(current - blockers) | {v}`` is independent by construction, and the
    window check of ``constant_rounds_schedule`` (``step_defect`` at d = 1)
    still rejects an end set that is not an MIS, so no property goes
    unchecked."""
    current = set(partial)
    added = []
    ordered = sorted(pool & beta) + sorted((pool & alpha) - beta) + sorted(pool - alpha - beta)
    for v in ordered:
        if v not in current and not (g.neighbors(v) & current):
            current.add(v)
            added.append(v)
    return frozenset(added)


def plan_insertion(
    g: Graph,
    current: AbstractSet[int],
    alpha: VertexSet,
    beta: VertexSet,
    v: int,
) -> InsertionPlan:
    """A six-step fragment, as flips, that brings v into the running set.

    ``current`` must be an MIS, so v has a set-neighbor to evict; the
    schedules keep this true window by window, starting from alpha.
    Candidate constructions are tried in a fixed order (the set-node-at-2
    shortcut, then the four helper cases, then need-driven parking and a
    single-helper sweep), each vetted step by step around its flip before
    being accepted, so an unsafe helper choice falls through to the next
    rung.  All witnesses are id-smallest, so plans are deterministic.  The
    changes stay within 4 hops of v, a node they can uncover lies within 8,
    and its covers within 12, so the vetting reads the running set up to 12
    hops out.  The vetting is these steps' only check, as no schedule is
    validated again; the caller that runs the plan checks that it ends at an
    MIS.  Every rung's six flips XOR to ``blockers | {v} | added`` (the
    helpers cancel), so a plan ends at its completion.
    """
    if v not in g:
        raise InputError(f"unknown node id {v}")
    if v not in beta:
        raise InputError(f"target {v} is not a beta-node")
    if v in current:
        raise InputError(f"target {v} is already in the set")
    blockers = g.neighbors(v) & current
    dist = distances_from(g, v, radius=4)
    target = frozenset({v})
    base = (current - blockers) | target
    added = _complete(g, base, frozenset(dist), alpha, beta)

    sphere2 = sorted(u for u, d in dist.items() if d == 2)
    sphere3 = frozenset(u for u, d in dist.items() if d == 3)

    def parked_flips(helpers: list[int]) -> list[VertexSet]:
        # Evict the helpers' set-neighbors, park the helpers, evict v's other
        # set-neighbors, add v, drop the helpers, restore and complete.
        parked = frozenset(c for c in helpers if c not in current)
        helper_blockers = frozenset(w for c in parked for w in g.neighbors(c) & current)
        restored = helper_blockers - blockers
        return [helper_blockers, parked, blockers - helper_blockers, target, parked, restored | added]

    def attempts() -> Iterator[tuple[str, list[VertexSet]]]:
        if any(u in current for u in sphere2):
            yield "alpha-at-2", [blockers, added | target] + [frozenset()] * (SLOT - 2)
        for u in sphere2:
            if not (g.neighbors(u) & blockers):
                yield "case1", parked_flips([u])
                break
        for u in sphere2:
            if blockers <= g.neighbors(u):
                partners = sorted(g.neighbors(u) & sphere3)
                if partners:
                    yield "case2", parked_flips([partners[0]])
                    break
        for u in sphere2:
            if not (g.neighbors(u) & sphere3) and (blockers - g.neighbors(u)):
                yield "case3", parked_flips([u])
                break
        outward = [u for u in sphere2 if g.neighbors(u) & sphere3]
        if outward:
            yield "case4", parked_flips(_independent_partners(g, outward, sphere3))
        needed = _needed_helpers(g, current, blockers, sphere2, sphere3)
        if needed is not None:
            yield ("case4" if needed else "direct"), parked_flips(needed)
        for c in sphere2 + sorted(sphere3):
            if c not in current:
                yield "helper", parked_flips([c])

    for tag, flips in attempts():
        if first_violation(g, current, flips, 4) is None:
            return InsertionPlan(tag, tuple(flips))

    raise InternalError(
        f"no insertion fragment validates for node {v}; 2-sphere {sphere2}, "
        f"3-sphere {sorted(sphere3)}, set-neighbors {sorted(blockers)}"
    )


def _independent_partners(g, outward, sphere3) -> list[int]:
    """One distance-3 partner per outward distance-2 node, chosen greedily so
    the picked partners are pairwise independent.  A node whose candidates all
    conflict is still covered: the conflicting partner sits within two hops."""
    chosen: list[int] = []
    for u in outward:
        cands = sorted(g.neighbors(u) & sphere3)
        if any(c in chosen for c in cands):
            continue
        for c in cands:
            if not any(g.has_edge(c, other) for other in chosen):
                chosen.append(c)
                break
    return chosen


def _needed_helpers(g, current, blockers, sphere2, sphere3) -> list[int] | None:
    """Helpers parked only where the mid-fragment set actually leaves a hole.

    Returns None when some hole admits no helper (the rung is skipped)."""
    chosen: list[int] = []
    candidates = [c for c in sphere2 + sorted(sphere3) if c not in current]
    for x in lost_cover(g, blockers, current - blockers, 4):
        near = ball(g, x, 4)
        if any(c in near for c in chosen):
            continue
        pick = None
        for c in candidates:
            if c in near and not any(g.has_edge(c, other) for other in chosen):
                pick = c
                break
        if pick is None:
            return None
        chosen.append(pick)
    return chosen


def constant_rounds_schedule(inst: ReconfigInstance, coloring: dict[int, int] | None = None) -> tuple[Schedule, Trace]:
    """Constant-round schedule: one six-step window per group of nodes, in
    which every beta-node of the group not yet in the set is inserted, the
    plans side by side.  Each step is checked once, at d = 4 by
    ``schedule.first_violation`` as ``plan_insertion`` vetted it alone;
    ``validate`` is not run again.

    With no ``coloring``, node k owns the window of steps 6k+1..6(k+1), so the
    length is 6·(max id + 1) however sparse the ids are, and ids must stay
    below ``ID_LIMIT``.  With a coloring, proper on the ``COLOR_POWER``-th
    power, each color class shares one window, and the lone checks hold for
    the merged steps: a plan toggles only nodes within 4 hops of its target,
    so a node x that a merged step leaves uncovered lost its running-set
    cover to some plan A and its cover in A's lone step to another plan B,
    which puts both targets within 4 + 4 hops of x and 16 of each other.
    The coloring is checked one class at a time at half the power: two
    same-colour nodes are within 16 hops iff their 8-balls meet, so a class
    of one node costs nothing, and a class of more costs its 8-balls.

    The changes span 4 hops, the nodes they can uncover 8, and their covers
    12.  The communication cost is charged as the 9-round collection,
    independent of the graph size; ``Trace.collect`` derives it by formula.
    """
    g = inst.graph
    diam = diameter(g, cap=6)
    if diam == math.inf:
        raise InputError("graph must be connected")
    if diam <= 5:
        raise InputError("diameter must exceed 5; use the constant-length pipeline")
    if coloring is None:
        top = max(g.nodes)
        if top >= ID_LIMIT:
            raise InputError(
                f"largest node id {top} is not below {ID_LIMIT}: the id-slotted schedule "
                f"would have {SLOT * (top + 1)} steps; relabel the nodes or pass a coloring"
            )
        windows, n_windows = {v: [v] for v in inst.beta}, top + 1
    else:
        stray = min(g.nodes.symmetric_difference(coloring), default=None)
        if stray is not None:
            where = "has none" if stray in g.nodes else "is not in the graph"
            raise InputError(f"coloring must assign a color to every node: node {stray} {where}")
        classes: dict[int, list[int]] = {}
        for v in sorted(g.nodes):
            classes.setdefault(coloring[v], []).append(v)
        # A node within half the power of two members marks both as clashing.
        clashing: set[int] = set()
        for members in classes.values():
            owner: dict[int, int] = {}
            for s in members if len(members) > 1 else ():
                for u in ball(g, s, COLOR_POWER // 2):
                    first = owner.setdefault(u, s)
                    if first != s:
                        clashing |= {first, s}
        if clashing:
            v = min(clashing)
            w = min(w for w in ball(g, v, COLOR_POWER) if coloring[w] == coloring[v] and w != v)
            raise InputError(f"coloring not proper on the {COLOR_POWER}th power: nodes {v} and {w} share color {coloring[v]}")
        # A colour's window is its rank, so a class with no beta-node keeps one.
        rank = {c: k for k, c in enumerate(sorted(classes))}
        windows, n_windows = {}, len(rank)
        for v in sorted(inst.beta):
            windows.setdefault(rank[coloring[v]], []).append(v)
    trace = Trace()
    trace.collect(g, 9)

    # Every window starts empty; only those holding a beta-node are visited.
    # A merged window's plans are over 16 hops apart and change 4-balls, and
    # step_defect at d = 1 reads 2 hops around a change, so one check per
    # window says each plan ends at an MIS.
    current = set(inst.alpha)
    flips = [NO_FLIP] * (SLOT * n_windows)
    for k in sorted(windows):
        plans = [plan_insertion(g, current, inst.alpha, inst.beta, v) for v in windows[k] if v not in current]
        window_flips = run_side_by_side([p.six_flips for p in plans], SLOT)
        flips[SLOT * k:SLOT * (k + 1)] = window_flips
        change = net_flip(window_flips)
        current ^= change
        if step_defect(g, current, change, 1) is not None:
            raise InternalError("window did not end at a maximal independent set")
    if current != inst.beta:
        raise InternalError(f"constructed schedule ends off beta at node {min(current ^ inst.beta)}")
    return Schedule(inst.alpha, tuple(flips)), trace


def greedy_power_coloring(g: Graph) -> dict[int, int]:
    """Centralized greedy coloring of the ``COLOR_POWER``-th power, ids
    ascending; colors are positive integers."""
    colors: dict[int, int] = {}
    for v in sorted(g.nodes):
        used = {colors[w] for w in ball(g, v, COLOR_POWER) if w in colors and w != v}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return colors


def parse_coloring_file(text: str) -> dict[int, int]:
    """Parse ``color <node id> <color int>`` lines; comments and blanks ok."""
    out: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] != "color":
            raise InputError(f"line {lineno}: malformed record {raw!r}")
        try:
            node, color = int(parts[1]), int(parts[2])
        except ValueError:
            raise InputError(f"line {lineno}: malformed record {raw!r}") from None
        if node in out:
            raise InputError(f"line {lineno}: duplicate color for node {node}")
        out[node] = color
    return out


def format_coloring_file(coloring: dict[int, int]) -> str:
    return "".join(f"color {v} {coloring[v]}\n" for v in sorted(coloring))
