"""Reconfiguration instances, schedules, and the validator every algorithm's
output must pass.

A schedule is a sequence of vertex sets from alpha to beta.  Each intermediate
set must be a (2, d)-ruling set (independent and d-dominating), and the
symmetric difference of consecutive sets must be independent, so no two
neighbors flip membership in the same step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .graph import Graph, VertexSet, distances_from, edge_inside, is_mis


@dataclass(frozen=True)
class ReconfigInstance:
    """A graph plus the two maximal independent sets to reconfigure between."""

    graph: Graph
    alpha: VertexSet
    beta: VertexSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", frozenset(self.alpha))
        object.__setattr__(self, "beta", frozenset(self.beta))
        if not is_mis(self.graph, self.alpha):
            raise InputError("alpha is not a maximal independent set")
        if not is_mis(self.graph, self.beta):
            raise InputError("beta is not a maximal independent set")


@dataclass(frozen=True)
class Schedule:
    """A materialized sequence of vertex sets; length is steps, not sets.

    The pipelines and the parser give a run of equal steps one shared object,
    and no loop does set work on a step that ``is`` its predecessor.  This is
    for speed only: correctness never depends on it."""

    steps: tuple[VertexSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(frozenset(s) for s in self.steps))

    @property
    def length(self) -> int:
        return len(self.steps) - 1


@dataclass(frozen=True)
class PropertySpec:
    """The target property of intermediate sets: a (2, d)-ruling set."""

    d: int = 4

    def __post_init__(self) -> None:
        if self.d < 1:
            raise InputError(f"domination radius must be positive, got {self.d}")


@dataclass(frozen=True)
class Violation:
    step: int
    condition: str  # endpoints | independence | domination | flip-independence
    witness: tuple[int, int] | int | None

    def describe(self) -> str:
        if isinstance(self.witness, tuple):
            what = f"edge {self.witness[0]}-{self.witness[1]}"
        elif self.witness is None:
            what = "no witness"
        else:
            what = f"node {self.witness}"
        return f"{self.condition} violated at step {self.step}: {what}"


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    first_violation: Violation | None = None


def lost_cover(g: Graph, prev: VertexSet, step: VertexSet, d: int) -> list[int]:
    """The nodes, ascending, within d hops of ``prev`` but not of ``step``.

    Each lies within d hops of a removed node, and every path that could
    still cover it stays inside the 2d-ball of the removals."""
    removed = prev - step
    if not removed:
        return []
    near = distances_from(g, removed, radius=2 * d)
    pool = frozenset(near)
    covered = distances_from(g, step & pool, pool, d)
    return sorted(u for u, k in near.items() if k <= d and u not in covered)


def step_defect(g: Graph, prev: VertexSet, step: VertexSet, d: int) -> tuple[str, tuple[int, int] | int] | None:
    """The condition ``step`` breaks and its witness, given that ``prev`` is
    independent and d-dominating; None if ``step`` is too.  At d = 1 this
    asks whether ``step`` is still an MIS.  A new edge touches an added node
    and a lost cover is near a removed one, so the witnesses (smallest edge,
    smallest uncovered node) are found around the flip alone."""
    added = step - prev
    if any(not g.neighbors(v).isdisjoint(step) for v in added):
        return "independence", edge_inside(g, step.intersection(distances_from(g, added, radius=1)))
    holes = lost_cover(g, prev, step, d)
    return ("domination", holes[0]) if holes else None


def first_violation(g: Graph, prev: VertexSet, steps: Sequence[VertexSet], d: int) -> Violation | None:
    """The earliest step that breaks a step condition; ``steps[0]`` is step 1.

    Each step's flip from its predecessor (``prev`` before the first) must be
    independent and the step must pass ``step_defect``, whose precondition
    holds: ``prev`` is an MIS in every caller and earlier steps have passed.
    A step whose flip is empty equals its predecessor and is skipped.
    """
    for i, step in enumerate(steps, 1):
        if step is prev:
            continue
        flip = step ^ prev
        if flip:
            edge = edge_inside(g, flip)
            if edge is not None:
                return Violation(i, "flip-independence", edge)
            defect = step_defect(g, prev, step, d)
            if defect is not None:
                return Violation(i, *defect)
        prev = step
    return None


def validate(inst: ReconfigInstance, sched: Schedule, prop: PropertySpec = PropertySpec()) -> ValidationReport:
    """Check all three schedule conditions, reporting the earliest violation.

    Endpoints must equal alpha and beta; every strictly intermediate set must
    be independent and d-dominating; every consecutive pair must differ by an
    independent set.  Sets may repeat (an empty flip is independent).
    """
    if not sched.steps:
        raise InputError("empty schedule")
    g = inst.graph
    steps, last = sched.steps, len(sched.steps) - 1
    for i, step in enumerate(steps):
        if i and step is steps[i - 1]:
            continue
        unknown = step - g.nodes
        if unknown:
            raise InputError(f"schedule step contains unknown node ids {sorted(unknown)}")

    if steps[0] != inst.alpha:
        violation = Violation(0, "endpoints", min(steps[0] ^ inst.alpha))
    else:
        violation = first_violation(g, steps[0], steps[1:last], prop.d)
    if violation is None and last:
        edge = edge_inside(g, steps[last] ^ steps[last - 1])
        if edge is not None:
            violation = Violation(last, "flip-independence", edge)
    if violation is None and steps[last] != inst.beta:
        violation = Violation(last, "endpoints", min(steps[last] ^ inst.beta))
    return ValidationReport(violation is None, violation)


def update_component(
    current: VertexSet,
    comp: VertexSet,
    alpha: VertexSet,
    beta: VertexSet,
) -> tuple[VertexSet, VertexSet]:
    """The two-step update of a component's vertices (or of a batched union
    of components): first remove its alpha-part, then add its beta-part."""
    vertices = frozenset(comp)
    if not (vertices & alpha) <= current:
        raise InputError("component alpha-part not contained in current set")
    removed = frozenset(current) - (frozenset(alpha) & vertices)
    added = removed | (frozenset(beta) & vertices)
    return removed, added


def run_side_by_side(
    start: VertexSet,
    fragments: Sequence[Sequence[VertexSet]],
    length: int,
) -> list[VertexSet]:
    """The ``length`` steps after ``start`` of fragments run side by side.

    Each fragment is a sequence of sets whose first set is its part of
    ``start``; step j replaces that part with the fragment's j-th set, or its
    last once it has run out.  Fragments must change disjoint nodes.  A step
    where no fragment's set changes object is the previous step's object
    (``start`` at first), so with no fragments every step is ``start``.
    """
    if not fragments:
        return [start] * length
    steps, step, sets = [], start, [f[0] for f in fragments]
    for j in range(1, length + 1):
        now = [f[min(j, len(f) - 1)] for f in fragments]
        if any(a is not b for a, b in zip(now, sets)):
            step = start ^ frozenset().union(*(s ^ f[0] for s, f in zip(now, fragments)))
        steps.append(step)
        sets = now
    return steps


def parse_vertex_set_file(text: str) -> VertexSet:
    """Parse a vertex-set file: whitespace-separated ids, ``#`` comments allowed."""
    ids: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for tok in line.split():
            try:
                ids.add(int(tok))
            except ValueError:
                raise InputError(f"line {lineno}: bad node id {tok!r}") from None
    return frozenset(ids)


def format_vertex_set_file(s: VertexSet) -> str:
    return " ".join(str(v) for v in sorted(s)) + "\n"


def parse_schedule_file(text: str) -> Schedule:
    """Parse the schedule format: one line per step, sorted ids, single spaces.

    Every line is a step; an empty line is the empty set.  A trailing newline
    terminates the last step and is required on write.
    """
    lines = text.splitlines()
    if not lines:
        raise InputError("empty schedule file")
    steps, prev = [], None
    for lineno, line in enumerate(lines, start=1):
        if line != prev:
            try:
                step = frozenset(int(tok) for tok in line.split())
            except ValueError:
                raise InputError(f"line {lineno}: bad node id in {line!r}") from None
            prev = line
        steps.append(step)
    return Schedule(tuple(steps))


def format_schedule_file(sched: Schedule) -> str:
    lines, prev = [], None
    for step in sched.steps:
        if step is not prev:
            line = " ".join(str(v) for v in sorted(step)) + "\n"
            prev = step
        lines.append(line)
    return "".join(lines)
