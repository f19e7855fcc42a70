"""Reconfiguration instances, schedules, and the validator every algorithm's
output must pass.

A schedule starts at alpha and flips a set of nodes in each step, ending at
beta.  Each intermediate set must be a (2, d)-ruling set (independent and
d-dominating), and each flip must be independent, so no two neighbors flip
membership in the same step.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, groupby
from typing import Iterable, Sequence

from .errors import InputError
from .graph import Graph, VertexSet, distances_from, edge_inside, is_mis


# The flip of an unchanged step: one object serves every such step.
NO_FLIP: VertexSet = frozenset()


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
    """A start set and one flip per step: step i is step i - 1 with
    ``flips[i - 1]`` toggled, so an unchanged step is an empty flip.  The
    length counts steps, not sets."""

    start: VertexSet
    flips: tuple[VertexSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", frozenset(self.start))
        object.__setattr__(self, "flips", tuple(map(frozenset, self.flips)))

    @classmethod
    def from_steps(cls, steps: Iterable[Iterable[int]]) -> Schedule:
        """The schedule through the given sets, the first being its start."""
        sets = [frozenset(s) for s in steps]
        if not sets:
            raise InputError("empty schedule")
        return cls(sets[0], tuple(b ^ a for a, b in zip(sets, sets[1:])))

    @property
    def steps(self) -> tuple[VertexSet, ...]:
        """``start`` and then the set after each flip; an empty flip is O(1)."""
        step = self.start
        sets = [step]
        for flip in self.flips:
            if flip:
                step = step ^ flip
            sets.append(step)
        return tuple(sets)

    @property
    def length(self) -> int:
        return len(self.flips)


def net_flip(flips: Iterable[VertexSet]) -> VertexSet:
    """The nodes a run of flips toggles an odd number of times: the run takes
    any set s to ``s ^ net_flip(flips)``.  O(Σ|flip|); empty flips are
    skipped in C."""
    net: set[int] = set()
    for flip in filter(None, flips):
        net ^= flip
    return frozenset(net)


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
    witness: tuple[int, int] | int

    def describe(self) -> str:
        if isinstance(self.witness, tuple):
            what = f"edge {self.witness[0]}-{self.witness[1]}"
        else:
            what = f"node {self.witness}"
        return f"{self.condition} violated at step {self.step}: {what}"


def lost_cover(g: Graph, removed: VertexSet, step: VertexSet, d: int) -> list[int]:
    """The nodes, ascending, within d hops of ``removed`` (disjoint from
    ``step``) but not of ``step``.

    A node whose every shortest path from ``removed`` meets ``step`` is
    covered by that nearer step node, so the first search does not expand
    step nodes.  A hole's shortest path to its nearest step node then lies in
    the region that search reaches within 2d, where the covering search stays."""
    if not removed:
        return []
    near = distances_from(g, removed, radius=2 * d, stop=step)
    covered = distances_from(g, step.intersection(near), near.keys(), d)
    return sorted(u for u, k in near.items() if k <= d and u not in covered)


def step_defect(g: Graph, step: VertexSet, flip: VertexSet, d: int) -> tuple[str, tuple[int, int] | int] | None:
    """The condition ``step`` breaks and its witness, given that the set
    before it, ``step`` with ``flip`` toggled back, is independent and
    d-dominating; None if ``step`` is too.  At d = 1 this asks whether
    ``step`` is still an MIS.  A new edge touches an added node and a lost
    cover is near a removed one, so the witnesses (smallest edge, smallest
    uncovered node) are found around the flip alone."""
    added = flip & step
    if any(not g.neighbors(v).isdisjoint(step) for v in added):
        return "independence", edge_inside(g, step.intersection(distances_from(g, added, radius=1)))
    holes = lost_cover(g, flip - step, step, d)
    return ("domination", holes[0]) if holes else None


def first_violation(g: Graph, start: VertexSet, flips: Sequence[VertexSet], d: int) -> Violation | None:
    """The earliest step that breaks a step condition; ``flips[0]`` makes step 1.

    Each flip must be independent and each step must pass ``step_defect``,
    whose precondition holds: ``start`` is an MIS in every caller and earlier
    steps have passed.  One running set takes each non-empty flip in place;
    ``compress`` skips the empty ones without a Python-level iteration.
    """
    step = set(start)
    for i, flip in compress(enumerate(flips, 1), flips):
        edge = edge_inside(g, flip)
        if edge is not None:
            return Violation(i, "flip-independence", edge)
        step ^= flip
        defect = step_defect(g, step, flip, d)
        if defect is not None:
            return Violation(i, *defect)
    return None


def validate(inst: ReconfigInstance, sched: Schedule, prop: PropertySpec = PropertySpec()) -> Violation | None:
    """Check all three schedule conditions: the earliest violation, or None
    if the schedule is valid.

    Endpoints must equal alpha and beta; every strictly intermediate set must
    be independent and d-dominating; every flip must be independent.  Sets
    may repeat (an empty flip is independent).
    """
    g, start, flips = inst.graph, sched.start, sched.flips
    unknown = start.union(*flips) - g.nodes
    if unknown:
        raise InputError(f"schedule step contains unknown node ids {sorted(unknown)}")

    if start != inst.alpha:
        violation = Violation(0, "endpoints", min(start ^ inst.alpha))
    else:
        violation = first_violation(g, start, flips[:-1], prop.d)
    last = len(flips)
    if violation is None and last:
        edge = edge_inside(g, flips[-1])
        if edge is not None:
            violation = Violation(last, "flip-independence", edge)
    if violation is None:
        end = start ^ net_flip(flips)
        if end != inst.beta:
            violation = Violation(last, "endpoints", min(end ^ inst.beta))
    return violation


def run_side_by_side(fragments: Sequence[Sequence[VertexSet]], length: int) -> list[VertexSet]:
    """The ``length`` flips of fragments run side by side: flip j is the
    union of every fragment's j-th flip, of which a fragment that has run
    out has none.  Fragments must change disjoint nodes."""
    if not fragments:
        return [NO_FLIP] * length
    return [frozenset().union(*(f[j] for f in fragments if j < len(f))) for j in range(length)]


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
    return " ".join(map(str, sorted(s))) + "\n"


def parse_schedule_file(text: str) -> Schedule:
    """Parse the schedule format: one line per step, sorted ids, single spaces.

    Every line is a step; an empty line is the empty set.  A trailing newline
    terminates the last step and is required on write.  Each run of identical
    lines is parsed once, and an error names the run's first line.
    """
    lines = text.splitlines()
    if not lines:
        raise InputError("empty schedule file")
    # The first line is a flip from the empty set; a repeated line flips nothing.
    flips, step, lineno = [], NO_FLIP, 1
    for line, run in groupby(lines):
        try:
            new = frozenset(int(tok) for tok in line.split())
        except ValueError:
            raise InputError(f"line {lineno}: bad node id in {line!r}") from None
        run_length = len(list(run))
        flips += [new ^ step] + [NO_FLIP] * (run_length - 1)
        step, lineno = new, lineno + run_length
    return Schedule(flips[0], tuple(flips[1:]))


def format_schedule_file(sched: Schedule) -> str:
    """One line per step; after an empty flip the line repeats.  The step is
    kept as a sorted id list beside its ids' strings, and each non-empty flip
    is applied to both by bisection, so a line costs one join, not a sort.
    Each run of equal lines is written at once."""
    ids = sorted(sched.start)
    strs, parts, last = list(map(str, ids)), [], 0
    line = " ".join(strs) + "\n"
    for i, flip in compress(enumerate(sched.flips, 1), sched.flips):
        parts.append(line * (i - last))
        for v in flip:
            k = bisect_left(ids, v)
            if k < len(ids) and ids[k] == v:
                del ids[k], strs[k]
            else:
                ids.insert(k, v)
                strs.insert(k, str(v))
        line, last = " ".join(strs) + "\n", i
    parts.append(line * (len(sched.flips) + 1 - last))
    return "".join(parts)
