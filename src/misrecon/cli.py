"""Command-line entry point tying together generation, scheduling, existence
checks, oracle queries and validation.

Exit codes: 0 success, 1 negative analysis/validation result, 2 usage or
input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .analysis import (
    brute_force_oracle,
    check_blocker,
    gen_gadget,
    small_diameter_fallback,
)
from .constlength import constant_length_schedule_distributed
from .constrounds import constant_rounds_schedule, parse_coloring_file
from .errors import InputError, InternalError
from .graph import capped_diameter, format_graph_file, parse_graph_file
from .schedule import (
    PropertySpec,
    ReconfigInstance,
    format_schedule_file,
    format_vertex_set_file,
    parse_schedule_file,
    parse_vertex_set_file,
    validate,
)
from .sim import Trace, format_trace

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _write(path: str | Path, text: str, make_parent: bool = False) -> None:
    path = Path(path)
    try:
        if make_parent:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _load_instance(args) -> ReconfigInstance:
    g = parse_graph_file(_read(args.graph))
    alpha = parse_vertex_set_file(_read(args.alpha))
    beta = parse_vertex_set_file(_read(args.beta))
    return ReconfigInstance(g, alpha, beta)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misrecon",
        description="Schedules, oracles and gadgets for distributed MIS reconfiguration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_flags(p):
        p.add_argument("--graph", required=True)
        p.add_argument("--alpha", required=True)
        p.add_argument("--beta", required=True)

    p = sub.add_parser("const-length", help="28-step schedule (diameter > 3)")
    instance_flags(p)
    p.add_argument("--distributed", action="store_true")
    p.add_argument("--subroutine", choices=["deterministic-id", "luby"], default="deterministic-id")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("const-rounds", help="identifier- or coloring-slotted schedule (diameter > 5)")
    instance_flags(p)
    p.add_argument("--coloring", help="coloring file, proper on the 16th power; omit to slot by node id")
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle", help="exhaustive shortest-schedule search")
    instance_flags(p)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--out", help="write the witness schedule here when one exists")

    p = sub.add_parser("check", help="three-condition existence test")
    instance_flags(p)

    p = sub.add_parser("gen", help="write a gadget-family instance")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("validate", help="check a schedule file against an instance")
    instance_flags(p)
    p.add_argument("--schedule", required=True)
    p.add_argument("--d", type=int, default=4)
    return parser


def dispatch(args: argparse.Namespace) -> int:
    if args.command == "const-length":
        trace = Trace(args.subroutine, args.seed)
        inst = _load_instance(args)
        if capped_diameter(inst.graph) <= 3:
            sched = small_diameter_fallback(inst)
            if sched is None:
                print("blocked: no schedule exists for this small-diameter instance")
                return EXIT_NEGATIVE
            print("note: diameter <= 3, emitted the small-diameter fallback schedule")
        else:
            sched, trace = constant_length_schedule_distributed(inst, trace)
            if args.distributed:
                sys.stdout.write(format_trace(trace))
        _write(args.out, format_schedule_file(sched))
        print(f"schedule_length: {sched.length}")
        return EXIT_OK

    if args.command == "const-rounds":
        inst = _load_instance(args)
        coloring = parse_coloring_file(_read(args.coloring)) if args.coloring else None
        sched, trace = constant_rounds_schedule(inst, coloring)
        sys.stdout.write(format_trace(trace))
        _write(args.out, format_schedule_file(sched))
        print(f"schedule_length: {sched.length}")
        return EXIT_OK

    if args.command == "oracle":
        inst = _load_instance(args)
        result = brute_force_oracle(inst, PropertySpec(args.d))
        print(f"exists: {str(result.exists).lower()}")
        if result.min_length is not None:
            print(f"min_length: {result.min_length}")
        print(f"states_explored: {result.states_explored}")
        if result.witness is not None and args.out:
            _write(args.out, format_schedule_file(result.witness))
        return EXIT_OK if result.exists else EXIT_NEGATIVE

    if args.command == "check":
        inst = _load_instance(args)
        report = check_blocker(inst)
        print(f"blocked: {str(report.blocked).lower()}")
        print(f"cond1_fully_connected: {str(report.cond1_fully_connected).lower()}")
        print(f"cond2_eps_covered: {str(report.cond2_eps_covered).lower()}")
        print(f"cond3_no_complement_path: {str(report.cond3_no_complement_path).lower()}")
        if report.witness is not None:
            print(f"witness: {report.witness}")
        return EXIT_NEGATIVE if report.blocked else EXIT_OK

    if args.command == "gen":
        inst = gen_gadget(args.family, n=args.n, k=args.k, p=args.p, seed=args.seed)
        prefix = Path(args.out_prefix)
        if not prefix.name:
            raise InputError(f"--out-prefix needs a file name, got {args.out_prefix!r}")
        files = {
            "graph": format_graph_file(inst.graph),
            "alpha": format_vertex_set_file(inst.alpha),
            "beta": format_vertex_set_file(inst.beta),
        }
        for name, text in files.items():
            _write(prefix.with_suffix(f".{name}"), text, make_parent=True)
        for name in files:
            print(f"{name}: {prefix.with_suffix(f'.{name}')}")
        return EXIT_OK

    if args.command == "validate":
        inst = _load_instance(args)
        sched = parse_schedule_file(_read(args.schedule))
        violation = validate(inst, sched, PropertySpec(args.d))
        print("valid" if violation is None else violation.describe())
        return EXIT_OK if violation is None else EXIT_NEGATIVE

    raise InputError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return dispatch(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
