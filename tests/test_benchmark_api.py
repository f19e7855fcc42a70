"""The names and flags the benchmark's workloads use from the package.

``perfbench/workloads.py`` is only read here, never imported or edited, so a
rename in the package fails this test instead of the benchmark.
"""

import ast
from pathlib import Path

import pytest

from misrecon import analysis, cli, constlength, constrounds

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
MODULES = {"analysis": analysis, "cli": cli, "constlength": constlength, "constrounds": constrounds}
FILES = ["--graph", "g", "--alpha", "a", "--beta", "b"]
# One command line of each shape the workloads build.
ARGVS = {
    "const-length-luby": ["const-length", *FILES, "--distributed", "--subroutine", "luby", "--seed", "5", "--out", "s"],
    "const-length-id": ["const-length", *FILES, "--distributed", "--subroutine", "deterministic-id", "--seed", "5",
                        "--out", "s"],
    "const-rounds-id": ["const-rounds", *FILES, "--out", "s"],
    "const-rounds-coloring": ["const-rounds", *FILES, "--coloring", "c", "--out", "s"],
    "validate": ["validate", *FILES, "--schedule", "s"],
}


def _tree():
    return ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))


def test_workloads_use_only_existing_names():
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(_tree())
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES
    }
    assert used
    missing = sorted(f"{mod}.{attr}" for mod, attr in used if not hasattr(MODULES[mod], attr))
    assert not missing, f"perfbench/workloads.py uses missing names {missing}"


def test_argvs_cover_the_workloads_flags():
    # Every literal flag of the workloads appears in one of ARGVS, so a new
    # flag there cannot slip past the parser check below.  The bare "--" is
    # the head of f"--{kind}", which names the three instance files.
    literals = {
        node.value
        for node in ast.walk(_tree())
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("--")
    } - {"--"}
    assert literals
    assert literals <= {arg for argv in ARGVS.values() for arg in argv}


@pytest.mark.parametrize("argv", ARGVS.values(), ids=ARGVS)
def test_parser_accepts_the_workloads_command_lines(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]
