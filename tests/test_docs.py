"""The README's rule-id table lists exactly the rule ids the code emits, its
writer paragraph exactly the layout rules the writers share with
``validate``, and its CLI synopsis exactly the options of the parser."""

import argparse
import ast
import re
from pathlib import Path

from gdfkit.cli import build_parser
from test_fileio import GEOMETRY_RULES

ROOT = Path(__file__).resolve().parents[1]
RULE_ID = re.compile(r"[a-z0-9_]+\.[a-z0-9_]+")


def _rule_strings(node):
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and RULE_ID.fullmatch(n.value)}


def emitted_rule_ids():
    """String literals in the places a rule id goes: the first argument of
    ``diags.error/warning/info``, a ``rule=`` keyword, or an assignment to a
    variable named ``rule``."""
    ids = set()
    for path in sorted((ROOT / "src" / "gdfkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in ("error", "warning", "info") and node.args):
                    ids |= _rule_strings(node.args[0])
                for kw in node.keywords:
                    if kw.arg == "rule":
                        ids |= _rule_strings(kw.value)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "rule" for t in node.targets):
                ids |= _rule_strings(node.value)
    return ids


def documented_rule_ids():
    text = (ROOT / "README.md").read_text()
    table = text.split("## Diagnostics rule ids", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([^`]+)` \|", table, flags=re.M))


def test_rule_table_matches_code():
    emitted, documented = emitted_rule_ids(), documented_rule_ids()
    assert len(emitted) > 40  # the scan still finds the rule ids
    assert sorted(emitted - documented) == [], "rule ids missing from the README"
    assert sorted(documented - emitted) == [], "README rule ids the code never emits"


def test_writer_paragraph_lists_the_geometry_rules():
    text = (ROOT / "README.md").read_text()
    paragraph = re.split(r"The layout\s+rules they share are", text)[1].split("\n\n", 1)[0]
    assert re.findall(r"`([^`]+)`", paragraph) == list(GEOMETRY_RULES)
    source = (ROOT / "src" / "gdfkit" / "fileio.py").read_text()
    check = next(node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef) and node.name == "_check_geometry")
    assert _rule_strings(check) == set(GEOMETRY_RULES)


def test_cli_synopsis_lists_the_parser_options():
    """Each synopsis line of a subcommand (with its continuation lines) names
    exactly the long options ``cli.build_parser()`` defines for it."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    documented, command = {}, None
    for line in block.splitlines():
        if line.startswith("gdfkit "):
            command = line.split()[1]
            documented[command] = set()
        if command is not None:
            documented[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    defined = {name: {s for a in sub._actions for s in a.option_strings
                      if s.startswith("--")} - {"--help"}
               for name, sub in subparsers.choices.items()}
    assert documented == defined
