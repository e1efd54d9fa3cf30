"""The report's warning record, ``Flag``, and the one list of its codes."""

from __future__ import annotations

import ast
import copy
import pickle
import re
from pathlib import Path

from docstitch.errors import Flag
from docstitch.pipeline import RunReport

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "docstitch"


def fields(flag: Flag) -> tuple:
    return (flag.code, flag.detail, flag.subtask, flag.chunk)


def test_flag_text_is_subtask_chunk_code_detail():
    assert Flag("repeated_header") == "repeated_header"
    assert Flag("UnknownIdx", "7") == "UnknownIdx:7"
    assert fields(Flag("UnknownIdx", "7")) == ("UnknownIdx", "7", "", None)
    placed = Flag("degraded", "remote->rules", "table", 0)
    assert placed == "table[0]:degraded:remote->rules"
    assert fields(placed) == ("degraded", "remote->rules", "table", 0)


def test_flag_survives_deepcopy_and_pickle():
    flag = Flag("unresolved", "4", "association", 2)
    copies = [copy.deepcopy(flag), RunReport("d", warnings=[flag]).to_dict()["warnings"][0]]
    copies += [pickle.loads(pickle.dumps(flag, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in copies:
        assert type(copied) is Flag
        assert str(copied) == "association[2]:unresolved:4"
        assert fields(copied) == ("unresolved", "4", "association", 2)


def readme_codes() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Code | Written by | Meaning |\n", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"^\| `(\w+)` \|", table, re.M))


def test_every_flag_code_is_a_literal_listed_in_the_readme():
    codes: set[str] = set()
    strings: list[tuple[str, str]] = []  # (where, value) of every other string
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        code_args: set[ast.AST] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Flag":
                code = node.args[0]
                if isinstance(code, ast.Attribute) and code.attr == "code":
                    continue  # a copy of a flag built with a literal code
                where = f"{path.name}:{node.lineno}"
                assert isinstance(code, ast.Constant) and isinstance(code.value, str), where
                codes.add(code.value)
                code_args.add(code)
        strings += [
            (f"{path.name}:{node.lineno}", node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node not in code_args
        ]
    assert codes == readme_codes()
    assert len(codes) == 18

    # No other string, f-string parts included, spells a warning code.
    spelled = re.compile(rf"(?:{'|'.join(sorted(codes))})(?::|$)")
    assert [(where, s) for where, s in strings if spelled.match(s)] == []
