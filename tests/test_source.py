"""Rules the package's source keeps, checked on its syntax trees: a run
depends only on its arguments and files, and runs in one process."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "tmlab").glob("*.py"))
ENV_READS = {"environ", "environb", "getenv", "getenvb"}
PROCESS_MODULES = ("concurrent", "multiprocessing")


def violations(tree: ast.AST) -> list[str]:
    """Each forbidden read or import, as 'line N: what', in line order."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_READS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"from os import {a.name}")
                      for a in node.names if a.name in ENV_READS]
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            found += [(node.lineno, f"import {n}") for n in names
                      if n.split(".")[0] in PROCESS_MODULES]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_rules_see_what_they_forbid():
    code = ("import os\nimport multiprocessing.pool\nfrom os import getenv\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "x = os.environ.get('A')\ny = os.getenv('B')\nz = os.getcwd()\n")
    assert violations(ast.parse(code)) == [
        "line 2: import multiprocessing.pool", "line 3: from os import getenv",
        "line 4: import concurrent.futures", "line 5: os.environ", "line 6: os.getenv"]


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_src_reads_no_environment_variable_and_starts_no_process(path):
    assert violations(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []
