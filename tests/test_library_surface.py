"""The library is what a command, a demo or the benchmark calls.

Every public top-level function and class in src/chansim must be named, as
a whole word, in a .py, .sh or .json file under src, demos or perfbench
other than on its own def or class line; README.md and other docs do not
count.
A definition that only tests reach is dead weight: delete it with its tests,
and move a test's reference computation into the test file.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chansim"
SEARCHED = ("src", "demos", "perfbench")

# Paper statements kept for a row that does not exist yet (ROADMAP items).
ALLOWED = {
    "rate_lower_bound_defect": "item 5",  # strong converse row
    "lemma2_failure_bound": "item 5",     # covering lemma's failure probability
}


def _public_definitions():
    """(name, file, line) of each public top-level def and class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found.append((node.name, path, node.lineno))
    return found


def _searched_lines():
    """(file, line number, text) of every line of the code, scripts and
    instance files under SEARCHED; docs are not callers, and run outputs
    (out/) are skipped."""
    files = []
    for top in SEARCHED:
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and p.suffix in (".py", ".sh", ".json")
                        and "out" not in p.relative_to(ROOT).parts)
    return [(path, number, text)
            for path in files
            for number, text in enumerate(path.read_text().splitlines(), start=1)]


def test_every_public_definition_has_a_caller_outside_tests():
    lines = _searched_lines()
    unused = []
    for name, path, lineno in _public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for p, n, text in lines
                   if (p, n) != (path, lineno)):
            unused.append(name)
    # an allowed name that gained a caller, or was deleted, leaves the list
    assert sorted(unused) == sorted(ALLOWED), (
        "only tests name these public definitions: "
        f"{sorted(set(unused) - set(ALLOWED))}; "
        f"allowed but called or gone: {sorted(set(ALLOWED) - set(unused))}")

