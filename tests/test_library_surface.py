"""The library is what a command, a demo or the benchmark calls.

Every public top-level function and class in src/chansim must be named, as
a whole word, in a .py, .sh or .json file under src, demos or perfbench
other than on its own def or class line; README.md and other docs do not
count, and neither do the docstrings and comments of a .py file. Other
string literals do: the benchmark patches functions by name.
A definition that only tests reach is dead weight: delete it with its tests,
and move a test's reference computation into the test file.
"""

import ast
import io
import re
import tokenize
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


def _code_lines(source: str) -> list:
    """The lines of a .py file with its docstrings and comments blanked."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines[doc.lineno - 1:doc.end_lineno] = [""] * (doc.end_lineno - doc.lineno + 1)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    return lines


def _searched_lines():
    """(file, line number, text) of every line of the code, scripts and
    instance files under SEARCHED; docs, docstrings and comments are not
    callers, and run outputs (out/) are skipped."""
    files = []
    for top in SEARCHED:
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and p.suffix in (".py", ".sh", ".json")
                        and "out" not in p.relative_to(ROOT).parts)
    return [(path, number, text)
            for path in files
            for number, text in enumerate(
                _code_lines(path.read_text()) if path.suffix == ".py"
                else path.read_text().splitlines(), start=1)]


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


def test_docstrings_and_comments_are_not_callers():
    """A name in a docstring or a comment is blanked; one in any other
    string literal is kept."""
    source = ('"""f names g."""\n\n\nclass C:\n    """g"""\n\n\n'
              'def f():\n    """Calls\n    g."""\n    return "g"  # g\n')
    called = [bool(re.search(r"\bg\b", line)) for line in _code_lines(source)]
    assert called == [False] * 10 + [True]
