"""Every size limit is stated in errors.CAPS and checked by require_cap.

A cap the package never reads is an option that does nothing, and a
hand-written raise is a check whose message names no cap a user can
override; both are caught here, by reading the source.
"""

import ast
import re
from pathlib import Path

from chansim.errors import CAPS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chansim"


def test_every_cap_is_read_in_the_package():
    """Each name is checked by require_cap or read as CAPS[...] outside errors.py."""
    code = "\n".join(path.read_text() for path in sorted(PACKAGE.glob("*.py"))
                     if path.name != "errors.py")
    unread = [name for name in CAPS
              if not re.search(rf'(require_cap\(\s*|CAPS\[)"{name}"', code)]
    assert not unread, f"caps no code reads: {unread}"


def test_cap_exceeded_is_raised_only_by_require_cap():
    raisers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [node for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        owner = {id(inner): scope.name for scope in scopes for inner in ast.walk(scope)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "CapExceededError":
                    raisers.append((path.name, owner.get(id(node))))
    assert raisers == [("errors.py", "require_cap")]


def test_no_cap_constant_outside_caps():
    constants = [(path.name, target.id) for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.parse(path.read_text()).body if isinstance(node, ast.Assign)
                 for target in node.targets
                 if isinstance(target, ast.Name) and target.id.endswith("_CAP")]
    assert not constants, f"caps stated outside errors.CAPS: {constants}"
