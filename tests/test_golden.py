"""Golden numbers: every --out command of demos/cli_tour.sh, run in process,
must print the numbers checked in under tests/golden/.

Each golden file holds one tour command's CSV rows, and the leaves of its
JSON artifacts, with every number formatted %.12g, so a diff names the
number that moved. A change that moves one updates the file in the same
change and says why. Regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import re
import shlex
import sys
from pathlib import Path
from string import Template

import pytest

from chansim.cli import main

ROOT = Path(__file__).resolve().parent.parent
TOUR = ROOT / "demos" / "cli_tour.sh"
GOLDEN = Path(__file__).resolve().parent / "golden"
# numbers within this of each other match: a quantity at round-off level,
# such as an equality constraint's slack, has no stable digits
NOISE = 1e-12


def tour_commands():
    """(name, argv) of each tour command that writes --out files, with
    $OUT left for the caller; name is the --out directory's base name."""
    commands = []
    for line in TOUR.read_text().replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["chansim"] and "--out" in words:
            argv = [Template(w).safe_substitute(BSC=ROOT / "demos/instances/bsc25.json",
                                                HERE=ROOT / "demos") for w in words[1:]]
            commands.append((Path(argv[argv.index("--out") + 1]).name, argv))
    return commands


def _number(text: str) -> str:
    """A float cell at %.12g; integer and text cells as written."""
    if text.lstrip("-").isdigit():
        return text
    try:
        return "%.12g" % float(text)
    except ValueError:
        return text


def _leaves(doc, path=""):
    if isinstance(doc, dict):
        return [leaf for key in sorted(doc) for leaf in _leaves(doc[key], f"{path}.{key}")]
    if isinstance(doc, list):
        return [leaf for i, v in enumerate(doc) for leaf in _leaves(v, f"{path}.{i}")]
    shown = "%.12g" % doc if isinstance(doc, float) else doc
    return [f"{path[1:]} = {shown}"]


def render(out: Path) -> str:
    """The numbers of every file a command wrote: CSV rows (comment lines
    dropped, number cells at %.12g) and JSON leaves by path."""
    lines = []
    for path in sorted(out.iterdir()):
        lines.append(f"## {path.name}")
        if path.suffix == ".csv":
            lines += [",".join(_number(cell) for cell in row.split(","))
                      for row in path.read_text().splitlines() if not row.startswith("#")]
        else:
            lines += _leaves(json.loads(path.read_text()))
    return "\n".join(lines) + "\n"


def _same_cell(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        return abs(float(got) - float(want)) <= NOISE
    except ValueError:
        return False


def run_tour_command(argv, out: Path) -> str:
    argv = [Template(w).safe_substitute(OUT=out) for w in argv]
    assert main(argv) == 0, argv
    return render(out / Path(argv[argv.index("--out") + 1]).name)


TOUR_COMMANDS = tour_commands()


def test_tour_lists_every_out_command():
    assert [name for name, _ in TOUR_COMMANDS] == [
        "typical", "simulate", "derandomize", "zero-error", "rd", "dilute", "sweep"]


@pytest.mark.parametrize("name,argv", TOUR_COMMANDS, ids=[c[0] for c in TOUR_COMMANDS])
def test_tour_numbers_match_golden(name, argv, tmp_path, capsys):
    got = run_tour_command(argv, tmp_path).splitlines()
    want = (GOLDEN / f"{name}.txt").read_text().splitlines()
    assert len(got) == len(want), (got, want)
    moved = [(g, w) for g, w in zip(got, want)
             if not all(map(_same_cell, re.split(r",| = ", g), re.split(r",| = ", w)))
             or g.count(",") != w.count(",")]
    assert not moved, moved


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in TOUR_COMMANDS:
            (GOLDEN / f"{name}.txt").write_text(run_tour_command(argv, Path(tmp)))
    sys.exit(0)
