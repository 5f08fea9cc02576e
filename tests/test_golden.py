"""Golden numbers: every --out command of demos/cli_tour.sh, run in process,
must print the numbers checked in under tests/golden/, and the zero-error
solver must return the bits checked in there.

Each golden file holds one tour command's CSV rows, and the leaves of its
JSON artifacts, with every number formatted %.12g, so a diff names the
number that moved. A change that moves one updates the file in the same
change and says why. Numbers within NOISE of each other match there, so
zero_error_bits.txt also holds every float of alternate's factorization on
the two demo pairs as float.hex(), rd_bits.txt the grid and solver rates
of the solvers benchmark's rd curve, and oracle_bits.txt the full results
of both grid oracles at the solvers benchmark's settings: a last-bit drift
there fails.
Regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import re
import shlex
import sys
from pathlib import Path
from string import Template

import numpy as np
import pytest

from chansim.applications import DistortionSpec, rd_function, rd_grid_oracle
from chansim.cli import main
from chansim.core_prob import Channel, Distribution
from chansim.zero_error import ZeroErrorInstance, alternate, brute_force_oracle

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
        "typical", "cover", "simulate", "derandomize", "zero-error", "rd", "dilute", "sweep"]


@pytest.mark.parametrize("name,argv", TOUR_COMMANDS, ids=[c[0] for c in TOUR_COMMANDS])
def test_tour_numbers_match_golden(name, argv, tmp_path, capsys):
    got = run_tour_command(argv, tmp_path).splitlines()
    want = (GOLDEN / f"{name}.txt").read_text().splitlines()
    assert len(got) == len(want), (got, want)
    moved = [(g, w) for g, w in zip(got, want)
             if not all(map(_same_cell, re.split(r",| = ", g), re.split(r",| = ", w)))
             or g.count(",") != w.count(",")]
    assert not moved, moved


def _demo_instance(name: str) -> ZeroErrorInstance:
    """The demo pair name at the default c_max."""
    doc = json.loads((ROOT / "demos" / "instances" / f"{name}.json").read_text())
    return ZeroErrorInstance.build(Distribution.from_json_dict(doc["source"]),
                                   Channel.from_json_dict(doc["channel"]))


def _rd_curve():
    """The solvers benchmark's rd targets: Hamming distortion, 12 targets in
    [0.02, 0.4]."""
    return [DistortionSpec.hamming(2, target)
            for target in np.linspace(0.02, 0.4, 12).tolist()]


def render_alternate_bits() -> str:
    """alternate(seed=3, restarts=20) on bsc25 and skewed_pair at the default
    c_max: E, D, mu, the objective and the trace, each float as float.hex()."""
    lines = []
    for name in ("bsc25", "skewed_pair"):
        fact = alternate(_demo_instance(name), seed=3, restarts=20)
        lines.append(f"## {name}")
        named = [(f"E.{x}", row) for x, row in enumerate(fact.E.rows)] \
            + [(f"D.{c}", row) for c, row in enumerate(fact.D.rows)] \
            + [("mu", fact.mu.probs), ("objective", [fact.objective]),
               ("trace", fact.trace)]
        lines += [f"{key} = " + " ".join(float(v).hex() for v in values)
                  for key, values in named]
    return "\n".join(lines) + "\n"


def test_alternate_bits_match_golden():
    got = render_alternate_bits().splitlines()
    want = (GOLDEN / "zero_error_bits.txt").read_text().splitlines()
    assert got == want


def render_rd_bits() -> str:
    """The rd curve of the solvers benchmark (Hamming distortion, 12 targets
    in [0.02, 0.4]) on bsc25 and skewed_pair: the grid oracle's rate at
    resolution 400 and rd_function's rate at each target, as float.hex()."""
    lines = []
    for name in ("bsc25", "skewed_pair"):
        source = _demo_instance(name).source
        specs = _rd_curve()
        lines += [f"## {name}",
                  "grid = " + " ".join(rate.hex() for rate, _ in
                                       rd_grid_oracle(source, specs, 2, 400)),
                  "solver = " + " ".join(rd_function(source, spec, 2)[0].hex()
                                         for spec in specs)]
    return "\n".join(lines) + "\n"


def test_rd_bits_match_golden():
    got = render_rd_bits().splitlines()
    want = (GOLDEN / "rd_bits.txt").read_text().splitlines()
    assert got == want


def render_oracle_bits() -> str:
    """Both grid oracles at the solvers benchmark's settings on bsc25 and
    skewed_pair: brute_force_oracle at resolution 32 and the default c_max
    (objective, accuracy, E and D), and the certifying channel rows of
    rd_grid_oracle on the rd curve at resolution 400, each float as
    float.hex()."""
    lines = []
    for name in ("bsc25", "skewed_pair"):
        instance = _demo_instance(name)
        fact = brute_force_oracle(instance, 32)
        named = [("objective", [fact.objective]), ("accuracy", [fact.accuracy])] \
            + [(f"E.{x}", row) for x, row in enumerate(fact.E.rows)] \
            + [(f"D.{c}", row) for c, row in enumerate(fact.D.rows)] \
            + [(f"rd.{i}", channel.rows.ravel()) for i, (_, channel) in
               enumerate(rd_grid_oracle(instance.source, _rd_curve(), 2, 400))]
        lines.append(f"## {name}")
        lines += [f"{key} = " + " ".join(float(v).hex() for v in values)
                  for key, values in named]
    return "\n".join(lines) + "\n"


def test_oracle_bits_match_golden():
    got = render_oracle_bits().splitlines()
    want = (GOLDEN / "oracle_bits.txt").read_text().splitlines()
    assert got == want


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in TOUR_COMMANDS:
            (GOLDEN / f"{name}.txt").write_text(run_tour_command(argv, Path(tmp)))
    (GOLDEN / "zero_error_bits.txt").write_text(render_alternate_bits())
    (GOLDEN / "rd_bits.txt").write_text(render_rd_bits())
    (GOLDEN / "oracle_bits.txt").write_text(render_oracle_bits())
    sys.exit(0)
