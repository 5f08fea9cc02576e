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
of both grid oracles at the solvers benchmark's settings, and
zero_error_battery.txt both zero-error solvers on 60 random instances: a
last-bit drift there fails.
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
from chansim.core_prob import Channel, Distribution, simplex_grid
from chansim.errors import ChansimError
from chansim.zero_error import (ZeroErrorInstance, alternate, brute_force_oracle,
                                intermediate_size_bound)

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


def _battery_instances():
    """60 random zero-error instances from default_rng(2024): |X| and |Y| in
    {2, 3}, a Dirichlet(1) source, and channel rows drawn Dirichlet(1), or
    on every fifth instance from the grid of pitch 1/4; each with alternate's
    c_max (the largest, |X||Y| - 1) and the oracle's c_max and resolution
    (c_max 2 to 4, resolution 8 to 32 on |Y| = 2 and 3 to 6 on |Y| = 3)."""
    rng = np.random.default_rng(2024)
    instances = []
    for i in range(60):
        x_size, y_size = rng.integers(2, 4, size=2).tolist()
        source = Distribution.from_probs(rng.dirichlet(np.ones(x_size)))
        if i % 5 == 0:
            grid = simplex_grid(y_size, 4)
            rows = grid[rng.integers(len(grid), size=x_size)]
        else:
            rows = rng.dirichlet(np.ones(y_size), size=x_size)
        channel = Channel.from_rows(rows)
        c_oracle = int(rng.integers(2, min(4, intermediate_size_bound(x_size, y_size)) + 1))
        resolution = int(rng.integers(8, 33) if y_size == 2 else rng.integers(3, 7))
        instances.append((ZeroErrorInstance.build(source, channel),
                          ZeroErrorInstance.build(source, channel, c_oracle), resolution))
    return instances


def _factorization_line(label: str, run) -> str:
    """label, then the objective, the accuracy when there is one, E and D as
    float.hex(); or the error class when run() raises one."""
    try:
        fact = run()
    except ChansimError as err:
        return f"{label} = {type(err).__name__}"
    values = [fact.objective] + ([fact.accuracy] if fact.accuracy is not None else []) \
        + fact.E.rows.ravel().tolist() + fact.D.rows.ravel().tolist()
    return f"{label} = " + " ".join(float(v).hex() for v in values)


def render_zero_error_battery() -> str:
    """One line per solver run on the 60 battery instances: alternate
    (restarts=3, seed = the instance's index) and brute_force_oracle at the
    instance's c_max and resolution."""
    lines = []
    for i, (instance, small, resolution) in enumerate(_battery_instances()):
        shape = f"{instance.channel.input_size}x{instance.channel.output_size}"
        lines.append(_factorization_line(
            f"{i} {shape} alternate c={instance.c_max}",
            lambda: alternate(instance, seed=i, restarts=3)))
        lines.append(_factorization_line(
            f"{i} {shape} oracle c={small.c_max} resolution={resolution}",
            lambda: brute_force_oracle(small, resolution)))
    return "\n".join(lines) + "\n"


def test_zero_error_battery_matches_golden():
    got = render_zero_error_battery().splitlines()
    want = (GOLDEN / "zero_error_battery.txt").read_text().splitlines()
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
    (GOLDEN / "zero_error_battery.txt").write_text(render_zero_error_battery())
    sys.exit(0)
