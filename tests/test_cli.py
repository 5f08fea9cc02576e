"""End-to-end checks of the command-line front end: exit codes, config
resolution, cap overrides, and byte-identical reruns."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from chansim import cli
from chansim.cli import (ExperimentConfig, RunRecord,
                         build_config, compare_bounds, main,
                         parse_cap_overrides, run)
from chansim.errors import (CAPS, CapExceededError, InfeasibleError,
                            InvalidInputError, RetriesExhaustedError)

BSC_DOC = {"source": {"probs": [0.5, 0.5]},
           "channel": {"rows": [[0.75, 0.25], [0.25, 0.75]]}}


@pytest.fixture
def bsc_file(tmp_path):
    path = tmp_path / "bsc.json"
    path.write_text(json.dumps(BSC_DOC))
    return str(path)


def test_info_values(bsc_file, capsys):
    assert main(["info", bsc_file]) == 0
    out = capsys.readouterr().out
    assert "H(P) = 1" in out
    assert "I(P;W) = 0.188721875541" in out
    assert "FAIL" not in out


def test_info_outputs_match_hand_values(bsc_file):
    cfg = build_config(["info", bsc_file])
    record = run(cfg)
    assert record.outputs["H(P)"] == pytest.approx(1.0, abs=1e-12)
    assert record.outputs["H(W|P)"] == pytest.approx(
        -0.75 * math.log2(0.75) - 0.25 * math.log2(0.25), abs=1e-12)
    assert record.outputs["H(PW)"] == pytest.approx(1.0, abs=1e-12)
    assert record.outputs["I(P;W)"] == pytest.approx(
        1.0 - record.outputs["H(W|P)"], abs=1e-12)


def test_compare_bounds_rows(bsc_file):
    record = run(build_config(["info", bsc_file]))
    rows = compare_bounds(record)
    assert rows
    for name, reference, lhs, rhs, slack, passed in rows:
        assert isinstance(name, str) and isinstance(reference, str)
        assert passed
        assert slack >= -1e-9


def test_compare_bounds_rejects_empty():
    record = RunRecord(config_hash="0" * 16, command="info", timings={},
                       outputs={}, comparisons=[])
    with pytest.raises(InvalidInputError):
        compare_bounds(record)


def test_malformed_instance_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    fields = [{"c_max": "abc"}, {"c_max": 2.7}, {"c_max": True},
              {"distortion": [["a", 1], [1, 0]]}, {"distortion": [[0, 1], [1]]}]
    for text in ['{"probs": nope'] + [json.dumps({**BSC_DOC, **f}) for f in fields]:
        bad.write_text(text)
        assert main(["info", str(bad)]) == 2, text
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error=invalid-input" in err


def test_unknown_instance_key_exits_2(tmp_path):
    doc = dict(BSC_DOC)
    doc["chanel"] = {"rows": [[1.0]]}
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    assert main(["info", str(path)]) == 2


@pytest.mark.parametrize("doc", [
    {"source": {"probs": [float("nan"), 1.0]}, "channel": BSC_DOC["channel"]},
    {"source": BSC_DOC["source"], "channel": {"rows": [[float("inf"), 0.0], [0.25, 0.75]]}},
    {"source": BSC_DOC["source"], "channel": {"rows": [[0.75, 0.25], [0.25, -float("inf")]]}},
])
def test_non_finite_instance_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))   # json writes NaN and Infinity, as Python reads them
    assert main(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error=invalid-input" in err and "non-finite" in err


@pytest.mark.parametrize("rows", [[], [[]], [[], []]])
def test_empty_channel_exits_2(tmp_path, capsys, rows):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"source": BSC_DOC["source"], "channel": {"rows": rows}}))
    with pytest.raises(InvalidInputError):
        build_config(["info", str(path)])
    assert main(["info", str(path)]) == 2
    assert "error=invalid-input" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["typical", "simulate", "cover"])
@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_non_finite_delta_exits_2(bsc_file, capsys, command, delta):
    assert main([command, bsc_file, "--n", "3", "--delta", delta]) == 2
    assert "error=invalid-input" in capsys.readouterr().err


def test_unmeetable_counts_exit_2(tmp_path, bsc_file, capsys):
    assert main(["zero-error", bsc_file, "--restarts", "0"]) == 2
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"target": {"probs": [0.7, 0.2, 0.1]}}))
    assert main(["dilute", str(path), "--epsilon", "0.1", "--samples", "-3"]) == 2
    for targets in (",", ""):
        assert main(["rd", bsc_file, "--hamming", "2", "--targets", targets]) == 2
    assert capsys.readouterr().err.count("error=invalid-input") == 4


def test_missing_instance_exits_2():
    assert main(["info"]) == 2


def test_missing_required_param_exits_2(bsc_file):
    assert main(["typical", bsc_file]) == 2


def test_cap_trip_exits_3(bsc_file, capsys):
    assert main(["typical", bsc_file, "--n", "400", "--delta", "1.0"]) == 3
    assert "error=cap-exceeded" in capsys.readouterr().err


def test_infeasible_exits_4(tmp_path, capsys):
    doc = dict(BSC_DOC)
    doc["c_max"] = 1
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    assert main(["zero-error", str(path)]) == 4
    assert "error=infeasible" in capsys.readouterr().err


def test_oracle_multiset_cap_exits_3(tmp_path, bsc_file, capsys):
    doc = {"source": {"probs": [0.6, 0.4]},
           "channel": {"rows": [[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]]}, "c_max": 4}
    path = tmp_path / "two_by_three.json"
    path.write_text(json.dumps(doc))
    # C(564, 4) = 4.17e9 multisets of grid rows at resolution 32
    assert main(["zero-error", str(path), "--restarts", "1",
                 "--oracle-resolution", "32"]) == 3
    assert "error=cap-exceeded" in capsys.readouterr().err
    # bsc at resolution 32 has C(35, 3) = 6545 multisets
    assert main(["zero-error", bsc_file, "--restarts", "1", "--oracle-resolution", "32",
                 "--cap-override", "ORACLE_MULTISET_CAP=6544"]) == 3


ZERO_ERROR_AT_4 = ["zero-error", "--restarts", "1", "--oracle-resolution", "4"]
RATES_AT_4 = ["simulate", "--n", "4", "--rates-only"]
DERANDOMIZE_AT_4 = ["derandomize", "--n", "4", "--delta", "2.0"]


@pytest.mark.parametrize("argv, cap, value, limit", [
    (ZERO_ERROR_AT_4, "ORACLE_XY_CAP", "|Y| = 2", 1),
    (ZERO_ERROR_AT_4, "ORACLE_C_CAP", "c_max = 3", 2),
    (ZERO_ERROR_AT_4, "ORACLE_MULTISET_CAP", "35 multisets", 34),
    (["rd", "--hamming", "2", "--targets", "0.1", "--certify-resolution", "4"],
     "GRID_ORACLE_CAP", "25 channels", 24),
    (RATES_AT_4, "JOINT_ENUM_N_CAP", "n = 4", 3),
    (RATES_AT_4, "JOINT_ENUM_CELLS_CAP", "4 cells", 3),
    (["typical", "--n", "4"], "WORD_ENUM_CAP", "5 exact types", 4),
    (["typical", "--n", "4"], "EXACT_PROB_N_CAP", "n = 4", 3),
    (["cover", "--n", "4"], "COVER_TABLE_CAP", "36 entries", 35),
    (DERANDOMIZE_AT_4, "OUTPUT_ENUM_CAP", "16 words", 15),
    (DERANDOMIZE_AT_4, "BLOCK_ENUM_CAP", "256 entries", 255),
    (DERANDOMIZE_AT_4, "FIDELITY_ENUM_CAP", "16 block laws hold 4096", 4095),
])
def test_oracle_cap_message_names_cap_value_and_limit(bsc_file, capsys, argv, cap,
                                                       value, limit):
    """Every cap that raises, lowered to one below what a small bsc run
    needs, exits 3 with a message naming the value, the cap and the limit;
    the value itself exits 0. bsc has |X| = |Y| = 2 and c_max = 3; at
    resolution 4 the zero-error grid has 5 rows, so C(7, 3) = 35 multisets
    of three, and the rd grid has 5^2 = 25 channels. At n = 4 there are 5
    exact types, the largest covering table has 36 entries, and derandomize
    holds N = 16 pinned 16 x 16 laws."""
    args = [argv[0], bsc_file, *argv[1:]]
    assert main(args + ["--cap-override", f"{cap}={limit}"]) == 3
    err = capsys.readouterr().err
    assert "error=cap-exceeded" in err
    assert value in err and f"above {cap} = {limit}" in err
    assert main(args + ["--cap-override", f"{cap}={limit + 1}"]) == 0


def test_exit_code_mapping_covers_all_errors(bsc_file, capsys, monkeypatch):
    for error, code, label in ((InvalidInputError, 2, "invalid-input"),
                               (CapExceededError, 3, "cap-exceeded"),
                               (InfeasibleError, 4, "infeasible"),
                               (RetriesExhaustedError, 5, "retries-exhausted")):
        def fail(cfg, bundle):
            raise error("raised by the handler")
        monkeypatch.setitem(cli._COMMANDS, "info", (fail, *cli._COMMANDS["info"][1:]))
        assert main(["info", bsc_file]) == code
        assert f"error={label} command=info reason=raised by the handler" \
            in capsys.readouterr().err

    def unmapped(cfg, bundle):
        raise KeyError("unmapped errors propagate")
    monkeypatch.setitem(cli._COMMANDS, "info", (unmapped, *cli._COMMANDS["info"][1:]))
    with pytest.raises(KeyError):
        main(["info", bsc_file])


def test_dilute_tiny_epsilon_exits_promptly(capsys):
    # k = 3.1e10 at eps = 1e-9: no table of size k, and inexact k^2 weights
    # are refused with exit 2 instead of returned
    target = Path(__file__).resolve().parent.parent / "demos/instances/three_letter_target.json"
    t0 = time.perf_counter()
    code = main(["dilute", str(target), "--epsilon", "1e-9"])
    assert time.perf_counter() - t0 < 1.0
    assert code in (0, 2)
    if code == 2:
        assert "error=invalid-input command=dilute" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [[[1.0], [1.0]], [[1.0]]])
def test_derandomize_one_output_letter(tmp_path, capsys, rows):
    path = tmp_path / "y1.json"
    path.write_text(json.dumps({"channel": {"rows": rows}}))
    assert main(["derandomize", str(path), "--n", "3", "--delta", "2.0"]) == 0
    assert "global_err = 0" in capsys.readouterr().out


def test_cap_override_raises_limit_and_restores(bsc_file):
    before = CAPS["EXACT_PROB_N_CAP"]
    code = main(["typical", bsc_file, "--n", "200", "--delta", "1.0",
                 "--cap-override", "EXACT_PROB_N_CAP=256"])
    assert code == 0
    assert CAPS["EXACT_PROB_N_CAP"] == before


@pytest.mark.parametrize("doc, argv", [
    # C(51, 11) = 4.8e10 types of 12-letter words at n = 40
    ({"source": {"probs": [1 / 12] * 12}}, ["typical", "--n", "40"]),
    # 9 source letters at n = 100: the source's types come before any joint type
    ({"source": {"probs": [1 / 9] * 9}, "channel": {"rows": [[1.0]] * 9}},
     ["simulate", "--n", "100", "--rates-only"]),
])
def test_type_enumeration_is_capped_before_it_runs(tmp_path, capsys, doc, argv):
    path = tmp_path / "many_letters.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert main([argv[0], str(path), *argv[1:]]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "above WORD_ENUM_CAP = 2000000" in capsys.readouterr().err


def test_cap_override_can_lower_limit(bsc_file):
    assert main(["cover", bsc_file, "--n", "4", "--epsilon", "0.1",
                 "--cap-override", "WORD_ENUM_CAP=2"]) == 3


def test_cover_table_cap_exits_before_sampling(bsc_file):
    assert main(["simulate", bsc_file, "--n", "6",
                 "--cap-override", "COVER_TABLE_CAP=10"]) == 3


@pytest.mark.parametrize("cap", ["JOINT_ENUM_N_CAP=3", "JOINT_ENUM_CELLS_CAP=2"])
def test_joint_enum_cap_overrides_apply(bsc_file, capsys, cap):
    assert main(["simulate", bsc_file, "--n", "6", "--rates-only",
                 "--cap-override", cap]) == 3
    assert "error=cap-exceeded" in capsys.readouterr().err


def test_derandomize_cap_override_declares_without_verifying(bsc_file, capsys):
    args = ["derandomize", bsc_file, "--n", "4", "--delta", "2.0"]
    assert main(args) == 0
    assert "verified = 1" in capsys.readouterr().out
    assert main(args + ["--cap-override", "EXACT_VERIFY_N_CAP=0"]) == 0
    assert "verified = 0" in capsys.readouterr().out


def test_cap_override_rejects_unknown_key():
    with pytest.raises(InvalidInputError):
        parse_cap_overrides(["NO_SUCH_CAP=5"])
    with pytest.raises(InvalidInputError):
        parse_cap_overrides(["EXACT_PROB_N_CAP"])
    with pytest.raises(InvalidInputError):
        parse_cap_overrides(["EXACT_PROB_N_CAP=ten"])


def test_config_file_merging(tmp_path, bsc_file):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "instance": bsc_file,
        "seed": 9,
        "params": {"n": 8, "delta": 1.0},
        "caps": {"EXACT_PROB_N_CAP": 200},
    }))
    cfg = build_config(["typical", "--config", str(conf)])
    assert cfg.seed == 9
    assert cfg.params["n"] == 8
    assert cfg.caps == {"EXACT_PROB_N_CAP": 200}
    assert cfg.instance == BSC_DOC
    # explicit flags win over the config document
    cfg2 = build_config(["typical", "--config", str(conf), "--seed", "3",
                         "--n", "6"])
    assert cfg2.seed == 3
    assert cfg2.params["n"] == 6
    # integral floats stand for integers and keep the hash
    conf.write_text(json.dumps({
        "instance": bsc_file,
        "seed": 9.0,
        "params": {"n": 8, "delta": 1.0},
        "caps": {"EXACT_PROB_N_CAP": 200.0},
    }))
    cfg3 = build_config(["typical", "--config", str(conf)])
    assert cfg3.config_hash() == cfg.config_hash()


def test_config_file_rejects_unknown_keys(tmp_path, bsc_file):
    conf = tmp_path / "conf.json"
    for doc in ({"instance": bsc_file, "sede": 9},
                {"instance": bsc_file, "mode": "exact"}):
        conf.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError):
            build_config(["info", "--config", str(conf)])


@pytest.mark.parametrize("command, doc", [
    ("simulate", {"caps": {"WORD_ENUM_CAP": "abc"}}),
    ("simulate", {"caps": ["WORD_ENUM_CAP"]}),
    ("simulate", {"caps": {"WORD_ENUM_CAP": 2.5}}),
    ("simulate", {"seed": "abc"}),
    ("simulate", {"seed": 1.5}),
    ("simulate", {"seed": True}),
    ("simulate", {"params": [1, 2]}),
    ("simulate", {"params": {"n": "abc"}}),
    ("simulate", {"params": {"n": 4.7}}),
    ("simulate", {"params": {"n": 4, "delta": "2"}}),
    ("simulate", {"params": {"n": 4, "rates_only": "false"}}),
    ("rd", {"params": {"hamming": 2, "targets": 0.1}}),
    ("simulate", {"out": 5}),
])
def test_malformed_config_exits_2(tmp_path, bsc_file, capsys, command, doc):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"instance": bsc_file, "params": {"n": 4}, **doc}))
    assert main([command, "--config", str(conf)]) == 2
    assert "error=invalid-input" in capsys.readouterr().err


def test_config_file_rejects_unknown_params(tmp_path, bsc_file):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"instance": bsc_file,
                                "params": {"n": 4, "epsilom": 0.1}}))
    with pytest.raises(InvalidInputError, match="epsilom"):
        build_config(["simulate", "--config", str(conf)])
    assert main(["simulate", "--config", str(conf)]) == 2


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_config_file_accepts_subcommand_params(tmp_path, bsc_file, command):
    """Every flag of a command is a params key of its config file, and the
    two routes give the same params and the same hash."""
    value = {int: 4, float: 0.2, bool: True, str: "0.1,0.2"}
    params = {key: value[cli._FLAGS[key][0]] for key in cli._COMMANDS[command][2]}
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"instance": bsc_file, "params": params}))
    cfg = build_config([command, "--config", str(conf)])
    assert cfg.params == params
    argv = [command, bsc_file]
    for key, v in params.items():
        argv += [cli._flag(key)] if v is True else [cli._flag(key), str(v)]
    assert build_config(argv).params == params
    assert build_config(argv).config_hash() == cfg.config_hash()


COMMON_OPTIONS = ["-h", "--config", "--seed", "--out", "--cap-override"]
COMMAND_FLAGS = {
    "info": [],
    "typical": ["--n", "--delta"],
    "cover": ["--n", "--delta", "--epsilon"],
    "simulate": ["--n", "--delta", "--epsilon", "--rates-only"],
    "derandomize": ["--n", "--delta", "--epsilon"],
    "zero-error": ["--restarts", "--oracle-resolution"],
    "rd": ["--targets", "--hamming", "--certify-resolution"],
    "dilute": ["--epsilon", "--samples"],
    "sweep": ["--n-min", "--n-max", "--delta", "--epsilon", "--keep-words-up-to"],
}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_every_command_help_lists_common_options_then_its_flags(command, capsys):
    assert list(cli._COMMANDS) == list(COMMAND_FLAGS)
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: chansim {command} ")
    assert "  instance  " in out
    options = out[out.index("\noptions:\n"):].splitlines()[1:]
    listed = [line.split()[0].rstrip(",") for line in options
              if line.startswith("  -")]
    assert listed == COMMON_OPTIONS + COMMAND_FLAGS[command]


def test_config_hash_reflects_instance_and_caps(bsc_file):
    base = build_config(["typical", bsc_file, "--n", "8", "--delta", "1.0"])
    same = build_config(["typical", bsc_file, "--n", "8", "--delta", "1.0"])
    assert base.config_hash() == same.config_hash()
    other_seed = build_config(["typical", bsc_file, "--n", "8",
                               "--delta", "1.0", "--seed", "1"])
    assert other_seed.config_hash() != base.config_hash()
    other_cap = build_config(["typical", bsc_file, "--n", "8", "--delta", "1.0",
                              "--cap-override", "EXACT_PROB_N_CAP=200"])
    assert other_cap.config_hash() != base.config_hash()
    # the out dir changes no numbers, so it does not change the hash
    moved = build_config(["typical", bsc_file, "--n", "8", "--delta", "1.0",
                          "--out", "elsewhere"])
    assert moved.config_hash() == base.config_hash()


def test_config_hash_ignores_default_caps(monkeypatch, bsc_file):
    argv = ["typical", bsc_file, "--n", "8", "--delta", "1.0"]
    base = build_config(argv).config_hash()
    monkeypatch.setitem(CAPS, "EXTRA_TEST_CAP", 7)
    assert build_config(argv).config_hash() == base
    override = build_config(argv + ["--cap-override", "EXTRA_TEST_CAP=8"])
    assert override.config_hash() != base


def test_consecutive_configs_share_no_parser_state(bsc_file):
    argv = ["derandomize", bsc_file, "--n", "4", "--delta", "2.0"]
    first = build_config(argv + ["--cap-override", "FIDELITY_ENUM_CAP=3583",
                                 "--seed", "3"])
    second = build_config(argv)
    assert first.caps == {"FIDELITY_ENUM_CAP": 3583} and first.seed == 3
    assert second.caps == {} and second.seed == 0
    assert first.params == second.params == {"n": 4, "delta": 2.0}
    third = build_config(argv + ["--cap-override", "BLOCK_ENUM_CAP=256"])
    assert third.caps == {"BLOCK_ENUM_CAP": 256}
    assert first.caps == {"FIDELITY_ENUM_CAP": 3583}
    assert build_config(["typical", bsc_file]).params == {}


def test_csv_headers_and_versioning(tmp_path, bsc_file):
    out = tmp_path / "run"
    assert main(["typical", bsc_file, "--n", "8", "--delta", "1.0",
                 "--out", str(out)]) == 0
    text = (out / "typical.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "# chansim typical csv v8"
    assert lines[1] == "# columns: n,delta,typical_type_count,chebyshev,chernoff,exact"
    assert lines[2].startswith("# config: ")
    assert lines[3] == "n,delta,typical_type_count,chebyshev,chernoff,exact"
    assert len(lines) == 5
    assert (out / "bounds.csv").exists()


def test_rerun_is_byte_identical(tmp_path, bsc_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", bsc_file, "--n", "4", "--delta", "1.0",
            "--epsilon", "0.1", "--seed", "7"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("simulate.csv", "bounds.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_rd_csv_matches_known_curve(tmp_path, bsc_file):
    out = tmp_path / "rd"
    assert main(["rd", bsc_file, "--hamming", "2", "--targets", "0.1,0.25",
                 "--certify-resolution", "400", "--out", str(out)]) == 0
    lines = (out / "rd.csv").read_text().splitlines()
    assert lines[3] == "d,R,slack,certified"
    rows = [line.split(",") for line in lines[4:]]
    assert [r[0] for r in rows] == ["0.1", "0.25"]
    assert float(rows[0][1]) == pytest.approx(0.5310044064107188, abs=1e-9)
    assert all(r[3] == "1" for r in rows)
    assert all(float(r[2]) >= -1e-9 for r in rows)


def test_rd_linspace_targets(bsc_file):
    cfg = build_config(["rd", bsc_file, "--hamming", "2",
                        "--targets", "0.1:0.3:3"])
    record = run(cfg)
    assert record.outputs["points"] == 3
    ds = [row[0] for row in record.table_rows]
    assert ds == pytest.approx([0.1, 0.2, 0.3], abs=1e-12)


def test_rd_zero_slack_writes_positive_zero(tmp_path):
    # the zero-rate corner at D = 0.4 leaves slack exactly 0.0
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps({"source": {"probs": [0.6, 0.4]}}))
    out = tmp_path / "rd"
    assert main(["rd", str(path), "--hamming", "2", "--targets", "0.2,0.4",
                 "--out", str(out)]) == 0
    budget = [line.split(",") for line in (out / "bounds.csv").read_text().splitlines()
              if line.startswith("every channel meets its distortion budget")]
    assert [row[2] for row in budget] == ["0"]


def test_rd_point_mass_rate_writes_positive_zero(tmp_path, capsys):
    # every letter's distortion minimizer is output 0, so R(0) is the
    # entropy of a point mass
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"source": {"probs": [0.5, 0.5]},
                                "distortion": [[0, 1], [0, 1]]}))
    out = tmp_path / "rd"
    assert main(["rd", str(path), "--targets", "0,0.2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "min_rate = 0\n" in printed and "max_rate = 0\n" in printed
    lines = (out / "rd.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines[4:]] == ["0", "0"]
    assert "-0" not in (out / "bounds.csv").read_text()


def test_rd_needs_distortion(bsc_file):
    assert main(["rd", bsc_file, "--targets", "0.1"]) == 2


def test_dilute_from_target_key(tmp_path):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"target": {"probs": [0.7, 0.2, 0.1]}}))
    record = run(build_config(["dilute", str(path), "--epsilon", "0.1",
                               "--samples", "500", "--seed", "5"]))
    k = record.outputs["k"]
    assert record.outputs["tv_error"] <= 2 * 0.1 + 1.0 / k + 1e-12
    assert "plan.json" in record.artifacts
    assert all(row.passed for row in record.comparisons)


def test_zero_error_artifact_round_trip(tmp_path, bsc_file):
    out = tmp_path / "ze"
    assert main(["zero-error", bsc_file, "--restarts", "5", "--seed", "0",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "factorization.json").read_text())
    e_rows = np.asarray(doc["E"]["rows"])
    d_rows = np.asarray(doc["D"]["rows"])
    w = np.asarray(BSC_DOC["channel"]["rows"])
    assert np.allclose(e_rows @ d_rows, w, atol=1e-9)


def test_sweep_columns_and_rates_only_gap(tmp_path, bsc_file):
    out = tmp_path / "sweep"
    assert main(["sweep", bsc_file, "--n-min", "4", "--n-max", "5",
                 "--delta", "2.0", "--epsilon", "0.1", "--seed", "7",
                 "--keep-words-up-to", "4", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[3] == "n,rate,cr_rate,strong_fidelity"
    first = lines[4].split(",")
    second = lines[5].split(",")
    assert first[0] == "4" and second[0] == "5"
    assert first[3] != ""          # words kept: fidelity measured
    assert second[3] == ""         # rates-only row leaves the column empty
    assert float(second[1]) < float(first[1])


@pytest.mark.parametrize("argv, csv_name", [
    (["simulate", "--n", "4"], "simulate.csv"),
    (["sweep", "--n-min", "3", "--n-max", "4", "--keep-words-up-to", "4"], "sweep.csv"),
])
def test_capped_fidelity_report_names_its_cap(tmp_path, bsc_file, capsys, argv, csv_name):
    """A 16-word output law over OUTPUT_ENUM_CAP = 15 drops the fidelity
    rows at n = 4 and exits 0, and stderr says which cap dropped them."""
    out = tmp_path / "capped"
    assert main([argv[0], bsc_file, *argv[1:], "--cap-override", "OUTPUT_ENUM_CAP=15",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "lambda_measured" not in captured.out
    assert "per-word output tv" not in captured.out
    assert captured.err.count("above OUTPUT_ENUM_CAP = 15") == 1
    last_row = (out / csv_name).read_text().splitlines()[-1].split(",")
    assert last_row[0] == "4" and last_row[-1] == ""


def test_run_record_fields(bsc_file):
    record = run(build_config(["info", bsc_file]))
    assert record.command == "info"
    assert len(record.config_hash) == 16
    assert set(record.timings) == {"run"}
    assert record.table_columns == ["quantity", "value"]
