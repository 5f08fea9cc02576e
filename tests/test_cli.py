"""End-to-end checks of the command-line front end: exit codes, config
resolution, cap overrides, and byte-identical reruns."""

import gc
import hashlib
import json
import math
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from chansim import applications, cli, covering, simulate
from chansim.cli import (ExperimentConfig, RunRecord,
                         build_config, compare_bounds, main,
                         parse_cap_overrides, run)
from chansim.core_prob import Channel, Distribution
from chansim.errors import (CAPS, CapExceededError, InfeasibleError,
                            InvalidInputError, RetriesExhaustedError)
from chansim.simulate import build_sim_code

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


def test_missing_instance_exits_2(capsys):
    assert main(["info"]) == 2
    err = capsys.readouterr().err
    assert "error=invalid-input command=(parse)" in err
    assert "the following arguments are required: instance" in err


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


def test_zero_error_vertex_table_cap_exits_3(tmp_path, capsys):
    """c_max 1000 on a 2 x 3 instance asks for a vertex table of 1000
    entries for each of the 1.67e8 supports of at most 3 rows; the instance
    is refused before anything is allocated."""
    doc = {"source": {"probs": [0.6, 0.4]},
           "channel": {"rows": [[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]]}, "c_max": 1000}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["zero-error", str(path), "--restarts", "1"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "above WORD_ENUM_CAP" in capsys.readouterr().err


ZERO_ERROR_AT_4 = ["zero-error", "--restarts", "1", "--oracle-resolution", "4"]
RATES_AT_4 = ["simulate", "--n", "4", "--rates-only"]
DERANDOMIZE_AT_4 = ["derandomize", "--n", "4", "--delta", "2.0"]


@pytest.mark.parametrize("argv, cap, value, limit", [
    (ZERO_ERROR_AT_4, "ORACLE_XY_CAP", "|Y| = 2", 1),
    (ZERO_ERROR_AT_4, "ORACLE_C_CAP", "c_max = 3", 2),
    (ZERO_ERROR_AT_4, "ORACLE_MULTISET_CAP", "35 multisets", 34),
    (["rd", "--hamming", "2", "--targets", "0.1", "--certify-resolution", "4"],
     "GRID_ORACLE_CAP", "25 channels", 24),
    (RATES_AT_4, "WORD_ENUM_CAP", "35 joint types", 34),
    (["cover", "--n", "4"], "WORD_ENUM_CAP", "35 joint types", 34),
    (["typical", "--n", "4"], "WORD_ENUM_CAP", "5 exact types", 4),
    (["typical", "--n", "4"], "EXACT_PROB_N_CAP", "n = 4", 3),
    (["cover", "--n", "4"], "COVER_TABLE_CAP", "36 entries", 35),
    (DERANDOMIZE_AT_4, "OUTPUT_ENUM_CAP", "16 words", 15),
    (DERANDOMIZE_AT_4, "BLOCK_ENUM_CAP", "256 entries", 255),
    (DERANDOMIZE_AT_4, "FIDELITY_ENUM_CAP", "16 block laws hold 4096", 4095),
    (ZERO_ERROR_AT_4, "WORD_ENUM_CAP", "vertex table has 18 entries", 17),
])
def test_oracle_cap_message_names_cap_value_and_limit(bsc_file, capsys, argv, cap,
                                                       value, limit):
    """Every cap that raises, lowered to one below what a small bsc run
    needs, exits 3 with a message naming the value, the cap and the limit;
    the value itself exits 0. bsc has |X| = |Y| = 2 and c_max = 3; at
    resolution 4 the zero-error grid has 5 rows, so C(7, 3) = 35 multisets
    of three, its vertex table has 3 entries for each of the 6 supports of
    at most 2 of the 3 decoder rows, and the rd grid has 5^2 = 25 channels. At n = 4 there are 5
    exact types and C(7, 3) = 35 joint types, counted before the rates are
    sized and before any family is drawn, the largest covering table has 36
    entries, and derandomize holds N = 16 pinned 16 x 16 laws."""
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


@pytest.mark.parametrize("epsilon", ["1e-9", "1e-200", "1e-320"])
def test_dilute_tiny_epsilon_exits_promptly(capsys, epsilon):
    # k = 3.1e10 at eps = 1e-9: no table of size k, and inexact k^2 weights
    # are refused with exit 2 instead of returned; at 1e-200 k^2 passes the
    # float64 range, and at 1e-320 k itself is infinite
    target = Path(__file__).resolve().parent.parent / "demos/instances/three_letter_target.json"
    t0 = time.perf_counter()
    code = main(["dilute", str(target), "--epsilon", epsilon])
    assert time.perf_counter() - t0 < 1.0
    assert code in ((0, 2) if epsilon == "1e-9" else (2,))
    if code == 2:
        assert "error=invalid-input command=dilute reason=epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("target, epsilon", [
    ({"probs": [0.25, 0.25, 0.25, 0.25]}, "1e-19"),
    ({"probs": [0.7, 0.2, 0.1]}, "1e-150"),
], ids=["uniform4-1e-19", "three-letter-1e-150"])
def test_dilute_k_past_int64_exits_2_without_a_warning(tmp_path, capsys, target, epsilon):
    # k passes 2^63 while k^2 stays finite: the plan is refused before its
    # bucket indices are cast to int64, so NumPy warns of no invalid cast
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"target": target}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["dilute", str(path), "--epsilon", epsilon]) == 2
    err = capsys.readouterr().err
    assert err.startswith("chansim: error=invalid-input command=dilute reason=epsilon")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("name, fits", [("bsc25", 93), ("skewed_pair", 88)])
def test_rd_curve_solves_each_slope_once(monkeypatch, name, fits):
    """The solvers benchmark's rd curve shares its slope solves across its
    12 targets: 93 and 88 fits, where solving every target alone takes 119
    and 113."""
    path = str(Path(__file__).resolve().parent.parent / f"demos/instances/{name}.json")
    fit, calls = applications._fit_channel, []
    monkeypatch.setattr(applications, "_fit_channel",
                        lambda source, gain: calls.append(gain) or fit(source, gain))
    run(build_config(["rd", path, "--hamming", "2", "--targets", "0.02:0.4:12"]))
    assert len(calls) == fits


@pytest.mark.parametrize("name, argv", [
    ("bsc25", ["rd", "--hamming", "2", "--targets", f"0.02:0.4:{CAPS['WORD_ENUM_CAP'] + 1}"]),
    ("three_letter_target",
     ["dilute", "--epsilon", "0.1", "--samples", str(CAPS["WORD_ENUM_CAP"] + 1)]),
], ids=["rd-targets", "dilute-samples"])
def test_count_flags_past_the_cap_exit_3_at_once(capsys, name, argv):
    """A --targets lo:hi:COUNT or --samples S one above WORD_ENUM_CAP is
    refused before its list or its draws are built."""
    path = Path(__file__).resolve().parent.parent / f"demos/instances/{name}.json"
    t0 = time.perf_counter()
    assert main([argv[0], str(path), *argv[1:]]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert f"above WORD_ENUM_CAP = {CAPS['WORD_ENUM_CAP']}" in capsys.readouterr().err


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


def test_cover_reports_the_records_of_the_code(tmp_path, bsc_file):
    """cover's rows are the records of build_sim_code at the same options
    and seed: the families simulate would use."""
    assert main(["cover", bsc_file, "--n", "4", "--delta", "2.0", "--epsilon", "0.1",
                 "--seed", "7", "--out", str(tmp_path)]) == 0
    rows = [line for line in (tmp_path / "cover.csv").read_text().splitlines()
            if not line.startswith("#")][1:]
    code = build_sim_code(Distribution.from_probs([0.5, 0.5]),
                          Channel.from_rows(BSC_DOC["channel"]["rows"]), 4, 2.0, 0.1, 7)
    want = [f"{idx},{';'.join('-'.join(map(str, row)) for row in t.counts)},"
            f"{rec.M},{rec.N},{rec.retries},"
            f"{rec.condition_I_min_margin:.12g},{rec.condition_II_margin:.12g}"
            for idx, (t, rec) in enumerate(code.records.items())]
    assert rows == want


def test_cover_holds_at_most_one_drawn_family(bsc_file, monkeypatch):
    """cover streams its draws: when each family is drawn, every family
    drawn before it is gone. build_sim_code, which keeps its families,
    holds all earlier ones, so the tracking sees a kept family."""
    drawn, live = [], []
    draw = simulate.build_covering

    def tracked(*args, **kwargs):
        gc.collect()
        live.append(sum(ref() is not None for ref in drawn))
        fam = draw(*args, **kwargs)
        drawn.append(weakref.ref(fam))
        return fam
    monkeypatch.setattr(simulate, "build_covering", tracked)
    assert main(["cover", bsc_file, "--n", "6", "--delta", "2.0", "--epsilon", "0.1"]) == 0
    assert live == [0] * 37
    drawn.clear()
    live.clear()
    code = build_sim_code(Distribution.from_probs([0.5, 0.5]),
                          Channel.from_rows(BSC_DOC["channel"]["rows"]), 6, 2.0, 0.1, 7)
    assert live == list(range(37)) and len(code.families) == 37


@pytest.mark.parametrize("argv", [
    ["cover", "--n", "4"],
    ["simulate", "--n", "4"],
    ["simulate", "--n", "4", "--rates-only"],
    ["sweep", "--n-min", "4", "--n-max", "4"],
], ids=["cover", "simulate", "simulate-rates-only", "sweep"])
def test_no_jointly_typical_type_exits_2_saying_widen_delta(capsys, argv):
    """At delta = 0 no bsc25 joint type of length 4 is jointly typical:
    every command that sizes a code exits 2 and says to widen delta."""
    bsc25 = str(Path(__file__).resolve().parent.parent / "demos/instances/bsc25.json")
    assert main([argv[0], bsc25, *argv[1:], "--delta", "0"]) == 2
    err = capsys.readouterr().err
    assert "error=invalid-input" in err and "widen delta" in err


def test_cover_table_cap_exits_before_sampling(bsc_file):
    assert main(["simulate", bsc_file, "--n", "6",
                 "--cap-override", "COVER_TABLE_CAP=10"]) == 3


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


@pytest.mark.parametrize("argv, reason", [
    (["--cap-override", "WORD_ENUM_CAP=abc"], "cap WORD_ENUM_CAP needs an integer"),
    (["--cap-override", "WORD_ENUM_CAP=2.5"], "cap WORD_ENUM_CAP needs an integer"),
    (["--seed", "-1"], "seed must be an unsigned 64-bit integer"),
    (["--seed", str(2 ** 64)], "seed must be an unsigned 64-bit integer"),
    (["--seed", "abc"], "argument --seed: invalid int value"),
    (["--seed", "1.5"], "argument --seed: invalid int value"),
    (["--n", "abc"], "argument --n: invalid int value"),
    (["--n", "4.7"], "argument --n: invalid int value"),
    (["--rates-only", "false"], "unrecognized arguments: false"),
    (["--config", "x.json"], "unrecognized arguments: --config x.json"),
], ids=["cap-text", "cap-float", "seed-negative", "seed-too-large", "seed-text",
        "seed-float", "n-text", "n-float", "rates-only-value", "config"])
def test_malformed_flags_exit_2(bsc_file, capsys, argv, reason):
    assert main(["simulate", bsc_file, *argv]) == 2
    err = capsys.readouterr().err
    assert "error=invalid-input" in err
    assert reason in err


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_config_file_accepts_subcommand_params(bsc_file, command):
    """Every flag of a command parses to a params entry of its _FLAGS type,
    and the same flags parsed again give the same params and hash."""
    value = {int: 4, float: 0.2, bool: True, str: "0.1,0.2"}
    params = {key: value[cli._FLAGS[key][0]] for key in cli._COMMANDS[command][2]}
    argv = [command, bsc_file]
    for key, v in params.items():
        argv += [cli._flag(key)] if v is True else [cli._flag(key), str(v)]
    cfg = build_config(argv)
    assert cfg.params == params
    assert all(type(v) is cli._FLAGS[key][0] for key, v in cfg.params.items())
    assert build_config(argv).config_hash() == cfg.config_hash()


COMMON_OPTIONS = ["-h", "--seed", "--out", "--cap-override"]
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
    assert lines[0] == "# chansim typical csv v12"
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


def test_rd_rows_do_not_depend_on_the_other_targets(tmp_path, bsc_file):
    rows = {}
    for targets in ("0.25,0.05,0.1", "0.05,0.1,0.25", "0.1"):
        out = tmp_path / targets
        assert main(["rd", bsc_file, "--hamming", "2", "--targets", targets,
                     "--certify-resolution", "400", "--out", str(out)]) == 0
        for line in (out / "rd.csv").read_text().splitlines()[4:]:
            rows.setdefault(line.split(",")[0], set()).add(line)
    assert sorted(rows) == ["0.05", "0.1", "0.25"]
    assert all(len(lines) == 1 for lines in rows.values())


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


def test_sweep_reports_its_largest_rate_rise_without_a_bound_row(capsys):
    """The rate is not monotone in n: at the default delta = 1 the bsc25
    rate rises from n = 50 to 51. sweep reports the largest step as
    max_rate_increase, and its one bound row, the mutual-information floor,
    passes."""
    bsc25 = str(Path(__file__).resolve().parent.parent / "demos/instances/bsc25.json")
    assert main(["sweep", bsc25, "--n-min", "50", "--n-max", "52",
                 "--keep-words-up-to", "0"]) == 0
    out = capsys.readouterr().out
    assert "max_rate_increase = 0.000333356149413" in out
    assert out.count("PASS") == 1 and "FAIL" not in out


def test_rates_only_runs_draw_no_covering_family(bsc_file, monkeypatch):
    """simulate --rates-only and sweep's rows above --keep-words-up-to read
    the sizing alone: with build_covering raising in every chansim module
    that binds it, both still exit 0, while cover, which draws, reaches it."""
    original = covering.build_covering

    def refuse(*args, **kwargs):
        raise AssertionError("a rates-only run drew a covering family")
    for name, module in list(sys.modules.items()):
        if name == "chansim" or name.startswith("chansim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)
    assert main(["simulate", bsc_file, "--n", "6", "--rates-only"]) == 0
    assert main(["sweep", bsc_file, "--n-min", "4", "--n-max", "6",
                 "--keep-words-up-to", "0"]) == 0
    with pytest.raises(AssertionError, match="drew a covering family"):
        main(["cover", bsc_file, "--n", "4"])


def test_rates_only_rows_reach_the_joint_enumeration_cap(capsys):
    """With no family drawn, sweep's rates-only rows run at n = 13 to 16,
    and a bsc25 rates-only row runs to n = 226, the largest block length
    whose C(n + 3, 3) joint types WORD_ENUM_CAP admits, under the default
    caps and at the benchmark's delta = 2, epsilon = 0.1, where both
    single-letter floor rows pass, as they do at the default delta = 1,
    where the message rate's slack is smallest; n = 227, with
    C(230, 3) = 2,001,460 joint types, exits 3 at that cap."""
    bsc25 = str(Path(__file__).resolve().parent.parent / "demos/instances/bsc25.json")
    t0 = time.perf_counter()
    assert main(["sweep", bsc25, "--n-min", "13", "--n-max", "16", "--keep-words-up-to", "0",
                 "--delta", "2.0", "--epsilon", "0.1"]) == 0
    assert time.perf_counter() - t0 < 2.0
    out = capsys.readouterr().out
    assert out.count("PASS") == 1 and "FAIL" not in out
    assert "last_rate = 1.72020635721" in out
    tolerances = ["--delta", "2.0", "--epsilon", "0.1", "--rates-only"]
    for flags in (tolerances, ["--rates-only"]):
        assert main(["simulate", bsc25, "--n", "226", *flags]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2 and "FAIL" not in out
    assert main(["simulate", bsc25, "--n", "227", *tolerances]) == 3
    assert ("2001460 joint types, above WORD_ENUM_CAP = 2000000"
            in capsys.readouterr().err)


@pytest.mark.parametrize("rows, reach, count", [
    ([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]], 44, math.comb(50, 5)),
    ([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]], 18, math.comb(27, 8)),
], ids=["2x3", "3x3"])
def test_rates_only_reach_follows_the_joint_type_count(tmp_path, capsys, rows, reach, count):
    """The one limit on a rates-only row is the count of joint types of
    length n over |X|·|Y| cells: under the default caps a 2 x 3 instance
    runs to n = 44 and a 3 x 3 one to n = 18, and one more letter exits 3."""
    x_size = len(rows)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"source": {"probs": [1 / x_size] * x_size},
                                "channel": {"rows": rows}}))
    assert main(["simulate", str(path), "--n", str(reach), "--rates-only"]) == 0
    capsys.readouterr()
    assert main(["simulate", str(path), "--n", str(reach + 1), "--rates-only"]) == 3
    assert f"{count} joint types, above WORD_ENUM_CAP" in capsys.readouterr().err


@pytest.mark.parametrize("n, row", [
    (64, "64,2,0.1,0,0.793443660374,0.890625,144115188075855872,,,"),
    (128, "128,2,0.1,0,0.559682746168,0.890625,20769187434139310514121985316880384,,,"),
], ids=["n64", "n128"])
def test_rates_only_rows_past_the_cap_keep_their_bytes(tmp_path, capsys, n, row):
    """Under the default caps, rates-only bsc25 rows at n = 64 (rate
    0.793444) and n = 128 (rate 0.559683), both at cr_rate 0.890625. Their
    sizes are those written when these n took a raised joint-type cap and
    every joint type was enumerated and filtered; the rate is the v10 count
    log2(sum_t M_t + 1) / n of those sizes, where that file read 0.903608
    and 0.625574."""
    bsc25 = str(Path(__file__).resolve().parent.parent / "demos/instances/bsc25.json")
    out = tmp_path / f"rates{n}"
    assert main(["simulate", bsc25, "--n", str(n), "--delta", "2.0", "--epsilon", "0.1",
                 "--rates-only", "--out", str(out)]) == 0
    assert "cr_rate = 0.890625" in capsys.readouterr().out
    head = "n,delta,epsilon,seed,rate,cr_rate,N,lambda_measured,lambda_bound,global_err"
    lines = (out / "simulate.csv").read_text().splitlines()
    assert lines[2].startswith("# config: ")
    assert lines[:2] + lines[3:] == ["# chansim simulate csv v12", f"# columns: {head}", head, row]


@pytest.mark.parametrize("name, digest", [
    ("bsc25", "33664e41ed977826900691e1e77bb5d38b831ce55781671ca2777c63ef9fb185"),
    ("skewed_pair", "32c35b730dbaaefd7d9830d1e4f4ae9207a98f1d493d59041f54ce86106a52dd"),
], ids=["bsc25", "skewed_pair"])
def test_rates_only_sweep_keeps_its_bytes(tmp_path, name, digest):
    """The rates-only sweep from n = 17 to 128 (delta = 2, epsilon = 0.1)
    writes the sweep.csv it wrote when every sized type was a JointType,
    sorted, and sized one at a time: the sha256 of every line but the
    config hash."""
    path = str(Path(__file__).resolve().parent.parent / f"demos/instances/{name}.json")
    assert main(["sweep", path, "--n-min", "17", "--n-max", "128", "--keep-words-up-to", "0",
                 "--delta", "2", "--epsilon", "0.1", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if not line.startswith(b"# config:"))
    assert hashlib.sha256(kept).hexdigest() == digest


def test_sizing_past_float64_is_invalid_input(capsys):
    """The sizing takes log2 of the exact integers 4 N |T_R| and 4 |T_S|, so
    bsc25 at n = 550 (delta = 2), whose 4 N |T_R| passes 2^1024, gets a
    rates-only row once WORD_ENUM_CAP admits the C(553, 3) joint types. A
    sizing still leaves float64 when c |T_S| or |T_R| |T_S| / |T_t| does
    (bsc25 from n = 1,013); it raises InvalidInputError naming n and the
    class size, which the CLI maps to exit 2."""
    bsc25 = str(Path(__file__).resolve().parent.parent / "demos/instances/bsc25.json")
    assert main(["simulate", bsc25, "--n", "550", "--delta", "2.0", "--epsilon", "0.1",
                 "--rates-only", "--cap-override",
                 f"WORD_ENUM_CAP={math.comb(553, 3)}"]) == 0
    assert "rate = 0.327295485478\n" in capsys.readouterr().out
    for sizes in [(2, 2 ** 1100, 2 ** 1101), (2 ** 1100, 2 ** 1000, 2)]:
        with pytest.raises(InvalidInputError, match="covering sizes at n = 7 leave float64: "
                           rf"the joint type class has 2\^{sizes[2].bit_length() - 1} or more"):
            covering.class_sizing(sizes, 0.1, 7)


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
