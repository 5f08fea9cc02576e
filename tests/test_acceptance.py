"""Acceptance battery: every advertised guarantee checked end to end at its
stated tolerance, with wall-clock budgets asserted where they are part of
the contract.
"""

import math
import time

import numpy as np
import pytest

from chansim.applications import (DistortionSpec, build_dilution, rd_code_via_simulation,
                                  rd_function, rd_grid_oracle, realize_indices,
                                  uniform_indices)
from chansim.cli import main
from chansim.core_prob import (Channel, Distribution, binary_entropy,
                               conditional_entropy, entropy, mutual_information,
                               output_marginal, tv_distance)
from chansim.covering import build_covering, lemma2_failure_bound, verify_covering
from chansim.fidelity import (derandomize, derandomized_family,
                              measure_fidelity, min_nonzero_entry, required_Q)
from chansim.simulate import build_sim_code, sized_rates, sized_types, strong_fidelity_report
from chansim.typeclasses import (JointType, TypicalSpec,
                                 enumerate_joint_types, enumerate_type_class,
                                 enumerate_type_classes, joint_type_class_size,
                                 type_class_size, typical_probability_bounds)
from chansim.zero_error import (ZeroErrorInstance, alternate, brute_force_oracle,
                                intermediate_size_bound)

from test_covering import announced_types, type_sizing
from test_typeclasses import conditional_type_class_size

BSC = Channel.from_rows([[0.75, 0.25], [0.25, 0.75]])
UNIF = Distribution.uniform(2)


def test_information_identities_and_continuity_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        a = int(rng.integers(2, 7))
        b = int(rng.integers(2, 7))
        p = Distribution.from_probs(rng.dirichlet(np.ones(a)))
        w = Channel.from_rows(rng.dirichlet(np.ones(b), size=a))
        h_out = entropy(output_marginal(p, w))
        assert h_out == pytest.approx(
            mutual_information(p, w) + conditional_entropy(p, w), abs=1e-9)
    # entropy difference dominated by the continuity bound on close pairs:
    # |H(p) - H(q)| <= -lam log2(lam / a) for lam = sum |p - q| <= 1/2
    # (Cover and Thomas, Theorem 17.3.3)
    for _ in range(1000):
        a = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(a))
        r = rng.dirichlet(np.ones(a))
        t = float(rng.uniform(0.0, 0.25))   # l1 distance at most 2t <= 1/2
        q = (1.0 - t) * p + t * r
        dp, dq = Distribution.from_probs(p), Distribution.from_probs(q)
        gap = abs(entropy(dp) - entropy(dq))
        lam = float(np.abs(dp.probs - dq.probs).sum())
        bound = -lam * math.log2(lam / a) if lam > 0 else 0.0
        assert bound >= gap - 1e-12
    assert time.perf_counter() - t0 < 5.0


def test_type_cardinality_sandwiches_and_exhaustive_identities():
    t0 = time.perf_counter()
    # zero-width sandwich for every exact type, n <= 10, alphabets <= 3
    for a in (2, 3):
        for n in range(1, 11):
            for t in enumerate_type_classes(n, a):
                h = entropy(np.asarray(t.counts, dtype=float) / n)
                size = type_class_size(t)
                assert size <= 2.0 ** (n * h) * (1 + 1e-9)
                assert size >= (n + 1.0) ** (-a) * 2.0 ** (n * h) * (1 - 1e-9)
    # joint classes are type classes over the product alphabet
    for ax, ay in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for n in range(1, 11):
            for t in (t for base in enumerate_type_classes(n, ax)
                      for t in enumerate_joint_types(base, ay)):
                flat = np.asarray(t.counts, dtype=float).ravel() / n
                h = entropy(flat)
                size = joint_type_class_size(t)
                assert size <= 2.0 ** (n * h) * (1 + 1e-9)
                assert size >= (n + 1.0) ** (-ax * ay) * 2.0 ** (n * h) * (1 - 1e-9)
    # exhaustive uniformity: every word of a class carries the class probability
    rng = np.random.default_rng(11)
    for a, n in ((2, 6), (3, 5)):
        p = Distribution.from_probs(rng.dirichlet(np.ones(a)))
        log_p = np.log2(p.probs)
        total = 0.0
        for t in enumerate_type_classes(n, a):
            words = enumerate_type_class(t)
            assert len(words) == type_class_size(t)
            class_log = float(np.dot(t.counts, log_p))
            for word in words:
                direct = float(sum(log_p[s] for s in word))
                assert direct == pytest.approx(class_log, abs=1e-9)
            total += len(words) * 2.0 ** class_log
        assert total == pytest.approx(1.0, abs=1e-12)
    # y-side and x-side classes against a fixed word, n <= 6
    for n in (4, 6):
        for base in enumerate_type_classes(n, 2):
            for t in enumerate_joint_types(base, 2):
                joint = joint_type_class_size(t)
                assert conditional_type_class_size(t) * type_class_size(base) == joint
                transposed = JointType(n, tuple(zip(*t.counts)))
                assert conditional_type_class_size(transposed) \
                    * type_class_size(t.col_marginal()) == joint
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.parametrize("probs", [(0.5, 0.5), (0.9, 0.1)])
@pytest.mark.parametrize("n", [4, 8, 16, 32])
@pytest.mark.parametrize("delta", [1.0, 2.0, 3.0])
def test_typical_mass_dominates_closed_form_floors(probs, n, delta):
    p = Distribution.from_probs(probs)
    bounds = typical_probability_bounds(TypicalSpec(p, n, delta))
    assert bounds.exact >= bounds.chebyshev - 1e-12
    assert bounds.exact >= bounds.chernoff - 1e-12


def test_covering_families_verify_and_retry_statistics():
    t0 = time.perf_counter()
    types = announced_types(UNIF, BSC, 4, 2.0)
    assert types
    hardest, hardest_fam = None, None
    for idx, t in enumerate(types):
        fam = build_covering(t, 0.1, *type_sizing(t, 0.1), seed=idx)
        check = verify_covering(fam)
        assert check.passed
        assert float(check.condition_I_margin.min()) >= 0.0
        assert float(check.condition_II_margin) >= 0.0
        if hardest_fam is None or fam.M > hardest_fam.M:
            hardest, hardest_fam = t, fam
    # retry statistics across 100 seeds on the most demanding type
    failed_first = 0
    for s in range(100):
        fam = build_covering(hardest, 0.1, *type_sizing(hardest, 0.1),
                             seed=1000 + s)
        assert fam.retries < 16
        failed_first += 1 if fam.retries > 0 else 0
    size_r = type_class_size(hardest.row_marginal())
    size_s = type_class_size(hardest.col_marginal())
    size_t = joint_type_class_size(hardest)
    cell_mass = size_t / (size_r * size_s)
    per_attempt = min(1.0, hardest_fam.N * lemma2_failure_bound(
        size_r, hardest_fam.M, 0.1, cell_mass))
    assert per_attempt < 1.0
    sigma = math.sqrt(max(per_attempt * (1.0 - per_attempt), 1e-12) / 100.0)
    assert failed_first / 100.0 <= per_attempt + 3.0 * sigma + 1e-9
    assert time.perf_counter() - t0 < 300.0


def test_strong_fidelity_per_word_ceiling():
    t0 = time.perf_counter()
    for n in (4, 5, 6):
        code = build_sim_code(UNIF, BSC, n, delta=2.0, epsilon=0.1, seed=7)
        report = strong_fidelity_report(code)
        assert all(tv <= report["lambda_bound"] + 1e-12
                   for tv in report["per_word_tv"])
        assert report["lambda_measured"] <= report["lambda_bound"] + 1e-12
        assert report["lambda_measured"] <= 0.15
        # average criterion never exceeds the per-word one plus atypical mass
        assert report["global_err"] <= (report["lambda_measured"]
                                        + report["atypicality_mass"] + 1e-12)
    assert time.perf_counter() - t0 < 600.0


def test_rate_trends_across_block_lengths():
    t0 = time.perf_counter()
    mi = 1.0 - binary_entropy(0.25)
    rates = []
    for n in range(4, 13):
        rate, cr_rate, _ = sized_rates([s for _, s in sized_types(UNIF, BSC, n, 2.0, 0.1)], n)
        assert rate >= mi - 1e-9
        assert rate + cr_rate >= entropy(output_marginal(UNIF, BSC)) - 1e-9
        rates.append(rate)
    assert all(rates[i + 1] <= rates[i] + 1e-9 for i in range(len(rates) - 1))
    assert time.perf_counter() - t0 < 1800.0


def test_derandomized_code_letterwise_error_and_index_budget():
    t0 = time.perf_counter()
    code = build_sim_code(UNIF, BSC, 4, delta=2.0, epsilon=0.1, seed=7)
    dcode = derandomize(code, epsilon=0.1, seed=11)
    family, weights = derandomized_family(dcode)
    report = measure_fidelity(UNIF, BSC, family, weights)
    assert report.letterwise_source_err <= 3 * 0.1 + 1e-12
    # index count matches the stated polynomial sample-size formula
    u = min_nonzero_entry(BSC)
    stated = math.floor((4.0 * math.log(2.0) / (0.1 ** 2 * u))
                        * (4 * math.log2(2) + math.log2(2 * 2))) + 1
    assert dcode.Q == stated == required_Q(4, 2, 2, 0.1, u)
    overheads = [math.ceil(math.log2(required_Q(n, 2, 2, 0.1, u))) / n
                 for n in range(4, 11)]
    assert all(b < a for a, b in zip(overheads, overheads[1:]))
    assert time.perf_counter() - t0 < 600.0


def test_zero_error_solver_exact_and_certified():
    t0 = time.perf_counter()
    skew = Distribution.from_probs([0.6, 0.4])
    # identical rows: the label can be constant, entropy 0
    const = Channel.from_rows([[0.7, 0.3], [0.7, 0.3]])
    fact = alternate(ZeroErrorInstance.build(skew, const), seed=0, restarts=20)
    assert fact.objective == pytest.approx(0.0, abs=1e-9)
    # distinct point masses: the label must carry the source
    ident = Channel.from_rows([[1.0, 0.0], [0.0, 1.0]])
    fact = alternate(ZeroErrorInstance.build(skew, ident), seed=0, restarts=20)
    assert fact.objective == pytest.approx(entropy(skew), abs=1e-9)
    # oracle-certified binary instances
    cases = [
        (UNIF, BSC),
        (skew, Channel.from_rows([[0.9, 0.1], [0.3, 0.7]])),
        (UNIF, Channel.from_rows([[0.8, 0.2], [0.4, 0.6]])),
    ]
    for p, w in cases:
        instance = ZeroErrorInstance.build(p, w)
        fact = alternate(instance, seed=0, restarts=20)
        oracle = brute_force_oracle(instance, 32)
        assert fact.objective <= oracle.objective + oracle.accuracy + 1e-4
        assert fact.objective >= mutual_information(p, w) - 1e-9
        assert fact.objective <= entropy(p) + 1e-9
        live = int(np.count_nonzero(fact.E.rows.sum(axis=0) > 1e-12))
        assert live <= intermediate_size_bound(w.input_size, w.output_size)
        assert all(int(np.count_nonzero(row > 1e-12)) <= w.output_size
                   for row in fact.D.rows)
    # the symmetric instance has a closed-form optimum on the oracle grid
    bsc_oracle = brute_force_oracle(ZeroErrorInstance.build(UNIF, BSC), 32)
    assert bsc_oracle.objective == pytest.approx(binary_entropy(1.0 / 3.0), abs=1e-9)
    assert time.perf_counter() - t0 < 600.0


def test_rate_distortion_curve_certified_and_block_code():
    t0 = time.perf_counter()
    hamming = 1.0 - np.eye(2)
    specs = [DistortionSpec(hamming, d) for d in (0.05, 0.1, 0.25)]
    grid = rd_grid_oracle(UNIF, specs, 2, 400)
    for spec, (grid_rate, _) in zip(specs, grid):
        rate, _ = rd_function(UNIF, spec, 2)
        assert rate == pytest.approx(1.0 - binary_entropy(spec.target_d), abs=1e-4)
        assert rate == pytest.approx(grid_rate, abs=1e-4)
    targets = np.linspace(0.02, 0.48, 24)
    rates = [rd_function(UNIF, DistortionSpec(hamming, float(t)), 2)[0]
             for t in targets]
    assert all(rates[i + 1] <= rates[i] + 1e-9 for i in range(len(rates) - 1))
    assert all(rates[i + 1] <= (rates[i] + rates[i + 2]) / 2.0 + 1e-9
               for i in range(len(rates) - 2))
    res = rd_code_via_simulation(UNIF, DistortionSpec(hamming, 0.25), 2,
                                 n=6, delta=2.0, epsilon=0.1, seed=7)
    assert res.distortion <= 0.25 + res.slack + 1e-12
    assert time.perf_counter() - t0 < 600.0


def test_dilution_tv_budget_and_sampling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    targets = []
    for _ in range(100):
        size = int(rng.integers(2, 17))
        targets.append(Distribution.from_probs(rng.dirichlet(np.ones(size))))
    for epsilon in (0.05, 0.1, 0.2):
        for target in targets:
            plan = build_dilution(target, epsilon)
            assert plan.tv_error() <= 2.0 * epsilon + 1.0 / plan.k + 1e-12
    # sampling agreement: mean plus a three-sigma window at 10,000 draws
    draws = 10_000
    for epsilon, target in zip((0.05, 0.1, 0.2), targets[:3]):
        plan = build_dilution(target, epsilon)
        counts = np.bincount(
            realize_indices(plan, uniform_indices(plan.total_uniform_size, 99, draws)),
            minlength=target.alphabet_size)
        empirical = Distribution.from_probs(counts / draws)
        window = (math.sqrt(target.alphabet_size) + 3.0) / (2.0 * math.sqrt(draws))
        assert tv_distance(empirical, plan.realized_mixture()) <= window
    assert time.perf_counter() - t0 < 120.0


def test_cli_reruns_byte_identical(tmp_path):
    bsc_file = tmp_path / "bsc.json"
    bsc_file.write_text('{"source": {"probs": [0.5, 0.5]}, '
                        '"channel": {"rows": [[0.75, 0.25], [0.25, 0.75]]}}')
    skew_file = tmp_path / "skew.json"
    skew_file.write_text('{"target": {"probs": [0.7, 0.2, 0.1]}}')
    battery = [
        ["typical", str(bsc_file), "--n", "8", "--delta", "1.0"],
        ["cover", str(bsc_file), "--n", "4", "--delta", "2.0",
         "--epsilon", "0.1", "--seed", "7"],
        ["simulate", str(bsc_file), "--n", "4", "--delta", "2.0",
         "--epsilon", "0.1", "--seed", "7"],
        ["derandomize", str(bsc_file), "--n", "4", "--delta", "2.0",
         "--epsilon", "0.1", "--seed", "11"],
        ["zero-error", str(bsc_file), "--restarts", "10", "--seed", "0"],
        ["rd", str(bsc_file), "--hamming", "2", "--targets", "0.05,0.1,0.25",
         "--certify-resolution", "400"],
        ["dilute", str(skew_file), "--epsilon", "0.1", "--samples", "2000",
         "--seed", "5"],
        ["sweep", str(bsc_file), "--n-min", "4", "--n-max", "6",
         "--delta", "2.0", "--epsilon", "0.1", "--seed", "7",
         "--keep-words-up-to", "4"],
    ]
    for i, args in enumerate(battery):
        out_a = tmp_path / f"a{i}"
        out_b = tmp_path / f"b{i}"
        assert main(args + ["--out", str(out_a)]) == 0, args[0]
        assert main(args + ["--out", str(out_b)]) == 0, args[0]
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b and names_a, args[0]
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
                (args[0], name)
