"""Monte-Carlo harness: generation, trials, batches, emission, configs."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerodetect.core import MeasurementMatrix, RngSpec, SignalInstance
from zerodetect.errors import (
    BadK,
    BadValue,
    DimensionMismatch,
    IncompleteReport,
    NoGroups,
    ThetaOutOfRange,
)
from zerodetect.experiments import (
    ExperimentConfig,
    UniformAmplitude,
    _uniform_split,
    build_matrix,
    effective_theta,
    emit_plotdata,
    evaluate_detection,
    gen_group_signal,
    gen_noise,
    gen_tone_signal,
    parse_experiment_config,
    run_batch,
    run_trial,
    wilson_interval,
    write_report_csv,
)
from zerodetect.matrices import KerdockSpec, attach_groups, build_kerdock
from zerodetect.theory import noise_thresholds, stats_from_magnitudes

LAW = UniformAmplitude(1.0, 1000.0)


@pytest.fixture(scope="module")
def kerdock16():
    return build_kerdock(KerdockSpec(3))


def _unitary(p, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
    return MeasurementMatrix(q)


# ---------------------------------------------------------------------------
# generation


def test_gen_tone_signal_degenerate_cases():
    rng = RngSpec(61).generator()
    zero = gen_tone_signal(8, 0, LAW, rng)
    assert zero.k == 0 and np.all(zero.x == 0)
    assert zero.zero_support.indices == tuple(range(1, 9))
    full = gen_tone_signal(8, 8, LAW, rng)
    assert len(full.zero_support) == 0
    with pytest.raises(BadK):
        gen_tone_signal(8, 9, LAW, rng)


def test_gen_tone_signal_structure():
    rng = RngSpec(62).generator()
    sig = gen_tone_signal(64, 5, LAW, rng)
    assert sig.k == 5
    mags = np.abs(sig.x[sig.support.to_zero_based()])
    assert np.all((mags >= 1.0) & (mags <= 1000.0))


def test_gen_tone_amplitude_law_mean():
    # mean magnitude of Uniform[1, 1000] is 500.5; 10^5 draws
    rng = RngSpec(63).generator()
    draws = LAW.sample(rng, 100_000)
    assert abs(draws.mean() - 500.5) < 2.0


def _philox_state(rng):
    state = rng.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"], state["uinteger"])


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(key=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
       bounds=st.tuples(_positive, _positive).map(sorted), size=st.integers(0, 70),
       skip=st.integers(0, 5))
def test_uniform_split_matches_two_uniform_draws(key, bounds, size, skip):
    # a tripwire on the numpy version and build: a trial draws one rng.random(2 h)
    # where it drew law.sample(rng, h) and rng.uniform(0, 2 pi, h), so numpy's
    # uniform must stay low + range * next_double, rounded twice (a fused
    # multiply-add would fail here); skip leaves a cached 32-bit half behind
    law = UniformAmplitude(*bounds)
    ours, ref = (np.random.Generator(np.random.Philox(key=key)) for _ in range(2))
    for rng in (ours, ref):
        rng.integers(0, 2**32, skip, dtype=np.uint32)
    mags, phases = _uniform_split(ours.random(2 * size), law)
    assert np.array_equal(mags.view(np.uint64), law.sample(ref, size).view(np.uint64))
    assert np.array_equal(phases.view(np.uint64),
                          ref.uniform(0.0, 2.0 * np.pi, size).view(np.uint64))
    assert _philox_state(ours) == _philox_state(ref)


def test_gen_group_signal_structure():
    rng = RngSpec(64).generator()
    sig = gen_group_signal(32, 8, 4, LAW, rng)
    assert np.count_nonzero(sig.x) == 32
    active_blocks = {i // 8 for i in np.nonzero(sig.x)[0]}
    assert len(active_blocks) == 4
    for b in active_blocks:
        assert np.all(sig.x[b * 8:(b + 1) * 8] != 0)  # whole block active
    assert gen_group_signal(4, 2, 0, LAW, rng).k == 0
    assert gen_group_signal(4, 2, 4, LAW, rng).k == 8  # element-level sparsity
    with pytest.raises(BadK):
        gen_group_signal(4, 2, 5, LAW, rng)


def test_gen_noise_zero_variance():
    w = gen_noise(16, 0.0, "total", RngSpec(65).generator())
    assert np.all(w == 0)


def test_gen_noise_energy_both_conventions():
    # E||w||^2 / n -> sigma2 (total) and 2 sigma2 (per component), 10^5 entries
    for convention, factor in (("total", 1.0), ("per_component", 2.0)):
        w = gen_noise(100_000, 7.0, convention, RngSpec(66).generator())
        per_entry = float(np.mean(np.abs(w) ** 2))
        assert abs(per_entry - factor * 7.0) / (factor * 7.0) < 0.01


def test_gen_noise_deterministic():
    a = gen_noise(32, 2.0, "total", RngSpec(67).substream(3))
    b = gen_noise(32, 2.0, "total", RngSpec(67).substream(3))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# single trials


def test_run_trial_noiseless_unitary_exact():
    m = _unitary(16, 68)
    cfg = ExperimentConfig(sigma2=0.0, k_grid=(4,), theta_grid=(12,),
                           trials=1, master_seed=1)
    for t in range(25):
        fdp, zf, hit = run_trial(cfg, 4, 12, "zd_ost", t, matrix=m)
        assert fdp == 0.0 and hit
        assert zf == 1.0  # theta = p - k captures the whole zero-support


def test_run_trial_full_signal_zero_fraction_nan(kerdock16):
    cfg = ExperimentConfig(sigma2=500.0, k_grid=(256,), theta_grid=(1,),
                           trials=1, master_seed=2)
    fdp, zf, hit = run_trial(cfg, 256, 1, "zd_ost", 0, matrix=kerdock16)
    assert math.isnan(zf)
    assert not hit  # the zero-support is empty, so it cannot be hit
    assert fdp == 1.0


def test_run_trial_golden_tuples(kerdock16):
    # frozen from a seeded end-to-end run
    cfg = ExperimentConfig(sigma2=500.0, k_grid=(16,), theta_grid=(1,),
                           trials=2, master_seed=20260808)
    assert run_trial(cfg, 16, 1, "zd_ost", 0, matrix=kerdock16) == (
        0.0, 1.0 / 240.0, True)
    assert run_trial(cfg, 16, 1, "zd_ost", 1, matrix=kerdock16) == (
        0.0, 1.0 / 240.0, True)


def test_baseline_full_support_cases(kerdock16):
    # the full-support baseline keeps the top k scores; hit means exact recovery
    m = _unitary(16, 69)
    rng = RngSpec(70).substream(3, 0)
    sig = gen_tone_signal(16, 3, LAW, rng)
    y = m.matrix @ sig.x
    assert evaluate_detection("ost_topk_full_support", 3, m, y, sig) == (0.0, 1.0, True)
    empty = SignalInstance.from_vector(np.zeros(16))
    fdp, zf, hit = evaluate_detection("ost_topk_full_support", 0, m, y, empty)
    assert (fdp, hit) == (0.0, True) and math.isnan(zf)
    # frozen golden: noisy Kerdock instance, k = 8 (5 of the top 8 are wrong)
    rng = RngSpec(99).substream(8, 0)
    sig = gen_tone_signal(256, 8, LAW, rng)
    w = gen_noise(16, 500.0, "total", rng)
    y = kerdock16.matrix @ sig.x + w
    golden = (0.625, 0.375, False)
    assert evaluate_detection("ost_topk_full_support", 8, kerdock16, y, sig) == golden
    cfg = ExperimentConfig(sigma2=500.0, k_grid=(8,), theta_grid=(1,), trials=1,
                           master_seed=99, detectors=("ost_topk_full_support",))
    assert run_trial(cfg, 8, 8, "ost_topk_full_support", 0, matrix=kerdock16) == golden


def test_group_zero_support(kerdock16):
    # zd_groth is scored against the groups that hold no support element
    x = np.zeros(256, dtype=np.complex128)
    x[0] = 1.0   # group 1
    x[250] = 2.0  # group 32
    sig = SignalInstance.from_vector(x)
    eye = attach_groups(MeasurementMatrix(np.eye(256)), 8)
    # y = x: groups 2..31 score 0, so theta = 30 selects exactly them
    assert evaluate_detection("zd_groth", 30, eye, x, sig) == (0.0, 1.0, True)
    assert evaluate_detection("zd_groth", 32, eye, x, sig) == (2 / 32, 1.0, True)
    m = attach_groups(kerdock16, 8)
    assert evaluate_detection("zd_groth", 32, m, m.matrix @ x, sig) == (2 / 32, 1.0, True)
    with pytest.raises(NoGroups):
        evaluate_detection("zd_groth", 1, kerdock16, kerdock16.matrix @ x, sig)


def test_evaluate_detection_rejects_a_signal_of_the_wrong_length():
    # a length-1 signal would broadcast against the 4 scores
    m = _unitary(4, 72)
    with pytest.raises(DimensionMismatch):
        evaluate_detection("zd_ost", 1, m, np.ones(4), SignalInstance.from_vector(np.ones(1)))
    with pytest.raises(BadValue, match="unknown detector 'nope'"):
        evaluate_detection("nope", 1, m, np.ones(4), SignalInstance.from_vector(np.ones(4)))


@pytest.mark.parametrize("detector", ["zd_ost", "zd_groth", "ost_topk"])
def test_one_trial_paths_take_theta_as_an_integer(kerdock16, detector):
    m = attach_groups(kerdock16, 8)
    cfg = ExperimentConfig(sigma2=500.0, k_grid=(3,), theta_grid=(2,), trials=1,
                           master_seed=73, group_size=8)
    sig = gen_tone_signal(256, 3, LAW, RngSpec(73).substream(3, 0))
    y = m.matrix @ sig.x
    for bad in (2.0, "2"):
        with pytest.raises(ThetaOutOfRange):
            evaluate_detection(detector, bad, m, y, sig)
        with pytest.raises(ThetaOutOfRange):
            run_trial(cfg, 3, bad, detector, 0, matrix=m)
    assert (evaluate_detection(detector, np.int64(2), m, y, sig)
            == evaluate_detection(detector, 2, m, y, sig))
    assert (run_trial(cfg, 3, np.int64(2), detector, 0, matrix=m)
            == run_trial(cfg, 3, 2, detector, 0, matrix=m))


def test_effective_theta_matched_budget():
    cfg = ExperimentConfig(signal_model="group", group_size=8,
                           k_grid=(2,), theta_grid=(1,), trials=1)
    assert effective_theta(cfg, "zd_groth", 3) == 3
    assert effective_theta(cfg, "zd_ost", 3) == 24
    assert effective_theta(cfg, "ost_topk", 1) == 8
    tone = ExperimentConfig(k_grid=(2,), theta_grid=(1,), trials=1)
    assert effective_theta(tone, "zd_ost", 3) == 3


# ---------------------------------------------------------------------------
# batches


def _small_config(**overrides):
    base = dict(
        matrix_family="bernoulli", rows=8, cols=32, matrix_seed=4,
        sigma2=4.0, k_grid=(2, 6), theta_grid=(1, 4), trials=20,
        detectors=("zd_ost",), master_seed=71, amplitude_lo=1.0,
        amplitude_hi=10.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_batch_single_trial_equals_run_trial():
    cfg = _small_config(trials=1)
    report = run_batch(cfg)
    m = build_matrix(cfg)
    for cell in report.cells:
        single = run_trial(cfg, cell.k, cell.theta, cell.detector, 0, matrix=m)
        assert cell.fdp_mean == single.fdp
        assert cell.pe == (0.0 if single.hit else 1.0)
        if not math.isnan(single.zero_fraction):
            assert cell.zero_fraction_mean == single.zero_fraction


def test_run_batch_doubling_trials_preserves_prefix():
    short = run_batch(_small_config(trials=10), keep_trials=True)
    long = run_batch(_small_config(trials=20), keep_trials=True)
    short_rows = {(r.k, r.theta, r.detector, r.trial): r for r in short.per_trial}
    for r in long.per_trial:
        key = (r.k, r.theta, r.detector, r.trial)
        if r.trial < 10:
            assert short_rows[key] == r or (
                math.isnan(short_rows[key].zero_fraction) and math.isnan(r.zero_fraction)
                and short_rows[key][:5] == r[:5]
            )


def test_run_batch_pe_dominance_across_theta_per_trial():
    cfg = _small_config(theta_grid=(1, 4, 16), trials=30)
    report = run_batch(cfg, keep_trials=True)
    hits = {(r.k, r.theta, r.trial): r.hit for r in report.per_trial}
    for k in cfg.k_grid:
        for t in range(cfg.trials):
            assert hits[(k, 1, t)] <= hits[(k, 4, t)] <= hits[(k, 16, t)]


def test_run_batch_zero_fraction_fdp_relation():
    cfg = _small_config(trials=25)
    report = run_batch(cfg, keep_trials=True)
    for r in report.per_trial:
        zeros = 32 - r.k
        if r.theta <= zeros:
            # |selection ∩ E| = theta (1 - FDP) = zero_fraction |E|
            assert abs(r.theta * (1 - r.fdp) - r.zero_fraction * zeros) < 1e-9


def test_run_batch_noiseless_zero_sparsity():
    cfg = _small_config(sigma2=0.0, k_grid=(0,), trials=5)
    report = run_batch(cfg)
    for cell in report.cells:
        assert cell.fdp_mean == 0.0 and cell.pe == 0.0


def test_run_batch_deterministic_bytes(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        report = run_batch(_small_config())
        path = tmp_path / name
        write_report_csv(report, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_run_batch_validates_grids(kerdock16):
    with pytest.raises(BadK):
        run_batch(_small_config(k_grid=(40,)))
    with pytest.raises(BadK, match=r"^k must be in 0\.\.32, got -1$"):
        run_batch(_small_config(k_grid=(-1,)))
    with pytest.raises(BadValue):
        run_batch(_small_config(theta_grid=(33,)))
    with pytest.raises(NoGroups):
        run_batch(_small_config(detectors=("zd_groth",)))


def _bernoulli_batch(k):
    return run_batch(ExperimentConfig(matrix_family="bernoulli", rows=8, cols=32,
                                      k_grid=(k,), theta_grid=(1,), trials=3))


@pytest.mark.parametrize("k", [2.0, 2.5])
def test_run_batch_rejects_a_non_integer_k(k):
    with pytest.raises(BadK, match="k must be an integer"):
        _bernoulli_batch(k)


def test_run_batch_takes_a_numpy_integer_k_as_an_int():
    cells = _bernoulli_batch(np.int64(2)).cells
    assert cells == _bernoulli_batch(2).cells
    assert all(type(cell.k) is int for cell in cells)


def test_run_batch_group_model_matched_budget():
    cfg = _small_config(signal_model="group", group_size=4,
                        detectors=("zd_groth", "zd_ost"),
                        k_grid=(1, 3), theta_grid=(1, 2), trials=10)
    report = run_batch(cfg)
    for cell in report.cells:
        expected = cell.theta_grid * (4 if cell.detector == "zd_ost" else 1)
        assert cell.theta == expected


def test_wilson_interval_against_direct_formula():
    lo, hi = wilson_interval(13, 50)
    z = 1.959963984540054
    phat = 13 / 50
    denom = 1 + z**2 / 50
    center = (phat + z**2 / 100) / denom
    half = z * math.sqrt(phat * (1 - phat) / 50 + z**2 / (4 * 50**2)) / denom
    assert abs(lo - (center - half)) < 1e-15
    assert abs(hi - (center + half)) < 1e-15
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and 0.0 < hi0 < 0.05
    with pytest.raises(BadValue):
        wilson_interval(5, 4)
    with pytest.raises(BadValue, match="n must be >= 1, got 0"):
        wilson_interval(0, 0)
    with pytest.raises(BadValue, match="n must be an integer, got float 4.5"):
        wilson_interval(2, 4.5)


# ---------------------------------------------------------------------------
# plot emission


def test_emit_plotdata_one_file_per_theta(tmp_path):
    report = run_batch(_small_config(theta_grid=(1, 4)))
    files = emit_plotdata(report, "1", tmp_path)
    names = sorted(f.name for f in files)
    assert names == ["fig1_manifest.csv", "fig1_zd_ost_theta1.csv", "fig1_zd_ost_theta4.csv"]


def test_emit_plotdata_round_trip_exact(tmp_path):
    report = run_batch(_small_config(theta_grid=(1,)))
    files = emit_plotdata(report, "2", tmp_path)
    curve = next(f for f in files if "zd_ost" in f.name)
    lines = curve.read_text().splitlines()
    assert lines[0] == "k,value,ci_lo,ci_hi"
    for line, cell in zip(lines[1:], report.cells):
        k, value, lo, hi = line.split(",")
        assert int(k) == cell.k
        assert float(value) == cell.pe  # 17 significant digits round-trip
        assert float(lo) == cell.pe_lo and float(hi) == cell.pe_hi


def test_emit_plotdata_fig1_substitutes_zero_fraction(tmp_path):
    # theta = 4 exceeds |E| = 1 at k = 31: fig 1 reports the recovered
    # zero fraction there instead of the false-discovery proportion
    report = run_batch(_small_config(k_grid=(2, 31), theta_grid=(4,), trials=10))
    files = emit_plotdata(report, "1", tmp_path)
    curve = next(f for f in files if "theta4" in f.name)
    rows = curve.read_text().splitlines()[1:]
    by_k = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    cells = {c.k: c for c in report.cells}
    assert by_k[2] == cells[2].fdp_mean
    assert by_k[31] == cells[31].zero_fraction_mean


def test_emit_plotdata_fig3_adds_full_support_fdp_curve(tmp_path):
    cfg = _small_config(detectors=("zd_ost", "ost_topk", "ost_topk_full_support"),
                        theta_grid=(1,), trials=10)
    files = emit_plotdata(run_batch(cfg), "3", tmp_path)
    names = {f.name for f in files}
    assert "fig3_ost_topk_full_support_theta1.csv" in names
    assert "fig3_ost_topk_full_support_fdp_theta1.csv" in names
    manifest = next(f for f in files if f.name == "fig3_manifest.csv").read_text()
    assert "fdp" in manifest and "pe" in manifest


def test_emit_plotdata_unknown_figure(tmp_path):
    report = run_batch(_small_config(trials=2))
    with pytest.raises(BadValue):
        emit_plotdata(report, "5", tmp_path)
    lacking = dataclasses.replace(report, cells=report.cells[1:])  # the first curve lacks k = 2
    with pytest.raises(IncompleteReport, match="does not cover the k grid"):
        emit_plotdata(lacking, "2", tmp_path)
    # a whole curve missing: the zd_ost curves alone of a zd_ost, ost_topk batch
    both = run_batch(_small_config(trials=2, detectors=("zd_ost", "ost_topk")))
    zd_only = dataclasses.replace(
        both, cells=tuple(c for c in both.cells if c.detector == "zd_ost"))
    with pytest.raises(IncompleteReport, match=r"^curve \('ost_topk', 1\) does not cover"):
        emit_plotdata(zd_only, "2", tmp_path / "zd_only")
    assert not (tmp_path / "zd_only").exists()


# Small Kerdock m = 3 batches that reach figure 1's zero-fraction substitution
# (theta > |zero support| at the largest k), figure 3's full-support fdp curve,
# empty target sets, a group model with k = 0, and (300 trials against 256 per
# block) a k that spans two trial blocks.
_FROZEN_BATCHES = {
    "tone": ExperimentConfig(
        matrix_family="kerdock", kerdock_m=3, sigma2=500.0, k_grid=(0, 16, 254, 256),
        theta_grid=(1, 4), detectors=("zd_ost", "ost_topk", "ost_topk_full_support"),
        trials=300, master_seed=11),
    "group": ExperimentConfig(
        matrix_family="kerdock", kerdock_m=3, sigma2=500.0, signal_model="group",
        group_size=8, k_grid=(0, 3, 31, 32), theta_grid=(1, 4),
        detectors=("zd_groth", "zd_ost", "ost_topk"), trials=40, master_seed=12),
}

# SHA-256 over the file names and bytes, sorted by name; "trials" hashes the
# repr of the per-trial records
_FROZEN_DIGESTS = {
    ("tone", "report"): "f0ff369825f67fc86b3321cff7bf5751a63f162cd6d09e9a340484aeabf06315",
    ("tone", "trials"): "698768cbb32438e3936a2720fd7e8dd88e4859833cdf1499c406402021ae2412",
    ("tone", "1"): "18ab52f3440e3a656cc290a30eb0a724822107125c4ffd5166d19c2a38be8720",
    ("tone", "2"): "4e87eaaf4026d583ee369d955e9af2780291a58be8865cdc1cd7e744afcfca81",
    ("tone", "3"): "244d20136fb16635c668129b247c7b4599cc8060c6bbb5e413f25af656e3efe4",
    ("tone", "4a"): "43e019b9270e32f7f8cde2aa4891ac1e80fc08137cef75c31652427362e3c6ef",
    ("tone", "4b"): "faa4520664c6a620e60d5d1150f0c57ed6570d61b9f86cf42816df5e852ba989",
    ("group", "report"): "68d7e405340d1a9eb0af64c617ad16ac6511a376509bd9f491abc6902e051da6",
    ("group", "trials"): "11f6e9842b983b9f3dc85fe9b3447547f089107d1c85ffc9c0be04619d235681",
    ("group", "1"): "bcc6dc17a7bfbc2335429e79eda6179640ec1054881b44ac7d007ea00a4805cc",
    ("group", "2"): "cb725c075b670a27c05f68b868c1b898d5964223b7644e8b0ee44de50c095cf2",
    ("group", "3"): "f06ad3980772beda0de33c3e044b35dc5215c70aa7f838635fc4cb69a810a435",
    ("group", "4a"): "79a38220650d123808d2e927c31aa0d846efde07743b7aa11e01938710f91134",
    ("group", "4b"): "67a500015505a03f711533b31259dce164a6ff62862e3acc9ee65a3aa00ce8cf",
}


@pytest.fixture(scope="module")
def frozen_reports():
    return {name: run_batch(cfg, keep_trials=True) for name, cfg in _FROZEN_BATCHES.items()}


def _files_digest(files) -> str:
    h = hashlib.sha256()
    for f in sorted(files, key=lambda f: f.name):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("batch, output", sorted(_FROZEN_DIGESTS))
def test_report_and_plotdata_bytes_are_frozen(frozen_reports, tmp_path, batch, output):
    report = frozen_reports[batch]
    if output == "report":
        write_report_csv(report, tmp_path / "report.csv")
        got = _files_digest([tmp_path / "report.csv"])
    elif output == "trials":
        got = hashlib.sha256(repr(report.per_trial).encode()).hexdigest()
    else:
        got = _files_digest(emit_plotdata(report, output, tmp_path))
    assert got == _FROZEN_DIGESTS[batch, output]


def test_report_cell_lookup_raises_when_missing():
    report = run_batch(_small_config(trials=2))
    with pytest.raises(IncompleteReport):
        report.cell(99, 1, "zd_ost")
    with pytest.raises(BadValue, match=r"fdp_mean must be in \[0, 1\], got 1.5"):
        dataclasses.replace(report.cells[0], fdp_mean=1.5)


# ---------------------------------------------------------------------------
# config files


def test_parse_experiment_config_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment line\n"
        "matrix_family = bernoulli\n"
        "rows = 8\n"
        "cols = 32\n"
        "matrix_seed = 4\n"
        "sigma2 = 4.0   # inline comment\n"
        "k_grid = 2, 6\n"
        "theta_grid = 1,4\n"
        "trials = 20\n"
        "detectors = zd_ost\n"
        "master_seed = 71\n"
    )
    cfg = parse_experiment_config(path)
    assert cfg == _small_config(amplitude_lo=1.0, amplitude_hi=1000.0)


def test_parse_experiment_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("matrix_family = kerdock\nwhat = 3\n")
    with pytest.raises(BadValue):
        parse_experiment_config(path)


def test_parse_experiment_config_rejects_duplicates_and_garbage(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("trials = 5\ntrials = 6\n")
    with pytest.raises(BadValue):
        parse_experiment_config(path)
    path.write_text("just some words\n")
    with pytest.raises(BadValue):
        parse_experiment_config(path)
    path.write_text("trials = soon\n")
    with pytest.raises(BadValue):
        parse_experiment_config(path)
    for key in ("k_grid", "theta_grid"):  # an empty list would run no cell and exit 0
        path.write_text(f"{key} =\n")
        with pytest.raises(BadValue, match=f"{key} must not be empty"):
            parse_experiment_config(path)


def test_config_validation():
    with pytest.raises(BadValue):
        ExperimentConfig(trials=0)
    with pytest.raises(BadValue, match="trials must be >= 1, got -2"):
        ExperimentConfig(trials=-2)
    for key in ("k_grid", "theta_grid", "detectors"):
        with pytest.raises(BadValue, match=f"{key} must not be empty"):
            ExperimentConfig(**{key: ()})
    with pytest.raises(BadValue, match="unknown matrix family 'nope'"):
        ExperimentConfig(matrix_family="nope")
    with pytest.raises(BadValue, match="unknown signal model 'nope'"):
        ExperimentConfig(signal_model="nope")
    with pytest.raises(BadValue):
        ExperimentConfig(detectors=("nope",))
    with pytest.raises(BadValue):
        ExperimentConfig(signal_model="group")  # needs group_size
    with pytest.raises(BadValue):
        ExperimentConfig(noise_convention="weird")


def test_gen_noise_and_config_check_sigma2_and_convention_alike():
    rng = RngSpec(69).generator()
    for sigma2, convention, match in ((-1.0, "total", r"sigma2 must be >= 0, got -1.0"),
                                      (1.0, "weird", "unknown noise convention 'weird'")):
        with pytest.raises(BadValue, match=match):
            gen_noise(4, sigma2, convention, rng)
        with pytest.raises(BadValue, match=match):
            ExperimentConfig(sigma2=sigma2, noise_convention=convention)


@pytest.mark.parametrize("trials", [2.5, "3"])
def test_config_rejects_non_integer_trials(trials):
    with pytest.raises(BadValue, match="trials must be an integer"):
        ExperimentConfig(trials=trials)


def test_config_stores_numpy_integer_trials_as_int():
    config = ExperimentConfig(trials=np.int64(3))
    assert type(config.trials) is int and config == ExperimentConfig(trials=3)


@pytest.mark.parametrize("key", ["k_grid", "theta_grid"])
def test_config_rejects_duplicate_grid_entries(key):
    # both entries would add into one cell and overflow its counts
    with pytest.raises(BadValue, match=key):
        ExperimentConfig(**{key: (4, 4)})


@pytest.mark.parametrize("line", ["sigma2 = nan", "sigma2 = inf", "amplitude_hi = inf",
                                  "amplitude_lo = nan"])
def test_parse_experiment_config_rejects_non_finite(tmp_path, line):
    path = tmp_path / "exp.cfg"
    path.write_text(f"matrix_family = kerdock\n{line}\n")
    with pytest.raises(BadValue, match=line.split()[0]):
        parse_experiment_config(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_noise_and_amplitude_laws_reject_non_finite(bad):
    with pytest.raises(BadValue, match="sigma2"):
        gen_noise(4, bad, "total", RngSpec(68).generator())
    with pytest.raises(BadValue):
        UniformAmplitude(1.0, bad)
    with pytest.raises(BadValue, match=f"^sigma must be finite, got {bad}$"):
        stats_from_magnitudes([1.0], bad, 16)
    with pytest.raises(BadValue, match=f"^sigma must be finite, got {bad}$"):
        noise_thresholds(bad, 256)
