"""Acceptance criteria for the package, one test per criterion.

Each test prints a single `criterion N: PASS/FAIL` line (visible with
`pytest -s`) and asserts the criterion at its stated tolerance. The heavy
Monte-Carlo batches (criteria 5-8, 12) are shared through session fixtures;
the full module runs single-threaded in about a minute.
"""

import math
import time

import numpy as np
import pytest

from zerodetect.coherence import average_coherence, stoc_estimate, worst_case_coherence
from zerodetect.core import MeasurementMatrix, RngSpec
from zerodetect.detectors import zd_groth, zd_ost
from zerodetect.experiments import (
    ExperimentConfig,
    UniformAmplitude,
    gen_noise,
    gen_tone_signal,
    run_batch,
    run_trial,
    write_report_csv,
)
from zerodetect.matrices import KerdockSpec, attach_groups, build_bernoulli, build_kerdock
from zerodetect.theory import (
    chi2_tail_bound,
    epsilon0,
    noise_thresholds,
    stats_from_magnitudes,
)

MASTER_SEED = 20260808


def _report(criterion: str, ok: bool, detail: str = "") -> bool:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


@pytest.fixture(scope="session")
def kerdock16():
    return build_kerdock(KerdockSpec(3))


def _single_zero_config() -> ExperimentConfig:
    return ExperimentConfig(
        matrix_family="kerdock", kerdock_m=3, sigma2=500.0,
        amplitude_lo=1.0, amplitude_hi=1000.0,
        k_grid=(16, 64, 128, 204), theta_grid=(1,), trials=5000,
        detectors=("zd_ost", "ost_topk", "ost_topk_full_support"),
        master_seed=MASTER_SEED,
    )


@pytest.fixture(scope="session")
def single_zero_batch():
    config = _single_zero_config()
    start = time.perf_counter()
    report = run_batch(config)
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def group_batch():
    config = ExperimentConfig(
        matrix_family="kerdock", kerdock_m=3, sigma2=500.0,
        signal_model="group", group_size=8,
        amplitude_lo=1.0, amplitude_hi=1000.0,
        k_grid=(2, 8, 16, 24), theta_grid=(1, 4), trials=5000,
        detectors=("zd_groth", "zd_ost"), master_seed=MASTER_SEED,
    )
    return run_batch(config)


def test_criterion_01_kerdock_construction(kerdock16):
    a = kerdock16.matrix
    norms_ok = np.abs(np.linalg.norm(a, axis=0) - 1.0).max() < 1e-12
    start = time.perf_counter()
    g = np.abs(a.conj().T @ a)
    np.fill_diagonal(g, 0.0)
    mu = float(g.max())
    elapsed = time.perf_counter() - start
    ok = (a.shape == (16, 256)) and norms_ok and abs(mu - 0.25) < 1e-10 and elapsed < 1.0
    assert _report("1", ok, f"(16x256, mu={mu!r}, pairwise check {elapsed * 1e3:.0f} ms)")


def test_criterion_02_coherence_ordering(kerdock16):
    matrices = [kerdock16]
    matrices += [build_bernoulli(16, 256, RngSpec(seed)) for seed in range(5)]
    rng = np.random.default_rng(2)
    for _ in range(20):
        raw = rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))
        matrices.append(MeasurementMatrix(raw / np.linalg.norm(raw, axis=0)))
    ok = all(average_coherence(m) <= worst_case_coherence(m) for m in matrices)
    assert _report("2", ok, f"(nu <= mu on {len(matrices)} matrices, exact)")


def test_criterion_03_group_r1_matches_elementwise():
    m = attach_groups(build_bernoulli(16, 64, RngSpec(303)), 1)
    law = UniformAmplitude(1.0, 1000.0)
    mismatches = 0
    for t in range(100):
        rng = RngSpec(304).substream(t)
        sig = gen_tone_signal(64, int(rng.integers(1, 16)), law, rng)
        w = gen_noise(16, 1.0, "total", rng)
        y = m.matrix @ sig.x + w
        theta = int(rng.integers(1, 65))
        if zd_groth(y, m, theta).estimate.indices != zd_ost(y, m, theta).estimate.indices:
            mismatches += 1
    assert _report("3", mismatches == 0, f"({mismatches} mismatches over 100 instances)")


def test_criterion_04_noiseless_exactness():
    rng = np.random.default_rng(404)
    q, _ = np.linalg.qr(rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    m = MeasurementMatrix(q)
    config = ExperimentConfig(sigma2=0.0, k_grid=(1, 8, 16, 32, 48),
                              theta_grid=(1,), trials=200, master_seed=405)
    bad = 0
    for k in config.k_grid:
        for t in range(200):
            fdp, _, _ = run_trial(config, k, 64 - k, "zd_ost", t, matrix=m)
            bad += fdp != 0.0
    assert _report("4", bad == 0, f"({bad} nonzero-FDP trials out of 1000)")


def test_criterion_05_error_probability_trend(single_zero_batch):
    report, elapsed = single_zero_batch
    pes = [report.cell(k, 1, "zd_ost").pe for k in (16, 64, 128, 204)]
    monotone = all(a <= b for a, b in zip(pes, pes[1:]))
    small_at_16 = pes[0] < 0.05
    in_time = elapsed < 120.0
    ok = monotone and small_at_16 and in_time
    assert _report(
        "5", ok,
        f"(pe={['%.4f' % v for v in pes]}, nondecreasing={monotone}, "
        f"pe(16)={pes[0]:.4f}<0.05={small_at_16}, batch {elapsed:.1f}s)"
    )


def test_criterion_06_one_zero_easier_than_support_recovery(single_zero_batch):
    report, _ = single_zero_batch
    rows = []
    ok = True
    for k in (16, 64, 128, 204):
        zd = report.cell(k, 1, "zd_ost").pe
        topk = report.cell(k, 1, "ost_topk").pe
        full = report.cell(k, 1, "ost_topk_full_support").pe
        point_ok = zd < full and zd < topk
        ok = ok and point_ok
        rows.append(f"k={k}: zd_ost={zd:.4f} ost_topk={topk:.4f} full={full:.4f} ok={point_ok}")
    assert _report("6", ok, "(" + "; ".join(rows) + ")")


def test_criterion_07_large_k_single_zero(single_zero_batch):
    report, _ = single_zero_batch
    pe = report.cell(204, 1, "zd_ost").pe
    assert _report("7", pe < 0.5, f"(pe(k=204, theta=1)={pe:.4f}, required < 0.5)")


def test_criterion_08_group_advantage(group_batch):
    report = group_batch
    rows = []
    ok = True
    for k in (2, 8, 16, 24):
        for theta in (1, 4):
            groth = report.cell(k, theta, "zd_groth").fdp_mean
            ost = report.cell(k, theta, "zd_ost").fdp_mean
            point_ok = groth <= ost
            ok = ok and point_ok
            rows.append(f"k={k},th={theta}: {groth:.4f}<={ost:.4f} {point_ok}")
    assert _report("8", ok, "(" + "; ".join(rows) + ")")


def test_criterion_09_calculator_identities():
    p, n, k, gamma = 256, 16, 4, 1e6
    log_p = math.log(p)
    got = epsilon0((1 + gamma) * 16 * log_p, (k / n) * (1 + gamma) * 16 * log_p, p)
    limit = 0.5 * math.sqrt(n / k)
    rel = abs(got.value - limit) / limit
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        kk = int(rng.integers(1, 20))
        stats = stats_from_magnitudes(rng.uniform(0.1, 500.0, kk), sigma=1.0, n=8)
        worst = max(worst, abs(float(stats.lar.sum()) - kk))
    ok = rel < 1e-3 and worst < 1e-10
    assert _report("9", ok, f"(eps0 rel err={rel:.2e}, max |sum(LAR)-k|={worst:.2e})")


def test_criterion_10_chi2_identity_and_empirical():
    worst = 0.0
    for q in (2, 32, 1024):
        for r in (1, 8, 64):
            sigma = 3.0
            tau = noise_thresholds(sigma, 4, q, r).group
            worst = max(worst, abs(chi2_tail_bound(tau, sigma, r, q).value - 1 / q))
    sigma = math.sqrt(500.0)
    q, r, n = 32, 8, 16
    tau = noise_thresholds(sigma, 256, q, r).group
    bound = chi2_tail_bound(tau, sigma, r, q).value
    rng = RngSpec(1010).generator()
    g_mat, _ = np.linalg.qr(rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
    w = math.sqrt(500.0 / 2) * (rng.standard_normal((100_000, n))
                                + 1j * rng.standard_normal((100_000, n)))
    rate = float(np.mean(np.linalg.norm(w @ np.conj(g_mat), axis=1) > tau))
    ok = worst < 1e-12 and rate <= bound
    assert _report("10", ok, f"(max identity gap={worst:.2e}, empirical {rate:.2e} <= {bound:.4f})")


def test_criterion_11_stoc_sanity(kerdock16):
    rng = np.random.default_rng(1111)
    phases = np.array([1, -1, 1j, -1j])[rng.integers(0, 4, 64)]
    ortho = MeasurementMatrix(np.eye(64, dtype=np.complex128)[:, rng.permutation(64)] * phases)
    violations = 0
    for eps, k in ((0.0, 5), (0.25, 12)):
        z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        est = stoc_estimate(ortho, k, eps, z, 10_000, RngSpec(1112))
        violations += est.violations
    e1 = np.zeros(1, dtype=np.complex128)
    e1[0] = 1.0
    kd = stoc_estimate(kerdock16, 1, 0.5, e1, 10_000, RngSpec(1113))
    ok = violations == 0 and kd.delta_hat == 0.0
    assert _report("11", ok, f"(orthonormal violations={violations}, kerdock k=1 delta={kd.delta_hat})")


def test_criterion_12_batch_determinism(tmp_path):
    blobs = []
    for run_dir in ("first", "second"):
        report = run_batch(_single_zero_config())
        path = tmp_path / f"{run_dir}.csv"
        write_report_csv(report, path)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    assert _report("12", ok, "(two full runs, byte-identical report CSV)")
