"""The blocked batch engine against a per-trial oracle.

The oracle is the per-trial pipeline the engine replaces: one substream per
(k, trial), gen_*_signal and gen_noise, y = A @ x + w, one detector call per
(detector, estimate size) scored with Python sets, and sums taken one trial
at a time. Batches must agree with it as CSV text, NaN cells included, for
any block size.
"""

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zerodetect import experiments
from zerodetect.core import RngSpec, SignalInstance, hermitian_apply
from zerodetect.detectors import group_norms, ost_topk, zd_groth, zd_ost
from zerodetect.errors import BadValue
from zerodetect.experiments import (
    DETECTOR_NAMES,
    BatchCell,
    ExperimentConfig,
    TrialBatchReport,
    TrialRecord,
    build_matrix,
    effective_theta,
    evaluate_detection,
    gen_group_signal,
    gen_noise,
    gen_tone_signal,
    run_batch,
    run_trial,
    wilson_interval,
    write_report_csv,
)


def _reference_metrics(detector, theta, m, y, signal):
    """One detection scored with Python sets, as a per-trial loop does it."""
    support = signal.support.to_set()
    if detector == "ost_topk_full_support":
        used = signal.k
        picked = ost_topk(y, m, used).estimate.indices if used else ()
        inter = len(set(picked) & support)
        fdp = (used - inter) / used if used else 0.0
        zf = inter / len(support) if support else float("nan")
        return fdp, zf, picked == signal.support.indices
    if detector == "zd_groth":
        picked = zd_groth(y, m, theta).estimate.indices
        r = m.groups.r
        active = {(i - 1) // r + 1 for i in support}
        target = set(range(1, m.groups.q + 1)) - active
    elif detector == "zd_ost":
        picked = zd_ost(y, m, theta).estimate.indices
        target = signal.zero_support.to_set()
    else:
        picked = ost_topk(y, m, theta).estimate.indices
        target = support
    inter = len(set(picked) & target)
    zf = inter / len(target) if target else float("nan")
    return (theta - inter) / theta, zf, inter > 0


def _reference_cell(config, k, tg, det, acc) -> BatchCell:
    n = config.trials
    fdp, zf, zf_n, hits = acc
    fdp_lo, fdp_hi = wilson_interval(fdp, n)
    if zf_n:
        zf_mean, (zf_lo, zf_hi) = zf / zf_n, wilson_interval(zf, zf_n)
    else:
        zf_mean = zf_lo = zf_hi = float("nan")
    pe_lo, pe_hi = wilson_interval(n - hits, n)
    return BatchCell(
        k=k, theta=effective_theta(config, det, tg), theta_grid=tg, detector=det, trials=n,
        fdp_mean=fdp / n, fdp_lo=fdp_lo, fdp_hi=fdp_hi, zero_fraction_mean=zf_mean,
        zero_fraction_lo=zf_lo, zero_fraction_hi=zf_hi, zero_fraction_trials=zf_n,
        pe=(n - hits) / n, pe_lo=pe_lo, pe_hi=pe_hi,
    )


def _reference_batch(config) -> TrialBatchReport:
    m = build_matrix(config)
    law = config.amplitude_law
    combos = [(det, tg, effective_theta(config, det, tg))
              for det in config.detectors for tg in config.theta_grid]
    sums, records = {}, []
    for k in config.k_grid:
        for det, tg, _ in combos:
            sums[(k, tg, det)] = [0.0, 0.0, 0, 0]
        for t in range(config.trials):
            rng = RngSpec(config.master_seed).substream(k, t)
            if config.signal_model == "group":
                signal = gen_group_signal(m.groups.q, m.groups.r, k, law, rng)
            else:
                signal = gen_tone_signal(m.p, k, law, rng)
            y = m.matrix @ signal.x + gen_noise(m.n, config.sigma2, config.noise_convention, rng)
            for det, tg, eff in combos:
                got = _reference_metrics(det, eff, m, y, signal)
                assert repr(evaluate_detection(det, eff, m, y, signal)) == repr(
                    experiments.TrialMetrics(*got))
                acc = sums[(k, tg, det)]
                acc[0] += got[0]
                if not math.isnan(got[1]):
                    acc[1] += got[1]
                    acc[2] += 1
                acc[3] += got[2]
                records.append(TrialRecord(k, eff, det, t, *got))
    cells = tuple(_reference_cell(config, k, tg, det, sums[(k, tg, det)])
                  for k in config.k_grid for tg in config.theta_grid for det in config.detectors)
    q = m.groups.q if m.groups is not None else None
    return TrialBatchReport(config=config, p=m.p, q=q, cells=cells, per_trial=tuple(records))


def _csv(report) -> str:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "report.csv"
        write_report_csv(report, path)
        return path.read_text(encoding="ascii")


@st.composite
def batch_configs(draw):
    """Small Bernoulli or Kerdock batches over both signal models and every detector."""
    if draw(st.booleans()):
        matrix = dict(matrix_family="kerdock", kerdock_m=3)
        r = draw(st.sampled_from([4, 8, 16]))
        q = 256 // r
    else:
        r, q = draw(st.integers(1, 4)), draw(st.integers(1, 6))
        matrix = dict(matrix_family="bernoulli", rows=draw(st.integers(2, 8)), cols=q * r,
                      matrix_seed=draw(st.integers(0, 50)))
    signal_model = draw(st.sampled_from(["tone", "group"]))
    k_limit = q if signal_model == "group" else q * r
    amplitude_hi = draw(st.sampled_from([1.0, 10.0, 1000.0]))
    return ExperimentConfig(
        **matrix,
        group_size=r,
        signal_model=signal_model,
        amplitude_lo=1.0,
        amplitude_hi=amplitude_hi,
        sigma2=draw(st.sampled_from([0.0, 0.5, 500.0])),
        noise_convention=draw(st.sampled_from(["total", "per_component"])),
        k_grid=tuple(draw(st.lists(st.integers(0, k_limit), min_size=1, max_size=3,
                                   unique=True))),
        theta_grid=tuple(draw(st.lists(st.integers(1, q), min_size=1, max_size=2,
                                       unique=True))),
        trials=draw(st.integers(1, 7)),
        detectors=tuple(draw(st.lists(st.sampled_from(DETECTOR_NAMES), min_size=1,
                                      unique=True))),
        master_seed=draw(st.integers(0, 2**64 - 1)),
    )


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=batch_configs(), block_trials=st.integers(1, 4))
def test_batch_engine_matches_per_trial_oracle(config, block_trials):
    expected = _reference_batch(config)
    p = expected.p
    # blocks of 1 to 4 trials, so that most batches cross a block boundary
    with mock.patch.object(experiments, "_BLOCK_ENTRIES", block_trials * p):
        report = run_batch(config, keep_trials=True)
    assert _csv(report) == _csv(expected)
    assert [repr(r) for r in report.per_trial] == [repr(r) for r in expected.per_trial]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(config=batch_configs())
def test_run_trial_is_a_one_trial_block(config):
    m = build_matrix(config)
    report = run_batch(config, keep_trials=True)
    for r in report.per_trial:
        single = run_trial(config, r.k, r.theta, r.detector, r.trial, matrix=m)
        assert repr(single) == repr(experiments.TrialMetrics(*r[4:]))


def test_default_blocks_match_oracle_over_many_trials():
    # hundreds of trials per cell: sums that run in another order would round
    # differently here
    config = ExperimentConfig(
        matrix_family="kerdock", kerdock_m=3, sigma2=500.0, k_grid=(16, 204),
        theta_grid=(1, 7), trials=300, master_seed=20260808,
        detectors=("zd_ost", "ost_topk", "ost_topk_full_support"),
    )
    expected = _csv(_reference_batch(config))
    assert _csv(run_batch(config)) == expected
    with mock.patch.object(experiments, "_BLOCK_ENTRIES", 1):
        assert _csv(run_batch(config)) == expected


def test_noiseless_kerdock_ties_match_oracle():
    # sigma2 = 0 gives exact score ties between columns of one Kerdock basis
    config = ExperimentConfig(
        matrix_family="kerdock", kerdock_m=3, sigma2=0.0, group_size=16,
        k_grid=(0, 1, 2, 3), theta_grid=(1, 15, 16), trials=6, master_seed=11,
        detectors=DETECTOR_NAMES,
    )
    with mock.patch.object(experiments, "_BLOCK_ENTRIES", 4 * 256):
        report = run_batch(config, keep_trials=True)
    expected = _reference_batch(config)
    assert _csv(report) == _csv(expected)
    assert [repr(r) for r in report.per_trial] == [repr(r) for r in expected.per_trial]


def test_noiseless_kerdock_signals_tie_at_a_selection_boundary():
    # the test above must keep testing ties: its signals (k >= 1) must give two
    # equal scores at some estimate boundary, theta-th and (theta + 1)-th smallest
    config = ExperimentConfig(
        matrix_family="kerdock", kerdock_m=3, sigma2=0.0, group_size=16,
        k_grid=(0, 1, 2, 3), theta_grid=(1, 15, 16), trials=6, master_seed=11,
        detectors=DETECTOR_NAMES,
    )
    m = build_matrix(config)
    ties = 0
    for k in config.k_grid[1:]:
        _, y, _ = experiments._measure_block(config, m, k, range(config.trials))
        s = hermitian_apply(m, y)
        for scores in (np.abs(s), group_norms(s, m.groups)):
            ordered = np.sort(scores, axis=-1)
            for theta in config.theta_grid:
                if theta < ordered.shape[-1]:
                    ties += np.count_nonzero(ordered[:, theta - 1] == ordered[:, theta])
    assert ties >= 1


@pytest.mark.parametrize("amplitudes", [(1.0, 1000.0), (5e-324, 5e-324), (5e-324, 1e-320)])
@pytest.mark.parametrize("sigma2", [0.0, 500.0])
@pytest.mark.parametrize("model", ["tone", "group"])
def test_block_support_masks_are_the_nonzero_entries(model, sigma2, amplitudes):
    # run_batch scores against the masks the draws give, in place of x != 0; even
    # subnormal magnitudes must leave every drawn entry nonzero
    lo, hi = amplitudes
    config = ExperimentConfig(matrix_family="kerdock", kerdock_m=3, signal_model=model,
                              group_size=8, sigma2=sigma2, amplitude_lo=lo, amplitude_hi=hi,
                              k_grid=(1,), theta_grid=(1,), master_seed=5)
    m = build_matrix(config)
    domain = m.groups.q if model == "group" else m.p
    for k in (0, 1, domain // 3, domain - 1, domain):
        x, _, support = experiments._measure_block(config, m, k, range(3, 10))
        assert support.dtype == bool and np.array_equal(support, x != 0)
        assert (support.sum(axis=-1) == k * (m.p // domain)).all()


def test_measurements_whose_scores_overflow_are_rejected():
    # finite y whose Walsh correlations overflow (248 of 256 at m = 3): their NaN keys
    # would leave a selection short of theta, so the block raises as the detectors do
    m = build_matrix(ExperimentConfig(matrix_family="kerdock", kerdock_m=3, sigma2=0.0,
                                      group_size=8, k_grid=(3,), theta_grid=(1,), trials=1))
    x = np.zeros(m.p, dtype=np.complex128)
    x[[5, 90, 200]] = 1.0
    signal = SignalInstance(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for detector, theta, y in (
            ("zd_ost", 250, np.full(m.n, 1e308)), ("zd_ost", 1, np.full(m.n, 1e308)),
            ("ost_topk", 2, np.full(m.n, 1e308)), ("ost_topk_full_support", 3, np.full(m.n, 1e308)),
            ("zd_groth", 2, np.full(m.n, 1e308)),
            ("zd_groth", 2, np.full(m.n, 1e154)),  # finite correlations, overflowing block norms
        ):
            with pytest.raises(BadValue, match="scores overflow"):
                evaluate_detection(detector, theta, m, y, signal)
