"""Guarantee calculators: signal statistics and closed-form bounds."""

import math

import numpy as np
import pytest

from zerodetect.coherence import coherence_report
from zerodetect.core import MeasurementMatrix, RngSpec
from zerodetect.errors import BadValue, EmptySupport
from zerodetect.matrices import KerdockSpec, attach_groups, build_kerdock
from zerodetect.theory import (
    BoundParams,
    SignalStats,
    chi2_tail_bound,
    coherence_property,
    epsilon0,
    fdp_bound_elementwise,
    fdp_bound_groupwise,
    group_coherence_property,
    group_guarantee_constants,
    noise_component_variance,
    noise_thresholds,
    pe_bound,
    sparsity_bound,
    stats_from_magnitudes,
)


def test_bound_params_ranges():
    BoundParams(mu0=0.1, sigma=1.0)  # defaults valid
    for bad in (
        dict(mu0=0.0, sigma=1.0),
        dict(mu0=0.1, sigma=0.0),
        dict(mu0=0.1, sigma=1.0, a=1.0),
        dict(mu0=0.1, sigma=1.0, t=0.0),
        dict(mu0=0.1, sigma=1.0, t=1.0),
        dict(mu0=0.1, sigma=1.0, c1=1.5),
        dict(mu0=0.1, sigma=1.0, c2=1.0),
        dict(mu0=0.1, sigma=1.0, c_mu=0.0),
    ):
        with pytest.raises(BadValue):
            BoundParams(**bad)


@pytest.mark.parametrize("name", ["mu0", "a", "c_mu", "c_nu"])
def test_bound_params_reject_infinite_constants(name):
    with pytest.raises(BadValue, match=f"{name} must be finite"):
        BoundParams(**{"mu0": 0.1, "sigma": 1.0, name: math.inf})


# ---------------------------------------------------------------------------
# coherence conditions, on coherence_report values


def test_coherence_property_on_reports():
    kerdock = coherence_report(build_kerdock(KerdockSpec(3)))
    got = coherence_property(kerdock.mu, 256, mu0=1.0)
    assert abs(got.mu0_star - 0.25 * np.sqrt(np.log(256))) < 1e-12
    assert got.holds == (0.25 <= 1.0 / np.sqrt(np.log(256)))
    assert type(got.holds) is bool
    ident = coherence_property(coherence_report(MeasurementMatrix(np.eye(3))).mu, 3, mu0=0.5)
    assert ident.mu0_star == 0.0 and ident.holds
    dup = coherence_report(MeasurementMatrix(np.array([[1.0, 1.0], [0.0, 0.0]])))
    got = coherence_property(dup.mu, 2, mu0=2.0)
    assert abs(got.mu0_star - np.sqrt(np.log(2))) < 1e-12 and got.holds


@pytest.mark.parametrize("p", [2, 3, 256, 4097])
@pytest.mark.parametrize("mu", [0.0, 0.1, 1 / 3, 0.25, 1.0])
def test_coherence_property_holds_exactly_at_its_default(mu, p):
    got = coherence_property(mu, p)
    assert got.mu0_star == mu * math.sqrt(math.log(p))
    assert got.holds is True
    assert coherence_property(mu, p, got.mu0_star).holds is True


@pytest.mark.parametrize("mu, p, mu0", [
    (0.25, 1, 1.0), (math.nan, 256, 1.0), (-0.1, 256, 1.0), (0.25, 256, math.inf),
    (0.25, 256, -1.0),
])
def test_coherence_property_rejects(mu, p, mu0):
    with pytest.raises(BadValue):
        coherence_property(mu, p, mu0)


def test_group_property_orthonormal_blocks():
    rep = coherence_report(attach_groups(MeasurementMatrix(np.eye(8)), 2))
    params = BoundParams(mu0=0.1, sigma=1.0, c_mu=0.1, c_nu=0.1)
    got = group_coherence_property(params, rep.mu_group, rep.nu_group, q=4, r=2, n=8)
    assert got.mu_holds and got.nu_holds  # 0 <= every positive bound


def test_group_property_kerdock_truth_values():
    rep = coherence_report(attach_groups(build_kerdock(KerdockSpec(3)), 8))
    got = group_coherence_property(BoundParams(mu0=0.1, sigma=1.0), rep.mu_group,
                                   rep.nu_group, q=32, r=8, n=16)
    # independent evaluation from the reported coherences, c_mu = c_nu = 1
    log_q = np.log(32)
    assert abs(got.mu_bound - 1.0 / np.sqrt(log_q)) < 1e-12
    assert abs(got.nu_bound - rep.mu_group * np.sqrt(8 * log_q / 16)) < 1e-12
    assert got.mu_holds == (rep.mu_group <= 1.0 / np.sqrt(log_q))
    assert got.nu_holds == (rep.nu_group <= rep.mu_group * np.sqrt(8 * log_q / 16))
    assert got.mu_holds is False  # 1.55 > 0.537 for this frame
    assert got.nu_holds is True


def test_group_property_rejects_q1_and_non_finite():
    params = BoundParams(mu0=0.1, sigma=1.0)
    # q = 1: log q degenerates, and the report has no group statistics
    assert coherence_report(attach_groups(build_kerdock(KerdockSpec(3)), 256)).mu_group is None
    for mu_g, nu_g, q in [(0.5, 0.1, 1), (math.nan, 0.1, 32), (0.5, math.inf, 32),
                          (-0.5, 0.1, 32)]:
        with pytest.raises(BadValue):
            group_coherence_property(params, mu_g, nu_g, q=q, r=8, n=16)


# ---------------------------------------------------------------------------
# signal statistics: a signal's are those of its nonzero magnitudes


def test_signal_stats_flat_signal():
    x = np.array([2.0, 2.0, 0.0, 2.0])
    stats = stats_from_magnitudes(np.abs(x[x != 0]), sigma=1.0, n=4)
    assert np.allclose(stats.lar, 1.0)


def test_signal_stats_single_nonzero():
    x = np.array([0.0, 3.0])
    stats = stats_from_magnitudes(np.abs(x[x != 0]), sigma=2.0, n=2)
    assert stats.lar.tolist() == [1.0]
    assert stats.snr_min == 9.0 / 4.0


def test_signal_stats_hand_example():
    # x = (4, 3, 0, 0), sigma = 1, n = 2: ||x||^2 = 25, k = 2
    x = np.array([4.0, 3.0, 0.0, 0.0])
    stats = stats_from_magnitudes(np.abs(x[x != 0]), sigma=1.0, n=2)
    assert np.allclose(stats.sorted_magnitudes, [4.0, 3.0])
    assert np.allclose(stats.lar, [16 / 12.5, 9 / 12.5])  # (1.28, 0.72)
    assert stats.snr == 12.5
    assert stats.snr_min == 9.0
    # per-component convention doubles the noise energy
    stats2 = stats_from_magnitudes(np.abs(x[x != 0]), 1.0, 2, convention="per_component")
    assert stats2.snr == 6.25
    assert stats2.snr_min == 9.0
    # magnitudes given as complex numbers count by their modulus, |3 + 4i| = 5
    for mags in ([3.0, 3 + 4j], np.array([3.0, 3 + 4j])):
        assert stats_from_magnitudes(mags, 1.0, 2).sorted_magnitudes.tolist() == [5.0, 3.0]


def test_lar_sums_to_k_on_random_signals():
    rng = np.random.default_rng(51)
    for _ in range(100):
        k = int(rng.integers(1, 12))
        mags = rng.uniform(0.5, 100.0, k)
        stats = stats_from_magnitudes(mags, sigma=1.0, n=4)
        assert abs(stats.lar.sum() - k) < 1e-10
        assert np.all(np.diff(stats.lar) <= 1e-12)


def test_signal_stats_rejects_empty_support():
    x = np.zeros(4)
    with pytest.raises(EmptySupport):
        stats_from_magnitudes(np.abs(x[x != 0]), sigma=1.0, n=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_stats_from_magnitudes_rejects_non_finite(bad):
    with pytest.raises(BadValue, match="finite"):
        stats_from_magnitudes([bad, 1.0], sigma=1.0, n=2)


def test_signal_stats_leaves_the_callers_magnitudes_writable():
    mags = np.array([4.0, 3.0])
    stats = SignalStats(mags, 12.5, 9.0)
    assert mags.flags.writeable and not stats.sorted_magnitudes.flags.writeable
    mags[0] = 9.0
    assert stats.sorted_magnitudes[0] == 4.0


def test_noise_convention_component_variance():
    assert noise_component_variance(7.0, "total") == 3.5
    assert noise_component_variance(7.0, "per_component") == 7.0
    with pytest.raises(BadValue, match="unknown noise convention 'weird'"):
        noise_component_variance(7.0, "weird")
    with pytest.raises(BadValue, match="unknown noise convention 'weird'"):
        stats_from_magnitudes([1.0], sigma=1.0, n=2, convention="weird")


# ---------------------------------------------------------------------------
# epsilon0


def test_epsilon0_hypothesis_boundary():
    p = 256
    got = epsilon0(16 * math.log(p), snr=4.0, p=p)
    assert got.value == 0.0
    assert not got.hypothesis_ok  # strict inequality required


def test_epsilon0_algebraic_simplification():
    # snr_min = 64 log p gives (8 - 4) sqrt(log p) / (2 sqrt(s)) = 2 sqrt(log p / s)
    p, s = 128, 3.7
    got = epsilon0(64 * math.log(p), s, p)
    assert abs(got.value - 2 * math.sqrt(math.log(p) / s)) < 1e-12
    assert got.hypothesis_ok


def test_epsilon0_high_snr_limit():
    # x_min^2 = (1 + gamma) 16 sigma^2 log p with snr = (k/n)(1 + gamma) 16 log p
    # drives epsilon0 to (1/2) sqrt(n/k)
    p, n, k, gamma = 256, 16, 4, 1e6
    log_p = math.log(p)
    snr_min = (1 + gamma) * 16 * log_p
    snr = (k / n) * (1 + gamma) * 16 * log_p
    got = epsilon0(snr_min, snr, p)
    limit = 0.5 * math.sqrt(n / k)
    assert abs(got.value - limit) / limit < 1e-3


# ---------------------------------------------------------------------------
# sparsity bound and error probability


def test_sparsity_bound_boundary_is_vacuous():
    params = BoundParams(mu0=0.1, sigma=1.0, a=2.0)
    eps0 = 4 * (2 + 0.5) * 0.1  # exactly the vacuous point
    got = sparsity_bound(params, eps0, nu=0.01, p=256)
    assert got.value == 0.0 and got.vacuous


def test_sparsity_bound_min_selection():
    params = BoundParams(mu0=0.1, sigma=1.0, a=2.0)
    # large nu: first term binds
    got = sparsity_bound(params, eps0=1.5, nu=10.0, p=10**9)
    assert got.value == ((1.5 - 1.0) / 10.0) ** 2
    # hand value: first 2500, second 256/3
    got = sparsity_bound(params, eps0=1.5, nu=0.01, p=256)
    assert abs(got.value - 256 / 3) < 1e-12
    assert not got.vacuous


def test_sparsity_bound_monotone_in_nu_and_mu0():
    sigma = 1.0
    values_nu = [
        sparsity_bound(BoundParams(mu0=0.05, sigma=sigma), 1.0, nu, 4096).value
        for nu in (0.01, 0.02, 0.05, 0.1, 0.5)
    ]
    assert all(a >= b for a, b in zip(values_nu, values_nu[1:]))
    values_mu0 = [
        sparsity_bound(BoundParams(mu0=mu0, sigma=sigma), 1.0, 0.01, 4096).value
        for mu0 in (0.01, 0.03, 0.06, 0.09)
    ]
    assert all(a >= b for a, b in zip(values_mu0, values_mu0[1:]))


def test_pe_bound_zero_alpha_flagged():
    params = BoundParams(mu0=0.1, sigma=1.0, a=2.0)
    got = pe_bound(params, eps0=0.2 * math.sqrt(4), k=4, nu=0.2, p=256)
    assert got.alpha == 0.0
    assert not got.valid
    assert math.isnan(got.bound) and math.isnan(got.bound_with_log_factor)


def test_pe_bound_needs_a_positive_gap():
    # eps0 - sqrt(k) nu < 0, yet its square gives alpha > 1; the sparsity bound
    # on the same inputs is vacuous too
    params = BoundParams(mu0=0.05, sigma=1.0)
    got = pe_bound(params, eps0=-0.051, k=204, nu=1 / 17, p=256)
    assert got.alpha > 1
    assert not got.valid
    assert math.isnan(got.bound) and math.isnan(got.bound_with_log_factor)
    assert sparsity_bound(params, -0.051, 1 / 17, 256).vacuous


def test_pe_bound_constant_limit():
    # c -> 64 as a -> infinity
    params = BoundParams(mu0=0.1, sigma=1.0, a=1e9)
    got = pe_bound(params, eps0=1.0, k=1, nu=0.0, p=4)
    assert abs(got.c - 64.0) < 1e-6


def test_pe_bound_hand_example():
    params = BoundParams(mu0=0.1, sigma=1.0, a=2.0)
    got = pe_bound(params, eps0=1.0, k=4, nu=0.1, p=256)
    assert got.c == 100.0  # 16 * 2.5^2
    assert abs(got.alpha - 0.64) < 1e-12
    assert not got.valid


def test_pe_bound_valid_case_reports_both_forms():
    params = BoundParams(mu0=0.05, sigma=1.0, a=2.0)
    p = 256
    got = pe_bound(params, eps0=1.0, k=4, nu=0.01, p=p)
    assert got.valid and got.alpha > 1
    tail = 4 * p ** (1 - got.alpha)
    assert abs(got.bound - (math.sqrt(2 / math.pi) / p + tail)) < 1e-15
    expected_logged = math.sqrt(2 / math.pi) / (p * math.sqrt(math.log(p))) + tail
    assert abs(got.bound_with_log_factor - expected_logged) < 1e-15
    assert got.bound_with_log_factor < got.bound


# ---------------------------------------------------------------------------
# false-discovery bounds


def _fdp_oracle(lar, threshold):
    m = 0
    for i, v in enumerate(lar, start=1):
        if v >= threshold:
            m = i
    return m


def test_fdp_bound_threshold_above_all():
    stats = stats_from_magnitudes([5.0, 4.0], sigma=100.0, n=2)
    params = BoundParams(mu0=0.1, sigma=100.0, t=0.5)
    got = fdp_bound_elementwise(stats, params, mu=0.9, k=2, n=2, p=256, theta=1)
    assert got.m == 0 and got.bound == 2.0  # k / theta


def test_fdp_bound_flat_signal_all_pass():
    stats = stats_from_magnitudes([3.0] * 5, sigma=1e-6, n=4)
    params = BoundParams(mu0=0.1, sigma=1e-6, t=0.5)
    got = fdp_bound_elementwise(stats, params, mu=1e-9, k=5, n=4, p=256, theta=2)
    assert got.m == 5 and got.bound == 0.0


def test_fdp_bound_kerdock_seeded_matches_oracle():
    rng = RngSpec(52).generator()
    mags = rng.uniform(1.0, 1000.0, 8)
    sigma = math.sqrt(500.0)
    stats = stats_from_magnitudes(mags, sigma, n=16)
    params = BoundParams(mu0=0.25 * math.sqrt(math.log(256)), sigma=sigma, t=0.5)
    got = fdp_bound_elementwise(stats, params, mu=0.25, k=8, n=16, p=256, theta=4)
    threshold = max(
        (32 / 0.5) * 8 * math.log(256) / (16 * stats.snr),
        (800 / 0.5) * 0.25**2 * math.log(256),
    )
    m = _fdp_oracle(stats.lar, threshold)
    assert got.threshold == threshold
    assert got.m == m
    assert got.bound == (8 - m) / 4


def test_fdp_m_nonincreasing_in_sigma():
    mags = [900.0, 500.0, 80.0, 30.0, 5.0]
    params_proto = dict(mu0=0.25, t=0.5)
    previous = None
    for sigma in (0.1, 1.0, 10.0, 100.0, 1000.0):
        stats = stats_from_magnitudes(mags, sigma, n=16)
        params = BoundParams(sigma=sigma, **params_proto)
        got = fdp_bound_elementwise(stats, params, mu=0.02, k=5, n=16, p=256, theta=1)
        if previous is not None:
            assert got.m <= previous
        previous = got.m


# ---------------------------------------------------------------------------
# group bounds


def test_group_constants_hand_value():
    params = BoundParams(mu0=0.1, sigma=1.0, c1=2.0, c2=0.5)
    got = group_guarantee_constants(params)
    assert abs(got.c3 - 192 * math.sqrt(2 * math.e)) < 1e-9
    assert got.size_gate is None


def test_group_constants_monotone_in_c2():
    values = [
        group_guarantee_constants(BoundParams(mu0=0.1, sigma=1.0, c2=c2)).c3
        for c2 in (0.1, 0.3, 0.5, 0.7, 0.9)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_group_constants_size_gate_boundary():
    params = BoundParams(mu0=0.1, sigma=1.0, c1=2.0)
    got = group_guarantee_constants(params, r=4, k=2, n=16)  # 2*4*2 == 16
    assert got.size_gate is True


def test_group_fdp_noiseless_incoherent():
    got = fdp_bound_groupwise([3.0, 2.0, 1.0], sigma=0.0, mu_g=0.0,
                              q=32, r=8, c3=100.0, theta=2)
    assert got.m == 3 and got.bound == 0.0


def test_group_fdp_threshold_above_all():
    got = fdp_bound_groupwise([3.0, 2.0], sigma=100.0, mu_g=0.5,
                              q=32, r=8, c3=100.0, theta=1)
    assert got.m == 0 and got.bound == 2.0


def test_group_fdp_seeded_matches_oracle_and_floors():
    rng = RngSpec(53).generator()
    norms = np.sort(rng.uniform(10.0, 4000.0, 6))[::-1]
    sigma = math.sqrt(500.0)
    mu_g = 1.5455756847831934  # Kerdock r=8 group coherence
    c3 = group_guarantee_constants(BoundParams(mu0=0.1, sigma=sigma)).c3
    got = fdp_bound_groupwise(norms, sigma, mu_g, q=32, r=8, c3=c3, theta=4)
    x_norm = math.sqrt(float(np.sum(norms**2)))
    threshold = c3 * mu_g * x_norm * math.sqrt(math.log(32)) + 2 * sigma * math.sqrt(
        2 * math.log(32) + 4 * math.log(2)
    )
    m = _fdp_oracle(norms, threshold)
    assert got.m == m and got.bound == (6 - m) / 4
    assert abs(got.success_floor - (1 - (1 + math.e**2) / 32)) < 1e-15
    assert abs(got.success_floor_product - (1 - 1 / 32) * (1 - math.e**2 / 32)) < 1e-15
    # the two floors differ by o(1/q)
    assert abs(got.success_floor - got.success_floor_product) < 1.0 / 32


@pytest.mark.parametrize("norms, sigma, mu_g", [
    ([math.nan, 1.0], 1.0, 0.1), ([math.inf, 1.0], 1.0, 0.1), ([2.0, 1.0], math.inf, 0.1),
    ([2.0, 1.0], math.nan, 0.1), ([2.0, 1.0], 1.0, math.inf), ([2.0, 1.0], 1.0, math.nan),
    ([-1.0, -2.0], 1.0, 0.1)])
def test_group_fdp_rejects_non_finite(norms, sigma, mu_g):
    with pytest.raises(BadValue, match="finite"):
        fdp_bound_groupwise(norms, sigma, mu_g, 4, 2, 10.0, 1)


def test_group_fdp_requires_sorted():
    with pytest.raises(BadValue):
        fdp_bound_groupwise([1.0, 2.0], 1.0, 0.1, 4, 2, 10.0, 1)


# ---------------------------------------------------------------------------
# noise thresholds and the chi-square tail


def test_noise_thresholds_formulas():
    got = noise_thresholds(sigma=1.0, p=256, q=32, r=8)
    assert abs(got.element - 2 * math.sqrt(math.log(256))) < 1e-15
    assert abs(got.group - 2 * math.sqrt(2 * math.log(32) + 4 * math.log(2))) < 1e-15
    # 2 sigma sqrt(log p) evaluates to 2 sigma when log p = 1
    assert abs(2 * 1.0 * math.sqrt(math.log(math.e)) - 2.0) < 1e-15
    # the group threshold loses its block term as r -> 0 (formal limit)
    assert abs(noise_thresholds(3.0, 7, q=32, r=1).group
               - 2 * 3.0 * math.sqrt(2 * math.log(32) + 0.5 * math.log(2))) < 1e-15


def test_noise_thresholds_numeric_pair():
    sigma = math.sqrt(500.0)
    got = noise_thresholds(sigma, 256, 32, 8)
    assert abs(got.element - 2 * sigma * math.sqrt(math.log(256))) < 1e-12
    assert abs(got.group - 2 * sigma * math.sqrt(2 * math.log(32) + 4 * math.log(2))) < 1e-12


@pytest.mark.parametrize("q", [2, 32, 1024])
@pytest.mark.parametrize("r", [1, 8, 64])
def test_chi2_bound_identity_one_over_q(q, r):
    sigma = 3.0
    tau = noise_thresholds(sigma, 4, q, r).group
    got = chi2_tail_bound(tau, sigma, r, q)
    assert abs(got.value - 1.0 / q) < 1e-12
    assert not got.clamped


def test_chi2_bound_vanishes_for_large_tau():
    assert chi2_tail_bound(1e6, 1.0, 8, 32).value < 1e-300


def test_chi2_bound_clamps():
    got = chi2_tail_bound(1e-9, 1.0, 8, 32)
    assert got.value == 1.0 and got.clamped


def test_chi2_bound_empirical_exceedance_below_bound():
    # 10^5 seeded draws of ||G^H w||_2 for an orthonormal 16 x 8 block
    sigma2 = 500.0
    sigma = math.sqrt(sigma2)
    q, r, n = 32, 8, 16
    tau = noise_thresholds(sigma, 4, q, r).group
    bound = chi2_tail_bound(tau, sigma, r, q).value
    rng = RngSpec(54).generator()
    g_mat, _ = np.linalg.qr(rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
    draws = 100_000
    w = math.sqrt(sigma2 / 2) * (
        rng.standard_normal((draws, n)) + 1j * rng.standard_normal((draws, n))
    )
    norms = np.linalg.norm(w @ np.conj(g_mat), axis=1)
    rate = float(np.mean(norms > tau))
    assert rate <= bound


def test_chi2_bound_validation():
    with pytest.raises(BadValue):
        chi2_tail_bound(0.0, 1.0, 8, 32)
    with pytest.raises(BadValue):
        chi2_tail_bound(1.0, 1.0, 0, 32)
    with pytest.raises(BadValue, match="sigma must be > 0, got 0.0"):
        chi2_tail_bound(1.0, 0.0, 8)


# ---------------------------------------------------------------------------
# argument checks shared by the calculators

_PARAMS = BoundParams(mu0=0.1, sigma=1.0)
_STATS = stats_from_magnitudes([3.0, 2.0], sigma=1.0, n=4)


# name of a count, the largest value below its range, and the call that takes it
@pytest.mark.parametrize("name, below, call", [
    ("p", 1, lambda v: coherence_property(0.25, v)),
    ("q", 1, lambda v: group_coherence_property(_PARAMS, 0.5, 0.1, q=v, r=8, n=16)),
    ("r", 0, lambda v: group_coherence_property(_PARAMS, 0.5, 0.1, q=32, r=v, n=16)),
    ("n", 0, lambda v: group_coherence_property(_PARAMS, 0.5, 0.1, q=32, r=8, n=v)),
    ("n", 0, lambda v: stats_from_magnitudes([1.0], 1.0, v)),
    ("p", 1, lambda v: epsilon0(100.0, 10.0, v)),
    ("p", 0, lambda v: sparsity_bound(_PARAMS, 0.5, 0.1, v)),
    ("k", -1, lambda v: pe_bound(_PARAMS, 0.5, v, 0.1, 256)),
    ("p", 1, lambda v: pe_bound(_PARAMS, 0.5, 4, 0.1, v)),
    ("n", 0, lambda v: fdp_bound_elementwise(_STATS, _PARAMS, 0.1, 2, v, 256, 1)),
    ("p", 1, lambda v: fdp_bound_elementwise(_STATS, _PARAMS, 0.1, 2, 4, v, 1)),
    ("theta", 0, lambda v: fdp_bound_elementwise(_STATS, _PARAMS, 0.1, 2, 4, 256, v)),
    ("r", 0, lambda v: group_guarantee_constants(_PARAMS, r=v, k=2, n=16)),
    ("k", -1, lambda v: group_guarantee_constants(_PARAMS, r=4, k=v, n=16)),
    ("n", 0, lambda v: group_guarantee_constants(_PARAMS, r=4, k=2, n=v)),
    ("q", 1, lambda v: fdp_bound_groupwise([2.0, 1.0], 1.0, 0.1, v, 2, 10.0, 1)),
    ("r", 0, lambda v: fdp_bound_groupwise([2.0, 1.0], 1.0, 0.1, 4, v, 10.0, 1)),
    ("theta", 0, lambda v: fdp_bound_groupwise([2.0, 1.0], 1.0, 0.1, 4, 2, 10.0, v)),
    ("p", 0, lambda v: noise_thresholds(1.0, v)),
    ("q", 0, lambda v: noise_thresholds(1.0, 256, v, 8)),
    ("r", 0, lambda v: noise_thresholds(1.0, 256, 32, v)),
    ("r", 0, lambda v: chi2_tail_bound(1.0, 1.0, v)),
    ("q", 0, lambda v: chi2_tail_bound(1.0, 1.0, 8, v)),
], ids=("coherence_property-p group_coherence_property-q group_coherence_property-r "
        "group_coherence_property-n stats_from_magnitudes-n epsilon0-p sparsity_bound-p "
        "pe_bound-k pe_bound-p fdp_bound_elementwise-n fdp_bound_elementwise-p "
        "fdp_bound_elementwise-theta group_guarantee_constants-r group_guarantee_constants-k "
        "group_guarantee_constants-n fdp_bound_groupwise-q fdp_bound_groupwise-r "
        "fdp_bound_groupwise-theta noise_thresholds-p noise_thresholds-q noise_thresholds-r "
        "chi2_tail_bound-r chi2_tail_bound-q").split())
def test_calculators_take_counts_as_integers_in_range(name, below, call):
    call(below + 1)
    with pytest.raises(BadValue, match=f"^{name} must be >= {below + 1}, got {below}$"):
        call(below)
    with pytest.raises(BadValue, match=f"^{name} must be an integer, got float {below + 1.5}$"):
        call(below + 1.5)


@pytest.mark.parametrize("call, match", [
    (lambda: stats_from_magnitudes([1.0], 0.0, 16), "sigma must be > 0"),
    (lambda: noise_thresholds(0.0, 256), "sigma must be > 0"),
    (lambda: epsilon0(100.0, 0.0, 256), "snr must be > 0"),
    (lambda: epsilon0(-1.0, 1.0, 256), "snr_min must be >= 0"),
    (lambda: sparsity_bound(_PARAMS, 0.5, 0.0, 256), "nu must be > 0"),
    (lambda: pe_bound(_PARAMS, 0.5, 4, -0.1, 256), "nu must be >= 0"),
    (lambda: fdp_bound_elementwise(_STATS, _PARAMS, -0.1, 2, 4, 256, 1), "mu must be >= 0"),
    (lambda: fdp_bound_elementwise(_STATS, _PARAMS, 0.1, 3, 4, 256, 1),
     r"k=3 does not match the statistics \(k=2\)"),
    (lambda: fdp_bound_elementwise(_STATS, _PARAMS, 0.1, 2.0, 4, 256, 1),
     "k must be an integer, got float 2.0"),
    (lambda: fdp_bound_groupwise([], 1.0, 0.1, 4, 2, 10.0, 1), "nonempty"),
    (lambda: epsilon0(math.nan, 1.0, 256), "^snr_min must be finite, got nan$"),
    (lambda: sparsity_bound(_PARAMS, math.nan, 0.1, 256), "^eps0 must be finite, got nan$"),
    (lambda: sparsity_bound(_PARAMS, 1.0, math.nan, 256), "^nu must be finite, got nan$"),
    (lambda: pe_bound(_PARAMS, math.nan, 4, 0.1, 256), "^eps0 must be finite, got nan$"),
    (lambda: pe_bound(_PARAMS, 0.5, 4, math.nan, 256), "^nu must be finite, got nan$"),
    (lambda: chi2_tail_bound(math.nan, 1.0, 8), "^tau must be finite, got nan$"),
    (lambda: fdp_bound_elementwise(_STATS, _PARAMS, math.nan, 2, 4, 256, 1),
     "^mu must be finite, got nan$"),
    (lambda: fdp_bound_groupwise([2.0, 1.0], 1.0, 0.1, 4, 2, math.nan, 1),
     "^c3 must be finite, got nan$"),
    (lambda: SignalStats(np.array([3.0, 2.0]), math.nan, -1.0), "^snr must be finite, got nan$"),
    (lambda: SignalStats(np.array([3.0, 2.0]), 1.0, -1.0), r"^snr_min must be >= 0, got -1\.0$"),
    (lambda: fdp_bound_elementwise(SignalStats(np.array([3.0, 2.0]), 0.0, 1.0), _PARAMS, 0.1,
                                   2, 4, 256, 1), r"^snr must be > 0, got 0\.0$"),
])
def test_calculators_reject_values_outside_their_hypotheses(call, match):
    with pytest.raises(BadValue, match=match):
        call()
