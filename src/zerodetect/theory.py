"""Closed-form guarantee calculators: the coherence conditions, signal statistics,
sparsity and error bounds for single-zero detection, and the group analogues.

All logarithms are natural. Calculators return validity flags instead of
raising when a hypothesis fails, so sweeps can mark regions where a guarantee
simply does not apply.

Noise convention: the package default is circular complex Gaussian noise with
total per-entry variance sigma^2 (each real/imag component has variance
sigma^2 / 2), giving E||w||^2 = n sigma^2. The alternative, variance sigma^2
per component (E||w||^2 = 2 n sigma^2), is selectable everywhere a convention
argument appears, because published model statements are split between the
two readings.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import SignalInstance, adopted, as_int, as_real
from .errors import BadValue, EmptySupport


def noise_component_variance(sigma2: float, convention: str) -> float:
    """Variance of each real component of a noise entry at level sigma2: sigma2 / 2
    under "total", sigma2 under "per_component"."""
    if convention == "total":
        return sigma2 / 2
    if convention == "per_component":
        return sigma2
    raise BadValue(f"unknown noise convention {convention!r}")


@dataclass(frozen=True)
class BoundParams:
    """Free constants of the guarantee calculators, validated at construction.

    Every constant must be finite. a > 1 and t in (0, 1) drive the
    single-zero bounds (c1 = 32/t, c2 = 800/(1-t), c = 16 (2 + 1/a)^2);
    c1 >= 2 and c2 in (0, 1) drive the group bounds; c_mu and c_nu are the
    constants of group_coherence_property.
    """

    mu0: float
    sigma: float
    a: float = 2.0
    t: float = 0.5
    c1: float = 2.0
    c2: float = 0.5
    c_mu: float = 1.0
    c_nu: float = 1.0

    def __post_init__(self):
        for name, lo, hi, open_ in (
                ("mu0", 0, None, True), ("sigma", 0, None, True), ("a", 1, None, True),
                ("t", 0, 1, True), ("c1", 2, None, False), ("c2", 0, 1, True),
                ("c_mu", 0, None, True), ("c_nu", 0, None, True)):
            as_real(getattr(self, name), name, lo=lo, hi=hi, open=open_)


class CoherenceProperty(NamedTuple):
    holds: bool      # mu0_star <= mu0
    mu0_star: float  # mu sqrt(log p), the smallest mu0 for which the property holds


def coherence_property(mu: float, p: int, mu0: float | None = None) -> CoherenceProperty:
    """Whether mu <= mu0 / sqrt(log p), as mu0_star <= mu0; mu0 defaults to mu0_star."""
    log_p = math.log(as_int(p, "p", lo=2))  # log p degenerates below 2
    mu0_star = as_real(mu, "mu", lo=0) * math.sqrt(log_p)
    mu0 = mu0_star if mu0 is None else as_real(mu0, "mu0", lo=0)
    return CoherenceProperty(bool(mu0_star <= mu0), mu0_star)


class GroupCoherenceProperty(NamedTuple):
    mu_holds: bool
    nu_holds: bool
    mu_bound: float  # c_mu / sqrt(log q)
    nu_bound: float  # c_nu mu_g sqrt(r log q / n)


def group_coherence_property(params: BoundParams, mu_g: float, nu_g: float,
                             q: int, r: int, n: int) -> GroupCoherenceProperty:
    """Whether mu_g <= c_mu / sqrt(log q) and nu_g <= c_nu mu_g sqrt(r log q / n)."""
    q, r, n = as_int(q, "q", lo=2), as_int(r, "r", lo=1), as_int(n, "n", lo=1)
    mu_g, nu_g = as_real(mu_g, "mu_g", lo=0), as_real(nu_g, "nu_g", lo=0)
    log_q = math.log(q)
    mu_bound = params.c_mu / math.sqrt(log_q)
    nu_bound = params.c_nu * mu_g * math.sqrt(r * log_q / n)
    return GroupCoherenceProperty(bool(mu_g <= mu_bound), bool(nu_g <= nu_bound),
                                  mu_bound, nu_bound)


@dataclass(frozen=True, eq=False)
class SignalStats:
    """SNR, per-entry largest-to-average ratios, and the minimum SNR.

    Stores sorted_magnitudes |x_(1)| >= ... >= |x_(k)| (positive and finite,
    locked read-only), snr > 0 and snr_min >= 0. k, x_min = |x_(k)| and lar are
    derived: lar[m-1] is |x_(m)|^2 / (||x||^2 / k), so the lar entries are
    nonincreasing and sum to k.
    """

    sorted_magnitudes: np.ndarray
    snr: float
    snr_min: float

    def __post_init__(self):
        mags = adopted(self.sorted_magnitudes, np.float64)
        object.__setattr__(self, "sorted_magnitudes", mags)
        if mags.size == 0:
            raise EmptySupport("statistics need at least one nonzero entry")
        if mags.ndim != 1 or not (np.all(np.isfinite(mags)) and np.all(mags > 0)
                                  and np.all(np.diff(mags) <= 0)):
            raise BadValue("magnitudes must be positive, finite and nonincreasing")
        as_real(self.snr, "snr", lo=0, open=True), as_real(self.snr_min, "snr_min", lo=0)

    @property
    def k(self) -> int:
        return int(self.sorted_magnitudes.shape[0])

    @property
    def x_min(self) -> float:
        return float(self.sorted_magnitudes[-1])

    @cached_property
    def lar(self) -> np.ndarray:
        mags = self.sorted_magnitudes
        lar = mags**2 / (float(np.sum(mags**2)) / self.k)
        lar.setflags(write=False)
        return lar


def stats_from_magnitudes(magnitudes, sigma: float, n: int,
                          convention: str = "total") -> SignalStats:
    """Signal statistics from the nonzero magnitudes alone (order irrelevant)."""
    sigma, n = as_real(sigma, "sigma", lo=0, open=True), as_int(n, "n", lo=1)
    mags = np.sort(np.abs(np.asarray(magnitudes, dtype=np.complex128)))[::-1]
    # E||w||^2 = n E|w_t|^2, and E|w_t|^2 is twice each real component's variance
    snr = float(np.sum(mags**2)) / (n * 2 * noise_component_variance(sigma**2, convention))
    # the min is mags[-1]; initial=inf lets an empty mags reach SignalStats, which rejects it
    return SignalStats(mags, snr, float(np.min(mags, initial=np.inf)) ** 2 / sigma**2)


def signal_stats(signal: SignalInstance, sigma: float, n: int,
                 convention: str = "total") -> SignalStats:
    """Signal statistics relative to n noisy measurements at noise level sigma.

    SNR = ||x||^2 / E||w||^2 with E||w||^2 = n * (per-entry noise energy);
    SNR_min = x_min^2 / sigma^2 regardless of convention.
    """
    return stats_from_magnitudes(np.abs(signal.x[signal.x != 0]), sigma, n, convention)


class Epsilon0(NamedTuple):
    value: float
    hypothesis_ok: bool  # tied to SNR_min > 16 log p


def epsilon0(snr_min: float, snr: float, p: int) -> Epsilon0:
    """Largest usable orthogonality slack: (sqrt(SNR_min) - 4 sqrt(log p)) / (2 sqrt(SNR)).

    May be <= 0; the flag records whether the hypothesis SNR_min > 16 log p
    holds (the value is positive exactly when it does).
    """
    snr, snr_min = as_real(snr, "snr", lo=0, open=True), as_real(snr_min, "snr_min", lo=0)
    log_p = math.log(as_int(p, "p", lo=2))
    value = (math.sqrt(snr_min) - 4 * math.sqrt(log_p)) / (2 * math.sqrt(snr))
    return Epsilon0(value, snr_min > 16 * log_p)


class SparsityBound(NamedTuple):
    value: float
    vacuous: bool  # eps0 <= 4 (2 + 1/a) mu0, making the bound 0


def sparsity_bound(params: BoundParams, eps0: float, nu: float, p: int) -> SparsityBound:
    """Admissible sparsity for the single-zero error bound.

    min{ ((eps0 - 4 (2 + 1/a) mu0) / nu)^2 , p / (1 + a) }; returns 0 with a
    flag when the first term's numerator is not positive.
    """
    eps0, nu, p = as_real(eps0, "eps0"), as_real(nu, "nu", lo=0, open=True), as_int(p, "p", lo=1)
    gap = eps0 - 4 * (2 + 1 / params.a) * params.mu0
    if gap <= 0:
        return SparsityBound(0.0, True)
    first = (gap / nu) ** 2
    second = p / (1 + params.a)
    return SparsityBound(min(first, second), False)


class PeBound(NamedTuple):
    alpha: float
    c: float           # 16 (2 + 1/a)^2
    valid: bool        # eps0 > sqrt(k) nu and alpha > 1
    bound: float       # sqrt(2/pi)/p + 4 p^(1-alpha), nan when invalid
    bound_with_log_factor: float  # sqrt(2/pi)/(p sqrt(log p)) + 4 p^(1-alpha)


def pe_bound(params: BoundParams, eps0: float, k: int, nu: float, p: int) -> PeBound:
    """Single-zero error probability bound and its exponent alpha.

    alpha = (eps0 - sqrt(k) nu)^2 / (c mu0^2) with c = 16 (2 + 1/a)^2. alpha
    squares the gap, so the bound applies only when eps0 > sqrt(k) nu and
    alpha > 1. Both the plain form and the form retaining the (log p)^(-1/2)
    factor on the first term are reported.
    """
    k, p = as_int(k, "k", lo=0), as_int(p, "p", lo=2)
    eps0, nu = as_real(eps0, "eps0"), as_real(nu, "nu", lo=0)
    c = 16 * (2 + 1 / params.a) ** 2
    alpha = (eps0 - math.sqrt(k) * nu) ** 2 / (c * params.mu0**2)
    valid = eps0 > math.sqrt(k) * nu and alpha > 1
    if not valid:
        return PeBound(alpha, c, False, float("nan"), float("nan"))
    tail = 4 * p ** (1 - alpha)
    plain = math.sqrt(2 / math.pi) / p + tail
    logged = math.sqrt(2 / math.pi) / (p * math.sqrt(math.log(p))) + tail
    return PeBound(alpha, c, True, plain, logged)


class ElementFdpBound(NamedTuple):
    m: int
    bound: float       # (k - m) / theta
    threshold: float   # max{c1 k log p / (n SNR), c2 mu^2 log p}


def fdp_bound_elementwise(stats: SignalStats, params: BoundParams, mu: float,
                          k: int, n: int, p: int, theta: int) -> ElementFdpBound:
    """False-discovery bound for element-wise zero detection.

    m is the largest index whose largest-to-average ratio meets the
    threshold, with c1 = 32/t and c2 = 800/(1-t); the bound is (k - m)/theta.
    """
    if as_int(k, "k") != stats.k:
        raise BadValue(f"k={k} does not match the statistics (k={stats.k})")
    theta, n, p = as_int(theta, "theta", lo=1), as_int(n, "n", lo=1), as_int(p, "p", lo=2)
    mu = as_real(mu, "mu", lo=0)
    c1 = 32 / params.t
    c2 = 800 / (1 - params.t)
    log_p = math.log(p)
    threshold = max(c1 * k * log_p / (n * stats.snr), c2 * mu**2 * log_p)
    m = int(np.count_nonzero(stats.lar >= threshold))
    return ElementFdpBound(m, (k - m) / theta, threshold)


class GroupConstants(NamedTuple):
    c3: float
    mu_gate: bool            # c_mu < 1/c3
    nu_gate: bool            # c_nu <= sqrt(c1) c2 c3
    size_gate: bool | None   # c1 r k <= n, None when (r, k, n) not supplied


def group_guarantee_constants(params: BoundParams, r: int | None = None,
                              k: int | None = None, n: int | None = None) -> GroupConstants:
    """The constant c3 = 32 sqrt(2e) (2 c1 - 1) / ((1 - c2)(c1 - 1)) and its gates."""
    c1, c2 = params.c1, params.c2
    c3 = 32 * math.sqrt(2 * math.e) * (2 * c1 - 1) / ((1 - c2) * (c1 - 1))
    size_gate = None
    if r is not None and k is not None and n is not None:
        r, k, n = as_int(r, "r", lo=1), as_int(k, "k", lo=0), as_int(n, "n", lo=1)
        size_gate = c1 * r * k <= n
    return GroupConstants(
        c3,
        params.c_mu < 1 / c3,
        params.c_nu <= math.sqrt(c1) * c2 * c3,
        size_gate,
    )


class GroupFdpBound(NamedTuple):
    m: int
    bound: float            # (k - m) / theta
    threshold: float        # c3 mu_g ||x||_2 sqrt(log q) + 2 sigma sqrt(2 log q + (r/2) log 2)
    success_floor: float    # 1 - (1 + e^2) / q
    success_floor_product: float  # (1 - 1/q)(1 - e^2/q)


def _group_noise_threshold(sigma: float, q: int, r: int) -> float:
    # 2 sigma sqrt(2 log q + (r/2) log 2), where chi2_tail_bound's union over q blocks is 1/q
    return 2 * sigma * math.sqrt(2 * math.log(q) + (r / 2) * math.log(2))


def fdp_bound_groupwise(group_norms: np.ndarray, sigma: float, mu_g: float,
                        q: int, r: int, c3: float, theta: int) -> GroupFdpBound:
    """False-discovery bound for group zero detection.

    group_norms must be the finite, nonincreasing block norms ||x_(1)||_2 >= ...;
    m is the largest index whose norm meets the threshold. Both forms of the
    success-probability floor are reported (they differ by o(1/q)).
    """
    norms = np.asarray(group_norms, dtype=float)
    if norms.ndim != 1 or norms.shape[0] < 1:
        raise BadValue("group_norms must be a nonempty vector")
    if not (np.all(np.isfinite(norms)) and np.all(norms >= 0)):
        raise BadValue("group norms must be finite and >= 0")
    if np.any(np.diff(norms) > 1e-12):
        raise BadValue("group norms must be sorted nonincreasing")
    sigma, mu_g = as_real(sigma, "sigma", lo=0), as_real(mu_g, "mu_g", lo=0)
    c3 = as_real(c3, "c3", lo=0, open=True)
    q, r, theta = as_int(q, "q", lo=2), as_int(r, "r", lo=1), as_int(theta, "theta", lo=1)
    k = norms.shape[0]
    x_norm = float(np.sqrt(np.sum(norms**2)))
    threshold = c3 * mu_g * x_norm * math.sqrt(math.log(q)) + _group_noise_threshold(sigma, q, r)
    m = int(np.count_nonzero(norms >= threshold))
    e2 = math.e**2
    return GroupFdpBound(
        m,
        (k - m) / theta,
        threshold,
        1 - (1 + e2) / q,
        (1 - 1 / q) * (1 - e2 / q),
    )


class NoiseThresholds(NamedTuple):
    element: float               # 2 sigma sqrt(log p)
    group: float | None          # 2 sigma sqrt(2 log q + (r/2) log 2)


def noise_thresholds(sigma: float, p: int, q: int | None = None,
                     r: int | None = None) -> NoiseThresholds:
    """High-probability noise-correlation thresholds for elements and groups."""
    sigma = as_real(sigma, "sigma", lo=0, open=True)
    element = 2 * sigma * math.sqrt(math.log(as_int(p, "p", lo=1)))
    group = None
    if q is not None and r is not None:
        q, r = as_int(q, "q", lo=1), as_int(r, "r", lo=1)
        group = _group_noise_threshold(sigma, q, r)
    return NoiseThresholds(element, group)


class Chi2TailBound(NamedTuple):
    value: float
    clamped: bool  # raw value exceeded 1


def chi2_tail_bound(tau: float, sigma: float, r: int, q: int = 1) -> Chi2TailBound:
    """Chernoff bound on P{max over q blocks of ||G_i^H w||_2 > tau}.

    Per block the bound is exp(-tau^2 / (4 sigma^2)) * 2^(r/2); the union
    over q blocks multiplies by q. At tau = 2 sigma sqrt(2 log q + (r/2) log 2)
    the union bound equals exactly 1/q. Clamped to [0, 1] with a flag.
    """
    tau, sigma = as_real(tau, "tau", lo=0, open=True), as_real(sigma, "sigma", lo=0, open=True)
    r, q = as_int(r, "r", lo=1), as_int(q, "q", lo=1)
    raw = q * math.exp(-(tau**2) / (4 * sigma**2)) * 2 ** (r / 2)
    return Chi2TailBound(min(raw, 1.0), raw > 1.0)
