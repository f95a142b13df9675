"""Coherence statistics and the orthogonality estimator."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerodetect import coherence
from zerodetect.coherence import (
    CoherenceReport,
    StocEstimate,
    average_coherence,
    coherence_argmax_pair,
    coherence_report,
    group_coherences,
    read_coherence_csv,
    stoc_estimate,
    stoc_probe,
    worst_case_coherence,
)
from zerodetect.core import MeasurementMatrix, RngSpec, normalize_columns
from zerodetect.errors import (
    BadK, BadValue, CmatFormatError, DimensionMismatch, NoGroups, SingleColumn, ZeroZ,
)
from zerodetect.matrices import KerdockSpec, attach_groups, build_bernoulli, build_kerdock

# golden numbers for the 16 x 256 Kerdock frame, frozen from exact-sum and
# dense-SVD oracle runs
KERDOCK_NU = 1.0 / 17.0
KERDOCK_MU_GROUP_R8 = 1.5455756847831934
KERDOCK_NU_GROUP_R8 = 0.4759364906334003


@pytest.fixture(scope="module")
def kerdock16():
    return build_kerdock(KerdockSpec(3))


@pytest.fixture(scope="module")
def kerdock16_r8(kerdock16):
    return attach_groups(kerdock16, 8)


def _random_unit_matrix(rng, n, p):
    a = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
    return normalize_columns(a)


def _naive_worst_case(a):
    best = 0.0
    p = a.shape[1]
    for i in range(p):
        for j in range(p):
            if i != j:
                best = max(best, abs(np.vdot(a[:, i], a[:, j])))
    return best


def test_worst_case_identity_and_duplicates():
    assert worst_case_coherence(MeasurementMatrix(np.eye(4))) == 0.0
    dup = MeasurementMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert worst_case_coherence(dup) == 1.0


def test_worst_case_kerdock(kerdock16):
    assert abs(worst_case_coherence(kerdock16) - 0.25) < 1e-10


def test_worst_case_matches_two_loop_oracle():
    rng = np.random.default_rng(31)
    for _ in range(5):
        m = _random_unit_matrix(rng, 4, 7)
        assert abs(worst_case_coherence(m) - _naive_worst_case(m.matrix)) < 1e-12


def test_average_identity():
    assert average_coherence(MeasurementMatrix(np.eye(5))) == 0.0


def test_average_all_columns_equal():
    # p copies of one unit column: every off-diagonal product is 1
    col = np.array([[0.6], [0.8]])
    m = MeasurementMatrix(np.repeat(col, 4, axis=1))
    assert abs(average_coherence(m) - 1.0) < 1e-12


def test_average_kerdock_golden(kerdock16):
    assert abs(average_coherence(kerdock16) - KERDOCK_NU) < 1e-12


def test_average_single_column_rejected():
    with pytest.raises(SingleColumn):
        average_coherence(MeasurementMatrix(np.array([[1.0]])))


def test_nu_below_mu_on_random_matrices():
    rng = np.random.default_rng(32)
    for _ in range(10):
        m = _random_unit_matrix(rng, 6, 17)
        assert average_coherence(m) <= worst_case_coherence(m)


def test_coherences_invariant_under_left_unitary(kerdock16):
    rng = np.random.default_rng(33)
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    rotated = MeasurementMatrix(q @ kerdock16.matrix)
    assert abs(worst_case_coherence(rotated) - 0.25) < 1e-8
    assert abs(average_coherence(rotated) - KERDOCK_NU) < 1e-8
    g0 = group_coherences(attach_groups(kerdock16, 8))
    g1 = group_coherences(attach_groups(rotated, 8))
    assert abs(g0.mu_group - g1.mu_group) < 1e-8
    assert abs(g0.nu_group - g1.nu_group) < 1e-8


def test_group_coherences_orthonormal_blocks():
    m = attach_groups(MeasurementMatrix(np.eye(8)), 2)
    mu_g, nu_g, _ = group_coherences(m)
    assert mu_g < 1e-12 and nu_g < 1e-12


def test_group_coherences_duplicated_block():
    block = np.eye(4)[:, :2]
    m = attach_groups(MeasurementMatrix(np.hstack([block, block])), 2)
    mu_g, _, pair = group_coherences(m)
    assert abs(mu_g - 1.0) < 1e-10
    assert pair == (1, 2)


def test_group_coherences_kerdock_vs_svd_oracle(kerdock16_r8):
    got = group_coherences(kerdock16_r8)
    a = kerdock16_r8.matrix
    blocks = [a[:, i * 8:(i + 1) * 8] for i in range(32)]
    mu_svd = max(
        np.linalg.svd(blocks[i].conj().T @ blocks[j], compute_uv=False)[0]
        for i in range(32) for j in range(32) if i != j
    )
    total = sum(blocks)
    nu_svd = max(
        np.linalg.svd(blocks[i].conj().T @ (total - blocks[i]), compute_uv=False)[0]
        for i in range(32)
    ) / 31
    assert abs(got.mu_group - mu_svd) < 1e-9
    assert abs(got.nu_group - nu_svd) < 1e-9
    assert abs(got.mu_group - KERDOCK_MU_GROUP_R8) < 1e-9
    assert abs(got.nu_group - KERDOCK_NU_GROUP_R8) < 1e-9


def test_group_coherences_r1_matches_elementwise(kerdock16):
    m = attach_groups(kerdock16, 1)
    mu_g, nu_g, _ = group_coherences(m)
    assert abs(mu_g - worst_case_coherence(kerdock16)) < 1e-10
    assert abs(nu_g - average_coherence(kerdock16)) < 1e-10


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 8), q=st.integers(2, 8), r=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_slab_scan_matches_dense_oracles(data, n, q, r, seed):
    # any slab size, from one Gram entry to more than the whole Gram, gives
    # the full-Gram and per-pair SVD values, and the reported pairs attain them
    p = q * r
    slab = data.draw(st.integers(1, p * p + 1), label="slab_entries")
    m = attach_groups(_random_unit_matrix(np.random.default_rng(seed), n, p), r)
    a = m.matrix
    g = a.conj().T @ a
    mag = np.abs(g)
    np.fill_diagonal(mag, 0.0)
    mu = mag.max()
    nu = np.abs(g.sum(axis=1) - np.diag(g)).max() / (p - 1)
    blocks = [a[:, i * r:(i + 1) * r] for i in range(q)]

    def norm2(c):
        return np.linalg.svd(c, compute_uv=False)[0]

    mu_g = max(norm2(blocks[i].conj().T @ blocks[j])
               for i in range(q) for j in range(q) if i != j)
    total = sum(blocks)
    nu_g = max(norm2(blocks[i].conj().T @ (total - blocks[i])) for i in range(q)) / (q - 1)

    with mock.patch.object(coherence, "_SLAB_ENTRIES", slab):
        got_mu = worst_case_coherence(m)
        i, j = coherence_argmax_pair(m)
        got_nu = average_coherence(m)
        got = group_coherences(m)
    assert abs(got_mu - mu) <= 1e-12
    assert abs(got_nu - nu) <= 1e-12
    assert abs(got.mu_group - mu_g) <= 1e-9
    assert abs(got.nu_group - nu_g) <= 1e-9
    assert i < j and abs(abs(np.vdot(a[:, i - 1], a[:, j - 1])) - got_mu) <= 1e-12
    gi, gj = got.argmax_pair
    assert gi < gj and abs(norm2(blocks[gi - 1].conj().T @ blocks[gj - 1]) - got.mu_group) <= 1e-9


def _closed_form_nu_group(m):
    # nu_g = max_I ||A_I^H (sum_J A_J - A_I)||_2 / (q - 1), from A in O(np)
    q, r = m.groups.q, m.groups.r
    blocks = m.matrix.reshape(m.n, q, r).swapaxes(0, 1)
    c = blocks.conj().swapaxes(1, 2) @ (blocks.sum(axis=0) - blocks)
    return float(np.linalg.norm(c, ord=2, axis=(-2, -1)).max() / (q - 1))


@pytest.fixture(scope="module")
def kerdock64():
    return build_kerdock(KerdockSpec(5))


@pytest.mark.parametrize("frame, r", [("kerdock16", 4), ("kerdock16", 8), ("kerdock16", 32),
                                      ("kerdock64", 16), ("kerdock64", 64), ("bernoulli", 8)])
def test_scan_nu_group_is_the_closed_form_bitwise_on_dyadic_frames(request, frame, r):
    # every product and sum of these entries is exact, so summing the scan's Gram
    # blocks and multiplying A_I^H by the summed columns give the same bits
    if frame == "bernoulli":
        m = attach_groups(build_bernoulli(16, 64, RngSpec(3)), r)
    else:
        m = attach_groups(request.getfixturevalue(frame), r)
    assert coherence_report(m).nu_group == _closed_form_nu_group(m)


def test_group_coherences_requires_partition(kerdock16):
    with pytest.raises(NoGroups):
        group_coherences(kerdock16)
    with pytest.raises(NoGroups):
        group_coherences(attach_groups(kerdock16, 256))  # q = 1 degenerate


# ---------------------------------------------------------------------------
# StOC estimator


def _exact_orthonormal(p, rng):
    # signed/phased permutation of the identity: exactly orthonormal in floats
    phases = np.array([1, -1, 1j, -1j])[rng.integers(0, 4, p)]
    perm = rng.permutation(p)
    return MeasurementMatrix(np.eye(p, dtype=np.complex128)[:, perm] * phases)


def test_stoc_orthonormal_never_violates():
    rng = np.random.default_rng(35)
    m = _exact_orthonormal(16, rng)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    est = stoc_estimate(m, 4, 0.0, z, 500, RngSpec(1))
    assert est.violations == 0 and est.delta_hat == 0.0


def test_stoc_kerdock_k1_coherence_level(kerdock16):
    # with k = 1 and z = e1 both inequalities reduce to single inner products,
    # all bounded by the coherence 0.25
    e1 = np.array([1.0 + 0j])
    for eps in (1.0, 0.5):
        est = stoc_estimate(kerdock16, 1, eps, e1, 300, RngSpec(2))
        assert est.delta_hat == 0.0


def test_stoc_golden_value(kerdock16):
    # frozen from a seeded 10000-permutation oracle run
    g = RngSpec(424242, stream_id=1).generator()
    parts = g.standard_normal((2, 32))
    z = parts[0] + 1j * parts[1]
    z /= np.linalg.norm(z)
    est = stoc_estimate(kerdock16, 32, 0.5, z, 10_000, RngSpec(424242))
    assert est.violations == 7624
    assert est.delta_hat == 0.7624


@pytest.mark.parametrize("k, eps, seed, violations", [
    (4, 0.4, 5, 4709), (16, 0.5, 1112, 3348), (32, 0.5, 2**40 + 3, 3615)])
def test_stoc_frozen_counts(kerdock16, k, eps, seed, violations):
    # frozen from the loop that built one substream per trial; none is 0 or
    # 5000, where any permutation stream would give the same count
    parts = np.random.default_rng(k).standard_normal((2, k))
    est = stoc_estimate(kerdock16, k, eps, parts[0] + 1j * parts[1], 5000, RngSpec(seed))
    assert est.violations == violations


def test_stoc_reproducible(kerdock16):
    z = np.full(8, 1 / np.sqrt(8), dtype=np.complex128)
    a = stoc_estimate(kerdock16, 8, 0.4, z, 200, RngSpec(3))
    b = stoc_estimate(kerdock16, 8, 0.4, z, 200, RngSpec(3))
    assert (a.violations, a.delta_hat) == (b.violations, b.delta_hat)


def test_stoc_validation(kerdock16):
    z = np.ones(4, dtype=np.complex128)
    with pytest.raises(BadK, match=r"k must be in 1\.\.255, got 0"):
        stoc_estimate(kerdock16, 0, 0.5, z[:0], 10, RngSpec(0))
    with pytest.raises(BadK, match=r"k must be in 1\.\.255, got 256"):
        stoc_estimate(kerdock16, 256, 0.5, z, 10, RngSpec(0))
    with pytest.raises(BadValue, match="trials must be >= 1, got 0"):
        stoc_estimate(kerdock16, 4, 0.5, z, 0, RngSpec(0))
    with pytest.raises(BadValue, match="trials must be >= 1, got 0"):
        StocEstimate(4, 0.5, 0, 0, "flat")
    for args, match in (((4, 0.5, 2.5, 1), "^trials must be an integer, got float 2.5$"),
                        ((4, math.nan, 2, 1), "^epsilon must be finite, got nan$"),
                        ((0, 0.5, 2, 1), "^k must be >= 1, got 0$")):
        with pytest.raises(BadValue, match=match):
            StocEstimate(*args, "flat")
    with pytest.raises(ZeroZ):
        stoc_estimate(kerdock16, 4, 0.5, np.zeros(4), 10, RngSpec(0))
    with pytest.raises(DimensionMismatch):
        stoc_estimate(kerdock16, 5, 0.5, z, 10, RngSpec(0))
    with pytest.raises(BadValue):
        stoc_estimate(kerdock16, 4, -0.1, z, 10, RngSpec(0))


@pytest.mark.parametrize("trials", [2.5, "3"])
def test_stoc_rejects_non_integer_trials(kerdock16, trials):
    z = np.ones(4, dtype=np.complex128)
    with pytest.raises(BadValue, match="trials must be an integer"):
        stoc_estimate(kerdock16, 4, 0.5, z, trials, RngSpec(0))


def test_stoc_rejects_non_integer_k(kerdock16):
    z = np.ones(2, dtype=np.complex128)
    with pytest.raises(BadK, match="k must be an integer, got float"):
        stoc_estimate(kerdock16, 2.0, 0.5, z, 10, RngSpec(0))
    with pytest.raises(BadK, match="k must be an integer, got float"):
        stoc_probe("flat", 2.5, 0)
    with pytest.raises(BadK, match="k must be >= 1, got 0"):
        stoc_probe("flat", 0, 0)
    assert stoc_probe("flat", np.int64(4), 0).shape == (4,)


def test_stoc_takes_numpy_integer_trials(kerdock16):
    z = np.ones(4, dtype=np.complex128)
    ours = stoc_estimate(kerdock16, 4, 0.5, z, np.int64(3), RngSpec(0))
    assert type(ours.trials) is int and ours == stoc_estimate(kerdock16, 4, 0.5, z, 3, RngSpec(0))


@pytest.mark.parametrize("eps, bad_entry", [(np.nan, None), (np.inf, None), (0.1, np.nan)])
def test_stoc_rejects_non_finite_epsilon_and_probe(kerdock16, eps, bad_entry):
    z = np.ones(4, dtype=np.complex128)
    # with these finite values every trial violates, so a non-finite value read
    # as "no violation" would hide them all
    assert stoc_estimate(kerdock16, 4, 0.1, z, 50, RngSpec(0)).violations == 50
    if bad_entry is not None:
        z[2] = bad_entry
    with pytest.raises(BadValue):
        stoc_estimate(kerdock16, 4, eps, z, 50, RngSpec(0))


def _dense_stoc_violations(m, k, eps, z, trials, rng):
    # the estimator's definition with an explicit A^H and one substream per trial
    a = m.matrix
    ah = a.conj().T
    budget = eps * np.linalg.norm(z)
    violations = 0
    for t in range(trials):
        perm = rng.substream(t).permutation(m.p)
        head = perm[:k]
        s = ah @ (a[:, head] @ z)
        if (np.abs(s[head] - z).max() > budget
                or np.abs(s[perm[k:]]).max() > budget):
            violations += 1
    return violations


# Kerdock m = 5 correlates through its Walsh plan, a Bernoulli matrix through
# the dense product; each case has an eps whose count is strictly between 0 and 200
@pytest.mark.parametrize("family, strategy, k", [
    ("kerdock5", "gaussian-seeded", 32), ("kerdock5", "flat", 64), ("kerdock5", "flat", 512),
    ("bernoulli", "gaussian-seeded", 2)])
def test_stoc_matches_a_dense_correlation_loop(family, strategy, k):
    if family == "kerdock5":
        m = build_kerdock(KerdockSpec(5))
    else:
        m = build_bernoulli(24, 96, RngSpec(8))
    z = coherence.stoc_probe(strategy, k, 9)
    for eps in (0.3, 0.5, 0.7):
        est = stoc_estimate(m, k, eps, z, 200, RngSpec(10))
        assert est.violations == _dense_stoc_violations(m, k, eps, z, 200, RngSpec(10))


def test_stoc_probe_strategies():
    assert np.array_equal(coherence.stoc_probe("e1", 3, 0), [1, 0, 0])
    assert np.allclose(coherence.stoc_probe("flat", 4, 0), 0.5)
    g = coherence.stoc_probe("gaussian-seeded", 6, 7)
    assert g.shape == (6,) and np.array_equal(g, coherence.stoc_probe("gaussian-seeded", 6, 7))
    with pytest.raises(BadValue):
        coherence.stoc_probe("ones", 3, 0)


def test_coherence_report_fields(kerdock16_r8):
    rep = coherence_report(kerdock16_r8)
    assert rep.mu == 0.25
    assert abs(rep.nu - KERDOCK_NU) < 1e-12
    assert rep.mu_group is not None and rep.nu_group is not None
    i, j = rep.argmax_pair
    a = kerdock16_r8.matrix
    assert abs(abs(np.vdot(a[:, i - 1], a[:, j - 1])) - 0.25) < 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_coherence_report_two_columns(n, seed):
    # at p = 2, nu equals mu in exact arithmetic but is a different sum, so
    # the two may round in either order
    m = _random_unit_matrix(np.random.default_rng(seed), n, 2)
    rep = coherence_report(m)
    a = m.matrix
    assert abs(rep.mu - abs(np.vdot(a[:, 0], a[:, 1]))) <= 1e-12
    assert abs(rep.nu - rep.mu) <= 1e-12
    assert rep.argmax_pair == (1, 2)


@pytest.mark.parametrize("name", ["mu", "nu", "mu_group", "nu_group"])
def test_coherence_report_names_a_non_finite_statistic(name):
    # the finiteness check runs first: a NaN would fail the ordering check unnamed
    stats = dict(mu=0.5, nu=0.1, mu_group=1.0, nu_group=0.5) | {name: float("nan")}
    with pytest.raises(BadValue, match=f"non-finite {name}: nan"):
        CoherenceReport(**stats, argmax_pair=(1, 2), argmax_group_pair=(1, 2))


def test_coherence_report_has_both_group_statistics_or_neither():
    with pytest.raises(BadValue, match="mu_group and nu_group"):
        CoherenceReport(mu=0.5, nu=0.1, mu_group=1.0, nu_group=None, argmax_pair=(1, 2),
                        argmax_group_pair=(1, 2))


def test_read_coherence_csv_rejects_a_file_it_did_not_write(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("mu,0.25,1,2\nnu,0.1,,\n")  # no stat,value header
    with pytest.raises(CmatFormatError, match="stat,value header"):
        read_coherence_csv(path)
    path.write_text("stat,value,arg_i,arg_j\nmu,0.25,1,2\n")
    with pytest.raises(BadValue, match="lacks the 'nu' statistic"):
        read_coherence_csv(path)


def test_coherence_report_rejects_inverted_order():
    with pytest.raises(BadValue):
        CoherenceReport(mu=0.1, nu=0.2, mu_group=None, nu_group=None, argmax_pair=(1, 2))
