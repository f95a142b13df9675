"""Thresholding detectors: selections, tie-breaks, invariances."""

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zerodetect.core import GroupPartition, MeasurementMatrix, RngSpec, hermitian_apply
from zerodetect.detectors import (
    _SHORT_ROW, DetectionResult, group_norms, ost_topk, select, select_mask, zd_groth, zd_ost,
)
from zerodetect.errors import BadValue, DimensionMismatch, NoGroups, ThetaOutOfRange
from zerodetect.matrices import KerdockSpec, attach_groups, build_bernoulli, build_kerdock

I4 = MeasurementMatrix(np.eye(4))
Y4 = np.array([0.0, 0.0, 3.0, 0.0])


def test_zd_ost_tie_break_to_lowest_index():
    assert zd_ost(Y4, I4, 1).estimate.indices == (1,)


def test_zd_ost_theta_three():
    assert zd_ost(Y4, I4, 3).estimate.indices == (1, 2, 4)


def test_zd_ost_theta_p_returns_everything():
    assert zd_ost(Y4, I4, 4).estimate.indices == (1, 2, 3, 4)


def test_zd_ost_kerdock_single_tone_noiseless():
    # the minimizing column never carries the tone: its score is bounded by
    # the coherence times the signal energy, the tone's own score is full
    m = build_kerdock(KerdockSpec(3))
    for tone in range(0, 256, 17):
        x = np.zeros(256, dtype=np.complex128)
        x[tone] = 5.0
        y = m.matrix @ x
        res = zd_ost(y, m, 1)
        chosen = res.estimate.indices[0]
        assert chosen != tone + 1
        assert res.scores[chosen - 1] <= 0.25 * np.linalg.norm(x) + 1e-12


def test_zd_groth_small_example():
    m = attach_groups(I4, 2)
    res = zd_groth(np.array([0.0, 0.0, 1.0, 1.0]), m, 1)
    assert res.estimate.indices == (1,)
    assert np.allclose(res.scores, [0.0, np.sqrt(2.0)])
    assert res.mode == "group"


def test_zd_groth_theta_q_selects_all_groups():
    m = attach_groups(I4, 2)
    res = zd_groth(Y4, m, 2)
    assert res.estimate.indices == (1, 2)


def test_zd_groth_r1_equals_zd_ost_seeded():
    m = attach_groups(build_bernoulli(16, 64, RngSpec(41)), 1)
    for t in range(100):
        rng = RngSpec(42).substream(t)
        x = np.zeros(64, dtype=np.complex128)
        support = rng.choice(64, 5, replace=False)
        x[support] = rng.uniform(1, 10, 5) * np.exp(2j * np.pi * rng.uniform(size=5))
        w = (rng.standard_normal(16) + 1j * rng.standard_normal(16)) / np.sqrt(2)
        y = m.matrix @ x + w
        theta = int(rng.integers(1, 64))
        assert zd_groth(y, m, theta).estimate.indices == zd_ost(y, m, theta).estimate.indices


def test_ost_topk_example():
    assert ost_topk(Y4, I4, 1).estimate.indices == (3,)
    assert ost_topk(Y4, I4, 4).estimate.indices == (1, 2, 3, 4)


def test_ost_topk_descending_tie_break():
    m = MeasurementMatrix(np.eye(4))
    y = np.array([2.0, 2.0, 1.0, 2.0])
    assert ost_topk(y, m, 2).estimate.indices == (1, 2)
    assert ost_topk(y, m, 2).ranking == (1, 2)


def test_topk_and_zd_ost_disjoint_without_boundary_ties():
    rng = np.random.default_rng(43)
    m = build_bernoulli(8, 32, RngSpec(44))
    for _ in range(20):
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        low = set(zd_ost(y, m, 10).estimate.indices)
        high = set(ost_topk(y, m, 12).estimate.indices)
        assert not low & high


def test_permutation_equivariance_exact():
    rng = np.random.default_rng(45)
    m = build_bernoulli(8, 24, RngSpec(46))
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    perm = rng.permutation(24)
    permuted = MeasurementMatrix(m.matrix[:, perm])
    base = zd_ost(y, m, 6).estimate.indices
    moved = zd_ost(y, permuted, 6).estimate.indices
    # column j of the permuted matrix is column perm[j] of the original
    mapped = sorted(int(np.nonzero(perm == b - 1)[0][0]) + 1 for b in base)
    assert list(moved) == mapped


def test_scale_invariance_of_selection():
    rng = np.random.default_rng(47)
    m = build_bernoulli(8, 24, RngSpec(48))
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    c = -2.5 + 1.25j
    for theta in (1, 5, 24):
        assert zd_ost(y, m, theta).estimate.indices == zd_ost(c * y, m, theta).estimate.indices


def test_determinism_repeated_calls():
    rng = np.random.default_rng(49)
    m = build_bernoulli(8, 24, RngSpec(50))
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    a = zd_ost(y, m, 7)
    b = zd_ost(y, m, 7)
    assert a.estimate.indices == b.estimate.indices
    assert np.array_equal(a.scores, b.scores)


def test_theta_validation():
    with pytest.raises(ThetaOutOfRange):
        zd_ost(Y4, I4, 0)
    with pytest.raises(ThetaOutOfRange):
        zd_ost(Y4, I4, 5)
    with pytest.raises(ThetaOutOfRange):
        ost_topk(Y4, I4, 5)
    m = attach_groups(I4, 2)
    with pytest.raises(ThetaOutOfRange):
        zd_groth(Y4, m, 3)
    with pytest.raises(ThetaOutOfRange, match=r"^theta must be in 1\.\.4, got 7$"):
        ost_topk(Y4, I4, 7)
    with pytest.raises(ThetaOutOfRange, match=r"^theta must be in 1\.\.2, got 0$"):
        zd_groth(Y4, m, 0)


def test_theta_accepts_any_integer():
    m = attach_groups(I4, 2)
    for t in (np.int64(2), np.uint8(2)):
        assert zd_ost(Y4, I4, t).ranking == zd_ost(Y4, I4, 2).ranking
        assert ost_topk(Y4, I4, t).ranking == ost_topk(Y4, I4, 2).ranking
        assert zd_groth(Y4, m, t).ranking == zd_groth(Y4, m, 2).ranking
    for bad, kind in ((2.0, "float"), ("2", "str"), (True, "bool"), (np.True_, "bool")):
        with pytest.raises(ThetaOutOfRange, match=f"theta must be an integer, got {kind}"):
            zd_ost(Y4, I4, bad)


def test_group_detector_needs_groups():
    with pytest.raises(NoGroups):
        zd_groth(Y4, I4, 1)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        zd_ost(np.ones(3), I4, 1)


def test_result_invariants():
    res = zd_ost(Y4, I4, 2)
    assert len(res.estimate) == res.theta == 2
    assert res.mode == "element"
    assert tuple(sorted(res.ranking)) == res.estimate.indices
    with pytest.raises(ValueError):
        res.scores[0] = 9.0  # score vector is read-only
    with pytest.raises(BadValue, match="unknown detection mode 'x'"):
        DetectionResult((1,), np.zeros(2), "x")


def test_result_leaves_the_callers_scores_writable():
    scores = np.array([0.5, 0.25, 1.0])
    res = DetectionResult((2,), scores, "element")
    assert scores.flags.writeable and not res.scores.flags.writeable
    scores[0] = 9.0
    assert res.scores[0] == 0.5
    # a locked array that owns its memory is adopted as it is, as the detectors pass theirs
    owned = np.array([0.5, 0.25, 1.0])
    owned.setflags(write=False)
    assert DetectionResult((2,), owned, "element").scores is owned


def test_dimension_mismatch_for_stacked_measurements():
    with pytest.raises(DimensionMismatch):
        zd_ost(np.ones((2, 4)), I4, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_measurements_are_rejected(bad):
    y = np.array([0.0, bad, 3.0, 0.0])
    with pytest.raises(BadValue):
        zd_ost(y, I4, 1)
    with pytest.raises(BadValue):
        zd_groth(y, attach_groups(I4, 2), 1)
    with pytest.raises(BadValue):
        zd_ost(np.full(4, bad), I4, 2)


def test_measurements_whose_scores_overflow_are_rejected():
    # finite, but the Walsh stages overflow: 248 of 256 correlations are not finite
    m = attach_groups(build_kerdock(KerdockSpec(3)), 8)
    y = np.full(m.n, 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        for detector, theta in ((zd_ost, 250), (zd_ost, 2), (ost_topk, 2), (zd_groth, 2)):
            with pytest.raises(BadValue, match="overflow"):
                detector(y, m, theta)
    # finite correlations whose squares leave the double range: the block norms overflow
    y = np.full(m.n, 1e154)
    assert np.isfinite(hermitian_apply(m, y)).all()
    with np.errstate(over="ignore"), pytest.raises(BadValue, match="overflow"):
        zd_groth(y, m, 2)


@pytest.mark.parametrize("shape", [(), (1,), (3,)])
@pytest.mark.parametrize("r", [1, 8, 64, 4096])
def test_group_norms_equal_linalg_norm(shape, r):
    # the same arithmetic as np.linalg.norm, without its dispatch: equal bit for bit
    # while numpy keeps that arithmetic (a tripwire on its version)
    m = build_kerdock(KerdockSpec(5))
    rng, size = np.random.default_rng(r), (*shape, m.n)
    s = hermitian_apply(m, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    blocks = s.reshape(*shape, m.p // r, r)
    expected = np.linalg.norm(blocks, axis=-1)
    assert np.array_equal(group_norms(s, GroupPartition(m.p // r, r)), expected)


def test_select_kernel_matches_sort_oracles_with_ties():
    rng = np.random.default_rng(51)
    scores = rng.integers(0, 4, size=(30, 12)).astype(float)  # many ties
    for theta in (1, 5, 12):
        for row in scores:
            assert np.array_equal(select(row, theta), np.argsort(row, kind="stable")[:theta])
            assert np.array_equal(select(row, theta, largest=True),
                                  np.lexsort((np.arange(12), -row))[:theta])


def _sort_select(scores, theta, largest=False):
    """Reference: the stable sort of whole score rows that select replaced."""
    keys = -scores if largest else scores
    return np.argsort(keys, axis=-1, kind="stable")[..., :theta]


# few distinct values, so that ties are common; 0.0 and -0.0 must tie
_QUANTIZED = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.5])


@st.composite
def _score_rows(draw):
    # short rows, and rows on both sides of the bound where select stops sorting whole rows
    p = draw(st.one_of(st.integers(1, 12), st.integers(_SHORT_ROW - 8, _SHORT_ROW + 8),
                       st.integers(1, 600)))
    t = draw(st.integers(1, 4))
    scores = draw(arrays(np.float64, (t, p), elements=_QUANTIZED))
    if t == 1 and draw(st.booleans()):
        scores = scores[0]  # a lone row
    return scores, draw(st.integers(0, p)), draw(st.booleans())


@given(_score_rows())
def test_partial_selection_matches_sort_oracle(case):
    scores, theta, largest = case
    expected = _sort_select(scores, theta, largest)
    if theta:  # select ranks one row, as the detectors pass it
        for row, want in zip(np.atleast_2d(scores), np.atleast_2d(expected)):
            assert np.array_equal(select(row, theta, largest), want)
    # the batch engine's mask holds the oracle's first theta positions (theta = 0: none)
    keys = -scores if largest else scores
    want = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(want, expected, True, axis=-1)
    assert np.array_equal(select_mask(keys, theta), want)


def test_kerdock_selections_match_dense_scores_up_to_rounding_ties():
    # the factored correlations of a Kerdock frame round differently from the
    # dense product; selections may differ only between scores within 1e-12
    # of the largest (noisy 32-sparse tones, as the detect benchmark draws them)
    m = attach_groups(build_kerdock(KerdockSpec(5)), 64)
    rng = np.random.default_rng(20260808)
    x = np.zeros((200, m.p), dtype=np.complex128)
    for row in x:
        row[rng.choice(m.p, 32, replace=False)] = rng.uniform(1, 1000, 32) * np.exp(
            2j * np.pi * rng.uniform(size=32))
    w = np.sqrt(250) * (rng.standard_normal((200, m.n)) + 1j * rng.standard_normal((200, m.n)))
    ys = x @ m.matrix.T + w
    dense = ys @ m.matrix.conj()
    for detector, theta, scores in ((zd_ost, 16, np.abs(dense)),
                                    (zd_groth, 4, group_norms(dense, m.groups))):
        for y, s in zip(ys, scores):
            got = np.array(detector(y, m, theta).ranking) - 1
            want = np.argsort(s, kind="stable")[:theta]
            assert np.all(np.abs(s[got] - s[want]) <= 1e-12 * s.max())


# the last vector's correlations, kept on its matrix: reuse must never show

_K3 = attach_groups(build_kerdock(KerdockSpec(3)), 8)
_RULES = {"zd_ost": (zd_ost, 256), "zd_groth": (zd_groth, 32), "ost_topk": (ost_topk, 256)}
# Gaussian integers and signed zeros: every correlation is exact, and -0.0 is a new key
_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -2.0, 1j, -0.5j, 3 + 1j])
_POOL = 3


def _fresh(m):
    # the same array and groups under a matrix whose slot is empty
    return MeasurementMatrix(m.matrix, m.groups)


def _assert_same(got, want):
    assert got.ranking == want.ranking and got.mode == want.mode
    assert got.scores.tobytes() == want.scores.tobytes()


_CALL = st.tuples(st.just("call"), st.integers(0, _POOL - 1), st.sampled_from(sorted(_RULES)),
                  st.integers(1, 256), st.booleans())
_EDIT = st.tuples(st.just("edit"), st.integers(0, _POOL - 1), st.integers(0, _K3.n - 1), _ENTRIES)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_ENTRIES, min_size=_K3.n, max_size=_K3.n), min_size=_POOL,
                max_size=_POOL),
       st.lists(st.one_of(_CALL, _CALL, _EDIT), min_size=1, max_size=12))
def test_detections_equal_those_on_a_fresh_matrix(pool, steps):
    m = _fresh(_K3)
    ys = [np.array(v, dtype=np.complex128) for v in pool]
    for step in steps:
        if step[0] == "edit":  # in place, between calls
            _, i, at, value = step
            ys[i][at] = value
            continue
        _, i, rule, theta, as_list = step
        detector, limit = _RULES[rule]
        theta = 1 + (theta - 1) % limit
        y = ys[i].tolist() if as_list else ys[i]
        _assert_same(detector(y, m, theta), detector(ys[i], _fresh(m), theta))


def test_one_vector_is_correlated_once_per_matrix():
    m, other = _fresh(_K3), attach_groups(_K3, 16)  # one array, two matrices
    assert other.matrix is m.matrix
    y, z = np.exp(0.5j * np.arange(m.n)), np.exp(0.25j * np.arange(m.n))
    with mock.patch("zerodetect.detectors.hermitian_apply", wraps=hermitian_apply) as apply:
        zd_ost(y, m, 16)
        zd_groth(y, m, 4)
        ost_topk(y.tolist(), m, 3)  # the same values, as a list
        assert apply.call_count == 1
        zd_groth(z, other, 2)  # the other matrix has its own slot
        zd_ost(y, m, 5)
        assert apply.call_count == 2
        zd_ost(z, other, 5)
        assert apply.call_count == 2
        y[3] = -y[3]  # an edit in place is a new vector
        zd_ost(y, m, 5)
        assert apply.call_count == 3


def test_writes_into_returned_arrays_do_not_reach_the_kept_correlations():
    m, y = _fresh(_K3), np.exp(0.5j * np.arange(_K3.n))
    want_s = hermitian_apply(m, y)
    first = zd_ost(y, m, 16)
    first.scores.setflags(write=True)  # the scores own their memory
    first.scores[:] = -1.0
    s = hermitian_apply(m, y)
    assert s.flags.writeable  # a fresh array each call
    s[:] = 0.0
    assert hermitian_apply(m, y).tobytes() == want_s.tobytes()
    for detector, theta in ((zd_ost, 16), (zd_groth, 4), (ost_topk, 3)):
        _assert_same(detector(y, m, theta), detector(y, _fresh(m), theta))


def test_threads_sharing_a_matrix_get_their_own_vectors_rankings():
    # more threads than cores, switching often, on one matrix: a slot read must never pair
    # one thread's key with another's correlations
    m, rng = _fresh(_K3), np.random.default_rng(7)
    ys = [rng.standard_normal(_K3.n) + 1j * rng.standard_normal(_K3.n) for _ in range(3)]
    want = [[detector(y, _fresh(m), theta) for detector, theta in ((zd_ost, 16), (zd_groth, 4))]
            for y in ys]
    failures = []

    def work(i):
        for _ in range(150):
            for (detector, theta), expected in zip(((zd_ost, 16), (zd_groth, 4)), want[i % 3]):
                got = detector(ys[i % 3], m, theta)
                if (got.ranking, got.scores.tobytes()) != (expected.ranking,
                                                           expected.scores.tobytes()):
                    failures.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
