"""Core types, operations, and the CMAT v1 text format."""

from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerodetect import core
from zerodetect.core import (
    GroupPartition,
    MeasurementMatrix,
    RngSpec,
    SignalInstance,
    SupportSet,
    _walsh_tables,
    column_norms,
    format_cmat_entry,
    hermitian_apply,
    normalize_columns,
    parse_cmat_entry,
    read_cmat,
    write_cmat,
)
from zerodetect.errors import (
    BadValue,
    CmatFormatError,
    DimensionMismatch,
    ZeroColumn,
)
from zerodetect.detectors import zd_groth, zd_ost
from zerodetect.matrices import KerdockSpec, attach_groups, build_bernoulli, build_kerdock


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# column_norms / normalize_columns


def test_column_norms_identity():
    assert np.allclose(column_norms(np.eye(2)), [1.0, 1.0])


@pytest.mark.parametrize("build", [MeasurementMatrix, column_norms, normalize_columns],
                         ids=["MeasurementMatrix", "column_norms", "normalize_columns"])
@pytest.mark.parametrize("a", [np.ones(3), np.ones((0, 3)), np.ones((3, 0))],
                         ids=["1-D", "no-rows", "no-columns"])
def test_dense_inputs_must_be_matrices_with_rows_and_columns(build, a):
    with pytest.raises(BadValue, match="expected a 2-D matrix with n, p >= 1"):
        build(a)


def test_column_norms_zero_column():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    norms = column_norms(m)
    assert norms[1] == 0.0


def test_normalize_diag_to_identity():
    out = normalize_columns(np.diag([2.0, 3.0]))
    assert np.allclose(out.matrix, np.eye(2))


def test_normalize_345_column():
    out = normalize_columns(np.array([[3.0], [4.0]]))
    assert np.allclose(out.matrix[:, 0], [0.6, 0.8])


def test_normalize_zero_column_raises():
    with pytest.raises(ZeroColumn) as err:
        normalize_columns(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert err.value.column == 2


def test_normalize_is_idempotent():
    rng = np.random.default_rng(21)
    a = _random_complex(rng, (6, 9))
    once = normalize_columns(a)
    twice = normalize_columns(once)
    # idempotent up to re-division by norms that are already 1 +- 1 ulp
    assert np.abs(once.matrix - twice.matrix).max() < 1e-15


def test_normalize_preserves_direction():
    rng = np.random.default_rng(22)
    a = _random_complex(rng, (5, 5))
    out = normalize_columns(a)
    scales = column_norms(a)
    assert np.allclose(out.matrix * scales[np.newaxis, :], a)


# ---------------------------------------------------------------------------
# hermitian_apply


def test_hermitian_apply_identity_conjugation_convention():
    y = np.array([1.0, 2.0j, 0.0])
    assert np.array_equal(hermitian_apply(np.eye(3), y), y)


def test_hermitian_apply_single_column():
    m = np.array([[0.0], [1.0]])
    assert hermitian_apply(m, np.array([5.0, 7.0]))[0] == 7.0


def test_hermitian_apply_matches_scalar_loop_oracle():
    rng = np.random.default_rng(23)
    a = _random_complex(rng, (4, 8))
    y = _random_complex(rng, 4)
    fast = hermitian_apply(a, y)
    slow = np.array([sum(np.conj(a[t, j]) * y[t] for t in range(4)) for j in range(8)])
    assert np.abs(fast - slow).max() < 1e-12


def test_hermitian_apply_additive_and_conjugate_homogeneous():
    rng = np.random.default_rng(24)
    a = _random_complex(rng, (5, 7))
    y1, y2 = _random_complex(rng, 5), _random_complex(rng, 5)
    assert np.allclose(
        hermitian_apply(a, y1 + y2),
        hermitian_apply(a, y1) + hermitian_apply(a, y2),
    )
    c = 0.3 - 1.7j
    scaled = a.copy()
    scaled[:, 2] *= c
    assert np.allclose(hermitian_apply(scaled, y1)[2], np.conj(c) * hermitian_apply(a, y1)[2])


def test_hermitian_apply_unitary_preserves_norm():
    rng = np.random.default_rng(25)
    q, _ = np.linalg.qr(_random_complex(rng, (16, 16)))
    m = MeasurementMatrix(q)
    y = _random_complex(rng, 16)
    assert abs(np.linalg.norm(hermitian_apply(m, y)) - np.linalg.norm(y)) < 1e-10


def test_hermitian_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hermitian_apply(np.eye(3), np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, np.inf)])
def test_hermitian_apply_rejects_non_finite(bad):
    y = np.array([1.0, bad, 0.0], dtype=np.complex128)
    with pytest.raises(BadValue):
        hermitian_apply(np.eye(3), y)
    with pytest.raises(BadValue):
        hermitian_apply(np.eye(3), np.stack([np.ones(3), y]))
    # a dense matrix with a non-finite entry, and a lone one
    with pytest.raises(BadValue, match="matrix entries must be finite"):
        hermitian_apply(np.diag(y), np.ones(3))
    with pytest.raises(BadValue, match="matrix entries must be finite"):
        hermitian_apply(np.array([[bad]]), [1.0])


def test_hermitian_apply_stack_rows_equal_single_vectors():
    rng = np.random.default_rng(26)
    a = _random_complex(rng, (6, 20))
    ys = _random_complex(rng, (5, 6))
    stacked = hermitian_apply(a, ys)
    assert stacked.shape == (5, 20)
    for t in range(5):
        assert np.array_equal(stacked[t], hermitian_apply(a, ys[t]))
    # the conjugate-free form computes the same numbers as a^H y
    assert np.array_equal(hermitian_apply(a, ys[0]), a.conj().T @ ys[0])


# ---------------------------------------------------------------------------
# hermitian_apply on Z4 character frames (Kerdock)


@cache
def _kerdock(m: int) -> MeasurementMatrix:
    return build_kerdock(KerdockSpec(m))


def _matrix_from_plan(plan) -> np.ndarray:
    # gather[w, alpha] = k n + t: row t has residue w and conj(A[t, lambda]) = i^k (-1)^(beta . w)
    # / sqrt(n) at lambda's place beta n + alpha; every such product is exact
    gather, had, had_scaled, places = plan
    n = len(gather)
    rows, phases = gather[:, 0] % n, np.array([1, 1j, -1, -1j])[gather // n]
    assert np.array_equal(gather % n, np.repeat(rows[:, np.newaxis], n, axis=1))
    by_place = np.kron(had, had_scaled).T[:, :, np.newaxis] * phases.conj()[:, np.newaxis, :]
    a = np.empty((n, n * n), dtype=np.complex128)
    a[rows] = by_place.reshape(n, n * n)[:, places]
    return a


# a Z4 character frame is recognised, and its plan rebuilds the frame exactly
@pytest.mark.parametrize("m", [1, 3, 5])
def test_kerdock_rows_are_found_to_be_kronecker_products(m):
    k = _kerdock(m)
    assert np.array_equal(_matrix_from_plan(k._walsh_plan), k.matrix)


def test_cmat_round_trip_keeps_kerdock_rows_kronecker(tmp_path):
    path = tmp_path / "k3.cmat"
    write_cmat(path, _kerdock(3))
    back = MeasurementMatrix(read_cmat(path)[0])
    assert np.array_equal(_matrix_from_plan(back._walsh_plan), _kerdock(3).matrix)


# a built frame's plan comes from its trace table; the recogniser, run on its entries,
# finds the same arrays
@pytest.mark.parametrize("m", [1, 3, 5])
def test_built_kerdock_plan_equals_the_recognised_plan(m):
    k = build_kerdock(KerdockSpec(m))
    recognised = MeasurementMatrix(np.array(k.matrix))._walsh_plan
    assert all(np.array_equal(a, b) for a, b in zip(k._walsh_plan, recognised, strict=True))


@pytest.mark.parametrize("m", [1, 3])
def test_built_kerdock_and_its_cmat_round_trip_correlate_alike(tmp_path, m):
    path = tmp_path / "k.cmat"
    write_cmat(path, build_kerdock(KerdockSpec(m)))
    built, loaded = build_kerdock(KerdockSpec(m)), MeasurementMatrix(read_cmat(path)[0])
    ys = _random_complex(np.random.default_rng(33), (4, built.n))
    for y in (ys, *ys):
        assert np.array_equal(hermitian_apply(built, y).view(np.uint64),
                              hermitian_apply(loaded, y).view(np.uint64))


def test_kerdock_rows_in_any_order_keep_the_plan():
    k = _kerdock(3)
    shuffled = MeasurementMatrix(k.matrix[np.random.default_rng(30).permutation(k.n)])
    assert np.array_equal(_matrix_from_plan(shuffled._walsh_plan), shuffled.matrix)
    ys = _random_complex(np.random.default_rng(31), (3, k.n))
    dense = ys @ shuffled.matrix.conj()
    bound = 4 * k.n * np.finfo(float).eps * np.abs(ys).sum(axis=1) / np.sqrt(k.n)
    assert np.all(np.abs(hermitian_apply(shuffled, ys) - dense) <= bound[:, np.newaxis])


# each table of _walsh_tables(u) equals its defining formula over the base-4 digits of
# every column index, a (p, u) table; the cached tables hold no array of that size
@pytest.mark.parametrize("u", [2, 4, 6, 8])
def test_walsh_tables_equal_their_digit_formulas(u):
    n, h, weights = 1 << u, u // 2, 1 << np.arange(u - 1, -1, -1)
    bits = np.arange(n)[:, np.newaxis] // weights & 1
    digits = np.arange(n * n)[:, np.newaxis] // (weights * weights) & 3
    had = (-1.0) ** (bits[: 1 << h, h:] @ bits[: 1 << h, h:].T)
    places = (digits >> 1) @ weights * n + (digits & 1) @ weights
    expected = (weights, -n * bits.T.astype(float), had, had / (1 << h), places)
    tables = _walsh_tables(u)
    assert len(tables) == len(expected)
    for got, want in zip(tables, expected):
        assert got.dtype == want.dtype and np.array_equal(got, want) and not got.flags.writeable
        assert max(got.size, getattr(got.base, "size", 0)) < n * n * u


@cache
def _not_kronecker():
    swapped = _kerdock(3).matrix.copy()
    swapped[:, [5, 200]] = swapped[:, [200, 5]]
    flipped = _kerdock(5).matrix.copy()
    flipped[-1, 5] *= -1  # only the last row slab breaks the identity
    rotated = _kerdock(3).matrix.copy()
    rotated[7] *= np.exp(0.25j * np.pi)  # unit columns and Kronecker rows, but not Z4
    rng = np.random.default_rng(27)
    return {
        "bernoulli 64 x 4096": build_bernoulli(64, 4096, RngSpec(5)),
        "kerdock m = 3, two columns swapped": MeasurementMatrix(swapped),
        "kerdock m = 5, one sign flipped in the last row": MeasurementMatrix(flipped),
        "kerdock m = 3, one row times e^(i pi / 4)": MeasurementMatrix(rotated),
        "p not a square": normalize_columns(_random_complex(rng, (6, 8))),
        "zero in column 0": MeasurementMatrix(np.eye(4)),
    }


@pytest.mark.parametrize("case", list(_not_kronecker()))
def test_other_matrices_keep_the_dense_product(case):
    m = _not_kronecker()[case]
    assert m._walsh_plan is None
    y = _random_complex(np.random.default_rng(28), m.n)
    assert np.array_equal(hermitian_apply(m, y), m.matrix.conj().T @ y)


def test_kerdock_correlations_of_an_empty_stack():
    assert hermitian_apply(_kerdock(3), np.zeros((0, 16))).shape == (0, 256)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_kerdock_correlations_of_gaussian_integers_are_exact(m):
    # every partial sum of dyadic terms is exact, so any order of summation
    # gives the dense product bitwise: this holds the phases and the 1 / sqrt(n)
    k = _kerdock(m)
    ys = np.round(8 * _random_complex(np.random.default_rng(32), (3, k.n)))
    assert np.array_equal(hermitian_apply(k, ys), ys @ k.matrix.conj())
    assert np.array_equal(hermitian_apply(k, ys[0]), k.matrix.conj().T @ ys[0])


def test_hermitian_apply_stack_rows_equal_single_vectors_kerdock():
    m = _kerdock(3)
    ys = _random_complex(np.random.default_rng(29), (5, m.n))
    stacked = hermitian_apply(m, ys)
    assert stacked.shape == (5, m.p)
    for t in range(5):
        assert np.array_equal(stacked[t], hermitian_apply(m, ys[t]))


# a chunk holds 31 rows at m = 3 and 1 at m = 5: stacks on both sides of its boundaries
@pytest.mark.parametrize("degree, rows", [(3, 30), (3, 31), (3, 32), (3, 33), (3, 62), (3, 63),
                                          (3, 65), (5, 1), (5, 2), (5, 3), (5, 5)])
def test_hermitian_apply_rows_equal_lone_calls_across_chunk_boundaries(degree, rows):
    m = _kerdock(degree)
    ys = _random_complex(np.random.default_rng(rows), (rows, m.n))
    stacked = hermitian_apply(m, ys)
    assert stacked.shape == (rows, m.p)
    for t in range(rows):
        assert np.array_equal(stacked[t], hermitian_apply(m, ys[t]))


@pytest.mark.parametrize("degree, rows", [(1, 1024), (3, 256), (5, 16)])
def test_hermitian_apply_chunks_stay_below_the_mmap_threshold(degree, rows):
    # each chunk's temporaries, (chunk rows) x p complex entries, stay below glibc's 128 KB, and
    # the chunks are written into the one output; a stack of one chunk's rows takes one pass
    m = _kerdock(degree)
    ys = _random_complex(np.random.default_rng(rows), (rows, m.n))
    with mock.patch.object(core, "_walsh", wraps=core._walsh) as walsh:
        hermitian_apply(m, ys[: max(1, (2**13 - 1) // m.p)])
        assert walsh.call_count == 1
        stacked = hermitian_apply(m, ys)
    chunks = [call.args for call in walsh.call_args_list[1:]]
    assert sum(len(ys) for _, ys, _ in chunks) == rows
    assert max(len(ys) for _, ys, _ in chunks) * m.p * 16 < 2**17
    assert all(out.base is stacked for _, _, out in chunks)
    assert np.array_equal(stacked, np.stack([hermitian_apply(m, y) for y in ys]))


def _same_plan(got, want):
    return all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want, strict=True))


# the recogniser accepts the frame of a u x n table tau with distinct residues, each entry as
# the fill takes it, with the plan from_traces derives from tau; it accepts it with any zero
# written -0.0, and rejects it with one entry moved to another power of i, or when residues repeat
@settings(max_examples=40, deadline=None, derandomize=True)
@given(u=st.sampled_from([2, 4]), data=st.data())
def test_recogniser_accepts_exactly_the_frames_of_trace_tables(u, data):
    n = 1 << u
    residues = np.array(data.draw(st.permutations(range(n))))
    high = data.draw(st.lists(st.integers(0, 1), min_size=u * n, max_size=u * n))
    tau = (residues >> np.arange(u - 1, -1, -1)[:, np.newaxis] & 1) + 2 * np.reshape(high, (u, n))
    tau = tau.astype(np.uint8)
    want = MeasurementMatrix.from_traces(tau)._walsh_plan
    frame = core._kerdock_entries(tau)
    assert _same_plan(MeasurementMatrix(frame)._walsh_plan, want)
    signed = frame.copy()
    signed.view(np.float64)[signed.view(np.float64) == 0] = -0.0
    assert _same_plan(MeasurementMatrix(signed)._walsh_plan, want)
    moved = frame.copy()
    t, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n * n - 1))
    moved[t, c] *= data.draw(st.sampled_from([1j, -1, -1j]))  # still +-1 or +-i over sqrt(n)
    assert MeasurementMatrix(moved)._walsh_plan is None
    t, twin = data.draw(st.permutations(range(n)))[:2]
    tau[:, twin] = tau[:, t] & 1 | tau[:, twin] & 2
    assert MeasurementMatrix(core._kerdock_entries(tau))._walsh_plan is None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.sampled_from([1, 3, 5]), rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_kerdock_correlations_match_dense_to_rounding(m, rows, seed, scale):
    k = _kerdock(m)
    ys = scale * _random_complex(np.random.default_rng(seed), (rows, k.n))
    dense = ys @ k.matrix.conj()
    # the rounding bound of an n-term dot product with entries of modulus 1/sqrt(n)
    bound = 4 * k.n * np.finfo(float).eps * np.abs(ys).sum(axis=1) / np.sqrt(k.n)
    assert np.all(np.abs(hermitian_apply(k, ys) - dense) <= bound[:, np.newaxis])


# ---------------------------------------------------------------------------
# types


def test_measurement_matrix_rejects_non_unit_columns():
    with pytest.raises(BadValue):
        MeasurementMatrix(np.diag([1.0, 2.0]))


def test_measurement_matrix_rejects_bad_partition():
    with pytest.raises(BadValue):
        MeasurementMatrix(np.eye(4), groups=GroupPartition(3, 2))


def test_measurement_matrix_is_immutable():
    m = MeasurementMatrix(np.eye(3))
    with pytest.raises(ValueError):
        m.matrix[0, 0] = 5.0


@pytest.mark.parametrize("bad", [np.nan, 1j * np.inf, -np.inf])
def test_measurement_matrix_rejects_non_finite(bad):
    a = np.eye(3, dtype=np.complex128)
    a[1, 2] = bad
    with pytest.raises(BadValue, match="must be finite"):
        MeasurementMatrix(a)


def test_measurement_matrix_huge_finite_entry_fails_the_norm_check():
    # the squared norm overflows to inf, yet every entry is finite
    a = np.eye(3)
    a[0, 1] = 1e200
    with pytest.raises(BadValue, match=r"column 2 has norm \S*inf\S*, not unit"):
        MeasurementMatrix(a)


def test_measurement_matrix_norm_failure_prints_a_plain_float():
    a = np.eye(3)
    a[0, 1] = 1e200
    with pytest.raises(BadValue) as info:
        MeasurementMatrix(a)
    assert str(info.value) == "column 2 has norm inf, not unit within 1e-10"


def test_measurement_matrix_copies_what_others_can_write():
    a = np.eye(3, dtype=np.complex128)
    m = MeasurementMatrix(a)
    a[0, 0] = 5.0
    assert m.matrix[0, 0] == 1.0
    # a locked view of writeable memory is still writeable through its base
    base = np.eye(3, dtype=np.complex128)
    view = base[:, :]
    view.setflags(write=False)
    m = MeasurementMatrix(view)
    assert m.matrix is not view
    base[0, 0] = 5.0
    assert m.matrix[0, 0] == 1.0


def test_measurement_matrix_adopts_a_locked_owning_array():
    a = np.eye(4, dtype=np.complex128)
    a.setflags(write=False)
    m = MeasurementMatrix(a)
    assert m.matrix is a
    assert attach_groups(m, 2).matrix is m.matrix


def test_attach_groups_adopts_the_checked_frame_without_a_second_scan():
    m = build_kerdock(KerdockSpec(3))
    plan = m._walsh_plan
    assert plan is not None
    with mock.patch.object(core, "_unit_columns", wraps=core._unit_columns) as check:
        grouped = attach_groups(m, 8)
    assert check.call_count == 0
    assert grouped.matrix is m.matrix
    assert grouped._walsh_plan is plan
    assert grouped.groups == GroupPartition(32, 8) and m.groups is None


def test_detection_equal_when_grouped_before_or_after_first_detection():
    y = np.exp(0.5j * np.arange(64)) * (1 + np.arange(64) % 5)
    before = attach_groups(build_kerdock(KerdockSpec(5)), 64)
    first = build_kerdock(KerdockSpec(5))
    zd_ost(y, first, 16)  # detects once before grouping
    after = attach_groups(first, 64)
    for detect, theta in ((zd_ost, 16), (zd_groth, 4)):
        a, b = detect(y, before, theta), detect(y, after, theta)
        assert a.ranking == b.ranking and a.mode == b.mode
        assert np.array_equal(a.scores, b.scores)


@pytest.mark.parametrize("q, r", [(2.5, 4), (4, 2.5), (4.0, 2), ("4", 2), (4, None)],
                         ids=["q=2.5", "r=2.5", "q=4.0", "q='4'", "r=None"])
def test_group_partition_rejects_non_integers(q, r):
    with pytest.raises(BadValue, match="must be an integer"):
        GroupPartition(q, r)


def test_group_partition_takes_numpy_integers():
    g = GroupPartition(np.int64(4), np.uint8(3))
    assert type(g.q) is int and type(g.r) is int and g == GroupPartition(4, 3)


def test_group_partition_mapping():
    g = GroupPartition(4, 3)
    assert g.p == 12
    assert g.block(1) == slice(0, 3)
    assert g.block(4) == slice(9, 12)
    assert g.group_of_column(1) == 1
    assert g.group_of_column(12) == 4
    with pytest.raises(BadValue):
        g.block(5)
    for call, match in ((lambda: g.block(0), r"group index must be in 1\.\.4, got 0"),
                        (lambda: g.block(1.5), "group index must be an integer, got float 1.5"),
                        (lambda: g.group_of_column(13), r"column must be in 1\.\.12, got 13"),
                        (lambda: g.group_of_column(2.0), "column must be an integer, got float"),
                        (lambda: GroupPartition(0, 3), "group count must be >= 1, got 0"),
                        (lambda: GroupPartition(4, -1), "group size must be >= 1, got -1")):
        with pytest.raises(BadValue, match=match):
            call()


def test_support_set_validation_and_complement():
    s = SupportSet.from_indices([3, 1], 4)
    assert s.indices == (1, 3)
    assert s.complement().indices == (2, 4)
    assert 3 in s and 2 not in s
    with pytest.raises(BadValue):
        SupportSet.from_indices([1, 1], 4)
    with pytest.raises(BadValue, match=r"index must be in 1\.\.4, got 0"):
        SupportSet.from_indices([0], 4)
    with pytest.raises(BadValue, match=r"index must be in 1\.\.4, got 5"):
        SupportSet((1, 5), 4)
    with pytest.raises(BadValue, match="domain size must be >= 1, got 0"):
        SupportSet((), 0)
    with pytest.raises(BadValue):
        SupportSet((2, 1), 4)  # must be sorted


def test_support_set_accepts_any_integer():
    s = SupportSet((np.int64(1), 2), np.int64(3))
    assert s.indices == (1, 2) and s.domain_size == 3
    assert all(type(i) is int for i in (*s.indices, s.domain_size))
    for bad, kind in ((2.0, "float"), ("2", "str")):
        with pytest.raises(BadValue, match=f"index must be an integer, got {kind}"):
            SupportSet((1, bad), 3)
    for bad, kind in ((2.5, "float"), ("3", "str")):
        with pytest.raises(BadValue, match=f"domain size must be an integer, got {kind}"):
            SupportSet((1,), bad)


def test_support_set_builders_reject_non_integers():
    # int() would truncate these; the constructor rejects them, and so do its builders
    with pytest.raises(BadValue, match="index must be an integer, got float"):
        SupportSet.from_indices([1.7, 2.2], 3)
    with pytest.raises(BadValue, match="index must be an integer, got float"):
        SupportSet.from_zero_based([0.0, 1.5], 3)
    assert SupportSet.from_zero_based(np.array([2, 0]), 3).indices == (1, 3)


def test_signal_instance_invariants():
    x = np.array([0.0, 2.0, 0.0, 1.0j])
    sig = SignalInstance.from_vector(x)
    assert sig.k == 2
    assert sig.support.indices == (2, 4)
    assert sig.zero_support.indices == (1, 3)
    with pytest.raises(BadValue):
        SignalInstance(x.reshape(2, 2))  # x is the only field, a 1-D vector


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0)])
def test_signal_instance_rejects_non_finite(bad):
    with pytest.raises(BadValue, match="finite"):
        SignalInstance.from_vector([bad, 1.0, 0.0])


def test_rng_spec_determinism_and_streams():
    a = RngSpec(123, 5).generator().standard_normal(8)
    b = RngSpec(123, 5).generator().standard_normal(8)
    c = RngSpec(123, 6).generator().standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    s1 = RngSpec(9).substream(1, 2).standard_normal(4)
    s2 = RngSpec(9).substream(1, 2).standard_normal(4)
    s3 = RngSpec(9).substream(2, 1).standard_normal(4)
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, s3)


def test_rng_spec_validation():
    with pytest.raises(BadValue):
        RngSpec(-1)
    with pytest.raises(BadValue):
        RngSpec(2**64)
    with pytest.raises(BadValue):
        RngSpec(0).substream(-3)


# zero encodes as one SeedSequence word, and these sit at the word boundaries
_WORD_EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1)
_words = st.one_of(st.sampled_from(_WORD_EDGES), st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=_words, stream=_words, prefix=st.lists(_words, max_size=3), start=_words,
       count=st.integers(0, 6))
def test_substream_keys_match_numpy_seed_sequence(seed, stream, prefix, start, count):
    # a tripwire on the numpy version: substreams starts from SeedSequence's own pool,
    # but its hash over the two words of t and generate_state are still written by
    # hand, so a numpy release that changes SeedSequence fails here
    spec = RngSpec(seed, stream)
    spawn = tuple(w for v in (stream, *prefix) for w in (v & 0xFFFFFFFF, v >> 32))
    blocks = [range(t, t + 1) for t in _WORD_EDGES] + [range(start, min(start + count, 2**64))]
    for trials in blocks:
        ref = [np.random.SeedSequence(seed, spawn_key=spawn + (t & 0xFFFFFFFF, t >> 32))
               .generate_state(2, np.uint64) for t in trials]
        keys = [rng.bit_generator.state["state"]["key"]
                for rng in spec.substreams(*prefix, trials=trials)]
        assert all(key.dtype == np.uint64 and key.shape == (2,) for key in keys)
        assert np.array_equal(np.array(keys, dtype=np.uint64).reshape(-1, 2),
                              np.array(ref, dtype=np.uint64).reshape(-1, 2))


@pytest.mark.parametrize("trials", [
    range(2**32 - 100, 2**32 + 100), range(0, 1), range(2**64 - 1, 2**64)])
def test_keyed_streams_draw_as_substreams(trials):
    # a tripwire on the numpy version: re-keying writes Philox's state layout by
    # hand, so a numpy release that changes it or its seeding fails here
    spec = RngSpec(20260808, 3)
    for t, rng in zip(trials, spec.substreams(16, trials=trials), strict=True):
        ref = spec.substream(16, t)
        # full-range uint32 draws come first and return raw words, where bounded
        # draws could reject the zero words of a stale buffer or cached half;
        # an odd count of them leaves a cached half for the rest of the trial
        for draw in (lambda g: g.integers(0, 2**32, 3, dtype=np.uint32),
                     lambda g: g.uniform(1.0, 1000.0, 16),
                     lambda g: g.choice(256, size=16, replace=False),
                     lambda g: g.standard_normal((2, 16)),
                     lambda g: g.permutation(256)):
            assert np.array_equal(draw(rng), draw(ref))


def test_substream_keys_validation():
    spec = RngSpec(1)
    assert list(spec.substreams(trials=range(0))) == []
    for prefix, trials in [((), range(-1, 2)), ((), range(1, -2, -1)),
                           ((), range(2**64, 2**64 + 1)), ((-1,), range(1)), ((2**64,), range(1))]:
        streams = spec.substreams(*prefix, trials=trials)
        with pytest.raises(BadValue, match=r"(trial|entries) must be in 0\.\.18446744073709551615"):
            next(streams)  # raised before the first generator is yielded


# ---------------------------------------------------------------------------
# CMAT v1


def test_cmat_entry_round_trip_and_suffixes():
    z = 0.25 - 0.25j
    assert format_cmat_entry(z) == "0.25-0.25j"
    assert parse_cmat_entry("0.25-0.25j") == z
    assert parse_cmat_entry("0.25-0.25i") == z
    assert parse_cmat_entry("1.5") == 1.5 + 0j
    with pytest.raises(CmatFormatError):
        parse_cmat_entry("abc")
    with pytest.raises(CmatFormatError):
        parse_cmat_entry("1+2k")
    with pytest.raises(CmatFormatError):
        parse_cmat_entry("1+2I")


def test_cmat_round_trip_exact(tmp_path):
    rng = np.random.default_rng(26)
    a = _random_complex(rng, (5, 7)) * 1e3
    path = tmp_path / "m.cmat"
    write_cmat(path, a, meta={"family": "test", "seed": "7"})
    back, meta = read_cmat(path)
    assert np.array_equal(back, a)  # 17 significant digits round-trip doubles
    assert meta == {"family": "test", "seed": "7"}


def test_cmat_reader_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "m.cmat"
    path.write_text(
        "# a leading remark\n2 2\n\n# meta: kind=identity\n"
        "1+0j 0+0j\n0+0i 1-0i\n"
    )
    a, meta = read_cmat(path)
    assert np.array_equal(a, np.eye(2))
    assert meta == {"kind": "identity"}


@pytest.mark.parametrize(
    "body",
    [
        "2\n1+0j 0+0j\n0+0j 1+0j\n",            # malformed header
        "2 2\n1+0j\n0+0j 1+0j\n",               # short row
        "3 2\n1+0j 0+0j\n0+0j 1+0j\n",          # missing row
        "2 2\n1+0j nope\n0+0j 1+0j\n",          # bad entry
        "0 2\n",                                 # degenerate header
        "# only a remark\n",                     # no header at all
        "a b\n1+0j\n",                           # header not integers
        "1 1\n# meta: x\n1+0j\n",                # meta token without '='
        "1 1\n1e\n",                             # passes the entry pattern, not complex()
    ],
)
def test_cmat_reader_rejects_malformed(tmp_path, body):
    path = tmp_path / "bad.cmat"
    path.write_text(body)
    with pytest.raises(CmatFormatError):
        read_cmat(path)


def test_cmat_meta_rejects_spaces(tmp_path):
    with pytest.raises(BadValue):
        write_cmat(tmp_path / "m.cmat", np.eye(2), meta={"k": "a b"})


@pytest.mark.parametrize("meta", [
    {"k": "a\tb"}, {"k": "a\nb"}, {"k\n": "v"}, {"a=b": "v"}, {"": "v"}, {"k": "\u2028"},
    {1: "a", "1": "b"},
], ids=["tab", "newline", "key-newline", "key-equals", "empty-key", "line-separator",
        "keys-equal-as-text"])
def test_cmat_meta_rejects_what_does_not_read_back(tmp_path, meta):
    path = tmp_path / "m.cmat"
    with pytest.raises(BadValue):
        write_cmat(path, np.eye(2), meta=meta)
    assert not path.exists()


def test_cmat_meta_round_trips_what_it_accepts(tmp_path):
    # a value may hold '=' (read_cmat splits at the first) and may be empty
    meta = {"family": "test", "expr": "a=b=c", "empty": "", "seed": 7, "poly_z4": "1,3,2,0,1"}
    path = tmp_path / "m.cmat"
    write_cmat(path, np.eye(2), meta=meta)
    assert read_cmat(path)[1] == {key: str(value) for key, value in meta.items()}


def test_rng_spec_takes_numpy_integers():
    spec = RngSpec(np.uint64(7), np.int64(2))
    assert type(spec.master_seed) is int and type(spec.stream_id) is int
    assert spec == RngSpec(7, 2)
    a = RngSpec(np.uint64(7)).substream(np.int64(3), 0).standard_normal(4)
    assert np.array_equal(a, RngSpec(7).substream(3, 0).standard_normal(4))
    for ours, ref in zip(RngSpec(7).substreams(np.int64(3), trials=range(2)),
                         (RngSpec(7).substream(3, t) for t in range(2)), strict=True):
        assert np.array_equal(ours.standard_normal(4), ref.standard_normal(4))
    with pytest.raises(BadValue, match="master_seed must be an integer, got float"):
        RngSpec(7.0)
    with pytest.raises(BadValue, match="must be an integer, got float"):
        RngSpec(1).substream(3.0, 0)
    for bad in (-1, 2**64, np.int64(-1)):
        with pytest.raises(BadValue, match=r"master_seed must be in 0\.\.18446744073709551615, got"):
            RngSpec(bad)
        with pytest.raises(BadValue, match=r"entries must be in 0\.\.18446744073709551615, got"):
            RngSpec(1).substream(bad)
