"""Kerdock and Bernoulli constructions, and group attachment."""

import hashlib
import pickle
from unittest import mock

import numpy as np
import pytest

from zerodetect import core, matrices
from zerodetect.core import RngSpec, read_cmat, write_cmat
from zerodetect.detectors import ost_topk, zd_groth, zd_ost
from zerodetect.errors import (
    BadValue, CmatFormatError, ConstructionError, IndivisibleGroupSize, InvalidSpec,
)
from zerodetect.experiments import ExperimentConfig, build_matrix
from zerodetect.matrices import (
    KerdockSpec,
    attach_groups,
    build_bernoulli,
    build_frame,
    build_kerdock,
    kerdock_meta,
    load_matrix,
)


@pytest.fixture(scope="module")
def kerdock16():
    return build_kerdock(KerdockSpec(3))


def test_kerdock_spec_validation():
    with pytest.raises(InvalidSpec):
        KerdockSpec(2)
    with pytest.raises(InvalidSpec):
        KerdockSpec(0)
    with pytest.raises(InvalidSpec):
        KerdockSpec(-3)
    spec = KerdockSpec(3)
    assert (spec.rows, spec.cols) == (16, 256)


def test_kerdock_spec_takes_numpy_integers():
    spec = KerdockSpec(np.int64(3))
    assert type(spec.m) is int and spec == KerdockSpec(3)
    assert (spec.rows, spec.cols) == (16, 256)
    with pytest.raises(InvalidSpec, match="must be an integer, got float 3.0"):
        KerdockSpec(3.0)
    with pytest.raises(InvalidSpec, match="must be an integer, got bool True"):
        KerdockSpec(True)  # an int to Python, which would build the m = 1 frame
    with pytest.raises(InvalidSpec, match="odd positive"):
        KerdockSpec(np.int64(4))


def test_kerdock_dimensions_and_entry_modulus(kerdock16):
    a = kerdock16.matrix
    assert a.shape == (16, 256)
    assert np.abs(np.abs(a) - 0.25).max() < 1e-15


def test_kerdock_columns_unit_norm(kerdock16):
    norms = np.linalg.norm(kerdock16.matrix, axis=0)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_kerdock_worst_case_coherence_exhaustive(kerdock16):
    # exhaustive pairwise oracle over all 256*255/2 pairs
    a = kerdock16.matrix
    g = np.abs(a.conj().T @ a)
    np.fill_diagonal(g, 0.0)
    assert abs(g.max() - 0.25) < 1e-10


def test_kerdock_linear_duplicate_is_rejected():
    # a word table built from traces with a repeated row is still Z4-linear,
    # but lambda = xi^0 - xi^1 gives the zero word, a copy of column 0; its
    # residues repeat, so it has no Walsh plan: the check fills the frame and reads its dense row;
    # the tables are cached per degree: the cache is cleared so that the bad table is built
    tau = matrices.kerdock_traces(KerdockSpec(3))
    tau[1] = tau[0]
    matrices._kerdock_tables.cache_clear()
    try:
        with mock.patch.object(matrices, "kerdock_traces", return_value=tau):
            with pytest.raises(ConstructionError, match=r"overlapping columns: max off-diagonal coherence 1\.0 exceeds 0\.25$"):
                build_kerdock(KerdockSpec(3))
        # the failed table was never stored: a clean build makes and checks the true one
        built = build_kerdock(KerdockSpec(3))
        assert np.array_equal(built._frame[1], matrices.kerdock_traces(KerdockSpec(3)))
    finally:
        matrices._kerdock_tables.cache_clear()


# SHA-256 of the Z4 word tables (as C-ordered int64) and of the frame entries
# (C-ordered complex128), frozen from GR(4, m+1) element arithmetic
KERDOCK_DIGESTS = {
    1: ("504dfa7d3d82d0e3cdebd0d8264fbcf3a5d06d0a97552756a75fc97627cded33",
        "a7b92b65f10f7226d6c32c39c70b52f10effee199fd6d56d3ca5b5ff854599f5"),
    3: ("dd7481175e222a24ce6bb66e4d9e2b5285211ebd694882d702130222245b1077",
        "a01c3f42b7039132286b2f3568f5e6ad6f8910f8742db4eef65ccf9b31819a4d"),
    5: ("8551ec1f9cb5c14392fb5e6875c8d3aa3314866700ec3048f763c7a0df822762",
        "fcf575dcc3f5bb05b2a563d005b5b46f9339db199ab147d61413dfd16a9593c3"),
    # m = 7 was frozen from the trace recurrence's int64 word table
    7: ("24a58d59d48b9c897f2d10e9b88f75c67e047e3830b51c528021aceed3bc65db",
        "620852a2d49778f51f0f295938962060a91cb62f6fe69ab7dc98ffaa347d4004"),
}


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("m", sorted(KERDOCK_DIGESTS))
def test_kerdock_golden_digests(m):
    words_digest, matrix_digest = KERDOCK_DIGESTS[m]
    assert _sha256(matrices.kerdock_codewords(KerdockSpec(m)).astype(np.int64)) == words_digest
    mat = build_kerdock(KerdockSpec(m)).matrix
    assert mat.dtype == np.complex128
    assert _sha256(mat) == matrix_digest


@pytest.mark.parametrize("m", [1, 3, 5])
def test_kerdock_frame_assembled_in_ragged_slabs(m):
    # three rows per slab: M = 4, 16 and 64 rows leave a last slab of one row
    spec = KerdockSpec(m)
    expected = (core._I_POWERS / np.sqrt(spec.rows))[matrices.kerdock_codewords(spec)]
    with mock.patch.object(core, "_SLAB_ENTRIES", 3 * spec.cols + 1), \
            mock.patch.object(core.np, "take", wraps=np.take) as take:
        mat = build_kerdock(spec).matrix
    assert take.call_count == -(-spec.rows // 3)
    assert np.array_equal(mat.view(np.uint64), expected.view(np.uint64))


def test_kerdock_detection_never_fills_the_dense_frame():
    # the plan comes from the trace table, so building, grouping and detecting make no
    # dense array; the first read of .matrix fills it once, for the grouped frame too
    spec = KerdockSpec(5)
    y = np.exp(0.5j * np.arange(spec.rows)) * (1 + np.arange(spec.rows) % 5)
    with mock.patch.object(core, "_kerdock_entries", wraps=core._kerdock_entries) as fill, \
            mock.patch.object(core, "_squared_column_norms",
                              wraps=core._squared_column_norms) as scan:
        built = build_kerdock(spec)
        grouped = attach_groups(built, 64)
        zd_ost(y, grouped, 16)
        zd_groth(y, grouped, 4)
        ost_topk(y, built, 16)
        assert fill.call_count == 0 and scan.call_count == 0
        assert grouped.matrix is built.matrix
        assert fill.call_count == 1 and scan.call_count == 0
    assert _sha256(built.matrix) == KERDOCK_DIGESTS[5][1]


def test_a_pickled_built_frame_carries_its_trace_table_and_plan_not_its_array():
    grouped = attach_groups(build_kerdock(KerdockSpec(5)), 64)
    copy = pickle.loads(pickle.dumps(grouped))
    assert copy._frame[0] is None and "_walsh_plan" in copy.__dict__
    ys = np.random.default_rng(34).standard_normal((3, grouped.n, 2)) @ [1, 1j]
    for y in (ys, *ys):
        assert np.array_equal(core.hermitian_apply(copy, y).view(np.uint64),
                              core.hermitian_apply(grouped, y).view(np.uint64))
    assert copy._frame[0] is None
    assert copy.groups == grouped.groups
    assert copy.matrix.tobytes() == grouped.matrix.tobytes()


def test_a_frame_grouped_before_its_first_correlation_has_the_plan_of_its_base():
    base = core.MeasurementMatrix.from_traces(matrices.kerdock_traces(KerdockSpec(3)))
    grouped = attach_groups(base, 8)
    plan = grouped._walsh_plan
    assert plan is not None
    assert all(a.dtype == b.dtype and np.array_equal(a, b)
               for a, b in zip(plan, base._walsh_plan, strict=True))


def test_kerdock_builds_of_one_degree_share_a_locked_table_and_plan_not_a_slot():
    first, second = build_kerdock(KerdockSpec(3)), build_kerdock(KerdockSpec(3))
    assert first is not second and first._frame is not second._frame
    assert first._frame[1] is second._frame[1]
    assert all(a is b for a, b in zip(first._walsh_plan, second._walsh_plan, strict=True))
    with pytest.raises(ValueError, match="read-only"):
        first._frame[1][0, 0] = 1
    first.matrix
    zd_ost(np.ones(first.n), first, 4)
    assert second._frame[0] is None and "_last_correlation" not in second.__dict__
    # the cache holds the table and the plan, no dense array or kept correlation
    tau, plan = matrices._kerdock_tables(KerdockSpec(3))
    assert tau is first._frame[1] and plan is first._walsh_plan
    assert max(a.size for a in (tau, *plan)) < first.n * first.p
    assert _sha256(second.matrix) == KERDOCK_DIGESTS[3][1]


def test_kerdock_repr_does_not_fill_the_dense_frame():
    built = build_kerdock(KerdockSpec(3))
    assert repr(built) == "MeasurementMatrix(groups=None, n=16, p=256)"
    assert built._frame[0] is None


@pytest.mark.parametrize("shape", [(3, 8), (2, 8), (4, 4), (16,), (0, 1)])
def test_from_traces_rejects_a_table_of_the_wrong_shape(shape):
    with pytest.raises(BadValue, match="u x 2\\^u trace table with u even"):
        core.MeasurementMatrix.from_traces(np.zeros(shape, dtype=np.uint8))


@pytest.mark.parametrize("tau", [np.full((2, 4), 1.5), np.ones((2, 4)), np.ones((2, 4), bool)],
                         ids=["float", "integral-float", "bool"])
def test_from_traces_rejects_a_table_of_non_integers(tau):
    with pytest.raises(BadValue, match="a trace table holds integers"):
        core.MeasurementMatrix.from_traces(tau)


def test_from_traces_takes_integer_entries_mod_4():
    got = core.MeasurementMatrix.from_traces([[0, -1, 2, 3], [0, 3, 1, 1]])
    want = core.MeasurementMatrix.from_traces(np.array([[0, 3, 2, 3], [0, 3, 1, 1]], np.uint8))
    assert np.array_equal(got.matrix.view(np.uint64), want.matrix.view(np.uint64))


def test_kerdock_codewords_are_uint8_in_frame_layout():
    words = matrices.kerdock_codewords(KerdockSpec(3))
    assert words.dtype == np.uint8 and words.flags.c_contiguous
    assert words.shape == (16, 256)


def test_kerdock_m7_is_buildable():
    mat = build_kerdock(KerdockSpec(7)).matrix
    assert mat.shape == (256, 65536)
    assert np.all(mat[:, 0] == 1.0 / 16.0)  # lambda = 0: the constant column


@pytest.mark.parametrize("m", [1, 3])
def test_kerdock_inner_products_two_valued(m):
    # every off-diagonal inner product has modulus 0 or 1/sqrt(M)
    mat = build_kerdock(KerdockSpec(m)).matrix
    target = 1.0 / np.sqrt(mat.shape[0])
    g = np.abs(mat.conj().T @ mat)
    np.fill_diagonal(g, -1.0)
    off = g[g >= 0.0]
    near_zero = off < 1e-10
    near_target = np.abs(off - target) < 1e-10
    assert np.all(near_zero | near_target)
    assert near_target.any()  # the worst case is attained


def test_kerdock_deterministic(kerdock16):
    again = build_kerdock(KerdockSpec(3))
    assert np.array_equal(kerdock16.matrix, again.matrix)


def test_kerdock_meta_records_polynomial():
    meta = kerdock_meta(KerdockSpec(3))
    assert meta["rows"] == "16" and meta["cols"] == "256"
    assert meta["poly_z4"] == "1,3,2,0,1"  # x^4 + 2x^2 + 3x + 1, ascending


def test_bernoulli_single_entry():
    m = build_bernoulli(1, 1, RngSpec(0))
    assert m.matrix[0, 0] in (1.0 + 0j, -1.0 + 0j)


def test_bernoulli_entries_and_norms():
    m = build_bernoulli(16, 256, RngSpec(5))
    a = m.matrix
    assert np.all(np.isin(a.real, (0.25, -0.25)))
    assert np.all(a.imag == 0.0)
    assert np.abs(np.linalg.norm(a, axis=0) - 1.0).max() < 1e-12


def test_bernoulli_empirical_mean():
    # law of large numbers over 10^6 entries
    m = build_bernoulli(100, 10_000, RngSpec(6))
    scaled = m.matrix.real * np.sqrt(100)  # back to +-1
    assert abs(scaled.mean()) < 3e-3


def test_bernoulli_reproducible_and_stream_dependent():
    a = build_bernoulli(8, 32, RngSpec(7, 1)).matrix
    b = build_bernoulli(8, 32, RngSpec(7, 1)).matrix
    c = build_bernoulli(8, 32, RngSpec(7, 2)).matrix
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bernoulli_rejects_bad_shape():
    with pytest.raises(InvalidSpec):
        build_bernoulli(0, 4, RngSpec(0))
    with pytest.raises(InvalidSpec, match="^cols must be >= 1, got -4$"):
        build_bernoulli(8, -4, RngSpec(0))
    with pytest.raises(InvalidSpec, match="rows must be an integer, got float"):
        build_bernoulli(8.0, 32, RngSpec(0))
    with pytest.raises(InvalidSpec, match="cols must be an integer, got str"):
        build_bernoulli(8, "32", RngSpec(0))


def test_build_frame_rules(tmp_path):
    frame, meta = build_frame("bernoulli", rows=8, cols=32, seed=7, group_size=4)
    assert np.array_equal(frame.matrix, build_bernoulli(8, 32, RngSpec(7)).matrix)
    assert (frame.groups.q, frame.groups.r) == (8, 4)
    assert meta == {"family": "bernoulli", "rows": "8", "cols": "32", "seed": "7",
                    "group_size": "4"}
    frame, meta = build_frame("kerdock", 3)
    assert frame.groups is None and meta == kerdock_meta(KerdockSpec(3))
    with pytest.raises(BadValue, match="bernoulli family needs rows and cols"):
        build_frame("bernoulli", rows=8)
    with pytest.raises(InvalidSpec):
        build_frame("kerdock", None)
    with pytest.raises(InvalidSpec, match="unknown frame family"):
        build_frame("gaussian", rows=8, cols=32)
    with pytest.raises(IndivisibleGroupSize):
        build_frame("bernoulli", rows=8, cols=32, group_size=5)
    # a file: the bytes and groups load_matrix gives, and the meta read_cmat gives
    path = tmp_path / "b.cmat"
    built, meta = build_frame("bernoulli", rows=8, cols=32, seed=7, group_size=4)
    write_cmat(path, built, meta)
    frame, read = build_frame("file", matrix_file=path)
    loaded = load_matrix(path)
    assert frame.matrix.tobytes() == loaded.matrix.tobytes() == built.matrix.tobytes()
    assert frame.groups == loaded.groups == built.groups
    assert read == read_cmat(path)[1] == meta
    # a group size given wins over the file's meta, and the meta records it
    frame, read = build_frame("file", group_size=8, matrix_file=path)
    assert (frame.groups.q, frame.groups.r) == (4, 8) and read["group_size"] == "8"
    assert load_matrix(path, 8).groups == frame.groups
    bad = tmp_path / "bad.cmat"
    bad.write_text("2 2\n# meta: group_size=two\n1+0j 0+0j\n0+0j 1+0j\n")
    with pytest.raises(CmatFormatError, match="bad group_size meta value 'two'"):
        build_frame("file", matrix_file=bad)
    with pytest.raises(BadValue, match="file family needs matrix_file"):
        build_frame("file")
    with pytest.raises(BadValue, match="file family needs matrix_file"):
        build_matrix(ExperimentConfig(matrix_family="file"))
    with pytest.raises(BadValue, match="m applies only to the kerdock family"):
        build_frame("file", 3, matrix_file=path)
    for rows, cols in ((8, None), (None, 32), (8, 32)):
        with pytest.raises(BadValue, match="rows and cols apply only to the bernoulli family"):
            build_frame("file", rows=rows, cols=cols, matrix_file=path)


def test_kerdock_frames_take_no_rows_or_cols():
    # one rule for both entry points: a config's rows or cols never fall silently away
    for rows, cols in ((8, None), (None, 32), (8, 32)):
        with pytest.raises(BadValue, match="rows and cols apply only to the bernoulli family"):
            build_frame("kerdock", 3, rows, cols)
        config = ExperimentConfig(matrix_family="kerdock", rows=rows, cols=cols, matrix_seed=5)
        with pytest.raises(BadValue, match="rows and cols apply only to the bernoulli family"):
            build_matrix(config)


def test_file_frames_take_no_rows_or_cols(tmp_path):
    # the file sets the shape; rows or cols beside it would fall silently away
    path = tmp_path / "b.cmat"
    write_cmat(path, build_bernoulli(16, 64, RngSpec(3)))
    for rows, cols in ((8, None), (None, 32), (16, 64)):
        config = ExperimentConfig(matrix_family="file", matrix_file=str(path), rows=rows, cols=cols)
        with pytest.raises(BadValue, match="rows and cols apply only to the bernoulli family"):
            build_matrix(config)
    assert build_matrix(ExperimentConfig(matrix_family="file", matrix_file=str(path))).p == 64


def test_attach_groups_kerdock(kerdock16):
    grouped = attach_groups(kerdock16, 8)
    assert grouped.groups.q == 32 and grouped.groups.r == 8
    assert np.array_equal(grouped.matrix, kerdock16.matrix)  # entries untouched


def test_attach_groups_whole_matrix(kerdock16):
    grouped = attach_groups(kerdock16, 256)
    assert grouped.groups.q == 1


def test_attach_groups_indivisible(kerdock16):
    with pytest.raises(IndivisibleGroupSize):
        attach_groups(kerdock16, 3)


@pytest.mark.parametrize("r", [0, 2.5, 8.0, np.float64(8.0), "8", None],
                         ids=["0", "2.5", "8.0", "float64", "'8'", "None"])
def test_attach_groups_rejects_sizes_that_are_not_positive_integers(kerdock16, r):
    with pytest.raises(IndivisibleGroupSize):
        attach_groups(kerdock16, r)


def test_attach_groups_takes_numpy_integers(kerdock16):
    groups = attach_groups(kerdock16, np.int64(8)).groups
    assert type(groups.q) is int and type(groups.r) is int and (groups.q, groups.r) == (32, 8)
