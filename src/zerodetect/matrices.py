"""Measurement-matrix families: deterministic Kerdock frames, random Bernoulli and CMAT
files, all made by build_frame.

The Kerdock frame with degree parameter m (odd) is the M x M^2 matrix,
M = 2^(m+1), built from the Galois ring GR(4, u), u = m + 1. Its rows are
indexed by t in (0, 1, xi, ..., xi^(M-2)), its columns by the ring elements
lambda, and entry (t, lambda) is i^Tr(lambda * t) / sqrt(M). The trace is
Z4-linear, so the whole Z4 word table follows from the u x M trace table
Tr(xi^j t), whose row j is one Z4 sequence s_e = Tr(xi^e) from e = j (galois.trace_sequence).
The table is uint8 in the frame's own (M, M^2) layout, grown from those rows
by one broadcast add per coefficient of lambda; uint8 arithmetic wraps mod
256, so every value stays exact mod 4. Every frame of a degree is made from its
one read-only trace table and Walsh plan, made once per process; the
MeasurementMatrix docstring says where the entries and the Walsh plan come from,
and when i^word / sqrt(M) fills the dense array.

Distinct columns are either orthogonal or have inner-product modulus exactly
1/sqrt(M), the worst-case coherence of the frame. The word table is the Z4
span of the trace rows, so it is Z4-linear in lambda by construction; then
every inner product depends only on the difference of its two columns'
lambdas, so the correlations of the column lambda = 0 give the exact
worst-case coherence, which build_kerdock checks against 1/sqrt(M) with the
table. A duplicated or overlapping column fails that check.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import (GroupPartition, MeasurementMatrix, RngSpec, _z4_span, as_int, hermitian_apply,
                   locked, read_cmat)
from .errors import BadValue, CmatFormatError, ConstructionError, IndivisibleGroupSize, InvalidSpec
from .galois import modulus_poly, trace_sequence


@dataclass(frozen=True)
class KerdockSpec:
    """Degree parameter of a Kerdock frame; m odd gives an M x M^2 matrix."""

    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", as_int(self.m, "Kerdock degree", InvalidSpec))
        if self.m < 1 or self.m % 2 == 0:
            raise InvalidSpec(f"Kerdock degree must be an odd positive integer, got {self.m}")

    @property
    def rows(self) -> int:
        return 2 ** (self.m + 1)

    @property
    def cols(self) -> int:
        return self.rows**2

    @property
    def ring_degree(self) -> int:
        # rows are indexed by 0 and the powers of xi in GR(4, m+1)
        return self.m + 1

    @property
    def coherence(self) -> float:
        return 1 / math.sqrt(self.rows)


def kerdock_traces(spec: KerdockSpec) -> np.ndarray:
    """The u x M trace table of the frame, uint8: entry (j, t) is Tr(xi^j * t), rows t = 0,
    1, xi, xi^2, ...; row j is the column of lambda = xi^j."""
    u, M = spec.ring_degree, spec.rows
    # Tr(xi^j * 0) = 0 and Tr(xi^j * xi^e) = s_{j+e}: row j is the sequence from s_j on
    s = np.array(trace_sequence(u, M + u - 2), dtype=np.uint8)
    tau = np.zeros((u, M), dtype=np.uint8)
    for j in range(u):
        tau[j, 1:] = s[j : j + M - 1]
    return tau


def kerdock_codewords(spec: KerdockSpec) -> np.ndarray:
    """Z4 words of the frame, laid out as it: C-contiguous uint8 (M, M^2), entry Tr(lambda * t).

    Columns are ordered lexicographically by the coefficient vector of lambda
    in the basis (1, xi, ..., xi^(u-1)), coefficient of 1 most significant;
    rows follow t = 0, 1, xi, xi^2, ....
    """
    # trace is Z4-linear, so Tr(lambda t) = sum_j lambda_j Tr(xi^j t)
    return _z4_span(kerdock_traces(spec))


@cache
def _kerdock_tables(spec: KerdockSpec):
    # the locked trace table and its Walsh plan, made and checked once; a failure is not stored
    tau = locked(kerdock_traces(spec))
    m = MeasurementMatrix._over_traces(tau)
    # under linearity a_lambda^H a_lambda' depends only on lambda' - lambda, so the
    # correlations of column lambda = 0, every entry 1/sqrt(M), hold every off-diagonal modulus
    row = hermitian_apply(m, np.full(spec.rows, spec.coherence, dtype=np.complex128))
    worst = float(np.abs(row)[1:].max())
    if worst > spec.coherence + 1e-8:
        raise ConstructionError(
            f"column enumeration produced overlapping columns: "
            f"max off-diagonal coherence {worst!r} exceeds {spec.coherence!r}"
        )
    return tau, m._walsh_plan


def build_kerdock(spec: KerdockSpec) -> MeasurementMatrix:
    """Deterministic M x M^2 Kerdock frame with unit-modulus-scaled entries.

    All entries have modulus 1/sqrt(M) and the worst-case coherence is exactly
    1/sqrt(M); the coherence is checked once per degree and process, the entries when
    first read. Each frame is new, with slots of its own (its dense array waits for
    .matrix), over the degree's one read-only trace table and Walsh plan.
    """
    tau, plan = _kerdock_tables(spec)
    return MeasurementMatrix._over_traces(tau, _walsh_plan=plan)


def kerdock_meta(spec: KerdockSpec) -> dict[str, str]:
    """Reproducibility metadata recorded in matrix file headers."""
    poly = ",".join(str(c) for c in modulus_poly(spec.ring_degree))
    return {
        "family": "kerdock",
        "m": str(spec.m),
        "rows": str(spec.rows),
        "cols": str(spec.cols),
        "ring_degree": str(spec.ring_degree),
        "poly_z4": poly,
    }


def build_bernoulli(n: int, p: int, rng: RngSpec) -> MeasurementMatrix:
    """Random matrix with i.i.d. +-1/sqrt(n) entries (columns exactly unit norm).

    Entries come from a single counter-based stream keyed by the RngSpec, so
    the matrix is a pure function of (masterSeed, streamId).
    """
    n, p = as_int(n, "rows", InvalidSpec, lo=1), as_int(p, "cols", InvalidSpec, lo=1)
    gen = rng.generator()
    signs = 2.0 * gen.integers(0, 2, size=(n, p)) - 1.0
    return MeasurementMatrix(locked(signs.astype(np.complex128) / np.sqrt(n)))


def attach_groups(m: MeasurementMatrix, r: int) -> MeasurementMatrix:
    """Partition the columns into contiguous blocks of size r: a shallow copy of
    the validated m, so no second norm scan, the same entries slot
    (MeasurementMatrix) and any Walsh plan m has already found.
    """
    r = as_int(r, "group size", IndivisibleGroupSize)
    if r < 1 or m.p % r != 0:
        raise IndivisibleGroupSize(f"group size {r} does not divide p = {m.p}")
    grouped = object.__new__(type(m))
    grouped.__dict__.update(m.__dict__, groups=GroupPartition(m.p // r, r))
    return grouped


FAMILIES = ("kerdock", "bernoulli", "file")


def build_frame(family: str, m: int | None = None, rows: int | None = None,
                cols: int | None = None, seed: int = 0, group_size: int | None = None,
                matrix_file=None):
    """(frame, meta): the Kerdock frame of degree m, the rows x cols Bernoulli frame of
    RngSpec(seed), or the matrix of the CMAT file matrix_file, with its CMAT header meta; in
    groups of group_size if given, else of a file's group_size meta value if any, which meta
    then records. m goes only with kerdock, rows and cols only with bernoulli, which needs
    both, and a matrix file only with file, which needs one."""
    if family not in FAMILIES:
        raise InvalidSpec(f"unknown frame family {family!r}")
    if family == "bernoulli":
        if rows is None or cols is None:
            raise BadValue("the bernoulli family needs rows and cols")
    elif rows is not None or cols is not None:
        raise BadValue("rows and cols apply only to the bernoulli family")
    if m is not None and family != "kerdock":
        raise BadValue("m applies only to the kerdock family")
    if family == "file" and matrix_file is None:
        raise BadValue("file family needs matrix_file")
    if family != "file" and matrix_file is not None:
        raise BadValue("a matrix file applies only to the file family")
    if family == "kerdock":
        spec = KerdockSpec(m)
        frame, meta = build_kerdock(spec), kerdock_meta(spec)
    elif family == "bernoulli":
        frame = build_bernoulli(rows, cols, RngSpec(seed))
        meta = {"family": "bernoulli", "rows": str(rows), "cols": str(cols), "seed": str(seed)}
    else:
        entries, meta = read_cmat(matrix_file)
        frame = MeasurementMatrix(locked(entries))
        if group_size is None and "group_size" in meta:
            try:
                group_size = int(meta["group_size"])
            except ValueError as exc:
                raise CmatFormatError(f"bad group_size meta value {meta['group_size']!r}") from exc
    if group_size is not None:
        frame = attach_groups(frame, group_size)
        meta["group_size"] = str(group_size)
    return frame, meta


def load_matrix(path, group_size: int | None = None) -> MeasurementMatrix:
    """A CMAT file's matrix in groups of group_size, else of its group_size meta value if any."""
    return build_frame("file", group_size=group_size, matrix_file=path)[0]
