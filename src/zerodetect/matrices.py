"""Measurement-matrix families: deterministic Kerdock frames and random Bernoulli.

The Kerdock frame with degree parameter m (odd) is the M x M^2 matrix,
M = 2^(m+1), whose rows are indexed by the Teichmuller set plus zero of
GR(4, m+1) and whose columns are indexed by the ring elements lambda; entry
(t, lambda) is i^Tr(lambda * t) / sqrt(M). Distinct columns are either
orthogonal or have inner-product modulus exactly 1/sqrt(M), which is the
worst-case coherence of the frame; the constructor verifies this exhaustively
and fails loudly if the enumeration ever produced duplicate columns.
"""

from dataclasses import dataclass

import numpy as np

from .coherence import worst_case_coherence
from .core import GroupPartition, MeasurementMatrix, RngSpec
from .errors import ConstructionError, IndivisibleGroupSize, InvalidSpec
from .galois import gr_mul, gr_trace, gr_xi, modulus_poly, teichmuller_set

_I_POWERS = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


@dataclass(frozen=True)
class KerdockSpec:
    """Degree parameter of a Kerdock frame; m odd gives an M x M^2 matrix."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1 or self.m % 2 == 0:
            raise InvalidSpec(f"Kerdock degree must be an odd positive integer, got {self.m}")

    @property
    def rows(self) -> int:
        return 2 ** (self.m + 1)

    @property
    def cols(self) -> int:
        return self.rows**2

    @property
    def ring_degree(self) -> int:
        # rows are indexed by the Teichmuller set (plus 0) of GR(4, m+1)
        return self.m + 1

    @property
    def coherence(self) -> float:
        return 1.0 / np.sqrt(self.rows)


def kerdock_codewords(spec: KerdockSpec) -> np.ndarray:
    """Z4 words underlying the frame: shape (M, M^2), entry Tr(lambda * t).

    Columns are ordered lexicographically by the coefficient vector of lambda
    (coefficient of 1 most significant); rows follow the Teichmuller order
    (0, 1, xi, xi^2, ...).
    """
    u = spec.ring_degree
    positions = teichmuller_set(u)
    basis = [gr_xi(u) ** j for j in range(u)]
    # trace is Z4-linear, so Tr(lambda t) = sum_j lambda_j Tr(xi^j t)
    tau = np.array(
        [[gr_trace(gr_mul(bj, t)) for t in positions] for bj in basis],
        dtype=np.int64,
    )  # (u, M)
    digits = np.indices((4,) * u).reshape(u, -1)  # lex order, first coeff slowest
    words = (digits.T @ tau) % 4  # (M^2, M)
    return words.T


def build_kerdock(spec: KerdockSpec) -> MeasurementMatrix:
    """Deterministic M x M^2 Kerdock frame with unit-modulus-scaled entries.

    All entries have modulus 1/sqrt(M) and the worst-case coherence is
    exactly 1/sqrt(M); both are enforced at construction time.
    """
    words = kerdock_codewords(spec)
    m = MeasurementMatrix(_I_POWERS[words] / np.sqrt(spec.rows))
    worst = worst_case_coherence(m)
    if worst > spec.coherence + 1e-8:
        raise ConstructionError(
            f"column enumeration produced overlapping columns: "
            f"max off-diagonal coherence {worst!r} exceeds {spec.coherence!r}"
        )
    return m


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
    if n < 1 or p < 1:
        raise InvalidSpec(f"need n, p >= 1, got n={n}, p={p}")
    gen = rng.generator()
    signs = 2.0 * gen.integers(0, 2, size=(n, p)) - 1.0
    return MeasurementMatrix(signs.astype(np.complex128) / np.sqrt(n))


def attach_groups(m: MeasurementMatrix, r: int) -> MeasurementMatrix:
    """Partition the columns into contiguous blocks of size r (entries unchanged)."""
    if r < 1 or m.p % r != 0:
        raise IndivisibleGroupSize(f"group size {r} does not divide p = {m.p}")
    return MeasurementMatrix(m.matrix, groups=GroupPartition(m.p // r, r))
