"""Coherence statistics of measurement matrices and an empirical estimator of
the statistical orthogonality condition (StOC).

Definitions (natural logarithms everywhere):
  mu     = max_{i != j} |a_i^H a_j|                       (worst-case coherence)
  nu     = max_i |sum_{j != i} a_i^H a_j| / (p - 1)       (average coherence)
  mu_g   = max_{i != j} ||A_i^H A_j||_2                   (group worst-case)
  nu_g   = max_i ||sum_{j != i} A_i^H A_j||_2 / (q - 1)   (group average)

Every statistic is exact to rounding, through LAPACK: mu, mu_g and nu_g come
from one scan of A^H A in row slabs (memory bounded by one slab, never the p x p
Gram) with batched spectral norms of its r x r blocks; nu comes from A 1 in O(np).
nu_g sums block rows, sum_J A_I^H A_J - A_I^H A_I: bit for bit ||A_I^H (sum_J A_J - A_I)||_2
on dyadic frames (Kerdock, Bernoulli with n a power of 4), elsewhere to rounding (1e-15 relative).
"""

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import (MeasurementMatrix, RngSpec, _squared_column_norms, as_int, as_real,
                   hermitian_apply)
from .errors import (
    BadK, BadValue, CmatFormatError, DimensionMismatch, NoGroups, SingleColumn, ZeroZ,
)


@dataclass(frozen=True)
class CoherenceReport:
    """All coherence statistics of one matrix, plus the pairs attaining them.

    argmax_pair holds the 1-based columns attaining mu and argmax_group_pair
    the 1-based groups attaining mu_group. Ties go to the first pair in
    row-major order of the Gram matrix (of the q x q block norms for groups).
    Every statistic is exact to rounding, through LAPACK.
    """

    mu: float
    nu: float
    mu_group: float | None
    nu_group: float | None
    argmax_pair: tuple[int, int]
    argmax_group_pair: tuple[int, int] | None = None

    def __post_init__(self):
        for name in ("mu", "nu", "mu_group", "nu_group"):
            v = getattr(self, name)
            if v is not None and not np.isfinite(v):
                raise BadValue(f"coherence report has a non-finite {name}: {v!r}")
        # rounding slack: at p = 2, nu = mu in exact arithmetic but is another sum
        if not (0.0 <= self.nu <= self.mu + 1e-9 and self.mu <= 1.0 + 1e-9):
            raise BadValue(
                f"coherence ordering violated: nu={self.nu!r}, mu={self.mu!r}"
            )
        if (self.mu_group is None) != (self.nu_group is None):
            raise BadValue("a coherence report has both mu_group and nu_group or neither")

    def csv_rows(self) -> list[tuple]:
        """The rows under STAT_HEADER that `zerodetect coherence` writes."""
        rows = [("mu", self.mu, *self.argmax_pair), ("nu", self.nu, None, None)]
        if self.mu_group is not None:
            rows += [("mu_group", self.mu_group, *self.argmax_group_pair),
                     ("nu_group", self.nu_group, None, None)]
        return rows


STAT_HEADER = ("stat", "value", "arg_i", "arg_j")


def read_coherence_csv(path) -> CoherenceReport:
    """The report in a CSV that `zerodetect coherence` wrote (the inverse of
    CoherenceReport.csv_rows, which never repeats a row); stoc_* rows are skipped."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0].split(",")[0] != STAT_HEADER[0]:
        raise CmatFormatError("coherence report must start with a stat,value header")
    cells: dict[str, list[str]] = {}
    for name, *row in (line.split(",") for line in lines[1:]):
        if name in cells:
            raise CmatFormatError(f"coherence report repeats the {name!r} row")
        cells[name] = row

    def stat(name: str, paired: bool):
        # (value, argmax pair or None) of a row; (None, None) if a group row is absent
        if name not in cells:
            if not name.endswith("_group"):
                raise BadValue(f"coherence report lacks the {name!r} statistic")
            return None, None
        try:
            row = cells[name]
            return float(row[0]), (int(row[1]), int(row[2])) if paired else None
        except (IndexError, ValueError):
            raise CmatFormatError(f"malformed coherence report row {name!r}") from None

    (mu, pair), (nu, _) = stat("mu", True), stat("nu", False)
    (mu_g, group_pair), (nu_g, _) = stat("mu_group", True), stat("nu_group", False)
    return CoherenceReport(mu, nu, mu_g, nu_g, pair, group_pair)


@dataclass(frozen=True)
class StocEstimate:
    """Empirical violation rate of the orthogonality inequalities.

    Stores k, epsilon, the number of trials (uniformly random size-k
    supports), the violations among them and the probe's z_strategy.
    delta_hat = violations / trials is derived; it estimates the failure
    probability delta for the supplied probe vector z.
    """

    k: int
    epsilon: float
    trials: int
    violations: int
    z_strategy: str

    def __post_init__(self):
        as_int(self.k, "k", lo=1)
        as_real(self.epsilon, "epsilon", lo=0)
        as_int(self.violations, "violations", lo=0, hi=as_int(self.trials, "trials", lo=1))

    @property
    def delta_hat(self) -> float:
        return self.violations / self.trials

    def csv_rows(self) -> list[tuple]:
        """The stoc_* rows under STAT_HEADER that `stoc` and `coherence --stoc` write."""
        names = ("delta_hat", "violations", "trials", "k", "epsilon", "z_strategy")
        return [(f"stoc_{name}", getattr(self, name), None, None) for name in names]


Z_STRATEGIES = ("e1", "flat", "gaussian-seeded")


def stoc_probe(strategy: str, k: int, seed: int) -> np.ndarray:
    """The length-k (k >= 1) probe z named in Z_STRATEGIES: e1, the flat unit
    vector, or a complex Gaussian drawn from stream 1 of RngSpec(seed)."""
    k = as_int(k, "k", BadK, lo=1)
    if strategy == "e1":
        return np.eye(1, k, dtype=np.complex128)[0]
    if strategy == "flat":
        return np.full(k, 1.0 / np.sqrt(k), dtype=np.complex128)
    if strategy == "gaussian-seeded":
        parts = RngSpec(seed, stream_id=1).generator().standard_normal((2, k))
        return (parts[0] + 1j * parts[1]) / np.sqrt(2)
    raise BadValue(f"unknown z strategy {strategy!r} (choose from {Z_STRATEGIES})")


# Gram entries per slab: 16 MB of complex128, rounded to whole groups
_SLAB_ENTRIES = 1 << 20


def _first_max(values: np.ndarray, best: float, pair: tuple[int, int],
               row0: int) -> tuple[float, tuple[int, int]]:
    # row-major argmax of a slab whose first row is row0; a later slab takes
    # over only when strictly larger, so the first pair overall wins ties
    k = int(np.argmax(values))
    if values.flat[k] > best:
        i, j = divmod(k, values.shape[1])
        i += row0
        return float(values.flat[k]), (min(i, j) + 1, max(i, j) + 1)
    return best, pair


def _gram_scan(m: MeasurementMatrix, r: int | None = None):
    """(mu, pair, mu_g, nu_g, group_pair) from A^H A walked in row slabs of at most
    _SLAB_ENTRIES entries (or one group's rows), never the whole p x p Gram.

    A slab's (b, q, r, r) blocks A_I^H A_J give mu_g off the diagonal and nu_g as each
    row's sum less its diagonal block; without r those are None. Self-pairs are masked
    below zero, so a reported pair is two distinct columns (groups) when p >= 2 (q >= 2).
    """
    a, p = m.matrix, m.p
    step = r or 1
    rows = max(step, _SLAB_ENTRIES // p // step * step)
    mu, pair = -1.0, (1, 1)
    mu_g, nu_g, group_pair = -1.0, 0.0, (1, 2)
    for start in range(0, p, rows):
        g = a[:, start:start + rows].conj().T @ a
        h = g.shape[0]
        mag = np.abs(g)
        mag[np.arange(h), start + np.arange(h)] = -1.0
        mu, pair = _first_max(mag, mu, pair, start)
        if r is not None:
            b = h // r
            own = np.arange(b), start // r + np.arange(b)
            blocks = g.reshape(b, r, p // r, r).swapaxes(1, 2)
            rest = blocks.sum(axis=1) - blocks[own]
            nu_g = max(nu_g, float(np.linalg.norm(rest, ord=2, axis=(-2, -1)).max()))
            norms = np.linalg.norm(blocks, ord=2, axis=(-2, -1))
            norms[own] = -1.0
            mu_g, group_pair = _first_max(norms, mu_g, group_pair, start // r)
    if r is None:
        return max(mu, 0.0), pair, None, None, None
    return max(mu, 0.0), pair, mu_g, nu_g / (p // r - 1), group_pair


def worst_case_coherence(m: MeasurementMatrix) -> float:
    """Largest |a_i^H a_j| over distinct columns (0 for a single column)."""
    return _gram_scan(m)[0]


def coherence_argmax_pair(m: MeasurementMatrix) -> tuple[int, int]:
    """1-based column pair attaining mu, the first in row-major Gram order."""
    return _gram_scan(m)[1]


def average_coherence(m: MeasurementMatrix) -> float:
    """Largest off-diagonal Gram row sum modulus, normalized by p - 1."""
    if m.p < 2:
        raise SingleColumn("average coherence needs p >= 2")
    rowsum = hermitian_apply(m, m.matrix.sum(axis=1)) - _squared_column_norms(m.matrix)
    return float(np.abs(rowsum).max() / (m.p - 1))


class GroupCoherences(NamedTuple):
    mu_group: float
    nu_group: float
    argmax_pair: tuple[int, int]


def group_coherences(m: MeasurementMatrix) -> GroupCoherences:
    """Worst-case and average group coherence of a block-partitioned matrix."""
    if m.groups is None:
        raise NoGroups("matrix has no group partition")
    if m.groups.q < 2:
        raise NoGroups("group coherences need q >= 2")
    return GroupCoherences(*_gram_scan(m, m.groups.r)[2:])


def stoc_estimate(
    m: MeasurementMatrix,
    k: int,
    epsilon: float,
    z: np.ndarray,
    trials: int,
    rng: RngSpec,
    z_strategy: str = "custom",
) -> StocEstimate:
    """Estimate the orthogonality-violation probability for a fixed probe z.

    Each trial draws a uniform random permutation of the columns, takes the
    first k as the support block, and counts a violation when either
    ||(A_S^H A_S - I) z||_inf or ||A_{S^c}^H A_S z||_inf exceeds eps ||z||_2.
    Trial t permutes with substream (rng, t), so the count is independent of
    evaluation order: rng.substreams yields its generator, whose permutations
    are those of rng.substream(t).
    A^H u comes from hermitian_apply, which makes no copy of A^H. Needs
    1 <= k < p, a finite epsilon >= 0 and a finite nonzero z (see stoc_probe).
    """
    p, k = m.p, as_int(k, "k", BadK, lo=1, hi=m.p - 1)
    trials, epsilon = as_int(trials, "trials", lo=1), as_real(epsilon, "epsilon", lo=0)
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (k,):
        raise DimensionMismatch(f"z must have length k={k}, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise BadValue("probe vector z must be finite")
    z_norm = float(np.linalg.norm(z))
    if z_norm == 0.0:
        raise ZeroZ("probe vector z must be nonzero")

    a = m.matrix
    budget = epsilon * z_norm
    violations = 0
    for gen in rng.substreams(trials=range(trials)):
        perm = gen.permutation(p)
        head = perm[:k]
        u = a[:, head] @ z
        s = hermitian_apply(m, u)
        on_support = np.abs(s[head] - z).max()
        off_support = np.abs(s[perm[k:]]).max()
        if on_support > budget or off_support > budget:
            violations += 1
    return StocEstimate(k, epsilon, trials, violations, z_strategy)


def coherence_report(m: MeasurementMatrix) -> CoherenceReport:
    """Every coherence statistic of m; the group ones are None unless it has q >= 2 groups."""
    grouped = m.groups is not None and m.groups.q >= 2
    mu, pair, mu_g, nu_g, group_pair = _gram_scan(m, m.groups.r if grouped else None)
    return CoherenceReport(mu, average_coherence(m), mu_g, nu_g, pair, group_pair)
