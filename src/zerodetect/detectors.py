"""Zero-detection by one-step thresholding, plus the top-k baselines.

All detectors correlate the measurements with every column (score vector
|a_i^H y|, or block norms ||A_i^H y||_2 in the group variant) and keep the
theta smallest scores; the baselines keep the largest. Columns are unit-norm
by the MeasurementMatrix invariant, so scores are never renormalized.

Selection is exact: with keys = scores (-scores for the largest) and v the theta-th
smallest key, ties go to the smaller index (0.0 ties with -0.0). Detectors rank a row
by a stable sort of the row, or of its keys <= v when longer than _SHORT_ROW; the batch
engine's mask is every key below v, then keys equal to v in index order, never a sort.
A matrix keeps A^H y of the last vector a detector ranked on it, keyed by that
vector's bytes, so detectors called in turn on one vector correlate it once.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    GroupPartition, MeasurementMatrix, SupportSet, adopted, as_int, hermitian_apply, locked,
)
from .errors import BadValue, DimensionMismatch, NoGroups, ThetaOutOfRange


@dataclass(frozen=True, eq=False)
class DetectionResult:
    """Selected index set plus the full score vector that produced it.

    Stores ranking (the selected 1-based indices, best first), the scores of
    every column or group (so reports can re-rank without re-running
    detection) and mode. theta = len(ranking) and estimate, the same set
    sorted by index, are derived; estimate is built on first use.
    """

    ranking: tuple[int, ...]
    scores: np.ndarray
    mode: str  # "element" | "group"

    def __post_init__(self):
        object.__setattr__(self, "scores", adopted(self.scores, np.float64))
        if self.mode not in ("element", "group"):
            raise BadValue(f"unknown detection mode {self.mode!r}")

    @property
    def theta(self) -> int:
        return len(self.ranking)

    @cached_property
    def estimate(self) -> SupportSet:
        return SupportSet.from_indices(self.ranking, len(self.scores))


# rule -> (scores are block norms ||A_i^H y||_2 rather than |a_i^H y|, keep the largest)
RULES = {"zd_ost": (False, False), "zd_groth": (True, False), "ost_topk": (False, True)}


def check_theta(rule: str, theta: int, m: MeasurementMatrix) -> int:
    """theta as an int in 1..p, or 1..q for a group rule, which needs groups."""
    grouped, _ = RULES[rule]
    if grouped and m.groups is None:
        raise NoGroups("group thresholding needs a group partition")
    return as_int(theta, "theta", ThetaOutOfRange, lo=1, hi=m.groups.q if grouped else m.p)


def select_mask(keys: np.ndarray, theta: int) -> np.ndarray:
    """Boolean mask of the theta smallest keys along the last axis: every key
    below the theta-th smallest value v, then keys equal to v in index order."""
    p = keys.shape[-1]
    if theta == 0 or theta >= p:
        return np.full(keys.shape, theta > 0)
    if theta == 1:  # argmin also takes the first of equal keys
        return np.arange(p) == keys.argmin(axis=-1)[..., np.newaxis]
    v = np.partition(keys, theta - 1, axis=-1)[..., theta - 1, np.newaxis]
    mask = keys <= v
    if np.count_nonzero(mask) == mask.size // p * theta:  # no row has surplus ties at v
        return mask
    below, at = keys < v, keys == v
    room = theta - np.count_nonzero(below, axis=-1)[..., np.newaxis]
    return below | (at & (np.cumsum(at, axis=-1) <= room))


# a whole-row sort took 4.4 us at 256 entries and 8.2 at 512, sorting the candidates 5.4
# and 6.0 (2-vCPU x86 host, numpy 2.4); longer rows sort only their candidates
_SHORT_ROW = 256


def select(scores: np.ndarray, theta: int, largest: bool = False) -> np.ndarray:
    """0-based positions of the theta smallest (or largest) entries of one score row,
    best first, equal scores by index: the first theta of a stable sort of the whole row.
    A row longer than _SHORT_ROW sorts only the candidates at or below the theta-th smallest key."""
    keys = -scores if largest else scores
    if len(keys) <= _SHORT_ROW:
        return keys.argsort(kind="stable")[:theta]
    picked = np.flatnonzero(keys <= np.partition(keys, theta - 1)[theta - 1])
    return picked[keys[picked].argsort(kind="stable")[:theta]]


def group_norms(s: np.ndarray, groups: GroupPartition) -> np.ndarray:
    """Block norms ||A_i^H y||_2 from correlations s of shape (..., p): the
    arithmetic of np.linalg.norm(..., axis=-1), without its dispatch."""
    blocks = s.reshape(*s.shape[:-1], groups.q, groups.r)
    return np.sqrt(np.add.reduce((blocks.conj() * blocks).real, axis=-1))


def scores_of(s: np.ndarray, m: MeasurementMatrix, grouped: bool) -> np.ndarray:
    """|s|, or the block norms when grouped, of correlations s (..., p); one max rejects
    finite measurements whose correlations or block norms overflow."""
    scores = group_norms(s, m.groups) if grouped else np.abs(s)
    if not math.isfinite(scores.max()):
        raise BadValue("scores overflow: measurements too large to rank")
    return scores


def _correlations(m: MeasurementMatrix, y: np.ndarray) -> np.ndarray:
    # hermitian_apply(m, y) of one complex128 vector, locked and kept on m with y's bytes
    # until another vector comes; one tuple store, so concurrent callers at worst recompute
    key = y.tobytes()
    last = m.__dict__.get("_last_correlation")
    if last is not None and last[0] == key:
        return last[1]
    s = locked(hermitian_apply(m, y))
    m.__dict__["_last_correlation"] = key, s
    return s


def _detect(rule: str, y, m: MeasurementMatrix, theta: int) -> DetectionResult:
    theta = check_theta(rule, theta, m)
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim != 1:
        raise DimensionMismatch(f"expected one measurement vector, got shape {y.shape}")
    grouped, largest = RULES[rule]
    scores = scores_of(_correlations(m, y), m, grouped)
    ranking = select(scores, theta, largest)
    return DetectionResult(tuple((ranking + 1).tolist()), locked(scores),
                           "group" if grouped else "element")


def zd_ost(y, m: MeasurementMatrix, theta: int) -> DetectionResult:
    """Keep the theta columns with the smallest correlation magnitudes."""
    return _detect("zd_ost", y, m, theta)


def zd_groth(y, m: MeasurementMatrix, theta: int) -> DetectionResult:
    """Keep the theta groups with the smallest block correlation norms."""
    return _detect("zd_groth", y, m, theta)


def ost_topk(y, m: MeasurementMatrix, theta: int) -> DetectionResult:
    """Baseline: keep the theta LARGEST correlation magnitudes (ties to low index)."""
    return _detect("ost_topk", y, m, theta)
