"""Core types and operations shared by every other module.

Conventions: indices in user-facing structures are 1-based, matrices are
dense row-major complex128, and all randomness flows through RngSpec
(counter-based Philox streams, so equal seeds give bit-identical draws).
All types here are immutable after construction and safe to share across
concurrent tasks; the operations are pure functions. The MeasurementMatrix
docstring says where a frame's entries and its Walsh plan come from.
"""

import math
import operator
import re
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .errors import (
    BadValue,
    CmatFormatError,
    DimensionMismatch,
    ZeroColumn,
)

UNIT_NORM_TOL = 1e-10
ZERO_COLUMN_TOL = 1e-14
_I_POWERS = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])
_Z4 = np.arange(4, dtype=np.uint8)
_SLAB_ENTRIES = 2**15  # per np.take: an intp copy of 256 KB (one row if rows are longer)


def locked(a: np.ndarray) -> np.ndarray:
    """Mark a fresh array read-only and return it; its owner writes it no more."""
    a.setflags(write=False)
    return a


def adopted(a, dtype) -> np.ndarray:
    """a itself if it is a locked, C-contiguous dtype ndarray that owns its memory (base None),
    else a locked copy: the caller's own arrays are never locked."""
    if not (type(a) is np.ndarray and a.dtype == dtype and a.base is None
            and a.flags.c_contiguous and not a.flags.writeable):
        a = locked(np.array(a, dtype=dtype, order="C"))
    return a


def as_int(value, what: str, error: type[ValueError] = BadValue, lo: int | None = None,
           hi: int | None = None) -> int:
    """Any integer (numpy's too) but a bool in lo..hi as an int, where None leaves that end open.
    Anything else raises error: "<what> must be an integer, got <type> <value>", or "<what> must be
    >= lo" (or "<= hi", or "in lo..hi") followed by ", got <value>"."""
    try:
        if isinstance(value, bool):  # an int to index(), though numpy's bools are not
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {type(value).__name__} {value!r}") from None
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        rule = f"<= {hi}" if lo is None else f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise error(f"{what} must be {rule}, got {value}")
    return value


def as_real(value, what: str, error: type[ValueError] = BadValue, lo: float | None = None,
            hi: float | None = None, open: bool = False) -> float:
    """Any finite real number (numpy's too) in [lo, hi] as a float, or in (lo, hi) when open,
    where None leaves that end unbounded. Anything else raises error: "<what> must be finite,
    got <value>" for NaN, +-inf or a non-number, or "<what> must be >= lo" (or "> lo", "<= hi",
    "< hi", "in [lo, hi]", "in (lo, hi)") followed by ", got <value>"."""
    try:
        finite = math.isfinite(value)
    except TypeError:
        finite = False
    if not finite:
        raise error(f"{what} must be finite, got {value!r}")
    if (lo is not None and (value <= lo if open else value < lo)) or (
            hi is not None and (value >= hi if open else value > hi)):
        eq, (a, b) = ("", "()") if open else ("=", "[]")
        rule = (f"<{eq} {hi}" if lo is None else f">{eq} {lo}" if hi is None
                else f"in {a}{lo}, {hi}{b}")
        raise error(f"{what} must be {rule}, got {float(value)!r}")
    return float(value)


@dataclass(frozen=True)
class GroupPartition:
    """Contiguous equal-size blocks: group i (1-based) covers columns (i-1)r+1 .. ir."""

    q: int
    r: int

    def __post_init__(self):
        object.__setattr__(self, "q", as_int(self.q, "group count", lo=1))
        object.__setattr__(self, "r", as_int(self.r, "group size", lo=1))

    @property
    def p(self) -> int:
        return self.q * self.r

    def block(self, group_index: int) -> slice:
        """Column slice (0-based) of the given 1-based group index."""
        i = as_int(group_index, "group index", lo=1, hi=self.q)
        return slice((i - 1) * self.r, i * self.r)

    def group_of_column(self, column: int) -> int:
        """1-based group index of a 1-based column index."""
        return (as_int(column, "column", lo=1, hi=self.p) - 1) // self.r + 1


def _squared_column_norms(a: np.ndarray) -> np.ndarray:
    v = a.view(np.float64)  # sum_i |a_ij|^2 from the (re, im) pairs: no full-size temporary
    return np.einsum("ij,ij->j", v, v).reshape(-1, 2).sum(axis=1)


def _unit_columns(a) -> np.ndarray:
    # a adopted as complex128 (see adopted), else BadValue unless 2-D, n, p >= 1, unit columns
    a = adopted(a, np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise BadValue(f"expected a 2-D matrix with n, p >= 1, got shape {a.shape}")
    norms = np.sqrt(_squared_column_norms(a))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))  # NaN, inf fail
    if bad.size:
        if not np.isfinite(a).all():
            raise BadValue("matrix entries must be finite")
        j = int(bad[0])
        raise BadValue(
            f"column {j + 1} has norm {float(norms[j])!r}, not unit within {UNIT_NORM_TOL}"
        )
    return a


@cache
def _walsh_tables(u: int):
    # of u alone, for plans of frames of u x n tables (from_traces): place values w, -n bits (u, n)
    # as float64, F, F / sqrt(n), places sum_j w_j ((d_j >> 1) n + (d_j & 1)) over c's base-4 d_j
    n, h, weights = 1 << u, u // 2, 1 << np.arange(u - 1, -1, -1)
    bits = np.arange(n) // weights[:, np.newaxis] & 1  # (u, n): column alpha is alpha's bits
    had = (-1.0) ** (bits[h:, : 1 << h].T @ bits[h:, : 1 << h])
    places = np.zeros(1, dtype=np.int64)
    for step in weights[:, np.newaxis] * [0, 1, n, n + 1]:
        places = (places[:, np.newaxis] + step).reshape(-1)
    return tuple(map(locked, (weights, bits * -float(n), had, had / (1 << h), places)))


def _z4_plan(tau: np.ndarray):
    # (gather, F, F / sqrt(n), places) of the frame of the (u, n) integer table tau (n = 2^u, u
    # even), None if residues tau(t) mod 2 repeat; words by one float64 gemm, exact: |sum| <= 3nu
    u, n = tau.shape
    weights, neg_bits, *transform = _walsh_tables(u)
    rows = np.argsort(residues := weights @ (tau & 1))
    if not (residues[rows] == np.arange(n)).all():
        return None
    words = (tau[:, rows].T @ neg_bits).astype(np.int64) & 3 * n
    return locked(np.add(words, rows[:, np.newaxis], out=words)), *transform


def _z4_span(tau: np.ndarray) -> np.ndarray:
    # (n, 4^u) table of sum_j lambda_j tau_j mod 4 over every lambda of the (u, n) table tau,
    # first coefficient slowest: grown from the last one, a broadcast add per row
    span = np.zeros((tau.shape[1], 1), dtype=tau.dtype)
    for row in tau[::-1]:
        span = (row[:, None, None] * _Z4[:, None] + span[:, None, :]).reshape(len(row), -1)
    span &= 3
    return span


def _kerdock_slabs(tau: np.ndarray):
    # words, table, step: rows t.. of the frame of the (u, n) table tau (from_traces) are
    # np.take(table, words[t : t + step]), slabs of _SLAB_ENTRIES (one row if rows are longer)
    words = _z4_span(tau)
    return words, _I_POWERS / np.sqrt(len(words)), max(1, _SLAB_ENTRIES // words.shape[1])


def _kerdock_entries(tau: np.ndarray) -> np.ndarray:
    words, table, step = _kerdock_slabs(tau)  # words lie in 0..3 (_z4_span's & 3): never clips
    a = np.empty(words.shape, dtype=np.complex128)
    for t in range(0, len(words), step):
        np.take(table, words[t : t + step], out=a[t : t + step], mode="clip")
    return locked(a)


@dataclass(frozen=True, eq=False, init=False)
class MeasurementMatrix:
    """Complex n x p matrix with unit-norm columns, optionally block-partitioned.

    The entries live in one slot, _frame = [array or None, tau or None], which shallow
    copies (matrices.attach_groups) share. The constructor writes [checked array, None]: it
    checks every column norm of the array it is given; a locked, C-contiguous complex128
    ndarray that owns its memory is adopted as it is, any other input is copied
    (core.adopted). from_traces writes [None, tau], and the first read of .matrix fills slot
    0 from tau, unscanned: every entry is a power of i over sqrt(n), so every column norm is
    exactly 1.0. Two threads may both fill it, with equal arrays. tau is locked: the frames
    of matrices.build_kerdock share one tau and one plan per degree, each frame in a slot of
    its own. The Walsh plan (_walsh_plan) comes from tau when the slot holds it, and is
    otherwise recognised from the array on the first correlation.
    """

    groups: GroupPartition | None
    n: int
    p: int

    def __init__(self, matrix, groups: GroupPartition | None = None):
        a = _unit_columns(matrix)
        if groups is not None and groups.p != a.shape[1]:
            raise BadValue(f"partition covers {groups.p} columns but matrix has {a.shape[1]}")
        self.__dict__.update(groups=groups, n=a.shape[0], p=a.shape[1], _frame=[a, None])

    @classmethod
    def from_traces(cls, tau) -> "MeasurementMatrix":
        """The n x n^2 Z4 character frame of the u x n integer trace table tau (n = 2^u, u
        even), entries taken mod 4: entry (t, lambda) is i^(sum_j lambda_j tau[j, t]) / sqrt(n)
        over lambda's base-4 digits, first slowest. Nothing dense is made here.
        """
        tau = np.asarray(tau)
        if tau.dtype.kind not in "iu":
            raise BadValue(f"a trace table holds integers, got dtype {tau.dtype}")
        # mod 4 as the low two bits: casts to uint8 wrap mod 256, negative entries too
        tau = locked(np.bitwise_and(tau, 3, dtype=np.uint8, casting="unsafe", order="C"))
        u, n = tau.shape if tau.ndim == 2 else (0, 0)
        if not u or u % 2 or n != 1 << u:
            raise BadValue(f"expected a u x 2^u trace table with u even, got shape {tau.shape}")
        return cls._over_traces(tau)

    @classmethod
    def _over_traces(cls, tau, **cached) -> "MeasurementMatrix":
        # a new frame on a locked uint8 tau of from_traces' form, unchecked; cached: its _walsh_plan
        m = cls.__new__(cls)
        n = tau.shape[1]
        m.__dict__.update(groups=None, n=n, p=n * n, _frame=[None, tau], **cached)
        return m

    @property
    def matrix(self) -> np.ndarray:
        slot = self._frame
        if slot[0] is None:
            slot[0] = _kerdock_entries(slot[1])
        return slot[0]

    @cached_property
    def _walsh_plan(self):
        """(gather, F, F / sqrt(n), places) when the matrix is exactly the frame of a u x n table
        tau with distinct residues w = tau(t) mod 2, else None; gather[w, alpha] = k n + t for
        the row t of residue w and i^k = i^(-alpha . tau(t)). A slot that holds tau gives its
        plan at once (from_traces: None if residues repeat). Otherwise tau is read off the unit
        columns 4^(u-1-j) and each entry compared exactly with the fill's (_kerdock_entries),
        slab by slab in one reused buffer.
        """
        a, tau = self._frame
        if tau is not None:
            return _z4_plan(tau)
        n, u = self.n, self.n.bit_length() - 1
        if n != 1 << u or u % 2 or self.p != n * n:
            return None
        units = a.T[4 ** np.arange(u - 1, -1, -1), :, np.newaxis]  # row j: i^tau[j] / sqrt(n)
        tau = (units == _I_POWERS / math.sqrt(n)).argmax(axis=-1).astype(np.uint8)  # 1-byte words
        if (plan := _z4_plan(tau)) is None:  # an entry that is no power of i reads 0: fails below
            return None
        words, table, step = _kerdock_slabs(tau)
        slab, v = np.empty_like(a[:step]), a.view(np.float64)
        for t in range(0, n, step):  # n and step are powers of 2: every slab is full
            np.take(table, words[t : t + step], out=slab, mode="clip")
            if not (slab.view(np.float64) == v[t : t + step]).all():  # -0.0 == 0.0
                return None
        return plan


@dataclass(frozen=True)
class SupportSet:
    """Sorted set of 1-based indices over elements or groups."""

    indices: tuple[int, ...]
    domain_size: int

    def __post_init__(self):
        d = as_int(self.domain_size, "domain size", lo=1)
        object.__setattr__(self, "domain_size", d)
        indices = tuple(as_int(i, "index", lo=1, hi=d) for i in self.indices)
        if any(i <= prev for prev, i in zip(indices, indices[1:])):
            raise BadValue("indices must be strictly increasing (sorted, no duplicates)")
        object.__setattr__(self, "indices", indices)

    @classmethod
    def from_indices(cls, indices, domain_size: int) -> "SupportSet":
        return cls(tuple(sorted(as_int(i, "index") for i in indices)), domain_size)

    @classmethod
    def from_zero_based(cls, indices, domain_size: int) -> "SupportSet":
        return cls.from_indices((as_int(i, "index") + 1 for i in indices), domain_size)

    def complement(self) -> "SupportSet":
        inside = set(self.indices)
        return SupportSet(
            tuple(i for i in range(1, self.domain_size + 1) if i not in inside),
            self.domain_size,
        )

    def to_zero_based(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp) - 1

    def to_set(self) -> set[int]:
        return set(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i) -> bool:
        return i in self.indices


@dataclass(frozen=True, eq=False)
class SignalInstance:
    """A p-vector x with its support I, zero-support E and sparsity k.

    Only x is stored: a nonempty, finite 1-D complex vector, locked read-only.
    I (where x is nonzero), E (where x is zero), k = |I| and p are derived.
    """

    x: np.ndarray

    def __post_init__(self):
        x = adopted(self.x, np.complex128)
        if x.ndim != 1 or x.size < 1:
            raise BadValue("signal must be a nonempty 1-D vector")
        if not np.all(np.isfinite(x)):
            raise BadValue("signal entries must be finite")
        object.__setattr__(self, "x", x)

    @classmethod
    def from_vector(cls, x) -> "SignalInstance":
        return cls(x)

    @cached_property
    def support(self) -> SupportSet:
        return SupportSet.from_zero_based(np.flatnonzero(self.x), self.p)

    @cached_property
    def zero_support(self) -> SupportSet:
        return SupportSet.from_zero_based(np.flatnonzero(self.x == 0), self.p)

    @property
    def k(self) -> int:
        return int(np.count_nonzero(self.x))

    @property
    def p(self) -> int:
        return self.x.shape[0]


def _seed_words(value: int) -> tuple[int, int]:
    # split a 64-bit value into uint32 words for SeedSequence spawn keys
    value = as_int(value, "substream path entries", lo=0, hi=2**64 - 1)
    return (value & 0xFFFFFFFF, value >> 32)


# numpy's SeedSequence hash (NEP 19, after O'Neill's seed_seq_fe) over a pool of
# four uint32 words. Hash call j xors with c_j and multiplies by c_(j+1), where
# c_j = init * mult^j mod 2^32, so the constants depend only on how many calls came before.
# _hashmix and _mix take uint32 arrays, whose arithmetic wraps mod 2^32 as the C code's does.
_POOL = 4
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@cache
def _chain(init: int, mult: int, start: int, count: int) -> np.ndarray:
    # c_start .. c_(start+count-1) as locked (count, 1) uint32 columns, to broadcast over a block
    return locked(np.array([init * pow(mult, j, 2**32) % 2**32
                            for j in range(start, start + count)], dtype=np.uint32)[:, np.newaxis])


# generate_state: 4 calls give the four uint32 words of two uint64 words
_STATE_COLUMNS = _chain(0x8B51F9DD, 0x58F38DED, 0, _POOL + 1)


def _hashmix(value, xor, mul):
    h = (value ^ xor) * mul
    return h ^ h >> 16


def _mix(x, y):
    h = _MIX_L * x - _MIX_R * y
    return h ^ h >> 16


@dataclass(frozen=True)
class RngSpec:
    """Reproducible random source: (masterSeed, streamId) fully determine all draws.

    Streams are backed by Philox, a counter-based generator, so draws are a
    pure function of the key; derived substreams are order-independent and
    safe to evaluate concurrently.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            object.__setattr__(self, name, as_int(getattr(self, name), name, lo=0, hi=2**64 - 1))

    def _sequence(self, path: tuple[int, ...]) -> np.random.SeedSequence:
        key = _seed_words(self.stream_id)
        for v in path:
            key += _seed_words(v)
        return np.random.SeedSequence(entropy=self.master_seed, spawn_key=key)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self._sequence(())))

    def substream(self, *path: int) -> np.random.Generator:
        """Generator for a derived stream; equal (spec, path) give identical draws."""
        return np.random.Generator(np.random.Philox(self._sequence(path)))

    def substreams(self, *prefix: int, trials: range):
        """Yield one generator per t in trials that draws as self.substream(*prefix, t).

        numpy's SeedSequence mixes the seed, stream id and prefix once, into its pool;
        the two words of every t continue that hash, and generate_state follows, as
        wrapping uint32 arrays over the block. One Philox is re-keyed in place per
        trial (counter 0, empty buffer, no cached 32-bit half), so finish with each
        generator before taking the next.
        """
        for end in (trials[0], trials[-1]) if trials else ():
            as_int(end, "trial", lo=0, hi=2**64 - 1)
        t = np.fromiter(trials, dtype=np.uint64, count=len(trials))
        seq = self._sequence(prefix)
        # mix_entropy hashed the seed padded to the pool and the spawn key, 4 calls a word
        cols = _chain(0x43B0D7E5, 0x931E8875, _POOL * (_POOL + len(seq.spawn_key)), 2 * _POOL + 1)
        block = seq.pool[:, np.newaxis]  # pools (4, T) once the words of t are mixed in
        for w in (t.astype(np.uint32), (t >> 32).astype(np.uint32)):
            block = _mix(block, _hashmix(w, cols[:_POOL], cols[1:_POOL + 1]))
            cols = cols[_POOL:]
        state = _hashmix(block, _STATE_COLUMNS[:-1], _STATE_COLUMNS[1:]).astype(np.uint64)
        keys = (state[0::2] | state[1::2] << np.uint64(32)).T
        rng = np.random.Generator(np.random.Philox(0))
        zeros = np.zeros(4, dtype=np.uint64)
        for key in keys:
            rng.bit_generator.state = {
                "bit_generator": "Philox", "state": {"counter": zeros, "key": key},
                "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
            }
            yield rng


# ---------------------------------------------------------------------------
# operations


def _matrix_of(m) -> np.ndarray:
    # a MeasurementMatrix's array, or m as a dense complex matrix (n, p >= 1, all finite)
    if isinstance(m, MeasurementMatrix):
        return m.matrix
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise BadValue(f"expected a 2-D matrix with n, p >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise BadValue("matrix entries must be finite")
    return np.ascontiguousarray(a)


def column_norms(m) -> np.ndarray:
    """Euclidean norm of every column."""
    return np.linalg.norm(_matrix_of(m), axis=0)


def normalize_columns(m) -> MeasurementMatrix:
    """Scale each column to unit norm, preserving direction.

    Raises ZeroColumn for any column with norm below 1e-14. Group metadata is
    preserved when the input is already a MeasurementMatrix.
    """
    groups = m.groups if isinstance(m, MeasurementMatrix) else None
    a = _matrix_of(m)
    norms = np.linalg.norm(a, axis=0)
    small = np.nonzero(norms < ZERO_COLUMN_TOL)[0]
    if small.size:
        raise ZeroColumn(int(small[0]) + 1)
    return MeasurementMatrix(locked(a / norms[np.newaxis, :]), groups=groups)


def _walsh(plan, ys, out=None) -> np.ndarray:
    # A^H ys (T, p) by a Z4 frame's plan, into out if given: s[beta, alpha] = sum_w (F (x) F)[beta,
    # w] i^(-alpha . tau_w) y_w / sqrt(n), from y i^k, F and F / sqrt(n) over w's halves, places
    gather, had, had_scaled, places = plan
    p, r, n = len(places), len(had), ys.shape[-1]
    z = (ys[..., np.newaxis, :] * _I_POWERS[:, np.newaxis]).reshape(-1, 4 * n)
    z = z.take(gather, axis=1, mode="clip").view(np.float64)  # in range: never clips
    z = had_scaled @ (had @ z.reshape(-1, r, 2 * n * r)).reshape(-1, r, 2 * n)
    return z.reshape(-1, 2 * p).view(complex).take(places, axis=1, mode="clip", out=out)


def hermitian_apply(m, y) -> np.ndarray:
    """Correlate measurements with every column: s_j = <a_j, y> = a_j^H y.

    y is one vector (n,) or a stack (T, n) whose rows come out exactly as they
    would alone. Non-finite measurements are rejected, not ranked. A Z4 character frame
    (Kerdock) takes a Walsh-Hadamard transform, equal to dense to rounding where neither
    overflows (its stages overflow first); all else is dense. A lone vector, or a stack
    whose temporaries stay below 128 KB, takes one Walsh pass; larger stacks go in such chunks.
    The Walsh path reads only the plan, so a frame from MeasurementMatrix.from_traces
    correlates without filling its dense array.
    """
    a = None if isinstance(m, MeasurementMatrix) else _matrix_of(m)  # a frame's only if dense
    n = m.n if a is None else a.shape[0]
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim not in (1, 2) or y.shape[-1] != n:
        raise DimensionMismatch(f"expected length-{n} vectors, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise BadValue("measurements must be finite")
    if a is None and (plan := m._walsh_plan) is not None:
        # chunks below glibc's 128 KB mmap threshold, written into one output, map no fresh pages
        step = max(1, (2**13 - 1) // m.p)
        if y.ndim == 1 or len(y) <= step:
            return _walsh(plan, y).reshape(*y.shape[:-1], m.p)
        s = np.empty((len(y), m.p), dtype=np.complex128)
        for t in range(0, len(y), step):
            _walsh(plan, y[t : t + step], s[t : t + step])
        return s
    # (y^H a)^H row by row: no copy of a^H, one matrix-vector product per row
    return (y.conj()[..., np.newaxis, :] @ (m.matrix if a is None else a))[..., 0, :].conj()


# ---------------------------------------------------------------------------
# CMAT v1 text format
#
# Line 1: "n p". Optional comment lines start with '#'; a "# meta:" comment
# carries space-separated key=value tokens. Then n rows of p whitespace-
# separated entries, each written as re{+|-}imj with 17 significant digits
# (readers also accept an 'i' suffix or a bare real token).

_ENTRY_RE = re.compile(r"^[0-9eE+\-.]+[ij]?$")


def format_cmat_entry(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def parse_cmat_entry(token: str) -> complex:
    t = token.strip()
    if not t or not _ENTRY_RE.match(t):
        raise CmatFormatError(f"malformed complex entry {token!r}")
    if t[-1] == "i":
        t = t[:-1] + "j"
    try:
        return complex(t)
    except ValueError as exc:
        raise CmatFormatError(f"malformed complex entry {token!r}") from exc


def write_cmat(path, m, meta: dict | None = None) -> None:
    """Write a matrix in CMAT v1, with an optional '# meta:' comment line."""
    a = _matrix_of(m)
    n, p = a.shape
    lines = [f"{n} {p}"]
    if meta:
        pairs = {str(key): str(value) for key, value in meta.items()}
        if len(pairs) < len(meta):
            raise BadValue(f"meta keys {list(meta)!r} are not distinct as text")
        for key, value in pairs.items():
            if not key or "=" in key or any(c.isspace() for c in key + value):
                raise BadValue(f"meta {key!r}: {value!r} would not read back; keys must be "
                               "nonempty without '=', and neither may hold whitespace")
        lines.append("# meta: " + " ".join(f"{k}={v}" for k, v in pairs.items()))
    for row in a:
        lines.append(" ".join(format_cmat_entry(z) for z in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_cmat(path) -> tuple[np.ndarray, dict[str, str]]:
    """Read a CMAT v1 file; returns (matrix, meta). Comment lines are skipped."""
    meta: dict[str, str] = {}
    header: tuple[int, int] | None = None
    rows: list[list[complex]] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("meta:"):
                    for token in body[len("meta:"):].split():
                        if "=" not in token:
                            raise CmatFormatError(f"line {lineno}: bad meta token {token!r}")
                        k, v = token.split("=", 1)
                        meta[k] = v
                continue
            if header is None:
                parts = line.split()
                if len(parts) != 2:
                    raise CmatFormatError(f"line {lineno}: expected header 'n p'")
                try:
                    header = (int(parts[0]), int(parts[1]))
                except ValueError as exc:
                    raise CmatFormatError(f"line {lineno}: expected header 'n p'") from exc
                if header[0] < 1 or header[1] < 1:
                    raise CmatFormatError(f"line {lineno}: header must satisfy n, p >= 1")
                continue
            tokens = line.split()
            if len(tokens) != header[1]:
                raise CmatFormatError(
                    f"line {lineno}: expected {header[1]} entries, found {len(tokens)}"
                )
            rows.append([parse_cmat_entry(t) for t in tokens])
    if header is None:
        raise CmatFormatError("missing 'n p' header line")
    if len(rows) != header[0]:
        raise CmatFormatError(f"expected {header[0]} data rows, found {len(rows)}")
    return np.asarray(rows, dtype=np.complex128), meta


# ---------------------------------------------------------------------------
# CSV output


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def write_csv(path, header, rows) -> None:
    """Write a header and rows of cells as ASCII CSV lines, each ending in a newline.

    Every cell follows one rule: text as it is, None empty, bools 0 or 1, ints
    in full, and any other number as a float to 17 significant digits, which
    reads back to the same double. Rows are tuples; path may be a pipe.
    """
    lines = (",".join(map(_fmt, row)) + "\n" for row in (header, *rows))
    Path(path).write_text("".join(lines), encoding="ascii")
