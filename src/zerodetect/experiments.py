"""Monte-Carlo harness: signal generation, noise injection, trial batches,
false-discovery / error-probability aggregation, and plot-data emission.

Reproducibility contract: every randomized quantity in a batch is a pure
function of the configuration. The matrix comes from its own seed; each
trial's signal and noise come from a stream keyed by (master seed, k, trial
index). Detection itself is deterministic, so all detectors and estimate
sizes in a batch see the same signal and noise realizations per trial; this
makes cross-detector comparisons paired and makes enlarging the estimate a
per-trial improvement, while grid cells stay independently re-runnable.

Measurement convention: the sparse coefficient vector is measured directly
(y = A x + w with x the tone coefficient vector). Tone supports index a
frequency grid of size p, but no transform is inserted between the matrix
and the coefficients.
"""

import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import (
    MeasurementMatrix,
    RngSpec,
    SignalInstance,
    as_int,
    as_real,
    hermitian_apply,
    write_csv,
)
from .detectors import RULES, check_theta, scores_of, select_mask
from .errors import BadK, BadValue, DimensionMismatch, IncompleteReport, NoGroups
from .matrices import FAMILIES, build_frame
from .theory import noise_component_variance

# detector -> (its rule in detectors.RULES, target mask); the full-support
# baseline is ost_topk at theta = k
_DETECTORS = {"zd_ost": ("zd_ost", "zeros"), "zd_groth": ("zd_groth", "group_zeros"),
              "ost_topk": ("ost_topk", "support"),
              "ost_topk_full_support": ("ost_topk", "support")}
DETECTOR_NAMES = tuple(_DETECTORS)
SIGNAL_MODELS = ("tone", "group")
# figure id -> the metric its curves plot, as the manifest names it
_FIGURE_METRICS = {"1": "fdp_or_zero_fraction", "2": "pe", "3": "pe", "4a": "fdp", "4b": "fdp"}
FIGURE_IDS = tuple(_FIGURE_METRICS)

_Z95 = 1.959963984540054
# a block of trials holds at most this many signal entries, which keeps the
# block's signals and correlations near 1 MB each
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class UniformAmplitude:
    """Magnitudes drawn uniformly from [lo, hi] (phases are always uniform)."""

    lo: float = 1.0
    hi: float = 1000.0

    def __post_init__(self):
        as_real(self.hi, "hi", lo=as_real(self.lo, "lo", lo=0, open=True))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size)


def _signal_draws(rng: np.random.Generator, domain: int, width: int, k: int):
    """One trial's raw signal draws, in stream order: k of `domain` blocks, then
    2 k width doubles in [0, 1) for _uniform_split."""
    return rng.choice(domain, size=k, replace=False), rng.random(2 * k * width)


def _uniform_split(u: np.ndarray, law: UniformAmplitude) -> tuple[np.ndarray, np.ndarray]:
    """Magnitudes and phases (..., h) from doubles u (..., 2 h) in [0, 1) by
    numpy's uniform formula, low + range * next_double: the draws of
    law.sample(rng, h) and then rng.uniform(0, 2 pi, h) on the stream of u."""
    h = u.shape[-1] // 2
    lo, hi = float(law.lo), float(law.hi)
    return lo + (hi - lo) * u[..., :h], 2.0 * np.pi * u[..., h:]


def _assemble_signals(domain: int, width: int, blocks: np.ndarray, u: np.ndarray,
                      law: UniformAmplitude) -> np.ndarray:
    """Coefficient vectors (T, domain * width) from the block choices (T, k) and
    the doubles u (T, 2 k width) of T trials; entry j of a chosen block b is
    column b * width + j."""
    t = len(blocks)
    mags, phases = _uniform_split(u, law)
    x = np.zeros((t, domain, width), dtype=np.complex128)
    x[np.arange(t)[:, np.newaxis], blocks] = (mags * np.exp(1j * phases)).reshape(t, -1, width)
    return x.reshape(t, domain * width)


def _noise_scale(sigma2: float, convention: str) -> float:
    """Standard deviation of each real component of the noise (see gen_noise), once
    sigma2 and the convention are checked."""
    return math.sqrt(noise_component_variance(as_real(sigma2, "sigma2", lo=0), convention))


def _draw_signal(domain: int, width: int, k: int, law: UniformAmplitude,
                 rng: np.random.Generator) -> np.ndarray:
    """Coefficient vector with k of its `domain` blocks of `width` entries
    active: uniform block choice, law-distributed magnitudes, uniform phases."""
    k = as_int(k, "k", BadK, lo=0, hi=domain)
    if k == 0:
        return np.zeros(domain * width, dtype=np.complex128)
    draws = _signal_draws(rng, domain, width, k)
    return _assemble_signals(domain, width, *(d[np.newaxis] for d in draws), law)[0]


def gen_tone_signal(p: int, k: int, law: UniformAmplitude,
                    rng: np.random.Generator) -> SignalInstance:
    """k-sparse coefficient vector: uniform support, law-distributed magnitudes,
    uniform phases."""
    return SignalInstance.from_vector(_draw_signal(p, 1, k, law, rng))


def gen_group_signal(q: int, r: int, k: int, law: UniformAmplitude,
                     rng: np.random.Generator) -> SignalInstance:
    """Signal active on k whole groups: every entry of a chosen group is nonzero."""
    return SignalInstance.from_vector(_draw_signal(q, r, k, law, rng))


def gen_noise(n: int, sigma2: float, convention: str,
              rng: np.random.Generator) -> np.ndarray:
    """Circular complex Gaussian noise vector under the configured convention.

    "total": per-entry variance sigma2 (components sigma2/2 each), so
    E||w||^2 = n sigma2. "per_component": each component has variance sigma2.
    """
    scale = _noise_scale(sigma2, convention)
    if sigma2 == 0:
        return np.zeros(n, dtype=np.complex128)
    parts = rng.standard_normal((2, n))
    return scale * (parts[0] + 1j * parts[1])


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a batch; equal configs give identical output."""

    matrix_family: str = "kerdock"
    kerdock_m: int = 3
    rows: int | None = None
    cols: int | None = None
    matrix_seed: int = 0
    matrix_file: str | None = None
    signal_model: str = "tone"
    amplitude_lo: float = 1.0
    amplitude_hi: float = 1000.0
    sigma2: float = 500.0
    k_grid: tuple[int, ...] = (16, 64, 128, 204)
    theta_grid: tuple[int, ...] = (1, 4, 16, 64)
    trials: int = 5000
    group_size: int | None = None
    detectors: tuple[str, ...] = ("zd_ost",)
    master_seed: int = 0
    noise_convention: str = "total"

    def __post_init__(self):
        if self.matrix_family not in FAMILIES:
            raise BadValue(f"unknown matrix family {self.matrix_family!r}")
        if self.signal_model not in SIGNAL_MODELS:
            raise BadValue(f"unknown signal model {self.signal_model!r}")
        _noise_scale(self.sigma2, self.noise_convention)
        object.__setattr__(self, "trials", as_int(self.trials, "trials", lo=1))
        as_real(self.amplitude_hi, "amplitude_hi",
                lo=as_real(self.amplitude_lo, "amplitude_lo", lo=0, open=True))
        for d in self.detectors:
            if d not in DETECTOR_NAMES:
                raise BadValue(f"unknown detector {d!r}")
        for name in ("k_grid", "theta_grid", "detectors"):
            values = getattr(self, name)
            if not values:
                raise BadValue(f"{name} must not be empty")
            if len(set(values)) != len(values):
                raise BadValue(f"duplicate {name} entries")
        # a file's group size may come from its group_size meta value instead
        if self.signal_model == "group" and self.group_size is None and self.matrix_family != "file":
            raise BadValue("group signals need group_size")

    @property
    def amplitude_law(self) -> UniformAmplitude:
        return UniformAmplitude(self.amplitude_lo, self.amplitude_hi)


def build_matrix(config: ExperimentConfig) -> MeasurementMatrix:
    """The configured frame, built or read by build_frame, groups attached."""
    family = config.matrix_family
    # kerdock_m has a default, so it cannot tell a given degree from none: only kerdock reads it
    kerdock_m = config.kerdock_m if family == "kerdock" else None
    return build_frame(family, kerdock_m, config.rows, config.cols, config.matrix_seed,
                       config.group_size, config.matrix_file)[0]


class TrialMetrics(NamedTuple):
    fdp: float
    zero_fraction: float  # NaN when the target set is empty
    hit: bool


def _check_detection(detector: str, theta: int, m: MeasurementMatrix) -> int:
    if detector not in _DETECTORS:
        raise BadValue(f"unknown detector {detector!r}")
    if detector == "ost_topk_full_support":  # takes each trial's k instead
        return theta
    return check_theta(_DETECTORS[detector][0], theta, m)


def _detect_block(combos, m: MeasurementMatrix, y: np.ndarray, support: np.ndarray):
    """(fdp, zero fraction, hit) arrays over a block of trials, one triple per
    (detector, grid theta, theta used) combo, from the block's measurements y
    (T, n) and its signals' nonzero masks (T, p); the metrics need sets, not
    rankings. Each theta used must have passed _check_detection; the grid theta
    is not read."""
    s = hermitian_apply(m, y)
    rules = {RULES[_DETECTORS[det][0]] for det, _, _ in combos}
    scores = {grouped: scores_of(s, m, grouped) for grouped in {grouped for grouped, _ in rules}}
    # keys per rule, built once per block; smaller is better
    keys = {(grouped, largest): -scores[grouped] if largest else scores[grouped]
            for grouped, largest in rules}
    targets = {"support": support, "zeros": ~support}
    if True in scores:  # a group rule is in the block
        targets["group_zeros"] = ~support.reshape(len(y), m.groups.q, m.groups.r).any(axis=-1)
    out = []
    for det, _, theta in combos:
        rule, target = _DETECTORS[det]
        full = det == "ost_topk_full_support"
        used = int(support[0].sum()) if full else theta  # the k of every trial in the block
        inter = (targets[target] & select_mask(keys[RULES[rule]], used)).sum(axis=-1)
        size = targets[target].sum(axis=-1)
        fdp = (used - inter) / used if used else np.zeros(inter.shape)
        zf = np.divide(inter, size, out=np.full(inter.shape, np.nan), where=size > 0)
        out.append((fdp, zf, inter == used if full else inter > 0))
    return out


def evaluate_detection(detector: str, theta: int, m: MeasurementMatrix,
                       y: np.ndarray, signal: SignalInstance) -> TrialMetrics:
    """One detection and its metrics against the detector's target set.

    Zero detectors are scored against the zero-support (element- or
    group-level); the top-k baselines are scored against the support, with
    the full-support baseline's hit meaning exact recovery.
    """
    theta, x = _check_detection(detector, theta, m), signal.x
    if x.shape != (m.p,):
        raise DimensionMismatch(f"signal has shape {x.shape}, not ({m.p},)")
    (fdp, zf, hit), = _detect_block([(detector, None, theta)], m, np.asarray(y)[np.newaxis],
                                    (x != 0)[np.newaxis])
    return TrialMetrics(float(fdp[0]), float(zf[0]), bool(hit[0]))


def _measure_block(config: ExperimentConfig, m: MeasurementMatrix, k: int,
                   trials: range) -> tuple[np.ndarray, np.ndarray]:
    """Signals (T, p) and measurements y = A x + w (T, n) of the given trials.

    Trial t draws its signal, then its noise, from substream (master seed, k, t):
    RngSpec.substreams yields its generator, which draws as RngSpec.substream(k, t)
    would. Each trial only draws; the signals and noise are assembled once per
    block. k = 0 draws no signal and sigma2 = 0 no noise.
    """
    law = config.amplitude_law
    domain, width = (m.groups.q, m.groups.r) if config.signal_model == "group" else (m.p, 1)
    k = as_int(k, "k", BadK, lo=0, hi=domain)
    blocks = np.empty((len(trials), k), dtype=np.intp)
    u = np.empty((len(trials), 2 * k * width))
    parts = np.zeros((len(trials), 2, m.n))
    for i, rng in enumerate(RngSpec(config.master_seed).substreams(k, trials=trials)):
        if k:
            blocks[i], u[i] = _signal_draws(rng, domain, width, k)
        if config.sigma2:
            rng.standard_normal(out=parts[i])
    x = _assemble_signals(domain, width, blocks, u, law)
    w = _noise_scale(config.sigma2, config.noise_convention) * (parts[:, 0] + 1j * parts[:, 1])
    # one matrix-vector product per row, the same arithmetic as A @ x
    return x, (x[:, np.newaxis, :] @ m.matrix.T)[:, 0, :] + w


def effective_theta(config: ExperimentConfig, detector: str, theta: int) -> int:
    """Element detectors on group signals get the matched tone budget theta * r."""
    if config.signal_model == "group" and detector in ("zd_ost", "ost_topk"):
        return theta * config.group_size
    return theta


def run_trial(config: ExperimentConfig, k: int, theta: int, detector: str,
              trial_index: int, matrix: MeasurementMatrix | None = None) -> TrialMetrics:
    """One full pipeline: generate, measure, detect, score.

    This is run_batch's engine on a one-trial block, so it reproduces a batch's
    per-trial values. theta is the literal estimate size handed to the detector
    (run_batch applies the matched-budget scaling before calling).
    """
    m = build_matrix(config) if matrix is None else matrix
    x, y = _measure_block(config, m, k, range(trial_index, trial_index + 1))
    return evaluate_detection(detector, theta, m, y[0], SignalInstance(x[0]))


def wilson_interval(successes: float, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a proportion (successes may be a pseudo-count)."""
    n = as_int(n, "n", lo=1)
    successes = as_real(successes, "successes", lo=0, hi=n)
    phat = successes / n
    denom = 1 + _Z95**2 / n
    center = (phat + _Z95**2 / (2 * n)) / denom
    half = _Z95 * math.sqrt(phat * (1 - phat) / n + _Z95**2 / (4 * n**2)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class BatchCell:
    """Aggregates for one (k, theta, detector) grid point."""

    k: int
    theta: int        # estimate size used; ost_topk_full_support records its grid value,
                      # though it keeps each trial's nonzero entries (k, or k r on groups)
    theta_grid: int   # grid value it came from (differs under matched budget)
    detector: str
    trials: int
    fdp_mean: float
    fdp_lo: float
    fdp_hi: float
    zero_fraction_mean: float   # NaN when never defined
    zero_fraction_lo: float
    zero_fraction_hi: float
    zero_fraction_trials: int
    pe: float
    pe_lo: float
    pe_hi: float

    def __post_init__(self):
        as_real(self.fdp_mean, "fdp_mean", lo=0, hi=1)
        as_real(self.pe, "pe", lo=0, hi=1)
        if not math.isnan(self.zero_fraction_mean):  # NaN when never defined
            as_real(self.zero_fraction_mean, "zero_fraction_mean", lo=0, hi=1)


class TrialRecord(NamedTuple):
    k: int
    theta: int
    detector: str
    trial: int
    fdp: float
    zero_fraction: float
    hit: bool


@dataclass(frozen=True, eq=False)
class TrialBatchReport:
    """Per-cell aggregates (optionally per-trial rows) for one batch run."""

    config: ExperimentConfig
    p: int
    q: int | None
    cells: tuple[BatchCell, ...]
    per_trial: tuple[TrialRecord, ...] | None = None

    def cell(self, k: int, theta_grid: int, detector: str) -> BatchCell:
        for c in self.cells:
            if (c.k, c.theta_grid, c.detector) == (k, theta_grid, detector):
                return c
        raise IncompleteReport(
            f"no cell for k={k}, theta={theta_grid}, detector={detector}"
        )


def _validate_grids(config: ExperimentConfig, m: MeasurementMatrix):
    """The k grid as ints and the (detector, grid theta, theta used) combos, detector
    by detector, once every k and every theta used is checked against m."""
    if config.signal_model == "group" and m.groups is None:
        raise NoGroups("group signals need a partitioned matrix")
    domain = m.groups.q if config.signal_model == "group" else m.p
    k_grid = tuple(as_int(k, "k", BadK, lo=0, hi=domain) for k in config.k_grid)
    return k_grid, [(det, tg, _check_detection(det, effective_theta(config, det, tg), m))
                    for det in config.detectors for tg in config.theta_grid]


def _running_sum(values: np.ndarray) -> float:
    # one add per value in trial order; np.sum adds pairwise and rounds differently
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def _cell(k: int, theta: int, theta_grid: int, detector: str, fdp: np.ndarray,
          zf: np.ndarray, hit: np.ndarray) -> BatchCell:
    """Aggregates of one grid point from its per-trial metric arrays."""
    n = len(fdp)
    defined = zf[~np.isnan(zf)]
    fdp_sum, zf_sum, zf_n = _running_sum(fdp), _running_sum(defined), defined.size
    misses = n - int(np.count_nonzero(hit))
    zf_ci = wilson_interval(zf_sum, zf_n) if zf_n else (math.nan, math.nan)
    return BatchCell(  # fields in declaration order
        k, theta, theta_grid, detector, n,
        fdp_sum / n, *wilson_interval(fdp_sum, n),
        zf_sum / zf_n if zf_n else math.nan, *zf_ci, zf_n,
        misses / n, *wilson_interval(misses, n),
    )


def run_batch(config: ExperimentConfig, keep_trials: bool = False) -> TrialBatchReport:
    """Sweep the (k, theta, detector) grid; deterministic given the config.

    Signals and noise are generated once per (k, trial) and shared by every
    detector and estimate size, exactly as run_trial would regenerate them.
    Trials run in blocks: one stacked product each for y = A x + w and the
    correlations, then one selection per (detector, estimate size). Products
    go row by row and sums in trial order, so no value depends on block size.
    """
    m = build_matrix(config)
    if config.group_size is None and m.groups is not None:  # a file's group_size meta
        config = replace(config, group_size=m.groups.r)
    k_grid, combos = _validate_grids(config, m)
    block = max(1, _BLOCK_ENTRIES // m.p)
    n = config.trials
    cells: list[BatchCell] = []
    records: list[TrialRecord] = []
    for k in k_grid:
        blocks = []
        for start in range(0, n, block):
            x, y = _measure_block(config, m, k, range(start, min(start + block, n)))
            blocks.append(_detect_block(combos, m, y, x != 0))
        # per combo, its (fdp, zero fraction, hit) arrays over all n trials
        table = blocks[0] if len(blocks) == 1 else [
            tuple(map(np.concatenate, zip(*parts))) for parts in zip(*blocks)]
        by_combo = {(det, tg): _cell(k, eff, tg, det, *triple)
                    for (det, tg, eff), triple in zip(combos, table)}
        cells.extend(by_combo[det, tg] for tg in config.theta_grid for det in config.detectors)
        if keep_trials:
            columns = [list(zip(*(a.tolist() for a in triple))) for triple in table]
            records.extend(TrialRecord(k, eff, det, t, *rows[t])
                           for t in range(n) for (det, _, eff), rows in zip(combos, columns))
    q = m.groups.q if m.groups is not None else None
    return TrialBatchReport(
        config=config, p=m.p, q=q, cells=tuple(cells),
        per_trial=tuple(records) if keep_trials else None,
    )


# ---------------------------------------------------------------------------
# CSV emission


def write_report_csv(report: TrialBatchReport, path) -> None:
    """All cells of a batch as one CSV table."""
    cols = [f.name for f in fields(BatchCell)]
    write_csv(path, cols, map(attrgetter(*cols), report.cells))


def _zero_domain_size(report: TrialBatchReport, detector: str, k: int) -> int:
    """Size of the relevant zero-support for substitution decisions."""
    cfg = report.config
    if detector == "zd_groth":
        return report.q - k
    if cfg.signal_model == "group":
        return report.p - k * cfg.group_size
    return report.p - k


def _curve_point(report: TrialBatchReport, metric: str, cell: BatchCell):
    """(value, lo, hi) of one cell for a manifest metric; fdp_or_zero_fraction
    takes the zero fraction wherever theta exceeds the zero-support size."""
    if metric == "pe":
        return cell.pe, cell.pe_lo, cell.pe_hi
    if (metric == "fdp_or_zero_fraction"
            and cell.theta > _zero_domain_size(report, cell.detector, cell.k)):
        return cell.zero_fraction_mean, cell.zero_fraction_lo, cell.zero_fraction_hi
    return cell.fdp_mean, cell.fdp_lo, cell.fdp_hi


def emit_plotdata(report: TrialBatchReport, figure_id, out_dir) -> list[Path]:
    """One CSV per (detector, theta) curve plus a manifest mapping the curves.

    Figure conventions: 1 plots the false-discovery proportion, substituting
    the recovered zero fraction wherever theta exceeds the zero-support size;
    2 and 3 plot the error probability (3 additionally emits the
    full-support baseline's false-discovery curve); 4a and 4b plot the
    false-discovery proportion of the group detector against the matched-
    budget element detector.
    """
    fid = str(figure_id)
    if fid not in FIGURE_IDS:
        raise BadValue(f"unknown figure id {figure_id!r}")
    curves: dict[tuple[str, int], list[BatchCell]] = {}
    for cell in report.cells:
        curves.setdefault((cell.detector, cell.theta_grid), []).append(cell)
    # the curves are exactly the config's (detector, theta) grid, each over its k grid
    cfg = report.config
    grid = {(det, theta): tuple(cfg.k_grid) for det in cfg.detectors for theta in cfg.theta_grid}
    for key in sorted(grid.keys() | curves.keys()):
        if tuple(c.k for c in curves.get(key, ())) != grid.get(key):
            raise IncompleteReport(f"curve {key} does not cover the k grid")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    manifest = []
    for (det, _), cells in sorted(curves.items()):  # curve keys are distinct
        labels = [(det, _FIGURE_METRICS[fid])]
        if fid == "3" and det == "ost_topk_full_support":
            labels.append((det + "_fdp", "fdp"))
        for label, metric in labels:
            name = f"fig{fid}_{label}_theta{cells[0].theta}.csv"
            write_csv(out / name, ("k", "value", "ci_lo", "ci_hi"),
                      [(c.k, *_curve_point(report, metric, c)) for c in cells])
            manifest.append((name, det, cells[0].theta, metric))
    names = [row[0] for row in manifest] + [f"fig{fid}_manifest.csv"]
    write_csv(out / names[-1], ("file", "detector", "theta", "metric"), manifest)
    return [out / name for name in names]


# ---------------------------------------------------------------------------
# flat key = value config files

# key -> value type; a 1-tuple marks a comma-separated list of that type
CONFIG_KEYS = {
    "k_grid": (int,), "theta_grid": (int,), "detectors": (str,),
    **dict.fromkeys(("kerdock_m", "rows", "cols", "matrix_seed", "trials",
                     "group_size", "master_seed"), int),
    **dict.fromkeys(("amplitude_lo", "amplitude_hi", "sigma2"), float),
    **dict.fromkeys(("matrix_family", "matrix_file", "signal_model", "noise_convention"), str),
}


def read_flat_config(path, kinds: dict) -> dict:
    """Read a flat `key = value` file ('#' comments allowed) into typed values.

    kinds maps every accepted key to its type, or to a 1-tuple of it for a
    comma-separated list. Unknown and repeated keys are errors.
    """
    values: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadValue(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in kinds:
            raise BadValue(f"line {lineno}: unknown configuration key {key!r}")
        if key in values:
            raise BadValue(f"line {lineno}: duplicate key {key!r}")
        kind = kinds[key]
        try:
            if isinstance(kind, tuple):
                values[key] = tuple(kind[0](v.strip()) for v in value.split(",") if v.strip())
            else:
                values[key] = kind(value)
        except ValueError as exc:
            raise BadValue(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    return values


def parse_experiment_config(path) -> ExperimentConfig:
    """Read a flat `key = value` experiment file; unknown keys error."""
    return ExperimentConfig(**read_flat_config(path, CONFIG_KEYS))
