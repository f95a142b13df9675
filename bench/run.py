"""zerodetect benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root; the package is imported from ./src:

    python3 bench/run.py                                # every workload, seed 20260808
    python3 bench/run.py --workload detect_stream --seed 7 --seconds 25 --trace 1

Each workload is driven by one caller in one process. Inputs are generated
before the timed region; outputs are checked against references after it.
Standard output gets one detail line (fingerprint, the named end-to-end
metrics, counts labelled measured or computed, per-layer self time, checks)
and, last, one result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. The detail line and the spans of a traced run
are also written under bench/results/. README.md in this directory maps each
per-layer metric to the end-to-end metric and workload it should move.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "zerodetect" / "__init__.py").is_file():
    raise SystemExit(f"bench: zerodetect sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import probe  # noqa: E402
from tracing import (  # noqa: E402
    NullTracer,
    Tracer,
    durations_by_name,
    in_trees,
    layer_self_seconds,
    roots,
)
from zerodetect import cli  # noqa: E402
from zerodetect.coherence import (  # noqa: E402
    average_coherence,
    coherence_argmax_pair,
    group_coherences,
    stoc_estimate,
    worst_case_coherence,
)
from zerodetect.core import MeasurementMatrix, RngSpec, hermitian_apply, read_cmat, write_cmat  # noqa: E402
from zerodetect.detectors import ost_topk, zd_groth, zd_ost  # noqa: E402
from zerodetect.experiments import (  # noqa: E402
    BatchCell,
    TrialBatchReport,
    UniformAmplitude,
    effective_theta,
    emit_plotdata,
    evaluate_detection,
    gen_group_signal,
    gen_noise,
    gen_tone_signal,
    parse_experiment_config,
    wilson_interval,
    write_report_csv,
)
from zerodetect.matrices import (  # noqa: E402
    KerdockSpec,
    attach_groups,
    build_kerdock,
    kerdock_codewords,
    kerdock_meta,
)

DEFAULT_SEED = 20260808  # the acceptance seed; references are recorded for it
DEFAULT_SECONDS = 30
WORKLOADS = ("simulate_tone", "simulate_group", "coherence_kerdock5", "detect_stream")
REFERENCE_PATH = BENCH / "reference.json"
RESULTS = BENCH / "results"
WORK = BENCH / "_work"


@dataclass(frozen=True)
class Sizes:
    name: str
    sim_trials: int   # trials per k in the simulate batches (m = 3)
    kerdock_m: int    # Kerdock degree of the coherence and detect matrices
    group_size: int   # their group size
    stoc_trials: int
    pool: int         # distinct measurement vectors cycled by detect_stream


# 25 trials per k keep one simulate operation near 60 ms, so that a run holds
# hundreds of them and the 10th percentile has many samples in the host's fast
# stretches (see END_TO_END)
FULL = Sizes("full", sim_trials=25, kerdock_m=5, group_size=64, stoc_trials=1000, pool=512)
TINY = Sizes("tiny", sim_trials=3, kerdock_m=3, group_size=8, stoc_trials=20, pool=8)

# set-ups per run, spread evenly over the measured window
SETUP_REPS = {"simulate_tone": 25, "simulate_group": 25, "coherence_kerdock5": 4, "detect_stream": 8}

SIM_COMMON = {"matrix_family": "kerdock", "kerdock_m": 3, "sigma2": 500,
              "amplitude_lo": 1, "amplitude_hi": 1000}
SIMULATE = {  # workload -> (figure id, config keys)
    "simulate_tone": ("3", {"k_grid": "16,64,128,204", "theta_grid": "1",
                            "detectors": "zd_ost,ost_topk,ost_topk_full_support"}),
    "simulate_group": ("4a", {"signal_model": "group", "group_size": 8,
                              "k_grid": "2,8,16,24", "theta_grid": "1,4",
                              "detectors": "zd_groth,zd_ost"}),
}
STOC_K, STOC_EPS = 32, 0.5
DETECT_K, DETECT_SIGMA2, DETECT_THETA_OST, DETECT_THETA_GROTH = 32, 500.0, 16, 4
TOUR_GROUP_SIZE = 8  # groups attached for the layer tour when a workload has none

# Tolerances of the coherence checks. nu is a Gram row sum; mu_g and nu_g come
# from power iterations stopped at a relative eigenvalue change of 1e-10.
NU_RTOL, GROUP_RTOL = 1e-12, 1e-9
TIE_ATOL = 1e-12  # detect: orderings equal up to rounding of the scores

# The host's speed moves by up to about 1.5 times (see probe.py), so the
# end-to-end times are read at the reference host speed: op_p10_ref_ms is the
# 10th percentile of the operation times times REF_S / (10th percentile of the
# probe times), and setup_s the median set-up time times REF_S / (median probe
# time). The raw figures are in the detail line.
END_TO_END = (("setup_s", "s"), ("op_p10_ref_ms", "ms"), ("peak_rss_mb", "MB"))
# the host-speed probe of each workload, timed for PROBE_SHARE of the
# operations' time; BENCHMARK.json runs all workloads but coherence_kerdock5,
# whose few long operations no probe follows closely enough
PROBE_OF = {"simulate_tone": "simulate", "simulate_group": "simulate",
            "coherence_kerdock5": "detect", "detect_stream": "detect"}
PROBE_SHARE = 0.05

# per-layer timing metric -> (unit, span name); the value is the median span duration
LAYER_TIMES = {
    "core.substream_us": ("us", "core.substream"),
    "core.hermitian_apply_us": ("us", "core.hermitian_apply"),
    "core.write_cmat_s": ("s", "core.write_cmat"),
    "core.read_cmat_s": ("s", "core.read_cmat"),
    "matrices.kerdock_codewords_s": ("s", "matrices.kerdock_codewords"),
    "matrices.build_kerdock_s": ("s", "matrices.build_kerdock"),
    "experiments.gen_tone_signal_us": ("us", "experiments.gen_tone_signal"),
    "experiments.gen_group_signal_us": ("us", "experiments.gen_group_signal"),
    "experiments.gen_noise_us": ("us", "experiments.gen_noise"),
    "experiments.measure_us": ("us", "experiments.measure"),
    "experiments.evaluate_detection_us.zd_ost": ("us", "experiments.evaluate_detection.zd_ost"),
    "experiments.evaluate_detection_us.ost_topk": ("us", "experiments.evaluate_detection.ost_topk"),
    "experiments.evaluate_detection_us.ost_topk_full_support":
        ("us", "experiments.evaluate_detection.ost_topk_full_support"),
    "experiments.evaluate_detection_us.zd_groth": ("us", "experiments.evaluate_detection.zd_groth"),
    "experiments.aggregate_s": ("s", "experiments.aggregate"),
    "experiments.write_report_csv_s": ("s", "experiments.write_report_csv"),
    "experiments.emit_plotdata_s": ("s", "experiments.emit_plotdata"),
    "detectors.zd_ost_us": ("us", "detectors.zd_ost"),
    "detectors.ost_topk_us": ("us", "detectors.ost_topk"),
    "detectors.zd_groth_us": ("us", "detectors.zd_groth"),
    "coherence.worst_case_coherence_s": ("s", "coherence.worst_case_coherence"),
    "coherence.coherence_argmax_pair_s": ("s", "coherence.coherence_argmax_pair"),
    "coherence.average_coherence_s": ("s", "coherence.average_coherence"),
    "coherence.group_coherences_s": ("s", "coherence.group_coherences"),
    "coherence.stoc_estimate_s": ("s", "coherence.stoc_estimate"),
}
# per-operation counts -> unit; each run labels them measured or computed
COUNTS = {
    "experiments.trials": "count",
    "experiments.detections": "count",
    "core.substreams": "count",
    "core.cmat_bytes": "bytes",
    "coherence.spectral_norm_calls": "count",
    "coherence.gram_bytes_computed": "bytes",
}
OVERHEAD = ("trace.overhead_frac", "ratio")
UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
# root span of one traced operation, per workload
OP_ROOTS = {"simulate_tone": ("cli.simulate",), "simulate_group": ("cli.simulate",),
            "coherence_kerdock5": ("cli.coherence",),
            "detect_stream": ("bench.detect_pair",)}


class Run:
    """State of one workload run: inputs, timings, spans and output checks."""

    def __init__(self, name, seed, seconds, trace, sizes, reference, work):
        self.name, self.seed, self.seconds, self.sizes = name, seed, seconds, sizes
        self.trace = trace
        self.tracer = Tracer(f"{name}-{seed}-{os.getpid()}-{time.time_ns()}") if trace else NullTracer()
        self.reference = reference.get(sizes.name, {}).get(name, {})
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_s: list[float] = []
        self.op_s: list[float] = []          # untraced operations
        self.probe_s: list[float] = []       # host-speed probes between them
        self.counts: dict[str, tuple[int, str]] = {}   # name -> (value, "measured"|"computed")
        self.detail: dict[str, tuple[float, str]] = {}  # issue-named end-to-end metrics
        self.sha256: dict[str, str] = {}
        self.tour_matrix: MeasurementMatrix | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def measure(run: Run, op, traced_op, setup) -> None:
    """Call op until --seconds have passed, at least once; op appends its own
    duration to run.op_s. A traced run alternates op with traced_op, so that
    both see the same stretches of host speed. After each step the workload's
    probe runs until it has taken PROBE_SHARE of the steps' time. The remaining
    set-ups of SETUP_REPS are timed at even intervals. Neither probes nor
    set-ups count in the window."""
    step = (lambda: (op(), traced_op())) if run.trace else op
    name = PROBE_OF[run.name]
    gap = run.seconds / SETUP_REPS[run.name]
    owed = 0.0
    start = time.perf_counter()
    paused = 0.0
    while True:
        before = time.perf_counter()
        step()
        owed += (time.perf_counter() - before) * PROBE_SHARE
        after = time.perf_counter()
        while owed > 0 or not run.probe_s:
            run.probe_s.append(probe.timed(name))
            owed -= run.probe_s[-1]
        paused += time.perf_counter() - after
        elapsed = time.perf_counter() - start - paused
        if elapsed >= run.seconds:
            break
        if len(run.setup_s) < SETUP_REPS[run.name] and elapsed >= gap * len(run.setup_s):
            before = time.perf_counter()
            setup()
            paused += time.perf_counter() - before


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def build(tr, kerdock_m: int, group_size) -> MeasurementMatrix:
    m = tr.call("matrices.build_kerdock", build_kerdock, KerdockSpec(kerdock_m))
    if group_size is not None:
        m = tr.call("matrices.attach_groups", attach_groups, m, group_size)
    return m


def timed_setup(run: Run, fn, kerdock_m: int) -> MeasurementMatrix:
    """Run the workload's set-up once, time it and return its matrix. Every
    set-up after the first must give the same matrix bytes.

    A traced set-up also times the codeword step of the Kerdock build alone."""
    tr = run.tracer
    with tr.span("setup"):
        if tr.enabled:
            tr.call("matrices.kerdock_codewords", kerdock_codewords, KerdockSpec(kerdock_m))
        start = time.perf_counter()
        m = fn()
        run.setup_s.append(time.perf_counter() - start)
    digest = sha256(m.matrix)
    if "measurement_matrix" in run.sha256:
        run.check(digest == run.sha256["measurement_matrix"], "set-up repeats the matrix")
    else:
        run.sha256["measurement_matrix"] = digest
    return m


# ---------------------------------------------------------------------------
# simulate_tone, simulate_group


def config_text(fields: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in fields.items())


def simulate_config_text(name: str, sizes: Sizes, seed: int) -> str:
    return config_text({**SIM_COMMON, **SIMULATE[name][1], "trials": sizes.sim_trials,
                        "master_seed": seed})


def _substream(seed: int, k: int, t: int):
    return RngSpec(seed).substream(k, t)


def _measure(a, x, w):
    return a @ x + w


def _cell(config, k: int, tg: int, det: str, acc) -> BatchCell:
    # the aggregation of experiments.run_batch, from the same public pieces
    n = config.trials
    fdp, zf, zf_n, hits = acc
    fdp_lo, fdp_hi = wilson_interval(fdp, n)
    if zf_n:
        zf_mean = zf / zf_n
        zf_lo, zf_hi = wilson_interval(zf, zf_n)
    else:
        zf_mean = zf_lo = zf_hi = float("nan")
    misses = n - hits
    pe_lo, pe_hi = wilson_interval(misses, n)
    return BatchCell(
        k=k, theta=effective_theta(config, det, tg), theta_grid=tg, detector=det, trials=n,
        fdp_mean=fdp / n, fdp_lo=fdp_lo, fdp_hi=fdp_hi,
        zero_fraction_mean=zf_mean, zero_fraction_lo=zf_lo, zero_fraction_hi=zf_hi,
        zero_fraction_trials=zf_n, pe=misses / n, pe_lo=pe_lo, pe_hi=pe_hi,
    )


def replay_batch(tr, config, m=None, counts=None) -> TrialBatchReport:
    """experiments.run_batch's trial loop, rebuilt from public calls so that
    each call can carry a span."""
    with tr.span("experiments.run_batch"):
        if m is None:
            m = build(tr, config.kerdock_m, config.group_size)
        law = config.amplitude_law
        combos = [(det, tg, effective_theta(config, det, tg))
                  for det in config.detectors for tg in config.theta_grid]
        sums = {}
        trials = 0
        for k in config.k_grid:
            for det, tg, _ in combos:
                sums[(k, tg, det)] = [0.0, 0.0, 0, 0]
            for t in range(config.trials):
                rng = tr.call("core.substream", _substream, config.master_seed, k, t)
                if config.signal_model == "group":
                    signal = tr.call("experiments.gen_group_signal", gen_group_signal,
                                     m.groups.q, m.groups.r, k, law, rng)
                else:
                    signal = tr.call("experiments.gen_tone_signal", gen_tone_signal, m.p, k, law, rng)
                w = tr.call("experiments.gen_noise", gen_noise, m.n, config.sigma2,
                            config.noise_convention, rng)
                y = tr.call("experiments.measure", _measure, m.matrix, signal.x, w)
                for det, tg, eff in combos:
                    met = tr.call("experiments.evaluate_detection." + det, evaluate_detection,
                                  det, eff, m, y, signal)
                    acc = sums[(k, tg, det)]
                    acc[0] += met.fdp
                    if not math.isnan(met.zero_fraction):
                        acc[1] += met.zero_fraction
                        acc[2] += 1
                    acc[3] += bool(met.hit)
                trials += 1
        with tr.span("experiments.aggregate"):
            cells = tuple(_cell(config, k, tg, det, sums[(k, tg, det)])
                          for k in config.k_grid for tg in config.theta_grid
                          for det in config.detectors)
        if counts is not None:
            counts["experiments.trials"] = (trials, "measured")
            counts["core.substreams"] = (trials, "measured")
            counts["experiments.detections"] = (trials * len(combos), "measured")
        return TrialBatchReport(config=config, p=m.p,
                                q=m.groups.q if m.groups is not None else None, cells=cells)


def replay_simulate(tr, cfg_path: Path, out_dir: Path, figure: str, m=None, counts=None) -> None:
    """`zerodetect simulate --figure` rebuilt from public calls."""
    with tr.span("cli.simulate"):
        config = tr.call("experiments.parse_experiment_config", parse_experiment_config, cfg_path)
        report = replay_batch(tr, config, m, counts)
        out_dir.mkdir(parents=True, exist_ok=True)
        tr.call("experiments.write_report_csv", write_report_csv, report, out_dir / "report.csv")
        tr.call("experiments.emit_plotdata", emit_plotdata, report, figure, out_dir)


def report_rows(out_dir: Path) -> list[str]:
    return (out_dir / "report.csv").read_text(encoding="ascii").splitlines()


def figures_match(out_dir: Path, figure: str, rows: list[str]) -> bool:
    """Every curve listed in the figure manifest agrees with report.csv."""
    header = rows[0].split(",")
    cells = {}
    for line in rows[1:]:
        c = dict(zip(header, line.split(",")))
        cells[(c["detector"], c["theta"], c["k"])] = c
    columns = {"pe": ("pe", "pe_lo", "pe_hi"), "fdp": ("fdp_mean", "fdp_lo", "fdp_hi")}
    manifest = (out_dir / f"fig{figure}_manifest.csv").read_text(encoding="ascii").splitlines()
    if len(manifest) < 2:
        return False
    for entry in manifest[1:]:
        file, det, theta, metric = entry.split(",")
        curve = (out_dir / file).read_text(encoding="ascii").splitlines()[1:]
        for point in curve:
            k, *values = point.split(",")
            cell = cells.get((det, theta, k))
            if cell is None or values != [cell[col] for col in columns[metric]]:
                return False
    return True


def compare_rows(run: Run, got: list[str], expected: list[str], what: str) -> None:
    run.check(got[:1] == expected[:1] and len(got) == len(expected), f"{what}: report shape")
    for g, e in zip(got[1:], expected[1:]):
        run.check(g == e, f"{what}: cell {e.split(',', 4)[:4]}")


def run_simulate(run: Run) -> None:
    figure = SIMULATE[run.name][0]
    cfg_path = run.work / "experiment.cfg"
    cfg_path.write_text(simulate_config_text(run.name, run.sizes, run.seed), encoding="ascii")
    tr = run.tracer

    def setup():
        config = tr.call("experiments.parse_experiment_config", parse_experiment_config, cfg_path)
        return build(tr, config.kerdock_m, config.group_size)

    m = timed_setup(run, setup, SIM_COMMON["kerdock_m"])
    run.tour_matrix = m if m.groups is not None else attach_groups(m, TOUR_GROUP_SIZE)

    out = run.work / "cli"
    argv = ["simulate", "--config", str(cfg_path), "--out-dir", str(out), "--figure", figure]
    outputs: list[list[str]] = []

    def op():
        start = time.perf_counter()
        rc = cli.main(argv)
        run.op_s.append(time.perf_counter() - start)
        run.check(rc == 0, "simulate exit code")
        rows = report_rows(out)
        run.check(figures_match(out, figure, rows), "figure CSVs agree with report.csv")
        outputs.append(rows)

    # the replay is the traced operation of a traced run and the oracle of both
    replay_dir = run.work / "replay"
    replays: list[list[str]] = []

    def traced_op():
        replay_simulate(tr, cfg_path, replay_dir, figure, counts=run.counts)
        replays.append(report_rows(replay_dir))

    measure(run, op, traced_op, lambda: timed_setup(run, setup, SIM_COMMON["kerdock_m"]))
    if not run.trace:
        traced_op()
    for i, rows in enumerate(replays):
        compare_rows(run, rows, outputs[0], f"replay {i} vs run_batch 0")
    for i, rows in enumerate(outputs[1:], start=1):
        compare_rows(run, rows, outputs[0], f"run_batch {i} vs run_batch 0")
    expected = run.reference.get("report_csv") if run.seed == DEFAULT_SEED else None
    if expected is not None:
        for i, rows in enumerate(outputs):
            compare_rows(run, rows, expected, f"run_batch {i} vs reference")

    cells = len(outputs[0]) - 1
    detections = run.counts["experiments.detections"][0]
    run.detail["detections_per_s"] = (detections / statistics.median(run.op_s), "1/s")
    run.detail["cells"] = (cells, "count")


# ---------------------------------------------------------------------------
# coherence_kerdock5


def gaussian_z(k: int, seed: int) -> np.ndarray:
    # the `gaussian-seeded` probe vector of the coherence CLI
    g = RngSpec(seed, stream_id=1).generator()
    parts = g.standard_normal((2, k))
    return (parts[0] + 1j * parts[1]) / math.sqrt(2)


def _f(v) -> str:
    return "{:.17g}".format(float(v))


def replay_coherence(tr, path: Path, out: Path, trials: int, seed: int) -> str:
    """`zerodetect coherence --stoc` rebuilt from public calls; returns the CSV text."""
    with tr.span("cli.coherence"):
        entries, meta = tr.call("core.read_cmat", read_cmat, path)
        m = tr.call("core.MeasurementMatrix", MeasurementMatrix, entries)
        m = tr.call("matrices.attach_groups", attach_groups, m, int(meta["group_size"]))
        mu = tr.call("coherence.worst_case_coherence", worst_case_coherence, m)
        nu = tr.call("coherence.average_coherence", average_coherence, m)
        i, j = tr.call("coherence.coherence_argmax_pair", coherence_argmax_pair, m)
        mu_g, nu_g, (gi, gj) = tr.call("coherence.group_coherences", group_coherences, m)
        z = gaussian_z(STOC_K, seed)
        est = tr.call("coherence.stoc_estimate", stoc_estimate, m, STOC_K, STOC_EPS, z,
                      trials, RngSpec(seed), "gaussian-seeded")
        text = "\n".join([
            "stat,value,arg_i,arg_j",
            f"mu,{_f(mu)},{i},{j}", f"nu,{_f(nu)},,",
            f"mu_group,{_f(mu_g)},{gi},{gj}", f"nu_group,{_f(nu_g)},,",
            f"stoc_delta_hat,{_f(est.delta_hat)},,", f"stoc_violations,{est.violations},,",
            f"stoc_trials,{est.trials},,", f"stoc_k,{est.k},,",
            f"stoc_epsilon,{_f(est.epsilon)},,", f"stoc_z_strategy,{est.z_strategy},,",
        ]) + "\n"
        out.write_text(text, encoding="ascii")
    return text


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def check_coherence_csv(run: Run, text: str, m: MeasurementMatrix) -> None:
    rows = {r.split(",")[0]: r.split(",")[1:] for r in text.splitlines()[1:]}
    a, ref = m.matrix, run.reference
    mu = float(rows["mu"][0])
    run.check(mu == 1.0 / math.sqrt(m.n), "mu equals 1/sqrt(n) exactly")
    i, j = int(rows["mu"][1]), int(rows["mu"][2])
    run.check(i != j and abs(abs(np.vdot(a[:, i - 1], a[:, j - 1])) - mu) <= 1e-12,
              "mu is attained by the reported column pair")
    run.check(_close(float(rows["nu"][0]), ref["nu"], NU_RTOL), "nu matches the reference")
    for stat in ("mu_group", "nu_group"):
        run.check(_close(float(rows[stat][0]), ref[stat], GROUP_RTOL), f"{stat} matches the reference")
    gi, gj = int(rows["mu_group"][1]), int(rows["mu_group"][2])
    blk_i, blk_j = m.groups.block(gi), m.groups.block(gj)
    pair_norm = np.linalg.norm(a[:, blk_i].conj().T @ a[:, blk_j], ord=2)
    run.check(gi != gj and _close(float(rows["mu_group"][0]), pair_norm, GROUP_RTOL),
              "mu_group is attained by the reported group pair")
    violations, trials = int(rows["stoc_violations"][0]), int(rows["stoc_trials"][0])
    run.check(trials == run.sizes.stoc_trials and int(rows["stoc_k"][0]) == STOC_K
              and float(rows["stoc_epsilon"][0]) == STOC_EPS
              and float(rows["stoc_delta_hat"][0]) == violations / trials,
              "StOC rows echo the request")
    if run.seed == DEFAULT_SEED:
        run.check(violations == ref["stoc_violations"], "StOC violations match the reference")


def run_coherence(run: Run) -> None:
    tr, sizes = run.tracer, run.sizes
    spec = KerdockSpec(sizes.kerdock_m)
    path = run.work / "kerdock.cmat"

    def setup():  # the `gen-matrix --family kerdock --group-size` path
        m = build(tr, sizes.kerdock_m, sizes.group_size)
        meta = {**kerdock_meta(spec), "group_size": str(sizes.group_size)}
        tr.call("core.write_cmat", write_cmat, path, m, meta)
        return m

    m = timed_setup(run, setup, sizes.kerdock_m)
    run.tour_matrix = m
    run.sha256["cmat_file"] = hashlib.sha256(path.read_bytes()).hexdigest()

    out = run.work / "coherence.csv"
    stoc = f"{STOC_K},{STOC_EPS},{sizes.stoc_trials},gaussian-seeded"
    argv = ["coherence", "--matrix", str(path), "--stoc", stoc, "--seed", str(run.seed),
            "--out", str(out)]
    texts: list[str] = []

    def op():
        start = time.perf_counter()
        rc = cli.main(argv)
        run.op_s.append(time.perf_counter() - start)
        run.check(rc == 0, "coherence exit code")
        texts.append(out.read_text(encoding="ascii"))

    def traced_op():
        text = replay_coherence(tr, path, run.work / "replay.csv", sizes.stoc_trials, run.seed)
        run.check(text == texts[0], "traced coherence equals the CLI output")

    def setup_again():
        timed_setup(run, setup, sizes.kerdock_m)
        run.check(hashlib.sha256(path.read_bytes()).hexdigest() == run.sha256["cmat_file"],
                  "set-up repeats the CMAT file")

    measure(run, op, traced_op, setup_again)
    check_coherence_csv(run, texts[0], m)
    for i, text in enumerate(texts[1:], start=1):
        run.check(text == texts[0], f"coherence run {i} repeats run 0 byte for byte")

    q, p = m.groups.q, m.p
    run.counts["core.cmat_bytes"] = (path.stat().st_size, "measured")
    run.counts["core.substreams"] = (sizes.stoc_trials, "computed")
    run.counts["coherence.spectral_norm_calls"] = (q * (q - 1) // 2 + q, "computed")
    run.counts["coherence.gram_bytes_computed"] = (3 * p * p * 16, "computed")
    run.detail["report_s"] = (statistics.median(run.op_s), "s")


# ---------------------------------------------------------------------------
# detect_stream


def detect_inputs(m: MeasurementMatrix, seed: int, pool: int) -> np.ndarray:
    """Columns y = A x + w: DETECT_K-sparse tones with magnitudes in [1, 1000]."""
    rng = np.random.default_rng(seed)
    n, p = m.matrix.shape
    x = np.zeros((p, pool), dtype=np.complex128)
    for col in range(pool):
        support = rng.choice(p, size=DETECT_K, replace=False)
        x[support, col] = rng.uniform(1.0, 1000.0, DETECT_K) * np.exp(
            1j * rng.uniform(0.0, 2.0 * np.pi, DETECT_K))
    w = math.sqrt(DETECT_SIGMA2 / 2) * (rng.standard_normal((n, pool))
                                        + 1j * rng.standard_normal((n, pool)))
    return m.matrix @ x + w


def detect_oracle(m: MeasurementMatrix, y: np.ndarray):
    """Scores and stable-argsort selections for every column of y, computed at once."""
    s = np.abs(m.matrix.conj().T @ y)
    q, r = m.groups.q, m.groups.r
    g = np.sqrt((s * s).reshape(q, r, -1).sum(axis=1))
    ost = np.argsort(s, axis=0, kind="stable")[:DETECT_THETA_OST].T
    groth = np.argsort(g, axis=0, kind="stable")[:DETECT_THETA_GROTH].T
    return (s, ost), (g, groth)


def selection_ok(ranking, scores: np.ndarray, expected: np.ndarray) -> bool:
    got = np.asarray(ranking) - 1
    if np.array_equal(got, expected):
        return True
    # equal only up to rounding: both orders pick scores that agree to TIE_ATOL
    return bool(np.all(np.abs(scores[got] - scores[expected]) <= TIE_ATOL * scores.max()))


def run_detect(run: Run) -> None:
    tr, sizes = run.tracer, run.sizes

    def setup():
        return build(tr, sizes.kerdock_m, sizes.group_size)

    m = timed_setup(run, setup, sizes.kerdock_m)
    run.tour_matrix = m
    y = detect_inputs(m, run.seed, sizes.pool)
    ys = [np.ascontiguousarray(y[:, i]) for i in range(sizes.pool)]
    (s, ost_sel), (g, groth_sel) = detect_oracle(m, y)
    calls = [(zd_ost, DETECT_THETA_OST, s, ost_sel), (zd_groth, DETECT_THETA_GROTH, g, groth_sel)]
    names = ("detectors.zd_ost", "detectors.zd_groth")

    call_s: list[float] = []  # each detector call of the untraced operations

    def make_op(traced: bool):
        ops_made = 0

        def op():  # one operation: zd_ost, then zd_groth, on the next vector of the pool
            nonlocal ops_made
            col, ops_made = ops_made % sizes.pool, ops_made + 1
            results = []
            with tr.span("bench.detect_pair") if traced else nullcontext():
                for name, (fn, theta, _, _) in zip(names, calls):
                    if traced:
                        results.append(tr.call(name, fn, ys[col], m, theta))
                    else:
                        start = time.perf_counter()
                        results.append(fn(ys[col], m, theta))
                        call_s.append(time.perf_counter() - start)
            if not traced:
                run.op_s.append(sum(call_s[-2:]))
            for name, res, (_, _, scores, sel) in zip(names, results, calls):
                run.check(selection_ok(res.ranking, scores[:, col], sel[col]),
                          f"{name} selection on vector {col}")
        return op

    measure(run, make_op(False), make_op(True), lambda: timed_setup(run, setup, sizes.kerdock_m))
    run.detail["detections_per_s"] = (len(call_s) / sum(call_s), "1/s")
    run.detail["detect_p50_us"] = (statistics.median(call_s) * 1e6, "us")
    run.detail["detect_p99_us"] = (float(np.percentile(call_s, 99)) * 1e6, "us")
    run.detail["detect_calls"] = (len(call_s), "count")


RUNNERS = {"simulate_tone": run_simulate, "simulate_group": run_simulate,
           "coherence_kerdock5": run_coherence, "detect_stream": run_detect}


# ---------------------------------------------------------------------------
# layer tour: per-layer timings a workload's own path does not produce, taken
# on the workload's matrix so that every traced run reports every metric


def tour(run: Run) -> None:
    tr, m = run.tracer, run.tour_matrix
    present = tr.names()
    tour_dir = run.work / "tour"
    tour_dir.mkdir()
    q, r = m.groups.q, m.groups.r
    # the matrix is passed in, so the config's matrix keys are not used
    base_cfg = {"sigma2": 500, "trials": 4, "master_seed": run.seed}
    tone_k = m.n // 2

    def detectors():
        for t in range(16):
            rng = _substream(run.seed, tone_k, t)
            x = gen_tone_signal(m.p, tone_k, UniformAmplitude(1.0, 1000.0), rng).x
            y = m.matrix @ x + gen_noise(m.n, 500.0, "total", rng)
            tr.call("core.hermitian_apply", hermitian_apply, m, y)
            tr.call("detectors.zd_ost", zd_ost, y, m, 1)
            tr.call("detectors.ost_topk", ost_topk, y, m, 1)
            tr.call("detectors.zd_groth", zd_groth, y, m, 1)

    def replay(signal_fields: dict, figure: str, name: str):
        def step():
            path = tour_dir / f"{name}.cfg"
            path.write_text(config_text({**base_cfg, **signal_fields}), encoding="ascii")
            replay_simulate(tr, path, tour_dir / name, figure, m)
        return step

    def cmat():
        path = tour_dir / "tour.cmat"
        tr.call("core.write_cmat", write_cmat, path, m)
        tr.call("core.read_cmat", read_cmat, path)

    def coherence():
        tr.call("coherence.worst_case_coherence", worst_case_coherence, m)
        tr.call("coherence.coherence_argmax_pair", coherence_argmax_pair, m)
        tr.call("coherence.average_coherence", average_coherence, m)
        tr.call("coherence.group_coherences", group_coherences, m)
        tr.call("coherence.stoc_estimate", stoc_estimate, m, STOC_K, STOC_EPS,
                gaussian_z(STOC_K, run.seed), 20, RngSpec(run.seed))

    steps = [
        (("core.hermitian_apply", "detectors.zd_ost", "detectors.ost_topk", "detectors.zd_groth"),
         detectors),
        (("core.substream", "experiments.gen_tone_signal", "experiments.gen_noise",
          "experiments.measure", "experiments.aggregate", "experiments.write_report_csv",
          "experiments.emit_plotdata", "experiments.evaluate_detection.zd_ost",
          "experiments.evaluate_detection.ost_topk",
          "experiments.evaluate_detection.ost_topk_full_support"),
         replay({"k_grid": tone_k, "theta_grid": 1,
                 "detectors": "zd_ost,ost_topk,ost_topk_full_support,zd_groth"}, "3", "tone")),
        (("experiments.gen_group_signal", "experiments.evaluate_detection.zd_groth"),
         replay({"signal_model": "group", "group_size": r, "k_grid": min(2, q - 1),
                 "theta_grid": 1, "detectors": "zd_groth,zd_ost"}, "4a", "group")),
        (("core.write_cmat", "core.read_cmat"), cmat),
        (("coherence.worst_case_coherence", "coherence.coherence_argmax_pair",
          "coherence.average_coherence", "coherence.group_coherences",
          "coherence.stoc_estimate"), coherence),
    ]
    with tr.span("tour"):
        for names, step in steps:
            if not present.issuperset(names):
                step()


# ---------------------------------------------------------------------------
# results


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded (None if unknown)."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint(run: Run) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
        "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "workload_seed": run.seed,
        "sizes": run.sizes.name, "matrix_sha256": run.sha256,
    }


def layer_metrics(run: Run) -> tuple[dict, dict]:
    """(per-layer metrics, per-layer self seconds per traced operation)."""
    spans = run.tracer.spans
    tour_roots = roots(spans, "tour")
    main_roots = [i for i, s in enumerate(spans) if s[3] is None and s[0] != "tour"]
    main = durations_by_name(spans, in_trees(spans, main_roots))
    toured = durations_by_name(spans, in_trees(spans, tour_roots))
    metrics = {}
    for metric, (unit, span) in LAYER_TIMES.items():
        values = main.get(span) or toured.get(span)
        if not values:
            raise RuntimeError(f"no span {span!r} recorded for {metric}")
        metrics[metric] = {"value": statistics.median(values) * UNIT_SCALE[unit], "unit": unit}
    for metric, unit in COUNTS.items():
        metrics[metric] = {"value": run.counts.get(metric, (0, "measured"))[0], "unit": unit}
    op_roots = [i for name in OP_ROOTS[run.name] for i in roots(spans, name)]
    traced = statistics.fmean((spans[i][2] - spans[i][1]) * 1e-9 for i in op_roots)
    metrics[OVERHEAD[0]] = {"value": traced / statistics.fmean(run.op_s) - 1.0, "unit": OVERHEAD[1]}
    self_s = {layer: v / len(op_roots)
              for layer, v in sorted(layer_self_seconds(spans, op_roots).items())}
    return metrics, self_s


def run_workload(name: str, seed: int = DEFAULT_SEED, seconds: float = DEFAULT_SECONDS,
                 trace: bool = False, sizes: Sizes = FULL, reference: dict | None = None):
    """Run one workload in this process; returns (detail, result, tracer)."""
    if reference is None:
        reference = json.loads(REFERENCE_PATH.read_text(encoding="ascii"))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        run = Run(name, seed, seconds, trace, sizes, reference, work)
        RUNNERS[name](run)
        if trace:
            tour(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(run.setup_s)
    error_rate = len(run.failures) / run.attempted
    op_min_ms, op_p10_ms, op_p50_ms = (np.percentile(run.op_s, [0, 10, 50]) * 1e3).tolist()
    probe_p10_s, probe_p50_s = np.percentile(run.probe_s, [10, 50]).tolist()
    ref_s = probe.REF_S[PROBE_OF[name]]
    op_p10_ref_ms = op_p10_ms * ref_s / probe_p10_s
    setup_ref_s = setup_s * ref_s / probe_p50_s
    detail = {
        "workload": name, "trace": int(trace), "fingerprint": fingerprint(run),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {
            "setup_s": (setup_ref_s, "s"), "op_p10_ref_ms": (op_p10_ref_ms, "ms"),
            "setup_raw_s": (setup_s, "s"), "op_p10_ms": (op_p10_ms, "ms"),
            "op_min_ms": (op_min_ms, "ms"), "op_p50_ms": (op_p50_ms, "ms"),
            "operations": (len(run.op_s), "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "probe_p10_ms": (probe_p10_s * 1e3, "ms"), "probe_p50_ms": (probe_p50_s * 1e3, "ms"),
            "probes": (len(run.probe_s), "count"),
            "error_rate": (error_rate, "ratio"), **run.detail}.items()},
        "counts": {label: {k: {"value": v, "unit": COUNTS[k]}
                           for k, (v, how) in sorted(run.counts.items()) if how == label}
                   for label in ("measured", "computed")},
        "checks": {"attempted": run.attempted, "failed": len(run.failures),
                   "first_failures": run.failures[:10]},
    }
    if trace:
        metrics, self_s = layer_metrics(run)
        detail["self_s_per_op"] = self_s
        detail["untraced_op_mean_s"] = statistics.fmean(run.op_s)
        detail["traced_self_sum_s"] = sum(self_s.values())
    else:
        values = {"setup_s": setup_ref_s, "op_p10_ref_ms": op_p10_ref_ms, "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    result = {"correct": not run.failures and run.attempted > 0, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    return detail, result, run.tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":  # one process per workload, one after another
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd, check=False).returncode)
        return status

    detail, result, tracer = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({**detail, "result": result}, indent=1),
                                          encoding="ascii")
    if args.trace:
        tracer.write(RESULTS / f"{stem}-spans.json")
    print(json.dumps(detail), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
