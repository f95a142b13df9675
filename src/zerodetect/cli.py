"""Command-line entry point: gen-matrix, coherence, detect, bounds, simulate, stoc.

Output is machine-first (CSV files); human summaries appear only with
--verbose. Exit codes: 0 success, 1 validation error, 2 I/O error. Errors are
printed to stderr as `ERROR <code>: <message>`.
"""

import argparse
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .coherence import coherence_report, stoc_estimate
from .core import MeasurementMatrix, RngSpec, parse_cmat_entry, write_cmat
from .detectors import zd_groth, zd_ost
from .errors import BadValue, CmatFormatError, ZeroDetectError
from .experiments import (
    FIGURE_IDS,
    _fmt,
    emit_plotdata,
    parse_experiment_config,
    read_flat_config,
    run_batch,
    write_report_csv,
)
from .matrices import (
    KerdockSpec,
    attach_groups,
    build_bernoulli,
    build_kerdock,
    kerdock_meta,
    load_matrix,
)
from . import theory

Z_STRATEGIES = ("e1", "flat", "gaussian-seeded")


class _UsageError(BadValue):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route through our codes
        raise _UsageError(message)


def _write_csv(path: str, header: str, rows: list[str]) -> None:
    Path(path).write_text("\n".join([header] + rows) + "\n", encoding="ascii")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_matrix(args) -> int:
    if args.family == "kerdock":
        if args.m is None:
            raise BadValue("--family kerdock needs --m")
        if args.rows is not None or args.cols is not None:
            raise BadValue("--rows/--cols apply only to --family bernoulli")
        spec = KerdockSpec(args.m)
        m = build_kerdock(spec)
        meta = kerdock_meta(spec)
    else:
        if args.rows is None or args.cols is None:
            raise BadValue("--family bernoulli needs --rows and --cols")
        m = build_bernoulli(args.rows, args.cols, RngSpec(args.seed))
        meta = {"family": "bernoulli", "rows": str(args.rows),
                "cols": str(args.cols), "seed": str(args.seed)}
    if args.group_size is not None:
        m = attach_groups(m, args.group_size)
        meta["group_size"] = str(args.group_size)
    write_cmat(args.out, m, meta)
    if args.verbose:
        print(f"wrote {m.n} x {m.p} {args.family} matrix to {args.out}")
    return 0


def _build_z(strategy: str, k: int, seed: int) -> np.ndarray:
    if strategy == "e1":
        z = np.zeros(k, dtype=np.complex128)
        z[0] = 1.0
        return z
    if strategy == "flat":
        return np.full(k, 1.0 / math.sqrt(k), dtype=np.complex128)
    if strategy == "gaussian-seeded":
        g = RngSpec(seed, stream_id=1).generator()
        parts = g.standard_normal((2, k))
        return (parts[0] + 1j * parts[1]) / math.sqrt(2)
    raise BadValue(f"unknown z strategy {strategy!r} (choose from {Z_STRATEGIES})")


def _run_stoc(m: MeasurementMatrix, k: int, eps: float, trials: int,
              strategy: str, seed: int):
    z = _build_z(strategy, k, seed)
    return stoc_estimate(m, k, eps, z, trials, RngSpec(seed), z_strategy=strategy)


def _stoc_rows(est) -> list[str]:
    return [
        f"stoc_delta_hat,{_fmt(est.delta_hat)},,",
        f"stoc_violations,{est.violations},,",
        f"stoc_trials,{est.trials},,",
        f"stoc_k,{est.k},,",
        f"stoc_epsilon,{_fmt(est.epsilon)},,",
        f"stoc_z_strategy,{est.z_strategy},,",
    ]


def _cmd_coherence(args) -> int:
    m = load_matrix(args.matrix, args.group_size)
    rep = coherence_report(m)
    rows = [
        f"mu,{_fmt(rep.mu)},{rep.argmax_pair[0]},{rep.argmax_pair[1]}",
        f"nu,{_fmt(rep.nu)},,",
    ]
    if rep.mu_group is not None:
        gp = rep.argmax_group_pair
        rows.append(f"mu_group,{_fmt(rep.mu_group)},{gp[0]},{gp[1]}")
        rows.append(f"nu_group,{_fmt(rep.nu_group)},,")
    if args.stoc:
        parts = args.stoc.split(",")
        if len(parts) != 4:
            raise BadValue("--stoc expects k,eps,trials,zstrategy")
        try:
            k, eps, trials = int(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise BadValue(f"bad --stoc values: {args.stoc!r}") from exc
        est = _run_stoc(m, k, eps, trials, parts[3], args.seed)
        rows.extend(_stoc_rows(est))
    _write_csv(args.out, "stat,value,arg_i,arg_j", rows)
    if args.verbose:
        print(f"mu={rep.mu:.6g} nu={rep.nu:.6g} -> {args.out}")
    return 0


def _cmd_stoc(args) -> int:
    m = load_matrix(args.matrix, args.group_size)
    est = _run_stoc(m, args.k, args.eps, args.trials, args.zstrategy, args.seed)
    _write_csv(args.out, "stat,value,arg_i,arg_j", _stoc_rows(est))
    if args.verbose:
        print(f"delta_hat={est.delta_hat:.6g} ({est.violations}/{est.trials}) -> {args.out}")
    return 0


def _read_y(args, n: int) -> np.ndarray:
    if (args.y is None) == (args.yinline is None):
        raise BadValue("provide exactly one of --y FILE or --yinline CSV")
    if args.yinline is not None:
        tokens = [t for t in args.yinline.split(",") if t.strip()]
    else:
        tokens = Path(args.y).read_text(encoding="ascii").split()
    y = np.array([parse_cmat_entry(t) for t in tokens], dtype=np.complex128)
    if y.shape[0] != n:
        raise BadValue(f"measurement vector has {y.shape[0]} entries, matrix has n={n}")
    return y


def _cmd_detect(args) -> int:
    if args.theta < 1:
        raise BadValue("--theta must be >= 1")
    m = load_matrix(args.matrix, args.group_size)
    y = _read_y(args, m.n)
    result = zd_groth(y, m, args.theta) if args.group else zd_ost(y, m, args.theta)
    rows = [
        f"{rank},{index},{_fmt(result.scores[index - 1])}"
        for rank, index in enumerate(result.ranking, start=1)
    ]
    _write_csv(args.out, "rank,index,score", rows)
    if args.verbose:
        kind = "groups" if args.group else "columns"
        print(f"selected {args.theta} {kind} -> {args.out}")
    return 0


# bounds subcommand ----------------------------------------------------------

_BOUNDS_KEYS = {
    **dict.fromkeys(("n", "p", "k", "theta", "q", "r"), int),
    **dict.fromkeys(("sigma2", "a", "t", "c1", "c2", "c_mu", "c_nu", "mu0"), float),
    "x_magnitudes": (float,), "group_norms": (float,), "noise_convention": str,
}


def _parse_bounds_config(path: str) -> dict:
    cfg = read_flat_config(path, _BOUNDS_KEYS)
    for required in ("sigma2", "n", "p", "k"):
        if required not in cfg:
            raise BadValue(f"bounds config is missing required key {required!r}")
    return cfg


def _read_coherence_report(path: str) -> dict[str, float]:
    stats: dict[str, float] = {}
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0].split(",")[0] != "stat":
        raise CmatFormatError("coherence report must start with a stat,value header")
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) < 2:
            continue
        try:
            stats[parts[0]] = float(parts[1])
        except ValueError:
            continue  # non-numeric informational rows
    for required in ("mu", "nu"):
        if required not in stats:
            raise BadValue(f"coherence report lacks the {required!r} statistic")
    for name in ("mu", "nu", "mu_group", "nu_group"):
        if not math.isfinite(stats.get(name, 0.0)):
            raise BadValue(f"coherence report has a non-finite {name}: {stats[name]!r}")
    return stats


def _cmd_bounds(args) -> int:
    cfg = _parse_bounds_config(args.config)
    stats = _read_coherence_report(args.report)
    mu, nu = stats["mu"], stats["nu"]
    n, p, k = cfg["n"], cfg["p"], cfg["k"]
    theta = cfg.get("theta", 1)
    sigma = math.sqrt(cfg["sigma2"])
    convention = cfg.get("noise_convention", "total")
    prop = theory.coherence_property(mu, p, cfg.get("mu0")) if p >= 2 else None
    # the default is mu0_star = mu sqrt(log p), 0 at p = 1, which BoundParams rejects
    mu0 = cfg.get("mu0", 0.0 if prop is None else prop.mu0_star)
    constants = {key: cfg[key] for key in ("a", "t", "c1", "c2", "c_mu", "c_nu") if key in cfg}
    params = theory.BoundParams(mu0=mu0, sigma=sigma, **constants)

    rows = [f"mu,{_fmt(mu)},1", f"nu,{_fmt(nu)},1", f"mu0,{_fmt(mu0)},1"]
    sig_stats = None
    if "x_magnitudes" in cfg:
        sig_stats = theory.stats_from_magnitudes(cfg["x_magnitudes"], sigma, n, convention)
        rows.append(f"snr,{_fmt(sig_stats.snr)},1")
        rows.append(f"snr_min,{_fmt(sig_stats.snr_min)},1")
        eps = theory.epsilon0(sig_stats.snr_min, sig_stats.snr, p)
        rows.append(f"epsilon0,{_fmt(eps.value)},{_fmt(eps.hypothesis_ok)}")
        kb = theory.sparsity_bound(params, eps.value, nu, p)
        rows.append(f"k_bound,{_fmt(kb.value)},{_fmt(not kb.vacuous)}")
        pe = theory.pe_bound(params, eps.value, k, nu, p)
        rows.append(f"alpha,{_fmt(pe.alpha)},{_fmt(pe.valid)}")
        rows.append(f"pe_bound,{_fmt(pe.bound)},{_fmt(pe.valid)}")
        rows.append(f"pe_bound_log_factor,{_fmt(pe.bound_with_log_factor)},{_fmt(pe.valid)}")
        fdp = theory.fdp_bound_elementwise(sig_stats, params, mu, sig_stats.k, n, p, theta)
        rows.append(f"fdp_m,{fdp.m},1")
        rows.append(f"fdp_bound,{_fmt(fdp.bound)},1")
        rows.append(f"fdp_threshold,{_fmt(fdp.threshold)},1")

    q, r = cfg.get("q"), cfg.get("r")
    taus = theory.noise_thresholds(sigma, p, q, r)
    rows.append(f"tau_element,{_fmt(taus.element)},1")
    if taus.group is not None:
        rows.append(f"tau_group,{_fmt(taus.group)},1")
        chi2 = theory.chi2_tail_bound(taus.group, sigma, r, q)
        rows.append(f"chi2_bound_at_tau_group,{_fmt(chi2.value)},{_fmt(not chi2.clamped)}")
        consts = theory.group_guarantee_constants(params, r=r, k=k, n=n)
        rows.append(f"c3,{_fmt(consts.c3)},1")
        rows.append(f"gate_size,{_fmt(bool(consts.size_gate))},{_fmt(consts.size_gate is not None)}")
        rows.append(f"gate_mu,{_fmt(consts.mu_gate)},1")
        rows.append(f"gate_nu,{_fmt(consts.nu_gate)},1")
        if "group_norms" in cfg:
            mu_g = stats.get("mu_group", mu)
            gb = theory.fdp_bound_groupwise(
                np.sort(np.asarray(cfg["group_norms"]))[::-1],
                sigma, mu_g, q, r, consts.c3, theta,
            )
            rows.append(f"group_fdp_m,{gb.m},1")
            rows.append(f"group_fdp_bound,{_fmt(gb.bound)},1")
            rows.append(f"group_fdp_threshold,{_fmt(gb.threshold)},1")
            rows.append(f"group_success_floor,{_fmt(gb.success_floor)},1")
            rows.append(f"group_success_floor_product,{_fmt(gb.success_floor_product)},1")

    # the coherence conditions come last, so the rows above keep their positions
    if prop is not None:
        rows.append(f"mu0_star,{_fmt(prop.mu0_star)},{_fmt(prop.holds)}")
    if taus.group is not None and q >= 2 and {"mu_group", "nu_group"} <= stats.keys():
        gp = theory.group_coherence_property(params, stats["mu_group"], stats["nu_group"], q, r, n)
        rows.append(f"group_mu_bound,{_fmt(gp.mu_bound)},{_fmt(gp.mu_holds)}")
        rows.append(f"group_nu_bound,{_fmt(gp.nu_bound)},{_fmt(gp.nu_holds)}")

    _write_csv(args.out, "quantity,value,valid", rows)
    if args.verbose:
        print(f"wrote {len(rows)} quantities -> {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    config = parse_experiment_config(args.config)
    report = run_batch(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(report, out_dir / "report.csv")
    written = [out_dir / "report.csv"]
    if args.figure is not None:
        written.extend(emit_plotdata(report, args.figure, out_dir))
    if args.verbose:
        for cell in report.cells:
            print(f"k={cell.k} theta={cell.theta} {cell.detector}: "
                  f"fdp={cell.fdp_mean:.4f} pe={cell.pe:.4f}")
        print(f"wrote {len(written)} files under {out_dir}")
    return 0


# ---------------------------------------------------------------------------


@cache  # parse_args leaves the parser unchanged; each call gets a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--verbose", action="store_true",
                        help="print a human summary after the CSV output")

    parser = _Parser(prog="zerodetect",
                     description="Zero-support detection toolkit")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    g = sub.add_parser("gen-matrix", parents=[common],
                       help="construct a measurement matrix and write CMAT v1")
    g.add_argument("--family", required=True, choices=("kerdock", "bernoulli"))
    g.add_argument("--m", type=int, help="Kerdock degree (odd)")
    g.add_argument("--rows", type=int)
    g.add_argument("--cols", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--group-size", type=int)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen_matrix)

    c = sub.add_parser("coherence", parents=[common],
                       help="coherence statistics of a matrix file")
    c.add_argument("--matrix", required=True)
    c.add_argument("--group-size", type=int)
    c.add_argument("--stoc", metavar="K,EPS,TRIALS,ZSTRATEGY",
                   help="also run the orthogonality estimator")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_coherence)

    s = sub.add_parser("stoc", parents=[common],
                       help="empirical statistical-orthogonality estimate")
    s.add_argument("--matrix", required=True)
    s.add_argument("--group-size", type=int)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--zstrategy", default="flat", choices=Z_STRATEGIES)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_stoc)

    d = sub.add_parser("detect", parents=[common],
                       help="run a zero detector on one measurement vector")
    d.add_argument("--matrix", required=True)
    d.add_argument("--y", help="file of whitespace-separated complex entries")
    d.add_argument("--yinline", help="comma-separated complex entries")
    d.add_argument("--theta", type=int, required=True)
    d.add_argument("--group", action="store_true")
    d.add_argument("--group-size", type=int)
    d.add_argument("--out", required=True)
    d.set_defaults(func=_cmd_detect)

    b = sub.add_parser("bounds", parents=[common],
                       help="evaluate guarantee calculators from a config and a coherence report")
    b.add_argument("--config", required=True)
    b.add_argument("--report", required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_bounds)

    m = sub.add_parser("simulate", parents=[common],
                       help="run a Monte-Carlo batch from a config file")
    m.add_argument("--config", required=True)
    m.add_argument("--out-dir", required=True)
    m.add_argument("--figure", choices=FIGURE_IDS)
    m.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(list(argv))
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"ERROR BadValue: {exc}", file=sys.stderr)
        return 1
    except (CmatFormatError, OSError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ZeroDetectError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
