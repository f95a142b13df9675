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

from .coherence import STAT_HEADER, coherence_report, read_coherence_csv, stoc_estimate, stoc_probe
from .core import RngSpec, as_int, as_real, parse_cmat_entry, write_cmat, write_csv
from .detectors import zd_groth, zd_ost
from .errors import BadValue, CmatFormatError, ZeroDetectError
from .experiments import (
    FIGURE_IDS,
    emit_plotdata,
    parse_experiment_config,
    read_flat_config,
    run_batch,
    write_report_csv,
)
from .matrices import build_frame, load_matrix
from . import coherence, theory


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route through our codes
        raise BadValue(message)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_matrix(args) -> int:
    m, meta = build_frame(args.family, args.m, args.rows, args.cols, args.seed, args.group_size)
    write_cmat(args.out, m, meta)
    if args.verbose:
        print(f"wrote {m.n} x {m.p} {args.family} matrix to {args.out}")
    return 0


def _cmd_coherence(args) -> int:
    m = load_matrix(args.matrix, args.group_size)
    rep = coherence_report(m)
    rows = rep.csv_rows()
    if args.stoc:
        parts = args.stoc.split(",")
        if len(parts) != 4:
            raise BadValue("--stoc expects k,eps,trials,zstrategy")
        try:
            k, eps, trials = int(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise BadValue(f"bad --stoc values: {args.stoc!r}") from exc
        z = stoc_probe(parts[3], k, args.seed)
        rows += stoc_estimate(m, k, eps, z, trials, RngSpec(args.seed), parts[3]).csv_rows()
    write_csv(args.out, STAT_HEADER, rows)
    if args.verbose:
        print(f"mu={rep.mu:.6g} nu={rep.nu:.6g} -> {args.out}")
    return 0


def _cmd_stoc(args) -> int:
    m = load_matrix(args.matrix)
    z = stoc_probe(args.zstrategy, args.k, args.seed)
    est = stoc_estimate(m, args.k, args.eps, z, args.trials, RngSpec(args.seed), args.zstrategy)
    write_csv(args.out, STAT_HEADER, est.csv_rows())
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
    as_int(args.theta, "--theta", lo=1)
    m = load_matrix(args.matrix, args.group_size)
    y = _read_y(args, m.n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported as BadValue
        result = zd_groth(y, m, args.theta) if args.group else zd_ost(y, m, args.theta)
    rows = [(rank, index, result.scores[index - 1])
            for rank, index in enumerate(result.ranking, start=1)]
    write_csv(args.out, ("rank", "index", "score"), rows)
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
    as_real(cfg["sigma2"], "sigma2", lo=0, open=True)
    q, r = cfg.get("q"), cfg.get("r")
    if (q is None) != (r is None) or (q is not None and q * r != cfg["p"]):
        raise BadValue(f"q and r go together, with q * r = p; got q = {q}, r = {r}, p = {cfg['p']}")
    return cfg


def _cmd_bounds(args) -> int:
    cfg = _parse_bounds_config(args.config)
    rep = read_coherence_csv(args.report)
    mu, nu = rep.mu, rep.nu
    n, p, k = cfg["n"], cfg["p"], cfg["k"]
    theta = cfg.get("theta", 1)
    sigma = math.sqrt(cfg["sigma2"])
    convention = cfg.get("noise_convention", "total")
    prop = theory.coherence_property(mu, p, cfg.get("mu0")) if p >= 2 else None
    # the default is mu0_star = mu sqrt(log p), 0 at p = 1, which BoundParams rejects
    mu0 = cfg.get("mu0", 0.0 if prop is None else prop.mu0_star)
    constants = {key: cfg[key] for key in ("a", "t", "c1", "c2", "c_mu", "c_nu") if key in cfg}
    params = theory.BoundParams(mu0=mu0, sigma=sigma, **constants)

    # (quantity, value, valid) rows; a bool value or validity is written 0 or 1
    rows = [("mu", mu, 1), ("nu", nu, 1), ("mu0", mu0, 1)]
    if "x_magnitudes" in cfg:
        sig_stats = theory.stats_from_magnitudes(cfg["x_magnitudes"], sigma, n, convention)
        rows += [("snr", sig_stats.snr, 1), ("snr_min", sig_stats.snr_min, 1)]
        eps = theory.epsilon0(sig_stats.snr_min, sig_stats.snr, p)
        rows.append(("epsilon0", eps.value, eps.hypothesis_ok))
        kb = theory.sparsity_bound(params, eps.value, nu, p)
        rows.append(("k_bound", kb.value, not kb.vacuous))
        pe = theory.pe_bound(params, eps.value, k, nu, p)
        rows += [("alpha", pe.alpha, pe.valid), ("pe_bound", pe.bound, pe.valid),
                 ("pe_bound_log_factor", pe.bound_with_log_factor, pe.valid)]
        fdp = theory.fdp_bound_elementwise(sig_stats, params, mu, sig_stats.k, n, p, theta)
        rows += [("fdp_m", fdp.m, 1), ("fdp_bound", fdp.bound, 1),
                 ("fdp_threshold", fdp.threshold, 1)]

    q, r = cfg.get("q"), cfg.get("r")
    taus = theory.noise_thresholds(sigma, p, q, r)
    rows.append(("tau_element", taus.element, 1))
    if taus.group is not None:
        rows.append(("tau_group", taus.group, 1))
        chi2 = theory.chi2_tail_bound(taus.group, sigma, r, q)
        rows.append(("chi2_bound_at_tau_group", chi2.value, not chi2.clamped))
        consts = theory.group_guarantee_constants(params, r=r, k=k, n=n)
        rows += [("c3", consts.c3, 1),
                 ("gate_size", bool(consts.size_gate), consts.size_gate is not None),
                 ("gate_mu", consts.mu_gate, 1), ("gate_nu", consts.nu_gate, 1)]
        if "group_norms" in cfg and rep.mu_group is not None:
            norms = np.sort(np.asarray(cfg["group_norms"]))[::-1]
            gb = theory.fdp_bound_groupwise(norms, sigma, rep.mu_group, q, r, consts.c3, theta)
            rows += [("group_fdp_m", gb.m, 1), ("group_fdp_bound", gb.bound, 1),
                     ("group_fdp_threshold", gb.threshold, 1),
                     ("group_success_floor", gb.success_floor, 1),
                     ("group_success_floor_product", gb.success_floor_product, 1)]

    # the coherence conditions come last, so the rows above keep their positions
    if prop is not None:
        rows.append(("mu0_star", prop.mu0_star, prop.holds))
    if taus.group is not None and q >= 2 and rep.mu_group is not None:
        gp = theory.group_coherence_property(params, rep.mu_group, rep.nu_group, q, r, n)
        rows += [("group_mu_bound", gp.mu_bound, gp.mu_holds),
                 ("group_nu_bound", gp.nu_bound, gp.nu_holds)]

    write_csv(args.out, ("quantity", "value", "valid"), rows)
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
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--zstrategy", default="flat", choices=coherence.Z_STRATEGIES)
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
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (ZeroDetectError, OSError, UnicodeDecodeError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (CmatFormatError, OSError, UnicodeDecodeError)) else 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
