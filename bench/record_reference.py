"""Record bench/reference.json: outputs of the current code at the default seed.

    python3 bench/record_reference.py

The benchmark counts every difference from these values as a failed check, so
record again only when a change of output is intended and explained.
"""

import json
import shutil
import tempfile
from pathlib import Path

import run as bench
from tracing import NullTracer
from zerodetect import cli
from zerodetect.core import write_cmat


def _cli(argv: list[str]) -> None:
    if cli.main(argv) != 0:
        raise SystemExit(f"zerodetect {' '.join(argv)} failed")


def record(sizes: bench.Sizes, work) -> dict:
    out = {}
    for name in ("simulate_tone", "simulate_group"):
        cfg = work / f"{name}.cfg"
        cfg.write_text(bench.simulate_config_text(name, sizes, bench.DEFAULT_SEED), encoding="ascii")
        _cli(["simulate", "--config", str(cfg), "--out-dir", str(work / name)])
        out[name] = {"report_csv": bench.report_rows(work / name)}

    m = bench.build(NullTracer(), sizes.kerdock_m, sizes.group_size)
    path, csv = work / "kerdock.cmat", work / "coherence.csv"
    write_cmat(path, m, {"group_size": str(sizes.group_size)})
    _cli(["coherence", "--matrix", str(path), "--seed", str(bench.DEFAULT_SEED), "--out", str(csv),
          "--stoc", f"{bench.STOC_K},{bench.STOC_EPS},{sizes.stoc_trials},gaussian-seeded"])
    rows = {r.split(",")[0]: r.split(",")[1] for r in csv.read_text(encoding="ascii").splitlines()[1:]}
    out["coherence_kerdock5"] = {
        "nu": float(rows["nu"]), "mu_group": float(rows["mu_group"]),
        "nu_group": float(rows["nu_group"]), "stoc_violations": int(rows["stoc_violations"]),
    }
    return out


def main() -> None:
    bench.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=bench.WORK))
    try:
        reference = {"seed": bench.DEFAULT_SEED}
        for sizes in (bench.FULL, bench.TINY):
            (work / sizes.name).mkdir()
            reference[sizes.name] = record(sizes, work / sizes.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bench.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="ascii")
    print(f"wrote {bench.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
