"""Host-speed probes: fixed computations timed between a workload's operations.

Each core of the shared 2-vCPU KVM host this benchmark was built on switches,
every few seconds, between two speeds about 1.5 times apart (a pure-Python
loop pinned to one core read about 7 or about 10.5 ms), and the share of slow
time drifts over the hours, in CPU time as much as in wall time. The raw 10th
percentile of `simulate_tone` read 67 to 96 ms over ten runs in one hour and
52 to 66 ms in the next, more than a regression bound can absorb. A probe does the same fixed
work on every run, whatever the program or the workload seed, so its time
follows the host's speed alone. The end-to-end times are scaled by
REF_S / (probe time), which reads them as they would be at the host speed of
the reference run; the raw times are kept in the detail line.

A probe follows a workload's time only when both spend it the same way, so
each workload has the probe that mirrors its operation:

- `simulate`: trials of the simulate loop on a 16x256 matrix in numpy and
  Python: a Philox stream, a sparse signal, noise, A x + w, correlation,
  a stable argsort and set scoring.
- `detect`: one T = 1 detection on a 64x4096 matrix: an A^H y that copies
  A^H, magnitudes, group norms and two stable argsorts.
"""

import time

import numpy as np

_SEED = 20260808
_rng = np.random.default_rng(_SEED)
_SIM_A = (_rng.standard_normal((16, 256)) + 1j * _rng.standard_normal((16, 256))) / 4.0
_DET_A = (_rng.standard_normal((64, 4096)) + 1j * _rng.standard_normal((64, 4096))) / 8.0
_DET_Y = _DET_A[:, :32].sum(axis=1) + 0.1 * _rng.standard_normal(64)

SIM_TRIALS, SIM_K = 12, 64


def _simulate() -> int:
    hits = 0
    for t in range(SIM_TRIALS):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([_SEED, t])))
        support = rng.choice(256, size=SIM_K, replace=False)
        x = np.zeros(256, dtype=np.complex128)
        x[support] = rng.uniform(1.0, 1000.0, SIM_K)
        w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        y = _SIM_A @ x + w
        s = np.abs(_SIM_A.conj().T @ y)
        picked = set(np.argsort(s, kind="stable")[:SIM_K].tolist())
        hits += len(picked & set(support.tolist()))
    return hits


def _detect() -> int:
    s = np.abs(_DET_A.conj().T @ _DET_Y)
    g = np.sqrt((s * s).reshape(64, 64).sum(axis=1))
    return int(np.argsort(s, kind="stable")[0]) + int(np.argsort(g, kind="stable")[0])


PROBES = {"simulate": _simulate, "detect": _detect}

# 10th-percentile time of each probe over 3000 calls in the reference run
# (seconds): the 2-vCPU KVM host above, Python 3.11, numpy 2 with OpenBLAS
REF_S = {"simulate": 1.17e-3, "detect": 1.07e-3}


def timed(name: str) -> float:
    """Run probe `name` once; return its wall time in seconds."""
    fn = PROBES[name]
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
