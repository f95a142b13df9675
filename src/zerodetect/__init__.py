"""Zero-support detection from reduced-dimension linear measurements.

Detect where a sparse signal is exactly zero, given compressed measurements
y = A x + w: correlate y with every column of A and keep the smallest
magnitudes (element-wise or group-wise). The package provides the detectors,
the coherence statistics and closed-form guarantees that certify them,
deterministic Kerdock and random Bernoulli measurement matrices, and a
reproducible Monte-Carlo experiment harness with a CLI.
"""

from .core import (
    GroupPartition,
    MeasurementMatrix,
    RngSpec,
    SignalInstance,
    SupportSet,
    column_norms,
    hermitian_apply,
    normalize_columns,
    read_cmat,
    write_cmat,
)
from .coherence import (
    CoherenceReport,
    StocEstimate,
    average_coherence,
    coherence_report,
    group_coherences,
    stoc_estimate,
    worst_case_coherence,
)
from .detectors import DetectionResult, ost_topk, zd_groth, zd_ost
from .experiments import (
    ExperimentConfig,
    TrialBatchReport,
    UniformAmplitude,
    build_matrix,
    emit_plotdata,
    gen_group_signal,
    gen_noise,
    gen_tone_signal,
    parse_experiment_config,
    run_batch,
    run_trial,
    write_report_csv,
)
from .matrices import (
    KerdockSpec,
    attach_groups,
    build_bernoulli,
    build_frame,
    build_kerdock,
    load_matrix,
)
from .theory import (
    BoundParams,
    SignalStats,
    chi2_tail_bound,
    coherence_property,
    epsilon0,
    fdp_bound_elementwise,
    fdp_bound_groupwise,
    group_coherence_property,
    group_guarantee_constants,
    noise_thresholds,
    pe_bound,
    signal_stats,
    sparsity_bound,
    stats_from_magnitudes,
)

__version__ = "0.1.0"
