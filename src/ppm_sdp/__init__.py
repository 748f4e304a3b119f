"""SDP-based exact recovery for the planted partition model."""

from .graph_model import (
    AdversarySpec,
    Graph,
    PartitionLabels,
    PlantedPartitionParams,
    apply_adversary,
    monotone_diff,
    read_graph,
    read_labels,
    sample_ppm,
    simulate_dominating_sbm,
    write_graph,
    write_labels,
)
from .thresholds import (
    DivergenceReport,
    ParameterError,
    bm_dominates,
    ch_divergence_closed_form,
    ch_divergence_numeric,
    compute_omega,
    feasibility_report,
    monotone_divergence,
    ppm_rate_matrix,
    rate_constant_tau,
)
from .sdp import (
    RoundingResult,
    SdpProblem,
    SdpSolution,
    SolverOptions,
    build_known_sizes,
    build_unknown_sizes,
    centered_partition_matrix,
    objective_value,
    round_to_partition,
    solve,
)
from .certificate import (
    CertificateReport,
    DualCertificate,
    algebraic_identity_suite,
    build_certificate,
    interval_margins,
    verify_certificate,
)
from .oracle import MleResult, loglikelihood, mle_known_sizes, mle_unknown_sizes

__version__ = "0.1.0"
