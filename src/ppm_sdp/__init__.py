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
    Recovery,
    SolverOptions,
    centered_partition_matrix,
    certified_partition,
    recover,
    recover_admm,
)
from .certificate import CertificateReport, build_certificate, verify_certificate
from .oracle import MleResult, loglikelihood, mle_known_sizes, mle_unknown_sizes

__version__ = "0.1.0"
