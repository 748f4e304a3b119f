"""SDP-based exact recovery for the planted partition model.

The exports below load on first use (PEP 562): `import ppm_sdp` runs no
submodule, and `ppm_sdp.recover` imports `ppm_sdp.sdp` when it is first
read.  So a command pays only for the modules it runs.  Each submodule is
reachable as an attribute too, as `ppm_sdp.sdp`.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "graph_model": (
        "AdversarySpec",
        "Graph",
        "PartitionLabels",
        "apply_adversary",
        "monotone_diff",
        "read_graph",
        "read_labels",
        "sample_ppm",
        "simulate_dominating_sbm",
        "write_graph",
        "write_labels",
    ),
    "thresholds": (
        "DivergenceReport",
        "ParameterError",
        "PlantedPartitionParams",
        "bm_dominates",
        "ch_divergence_closed_form",
        "ch_divergence_numeric",
        "compute_omega",
        "feasibility_report",
        "monotone_divergence",
        "ppm_rate_matrix",
        "rate_constant_tau",
    ),
    "sdp": (
        "Recovery",
        "SolverOptions",
        "centered_partition_matrix",
        "recover",
        "recover_admm",
    ),
    "certificate": ("CertificateReport", "build_certificate", "verify_certificate"),
    "oracle": ("MleResult", "loglikelihood", "mle_known_sizes", "mle_unknown_sizes"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(
    ("certificate", "cli", "graph_model", "harness", "lanczos", "oracle", "sdp", "thresholds")
)

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
