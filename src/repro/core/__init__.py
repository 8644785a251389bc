"""The paper's contribution: Υ-based protocols, extraction, separations."""

from .adversary import (
    AdversaryResult,
    candidate_complement_extractor,
    candidate_complement_extractor_f,
    candidate_heartbeat_extractor,
    candidate_heartbeat_extractor_f,
    candidate_sticky_extractor,
    run_theorem1_adversary,
    run_theorem5_adversary,
)
from .boosting import (
    boosted_consensus_memory,
    make_boosted_consensus,
    make_omega_consensus,
)
from .compose import (
    omega_k_complement_transform,
    upsilon_to_omega_two_process_transform,
    with_fd_transform,
)
from .converge import ConvergeInstance, k_converge
from .extraction import (
    ExtractionSettled,
    extraction_stop_rule,
    locally_stable_outputs,
    make_extraction_protocol,
    make_local_extraction_protocol,
    settle_window,
    stable_emulated_output,
)
from .f_resilient import make_upsilon_f_set_agreement
from .hierarchy import DetectorHierarchy, TransformedHistory, WeakerThanEdge
from .timeouts import (
    EventuallySynchronousScheduler,
    GrowingDelayScheduler,
    make_timeout_upsilon,
)
from .reductions import (
    make_omega_k_to_upsilon_f,
    make_omega_to_upsilon,
    make_upsilon1_to_omega,
    make_upsilon_to_omega_two_processes,
)
from .samples import (
    PhiMap,
    ShiftedPhiMap,
    TrivialDetectorError,
    assert_valid_phi_entry,
    canonical_pattern,
    is_forever_sample,
)
from .set_agreement import (
    DECISION,
    make_upsilon_set_agreement,
    round_value_key,
    stable_flag_key,
)

__all__ = [
    "AdversaryResult",
    "DetectorHierarchy",
    "EventuallySynchronousScheduler",
    "ExtractionSettled",
    "GrowingDelayScheduler",
    "ConvergeInstance",
    "DECISION",
    "PhiMap",
    "ShiftedPhiMap",
    "TransformedHistory",
    "TrivialDetectorError",
    "WeakerThanEdge",
    "assert_valid_phi_entry",
    "boosted_consensus_memory",
    "candidate_complement_extractor",
    "candidate_complement_extractor_f",
    "candidate_heartbeat_extractor",
    "candidate_heartbeat_extractor_f",
    "candidate_sticky_extractor",
    "canonical_pattern",
    "is_forever_sample",
    "k_converge",
    "locally_stable_outputs",
    "make_boosted_consensus",
    "extraction_stop_rule",
    "make_extraction_protocol",
    "make_local_extraction_protocol",
    "make_omega_consensus",
    "make_omega_k_to_upsilon_f",
    "make_omega_to_upsilon",
    "make_upsilon1_to_omega",
    "make_upsilon_f_set_agreement",
    "make_upsilon_set_agreement",
    "make_timeout_upsilon",
    "make_upsilon_to_omega_two_processes",
    "omega_k_complement_transform",
    "round_value_key",
    "run_theorem1_adversary",
    "run_theorem5_adversary",
    "settle_window",
    "stable_emulated_output",
    "stable_flag_key",
    "upsilon_to_omega_two_process_transform",
    "with_fd_transform",
]
