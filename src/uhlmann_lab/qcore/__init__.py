"""Dense complex linear-algebra substrate: states, circuits, channels,
distances, SVD thresholding, and seeded randomness."""

from .gates import GATES, GateCircuit, random_circuit
from .states import (BipartiteState, DensityOp, SpectralState, maximally_entangled,
                     maximally_mixed, partial_trace, tensor_power)
from .metrics import (PartialIsometryOp, factor_fidelity, factor_trace_distance, fidelity,
                      sgn_eta, trace_distance)
from .channels import (ChannelDesc, channel_from_circuit, check_trace_preserving,
                       complementary, push_factor, unitary_channel)
from .random_ops import (haar_state_vector, haar_unitary, random_clifford, random_density,
                         random_symplectic)
from . import linalg

__all__ = [
    "GATES", "GateCircuit", "random_circuit",
    "BipartiteState", "DensityOp", "SpectralState", "maximally_entangled",
    "maximally_mixed", "partial_trace", "tensor_power",
    "PartialIsometryOp", "factor_fidelity", "factor_trace_distance", "fidelity",
    "sgn_eta", "trace_distance",
    "ChannelDesc", "channel_from_circuit", "check_trace_preserving",
    "complementary", "push_factor", "unitary_channel",
    "haar_state_vector", "haar_unitary", "random_clifford",
    "random_density", "random_symplectic",
    "linalg",
]
