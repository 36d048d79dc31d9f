"""Toolkit for 2N-qubit Bell-correlated activable bound entangled states.

Builds the four GHZ-diagonal state families, analyzes their bipartite cuts
(PPT/NPT classification, negativity, covering-LP lower bounds), simulates the
LOCC preparation protocol with singlet accounting, and certifies that the
entanglement cost is exactly N ebits.
"""

from .certify import CostCertificate, cost_certificate
from .cuts import (
    ActivationOutcome,
    Cut,
    CutReport,
    EdgeWeights,
    activation_distill,
    analyze_cut,
    enumerate_cuts,
    lp_lower_bound,
    npt_one_vs_rest_scan,
)
from .protocol import (
    EnsembleResult,
    NetworkState,
    ProtocolError,
    ProtocolTranscript,
    bell_generate,
    default_pairing,
    ebit_accounting,
    init_network,
    locc_audit,
    prepare_bcabe,
    teleport,
)
from .states import (
    BELL_CORRECTIONS,
    BELL_ORDER,
    BellLabel,
    FamilyLabel,
    NotBellCorrelated,
    bell_product_state,
    bell_state,
    bell_tuple_decomposition,
    build_family,
    family_support_projector,
    ghz_basis,
    pauli_connection_search,
    permutation_invariance_check,
    recursion_blocks,
    verify_recursion,
)
from .tensor import (
    MAX_QUBITS,
    OPERATOR_ATOL,
    STATE_ATOL,
    ZERO_PROB_ATOL,
    DensityMatrix,
    PureState,
    QubitSubset,
    apply_unitary_on_subset,
    fidelity_with_pure,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    trace_distance,
)

__version__ = "0.1.0"
