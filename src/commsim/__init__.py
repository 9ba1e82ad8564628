"""Classical simulation toolkit for commuting quantum circuits.

Exact Pauli/stabilizer algebra, a brute-force statevector oracle, a strong
simulator for 2-local commuting qudit circuits, Monte-Carlo weak simulation
of (slightly non-)commuting Pauli circuits, and ancilla-test circuit
transformers for matrix-element and overlap estimation.
"""

__version__ = "0.1.0"

from .circuit import (
    Circuit,
    ControlledGate,
    DenseGate,
    NamedGate,
    PauliExpGate,
    check_pairwise_commuting,
    parse_circuit,
    serialize_circuit,
)
from .errors import (
    BatchMismatch,
    CapacityExceeded,
    CommsimError,
    DependentInput,
    DimensionMismatch,
    LightconeTooLarge,
    LocalityExceeded,
    MinusIdentity,
    NotCommuting,
    NotHermitian,
    ParseError,
    PhaseMismatch,
    ProbabilityOutOfRange,
    SizeMismatch,
    TooManyExtras,
    ZeroAmplitudeSample,
)
from .estimator import (
    Composition,
    DiagonalZExp,
    EstimateResult,
    EstimatorConfig,
    PauliMonomial,
    estimate_monomial_sandwich,
)
from .local2 import (
    ProductState,
    simulate_2local,
    simulate_2local_phase_commuting,
)
from .oracle import (
    DenseOracleExecutor,
    Observable,
    StateVector,
    apply_circuit,
    basis_state,
    circuit_unitary,
    expectation,
    matrix_element,
    run_circuit,
)
from .pauli import PauliOperator, commutes, format_pauli, multiply, parse_pauli
from .paulisim import (
    ExtraGate,
    MemberGate,
    compile_commuting_pauli,
    simulate_commuting_pauli,
    simulate_noncommuting_pauli,
)
from .stabilizer import (
    CliffordCircuit,
    StabilizerState,
    complete_generators,
    conjugate_pauli,
    diagonalize_commuting_set,
    evolve,
    synthesize_prep,
)
from .transformers import (
    alternate_hadamard_test,
    estimate_cd_clifford_overlap,
    estimate_cd_overlap,
    hadamard_test,
    p0_to_value,
    two_layer_merge,
)
