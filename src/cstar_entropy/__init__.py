"""Entropy of states over finite-dimensional C*-algebras.

Block-structure algebras and their numerical discovery, unique representative
density matrices, the closed-form state entropy with its decomposition
oracles, the GNS route to the same number, and the thermodynamic ledger.
"""

from .algebra import (
    AlgebraElement,
    BlockStructure,
    SubalgebraBasis,
    block_decompose,
    commutant,
    embed,
    generate_subalgebra,
    generator_residual,
    identity,
    make_algebra,
    random_element,
    structure_projection,
)
from .decomp import (
    MajorizationVerdict,
    OracleReport,
    decomposition_entropy,
    doubly_stochastic_from_unitary,
    infimum_oracle,
    majorizes,
    oracle_decomposition,
    schrodinger_decomposition,
)
from .entropy import (
    EntropyReport,
    closed_form_entropy,
    minimal_decomposition,
    shannon,
    state_entropy,
    von_neumann,
)
from .errors import (
    DecompositionError,
    DisconnectedSectorsError,
    NotAStateError,
    ValidationError,
)
from .gns import (
    GnsData,
    GnsSectors,
    IdentityDecomposition,
    gns_commutant_functional,
    gns_construct,
    gns_state_entropy,
    identity_decomposition_random,
    identity_decomposition_weights,
    is_irreducible,
    resolve_sectors,
    sectors_entropy,
)
from .states import (
    Decomposition,
    DensityMatrix,
    StateFunctional,
    canonical_form,
    is_pure,
    representative_density,
    state_from_density,
    state_from_values,
)
from .thermo import (
    GasAccount,
    compression_heat,
    gas_entropy,
    has_definite_value,
    zeno_sequence,
    zeno_success_probability,
)

__version__ = "0.1.0"
