"""possem: decide, certify, and falsify positivity of elliptic-system semigroups.

The semigroup generated by a second-order divergence-form system with
matrix-valued coefficients is positive exactly when the system is equivalent
to independent scalar equations with real coefficients.  This package tests
the necessary condition that every C_kl + C_lk is real diagonal almost
everywhere, exactly for every coefficient kind: it extracts the scalar
systems when it holds and constructs a disjointly supported pair with
positive form value when not.  The antisymmetric remainder is not
checked yet (see ``possem.decoupling``).
"""

from .assembly import (
    DiscreteForm,
    Grid,
    assemble,
    export_matrix_text,
    form_value,
)
from .catalog import CatalogEntry, get as get_catalog_entry, names as catalog_names
from .coefficients import (
    ConstantField,
    EllipticSystem,
    EllipticityReport,
    GridSampledField,
    PolynomialField,
    check_ellipticity,
    eval_coefficient,
    realify_field,
    realify_matrix,
)
from .decoupling import (
    NonrealWitness,
    ProbeResult,
    Verdict,
    Witness,
    WitnessCertificate,
    construct_witness,
    decide_decoupling,
    extract_scalar_systems,
    probe,
    probe_system,
)
from .errors import (
    CapacityError,
    ConfigError,
    ContractViolation,
    DomainError,
    GeometryError,
    IndeterminateDecision,
    NoWitnessExists,
    NumericalError,
    PossemError,
    UnsupportedContract,
    WitnessNotLocalized,
)
from .multop import (
    MultWitness,
    diag_projection,
    find_witness,
    is_multiplication,
    trace_duality_residual,
)
from .polynomials import MultiPoly
from .semigroup import (
    GeneratorOperator,
    PositivityReport,
    expm_apply,
    factorization_residual,
    positivity_scan,
    sign_witness,
)
from .tents import (
    PiecewiseLinear1D,
    TensorTestFunction,
    TestPair,
    build_test_pair,
    double_hat,
    hat,
    tensor_product_integral,
)

__version__ = "0.1.0"
