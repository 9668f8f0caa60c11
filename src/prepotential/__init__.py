"""Complex scalar potential description of electromagnetic fields.

A single complex function of spacetime, built from the retarded null
separation between observer and moving charge, carries the whole field:
second derivatives yield the complex field vector E + iB, the matrix
algebra's half-boosts factor the fundamental Lorentz boosts, and the
function's branch structure makes loop observables (accumulated phase =
2*pi*i*q*winding) exact statements about multiply-connected regions.
"""

from .errors import (
    ChargeSystemError,
    DegenerateDenominatorError,
    NoRetardedIntersectionError,
    NotNullError,
    ObserverOnWorldLineError,
    PathThroughSingularAxisError,
    PrepotentialError,
    RefinementLimitExceededError,
    ScenarioError,
    SingularAxisError,
    SingularStencilError,
    StepTooLargeError,
)
from .fields import (
    CovarianceCheck,
    FaradayVector,
    PotentialField,
    ScalarField,
    UNIFORM_FIELD_CALIBRATION,
    boosted_coulomb_oracle,
    claim1_covariance_check,
    complex_faraday_tensor,
    coulomb_oracle,
    faraday_from_A,
    faraday_from_hessian,
    faraday_from_S,
    faraday_uniform,
    mixed_em_tensor,
    potential_field,
    second_partials,
    vacuum_maxwell_residual,
    wave_residual,
)
from .loops import (
    LoopPhaseReport,
    ab_phase_report,
    ab_phase_reports,
    two_path_difference,
    winding_number,
)
from .matrices import (
    RelationCheck,
    RelationReport,
    alpha,
    conjugation_C,
    lambda_boost,
    rho,
    rho_bar,
    rotation,
    sigma,
    sigma_bar,
    upsilon,
    upsilon_bar,
    validate_relations,
)
from .potential import (
    Charge,
    ChargeSystem,
    POTENTIAL_FIELD_SCALE,
    Path,
    PrePotentialJet,
    PrePotentialValue,
    Zeta,
    delta_S_along_path,
    gradient_S,
    local_scale,
    potential_A,
    potential_matrix,
    prepotential_jet,
    prepotential_jet_system,
    prepotential_jets,
    prepotential_point,
    prepotential_system,
    zeta_at,
    zeta_of,
    zetas_of,
)
from .scenario import Scenario, bundled_scenario_path, load_scenario, parse_scenario
from .spacetime import (
    FourVector,
    RestLine,
    RetardedSolution,
    SampledLine,
    UniformLine,
    WorldLine,
    four_velocity_from_3velocity,
    fundamental_boost,
    minkowski_dot,
    retarded_null_vector,
)
from .verify import CheckResult, RunReport, run_checks

__version__ = "0.1.0"
