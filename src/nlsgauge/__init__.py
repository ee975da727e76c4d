"""Gauge transformations of the third kind for 1-D nonlinear Schrodinger
equations: exact coefficient maps, a five-function classification engine,
coupled-system and externally-gauged variants, and a numerical verification
harness.

Convention: i psi_t + lap psi + (W + i calW) psi = 0 with psi = sqrt(rho) e^{iS}.
"""

from .errors import (
    AllBelowFloor,
    BlowUp,
    ConfigError,
    DomainError,
    NlsGaugeError,
    NonConservingModel,
    NotIntegrable,
    PeriodicityViolation,
)
from .fieldgrid import (
    DENSITY_FLOOR,
    ComplexField,
    Grid1D,
    HydroField,
    bilinear_current,
    cumulative_integral,
    read_field_csv,
    to_hydro,
    write_field_csv,
)
from .models import (
    DNLS,
    EIP,
    DoebnerGoldin,
    EIPTransformed,
    Entropic,
    EntropicTransformed,
    FiveFunction,
    GaugedAnomalous,
    ModelSpec,
    NotRepresentable,
    RhoExpr,
    current_functional,
    eval_nonlinearity,
    model_from_config,
    model_to_config,
    to_five_function,
)
from .gauge import (
    GeneratorSpec,
    Local,
    Nonlocal,
    TransformResult,
    apply_gauge,
    curl_condition_holds,
    derive_generator,
    discrete_generator_field,
    analysis_generator_field,
    transform_model,
)
from .equivalence import (
    NotEquivalent,
    NotLinearizable,
    equivalence_generator,
    guerra_field,
    guerra_map,
    linearizable,
    push_forward,
)
from .solver import (
    EquivalenceReport,
    LinearizationReport,
    SolverConfig,
    Trajectory,
    export_trajectory,
    integrate,
    log_diffusive_model,
    particle_number,
    verify_equivalence,
    verify_linearization,
)
from .coupled import (
    CoupledModel,
    HermitianResult,
    conservation_structure,
    coupled_generators,
    special_reduction,
    transform_coupled,
)
from .gauged import (
    ExternalGauge,
    covariant_current,
    field_transform,
    matter_transform,
    q_limit_consistency,
    two_route_currents,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
