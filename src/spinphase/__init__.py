"""Mixed-state geometric phases for a spin precessing in a rotating field.

Public surface: the model (:class:`ModelParams`, Hamiltonian, closed-form
propagator, thermal weights, and :class:`PointFamily` for eigenbases), the
definitional phase engine (propagator traces, dynamical phases, parallel
transport, diagonal and off-diagonal mixed-state phases), the closed-form
verification ledger, and a parameter-sweep pipeline.  ``spinphase.cli``
provides the command line.
"""

from .engine import (
    Ensemble,
    PropagatorTrace,
    diagonal_phase_argument,
    integrate_propagator,
    integrate_sampled_family,
    offdiagonal_trace,
    parallel_transport_residual,
    parallel_transported,
    shift_ensembles,
)
from .errors import (
    DegenerateFrame,
    DegenerateSpectrum,
    InconsistentClassification,
    SpinPhaseError,
    UndefinedPhase,
    UnitarityLoss,
)
from .linalg import (
    PhaseFactor,
    phase_functional,
    su2_exponential,
)
from .model import (
    Convention,
    ModelParams,
    PointFamily,
    ReferenceForms,
    ThermalWeights,
    closed_form_propagator,
    hamiltonian,
    period_tau,
    reference_closed_forms,
    thermal_weights,
)
from .pipeline import (
    PhasePoint,
    SweepRow,
    SweepSpec,
    phase_point,
    phase_points,
    run_sweep,
)
from .verify import (
    VerifyItem,
    VerifyReport,
    random_generic_params,
    report_table,
    report_to_dict,
    verify_grid,
    verify_point,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
