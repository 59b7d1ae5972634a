"""Mixed-state geometric phases for a spin precessing in a rotating field.

Public surface: the model (:class:`ModelParams`, Hamiltonian, closed-form
propagator, eigensystem, thermal weights), the definitional phase engine
(propagator traces, dynamical phases, parallel transport, diagonal and
off-diagonal mixed-state phases), the closed-form verification ledger, and
a parameter-sweep pipeline.  ``spinphase.cli`` provides the command line.
"""

from .engine import (
    Ensemble,
    PropagatorTrace,
    diagonal_mixed_phase,
    diagonal_phase_argument,
    dynamical_phase,
    integrate_propagator,
    integrate_sampled_family,
    offdiag_trace_expansion,
    offdiagonal_mixed_phase,
    offdiagonal_trace,
    parallel_transport_residual,
    parallel_transported,
    shift_ensembles,
    shift_operator,
)
from .errors import (
    DegenerateFrame,
    DegenerateSpectrum,
    DegenerateWeights,
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
    ReferenceForms,
    SpectralFrame,
    ThermalWeights,
    closed_form_propagator,
    eigensystem,
    hamiltonian,
    period_tau,
    reference_closed_forms,
    rotating_frame,
    thermal_weights,
)
from .pipeline import (
    PhasePoint,
    SweepRow,
    SweepSpec,
    phase_point,
    phase_points,
    run_sweep,
    thermal_companions,
)
from .verify import (
    VerifyItem,
    VerifyReport,
    random_generic_params,
    reading_diagnostic,
    report_table,
    report_to_dict,
    verify_grid,
    verify_point,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
