"""Mixed-state geometric phases for a spin precessing in a rotating field.

Public surface: the model (:class:`ModelParams`, Hamiltonian, closed-form
propagator, and :class:`PointFamily` for eigenbases and thermal weights), the
batched RK4 integrator with its propagator traces and dynamical phases, the
phase pipeline that assembles the diagonal and off-diagonal interference
amplitudes of a family of points into one columnar :class:`PhaseTable`, the
closed-form verification ledger, and the parameter sweep.  ``spinphase.cli`` provides the command line.
"""

from .engine import PropagatorTrace, integrate_sampled_family
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
    closed_form_propagator,
    hamiltonian,
    reference_closed_forms,
)
from .pipeline import (
    PhaseTable,
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
