"""Space quasi-periodic standing waves of the nonlinear Schrodinger equation:
a constructive solver on sparse Fourier lattices plus measurement-style
diagnostics for its resonance and Green's-function behavior."""

from .lattice import (
    Frequency,
    Index,
    Region,
    block_inner,
    canonical,
    orbit,
    symbol,
)
from .series import DecayFit, InsufficientData, QPSeries, conv_power, convolve, truncate
from .linop import (
    GreensProfile,
    LinearizedOperator,
    OperatorTooLarge,
    ReducedOperator,
    SingularOperator,
    apply,
    assemble,
    covariance_discrepancy,
    greens_profile,
    solve_linear,
)
from .solver import (
    DivergedIncrement,
    MixedDegenerateIndex,
    NewtonTrace,
    NotConverged,
    ProblemConfig,
    SeparationFailure,
    SolutionRecord,
    initial_guess,
    newton_step,
    q_update,
    residual,
    solve,
)
from .diagnostics import (
    AcceptanceReport,
    ThetaSweepResult,
    bifurcation_scan,
    diophantine_margin,
    lambda_sweep,
    separation_margin,
    theta_bad_fraction,
)
from .dynamics import ComplexSeries, StepUnstable, evolve, nonlinear_term, standing_wave_deviation

__version__ = "0.1.0"
