"""Pathwise (probability-free) Ito calculus for cadlag paths on finite grids.

Quadratic variation along refining partition sequences, non-anticipative
integrals and the cadlag Ito formula, explicit solutions of linear,
nonlinear, and drawdown integral equations, and floor-guaranteed portfolio
constructions, all with oracle- and trend-based numerical certification.
"""

from .diagnostics import DETERMINISTIC_TOL, STOCHASTIC_TOL, TrendReport
from .drawdown import (
    FloorFunction,
    MonotoneC2Function,
    azema_yor_path,
    floor_constant_margin,
    floor_from_table,
    floor_proportional,
    floor_to_transform,
    floor_zero,
    solve_drawdown,
)
from .equations import (
    StochasticExponential,
    doleans_exponential,
    reciprocal_exponential,
    solve_linear,
    solve_nonlinear,
)
from .finance import (
    FloorSpec,
    Market,
    Strategy,
    dppi,
    drawdown_strategy,
    self_financing_residual,
)
from .functions import C12Function, builtin_c12
from .integrals import (
    AdmissibleIntegrand,
    IntegralResult,
    associativity_check,
    follmer_integral,
    integration_by_parts,
    ito_formula_eval,
    qv_of_integral,
)
from .mc import McExperiment, run_mc
from .partitions import (
    Partition,
    PartitionSequence,
    dyadic_sequence,
    lebesgue_partition,
    lebesgue_partitions,
    mesh,
    oscillation,
)
from .paths import (
    AffineCombinationGenerator,
    CompoundJumpGenerator,
    DomainError,
    DyadicBrownianGenerator,
    FormulaGenerator,
    FVPath,
    GeometricGenerator,
    GridPath,
    StepGenerator,
    TimeGrid,
    add_paths,
    as_fv,
    dyadic_grid,
    eval_left_limit,
    left_values,
    reciprocal_path,
    running_maximum,
    same_grid,
)
from .quadvar import (
    DiscreteMeasure,
    QVResult,
    covariation,
    measure_convergence_check,
    measure_vs_qv_check,
    qv_measure,
    qv_sequence,
)

__version__ = "0.1.0"
