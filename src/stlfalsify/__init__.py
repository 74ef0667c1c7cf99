"""Falsification toolkit: search for temporal-logic descriptions of
likely failure trajectories in simulated driving scenarios."""

from .baseline import MetricReport, evaluate_expression, importance_sample
from .constraints import (
    ConstraintSet,
    DescentPlan,
    InfeasibleError,
    compile_constraints,
    constraints_for,
    sample_constraints,
)
from .grammar import GrammarSpec, crossover, mutate, sample_expression
from .optimize import GpConfig, Individual, evaluate_cost, run
from .samplers import (
    Categorical,
    DisturbanceModel,
    GaussianProcess,
    IndependentNormal,
    log_likelihood,
    sample_trace,
    sample_traces,
    truncated_normal,
)
from .sim import Scenario, SimResult, scenario, scenario_names
from .stl import (
    And,
    CategoricalChannel,
    Cmp,
    ContinuousChannel,
    Eventually,
    Formula,
    FormulaTypeError,
    Not,
    Or,
    ParseError,
    SignalTrace,
    TimeInterval,
    TraceBatch,
    Always,
    canonical_text,
    depth,
    evaluate,
    parse,
    render_natural_language,
)

__version__ = "0.1.0"
