"""Annealing solver for box-constrained quadratic programs.

Search directions and the initial corner point are obtained by minimizing
derived Ising subproblems through interchangeable sampler backends (exact
enumeration, classical annealing, random sampling, external subprocess).
"""

from .anneal import (
    DirectionPolicy,
    ScheduleConfig,
    SolveError,
    SolveReport,
    direction_ising,
    init_ising,
    metropolis_accept,
    perturb_direction,
    qesa_solve,
    temperature,
)
from .baselines import (
    solve_corner_exact,
    solve_projected_gradient,
    solve_random_search,
    solve_sa_baseline,
)
from .bench import ExperimentGrid, boundary_fraction, reference_solution, run_grid, sweep_p, sweep_steps
from .ising import (
    ENV_EXTERNAL_SAMPLER,
    ExternalSamplerError,
    InvalidSpinError,
    IsingModel,
    SampleResult,
    SamplerConfig,
    SamplerError,
    SamplerLaunchError,
    SamplerProtocolError,
    SamplerTimeoutError,
    energy,
    make_sampler,
    solve_classical_sa,
    solve_exact,
    solve_external,
    solve_random,
)
from .qp import (
    BoxRescaling,
    InstanceFormatError,
    QpInstance,
    clip_to_box,
    generate,
    gradient,
    load,
    objective,
    rescale_to_unit_box,
    save,
)

__version__ = "0.1.0"
