"""Time-changed Poisson processes.

Simulation, pmf evaluation, and numerical certification of the governing
difference-differential and partial differential equations for Poisson
processes run on inverse-Gaussian, stable, tempered-stable, iterated, and
inverse (hitting-time) random clocks.
"""

from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    GridTooCoarseError,
    NoDensityError,
    UnknownEquationError,
)
from .specfun import caputo_derivative
from .subordinators.densities import (
    hitting_time_cdf_ig,
    hitting_time_density_ig,
    ig_cdf,
    ig_density,
    inverse_stable_cdf,
    inverse_stable_density,
    inverse_tempered_cdf,
    inverse_tempered_density,
    stable_cdf,
    stable_density,
    stable_moment,
    tempered_stable_cdf,
    tempered_stable_density,
)
from .subordinators.sampling import SampleBatch, rng_stream, sample, sample_path
from .subordinators.spec import (
    Composition,
    InverseGaussian,
    InverseOf,
    Stable,
    SubordinatorSpec,
    TemperedStable,
    spec_from_dict,
    spec_from_json,
)
from .timechange import (
    PmfTable,
    fractional_poisson_pmf,
    moments_ig,
    pmf_bessel_ig,
    pmf_monte_carlo,
    pmf_quadrature,
    pmf_table,
    waiting_time_lt,
    waiting_time_survival,
)
from .verify.operators import shift_power
from .verify.registry import check_equation, registry_ids
from .verify.report import GridSpec, ResidualReport

__version__ = "0.1.0"
