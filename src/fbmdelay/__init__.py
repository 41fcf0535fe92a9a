"""Simulation of fractional Brownian motion over a shared Brownian driver and
delayed stochastic integration for piecewise-predictable integrands, with the
dyadic conditional-expectation extension and a Monte Carlo verification
harness for the moment identities and the small-Hurst continuity behaviour.
"""

from .kernels import (
    HurstParameter,
    gh_transform,
    hurst_constant,
    mvn_kernel,
)
from .noise import (
    SimulationGrid,
    dr_energy_closed_form,
    dr_pointwise_closed_form,
    generate_noise_batch,
    make_grid,
    process_values,
)
from .integrands import (
    BrownianIntegrand,
    DeterministicIntegrand,
    FbmIntegrand,
    Integrand,
    PiecewisePredictableIntegrand,
    QuadraticBrownianIntegrand,
    RlFbmIntegrand,
    SegmentGrid,
    dyadic_projection,
    y_norm,
)
from .integrator import delayed_integral_batch, delayed_segment
from .experiments import (
    MCResult,
    cauchy_decay_study,
    continuity_study,
    fbm_law_check,
    nonconvergence_demo,
    parse_integrand,
    shiryaev_identity_check,
    verify_dr_moments,
)

__version__ = "0.1.0"
