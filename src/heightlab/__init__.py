"""heightlab: a simulation laboratory for lattice interface models.

Microscopic side: Langevin dynamics and exact-target Monte Carlo for
gradient ensembles of a height field with a uniformly convex potential
plus a bounded smooth perturbation.  Macroscopic side: the divergence-
form limit equation, surface-tension estimation, and scaling studies
connecting the two.
"""

from .errors import (
    CflViolation,
    ConfigError,
    EmptyInterior,
    FluxRangeExceeded,
    HeightLabError,
    NonFinite,
    NotIntegrable,
    PlotSkipped,
    SplitFailed,
    StepTooLarge,
    TimeMismatch,
)
from .lattice import (
    DiscretizedDomain,
    DomainSpec,
    GradientField,
    HeightField,
    TorusLattice,
    boundary_height,
    cell_average,
    discretize_domain,
    gradient,
    integrate_gradient,
)
from .potential import (
    CertificationReport,
    Potential,
    TemperatureRegime,
    beta0,
    certify,
    make_cosine_perturbed,
    make_gaussian,
    make_split_bump,
    potential_from_spec,
    split_potential,
)
from .dynamics import (
    DirichletSystem,
    EnergyTrace,
    MacroscopicField,
    TiltedPeriodicSystem,
    em_step,
    energy_diagnostic,
    macro_height,
    run_dirichlet,
    step_cap,
)
from .gibbs import (
    DlrReport,
    EstimatorReport,
    GibbsSampler,
    batch_means,
    dlr_check,
    estimate_bond_variance,
    estimate_identity2,
    integrated_autocorr_time,
    make_sampler,
    variance_sweep,
)
from .surface import (
    FluxDecomposition,
    SigmaEstimate,
    SurfaceTensionTable,
    build_table,
    convexity_probe,
    decompose_flux,
    grad_sigma,
    sigma,
)
from .pde import GaussianFlux, GridField, PdeGrid, TableFlux, l2_compare, solve
from .hydro import ConvergenceTable, HydroExperiment
from .config import RunConfig, config_hash, from_dict, load_config, to_dict
from .rng import stream

__version__ = "0.1.0"
