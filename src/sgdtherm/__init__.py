"""Fixed-learning-rate SGD on the unit sphere and its stationary-state thermodynamics.

The package simulates projected SGD over scale-invariant loss ensembles,
estimates the differential entropy of the iterate distribution from k-NN
graphs over trajectory windows, reduces runs to stationary (loss, entropy)
pairs, and computes the effective-temperature intervals under which each
learning rate minimizes the free energy  loss - T * entropy.  Closed-form
SNR expressions for two analytically solvable ensembles serve as oracles.
"""

from .analysis import (
    PowerLawFit,
    StationaryEstimate,
    TemperatureCurve,
    TemperatureInterval,
    estimate_temperature_interval,
    extract_stationary,
    finite_difference_temperature,
    fit_power_law,
    free_energy_curve,
    kernel_smooth_gaussian_logtime,
    kernel_smooth_triangular,
    select_stationary_range,
    temperature_curve,
    uniform_sphere_baseline,
    uniform_sphere_samples,
)
from .closed_form import (
    central_meridian_snr,
    factorization_residual,
    hessian_ensemble_snr,
    two_circle_snr_sq,
)
from .ensembles import (
    HyperplaneEnsemble,
    QuadraticEnsemble,
    make_circle_pair,
    make_toy_op,
    make_toy_up,
    random_hyperplane_ensemble,
    random_quadratic_ensemble,
)
from .entropy import knn_entropy, knn_total_edge_length
from .gradients import GradientStats, gradient_stats, snr_from_gradients
from .sphere import (
    SgdConfig,
    TrajectoryLog,
    checkpoint_schedule,
    project_to_sphere,
    random_unit_vector,
    run_seeded,
    sample_batch,
)

__version__ = "0.1.0"
