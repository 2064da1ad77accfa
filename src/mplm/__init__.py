"""Simulation of intermittent-map binary time series and estimation of the
map exponent from spectral, variance-scaling, wavelet, and local-regularity
statistics, with a reproducible Monte Carlo harness."""

from .dynamics import (
    ObservableSpec,
    StallWarning,
    equivalent_gamma,
    lbp_step,
    markov_stationary,
    mp_step,
    simulate_lbp,
    simulate_markov,
    simulate_markov_batch,
    simulate_mp,
    simulate_mp_batch,
)
from .estimators import BatchEstimate, EstimateResult, estimate, estimate_batch, ols_slope
from .montecarlo import ExperimentSpec, McSummary, preset_experiment, run_experiment, summarize
from .partial_sums import ScalingFit, scaling_exponent, var_partial_sum
from .spectral import (LagWindowSpec, lag_window_weight, periodogram, sample_acv,
                       smoothed_periodogram)
from .wavelet import WaveletBasis, psi, sample_R, wavelet_coefficients

__version__ = "0.1.0"
