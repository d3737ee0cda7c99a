"""Differentially private continual counting with gradually expiring privacy.

Streaming counters that release a noisy running sum at every step, designed
so that the privacy loss of an individual input *decays as it ages*: an
observer seeing only outputs from d steps after an input arrived learns less
about it the larger d is.  The package pairs the mechanisms with an audit
engine that computes their worst-case loss curves exactly, an executable
form of the privacy argument (noise-shift coupling with bit-identical
replay), exact MSE calibration, and a CLI that reproduces the reference
experiment suite as CSV.
"""

from .calibration import (BaselineCalibration, CalibrationResult,
                          analytic_mse_baseline, analytic_mse_expiration,
                          calibrate_baseline, calibrate_epsilon,
                          error_bound_expiration, optimal_ratio,
                          popcount_total)
from .dyadic import DyadicInterval, decompose, floor_log2
from .mechanisms import (BaselineCounter, BaselineParams, ExpirationCounter,
                         MechanismParams, RecordingNoise, ReplayNoise,
                         SeededNoise, SimpleCounter, run_expiration)
from .noise import concentration_threshold, keyed_noise, laplace_sample
from .privacy_audit import (CouplingReport, LowerBoundReport,
                            PrivacyLossCurve, baseline_loss_curve,
                            closed_form_loss_bound, coupling_shift,
                            empirical_loss_baseline, empirical_loss_curve,
                            empirical_loss_expiration, exact_loss_bound,
                            lower_bound_check, published_loss_bound,
                            simple_loss_curve, verify_coupling)

__version__ = "0.1.0"

__all__ = [
    "BaselineCalibration", "BaselineCounter", "BaselineParams",
    "CalibrationResult", "CouplingReport", "DyadicInterval",
    "ExpirationCounter", "LowerBoundReport",
    "MechanismParams", "PrivacyLossCurve", "RecordingNoise", "ReplayNoise",
    "SeededNoise", "SimpleCounter",
    "analytic_mse_baseline", "analytic_mse_expiration",
    "baseline_loss_curve", "calibrate_baseline", "calibrate_epsilon",
    "closed_form_loss_bound", "concentration_threshold",
    "coupling_shift", "decompose",
    "empirical_loss_baseline", "empirical_loss_curve",
    "empirical_loss_expiration", "error_bound_expiration",
    "exact_loss_bound", "floor_log2", "keyed_noise",
    "laplace_sample", "lower_bound_check", "optimal_ratio",
    "popcount_total", "published_loss_bound", "run_expiration",
    "simple_loss_curve", "verify_coupling",
]
