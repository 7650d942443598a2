"""Sharp norm bounds, extremal weights and spectra for time-frequency and
wavelet localization operators."""

from .bounds import BoundReport, G, G_beta, gabor_bound, lambda_root, wavelet_bound
from .core import (ConstraintSet, RadialProfile, WeightField,
                   decreasing_rearrangement, lp_norm, schwarz_symmetrize)
from .errors import (AliasingError, BasisTruncationError, DivergenceError,
                     InvalidInputError, PhaseboundError, RegimeError,
                     UnattainedBoundError)
from .extremals import (extremal_signal, extremal_signal_wavelet,
                        extremal_weight_gabor, extremal_weight_wavelet)
from .gabor import (OperatorSpectrum, Signal, assemble_operator, concentration,
                    hermite_phase_basis, lieb_quotient, operator_norm,
                    radial_eigenvalues, stft)
from .varprob import (VariationalSolution, constraint_moment,
                      solve_closed_form, solve_kkt_oracle)
from .wavelet import (DiscProfile, HalfPlaneField, HalfPlaneGrid, HardySignal,
                      HyperbolicDisc, assemble_wavelet_operator,
                      bergman_radial_eigenvalues, cauchy_wavelet,
                      hyperbolic_disc_mask, wavelet_transform)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "G", "G_beta", "gabor_bound", "lambda_root", "wavelet_bound",
    "ConstraintSet", "RadialProfile", "WeightField",
    "decreasing_rearrangement", "lp_norm", "schwarz_symmetrize",
    "PhaseboundError", "InvalidInputError", "DivergenceError",
    "UnattainedBoundError", "RegimeError", "AliasingError",
    "BasisTruncationError",
    "extremal_signal", "extremal_signal_wavelet", "extremal_weight_gabor",
    "extremal_weight_wavelet",
    "OperatorSpectrum", "Signal", "assemble_operator", "concentration",
    "hermite_phase_basis", "lieb_quotient", "operator_norm",
    "radial_eigenvalues", "stft",
    "VariationalSolution", "constraint_moment",
    "solve_closed_form", "solve_kkt_oracle",
    "DiscProfile", "HalfPlaneField", "HalfPlaneGrid", "HardySignal",
    "HyperbolicDisc", "assemble_wavelet_operator",
    "bergman_radial_eigenvalues", "cauchy_wavelet", "hyperbolic_disc_mask",
    "wavelet_transform",
    "__version__",
]
