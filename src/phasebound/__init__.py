"""Sharp norm bounds, extremal weights and spectra for time-frequency and
wavelet localization operators.

The public names load lazily (PEP 562): the first access imports the
defining module and caches the name here, so ``import phasebound`` and a
closed-form bound load no numpy.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": ("BoundReport", "G", "G_beta", "gabor_bound", "lambda_root",
               "wavelet_bound"),
    "scalar": ("ConstraintSet", "Disc", "Plane"),
    "core": ("RadialProfile", "WeightField", "decreasing_rearrangement", "lp_norm",
             "schwarz_symmetrize"),
    "errors": ("PhaseboundError", "InvalidInputError", "DivergenceError",
               "UnattainedBoundError", "RegimeError", "AliasingError",
               "BasisTruncationError"),
    "extremals": ("extremal_signal", "extremal_signal_wavelet", "extremal_weight_gabor",
                  "extremal_weight_wavelet"),
    "gabor": ("OperatorSpectrum", "Signal", "assemble", "assemble_operator", "concentration",
              "hermite_phase_basis", "lieb_quotient", "operator_norm",
              "radial_eigenvalues", "spectrum", "stft"),
    "varprob": ("VariationalSolution", "constraint_moment", "solve_closed_form",
                "solve_kkt_oracle"),
    "wavelet": ("DiscProfile", "HalfPlaneField", "HalfPlaneGrid", "HardySignal",
                "assemble_wavelet_operator", "bergman_radial_eigenvalues",
                "cauchy_wavelet", "wavelet_transform"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    # cached after the first access, so later lookups never come here; the
    # benchmark's tracer swaps names in this namespace and relies on that
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
