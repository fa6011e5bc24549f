"""Debiased inference for linear regression with noisy or missing covariates.

The pipeline: `fit_corrected_lasso` solves the measurement-error-corrected
lasso pilot, `run_inference` turns it into debiased per-coordinate estimates
with standard errors, and `simultaneous_bands` widens those into a joint
confidence band via a multiplier bootstrap.  `simstudy` wraps the whole chain
in reproducible Monte Carlo designs, and `eivbands.cli` exposes everything as
a command line.

The namespace loads lazily: `import eivbands` imports no submodule, and a
public name or submodule imports its module on first access.  So importing a
submodule loads only what that submodule imports; `rng` and `debias`, and
everything that imports them, are the ones that load `scipy.special`.
"""

import sys

__version__ = "0.1.0"

# submodule -> the public names it exports
_EXPORTS = {
    "bootstrap": "BandResult MultiplierDraws band_covers critical_value "
                 "multiplier_maxima simultaneous_bands",
    "dataio": "read_dataset_csv read_noise_csv write_dataset_csv",
    "debias": "DebiasTable PreparedPilot debias_coordinate "
              "prepare_pilot run_inference",
    "errors": "DegeneracyError EivbandsError InputError NumericalError",
    "lasso": "Dataset FitResult NoiseSpec SolverConfig corrected_gram "
             "default_penalty default_radius fit_corrected_lasso hard_threshold",
    "mar": "MarEstimate",
    "nodewise": "NodewiseResult fit_nodewise",
    "simstudy": "SimConfig SimReport generate multi_target_study run_study "
                "single_target_study",
}
# public name -> (submodule, attribute), with the one alias added
_OWNER = {name: (module, name) for module, names in _EXPORTS.items()
          for name in names.split()}
_OWNER["estimate_mar"] = ("mar", "estimate")

_SUBMODULES = ("bootstrap", "cli", "dataio", "debias", "errors", "lasso",
               "mar", "nodewise", "reports", "rng", "simstudy")

__all__ = [*sorted(_OWNER), "__version__"]


def _submodule(name):
    # the import statement's own path, so `python -X importtime` lists what
    # it loads (importlib.import_module's pure-Python path goes unlisted)
    full = f"{__name__}.{name}"
    __import__(full)
    return sys.modules[full]


def __getattr__(name):
    # PEP 562: runs only for names not yet in the module globals
    if name in _OWNER:
        module, attr = _OWNER[name]
        value = getattr(_submodule(module), attr)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
