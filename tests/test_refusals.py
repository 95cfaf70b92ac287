"""Refusals across the modules: each bad input raises a ValueError whose
message names it, before any work is done."""

import math
import re

import numpy as np
import pytest

from kerrosc.driven import (
    DriveSpec,
    FrequencySpec,
    displaced_number_state,
    eigenfunction,
    hermite_functions,
)
from kerrosc.evolution import (
    ModelParams,
    integrate_wei_norman,
    linearized_ladder,
)
from kerrosc.fock import (
    annihilation_operator,
    expectation,
    inner,
    number_state,
)
from kerrosc.observables import AutocorrSeries, PhaseSpaceGrid, detect_revivals
from kerrosc.timemap import (
    MassSpec,
    heisenberg_coefficients,
    physical_time,
    rescaled_time,
)

PARAMS = ModelParams(omega0=1.0, chi=0.1, drive=DriveSpec.cosine(1.0, 1.0))
SERIES = AutocorrSeries(times=np.linspace(0.0, 1.0, 5), values=np.ones(5))
EXPONENTIAL = MassSpec.exponential(1.0, 0.1)

# Each check is a comparison that NaN fails, so a NaN time or tolerance is
# refused by name instead of running on to NaN results or a later, misleading
# error.
NON_FINITE = {
    "tabulated-drive": (lambda: DriveSpec.tabulated([0, 1], [0, 1])(math.nan),
                        "drive sampled at t=nan"),
    "tabulated-mass": (lambda: MassSpec.tabulated([0, 1], [1, 2])(math.nan),
                       "mass sampled at t=nan"),
    "cosine-drive": (lambda: DriveSpec.cosine(1, 1)(math.nan),
                     "drive sampled at t=nan"),
    "cosine-drive-inf": (lambda: DriveSpec.cosine(1, 1)([0.0, math.inf]),
                         "drive sampled at t=inf"),
    "constant-drive": (lambda: DriveSpec.constant(1)(-math.inf),
                       "drive sampled at t=-inf"),
    "exponential-mass": (lambda: EXPONENTIAL(math.nan),
                         "mass sampled at t=nan"),
    "exponential-mass-inf": (lambda: EXPONENTIAL(math.inf),
                             "mass sampled at t=inf"),
    "tabulated-drive-inf": (
        lambda: DriveSpec.tabulated([0, 1], [0, 1])(math.inf),
        "drive sampled at t=inf"),
    "frequency": (lambda: FrequencySpec(1.0)(math.nan),
                  "frequency sampled at t=nan"),
    "frequency-inf": (lambda: FrequencySpec(1.0, 0.2)([math.inf, 0.0]),
                      "frequency sampled at t=inf"),
    "rescaled-exponential": (lambda: rescaled_time(EXPONENTIAL, math.nan),
                             "t must not be NaN"),
    "rescaled-constant": (
        lambda: rescaled_time(MassSpec.constant(), [0.0, math.nan]),
        "t must not be NaN"),
    "physical-exponential": (lambda: physical_time(EXPONENTIAL, math.nan),
                             "tau must not be NaN"),
    "physical-constant": (
        lambda: physical_time(MassSpec.constant(), [math.nan, 1.0]),
        "tau must not be NaN"),
    "ladder-nan-tol": (lambda: linearized_ladder(PARAMS, 0, 1.0, tol=math.nan),
                       "tol must be positive and finite, got nan"),
    "ladder-inf-tol": (lambda: linearized_ladder(PARAMS, 0, 1.0, tol=math.inf),
                       "tol must be positive and finite, got inf"),
    "ladder-nan-t": (lambda: linearized_ladder(PARAMS, 0, math.nan),
                     "t must be finite and non-negative, got nan"),
    "wei-norman-nan": (lambda: integrate_wei_norman(PARAMS, math.nan),
                       "t_end must be finite and non-negative, got nan"),
    "wei-norman-inf": (lambda: integrate_wei_norman(PARAMS, math.inf),
                       "t_end must be finite and non-negative, got inf"),
    "revival-threshold": (lambda: detect_revivals(SERIES, math.nan),
                          "threshold must be positive, got nan"),
}


@pytest.mark.parametrize("call, message", NON_FINITE.values(),
                         ids=NON_FINITE.keys())
def test_nan_and_infinite_inputs_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# Refusals no other test reaches, each with its whole message.
REFUSED = {
    "hermite-n-max": (lambda: hermite_functions(-1, 0.0),
                      "n_max must be non-negative"),
    "eigenfunction-level": (
        lambda: eigenfunction(-1, 0.0, DriveSpec.zero(), FrequencySpec(1.0),
                              0.0),
        "level index must be non-negative"),
    "displaced-level": (lambda: displaced_number_state(5, 0.1, 5),
                        "level n=5 outside basis of size 5"),
    "ladder-level": (lambda: linearized_ladder(PARAMS, -1, 1.0),
                     "level index must be non-negative"),
    "ladder-negative-t": (lambda: linearized_ladder(PARAMS, 0, -1.0),
                          "t must be finite and non-negative, got -1.0"),
    "ladder-zero-tol": (lambda: linearized_ladder(PARAMS, 0, 1.0, tol=0.0),
                        "tol must be positive and finite, got 0.0"),
    "wei-norman-negative": (lambda: integrate_wei_norman(PARAMS, -1.0),
                            "t_end must be finite and non-negative, got -1.0"),
    "wei-norman-samples": (lambda: integrate_wei_norman(PARAMS, 1.0, 1),
                           "need at least two output samples"),
    "number-state": (lambda: number_state(3, 3),
                     "level n=3 outside basis of size 3"),
    "expectation": (lambda: expectation(annihilation_operator(4),
                                        number_state(0, 5)),
                    "dimension mismatch: operator 4, state 5"),
    "inner": (lambda: inner(number_state(0, 4), number_state(0, 5)),
              "dimension mismatch: 4 vs 5"),
    "autocorr-series": (lambda: AutocorrSeries(times=[0.0, 1.0],
                                               values=[1.0]),
                        "times and values must match and be non-empty"),
    "phase-space-grid": (lambda: PhaseSpaceGrid(x=[0.0, 1.0], y=[0.0],
                                                values=np.zeros((2, 1))),
                         "values must have shape (len(y), len(x))"),
    "heisenberg-mass": (lambda: heisenberg_coefficients(0.0, 1.0, 0.1, 0.0),
                        "mass and frequency must be positive"),
}


@pytest.mark.parametrize("call, message", REFUSED.values(),
                         ids=REFUSED.keys())
def test_refusal_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
