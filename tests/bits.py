"""The float bits of values, for the checks that claim equality bit for bit."""

import math

import numpy as np


def float_bits(values):
    """The float bits of the values (complex as two floats), every NaN as one NaN."""
    floats = np.array(values, dtype=complex if np.iscomplexobj(values) else float).view(np.float64)
    floats[np.isnan(floats)] = math.nan
    return floats.view(np.uint64)
