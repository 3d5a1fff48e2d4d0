"""Scalar references for the window kernels and the moment rows.

Each function here evaluates one window at a time, from the kernel
components and ``ROW_TABLE`` of ``kernels``, and ``bar`` averages them
over ``all_windows()``.  None reads the 32-cell tables the estimators
solve (``kernels.row_cells``, ``kernels.DAGGER_CELLS``), so the tests hold
those tables to a transcription of their own.
"""

import numpy as np

from panel_logit.kernels import (ROW_TABLE, _theta_components, _xi_components,
                                 all_windows, alpha_labels)

# selector weights on the window's pre-window outcomes (y_{t-3}, y_{t-2})
SELECTORS = {
    "-": lambda w: 1 - w[1],
    "+": lambda w: w[1],
    "-+": lambda w: (1 - w[1]) * w[0],
    "++": lambda w: w[1] * w[0],
}


def theta_kernels(w):
    """First kernel family at a window; integer vector of length 4."""
    _, _, y1, y0, yp = w
    return np.array(_theta_components(y1, y0, yp), dtype=np.int64)


def xi_kernels(w):
    """Second kernel family at a window; integer vector of length 4."""
    _, _, y1, y0, yp = w
    return np.array(_xi_components(y1, y0, yp), dtype=np.int64)


def window_kernels(kind, w):
    return theta_kernels(w) if kind == "theta" else xi_kernels(w)


def transformed_moment_row(family, which, w, alphas):
    """Kernel-linear expansion of moment row ``which`` (1..4) of a family.

    ``alphas`` is the full transformed parameter vector in canonical label
    order for the family (7 entries for A/B, 8 for C).
    """
    kind, sel, coeffs = ROW_TABLE[family][which - 1]
    named = dict(zip(alpha_labels(family), alphas))
    total = 0.0
    for coef, k in zip(coeffs, window_kernels(kind, w)):
        total += (1.0 if coef == "1" else named[coef]) * k
    return SELECTORS[sel](w) * total


def bar(stats, kind, j, selector, back=0):
    """Mean of kernel ``j`` (1..4) of a family under a selector over the
    cells of an aggregate at window ``t``, read at window ``t - back``
    (0 or 1; window ``t - 1`` is the first four periods of a cell)."""
    windows = [(0,) * back + w[:5 - back] for w in all_windows()]
    values = [window_kernels(kind, w)[j - 1] * SELECTORS[selector](w) for w in windows]
    counts = stats.summands.counts
    return float(np.dot(counts, values) / counts.sum())
