"""Window-level moment kernels and the transformed moment functions.

Everything here is a pure function of a five-period outcome window
``w = (y_tm3, y_tm2, y_tm1, y_t, y_tp1)`` and of the model parameters at the
window, expressed through ``delta = exp(gamma) - 1`` and the multiplicative
effect steps ``phi_t, phi_tp1``.

Every transformed parameter is a product of powers of ``(1 + delta)``,
``phi_t`` and ``phi_tp1``: ``alpha = exp(M @ beta)`` with ``beta = (log(1 +
delta), log phi_t, log phi_tp1)`` and ``M = EXPONENTS[family]`` a small
integer table.  The true values (``alpha_values``), the recovery of the
original parameters and the Wald restrictions of ``inference`` all read it.

Two computation paths exist for each of the twelve transformed moment
functions (three families A, B, C with four rows each):

* ``transformed_moment_row`` -- the kernel-linear expansion
  ``selector(y_tm2) * sum_j coef_j * K_j(w)``, where the coefficients are
  either 1 or entries of the transformed parameter vector alpha: the scalar
  reference the tests hold the estimators' 32-cell ``row_cells`` tables to.
* ``scaled_hbar_row`` -- the same value obtained by rescaling one of the two
  conditional moment forms ``hbar_u`` / ``hbar_upsilon``: the reference
  the oracle holds the estimators' row tables to, on all 32 windows at once
  (a window may hold outcome columns).  The two paths agree to float precision.

The eight window kernels come in two families of four:

* ``theta_kernels`` -- built from ``y_t + (1 - y_t) * y_tp1`` patterns,
* ``xi_kernels``    -- built from ``y_t * y_tp1`` / ``y_t * (1 - y_tp1)``
  patterns,

each split by the lagged state ``y_tm1``.  Every kernel takes values in
{-1, 0, 1} and only reads the last three window entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .model import ModelSpec

Window5 = tuple[int, int, int, int, int]


def alpha_labels(family: str) -> tuple[str, ...]:
    """Component labels of a family, one per row of its exponent table."""
    return tuple("abcdefgh"[:len(exponents(family))])


def all_windows() -> list[Window5]:
    """All 32 five-period binary windows, lexicographic order."""
    return list(product((0, 1), repeat=5))


# ---------------------------------------------------------------------------
# kernels


def _theta_components(y1, y0, yp):
    # shared by the scalar op and the vectorized aggregation path
    rise = y0 + (1 - y0) * yp
    return (
        (1 - y1) * rise,
        -(1 - y1) * (1 - y0) * yp,
        y1 * (rise - y1),
        -y1 * (1 - y0) * yp,
    )


def _xi_components(y1, y0, yp):
    return (
        y1 * (y0 * yp - y1),
        y1 * y0 * (1 - yp),
        (1 - y1) * y0 * yp,
        (1 - y1) * y0 * (1 - yp),
    )


def theta_kernels(w: Window5) -> np.ndarray:
    """First kernel family at a window; integer vector of length 4."""
    _, _, y1, y0, yp = w
    return np.array(_theta_components(y1, y0, yp), dtype=np.int64)


def xi_kernels(w: Window5) -> np.ndarray:
    """Second kernel family at a window; integer vector of length 4."""
    _, _, y1, y0, yp = w
    return np.array(_xi_components(y1, y0, yp), dtype=np.int64)


# ---------------------------------------------------------------------------
# conditional moment forms


@dataclass(frozen=True)
class GhCoefficients:
    """Mixing weights of the two conditional moment forms.

    All four lie strictly inside (-1, 1) whenever the effect steps are
    positive and ``delta > -1``; ``psi == phi_big`` exactly when
    ``delta == 0``.
    """

    psi: float
    phi_big: float
    psi_star: float
    phi_big_star: float


def gh_coefficients(delta: float, phi_t: float, phi_tp1: float) -> GhCoefficients:
    _check_params(delta, phi_t, phi_tp1)
    prod_phi = phi_t * phi_tp1
    inv_prod = 1.0 / prod_phi
    return GhCoefficients(
        psi=(prod_phi - (delta + 1.0)) / (prod_phi + (delta + 1.0)),
        phi_big=(prod_phi - 1.0) / (prod_phi + 1.0),
        psi_star=(inv_prod - (delta + 1.0)) / (inv_prod + (delta + 1.0)),
        phi_big_star=(inv_prod - 1.0) / (inv_prod + 1.0),
    )


def _check_params(delta: float, phi_t: float, phi_tp1: float, family: str = "") -> None:
    if phi_t <= 0.0 or phi_tp1 <= 0.0:
        raise ValueError("effect steps phi_t, phi_tp1 must be positive")
    if delta <= -1.0:
        raise ValueError("delta must exceed -1")
    if family == "C" and phi_t != phi_tp1:
        raise ValueError("family C requires equal effect steps (a time-trend model)")


def hbar_u(w: Window5, delta: float, phi_t: float, phi_tp1: float) -> float:
    """First conditional moment form; zero-mean given (eta, history to t-2)."""
    c = gh_coefficients(delta, phi_t, phi_tp1)
    _, y2, y1, y0, yp = w
    u = (y0 + (1 - y0) * yp
         - (1 - y0) * yp / phi_tp1
         - delta * y1 * (1 - y0) * yp / phi_tp1)
    mix = (c.psi - c.phi_big) * y2 + c.phi_big
    return (u - y1) + mix * ((u - y1) - 2.0 * u * (1 - y1))


def hbar_upsilon(w: Window5, delta: float, phi_t: float, phi_tp1: float) -> float:
    """Second conditional moment form; zero-mean given (eta, history to t-2)."""
    c = gh_coefficients(delta, phi_t, phi_tp1)
    _, y2, y1, y0, yp = w
    v = (y0 * yp
         + y0 * (1 - yp) * phi_tp1
         + delta * (1 - y1) * y0 * (1 - yp) * phi_tp1)
    mix = (c.psi_star - c.phi_big_star) * (1 - y2) + c.phi_big_star
    return (v - y1) + mix * ((v - y1) - 2.0 * (v - y1) * y1)


# ---------------------------------------------------------------------------
# transformed moment functions
#
# Row tables: for each family and row 1..4, the kernel family used, the
# selector on y_tm2 ('-' keeps y_tm2 == 0, '+' keeps y_tm2 == 1), and the
# four expansion coefficients (alpha labels, or "1" for a unit weight) on
# kernels 1..4.  This table is the single source of truth for the moment
# rows; the stacked estimation systems are generated from it.

ROW_TABLE: dict[str, tuple[tuple[str, str, tuple[str, str, str, str]], ...]] = {
    "A": (
        ("theta", "-", ("1", "b", "c", "d")),
        ("theta", "+", ("1", "b", "g", "a")),
        ("xi", "+", ("e", "g", "f", "1")),
        ("xi", "-", ("a", "c", "f", "1")),
    ),
    "B": (
        ("theta", "-", ("e", "g", "f", "1")),
        ("theta", "+", ("a", "c", "f", "1")),
        ("xi", "+", ("1", "b", "c", "d")),
        ("xi", "-", ("1", "b", "g", "a")),
    ),
    "C": (
        ("theta", "-", ("1", "b", "c", "e")),
        ("theta", "+", ("b", "d", "f", "1")),
        ("xi", "+", ("1", "a", "d", "g")),
        ("xi", "-", ("a", "c", "h", "1")),
    ),
}


def transformed_moment_row(family: str, which: int, w: Window5,
                           alphas: Sequence[float]) -> float:
    """Kernel-linear expansion of moment row ``which`` (1..4) of a family.

    ``alphas`` is the full transformed parameter vector in canonical label
    order for the family (7 entries for A/B, 8 for C).
    """
    kind, sel, coeffs = _row_entry(family, which)
    labels = alpha_labels(family)
    if len(alphas) != len(labels):
        raise ValueError(f"family {family} expects {len(labels)} alphas")
    named = dict(zip(labels, alphas))
    kern = theta_kernels(w) if kind == "theta" else xi_kernels(w)
    y2 = w[1]
    selector = (1 - y2) if sel == "-" else y2
    total = 0.0
    for coef, k in zip(coeffs, kern):
        total += (1.0 if coef == "1" else named[coef]) * k
    return selector * total


def _row_entry(family: str, which: int):
    if family not in ROW_TABLE:
        raise ValueError(f"unknown family {family!r}")
    if not 1 <= which <= 4:
        raise ValueError(f"row index must be 1..4, got {which}")
    return ROW_TABLE[family][which - 1]


# scale factors turning the hbar forms into the twelve expansions
def scaled_hbar_row(family: str, which: int, w: Window5, delta: float,
                    phi_t: float, phi_tp1: float) -> float:
    """Moment row evaluated by rescaling the matching conditional form."""
    _check_params(delta, phi_t, phi_tp1, family)
    kind, sel, _ = _row_entry(family, which)
    y2 = w[1]
    selector = (1 - y2) if sel == "-" else y2
    pp = phi_t * phi_tp1
    d1 = delta + 1.0
    if family == "A":
        scale = {
            1: 0.5 * (pp + 1.0),
            2: 0.5 * (pp + d1) / d1,
            3: 0.5 * (1.0 / pp + 1.0) * phi_t / d1,
            4: 0.5 * (1.0 / pp + d1) * phi_t / d1,
        }[which]
    elif family == "B":
        scale = {
            1: 0.5 * (pp + 1.0) / (phi_t * d1),
            2: 0.5 * (pp + d1) / (phi_t * d1),
            3: 0.5 * (1.0 / pp + 1.0),
            4: 0.5 * (1.0 / pp + d1) / d1,
        }[which]
    else:
        scale = {
            1: 0.5 * (pp + 1.0),
            2: 0.5 * (pp + d1) / (phi_t * d1),
            3: 0.5 * (1.0 / pp + 1.0),
            4: 0.5 * (1.0 / pp + d1) * phi_t / d1,
        }[which]
    form = hbar_u if kind == "theta" else hbar_upsilon
    return scale * selector * form(w, delta, phi_t, phi_tp1)


# ---------------------------------------------------------------------------
# transformed parameters: exponent tables, rows in ``alpha_labels`` order,
# columns (log(1 + delta), log phi_t, log phi_tp1); B is A with both phi
# columns negated, and C keeps its one effect step in the phi_t column

_EXPONENTS_A = np.array([[0, 1, 0], [0, 0, -1], [0, 1, 1], [1, 1, 0],
                         [-1, 1, 0], [-1, 0, -1], [-1, 1, 1]])
EXPONENTS: dict[str, np.ndarray] = {
    "A": _EXPONENTS_A,
    "B": _EXPONENTS_A * np.array([1, -1, -1]),
    "C": np.array([[0, 1, 0], [0, -1, 0], [0, 2, 0], [0, -2, 0],
                   [1, 1, 0], [-1, 1, 0], [1, -1, 0], [-1, -1, 0]]),
}
for _table in EXPONENTS.values():
    _table.flags.writeable = False


def exponents(family: str, model: str = "dummies") -> np.ndarray:
    """Exponent table M of a family under period dummies (L x 3) or a time
    trend, whose one effect step adds the two phi columns (L x 2)."""
    try:
        table = EXPONENTS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    if model == "dummies":
        return table
    if model == "trend":
        return np.column_stack((table[:, 0], table[:, 1] + table[:, 2]))
    raise ValueError(f"unknown model {model!r}")


def alpha_values(family: str, delta: float, phi_t: float, phi_tp1: float) -> np.ndarray:
    """Transformed parameter vector ``exp(M @ beta)`` from (delta, effect steps)."""
    _check_params(delta, phi_t, phi_tp1, family)
    return np.exp(exponents(family) @ np.log([delta + 1.0, phi_t, phi_tp1]))


def alpha_from_spec(family: str, spec: ModelSpec, t: int) -> np.ndarray:
    """True transformed parameter vector of a model at window ``t``."""
    return alpha_values(family, spec.delta, *spec.phi_pair(t))
