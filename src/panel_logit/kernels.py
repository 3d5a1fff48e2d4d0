"""Window-level moment kernels, the moment rows and their 32-cell tables.

Everything here is a pure function of a five-period outcome window
``w = (y_tm3, y_tm2, y_tm1, y_t, y_tp1)`` and of the model parameters at the
window, expressed through ``delta = exp(gamma) - 1`` and the multiplicative
effect steps ``phi_t, phi_tp1``.

Every transformed parameter is a product of powers of ``(1 + delta)``,
``phi_t`` and ``phi_tp1``: ``alpha = exp(M @ beta)`` with ``beta = (log(1 +
delta), log phi_t, log phi_tp1)`` and ``M = EXPONENTS[family]`` a small
integer table.  The true values (``alpha_values``), the recovery of the
original parameters and the Wald restrictions of ``inference`` all read it.

The eight window kernels come in two families of four, each split by the
lagged state ``y_tm1``: the first (``theta``) built from
``y_t + (1 - y_t) * y_tp1`` patterns, the second (``xi``) from
``y_t * y_tp1`` / ``y_t * (1 - y_tp1)`` patterns.  Every kernel takes
values in {-1, 0, 1} and only reads the last three window entries.  ``ROW_TABLE`` writes each of the twelve
transformed moment rows (families A, B, C with four rows each) as a
selector on ``y_tm2`` times a kernel-linear expansion whose coefficients
are 1 or components of alpha.

Since a row is a function of the window alone, this module builds every
table over the 32 window cells once at import, from the kernels and
``ROW_TABLE``: ``row_cells(family)``, the eight stacked rows the
estimators solve, and ``DAGGER_CELLS``, the two-step's dagger kernels.
Rows 5..8 and the dagger kernels read window ``t - 1``, the first four
periods of window ``t``: at cell ``code`` that is the window of code
``code >> 1``.  ``scaled_hbar_row`` gives every row a second way, by
rescaling one of the two conditional moment forms ``hbar_u`` /
``hbar_upsilon``: the reference the oracle holds ``row_cells`` to, on all
32 windows at once (a window may hold outcome columns).
"""

from __future__ import annotations

from itertools import product

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


# ---------------------------------------------------------------------------
# conditional moment forms


def _mix(delta: float, pp: float) -> tuple[float, float]:
    """Mixing weights ``(psi, phi_big)`` of a conditional moment form at the
    effect-step product ``pp``: ``phi_t * phi_tp1`` for ``hbar_u``, its
    reciprocal for ``hbar_upsilon``.  Both lie strictly inside (-1, 1) when
    ``pp > 0`` and ``delta > -1``, and are equal exactly when ``delta == 0``.
    """
    return (pp - (delta + 1.0)) / (pp + (delta + 1.0)), (pp - 1.0) / (pp + 1.0)


def _check_params(delta: float, phi_t: float, phi_tp1: float, family: str = "") -> None:
    if phi_t <= 0.0 or phi_tp1 <= 0.0:
        raise ValueError("effect steps phi_t, phi_tp1 must be positive")
    if delta <= -1.0:
        raise ValueError("delta must exceed -1")
    if family == "C" and phi_t != phi_tp1:
        raise ValueError("family C requires equal effect steps (a time-trend model)")


def hbar_u(w: Window5, delta: float, phi_t: float, phi_tp1: float) -> float:
    """First conditional moment form; zero-mean given (eta, history to t-2)."""
    _check_params(delta, phi_t, phi_tp1)
    psi, phi_big = _mix(delta, phi_t * phi_tp1)
    _, y2, y1, y0, yp = w
    u = (y0 + (1 - y0) * yp
         - (1 - y0) * yp / phi_tp1
         - delta * y1 * (1 - y0) * yp / phi_tp1)
    mix = (psi - phi_big) * y2 + phi_big
    return (u - y1) + mix * ((u - y1) - 2.0 * u * (1 - y1))


def hbar_upsilon(w: Window5, delta: float, phi_t: float, phi_tp1: float) -> float:
    """Second conditional moment form; zero-mean given (eta, history to t-2)."""
    _check_params(delta, phi_t, phi_tp1)
    psi, phi_big = _mix(delta, 1.0 / (phi_t * phi_tp1))
    _, y2, y1, y0, yp = w
    v = (y0 * yp
         + y0 * (1 - yp) * phi_tp1
         + delta * (1 - y1) * y0 * (1 - yp) * phi_tp1)
    mix = (psi - phi_big) * (1 - y2) + phi_big
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


# ---------------------------------------------------------------------------
# the 32-cell tables

# outcomes (y_{t-3}, .., y_{t+1}) of the 32 windows in window-code order
# (code = 16 y_{t-3} + 8 y_{t-2} + 4 y_{t-1} + 2 y_t + y_{t+1}), and of
# window t - 1 at each cell: code >> 1, with y_{t-4} read as 0 (no row or
# dagger kernel reads it)
WINDOW_COLUMNS = np.array(all_windows(), dtype=np.int64).T
_PREVIOUS_COLUMNS = WINDOW_COLUMNS[:, np.arange(32) >> 1]


def _selected_kernels(kind: str, sel: str, windows: np.ndarray) -> np.ndarray:
    """Kernels 1..4 of a family times a selector on ``y_tm2``, at each
    window column: integers, 4 x 32."""
    _, y2, y1, y0, yp = windows
    components = _theta_components if kind == "theta" else _xi_components
    return np.array(components(y1, y0, yp)) * (y2 if sel == "+" else 1 - y2)


def _cell_table(table: np.ndarray) -> np.ndarray:
    # float64, C-ordered and read-only: the order in which a product with
    # the population's probabilities adds cells shows in its last bits
    out = np.array(table, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


def _stacked_cells(family: str) -> tuple[np.ndarray, np.ndarray]:
    labels = alpha_labels(family)
    y = np.zeros((32, 8), dtype=np.int64)
    x = np.zeros((32, 8, len(labels)), dtype=np.int64)
    for base, (kind, sel, coeffs) in enumerate(ROW_TABLE[family]):
        kern = _selected_kernels(kind, sel, WINDOW_COLUMNS)
        # rows 5..8: at window t - 1 (C), or times y_{t-3} (A, B); integer
        # products, so no cell becomes -0.0
        stacked = (_selected_kernels(kind, sel, _PREVIOUS_COLUMNS) if family == "C"
                   else kern * WINDOW_COLUMNS[0])
        for row, table in ((base, kern), (base + 4, stacked)):
            for coef, k in zip(coeffs, table):
                if coef == "1":
                    y[:, row] = -k
                else:
                    x[:, row, labels.index(coef)] = k
    return _cell_table(y), _cell_table(x)


_ROW_CELLS = {family: _stacked_cells(family) for family in ROW_TABLE}


def row_cells(family: str) -> tuple[np.ndarray, np.ndarray]:
    """The eight stacked rows of a family at the 32 window cells.

    The row value at cell ``k`` is ``y[k, r] - x[k, r] @ alpha`` over the
    family's full transformed parameter vector.  Rows 1..4 are the rows of
    ``ROW_TABLE`` at window ``t``, the kernel with a unit coefficient moved
    to ``y`` with a sign flip; rows 5..8 are rows 1..4 times ``y_{t-3}``
    (families A and B) or at window ``t - 1`` (family C).  ``y`` is 32 x
    8 and ``x`` 32 x 8 x L over the family's L components, both read-only;
    cells are in window-code order, rows 1..8 in order.
    """
    try:
        return _ROW_CELLS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None


# the two-step's dagger kernels 1..4 at window t - 1, 32 cells x 4: the
# first kernel family under '-' for A, the second under '+' for B
DAGGER_CELLS: dict[str, np.ndarray] = {
    family: _cell_table(_selected_kernels(kind, sel, _PREVIOUS_COLUMNS).T)
    for family, kind, sel in (("A", "theta", "-"), ("B", "xi", "+"))
}
