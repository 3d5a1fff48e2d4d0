"""Model specifications and the binary-panel data-generating process.

Two first-order Markov logit models are supported, differing only in how the
period effect enters the index:

* ``TimeDummiesSpec`` -- one free effect per period (``td[t]``),
* ``TimeTrendSpec``   -- a linear trend ``phi_coef * (t - tau)``.

In both, individual ``i`` carries a fixed effect ``eta_i`` and the outcome
follows ``P(y_t = 1 | y_{t-1}) = logistic(eta + gamma * y_{t-1} + effect(t))``
for ``t >= 2``; the initial outcome omits the lag term.  ``true_values``
reads off a spec the original parameters an estimator reports.

Two samplers draw a sample from this model: ``simulate_panel`` draws every
individual, ``simulate_histogram`` only a history table, how many follow
each of the ``2**T`` outcome histories, from their exact law.  A float
parameter refuses a bool and any value that is not a real number.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import _rng
from .panel import ROW_BLOCK, PanelData, _check_total, _is_integer


@dataclass(frozen=True)
class TimeDummiesSpec:
    """Markov logit model with one period effect per time period.

    Parameters
    ----------
    gamma : float
        State-dependence coefficient on the lagged outcome.
    td : tuple of float
        Period effects for periods 1..T; ``td[0]`` enters only the initial
        condition.
    """

    gamma: float
    td: tuple[float, ...]

    def __post_init__(self):
        _check_real("gamma", self.gamma)
        for k, v in enumerate(self.td):
            _check_real(f"td[{k}]", v)
        object.__setattr__(self, "td", tuple(float(v) for v in self.td))
        vals = (self.gamma,) + self.td
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("all parameters must be finite")

    @property
    def delta(self) -> float:
        """exp(gamma) - 1; always > -1."""
        return math.exp(self.gamma) - 1.0

    @property
    def n_periods(self) -> int:
        return len(self.td)

    def effect(self, t: int) -> float:
        """Period effect at period ``t`` (1-based)."""
        if not 1 <= t <= len(self.td):
            raise ValueError(f"period {t} outside 1..{len(self.td)}")
        return self.td[t - 1]

    def effect_step(self, t: int) -> float:
        """First difference of the period effect, effect(t) - effect(t-1)."""
        if not 2 <= t <= len(self.td):
            raise ValueError(f"effect step undefined at period {t}")
        return self.td[t - 1] - self.td[t - 2]

    def phi_pair(self, t: int) -> tuple[float, float]:
        """(exp of effect step at t, at t+1); both strictly positive."""
        return math.exp(self.effect_step(t)), math.exp(self.effect_step(t + 1))


@dataclass(frozen=True)
class TimeTrendSpec:
    """Markov logit model with a linear-in-time period effect.

    The index effect at period ``t`` is ``phi_coef * (t - tau)``, so every
    one-period step of the effect equals ``phi_coef``.
    """

    gamma: float
    phi_coef: float
    tau: float = 1.0

    def __post_init__(self):
        for key in ("gamma", "phi_coef", "tau"):
            _check_real(key, getattr(self, key))
        if not all(math.isfinite(v) for v in (self.gamma, self.phi_coef, self.tau)):
            raise ValueError("all parameters must be finite")

    @property
    def delta(self) -> float:
        return math.exp(self.gamma) - 1.0

    @property
    def phi(self) -> float:
        """exp(phi_coef), the multiplicative one-period effect step."""
        return math.exp(self.phi_coef)

    def effect(self, t: int) -> float:
        return self.phi_coef * (t - self.tau)

    def effect_step(self, t: int) -> float:
        return self.phi_coef

    def phi_pair(self, t: int) -> tuple[float, float]:
        return self.phi, self.phi


ModelSpec = TimeDummiesSpec | TimeTrendSpec


def true_values(spec: ModelSpec, family: str, t: int,
                two_step: bool = False) -> dict[str, float]:
    """True original parameters a ``family`` estimator at window ``t``
    reports; ``two_step`` adds the effect step one period before it."""
    if family == "C":
        return {"gamma": spec.gamma, "phi_coef": spec.phi_coef}
    out = {"gamma": spec.gamma, "dtd_t": spec.effect_step(t),
           "dtd_tp1": spec.effect_step(t + 1)}
    if two_step:
        out["dtd_tm1"] = spec.effect_step(t - 1)
    return out


@dataclass(frozen=True)
class DgpConfig:
    """Size, heterogeneity and seeding of a simulated panel.

    ``stream`` selects an independent replication stream for the same seed;
    the Monte Carlo harness assigns one stream per replication.
    """

    n_individuals: int
    n_periods: int
    sigma_eta_sq: float = 0.0
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        for key in ("n_individuals", "n_periods", "seed", "stream"):
            if not _is_integer(getattr(self, key)):
                raise ValueError(f"{key} must be an integer, got {getattr(self, key)!r}")
        _rng.check_seed(self.seed)
        if self.n_individuals <= 0:
            raise ValueError("n_individuals must be positive")
        if self.n_periods < 2:
            raise ValueError("n_periods must be at least 2")
        _check_variance(self.sigma_eta_sq)


def _check_real(key: str, value) -> None:
    """Refuse a bool or a value that is not a ``numbers.Real`` (numpy's
    included), naming the field ``key``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a real number, got {value!r}")


def _check_variance(sigma_eta_sq: float) -> None:
    """Refuse a fixed-effect variance outside ``[0, inf)``, nan included."""
    _check_real("sigma_eta_sq", sigma_eta_sq)
    if not 0 <= sigma_eta_sq < math.inf:
        raise ValueError(f"sigma_eta_sq must be nonnegative and finite, got {sigma_eta_sq!r}")


def check_periods(spec: ModelSpec, n_periods: int, histories: bool = False) -> None:
    """Refuse a dummies model with fewer period effects than ``n_periods``
    and, for ``histories``, more periods than ``history_law`` enumerates."""
    if isinstance(spec, TimeDummiesSpec) and spec.n_periods < n_periods:
        raise ValueError(f"spec provides {spec.n_periods} period effects, need {n_periods}")
    if histories and not 1 <= n_periods <= MAX_HISTORY_PERIODS:
        raise ValueError(f"history law enumerates 2**T histories; "
                         f"T = {n_periods} is outside 1..{MAX_HISTORY_PERIODS}")


def simulate_panel(spec: ModelSpec, cfg: DgpConfig) -> PanelData:
    """Draw a balanced N x T binary panel from the Markov logit model.

    The initial outcome is Bernoulli with index ``eta + effect(1)`` (no lag
    term); subsequent periods use the full index.  Fixed effects are
    N(0, sigma_eta_sq) via the inverse-CDF transform.  All draws are pure
    functions of ``(cfg.seed, cfg.stream, individual, period)``, so repeated
    or parallel calls with the same config are bitwise identical.

    Individuals are drawn ``ROW_BLOCK`` at a time, so the float64 shocks and
    indices stay cache-sized.  Each generator continues its stream across
    blocks, filling the shocks row by row, so the draws are those of one
    whole-panel draw, whatever the block.  The panel's ids are None (its
    rows are individuals 0 .. N - 1), so its N x T outcome bytes are all it
    holds; a size whose outcomes cannot be allocated is refused.
    """
    check_periods(spec, cfg.n_periods)
    n, T = cfg.n_individuals, cfg.n_periods
    sigma = math.sqrt(cfg.sigma_eta_sq)
    gen_eta = _rng.keyed_generator(cfg.seed, cfg.stream, _rng.SUB_ETA)
    gen_shocks = _rng.keyed_generator(cfg.seed, cfg.stream, _rng.SUB_SHOCKS)

    try:
        y = np.empty((n, T), dtype=np.int8, order="F")  # PanelData's layout
    except MemoryError:
        raise ValueError(f"a panel of {n} x {T} outcomes needs {n * T} bytes, "
                         "more than can be allocated") from None
    for start in range(0, n, ROW_BLOCK):
        block = y[start:start + ROW_BLOCK]
        eta = _rng.gaussian(gen_eta, len(block), sigma)
        zeta = gen_shocks.random((len(block), T))
        block[:, 0] = expit(eta + spec.effect(1)) > zeta[:, 0]
        for t in range(2, T + 1):
            idx = eta + spec.gamma * block[:, t - 2] + spec.effect(t)
            block[:, t - 1] = expit(idx) > zeta[:, t - 1]
    return PanelData(y=y, t0=1)


HISTORY_NODES = 64        # Gauss-Hermite nodes mixing the fixed effect
MAX_HISTORY_PERIODS = 16  # the law holds nodes x 2**T floats


def chain_law(spec: ModelSpec, eta: np.ndarray, n_periods: int,
              first: int = 1) -> np.ndarray:
    """Probabilities of the ``2**n_periods`` outcome histories at each fixed effect.

    Row ``k`` is the law of the histories over periods ``first ..
    first + n_periods - 1`` given the fixed effect ``eta[k]``; column ``h``
    is the history whose outcomes, period ``first`` first, are the binary
    digits of ``h``.  The periods before ``first`` are summed out as the
    chain passes them, so they cost two columns each.
    """
    # probs[k, h]: P(outcomes spell h | eta_k), extended one period at a
    # time; logistic(-x) keeps the complement accurate near 1
    index = eta + spec.effect(1)
    probs = np.stack((expit(-index), expit(index)), axis=1)
    for t in range(2, first + n_periods):
        last = np.arange(probs.shape[1]) & 1
        index = eta[:, None] + spec.gamma * last + spec.effect(t)
        probs = np.stack((probs * expit(-index), probs * expit(index)), axis=2)
        if t <= first:  # period t - 1 precedes the enumerated ones
            probs = probs.sum(axis=1)
        probs = probs.reshape(len(eta), -1)
    return probs


@functools.lru_cache(maxsize=16)
def history_law(spec: ModelSpec, n_periods: int, sigma_eta_sq: float) -> np.ndarray:
    """Exact probabilities of the ``2**n_periods`` outcome histories.

    Entry ``k`` is the probability of the history whose outcomes, period 1
    first, are the binary digits of ``k``.  The N(0, sigma_eta_sq) fixed
    effect is integrated out of ``chain_law`` by ``HISTORY_NODES``-point
    Gauss-Hermite quadrature; the integrand is smooth, so 64 nodes leave an
    error below 1e-12.  Laws are cached and read-only: ``hermgauss``'s
    eigensolve wakes OpenBLAS's thread pool, so ``run_mc`` draws the law
    before it forks its workers, which then inherit it.
    """
    check_periods(spec, n_periods, histories=True)
    _check_variance(sigma_eta_sq)
    nodes, weights = np.polynomial.hermite.hermgauss(HISTORY_NODES)
    eta = math.sqrt(2.0 * sigma_eta_sq) * nodes
    law = weights @ chain_law(spec, eta, n_periods) / math.sqrt(math.pi)
    law.flags.writeable = False
    return law


def simulate_histogram(spec: ModelSpec, cfg: DgpConfig) -> np.ndarray:
    """Draw the sample as a history table, int64 counts of its ``2**T``
    outcome histories.

    Entry ``k`` counts the individuals with ``history_law``'s history ``k``;
    the counts are Multinomial(N, law), drawn from the ``(cfg.seed,
    cfg.stream)`` generator.  The table equals the history counts of
    ``simulate_panel``'s panel in law (up to the quadrature error of the
    law), at a cost that does not grow with N.  An N that ``aggregate``
    refuses is refused before the draw.
    """
    _check_total(cfg.n_individuals)
    law = history_law(spec, cfg.n_periods, cfg.sigma_eta_sq)
    gen = _rng.keyed_generator(cfg.seed, cfg.stream, _rng.SUB_HISTOGRAM)
    return gen.multinomial(cfg.n_individuals, law)
