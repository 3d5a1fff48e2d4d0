"""Counter-based random streams for reproducible, schedule-independent draws.

Every draw is a pure function of ``(seed, stream, substream, position)``:
the Philox generator is keyed by ``(seed, stream, substream)`` and the
position within a vectorized block plays the role of the counter.  Distinct
replications (streams) therefore never share state, so running them in any
order, or in parallel, yields bitwise-identical results.
"""

from __future__ import annotations

import numpy as np

# substream tags within one (seed, stream) pair
SUB_ETA = 0
SUB_SHOCKS = 1
SUB_HISTOGRAM = 2

_STREAM_BITS = 8  # low bits of key[1] hold the substream tag


def check_seed(seed: int) -> None:
    """Refuse a seed that is not a 64-bit key: reduced modulo 2**64, it
    would draw another seed's values."""
    if not 0 <= seed < (1 << 64):
        raise ValueError(f"seed must be in 0..2**64-1, got {seed!r}")


def keyed_generator(seed: int, stream: int = 0, substream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream, substream)."""
    check_seed(seed)
    if not 0 <= substream < (1 << _STREAM_BITS):
        raise ValueError(f"substream out of range: {substream}")
    if stream < 0 or stream >= (1 << (64 - _STREAM_BITS)):
        raise ValueError(f"stream out of range: {stream}")
    key = np.array([np.uint64(seed),
                    np.uint64((stream << _STREAM_BITS) | substream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_open(gen: np.random.Generator, size) -> np.ndarray:
    """Uniform draws in (0, 1]: the midpoint construction (k + 0.5) * 2**-53.

    Below 1/2 the draw is that midpoint.  Above it ``k + 0.5`` rounds to an
    even integer, so the draw is ``k * 2**-53`` or ``(k + 1) * 2**-53``, and
    the largest ``k`` draws exactly 1, where ``ndtri`` is infinite.
    """
    raw = gen.integers(0, 1 << 53, size=size, dtype=np.uint64)
    return (raw.astype(np.float64) + 0.5) * 2.0**-53


def gaussian(gen: np.random.Generator, size, sigma: float) -> np.ndarray:
    """N(0, sigma^2) draws: ``ndtri``, the port of Cephes' inverse normal
    CDF, at counter-based uniforms."""
    if sigma == 0.0:
        return np.zeros(size, dtype=np.float64)
    return sigma * ndtri(uniform_open(gen, size))


# Cephes' ndtri coefficients (S. L. Moshier): a rational function of
# (y - 1/2)**2 in the centre, of 1/sqrt(-2 log y) in the two tails
_EXP_M2 = 0.13533528323661269189    # exp(-2), where the tails start
_S2PI = 2.50662827463100050242      # sqrt(2 pi)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: np.ndarray, coef: tuple, monic: bool = False) -> np.ndarray:
    """Cephes' ``polevl`` at each ``x``, highest power first, or its
    ``p1evl`` when ``monic`` (a leading coefficient 1, not stored)."""
    acc = x + coef[0] if monic else x * coef[0] + coef[1]
    for c in coef[1 if monic else 2:]:
        acc *= x
        acc += c
    return acc


def ndtri(y: np.ndarray) -> np.ndarray:
    """The inverse standard normal CDF at each ``y`` in [0, 1]: a port of
    Cephes' ``ndtri``, with its branch tests, infinite at 0 and 1.

    The central branch runs on the whole array; the tails, ``y <= exp(-2)``
    and its mirror ``y > 1 - exp(-2)`` (about 27% of uniform draws), are
    gathered and overwrite it.  It differs from ``scipy.special.ndtri`` by a
    few ulp at most, where numpy's ``log`` differs from the C library's.
    """
    u = y - 0.5
    u2 = u * u
    x = _horner(u2, _P0)
    x *= u2
    x /= _horner(u2, _Q0, monic=True)
    x *= u
    x += u
    x *= _S2PI

    tail = np.flatnonzero((y <= _EXP_M2) | (y > 1.0 - _EXP_M2))
    if tail.size:
        t = y[tail]
        upper = t > 1.0 - _EXP_M2
        np.subtract(1.0, t, out=t, where=upper)
        with np.errstate(divide="ignore", invalid="ignore"):   # t = 0 at y = 0 or 1
            z = np.sqrt(-2.0 * np.log(t))
            x0 = z - np.log(z) / z
        w = 1.0 / z
        x1 = w * _horner(w, _P1) / _horner(w, _Q1, monic=True)
        far = np.flatnonzero(z >= 8.0)      # y <= exp(-32): about 1 draw in 4e13
        w = w[far]
        x1[far] = w * _horner(w, _P2) / _horner(w, _Q2, monic=True)
        x0 -= x1
        x0[t == 0.0] = np.inf
        x[tail] = np.where(upper, x0, -x0)
    return x
