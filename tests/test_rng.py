"""``_rng.ndtri``, the numpy port of Cephes' inverse normal CDF, against
scipy's ``ndtri``, which the tests keep as a reference."""

import numpy as np
from scipy.special import ndtri as scipy_ndtri

from panel_logit import _rng


def _ulps(a, b):
    """How many floats apart each pair is: the bit patterns of two floats of
    one sign differ by the number of floats between them."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_ndtri_matches_scipy_on_a_million_draws():
    # numpy's log is not the C library's: 615 of this stream's first 1e7
    # draws differ, all by 4 ulp or fewer but one, past the first 1e6, by 5
    u = _rng.uniform_open(_rng.keyed_generator(0), 1_000_000)
    assert _ulps(_rng.ndtri(u), scipy_ndtri(u)).max() <= 4


def test_ndtri_matches_scipy_at_its_branch_edges_and_far_tails():
    edges = np.array([2.0**-54, 1 - 2.0**-53, _rng._EXP_M2, 1 - _rng._EXP_M2])
    far = np.logspace(-320, -14, 1001)      # below exp(-32): the third branch
    y = np.concatenate((edges, np.nextafter(edges, 0), np.nextafter(edges, 1),
                        far, 1 - far[far > 1e-16]))
    assert _ulps(_rng.ndtri(y), scipy_ndtri(y)).max() <= 4


class _Greatest:
    """A generator whose every integer draw is the greatest it may be."""
    def integers(self, low, high, size, dtype):
        return np.full(size, high - 1, dtype=dtype)


def test_ndtri_is_zero_at_a_half_and_infinite_at_the_ends():
    # k + 0.5 rounds to 2**53 for the greatest k, so one draw in 2**53 is 1
    assert _rng.uniform_open(_Greatest(), 1).tolist() == [1.0]
    got = _rng.ndtri(np.array([0.5, 0.0, 1.0]))
    assert got.tolist() == [0.0, -np.inf, np.inf]
    assert not np.signbit(got[0])
