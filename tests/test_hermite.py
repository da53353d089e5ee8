import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermevander

from kinetic_gap.hermite import _fill_1d, hermite_table_3d, multi_indices

from oracles import hermite_table_1d, hermite_table_gather

DEGREES = [0, 1, 2, 3, 4, 7]


def random_points(m=517, seed=3):
    return 2.5 * np.random.default_rng(seed).standard_normal((m, 3))


@pytest.mark.parametrize("N", DEGREES)
def test_table_equals_gather_evaluator(N):
    pts = random_points()
    assert np.array_equal(hermite_table_3d(pts, N),
                          hermite_table_gather(pts, N))


@pytest.mark.parametrize("N", DEGREES)
def test_out_buffer_equals_gather_evaluator(N):
    # the collision assembly's layout: rows of a (nb, m) buffer, points as
    # the transposed view of a (3, m) coordinate buffer
    pts = random_points()
    coords = np.ascontiguousarray(pts.T)
    buf = np.full((len(multi_indices(N)), pts.shape[0]), np.nan)
    got = hermite_table_3d(coords.T, N, out=buf.T)
    assert got.base is buf
    assert np.array_equal(buf.T, hermite_table_gather(pts, N))
    plain = np.full((pts.shape[0], len(multi_indices(N))), np.nan)
    hermite_table_3d(pts, N, out=plain)
    assert np.array_equal(plain, hermite_table_gather(pts, N))


@pytest.mark.parametrize("N", range(7))
def test_skipped_unit_factors_keep_every_bit(N):
    # the plain tensor product (h_a(x) h_b(y)) h_c(z) of the same 1-D
    # tables, every factor h_0 = 1 multiplied in
    pts = random_points()
    tab = np.empty((N + 1, 3, pts.shape[0]))
    _fill_1d(pts.T, N, tab)
    idx = multi_indices(N)
    plain = (tab[idx[:, 0], 0] * tab[idx[:, 1], 1]) * tab[idx[:, 2], 2]
    assert np.array_equal(hermite_table_3d(pts, N), plain.T)


@pytest.mark.parametrize("N", [0, 3, 4])
def test_indices_order_the_columns(N):
    # any order of the multi-indices gives the same columns, permuted
    pts = random_points()
    order = np.random.default_rng(N).permutation(len(multi_indices(N)))
    got = hermite_table_3d(pts, N, indices=multi_indices(N)[order])
    assert np.array_equal(got, hermite_table_3d(pts, N)[:, order])


@pytest.mark.parametrize("N", DEGREES)
def test_table_matches_hermevander(N):
    # H_alpha = prod_i He_{alpha_i}(x_i) / sqrt(alpha_i!)
    pts = random_points()
    scale = 1.0 / np.sqrt([math.factorial(k) for k in range(N + 1)])
    one_d = [hermevander(pts[:, ax], N) * scale for ax in range(3)]
    idx = multi_indices(N)
    expected = (one_d[0][:, idx[:, 0]] * one_d[1][:, idx[:, 1]]
                * one_d[2][:, idx[:, 2]])
    got = hermite_table_3d(pts, N)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.max(np.abs(hermite_table_1d(pts[:, 0], N) - one_d[0])) \
        <= 1e-12 * np.max(np.abs(one_d[0]))
