import math
import time

import numpy as np
import pytest

from kinetic_gap.quadrature import (gauss_legendre, half_sphere_rule,
                                    hermite_rule_1d, hermite_rule_3d,
                                    sphere_counts, sphere_rule)

from oracles import (CollisionSampler, gaussian_moment_1d, post_collision,
                     product_sphere_rule)


class TestHermiteRules:
    def test_single_node_is_mean(self):
        r = hermite_rule_1d(1)
        assert r.nodes[0] == 0.0 and r.weights[0] == 1.0

    def test_two_nodes_solve_moment_equations(self):
        # m0 = 1, m1 = 0, m2 = 1, m3 = 0 forces nodes +-1, weights 1/2
        r = hermite_rule_1d(2)
        assert np.allclose(r.nodes, [-1.0, 1.0], atol=1e-14)
        assert np.allclose(r.weights, [0.5, 0.5], atol=1e-14)

    def test_fourth_moment(self):
        r = hermite_rule_1d(8)
        assert abs(r.nodes ** 4 @ r.weights - 3.0) <= 1e-12

    @pytest.mark.parametrize("q", [3, 5, 10, 20])
    def test_exactness_up_to_degree(self, q):
        r = hermite_rule_1d(q)
        assert abs(r.weights.sum() - 1.0) <= 1e-13
        for k in range(2 * q):
            val = r.nodes ** k @ r.weights
            # odd moments cancel terms of the size of the next even moment
            scale = max(1.0, gaussian_moment_1d(k + (k % 2)))
            assert abs(val - gaussian_moment_1d(k)) <= 1e-12 * scale

    @pytest.mark.parametrize("q", [0, 65, -3])
    def test_range_rejected(self, q):
        with pytest.raises(ValueError):
            hermite_rule_1d(q)

    def test_tensor_rule(self):
        r = hermite_rule_3d(4)
        assert r.nodes.shape == (64, 3)
        assert abs(r.weights.sum() - 1.0) <= 1e-12
        # E[x^2 y^2] = 1
        val = (r.nodes[:, 0] ** 2 * r.nodes[:, 1] ** 2) @ r.weights
        assert abs(val - 1.0) <= 1e-12


def sphere_moment(a: int, b: int, c: int) -> float:
    """int over S^2 of sigma_x^a sigma_y^b sigma_z^c, in closed form."""
    if a % 2 or b % 2 or c % 2:
        return 0.0
    g = math.gamma
    return 2.0 * g((a + 1) / 2) * g((b + 1) / 2) * g((c + 1) / 2) \
        / g((a + b + c + 3) / 2)


# the maps that the collision pass folds by, applied to sigma
_HALF_SPHERE_MAPS = {
    "x-mirror": lambda s: s * [-1.0, 1.0, 1.0],
    "y-mirror": lambda s: s * [1.0, -1.0, 1.0],
    "xy-swap": lambda s: s[:, [1, 0, 2]],
}


class TestMirrorSymmetry:
    """The premise of the collision pass's fold by the x- and y-mirrors
    and the x <-> y swap."""

    def test_hermite_rule_is_exactly_symmetric(self):
        for q in range(1, 65):
            r = hermite_rule_1d(q)
            assert np.array_equal(r.nodes, -r.nodes[::-1])
            assert np.array_equal(r.weights, r.weights[::-1])

    # degrees 2 and 12 round their Legendre count up to even
    @pytest.mark.parametrize("degree", [2, 11, 12, 13, 23, 47])
    @pytest.mark.parametrize("name", sorted(_HALF_SPHERE_MAPS))
    def test_half_sphere_maps_onto_itself(self, degree, name):
        r = half_sphere_rule(degree)
        assert np.all(r.nodes[:, 2] > 0.0)
        image = _HALF_SPHERE_MAPS[name](r.nodes)
        dist = np.max(np.abs(image[:, None, :] - r.nodes[None, :, :]), axis=2)
        match = np.argmin(dist, axis=1)
        assert np.max(dist[np.arange(len(r)), match]) <= 1e-15
        assert sorted(match) == list(range(len(r)))
        assert np.array_equal(r.weights[match], r.weights)

    @pytest.mark.parametrize("degree", [2, 12, 23])
    def test_half_sphere_and_its_antipodes_are_the_rule(self, degree):
        half, full = half_sphere_rule(degree), sphere_rule(degree)
        both = np.concatenate([half.nodes, -half.nodes])
        assert sorted(map(tuple, np.round(both, 12))) \
            == sorted(map(tuple, np.round(full.nodes, 12)))
        assert 2.0 * half.weights.sum() == pytest.approx(4.0 * np.pi,
                                                         rel=1e-14)


class TestSphereRule:
    @pytest.mark.parametrize("degree", range(25))
    def test_exact_to_its_degree(self, degree):
        r = sphere_rule(degree)
        x, y, z = r.nodes.T
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                for c in range(degree + 1 - a - b):
                    val = (x ** a * y ** b * z ** c) @ r.weights
                    assert abs(val - sphere_moment(a, b, c)) <= 1e-13

    # the odd degrees whose Legendre count d // 2 + 1 is already even
    @pytest.mark.parametrize("degree", [3, 7, 11, 23])
    def test_smallest_at_odd_degree(self, degree):
        # one degree up, the Legendre count misses z^(d+1) and the phi
        # count aliases Re (x + i y)^(d+1) = sin^(d+1) cos((d+1) phi)
        r = sphere_rule(degree)
        x, y, z = r.nodes.T
        assert abs(z ** (degree + 1) @ r.weights
                   - sphere_moment(0, 0, degree + 1)) >= 1e-6
        assert abs(((x + 1j * y) ** (degree + 1)).real @ r.weights) >= 1e-6

    @pytest.mark.parametrize("degree, counts", [
        (0, (2, 4)), (1, (2, 4)), (5, (4, 8)), (11, (6, 12)),
        (12, (8, 16)), (23, (12, 24)), (47, (24, 48))])
    def test_counts(self, degree, counts):
        assert sphere_counts(degree) == counts
        r = sphere_rule(degree)
        assert len(r) == counts[0] * counts[1]
        assert len(half_sphere_rule(degree)) == len(r) // 2
        assert abs(r.weights.sum() - 4.0 * np.pi) <= 1e-12

    @pytest.mark.parametrize("degree, counts", [
        (11, (6, 12)), (23, (12, 24)), (47, (24, 48))])
    def test_former_levels_bit_for_bit(self, degree, counts):
        nodes, weights = product_sphere_rule(*counts)
        r = sphere_rule(degree)
        assert np.array_equal(r.nodes, nodes)
        assert np.array_equal(r.weights, weights)

    def test_negative_degree_rejected(self):
        for rule in (sphere_rule, half_sphere_rule, sphere_counts):
            with pytest.raises(ValueError, match="degree"):
                rule(-1)

    def test_gauss_legendre_exactness(self):
        r = gauss_legendre(6)
        for k in range(12):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(r.nodes ** k @ r.weights - exact) <= 1e-13


class TestPostCollision:
    def test_equal_velocities_degenerate(self):
        v = np.array([1.0, -2.0, 0.5])
        vp, vps = post_collision(v, v, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(vp, v) and np.allclose(vps, v)

    def test_identity_collision(self):
        v = np.array([1.0, 0.0, 0.0])
        vs = np.array([-1.0, 0.0, 0.0])
        sigma = (v - vs) / np.linalg.norm(v - vs)
        vp, vps = post_collision(v, vs, sigma)
        assert np.allclose(vp, v) and np.allclose(vps, vs)

    def test_exchange_collision(self):
        v = np.array([1.0, 2.0, 3.0])
        vs = np.array([0.0, -1.0, 1.0])
        sigma = -(v - vs) / np.linalg.norm(v - vs)
        vp, vps = post_collision(v, vs, sigma)
        assert np.allclose(vp, vs) and np.allclose(vps, v)

    def test_non_unit_sigma_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            post_collision(np.zeros(3), np.ones(3), np.array([0.0, 0.0, 1.1]))

    def test_conservation_bulk(self):
        # acceptance criterion 1 at reduced size; the timed 1e5 run lives in
        # the acceptance module
        rng = np.random.default_rng(2)
        v = rng.standard_normal((10_000, 3))
        vs = rng.standard_normal((10_000, 3))
        raw = rng.standard_normal((10_000, 3))
        sigma = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        vp, vps = post_collision(v, vs, sigma)
        assert np.max(np.abs(vp + vps - v - vs)) <= 1e-13
        en = np.sum(v * v + vs * vs, axis=1)
        en_p = np.sum(vp * vp + vps * vps, axis=1)
        assert np.max(np.abs(en_p - en) / np.maximum(en, 1e-300)) <= 1e-12

    def test_inverse_collision(self):
        # mapping (v', v'*) back with the unprimed relative direction
        # recovers (v, v*); see the collision-geometry involution note
        rng = np.random.default_rng(3)
        v = rng.standard_normal((10_000, 3))
        vs = rng.standard_normal((10_000, 3))
        raw = rng.standard_normal((10_000, 3))
        sigma = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        vp, vps = post_collision(v, vs, sigma)
        omega = (v - vs) / np.linalg.norm(v - vs, axis=1, keepdims=True)
        v2, vs2 = post_collision(vp, vps, omega)
        assert np.max(np.abs(v2 - v)) <= 1e-10
        assert np.max(np.abs(vs2 - vs)) <= 1e-10

    def test_collision_pair_invariants(self):
        v, v_star = np.array([0.3, 1.0, -2.0]), np.array([1.0, 1.0, 1.0])
        sigma = np.array([0.0, 1.0, 0.0])
        v_prime, v_prime_star = post_collision(v, v_star, sigma)
        assert np.max(np.abs(v_prime + v_prime_star
                             - v - v_star)) <= 1e-13
        assert abs(np.linalg.norm(sigma) - 1.0) <= 1e-14

    def test_cos_deviation_within_clamp(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((1000, 3))
        vs = rng.standard_normal((1000, 3))
        diff = v - vs
        sigma = diff / np.linalg.norm(diff, axis=1, keepdims=True)
        ct = np.einsum("ij,ij->i", sigma, diff) \
            / np.linalg.norm(diff, axis=1)
        assert np.max(np.abs(ct)) <= 1.0 + 1e-14


class TestCollisionSampler:
    def test_deterministic_streams(self):
        a = CollisionSampler(123).draw(1000)
        b = CollisionSampler(123).draw(1000)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_normalization_estimate(self):
        v, vs, sigma, w = CollisionSampler(5).draw(100_000)
        assert np.allclose(w, 4.0 * np.pi)
        est = w.mean()
        assert abs(est - 4.0 * np.pi) <= 1e-12   # constant weight: exact

    def test_second_moment_estimate(self):
        v, vs, sigma, w = CollisionSampler(6).draw(100_000)
        g = w * np.sum(v * v, axis=1)
        se = g.std() / np.sqrt(len(g))
        assert abs(g.mean() - 3.0 * 4.0 * np.pi) <= 3.0 * se

    def test_sigma_unit(self):
        _, _, sigma, _ = CollisionSampler(7).draw(10_000)
        assert np.max(np.abs(np.linalg.norm(sigma, axis=1) - 1.0)) <= 1e-12

    def test_count_validated(self):
        with pytest.raises(ValueError):
            CollisionSampler(1).draw(0)
