import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rindler import geometry
from rindler.channels import apply, unruh_kraus
from rindler.geometry import (
    bloch_of,
    image_of_pure,
    radius_from_center,
    spheroid_report,
    surface_grid,
)
from rindler.qmat import pure_qubit

ASYMPTOTIC_CENTER = np.array([0.0, 0.0, -0.5])
GOLDEN = Path(__file__).parent / "golden"


class TestBlochOf:
    def test_north_pole(self):
        assert_allclose(bloch_of(np.diag([1.0, 0.0])), (0, 0, 1), atol=1e-14)

    def test_maximally_mixed(self):
        assert_allclose(bloch_of(np.eye(2) / 2), (0, 0, 0), atol=1e-14)

    def test_asymptotic_image_of_maximally_mixed(self):
        rho = apply(unruh_kraus(np.pi / 4), np.eye(2, dtype=complex) / 2)
        assert_allclose(bloch_of(rho), (0, 0, -0.5), atol=1e-14)

    def test_equator(self):
        psi = pure_qubit(np.pi / 2, 0.0)
        assert_allclose(bloch_of(np.outer(psi, psi.conj())), (1, 0, 0),
                        atol=1e-14)


class TestImageOfPure:
    def test_north_pole_maps_to_origin_asymptotically(self):
        for phi in (0.0, 1.0, 3.0):
            assert_allclose(image_of_pure(0.0, phi, np.pi / 4), (0, 0, 0),
                            atol=1e-14)

    def test_south_pole_is_fixed(self):
        for r in np.linspace(0, np.pi / 4, 12):
            for phi in (0.0, 2.0):
                assert_allclose(image_of_pure(np.pi, phi, r), (0, 0, -1),
                                atol=1e-12)

    def test_equatorial_point(self):
        got = image_of_pure(np.pi / 2, 0.0, np.pi / 4)
        assert_allclose(got, (1 / np.sqrt(2), 0, -0.5), atol=1e-14)

    def test_matches_channel_action(self):
        rng = np.random.default_rng(211)
        for _ in range(10000):
            theta = np.pi * rng.random()
            phi = 2 * np.pi * rng.random()
            r = (np.pi / 4) * rng.random()
            psi = pure_qubit(theta, phi)
            direct = bloch_of(apply(unruh_kraus(r), np.outer(psi, psi.conj())))
            assert_allclose(image_of_pure(theta, phi, r), direct, atol=1e-12)

    def test_midpoint_linearity(self):
        for r in np.linspace(0, np.pi / 4, 8):
            top = np.array(image_of_pure(0.0, 0.0, r))
            bottom = np.array(image_of_pure(np.pi, 0.0, r))
            mixed = bloch_of(apply(unruh_kraus(r), np.eye(2, dtype=complex) / 2))
            assert_allclose((top + bottom) / 2, mixed, atol=1e-12)

    @pytest.mark.parametrize(
        "theta,phi,r",
        [(-0.1, 0.0, 0.1), (3.5, 0.0, 0.1), (0.5, 7.0, 0.1), (0.5, 0.0, 1.0)],
    )
    def test_domain_errors(self, theta, phi, r):
        with pytest.raises(ValueError):
            image_of_pure(theta, phi, r)


class TestRadiusFromCenter:
    def test_equator(self):
        assert radius_from_center(np.pi / 2) == pytest.approx(1 / np.sqrt(2))

    def test_poles(self):
        assert radius_from_center(0.0) == pytest.approx(0.5)
        assert radius_from_center(np.pi) == pytest.approx(0.5)

    def test_intermediate_value(self):
        assert radius_from_center(np.pi / 3) == pytest.approx(
            0.6614378277661476, abs=1e-14
        )

    def test_consistent_with_asymptotic_image(self):
        rng = np.random.default_rng(223)
        for _ in range(200):
            theta = np.pi * rng.random()
            phi = 2 * np.pi * rng.random()
            p = np.array(image_of_pure(theta, phi, np.pi / 4))
            assert np.linalg.norm(p - ASYMPTOTIC_CENTER) == pytest.approx(
                radius_from_center(theta), abs=1e-10
            )


class TestSpheroidReport:
    def test_asymptotic_regime(self):
        rep = spheroid_report(np.pi / 4, 10000)
        assert rep.volume_fraction == pytest.approx(0.25, abs=1e-6)
        assert rep.eccentricity == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert_allclose(rep.center, (0, 0, -0.5), atol=1e-12)
        assert rep.semi_axis_equatorial == pytest.approx(1 / np.sqrt(2))
        assert rep.semi_axis_polar == pytest.approx(0.5)

    def test_identity_limit(self):
        rep = spheroid_report(0.0, 1000)
        assert rep.volume_fraction == pytest.approx(1.0, abs=1e-9)
        assert rep.eccentricity == pytest.approx(0.0, abs=1e-12)
        assert_allclose(rep.center, (0, 0, 0), atol=1e-14)

    def test_intermediate_angle(self):
        rep = spheroid_report(np.pi / 6, 2000)
        assert_allclose(rep.center, (0, 0, -0.25), atol=1e-12)
        assert rep.semi_axis_equatorial == pytest.approx(np.sqrt(3) / 2)
        assert rep.semi_axis_polar == pytest.approx(0.75)
        assert rep.volume_fraction == pytest.approx(0.5625, abs=1e-6)

    def test_quadrature_matches_axes_product(self):
        # spheroid volume is (4 pi / 3) * equatorial^2 * polar, so the
        # fraction must equal equatorial^2 * polar for every r
        for r in np.linspace(0, np.pi / 4, 9):
            rep = spheroid_report(r, 4000)
            want = rep.semi_axis_equatorial ** 2 * rep.semi_axis_polar
            assert rep.volume_fraction == pytest.approx(want, abs=1e-8)

    def test_eccentricity_axes_identity(self):
        for r in np.linspace(0, np.pi / 4, 9):
            rep = spheroid_report(r, 1000)
            want = np.sqrt(
                1 - (rep.semi_axis_polar / rep.semi_axis_equatorial) ** 2
            )
            assert rep.eccentricity == pytest.approx(want, abs=1e-12)

    def test_odd_step_count_is_rounded_up(self):
        rep = spheroid_report(np.pi / 4, 101)
        assert rep.volume_fraction == pytest.approx(0.25, abs=1e-6)

    def test_rejects_too_few_steps(self):
        with pytest.raises(ValueError):
            spheroid_report(0.1, 50)

    # A count that is not whole fails with the count's name, never truncated.
    @pytest.mark.parametrize("steps", [100.5, 99.5, float("nan"), float("inf")])
    def test_rejects_counts_that_are_not_whole(self, steps):
        with pytest.raises(
            ValueError, match="integration_steps must be a whole number >= 100"
        ):
            spheroid_report(0.3, steps)

    def test_accepts_integral_float_steps(self):
        assert spheroid_report(0.3, 200.0) == spheroid_report(0.3, 200)

    def test_golden_reports(self):
        # repr of every field for 30 angles (0, 1e-8, 0.3, pi/4 and seeded
        # random ones) at 100, 101, 1000, 10000 and 20000 steps, recorded
        # while the integrand was a per-node Python loop; 69 volume_fraction
        # reprs re-recorded, up to 4.9e-16 relative, when Simpson's weights
        # became numpy's own sums in place of a BLAS dot.
        cases = json.loads((GOLDEN / "spheroid_volume.json").read_text())["cases"]
        assert len(cases) == 150
        for case in cases:
            rep = spheroid_report(float(case["r"]), case["steps"])
            got = {"center": [repr(v) for v in rep.center],
                   **{k: repr(v) for k, v in zip(rep._fields[1:], rep[1:])}}
            assert got == {k: case[k] for k in got}, case

    # The weighted dot the sums replaced, np.dot(weights, integrand), as the
    # reference: the two add in different orders, so they agree to a few ulps.
    # The bound is fixed from the dtype; these angles reach 2.3 eps.
    @pytest.mark.parametrize("steps", [100, 101, 1000, 10000, 20000])
    def test_simpson_sums_equal_the_weighted_dot(self, steps):
        even = steps + steps % 2
        weights = np.r_[1.0, np.tile([4.0, 2.0], even // 2)]
        weights[-1] = 1.0
        sines = geometry._simpson_nodes(even)
        rng = np.random.default_rng(2014 + steps)
        for r in [0.0, 1e-8, 0.3, np.pi / 4, *rng.uniform(0.0, np.pi / 4, 60)]:
            c = math.cos(r)
            integrand = (math.pi * np.float_power(c * sines, 2.0)) * np.abs(-(c**2) * sines)
            volume = float(np.pi / even / 3.0 * np.dot(weights, integrand))
            want = volume / (4.0 * np.pi / 3.0)
            got = spheroid_report(r, steps).volume_fraction
            assert abs(got - want) <= 64 * np.finfo(float).eps * want, r

    def test_cached_nodes_are_read_only(self):
        sines = geometry._simpson_nodes(100)
        assert sines.shape == (101,) and not sines.flags.writeable
        with pytest.raises(ValueError):
            sines[0] = 1.0

    def test_odd_and_even_step_counts_share_one_cache_entry(self):
        geometry._simpson_nodes.cache_clear()
        assert spheroid_report(0.3, 101) == spheroid_report(0.3, 102)
        info = geometry._simpson_nodes.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert geometry._simpson_nodes(102).shape == (103,)


def test_float_power_squares_are_python_pow():
    # spheroid_report and shared_state square with np.float_power, which
    # calls libm pow per value and so has the bits of Python's pow. A numpy
    # whose float_power squares by an array loop fails here: on these 10^6
    # values, the Simpson-node squares among them, x * x misses pow's bits.
    rng = np.random.default_rng(1981)
    sines = geometry._simpson_nodes(20000)
    angles = [0.0, 1e-8, 0.3, np.pi / 4, *rng.uniform(0.0, np.pi / 4, 46)]
    x = np.concatenate([
        *(math.cos(r) * sines for r in angles),
        np.sin(rng.uniform(0.0, np.pi / 4, 100_000)),
        rng.normal(size=100_000) * 10.0 ** rng.integers(-150, 150, 100_000),
    ])
    assert len(x) >= 10**6
    want = np.array([pow(v, 2.0) for v in x.tolist()])
    assert np.float_power(x, 2.0).tobytes() == want.tobytes()
    assert (x * x != want).any()


class TestSurfaceGrid:
    def test_grid_shapes(self):
        theta, phi, x, y, z = surface_grid(0.3, 7, 9)
        assert [a.shape for a in (theta, phi, x, y, z)] == [(7,), (9,), (7, 9), (7, 9), (7,)]

    def test_asymptotic_pole_points(self):
        _, _, x, y, z = surface_grid(np.pi / 4, 5, 4)
        assert_allclose((x[0], y[0]), 0.0, atol=1e-14)
        assert z[0] == pytest.approx(0.0, abs=1e-14)
        assert_allclose((x[-1], y[-1]), 0.0, atol=1e-12)
        assert z[-1] == pytest.approx(-1.0, abs=1e-12)

    def test_points_sit_at_the_stated_radius(self):
        theta, _, x, y, z = surface_grid(np.pi / 4, 12, 8)
        for i, t in enumerate(theta):
            for xv, yv in zip(x[i], y[i]):
                dist = np.linalg.norm(np.array([xv, yv, z[i]]) - ASYMPTOTIC_CENTER)
                assert dist == pytest.approx(radius_from_center(t), abs=1e-10)

    def test_identity_keeps_unit_sphere(self):
        _, _, x, y, z = surface_grid(0.0, 6, 6)
        assert_allclose(np.sqrt(x**2 + y**2 + z[:, None] ** 2), 1.0, rtol=0, atol=1e-12)

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            surface_grid(0.1, 1, 8)

    # A grid side that is not whole fails with its name, never truncated.
    @pytest.mark.parametrize(
        "n_theta, n_phi, name",
        [(2.5, 2, "n_theta"), (3, 2.5, "n_phi"), (float("nan"), 3, "n_theta"),
         (3, float("inf"), "n_phi")],
    )
    def test_rejects_counts_that_are_not_whole(self, n_theta, n_phi, name):
        with pytest.raises(ValueError, match=f"{name} must be a whole number >= 2"):
            surface_grid(0.3, n_theta, n_phi)

    def test_accepts_integral_float_counts(self):
        got, want = surface_grid(0.3, 3.0, 4.0), surface_grid(0.3, 3, 4)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
