import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rindler.channels import amplitude_damping, inverse_unruh, unruh_kraus
from rindler.geometry import image_of_pure, radius_from_center, spheroid_report, surface_grid
from rindler.qmat import partial_trace, sqrt_psd, validate_density_matrix
from rindler.unruh import (
    cos_r,
    mixing_angle,
    shared_state,
    three_mode_state,
    unruh_temperature,
)

R_GRID = np.linspace(0.0, np.pi / 4, 100)


class TestCosR:
    def test_rest_limit(self):
        assert cos_r(1e-6, 0.1) == pytest.approx(1.0, abs=1e-15)

    def test_infinite_acceleration_limit(self):
        assert cos_r(1e9, 0.1) == pytest.approx(1 / np.sqrt(2), abs=1e-8)

    def test_reference_point(self):
        # 1/(1 + exp(-0.2*pi/4.6)), evaluated to full precision
        assert cos_r(4.6, 0.1) ** 2 == pytest.approx(
            0.5340947536163592, abs=1e-14
        )

    def test_monotone_in_acceleration(self):
        # below a ~ 0.02 the thermal factor underflows and cos r pins at 1,
        # so strict decrease is only checkable once it is representable
        grid = np.geomspace(1e-2, 1e4, 60)
        vals = [cos_r(a, 0.1) for a in grid]
        assert np.all(np.diff(vals) <= 0)
        strict = [cos_r(a, 0.1) for a in np.geomspace(0.1, 1e4, 60)]
        assert np.all(np.diff(strict) < 0)

    def test_range(self):
        for a in np.geomspace(1e-3, 1e6, 40):
            assert 1 / np.sqrt(2) < cos_r(a, 0.1) <= 1.0

    @pytest.mark.parametrize(
        "a,omega",
        [
            (0.0, 0.1),
            (-1.0, 0.1),
            (1.0, 0.0),
            (np.nan, 0.1),
            (np.inf, 0.1),
            (1.0, np.nan),
            (1.0, np.inf),
        ],
    )
    def test_domain_errors(self, a, omega):
        for func in (cos_r, mixing_angle):
            with pytest.raises(ValueError):
                func(a, omega)
            with pytest.raises(ValueError):
                func(np.array([1.0, a, 2.0]), omega)

    # A list or tuple of accelerations is an array too; omega / a overflows at 1e-320.
    @pytest.mark.parametrize("form", [np.array, list, tuple])
    def test_array_entries_equal_scalar_calls(self, form):
        grid = np.r_[np.geomspace(1e-7, 1e7, 2001), 1e-320]
        got = cos_r(form(grid.tolist()), 0.37)
        assert got.shape == grid.shape
        want = np.array([cos_r(float(a), 0.37) for a in grid])
        assert got.tobytes() == want.tobytes()
        assert isinstance(cos_r(4.6, 0.1), float)

    def test_tiny_array_accelerations_reach_the_rest_limit(self):
        # omega / a overflows for these a; the warning is an error here.
        got = cos_r(np.array([5e-324, 1e-310, 1.0]), 0.1)
        assert got.tolist() == [1.0, 1.0, cos_r(1.0, 0.1)]
        assert got[2] == pytest.approx(0.8075321024227905, abs=1e-15)


class TestUnruhTemperature:
    def test_unit_cancellation(self):
        assert unruh_temperature(2 * np.pi) == pytest.approx(1.0)

    def test_reference_point(self):
        assert unruh_temperature(1.0) == pytest.approx(0.15915494309189535)

    def test_proportional_to_acceleration(self):
        assert unruh_temperature(8.0) == pytest.approx(4 * unruh_temperature(2.0))

    def test_domain_error(self):
        for a in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="must be positive and finite"):
                unruh_temperature(a)


# Anything but a finite positive real number (for cos_r's a, also a non-empty
# array of them; a ragged list, of which numpy makes no array, is neither) fails
# with the package's message, never numpy's or Python's.
RAGGED = [[0.1], [0.1, 0.2]]
@pytest.mark.parametrize(
    "func, args, what",
    [
        (cos_r, ([], 0.1), "acceleration"),
        (cos_r, (10**400, 0.1), "acceleration"),
        (cos_r, ([1.0, 10**400], 0.1), "acceleration"),
        (cos_r, ("abc", 0.1), "acceleration"),
        (cos_r, ("1.5", 0.1), "acceleration"),
        (cos_r, (np.array([1.0, "2"], dtype=object), 0.1), "acceleration"),
        (cos_r, (None, 0.1), "acceleration"),
        (cos_r, (1 + 0j, 0.1), "acceleration"),
        (cos_r, (0.1, 10**400), "mode frequency"),
        (cos_r, (0.1, "x"), "mode frequency"),
        (cos_r, (0.1, np.array([0.1, 0.2])), "mode frequency"),
        (unruh_temperature, (10**400,), "acceleration"),
        (unruh_temperature, ("abc",), "acceleration"),
        (unruh_temperature, ("1.5",), "acceleration"),
        (unruh_temperature, (np.array([1.0, 2.0]),), "acceleration"),
        (cos_r, (RAGGED, 0.1), "acceleration"),
        (cos_r, (0.1, RAGGED), "mode frequency"),
        (unruh_temperature, (RAGGED,), "acceleration"),
    ],
)
def test_rejects_what_is_no_finite_positive_real(func, args, what):
    # mixing_angle takes what cos_r takes, with the same messages.
    for f in [func, mixing_angle] if func is cos_r else [func]:
        with pytest.raises(ValueError, match=f"^{what} must be positive and finite, got "):
            f(*args)


def test_a_ragged_list_is_shown_as_given():
    with pytest.raises(ValueError, match=re.escape("got [[0.1], [0.1, 0.2]]")):
        cos_r(RAGGED, 0.1)


# Each angle or damping check rejects what is no real number, and an entry point
# that takes one angle rejects arrays and lists, with the package's message.
@pytest.mark.parametrize(
    "func, args, message",
    [
        (shared_state, ("abc",), "mixing angle abc outside"),
        (shared_state, ([],), "mixing angle [] outside"),
        (surface_grid, ("0.3", 2, 2), "mixing angle 0.3 outside"),
        (image_of_pure, (0.1, 0.1, "0.3"), "mixing angle 0.3 outside"),
        (spheroid_report, (None,), "mixing angle None outside"),
        (spheroid_report, ([0.1, 0.2],), "mixing angle [0.1 0.2] outside"),
        (three_mode_state, ([0.1, 0.2],), "mixing angle [0.1 0.2] outside"),
        (shared_state, (RAGGED,), "mixing angle [[0.1], [0.1, 0.2]] outside"),
        (three_mode_state, (RAGGED,), "mixing angle [[0.1], [0.1, 0.2]] outside"),
        (spheroid_report, (RAGGED,), "mixing angle [[0.1], [0.1, 0.2]] outside"),
        (inverse_unruh, (1j,), "mixing angle 1j outside"),
        (unruh_kraus, ([],), "mixing angle [] outside"),
        (unruh_kraus, (np.array([0.1, 0.2]),), "mixing angle [0.1 0.2] outside"),
        (amplitude_damping, ("0.5",), "damping strength 0.5 outside"),
        (amplitude_damping, (None,), "damping strength None outside"),
        (radius_from_center, ("1",), "polar angle 1 outside"),
        (image_of_pure, ("1", 0.1, 0.3), "polar angle 1 outside"),
        (image_of_pure, (0.1, None, 0.3), "azimuthal angle None outside"),
        (spheroid_report, ("3",), "mixing angle 3 outside"),
        (spheroid_report, ("200",), "mixing angle 200 outside"),
        (spheroid_report, (3 + 0j,), "mixing angle (3+0j) outside"),
        (spheroid_report, (200j,), "mixing angle 200j outside"),
        (spheroid_report, (2**64,), "mixing angle 18446744073709551616 outside"),
    ],
)
def test_angle_checks_reject_what_is_no_real_number(func, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        func(*args)


def test_whole_numbers_past_int64_are_read_as_floats():
    assert cos_r(10**300, 0.1) == cos_r(1e300, 0.1)
    assert unruh_temperature(10**300) == unruh_temperature(1e300)
    got, want = cos_r([2, 10**300], 0.1), cos_r([2.0, 1e300], 0.1)
    assert got.tobytes() == want.tobytes()


class TestMixingAngle:
    def test_cosine_is_cos_r(self):
        a = np.sort(np.r_[np.geomspace(1e-3, 1e6, 400), 4.6])
        r = mixing_angle(a, 0.1)
        assert_allclose(np.cos(r), cos_r(a, 0.1), rtol=0, atol=3e-16)
        assert np.all((0 <= r) & (r <= np.pi / 4)) and np.all(np.diff(r) >= 0)

    def test_small_angles_keep_their_digits(self):
        # arccos(cos_r) gave 1.50494351065e-07 here and 0 for a below ~0.18 omega.
        assert mixing_angle(0.02, 0.1) == pytest.approx(1.5070172753900e-07, rel=1e-12)
        assert mixing_angle(0.01, 0.1) == pytest.approx(2.2711010683241e-14, rel=1e-12)

    @pytest.mark.parametrize("form", [np.array, list, tuple])
    def test_array_entries_equal_scalar_calls(self, form):
        grid = np.r_[np.geomspace(1e-7, 1e7, 2001), 1e-320]
        got = mixing_angle(form(grid.tolist()), 0.37)
        want = np.array([mixing_angle(float(a), 0.37) for a in grid])
        assert got.shape == grid.shape and got.tobytes() == want.tobytes()
        assert isinstance(mixing_angle(4.6, 0.1), float)

    def test_tiny_accelerations_reach_the_rest_limit(self):
        # omega / a overflows for these a; the warning is an error here.
        got = mixing_angle(np.array([5e-324, 1e-310, 1.0]), 0.1)
        assert got.tolist() == [0.0, 0.0, mixing_angle(1.0, 0.1)]
        assert mixing_angle(1e-320, 0.1) == 0.0


class TestThreeModeState:
    def test_rest_limit_is_bell_pair_with_empty_second_wedge(self):
        psi = three_mode_state(0.0)
        want = np.zeros(8)
        want[0b000] = want[0b110] = 1 / np.sqrt(2)
        assert_allclose(psi, want, atol=1e-15)

    def test_asymptotic_amplitudes(self):
        psi = three_mode_state(np.pi / 4)
        assert psi[0b000] == pytest.approx(0.5)
        assert psi[0b011] == pytest.approx(0.5)
        assert psi[0b110] == pytest.approx(1 / np.sqrt(2))
        assert np.count_nonzero(psi) == 3

    @pytest.mark.parametrize("r", [0.0, 0.3, np.pi / 4])
    def test_normalized(self, r):
        assert np.linalg.norm(three_mode_state(r)) == pytest.approx(1.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            three_mode_state(1.0)


class TestSharedState:
    def test_rest_limit_is_maximally_entangled(self):
        bell = np.zeros((4, 4), dtype=complex)
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        assert_allclose(shared_state(0.0), bell, atol=1e-15)

    def test_asymptotic_entries(self):
        rho = shared_state(np.pi / 4)
        assert rho[0, 0] == pytest.approx(0.25)
        assert rho[0, 3] == pytest.approx(1 / (2 * np.sqrt(2)))
        assert rho[1, 1] == pytest.approx(0.25)
        assert rho[3, 3] == pytest.approx(0.5)

    @pytest.mark.parametrize("r", [0.0, 0.2, np.pi / 4])
    def test_valid_density_matrix(self, r):
        validate_density_matrix(shared_state(r))

    def test_matches_traced_three_mode_state(self):
        for r in R_GRID:
            psi = three_mode_state(r)
            traced = partial_trace(np.outer(psi, psi.conj()), [2, 2, 2], 2)
            assert np.max(np.abs(traced - shared_state(r))) < 1e-12

    def test_marginals(self):
        for r in R_GRID[::7]:
            rho = shared_state(r)
            first = partial_trace(rho, [2, 2], 1)
            second = partial_trace(rho, [2, 2], 0)
            assert_allclose(first, np.eye(2) / 2, atol=1e-12)
            want = np.diag([np.cos(r) ** 2 / 2, np.sin(r) ** 2 / 2 + 0.5])
            assert_allclose(second, want, atol=1e-12)

    def test_sqrt_consistency(self):
        rho = shared_state(np.pi / 4)
        s = sqrt_psd(rho)
        assert np.max(np.abs(s @ s - rho)) < 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError, match=r"mixing angle -0\.1 outside"):
            shared_state(-0.1)
        with pytest.raises(ValueError, match=r"mixing angle 2\.0 outside"):
            shared_state(np.array([0.1, 2.0, -1.0]))

    def test_stack_entries_equal_single_states(self):
        # The grid holds r = 0.345967890976576, where an array square of
        # sin r differs in the last bit from the scalar one.
        r = np.linspace(0.0, np.pi / 4, 2001)
        stack = shared_state(r.reshape(23, 87))
        assert stack.shape == (23, 87, 4, 4)
        want = np.array([shared_state(x) for x in r.tolist()])
        assert stack.tobytes() == want.tobytes()
