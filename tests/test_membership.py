"""Membership evaluation, u-based firing and log-gradient kernels, bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xanfis.membership import (
    SCALE_MIN,
    MFKind,
    log_grad_factor,
    membership_values,
    product_firing,
    project_bounds_arrays,
)

KINDS = [MFKind.GAUSSIAN, MFKind.CAUCHY]


class TestEval:
    def test_cauchy_peak(self):
        assert membership_values(MFKind.CAUCHY, 0.5, 0.5, 0.1) == 1.0

    def test_cauchy_one_scale_from_center(self):
        assert membership_values(MFKind.CAUCHY, 0.6, 0.5, 0.1) == pytest.approx(0.5)

    def test_gaussian_one_sigma(self):
        assert membership_values(MFKind.GAUSSIAN, 0.5, 0.3, 0.2) == pytest.approx(math.exp(-0.5))

    def test_outside_unit_interval_is_evaluated(self):
        for kind in KINDS:
            v = membership_values(kind, 1.7, 0.5, 0.1)
            assert 0.0 <= v < 1.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_peak_and_monotone_decay_on_grid(self, kind):
        center, scale = 0.4, 0.15
        offsets = np.linspace(0.0, 1.0, 101)
        values = membership_values(kind, center + offsets, center, scale)
        assert values[0] == 1.0
        assert np.all(np.diff(values) <= 0)
        left = membership_values(kind, center - offsets, center, scale)
        np.testing.assert_allclose(values, left, atol=1e-15)

    def test_cauchy_tail_heavier_than_gaussian(self):
        # the two curves cross at |x-c| = u* scale where exp(u*^2/2) =
        # 1 + u*^2 (u* ~ 1.5852); beyond it the Cauchy value dominates
        # and the ratio diverges
        u_star = 1.5852
        for scale in (1.0, 0.03125):
            xs = 0.5 + scale * np.linspace(u_star + 1e-3, 40.0, 500)
            cau = membership_values(MFKind.CAUCHY, xs, 0.5, scale)
            gau = membership_values(MFKind.GAUSSIAN, xs, 0.5, scale)
            assert np.all(cau >= gau)
            near_far = 0.5 + np.array([2.0, 5.0]) * scale
            ratio_near, ratio_far = membership_values(
                MFKind.CAUCHY, near_far, 0.5, scale
            ) / membership_values(MFKind.GAUSSIAN, near_far, 0.5, scale)
            assert ratio_far > ratio_near > 1.0

    def test_gaussian_far_tail_underflows_to_zero(self):
        assert membership_values(MFKind.GAUSSIAN, 1.0, 0.0, SCALE_MIN) == 0.0


def log_grads(kind, x, center, scale):
    """(d log mu / d center, d log mu / d scale) = (g / s, g u / s) at u = (x - c) / s."""
    u = (np.asarray(x, dtype=np.float64) - center) / scale
    g = log_grad_factor(kind, u)
    return g / scale, g * u / scale


def mu_scale_grad(kind, xs, center, scale):
    """d mu / d scale = mu * d log mu / d scale."""
    _, dlog_s = log_grads(kind, xs, center, scale)
    return membership_values(kind, xs, center, scale) * dlog_s


class TestGrad:
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_at_center(self, kind):
        dc, ds = log_grads(kind, 0.37, 0.37, 0.2)
        assert dc == 0.0 and ds == 0.0

    def test_unknown_kind_rejected(self):
        for kernel in (
            lambda: membership_values("triangle", 0.5, 0.4, 0.2),
            lambda: log_grad_factor("triangle", np.zeros(3)),
        ):
            with pytest.raises(ValueError, match="unknown membership kind: 'triangle'"):
                kernel()

    def test_cauchy_worked_values(self):
        # mu = 0.5 at one scale from center: both partials of mu equal
        # 5.0, so both partials of log mu equal 5.0 / 0.5 = 10.0
        dc, ds = log_grads(MFKind.CAUCHY, 0.6, 0.5, 0.1)
        assert dc == pytest.approx(10.0)
        assert ds == pytest.approx(10.0)

    def test_matches_central_differences(self):
        # 1000 random samples across both kinds; mixed rel/abs tolerance
        rng = np.random.default_rng(2024)
        h = 1e-6

        def log_mu(kind, x, center, scale):
            return float(np.log(membership_values(kind, x, center, scale)))

        for _ in range(1000):
            kind = KINDS[int(rng.integers(2))]
            center, scale = rng.uniform(0, 1), rng.uniform(0.02, 1.0)
            x = rng.uniform(-0.2, 1.2)
            dc, ds = log_grads(kind, x, center, scale)
            fd_c = (log_mu(kind, x, center + h, scale) - log_mu(kind, x, center - h, scale)) / (2 * h)
            fd_s = (log_mu(kind, x, center, scale + h) - log_mu(kind, x, center, scale - h)) / (2 * h)
            assert abs(dc - fd_c) <= 1e-5 * max(1.0, abs(fd_c))
            assert abs(ds - fd_s) <= 1e-5 * max(1.0, abs(fd_s))

    def test_cauchy_scale_gradient_peak_below_gaussian(self):
        # worst-case |d mu / d scale| over x: Cauchy peaks at 1/(2 scale)
        # (the mu^2 factor moderates the 1/scale^3 term), the Gaussian at
        # 2/(e scale); both checked on a grid for a large and a small scale
        for scale in (1.0, 0.03125):
            xs = np.linspace(-2.0, 3.0, 200001)
            g_cau = mu_scale_grad(MFKind.CAUCHY, xs, 0.5, scale)
            g_gau = mu_scale_grad(MFKind.GAUSSIAN, xs, 0.5, scale)
            assert np.max(np.abs(g_cau)) == pytest.approx(0.5 / scale, rel=1e-3)
            assert np.max(np.abs(g_gau)) == pytest.approx(
                2.0 * math.exp(-1.0) / scale, rel=1e-3
            )
            assert np.max(np.abs(g_cau)) < np.max(np.abs(g_gau))


class TestProductFiring:
    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        n_rules=st.integers(1, 5),
        n_features=st.integers(1, 4),
        n_samples=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_product_of_membership_values(
        self, kind, n_rules, n_features, n_samples, seed
    ):
        # random states with log-uniform scales, a share of them pinned at
        # SCALE_MIN so that Gaussian rows underflow to 0
        rng = np.random.default_rng(seed)
        # laid out (F, R, N) as the forward does: features lead, samples last
        x = rng.uniform(-0.2, 1.2, size=(n_samples, 1, n_features)).T
        centers = rng.uniform(0, 1, size=(n_rules, n_features)).T[:, :, None]
        scales = 10.0 ** rng.uniform(np.log10(SCALE_MIN), 0, size=(n_rules, n_features))
        scales[rng.uniform(size=scales.shape) < 0.2] = SCALE_MIN
        scales = scales.T[:, :, None]
        fused = product_firing(kind, (x - centers) / scales)
        with np.errstate(under="ignore"):
            ref = np.prod(membership_values(kind, x, centers, scales), axis=0)
        if kind == MFKind.CAUCHY:
            np.testing.assert_array_equal(fused, ref)
        else:
            # exp of a sum vs a product of exps: relative 1e-12 wherever the
            # result is a normal float; subnormal results differ by < tiny
            np.testing.assert_allclose(fused, ref, rtol=1e-12, atol=np.finfo(float).tiny)


class TestProjection:
    def test_center_clamped(self):
        centers, scales = project_bounds_arrays(np.array([1.3]), np.array([0.5]))
        assert centers[0] == 1.0 and scales[0] == 0.5

    def test_scale_floored(self):
        centers, scales = project_bounds_arrays(np.array([0.5]), np.array([-0.2]))
        assert centers[0] == 0.5 and scales[0] == SCALE_MIN

    def test_identity_in_range(self):
        centers, scales = project_bounds_arrays(np.array([0.5]), np.array([0.5]))
        assert centers[0] == 0.5 and scales[0] == 0.5

    def test_idempotent_on_random_values(self):
        rng = np.random.default_rng(5)
        centers = rng.uniform(-2, 3, size=(30, 4))
        scales = rng.uniform(-1, 2, size=(30, 4))
        c1, s1 = project_bounds_arrays(centers, scales)
        c2, s2 = project_bounds_arrays(c1, s1)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(s1, s2)
        assert np.all((c1 >= 0) & (c1 <= 1))
        assert np.all((s1 >= SCALE_MIN) & (s1 <= 1))
