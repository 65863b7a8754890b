"""Tests for the additive attention gate.

Oracles:

* All-zero parameters give q = 0 everywhere, so alpha = 0.5 exactly and
  gated = x / 2.
* Scalar hand case with f_x = f_g = f_int = 1, unit weights, zero biases,
  x = g = 1: pre = 2, relu passes it through, q = 2, so
  alpha = 1 / (1 + e^-2).
* A preactivation pushed entirely below zero dies at the ReLU: q collapses
  to b_psi and the only surviving parameter gradient is b_psi's.
* ag_backward is checked against central finite differences of the scalar
  objective L = sum_i <upstream_i, gated_i>, with draws resampled until the
  preactivation clears the ReLU kink.
* Saturation: with psi = -1000 the scalar case has q = -2000, where
  exp(-q) overflows to inf, and alpha is its limit 0 exactly; with
  psi = 1000, alpha is exactly 1. Neither warns, and the gradients are
  finite.
* resample_gating / alpha_to_loss_mask are align-corners bilinear: a 1x2 row
  [0, 1] widens to [0, 1/3, 2/3, 1], and a 1x1 signal broadcasts.
"""

import warnings

import numpy as np
import pytest

from egowarp import (
    AttentionGateParams,
    FeatureMap,
    ImageBuffer,
    ValidityMask,
    WeightMask,
    ag_backward,
    ag_forward,
    alpha_to_loss_mask,
    photometric_l1,
    resample_gating,
)


def _scalar_params(w: float = 1.0, b_psi: float = 0.0, psi: float = 1.0) -> AttentionGateParams:
    return AttentionGateParams(
        w_x=np.array([[w]]),
        w_g=np.array([[w]]),
        psi=np.array([psi]),
        b_xg=np.array([0.0]),
        b_psi=b_psi,
    )


def _random_case(rng, h=3, w=4, f_x=2, f_g=3, f_int=2, margin=1e-3):
    """Draw (x, g, params) whose preactivation clears the ReLU kink."""
    while True:
        params = AttentionGateParams(
            w_x=rng.normal(size=(f_x, f_int)),
            w_g=rng.normal(size=(f_g, f_int)),
            psi=rng.normal(size=f_int),
            b_xg=rng.normal(size=f_int),
            b_psi=float(rng.normal()),
        )
        x = FeatureMap(rng.normal(size=(h, w, f_x)))
        g = FeatureMap(rng.normal(size=(h, w, f_g)))
        pre = x.data @ params.w_x + g.data @ params.w_g + params.b_xg
        if np.min(np.abs(pre)) > margin:
            return x, g, params


def _objective(x, g, params, upstream) -> float:
    _, gated = ag_forward(x, g, params)
    return float(np.sum(upstream * gated.data))


class TestAgForward:
    def test_zero_params_give_half(self):
        rng = np.random.default_rng(3)
        x = FeatureMap(rng.normal(size=(4, 5, 3)))
        g = FeatureMap(rng.normal(size=(4, 5, 2)))
        alpha, gated = ag_forward(x, g, AttentionGateParams.zeros(3, 2, 4))
        assert np.all(alpha.data == 0.5)
        np.testing.assert_array_equal(gated.data, 0.5 * x.data)

    def test_scalar_hand_case(self):
        x = FeatureMap(np.ones((1, 1, 1)))
        g = FeatureMap(np.ones((1, 1, 1)))
        alpha, gated = ag_forward(x, g, _scalar_params())
        expect = 1.0 / (1.0 + np.exp(-2.0))
        assert alpha.data[0, 0] == pytest.approx(expect, abs=1e-12)
        assert gated.data[0, 0, 0] == pytest.approx(expect, abs=1e-12)

    def test_dead_relu_leaves_only_bias(self):
        x = FeatureMap(-np.ones((2, 2, 1)))
        g = FeatureMap(-np.ones((2, 2, 1)))
        alpha, _ = ag_forward(x, g, _scalar_params(b_psi=0.7))
        expect = 1.0 / (1.0 + np.exp(-0.7))
        np.testing.assert_allclose(alpha.data, expect, rtol=0, atol=1e-15)

    def test_alpha_bounded_and_gated_is_alpha_times_x(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, g, params = _random_case(rng)
            alpha, gated = ag_forward(x, g, params)
            assert alpha.data.min() > 0.0 and alpha.data.max() < 1.0
            np.testing.assert_array_equal(
                gated.data, alpha.data[:, :, None] * x.data
            )

    def test_size_mismatch_rejected(self):
        x = FeatureMap(np.zeros((2, 2, 1)))
        g = FeatureMap(np.zeros((2, 3, 1)))
        with pytest.raises(ValueError, match="resample_gating"):
            ag_forward(x, g, _scalar_params())

    def test_feature_mismatch_rejected(self):
        x = FeatureMap(np.zeros((2, 2, 2)))
        g = FeatureMap(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError, match="feature count"):
            ag_forward(x, g, _scalar_params())

    def test_gating_feature_mismatch_rejected(self):
        x = FeatureMap(np.zeros((2, 2, 1)))
        g = FeatureMap(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="g feature count does not match w_g"):
            ag_forward(x, g, _scalar_params())


class TestAgForwardLocality:
    """alpha and gated at a position depend on that position's x and g
    alone, the property gradcheck's spliced x and g sweeps rest on: bumping
    one entry of x or g changes both at its position only, to the values a
    bump of that feature at every position gives there, bit for bit. Brute
    force over every entry, with no ReLU margin."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("which", ["x", "g"])
    def test_one_entry_bump_moves_that_position_alone(self, seed, which):
        rng = np.random.default_rng([11, seed])
        h, w = (int(n) for n in rng.integers(2, 5, 2))
        f_x, f_g, f_int = (int(n) for n in rng.integers(1, 5, 3))
        maps = {"x": rng.normal(size=(h, w, f_x)), "g": rng.normal(size=(h, w, f_g))}
        params = AttentionGateParams(
            w_x=rng.normal(size=(f_x, f_int)), w_g=rng.normal(size=(f_g, f_int)),
            psi=rng.normal(size=f_int), b_xg=rng.normal(size=f_int), b_psi=float(rng.normal()))

        def forward(arr):
            moved = dict(maps, **{which: arr})
            alpha, gated = ag_forward(FeatureMap(moved["x"]), FeatureMap(moved["g"]), params)
            return alpha.data, gated.data

        base = forward(maps[which])
        for eps in (1e-5, -1e-5, 1.5):
            for f in range(maps[which].shape[2]):
                whole_arr = maps[which].copy()
                whole_arr[..., f] += eps
                whole = forward(whole_arr)
                for p in np.ndindex(h, w):
                    bumped = maps[which].copy()
                    bumped[p + (f,)] += eps
                    for got, b, wh in zip(forward(bumped), base, whole):
                        want = b.copy()
                        want[p] = wh[p]
                        assert got.tobytes() == want.tobytes(), (eps, f, p)


class TestGateParams:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("w_x", np.zeros(1), "w_x and w_g must be 2-d"),
            ("w_g", np.zeros((1, 2)), "inner dimensions of gate parameters disagree"),
            ("psi", np.array([np.nan]), "psi must be finite"),
            ("b_psi", np.inf, "b_psi must be finite, got inf"),
        ],
        ids=["1-d-w_x", "inner-dims", "nan-psi", "inf-b_psi"],
    )
    def test_rejected(self, field, value, message):
        fields = {"w_x": np.ones((1, 1)), "w_g": np.ones((1, 1)), "psi": np.ones(1),
                  "b_xg": np.zeros(1), "b_psi": 0.0}
        fields[field] = value
        with pytest.raises(ValueError, match=message):
            AttentionGateParams(**fields)


class TestAgBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h_step = 1e-6
        for _ in range(5):
            x, g, params = _random_case(rng)
            upstream = rng.normal(size=x.data.shape)
            d_params, d_x, d_g = ag_backward(x, g, params, FeatureMap(upstream))

            def fd(build):
                lo, hi = build(-h_step), build(h_step)
                return (
                    _objective(*hi, upstream) - _objective(*lo, upstream)
                ) / (2 * h_step)

            def check(analytic, build):
                assert analytic == pytest.approx(fd(build), abs=1e-6)

            for idx in np.ndindex(params.w_x.shape):
                def bump(eps, idx=idx):
                    w = params.w_x.copy()
                    w[idx] += eps
                    return x, g, AttentionGateParams(
                        w, params.w_g, params.psi, params.b_xg, params.b_psi
                    )
                check(d_params.w_x[idx], bump)
            for idx in np.ndindex(params.w_g.shape):
                def bump(eps, idx=idx):
                    w = params.w_g.copy()
                    w[idx] += eps
                    return x, g, AttentionGateParams(
                        params.w_x, w, params.psi, params.b_xg, params.b_psi
                    )
                check(d_params.w_g[idx], bump)
            for i in range(params.psi.size):
                def bump(eps, i=i):
                    p = params.psi.copy()
                    p[i] += eps
                    return x, g, AttentionGateParams(
                        params.w_x, params.w_g, p, params.b_xg, params.b_psi
                    )
                check(d_params.psi[i], bump)
            for i in range(params.b_xg.size):
                def bump(eps, i=i):
                    b = params.b_xg.copy()
                    b[i] += eps
                    return x, g, AttentionGateParams(
                        params.w_x, params.w_g, params.psi, b, params.b_psi
                    )
                check(d_params.b_xg[i], bump)
            check(
                d_params.b_psi,
                lambda eps: (
                    x,
                    g,
                    AttentionGateParams(
                        params.w_x,
                        params.w_g,
                        params.psi,
                        params.b_xg,
                        params.b_psi + eps,
                    ),
                ),
            )
            for idx in np.ndindex(x.data.shape):
                def bump(eps, idx=idx):
                    d = x.data.copy()
                    d[idx] += eps
                    return FeatureMap(d), g, params
                check(d_x.data[idx], bump)
            for idx in np.ndindex(g.data.shape):
                def bump(eps, idx=idx):
                    d = g.data.copy()
                    d[idx] += eps
                    return x, FeatureMap(d), params
                check(d_g.data[idx], bump)

    def test_dead_zone_blocks_everything_but_b_psi(self):
        x = FeatureMap(-np.ones((2, 3, 1)))
        g = FeatureMap(-np.ones((2, 3, 1)))
        params = _scalar_params()
        upstream = FeatureMap(np.full((2, 3, 1), 2.0))
        d_params, d_x, d_g = ag_backward(x, g, params, upstream)
        assert np.all(d_params.w_x == 0.0)
        assert np.all(d_params.w_g == 0.0)
        assert np.all(d_params.psi == 0.0)
        assert np.all(d_params.b_xg == 0.0)
        assert d_params.b_psi != 0.0
        assert np.all(d_g.data == 0.0)
        # alpha = 0.5 in the dead zone, so d_x is the direct path only.
        np.testing.assert_array_equal(d_x.data, 0.5 * upstream.data)

    def test_upstream_shape_rejected(self):
        x = FeatureMap(np.zeros((2, 2, 1)))
        g = FeatureMap(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError, match="upstream"):
            ag_backward(x, g, _scalar_params(), FeatureMap(np.zeros((2, 2, 2))))


class TestSaturation:
    @pytest.mark.parametrize("psi, limit", [(-1000.0, 0.0), (1000.0, 1.0)])
    def test_alpha_reaches_its_limit_without_warning(self, psi, limit):
        x = g = FeatureMap(np.ones((2, 3, 1)))
        params = _scalar_params(psi=psi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha, gated = ag_forward(x, g, params)
            d_params, d_x, d_g = ag_backward(x, g, params, FeatureMap(np.ones((2, 3, 1))))
        assert np.all(alpha.data == limit)
        np.testing.assert_array_equal(gated.data, limit * x.data)
        for grad in (d_params.w_x, d_params.w_g, d_params.psi, d_params.b_xg,
                     d_params.b_psi, d_x.data, d_g.data):
            assert np.all(np.isfinite(grad))


class TestResampleGating:
    def test_broadcast_from_1x1(self):
        g = FeatureMap(np.array([[[3.0, 7.0]]]))
        out = resample_gating(g, 4, 5)
        assert out.data.shape == (4, 5, 2)
        assert np.all(out.data[:, :, 0] == 3.0)
        assert np.all(out.data[:, :, 1] == 7.0)

    def test_align_corners_row(self):
        g = FeatureMap(np.array([[[0.0], [1.0]]]))
        out = resample_gating(g, 1, 4)
        np.testing.assert_allclose(
            out.data[0, :, 0], [0.0, 1 / 3, 2 / 3, 1.0], rtol=0, atol=1e-15
        )

    def test_bad_size_rejected(self):
        g = FeatureMap(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError, match="out_height must be >= 1"):
            resample_gating(g, 0, 4)

    @pytest.mark.parametrize("out_height, out_width, message", [
        (2.5, 3, "out_height must be an integer"),
        (3, True, "out_width must be an integer"),
    ])
    def test_size_must_be_an_integer(self, out_height, out_width, message):
        g = FeatureMap(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError, match=message):
            resample_gating(g, out_height, out_width)
        with pytest.raises(ValueError, match=message):
            alpha_to_loss_mask(WeightMask(np.zeros((2, 2))), out_height, out_width)


class TestAlphaToLossMask:
    def test_constant_alpha_round_trips(self):
        alpha = WeightMask(np.full((2, 2), 0.25))
        mask = alpha_to_loss_mask(alpha, 5, 7)
        assert isinstance(mask, WeightMask)
        assert mask.data.shape == (5, 7)
        assert np.all(mask.data == 0.25)

    def test_align_corners_values(self):
        alpha = WeightMask(np.array([[0.0, 1.0]]))
        mask = alpha_to_loss_mask(alpha, 1, 4)
        np.testing.assert_allclose(
            mask.data[0], [0.0, 1 / 3, 2 / 3, 1.0], rtol=0, atol=1e-15
        )

    def test_unit_alpha_reproduces_unmasked_loss(self):
        rng = np.random.default_rng(19)
        target = ImageBuffer(rng.random(size=(6, 8, 3)))
        recon = ImageBuffer(rng.random(size=(6, 8, 3)))
        valid = ValidityMask(np.ones((6, 8), dtype=bool))
        mask = alpha_to_loss_mask(WeightMask(np.ones((3, 4))), 6, 8)
        masked = photometric_l1(target, recon, mask, valid)
        plain = photometric_l1(
            target, recon, WeightMask(np.ones((6, 8))), valid
        )
        # Interpolation weights sum to 1 only to the last ulp.
        assert masked == pytest.approx(plain, rel=1e-14)
