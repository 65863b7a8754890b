"""Tests for the finite-difference gradient checker.

The checker is itself test infrastructure, so these tests focus on two
things: the analytic gradients pass at the advertised tolerance (criterion
3 in test_acceptance.py checks every component over 100 trials), and the
checker actually detects broken gradients. The second half is the
self-test: corrupting every analytic entry by c * (1 + |entry|), through a
wrapped checker, guarantees a reported relative error of at least
c / (1 + c) under the checker's unit-floored error measure, so c = 1e-2
must push the report well above the 1e-4 pass threshold.
"""

import numpy as np
import pytest

from egowarp import grad_check, gradcheck
from egowarp.gradcheck import COMPONENTS

PASS_TOL = 1e-4


class TestAnalyticGradients:
    def test_deterministic_per_seed(self):
        a = grad_check("reproject", seed=7, trials=5)
        b = grad_check("reproject", seed=7, trials=5)
        c = grad_check("reproject", seed=8, trials=5)
        assert a.component == "reproject"
        assert a.trials == 5
        assert a.max_rel_err == b.max_rel_err
        assert a.max_rel_err != c.max_rel_err


def _corrupted(checker, c: float):
    """checker with every analytic entry shifted by c * (1 + |entry|)."""

    def wrapped(rng):
        return [
            (name, np.asarray(analytic) + c * (1.0 + np.abs(analytic)), fd, include)
            for name, analytic, fd, include in checker(rng)
        ]

    return wrapped


class TestSelfTest:
    @pytest.mark.parametrize("component", COMPONENTS)
    def test_corruption_is_detected(self, component, monkeypatch):
        clean = grad_check(component, seed=42, trials=3)
        monkeypatch.setitem(
            gradcheck._CHECKERS, component, _corrupted(gradcheck._CHECKERS[component], 1e-2)
        )
        broken = grad_check(component, seed=42, trials=3)
        assert clean.max_rel_err < PASS_TOL
        # c / (1 + c) for c = 1e-2 is ~9.9e-3.
        assert broken.max_rel_err > 1e-3
        assert broken.max_rel_err > 10 * clean.max_rel_err

    @pytest.mark.parametrize("component", COMPONENTS)
    def test_nan_corruption_is_detected(self, component, monkeypatch):
        # A NaN gradient must not vanish in the running max of errors.
        inner = gradcheck._CHECKERS[component]

        def nan_analytic(rng):
            return [
                (name, np.full(np.shape(analytic), np.nan), fd, include)
                for name, analytic, fd, include in inner(rng)
            ]

        monkeypatch.setitem(gradcheck._CHECKERS, component, nan_analytic)
        broken = grad_check(component, seed=42, trials=3)
        assert broken.max_rel_err == float("inf")


class TestWorstLocation:
    def test_report_names_the_broken_entry(self, monkeypatch):
        # Break d_pose[4] in the second trial only; the report must say so.
        inner = gradcheck.loss_gradients
        calls = []

        def broken(*args, **kwargs):
            g = inner(*args, **kwargs)
            calls.append(None)
            if len(calls) == 2:
                d_pose = g.d_pose.copy()
                d_pose[4] += 0.5
                g = g._replace(d_pose=d_pose)
            return g

        monkeypatch.setattr(gradcheck, "loss_gradients", broken)
        report = grad_check("losses", seed=42, trials=3)
        assert report.max_rel_err > 1e-3
        assert report.worst_trial == 1
        assert report.worst_entry == "d_pose[4]"

    def test_reproject_checks_the_grid_kernel(self, monkeypatch):
        # The reproject component checks reproject_jacobian_grid, whose
        # projection Jacobian the warp's derivatives chain through, one
        # pixel and pose column at a time.
        inner = gradcheck.reproject_jacobian_grid

        def broken(*args):
            d_depth, d_pose, valid = inner(*args)
            d_pose = d_pose.copy()
            d_pose[2, 3, 1, 0] += 1.0 + abs(d_pose[2, 3, 1, 0])
            return d_depth, d_pose, valid

        monkeypatch.setattr(gradcheck, "reproject_jacobian_grid", broken)
        report = grad_check("reproject", seed=42, trials=2)
        assert report.max_rel_err > 0.1
        assert report.worst_entry == "d_pose[2, 3, 1, 0]"


class TestValidation:
    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError, match="component"):
            grad_check("hessian")

    def test_bad_trial_count_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            grad_check("warp", trials=0)

    @pytest.mark.parametrize("trials", [2.5, True, 2.0])
    def test_non_integral_trial_count_rejected(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            grad_check("warp", trials=trials)

    @pytest.mark.parametrize("seed", [2.5, True, -1])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            grad_check("warp", seed=seed, trials=1)

    def test_numpy_integer_counts_accepted(self):
        report = grad_check("reproject", seed=np.int64(7), trials=np.int32(2))
        assert report.trials == 2
