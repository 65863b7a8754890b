"""Tests for the finite-difference gradient checker.

The checker is itself test infrastructure, so these tests focus on two
things: the analytic gradients pass at the advertised tolerance, and the
checker actually detects broken gradients. The second half is the
self-test: corrupting every analytic entry by c * (1 + |entry|) guarantees
a reported relative error of at least c / (1 + c) under the checker's
unit-floored error measure, so corruption = 1e-2 must push the report
well above the 1e-4 pass threshold.
"""

import numpy as np
import pytest

from egowarp import grad_check
from egowarp.gradcheck import COMPONENTS

PASS_TOL = 1e-4


class TestAnalyticGradients:
    @pytest.mark.parametrize("component", COMPONENTS)
    def test_component_passes_at_tolerance(self, component):
        report = grad_check(component, seed=42, trials=25)
        assert report.component == component
        assert report.trials == 25
        assert report.max_rel_err < PASS_TOL

    def test_deterministic_per_seed(self):
        a = grad_check("reproject", seed=7, trials=5)
        b = grad_check("reproject", seed=7, trials=5)
        c = grad_check("reproject", seed=8, trials=5)
        assert a.max_rel_err == b.max_rel_err
        assert a.max_rel_err != c.max_rel_err


class TestSelfTest:
    @pytest.mark.parametrize("component", COMPONENTS)
    def test_corruption_is_detected(self, component):
        clean = grad_check(component, seed=42, trials=3)
        broken = grad_check(component, seed=42, trials=3, corruption=1e-2)
        assert clean.max_rel_err < PASS_TOL
        # c / (1 + c) for c = 1e-2 is ~9.9e-3.
        assert broken.max_rel_err > 1e-3
        assert broken.max_rel_err > 10 * clean.max_rel_err

    @pytest.mark.parametrize("component", COMPONENTS)
    def test_nan_corruption_is_detected(self, component):
        # A NaN gradient must not vanish in the running max of errors.
        broken = grad_check(component, seed=42, trials=3, corruption=float("nan"))
        assert broken.max_rel_err == float("inf")


class TestValidation:
    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError, match="component"):
            grad_check("hessian")

    def test_bad_trial_count_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            grad_check("warp", trials=0)
