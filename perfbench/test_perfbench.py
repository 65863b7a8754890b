"""Small-configuration checks of the benchmark's tracing and attribution."""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import egowarp as ew  # noqa: E402
import egowarp.align  # noqa: E402
from calib import Sampler  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import (  # noqa: E402
    END, LAYER_METRICS, NAME, PARENT, START, Tracer, align_counts, layer_metrics, self_times,
)
from workloads import WORKLOADS  # noqa: E402


def _small_solve(max_iters, levels=2, size=32):
    k = ew.default_intrinsics(size, size)
    gt = ew.SE3Transform.from_translation([0.35, 0.25, 0.2])
    pair = ew.render_pair(ew.make_scene("slanted_plane"), gt, k, size, size)
    init = ew.perturb_pose(ew.Pose6DoF(np.zeros(3), gt.t), 1.0, 0.02, seed=3)
    tracer = Tracer(ew)
    tracer.op = 0
    with tracer:
        report = ew.align_pose(pair.target, pair.source, pair.gt_depth, k, init,
                               ew.AlignOptions(max_iters=max_iters, pyramid_levels=levels))
    return tracer, report


def test_level_attribution_sums_to_gradient_calls():
    tracer, report = _small_solve(max_iters=40)
    metrics, absent = layer_metrics(tracer.spans, set(tracer.functions), 1, [])
    assert absent == []
    per_level = [metrics[f"align.grad_evals.L{i}"]["value"] for i in range(3)]
    assert per_level[2] == 0
    assert per_level[0] > 0 and per_level[1] > 0
    assert sum(per_level) == metrics["losses.loss_gradients.calls"]["value"] == report.iters
    warps_outside = sum(
        1 for row in tracer.spans
        if row[NAME] == "warp.inverse_warp"
        and tracer.spans[row[PARENT]][NAME] != "losses.loss_gradients"
    )
    assert sum(metrics[f"align.loss_evals.L{i}"]["value"] for i in range(3)) == warps_outside
    assert 0 < metrics["align.accept_ratio"]["value"] <= 1


def test_every_level_at_the_cap_is_counted():
    tracer, report = _small_solve(max_iters=3)
    assert report.iters == 6
    assert align_counts(tracer.spans)["align.maxiter_levels"] == 2


def test_tracer_restores_every_binding():
    original = egowarp.align.loss_gradients
    with Tracer(ew) as tracer:
        assert egowarp.align.loss_gradients is not original
        assert "losses.loss_gradients" in tracer.functions
    assert egowarp.align.loss_gradients is original


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; root > child [5, 9]
    spans = [
        ["a.root", 0.0, 10.0, -1, 0, None],
        ["b.child", 1.0, 4.0, 0, 0, None],
        ["c.leaf", 2.0, 3.0, 1, 0, None],
        ["b.child", 5.0, 9.0, 0, 0, None],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert [s[END] - s[START] for s in spans] == [10.0, 3.0, 1.0, 4.0]


def test_missing_function_reads_absent_instead_of_failing():
    tracer, _ = _small_solve(max_iters=5)
    present = set(tracer.functions) - {"warp.warp_jacobians"}
    metrics, absent = layer_metrics(tracer.spans, present, 1, [])
    assert absent == ["warp.warp_jacobians.calls", "warp.warp_jacobians.ms"]
    assert metrics["warp.warp_jacobians.ms"]["value"] == 0.0


def test_relative_time_drops_ticks_and_divides_by_nearby_reference():
    sampler = Sampler(period=1.0)
    sampler.ticks = [(0.0, 0.1, 0.01), (1.0, 0.1, 0.02), (2.0, 0.1, 0.03), (9.0, 0.1, 0.5)]
    # ticks at 1.0 and 2.0 run inside [0.5, 2.5); those at 0, 1 and 2 are
    # within a period of it, and their median reference time is 0.02
    assert sampler.paused(0.5, 2.5) == pytest.approx(0.2)
    assert sampler.relative(0.5, 2.5) == pytest.approx((2.0 - 0.2) / 0.02)
    # no tick within a period: the nearest one, at 2.0, stands in
    assert sampler.relative(5.0, 5.5) == pytest.approx(0.5 / 0.03)


def test_sampler_ticks_through_busy_code_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Sampler(period=0.05, calls=1) as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.ticks) >= 4
    assert all(spent > 0 and ref > 0 for _, spent, ref in sampler.ticks)


def test_grad_stream_checks_pass_on_a_second_seed(tmp_path):
    wl = WORKLOADS["grad-256"]
    state = wl.setup(2, tmp_path)
    inp = wl.inputs(state, 0)
    out, phases = wl.op(state, inp)
    failures, values = wl.check(state, inp, out, 0)
    assert failures == []
    assert values["psnr_gt_db"] > 40.0
    assert 0.7 < values["valid_frac"] < 0.8
    assert set(phases) == {"warp_eval_s", "grad_eval_s"}


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    layers = {m.name: m.unit for m in LAYER_METRICS}
    layers["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
