"""Convergence basin of align_pose: how many solves recover the pose from
each size of initial perturbation (ROADMAP item 12), then the work and
accuracy of every joint-64 solve.

    python3 tools/basin.py

Run from anywhere; the package is imported from the checkout's src/ and the
joint-64 workload from its perfbench/workloads.py, which this script only
reads.

The basin protocol is fixed: pose_only align_pose at 128x128, 3 pyramid
levels, max_iters=300, criterion 5's baseline, and perturb_pose seeds 0-7
in each cell. A solve is recovered inside criterion 5's 0.1 degree / 1 % of
the translation. The table has one row per scene, each cell's recovered
count with the median iterations of its solves; a cell that recovers fewer
solves than its floor in FLOORS fails the run.

The joint-64 table runs the benchmark's pose_and_depth workload on its own
inputs, seeds 1-7 and operations 0-3, one row per solve. Per pyramid level
size it gives the iterations and the warps (egowarp.align.inverse_warp
calls); each iteration of this mode makes one egowarp.align.loss_gradients
call, so the iterations are counted as those calls, and a solve whose
calls do not add up to its report's iters fails the run. Then the final
loss, the depth abs-rel with its start's, the rotation error in degrees, the
translation error in percent of ||t|| and converged; the last row is the
mean over solves. A solve that fails the workload's own check (its depth
abs-rel not below its start, a non-finite or increasing loss) fails the run.

The script exits 1 if any check failed.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import egowarp as ew  # noqa: E402
import egowarp.align as align_module  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SIZE = 128
GT_TRANS = np.array([0.35, 0.25, 0.2])  # criterion 5's baseline
SEEDS = range(8)
CELLS = ((1.0, 0.02), (8.0, 0.20), (12.0, 0.30), (16.0, 0.40))  # (degrees, fraction of ||t||)
# Recovered solves per cell when the protocol was fixed; a cell below its
# floor fails the run.
FLOORS = {"slanted_plane": (8, 8, 7, 5), "two_planes": (8, 8, 6, 3)}
OPTS = ew.AlignOptions(max_iters=300, pyramid_levels=3)
JOINT_SEEDS = range(1, 8)
JOINT_OPS = range(4)
# The check values of a joint-64 solve that its row prints, in order.
JOINT_VALUES = ("align_iters", "align.final_loss", "align.depth.abs_rel", "depth_abs_rel_start",
                "align.pose.rot_err_deg", "align.pose.trans_err_rel")


def recovered(est: ew.Pose6DoF, gt: ew.Pose6DoF) -> bool:
    rel = ew.compose(est.to_transform(), ew.inverse(gt.to_transform()))
    rot = float(np.degrees(np.linalg.norm(ew.log_so3(rel.r))))
    trans = float(np.linalg.norm(est.trans - gt.trans) / np.linalg.norm(gt.trans))
    return rot < 0.1 and trans < 0.01


def basin_table() -> bool:
    """Print the basin table; False if a cell is below its floor."""
    k = ew.default_intrinsics(SIZE, SIZE)
    gt = ew.Pose6DoF(np.zeros(3), GT_TRANS)
    header = " | ".join(f"{deg:g} deg / {frac:.0%}" for deg, frac in CELLS)
    print(f"| scene | {header} |")
    print("| --- |" + " --- |" * len(CELLS))
    ok = True
    for scene, floors in FLOORS.items():
        pair = ew.render_pair(ew.make_scene(scene), gt.to_transform(), k, SIZE, SIZE)
        row = []
        for (deg, frac), floor in zip(CELLS, floors):
            reports = [ew.align_pose(pair.target, pair.source, pair.gt_depth, k,
                                     ew.perturb_pose(gt, deg, frac, seed=seed), OPTS)
                       for seed in SEEDS]
            hits = sum(recovered(r.pose, gt) for r in reports)
            iters = statistics.median(r.iters for r in reports)
            ok &= hits >= floor
            row.append(f"{hits} ({iters:g} it){'' if hits >= floor else f' < {floor}'}")
        print(f"| {scene} | " + " | ".join(row) + " |")
    return ok


def _counting(counts: Counter, kind: str, fn):
    """fn, counting its calls in counts[(kind, height of its first argument)]."""
    def counted(*args, **kwargs):
        counts[kind, args[0].height] += 1
        return fn(*args, **kwargs)
    return counted


def joint_table() -> bool:
    """Print the joint-64 per-solve table; False if a solve fails a check."""
    wl = WORKLOADS["joint-64"]
    counts: Counter = Counter()
    inner = align_module.loss_gradients, align_module.inverse_warp
    align_module.loss_gradients = _counting(counts, "calls", inner[0])
    align_module.inverse_warp = _counting(counts, "warps", inner[1])
    rows, ok = [], True  # (seed:op, counts, check values, failures) per solve
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for seed in JOINT_SEEDS:
                state = wl.setup(seed, Path(workdir))
                for i in JOINT_OPS:
                    counts.clear()
                    inp = wl.inputs(state, i)
                    out, _ = wl.op(state, inp)
                    failures, values = wl.check(state, inp, out, i)
                    calls = sum(n for (kind, _), n in counts.items() if kind == "calls")
                    if calls != values["align_iters"]:
                        failures.append(f"{calls} gradient calls in {values['align_iters']} iters")
                    ok &= not failures
                    rows.append((f"{seed}:{i}", dict(counts), values, failures))
    finally:
        align_module.loss_gradients, align_module.inverse_warp = inner
    sizes = sorted({size for _, c, _, _ in rows for _, size in c})
    numbers = np.array([[c.get((kind, size), 0) for size in sizes for kind in ("calls", "warps")]
                        + [values[key] for key in JOINT_VALUES] for _, c, values, _ in rows])

    def cells(nums, digits):  # counts with digits decimals
        level = [f"{calls:.{digits}f} / {warps:.{digits}f}" for calls, warps in
                 zip(nums[:2 * len(sizes):2], nums[1:2 * len(sizes):2])]
        iters, loss, abs_rel, start, rot, trans = nums[2 * len(sizes):]
        return level + [f"{iters:.{digits}f}", f"{loss * 1e3:.4f}e-3",
                        f"{abs_rel:.5f} ({start:.5f})", f"{rot:.3f}", f"{trans * 100:.2f}"]

    print(f"| joint-64 seed:op | {' | '.join(f'{s}² it / warps' for s in sizes)} | iters "
          "| final loss | depth abs-rel (start) | rot ° | trans % | converged |")
    print("| --- |" + " --- |" * (len(sizes) + 6))
    for (name, _, values, failures), nums in zip(rows, numbers):
        verdict = str(values["pose_converged"]) + "".join(f"; FAIL: {f}" for f in failures)
        print(f"| {name} | " + " | ".join(cells(nums, 0)) + f" | {verdict} |")
    converged = sum(values["pose_converged"] for _, _, values, _ in rows)
    print("| mean | " + " | ".join(cells(numbers.mean(axis=0), 1))
          + f" | {converged} of {len(rows)} |")
    return ok


def main() -> int:
    ok = basin_table()
    print()
    ok &= joint_table()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
