"""Convergence basin of align_pose: how many solves recover the pose from
each size of initial perturbation (ROADMAP item 12).

    python3 tools/basin.py

Run from anywhere; the package is imported from the checkout's src/. The
protocol is fixed: pose_only align_pose at 128x128, 3 pyramid levels,
max_iters=300, criterion 5's baseline, and perturb_pose seeds 0-7 in each
cell. A solve is recovered inside criterion 5's 0.1 degree / 1 % of the
translation. The script prints one row per scene, each cell's recovered
count with the median iterations of its solves, and exits 1 if any cell
recovers fewer solves than its floor in FLOORS.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import egowarp as ew  # noqa: E402

SIZE = 128
GT_TRANS = np.array([0.35, 0.25, 0.2])  # criterion 5's baseline
SEEDS = range(8)
CELLS = ((1.0, 0.02), (8.0, 0.20), (12.0, 0.30), (16.0, 0.40))  # (degrees, fraction of ||t||)
# Recovered solves per cell when the protocol was fixed; a cell below its
# floor fails the run.
FLOORS = {"slanted_plane": (8, 8, 7, 5), "two_planes": (8, 8, 6, 3)}
OPTS = ew.AlignOptions(max_iters=300, pyramid_levels=3)


def recovered(est: ew.Pose6DoF, gt: ew.Pose6DoF) -> bool:
    rel = ew.compose(est.to_transform(), ew.inverse(gt.to_transform()))
    rot = float(np.degrees(np.linalg.norm(ew.log_so3(rel.r))))
    trans = float(np.linalg.norm(est.trans - gt.trans) / np.linalg.norm(gt.trans))
    return rot < 0.1 and trans < 0.01


def main() -> int:
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
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
