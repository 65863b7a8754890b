"""Acceptance gate: one test per shipping criterion, at pinned tolerances.

Run with -v to get one PASSED/FAILED line per criterion; each test also
prints an explicit "criterion N ... PASS" line (visible with -s or on
failure). Tolerances appear inline, not in fixtures, so this file is the
single place where the numbers that gate a release live.

Criteria:
 1 rigid-transform algebra (inverse, exp/log, consistency loss)   < 1 s
 2 identity-pose warp is exact                                    < 1 s
 3 analytic gradients vs finite differences, 100 trials/component < 60 s
 4 ground-truth warp reconstruction quality on a rendered pair
 5 pose recovery from a perturbed init, plus joint pair descent   < 60 s
 6 loss-stack identities (mask algebra, divergence, hand total)
 7 attention-gate algebra (bounds, exact values, unit-mask path)
 8 metric correctness vs closed forms and brute-force oracles
 9 CLI byte-reproducibility and file-format round trips
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import egowarp
from egowarp import (
    AlignOptions,
    AttentionGateParams,
    DepthMap,
    FeatureMap,
    ImageBuffer,
    LossWeights,
    Pose6DoF,
    SE3Transform,
    Trajectory,
    ValidityMask,
    WeightMask,
    ag_forward,
    align_pose,
    align_pose_pair,
    alpha_to_loss_mask,
    ate_snippet,
    bf_consistency_loss,
    compose,
    default_intrinsics,
    depth_metrics,
    exp_so3,
    explainability_reg,
    grad_check,
    inverse,
    inverse_warp,
    log_so3,
    make_scene,
    perturb_pose,
    photometric_l1,
    psnr,
    read_image,
    read_pfm,
    read_trajectory,
    render_pair,
    render_view,
    total_loss,
    write_image,
    write_pfm,
    write_trajectory,
)
from egowarp.gradcheck import COMPONENTS


@contextmanager
def _criterion(num: int, label: str):
    try:
        yield
    except Exception:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


def _random_transform(rng) -> SE3Transform:
    w = rng.normal(size=3)
    w *= rng.uniform(0.0, 3.0) / np.linalg.norm(w)
    return SE3Transform(exp_so3(w), rng.normal(size=3))


def test_criterion_1_rigid_transform_algebra():
    with _criterion(1, "rigid-transform algebra"):
        rng = np.random.default_rng(42)
        start = time.perf_counter()
        for _ in range(1000):
            t = _random_transform(rng)
            round_trip = compose(t, inverse(t)).matrix()
            assert np.max(np.abs(round_trip - np.eye(4))) < 1e-9

            w = rng.normal(size=3)
            w *= rng.uniform(0.0, 3.0) / np.linalg.norm(w)
            assert np.max(np.abs(log_so3(exp_so3(w)) - w)) < 1e-9

            assert bf_consistency_loss([(t, inverse(t))]) < 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_2_identity_warp_is_exact():
    with _criterion(2, "identity-pose warp"):
        rng = np.random.default_rng(7)
        k = default_intrinsics(128, 128)
        start = time.perf_counter()
        for _ in range(3):
            source = ImageBuffer(rng.random((128, 128, 1)))
            depth = DepthMap(rng.uniform(0.5, 60.0, size=(128, 128)))
            recon, valid = inverse_warp(source, depth, SE3Transform.identity(), k)
            assert valid.count == 128 * 128
            assert np.max(np.abs(recon.data - source.data)) < 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_3_gradient_fidelity():
    with _criterion(3, "gradient fidelity"):
        start = time.perf_counter()
        for component in COMPONENTS:
            report = grad_check(component, seed=42, trials=100)
            assert report.max_rel_err < 1e-4, (
                f"{component}: {report.max_rel_err:.4e}"
            )
        assert time.perf_counter() - start < 60.0


def test_criterion_4_reconstruction_oracle():
    with _criterion(4, "reconstruction oracle"):
        # Fronto plane sits at depth 5; the baseline is 2% of that.
        k = default_intrinsics(128, 128)
        pair = render_pair(
            make_scene("fronto_plane"),
            SE3Transform.from_translation([0.1, 0.0, 0.0]),
            k, 128, 128,
        )
        recon, valid = inverse_warp(pair.source, pair.gt_depth, pair.gt_pose, k)
        assert psnr(pair.target, recon, valid) > 40.0
        ones = WeightMask.ones(128, 128)
        assert photometric_l1(pair.target, recon, ones, valid) < 1e-3


def test_criterion_5_pose_recovery():
    with _criterion(5, "pose recovery"):
        # Slanted plane: depth variation across the image separates lateral
        # translation from rotation; baseline ~10% of scene depth.
        scene = make_scene("slanted_plane")
        k = default_intrinsics(128, 128)
        gt_trans = np.array([0.35, 0.25, 0.2])
        pair = render_pair(scene, SE3Transform.from_translation(gt_trans), k, 128, 128)
        gt6 = Pose6DoF(np.zeros(3), gt_trans)

        start = time.perf_counter()
        report = align_pose(
            pair.target, pair.source, pair.gt_depth, k,
            perturb_pose(gt6, 1.0, 0.02, seed=42),
            AlignOptions(max_iters=1500),
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0

        rel = compose(report.pose.to_transform(), inverse(gt6.to_transform()))
        rot_err_deg = np.degrees(np.linalg.norm(log_so3(rel.r)))
        trans_err_rel = np.linalg.norm(report.pose.trans - gt_trans) / np.linalg.norm(gt_trans)
        assert rot_err_deg < 0.1
        assert trans_err_rel < 0.01
        assert all(
            b <= a for a, b in zip(report.loss_history, report.loss_history[1:])
        )

        # Joint forward/backward descent with a dominant consistency weight.
        gt_fwd = SE3Transform.from_translation(gt_trans)
        _, depth_source, _ = render_view(scene, gt_fwd, k, 128, 128)
        bwd = inverse(gt_fwd)
        pair_report = align_pose_pair(
            pair.target, pair.source, pair.gt_depth, depth_source, k,
            perturb_pose(gt6, 1.0, 0.02, seed=1),
            perturb_pose(Pose6DoF(log_so3(bwd.r), bwd.t), 1.0, 0.02, seed=2),
            AlignOptions(max_iters=500, weights=LossWeights(lambda_bf=10.0)),
        )
        assert pair_report.bf_term < 1e-4


def test_criterion_6_loss_identities():
    with _criterion(6, "loss identities"):
        rng = np.random.default_rng(11)
        target = ImageBuffer(rng.random((16, 16, 3)))
        recon = ImageBuffer(rng.random((16, 16, 3)))
        valid = ValidityMask(rng.random((16, 16)) > 0.2)

        ones = WeightMask.ones(16, 16)
        unmasked = float(
            np.sum(np.sum(np.abs(target.data - recon.data), axis=2) * valid.data)
            / valid.count
        )
        assert photometric_l1(target, recon, ones, valid) == unmasked

        zeros = WeightMask(np.zeros((16, 16)))
        assert photometric_l1(target, recon, zeros, valid) == 0.0

        near_clamp = explainability_reg(WeightMask(np.full((4, 4), 1e-7)))
        assert near_clamp > 16.0
        assert near_clamp > explainability_reg(WeightMask(np.full((4, 4), 1e-4)))
        assert explainability_reg(ones) == 0.0

        w = LossWeights(lambda_smo=0.1, lambda_reg=0.1, lambda_bf=0.1)
        assert abs(total_loss(1.0, 1.0, 1.0, 1.0, w) - 1.3) < 1e-12


def test_criterion_7_attention_algebra():
    with _criterion(7, "attention-gate algebra"):
        rng = np.random.default_rng(13)
        for _ in range(50):
            params = AttentionGateParams(
                rng.normal(size=(2, 3)), rng.normal(size=(4, 3)),
                rng.normal(size=3), rng.normal(size=3), float(rng.normal()),
            )
            alpha, _ = ag_forward(
                FeatureMap(rng.normal(size=(5, 6, 2))),
                FeatureMap(rng.normal(size=(5, 6, 4))),
                params,
            )
            assert alpha.data.min() >= 0.0 and alpha.data.max() <= 1.0

        x = FeatureMap(rng.normal(size=(4, 4, 2)))
        g = FeatureMap(rng.normal(size=(4, 4, 2)))
        alpha, _ = ag_forward(x, g, AttentionGateParams.zeros(2, 2, 3))
        assert np.all(alpha.data == 0.5)

        unit = AttentionGateParams(
            np.ones((1, 1)), np.ones((1, 1)), np.ones(1), np.zeros(1), 0.0
        )
        alpha, _ = ag_forward(
            FeatureMap(np.ones((1, 1, 1))), FeatureMap(np.ones((1, 1, 1))), unit
        )
        assert abs(alpha.data[0, 0] - 1.0 / (1.0 + np.exp(-2.0))) < 1e-12

        target = ImageBuffer(rng.random((8, 8, 3)))
        recon = ImageBuffer(rng.random((8, 8, 3)))
        valid = ValidityMask(np.ones((8, 8), dtype=bool))
        mask = alpha_to_loss_mask(WeightMask(np.ones((8, 8))), 8, 8)
        unmasked = photometric_l1(target, recon, WeightMask.ones(8, 8), valid)
        assert photometric_l1(target, recon, mask, valid) == unmasked


def test_criterion_8_metric_correctness():
    with _criterion(8, "metric correctness"):
        gt = DepthMap(np.full((8, 8), 5.0))
        m = depth_metrics(DepthMap(gt.data * 1.3), gt)
        assert m.abs_rel == 0.3
        assert m.d1 == 0.0 and m.d2 == 1.0 and m.d3 == 1.0

        rng = np.random.default_rng(17)
        poses = [SE3Transform.identity()]
        for _ in range(7):
            step = Pose6DoF(
                rng.uniform(-0.3, 0.3, 3), rng.uniform(-1.0, 1.0, 3)
            ).to_transform()
            poses.append(SE3Transform.from_matrix(poses[-1].matrix() @ step.matrix()))
        times = np.arange(8, dtype=float)
        traj = Trajectory(times, poses)

        same = ate_snippet(traj, traj, snippet_len=5)
        assert same.mean == 0.0 and same.std == 0.0

        doubled = Trajectory(times, [SE3Transform(p.r, 2.0 * p.t) for p in poses])
        scaled = ate_snippet(doubled, traj, snippet_len=5)
        assert scaled.mean == 0.0 and scaled.std == 0.0

        # Single-frame offset fixture vs an explicit 4x4-matrix oracle.
        bumped = [
            SE3Transform(p.r, p.t + (np.array([0.3, 0.0, 0.0]) if i == 4 else 0.0))
            for i, p in enumerate(poses)
        ]
        pred = Trajectory(times, bumped)
        got = ate_snippet(pred, traj, snippet_len=5)
        errors = []
        for start in range(len(poses) - 5 + 1):
            ph = np.array([
                (np.linalg.inv(bumped[start].matrix()) @ p.matrix())[:3, 3]
                for p in bumped[start : start + 5]
            ])
            p = np.array([
                (np.linalg.inv(poses[start].matrix()) @ q.matrix())[:3, 3]
                for q in poses[start : start + 5]
            ])
            s = np.sum(ph * p) / np.sum(ph * ph)
            errors.extend(np.linalg.norm(s * ph - p, axis=1).tolist())
        assert abs(got.mean - np.mean(errors)) < 1e-10
        assert abs(got.std - np.std(errors)) < 1e-10

        pred_depth = DepthMap(rng.uniform(0.5, 60.0, size=(6, 6)))
        gt_depth = DepthMap(rng.uniform(0.5, 60.0, size=(6, 6)))
        m = depth_metrics(pred_depth, gt_depth)
        d_hat, d = pred_depth.data.ravel(), gt_depth.data.ravel()
        assert abs(m.abs_rel - np.mean(np.abs(d_hat - d) / d)) < 1e-10
        assert abs(m.rmse - np.sqrt(np.mean((d_hat - d) ** 2))) < 1e-10


def test_criterion_9_determinism_and_io(tmp_path):
    with _criterion(9, "determinism and I/O"):
        # The child imports the same egowarp as this process, however
        # pytest's pythonpath or the caller's PYTHONPATH provided it.
        src = str(Path(egowarp.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}

        def run(*argv: str) -> bytes:
            proc = subprocess.run(
                [sys.executable, "-m", "egowarp.cli", *argv],
                capture_output=True, check=True, env=env,
            )
            return proc.stdout

        out = tmp_path / "pair"
        synth = (
            "synth", "--scene", "two_planes", "--size", "48x48",
            "--baseline", "0.1,0.05,0,0,0,0", "--seed", "9", "--out", str(out),
        )
        first_console = run(*synth)
        snapshot = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        }
        assert len(snapshot) == 5
        assert run(*synth) == first_console
        for p in sorted(out.iterdir()):
            assert p.read_bytes() == snapshot[p.name]

        align = ("align", "--pair", str(out), "--max-iters", "15", "--seed", "3")
        assert run(*align) == run(*align)

        eval_depth = ("eval-depth", "--pred", str(out), "--gt", str(out))
        assert run(*eval_depth) == run(*eval_depth)

        grad = ("gradcheck", "--component", "losses", "--trials", "2")
        assert run(*grad) == run(*grad)

        poses = [
            SE3Transform.from_translation([0.5 * i, 0.1 * i, 0.0]) for i in range(6)
        ]
        times = np.arange(6, dtype=float)
        traj_path = tmp_path / "traj.txt"
        times_path = tmp_path / "times.txt"
        write_trajectory(traj_path, poses)
        np.savetxt(times_path, times)
        eval_ate = (
            "eval-ate", "--pred", str(traj_path), "--gt", str(traj_path),
            "--times", str(times_path),
        )
        assert run(*eval_ate) == run(*eval_ate)

        # write -> read -> write round trips are byte-identical.
        rng = np.random.default_rng(29)
        a, b = tmp_path / "a.pfm", tmp_path / "b.pfm"
        write_pfm(a, rng.uniform(0.1, 50.0, size=(9, 7)))
        write_pfm(b, read_pfm(a))
        assert a.read_bytes() == b.read_bytes()

        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_image(a, ImageBuffer(rng.random((6, 5, 3))))
        write_image(b, read_image(a))
        assert a.read_bytes() == b.read_bytes()

        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_trajectory(a, poses)
        write_trajectory(b, read_trajectory(a))
        assert a.read_bytes() == b.read_bytes()
