"""The benchmark's workloads: seeded inputs, one timed operation, checks.

Each workload has four functions. ``setup(seed, workdir)`` renders the
scene and writes any files (timed as set-up). ``inputs(state, i)`` draws the
seeded inputs of operation i (untimed). ``op(state, inp)`` is the timed
operation; it returns its outputs and the seconds of each named phase.
``check(state, inp, out, i)`` returns (failures, values): the reasons the
outputs are wrong, if any, and scalar values worth reporting (errors,
iteration counts). Errors, PSNR and abs-rel are computed in numpy here; the
finite-difference check differentiates the program's own forward warp, and
the CLI report is read with the program's own reader, as the format's test.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import egowarp as ew
from egowarp import cli, fileio

GT_TRANS = np.array([0.35, 0.25, 0.2])  # criterion 5's baseline
GRAD_BASELINE = np.array([0.9, 0.6, 0.3])  # ~24 % of pixels leave the frame at 256²


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _pose_errors(est: ew.Pose6DoF, gt: ew.SE3Transform) -> tuple[float, float]:
    """(rotation error in degrees, translation error relative to ||t_gt||)."""
    r_rel = est.to_transform().r.m @ gt.r.m.T
    cos = np.clip((np.trace(r_rel) - 1.0) / 2.0, -1.0, 1.0)
    rot = float(np.degrees(np.arccos(cos)))
    trans = float(np.linalg.norm(est.trans - gt.t) / np.linalg.norm(gt.t))
    return rot, trans


def _non_increasing(history) -> bool:
    return all(b <= a for a, b in zip(history, history[1:]))


def _abs_rel(pred: np.ndarray, gt: np.ndarray) -> float:
    return float(np.mean(np.abs(pred - gt) / gt))


class Timer:
    """Accumulates named phase durations of one operation."""

    def __init__(self) -> None:
        self.phases: dict[str, float] = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    inputs: Callable
    op: Callable
    check: Callable


# ------------------------------------------------------------------ c5-128
# The acceptance criterion-5 job, on criterion 5's own inputs: slanted_plane
# (scene seed 42) at 128², 1° / 2 % perturbation (seed 42), 3 levels,
# max_iters=1500, then the pair solve (perturbation seeds 1 and 2). --seed
# does not change them. At other seeds the first-order solver's finest level
# runs to the 1500 cap (46-55 s against 18 s here), and with a lower cap some
# seeds end above 1 % translation error, so no seeded variant is both
# checkable against criterion 5 and steady enough to time.

C5_SIZE = 128
C5_POSE_ITERS = 1500
C5_PAIR_ITERS = 500


def _c5_setup(seed: int, workdir: Path):
    k = ew.default_intrinsics(C5_SIZE, C5_SIZE)
    gt = ew.SE3Transform.from_translation(GT_TRANS)
    scene = ew.make_scene("slanted_plane")
    pair = ew.render_pair(scene, gt, k, C5_SIZE, C5_SIZE)
    _, depth_source, _ = ew.render_view(scene, gt, k, C5_SIZE, C5_SIZE)
    gt6 = ew.Pose6DoF(np.zeros(3), GT_TRANS)
    bwd = ew.inverse(gt)
    return {
        "k": k, "gt": gt, "pair": pair, "depth_source": depth_source,
        "pose_init": ew.perturb_pose(gt6, 1.0, 0.02, seed=42),
        "pair_init": (
            ew.perturb_pose(gt6, 1.0, 0.02, seed=1),
            ew.perturb_pose(ew.Pose6DoF(ew.log_so3(bwd.r), bwd.t), 1.0, 0.02, seed=2),
        ),
    }


def _c5_inputs(state, i: int):
    return state["pose_init"]


def _c5_op(state, init):
    t = Timer()
    p = state["pair"]
    with t.phase("pose_solve_s"):
        pose = ew.align_pose(p.target, p.source, p.gt_depth, state["k"], init,
                             ew.AlignOptions(max_iters=C5_POSE_ITERS))
    with t.phase("pair_solve_s"):
        pair = ew.align_pose_pair(
            p.target, p.source, p.gt_depth, state["depth_source"], state["k"],
            *state["pair_init"],
            ew.AlignOptions(max_iters=C5_PAIR_ITERS, weights=ew.LossWeights(lambda_bf=10.0)),
        )
    return {"pose": pose, "pair": pair}, t.phases


def _c5_check(state, init, out, i):
    pose, pair = out["pose"], out["pair"]
    rot, trans = _pose_errors(pose.pose, state["gt"])
    pair_rot, pair_trans = _pose_errors(pair.pose_forward, state["gt"])
    failures = []
    if not rot < 0.1:
        failures.append(f"pose rotation error {rot:.4f} deg >= 0.1")
    if not trans < 0.01:
        failures.append(f"pose translation error {trans:.4%} >= 1 %")
    if not _non_increasing(pose.loss_history):
        failures.append("pose loss_history increases")
    if not pair.bf_term < 1e-4:
        failures.append(f"pair bf_term {pair.bf_term:.3e} >= 1e-4")
    values = {
        "align_iters": pose.iters + pair.iters,
        "align.pose.rot_err_deg": rot, "align.pose.trans_err_rel": trans,
        "align.pair.rot_err_deg": pair_rot, "align.pair.trans_err_rel": pair_trans,
        "align.pair.bf_term": pair.bf_term, "align.final_loss": pose.final_loss,
        "pose_converged": pose.converged, "pair_converged": pair.converged,
    }
    return failures, values


# ---------------------------------------------------------------- grad-256
# A training-style stream: no solver, one forward loss and one gradient per
# step at 256² RGB, with ~24 % of pixels warped out of bounds.

G_SIZE = 256
G_FD_EVERY = 10  # directional finite-difference check on every 10th step
G_FD_EPS = 1e-7


def _g_setup(seed: int, workdir: Path):
    k = ew.default_intrinsics(G_SIZE, G_SIZE)
    gt = ew.SE3Transform.from_translation(GRAD_BASELINE)
    scene = ew.make_scene("slanted_plane", seed=_sub_seed(_rng(seed, 0)))
    pair = ew.render_pair(scene, gt, k, G_SIZE, G_SIZE)
    rgb = _rng(seed, 2).uniform(0.6, 1.0, size=3)  # per-channel gain
    return {
        "k": k, "gt": gt, "gt6": ew.Pose6DoF(np.zeros(3), GRAD_BASELINE), "seed": seed,
        "target": ew.ImageBuffer(pair.target.data * rgb),
        "source": ew.ImageBuffer(pair.source.data * rgb),
        "gt_depth": pair.gt_depth,
        "ones": ew.WeightMask.ones(G_SIZE, G_SIZE),
        "weights": ew.LossWeights(),
    }


def _g_inputs(state, i: int):
    rng = _rng(state["seed"], 1, i)
    pose = ew.perturb_pose(state["gt6"], 0.5, 0.05, seed=_sub_seed(rng)).to_transform()
    noise = 1.0 + 0.05 * rng.standard_normal(state["gt_depth"].data.shape)
    return pose, ew.DepthMap(state["gt_depth"].data * np.clip(noise, 0.5, 1.5))


def _g_op(state, inp):
    pose, depth = inp
    t = Timer()
    with t.phase("warp_eval_s"):
        recon, valid = ew.inverse_warp(state["source"], depth, pose, state["k"])
        loss = ew.photometric_l1(state["target"], recon, state["ones"], valid)
        loss += state["weights"].lambda_smo * ew.smoothness(depth, state["target"])
    with t.phase("grad_eval_s"):
        grads = ew.loss_gradients(state["target"], state["source"], depth, pose, state["k"],
                                  state["ones"], state["weights"])
    return {"loss": loss, "recon": recon.data, "valid_mask": valid.data, "grads": grads}, t.phases


def _g_check(state, inp, out, i):
    pose, depth = inp
    failures = []
    grads = out["grads"]
    if not (np.isfinite(out["loss"]) and np.all(np.isfinite(grads.d_pose))
            and np.all(np.isfinite(grads.d_depth))):
        failures.append("non-finite loss or gradient")
    values = {"valid_frac": float(np.mean(out["valid_mask"]))}
    if i == 0:
        # Criterion 4's oracle: the ground-truth warp reconstructs the target.
        recon, valid = ew.inverse_warp(state["source"], state["gt_depth"], state["gt"], state["k"])
        m = valid.data
        mse = float(np.mean((recon.data[m] - state["target"].data[m]) ** 2))
        psnr = 10.0 * np.log10(1.0 / mse) if mse > 0 else float("inf")
        values["psnr_gt_db"] = psnr
        if not psnr > 40.0:
            failures.append(f"PSNR at the ground-truth pose {psnr:.1f} dB <= 40")
    if i % G_FD_EVERY == 0:
        # Directional derivative of the photometric term along a random pose
        # direction, from a numpy sum over the pixels valid at both ends of
        # the step, with each residual's sign taken at the base point. The
        # analytic gradient holds validity and the L1 signs fixed, so this
        # sum has the same derivative; the few pixels that cross the frame
        # border within the step change it by O(1 / valid pixels).
        v = _rng(state["seed"], 3, i).standard_normal(6)
        v /= np.linalg.norm(v)
        ends = [ew.inverse_warp(state["source"], depth, ew.retract_pose(pose, s * G_FD_EPS * v),
                                state["k"]) for s in (1.0, -1.0)]
        keep = out["valid_mask"] & ends[0][1].data & ends[1][1].data
        sign = np.sign(state["target"].data - out["recon"])
        n_valid = np.count_nonzero(out["valid_mask"])
        plus, minus = (
            np.sum((sign * (state["target"].data - recon.data))[keep]) / n_valid
            for recon, _ in ends
        )
        fd = (plus - minus) / (2 * G_FD_EPS)
        analytic = float(grads.d_pose @ v)
        err = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-3)
        values["fd_rel_err"] = err
        if not err < 1e-3:
            failures.append(f"d_pose directional derivative off by {err:.2e} (relative)")
    return failures, values


# ---------------------------------------------------------------- joint-64
# pose_and_depth at 64²: depth is written every iteration and handed across
# levels through upsample2x, with several loss evals per gradient eval. At
# max_iters=200 about one seeded solve in five stops the finest level early
# (313 iterations against 600), and with two or three 9 s solves per run the
# median swings with the seed; at 100 a run holds about five solves.

J_SIZE = 64
J_ITERS = 100


def _j_setup(seed: int, workdir: Path):
    k = ew.default_intrinsics(J_SIZE, J_SIZE)
    gt = ew.SE3Transform.from_translation(GT_TRANS)
    scene = ew.make_scene("slanted_plane", seed=_sub_seed(_rng(seed, 0)))
    return {"k": k, "gt": gt, "gt6": ew.Pose6DoF(np.zeros(3), GT_TRANS), "seed": seed,
            "pair": ew.render_pair(scene, gt, k, J_SIZE, J_SIZE)}


def _j_inputs(state, i: int):
    rng = _rng(state["seed"], 1, i)
    init = ew.perturb_pose(state["gt6"], 1.0, 0.02, seed=_sub_seed(rng))
    gt_depth = state["pair"].gt_depth.data
    noisy = gt_depth * np.clip(1.0 + 0.05 * rng.standard_normal(gt_depth.shape), 0.5, 1.5)
    return init, ew.DepthMap(noisy)


def _j_op(state, inp):
    init, depth = inp
    p = state["pair"]
    t = Timer()
    with t.phase("depth_solve_s"):
        rep = ew.align_pose(p.target, p.source, depth, state["k"], init,
                            ew.AlignOptions(mode="pose_and_depth", max_iters=J_ITERS))
    return {"report": rep}, t.phases


def _j_check(state, inp, out, i):
    init, depth = inp
    rep = out["report"]
    gt_depth = state["pair"].gt_depth.data
    start = _abs_rel(depth.data, gt_depth)
    final = _abs_rel(rep.depth.data, gt_depth) if rep.depth is not None else float("inf")
    rot, trans = _pose_errors(rep.pose, state["gt"])
    failures = []
    if not (np.isfinite(rep.final_loss) and np.all(np.isfinite(rep.loss_history))):
        failures.append("non-finite loss")
    if not _non_increasing(rep.loss_history):
        failures.append("loss_history increases")
    if not final < start:
        failures.append(f"depth abs_rel {final:.4f} not below its start {start:.4f}")
    values = {
        "align_iters": rep.iters, "align.depth.abs_rel": final, "depth_abs_rel_start": start,
        "align.pose.rot_err_deg": rot, "align.pose.trans_err_rel": trans,
        "align.final_loss": rep.final_loss, "pose_converged": rep.converged,
    }
    return failures, values


# ------------------------------------------------------------- cli-rgb-128
# The command line in-process: synth, align, gradcheck, eval-depth and
# eval-ate on files written by set-up. Each operation aligns from its own
# seeded perturbation. Operation 0's check repeats its align, untimed, and
# compares the two outputs byte for byte. align runs at --max-iters 15, not
# the default 100: at 100 its work changes with the perturbation (211 to
# 300 iterations) and only two ~8 s operations fit in a run, so the run
# mean swings. At 15 every level runs to the cap, and with gradcheck at 3
# trials an operation takes about 1.6 s, so a run holds about ten and their
# median is not moved by the one in ~15 whose line searches backtrack twice
# as often.

CLI_SIZE = 128
CLI_GRADCHECK_TRIALS = 3
CLI_ALIGN_ITERS = 15
CLI_FRAMES = 12


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _cli_setup(seed: int, workdir: Path):
    """Write eval-depth and eval-ate inputs derived from the seed."""
    rng = _rng(seed, 0)
    scene_seed = _sub_seed(rng)
    k = ew.default_intrinsics(CLI_SIZE, CLI_SIZE)
    gt = ew.SE3Transform.from_translation(GT_TRANS)
    pair = ew.render_pair(ew.make_scene("slanted_plane", seed=scene_seed), gt, k,
                          CLI_SIZE, CLI_SIZE)
    pred_dir = workdir / "pred_depth"
    pred_dir.mkdir(parents=True, exist_ok=True)
    gt_depth = pair.gt_depth.data
    pred = gt_depth * np.clip(1.0 + 0.1 * rng.standard_normal(gt_depth.shape), 0.5, 1.5)
    fileio.write_depth(pred_dir / "gt_depth.pfm", ew.DepthMap(pred))
    # A smooth forward trajectory and a noisy prediction of it.
    times = np.arange(CLI_FRAMES) * 0.1
    gt_poses, pred_poses = [], []
    for j in range(CLI_FRAMES):
        rot = 0.01 * j * np.array([0.0, 1.0, 0.0])
        trans = np.array([0.1 * j, 0.0, 0.5 * j])
        gt_poses.append(ew.Pose6DoF(rot, trans).to_transform())
        pred_poses.append(ew.Pose6DoF(rot, trans + 0.01 * rng.standard_normal(3)).to_transform())
    fileio.write_trajectory(workdir / "gt_traj.txt", gt_poses)
    fileio.write_trajectory(workdir / "pred_traj.txt", pred_poses)
    fileio.write_timestamps(workdir / "times.txt", times)
    return {"seed": seed, "scene_seed": scene_seed, "workdir": workdir, "pred": pred,
            "gt_depth": gt_depth}


def _cli_inputs(state, i: int):
    w = state["workdir"]
    return ["align", "--pair", str(w / "pair"), "--seed", str(_sub_seed(_rng(state["seed"], 1, i))),
            "--max-iters", str(CLI_ALIGN_ITERS), "--out", str(w / "align_report.txt")]


def _cli_op(state, align_argv):
    w = state["workdir"]
    runs = {}
    t = Timer()
    with t.phase("synth_s"):
        runs["synth"] = _run_cli([
            "synth", "--scene", "slanted_plane", "--size", f"{CLI_SIZE}x{CLI_SIZE}",
            "--baseline", ",".join(str(x) for x in GT_TRANS) + ",0,0,0",
            "--seed", str(state["scene_seed"]), "--out", str(w / "pair"),
        ])
    with t.phase("cli_align_s"):
        runs["align"] = _run_cli(align_argv)
    with t.phase("gradcheck_s"):
        runs["gradcheck"] = _run_cli([
            "gradcheck", "--trials", str(CLI_GRADCHECK_TRIALS), "--seed", str(state["seed"]),
        ])
    with t.phase("eval_depth_s"):
        runs["eval_depth"] = _run_cli(
            ["eval-depth", "--pred", str(w / "pred_depth"), "--gt", str(w / "pair")])
    with t.phase("eval_ate_s"):
        runs["eval_ate"] = _run_cli([
            "eval-ate", "--pred", str(w / "pred_traj.txt"), "--gt", str(w / "gt_traj.txt"),
            "--times", str(w / "times.txt"),
        ])
    return {"runs": runs}, t.phases


def _cli_check(state, align_argv, out, i):
    runs = out["runs"]
    failures = []
    values = {}
    try:
        rep = fileio.read_report(align_argv[-1])
        values["align_iters"] = int(rep["iters"])
        values["align.final_loss"] = float(rep["final_loss"])
        values["align.pose.rot_err_deg"] = float(rep["rot_err_deg"])
        values["align.pose.trans_err_rel"] = float(rep["trans_err_rel"])
        values["pose_converged"] = rep["converged"] == "true"
    except (OSError, ValueError, KeyError) as exc:
        failures.append(f"align report does not parse: {exc}")
    if i == 0:
        runs["align_again"] = _run_cli(align_argv)
        if runs["align"][1] != runs["align_again"][1]:
            failures.append("align stdout differs between identical invocations")
    failures += [f"{cmd} exited {code}" for cmd, (code, _) in runs.items() if code != 0]
    if runs["gradcheck"][1].count("PASS") != 4:
        failures.append("gradcheck did not pass every component")
    lines = runs["eval_depth"][1].split("\n")
    expect = _abs_rel(state["pred"], state["gt_depth"])
    try:
        got = float(lines[1].split()[0])
        if abs(got - expect) > 1e-4:
            failures.append(f"eval-depth abs_rel {got} != {expect:.4f}")
    except (IndexError, ValueError):
        failures.append("eval-depth output does not parse")
    if not runs["eval_ate"][1].startswith("ate "):
        failures.append("eval-ate output does not parse")
    return failures, values


WORKLOADS = {
    w.name: w
    for w in (
        Workload("c5-128", _c5_setup, _c5_inputs, _c5_op, _c5_check),
        Workload("grad-256", _g_setup, _g_inputs, _g_op, _g_check),
        Workload("joint-64", _j_setup, _j_inputs, _j_op, _j_check),
        Workload("cli-rgb-128", _cli_setup, _cli_inputs, _cli_op, _cli_check),
    )
}
