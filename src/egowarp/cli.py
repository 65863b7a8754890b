"""Command-line front end.

Subcommands:
  gradcheck   finite-difference validation of the analytic gradients
  synth       render a synthetic two-view pair to disk
  align       recover the relative pose of a rendered pair
  eval-depth  seven-metric depth evaluation over paired PFM directories
  eval-ate    snippet ATE between two trajectory files

Exit codes: 0 success, 1 gradient check failed, 2 bad flags, 3 output
write failure, 4 unreadable alignment inputs, 5 evaluation parse or count
mismatch, or alignment inputs too degenerate to use. Console numbers are
fixed 4-decimal for metrics and poses and scientific 4-decimal for
gradient errors; identical invocations print identical bytes and write
identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .align import MODES, AlignOptions, align_pose, perturb_pose
from .exceptions import DegenerateInputError
from .gradcheck import COMPONENTS, grad_check
from .metrics import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MIN_DEPTH,
    DEFAULT_SNIPPET_LEN,
    DepthMetrics,
    Trajectory,
    ate_snippet,
    depth_metrics,
    median_scale_align,
)
from .se3 import Pose6DoF, compose, inverse, log_so3
from .synthetic import SCENE_KINDS, default_intrinsics, make_scene, render_pair
from .warp import ImageBuffer

GRADCHECK_TOL = 1e-4

_DEPTH_FIELDS = tuple(f.name for f in dataclasses.fields(DepthMetrics))


def _number(kind, low=None, closed=False):
    """argparse type: a finite number of ``kind`` (int or float) above
    ``low``, or at least ``low`` when ``closed``; no bound when low is None."""
    bound = "" if low is None else f" {'>=' if closed else '>'} {low}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = float("nan")
        in_range = low is None or (value >= low if closed else value > low)
        if not (in_range and abs(value) < float("inf")):  # False for NaN too
            msg = f"expected a finite {kind.__name__}{bound}, got {text!r}"
            raise argparse.ArgumentTypeError(msg)
        return value

    return parse


def _size(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}")
    return tuple(_number(int, 2, closed=True)(p) for p in parts)


def _baseline(text: str) -> Pose6DoF:
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(
            f"expected tx,ty,tz,rx,ry,rz (6 numbers), got {text!r}"
        )
    values = np.array([_number(float)(p) for p in parts])
    try:
        return Pose6DoF(values[3:], values[:3])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None


def _perturb_rot(text: str) -> float:
    deg = _number(float)(text)
    if not abs(deg) < 180:
        raise argparse.ArgumentTypeError(f"rotation must be below 180 degrees, got {text!r}")
    return deg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egowarp",
        description="Differentiable-warping toolkit: synthesis, alignment, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    p.add_argument("--component", choices=("all",) + COMPONENTS, default="all")
    p.add_argument("--trials", type=_number(int, 0), default=100)
    p.add_argument("--seed", type=_number(int, 0, closed=True), default=42)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("synth", help="render a synthetic two-view pair")
    p.add_argument("--scene", choices=SCENE_KINDS, default="fronto_plane")
    p.add_argument("--size", type=_size, default=(128, 128), metavar="WxH")
    p.add_argument(
        "--baseline",
        type=_baseline,
        default="0.1,0,0,0,0,0",
        metavar="TX,TY,TZ,RX,RY,RZ",
        help="target-to-source pose: translation then axis-angle radians",
    )
    p.add_argument("--seed", type=_number(int, 0, closed=True), default=42)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("align", help="recover the pose of a rendered pair")
    p.add_argument("--pair", required=True, help="directory written by synth")
    p.add_argument("--mode", choices=MODES, default="pose_only")
    p.add_argument("--perturb-rot", type=_perturb_rot, default=1.0, metavar="DEG")
    p.add_argument("--perturb-trans", type=_number(float), default=0.02, metavar="FRAC")
    p.add_argument("--levels", type=_number(int, 0), default=3)
    p.add_argument("--max-iters", type=_number(int, 0), default=100)
    p.add_argument("--seed", type=_number(int, 0, closed=True), default=42)
    p.add_argument("--out", default=None, help="optional report file")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("eval-depth", help="average depth metrics over PFM pairs")
    p.add_argument("--pred", required=True, help="directory of predicted *.pfm")
    p.add_argument("--gt", required=True, help="directory of ground-truth *.pfm")
    p.add_argument("--min-depth", type=_number(float, 0), default=DEFAULT_MIN_DEPTH)
    p.add_argument("--max-depth", type=_number(float, 0), default=DEFAULT_MAX_DEPTH)
    p.add_argument(
        "--median-align",
        action="store_true",
        help="scale each prediction by median(gt)/median(pred) first",
    )
    p.set_defaults(func=_cmd_eval_depth)

    p = sub.add_parser("eval-ate", help="snippet ATE between trajectories")
    p.add_argument("--pred", required=True, help="predicted trajectory file")
    p.add_argument("--gt", required=True, help="ground-truth trajectory file")
    p.add_argument("--times", required=True, help="timestamps for the prediction")
    p.add_argument(
        "--gt-times", default=None, help="ground-truth timestamps (default: --times)"
    )
    p.add_argument(
        "--snippet-len", type=_number(int, 2, closed=True), default=DEFAULT_SNIPPET_LEN
    )
    p.set_defaults(func=_cmd_eval_ate)

    return parser


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    names = COMPONENTS if args.component == "all" else (args.component,)
    failed = False
    for name in names:
        rep = grad_check(name, seed=args.seed, trials=args.trials)
        ok = rep.max_rel_err < GRADCHECK_TOL
        failed |= not ok
        print(
            f"{name:<10} trials={rep.trials} "
            f"max_rel_err={rep.max_rel_err:.4e} {'PASS' if ok else 'FAIL'}"
        )
    return 1 if failed else 0


def _rgb(img: ImageBuffer) -> ImageBuffer:
    """Replicate a grayscale render to three channels for PPM output."""
    return ImageBuffer(np.repeat(img.data, 3, axis=2))


def _cmd_synth(args: argparse.Namespace) -> int:
    w, h = args.size
    spec = make_scene(args.scene, args.seed)
    pose = args.baseline.to_transform()
    pair = render_pair(spec, pose, default_intrinsics(w, h), w, h)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        fileio.write_image(out / "target.ppm", _rgb(pair.target))
        fileio.write_image(out / "source.ppm", _rgb(pair.source))
        fileio.write_depth(out / "gt_depth.pfm", pair.gt_depth)
        fileio.write_pose(out / "gt_pose.txt", pair.gt_pose)
        fileio.write_intrinsics(out / "intrinsics.txt", pair.k)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 3
    print(
        f"synth scene={args.scene} size={w}x{h} seed={args.seed} "
        f"wrote 5 files to {out}"
    )
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    pair_dir = Path(args.pair)
    try:
        target = fileio.read_image(pair_dir / "target.ppm")
        source = fileio.read_image(pair_dir / "source.ppm")
        depth = fileio.read_depth(pair_dir / "gt_depth.pfm")
        gt = fileio.read_pose(pair_dir / "gt_pose.txt")
        k = fileio.read_intrinsics(pair_dir / "intrinsics.txt")
    except (OSError, ValueError) as exc:
        print(f"error: cannot read pair inputs: {exc}", file=sys.stderr)
        return 4

    opts = AlignOptions(
        mode=args.mode,
        max_iters=args.max_iters,
        pyramid_levels=args.levels,
    )
    try:  # log_so3 raises on a ground-truth or perturbed rotation of pi
        gt6 = gt.to_pose()
        init = perturb_pose(gt6, args.perturb_rot, args.perturb_trans, args.seed)
        report = align_pose(target, source, depth, k, init, opts)
        if not np.isfinite(report.final_loss):  # every level was skipped
            raise ValueError("no pyramid level has a valid pixel")
    except ValueError as exc:  # flags are valid, so the pair's content is at fault
        print(f"error: cannot align pair: {exc}", file=sys.stderr)
        return 5

    est = report.pose.to_transform()
    rot_err_deg = float(np.degrees(np.linalg.norm(log_so3(compose(est, inverse(gt)).r))))
    gt_norm = float(np.linalg.norm(gt.t))
    trans_err_rel = float(np.linalg.norm(est.t - gt.t)) / (gt_norm if gt_norm > 0 else 1.0)

    rot = report.pose.rot
    trans = report.pose.trans
    print(f"converged={'true' if report.converged else 'false'} iters={report.iters}")
    print(f"final_loss={report.final_loss:.4f}")
    print(f"pose_rot={rot[0]:.4f} {rot[1]:.4f} {rot[2]:.4f}")
    print(f"pose_trans={trans[0]:.4f} {trans[1]:.4f} {trans[2]:.4f}")
    print(f"rot_err_deg={rot_err_deg:.4f} trans_err_rel={trans_err_rel:.4f}")

    if args.out is not None:
        entries: dict[str, object] = {
            "converged": report.converged,
            "iters": report.iters,
            "final_loss": report.final_loss,
            "rot_x": float(rot[0]),
            "rot_y": float(rot[1]),
            "rot_z": float(rot[2]),
            "trans_x": float(trans[0]),
            "trans_y": float(trans[1]),
            "trans_z": float(trans[2]),
            "rot_err_deg": rot_err_deg,
            "trans_err_rel": trans_err_rel,
        }
        try:
            fileio.write_report(args.out, entries)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 3
    return 0


def _cmd_eval_depth(args: argparse.Namespace) -> int:
    pred_files = sorted(Path(args.pred).glob("*.pfm"))
    gt_files = sorted(Path(args.gt).glob("*.pfm"))
    if not pred_files:
        print(f"error: no *.pfm files under {args.pred}", file=sys.stderr)
        return 5
    if len(pred_files) != len(gt_files):
        print(
            f"error: {len(pred_files)} predictions vs {len(gt_files)} ground-truth files",
            file=sys.stderr,
        )
        return 5
    gt_names = {f.name for f in gt_files}
    unmatched = [f for f in pred_files if f.name not in gt_names]
    if unmatched:  # counts are equal, so this also catches every extra gt name
        print(f"error: no ground-truth file for {unmatched[0]}", file=sys.stderr)
        return 5
    totals = np.zeros(len(_DEPTH_FIELDS))
    try:
        for pf, gf in zip(pred_files, gt_files):
            pred = fileio.read_depth(pf)
            gt = fileio.read_depth(gf)
            if args.median_align:
                pred = median_scale_align(pred, gt)
            m = depth_metrics(pred, gt, args.min_depth, args.max_depth)
            totals += [getattr(m, name) for name in _DEPTH_FIELDS]
    except (OSError, ValueError) as exc:  # DegenerateInputError included
        print(f"error: {exc}", file=sys.stderr)
        return 5
    totals /= len(pred_files)
    print(" ".join(_DEPTH_FIELDS))
    print(" ".join(f"{v:.4f}" for v in totals))
    return 0


def _trajectory(poses_path: str, times_path: str) -> Trajectory:
    """The trajectory of a pose file and a timestamp file; a rejection of
    the pair names both files."""
    poses = fileio.read_trajectory(poses_path)
    times = fileio.read_timestamps(times_path)
    try:
        return Trajectory(times, tuple(poses))
    except ValueError as exc:
        raise ValueError(f"{poses_path} with {times_path}: {exc}") from exc


def _cmd_eval_ate(args: argparse.Namespace) -> int:
    try:
        pred = _trajectory(args.pred, args.times)
        gt = _trajectory(args.gt, args.times if args.gt_times is None else args.gt_times)
        result = ate_snippet(pred, gt, args.snippet_len)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    print(f"ate {result.mean:.4f} +/- {result.std:.4f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "eval-depth" and not args.min_depth < args.max_depth:
            parser.error("--min-depth must be below --max-depth")
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DegenerateInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
