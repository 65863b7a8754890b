"""Fingerprint of the benchmark's outputs: one line per output leaf.

    python3 tools/fingerprint.py > fingerprint.txt

Run from anywhere; the package is imported from the checkout's src/ and the
workloads from its perfbench/workloads.py, which this script only reads.
Every workload runs at seeds 1 and 3, operations 0 and 1, untimed and
unchecked, in a fixed directory under the system temp dir, so the paths the
CLI prints are the same for every checkout. Each leaf of an operation's
output prints as `workload:seed:op.path sha256`, where the path follows
dict keys and field names with `.` and sequence indices with `[i]`. Then
every field of grad_check(c, 42, 100) prints as `gradcheck:c.field sha256`
for each component c, so its errors compare at full precision: the 100
trials of tier-1's gradcheck criterion. Its terms follow, for trials 0 and
1, as `gradcheck:c:i.term.part sha256` with part analytic, fd or include,
so a finite difference that moves shows even where the worst error does
not. Run it on two checkouts, one after the other, and `diff` the outputs
to see which results a change moved.
BLAS runs on one thread, as in the benchmark.

To see how far they moved, save each run's numeric leaves (numbers and
numeric arrays, as float64; bools and strings have no size) and compare:

    python3 tools/fingerprint.py --save before.npz > before.txt
    python3 tools/fingerprint.py --compare before.npz after.npz

--compare prints `path move` for each leaf that moved, in the first run's
order, where move is the largest relative change of any entry, |b - a| /
|a|: inf where a is 0, a shape changed or one side is NaN; a leaf found in
one run only prints `only in` and that run's file. A last line counts the
leaves that moved.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # before numpy loads BLAS
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from workloads import WORKLOADS  # noqa: E402

from egowarp import gradcheck  # noqa: E402
from egowarp.gradcheck import COMPONENTS, grad_check  # noqa: E402

SEEDS = (1, 3)
OPS = (0, 1)
GRADCHECK_SEED, GRADCHECK_TRIALS = 42, 100
TERM_TRIALS = (0, 1)
WORKDIR = Path(tempfile.gettempdir()) / "egowarp-fingerprint"


def _digest(kind: str, data: bytes) -> str:
    return hashlib.sha256(kind.encode() + b"\0" + data).hexdigest()


def walk(name: str, value):
    """Yield (path, leaf) for every leaf of value, depth first.

    Dataclasses and named tuples descend by field, dicts by key, lists and
    tuples by index. A leaf is an array, a string, None, a bool or a number
    (numpy's too); any other type raises TypeError, so no output goes
    unhashed.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from walk(f"{name}.{f.name}", getattr(value, f.name))
    elif isinstance(value, tuple) and hasattr(value, "_fields"):
        for field in value._fields:
            yield from walk(f"{name}.{field}", getattr(value, field))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from walk(f"{name}.{key}", item)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from walk(f"{name}[{i}]", item)
    elif value is None or isinstance(value, (np.ndarray, str, bool, int, float, np.generic)):
        yield name, value
    else:
        raise TypeError(f"{name}: cannot fingerprint a {type(value).__name__}")


def leaves(name: str, value):
    """Yield (path, sha256) for every leaf of value, in walk's order.

    An array hashes its dtype, shape and bytes; a string its UTF-8 bytes;
    None, a bool or a number its type and repr.
    """
    for path, leaf in walk(name, value):
        if isinstance(leaf, np.ndarray):
            arr = np.ascontiguousarray(leaf)
            yield path, _digest(f"{arr.dtype.str}{arr.shape}", arr.tobytes())
        elif isinstance(leaf, str):
            yield path, _digest("str", leaf.encode())
        else:
            item = leaf.item() if isinstance(leaf, np.generic) else leaf
            yield path, _digest(type(item).__name__, repr(item).encode())


def numeric_leaves(name: str, value) -> dict[str, np.ndarray]:
    """{path: float64 array} of value's numeric leaves, in walk's order."""
    out = {}
    for path, leaf in walk(name, value):
        if leaf is None or isinstance(leaf, str):
            continue
        arr = np.asarray(leaf)
        if arr.dtype.kind in "iuf":  # not bool
            out[path] = arr.astype(np.float64)
    return out


def largest_move(a: np.ndarray, b: np.ndarray) -> float:
    """The largest |b - a| / |a| over entries; 0 where they are equal (NaN
    equal to NaN), inf where a is 0, one side is NaN or the shapes differ."""
    if a.shape != b.shape:
        return float("inf")
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(same, 0.0, np.abs(b - a) / np.abs(a))
    return float(np.max(np.where(np.isnan(rel), np.inf, rel), initial=0.0))


def moves(before: dict[str, np.ndarray], after: dict[str, np.ndarray]) -> dict[str, float]:
    """{path: largest_move} for every path in both runs, in before's order."""
    return {path: largest_move(a, after[path]) for path, a in before.items() if path in after}


def terms(component: str, trial: int) -> dict:
    """{term: {"analytic", "fd", "include"}} of one gradcheck trial at
    GRADCHECK_SEED, as grad_check's trial of that index draws it."""
    rng = np.random.default_rng([GRADCHECK_SEED, trial])
    return {name: {"analytic": analytic, "fd": fd, "include": include}
            for name, analytic, fd, include in gradcheck._CHECKERS[component](rng)}


def gradcheck_outputs():
    """Yield (name, output) of every gradcheck component's report, then of
    its terms in each of TERM_TRIALS."""
    for c in COMPONENTS:
        yield f"gradcheck:{c}", grad_check(c, GRADCHECK_SEED, GRADCHECK_TRIALS)
        for i in TERM_TRIALS:
            yield f"gradcheck:{c}:{i}", terms(c, i)


def outputs():
    """Yield (name, output) of every workload operation, then
    gradcheck_outputs()."""
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        for wl in WORKLOADS.values():
            for seed in SEEDS:
                workdir = WORKDIR / f"{wl.name}-{seed}"
                workdir.mkdir(parents=True)
                state = wl.setup(seed, workdir)
                for i in OPS:
                    yield f"{wl.name}:{seed}:{i}", wl.op(state, wl.inputs(state, i))[0]
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    yield from gradcheck_outputs()


def load(file: str) -> dict[str, np.ndarray]:
    """The numeric leaves a --save run wrote to file."""
    with np.load(file) as saved:
        return dict(saved)


def compare(before_file: str, after_file: str) -> None:
    before, after = load(before_file), load(after_file)
    moved = {path: m for path, m in moves(before, after).items() if m > 0}
    for path, m in moved.items():
        print(path, f"{m:.3g}")
    common = before.keys() & after.keys()
    for run, file in ((before, before_file), (after, after_file)):
        for path in run:
            if path not in common:
                print(path, "only in", file)
    print(f"{len(moved)} of {len(common)} numeric leaves moved")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Fingerprint the benchmark's outputs.")
    parser.add_argument("--save", metavar="FILE", help="also save the numeric leaves (.npz)")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="print the leaves that moved between two saved runs")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    saved = {}
    for name, out in outputs():
        for path, sha in leaves(name, out):
            print(path, sha)
        if args.save:
            saved.update(numeric_leaves(name, out))
    if args.save:
        np.savez(args.save, **saved)
    return 0


if __name__ == "__main__":
    sys.exit(main())
