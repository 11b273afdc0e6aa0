"""Check that two source trees produce the same artifacts, byte for byte.

    python tools/parity.py BASE_TREE CHANGE_TREE

Each tree runs the same fixed script (SCRIPT) in its own temporary
directory, with that tree's src/ as PYTHONPATH and one BLAS thread: the
README quick start (synth 5 x 16 clips, train --cache, eval), extract
into a cache of its own, a width sweep with and without --cache, and
gradcheck. Each command's stdout is kept as stdout/<step>.txt beside the
files it wrote. Then every file of the two output trees is compared. A
committed digest would not do: rounding follows the BLAS kernel a CPU
selects, so only two runs on one machine can be compared.

Prints one line per difference: the first differing byte of a file that
both trees have, numbered from 1 as cmp numbers it, and each file only
one of them has. Exit status: 0 when
the trees match, 1 when they differ, 2 when a command of the script
fails (its stderr is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

MANIFEST = "corpus/manifest.tsv"
SWEEP = ["sweep", "--manifest", MANIFEST, "--widths", "1,3,25", "--epochs", "20", "--seed", "11"]

# (step name, onemax arguments); the first three are the README quick start
SCRIPT = [
    ("synth", ["synth", "--out", "corpus", "--classes", "5", "--per-class", "16", "--seed", "11"]),
    ("train", ["train", "--manifest", MANIFEST, "--regime", "multi",
               "--widths", "1,3,5,7,9", "--filters", "16", "--batch-size", "10",
               "--epochs", "100", "--seed", "11", "--out", "multi.1max", "--cache", "sifs"]),
    ("eval", ["eval", "--ckpt", "multi.1max", "--manifest", MANIFEST,
              "--cache", "sifs", "--seed", "11"]),
    ("extract", ["extract", "--manifest", MANIFEST, "--cache", "extract_sifs", "--seed", "11"]),
    ("sweep_cached", SWEEP + ["--cache", "sweep_sifs"]),
    ("sweep", SWEEP),
    ("gradcheck", ["gradcheck", "--seed", "3"]),
]

# every BLAS a numpy build may link, held to one thread
ONE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
)}


class ScriptError(Exception):
    """A command of the script exited nonzero in one tree."""


def run_script(tree: Path, out: Path) -> None:
    """Run SCRIPT against tree's sources, writing everything under out."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree.resolve() / "src")}
    (out / "stdout").mkdir(parents=True)
    for step, args in SCRIPT:
        done = subprocess.run(
            [sys.executable, "-m", "onemax.cli", *args],
            cwd=out, env=env, capture_output=True, text=True,
        )
        if done.returncode != 0:
            raise ScriptError(
                f"{tree}: onemax {' '.join(args)} exited {done.returncode}\n{done.stderr}"
            )
        (out / "stdout" / f"{step}.txt").write_text(done.stdout)


def _files(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def first_difference(a: bytes, b: bytes) -> int | None:
    """Number, from 1, of the first byte where a and b differ; None when equal.

    When one is a prefix of the other, that is the byte just past the
    shorter one.
    """
    if a == b:
        return None
    n = min(len(a), len(b))
    return next((i for i in range(n) if a[i] != b[i]), n) + 1


def compare(base: Path, change: Path) -> list[str]:
    """One line per difference between two output trees; empty when identical.

    A file found on one side only is listed as such; when the other side
    has a file of its own with the same bytes, the line names it, so a
    renamed file reads as moved rather than as lost.
    """
    a, b = _files(base), _files(change)
    lines = []
    for name in sorted(a.keys() & b.keys()):
        offset = first_difference(a[name], b[name])
        if offset is not None:
            lines.append(
                f"differs: {name} at byte {offset} "
                f"({len(a[name])} bytes in base, {len(b[name])} in change)"
            )
    only_b = defaultdict(list)
    for name in sorted(b.keys() - a.keys()):
        only_b[hashlib.sha256(b[name]).digest()].append(name)
    for name in sorted(a.keys() - b.keys()):
        twins = only_b.get(hashlib.sha256(a[name]).digest())
        if twins:
            lines.append(f"moved: {name} -> {twins.pop(0)} (same bytes)")
        else:
            lines.append(f"only in base: {name}")
    lines += [f"only in change: {n}" for names in only_b.values() for n in names]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="source tree of the base commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    args = parser.parse_args(argv)
    for tree in (args.base, args.change):
        if not (tree / "src" / "onemax").is_dir():
            parser.error(f"{tree} has no src/onemax")

    work = Path(tempfile.mkdtemp(prefix="parity-"))
    outs = (work / "base", work / "change")
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:  # one process per tree
            runs = [pool.submit(run_script, tree, out)
                    for tree, out in zip((args.base, args.change), outs)]
            for run in runs:
                run.result()
        lines = compare(*outs)
    except ScriptError as exc:
        print(f"parity: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    print(f"parity: {len(lines)} difference(s)" if lines else "parity: identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
