"""Write every corpus CLI run to a directory, for byte-identity checks.

Runs ``seqcm <command> <file> --wrt <block> --seed <seed> --verify --format
json`` for each ``tests/corpus/*.ring`` file, each command in COMMANDS, each
block in BLOCKS and each seed in SEEDS (324 runs), one fresh interpreter per
run with the checkout's ``src`` as its PYTHONPATH.  Each run leaves three
files in the output directory: ``<stem>.out`` (stdout: the document and the
verify line), ``<stem>.err`` (stderr) and ``<stem>.code`` (the exit code).
File paths are passed relative to the checkout root, so two checkouts give
comparable output:

    python tests/corpus_sweep.py /tmp/sweep-before      # in the old checkout
    python tests/corpus_sweep.py /tmp/sweep-after       # in the new checkout
    diff -r /tmp/sweep-before /tmp/sweep-after

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = ("seqcm", "relcm", "grade", "depth", "cd", "hypersurface")
BLOCKS = ("P", "Q", "m")
SEEDS = (0, 1, 3)

ROOT = Path(__file__).resolve().parent.parent


def runs():
    """(stem, argv) for every run of the sweep, in a fixed order."""
    for ring in sorted((ROOT / "tests" / "corpus").glob("*.ring")):
        rel = ring.relative_to(ROOT).as_posix()
        for command in COMMANDS:
            for block in BLOCKS:
                for seed in SEEDS:
                    stem = f"{ring.stem}.{command}.{block}.seed{seed}"
                    argv = [
                        command, rel, "--wrt", block, "--seed", str(seed),
                        "--verify", "--format", "json",
                    ]
                    yield stem, argv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="directory for the run outputs")
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    count = 0
    for stem, cli_args in runs():
        done = subprocess.run(
            [sys.executable, "-m", "seqcm.cli", *cli_args],
            cwd=ROOT, env=env, capture_output=True, check=False,
        )
        (args.outdir / f"{stem}.out").write_bytes(done.stdout)
        (args.outdir / f"{stem}.err").write_bytes(done.stderr)
        (args.outdir / f"{stem}.code").write_text(f"{done.returncode}\n")
        count += 1
    print(f"{count} runs written to {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
