"""Run every CLI command over the corpus and the fixtures, and check the runs.

Runs ``seqcm <command> <file> --wrt <block> --seed <seed> --verify --format
json`` for each ``tests/corpus/*.ring`` and ``tests/fixtures/*.ring`` file,
each command in COMMANDS (those of ``seqcm.cli``), each block in BLOCKS and
each seed in SEEDS, and once more at seed 0 without ``--format``, so in the
text format (1,056 runs for 6 corpus files and 2 fixtures), each in a fresh
interpreter with the checkout's ``src`` as its PYTHONPATH.  Each run leaves
three files in the output directory: ``<stem>.out`` (stdout: the document and
the verify line), ``<stem>.err`` (stderr) and ``<stem>.code`` (the exit code),
where the stem is ``<file>.<command>.<block>.seed<seed>`` or
``<file>.<command>.<block>.text``.  File paths are passed relative to the
checkout root, so two checkouts give comparable output:

    python tests/corpus_sweep.py /tmp/sweep-before      # in the old checkout
    python tests/corpus_sweep.py /tmp/sweep-after       # in the new checkout
    diff -r /tmp/sweep-before /tmp/sweep-after

Once every run is written, the sweep exits 1 and names each run whose stderr
holds a traceback, whose exit code is neither 0 (finished) nor 2 (ideal
class unsupported), or which MUST_DECIDE lists and which did not exit 0; the
run's stderr follows its name.

pytest does not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = (
    "gb", "dim", "cd", "grade", "depth", "relcm", "primdec", "filtration",
    "seqcm", "hypersurface", "tensorcheck",
)
BLOCKS = ("P", "Q", "m")
SEEDS = (0, 1, 3)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = tuple(sorted((ROOT / "tests" / "corpus").glob("*.ring")))
FIXTURES = tuple(sorted((ROOT / "tests" / "fixtures").glob("*.ring")))


def _every(stems, commands, blocks=BLOCKS) -> set:
    return {(s, c, b) for s in stems for c in commands for b in blocks}


MONOMIAL = ("ordinary_two_lines", "split_monomial", "torsion_then_line", "two_planes")
PRINCIPAL = ("quadric_rank2", "split_binomial", "split_monomial", "torsion_then_line")
# (corpus file stem, command, block) of the runs that must exit 0.
MUST_DECIDE = frozenset(
    _every([ring.stem for ring in CORPUS], ("gb", "dim", "cd", "seqcm", "relcm", "grade", "depth"))
    | _every(MONOMIAL, ("primdec", "filtration"))
    | _every(("ordinary_two_lines",), ("tensorcheck",))
    | _every(PRINCIPAL, ("hypersurface",), ("P", "Q"))
)


def runs():
    """(stem, argv, must decide) for every run of the sweep, in a fixed order."""
    for ring in CORPUS + FIXTURES:
        rel = ring.relative_to(ROOT).as_posix()
        for command in COMMANDS:
            for block in BLOCKS:
                decide = (ring.stem, command, block) in MUST_DECIDE
                argv = [command, rel, "--wrt", block, "--seed"]
                for seed in SEEDS:
                    yield (
                        f"{ring.stem}.{command}.{block}.seed{seed}",
                        [*argv, str(seed), "--verify", "--format", "json"],
                        decide,
                    )
                yield f"{ring.stem}.{command}.{block}.text", [*argv, "0", "--verify"], decide


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="directory for the run outputs")
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    count, failures = 0, []
    for stem, cli_args, decide in runs():
        done = subprocess.run(
            [sys.executable, "-m", "seqcm.cli", *cli_args],
            cwd=ROOT, env=env, capture_output=True, check=False,
        )
        (args.outdir / f"{stem}.out").write_bytes(done.stdout)
        (args.outdir / f"{stem}.err").write_bytes(done.stderr)
        (args.outdir / f"{stem}.code").write_text(f"{done.returncode}\n")
        count += 1
        problems = ["traceback"] if b"Traceback" in done.stderr else []
        if done.returncode not in (0, 2):
            problems.append(f"exit {done.returncode}, not 0 or 2")
        elif decide and done.returncode != 0:
            problems.append(f"exit {done.returncode}, must decide")
        if problems:
            failures.append((f"{stem}: {'; '.join(problems)}", done.stderr))
    print(f"{count} runs written to {args.outdir}")
    for failure, stderr in failures:
        print(failure, file=sys.stderr)
        sys.stderr.write(stderr.decode("utf-8", "replace"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
