"""One benchmark worker: a single-threaded closed loop with one client.

Started by ``run.py`` in a fresh interpreter, because the engine's reduced
Groebner-basis memo is process-wide: repeating inputs in one process would
time memo lookups instead of the engine.  Protocol on stdout: the line
``ready`` once seqcm is imported and the first cycle of inputs is parsed,
then (unless ``--mode probe``) one JSON line with the run's records.

Modes:
  probe  set up and exit (cold-start samples for setup_s)
  fixed  decide exactly the first ``--count`` inputs, then read peak RSS
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads

WORK_DIR = Path(".bench_work")


class LibraryLoop:
    """hypersurface-pq and monomial-mixed: ``is_seq_cm`` on parsed ideals."""

    def __init__(self, workload: str, seed: int, relabelling: int):
        # Imported only now, after a tracer has rebound the public functions,
        # so that the loop calls the wrapped is_seq_cm.
        from seqcm import BigradedRing, Ideal, VariableBlock, is_seq_cm
        from seqcm.errors import SeqcmError

        self._ring = BigradedRing
        self._ideal = Ideal
        self._blocks = {"P": VariableBlock.P, "Q": VariableBlock.Q}
        self._decide = is_seq_cm
        self._error = SeqcmError
        self._cycles = workloads.cycles(workload, seed, relabelling)

    def next_cycle(self) -> list:
        jobs = []
        parsed = {}
        for case in next(self._cycles):
            key = (case["m"], case["n"], tuple(case["gens"]))
            if key not in parsed:  # P and Q of one f share the parsed ideal
                ring = self._ring(case["m"], case["n"])
                parsed[key] = self._ideal(ring, [ring.parse(g) for g in case["gens"]])
            jobs.append((case, parsed[key]))
        return jobs

    def decide(self, job):
        case, ideal = job
        where = f"{', '.join(case['gens'])} wrt {case['block']}"
        try:
            verdict = self._decide(ideal, self._blocks[case["block"]], 0)
        except self._error as exc:
            problem = f"{where}: raised {type(exc).__name__}: {exc}"
            return lambda: (None, [problem])

        def check():
            levels = [
                (lv.cd, lv.grade, lv.relative_cm) for lv in verdict.filtration.levels
            ]
            result = [
                verdict.decision,
                verdict.route.value,
                levels,
                [[str(p) for p in lv.regular_sequence] for lv in verdict.filtration.levels],
            ]
            problems = workloads.verdict_problems(case, verdict.decision, levels)
            return result, [f"{where}: {p}" for p in problems]

        return check


class CliLoop:
    """cli-verify: ``seqcm.cli.main`` with ``--verify --format json`` per document."""

    def __init__(self, workload: str, seed: int, relabelling: int):
        from seqcm import cli
        from seqcm.errors import SeqcmError

        self._cli = cli
        self._error = SeqcmError
        self._cycles = workloads.cycles(workload, seed, relabelling)
        self._files = 0
        self._dir = WORK_DIR / workload
        shutil.rmtree(self._dir, ignore_errors=True)
        self._dir.mkdir(parents=True)
        # The checked-in corpus opens every run, read in place.
        self._corpus = [
            (command, path, wrt, None, expect)
            for command, path, wrt, expect in workloads.corpus_jobs()
        ]

    def next_cycle(self) -> list:
        jobs, self._corpus = self._corpus, []
        for case in next(self._cycles):
            self._files += 1
            path = self._dir / f"p{self._files:05d}.ring"
            path.write_text(workloads.problem_text(case))
            for command in case["commands"]:
                jobs.append((command, str(path), None, case, None))
        return jobs

    def decide(self, job):
        command, path, wrt, case, expect = job
        argv = [command, path, "--verify", "--format", "json"]
        if wrt is not None:
            argv += ["--wrt", wrt]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self._cli.main(argv)
        except self._error as exc:
            problem = f"{path} {command}: raised {type(exc).__name__}: {exc}"
            return lambda: (None, [problem])
        except SystemExit as exc:
            problem = f"{path} {command}: exit {exc.code}"
            return lambda: (None, [problem])
        text = out.getvalue()

        def check():
            if code != 0:
                return None, [f"{path} {command}: exit code {code}: {err.getvalue()}"]
            return [hashlib.sha256(text.encode()).hexdigest()], _doc_problems(
                text, command, case, expect
            )

        return check

    def close(self):
        shutil.rmtree(self._dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other workload's files are left


def _doc_problems(text: str, command: str, case, expect) -> list:
    doc, end = json.JSONDecoder().raw_decode(text)
    problems = []
    if command in ("seqcm", "hypersurface"):
        if "verified:" not in text[end:]:
            problems.append("no 'verified:' line after the document")
        verdict = doc["verdict"]
        levels = [
            (lv["cd"], lv["grade"], lv["relative_cm"])
            for lv in verdict["filtration"]["levels"]
        ]
        if case is not None:
            problems += workloads.verdict_problems(case, verdict["decision"], levels)
            if "cd" in case and doc["invariants"].get("cd", case["cd"]) != case["cd"]:
                problems.append(f"cd {doc['invariants']['cd']} but vertex-cover cd {case['cd']}")
            if command == "hypersurface":
                got = (doc["invariants"]["a"], doc["invariants"]["b"])
                if got != tuple(case["bidegree"]):
                    problems.append(f"bidegree {got} but generated {case['bidegree']}")
        else:
            problems += workloads.level_problems(levels)
    if expect is not None:
        problems += _manifest_problems(doc, expect)
    return [f"{doc['file']} {command}: {p}" for p in problems]


def _manifest_problems(doc: dict, expect: dict) -> list:
    problems = []
    verdict = doc.get("verdict")
    if "decision" in expect and verdict["decision"] != expect["decision"]:
        problems.append(f"decision {verdict['decision']}, manifest {expect['decision']}")
    if "route" in expect and verdict["route"] != expect["route"]:
        problems.append(f"route {verdict['route']}, manifest {expect['route']}")
    if "level_cds" in expect:
        cds = [lv["cd"] for lv in verdict["filtration"]["levels"]]
        if cds != expect["level_cds"]:
            problems.append(f"level cds {cds}, manifest {expect['level_cds']}")
    for key, want in expect.get("invariants", {}).items():
        if doc["invariants"].get(key) != want:
            problems.append(f"{key} {doc['invariants'].get(key)}, manifest {want}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "fixed"), required=True)
    parser.add_argument("--count", type=int, default=0)
    parser.add_argument("--relabelling", type=int, default=0,
                        help="which relabelling of the seed's input classes to decide")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import seqcm

    if Path(seqcm.__file__).resolve().parent != workloads.REPO / "src" / "seqcm":
        raise SystemExit(f"seqcm imported from {seqcm.__file__}, not from this checkout")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        rebound = tracer.install()
    loop_cls = CliLoop if args.workload == "cli-verify" else LibraryLoop
    loop = loop_cls(args.workload, args.seed, args.relabelling)
    try:
        pending = loop.next_cycle()
        print("ready", flush=True)
        if args.mode == "probe":
            return 0

        latencies, failures, results = [], [], []
        failed = 0
        clock = time.perf_counter_ns
        while len(latencies) < args.count:
            if not pending:
                pending = loop.next_cycle()
            job = pending.pop(0)
            start = clock()
            check = loop.decide(job)
            latencies.append(clock() - start)
            result, problems = check()
            results.append(result)
            if problems:
                failed += 1
                failures += problems
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record = {
            "latencies_ns": latencies,
            "failures": failures[:50],
            "failed": failed,
            "results": results,
            "rss_kb": rss_kb,
            "trace": tracer.snapshot() if tracer else None,
            "rebound": rebound if tracer else None,
        }
        print(json.dumps(record), flush=True)
        return 0
    finally:
        if isinstance(loop, CliLoop):
            loop.close()


if __name__ == "__main__":
    sys.exit(main())
