"""Decision benchmark for seqcm: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for the generators and oracles):
  hypersurface-pq  principal bihomogeneous f, decided for P and Q
  monomial-mixed   monomial ideals in 3+3 and 4+4 variables, P and Q
  cli-verify       ``seqcm.cli.main --verify --format json`` per document

Load model: one single-threaded worker process at a time, a closed loop
with one client (the next decision starts when the previous one returns).
Every pass starts a fresh interpreter, because the engine's Groebner-basis
memo is process-wide and never evicted.  The engine seed is the CLI
default, 0; ``--seed`` only shapes the generated inputs.

``--trace 0`` makes passes over the same first PASS_COUNT input classes,
each pass in a fresh worker and with its own relabelling of the classes,
until the passes have spent ``--seconds`` of decision time (at least
MIN_PASSES).  The latencies of all passes are pooled, so that a slow stretch
of a shared host or one unlucky relabelling weighs as one pass among
several.  It prints the end-to-end metrics:
  decisions_per_s  completed decisions / summed decision time
  decision_p50_ms, decision_p90_ms  Harrell-Davis quantiles of the pooled
                   latencies (a weighted mean of the order statistics near
                   the quantile, steadier on a heavy tail than one of them)
  peak_rss_mb      the worker's own ru_maxrss after its PASS_COUNT
                   decisions, median over passes
  setup_s          spawn until seqcm is imported and the first inputs are
                   parsed, median over the passes' cold starts and extra
                   probes, at least SETUP_SAMPLES in all
A text line gives failed_frac (failed / attempted), which the final JSON
line carries as ``failed`` and ``attempted``.

``--trace 1`` makes three fresh passes over the same first TRACE_COUNT
inputs: untraced, then traced under PYTHONHASHSEED 0 and 1.  It prints the
per-layer spans and counts of the first traced pass and checks that tracing
changes no result, that every count repeats exactly, and that each wrapped
function the workload is built to reach was called.

A decision fails if it raises, if an oracle disagrees, or if ``--verify``
reports a problem or the CLI exits nonzero.  The last stdout line is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import ROUTES, span_names
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SETUP_SAMPLES = 7  # cold starts per run, the passes' own included
MIN_PASSES = 3  # timed passes per run, whatever --seconds allows
RUN_LIMIT_S = 170.0  # every worker is stopped by then

# Inputs per timed pass: whole input cycles, six to eight seconds of
# decisions at the seed commit, and at least ten of them beyond p90.
PASS_COUNT = {"hypersurface-pq": 512, "monomial-mixed": 100, "cli-verify": 189}

# Inputs per traced pass.  Traced runs decide fixed inputs rather than run for
# --seconds, so that every count repeats exactly; each pass is about a quarter
# of a 30-second run at the seed commit.
TRACE_COUNT = {"hypersurface-pq": 800, "monomial-mixed": 120, "cli-verify": 300}

# Wrapped functions each workload is built to reach (traced self-check).
EXPECTED_CALLS = {
    "hypersurface-pq": (
        "groebner.buchberger", "groebner.groebner_basis", "groebner.normal_form",
        "groebner.intersect", "groebner.ideal_quotient", "groebner.colon_by_variable",
        "groebner.krull_dim", "relcm.grade_wrt", "relcm.is_regular_form",
        "relcm.h0_is_zero", "relcm.cd_wrt", "relcm.cd_subquotient",
        "relcm.is_relative_cm", "filtration.is_seq_cm",
        "hypersurface.classify_hypersurface", "hypersurface.rank_one_split",
        "hypersurface.exact_rank",
    ),
    "monomial-mixed": (
        "groebner.buchberger", "groebner.groebner_basis", "groebner.normal_form",
        "groebner.intersect", "groebner.ideal_quotient", "groebner.colon_by_variable",
        "groebner.krull_dim", "relcm.grade_wrt",
        "relcm.is_regular_form", "relcm.h0_is_zero", "relcm.cd_wrt",
        "relcm.cd_subquotient", "relcm.is_relative_cm", "filtration.is_seq_cm",
        "filtration.monomial_primary_decomposition", "filtration.dimension_filtration",
    ),
    "cli-verify": (
        "groebner.buchberger", "groebner.groebner_basis", "groebner.saturation",
        "groebner.krull_dim", "relcm.grade_wrt", "relcm.is_relative_cm",
        "filtration.is_seq_cm", "filtration.monomial_primary_decomposition",
        "hypersurface.classify_hypersurface", "hypersurface.hypersurface_stats",
        "cli.parse_problem", "cli.run", "cli.render_document", "cli.verify_certificate",
    ),
}


class BenchError(Exception):
    """The harness itself could not produce a measurement."""


class Worker:
    """A worker process; ``ready_s`` is the spawn-to-ready time."""

    def __init__(self, deadline: float, *args: str, env: dict | None = None):
        self._deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=REPO,
            env=env or worker_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        readable, _, _ = select.select([self.proc.stdout], [], [], self._remaining())
        line = self.proc.stdout.readline() if readable else ""
        self.ready_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.stop()
            raise BenchError(f"worker did not become ready (got {line!r})")

    def _remaining(self) -> float:
        return max(1.0, self._deadline - time.monotonic())

    def wait(self) -> str:
        """Stdout after ``ready``, once the worker has exited cleanly."""
        try:
            out, _ = self.proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker exceeded the run time limit")
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return out

    def record(self) -> dict:
        lines = self.wait().strip().splitlines()
        if not lines:
            raise BenchError("worker printed no record")
        return json.loads(lines[-1])

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def worker_env(hash_seed: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return env


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---- untraced run --------------------------------------------------------------


def harrell_davis(values: list, q: float) -> float:
    """Harrell-Davis estimate of quantile ``q``: order statistics weighted by
    the Beta(q(n+1), (1-q)(n+1)) mass over their rank interval."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 16  # midpoint rule per rank interval
    weights = []
    for i in range(n):
        ts = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(
            math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta) for t in ts
        ))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    common = ("--workload", workload, "--seed", str(seed))
    count = PASS_COUNT[workload]
    setup, passes = [], []
    busy_ns = 0
    while len(passes) < MIN_PASSES or busy_ns < seconds * 1e9:
        worker = Worker(deadline, *common, "--mode", "fixed", "--count", str(count),
                        "--relabelling", str(len(passes)))
        setup.append(worker.ready_s)
        passes.append(worker.record())
        busy_ns += sum(passes[-1]["latencies_ns"])
    while len(setup) < SETUP_SAMPLES:
        probe = Worker(deadline, *common, "--mode", "probe")
        setup.append(probe.ready_s)
        probe.wait()

    latencies = [ns / 1e6 for p in passes for ns in p["latencies_ns"]]
    attempted = len(latencies)
    failed = sum(p["failed"] for p in passes)
    p90 = harrell_davis(latencies, 0.9)
    metrics = {
        "decisions_per_s": metric((attempted - failed) / (busy_ns / 1e9), "1/s"),
        "decision_p50_ms": metric(harrell_davis(latencies, 0.5), "ms"),
        "decision_p90_ms": metric(p90, "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(statistics.median(p["rss_kb"] for p in passes) / 1024, "MB"),
    }
    beyond = sum(1 for v in latencies if v > p90)
    print(f"samples: {attempted} decisions in {len(passes)} passes over {count} input classes, "
          f"{busy_ns / 1e9:.2f} s of decision time, {beyond} beyond p90; "
          f"setup_s over {len(setup)} cold starts")
    print(f"failed_frac: {failed / attempted:.6f} (failed {failed} of {attempted})")
    for p in passes:
        for problem in p["failures"][:20]:
            print(f"FAILED: {problem}", file=sys.stderr)
    return attempted, failed, failed == 0, metrics


# ---- traced run ----------------------------------------------------------------


def traced(workload: str, seed: int, deadline: float) -> tuple:
    args = ("--workload", workload, "--seed", str(seed), "--mode", "fixed",
            "--count", str(TRACE_COUNT[workload]))
    plain = Worker(deadline, *args).record()
    first = Worker(deadline, *args, "--trace", env=worker_env("0")).record()
    second = Worker(deadline, *args, "--trace", env=worker_env("1")).record()
    passes = (plain, first, second)

    bindings = sum(first["rebound"].values())
    checks = [(f"no unwrapped binding left ({bindings} bindings rebound)",
               min(first["rebound"].values()) > 0)]
    results = [p["results"] for p in passes]
    checks.append(("tracing changes no result", results[0] == results[1] == results[2]))
    t1, t2 = first["trace"], second["trace"]
    repeat = t1["calls"] == t2["calls"] and t1["counts"] == t2["counts"]
    checks.append(("counts repeat across runs and PYTHONHASHSEED 0/1", repeat))
    missing = [name for name in EXPECTED_CALLS[workload] if t1["calls"][name] == 0]
    checks.append((f"expected spans reached (missing: {missing or 'none'})", not missing))
    for label, ok in checks:
        print(f"self-check {'PASS' if ok else 'FAIL'}: {label}")

    calls, self_ns, counts = t1["calls"], t1["self_ns"], t1["counts"]
    metrics = {}
    for name in span_names():
        metrics[f"{name}.calls"] = metric(calls[name], "count")
        if name != "relcm.find_regular_linear_form":
            metrics[f"{name}.self_s"] = metric(self_ns[name] / 1e9, "s")
    metrics["groebner.buchberger.general.calls"] = metric(
        counts["groebner.buchberger.general.calls"], "count")
    metrics["groebner.buchberger.general.self_s"] = metric(
        self_ns["groebner.buchberger.general"] / 1e9, "s")
    requests = calls["groebner.groebner_basis"]
    metrics["groebner.gb_reuse_ratio"] = metric(
        1 - counts["groebner.buchberger.under_groebner_basis"] / requests if requests else 0.0,
        "ratio")
    tried = calls["relcm.is_regular_form"]
    metrics["relcm.is_regular_form.accept_ratio"] = metric(
        counts["relcm.is_regular_form.accepted"] / tried if tried else 0.0, "ratio")
    tests = calls["relcm.h0_is_zero"]
    metrics["relcm.h0_is_zero.zero_ratio"] = metric(
        counts["relcm.h0_is_zero.zero"] / tests if tests else 0.0, "ratio")
    for route in ROUTES:
        key = f"filtration.route.{route}.count"
        metrics[key] = metric(counts[key], "count")
    plain_s = sum(plain["latencies_ns"])
    traced_s = sum(first["latencies_ns"])
    metrics["trace.overhead_frac"] = metric(traced_s / plain_s - 1, "ratio")
    print(f"groebner.gb_reuse_ratio base: {requests} groebner_basis calls; "
          f"trace.overhead_frac base: {TRACE_COUNT[workload]} decisions per pass")

    attempted = sum(len(p["latencies_ns"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for problem in p["failures"][:20]:
            print(f"FAILED: {problem}", file=sys.stderr)
    correct = failed == 0 and all(ok for _, ok in checks)
    return attempted, failed, correct, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (REPO / "src" / "seqcm" / "__init__.py").is_file():
        print(f"error: no seqcm sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            attempted, failed, correct, metrics = traced(args.workload, args.seed, deadline)
        else:
            attempted, failed, correct, metrics = end_to_end(
                args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, entry in metrics.items():
        print(f"{name}: {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
