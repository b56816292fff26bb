"""Benchmark of excolex on three workloads, end to end or layer by layer.

    python3 bench/run.py --workload {campaigns,oracle,enumerate}
                         [--seed N] [--seconds S] [--trace 0|1]

Repeats the workload until ``--seconds`` have passed and reports medians over
the repetitions. ``--trace 0`` runs it untraced and reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and traced
repetitions (see spans.py) and reports the per-layer metrics. Every result is
checked against the counts and digests in expected.json. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it describes the run.

Exit codes: 0 when every check passed, 1 when one failed, 2 when the checkout
has no excolex sources under src/ or the metrics do not match BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 20240501
PROBES_PER_REP = 2  # setup and CLI cold-start subprocesses after each repetition
PROBE_TIMEOUT_S = 60


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import excolex from this checkout's src/, never from an installed copy."""
    if not (SRC / "excolex" / "__init__.py").is_file():
        fail(f"no excolex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import excolex

    if Path(excolex.__file__).resolve().parent.parent != SRC:
        fail(f"imported excolex from {excolex.__file__}, not from {SRC}")
    return excolex


def git_revision() -> str | None:
    """HEAD of this checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Checks:
    """Counts checked operations and the problems found."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.problems.append(problem)


def run_rep(ops, checks: Checks, tracer=None) -> dict:
    """Run every op once, timed; then check every result."""
    phase_s: Counter = Counter()
    op_s: dict[str, float] = {}
    phase_layers: dict[str, Counter] = {}
    results = {}
    with tracer.installed() if tracer else nullcontext():
        for op in ops:
            before = Counter(tracer.self_s) if tracer else None
            t0 = perf_counter()
            try:
                results[op.name] = op.run()
            except Exception:
                checks.record(f"{op.name} raised:\n{traceback.format_exc()}")
            op_s[op.name] = perf_counter() - t0
            phase_s[op.phase] += op_s[op.name]
            if tracer:
                phase_layers.setdefault(op.phase, Counter()).update(
                    Counter(tracer.self_s) - before
                )
    for op in ops:
        if op.name in results:
            checks.record(op.check(results[op.name], results))
    return {
        "phase_s": phase_s,
        "op_s": op_s,
        "wall_s": sum(phase_s.values()),
        "results": results,
        "tracer": tracer,
        "phase_layers": phase_layers,
    }


def run_python(args: list[str], stdin: str | None = None) -> subprocess.CompletedProcess:
    """A fresh interpreter in the checkout, with its src/ first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], input=stdin, cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )


def probe_setup(workload: str, seed: int, checks: Checks) -> dict | None:
    done = run_python([str(BENCH / "setup_probe.py"), workload, str(seed)])
    if done.returncode != 0:
        checks.record(f"setup probe exited {done.returncode}: {done.stderr[-2000:]}")
        return None
    checks.record(None)
    return json.loads(done.stdout.splitlines()[-1])


def probe_cli(workloads, workload: str, checks: Checks) -> float | None:
    """Seconds for one fresh ``python -m excolex.cli`` run, with its output checked."""
    args, stdin = workloads.CLI_ARGS[workload]
    t0 = perf_counter()
    done = run_python(["-m", "excolex.cli", *args], stdin)
    seconds = perf_counter() - t0
    if done.returncode != 0:
        checks.record(f"cli exited {done.returncode}: {done.stderr[-2000:]}")
        return None
    ok = workloads.sha256_text(done.stdout) == workloads.EXPECTED["cli"][workload]
    checks.record(None if ok else f"cli output of {' '.join(args)} differs from the recorded one")
    return seconds if ok else None


def median(values) -> float | None:
    """The median, or None when every sample failed its check."""
    return statistics.median(values) if values else None


def end_to_end(workloads, workload, items, reps, setups, clis) -> dict:
    metrics = {
        "setup_s": median([s["setup_s"] for s in setups]),
        "wall_s": median([r["wall_s"] for r in reps]),
        "items_per_s": median([items / r["wall_s"] for r in reps]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cli_cold_s": median(clis),
    }
    for k, phase in enumerate(workloads.PHASES[workload], start=1):
        metrics[f"phase{k}_s"] = median([r["phase_s"][phase] for r in reps])
    return metrics


def per_layer(workloads, traced, plain, setups, refused) -> dict:
    def med(f):
        # a value of one traced repetition, so that counts stay whole numbers
        return statistics.median_low([f(r["tracer"], r["results"]) for r in traced])

    def calls(key):
        return med(lambda t, _r: t.calls[key])

    def self_s(key):
        return med(lambda t, _r: t.self_s[key])

    metrics = {
        "ideals.build.calls": calls("ideals.build"),
        "ideals.build.self_s": self_s("ideals.build"),
        "ideals.query.calls": calls("ideals.query"),
        "ideals.query.self_s": self_s("ideals.query"),
        "monomials.calls": calls("monomials"),
        "monomials.self_s": self_s("monomials"),
        "enumeration.yielded": med(lambda t, _r: t.yielded["enumeration"]),
        "enumeration.self_s": self_s("enumeration"),
        "colex.builds": med(lambda t, _r: t.calls["colex_ideal"] - t.raised["colex_ideal"]),
        "colex.greedy_attempts": calls("greedy_generators"),
        "colex.self_s": self_s("colex"),
        "colex.revlex_checks": calls("colex.revlex"),
        "colex.revlex_self_s": self_s("colex.revlex"),
        "betti.calls": calls("betti"),
        "betti.self_s": self_s("betti"),
        "cartan.oracle_calls": calls("cartan_betti"),
        "cartan.self_s": self_s("cartan"),
        "cartan.rank_calls": med(
            lambda t, _r: t.calls["cartan.rank_exact"] + t.calls["cartan.rank_modp"]
        ),
        "cartan.rank_exact_self_s": self_s("cartan.rank_exact"),
        "cartan.rank_modp_self_s": self_s("cartan.rank_modp"),
        "cartan.rank_max_rows": med(lambda t, _r: t.rank["max_rows"]),
        "cartan.rank_max_cols": med(lambda t, _r: t.rank["max_cols"]),
        "cartan.rank_cells": med(lambda t, _r: t.rank["cells"]),
        "cartan.chain_calls": calls("cartan.chain"),
        "cartan.chain_self_s": self_s("cartan.chain"),
        "cartan.guard_refused": refused,
        "verify.self_s": self_s("verify"),
        "cli.import_s": median([s["import_s"] for s in setups]),
        "trace.overhead_s": median([r["wall_s"] for r in traced])
        - median([r["wall_s"] for r in plain]),
    }
    for key in workloads.EXPECTED["reports"]:
        metrics[f"verify.{key}.instances"] = med(
            lambda _t, r, key=key: r[key].instances if key in r else 0
        )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("campaigns", "oracle", "enumerate"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"no benchmark definition at {spec_path}")
    spec = json.loads(spec_path.read_text())
    excolex = import_package()
    deadline = perf_counter() + args.seconds
    import spans
    import workloads

    checks = Checks()
    ops = workloads.build(args.workload, args.seed)
    refused = 0
    if args.trace and args.workload == "oracle":
        refused, problems = workloads.guard_refusals(args.seed)
        for problem in problems:
            checks.record(problem)

    plain, traced, setups, clis = [], [], [], []
    while True:
        t_loop = perf_counter()
        plain.append(run_rep(ops, checks))
        if args.trace:
            traced.append(run_rep(ops, checks, spans.Tracer()))
        for _ in range(PROBES_PER_REP):
            setup = probe_setup(args.workload, args.seed, checks)
            if setup:
                setups.append(setup)
            if not args.trace:
                cli = probe_cli(workloads, args.workload, checks)
                if cli is not None:
                    clis.append(cli)
        if 2 * perf_counter() - t_loop > deadline:
            break

    if args.trace:
        metrics = per_layer(workloads, traced, plain, setups, refused)
        listed = spec["per_layer"]
    else:
        items = sum(op.items for op in ops)
        metrics = end_to_end(workloads, args.workload, items, plain, setups, clis)
        listed = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in listed}:
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(plain),
        "phases": {f"phase{k}_s": p for k, p in enumerate(workloads.PHASES[args.workload], 1)},
        "excolex_file": excolex.__file__,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "problems": checks.problems[:20],
        "op_s": {op.name: [round(r["op_s"][op.name], 5) for r in plain] for op in ops},
    }
    if args.trace:
        info["layer_self_s_by_phase"] = {
            phase: {layer: round(s, 4) for layer, s in sorted(layers.items())}
            for phase, layers in traced[0]["phase_layers"].items()
        }
    print(json.dumps(info))
    units = {m["name"]: m["unit"] for m in listed}
    failed = len(checks.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
