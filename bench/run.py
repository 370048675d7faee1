"""Benchmark for bigmcg: one workload per run, one process, one thread.

    python3 bench/run.py --workload {embed,wordlen,homology,repro} \\
        --seed N --seconds S --trace {0,1} [--items K]

Run from the root of a checkout; the library is imported from `src/`.  Each
run sets up several times (import, input generation, warm-up) and reports the
median set-up time, then repeats passes over the fixed input set for about
`--seconds`.  Every time reported, except span busy times, is a time at
reference speed (see pace.py); an item counts at its median pass.  With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it alternates
untraced and traced passes and prints the per-layer metrics.  The last line of stdout is the result object; the line before it is
a report with the run metadata and the aggregated spans.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from pace import Pace  # noqa: E402
from spans import Tracer, scaling_exponent, traced_ops  # noqa: E402
from workloads import CHECK_NAMES, DEFAULT_ITEMS, WORKLOADS, entry_points, plain_ops  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3  # each item counts at its median pass

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p95": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "qinf.zn_embed.calls": "count",
    "qinf.zn_embed.busy_s": "s",
    "shark.phi.calls": "count",
    "shark.phi.busy_s": "s",
    "shark.phi.window_len_sum": "count",
    "shark.phi.scaling_exp": "exponent",
    "shark.compose.busy_s": "s",
    "shark.inverse.busy_s": "s",
    "shark.crossing_norm.busy_s": "s",
    "shark.witness_factorization.busy_s": "s",
    "shark.witness_factorization.letters_sum": "count",
    "shark.replay.busy_s": "s",
    "shark.word_ball.calls": "count",
    "shark.word_ball.busy_s": "s",
    "shark.word_ball.states_sum": "count",
    "shark.word_ball.states_per_s": "1/s",
    "shark.word_length_oracle.calls": "count",
    "shark.word_length_oracle.busy_s": "s",
    "shark.word_length_oracle.decided_ratio": "ratio",
    "gf2hom.GradedAut.compose.calls": "count",
    "gf2hom.GradedAut.compose.busy_s": "s",
    "gf2hom.GradedAut.compose.scaling_exp": "exponent",
    "gf2hom.GradedAut.inverse.busy_s": "s",
    "gf2hom.homology_norm.calls": "count",
    "gf2hom.homology_norm.busy_s": "s",
    "gf2hom.homology_norm.hull_blocks_sum": "count",
    "gf2hom.homology_norm.scaling_exp": "exponent",
    **{f"acceptance.{name}.s": "s" for name in CHECK_NAMES},
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}
SCALING_FITS = ("shark.phi", "gf2hom.GradedAut.compose", "gf2hom.homology_norm")


def import_library() -> SimpleNamespace:
    """Import bigmcg afresh from this checkout's `src/`."""
    src = ROOT / "src"
    if not (src / "bigmcg" / "__init__.py").is_file():
        raise SystemExit(f"error: no bigmcg package under {src}; run from a checkout of the repository")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "bigmcg" or m.startswith("bigmcg.")]:
        del sys.modules[name]
    mods = SimpleNamespace(
        **{name: importlib.import_module(f"bigmcg.{name}") for name in ("qinf", "shark", "gf2hom", "cli")}
    )
    if not Path(mods.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported bigmcg from {mods.cli.__file__}, not from {src}")
    return mods


def set_up(workload: str, seed: int, items: int) -> tuple[SimpleNamespace, object]:
    mods = import_library()
    work = WORKLOADS[workload](mods, seed, items)
    work.warm_up(plain_ops(mods))
    return mods, work


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def until_spent(seconds: float, run_once) -> None:
    """Call run_once() -> seconds taken, at least MIN_PASSES times, and then
    while the next call is expected to end within `seconds` of the start."""
    start = time.perf_counter()
    taken = [run_once() for _ in range(MIN_PASSES)]
    while time.perf_counter() - start + median(taken) <= seconds:
        taken.append(run_once())


def per_item(passes: list) -> tuple[list[float], int, dict[int, float]]:
    """Each item's median latency over the passes, the number of items that
    passed in every pass, and each item's median reported time."""
    latencies = [median(column) for column in zip(*(p.latencies_s for p in passes))]
    failed = {index for p in passes for index in p.failures}
    reported: dict[int, list[float]] = {}
    for p in passes:
        for index, took in p.reported_s.items():
            reported.setdefault(index, []).append(took)
    return latencies, len(latencies) - len(failed), {index: median(t) for index, t in reported.items()}


def pass_wall(passes: list) -> float:
    """Median over the passes of the time of the whole input set."""
    return median(sum(p.latencies_s) for p in passes)


def end_to_end(setups: list[float], passes: list) -> dict[str, float]:
    latencies, passed, _ = per_item(passes)
    wall = pass_wall(passes)
    return {
        "setup_s": median(setups),
        "wall_s": wall,
        "items_per_s": passed / wall,
        "item_ms_p50": percentile(latencies, 0.50) * 1e3,
        "item_ms_p95": percentile(latencies, 0.95) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracers: list[Tracer], traced: list, untraced: list, items: list) -> tuple[dict[str, float], bool]:
    """Per-layer values from the traced passes, and whether every traced pass
    gave the same exact counts."""
    values: dict[str, float] = {}
    repeat = True
    for name in tracers[0].spans:
        runs = [tracer.spans[name] for tracer in tracers]
        first = runs[0]
        repeat &= all(run.calls == first.calls and run.counts == first.counts for run in runs)
        values[f"{name}.calls"] = first.calls
        values[f"{name}.busy_s"] = median(run.busy_s for run in runs)
        for key, count in first.counts.items():
            values[f"{name}.{key}"] = count
        if name in SCALING_FITS:
            values[f"{name}.scaling_exp"] = scaling_exponent([pair for run in runs for pair in run.sized])
    if values["shark.word_length_oracle.calls"]:
        values["shark.word_length_oracle.decided_ratio"] = (
            values["shark.word_length_oracle.decided"] / values["shark.word_length_oracle.calls"]
        )
    if values["shark.word_ball.calls"]:
        values["shark.word_ball.states_per_s"] = values["shark.word_ball.states_sum"] / values["shark.word_ball.busy_s"]
    _, _, reported = per_item(untraced)
    for index, took in reported.items():
        values[f"acceptance.{items[index]}.s"] = took
    wall = pass_wall(untraced)
    if reported:
        values["cli.overhead_s"] = wall - sum(reported.values())
    values["trace.overhead_s"] = pass_wall(traced) - wall
    return values, repeat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=None, help="size of the input set, for quick checks")
    args = parser.parse_args(argv)
    items = args.items if args.items is not None else DEFAULT_ITEMS[args.workload]
    if items < 1:
        parser.error("--items must be at least 1")

    with Pace() as pace:
        return measure(args, items, pace)


def measure(args: argparse.Namespace, items: int, pace: Pace) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        (mods, work), _, took = pace.timed(set_up, args.workload, args.seed, items)
        setups.append(took)
    ops = plain_ops(mods)

    untraced: list = []
    traced: list = []
    tracers: list[Tracer] = []
    if args.trace:

        def untraced_then_traced() -> float:
            number = len(untraced)
            untraced.append(work.run_pass(ops, pace, number))
            tracer = Tracer()
            traced.append(work.run_pass(traced_ops(entry_points(mods), tracer, mods), pace, number, tracer))
            tracers.append(tracer)
            return untraced[-1].elapsed_s + traced[-1].elapsed_s

        until_spent(args.seconds, untraced_then_traced)
        values, counts_repeat = per_layer(tracers, traced, untraced, work.items)
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()}
    else:

        def one_pass() -> float:
            untraced.append(work.run_pass(ops, pace, len(untraced)))
            return untraced[-1].elapsed_s

        until_spent(args.seconds, one_pass)
        values = end_to_end(setups, untraced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    passes = untraced + traced
    attempted = len(work.items) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "inputs_digest": work.digest,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "latency_samples": len(work.items),
        "elapsed_s": [p.elapsed_s for p in passes],
        "pass_s_at_reference": [sum(p.latencies_s) for p in passes],
        "speed_samples": len(pace.speeds),
        "median_speed": median(pace.speeds),
        "setup_runs_s": setups,
        "error_rate": failed / attempted,
        "errors": [e for p in passes for e in p.errors][:5],
        "peak_rss_mb": peak_rss_mb(),
    }
    if args.trace:
        report["exact_counts"] = {
            name: values[name]
            for name in sorted(values)
            if name.endswith((".calls", "_sum", ".decided_ratio"))
        }
        report["counts_repeat"] = counts_repeat
        report["spans"] = {
            name: {key: sum(getattr(t.spans[name], key) for t in tracers) for key in ("calls", "busy_s", "self_s")}
            for name in sorted(tracers[0].spans)
        }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
