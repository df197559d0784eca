"""Benchmark entry point: one workload, one fresh process, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tracker --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with only ``World.build`` and
``EventScheduler.run_until`` wrapped.  Its times are CPU seconds scaled to
the host's reference speed (``hostspeed.py``).  ``--trace 1`` first runs the same
cells untraced in a child process (the reference for the tracing overhead),
then runs them with every layer in ``tracer.LAYERS`` wrapped, writes the
spans to ``perfbench/out/<workload>-spans.tsv`` and reports the per-layer metrics.  Either
way the outputs are checked (``check.py``) and the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is non-zero when the check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH_DIR))

from check import check_cells  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from tracer import BUILD, LAYERS, RUN_UNTIL, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, run_workload  # noqa: E402

# Extra per-layer metrics beyond <layer>.calls/.busy_s/.self_s.
EXTRA_UNITS = {
    "engine.events": "count",
    "tracker.reject_frac": "ratio",
    "identify.success_frac": "ratio",
    "dht_crawler.lookup.p50_ms": "ms",
    "dht_crawler.lookup.p99_ms": "ms",
    "dht_crawler.lookup.queries_per_lookup": "queries/lookup",
    "dht_crawler.lookup.peers_frac": "ratio",
    "dht.drop_frac": "ratio",
    "trace.overhead_frac": "ratio",
}
END_TO_END_UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
    "ident_coverage": "ratio",
    "download_coverage": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _nearest_rank(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def _missing_problems(tracer: Tracer) -> List[str]:
    """A wrapped entry point the program no longer has fails the check:
    its layer would read 0, which looks like a speed-up."""
    return [f"trace: entry point not found: {name}" for name in tracer.missing]


def _cpu_seconds() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class CellPeaks:
    """Peak resident memory of each cell, in MiB.

    Called by ``run_workload`` each time a cell starts or ends: the
    kernel's high-water mark (``VmHWM``) is read when a cell ends and reset
    when the next starts.  Where ``/proc`` cannot reset it, ``peaks`` stays
    empty and the caller falls back to the whole run's peak.
    """

    def __init__(self) -> None:
        self.peaks: List[float] = []
        self._open = False
        self._usable = True

    def __call__(self, index: int) -> None:
        if not self._usable:
            return
        try:
            if self._open:
                self.peaks.append(_status_mb("VmHWM"))
            with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
                handle.write("5")  # 5: reset the peak RSS
        except OSError:
            self._usable, self.peaks = False, []
            return
        self._open = index >= 0


def _status_mb(field: str) -> float:
    """A memory field of ``/proc/self/status`` (``VmHWM``, ``VmRSS``), MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0  # kB
    raise OSError(f"no {field} in /proc/self/status")


def _rss_mb() -> float:
    try:
        return _status_mb("VmRSS")
    except OSError:
        return 0.0


def _counter(results: List[Any], name: str) -> Dict[str, float]:
    """Counter ``name`` of the finished cells' snapshots, summed per label."""
    totals: Dict[str, float] = {}
    for result in results:
        if result is None:
            continue
        entry = result.metrics.get(name) or {"values": {}}
        for label, value in entry["values"].items():
            totals[label] = totals.get(label, 0.0) + value
    return totals


def _run_cells(
    args: argparse.Namespace, tracer: Tracer, speed: HostSpeed, peaks: Any = None
) -> Tuple[float, Dict[str, Any]]:
    """Run the workload under ``tracer`` while ``speed`` samples the host.

    Returns the run's CPU seconds, less the probes', and the check.
    """
    workload = WORKLOADS[args.workload]
    seeds = workload.cell_seeds(args.seed, args.seconds)
    started = _cpu_seconds() - speed.spent
    with speed:
        results, report, errors = run_workload(workload, seeds, tracer, peaks)
    cpu = _cpu_seconds() - speed.spent - started
    check = check_cells(workload, args.seed, seeds, results, report)
    check["problems"] = errors + check["problems"]
    check["attempted"] = len(seeds)
    check["results"] = results
    return cpu, check


def end_to_end(args: argparse.Namespace) -> Tuple[Dict[str, float], Dict[str, Any]]:
    before = _rss_mb()
    speed = HostSpeed()
    probe_mb = _rss_mb() - before
    peaks = CellPeaks()
    # Spans read the program's own CPU time: the probes' is left out.
    with Tracer(clock=speed.clock) as tracer:
        tracer.install((BUILD, RUN_UNTIL))
        cpu, check = _run_cells(args, tracer, speed, peaks)
    check["problems"] += _missing_problems(tracer)
    finished = [r for r in check["results"] if r is not None]

    # CPU times at the host's reference speed (hostspeed.py): each build
    # and each event loop by the probes that ran inside it, the rest of
    # the run by all of them.
    builds = tracer.intervals(BUILD.layer)
    loops = tracer.intervals(RUN_UNTIL.layer)
    build_s = [(end - start) / speed.factor(start, end) for start, end in builds]
    loop_s = [(end - start) / speed.factor(start, end) for start, end in loops]
    rest = cpu - sum(end - start for start, end in builds + loops)
    rates = [events / seconds for events, seconds in zip(tracer.events, loop_s)]
    raw_rates = [events / (end - start) for events, (start, end) in zip(tracer.events, loops)]
    print(
        f"host: probe {speed.factor() * REFERENCE_S * 1e3:.4f} ms mean over "
        f"{len(speed.samples)} probes; unscaled cpu_s {cpu:.4f}, setup_s "
        f"{statistics.median([e - s for s, e in builds] or [0.0]):.4f}, "
        f"events_per_s {statistics.median(raw_rates or [0.0]):.1f}",
        file=sys.stderr,
    )
    metrics = {
        "cpu_s": sum(build_s) + sum(loop_s) + rest / speed.factor(),
        "setup_s": statistics.median(build_s or [0.0]),
        "events_per_s": statistics.median(rates or [0.0]),
        # The probe's table is resident throughout; ru_maxrss is KiB on Linux.
        "peak_rss_mb": statistics.median(
            peaks.peaks or [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        ) - probe_mb,
        "ok_frac": 1.0 - check["failed"] / check["attempted"],
        "ident_coverage": statistics.fmean(
            [r.headline["identification.coverage"] for r in finished] or [0.0]
        ),
        "download_coverage": statistics.fmean(
            [r.headline["download.coverage"] for r in finished] or [0.0]
        ),
    }
    return metrics, check


def _untraced_reference(args: argparse.Namespace) -> Tuple[float, List[str]]:
    """CPU seconds of the same cells, untraced, in a fresh child process."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    child = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    lines = child.stdout.strip().splitlines()
    for line in child.stderr.splitlines():
        if line.startswith("host:"):
            print(f"untraced {line}", file=sys.stderr)
    if child.returncode != 0 or not lines:
        return 0.0, [f"untraced reference run failed (exit {child.returncode}): "
                     f"{child.stderr.strip()[-500:]}"]
    return json.loads(lines[-1])["metrics"]["cpu_s"]["value"], []


def per_layer(args: argparse.Namespace) -> Tuple[Dict[str, float], Dict[str, Any]]:
    untraced_cpu, reference_problems = _untraced_reference(args)
    speed = HostSpeed()
    with Tracer() as tracer:
        tracer.install(LAYERS)
        cpu, check = _run_cells(args, tracer, speed)
    print(
        f"traced host: probe {speed.factor() * REFERENCE_S * 1e3:.4f} ms mean over "
        f"{len(speed.samples)} probes; unscaled cpu_s {cpu:.4f}",
        file=sys.stderr,
    )
    cpu /= speed.factor()
    check["problems"] += reference_problems + _missing_problems(tracer)
    table = tracer.layer_table()
    metrics: Dict[str, float] = {}
    for target in LAYERS:
        row = table.get(target.layer, {})
        metrics[f"{target.layer}.calls"] = row.get("calls", 0)
        metrics[f"{target.layer}.busy_s"] = row.get("busy_s", 0.0)
        metrics[f"{target.layer}.self_s"] = row.get("self_s", 0.0)

    # The count ratios come from the counters each cell's snapshot carries.
    results = check["results"]
    announces = _counter(results, "crawler.announces")
    identification = _counter(results, "crawler.identification")
    # A torrent gone before first contact never reached identify_publisher.
    identification.pop("outcome=TORRENT_GONE", None)
    lookups = _counter(results, "dht.lookups")
    queries = _counter(results, "dht.lookup_queries")
    messages = _counter(results, "dht.messages")
    lookup_ms = sorted(d * 1000.0 for d in tracer.durations("dht_crawler.lookup"))
    metrics.update({
        "engine.events": sum(tracer.events),
        "tracker.reject_frac": _ratio(
            announces.get("outcome=failure", 0.0), sum(announces.values())
        ),
        "identify.success_frac": _ratio(
            identification.get("outcome=IP_IDENTIFIED", 0.0), sum(identification.values())
        ),
        "dht_crawler.lookup.p50_ms": _nearest_rank(lookup_ms, 0.50),
        "dht_crawler.lookup.p99_ms": _nearest_rank(lookup_ms, 0.99),
        "dht_crawler.lookup.queries_per_lookup": _ratio(
            sum(queries.values()), sum(lookups.values())
        ),
        "dht_crawler.lookup.peers_frac": _ratio(
            lookups.get("outcome=peers", 0.0), sum(lookups.values())
        ),
        "dht.drop_frac": _ratio(
            messages.get("outcome=lost", 0.0) + messages.get("outcome=unroutable", 0.0),
            sum(messages.values()),
        ),
        "trace.overhead_frac": _ratio(cpu, untraced_cpu) - 1.0 if untraced_cpu else 0.0,
    })
    tracer.write(OUT_DIR / f"{args.workload}-spans.tsv")
    return metrics, check


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in EXTRA_UNITS:
        return EXTRA_UNITS[name]
    return "count" if name.endswith(".calls") else "s"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    metrics, check = per_layer(args) if args.trace else end_to_end(args)
    for problem in check["problems"]:
        print(f"check: {problem}", file=sys.stderr)
    correct = not check["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
