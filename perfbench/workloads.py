"""The benchmark's three workloads, each a list of cold campaign cells.

A workload seed expands into distinct cell seeds; ``--seconds`` fixes how
many cells run, from each workload's per-cell cost on the reference host
(2 shared cores, CPython 3.11).  The cell list is a pure function of
``(workload, seed, seconds)``, so two runs with the same arguments do the
same simulated work and report the same counts, and a larger budget only
appends cells to a smaller one's list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    cell_seconds: float  # one untraced cell on the reference host, seconds
    window_days: Optional[float] = None
    post_window_days: Optional[float] = None
    wire_fidelity: Optional[str] = None
    channel: str = "tracker"  # the discovery channel that must be live

    def cell_seeds(self, seed: int, seconds: float) -> List[int]:
        count = max(2, round(seconds / self.cell_seconds))
        rng = random.Random(f"perfbench/{self.name}/{seed}")
        seeds: List[int] = []
        while len(seeds) < count:
            candidate = rng.randrange(1, 1_000_000)
            if candidate not in seeds:
                seeds.append(candidate)
        return seeds

    def cell_kwargs(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "window_days": self.window_days,
            "post_window_days": self.post_window_days,
            "wire_fidelity": self.wire_fidelity,
        }


WORKLOADS: Dict[str, Workload] = {
    # `repro run` defaults: tracker-only tiny world, every announce encoded
    # and decoded on the wire.
    "tracker": Workload("tracker", "tiny", cell_seconds=3.5),
    # Magnet-only portal, no tracker: peers come from iterative get_peers
    # lookups.  A 0.5+0.5-day window keeps one cell near 5 s, so a run
    # averages several cells.
    "dht": Workload(
        "dht", "trackerless", cell_seconds=5.0,
        window_days=0.5, post_window_days=0.5, channel="dht",
    ),
    # `repro sweep` defaults: baseline cells through run_sweep, tracker on
    # its sampled object path, one job, cross-seed aggregation at the end.
    "sweep": Workload("sweep", "baseline", cell_seconds=2.7, wire_fidelity="sampled"),
}


def run_workload(
    workload: Workload,
    seeds: List[int],
    tracer: Any,
    on_cell: Optional[Callable[[int], None]] = None,
) -> Tuple[List[Any], Optional[Dict[str, Any]], List[str]]:
    """Run every cell, cold, in this process.

    Returns ``(results, sweep_report, errors)``: one CampaignResult (or None
    for a cell that raised) per seed, the aggregate report on ``sweep``, and
    one message per failure.  ``tracer.cell`` tracks the running cell, and
    ``on_cell`` is called with the same index (-1: no cell) as it changes.
    """
    from repro.campaign import CellSpec, SweepSpec, run_campaign_cell, run_sweep

    def enter(index: int) -> None:
        tracer.cell = index
        if on_cell is not None:
            on_cell(index)

    errors: List[str] = []
    if workload.name == "sweep":
        spec = SweepSpec(
            scenarios=(workload.scenario,),
            seeds=tuple(seeds),
            wire_fidelity=workload.wire_fidelity,
        )
        enter(0)

        def next_cell(_message: str) -> None:
            # run_sweep reports after each cell; past the last one the
            # spans belong to the aggregation, not to a cell.
            enter(tracer.cell + 1 if tracer.cell + 1 < len(seeds) else -1)

        try:
            sweep = run_sweep(spec, jobs=1, progress=next_cell)
        except Exception as exc:  # noqa: BLE001 -- every cell counts as failed
            errors.append(f"run_sweep raised {type(exc).__name__}: {exc}")
            return [None] * len(seeds), None, errors
        finally:
            enter(-1)
        return list(sweep.results), sweep.report, errors

    results: List[Any] = []
    for index, seed in enumerate(seeds):
        enter(index)
        try:
            results.append(run_campaign_cell(CellSpec(seed=seed, **workload.cell_kwargs())))
        except Exception as exc:  # noqa: BLE001 -- a raising cell is a failed cell
            errors.append(f"cell seed={seed} raised {type(exc).__name__}: {exc}")
            results.append(None)
    enter(-1)
    return results, None, errors
