"""Outside-in span tracer: wraps public entry points of ``repro`` layers.

Nothing under ``src/`` knows it is being measured.  :class:`Tracer` swaps
each target function for a wrapper that records one span per call --
layer name, start, end, parent span and cell id -- into flat arrays kept
in memory, and :meth:`Tracer.write` dumps them once the run is over.

A layer's *self* time is its span's duration minus the part of that
interval its child spans cover.  Spans nest through an explicit stack, so
a ``tracker.announce`` inside ``engine.run_until`` is that span's child.

Name-imported call sites are patched where the caller looks the name up
(``repro.core.crawler.parse_torrent``, not ``repro.torrent.parse_torrent``):
patching the defining module would leave the caller's own reference
untouched and the wrapper would record nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``attr`` is ``"func"`` for a module-level name or ``"Class.method"``
    for a method or classmethod.
    """

    layer: str
    module: str
    attr: str


# The two wrappers of an untraced run: set-up time and the event loop.
BUILD = Target("world.build", "repro.simulation.world", "World.build")
RUN_UNTIL = Target("engine.run_until", "repro.simulation.engine", "EventScheduler.run_until")

# Every layer of a traced run, in pipeline order.
LAYERS: Tuple[Target, ...] = (
    # Set-up: world generation.
    BUILD,
    Target("agents.build_population", "repro.simulation.world", "build_population"),
    Target("portal.publish", "repro.portal.portal", "Portal.publish"),
    Target("swarm.generate_sessions", "repro.simulation.world", "generate_downloader_sessions"),
    Target("swarm.freeze", "repro.swarm.swarm", "Swarm.freeze"),
    Target("torrent.build_torrent", "repro.simulation.world", "build_torrent"),
    Target("dht.network_build", "repro.dht.network", "DhtNetwork.build"),
    Target("dht.announce_session", "repro.dht.network", "DhtNetwork.announce_session"),
    # Crawl: discovery, first contact, identification, monitoring.
    RUN_UNTIL,
    Target("portal.rss", "repro.portal.rss", "RssFeed.entries_between"),
    Target("portal.get_torrent_file", "repro.portal.portal", "Portal.get_torrent_file"),
    Target("portal.get_magnet", "repro.portal.portal", "Portal.get_magnet"),
    Target("torrent.parse_torrent", "repro.core.crawler", "parse_torrent"),
    Target("torrent.parse_magnet", "repro.core.crawler", "parse_magnet"),
    Target("tracker.announce", "repro.tracker.server", "Tracker.announce"),
    Target("tracker.announce_object", "repro.tracker.server", "Tracker.announce_object"),
    Target("tracker.decode", "repro.core.crawler", "decode_announce_response"),
    Target("swarm.query", "repro.swarm.swarm", "Swarm.query"),
    Target("core.identify_publisher", "repro.core.crawler", "identify_publisher"),
    Target("peerwire.probe", "repro.peerwire.client", "BitfieldProber.probe"),
    Target("dht_crawler.lookup", "repro.core.dht_crawler", "DhtCrawler.lookup"),
    Target("dht.send", "repro.dht.network", "DhtNetwork.send"),
    Target("dht.handle_query", "repro.dht.node", "DhtNode.handle_query"),
    Target("dht.krpc_encode", "repro.core.dht_crawler", "encode_query"),
    Target("dht.krpc_decode", "repro.core.dht_crawler", "decode_message"),
    Target("dht.routing_closest", "repro.dht.routing", "RoutingTable.closest"),
    # Analysis and aggregation.
    Target("analysis.validate", "repro.campaign.runner", "validate_campaign"),
    Target("analysis.contribution", "repro.campaign.runner", "analyze_contribution"),
    Target("analysis.groups", "repro.campaign.runner", "identify_groups"),
    Target("analysis.mapping", "repro.campaign.runner", "analyze_mapping"),
    Target("analysis.incentives", "repro.campaign.runner", "classify_top_publishers"),
    Target("campaign.aggregate", "repro.campaign.aggregate", "aggregate_results"),
    Target("observability.snapshot", "repro.observability.metrics", "MetricsRegistry.snapshot"),
)


class Tracer:
    """Records spans for the targets it installs; restores them on close.

    ``clock`` stamps each span: ``time.perf_counter`` (wall) by default,
    or ``time.process_time`` for CPU seconds of this process.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        # One entry per span, in call order (struct-of-arrays keeps a few
        # million spans within tens of MiB).
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_cell = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.cell = -1
        self._stack: List[int] = [-1]
        self._patched: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []
        # Simulated events of each run_until call, in call order.
        self.events: List[int] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def _layer_id(self, layer: str) -> int:
        if layer not in self._ids:
            self._ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._ids[layer]

    def install(self, targets: Tuple[Target, ...]) -> None:
        for target in targets:
            layer_id = self._layer_id(target.layer)
            module = importlib.import_module(target.module)
            owner: Any = module
            name = target.attr
            if "." in name:
                class_name, name = name.split(".", 1)
                owner = getattr(module, class_name, None)
            raw = None if owner is None else vars(owner).get(name)
            if raw is None:
                # The program no longer has this entry point: the run
                # fails its check rather than report a layer that reads 0.
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(layer_id, raw.__func__, target))
            else:
                wrapped = self._wrap(layer_id, raw, target)
            self._patched.append((owner, name, raw))
            setattr(owner, name, wrapped)

    def close(self) -> None:
        """Put every original entry point back, last patch first."""
        while self._patched:
            owner, name, raw = self._patched.pop()
            setattr(owner, name, raw)

    def _wrap(self, layer_id: int, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        tracer = self
        stack = self._stack
        layer_append = self.span_layer.append
        parent_append = self.span_parent.append
        cell_append = self.span_cell.append
        start_append = self.span_start.append
        end_append = self.span_end.append
        ends = self.span_end
        clock = self.clock
        events = self.events if target is RUN_UNTIL else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(ends)
            layer_append(layer_id)
            parent_append(stack[-1])
            cell_append(tracer.cell)
            end_append(0.0)
            stack.append(index)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if events is not None:
                # A cell drives one fresh scheduler through one run_until.
                events.append(args[0].events_run)
            return result

        return functools.update_wrapper(traced, fn)

    # ------------------------------------------------------------------
    # Reading spans back
    # ------------------------------------------------------------------
    def durations(self, layer: str) -> List[float]:
        return [end - start for start, end in self.intervals(layer)]

    def intervals(self, layer: str) -> List[Tuple[float, float]]:
        """``(start, end)`` of each span of ``layer``, in call order."""
        layer_id = self._ids.get(layer)
        starts, ends = self.span_start, self.span_end
        return [
            (starts[i], ends[i])
            for i, lid in enumerate(self.span_layer)
            if lid == layer_id
        ]

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, busy seconds, self seconds."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        count = len(ends)
        child = [0.0] * count
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        table = {
            layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            for layer in self.layers
        }
        rows = [table[layer] for layer in self.layers]
        for i, layer_id in enumerate(self.span_layer):
            row = rows[layer_id]
            duration = ends[i] - starts[i]
            row["calls"] += 1
            row["busy_s"] += duration
            row["self_s"] += duration - child[i]
        return table

    def write(self, path: Path) -> None:
        """Dump every span as tab-separated text with a JSON header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.span_start[0] if len(self.span_start) else 0.0
        layers = self.layers
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"layers": layers, "missing": self.missing,
                                  "columns": ["span", "layer", "parent", "cell",
                                              "start_us", "end_us"]}) + "\n")
            rows = zip(self.span_layer, self.span_parent, self.span_cell,
                       self.span_start, self.span_end)
            for index, (layer_id, parent, cell, start, end) in enumerate(rows):
                out.write(
                    f"{index}\t{layers[layer_id]}\t{parent}\t{cell}\t"
                    f"{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}\n"
                )
