"""Span recorder for the traced run, and the per-layer metrics derived from it.

Run as a launcher, it installs wrappers in the program's own process and then
runs the ordinary command line::

    python perfbench/tracing.py SPANS.json -- run --config cfg.json ...

The wrappers rebind the names each calling module imported (for example
``graphmem.runtime.search`` and ``graphmem.energy.recursive_energy``) and
patch a few methods on their classes; nothing under ``src/`` changes.  Each
call records a span (name, start, end, its own id, its parent's id, the id of
the outermost span on its thread) plus counts taken at the same boundary.
Spans stay in memory and are written out when the command returns.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from typing import Callable

LAYERS = ("retrieval", "energy", "protocol", "graph", "runtime", "training", "server", "canon")
# Spans that wait on another process rather than compute; reported on their
# own and kept out of their layer's self time.
WAITS = ("runtime.policy.complete",)
CANON_USERS = ("graph", "runtime", "training", "protocol", "retrieval", "server", "cli")


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int, int]] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        before: Callable | None = None,
        after: Callable | None = None,
        on_error: Callable | None = None,
    ) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            root = stack[0] if stack else span_id
            state = before(*args, **kwargs) if before else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                recorder.spans.append((name, start, end, span_id, parent, root))
            if after:
                after(state, result, *args, **kwargs)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "counts": self.counts, "spans": self.spans}, handle)


def install(rec: Recorder) -> None:
    """Rebind every traced entry point; graphmem must be importable."""
    import graphmem.cli as cli
    import graphmem.energy as energy
    import graphmem.graph as graph
    import graphmem.protocol as protocol
    import graphmem.retrieval as retrieval
    import graphmem.runtime as runtime
    import graphmem.server as server
    import graphmem.training as training

    modules = {
        "cli": cli, "energy": energy, "graph": graph, "protocol": protocol,
        "retrieval": retrieval, "runtime": runtime, "server": server, "training": training,
    }

    def rebind(module, attr: str, name: str, **hooks) -> None:
        setattr(module, attr, rec.wrap(name, getattr(module, attr), **hooks))

    # retrieval
    def loaded(_, corpus, *a, **k):
        rec.add("retrieval.loads")
        rec.add("retrieval.index.units", len(corpus.units))
        rec.add("retrieval.index.bytes", corpus.index.nbytes)

    def keyframes(_, seeds, observation, stamps):
        rec.add("retrieval.keyframes.requested", len(stamps))
        rec.add("retrieval.keyframes.kept", len(seeds))

    rebind(cli, "load_corpus", "retrieval.load_corpus", after=loaded)
    rebind(retrieval, "embed", "retrieval.embed")
    rebind(runtime, "search", "retrieval.search")
    rebind(server, "search", "retrieval.search")
    rebind(runtime, "resolve_keyframes", "retrieval.resolve_keyframes", after=keyframes)

    # energy
    def live_items(graph_, params):
        return sum(1 for item in graph_.memory_bank if not item.dropped)

    def shaped(live, assignment, *a, **k):
        rec.add("energy.items.retained", len(assignment.retained))
        rec.add("energy.items.evicted", live - len(assignment.retained))

    rebind(runtime, "shape_memory", "energy.shape_memory", before=live_items, after=shaped)
    for attr in ("recursive_energy", "select_top_k", "allocate_budget"):
        rebind(energy, attr, f"energy.{attr}")

    # protocol
    def prompt_chars(_, text, *a, **k):
        rec.add("protocol.prompt.chars", len(text))

    def parse_failed(exc):
        if isinstance(exc, protocol.ProtocolError):
            rec.add("protocol.parse.retries")

    rebind(runtime, "render_context", "protocol.render_context")
    rebind(runtime, "render_observation", "protocol.render_observation")
    rebind(runtime, "parse_response", "protocol.parse_response", on_error=parse_failed)
    for attr in ("text", "user_text"):
        rebind(protocol.PromptBundle, attr, "protocol.prompt_text", after=prompt_chars)

    # graph
    def mutated(*_a, **_k):
        rec.add("graph.mutations")

    for attr in ("linearize", "validate", "to_dict"):
        rebind(graph.MemoryGraph, attr, f"graph.{attr}")
    for attr in ("add_search_node", "populate_node", "add_answer_node", "append_item"):
        rebind(graph.MemoryGraph, attr, f"graph.{attr}", after=mutated)

    # runtime
    def saved(_, result, trajectory, path):
        rec.add("runtime.trajectory.bytes", os.path.getsize(path))

    rebind(cli, "run_episode", "runtime.run_episode")
    rebind(runtime, "apply_action", "runtime.apply_action")
    rebind(runtime.ChatCompletionsClient, "complete", "runtime.policy.complete")
    rebind(cli, "save_trajectory", "runtime.save_trajectory", after=saved)
    rebind(cli, "load_trajectory", "runtime.load_trajectory")

    # canon
    for user in CANON_USERS:
        rebind(modules[user], "canonical_dumps", "canon.canonical_dumps")

    # training
    def prepared(_, group, *a, **k):
        for rollout in group.rollouts:
            rec.add("training.segments", len(rollout.segments))
            rec.add("training.segments_masked", sum(rollout.mask.mus()))

    rebind(cli, "prepare_group", "training.prepare_group", after=prepared)
    rebind(cli, "export_training_batch", "training.export_training_batch")
    rebind(cli, "audit_report", "training.audit_report")
    for attr in ("segment_trajectory", "detect_valuable_retrieval", "pruning_mask"):
        rebind(training, attr, f"training.{attr}")

    # server: the handler class is made per server, so patch it on creation
    def patch_handler(_, made, *a, **k):
        handler = made.RequestHandlerClass
        handler.do_POST = rec.wrap("server.do_POST", handler.do_POST, before=request_seen)

    def request_seen(*_a, **_k):
        # counted on entry: a handler that raises still served a request
        rec.add("server.requests")

    rebind(cli, "make_search_server", "server.make_search_server", after=patch_handler)


# -- per-layer metrics -------------------------------------------------------------


def _ms(ns: float) -> float:
    return ns / 1e6


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(dumps: list[dict], rounds: int) -> dict[str, float]:
    """Per-layer metrics from the span dumps of every program process of a
    traced pass.  Totals and counts are per round; percentiles are over
    single calls."""
    durations: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    self_ms = {layer: 0.0 for layer in LAYERS}
    embed_in_load = 0
    for dump in dumps:
        for key, value in dump["counts"].items():
            counts[key] = counts.get(key, 0) + value
        spans = dump["spans"]
        by_id = {s[3]: s for s in spans}
        child_ns: dict[int, int] = {}
        for name, start, end, span_id, parent, root in spans:
            durations.setdefault(name, []).append(_ms(end - start))
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        for name, start, end, span_id, parent, root in spans:
            layer = name.split(".")[0]
            if layer in self_ms and name not in WAITS:
                self_ms[layer] += _ms(end - start - child_ns.get(span_id, 0))
            if name == "retrieval.embed":
                ancestor = by_id.get(parent)
                while ancestor is not None and ancestor[0] != "retrieval.load_corpus":
                    ancestor = by_id.get(ancestor[4])
                embed_in_load += ancestor is not None

    per_round = 1.0 / max(rounds, 1)
    loads = counts.get("retrieval.loads", 0)

    def total(name: str) -> float:
        return sum(durations.get(name, [])) * per_round

    def calls(name: str) -> float:
        return len(durations.get(name, [])) * per_round

    def pct(name: str, q: int) -> float:
        return percentile(durations.get(name, []), q)

    metrics = {
        "retrieval.load_corpus.s": pct("retrieval.load_corpus", 50) / 1000,
        "retrieval.embed.calls": embed_in_load / loads if loads else 0.0,
        "retrieval.search.calls": calls("retrieval.search"),
        "retrieval.search.ms_p50": pct("retrieval.search", 50),
        "retrieval.search.ms_total": total("retrieval.search"),
        "retrieval.index.units": counts.get("retrieval.index.units", 0) / loads if loads else 0.0,
        "retrieval.index.mb":
            counts.get("retrieval.index.bytes", 0) / loads / 1e6 if loads else 0.0,
        "retrieval.keyframes.requested": counts.get("retrieval.keyframes.requested", 0) * per_round,
        "retrieval.keyframes.kept": counts.get("retrieval.keyframes.kept", 0) * per_round,
        "energy.shape_memory.calls": calls("energy.shape_memory"),
        "energy.shape_memory.ms_total": total("energy.shape_memory"),
        "energy.shape_memory.ms_p90": pct("energy.shape_memory", 90),
        "energy.recursive_energy.ms_total": total("energy.recursive_energy"),
        "energy.select_top_k.ms_total": total("energy.select_top_k"),
        "energy.allocate_budget.ms_total": total("energy.allocate_budget"),
        "energy.items.retained": counts.get("energy.items.retained", 0) * per_round,
        "energy.items.evicted": counts.get("energy.items.evicted", 0) * per_round,
        "protocol.render_context.ms_total": total("protocol.render_context"),
        "protocol.render_context.ms_p90": pct("protocol.render_context", 90),
        "graph.linearize.ms_total": total("graph.linearize"),
        "protocol.prompt_text.calls": calls("protocol.prompt_text"),
        "protocol.prompt.chars_total": counts.get("protocol.prompt.chars", 0) * per_round,
        "protocol.parse_response.calls": calls("protocol.parse_response"),
        "protocol.parse_response.ms_total": total("protocol.parse_response"),
        "protocol.parse.retries": counts.get("protocol.parse.retries", 0) * per_round,
        "protocol.render_observation.ms_total": total("protocol.render_observation"),
        "graph.validate.calls": calls("graph.validate"),
        "graph.validate.ms_total": total("graph.validate"),
        "graph.mutations": counts.get("graph.mutations", 0) * per_round,
        "runtime.run_episode.ms_p50": pct("runtime.run_episode", 50),
        "runtime.apply_action.ms_total": total("runtime.apply_action"),
        "runtime.policy.calls": calls("runtime.policy.complete"),
        "runtime.policy.wait_ms_total": total("runtime.policy.complete"),
        "runtime.save_trajectory.ms_total": total("runtime.save_trajectory"),
        "runtime.trajectory.bytes_total": counts.get("runtime.trajectory.bytes", 0) * per_round,
        "graph.to_dict.ms_total": total("graph.to_dict"),
        "canon.canonical_dumps.calls": calls("canon.canonical_dumps"),
        "canon.canonical_dumps.ms_total": total("canon.canonical_dumps"),
        "runtime.load_trajectory.ms_total": total("runtime.load_trajectory"),
        "training.prepare_group.ms_total": total("training.prepare_group"),
        "training.segment_trajectory.ms_total": total("training.segment_trajectory"),
        "training.detect_valuable_retrieval.ms_total": total("training.detect_valuable_retrieval"),
        "training.pruning_mask.ms_total": total("training.pruning_mask"),
        "training.export_training_batch.ms_total": total("training.export_training_batch"),
        "training.audit_report.ms_total": total("training.audit_report"),
        "training.segments": counts.get("training.segments", 0) * per_round,
        "training.segments_masked": counts.get("training.segments_masked", 0) * per_round,
        "server.requests": counts.get("server.requests", 0) * per_round,
        "server.search.ms_p50": pct("retrieval.search", 50)
        if "server.requests" in counts else 0.0,
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_ms"] = self_ms[layer] * per_round
    metrics["trace.spans"] = sum(len(d["spans"]) for d in dumps) * per_round
    return metrics


def main(argv: list[str]) -> int:
    out, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json -- <graphmem arguments>")
    import graphmem.cli as cli

    rec = Recorder()
    install(rec)
    try:
        return rec.wrap("cli.main", cli.main)(cli_args)
    finally:
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
