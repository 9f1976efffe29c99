"""The four workloads.  Each drives the program through its command line
(``graphmem run``, ``graphmem serve``, ``graphmem prune``) in a child process,
in whole rounds of the same operations until the run's time is up, then
checks the outputs with :mod:`checks`.

A pass is one such timed loop; ``run_workload`` makes one untraced pass and,
when tracing, a second pass with the span recorder installed in the program's
processes.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
from stub import StubEndpoint, StubPolicy, cycle_gaps
from tracing import percentile

PROCESS_TIMEOUT_S = 60.0
# Episodes run one at a time: with two episode threads in one process the
# turn gaps depend on how the threads contend for the interpreter lock, and
# their 90th percentile moved by 50% between rounds of one run.
ROLLOUT_PARALLEL = 1
N_FRAMES = 8
S_TOTAL = 1310720  # the engine default, which the configs keep
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Ops:
    """Attempted and failed operations of one kind."""

    attempted: int = 0
    failed: int = 0


@dataclass
class PassResult:
    """One timed loop.  Throughput and latency are kept per round, and each
    figure is the median over rounds, so one round slowed by something else
    on the machine does not move it."""

    ops: dict[str, Ops]
    rounds: int = 0
    setup_s: list[float] = field(default_factory=list)
    round_throughput: list[float] = field(default_factory=list)  # work units per second
    round_latencies_ms: list[list[float]] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    connections_per_episode: float = 0.0  # TCP connections the stub accepted
    span_dumps: list[dict] = field(default_factory=list)

    def throughput(self) -> float:
        return statistics.median(self.round_throughput) if self.round_throughput else 0.0

    def latency(self, q: int) -> float:
        """The q-th percentile per round, then the median over rounds; pooled
        over the run when rounds hold too few samples for a percentile."""
        if self.round_latencies_ms and min(map(len, self.round_latencies_ms)) >= 20:
            return statistics.median(percentile(r, q) for r in self.round_latencies_ms)
        return percentile([x for r in self.round_latencies_ms for x in r], q)

    def samples(self) -> int:
        return sum(map(len, self.round_latencies_ms))


class Program:
    """Starts ``graphmem`` from the checkout's sources and reaps it with
    ``wait4`` for its exit time and peak resident memory."""

    def __init__(self, root: Path, work: Path, traced: bool):
        self.root, self.work, self.traced = root, work, traced
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.span_files: list[Path] = []
        self.running: set[subprocess.Popen] = set()
        self._n = 0

    def start(self, args: list[str]) -> tuple[subprocess.Popen, float]:
        self._n += 1
        if self.traced:
            spans = self.work / f"spans-{self._n}.json"
            self.span_files.append(spans)
            command = [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans), "--", *args]
        else:
            command = [sys.executable, "-m", "graphmem.cli", *args]
        log = open(self.work / f"proc-{self._n}.log", "wb")
        try:
            started = time.perf_counter()
            proc = subprocess.Popen(
                command, cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
        finally:
            log.close()
        self.running.add(proc)
        return proc, started

    def reap(self, proc: subprocess.Popen,
             timeout: float = PROCESS_TIMEOUT_S) -> tuple[int, float, float]:
        """Wait for exit; return (exit code, exit time, peak RSS in MB).  A
        process still running after ``timeout`` seconds is killed."""
        box: dict = {}

        def waiter() -> None:
            _, status, usage = os.wait4(proc.pid, 0)
            box.update(t=time.perf_counter(), status=status, rss=usage.ru_maxrss)

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        thread.join(timeout)
        if thread.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
            thread.join()
        self.running.discard(proc)
        proc.returncode = os.waitstatus_to_exitcode(box["status"])
        return proc.returncode, box["t"], box["rss"] / 1024.0

    @staticmethod
    def alive(proc: subprocess.Popen) -> bool:
        """True while the process runs; unlike ``Popen.poll`` it never reaps,
        which would take the exit status and rusage from ``reap``."""
        return os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None

    def stop_all(self) -> None:
        """Kill and reap every process a failed round left running.  Signals
        go by pid: the pid stays ours until ``reap`` collects it, and the
        ``Popen`` methods would reap on their own."""
        for proc in list(self.running):
            os.kill(proc.pid, signal.SIGKILL)
            self.reap(proc)

    def take_spans(self) -> list[dict]:
        dumps = [json.loads(p.read_text(encoding="utf-8")) for p in self.span_files if p.exists()]
        self.span_files = []
        return dumps

    def run(self, args: list[str]) -> int:
        proc, _ = self.start(args)
        return self.reap(proc)[0]


def _timed(seconds: float, program: Program, one_round) -> int:
    """One warm-up round, then whole rounds until ``seconds`` have passed;
    returns the number of timed rounds.  The warm-up round's outputs are the
    reference later rounds must repeat byte for byte; its spans are dropped."""
    try:
        one_round(0, False)
        program.take_spans()
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            rounds += 1
            one_round(rounds, True)
        return rounds
    finally:
        program.stop_all()


def _build_corpus(root: Path, work: Path, items: list[dict]) -> tuple[Path, checks.Oracle]:
    """Untimed set-up: ``graphmem corpus build`` over the generated manifest,
    plus the reference index with the embedding settings the file declares."""
    gen.write_manifest(work / "manifest", items)
    corpus = work / "corpus.json"
    build = ["corpus", "build", "--manifest-dir", str(work / "manifest"), "--out", str(corpus)]
    if Program(root, work, traced=False).run(build) != 0:
        raise RuntimeError("graphmem corpus build failed")
    record = json.loads(corpus.read_text(encoding="utf-8"))
    return corpus, checks.Oracle(items, record["clip_len_s"], record["embed_dim"],
                                 record["embed_seed"], N_FRAMES)


def _same_files(first: Path, other: Path, names: list[str]) -> list[str]:
    return [
        f"{other.name}/{name} differs from the first round's output"
        for name in names
        if not (first / name).exists() or (other / name).read_bytes() != (first / name).read_bytes()
    ]


# -- rollout-search and rollout-deep ---------------------------------------------------


def rollout(root: Path, work: Path, seed: int, seconds: float, trace: bool,
            shape: gen.RolloutShape) -> list[PassResult]:
    inputs = gen.rollout_inputs(seed, shape)
    corpus, oracle = _build_corpus(root, work, inputs.items)
    queries = work / "queries.jsonl"
    queries.write_text(
        "".join(json.dumps({"query": q.query, "gold": q.fact}) + "\n" for q in inputs.queries),
        encoding="utf-8",
    )
    stub = StubEndpoint(StubPolicy(shape, inputs.vocab)).start()
    config = work / "config.json"
    config.write_text(json.dumps({
        "policy_mode": "remote",
        "policy_base_url": f"http://127.0.0.1:{stub.port}",
        "policy_model": "stub",
        "corpus_path": str(corpus),
        "search_k": shape.search_k,
        "top_k": shape.top_k,
        "n_frames": N_FRAMES,
        "t_max": shape.searches + 5,
    }), encoding="utf-8")
    gold = {q.query: q.fact for q in inputs.queries}
    names = [f"trajectory_{i:04d}.jsonl" for i in range(shape.episodes)]
    try:
        passes = [
            _rollout_pass(root, work, seconds, shape, stub, config, queries, names, oracle, gold,
                          traced)
            for traced in ([False, True] if trace else [False])
        ]
    finally:
        stub.close()
    return passes


def _rollout_pass(root, work, seconds, shape, stub, config, queries, names, oracle,
                  gold, traced) -> PassResult:
    program = Program(root, work, traced)
    result = PassResult(ops={"episode": Ops(), "policy_turn": Ops(), "search": Ops()})
    first_out = work / f"out-{traced}-0"
    connections = episodes = 0
    stub.take()

    def one_round(index: int, timed: bool) -> None:
        nonlocal connections, episodes
        out = work / f"out-{traced}-{index}"
        proc, started = program.start(["run", "--config", str(config), "--queries", str(queries),
                                       "--parallel", str(ROLLOUT_PARALLEL), "--out-dir", str(out)])
        code, exited, peak = program.reap(proc)
        turns, opened = stub.take()
        produced = [n for n in names if (out / n).exists()]
        if code != 0 or not turns:
            result.errors.append(f"graphmem run exited with {code} in round {index}")
        if index:
            result.errors.extend(_same_files(first_out, out, produced))
            shutil.rmtree(out)
        if not timed:
            return
        result.ops["episode"].attempted += shape.episodes
        result.ops["episode"].failed += shape.episodes - len(produced)
        result.ops["policy_turn"].attempted += len(turns)
        if code != 0 or not turns:
            return
        connections += opened
        episodes += len(produced)
        first = min(t.received for t in turns)
        result.setup_s.append(first - started)
        result.round_throughput.append(len(produced) / (exited - first))
        result.rss_mb.append(peak)
        result.round_latencies_ms.append([g * 1000 for g in cycle_gaps(turns)])

    result.rounds = _timed(seconds, program, one_round)
    result.connections_per_episode = connections / max(episodes, 1)
    result.span_dumps = program.take_spans()

    samples = []
    for name in names:
        path = first_out / name
        if not path.exists():
            continue
        meta, records = checks.read_trajectory(path.read_text(encoding="utf-8"))
        samples.append((meta, records))
        result.errors.extend(checks.check_episode(
            meta, records, gold=gold[meta["query"]], s_total=S_TOTAL, top_k=shape.top_k))
        for query, observations in checks.episode_searches(records):
            result.ops["search"].attempted += result.rounds
            result.errors.extend(checks.check_search(oracle, query, shape.search_k, observations))
    if not traced and samples:
        meta, records = samples[0]
        searches = checks.episode_searches(records)
        query, observations = next(
            ((q, o) for q, o in searches if _score_gap(o) > 1e-5), searches[0])
        limits = {"s_total": S_TOTAL, "top_k": shape.top_k}
        result.errors.extend(f"self-test: {m}" for m in checks.self_tests(
            oracle=oracle, search_case=(query, shape.search_k, observations),
            episode_cases=[(meta, records, {"gold": gold[meta["query"]], **limits})
                           for meta, records in samples],
        ))
    return result


# -- search-http --------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
    conn.request("POST", "/search", body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def search_http(root: Path, work: Path, seed: int, seconds: float, trace: bool,
                nproc: int) -> list[PassResult]:
    items, mix = gen.http_inputs(seed)
    corpus, oracle = _build_corpus(root, work, items)
    return [_http_pass(root, work, seconds, nproc, corpus, mix, oracle, traced)
            for traced in ([False, True] if trace else [False])]


def _http_pass(root, work, seconds, nproc, corpus, mix, oracle, traced) -> PassResult:
    program = Program(root, work, traced)
    probe = json.dumps({"query": "setup probe", "k": 5}).encode("utf-8")
    result = PassResult(ops={"probe": Ops(), "search": Ops(), "no_tokens": Ops(),
                             "array_body": Ops()})
    first: dict[int, tuple[int, bytes]] = {}
    clients = max(1, nproc)

    def one_round(index: int, timed: bool) -> None:
        port = _free_port()
        proc, started = program.start(["serve", "--corpus", str(corpus), "--port", str(port)])
        probed = None
        while probed is None and program.alive(proc):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                probed = _post(conn, probe)
            except (ConnectionError, http.client.HTTPException):
                time.sleep(0.005)
            finally:
                conn.close()
        ready = time.perf_counter()
        if timed:
            result.ops["probe"].attempted += 1
        if probed is None:
            result.errors.append(f"graphmem serve exited with {program.reap(proc)[0]} "
                                 "before answering")
            result.ops["probe"].failed += timed
            return
        replies: dict[int, tuple[int, bytes]] = {-1: probed}
        answered: list[float] = []  # latencies of well-formed searches answered
        lock = threading.Lock()

        def client(c: int) -> None:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                for i in range(c, len(mix), clients):
                    sent = time.perf_counter()
                    try:
                        reply = _post(conn, mix[i].body)
                    except (http.client.HTTPException, ConnectionError):
                        conn.close()
                        reply = (0, b"")
                    elapsed = (time.perf_counter() - sent) * 1000
                    with lock:
                        replies[i] = reply
                        if mix[i].kind != "array_body" and reply[0] == 200:
                            answered.append(elapsed)
            finally:
                conn.close()

        begun = time.perf_counter()
        threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        served = time.perf_counter() - begun
        os.kill(proc.pid, signal.SIGINT)
        code, _, peak = program.reap(proc)
        if code != 0:
            result.errors.append(f"graphmem serve exited with {code} after SIGINT")
        if not first:
            first.update(replies)
        elif replies != first:
            result.errors.append(f"replies in round {index} differ from the first round's")
        if not timed:
            return
        for i, request in enumerate(mix):
            result.ops[request.kind].attempted += 1
            if replies[i][0] != (400 if request.kind == "array_body" else 200):
                result.ops[request.kind].failed += 1
        result.setup_s.append(ready - started)
        result.round_throughput.append(len(answered) / served)
        result.round_latencies_ms.append(answered)
        result.rss_mb.append(peak)

    result.rounds = _timed(seconds, program, one_round)
    result.span_dumps = program.take_spans()

    requests = [(i, r.query, r.k) for i, r in enumerate(mix) if r.kind != "array_body"]
    for i, query, k in requests + [(-1, "setup probe", 5)]:
        status, body = first.get(i, (0, b""))
        if status == 200:
            results = json.loads(body)["results"]
            result.errors.extend(checks.check_search(oracle, query, k, results))
    if not traced:
        i, query, k = next(
            (i, q, k) for i, q, k in requests
            if k >= 2 and first[i][0] == 200 and mix[i].kind == "search"
            and _score_gap(json.loads(first[i][1])["results"]) > 1e-5
        )
        result.errors.extend(f"self-test: {m}" for m in checks.self_tests(
            oracle=oracle, search_case=(query, k, json.loads(first[i][1])["results"])))
    return result


def _score_gap(results: list[dict]) -> float:
    return results[0]["score"] - results[1]["score"]


# -- train-prep ------------------------------------------------------------------------------


def train_prep(root: Path, work: Path, seed: int, seconds: float, trace: bool) -> list[PassResult]:
    files, groups, gold = gen.train_rollouts(seed, work / "traj")
    manifest = work / "gold.json"
    manifest.write_text(json.dumps({"entries": [
        {"query": query, "gold_evidence_ids": sorted(ids)} for query, ids in gold.items()
    ]}), encoding="utf-8")
    return [_prep_pass(root, work, seconds, files, groups, gold, manifest, traced)
            for traced in ([False, True] if trace else [False])]


def _prep_pass(root, work, seconds, files, groups, gold, manifest, traced) -> PassResult:
    program = Program(root, work, traced)
    result = PassResult(ops={"prune_setup": Ops(), "prune": Ops(), "segment": Ops()})
    first = work / f"batch-{traced}-0.jsonl"
    tiny = work / f"tiny-{traced}.jsonl"

    def one_round(index: int, timed: bool) -> None:
        proc, started = program.start(["prune", "--trajectories", str(files[0]),
                                       "--out-batch", str(tiny)])
        setup_code, setup_exited, _ = program.reap(proc)
        batch = work / f"batch-{traced}-{index}.jsonl"
        proc, started_full = program.start(["prune", "--trajectories", *map(str, files),
                                            "--gold-manifest", str(manifest),
                                            "--out-batch", str(batch)])
        code, exited, peak = program.reap(proc)
        for name, exit_code in (("prune_setup", setup_code), ("prune", code)):
            if exit_code != 0:
                result.errors.append(f"graphmem prune exited with {exit_code} in round {index}")
            if timed:
                result.ops[name].attempted += 1
                result.ops[name].failed += exit_code != 0
        if code != 0:
            return
        rows = batch.read_text(encoding="utf-8").count("\n")
        if index:
            if batch.read_bytes() != first.read_bytes():
                result.errors.append(f"round {index} batch differs from the first round's")
            batch.unlink()
        if not timed:
            return
        result.ops["segment"].attempted += rows
        if setup_code == 0:
            result.setup_s.append(setup_exited - started)
        result.round_latencies_ms.append([(exited - started_full) * 1000])
        result.round_throughput.append(rows / (exited - started_full))
        result.rss_mb.append(peak)

    result.rounds = _timed(seconds, program, one_round)
    result.span_dumps = program.take_spans()
    if first.exists():
        rows = [json.loads(line) for line in first.read_text(encoding="utf-8").splitlines()]
        loaded = [
            (query, [checks.read_trajectory(p.read_text(encoding="utf-8")) for p in paths])
            for query, paths in groups
        ]
        result.errors.extend(checks.check_batch(rows, loaded, gold))
        if not traced:
            result.errors.extend(f"self-test: {m}" for m in checks.self_tests(
                batch_case=(rows, loaded, gold)))
    return result
