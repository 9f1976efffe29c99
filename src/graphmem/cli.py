"""Operator command line: corpus building, episode running, statistics,
training-batch preparation, and the search HTTP server.

Exit codes: 0 success, 1 domain or OS error, 2 usage error.
"""

from __future__ import annotations

import argparse
import copy
import errno
import json
import os
import signal
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from pathlib import Path
from typing import Callable

from .canon import canonical_dumps, parse_json, read_json, read_text, write_text_atomic
from .config import Config, dump_config, load_config
from .errors import DomainError
from .retrieval import (
    Modality,
    build_corpus,
    load_corpus,
    load_manifest_dir,
    save_corpus,
)
from .runtime import (
    ChatCompletionsClient,
    ExactMatchJudge,
    JudgeError,
    Policy,
    RemoteJudge,
    RemotePolicy,
    ScriptedPolicy,
    Trajectory,
    load_trajectory,
    run_episode,
    save_trajectory,
)
from .server import make_search_server
from .training import audit_report, export_training_batch, prepare_group

TOKEN_CHARS = 4  # proxy: rendered prompt characters per counted token


class EmptyCorpus(DomainError):
    pass


class BadInputFile(DomainError):
    pass


class BadArgument(DomainError):
    pass


def _report(exc: DomainError | OSError, where: str = "") -> None:
    """One typed line on stderr for a failure that ends a command or an
    episode, coded by the error's class name."""
    print(f"error [{type(exc).__name__}]: {where}{exc}", file=sys.stderr)


def _policy_source(config: Config, clients: ExitStack) -> Callable[[], Policy]:
    """Policy for each episode of a run.  A scripted policy holds a cursor,
    so its script is read once and each episode gets a copy with its own
    cursor; a remote one is shared, so its client's connections serve the
    whole run."""
    if config.policy_mode == "scripted":
        script = ScriptedPolicy.from_file(config.require("policy_script"))
        return lambda: copy.copy(script)
    client = ChatCompletionsClient(
        config.require("policy_base_url"),
        config.require("policy_model"),
        token_env=config.policy_token_env,
        timeout_s=config.policy_timeout_s,
    )
    clients.callback(client.close)
    policy = RemotePolicy(client)
    return lambda: policy


def _build_judge(config: Config, clients: ExitStack) -> ExactMatchJudge | RemoteJudge:
    if config.judge_mode == "exact":
        return ExactMatchJudge()
    client = ChatCompletionsClient(
        config.require("judge_base_url"),
        config.require("judge_model"),
        token_env=config.judge_token_env,
    )
    clients.callback(client.close)
    return RemoteJudge(client)


# -- commands -----------------------------------------------------------------


def cmd_corpus_build(args: argparse.Namespace) -> int:
    items = load_manifest_dir(args.manifest_dir)
    if not items:
        raise EmptyCorpus(f"no corpus items found under {args.manifest_dir}")
    corpus = build_corpus(items, clip_len_s=args.clip_len)
    save_corpus(corpus, args.out)
    counts = Counter(item.modality for item in corpus.items)
    clips = sum(unit is not None for unit in corpus.units)
    print(
        f"{counts[Modality.TEXT]} texts, {counts[Modality.IMAGE]} images, "
        f"{counts[Modality.VIDEO]} videos, {clips} clips indexed "
        f"({len(corpus.units)} searchable units) -> {args.out}"
    )
    return 0


def _read_queries(path: str) -> list[dict]:
    """Batch mode input: one JSON object per line with a "query" string and
    an optional "gold" string.  Every line is checked before any episode
    starts.  A line ends only at "\\n", as in every JSONL file."""
    entries = []
    for number, line in enumerate(read_text(path, BadInputFile).split("\n"), 1):
        if not line.strip():
            continue
        try:
            entry = parse_json(line)
        except json.JSONDecodeError as exc:
            raise BadInputFile(f"{path}:{number}: not valid JSON: {exc}") from exc
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("query"), str)
            and isinstance(entry.get("gold", ""), str)
        ):
            raise BadInputFile(
                f'{path}:{number}: expected an object with a "query" string '
                f'and an optional "gold" string'
            )
        entries.append(entry)
    return entries


def _read_gold_manifest(path: str) -> dict[str, list[str]]:
    record = read_json(path, BadInputFile)
    gold: dict[str, list[str]] = {}
    try:
        for entry in record.get("entries", []):
            ids = entry.get("gold_evidence_ids", [])
            # a bare string would otherwise be split into its characters
            if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
                raise BadInputFile(
                    f"{path}: gold_evidence_ids must be a list of strings, got {ids!r}"
                )
            gold[entry["query"]] = ids
    except (AttributeError, KeyError, TypeError) as exc:
        raise BadInputFile(
            f'{path}: expected {{"entries": [{{"query": ..., "gold_evidence_ids": [...]}}]}}'
        ) from exc
    return gold


def cmd_run(args: argparse.Namespace) -> int:
    if args.queries is not None and (args.out is not None or args.gold is not None):
        args.usage_error("--out and --gold go with --query; --queries files carry their own gold")
    for flag, value in (("--query", args.query), ("--gold", args.gold)):
        # argv holds bytes that are not UTF-8 as lone surrogates, which no
        # output file could hold
        try:
            (value or "").encode("utf-8")
        except UnicodeEncodeError as exc:
            raise BadArgument(
                f"{flag} is not UTF-8 text: {exc.reason} at offset {exc.start}"
            ) from None
    config = load_config(args.config, args.set or ())
    out_dir = Path(args.out_dir or config.output_dir)
    if args.query is not None:
        out_path = Path(args.out) if args.out else out_dir / "trajectory.jsonl"
        runs = [(args.query, args.gold, out_path)]
    else:
        runs = [
            (entry["query"], entry.get("gold"), out_dir / f"trajectory_{index:04d}.jsonl")
            for index, entry in enumerate(_read_queries(args.queries))
        ]
    # what the episodes share is read and checked once, before the corpus
    episode_config = config.episode_config()
    failed = 0
    with ExitStack() as stack:
        new_policy = _policy_source(config, stack)
        judge = _build_judge(config, stack)
        # Ctrl-C ends the run at once, episodes in flight included: the
        # pool's exit would otherwise run every queued episode first.  A
        # parent that ignores SIGINT (a background job) keeps it ignored.
        if signal.getsignal(signal.SIGINT) is signal.default_int_handler:
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            stack.callback(signal.signal, signal.SIGINT, signal.default_int_handler)
        corpus = load_corpus(config.require("corpus_path"))

        def run_one(index: int, query: str, gold: str | None, out_path: Path) -> str:
            # a bad output location fails before any policy call is spent
            out_path.parent.mkdir(parents=True, exist_ok=True)
            if out_path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out_path))
            trajectory = run_episode(new_policy(), corpus, query, episode_config)
            verdict: int | None = None
            if gold is not None and trajectory.answer_text is not None:
                try:
                    verdict = judge.judge(query, gold, trajectory.answer_text)
                except JudgeError as exc:
                    print(f"warning: [{index}] {exc}; episode kept without reward", file=sys.stderr)
            trajectory.reward = verdict
            save_trajectory(trajectory, out_path)
            status = "answered" if trajectory.answer_text is not None else "truncated"
            verdict_text = "absent" if verdict is None else str(verdict)
            return (
                f"[{index}] {status} after {len(trajectory.records)} cycles, "
                f"verdict {verdict_text} -> {out_path}"
            )

        with ThreadPoolExecutor(max_workers=args.parallel) as pool:
            futures = [pool.submit(run_one, index, *run) for index, run in enumerate(runs)]
            for index, future in enumerate(futures):
                try:
                    print(future.result())
                except (DomainError, OSError) as exc:
                    failed += 1
                    _report(exc, f"[{index}] ")
    return 1 if failed else 0


def cmd_prune(args: argparse.Namespace) -> int:
    gold_by_query = _read_gold_manifest(args.gold_manifest) if args.gold_manifest else {}

    trajectories = [load_trajectory(path) for path in args.trajectories]
    by_query: dict[str, list[Trajectory]] = {}
    for trajectory in trajectories:
        by_query.setdefault(trajectory.query, []).append(trajectory)

    groups = []
    audits = []
    for query, group_trajectories in by_query.items():
        group = prepare_group(group_trajectories, gold_by_query.get(query, []))
        groups.append(group)
        audits.append(audit_report(group, group_trajectories))

    batch_path = Path(args.out_batch)
    write_text_atomic(batch_path, export_training_batch(groups))
    audit_text = "\n".join(audits)
    if args.out_audit:
        write_text_atomic(args.out_audit, audit_text)
    print(audit_text, end="")
    total = sum(len(r.segments) for g in groups for r in g.rollouts)
    masked = sum(
        e.mu for g in groups for r in g.rollouts for e in r.mask.entries
    )
    print(f"{len(groups)} groups, {total} segments, {masked} masked -> {batch_path}")
    return 0


def _stats_for(trajectory: Trajectory) -> dict:
    searches = sum(1 for r in trajectory.records if r.kind == "retrieve")
    prompt_chars = sum(r.prompt_chars + r.memorize_prompt_chars for r in trajectory.records)
    return {
        "query": trajectory.query,
        "cycles": len(trajectory.records),
        "searches": searches,
        "answered": trajectory.answer_text is not None,
        "truncated": trajectory.truncated,
        "duplicate_queries": trajectory.graph.duplicate_query_count(),
        "prompt_chars": prompt_chars,
        "token_proxy": prompt_chars // TOKEN_CHARS,
        "reward": trajectory.reward,
    }


def cmd_stats(args: argparse.Namespace) -> int:
    reports = [_stats_for(load_trajectory(path)) for path in args.trajectories]
    summary = {
        "episodes": len(reports),
        "total_duplicate_queries": sum(r["duplicate_queries"] for r in reports),
        "total_token_proxy": sum(r["token_proxy"] for r in reports),
        "answered": sum(1 for r in reports if r["answered"]),
        "truncated": sum(1 for r in reports if r["truncated"]),
    }
    payload = {"episodes": reports, "summary": summary, "token_proxy_note": "chars/4 proxy"}
    if args.out:
        write_text_atomic(args.out, canonical_dumps(payload) + "\n")
    for report in reports:
        print(
            f"{report['query'][:60]!r}: {report['cycles']} cycles "
            f"({report['searches']} searches), duplicates {report['duplicate_queries']}, "
            f"~{report['token_proxy']} tokens (chars/4 proxy)"
        )
    print(
        f"total: {summary['episodes']} episodes, {summary['answered']} answered, "
        f"{summary['truncated']} truncated, {summary['total_duplicate_queries']} duplicate "
        f"queries, ~{summary['total_token_proxy']} tokens"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    server = make_search_server(
        corpus, host=args.host, port=args.port, default_k=args.k, n_frames=args.n_frames
    )
    host, port = server.server_address[:2]

    # SIGTERM, and SIGINT unless the parent ignores it (a background job),
    # ask the serving loop to stop from another thread.  A KeyboardInterrupt
    # raised by the signal could land inside threading's own locks, where
    # socketserver reports the broken lock and serves on.
    def stop(signum, frame) -> None:
        threading.Thread(target=server.shutdown, daemon=True).start()

    stops = [signal.SIGTERM]
    if signal.getsignal(signal.SIGINT) is signal.default_int_handler:
        stops.append(signal.SIGINT)
    previous = {signum: signal.signal(signum, stop) for signum in stops}
    print(f"serving POST /search on http://{host}:{port}", flush=True)
    try:
        # the loop sees a stop request only between polls
        server.serve_forever(poll_interval=0.05)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
    return 0


def cmd_config_dump(args: argparse.Namespace) -> int:
    print(dump_config(load_config(args.config)), end="")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphmem",
        description="Graph-structured agentic retrieval memory engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    corpus = sub.add_parser("corpus", help="corpus management")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    build = corpus_sub.add_parser("build", help="build a corpus file from manifests")
    build.add_argument("--manifest-dir", required=True)
    build.add_argument("--out", required=True)
    build.add_argument("--clip-len", type=float, default=60.0)
    build.set_defaults(func=cmd_corpus_build)

    run = sub.add_parser("run", help="run episodes against a corpus")
    run.add_argument("--config", required=True)
    group = run.add_mutually_exclusive_group(required=True)
    group.add_argument("--query")
    group.add_argument("--queries", help="JSONL file of {query, gold?} entries")
    run.add_argument("--gold", help="reference answer (with --query)")
    run.add_argument("--out", help="trajectory output path (with --query)")
    run.add_argument("--out-dir", help="output directory (defaults to config output_dir)")
    run.add_argument("--parallel", type=_positive_int, default=1)
    run.add_argument(
        "--set", action="append", metavar="FIELD=VALUE",
        help="override a config field (repeatable), e.g. --set t_max=3",
    )
    run.set_defaults(func=cmd_run, usage_error=run.error)

    prune = sub.add_parser("prune", help="segment, mask, and export training batches")
    prune.add_argument("--trajectories", nargs="+", required=True)
    prune.add_argument("--gold-manifest")
    prune.add_argument("--out-batch", required=True)
    prune.add_argument("--out-audit")
    prune.set_defaults(func=cmd_prune)

    stats = sub.add_parser("stats", help="per-episode diagnostics")
    stats.add_argument("--trajectories", nargs="*", default=[])
    stats.add_argument("--out", help="machine-readable report path")
    stats.set_defaults(func=cmd_stats)

    serve = sub.add_parser("serve", help="HTTP search endpoint over a corpus")
    serve.add_argument("--corpus", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument("--k", type=int, default=5)
    serve.add_argument("--n-frames", type=int, default=8)
    serve.set_defaults(func=cmd_serve)

    config = sub.add_parser("config", help="config management")
    config_sub = config.add_subparsers(dest="config_command", required=True)
    dump = config_sub.add_parser("dump", help="print the effective config")
    dump.add_argument("--config")
    dump.set_defaults(func=cmd_config_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        _report(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
