"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines.  Every tolerance and count is pinned here; the oracles live
in helpers.py and are independent re-implementations of the definitions.
"""

import bisect
import itertools
import json
import math
import random
import time
from pathlib import Path

import pytest

from graphmem.cli import main
from graphmem.config import load_config
from graphmem.energy import (
    EnergyParams,
    EnergyReport,
    ItemModality,
    VisualItem,
    allocate_budget,
    recursive_energy,
    select_top_k,
)
from graphmem.graph import GraphTerminal, new_graph
from graphmem.protocol import ProtocolError, parse_response, serialize_action
from graphmem.retrieval import (
    CorpusItem,
    Modality,
    build_corpus,
    embed,
    load_corpus,
    search,
    segment_video,
)
from graphmem.runtime import ScriptedPolicy, judge_exact, run_episode
from graphmem.training import (
    MaskEntry,
    ObjectiveInputs,
    PruningMask,
    Rollout,
    RolloutGroup,
    masked_objective,
    pruning_mask,
)
from helpers import (
    brute_force_mu,
    forward_reachability_path,
    naive_omega,
    plain_clipped_objective,
    pure_python_topk,
    random_action,
    random_graph_with_items,
    random_response,
    random_text,
)
from test_training import segment

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_energy_oracle_equivalence():
    """recursive scoring matches the naive definitional evaluator on 1,000
    random DAGs (<= 20 nodes, <= 4 items/node, random decay/feedback) to
    1e-9, in under 10 seconds."""
    rng = random.Random(0xE0E1)
    started = time.monotonic()
    checked_items = 0
    for _ in range(1000):
        graph = random_graph_with_items(rng, max_nodes=20, max_items_per_node=4)
        params = EnergyParams(
            lambda_decay=rng.uniform(0.0, 1.0), gamma_feedback=rng.uniform(0.0, 1.0)
        )
        got = recursive_energy(graph, params)
        expected = naive_omega(graph, params)
        assert set(got.total) == set(expected)
        for ordinal, value in expected.items():
            assert abs(got.total[ordinal] - value) < 1e-9
        checked_items += len(expected)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    report(1, f"1000 random DAGs, {checked_items} items, {elapsed:.1f}s, tol 1e-9")


def test_criterion_02_hand_checked_energy_vector():
    """The 3-node chain reproduces the oracle-computed scores to 1e-9 with
    the default constants (decay 0.1, feedback 0.3)."""
    graph = new_graph("chain")
    graph.add_search_node("v1", {"root"}, "q1")
    graph.add_search_node("v2", {"v1"}, "q2")
    graph.append_item(VisualItem(0, 1, 0, ItemModality.TEXT, "a", priority=5))
    graph.append_item(VisualItem(1, 2, 0, ItemModality.TEXT, "b", priority=3))
    graph.populate_node(1, "s1", [0])
    graph.populate_node(2, "s2", [1])
    params = EnergyParams(lambda_decay=0.1, gamma_feedback=0.3)
    got = recursive_energy(graph, params)
    oracle = naive_omega(graph, params)
    # frozen from a 40-digit evaluation: 2 e^{-0.1} + 0.15
    assert abs(got.total[1] - 0.5) < 1e-9
    assert abs(got.node_mean[2] - 0.5) < 1e-9
    assert abs(got.total[0] - 1.9596748360719192) < 1e-9
    for ordinal, value in oracle.items():
        assert abs(got.total[ordinal] - value) < 1e-9
    report(2, "chain omega = (1.959674836..., 0.5), tol 1e-9")


def test_criterion_03_budget_conservation_and_monotonicity():
    """Over 10,000 random assignments the budget never exceeds the total and
    follows the score ordering; the {omega=3,1; total=100} case is exactly
    {75, 25}."""
    rng = random.Random(0xB0D9)
    for _ in range(10_000):
        n = rng.randint(1, 64)
        items = [
            VisualItem(k, rng.randint(0, 5), k, ItemModality.TEXT, f"r{k}")
            for k in range(n)
        ]
        pool = [0.0, 1.0, rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 1000)]
        totals = {k: rng.choice(pool) for k in range(n)}
        report_obj = EnergyReport(totals, {}, 0)
        params = EnergyParams(
            s_total=rng.randint(1, 10**7),
            top_k=rng.randint(1, n + 2),
            uniform_mode=rng.random() < 0.1,
        )
        retained = select_top_k(report_obj, params, items)
        assignment = allocate_budget(retained, report_obj, params)
        assert sum(assignment.budgets.values()) <= params.s_total
        ordered = sorted(retained, key=lambda k: -totals[k])
        budgets = [assignment.budgets[k] for k in ordered]
        assert all(a >= b for a, b in zip(budgets, budgets[1:]))

    exact = allocate_budget(
        (0, 1),
        EnergyReport({0: 3.0, 1: 1.0}, {}, 0),
        EnergyParams(s_total=100, top_k=2),
    )
    assert exact.budgets == {0: 75, 1: 25}
    assert exact.slack == 0
    report(3, "10,000 assignments conserve and order budgets; {3,1;100} -> {75,25}")


def test_criterion_04_mask_correctness():
    """The pruning mask equals the brute-force indicator expression on
    exhaustively enumerated small graphs (all path/valuable/reward combos)
    and on 1,000 random larger cases."""
    combos = 0
    for n_search in range(0, 7):  # root + searches + answer <= 8 nodes
        searches = list(range(1, n_search + 1))
        for path_bits, rval_bits, reward in itertools.product(
            range(2**n_search), range(2**n_search), (0, 1)
        ):
            on_path = {searches[i] for i in range(n_search) if path_bits >> i & 1}
            r_val = {searches[i] for i in range(n_search) if rval_bits >> i & 1}
            graph = new_graph("q")
            for i in searches:
                graph.add_search_node(f"s{i}", {"root"}, f"q{i}")
            graph.add_answer_node({f"s{i}" for i in on_path} or {"root"}, "ans")
            critical = graph.critical_path()
            assert critical == forward_reachability_path(graph)
            segments = [segment(i, index=k) for k, i in enumerate(searches)]
            segments.append(segment(None, index=len(segments)))
            mask = pruning_mask(segments, reward, critical, r_val)
            for seg, entry in zip(segments, mask.entries):
                assert entry.mu == brute_force_mu(reward, seg.node_index, critical, r_val)
            combos += 1

    rng = random.Random(0x3A5C)
    for _ in range(1000):
        graph = random_graph_with_items(rng, max_nodes=20, max_items_per_node=0)
        search_nodes = [n.index for n in graph.nodes[1:]]
        if search_nodes and rng.random() < 0.8:
            parents = {
                graph.nodes[i].title
                for i in rng.sample(search_nodes, rng.randint(1, len(search_nodes)))
            }
            graph.add_answer_node(parents, "ans")
        critical = graph.critical_path()
        assert critical == forward_reachability_path(graph)
        r_val = {i for i in search_nodes if rng.random() < 0.3}
        reward = rng.randint(0, 1)
        segments = [segment(i, index=k) for k, i in enumerate(search_nodes)]
        mask = pruning_mask(segments, reward, critical, r_val)
        for seg, entry in zip(segments, mask.entries):
            assert entry.mu == brute_force_mu(reward, seg.node_index, critical, r_val)
    report(4, f"{combos} exhaustive small-graph combos + 1000 random cases, 100% agreement")


def test_criterion_05_objective_gating():
    """All-unmasked equals the plain clipped objective to 1e-12; all-masked
    is exactly 0; flipping one mask bit changes the value by exactly that
    term's contribution over the segment count."""
    rng = random.Random(0x0B7E)
    for _ in range(500):
        n_rollouts = rng.randint(1, 5)
        rewards = [rng.randint(0, 1) for _ in range(n_rollouts)]
        mean = sum(rewards) / n_rollouts
        std = max(math.sqrt(sum((r - mean) ** 2 for r in rewards) / n_rollouts), 1e-6)
        advantages = tuple((r - mean) / std for r in rewards)
        rollouts, ratios = [], []
        for g in range(n_rollouts):
            n = rng.randint(1, 6)
            ratios.append(tuple(rng.uniform(0.05, 3.0) for _ in range(n)))
            rollouts.append(
                Rollout(f"g{g}", rewards[g], tuple(segment(i + 1, f"g{g}", i) for i in range(n)))
            )
        group = RolloutGroup("q", rollouts)
        eps = rng.choice([0.1, 0.2, 0.3])
        inputs = ObjectiveInputs(tuple(ratios), advantages, eps)
        zero_masks = [
            PruningMask(tuple(MaskEntry(0, "unmasked") for _ in row)) for row in ratios
        ]
        unmasked_value = masked_objective(group, inputs, zero_masks)
        assert abs(unmasked_value - plain_clipped_objective(ratios, advantages, eps)) < 1e-12

        full_masks = [
            PruningMask(tuple(MaskEntry(1, "dead_end_positive") for _ in row)) for row in ratios
        ]
        assert masked_objective(group, inputs, full_masks) == 0.0

        g_flip = rng.randrange(n_rollouts)
        i_flip = rng.randrange(len(ratios[g_flip]))
        flipped = [
            PruningMask(
                tuple(
                    MaskEntry(1 if (g == g_flip and i == i_flip) else 0, "unmasked")
                    for i in range(len(ratios[g]))
                )
            )
            for g in range(n_rollouts)
        ]
        flipped_value = masked_objective(group, inputs, flipped)
        ratio = ratios[g_flip][i_flip]
        advantage = advantages[g_flip]
        term = min(ratio * advantage, min(max(ratio, 1 - eps), 1 + eps) * advantage)
        total_segments = sum(len(row) for row in ratios)
        assert abs((unmasked_value - flipped_value) - term / total_segments) < 1e-12
    report(5, "gating identities hold on 500 random groups, tol 1e-12")


def test_criterion_06_protocol_robustness():
    """Ten to the sixth arbitrary inputs never crash the parser (typed errors
    only), and 10,000 serialize -> parse round-trips are identity."""
    rng = random.Random(0xF022)
    tags = ["<tool_call>", "</tool_call>", "<thinking>", "</thinking>", '{"name":', "arguments"]
    parsed_ok = 0
    for i in range(1_000_000):
        style = i % 10
        if style < 7:
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 60))).decode(
                "latin-1"
            )
        elif style < 9:
            blob = "".join(
                rng.choice(tags) if rng.random() < 0.4 else random_text(rng, empty_ok=True)
                for _ in range(rng.randrange(1, 5))
            )
        else:
            blob = random_response(rng)
            cut = rng.randrange(len(blob) + 1)
            blob = blob[:cut] + rng.choice(["", "}", "<", '"', "]"]) + blob[cut:]
        try:
            parse_response(blob)
            parsed_ok += 1
        except ProtocolError:
            pass

    for _ in range(10_000):
        action = random_action(rng)
        reparsed = parse_response(serialize_action(action, random_text(rng, empty_ok=True)))
        assert reparsed.action == action
    report(6, f"10^6 fuzz inputs (no crash, {parsed_ok} parsed) + 10,000 identity round-trips")


def test_criterion_07_end_to_end_determinism():
    """The scripted demo (2 searches + answer over the committed toy corpus)
    reproduces the committed golden trajectory byte-for-byte in under 5s."""
    started = time.monotonic()
    config = load_config(FIXTURES / "demo_config.json")
    corpus = load_corpus(FIXTURES / "demo_corpus.json")
    policy = ScriptedPolicy.from_file(FIXTURES / "demo_script.json")
    query = "Who directed the film Solaris Dawn and in which year did it premiere?"
    trajectory = run_episode(policy, corpus, query, config.episode_config())
    trajectory.reward = judge_exact(trajectory.answer_text, "mira chen, 2019")
    elapsed = time.monotonic() - started
    expected = (GOLDEN / "demo_trajectory.jsonl").read_text(encoding="utf-8")
    assert trajectory.to_jsonl() == expected
    assert trajectory.reward == 1
    assert elapsed < 5.0, f"demo took {elapsed:.1f}s"
    report(7, f"golden trajectory byte-identical, {elapsed:.2f}s")


def test_criterion_08_structural_safety():
    """10,000 random legal action sequences never violate the parent-below-
    child rule, never mutate a terminal graph, and the critical path always
    matches the reachability oracle."""
    rng = random.Random(0x5AFE)
    for _ in range(10_000):
        graph = new_graph("q")
        titles = ["root"]
        mutations = 1  # the root
        for _ in range(rng.randint(0, 7)):
            if graph.is_terminal:
                break
            op = rng.random()
            if op < 0.75 or len(titles) == 1:
                title = f"s{len(titles)}"
                parents = {rng.choice(titles) for _ in range(rng.randint(1, 2))}
                graph.add_search_node(title, parents, f"query {rng.randint(0, 3)}")
                titles.append(title)
                mutations += 1
            else:
                parents = {rng.choice(titles)}
                graph.add_answer_node(parents, "ans")
                mutations += 1
        for node in graph.nodes:
            assert all(parent < node.index for parent in node.parent_indices)
        assert len(graph.nodes) == mutations
        assert graph.critical_path() == forward_reachability_path(graph)
        if graph.is_terminal:
            size = len(graph.nodes)
            with pytest.raises(GraphTerminal):
                graph.add_search_node("late", {"root"}, "late")
            with pytest.raises(GraphTerminal):
                graph.add_answer_node({"root"}, "late")
            assert len(graph.nodes) == size
    report(8, "10,000 random legal sequences: invariants held, paths match oracle")


def test_criterion_09_duplicate_query_diagnostic(tmp_path, capsys):
    """The stats command reports the exact known duplicate counts on the
    fixture trajectories."""
    out = tmp_path / "report.json"
    code = main([
        "stats", "--trajectories",
        str(GOLDEN / "demo_trajectory.jsonl"),
        str(FIXTURES / "dup_trajectory.jsonl"),
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert [e["duplicate_queries"] for e in payload["episodes"]] == [0, 1]
    assert payload["summary"]["total_duplicate_queries"] == 1
    assert out.read_bytes() == (GOLDEN / "stats_report.json").read_bytes()
    capsys.readouterr()
    report(9, "fixture duplicate counts exact: [0, 1]")


def test_criterion_10_search_correctness():
    """Top-k equals the exhaustive pure-Python cosine oracle on 1,000 random
    corpora, and clip segmentation covers [0, duration) exactly with no
    overlap for 10,000 random durations."""
    rng = random.Random(0x5EA2)
    vocabulary = [f"term{i}" for i in range(120)]
    for i in range(1000):
        size = rng.randint(100, 1000) if i % 20 == 0 else rng.randint(1, 50)
        dim = 256 if i % 10 == 0 else 64
        items = []
        for d in range(size):
            text = " ".join(rng.choices(vocabulary, k=rng.randint(1, 10)))
            if d and rng.random() < 0.05:
                text = items[rng.randrange(d)].content  # exact duplicates: tie coverage
            items.append(CorpusItem(f"doc{d}", Modality.TEXT, text))
        corpus = build_corpus(items, embed_dim=dim)
        query = " ".join(rng.choices(vocabulary, k=rng.randint(1, 5)))
        k = rng.randint(1, min(size + 3, 25))
        oracle = pure_python_topk(
            [list(map(float, embed(item.content, dim=dim))) for item in items],
            list(map(float, embed(query, dim=dim))),
            k,
        )
        got = [obs.source_id for obs in search(corpus, query, k)]
        owner = [bisect.bisect_right(corpus.first_unit, j) - 1 for j in oracle]
        assert got == [corpus.items[pos].id for pos in owner]

    for _ in range(10_000):
        duration = rng.uniform(0.001, 50_000)
        clip_len = rng.choice([60.0, rng.uniform(0.1, 300)])
        bounds = segment_video(duration, clip_len)
        assert bounds[0][0] == 0.0
        assert bounds[-1][1] == duration
        for (_, end), (next_start, _) in zip(bounds, bounds[1:]):
            assert end == next_start
        assert all(end > start for start, end in bounds)
        # length check allows ulp-scale float error at large start offsets
        assert all(
            end - start <= clip_len or math.isclose(end - start, clip_len, rel_tol=1e-9)
            for start, end in bounds
        )
    report(10, "1,000 corpora match the cosine oracle; 10,000 durations tile exactly")
