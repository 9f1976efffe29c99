#!/usr/bin/env python3
"""Regenerate the committed golden files and fixtures under tests/.

Run from the repository root after an intentional format change, then review
the diff before committing; the goldens are the contract, this script is
only the pen.
"""

import json
from pathlib import Path

ROOT = Path(__file__).parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = ROOT / "tests" / "golden"

DEMO_QUERY = "Who directed the film Solaris Dawn and in which year did it premiere?"


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def main() -> None:
    import sys

    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import demo_items

    from graphmem.canon import canonical_dumps
    from graphmem.config import load_config
    from graphmem.energy import EnergyParams, ItemModality, VisualItem, shape_memory
    from graphmem.graph import new_graph
    from graphmem.protocol import render_context, render_observation
    from graphmem.retrieval import build_corpus, save_corpus, search
    from graphmem.runtime import ScriptedPolicy, judge_exact, run_episode, save_trajectory
    from graphmem.cli import main as cli_main

    # corpus fixtures
    manifest = {"schema": "corpus-manifest/1", "items": [i.to_dict() for i in demo_items()]}
    write(FIXTURES / "corpus" / "manifest.json", canonical_dumps(manifest) + "\n")
    corpus = build_corpus(demo_items())
    save_corpus(corpus, FIXTURES / "demo_corpus.json")
    print("wrote tests/fixtures/demo_corpus.json")

    # linearization golden
    g = new_graph("Who directed X?")
    g.add_search_node("director-search", {"root"}, "director of X")
    g.append_item(VisualItem(0, 1, 0, ItemModality.TEXT, "corpus://doc-1", priority=5))
    g.populate_node(1, "X was directed by Y", [0])
    g.add_answer_node({"director-search"}, "Y")
    write(GOLDEN / "linearize_demo.txt", g.linearize())

    # prompt bundle golden
    g = new_graph("Who directed the film Solaris Dawn?")
    g.add_search_node("director-search", {"root"}, "who directed Solaris Dawn film")
    g.append_item(VisualItem(0, 1, 0, ItemModality.TEXT, "corpus://doc-director", priority=5))
    g.append_item(
        VisualItem(1, 1, 1, ItemModality.VIDEO_FRAME, "frame://vid-interview?t=30.000",
                   priority=4, source_timestamp_s=30.0)
    )
    g.populate_node(1, "Directed by Mira Chen.", [0, 1])
    assignment = shape_memory(g, EnergyParams(s_total=500))
    write(GOLDEN / "prompt_bundle.txt", render_context(g, assignment, "INSTRUCTION").text())

    # observation block golden
    observations = search(corpus, "who directed Solaris Dawn film", 5, n_frames=4)
    write(GOLDEN / "observation_block.txt", render_observation(observations))

    # demo trajectory golden
    config = load_config(FIXTURES / "demo_config.json")
    policy = ScriptedPolicy.from_file(FIXTURES / "demo_script.json")
    trajectory = run_episode(policy, corpus, DEMO_QUERY, config.episode_config())
    trajectory.reward = judge_exact(trajectory.answer_text, "mira chen, 2019")
    assert trajectory.reward == 1
    save_trajectory(trajectory, GOLDEN / "demo_trajectory.jsonl")
    print("wrote tests/golden/demo_trajectory.jsonl")

    # duplicate-query fixture trajectory
    script = json.loads((FIXTURES / "dup_script.json").read_text(encoding="utf-8"))
    episode = config.episode_config()
    episode.t_max = 3
    truncated = run_episode(
        ScriptedPolicy(script), corpus, "Which films share a director?", episode
    )
    assert truncated.truncated and truncated.graph.duplicate_query_count() == 1
    save_trajectory(truncated, FIXTURES / "dup_trajectory.jsonl")
    print("wrote tests/fixtures/dup_trajectory.jsonl")

    # stats report golden
    code = cli_main([
        "stats", "--trajectories",
        str(GOLDEN / "demo_trajectory.jsonl"),
        str(FIXTURES / "dup_trajectory.jsonl"),
        "--out", str(GOLDEN / "stats_report.json"),
    ])
    assert code == 0
    print("wrote tests/golden/stats_report.json")


if __name__ == "__main__":
    main()
