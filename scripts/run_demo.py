#!/usr/bin/env python3
"""End-to-end demo on the committed toy corpus.

Runs the scripted two-search episode, judges the answer, prints the final
graph linearization and budget assignments, then segments the trajectory and
shows the pruning audit for a one-rollout group.

Usage: python scripts/run_demo.py   (from the repository root)
"""

from pathlib import Path

from graphmem.config import load_config
from graphmem.retrieval import load_corpus
from graphmem.runtime import ScriptedPolicy, judge_exact, run_episode
from graphmem.training import audit_report, prepare_group

ROOT = Path(__file__).parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

QUERY = "Who directed the film Solaris Dawn and in which year did it premiere?"
GOLD = "Mira Chen, 2019"


def main() -> None:
    config = load_config(FIXTURES / "demo_config.json")
    corpus = load_corpus(FIXTURES / "demo_corpus.json")
    policy = ScriptedPolicy.from_file(FIXTURES / "demo_script.json")

    trajectory = run_episode(policy, corpus, QUERY, config.episode_config())
    trajectory.reward = judge_exact(trajectory.answer_text, GOLD)

    print(f"query:  {QUERY}")
    print(f"answer: {trajectory.answer_text}  (reward {trajectory.reward})")
    print(f"cycles: {len(trajectory.records)}  truncated: {trajectory.truncated}")
    print()
    print("final graph:")
    print(trajectory.graph.linearize())
    print("memory bank budgets:")
    budgets = trajectory.records[-1].assignment.budgets
    for item in trajectory.graph.memory_bank:
        status = f"budget {budgets[item.ordinal]}" if item.ordinal in budgets else "dropped"
        print(f"  item {item.ordinal} ({item.modality.value}, p={item.priority}): {status}")
    print()
    group = prepare_group([trajectory], gold_evidence_ids=["doc-director", "doc-year"])
    print(audit_report(group, [trajectory]))


if __name__ == "__main__":
    main()
