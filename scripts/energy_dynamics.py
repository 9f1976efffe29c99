#!/usr/bin/env python3
"""Explore how decay and feedback shape token budgets.

Builds a fixed three-hop graph (an old foundational node feeding two newer
ones) and prints the per-item budget split across a small grid of decay and
feedback settings, plus the decay curve of a single item over time.  Shows
the mechanism the defaults (decay 0.1, feedback 0.3) rely on: without
feedback the oldest evidence fades; with it, foundational items hold on to
their token share.

Usage: python scripts/energy_dynamics.py
"""

from graphmem.energy import EnergyParams, ItemModality, VisualItem, recursive_energy, shape_memory
from graphmem.graph import new_graph


def build_graph():
    g = new_graph("what links the three clues?")
    g.add_search_node("foundation", {"root"}, "first clue")
    g.add_search_node("branch-a", {"foundation"}, "second clue")
    g.add_search_node("branch-b", {"foundation"}, "third clue")
    specs = [
        (1, 0, 5, "foundation evidence"),
        (2, 0, 3, "branch a evidence"),
        (3, 0, 4, "branch b evidence"),
    ]
    for owner, slot, priority, ref in specs:
        g.append_item(
            VisualItem(len(g.memory_bank), owner, slot, ItemModality.IMAGE, ref, priority=priority)
        )
    for index in (1, 2, 3):
        g.populate_node(index, f"summary {index}", [index - 1])
    return g


def budget_grid() -> None:
    print("budget split over (decay, feedback), s_total=1000, top_k=3")
    print(f"{'decay':>6} {'feedback':>9} {'foundation':>11} {'branch-a':>9} {'branch-b':>9}")
    for decay in (0.0, 0.1, 0.5, 1.0):
        for feedback in (0.0, 0.3, 1.0):
            g = build_graph()
            params = EnergyParams(
                lambda_decay=decay, gamma_feedback=feedback, s_total=1000, top_k=3
            )
            assignment = shape_memory(g, params)
            budgets = [assignment.budgets.get(k, 0) for k in range(3)]
            print(
                f"{decay:>6.1f} {feedback:>9.1f} "
                f"{budgets[0]:>11} {budgets[1]:>9} {budgets[2]:>9}"
            )


def decay_curve() -> None:
    print()
    print("foundation-item score over elapsed steps (decay 0.1)")
    g = build_graph()
    params = EnergyParams(lambda_decay=0.1, gamma_feedback=0.3)
    # without feedback, each score is the item's intrinsic value
    no_feedback = EnergyParams(lambda_decay=0.1, gamma_feedback=0.0)
    base_step = g.step
    for elapsed in range(0, 21, 4):
        g.step = base_step + elapsed
        omega = recursive_energy(g, params).total[0]
        intrinsic = recursive_energy(g, no_feedback).total[0]
        print(f"  +{elapsed:>2} steps: omega={omega:.4f} (intrinsic {intrinsic:.4f})")


if __name__ == "__main__":
    budget_grid()
    decay_curve()
