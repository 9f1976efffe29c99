"""Importance scoring and token budget allocation for the visual memory bank.

Each bank item gets a base score combining its semantic priority, the
structural centrality (out-degree) of its owning node, and exponential decay
in the number of steps since that node was created.  Scores are then
reinforced top-down: an item also earns a share of the mean score of every
child of its owning node, so early evidence that feeds later reasoning keeps
its weight.  The token budget is split across the top-K surviving items in
proportion to their reinforced scores.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from .canon import Record, is_json_type
from .errors import DomainError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .graph import MemoryGraph

S_TOTAL_DEFAULT = 5 * 256 * 32 * 32  # 1,310,720 vision tokens


class EnergyError(DomainError):
    pass


class BadPriority(EnergyError):
    pass


class ItemModality(str, Enum):
    TEXT = "text"
    IMAGE = "image"
    VIDEO_FRAME = "video_frame"


def is_priority(value: object) -> bool:
    """A priority score is an integer in [1, 5]."""
    return is_json_type(value, int) and 1 <= value <= 5


@dataclass(frozen=True)
class VisualItem(Record):
    """One entry of the graph's memory bank.

    ``ordinal`` is the item's position in the bank, ``owner_node``/``slot``
    locate it on the graph, ``payload_ref`` is an opaque pointer into the
    asset store; raw pixels never live here.  Items are immutable: a change
    is a new item put in the item's bank position.
    """

    ordinal: int
    owner_node: int
    slot: int
    modality: ItemModality
    payload_ref: str
    saliency: int = 1
    priority: int = 3
    source_timestamp_s: float | None = None
    dropped: bool = False

    def __post_init__(self) -> None:
        if self.saliency not in (0, 1):
            raise ValueError(f"saliency must be 0 or 1, got {self.saliency!r}")
        if not is_priority(self.priority):
            raise ValueError(f"priority must be an integer in [1, 5], got {self.priority!r}")


@dataclass(frozen=True)
class EnergyParams:
    """Knobs for scoring and allocation.

    ``uniform_mode`` bypasses proportional allocation and splits the budget
    evenly over retained items (the training-time configuration; dynamic
    allocation is an inference-time feature).
    """

    lambda_decay: float = 0.1
    gamma_feedback: float = 0.3
    s_total: int = S_TOTAL_DEFAULT
    top_k: int = 5
    uniform_mode: bool = False

    def __post_init__(self) -> None:
        for name in ("lambda_decay", "gamma_feedback"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.s_total <= 0:
            raise ValueError(f"s_total must be > 0, got {self.s_total!r}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k!r}")


@dataclass(frozen=True)
class EnergyReport:
    """Scores from one evaluation pass: per-item reinforced values plus the
    per-node mean used for parent feedback."""

    total: dict[int, float]
    node_mean: dict[int, float]
    evaluation_step: int


@dataclass(frozen=True)
class BudgetAssignment(Record):
    """Outcome of one shaping pass: the ranked retained ordinals, their token
    budgets, leftover tokens from floor rounding, and the step stamp used to
    detect staleness.  The budgets name the retained ordinals, in order."""

    retained: tuple[int, ...]
    budgets: dict[int, int]
    slack: int
    step: int

    def __post_init__(self) -> None:
        if tuple(self.budgets) != self.retained:
            raise ValueError(f"budgets {list(self.budgets)} must name the retained "
                             f"ordinals {list(self.retained)} in order")


def normalize_priority(priority: int) -> float:
    """Map the 1-5 priority score onto [0, 1] affinely: (p - 1) / 4."""
    if not is_priority(priority):
        raise BadPriority(f"priority must be an integer in [1, 5], got {priority!r}")
    return (priority - 1) / 4.0


# normalize_priority of each priority score, looked up per item while scoring
_PRIORITY_WEIGHT = {priority: normalize_priority(priority) for priority in range(1, 6)}
_SLOT = attrgetter("slot")


def recursive_energy(graph: "MemoryGraph", params: EnergyParams) -> EnergyReport:
    """Score every saliency-passing item, reinforcing base scores with
    feedback from descendant nodes.

    Nodes are visited in reverse index order; every edge points from a lower
    to a higher index, so children are always scored before their parents and
    each node's mean is computed exactly once.  A node without scoreable
    items contributes a mean of 0.  Items evicted by an earlier top-K pass
    keep their scores (the saliency gate is the only hard exclusion); this
    keeps repeated shaping at one step stable.

    An item's base score is ``normalize_priority(priority) *
    (1 + out_degree) * exp(-lambda_decay * age)``, multiplied in that order;
    the last two factors are the same for every item of a node, so they are
    computed once per node; with ``gamma_feedback`` 0 each score is its
    base score, bit for bit.  Sums add left to right, not with ``sum()``,
    which compensates float rounding from Python 3.12 on: the scores are the
    same bits on every supported Python.
    """
    children: list[list[int]] = [[] for _ in graph.nodes]
    for node in graph.nodes:
        for parent in node.parent_indices:
            children[parent].append(node.index)

    by_owner: defaultdict[int, list[VisualItem]] = defaultdict(list)
    for item in graph.memory_bank:
        if item.saliency == 1:
            by_owner[item.owner_node].append(item)

    total: dict[int, float] = {}
    node_mean: dict[int, float] = {}
    for node in reversed(graph.nodes):
        node_children = children[node.index]
        feedback = 0
        for child in node_children:
            feedback += node_mean[child]
        feedback = params.gamma_feedback * feedback
        # a float, so that each product below multiplies two floats; the
        # integer converts exactly, so the bits are the same
        factor = 1.0 + len(node_children)
        decay = math.exp(-params.lambda_decay * (graph.step - node.created_step))
        owned = by_owner.get(node.index)
        if not owned:
            node_mean[node.index] = 0.0
            continue
        owned.sort(key=_SLOT)
        omega_sum = 0
        for item in owned:
            omega = _PRIORITY_WEIGHT[item.priority] * factor * decay + feedback
            total[item.ordinal] = omega
            omega_sum += omega
        node_mean[node.index] = omega_sum / len(owned)
    return EnergyReport(total, node_mean, graph.step)


def select_top_k(
    report: EnergyReport,
    params: EnergyParams,
    items: Iterable[VisualItem],
) -> tuple[int, ...]:
    """Rank candidate items by (score desc, owner node asc, slot asc) and
    keep at most ``top_k`` of them."""
    ranked = sorted(
        items,
        key=lambda it: (-report.total[it.ordinal], it.owner_node, it.slot),
    )
    return tuple(it.ordinal for it in ranked[: params.top_k])


def allocate_budget(
    retained: Sequence[int],
    report: EnergyReport,
    params: EnergyParams,
) -> BudgetAssignment:
    """Split the total token budget over the retained items, floored:
    b = floor(s_total * omega / sum(omega)).

    The scores are non-negative floats, whose denominators are powers of
    two, so scaled to the largest denominator they are exact integers, and
    the floor is taken in integer arithmetic: it never over-allocates.
    Uniform mode, which reads no score, and the degenerate all-zero-score
    case split evenly.  A score that is not finite is an ``EnergyError``.
    """
    retained = tuple(retained)
    if not retained:
        return BudgetAssignment((), {}, params.s_total, report.evaluation_step)
    weights = []
    if not params.uniform_mode:
        scores = [report.total[ordinal] for ordinal in retained]
        if not all(map(math.isfinite, scores)):
            raise EnergyError(f"retained scores {scores} are not all finite; feedback "
                              "compounds with gamma_feedback down a chain of nodes")
        ratios = [score.as_integer_ratio() for score in scores]
        denominator = max(d for _, d in ratios)
        weights = [n * (denominator // d) for n, d in ratios]
    weight_sum = sum(weights)
    if weight_sum <= 0:
        share = params.s_total // len(retained)
        budgets = {ordinal: share for ordinal in retained}
    else:
        budgets = {
            ordinal: params.s_total * weight // weight_sum
            for ordinal, weight in zip(retained, weights)
        }
    slack = params.s_total - sum(budgets.values())
    return BudgetAssignment(retained, budgets, slack, report.evaluation_step)


def shape_memory(graph: "MemoryGraph", params: EnergyParams) -> BudgetAssignment:
    """One full shaping pass over the memory bank.

    Saliency-0 items are dropped outright before anything is ranked.  The
    remaining live items are scored, the top-K survive and get their budgets
    in the returned assignment, and everything else is evicted (permanently:
    evicted items never re-enter a later retained set).  Only the items this
    pass evicts are replaced in the bank; every other item stays the same
    object.  Re-running at an unchanged step reproduces the same assignment.
    """
    bank = graph.memory_bank
    live = []
    for item in bank:
        if item.dropped:
            continue
        if item.saliency == 0:
            bank[item.ordinal] = replace(item, dropped=True)
        else:
            live.append(item)

    report = recursive_energy(graph, params)
    retained = select_top_k(report, params, live)
    assignment = allocate_budget(retained, report, params)

    budgets = assignment.budgets
    for item in live:
        if item.ordinal not in budgets:
            bank[item.ordinal] = replace(item, dropped=True)
    return assignment
