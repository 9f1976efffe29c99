"""Trainer-side preparation of rollout groups.

Trajectories are cut into node-construction segments (one per search node,
plus a terminal block when the episode answered).  Each segment gets a binary
pruning mask: in rewarded episodes, segments whose node never reaches the
answer (dead ends) are masked; in failed episodes, segments whose retrieval
actually hit gold evidence (valuable retrieval) are masked so they are not
penalized.  Outcome rewards broadcast to group-normalized advantages, and the
masked clipped objective value is computed here; gradient steps, log-probs,
and ratio computation belong to the external trainer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .canon import Record, canonical_dumps
from .errors import DomainError
from .graph import NodeKind
from .runtime import Trajectory

ADVANTAGE_STD_FLOOR = 1e-6


class TrainingError(DomainError):
    pass


class TranscriptMismatch(TrainingError):
    pass


class MisalignedInputs(TrainingError):
    pass


class IncompleteGroup(TrainingError):
    pass


class MaskTag(str, Enum):
    DEAD_END_POSITIVE = "dead_end_positive"
    VALUABLE_NEGATIVE = "valuable_negative"
    UNMASKED = "unmasked"


@dataclass(frozen=True)
class TrajectorySegment(Record, keep_null=("node_index",)):
    """One node-construction unit: the prompt fingerprint plus the response
    spans of the retrieve and memorize turns, or the answer turn for the
    terminal block (``node_index`` is None there)."""

    rollout_id: str
    segment_index: int
    node_index: int | None
    prompt_digest: str
    retrieve_response: str = ""
    memorize_response: str = ""
    answer_response: str = ""

    @property
    def is_terminal(self) -> bool:
        return self.node_index is None


@dataclass(frozen=True)
class MaskEntry:
    mu: int
    tag: MaskTag


@dataclass(frozen=True)
class PruningMask:
    entries: tuple[MaskEntry, ...]

    def mus(self) -> tuple[int, ...]:
        return tuple(entry.mu for entry in self.entries)


@dataclass
class Rollout:
    rollout_id: str
    reward: int
    segments: tuple[TrajectorySegment, ...]
    mask: PruningMask | None = None
    advantage: float | None = None


@dataclass
class RolloutGroup:
    """All rollouts of one query, plus the gold evidence ids used for
    valuable-retrieval detection."""

    query: str
    rollouts: list[Rollout]
    gold_evidence_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class ObjectiveInputs:
    """Per-segment probability ratios (supplied by the trainer; their token
    aggregation is opaque here), per-rollout advantages, and the clip width."""

    ratios: tuple[tuple[float, ...], ...]
    advantages: tuple[float, ...]
    clip_epsilon: float = 0.2

    def __post_init__(self) -> None:
        if not 0 < self.clip_epsilon < 1:
            raise ValueError(f"clip_epsilon must be in (0, 1), got {self.clip_epsilon!r}")
        for rollout_ratios in self.ratios:
            for ratio in rollout_ratios:
                if not ratio > 0:
                    raise ValueError(f"probability ratios must be > 0, got {ratio!r}")


def segment_trajectory(trajectory: Trajectory, rollout_id: str = "r0") -> list[TrajectorySegment]:
    """One segment per constructed search node, in order, plus one terminal
    segment iff the episode answered.  Truncated episodes yield no terminal
    segment; a trailing skeletal node (no memorize transcript) is not a
    constructed node and yields none either."""
    search_nodes = [n.index for n in trajectory.graph.nodes if n.kind is NodeKind.SEARCH]
    populated = [i for i in search_nodes if trajectory.graph.nodes[i].populated]
    retrieve_records = [r for r in trajectory.records if r.kind == "retrieve"]
    if [r.node_index for r in retrieve_records] != populated:
        raise TranscriptMismatch(
            f"retrieve transcripts cover nodes "
            f"{[r.node_index for r in retrieve_records]} but populated search nodes are {populated}"
        )
    answer_records = [r for r in trajectory.records if r.kind == "answer"]
    answered = trajectory.answer_text is not None
    if answered != bool(answer_records):
        raise TranscriptMismatch("answer transcript and answer node disagree")

    segments = []
    for record in retrieve_records:
        segments.append(
            TrajectorySegment(
                rollout_id=rollout_id,
                segment_index=len(segments),
                node_index=record.node_index,
                prompt_digest=record.prompt_digest,
                retrieve_response=record.response,
                memorize_response=record.memorize_response,
            )
        )
    for record in answer_records:
        segments.append(
            TrajectorySegment(
                rollout_id=rollout_id,
                segment_index=len(segments),
                node_index=None,
                prompt_digest=record.prompt_digest,
                answer_response=record.response,
            )
        )
    return segments


def detect_valuable_retrieval(
    trajectory: Trajectory,
    gold_evidence_ids: Iterable[str],
) -> set[int]:
    """Node indices whose retrieval cycle surfaced gold evidence: an
    observation whose source item id is in the gold set."""
    gold = set(gold_evidence_ids)
    if not gold:
        return set()
    hits: set[int] = set()
    for record in trajectory.records:
        if record.kind != "retrieve":
            continue
        if any(obs.source_id in gold for obs in record.observations):
            hits.add(record.node_index)
    return hits


def pruning_mask(
    segments: Sequence[TrajectorySegment],
    reward: int,
    critical_path: set[int],
    r_val: set[int],
) -> PruningMask:
    """Binary gradient gate per segment:

        mu = [reward=1 and node off the critical path]   (dead end)
           + [reward=0 and node in the valuable set]     (valuable retrieval)

    Terminal answer blocks are never masked: they define the reward itself.
    """
    if reward not in (0, 1):
        raise TrainingError(f"reward must be 0 or 1, got {reward!r}")
    entries = []
    for segment in segments:
        if segment.is_terminal:
            entries.append(MaskEntry(0, MaskTag.UNMASKED))
            continue
        dead_end = reward == 1 and segment.node_index not in critical_path
        valuable = reward == 0 and segment.node_index in r_val
        mu = int(dead_end) + int(valuable)
        if dead_end:
            tag = MaskTag.DEAD_END_POSITIVE
        elif valuable:
            tag = MaskTag.VALUABLE_NEGATIVE
        else:
            tag = MaskTag.UNMASKED
        entries.append(MaskEntry(mu, tag))
    return PruningMask(tuple(entries))


def group_advantage(rewards: Sequence[int]) -> list[float]:
    """Group-normalized advantages: (r - mean) / std with the (population)
    std floored at 1e-6; every segment of a rollout inherits its rollout's
    value."""
    if not rewards:
        raise TrainingError("advantage needs at least one rollout")
    for reward in rewards:
        if reward not in (0, 1):
            raise TrainingError(f"rewards must be binary, got {reward!r}")
    mean = sum(rewards) / len(rewards)
    # added left to right: sum() of floats rounds differently from Python 3.12
    variance = 0
    for reward in rewards:
        variance += (reward - mean) ** 2
    variance /= len(rewards)
    std = max(math.sqrt(variance), ADVANTAGE_STD_FLOOR)
    return [(r - mean) / std for r in rewards]


def masked_objective(
    group: RolloutGroup,
    inputs: ObjectiveInputs,
    masks: Sequence[PruningMask],
) -> float:
    """The masked clipped surrogate value:

        (1 / sum_g n_g) * sum_g sum_i (1 - mu_{g,i})
            * min(r_{g,i} * A_g, clip(r_{g,i}, 1-eps, 1+eps) * A_g)

    Only the scalar value is computed; gradients are the trainer's business.
    """
    n_rollouts = len(group.rollouts)
    if not (len(inputs.ratios) == len(inputs.advantages) == len(masks) == n_rollouts):
        raise MisalignedInputs(
            f"group has {n_rollouts} rollouts; got {len(inputs.ratios)} ratio rows, "
            f"{len(inputs.advantages)} advantages, {len(masks)} masks"
        )
    total_segments = 0
    accumulated = 0.0
    eps = inputs.clip_epsilon
    for g, rollout in enumerate(group.rollouts):
        n = len(rollout.segments)
        if len(inputs.ratios[g]) != n or len(masks[g].entries) != n:
            raise MisalignedInputs(
                f"rollout {rollout.rollout_id!r} has {n} segments; got "
                f"{len(inputs.ratios[g])} ratios and {len(masks[g].entries)} mask entries"
            )
        total_segments += n
        advantage = inputs.advantages[g]
        for i in range(n):
            mu = masks[g].entries[i].mu
            ratio = inputs.ratios[g][i]
            clipped = min(max(ratio, 1 - eps), 1 + eps)
            accumulated += (1 - mu) * min(ratio * advantage, clipped * advantage)
    if total_segments == 0:
        return 0.0
    return accumulated / total_segments


def prepare_group(
    trajectories: Sequence[Trajectory],
    gold_evidence_ids: Iterable[str] = (),
) -> RolloutGroup:
    """Segment, judge-check, mask, and weight a group of rollouts for one
    query.  Trajectories must already carry rewards (truncated, unanswered
    rollouts count as reward 0)."""
    if not trajectories:
        raise TrainingError("a rollout group needs at least one trajectory")
    query = trajectories[0].query
    for trajectory in trajectories:
        if trajectory.query != query:
            raise TrainingError(
                f"all rollouts must share one query; got {trajectory.query!r} and {query!r}"
            )
    gold = tuple(gold_evidence_ids)
    rollouts: list[Rollout] = []
    rewards: list[int] = []
    for i, trajectory in enumerate(trajectories):
        rollout_id = f"r{i}"
        reward = trajectory.reward
        if reward is None:
            if trajectory.answer_text is not None:
                raise IncompleteGroup(
                    f"rollout {rollout_id!r} is answered but not judged; judge it first"
                )
            reward = 0  # truncated rollouts are failures
        segments = tuple(segment_trajectory(trajectory, rollout_id))
        mask = pruning_mask(
            segments,
            reward,
            trajectory.graph.critical_path(),
            detect_valuable_retrieval(trajectory, gold),
        )
        rollouts.append(Rollout(rollout_id, reward, segments, mask=mask))
        rewards.append(reward)
    advantages = group_advantage(rewards)
    for rollout, advantage in zip(rollouts, advantages):
        rollout.advantage = advantage
    return RolloutGroup(query=query, rollouts=rollouts, gold_evidence_ids=gold)


def export_training_batch(groups: Sequence[RolloutGroup]) -> str:
    """Line-delimited batch hand-off: one record per segment carrying the
    prompt ref, the response spans, the mask bit with its provenance tag, and
    the broadcast advantage, rounded to 6 decimal places.  Masked segments
    stay in the file (the trainer decides whether to drop or zero-weight
    them).  Deterministic ordering: groups, then rollouts, then segments."""
    lines = []
    for group_index, group in enumerate(groups):
        for rollout in group.rollouts:
            if rollout.mask is None or rollout.advantage is None:
                raise IncompleteGroup(
                    f"rollout {rollout.rollout_id!r} is missing its mask or advantage"
                )
            for segment, entry in zip(rollout.segments, rollout.mask.entries):
                record = {
                    "group": group_index,
                    "query": group.query,
                    "reward": rollout.reward,
                    "advantage": round(rollout.advantage, 6),
                    "mu": entry.mu,
                    "tag": entry.tag.value,
                    **segment.to_dict(),
                }
                lines.append(canonical_dumps(record))
    return "\n".join(lines) + "\n" if lines else ""


def audit_report(group: RolloutGroup, trajectories: Sequence[Trajectory]) -> str:
    """Human-readable pruning audit: per node-constructing segment, the node
    title, critical-path membership, and the mask verdict."""
    lines = [f"query: {group.query}", f"gold evidence ids: {list(group.gold_evidence_ids)}"]
    for rollout, trajectory in zip(group.rollouts, trajectories):
        path = trajectory.graph.critical_path()
        outcome = "reward=1" if rollout.reward == 1 else "reward=0"
        if trajectory.truncated:
            outcome += " (truncated)"
        lines.append(f"rollout {rollout.rollout_id}: {outcome}, advantage {rollout.advantage:+.6f}")
        for segment, entry in zip(rollout.segments, rollout.mask.entries):
            if segment.is_terminal:
                lines.append(f"  [terminal] answer block: mu={entry.mu} ({entry.tag.value})")
                continue
            node = trajectory.graph.nodes[segment.node_index]
            on_path = "on" if segment.node_index in path else "off"
            lines.append(
                f"  [node {segment.node_index}] {node.title!r} ({on_path} critical path): "
                f"mu={entry.mu} ({entry.tag.value})"
            )
    return "\n".join(lines) + "\n"
