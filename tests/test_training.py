import itertools
import json
import random
from pathlib import Path

import pytest

from graphmem.graph import new_graph
from graphmem.protocol import (
    Answer,
    Memorize,
    MemorizeDecision,
    Retrieve,
    serialize_action,
)
from graphmem.runtime import EpisodeConfig, ScriptedPolicy, run_episode
from graphmem.energy import EnergyParams
from graphmem.training import (
    IncompleteGroup,
    MaskTag,
    MisalignedInputs,
    ObjectiveInputs,
    PruningMask,
    Rollout,
    RolloutGroup,
    TrajectorySegment,
    TranscriptMismatch,
    detect_valuable_retrieval,
    export_training_batch,
    group_advantage,
    masked_objective,
    prepare_group,
    pruning_mask,
    segment_trajectory,
)
from helpers import brute_force_mu, plain_clipped_objective

FIXTURES = Path(__file__).parent / "fixtures"
DEMO_QUERY = "Who directed the film Solaris Dawn and in which year did it premiere?"


def episode_config(t_max=10):
    return EpisodeConfig(t_max=t_max, energy=EnergyParams(s_total=1000, top_k=3))


def demo_script():
    return json.loads((FIXTURES / "demo_script.json").read_text(encoding="utf-8"))


def run_demo(corpus, script=None, *, t_max=10, query=DEMO_QUERY, reward=None):
    trajectory = run_episode(
        ScriptedPolicy(script or demo_script()), corpus, query, episode_config(t_max)
    )
    trajectory.reward = reward
    return trajectory


def dead_end_script():
    """s1 is a dead end; s2 feeds the answer."""
    return [
        serialize_action(Retrieve("s1", ("root",), "deep sea fishing"), "try one lead"),
        serialize_action(Memorize("not relevant", ()), "dead end"),
        serialize_action(Retrieve("s2", ("root",), "who directed Solaris Dawn film"), "other lead"),
        serialize_action(
            Memorize("directed by Mira Chen", (MemorizeDecision("Text 1", True, (), 5),)),
            "useful",
        ),
        serialize_action(Answer(("s2",), "Mira Chen"), "answer from s2 only"),
    ]


def segment(node_index, rollout_id="r0", index=0):
    return TrajectorySegment(
        rollout_id=rollout_id,
        segment_index=index,
        node_index=node_index,
        prompt_digest="d",
        retrieve_response="" if node_index is None else "ret",
        answer_response="ans" if node_index is None else "",
    )


class TestSegmentation:
    def test_two_searches_plus_answer(self, toy_corpus):
        segments = segment_trajectory(run_demo(toy_corpus))
        assert len(segments) == 3
        assert [s.node_index for s in segments] == [1, 2, None]
        assert segments[-1].is_terminal
        assert segments[0].retrieve_response and segments[0].memorize_response
        assert segments[-1].answer_response

    def test_truncated_has_no_terminal(self, toy_corpus):
        script = json.loads((FIXTURES / "dup_script.json").read_text(encoding="utf-8"))
        trajectory = run_demo(
            toy_corpus, script, t_max=3, query="Which films share a director?"
        )
        segments = segment_trajectory(trajectory)
        assert len(segments) == 3
        assert not any(s.is_terminal for s in segments)

    def test_immediate_answer_single_terminal_segment(self, toy_corpus):
        script = [serialize_action(Answer(("root",), "forty-two"), "I just know")]
        segments = segment_trajectory(run_demo(toy_corpus, script))
        assert len(segments) == 1
        assert segments[0].is_terminal

    def test_transcript_graph_mismatch(self, toy_corpus):
        trajectory = run_demo(toy_corpus)
        trajectory.records = trajectory.records[1:]  # drop a retrieve transcript
        with pytest.raises(TranscriptMismatch):
            segment_trajectory(trajectory)


class TestValuableRetrieval:
    def test_gold_hit_detected(self, toy_corpus):
        trajectory = run_demo(toy_corpus)
        # doc-director is in both cycles' top-5; doc-other is the one unit
        # never retrieved (ranked last in a 6-unit corpus at k=5)
        assert detect_valuable_retrieval(trajectory, {"doc-director"}) == {1, 2}
        assert detect_valuable_retrieval(trajectory, {"doc-other"}) == set()

    def test_empty_gold(self, toy_corpus):
        assert detect_valuable_retrieval(run_demo(toy_corpus), set()) == set()

    def test_gold_missing_from_results(self, toy_corpus):
        trajectory = run_demo(toy_corpus, dead_end_script())
        # cycle 1 (node 1) retrieves doc-other first; cycle 2 (node 2) top-5
        # also contains it (6-unit corpus), so restrict to an id only cycle 2 hits
        hits = detect_valuable_retrieval(trajectory, {"nonexistent-doc"})
        assert hits == set()


class TestPruningMask:
    def test_positive_on_path_unmasked(self):
        mask = pruning_mask([segment(1)], 1, {0, 1, 3}, set())
        assert mask.entries[0].mu == 0
        assert mask.entries[0].tag is MaskTag.UNMASKED

    def test_positive_dead_end_masked(self):
        mask = pruning_mask([segment(2)], 1, {0, 1, 3}, set())
        assert mask.entries[0].mu == 1
        assert mask.entries[0].tag is MaskTag.DEAD_END_POSITIVE

    def test_negative_valuable_masked(self):
        mask = pruning_mask([segment(1)], 0, set(), {1})
        assert mask.entries[0].mu == 1
        assert mask.entries[0].tag is MaskTag.VALUABLE_NEGATIVE

    def test_negative_not_valuable_unmasked(self):
        mask = pruning_mask([segment(1)], 0, set(), {2})
        assert mask.entries[0].mu == 0

    def test_terminal_never_masked(self):
        mask = pruning_mask([segment(None)], 1, set(), set())
        assert mask.entries[0].mu == 0

    def test_exhaustive_small_graphs(self):
        for n_search in range(0, 5):
            searches = list(range(1, n_search + 1))
            for path_bits, rval_bits, reward in itertools.product(
                range(2**n_search), range(2**n_search), (0, 1)
            ):
                on_path = {searches[i] for i in range(n_search) if path_bits >> i & 1}
                r_val = {searches[i] for i in range(n_search) if rval_bits >> i & 1}
                graph = new_graph("q")
                for i in searches:
                    graph.add_search_node(f"s{i}", {"root"}, f"q{i}")
                parents = {f"s{i}" for i in on_path} or {"root"}
                graph.add_answer_node(parents, "ans")
                segments = [segment(i, index=k) for k, i in enumerate(searches)]
                segments.append(segment(None, index=len(segments)))
                mask = pruning_mask(segments, reward, graph.critical_path(), r_val)
                critical = graph.critical_path()
                for seg, entry in zip(segments, mask.entries):
                    assert entry.mu == brute_force_mu(
                        reward, seg.node_index, critical, r_val
                    )
                    if entry.tag is MaskTag.DEAD_END_POSITIVE:
                        assert reward == 1 and seg.node_index not in critical
                    if entry.tag is MaskTag.VALUABLE_NEGATIVE:
                        assert reward == 0 and seg.node_index in r_val

    def test_mask_domain(self):
        # under r=1 no segment is ValuableNegative; under r=0 no DeadEndPositive
        mask1 = pruning_mask([segment(1), segment(2)], 1, {1}, {1, 2})
        assert MaskTag.VALUABLE_NEGATIVE not in {e.tag for e in mask1.entries}
        mask0 = pruning_mask([segment(1), segment(2)], 0, {1}, {1, 2})
        assert MaskTag.DEAD_END_POSITIVE not in {e.tag for e in mask0.entries}


class TestAdvantages:
    def test_uniform_rewards_zero(self):
        assert group_advantage([1, 1, 1, 1]) == [0.0, 0.0, 0.0, 0.0]

    def test_split_rewards(self):
        advantages = group_advantage([1, 0])
        assert advantages == pytest.approx([1.0, -1.0])

    def test_single_rollout(self):
        assert group_advantage([1]) == [0.0]

    def test_non_binary_rejected(self):
        from graphmem.training import TrainingError

        with pytest.raises(TrainingError):
            group_advantage([2, 0])


def one_segment_group(ratio, advantage, mu=0, reward=1):
    from graphmem.training import MaskEntry

    rollout = Rollout("g0", reward, (segment(1),))
    group = RolloutGroup("q", [rollout])
    inputs = ObjectiveInputs(ratios=((ratio,),), advantages=(advantage,), clip_epsilon=0.2)
    tag = MaskTag.UNMASKED if mu == 0 else MaskTag.DEAD_END_POSITIVE
    masks = [PruningMask((MaskEntry(mu, tag),))]
    return group, inputs, masks


class TestObjective:
    def test_identity_ratio(self):
        group, inputs, masks = one_segment_group(1.0, 1.0)
        assert masked_objective(group, inputs, masks) == pytest.approx(1.0)

    def test_clipped_ratio(self):
        group, inputs, masks = one_segment_group(1.5, 1.0)
        assert masked_objective(group, inputs, masks) == pytest.approx(1.2)

    def test_all_masked_zero(self):
        group, inputs, masks = one_segment_group(1.5, 1.0, mu=1)
        assert masked_objective(group, inputs, masks) == 0.0

    def test_negative_advantage_clip_side(self):
        # min picks the unclipped side for negative advantages with ratio > 1
        group, inputs, masks = one_segment_group(1.5, -1.0)
        assert masked_objective(group, inputs, masks) == pytest.approx(-1.5)

    def test_unmasked_equals_plain_objective(self):
        rng = random.Random(4242)
        from graphmem.training import MaskEntry

        for _ in range(200):
            n_rollouts = rng.randint(1, 4)
            ratios, rollouts, masks = [], [], []
            rewards = [rng.randint(0, 1) for _ in range(n_rollouts)]
            advantages = group_advantage(rewards)
            for g in range(n_rollouts):
                n = rng.randint(1, 5)
                row = tuple(rng.uniform(0.01, 3.0) for _ in range(n))
                ratios.append(row)
                rollouts.append(
                    Rollout(f"g{g}", rewards[g], tuple(segment(i + 1, f"g{g}", i) for i in range(n)))
                )
                masks.append(PruningMask(tuple(MaskEntry(0, MaskTag.UNMASKED) for _ in range(n))))
            group = RolloutGroup("q", rollouts)
            inputs = ObjectiveInputs(tuple(ratios), tuple(advantages), 0.2)
            got = masked_objective(group, inputs, masks)
            expected = plain_clipped_objective(ratios, advantages, 0.2)
            assert abs(got - expected) < 1e-12

    def test_misaligned_lengths(self):
        group, inputs, masks = one_segment_group(1.0, 1.0)
        bad = ObjectiveInputs(ratios=((1.0, 1.0),), advantages=(1.0,), clip_epsilon=0.2)
        with pytest.raises(MisalignedInputs):
            masked_objective(group, bad, masks)


class TestPrepareGroupAndExport:
    def test_prepare_group_end_to_end(self, toy_corpus):
        positive = run_demo(toy_corpus, dead_end_script(), reward=1)
        negative = run_demo(toy_corpus, dead_end_script(), reward=0)
        group = prepare_group([positive, negative], ["doc-director"])
        assert [r.reward for r in group.rollouts] == [1, 0]
        assert group.rollouts[0].advantage == pytest.approx(1.0)
        assert group.rollouts[1].advantage == pytest.approx(-1.0)
        # positive rollout: s1 (node 1) is the dead end
        tags0 = [e.tag for e in group.rollouts[0].mask.entries]
        assert tags0 == [MaskTag.DEAD_END_POSITIVE, MaskTag.UNMASKED, MaskTag.UNMASKED]
        # negative rollout: node 2 retrieved the gold doc
        tags1 = [e.tag for e in group.rollouts[1].mask.entries]
        assert tags1[1] is MaskTag.VALUABLE_NEGATIVE
        assert tags1[2] is MaskTag.UNMASKED  # terminal stays unmasked

    def test_truncated_rollout_gets_reward_zero(self, toy_corpus):
        script = json.loads((FIXTURES / "dup_script.json").read_text(encoding="utf-8"))
        truncated = run_demo(
            toy_corpus, script, t_max=3, query="Which films share a director?"
        )
        group = prepare_group([truncated], [])
        assert group.rollouts[0].reward == 0
        assert group.rollouts[0].mask.mus() == (0, 0, 0)  # empty R_val, r=0

    def test_unjudged_answered_rollout_rejected(self, toy_corpus):
        trajectory = run_demo(toy_corpus)  # answered, reward None
        with pytest.raises(IncompleteGroup):
            prepare_group([trajectory], [])

    def test_export_counts_and_determinism(self, toy_corpus):
        rollouts = [
            run_demo(toy_corpus, dead_end_script(), reward=1),
            run_demo(toy_corpus, dead_end_script(), reward=0),
        ]
        group = prepare_group(rollouts, ["doc-director"])
        batch1 = export_training_batch([group])
        batch2 = export_training_batch([prepare_group(rollouts, ["doc-director"])])
        assert batch1 == batch2
        lines = [json.loads(line) for line in batch1.strip().splitlines()]
        assert len(lines) == 6  # 2 rollouts x 3 segments
        masked = [line for line in lines if line["mu"] == 1]
        assert masked  # masked segments stay in the file
        assert {line["tag"] for line in lines} <= {
            "dead_end_positive", "valuable_negative", "unmasked",
        }
        # rewards [1, 0, 0] give the advantages sqrt(2) and -sqrt(2)/2, written at 6 places
        batch3 = export_training_batch([prepare_group(rollouts + rollouts[1:], ["doc-director"])])
        assert '"advantage":1.414214,' in batch3 and '"advantage":-0.707107,' in batch3

    def test_export_requires_masks(self):
        rollout = Rollout("g0", 1, (segment(1),))
        with pytest.raises(IncompleteGroup):
            export_training_batch([RolloutGroup("q", [rollout])])
