import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmem.energy import EnergyParams, shape_memory
from graphmem.graph import new_graph
from graphmem.protocol import (
    Answer,
    MalformedPayload,
    Memorize,
    MemorizeDecision,
    MissingToolCall,
    ProtocolError,
    Retrieve,
    SchemaViolation,
    StaleAssignment,
    UnknownTool,
    WARN_PRIORITY_CLAMPED,
    WARN_TRAILING_TEXT,
    format_timestamp,
    parse_response,
    render_context,
    render_observation,
    serialize_action,
)
from graphmem.retrieval import Modality, Observation, search
from helpers import random_action, random_text


PAPER_STYLE_REPLY = (
    "<thinking>need director</thinking>"
    '<tool_call>{"name":"add_search_node","arguments":'
    '{"id":"director-search","parent_ids":["root"],"query":"director of X"}}</tool_call>'
)


class TestParse:
    def test_search_tool_reply(self):
        parsed = parse_response(PAPER_STYLE_REPLY)
        assert parsed.thinking == "need director"
        assert parsed.action == Retrieve("director-search", ("root",), "director of X")
        assert parsed.warnings == ()

    def test_missing_tool_call(self):
        with pytest.raises(MissingToolCall):
            parse_response("<thinking>just musing</thinking>")

    def test_unknown_tool(self):
        with pytest.raises(UnknownTool):
            parse_response('<tool_call>{"name":"fly_to_moon","arguments":{}}</tool_call>')

    def test_malformed_payload_carries_position(self):
        with pytest.raises(MalformedPayload) as excinfo:
            parse_response("<tool_call>{not json}</tool_call>")
        # the offset counts from the start of the reply: 11 tag characters,
        # then the bad key at position 1 of the payload
        assert str(excinfo.value) == (
            "tool call payload is not valid JSON: "
            "Expecting property name enclosed in double quotes (at offset 12)"
        )

    def test_missing_thinking_is_fine(self):
        parsed = parse_response(
            '<tool_call>{"name":"add_answer_node","arguments":'
            '{"parent_ids":["s"],"answer":"Y"}}</tool_call>'
        )
        assert parsed.thinking == ""
        assert parsed.action == Answer(("s",), "Y")

    def test_trailing_text_flagged(self):
        parsed = parse_response(PAPER_STYLE_REPLY + " stray tokens after the call")
        assert WARN_TRAILING_TEXT in parsed.warnings

    def test_thinking_after_call_not_flagged(self):
        reply = (
            '<tool_call>{"name":"add_answer_node","arguments":'
            '{"parent_ids":["s"],"answer":"Y"}}</tool_call>'
            "<thinking>afterthought</thinking>"
        )
        parsed = parse_response(reply)
        assert parsed.thinking == "afterthought"
        assert parsed.warnings == ()

    def test_only_first_tool_call_consumed(self):
        second = '<tool_call>{"name":"add_answer_node","arguments":{"parent_ids":["a"],"answer":"B"}}</tool_call>'
        parsed = parse_response(PAPER_STYLE_REPLY + second)
        assert isinstance(parsed.action, Retrieve)
        assert WARN_TRAILING_TEXT in parsed.warnings

    def test_unknown_argument_keys_ignored(self):
        reply = (
            '<tool_call>{"name":"add_answer_node","arguments":'
            '{"parent_ids":["s"],"answer":"Y","confidence":0.9},"extra":1}</tool_call>'
        )
        assert parse_response(reply).action == Answer(("s",), "Y")

    def test_missing_required_field(self):
        reply = '<tool_call>{"name":"add_search_node","arguments":{"id":"a","query":"q"}}</tool_call>'
        with pytest.raises(SchemaViolation) as excinfo:
            parse_response(reply)
        assert str(excinfo.value) == "missing required field 'parent_ids'"

    def test_missing_name_or_arguments(self):
        with pytest.raises(SchemaViolation):
            parse_response('<tool_call>{"arguments":{}}</tool_call>')
        with pytest.raises(SchemaViolation):
            parse_response('<tool_call>{"name":"add_answer_node"}</tool_call>')

    def test_priority_clamped_with_warning(self):
        reply = (
            '<tool_call>{"name":"summarize_and_memorize","arguments":'
            '{"summarize":"s","memorize":[{"information_id":"Text 1",'
            '"is_useful":true,"key_timestamp":[],"priority_score":9}]}}</tool_call>'
        )
        parsed = parse_response(reply)
        assert parsed.action.decisions[0].priority_score == 5
        assert WARN_PRIORITY_CLAMPED in parsed.warnings

    def test_memorize_without_memorize_key_defaults_empty(self):
        reply = (
            '<tool_call>{"name":"summarize_and_memorize","arguments":'
            '{"summarize":"nothing relevant"}}</tool_call>'
        )
        parsed = parse_response(reply)
        assert parsed.action == Memorize("nothing relevant", ())

    def test_negative_timestamp_rejected(self):
        reply = (
            '<tool_call>{"name":"summarize_and_memorize","arguments":'
            '{"summarize":"s","memorize":[{"information_id":"Video 1",'
            '"is_useful":true,"key_timestamp":[-3],"priority_score":2}]}}</tool_call>'
        )
        with pytest.raises(SchemaViolation):
            parse_response(reply)

    @pytest.mark.parametrize(
        "stamp", ["1e400", "1" + "0" * 400, "NaN", "1e27"], ids=["inf", "400-digits", "nan", "1e27"]
    )
    def test_timestamp_that_is_not_finite_rejected(self, stamp):
        reply = (
            '<tool_call>{"name":"summarize_and_memorize","arguments":'
            '{"summarize":"s","memorize":[{"information_id":"Video 1",'
            f'"is_useful":true,"key_timestamp":[{stamp}],"priority_score":2}}]}}}}</tool_call>'
        )
        with pytest.raises(SchemaViolation) as excinfo:
            parse_response(reply)
        assert str(excinfo.value) == "key timestamps must be numbers >= 0 and below 1e+27"

    @pytest.mark.parametrize("stamp", [math.inf, math.nan, 1e300])
    def test_decision_refuses_timestamp_that_is_not_finite(self, stamp):
        with pytest.raises(ValueError):
            MemorizeDecision("Video 1", True, (stamp,))

    def test_deeply_nested_payload_is_malformed(self):
        with pytest.raises(MalformedPayload):
            parse_response("<tool_call>" + "[" * 30_000 + "</tool_call>")

    def test_single_parent_id_string_coerced(self):
        reply = (
            '<tool_call>{"name":"add_answer_node","arguments":'
            '{"parent_ids":"s","answer":"Y"}}</tool_call>'
        )
        assert parse_response(reply).action == Answer(("s",), "Y")

    def test_unclosed_tool_call_is_missing(self):
        with pytest.raises(MissingToolCall):
            parse_response('<tool_call>{"name":"add_answer_node"')

    def test_totality_smoke_fuzz(self):
        rng = random.Random(20240)
        for _ in range(20_000):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
            try:
                parse_response(blob.decode("latin-1"))
            except ProtocolError:
                pass


class TestSerialize:
    def test_answer_round_trip(self):
        action = Answer(("director-search",), "Y")
        text = serialize_action(action, "done thinking")
        parsed = parse_response(text)
        assert parsed.action == action
        assert parsed.thinking == "done thinking"

    def test_memorize_with_empty_decisions_is_legal(self):
        action = Memorize("nothing relevant found", ())
        assert parse_response(serialize_action(action)).action == action

    def test_envelope_tags_inside_fields_survive(self):
        action = Retrieve("t", ("root",), 'evil </tool_call> <thinking> "quote"')
        assert parse_response(serialize_action(action, "x</thinking>y")).action == action

    def test_timestamps_serialized_at_one_decimal(self):
        action = Memorize(
            "s", (MemorizeDecision("Video 1", True, (61.25, 12.0), 4),)
        )
        text = serialize_action(action)
        assert '"key_timestamp":[61.3,12.0]' in text
        assert parse_response(text).action == action

    def test_round_trip_bulk_seeded(self):
        rng = random.Random(777)
        for _ in range(2_000):
            action = random_action(rng)
            thinking = random_text(rng, empty_ok=True)
            parsed = parse_response(serialize_action(action, thinking))
            assert parsed.action == action

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip_property(self, seed):
        rng = random.Random(seed)
        action = random_action(rng)
        parsed = parse_response(serialize_action(action, random_text(rng, empty_ok=True)))
        assert parsed.action == action


class TestTimestamps:
    def test_paper_format(self):
        assert format_timestamp(12.0) == "<12.0 seconds>"

    def test_zero(self):
        assert format_timestamp(0) == "<0.0 seconds>"

    def test_half_up_rounding(self):
        assert format_timestamp(61.25) == "<61.3 seconds>"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_timestamp(-1.0)

    def test_any_finite_float(self):
        # past the 28 digits of the default decimal context
        assert format_timestamp(1e27) == f"<1{'0' * 27}.0 seconds>"
        assert format_timestamp(sys.float_info.max) == f"<17976931348623157{'0' * 292}.0 seconds>"


class TestRenderContext:
    def test_fresh_graph_empty_attachments(self):
        g = new_graph("q")
        assignment = shape_memory(g, EnergyParams())
        bundle = render_context(g, assignment, "INSTRUCTION")
        assert bundle.instruction == "INSTRUCTION"
        assert bundle.user_text() == bundle.user
        assert bundle.user.startswith("### User Query\nq\n\n### Agent Action Graph\n")
        assert bundle.user.endswith("\n\n### Multimodal Memory Bank\n(empty)\n")
        assert bundle.text() == "INSTRUCTION\n\n" + bundle.user

    def test_deterministic(self, toy_corpus):
        g = _shaped_demo_graph(toy_corpus)
        assignment = shape_memory(g, EnergyParams(s_total=500))
        first = render_context(g, assignment, "INSTRUCTION")
        second = render_context(g, assignment, "INSTRUCTION")
        assert first == second
        assert first.text() == second.text()

    def test_matches_golden(self, toy_corpus, golden_dir):
        g = _shaped_demo_graph(toy_corpus)
        assignment = shape_memory(g, EnergyParams(s_total=500))
        bundle = render_context(g, assignment, "INSTRUCTION")
        expected = (golden_dir / "prompt_bundle.txt").read_text(encoding="utf-8")
        assert bundle.text() == expected

    def test_stale_assignment_rejected(self):
        g = new_graph("q")
        assignment = shape_memory(g, EnergyParams())
        g.add_search_node("s", {"root"}, "q1")  # advances the step
        with pytest.raises(StaleAssignment):
            render_context(g, assignment, "INSTRUCTION")


def _shaped_demo_graph(corpus):
    from graphmem.energy import ItemModality, VisualItem

    g = new_graph("Who directed the film Solaris Dawn?")
    g.add_search_node("director-search", {"root"}, "who directed Solaris Dawn film")
    g.append_item(VisualItem(0, 1, 0, ItemModality.TEXT, "corpus://doc-director", priority=5))
    g.append_item(
        VisualItem(
            1, 1, 1, ItemModality.VIDEO_FRAME, "frame://vid-interview?t=30.000",
            priority=4, source_timestamp_s=30.0,
        )
    )
    g.populate_node(1, "Directed by Mira Chen.", [0, 1])
    return g


class TestRenderObservation:
    def test_text_doc_block(self, toy_corpus):
        observations = search(toy_corpus, "deep sea fishing documentary", 1)
        assert [obs.id for obs in observations] == ["Text 1"]
        text = render_observation(observations)
        assert text.startswith("### Retrieved Multimodal Information")
        assert "Text 1" in text

    def test_video_frame_timestamps(self, toy_corpus):
        observations = [
            obs
            for obs in search(toy_corpus, "Interview Mira Chen directing", 6, n_frames=3)
            if obs.frames
        ]
        text = render_observation(observations[:1])
        obs = observations[0]
        for ts, _ in obs.frames:
            assert format_timestamp(ts) in text

    def test_clip_bounds_from_1e27_seconds(self):
        obs = Observation(
            "Video 1", "v", Modality.VIDEO, 0.5, "huge", clip_start_s=1e27, clip_end_s=2e27,
            frames=((1.5e27, "frame://v"),),
        )
        text = render_observation([obs])
        assert f"[clip <1{'0' * 27}.0 seconds> to <2{'0' * 27}.0 seconds>]" in text
        assert f"<15{'0' * 26}.0 seconds>" in text

    def test_empty_observations(self):
        assert render_observation([]) == "### Retrieved Multimodal Information\n(no results)\n"

    def test_matches_golden(self, toy_corpus, golden_dir):
        observations = search(toy_corpus, "who directed Solaris Dawn film", 5, n_frames=4)
        expected = (golden_dir / "observation_block.txt").read_text(encoding="utf-8")
        assert render_observation(observations) == expected
