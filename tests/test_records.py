"""The JSON form of the saved record types: which keys a reader needs, which
it may go without, and that writing what was read gives the same bytes.

Graph nodes and bank items load through ``MemoryGraph.from_dict``, cycle
records and their observations through ``Trajectory.from_jsonl``, corpus
items through ``load_manifest``; each reader reports a bad record as its own
typed error.
"""

import copy
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmem.canon import canonical_dumps
from graphmem.cli import main
from graphmem.energy import BudgetAssignment, ItemModality, VisualItem
from graphmem.graph import CorruptGraph, GraphError, MemoryGraph, MemoryNode, NodeKind
from graphmem.retrieval import BadManifest, CorpusItem, Modality, Observation, load_manifest
from graphmem.runtime import CorruptSession, CycleRecord, Trajectory
from graphmem.training import TrajectorySegment

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def _trajectory_lines() -> list[dict]:
    text = (GOLDEN / "demo_trajectory.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines()]


def _load_graph(lines: list[dict], tmp_path: Path) -> None:
    MemoryGraph.from_dict(lines[0]["graph"])


def _load_trajectory(lines: list[dict], tmp_path: Path) -> None:
    Trajectory.from_jsonl("".join(json.dumps(line) + "\n" for line in lines))


def _load_manifest(manifest: dict, tmp_path: Path) -> None:
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    load_manifest(path)


def _manifest() -> dict:
    return json.loads((FIXTURES / "corpus" / "manifest.json").read_text(encoding="utf-8"))


# name: (document, the record inside it, its reader, the reader's error,
#        keys that may be missing, keys holding an enum); a graph without its
#        schema key is a SchemaMismatch, the others' faults a CorruptGraph
SAMPLES = {
    "graph": (
        _trajectory_lines, lambda doc: doc[0]["graph"], _load_graph, GraphError, set(), set(),
    ),
    "search node": (
        _trajectory_lines, lambda doc: doc[0]["graph"]["nodes"][1], _load_graph, CorruptGraph,
        set(), {"kind"},
    ),
    "bank item": (
        _trajectory_lines, lambda doc: doc[0]["graph"]["memory_bank"][1], _load_graph,
        CorruptGraph, {"source_timestamp_s"}, {"modality"},
    ),
    "cycle record": (
        _trajectory_lines, lambda doc: doc[1], _load_trajectory, CorruptSession, set(), set(),
    ),
    "clip observation": (
        _trajectory_lines, lambda doc: doc[1]["observations"][2], _load_trajectory,
        CorruptSession, {"asset_ref", "clip_start_s", "clip_end_s", "frames"}, {"modality"},
    ),
    "text observation": (
        _trajectory_lines, lambda doc: doc[1]["observations"][0], _load_trajectory,
        CorruptSession, {"asset_ref"}, {"modality"},
    ),
    "assignment": (
        _trajectory_lines, lambda doc: doc[-1]["assignment"], _load_trajectory, CorruptSession,
        set(), set(),
    ),
    "video corpus item": (
        _manifest, lambda doc: doc["items"][3], _load_manifest, BadManifest, {"asset_ref"},
        {"modality"},
    ),
    "text corpus item": (
        _manifest, lambda doc: doc["items"][0], _load_manifest, BadManifest, {"asset_ref"},
        {"modality"},
    ),
}


def _cases(pick) -> list[tuple[str, str]]:
    cases = []
    for name, (document, locate, _, _, optional, enums) in SAMPLES.items():
        keys = set(locate(document()))
        cases.extend((name, key) for key in sorted(pick(keys, optional, enums)))
    return cases


def _edited(name: str, edit):
    document, locate, load, error, _, _ = SAMPLES[name]
    doc = copy.deepcopy(document())
    edit(locate(doc))
    return doc, load, error


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_sample_loads_as_is(name, tmp_path):
    doc, load, _ = _edited(name, lambda record: None)
    load(doc, tmp_path)


@pytest.mark.parametrize(
    "name, key", _cases(lambda keys, optional, enums: keys - optional)
)
def test_missing_required_key_is_typed_error(name, key, tmp_path):
    doc, load, error = _edited(name, lambda record: record.pop(key))
    with pytest.raises(error):
        load(doc, tmp_path)


# a value of another JSON type for each type a sample holds
WRONG_TYPE = {int: True, float: "1.5", str: 5, bool: 1, dict: [], list: {}}


@pytest.mark.parametrize("name, key", _cases(lambda keys, optional, enums: keys))
def test_value_of_wrong_json_type_is_typed_error(name, key, tmp_path):
    doc, load, error = _edited(
        name, lambda record: record.update({key: WRONG_TYPE[type(record[key])]})
    )
    with pytest.raises(error):
        load(doc, tmp_path)


@pytest.mark.parametrize(
    "key, value",
    [("cycle", -1), ("prompt_chars", -5), ("node_index", -1), ("memorize_prompt_chars", -1),
     ("kind", "bogus"), ("kind", "memorize")],
)
def test_count_below_zero_or_unknown_kind_is_typed_error(key, value, tmp_path):
    doc, load, error = _edited("cycle record", lambda record: record.update({key: value}))
    with pytest.raises(error, match=f"{key} must be "):
        load(doc, tmp_path)


@pytest.mark.parametrize(
    "budgets, message",
    [([[0, 442, 1], [1, 347], [2, 209]], "budgets[] must hold 2 values, got 3"),
     ([[0, 442], ["1", 347], [2, 209]], "budgets[][0] must be an integer, got '1'"),
     ([[0, 442], [1, 347.0], [2, 209]], "budgets[][1] must be an integer, got 347.0"),
     ([[0, 442], [0, 347], [2, 209]], "budgets names a key twice"),
     ([[0, 442], [1, 347]], "budgets [0, 1] must name the retained ordinals [0, 1, 2] in order")],
    ids=["three values", "string key", "float budget", "key twice", "ordinal missing"],
)
def test_budget_pairs_are_checked(budgets, message, tmp_path):
    doc, load, error = _edited("assignment", lambda record: record.update(budgets=budgets))
    with pytest.raises(error, match=re.escape(message)):
        load(doc, tmp_path)


@pytest.mark.parametrize("name, key", _cases(lambda keys, optional, enums: enums))
def test_null_enum_is_typed_error(name, key, tmp_path):
    doc, load, error = _edited(name, lambda record: record.update({key: None}))
    with pytest.raises(error):
        load(doc, tmp_path)


@pytest.mark.parametrize("name, key", _cases(lambda keys, optional, enums: optional))
def test_optional_key_may_be_missing(name, key, tmp_path):
    doc, load, _ = _edited(name, lambda record: record.pop(key))
    load(doc, tmp_path)


def test_segment_writes_every_field():
    segment = TrajectorySegment("r0", 2, None, "digest", answer_response="A")
    assert segment.to_dict() == {
        "rollout_id": "r0", "segment_index": 2, "node_index": None, "prompt_digest": "digest",
        "retrieve_response": "", "memorize_response": "", "answer_response": "A",
    }


# -- round trips ----------------------------------------------------------------

ints = st.integers(-(10**9), 10**9)
counts = st.integers(0, 10**9)
texts = st.text(max_size=12)
floats = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.none() | st.booleans() | ints | floats | texts
json_objects = st.dictionaries(texts, json_values | st.lists(json_values, max_size=3), max_size=4)


visual_items = st.builds(
    VisualItem, ordinal=ints, owner_node=ints, slot=ints,
    modality=st.sampled_from(ItemModality), payload_ref=texts,
    saliency=st.sampled_from([0, 1]), priority=st.integers(1, 5),
    source_timestamp_s=st.none() | floats, dropped=st.booleans(),
)


memory_nodes = st.builds(
    MemoryNode, index=ints, kind=st.sampled_from(NodeKind), title=texts,
    parent_indices=st.frozensets(ints, max_size=4), query=texts, summary=texts,
    items=st.lists(ints, max_size=4).map(tuple), created_step=ints, answer_text=texts,
    populated=st.booleans(),
)


@st.composite
def corpus_items(draw) -> CorpusItem:
    modality = draw(st.sampled_from(Modality))
    duration = draw(st.floats(1e-3, 1e9)) if modality is Modality.VIDEO else None
    return CorpusItem(draw(texts.filter(bool)), modality, draw(texts), duration, draw(texts))


observations = st.builds(
    Observation, id=texts, source_id=texts, modality=st.sampled_from(Modality), score=floats,
    content=texts, asset_ref=texts, clip_start_s=st.none() | floats,
    clip_end_s=st.none() | floats,
    frames=st.lists(st.tuples(floats, texts), max_size=3).map(tuple),
)


@st.composite
def assignments(draw) -> BudgetAssignment:
    retained = draw(st.lists(ints, max_size=4, unique=True))
    budgets = {ordinal: draw(st.integers(0, 10**6)) for ordinal in retained}
    return BudgetAssignment(tuple(retained), budgets, draw(ints), draw(ints))


cycle_records = st.builds(
    CycleRecord, cycle=counts, prompt_digest=texts, prompt_chars=counts,
    response=texts, action=json_objects, kind=st.sampled_from(["retrieve", "answer"]),
    node_index=counts, assignment=assignments(),
    observations=st.lists(observations, max_size=2).map(tuple),
    memorize_prompt_chars=counts, memorize_response=texts,
    memorize_action=st.none() | json_objects,
)


RECORDS = {
    VisualItem: visual_items,
    MemoryNode: memory_nodes,
    CorpusItem: corpus_items(),
    Observation: observations,
    CycleRecord: cycle_records,
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_written_record_reads_back_to_the_same_bytes(cls, data):
    written = canonical_dumps(data.draw(RECORDS[cls]).to_dict())
    assert canonical_dumps(cls.from_dict(json.loads(written)).to_dict()) == written


@pytest.mark.parametrize("value", [True, 12.0, "12", None], ids=["true", "float", "string", "null"])
@pytest.mark.parametrize("key", ["cycle", "prompt_chars", "node_index", "memorize_prompt_chars"])
def test_count_that_is_not_an_int_is_typed_error(key, value, tmp_path):
    doc, load, error = _edited("cycle record", lambda record: record.update({key: value}))
    with pytest.raises(error, match=f"{key} must be an int"):
        load(doc, tmp_path)


def test_keys_older_files_hold_are_ignored(tmp_path):
    """Files written while each bank item kept a copy of its budget
    (``allocated_budget``) and each cycle record a copy of its assignment's
    step (``step``) read as the same trajectory and prune to the same batch."""
    text = (GOLDEN / "demo_trajectory.jsonl").read_text(encoding="utf-8")
    meta, *records = map(json.loads, text.splitlines())
    budgets = dict(records[-1]["assignment"]["budgets"])
    for item in meta["graph"]["memory_bank"]:
        item["allocated_budget"] = budgets.get(item["ordinal"], 0)
    for record in records:
        record["step"] = record["assignment"]["step"]
    old = "".join(canonical_dumps(line) + "\n" for line in [meta, *records])
    assert Trajectory.from_jsonl(old).to_jsonl() == text
    batches = []
    for name, content in (("old", old), ("new", text)):
        (tmp_path / name).mkdir()
        path = tmp_path / name / "t.jsonl"
        path.write_text(content, encoding="utf-8")
        batch = tmp_path / name / "b.jsonl"
        assert main(["prune", "--trajectories", str(path), "--out-batch", str(batch)]) == 0
        batches.append(batch.read_bytes())
    assert batches[0] == batches[1]
