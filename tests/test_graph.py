import copy
import dataclasses
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmem.canon import canonical_dumps
from graphmem.energy import (
    EnergyParams,
    ItemModality,
    VisualItem,
    recursive_energy,
    shape_memory,
)
from graphmem.graph import (
    AlreadyPopulated,
    BadItemRef,
    CorruptGraph,
    DuplicateTitle,
    EmptyQuery,
    GraphTerminal,
    MemoryGraph,
    NodeKind,
    NotASearchNode,
    SchemaMismatch,
    UnknownParent,
    new_graph,
)
from helpers import escape_text, forward_reachability_path, random_graph_with_items


def own_item(g, index):
    """Give node ``index`` a priority-5 item (normalized priority 1)."""
    g.append_item(
        VisualItem(len(g.memory_bank), index, 0, ItemModality.TEXT, f"r{index}", priority=5)
    )


def centrality(g, index):
    """The (1 + out-degree) factor of node ``index``, read off the intrinsic
    energy of the item :func:`own_item` gave it, with decay switched off."""
    report = recursive_energy(g, EnergyParams(lambda_decay=0.0))
    (ordinal,) = [item.ordinal for item in g.memory_bank if item.owner_node == index]
    return report.intrinsic[ordinal]


def build_demo_graph():
    g = new_graph("Who directed X?")
    g.add_search_node("director-search", {"root"}, "director of X")
    item = VisualItem(0, 1, 0, ItemModality.TEXT, "corpus://doc-1", priority=5)
    g.append_item(item)
    g.populate_node(1, "X was directed by Y", [0])
    return g


class TestNewGraph:
    def test_initialization(self):
        g = new_graph("Who directed X?")
        assert len(g.nodes) == 1
        assert g.nodes[0].kind is NodeKind.ROOT
        assert g.nodes[0].index == 0
        assert g.step == 0

    def test_empty_query_rejected(self):
        with pytest.raises(EmptyQuery):
            new_graph("")
        with pytest.raises(EmptyQuery):
            new_graph("   ")

    def test_fresh_graph_has_no_critical_path(self):
        assert new_graph("any query").critical_path() == set()


class TestAddSearchNode:
    def test_first_expansion(self):
        g = new_graph("q")
        index = g.add_search_node("director-search", {"root"}, "director of X")
        assert index == 1
        assert g.nodes[1].parent_indices == frozenset({0})
        assert g.step == 1
        assert g.nodes[1].created_step == 1
        assert not g.nodes[1].populated

    def test_unknown_parent(self):
        g = new_graph("q")
        with pytest.raises(UnknownParent):
            g.add_search_node("t", {"missing"}, "q")

    def test_duplicate_title(self):
        g = new_graph("q")
        g.add_search_node("t", {"root"}, "q1")
        with pytest.raises(DuplicateTitle):
            g.add_search_node("t", {"root"}, "q2")

    def test_shared_parent_out_degree(self):
        g = new_graph("q")
        own_item(g, 0)
        g.add_search_node("a", {"root"}, "qa")
        g.add_search_node("b", {"root"}, "qb")
        # oracle: count edges by definition
        edges = [(p, n.index) for n in g.nodes for p in n.parent_indices]
        assert sum(1 for p, _ in edges if p == 0) == 2
        assert centrality(g, 0) == 1 + 2


class TestPopulate:
    def test_populate_contract(self):
        g = build_demo_graph()
        assert g.nodes[1].populated
        assert g.nodes[1].summary == "X was directed by Y"
        assert g.nodes[1].items == (0,)

    def test_second_populate_rejected(self):
        g = build_demo_graph()
        with pytest.raises(AlreadyPopulated):
            g.populate_node(1, "again", [])

    def test_populate_with_empty_bank_is_legal(self):
        g = new_graph("q")
        g.add_search_node("s", {"root"}, "irrelevant query")
        g.populate_node(1, "no relevant results", [])
        assert g.nodes[1].populated
        assert g.nodes[1].items == ()

    def test_bad_item_ref(self):
        g = new_graph("q")
        g.add_search_node("s", {"root"}, "q1")
        with pytest.raises(BadItemRef):
            g.populate_node(1, "s", [3])

    def test_not_a_search_node(self):
        g = new_graph("q")
        with pytest.raises(NotASearchNode):
            g.populate_node(0, "s", [])


def text_item(ordinal, owner, slot):
    return VisualItem(ordinal, owner, slot, ItemModality.TEXT, f"r{ordinal}")


class TestMemorize:
    def test_appends_items_and_populates_newest_node(self):
        g = build_demo_graph()
        g.add_search_node("second", {"director-search"}, "q2")
        items = [text_item(1, 2, 0), text_item(2, 2, 1)]
        g.memorize("two finds", items)
        assert g.memory_bank[1:] == items
        assert g.nodes[2].items == (1, 2)
        assert g.nodes[2].summary == "two finds" and g.nodes[2].populated

    @pytest.mark.parametrize(
        "items",
        [
            [text_item(2, 2, 0)],
            [text_item(1, 2, 0), text_item(1, 2, 1)],
            [text_item(1, 2, 0), text_item(2, 1, 1)],
        ],
        ids=["ordinal-skips", "ordinal-repeats", "other-owner"],
    )
    def test_misnumbered_item_leaves_graph_unchanged(self, items):
        g = build_demo_graph()
        g.add_search_node("second", {"director-search"}, "q2")
        before = canonical_dumps(g.to_dict())
        with pytest.raises(BadItemRef):
            g.memorize("s", items)
        assert canonical_dumps(g.to_dict()) == before


class TestAnswerAndTerminality:
    def test_answer_makes_graph_terminal(self):
        g = build_demo_graph()
        index = g.add_answer_node({"director-search"}, "Y")
        assert index == len(g.nodes) - 1
        assert g.is_terminal
        with pytest.raises(GraphTerminal):
            g.add_search_node("another", {"root"}, "q2")

    def test_no_mutation_after_answer(self):
        g = build_demo_graph()
        g.add_answer_node({"director-search"}, "Y")
        with pytest.raises(GraphTerminal):
            g.add_answer_node({"root"}, "Z")
        with pytest.raises(GraphTerminal):
            g.populate_node(1, "x", [])
        with pytest.raises(GraphTerminal):
            g.append_item(VisualItem(1, 1, 1, ItemModality.TEXT, "r"))

    def test_answer_with_two_parents_both_on_path(self):
        g = new_graph("q")
        g.add_search_node("a", {"root"}, "qa")
        g.add_search_node("b", {"root"}, "qb")
        g.add_answer_node({"a", "b"}, "done")
        path = g.critical_path()
        assert path == forward_reachability_path(g)
        assert {1, 2} <= path


class TestCriticalPath:
    def test_dangling_node_excluded(self):
        g = new_graph("q")
        g.add_search_node("v1", {"root"}, "q1")
        g.add_search_node("v2", {"root"}, "dead end")
        g.add_answer_node({"v1"}, "ans")
        assert g.critical_path() == {0, 1, 3}

    def test_diamond(self):
        g = new_graph("q")
        g.add_search_node("v1", {"root"}, "q1")
        g.add_search_node("v2", {"root"}, "q2")
        g.add_answer_node({"v1", "v2"}, "ans")
        assert g.critical_path() == {0, 1, 2, 3}
        assert g.critical_path() == forward_reachability_path(g)


class TestOutDegree:
    def test_leaf_is_zero(self):
        g = new_graph("q")
        g.add_search_node("s", {"root"}, "q1")
        own_item(g, 1)
        assert centrality(g, 1) == 1 + 0

    def test_root_with_three_children(self):
        g = new_graph("q")
        own_item(g, 0)
        for name in "abc":
            g.add_search_node(name, {"root"}, f"q-{name}")
        assert centrality(g, 0) == 1 + 3

    def test_edge_into_answer_counts(self):
        g = new_graph("q")
        g.add_search_node("s", {"root"}, "q1")
        own_item(g, 1)
        g.add_answer_node({"s"}, "ans")
        edges = [(p, n.index) for n in g.nodes for p in n.parent_indices]
        assert sum(1 for p, _ in edges if p == 1) == 1
        assert centrality(g, 1) == 1 + 1


class TestFrozenRecords:
    def test_fields_cannot_be_assigned(self):
        g = build_demo_graph()
        for record in (g.nodes[1], g.memory_bank[0]):
            for f in dataclasses.fields(record):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, f.name, getattr(record, f.name))

    def test_replace_checks_the_new_item(self):
        item = build_demo_graph().memory_bank[0]
        with pytest.raises(ValueError, match="no budget"):
            dataclasses.replace(item, dropped=True, allocated_budget=3)


class TestLinearize:
    def test_fresh_graph_single_record(self):
        text = new_graph("Who directed X?").linearize()
        lines = text.strip().splitlines()
        assert len(lines) == 2  # header + root record
        assert "Who directed X?" in lines[1]

    def test_matches_golden(self, golden_dir):
        g = build_demo_graph()
        g.add_answer_node({"director-search"}, "Y")
        expected = (golden_dir / "linearize_demo.txt").read_text(encoding="utf-8")
        assert g.linearize() == expected

    def test_deterministic(self):
        g = build_demo_graph()
        assert g.linearize() == g.linearize()

    def test_injective_under_field_changes(self):
        base = build_demo_graph().linearize()
        g = build_demo_graph()
        g.nodes[1] = dataclasses.replace(g.nodes[1], summary="X was directed by Z")
        assert g.linearize() != base
        g = build_demo_graph()
        g.memory_bank[0] = dataclasses.replace(g.memory_bank[0], allocated_budget=7)
        assert g.linearize() != base
        g = build_demo_graph()
        g.step += 1
        assert g.linearize() != base
        g = build_demo_graph()
        g.memory_bank[0] = dataclasses.replace(g.memory_bank[0], dropped=True, allocated_budget=0)
        assert g.linearize() != base
        g = build_demo_graph()
        g.memory_bank[0] = dataclasses.replace(g.memory_bank[0], saliency=0)
        assert g.linearize() != base
        g = build_demo_graph()
        g.append_item(VisualItem(1, 1, 1, ItemModality.IMAGE, "stray"))
        assert g.linearize() != base  # bank count in the header

    def test_rerender_after_budget_change(self):
        g = build_demo_graph()
        shape_memory(g, EnergyParams(top_k=1))
        first = g.linearize()
        item = g.memory_bank[0]
        assert not item.dropped
        g.memory_bank[0] = dataclasses.replace(item, allocated_budget=item.allocated_budget - 1)
        second = g.linearize()
        assert second != first
        assert second == MemoryGraph.from_dict(g.to_dict()).linearize()
        g.memory_bank[0] = dataclasses.replace(item, allocated_budget=1)
        assert '"budget":1,' in g.linearize()
        # equal to 1 in Python, but not in JSON
        g.memory_bank[0] = dataclasses.replace(item, allocated_budget=True)
        assert '"budget":true,' in g.linearize()

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["add", "populate", "answer", "shape", "summary", "budget", "step",
                     "dropped", "saliency", "append", "retype"]
                ),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
            max_size=40,
        )
    )
    def test_reused_lines_match_fresh_render(self, ops):
        g = new_graph("probe query")
        for op, seed in ops:
            rng = random.Random(seed)
            searches = [n for n in g.nodes if n.kind is NodeKind.SEARCH]
            items = g.memory_bank
            live = [item for item in items if not item.dropped]
            if op == "add" and not g.is_terminal:
                parents = rng.sample(g.nodes, rng.randint(1, min(2, len(g.nodes))))
                g.add_search_node(f"n{len(g.nodes)}", {n.title for n in parents}, f"query {seed}")
            elif op == "populate" and not g.is_terminal:
                pending = [n for n in searches if not n.populated]
                if pending:
                    node = rng.choice(pending)
                    refs = [
                        g.append_item(random_item(rng, len(items), node.index, slot))
                        for slot in range(rng.randint(0, 3))
                    ]
                    g.populate_node(node.index, f"summary {seed}", refs)
            elif op == "answer" and not g.is_terminal:
                g.add_answer_node({rng.choice(g.nodes).title}, f"answer {seed}")
            elif op == "shape":
                shape_memory(g, EnergyParams(top_k=rng.randint(1, 3), s_total=1000))
            elif op == "summary" and searches:
                i = rng.choice(searches).index
                g.nodes[i] = dataclasses.replace(g.nodes[i], summary=f"edited {seed}")
            elif op == "budget" and live:
                k = rng.choice(live).ordinal
                items[k] = dataclasses.replace(items[k], allocated_budget=rng.randint(0, 5))
            elif op == "step":
                g.step += 1
            elif op == "dropped" and live:
                k = rng.choice(live).ordinal
                items[k] = dataclasses.replace(items[k], dropped=True, allocated_budget=0)
            elif op == "saliency" and items:
                k = rng.randrange(len(items))
                items[k] = dataclasses.replace(items[k], saliency=rng.choice([0, 1]))
            elif op == "append" and not g.is_terminal:
                g.append_item(random_item(rng, len(items), rng.randrange(len(g.nodes)), -1))
            elif op == "retype" and items:
                k = rng.randrange(len(items))  # same value, other type: 1 -> True, 12.0 -> 12
                saliency, ts = items[k].saliency, items[k].source_timestamp_s
                changes = {"saliency": bool(saliency) if type(saliency) is int else int(saliency)}
                if ts is not None:
                    changes["source_timestamp_s"] = int(ts) if type(ts) is float else float(ts)
                items[k] = dataclasses.replace(items[k], **changes)
            text = g.linearize()
            assert text == MemoryGraph.from_dict(g.to_dict()).linearize()


    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["retitle", "swap_item", "swap_node", "edit_items", "deepcopy", "pickle",
                     "add", "populate", "shape", "budget"]
                ),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
            max_size=30,
        ),
    )
    def test_reuse_survives_replacements_and_copies(self, start, ops):
        """Edits reuse must see through: a parent's title, a bank slot or
        node slot holding a new object, a node's item list replaced, and a
        deep copy or pickled copy of a rendered graph edited afterwards."""
        g = random_graph_with_items(random.Random(start), max_nodes=8)
        previous = None  # the graph the last copy was taken from
        for counter, (op, seed) in enumerate(ops):
            rng = random.Random(seed)
            searches = [n for n in g.nodes if n.kind is NodeKind.SEARCH]
            bank = g.memory_bank
            if op == "retitle":
                i = rng.choice([n for n in g.nodes if n.kind is not NodeKind.ANSWER]).index
                g.nodes[i] = dataclasses.replace(g.nodes[i], title=f"renamed {counter}")
            elif op == "swap_item" and bank:
                k = rng.randrange(len(bank))
                changes = rng.choice([{}, {"payload_ref": f"swap://{counter}"}, {"priority": 1}])
                bank[k] = dataclasses.replace(bank[k], **changes)
            elif op == "swap_node":
                i = rng.randrange(len(g.nodes))
                changes = rng.choice([{}, {"summary": f"swapped {counter}"}])
                g.nodes[i] = dataclasses.replace(g.nodes[i], **changes)
            elif op == "edit_items" and searches:
                i = rng.choice(searches).index
                items = list(g.nodes[i].items)
                edit = rng.choice(["append", "reverse", "pop", "clear"])
                if edit == "append" and bank:
                    items.append(rng.randrange(len(bank)))
                elif edit == "reverse":
                    items.reverse()
                elif edit == "pop" and items:
                    items.pop(rng.randrange(len(items)))
                elif edit == "clear":
                    items.clear()
                g.nodes[i] = dataclasses.replace(g.nodes[i], items=tuple(items))
            elif op == "deepcopy":
                previous, g = g, copy.deepcopy(g)
            elif op == "pickle":
                previous, g = g, pickle.loads(pickle.dumps(g))
            elif op == "add" and not g.is_terminal:
                parents = rng.sample(g.nodes, rng.randint(1, min(2, len(g.nodes))))
                g.add_search_node(f"added {counter}", {n.title for n in parents}, f"q {seed}")
            elif op == "populate" and not g.is_terminal:
                pending = [n for n in searches if not n.populated]
                if pending:
                    node = rng.choice(pending)
                    refs = [
                        g.append_item(random_item(rng, len(bank), node.index, slot))
                        for slot in range(rng.randint(0, 3))
                    ]
                    g.populate_node(node.index, f"summary {seed}", refs)
            elif op == "shape":
                shape_memory(g, EnergyParams(top_k=rng.randint(1, 3), s_total=1000))
            elif op == "budget":
                live = [item for item in bank if not item.dropped]
                if live:
                    k = rng.choice(live).ordinal
                    bank[k] = dataclasses.replace(bank[k], allocated_budget=rng.randint(0, 5))
            for graph in (g, previous) if previous is not None else (g,):
                assert graph.linearize() == MemoryGraph.from_dict(graph.to_dict()).linearize()


class TestEvictedItemsLeftOut:
    """Each search node lists only the items shaping has not evicted, for
    graphs grown, shaped and evicted in place with texts JSON must escape."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_listed_items_are_the_live_ones(self, seed):
        rng = random.Random(seed)
        g = new_graph(escape_text(rng))
        params = EnergyParams(top_k=rng.randint(1, 3), s_total=rng.choice([7, 1000, 10**6]))
        for cycle in range(rng.randint(1, 12)):
            parents = rng.sample(g.nodes, rng.randint(1, min(3, len(g.nodes))))
            g.add_search_node(
                f"{escape_text(rng)} {cycle}", {n.title for n in parents}, escape_text(rng)
            )
            owner, first = len(g.nodes) - 1, len(g.memory_bank)
            g.memorize(escape_text(rng), [
                VisualItem(
                    first + slot, owner, slot, rng.choice(list(ItemModality)),
                    # the marker names the item's ref alone in the text
                    f"{escape_text(rng)}#ref{first + slot}#", saliency=rng.choice([0, 1, 1]),
                    priority=rng.randint(1, 5),
                    source_timestamp_s=rng.choice([None, 0.5, 12.0, 7.123456]),
                )
                for slot in range(rng.randint(0, 4))
            ])
            shape_memory(g, params)
            self.check(g)
            live = [item for item in g.memory_bank if not item.dropped]
            if live and rng.random() < 0.5:
                before = g.linearize()
                k = rng.choice(live).ordinal
                g.memory_bank[k] = dataclasses.replace(
                    g.memory_bank[k], dropped=True, allocated_budget=0
                )
                assert g.linearize() != before
                self.check(g)

    @staticmethod
    def check(g: MemoryGraph) -> None:
        text = g.linearize()
        bank = g.memory_bank
        listed = {
            record["index"]: [item["ordinal"] for item in record["items"]]
            for record in map(json.loads, text.split("\n")[1:-1])
            if record["kind"] == "search"
        }
        assert listed == {
            node.index: [k for k in node.items if not bank[k].dropped]
            for node in g.nodes if node.kind is NodeKind.SEARCH
        }
        for item in bank:
            assert (f"#ref{item.ordinal}#" in text) is not item.dropped
        assert text == MemoryGraph.from_dict(g.to_dict()).linearize()


def random_item(rng, ordinal, owner, slot):
    return VisualItem(
        ordinal,
        owner,
        slot,
        rng.choice(list(ItemModality)),
        f"ref://{owner}/{ordinal}",
        saliency=rng.choice([0, 1, 1]),
        priority=rng.randint(1, 5),
        source_timestamp_s=rng.choice([None, 12.0, 7.25]),
    )


class TestDuplicateQueries:
    def test_one_duplicate(self):
        g = new_graph("q")
        for title, query in [("s1", "a"), ("s2", "b"), ("s3", "a")]:
            g.add_search_node(title, {"root"}, query)
        assert g.duplicate_query_count() == 1

    def test_all_distinct(self):
        g = new_graph("q")
        for title, query in [("s1", "a"), ("s2", "b"), ("s3", "c")]:
            g.add_search_node(title, {"root"}, query)
        assert g.duplicate_query_count() == 0

    def test_normalization(self):
        g = new_graph("q")
        g.add_search_node("s1", {"root"}, "A ")
        g.add_search_node("s2", {"root"}, "a")
        assert g.duplicate_query_count() == 1


class TestPersistence:
    def test_round_trip_byte_stable(self):
        first = canonical_dumps(build_demo_graph().to_dict())
        again = canonical_dumps(MemoryGraph.from_dict(json.loads(first)).to_dict())
        assert again == first

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            MemoryGraph.from_dict({"schema": "memory-graph/99", "nodes": []})

    def test_corrupt_structure_rejected_on_load(self):
        record = json.loads(canonical_dumps(build_demo_graph().to_dict()))
        record["nodes"][1]["parent_indices"] = [5]  # parent above own index
        with pytest.raises(CorruptGraph):
            MemoryGraph.from_dict(record)


def _broken_record(path, value):
    """The record of a graph with root, node 1 (items 0-2) and node 2 (item
    3, created at step 2), with the value at ``path`` replaced."""
    g = new_graph("q")
    g.add_search_node("n1", {"root"}, "q1")
    g.memorize("s1", [VisualItem(k, 1, k, ItemModality.TEXT, f"doc://{k}") for k in range(3)])
    g.add_search_node("n2", {"n1"}, "q2")
    g.memorize("s2", [VisualItem(3, 2, 0, ItemModality.TEXT, "doc://3")])
    record = g.to_dict()
    *keys, last = path
    target = record
    for key in keys:
        target = target[key]
    target[last] = value
    return record


class TestValidateMessages:
    """Each broken rule of a loaded graph is named by its own message."""

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("nodes", 1, "items"), [7, 1, 2], "node 1 references missing item 7"),
            (("nodes", 1, "items"), [0, 7, 2], "node 1 references missing item 7"),
            (("nodes", 1, "items"), [0, 1, 7], "node 1 references missing item 7"),
            (("nodes", 1, "items"), [0, 8, 7], "node 1 references missing item 8"),
            (("nodes", 1, "items"), [0, 1, 4], "node 1 references missing item 4"),
            (("nodes", 2, "items"), [-1], "node 2 references missing item -1"),
            (("nodes", 1, "items"), [0, 1, float("nan")], "node 1 references missing item nan"),
            (("nodes", 2, "parent_indices"), [1, 2], "node 2 has a parent at or above its own index"),
            (("nodes", 2, "parent_indices"), [-1, 1], "node 2 has a negative parent index"),
            (("memory_bank", 2, "ordinal"), 5, "bank item ordinal 5 at position 2"),
            (("memory_bank", 3, "owner_node"), 3, "bank item 3 has unknown owner 3"),
            (("memory_bank", 0, "owner_node"), -1, "bank item 0 has unknown owner -1"),
            (("step",), 1, "graph step is behind a node creation step"),
            (("nodes", 1, "kind"), "answer", "answer node 1 is not the last node"),
        ],
        ids=[
            "bad ref first", "bad ref in the middle", "bad ref last", "first of two bad refs",
            "ref equal to the bank length", "negative ref", "NaN ref", "parent at own index",
            "negative parent", "bank ordinal mismatch", "unknown owner", "negative owner",
            "step behind creation", "answer not last",
        ],
    )
    def test_message(self, path, value, message):
        with pytest.raises(CorruptGraph) as caught:
            MemoryGraph.from_dict(_broken_record(path, value))
        assert str(caught.value) == message

    def test_unbroken_record_loads(self):
        record = _broken_record(("step",), 2)
        assert MemoryGraph.from_dict(record).to_dict() == record


class TestStructuralProperties:
    def test_mutation_count(self):
        g = new_graph("q")
        for i in range(5):
            g.add_search_node(f"s{i}", {"root"}, f"q{i}")
        g.add_answer_node({"s0"}, "ans")
        assert len(g.nodes) == 7  # root + 5 adds + answer

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_graphs_hold_invariants(self, seed):
        rng = random.Random(seed)
        g = random_graph_with_items(rng, max_nodes=12)
        for node in g.nodes:
            assert all(p < node.index for p in node.parent_indices)
        g.validate()
        if rng.random() < 0.7 and len(g.nodes) > 1 and not g.is_terminal:
            parents = {g.nodes[rng.randrange(len(g.nodes))].title}
            g.add_answer_node(parents, "answer")
        assert g.critical_path() == forward_reachability_path(g)
        if g.is_terminal:
            nodes_before = len(g.nodes)
            with pytest.raises(GraphTerminal):
                g.add_search_node("late", {"root"}, "late query")
            assert len(g.nodes) == nodes_before
