"""The reasoning-state graph: node lifecycle, validation, critical path,
linearization, structural statistics, and persistence.

The graph is a DAG with exactly one root (index 0), any number of search
nodes, and at most one answer node, which is the last node.  Every edge
points from a lower index to a higher index, so insertion order is a
topological order and the graph is acyclic by construction.  Once an answer
node exists the graph is terminal and refuses further mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from operator import is_
from typing import Iterable, Sequence

from .canon import Record, canonical_dumps, normalize_text, require_json_type
from .energy import VisualItem
from .errors import DomainError

GRAPH_SCHEMA = "memory-graph/1"
ROOT_TITLE = "root"
# linearize's cache entry for a node position it has not rendered yet
_NO_LINE = (None, (), (), "")


class GraphError(DomainError):
    pass


class EmptyQuery(GraphError):
    pass


class BadTitle(GraphError):
    pass


class UnknownParent(GraphError):
    pass


class DuplicateTitle(GraphError):
    pass


class GraphTerminal(GraphError):
    pass


class AlreadyPopulated(GraphError):
    pass


class NotASearchNode(GraphError):
    pass


class BadItemRef(GraphError):
    pass


class BadIndex(GraphError):
    pass


class SchemaMismatch(GraphError):
    pass


class CorruptGraph(GraphError):
    pass


class NodeKind(str, Enum):
    ROOT = "root"
    SEARCH = "search"
    ANSWER = "answer"


# the members, bound once: reading one off the class costs ten times more,
# and the per-node loops below read them for every node
_ROOT, _SEARCH, _ANSWER = NodeKind.ROOT, NodeKind.SEARCH, NodeKind.ANSWER


@dataclass(frozen=True)
class MemoryNode(Record):
    """One epistemic state: where it hangs (parents), what was asked (query),
    what was learned (summary), and which bank items back it up (items).
    Nodes are immutable: a change is a new node put in the node's place."""

    index: int
    kind: NodeKind
    title: str
    parent_indices: frozenset[int]
    query: str = ""
    summary: str = ""
    items: tuple[int, ...] = ()
    created_step: int = 0
    answer_text: str = ""
    populated: bool = False


@dataclass
class MemoryGraph:
    root_query: str
    nodes: list[MemoryNode] = field(default_factory=list)
    memory_bank: list[VisualItem] = field(default_factory=list)
    step: int = 0
    # linearize's reusable lines, with the records each was rendered from:
    # node position -> (node, parent nodes, bank items its refs name, line)
    _node_lines: dict[int, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- reads ------------------------------------------------------------

    @property
    def is_terminal(self) -> bool:
        # validate keeps an answer node last
        return bool(self.nodes) and self.nodes[-1].kind is _ANSWER

    def node_at(self, index: int) -> MemoryNode:
        if not 0 <= index < len(self.nodes):
            raise BadIndex(f"no node at index {index}")
        return self.nodes[index]

    def resolve_title(self, title: str) -> int:
        for node in self.nodes:
            if node.title == title:
                return node.index
        raise UnknownParent(f"no node titled {title!r}")

    def critical_path(self) -> set[int]:
        """Indices of all nodes with a directed path to the answer node,
        answer included.  Empty when no answer node exists."""
        if not self.is_terminal:
            return set()
        answer = len(self.nodes) - 1
        reached = {answer}
        stack = [answer]
        while stack:
            for parent in self.nodes[stack.pop()].parent_indices:
                if parent not in reached:
                    reached.add(parent)
                    stack.append(parent)
        return reached

    def duplicate_query_count(self) -> int:
        """Search nodes whose normalized query repeats an earlier node's
        (case-folded, whitespace-collapsed)."""
        seen: set[str] = set()
        duplicates = 0
        for node in self.nodes:
            if node.kind is not _SEARCH:
                continue
            key = normalize_text(node.query)
            if key in seen:
                duplicates += 1
            else:
                seen.add(key)
        return duplicates

    def linearize(self) -> str:
        """Deterministic index-ordered text rendering of the whole graph:
        one canonical JSON record per node, preceded by a header line.

        Each search node lists the bank items it owns that shaping has not
        evicted, with their opaque payload reference; raw visual payloads
        never appear, and neither do evicted items, which the budget has
        discarded for good.  Budgets are not in the graph: each cycle's
        assignment holds them, and the prompt lists them once, after the
        graph text.  Byte-identical across runs for identical graphs, and
        distinct graphs render distinctly in node fields, in live-item
        fields and in which items are evicted (items not yet attached to a
        node show up only in the header's bank count).

        A node's line is kept and reused while the node, its parents (their
        titles are rendered) and every item its ``items`` names, evicted or
        not, are the objects it was rendered from.  Nodes and items are
        immutable, so the same object always renders the same; reuse is
        decided by identity (``is``), never by ``==``, under which ``1`` and
        ``True`` are equal but render differently.
        """
        header = canonical_dumps(
            {
                "bank": len(self.memory_bank),
                "nodes": len(self.nodes),
                "root_query": self.root_query,
                "schema": GRAPH_SCHEMA,
                "step": self.step,
            }
        )
        lines = [header]
        nodes, bank, node_lines = self.nodes, self.memory_bank, self._node_lines
        node_at, item_at = nodes.__getitem__, bank.__getitem__
        for position, node in enumerate(nodes):
            parent_indices = sorted(node.parent_indices)
            refs = node.items if node.kind is _SEARCH else ()
            cached, parents, items, line = node_lines.get(position, _NO_LINE)
            # pairwise checks suffice: the same node has as many parents and
            # items as when it was cached
            if not (
                cached is node
                and all(map(is_, parents, map(node_at, parent_indices)))
                and all(map(is_, items, map(item_at, refs)))
            ):
                parents = [nodes[p] for p in parent_indices]
                items = [bank[k] for k in refs]
                line = canonical_dumps(_node_record(node, parents, items))
                node_lines[position] = (node, parents, items, line)
            lines.append(line)
        return "\n".join(lines) + "\n"

    # -- mutations (single writer) ----------------------------------------

    def _check_open(self) -> None:
        if self.is_terminal:
            raise GraphTerminal("graph already has an answer node")

    def _parents(self, parent_titles: Iterable[str], node: str) -> frozenset[int]:
        """The indices of a new ``node``'s parents, of which it needs one or more."""
        parents = frozenset(self.resolve_title(t) for t in parent_titles)
        if not parents:
            raise UnknownParent(f"{node} needs at least one parent")
        return parents

    def add_search_node(self, title: str, parent_titles: Iterable[str], query: str) -> int:
        self._check_open()
        if not title:
            raise BadTitle("search node title must be non-empty")
        if any(node.title == title for node in self.nodes):
            raise DuplicateTitle(f"title already in use: {title!r}")
        parents = self._parents(parent_titles, "a search node")
        self.step += 1
        node = MemoryNode(
            index=len(self.nodes),
            kind=NodeKind.SEARCH,
            title=title,
            parent_indices=parents,
            query=query,
            created_step=self.step,
        )
        self.nodes.append(node)
        self.validate()
        return node.index

    def _open_search_node(self, index: int) -> MemoryNode:
        self._check_open()
        node = self.node_at(index)
        if node.kind is not _SEARCH:
            raise NotASearchNode(f"node {index} is a {node.kind.value} node")
        if node.populated:
            raise AlreadyPopulated(f"node {index} was already populated")
        return node

    def populate_node(self, index: int, summary: str, item_refs: Iterable[int]) -> None:
        node = self._open_search_node(index)
        refs = tuple(item_refs)
        for ref in refs:
            if not 0 <= ref < len(self.memory_bank):
                raise BadItemRef(f"no memory bank item at ordinal {ref}")
        self.nodes[index] = replace(node, summary=summary, items=refs, populated=True)
        self.validate()

    def memorize(self, summary: str, items: Sequence[VisualItem]) -> None:
        """Close the newest node, an open search node: append ``items``, the
        evidence it holds, to the bank and populate it with ``summary``.
        Each item's ordinal continues the bank and its owner is that node.
        Everything is checked before anything changes, so a refused memorize
        leaves the graph as it was."""
        node = self._open_search_node(len(self.nodes) - 1)
        for ordinal, item in enumerate(items, len(self.memory_bank)):
            if (item.ordinal, item.owner_node) != (ordinal, node.index):
                raise BadItemRef(
                    f"item {item.ordinal} of node {item.owner_node} is not item {ordinal} "
                    f"of node {node.index}"
                )
        self.memory_bank.extend(items)
        self.populate_node(node.index, summary, [item.ordinal for item in items])

    def add_answer_node(self, parent_titles: Iterable[str], answer: str) -> int:
        self._check_open()
        parents = self._parents(parent_titles, "an answer node")
        node = MemoryNode(
            index=len(self.nodes),
            kind=NodeKind.ANSWER,
            title="",
            parent_indices=parents,
            answer_text=answer,
            created_step=self.step,
        )
        self.nodes.append(node)
        self.validate()
        return node.index

    def append_item(self, item: VisualItem) -> int:
        """Append a fully-identified item to the memory bank."""
        self._check_open()
        if item.ordinal != len(self.memory_bank):
            raise BadItemRef(
                f"item ordinal {item.ordinal} does not match bank position {len(self.memory_bank)}"
            )
        self.node_at(item.owner_node)
        self.memory_bank.append(item)
        return item.ordinal

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Assert the structural invariants; raises CorruptGraph on any
        violation.  Runs after every mutation and on load."""
        nodes, bank = self.nodes, self.memory_bank
        if not nodes or nodes[0].kind is not _ROOT:
            raise CorruptGraph("node 0 must be the root")
        last = len(nodes) - 1
        titles: set[str] = set()
        max_created = 0
        bank_size = len(bank)
        for position, node in enumerate(nodes):
            kind, parents = node.kind, node.parent_indices
            if node.index != position:
                raise CorruptGraph(f"node index {node.index} at position {position}")
            if kind is _ROOT and position != 0:
                raise CorruptGraph("root must be unique and at index 0")
            if kind is _ANSWER and position != last:
                raise CorruptGraph(f"answer node {position} is not the last node")
            if parents:
                if max(parents) >= node.index:
                    raise CorruptGraph(f"node {node.index} has a parent at or above its own index")
                if min(parents) < 0:
                    raise CorruptGraph(f"node {node.index} has a negative parent index")
            if kind is _ROOT and parents:
                raise CorruptGraph("root must have no parents")
            if kind is not _ROOT and not parents:
                raise CorruptGraph(f"node {node.index} must have at least one parent")
            if kind is not _ANSWER:
                if node.title in titles:
                    raise CorruptGraph(f"duplicate title {node.title!r}")
                titles.add(node.title)
            if node.created_step > max_created:
                max_created = node.created_step
            for ref in node.items:
                if not 0 <= ref < bank_size:
                    raise CorruptGraph(f"node {node.index} references missing item {ref}")
        if self.step < max_created:
            raise CorruptGraph("graph step is behind a node creation step")
        node_count = len(nodes)
        for position, item in enumerate(bank):
            if item.ordinal != position:
                raise CorruptGraph(f"bank item ordinal {item.ordinal} at position {position}")
            if not 0 <= item.owner_node < node_count:
                raise CorruptGraph(f"bank item {position} has unknown owner {item.owner_node}")

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": GRAPH_SCHEMA,
            "root_query": self.root_query,
            "step": self.step,
            "nodes": [node.to_dict() for node in self.nodes],
            "memory_bank": [item.to_dict() for item in self.memory_bank],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "MemoryGraph":
        if not isinstance(record, dict):
            raise CorruptGraph(f"a graph record is a JSON object, got {type(record).__name__}")
        if record.get("schema") != GRAPH_SCHEMA:
            raise SchemaMismatch(
                f"expected schema {GRAPH_SCHEMA!r}, got {record.get('schema')!r}"
            )
        try:
            require_json_type(record["root_query"], str, "root_query")
            require_json_type(record["step"], int, "step")
            graph = cls(
                root_query=record["root_query"],
                nodes=[MemoryNode.from_dict(n) for n in record["nodes"]],
                memory_bank=[VisualItem.from_dict(i) for i in record["memory_bank"]],
                step=record["step"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptGraph(f"malformed graph record: {exc}") from exc
        graph.validate()
        return graph


def _node_record(
    node: MemoryNode, parents: list[MemoryNode], items: list[VisualItem]
) -> dict:
    """A node's line as a record: its own fields, its parents' titles and,
    for a search node, the records of ``items`` that are not evicted."""
    record: dict = {
        "created_step": node.created_step,
        "index": node.index,
        "kind": node.kind.value,
        "title": node.title,
        "parents": [parent.title for parent in parents],
    }
    if node.kind is _SEARCH:
        record.update(
            query=node.query,
            populated=node.populated,
            summary=node.summary,
            items=[_item_record(item) for item in items if not item.dropped],
        )
    elif node.kind is _ROOT:
        record["query"] = node.query
    else:
        record["answer"] = node.answer_text
    return record


def _item_record(item: VisualItem) -> dict:
    record = {
        "modality": item.modality.value,
        "ordinal": item.ordinal,
        "priority": item.priority,
        "ref": item.payload_ref,
        "saliency": item.saliency,
        "slot": item.slot,
    }
    if item.source_timestamp_s is not None:
        record["ts"] = item.source_timestamp_s
    return record


def new_graph(root_query: str) -> MemoryGraph:
    """Fresh graph holding only the root node for ``root_query`` at step 0."""
    if not root_query or not root_query.strip():
        raise EmptyQuery("root query must be non-empty")
    graph = MemoryGraph(root_query=root_query)
    graph.nodes.append(
        MemoryNode(
            index=0,
            kind=NodeKind.ROOT,
            title=ROOT_TITLE,
            parent_indices=frozenset(),
            query=root_query,
        )
    )
    graph.validate()
    return graph
