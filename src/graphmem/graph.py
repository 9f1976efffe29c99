"""The reasoning-state graph: node lifecycle, validation, critical path,
linearization, structural statistics, and persistence.

The graph is a DAG with exactly one root (index 0), any number of search
nodes, and at most one answer node.  Every edge points from a lower index to
a higher index, so insertion order is a topological order and the graph is
acyclic by construction.  Once an answer node exists the graph is terminal
and refuses further mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter, is_
from typing import Iterable, Sequence

from .canon import Record, canonical_dumps, json_escape, normalize_text
from .energy import VisualItem
from .errors import DomainError

GRAPH_SCHEMA = "memory-graph/1"
ROOT_TITLE = "root"
# linearize's cache entry for a node position it has not rendered yet
_NO_LINE = (None, (), None, (), "", "")


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
    # linearize's reusable output, holding the records it was rendered from:
    # node position -> (node, parent nodes, the text before and after the
    # item fragments and their JSON escapes, items, line, the line
    # JSON-escaped), bank position -> (item, fragment, the fragment
    # JSON-escaped), and its last text with the JSON escapes of its lines
    _node_lines: dict[int, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _item_lines: dict[int, tuple[VisualItem, str, str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _escaped: tuple[str | None, Sequence[str]] = field(
        default=(None, ()), init=False, repr=False, compare=False
    )

    # -- reads ------------------------------------------------------------

    @property
    def is_terminal(self) -> bool:
        return any(node.kind is _ANSWER for node in self.nodes)

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
        answer = next((n for n in self.nodes if n.kind is _ANSWER), None)
        if answer is None:
            return set()
        reached = {answer.index}
        stack = [answer.index]
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

        Bank items appear under their owning node with their current budget
        and opaque payload reference; raw visual payloads never appear.
        Byte-identical across runs for identical graphs, and distinct graphs
        render distinctly (all node and item fields participate; items not
        yet attached to a node show up only in the header's bank count).

        Rendering is incremental.  Nodes and items are immutable, so the
        same object always renders the same; reuse is decided by identity
        (``is``), never by ``==``, under which ``1`` and ``True`` are equal
        but render differently.  An item's JSON fragment is serialized again
        only when its bank position holds another object.  A node's line is
        reused while the node, its parents (their titles are rendered) and
        the items its ``items`` names are the objects it was rendered from;
        otherwise it is assembled from the node's own fields and the item
        fragments, equal byte for byte to the canonical dump of its whole
        record.  Shaping replaces only the live top-K items and eviction is
        permanent, so most nodes of a deep graph stop changing.  A fragment
        whose item differs from the one it was rendered from only in budget
        and dropped flag keeps its text after those two keys.  Each line's
        JSON escape, for :meth:`escaped_text`, is joined from the escapes of
        its parts, which are kept beside them; JSON escapes each character
        on its own, so that equals escaping the whole line.
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
        lines, escaped = [header], [json_escape(header)]
        nodes, bank = self.nodes, self.memory_bank
        node_lines, item_lines = self._node_lines, self._item_lines
        node_at, item_at = nodes.__getitem__, bank.__getitem__
        for position, node in enumerate(nodes):
            refs = node.items if node.kind is _SEARCH else ()
            cached, cached_parents, parts, cached_items, line, escaped_line = (
                node_lines.get(position, _NO_LINE)
            )
            # pairwise checks suffice: the same node has as many parents and
            # items as when it was cached
            same_node = cached is node and all(
                map(is_, cached_parents, map(node_at, sorted(node.parent_indices)))
            )
            if not same_node or not all(map(is_, cached_items, map(item_at, refs))):
                parents = [nodes[p] for p in sorted(node.parent_indices)]
                items = [bank[k] for k in refs]
                if not same_node:
                    parts = _node_parts(node, [parent.title for parent in parents])
                fragments, escaped_fragments = [], []
                for k, item in zip(refs, items):
                    entry = item_lines.get(k)
                    if entry is None or entry[0] is not item:
                        entry = item_lines[k] = _item_entry(item, entry)
                    fragments.append(entry[1])
                    escaped_fragments.append(entry[2])
                head, tail, escaped_head, escaped_tail = parts
                line = head + ",".join(fragments) + tail
                escaped_line = escaped_head + ",".join(escaped_fragments) + escaped_tail
                node_lines[position] = (node, parents, parts, items, line, escaped_line)
            lines.append(line)
            escaped.append(escaped_line)
        text = "\n".join(lines) + "\n"
        self._escaped = (text, escaped)
        return text

    def escaped_text(self, text: str) -> str:
        """``json_escape(text)``.  For the text :meth:`linearize` returned
        last, it is joined from the lines escaped there."""
        last, escaped_lines = self._escaped
        if last is not text:
            return json_escape(text)
        return "\\n".join(escaped_lines) + "\\n"

    # -- mutations (single writer) ----------------------------------------

    def add_search_node(self, title: str, parent_titles: Iterable[str], query: str) -> int:
        if self.is_terminal:
            raise GraphTerminal("graph already has an answer node")
        if not title:
            raise BadTitle("search node title must be non-empty")
        if any(node.title == title for node in self.nodes):
            raise DuplicateTitle(f"title already in use: {title!r}")
        parents = frozenset(self.resolve_title(t) for t in parent_titles)
        if not parents:
            raise UnknownParent("a search node needs at least one parent")
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
        if self.is_terminal:
            raise GraphTerminal("graph already has an answer node")
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
        if self.is_terminal:
            raise GraphTerminal("graph already has an answer node")
        parents = frozenset(self.resolve_title(t) for t in parent_titles)
        if not parents:
            raise UnknownParent("an answer node needs at least one parent")
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
        if self.is_terminal:
            raise GraphTerminal("graph already has an answer node")
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
        answers = 0
        titles: set[str] = set()
        max_created = 0
        bank_size = len(bank)
        for position, node in enumerate(nodes):
            kind, parents = node.kind, node.parent_indices
            if node.index != position:
                raise CorruptGraph(f"node index {node.index} at position {position}")
            if kind is _ROOT and position != 0:
                raise CorruptGraph("root must be unique and at index 0")
            if kind is _ANSWER:
                answers += 1
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
        if answers > 1:
            raise CorruptGraph("at most one answer node is allowed")
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


def _node_parts(node: MemoryNode, parent_titles: list[str]) -> tuple[str, str, str, str]:
    """A node's line without its item fragments, and its JSON escape.  For a
    search node, the text before and after the contents of its ``items``
    list; "items" sorts between "index" and "kind", so the line is two
    canonical dumps spliced around the list.  For any other node, the whole
    line and "".  Then the JSON escapes of those two."""
    record: dict = {
        "kind": node.kind.value,
        "title": node.title,
        "parents": parent_titles,
    }
    if node.kind is _SEARCH:
        record.update(query=node.query, populated=node.populated, summary=node.summary)
        head = canonical_dumps({"created_step": node.created_step, "index": node.index})
        head, tail = head[:-1] + ',"items":[', "]," + canonical_dumps(record)[1:]
    else:
        record.update(index=node.index, created_step=node.created_step)
        if node.kind is _ROOT:
            record["query"] = node.query
        else:
            record["answer"] = node.answer_text
        head, tail = canonical_dumps(record), ""
    return head, tail, json_escape(head), json_escape(tail)


def _item_record(item: VisualItem) -> dict:
    record = {
        "budget": item.allocated_budget,
        "dropped": item.dropped,
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


# the first two keys of an item's fragment, the two that shaping rewrites,
# as they stand in the fragment and in its JSON escape
_SHAPED_KEYS = '{"budget":%d,"dropped":%s'
_ESCAPED_SHAPED_KEYS = json_escape(_SHAPED_KEYS)
# the other fields of an item
_UNSHAPED = attrgetter(
    "ordinal", "owner_node", "slot", "modality", "payload_ref", "saliency", "priority",
    "source_timestamp_s",
)


def _item_entry(item: VisualItem, cached: tuple | None) -> tuple[VisualItem, str, str]:
    """linearize's cache entry for a bank item: the item, its fragment and
    the fragment JSON-escaped.  ``cached`` is the entry of the item that
    held the bank position before, if any.  Shaping replaces an item by one
    that differs only in ``allocated_budget`` and ``dropped``, whose keys
    sort first; then only those two are rendered and the rest of the cached
    text is reused.  That takes every other field to be the same object,
    and both items to hold the two as an ``int`` and a ``bool`` exactly:
    a budget of ``True`` renders as ``true``."""
    if cached is not None:
        old, fragment, escaped = cached
        values, old_values = _shaped_values(item), _shaped_values(old)
        if values and old_values and all(map(is_, _UNSHAPED(old), _UNSHAPED(item))):
            return (
                item,
                _SHAPED_KEYS % values + fragment[len(_SHAPED_KEYS % old_values):],
                _ESCAPED_SHAPED_KEYS % values + escaped[len(_ESCAPED_SHAPED_KEYS % old_values):],
            )
    fragment = canonical_dumps(_item_record(item))
    return item, fragment, json_escape(fragment)


def _shaped_values(item: VisualItem) -> tuple[int, str] | None:
    """The budget and dropped flag as ``_SHAPED_KEYS`` renders them, or None
    unless they are an ``int`` and a ``bool`` exactly."""
    budget, dropped = item.allocated_budget, item.dropped
    if type(budget) is int and type(dropped) is bool:
        return budget, "true" if dropped else "false"
    return None


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
