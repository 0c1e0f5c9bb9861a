"""API dependency graph: parameter matching, construction, queries, reachability.

Nodes are API methods with typed input/output parameter lists.  A directed
edge ``(head, tag, tail)`` records that some output of ``head`` satisfies the
input type of ``tail`` named by ``tag``.  Construction goes through an
inverted index from parameter types to consumer nodes, so each provider is
matched against index buckets instead of against every other node.

A constructed :class:`Adg` is immutable and safe for concurrent readers;
reachability queries keep their counters in caller-local state.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

GRAPH_HEADER = "ADG-GRAPH-v1"
DEFAULT_EDGE_CAP = 50_000_000


class GraphError(ValueError):
    """Invalid input to a graph operation."""


class UnknownTypeError(GraphError):
    """A type name that is not declared in the hierarchy."""


class UnknownNodeError(GraphError):
    """A node id or method name not present in the graph."""


class ConstructionError(GraphError):
    """The given methods cannot be assembled into a graph."""


class GraphFormatError(GraphError):
    """A serialized graph dump is malformed or inconsistent."""


@dataclass(frozen=True)
class ParamType:
    """A parameter type with an optional direct supertype."""

    name: str
    parent: Optional[str] = None


class TypeHierarchy:
    """Declared parameter types plus their transitive supertype chains.

    Subtype matching is substitutability: a provided value of type ``t``
    satisfies a required type ``r`` iff ``t == r`` or ``r`` is a transitive
    supertype of ``t``.
    """

    def __init__(self, types: Iterable[ParamType]):
        parent: dict[str, Optional[str]] = {}
        for t in types:
            if not t.name:
                raise GraphError("type name must be non-empty")
            if t.name in parent:
                raise GraphError(f"duplicate type declaration: {t.name!r}")
            parent[t.name] = t.parent
        for name, par in parent.items():
            if par is not None and par not in parent:
                raise UnknownTypeError(
                    f"parent type {par!r} of {name!r} is not declared"
                )
        ancestors: dict[str, tuple[str, ...]] = {}
        for name in parent:
            chain: list[str] = []
            seen = {name}
            cur = parent[name]
            while cur is not None:
                if cur in seen:
                    raise GraphError(f"inheritance cycle through type {cur!r}")
                seen.add(cur)
                chain.append(cur)
                cur = parent[cur]
            ancestors[name] = tuple(chain)
        self._parent = parent
        self._ancestors = ancestors
        self._ancestor_sets = {n: frozenset(c) for n, c in ancestors.items()}
        subs: dict[str, set[str]] = {n: {n} for n in parent}
        for name, chain in ancestors.items():
            for anc in chain:
                subs[anc].add(name)
        self._subtypes = {n: frozenset(s) for n, s in subs.items()}

    @property
    def names(self) -> frozenset[str]:
        return frozenset(self._parent)

    def declared(self, name: str) -> bool:
        return name in self._parent

    def require(self, name: str) -> None:
        if name not in self._parent:
            raise UnknownTypeError(f"type {name!r} is not declared")

    def parent_of(self, name: str) -> Optional[str]:
        self.require(name)
        return self._parent[name]

    def ancestors(self, name: str) -> tuple[str, ...]:
        """Transitive supertypes of ``name``, nearest first."""
        self.require(name)
        return self._ancestors[name]

    def subtypes(self, name: str) -> frozenset[str]:
        """All declared types that match ``name``, including ``name`` itself."""
        self.require(name)
        return self._subtypes[name]

    def matches(self, provided: str, required: str) -> bool:
        self.require(provided)
        self.require(required)
        return provided == required or required in self._ancestor_sets[provided]

    def matches_lenient(self, provided: str, required: str) -> bool:
        """Like :meth:`matches` but undeclared ``provided`` names never match."""
        if provided not in self._parent:
            return False
        return provided == required or required in self._ancestor_sets[provided]

    def types(self) -> tuple[ParamType, ...]:
        """Declared types in lexicographic name order."""
        return tuple(
            ParamType(n, self._parent[n]) for n in sorted(self._parent)
        )


def param_match(provided: str, required: str, hierarchy: TypeHierarchy) -> bool:
    """True iff a value of type ``provided`` satisfies a ``required`` parameter."""
    return hierarchy.matches(provided, required)


class Dependency(Enum):
    NONE = "none"
    PARTIAL = "partial"
    FULL = "full"


@dataclass(frozen=True)
class ApiMethodNode:
    """An API method: dense integer id, unique name, typed I/O multisets."""

    id: int
    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass(frozen=True, order=True)
class TaggedEdge:
    """Directed edge head -> tail whose tag names the matched input type of tail.

    Field order (head, tag, tail) is the canonical sort order.
    """

    head: int
    tag: str
    tail: int


@dataclass(frozen=True)
class DegreeStats:
    indegree: int
    intagdegree: int
    outdegree: int
    outtagdegree: int
    in_tags: frozenset[str]
    out_tags: frozenset[str]


def classify_dependency(
    a: ApiMethodNode, b: ApiMethodNode, hierarchy: TypeHierarchy
) -> Dependency:
    """Classify how a's outputs cover b's required input types.

    FULL iff every distinct input type of ``b`` is matched by some output of
    ``a``; PARTIAL iff at least one but not all are; NONE otherwise.
    """
    required = sorted(set(b.inputs))
    provided = sorted(set(a.outputs))
    matched = sum(
        1
        for req in required
        if any(hierarchy.matches(out, req) for out in provided)
    )
    if matched == len(required):
        return Dependency.FULL
    if matched > 0:
        return Dependency.PARTIAL
    return Dependency.NONE


class Adg:
    """Immutable API dependency graph with derived lookup structures.

    Use :func:`build_adg` to construct one.  Node ids are dense 0..n-1 and
    double as indices into the nodes table.
    """

    def __init__(
        self,
        nodes: tuple[ApiMethodNode, ...],
        edges: tuple[TaggedEdge, ...],
        hierarchy: TypeHierarchy,
        iit: Mapping[str, frozenset[int]],
    ):
        self._nodes = nodes
        self._edges = edges
        self._hierarchy = hierarchy
        self._iit = dict(iit)
        self._id_by_name = {m.name: m.id for m in nodes}
        fwd: list[dict[str, list[int]]] = [dict() for _ in nodes]
        bwd: list[dict[str, list[int]]] = [dict() for _ in nodes]
        for e in edges:
            fwd[e.tail].setdefault(e.tag, []).append(e.head)
            bwd[e.head].setdefault(e.tag, []).append(e.tail)
        self._fwd = tuple(
            {tag: tuple(sorted(ids)) for tag, ids in by_tag.items()}
            for by_tag in fwd
        )
        self._bwd = tuple(
            {tag: tuple(sorted(ids)) for tag, ids in by_tag.items()}
            for by_tag in bwd
        )

    @property
    def nodes(self) -> tuple[ApiMethodNode, ...]:
        return self._nodes

    @property
    def edges(self) -> tuple[TaggedEdge, ...]:
        return self._edges

    @property
    def hierarchy(self) -> TypeHierarchy:
        return self._hierarchy

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def node(self, node_id: int) -> ApiMethodNode:
        if not 0 <= node_id < len(self._nodes):
            raise UnknownNodeError(f"unknown node id {node_id}")
        return self._nodes[node_id]

    def id_of(self, name: str) -> Optional[int]:
        """Node id for a method name, or None if the name is not a method."""
        return self._id_by_name.get(name)

    def iit_lookup(self, type_name: str) -> frozenset[int]:
        """Nodes that accept a provided value of ``type_name`` as an input.

        Constant-time keyed access; unknown keys yield the empty set.
        """
        return self._iit.get(type_name, frozenset())

    def is_reachable(self, node_id: int, available: Iterable[str]) -> bool:
        """Counting-based reachability: every distinct required input type of
        the node must be satisfied by some element of ``available``.

        The counter starts at the number of distinct required input types and
        is decremented once per distinct type matched; the node is reachable
        iff the counter hits zero.  Nodes with no inputs are always reachable.
        Undeclared names in ``available`` match nothing.
        """
        node = self.node(node_id)
        avail = set(available)
        required = sorted(set(node.inputs))
        counter = len(required)
        for req in required:
            if any(self._hierarchy.matches_lenient(a, req) for a in avail):
                counter -= 1
        return counter == 0

    def forward_members(self, node_id: int) -> Mapping[str, tuple[int, ...]]:
        """Provider nodes of incoming edges per edge tag (ids ascending)."""
        self.node(node_id)
        return self._fwd[node_id]

    def backward_members(self, node_id: int) -> Mapping[str, tuple[int, ...]]:
        """Consumer nodes of outgoing edges per edge tag (ids ascending)."""
        self.node(node_id)
        return self._bwd[node_id]

    def degree_stats(self, node_id: int) -> DegreeStats:
        self.node(node_id)
        fwd = self._fwd[node_id]
        bwd = self._bwd[node_id]
        return DegreeStats(
            indegree=sum(len(v) for v in fwd.values()),
            intagdegree=len(fwd),
            outdegree=sum(len(v) for v in bwd.values()),
            outtagdegree=len(bwd),
            in_tags=frozenset(fwd),
            out_tags=frozenset(bwd),
        )


def build_adg(
    methods: Sequence[ApiMethodNode],
    hierarchy: TypeHierarchy,
    *,
    max_edges: int = DEFAULT_EDGE_CAP,
) -> Adg:
    """Construct the dependency graph implied by pairwise parameter matching.

    One edge exists per (provider, matched required-type tag, consumer)
    triple; self-loops are excluded.  Providers are matched against inverted
    index buckets keyed by provided type, so the work is proportional to the
    number of (provider output, consumer) hits rather than to all node pairs.

    Raises ConstructionError on duplicate names, non-dense ids, undeclared
    types, or when the projected number of candidate matches exceeds
    ``max_edges``.
    """
    nodes = tuple(sorted(methods, key=lambda m: m.id))
    if [m.id for m in nodes] != list(range(len(nodes))):
        raise ConstructionError("node ids must be dense and unique (0..n-1)")
    seen_names: dict[str, int] = {}
    for m in nodes:
        if m.name in seen_names:
            raise ConstructionError(
                f"duplicate method name {m.name!r} (ids {seen_names[m.name]} and {m.id})"
            )
        seen_names[m.name] = m.id
        for t in list(m.inputs) + list(m.outputs):
            if not hierarchy.declared(t):
                raise ConstructionError(
                    f"method {m.name!r} references undeclared type {t!r}"
                )

    # Inverted index: provided type -> consumers accepting it.  A node sits
    # under every subtype of each of its required input types.
    iit: dict[str, set[int]] = defaultdict(set)
    for m in nodes:
        for req in set(m.inputs):
            for t in hierarchy.subtypes(req):
                iit[t].add(m.id)

    projected = 0
    for m in nodes:
        for out in set(m.outputs):
            projected += len(iit.get(out, ()))
        if projected > max_edges:
            raise ConstructionError(
                f"projected candidate matches exceed the cap ({max_edges}); "
                "raise max_edges to construct this graph"
            )

    edge_set: set[tuple[int, str, int]] = set()
    for m in nodes:
        for out in sorted(set(m.outputs)):
            for j in iit.get(out, ()):
                if j == m.id:
                    continue
                for req in set(nodes[j].inputs):
                    if hierarchy.matches(out, req):
                        edge_set.add((m.id, req, j))
    edges = tuple(TaggedEdge(h, t, j) for h, t, j in sorted(edge_set))
    return Adg(
        nodes=nodes,
        edges=edges,
        hierarchy=hierarchy,
        iit={t: frozenset(ids) for t, ids in iit.items()},
    )


def dump_graph(adg: Adg) -> str:
    """Serialize a graph to the canonical versioned text form.

    Types lexicographic, nodes by id, edges by (head, tag, tail); the result
    is byte-identical for equal graphs.
    """
    lines = [GRAPH_HEADER]
    types = adg.hierarchy.types()
    lines.append(f"types {len(types)}")
    for t in types:
        lines.append(f"type {t.name} {t.parent if t.parent is not None else '-'}")
    lines.append(f"nodes {adg.num_nodes}")
    for m in adg.nodes:
        ins = " ".join(m.inputs)
        outs = " ".join(m.outputs)
        lines.append(f"node {m.id} {m.name} | {ins} | {outs}")
    lines.append(f"edges {adg.num_edges}")
    for e in adg.edges:
        lines.append(f"edge {e.head} {e.tag} {e.tail}")
    return "\n".join(lines) + "\n"


def _split_counted(lines: list[str], idx: int, keyword: str) -> tuple[int, int]:
    if idx >= len(lines):
        raise GraphFormatError(f"unexpected end of dump, expected {keyword!r}")
    parts = lines[idx].split()
    if len(parts) != 2 or parts[0] != keyword:
        raise GraphFormatError(f"line {idx + 1}: expected {keyword!r} count")
    try:
        count = int(parts[1])
    except ValueError:
        raise GraphFormatError(f"line {idx + 1}: bad {keyword!r} count") from None
    if count < 0:
        raise GraphFormatError(f"line {idx + 1}: negative count")
    return count, idx + 1


def load_graph(text: str) -> Adg:
    """Parse a canonical dump and rebuild the graph.

    The edge table is recomputed from the node table and verified against the
    dumped one, so a loaded graph is guaranteed internally consistent.
    """
    lines = text.splitlines()
    if not lines or lines[0] != GRAPH_HEADER:
        raise GraphFormatError(f"missing {GRAPH_HEADER!r} header")
    n_types, idx = _split_counted(lines, 1, "types")
    types: list[ParamType] = []
    for _ in range(n_types):
        if idx >= len(lines):
            raise GraphFormatError("truncated type table")
        parts = lines[idx].split()
        if len(parts) != 3 or parts[0] != "type":
            raise GraphFormatError(f"line {idx + 1}: bad type row")
        types.append(ParamType(parts[1], None if parts[2] == "-" else parts[2]))
        idx += 1
    n_nodes, idx = _split_counted(lines, idx, "nodes")
    nodes: list[ApiMethodNode] = []
    for _ in range(n_nodes):
        if idx >= len(lines):
            raise GraphFormatError("truncated node table")
        line = lines[idx]
        parts = line.split(" | ")
        head = parts[0].split()
        if len(parts) != 3 or len(head) != 3 or head[0] != "node":
            raise GraphFormatError(f"line {idx + 1}: bad node row")
        try:
            node_id = int(head[1])
        except ValueError:
            raise GraphFormatError(f"line {idx + 1}: bad node id") from None
        nodes.append(
            ApiMethodNode(
                id=node_id,
                name=head[2],
                inputs=tuple(parts[1].split()),
                outputs=tuple(parts[2].split()),
            )
        )
        idx += 1
    n_edges, idx = _split_counted(lines, idx, "edges")
    dumped_edges: list[TaggedEdge] = []
    for _ in range(n_edges):
        if idx >= len(lines):
            raise GraphFormatError("truncated edge table")
        parts = lines[idx].split()
        if len(parts) != 4 or parts[0] != "edge":
            raise GraphFormatError(f"line {idx + 1}: bad edge row")
        try:
            dumped_edges.append(TaggedEdge(int(parts[1]), parts[2], int(parts[3])))
        except ValueError:
            raise GraphFormatError(f"line {idx + 1}: bad edge ids") from None
        idx += 1
    if idx != len(lines):
        raise GraphFormatError(f"line {idx + 1}: trailing content after edge table")

    try:
        hierarchy = TypeHierarchy(types)
        adg = build_adg(nodes, hierarchy)
    except GraphError as exc:
        raise GraphFormatError(f"inconsistent dump: {exc}") from exc
    if list(adg.edges) != dumped_edges:
        raise GraphFormatError("dumped edge table does not match the node table")
    return adg
