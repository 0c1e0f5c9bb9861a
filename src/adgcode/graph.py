"""API dependency graph: parameter matching, construction, queries, reachability.

Nodes are API methods with typed input/output parameter lists.  A directed
edge ``(head, tag, tail)`` records that some output of ``head`` satisfies the
input type of ``tail`` named by ``tag``.  Construction works on bool type
matrices (type satisfies type, node requires type, node produces type): a few
matrix products find which tags each provider matches, and each match expands
into that tag's consumers, so no provider is compared with every other node.
The edges are held as index arrays, not as one object per edge.

A constructed :class:`Adg` is immutable and safe for concurrent readers;
reachability queries keep their counters in caller-local state.  The edge
objects, the inverted index and the per-node neighbour groups are built on
first use; two readers racing there build equal values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

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

    @property
    def names(self) -> frozenset[str]:
        return frozenset(self._parent)

    def require(self, name: str) -> None:
        if name not in self._parent:
            raise UnknownTypeError(f"type {name!r} is not declared")

    def ancestors(self, name: str) -> tuple[str, ...]:
        """Transitive supertypes of ``name``, nearest first."""
        self.require(name)
        return self._ancestors[name]

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


class Adg:
    """Immutable API dependency graph with derived lookup structures.

    Use :func:`build_adg` to construct one.  Node ids are dense 0..n-1 and
    double as indices into the nodes table.  The graph is held as arrays:
    a type-satisfies-type matrix and a node-by-required-type matrix, with
    type indices in sorted-name order, and the edges as three aligned index
    arrays (head, tag type index, tail) in canonical order.  Every other
    view is derived from these on first use.
    """

    def __init__(
        self,
        nodes: tuple[ApiMethodNode, ...],
        hierarchy: TypeHierarchy,
        satisfies: np.ndarray,
        required: np.ndarray,
        edge_ids: tuple[np.ndarray, np.ndarray, np.ndarray],
    ):
        self._nodes = nodes
        self._hierarchy = hierarchy
        self._type_names = tuple(sorted(hierarchy.names))
        self._type_index = {name: i for i, name in enumerate(self._type_names)}
        self._satisfies = satisfies
        self._required = required
        self._heads, self._tags, self._tails = edge_ids
        self._id_by_name = {m.name: m.id for m in nodes}
        self._edges: Optional[tuple[TaggedEdge, ...]] = None
        self._iit: Optional[dict[str, frozenset[int]]] = None
        self._groups: Optional[tuple[tuple[dict[str, tuple[int, ...]], ...], ...]] = None

    @property
    def nodes(self) -> tuple[ApiMethodNode, ...]:
        return self._nodes

    @property
    def edges(self) -> tuple[TaggedEdge, ...]:
        """The edges in canonical (head, tag, tail) order, built on first read."""
        if self._edges is None:
            names = self._type_names
            self._edges = tuple(
                TaggedEdge(h, names[t], c)
                for h, t, c in zip(self._heads.tolist(), self._tags.tolist(), self._tails.tolist())
            )
        return self._edges

    @property
    def hierarchy(self) -> TypeHierarchy:
        return self._hierarchy

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._heads)

    def node(self, node_id: int) -> ApiMethodNode:
        if not 0 <= node_id < len(self._nodes):
            raise UnknownNodeError(f"unknown node id {node_id}")
        return self._nodes[node_id]

    def id_of(self, name: str) -> Optional[int]:
        """Node id for a method name, or None if the name is not a method."""
        return self._id_by_name.get(name)

    def iit_lookup(self, type_name: str) -> frozenset[int]:
        """Nodes that accept a provided value of ``type_name`` as an input.

        Constant-time keyed access after the first call; unknown keys yield
        the empty set.
        """
        if self._iit is None:
            accepts = _any_product(self._satisfies, self._required.T)
            self._iit = {
                name: frozenset(np.flatnonzero(row).tolist())
                for name, row in zip(self._type_names, accepts)
                if row.any()
            }
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

    def reachability_rows(
        self, node_ids: Sequence[int], availables: Sequence[Iterable[str]]
    ) -> np.ndarray:
        """:meth:`is_reachable` for many nodes and several available sets as
        one vector op: a bool [len(availables), len(node_ids)] array whose row
        r answers for ``availables[r]``.

        A row's available names become a provided-type row, the
        type-satisfies-type matrix turns it into the required types it
        satisfies (the semantics of :meth:`TypeHierarchy.matches_lenient`),
        and a node is reachable iff none of its required types is unmet.
        """
        ids = np.asarray(node_ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= len(self._nodes)):
            bad = ids[(ids < 0) | (ids >= len(self._nodes))][0]
            raise UnknownNodeError(f"unknown node id {bad}")
        index = self._type_index
        provided = np.zeros((len(availables), len(index)), dtype=bool)
        for row, available in zip(provided, availables):
            row[[index[a] for a in set(available) if a in index]] = True
        unmet = ~_any_product(provided, self._satisfies)
        return ~_any_product(unmet, self._required[ids].T)

    def _members(self) -> tuple[tuple[dict[str, tuple[int, ...]], ...], ...]:
        """Per node, the providers and the consumers of its edges per tag."""
        if self._groups is None:
            self._groups = (
                _group_by_tag(self._tails, self._tags, self._heads, len(self._nodes), self._type_names),
                _group_by_tag(self._heads, self._tags, self._tails, len(self._nodes), self._type_names),
            )
        return self._groups

    def forward_members(self, node_id: int) -> Mapping[str, tuple[int, ...]]:
        """Provider nodes of incoming edges per edge tag (ids ascending)."""
        self.node(node_id)
        return self._members()[0][node_id]

    def backward_members(self, node_id: int) -> Mapping[str, tuple[int, ...]]:
        """Consumer nodes of outgoing edges per edge tag (ids ascending)."""
        self.node(node_id)
        return self._members()[1][node_id]

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """In-degree and out-degree of every node: its incoming and outgoing
        edge counts, indexed by node id."""
        n = len(self._nodes)
        return np.bincount(self._tails, minlength=n), np.bincount(self._heads, minlength=n)


def _any_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product: ``out[i, j]`` is true iff some ``a[i, k]`` and
    ``b[k, j]`` are both true.  Computed as a float32 matmul, which is exact
    here because each sum counts at most ``k`` ones."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def _group_by_tag(
    keys: np.ndarray,
    tags: np.ndarray,
    members: np.ndarray,
    n_nodes: int,
    type_names: Sequence[str],
) -> tuple[dict[str, tuple[int, ...]], ...]:
    """One ``{tag name: members ascending}`` dict per node, from edges given
    as aligned key-node, tag and member-node arrays."""
    groups: list[dict[str, tuple[int, ...]]] = [{} for _ in range(n_nodes)]
    if keys.size:
        order = np.lexsort((members, tags, keys))
        keys, tags, members = keys[order], tags[order], members[order]
        cuts = np.flatnonzero((keys[1:] != keys[:-1]) | (tags[1:] != tags[:-1])) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.append(cuts, keys.size).tolist()
        member_list = members.tolist()
        for lo, hi, key, tag in zip(starts.tolist(), ends, keys[starts].tolist(), tags[starts].tolist()):
            groups[key][type_names[tag]] = tuple(member_list[lo:hi])
    return tuple(groups)


def _type_matrix(rows: Sequence[Sequence[str]], type_index: Mapping[str, int]) -> np.ndarray:
    """A bool [len(rows), len(type_index)] matrix marking the types of each row."""
    matrix = np.zeros((len(rows), len(type_index)), dtype=bool)
    row_of = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    matrix[row_of, [type_index[t] for r in rows for t in r]] = True
    return matrix


def build_adg(
    methods: Sequence[ApiMethodNode],
    hierarchy: TypeHierarchy,
    *,
    max_edges: int = DEFAULT_EDGE_CAP,
) -> Adg:
    """Construct the dependency graph implied by pairwise parameter matching.

    One edge exists per (provider, matched required-type tag, consumer)
    triple; self-loops are excluded.  The work is a few matrix products over
    the type matrices plus one expansion of each provider's matched tags into
    that tag's consumers, so it is proportional to the number of hits rather
    than to all node pairs.

    Raises ConstructionError on duplicate names, non-dense ids, undeclared
    types, or when the projected number of candidate matches (over providers,
    over their distinct outputs, the consumers that accept that output)
    exceeds ``max_edges``.
    """
    nodes = tuple(sorted(methods, key=lambda m: m.id))
    if [m.id for m in nodes] != list(range(len(nodes))):
        raise ConstructionError("node ids must be dense and unique (0..n-1)")
    type_names = sorted(hierarchy.names)
    type_index = {name: i for i, name in enumerate(type_names)}
    seen_names: dict[str, int] = {}
    for m in nodes:
        if m.name in seen_names:
            raise ConstructionError(
                f"duplicate method name {m.name!r} (ids {seen_names[m.name]} and {m.id})"
            )
        seen_names[m.name] = m.id
        for t in (*m.inputs, *m.outputs):
            if t not in type_index:
                raise ConstructionError(
                    f"method {m.name!r} references undeclared type {t!r}"
                )

    required = _type_matrix([m.inputs for m in nodes], type_index)
    produced = _type_matrix([m.outputs for m in nodes], type_index)
    satisfies = _type_matrix(
        [(name, *hierarchy.ancestors(name)) for name in type_names], type_index
    )

    # accepts[t, c]: consumer c takes a provided value of type t, the inverted
    # index that iit_lookup reads.
    accepts = _any_product(satisfies, required.T)
    projected = int(produced.sum(axis=0) @ accepts.sum(axis=1))
    if projected > max_edges:
        raise ConstructionError(
            f"projected candidate matches exceed the cap ({max_edges}); "
            "raise max_edges to construct this graph"
        )

    # Each (provider, tag it provides) pair expands into that tag's consumers;
    # both nonzero scans are row-major, so the result is in canonical order.
    provider, tag = np.nonzero(_any_product(produced, satisfies))
    consumer_tag, consumer = np.nonzero(required.T)
    per_tag = np.bincount(consumer_tag, minlength=len(type_names))
    first = np.cumsum(per_tag) - per_tag
    sizes = per_tag[tag]
    offsets = np.repeat(first[tag] - (np.cumsum(sizes) - sizes), sizes)
    heads = np.repeat(provider, sizes)
    tails = consumer[offsets + np.arange(offsets.size)]
    keep = heads != tails
    return Adg(
        nodes=nodes,
        hierarchy=hierarchy,
        satisfies=satisfies,
        required=required,
        edge_ids=(heads[keep], np.repeat(tag, sizes)[keep], tails[keep]),
    )


def _edge_lines(adg: Adg) -> list[str]:
    """The edge rows of the canonical dump, in order."""
    names = adg._type_names
    tags = [names[t] for t in adg._tags.tolist()]
    return [f"edge {h} {t} {c}" for h, t, c in zip(adg._heads.tolist(), tags, adg._tails.tolist())]


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
    lines.extend(_edge_lines(adg))
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
    if idx + n_edges > len(lines):
        raise GraphFormatError("truncated edge table")
    if idx + n_edges < len(lines):
        raise GraphFormatError(f"line {idx + n_edges + 1}: trailing content after edge table")
    dumped = lines[idx:]

    try:
        hierarchy = TypeHierarchy(types)
        adg = build_adg(nodes, hierarchy)
    except GraphError as exc:
        raise GraphFormatError(f"inconsistent dump: {exc}") from exc
    derived = _edge_lines(adg)
    # A row spelt otherwise than the canonical dump (other spacing, a sign or
    # leading zeros on an id) still passes when it names the derived edge.
    if dumped != derived and [
        _edge_row(line, idx + k) for k, line in enumerate(dumped)
    ] != [_edge_row(line, 0) for line in derived]:
        raise GraphFormatError("dumped edge table does not match the node table")
    return adg


def _edge_row(line: str, idx: int) -> tuple[int, str, int]:
    parts = line.split()
    if len(parts) != 4 or parts[0] != "edge":
        raise GraphFormatError(f"line {idx + 1}: bad edge row")
    try:
        return int(parts[1]), parts[2], int(parts[3])
    except ValueError:
        raise GraphFormatError(f"line {idx + 1}: bad edge ids") from None
