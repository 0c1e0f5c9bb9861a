"""API dependency graph: parameter matching, construction, queries, reachability.

Nodes are API methods with typed input/output parameter lists.  A directed
edge ``(head, tag, tail)`` records that some output of ``head`` satisfies the
input type of ``tail`` named by ``tag``.  Construction derives plain-Python
tables (the types each type satisfies, each node's required and provided
types, each type's consumers) and expands each provider's provided types
into those types' consumers, so no provider is compared with every other
node.  The edges are held as three int tuples, not as one object per edge.

This module imports no numpy.  The arrays the model and embedder read
(:attr:`Adg.edge_arrays`, :attr:`Adg.provides` and the required-type matrix
behind :meth:`Adg.reachability_rows`) are read-only views of the tables,
each built once, with numpy imported, on first use; ``build-graph`` never
reads them.  Apart from those views a constructed :class:`Adg` is immutable,
and reachability queries keep their counters in caller-local state.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
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


class ParamType(NamedTuple):
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
        self._names = tuple(sorted(parent))
        self._ancestors = ancestors

    @property
    def names(self) -> tuple[str, ...]:
        """Declared type names in sorted order, the order of the type index."""
        return self._names

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
        return provided == required or required in self._ancestors[provided]

    def matches_lenient(self, provided: str, required: str) -> bool:
        """Like :meth:`matches` but undeclared ``provided`` names never match."""
        if provided not in self._parent:
            return False
        return provided == required or required in self._ancestors[provided]

    def types(self) -> tuple[ParamType, ...]:
        """Declared types in lexicographic name order."""
        return tuple(ParamType(n, self._parent[n]) for n in self._names)


class ApiMethodNode(NamedTuple):
    """An API method: dense integer id, unique name, typed I/O multisets."""

    id: int
    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


class Adg:
    """Immutable API dependency graph with derived lookup structures.

    Use :func:`build_adg` to construct one.  Node ids are dense 0..n-1 and
    double as indices into the nodes table; type indices follow the sorted
    type names.  The graph is held as the plain-Python tables construction
    derives: for each type the types it satisfies (itself and its
    ancestors) and the nodes that require it (ascending), for each node its
    required and its provided type-index sets, and the edges as three int
    tuples (head, tag type index, tail) in canonical order.  The arrays the
    model reads are read-only views of these tables, each built once on
    first use.
    """

    def __init__(
        self,
        nodes: tuple[ApiMethodNode, ...],
        hierarchy: TypeHierarchy,
        type_index: dict[str, int],
        satisfies: tuple[frozenset[int], ...],
        required: tuple[frozenset[int], ...],
        provided: tuple[frozenset[int], ...],
        consumers: tuple[tuple[int, ...], ...],
        edges: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]],
    ):
        self._nodes = nodes
        self._hierarchy = hierarchy
        self._type_index = type_index
        self._satisfies = satisfies
        self._required = required
        self._provided = provided
        self._consumers = consumers
        self._edges = edges
        self._id_by_name = {m.name: m.id for m in nodes}

    @property
    def nodes(self) -> tuple[ApiMethodNode, ...]:
        return self._nodes

    @functools.cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges as three read-only aligned index arrays (head, tag type
        index, tail) in canonical order."""
        import numpy as np

        return tuple(_read_only(np.array(ids, dtype=np.intp)) for ids in self._edges)

    @functools.cached_property
    def provides(self) -> np.ndarray:
        """Read-only bool [nodes, types] matrix: ``provides[m, t]`` is true iff
        some output of node m satisfies required type t."""
        return _type_rows(self._provided, len(self._type_index))

    @functools.cached_property
    def _required_rows(self) -> np.ndarray:
        """Read-only bool [nodes, types] matrix of each node's required types."""
        return _type_rows(self._required, len(self._type_index))

    @property
    def hierarchy(self) -> TypeHierarchy:
        return self._hierarchy

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges[0])

    def node(self, node_id: int) -> ApiMethodNode:
        if not 0 <= node_id < len(self._nodes):
            raise UnknownNodeError(f"unknown node id {node_id}")
        return self._nodes[node_id]

    def id_of(self, name: str) -> Optional[int]:
        """Node id for a method name, or None if the name is not a method."""
        return self._id_by_name.get(name)

    def iit_lookup(self, type_name: str) -> set[int]:
        """Nodes that accept a provided value of ``type_name`` as an input,
        as a new set: the consumers of every type it satisfies.  Unknown keys
        yield the empty set.
        """
        if type_name not in self._type_index:
            return set()
        return _accepting(self._consumers, self._satisfies[self._type_index[type_name]])

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

    def reachability_rows(self, node_ids: Sequence[int], met: np.ndarray) -> np.ndarray:
        """:meth:`is_reachable` for many nodes and several states as one
        vector op: a bool [len(met), len(node_ids)] array whose row r answers
        for ``met[r]``, a bool row over the type index marking the required
        types met so far (an OR of :attr:`provides` rows).  A node is
        reachable iff none of its required types is unmet.
        """
        import numpy as np

        ids = np.asarray(node_ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= len(self._nodes)):
            bad = ids[(ids < 0) | (ids >= len(self._nodes))][0]
            raise UnknownNodeError(f"unknown node id {bad}")
        # Counts of unmet required types as a float32 matmul, which is exact
        # here because no count exceeds the number of types.
        unmet = (~met).astype(np.float32) @ self._required_rows[ids].T.astype(np.float32)
        return unmet == 0

    def degrees(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """In-degree and out-degree of every node: its incoming and outgoing
        edge counts, indexed by node id."""
        heads, _, tails = self._edges
        indegree, outdegree = Counter(tails), Counter(heads)
        ids = range(len(self._nodes))
        return tuple(indegree[m] for m in ids), tuple(outdegree[m] for m in ids)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _type_rows(rows: Sequence[frozenset[int]], width: int) -> np.ndarray:
    """A read-only bool [len(rows), width] matrix marking the type indices of
    each row."""
    import numpy as np

    matrix = np.zeros((len(rows), width), dtype=bool)
    pairs = [(r, t) for r, types in enumerate(rows) for t in types]
    matrix[[r for r, _ in pairs], [t for _, t in pairs]] = True
    return _read_only(matrix)


def _accepting(consumers: Sequence[tuple[int, ...]], satisfied: Iterable[int]) -> set[int]:
    """The nodes that require some type in ``satisfied``."""
    return set().union(*(consumers[t] for t in satisfied))


def build_adg(
    methods: Sequence[ApiMethodNode],
    hierarchy: TypeHierarchy,
    *,
    max_edges: int = DEFAULT_EDGE_CAP,
) -> Adg:
    """Construct the dependency graph implied by pairwise parameter matching.

    One edge exists per (provider, matched required-type tag, consumer)
    triple; self-loops are excluded.  Each provider's provided types (the
    types its outputs satisfy) expand into each type's consumers, so the
    work is proportional to the number of hits rather than to all node
    pairs.

    Raises ConstructionError on duplicate names, non-dense ids, undeclared
    types, or when the projected number of candidate matches (over providers,
    over their distinct outputs, the consumers that accept that output)
    exceeds ``max_edges``.
    """
    nodes = tuple(sorted(methods, key=lambda m: m.id))
    if [m.id for m in nodes] != list(range(len(nodes))):
        raise ConstructionError("node ids must be dense and unique (0..n-1)")
    type_names = hierarchy.names
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

    index_of = type_index.__getitem__
    satisfies = tuple(
        frozenset(map(index_of, (name, *hierarchy.ancestors(name)))) for name in type_names
    )
    satisfied_by = dict(zip(type_names, satisfies)).__getitem__
    required = tuple(frozenset(map(index_of, m.inputs)) for m in nodes)
    provided = tuple(frozenset().union(*map(satisfied_by, m.outputs)) for m in nodes)
    consumers_of: list[list[int]] = [[] for _ in type_names]
    for m, types in enumerate(required):  # ascending ids, so each list is sorted
        for t in types:
            consumers_of[t].append(m)
    consumers = tuple(map(tuple, consumers_of))

    accepting = dict(zip(type_names, (len(_accepting(consumers, types)) for types in satisfies)))
    projected = sum(accepting[t] for m in nodes for t in set(m.outputs))
    if projected > max_edges:
        raise ConstructionError(
            f"projected candidate matches exceed the cap ({max_edges}); "
            "raise max_edges to construct this graph"
        )

    # Providers ascending, their tags ascending, each tag's consumers
    # ascending: the edges come out in canonical order.
    heads: list[int] = []
    tags: list[int] = []
    tails: list[int] = []
    for head, types in enumerate(provided):
        for tag in sorted(types):
            row = consumers[tag]
            if tag in required[head]:
                row = [tail for tail in row if tail != head]
            heads += [head] * len(row)
            tags += [tag] * len(row)
            tails += row
    return Adg(
        nodes=nodes,
        hierarchy=hierarchy,
        type_index=type_index,
        satisfies=satisfies,
        required=required,
        provided=provided,
        consumers=consumers,
        edges=(tuple(heads), tuple(tags), tuple(tails)),
    )


def _edge_lines(adg: Adg) -> list[str]:
    """The edge rows of the canonical dump, in order."""
    names = adg.hierarchy.names
    return [f"edge {h} {names[t]} {c}" for h, t, c in zip(*adg._edges)]


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
