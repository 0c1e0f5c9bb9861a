"""API dependency graph: parameter matching, construction, queries, reachability.

Nodes are API methods with typed input/output parameter lists.  A directed
edge ``(head, tag, tail)`` records that some output of ``head`` satisfies the
input type of ``tail`` named by ``tag``.  Construction works on bool type
matrices (type satisfies type, node requires type, node produces type): a few
matrix products find which tags each provider matches, and each match expands
into that tag's consumers, so no provider is compared with every other node.
The edges are held as index arrays, not as one object per edge.

A constructed :class:`Adg` is immutable, holds no lazily built state and is
safe for concurrent readers; reachability queries keep their counters in
caller-local state.  The inverted index is the type-by-consumer matrix that
construction already computes for its edge cap.
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


@dataclass(frozen=True)
class ApiMethodNode:
    """An API method: dense integer id, unique name, typed I/O multisets."""

    id: int
    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


class Adg:
    """Immutable API dependency graph with derived lookup structures.

    Use :func:`build_adg` to construct one.  Node ids are dense 0..n-1 and
    double as indices into the nodes table.  The graph is held as arrays:
    a type-by-consumer matrix (the inverted index), node-by-required-type
    and node-by-provided-type matrices, with type indices in sorted-name order,
    and the edges as three aligned index arrays (head, tag type index, tail)
    in canonical order.  Every other view is computed from these when asked for.
    """

    def __init__(
        self,
        nodes: tuple[ApiMethodNode, ...],
        hierarchy: TypeHierarchy,
        accepts: np.ndarray,
        required: np.ndarray,
        provides: np.ndarray,
        edge_ids: tuple[np.ndarray, np.ndarray, np.ndarray],
    ):
        self._nodes = nodes
        self._hierarchy = hierarchy
        self._type_names = hierarchy.names
        self._required = required
        for array in (accepts, provides, *edge_ids):
            array.flags.writeable = False
        self._accepts = accepts
        self._provides = provides
        self._edge_ids = edge_ids
        self._id_by_name = {m.name: m.id for m in nodes}

    @property
    def nodes(self) -> tuple[ApiMethodNode, ...]:
        return self._nodes

    @property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges as three read-only aligned index arrays (head, tag type
        index, tail) in canonical order."""
        return self._edge_ids

    @property
    def provides(self) -> np.ndarray:
        """Read-only bool [nodes, types] matrix: ``provides[m, t]`` is true iff
        some output of node m satisfies required type t."""
        return self._provides

    @property
    def hierarchy(self) -> TypeHierarchy:
        return self._hierarchy

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edge_ids[0])

    def node(self, node_id: int) -> ApiMethodNode:
        if not 0 <= node_id < len(self._nodes):
            raise UnknownNodeError(f"unknown node id {node_id}")
        return self._nodes[node_id]

    def id_of(self, name: str) -> Optional[int]:
        """Node id for a method name, or None if the name is not a method."""
        return self._id_by_name.get(name)

    def iit_lookup(self, type_name: str) -> set[int]:
        """Nodes that accept a provided value of ``type_name`` as an input,
        as a new set: the type's row of the inverted index.  Unknown keys
        yield the empty set.
        """
        if type_name not in self._type_names:
            return set()
        return set(np.flatnonzero(self._accepts[self._type_names.index(type_name)]).tolist())

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
        ids = np.asarray(node_ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= len(self._nodes)):
            bad = ids[(ids < 0) | (ids >= len(self._nodes))][0]
            raise UnknownNodeError(f"unknown node id {bad}")
        return ~_any_product(~met, self._required[ids].T)

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """In-degree and out-degree of every node: its incoming and outgoing
        edge counts, indexed by node id."""
        heads, _, tails = self._edge_ids
        n = len(self._nodes)
        return np.bincount(tails, minlength=n), np.bincount(heads, minlength=n)


def _any_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product: ``out[i, j]`` is true iff some ``a[i, k]`` and
    ``b[k, j]`` are both true.  Computed as a float32 matmul, which is exact
    here because each sum counts at most ``k`` ones."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


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

    required = _type_matrix([m.inputs for m in nodes], type_index)
    produced = _type_matrix([m.outputs for m in nodes], type_index)
    satisfies = _type_matrix(
        [(name, *hierarchy.ancestors(name)) for name in type_names], type_index
    )

    # accepts[t, c]: consumer c takes a provided value of type t, the inverted
    # index that the graph keeps for iit_lookup.
    accepts = _any_product(satisfies, required.T)
    projected = int(produced.sum(axis=0) @ accepts.sum(axis=1))
    if projected > max_edges:
        raise ConstructionError(
            f"projected candidate matches exceed the cap ({max_edges}); "
            "raise max_edges to construct this graph"
        )

    # Each (provider, tag it provides) pair expands into that tag's consumers;
    # both nonzero scans are row-major, so the result is in canonical order.
    provides = _any_product(produced, satisfies)
    provider, tag = np.nonzero(provides)
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
        accepts=accepts,
        required=required,
        provides=provides,
        edge_ids=(heads[keep], np.repeat(tag, sizes)[keep], tails[keep]),
    )


def _edge_lines(adg: Adg) -> list[str]:
    """The edge rows of the canonical dump, in order."""
    names = adg._type_names
    heads, tags, tails = (ids.tolist() for ids in adg.edge_arrays)
    return [f"edge {h} {names[t]} {c}" for h, t, c in zip(heads, tags, tails)]


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
