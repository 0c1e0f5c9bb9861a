"""Shared random-instance builders for the test suite."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from adgcode.graph import ApiMethodNode, ParamType, TypeHierarchy, build_adg


def random_hierarchy(rng: np.random.Generator, n_types: int, parent_prob: float = 0.35) -> TypeHierarchy:
    types = []
    for i in range(n_types):
        parent = f"T{int(rng.integers(0, i))}" if i > 0 and rng.random() < parent_prob else None
        types.append(ParamType(f"T{i}", parent))
    return TypeHierarchy(types)


def random_methods(
    rng: np.random.Generator,
    n_methods: int,
    hierarchy: TypeHierarchy,
    max_inputs: int = 3,
    max_outputs: int = 2,
) -> list[ApiMethodNode]:
    names = sorted(hierarchy.names)
    methods = []
    for i in range(n_methods):
        n_in = int(rng.integers(0, max_inputs + 1))
        n_out = int(rng.integers(1, max_outputs + 1))
        inputs = tuple(names[int(rng.integers(0, len(names)))] for _ in range(n_in))
        outputs = tuple(names[int(rng.integers(0, len(names)))] for _ in range(n_out))
        methods.append(ApiMethodNode(id=i, name=f"m{i}", inputs=inputs, outputs=outputs))
    return methods


def random_adg(rng: np.random.Generator, n_types: int, n_methods: int):
    hierarchy = random_hierarchy(rng, n_types)
    methods = random_methods(rng, n_methods, hierarchy)
    return build_adg(methods, hierarchy), methods, hierarchy


def edge_triples(adg) -> list[tuple[int, str, int]]:
    """The graph's edges as (head, tag name, tail) triples in canonical
    order, read from ``Adg.edge_arrays``."""
    names = adg.hierarchy.names
    heads, tags, tails = (ids.tolist() for ids in adg.edge_arrays)
    return [(h, names[t], c) for h, t, c in zip(heads, tags, tails)]


def met_rows(adg, name_sets) -> np.ndarray:
    """The reach filter's met-type rows for sets of available type names: row
    r marks each declared type that some name in ``name_sets[r]`` satisfies;
    undeclared names satisfy nothing."""
    types = sorted(adg.hierarchy.names)
    return np.array(
        [[any(adg.hierarchy.matches_lenient(a, t) for a in names) for t in types] for names in name_sets],
        dtype=bool,
    ).reshape(len(name_sets), len(types))


def corrupt_parameter(blob: bytes, name: str, kind: str) -> bytes:
    """Checkpoint bytes with one parameter row damaged: ``"name"`` writes byte
    0xff into the row's name, ``"nan"`` makes its first value a float32 quiet
    NaN and ``"snan"`` a float32 signaling NaN (bytes ``01 00 80 7f``)."""
    at = blob.index(struct.pack("<I", len(name)) + name.encode("utf-8")) + 4
    out = bytearray(blob)
    if kind == "name":
        out[at] = 0xFF
    else:
        ndim = struct.unpack_from("<I", blob, at + len(name))[0]
        first = at + len(name) + 4 + 4 * ndim
        nan = {"nan": struct.pack("<f", float("nan")), "snan": bytes([0x01, 0x00, 0x80, 0x7F])}
        out[first : first + 4] = nan[kind]
    return bytes(out)


@pytest.fixture
def toy_adg():
    """Four-method pipeline: m1 () -> A; m2 (A) -> C; m3 (B) -> D; m4 (C, D) -> E."""
    hierarchy = TypeHierarchy(
        [ParamType("A"), ParamType("B"), ParamType("C"), ParamType("D"), ParamType("E")]
    )
    methods = [
        ApiMethodNode(0, "m1", (), ("A",)),
        ApiMethodNode(1, "m2", ("A",), ("C",)),
        ApiMethodNode(2, "m3", ("B",), ("D",)),
        ApiMethodNode(3, "m4", ("C", "D"), ("E",)),
    ]
    return build_adg(methods, hierarchy)
