"""Seeded generation of self-consistent signature corpora and datasets.

Every emitted code example is a call chain in the toy grammar
(``var = method ( args ) ;`` statements) in which each call's inputs are
provided by earlier calls, so replaying the chain through graph reachability
succeeds at every step.  Descriptions list the chain's method names among
natural-language filler; in order-sensitive mode the names are listed in
lexicographic rather than invocation order, so invocation order is only
recoverable from the dependency structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import ParamType, TypeHierarchy
from .signatures import Pair

FILLERS = (
    "please", "then", "call", "use", "apply", "finally", "first",
    "next", "and", "now", "take", "the", "result", "of", "with",
)


class SyntheticGenerationError(ValueError):
    """The requested specification cannot produce a valid corpus."""


@dataclass(frozen=True)
class SyntheticSpec:
    """A corpus request, checked when built: a non-positive count, chain
    bound or a negative seed raises :class:`SyntheticGenerationError`."""

    n_types: int
    n_methods: int
    max_chain_len: int
    corpus_size: int
    seed: int
    min_chain_len: int = 1
    order_sensitive: bool = False

    def __post_init__(self) -> None:
        if self.n_types < 1 or self.n_methods < 1 or self.corpus_size < 1:
            raise SyntheticGenerationError(
                "type count, method count, and corpus size must be positive"
            )
        if not 1 <= self.min_chain_len <= self.max_chain_len:
            raise SyntheticGenerationError(
                "chain length bounds must satisfy 1 <= min <= max"
            )
        if self.seed < 0:
            raise SyntheticGenerationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SyntheticCorpus:
    signature_text: str
    pairs: tuple[Pair, ...]


def _gen_types(spec: SyntheticSpec, rng: np.random.Generator) -> list[tuple[str, Optional[str]]]:
    types: list[tuple[str, Optional[str]]] = []
    for i in range(spec.n_types):
        parent = None
        if i > 0 and rng.random() < 0.3:
            parent = f"T{int(rng.integers(0, i))}"
        types.append((f"T{i}", parent))
    return types


def _gen_methods(
    spec: SyntheticSpec, type_names: list[str], rng: np.random.Generator
) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    # Zero-input methods act as seed-value providers; every chain starts on one.
    n_sources = max(1, spec.n_methods // 4)
    methods = []
    for i in range(spec.n_methods):
        name = f"m{i}"
        output = (type_names[int(rng.integers(0, len(type_names)))],)
        if i < n_sources:
            inputs: tuple[str, ...] = ()
        else:
            n_in = int(rng.integers(1, 3))
            inputs = tuple(
                type_names[int(rng.integers(0, len(type_names)))] for _ in range(n_in)
            )
        methods.append((name, inputs, output))
    return methods


def _gen_chain(
    spec: SyntheticSpec,
    methods: list[tuple[str, tuple[str, ...], tuple[str, ...]]],
    hierarchy: TypeHierarchy,
    rng: np.random.Generator,
) -> tuple[list[str], list[str]]:
    """One reachability-respecting call chain: (code tokens, method names)."""
    sources = [m for m in methods if not m[1]]
    consumers = [m for m in methods if m[1]]
    length = int(rng.integers(spec.min_chain_len, spec.max_chain_len + 1))
    variables: list[tuple[str, str]] = []  # (name, type), oldest first
    tokens: list[str] = []
    names: list[str] = []

    def provider_for(required: str) -> Optional[str]:
        for var, var_type in reversed(variables):  # prefer the freshest value
            if hierarchy.matches(var_type, required):
                return var
        return None

    def emit(method: tuple[str, tuple[str, ...], tuple[str, ...]]) -> None:
        name, inputs, outputs = method
        args = [provider_for(r) for r in inputs]
        var = f"v{len(variables)}"
        stmt = [var, "=", name, "("]
        for k, arg in enumerate(args):
            if k > 0:
                stmt.append(",")
            stmt.append(arg)
        stmt.extend([")", ";"])
        tokens.extend(stmt)
        names.append(name)
        variables.append((var, outputs[0]))

    for _ in range(length):
        eligible = [
            m
            for m in consumers
            if all(provider_for(r) is not None for r in set(m[1]))
        ]
        if eligible and variables and rng.random() < 0.8:
            emit(eligible[int(rng.integers(0, len(eligible)))])
        else:
            emit(sources[int(rng.integers(0, len(sources)))])
    return tokens, names


def _describe(
    names: list[str], spec: SyntheticSpec, rng: np.random.Generator
) -> list[str]:
    listed = sorted(names) if spec.order_sensitive else list(names)
    words: list[str] = []
    for name in listed:
        if rng.random() < 0.7:
            words.append(FILLERS[int(rng.integers(0, len(FILLERS)))])
        words.append(name)
    if not words:
        words.append(FILLERS[0])
    return words


def generate(spec: SyntheticSpec) -> SyntheticCorpus:
    """Deterministically generate a signature corpus plus description/code
    pairs per the specification."""
    rng = np.random.default_rng(spec.seed)
    types = _gen_types(spec, rng)
    type_names = [name for name, _ in types]
    methods = _gen_methods(spec, type_names, rng)
    if not any(not m[1] for m in methods):
        raise SyntheticGenerationError("no zero-input method: chains cannot start")

    hierarchy = TypeHierarchy(ParamType(name, parent) for name, parent in types)

    sig_lines = []
    for name, parent in types:
        sig_lines.append(f"type {name}" if parent is None else f"type {name} : {parent}")
    for name, inputs, outputs in methods:
        sig_lines.append(f"method {name} ({', '.join(inputs)}) -> {', '.join(outputs)}")
    signature_text = "\n".join(sig_lines) + "\n"

    pairs: list[Pair] = []
    seen_descriptions: set[tuple[str, ...]] = set()
    for _ in range(spec.corpus_size):
        desc: tuple[str, ...] = ()
        code: tuple[str, ...] = ()
        for _attempt in range(50):
            tokens, names = _gen_chain(spec, methods, hierarchy, rng)
            words = _describe(names, spec, rng)
            desc, code = tuple(words), tuple(tokens)
            if desc not in seen_descriptions:
                break
        seen_descriptions.add(desc)
        pairs.append((desc, code))
    return SyntheticCorpus(signature_text=signature_text, pairs=tuple(pairs))


def split_pairs(pairs: tuple[Pair, ...]) -> tuple[list[Pair], list[Pair], list[Pair]]:
    """80/10/10 split in emission order, keeping every part non-empty (tiny
    corpora reuse the full set for validation and test)."""
    n = len(pairs)
    if n < 3:
        full = list(pairs)
        return full, full, full
    n_valid = max(1, n // 10)
    n_test = max(1, n // 10)
    train = list(pairs[: n - n_valid - n_test])
    valid = list(pairs[n - n_valid - n_test : n - n_test])
    test = list(pairs[n - n_test :])
    return train, valid, test
