"""Seeded generator of the benchmark's inputs.

Each workload gets a signature corpus, train/valid/test TSVs, a generate set
of descriptions and an ``adgcode`` config file.  Nothing here imports the
program, so a change to ``adgcode`` never changes a workload: the same
workload and seed always give byte-identical files.

Every reference chain passes :func:`chain_reachable` (each call's required
input types are provided by earlier calls, under subtyping), and every
description is a fixed point of :func:`description_tokens`, the rule the
program's ``tokenize_description`` documents.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass

FILLERS = (
    "first", "then", "next", "finally", "call", "use", "apply", "take",
    "the", "result", "of", "with", "and", "now", "please", "run",
)
VERBS = ("get", "make", "open", "read", "load", "parse", "build", "find", "put", "send")
MAX_INPUTS = 2        # consumers alternate between 1 and MAX_INPUTS inputs
SUBTYPE_SHARE = 0.3   # share of types that are a subtype of another
MAX_CHAIN = 4         # chain lengths cycle through 1..MAX_CHAIN
BATCH = 8
HOPS = 2


@dataclass(frozen=True)
class Workload:
    """Corpus shape and the model settings the pipeline runs with."""

    name: str
    n_types: int
    n_methods: int
    n_sources: int          # methods without inputs; every chain starts on one
    n_train: int
    n_valid: int
    n_test: int
    n_generate: int         # generate commands per round (first test descriptions)
    word_dim: int
    code_dim: int
    hidden_dim: int
    beam: int
    max_len: int
    steps: int
    eval_interval: int
    warmup: int
    reach_filter: bool

    @property
    def patience(self) -> int:
        # More than the number of validations, so early stopping cannot fire
        # and every run trains exactly ``steps`` steps.
        return self.steps // self.eval_interval + 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="walkthrough", n_types=6, n_methods=12, n_sources=3,
            n_train=160, n_valid=8, n_test=8,
            n_generate=2, word_dim=32, code_dim=32, hidden_dim=64, beam=5,
            max_len=60, steps=20, eval_interval=20, warmup=20,
            reach_filter=False,
        ),
        Workload(
            name="large-api", n_types=80, n_methods=2000, n_sources=200,
            n_train=120, n_valid=4, n_test=4,
            n_generate=1, word_dim=16, code_dim=16, hidden_dim=32, beam=3,
            max_len=30, steps=2, eval_interval=100, warmup=400,
            reach_filter=False,
        ),
        Workload(
            name="reach-beam", n_types=40, n_methods=400, n_sources=40,
            n_train=300, n_valid=4, n_test=8,
            n_generate=1, word_dim=16, code_dim=16, hidden_dim=32, beam=5,
            max_len=40, steps=3, eval_interval=100, warmup=400,
            reach_filter=True,
        ),
    )
}


_DESC_DROP = re.compile(r"[^a-z0-9_.#]+")


def description_tokens(text: str) -> list[str]:
    """Lowercase, replace characters outside ``[a-z0-9_.#]`` by spaces, split."""
    return _DESC_DROP.sub(" ", text.lower()).split()


@dataclass(frozen=True)
class Corpus:
    types: tuple[tuple[str, str | None], ...]                    # (name, parent)
    methods: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]  # (name, ins, outs)
    train: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    valid: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    test: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    def signature_text(self) -> str:
        lines = [f"type {n}" if p is None else f"type {n} : {p}" for n, p in self.types]
        lines += [f"method {n} ({', '.join(i)}) -> {', '.join(o)}" for n, i, o in self.methods]
        return "\n".join(lines) + "\n"


def ancestors_of(types) -> dict[str, set[str]]:
    """Transitive supertypes of every type, from (name, parent) pairs."""
    parent = dict(types)
    out = {}
    for name in parent:
        chain, cur = set(), parent[name]
        while cur is not None:
            chain.add(cur)
            cur = parent[cur]
        out[name] = chain
    return out


def chain_reachable(names, methods, ancestors) -> bool:
    """True iff each method in ``names`` has every required input type
    provided by an output of a method before it, under subtyping."""
    by_name = {n: (i, o) for n, i, o in methods}
    matched: set[str] = set()
    for name in names:
        inputs, outputs = by_name[name]
        if not set(inputs) <= matched:
            return False
        for t in outputs:
            matched |= {t} | ancestors[t]
    return True


def _balanced(rng, items, count):
    """``count`` draws in seeded order in which every item appears equally
    often, give or take one."""
    out = [items[k % len(items)] for k in range(count)]
    rng.shuffle(out)
    return out


def _gen_chain(rng, length, methods, consumers_of, ancestors):
    """One call chain of ``length`` calls: (code tokens, method names).  It
    starts on a method without inputs and then calls, while one exists, a
    method whose inputs the chain already provides."""
    sources = [m for m in methods if not m[1]]
    variables: list[tuple[str, str]] = []  # (variable, type), oldest first
    matched: set[str] = set()
    tokens: list[str] = []
    names: list[str] = []
    for _ in range(length):
        candidates = sorted({m for t in matched for m in consumers_of.get(t, ())})
        eligible = [m for m in candidates if set(methods[m][1]) <= matched]
        if eligible:
            name, inputs, outputs = methods[rng.choice(eligible)]
        else:
            name, inputs, outputs = rng.choice(sources)
        stmt = [f"v{len(variables)}", "=", name, "("]
        for k, req in enumerate(inputs):
            arg = next(v for v, t in reversed(variables) if t == req or req in ancestors[t])
            stmt += ([","] if k else []) + [arg]
        tokens += stmt + [")", ";"]
        names.append(name)
        variables.append((f"v{len(variables)}", outputs[0]))
        matched |= {outputs[0]} | ancestors[outputs[0]]
    return tokens, names


def generate(w: Workload, seed: int) -> Corpus:
    """The workload's corpus for ``seed``; descriptions are unique across splits.

    The seed picks which types are subtypes, what each method takes and
    returns, and which methods each chain calls.  The shape stays the same
    for every seed, so that the work the pipeline does hardly depends on
    it: a depth-1 type hierarchy in which each parent has one subtype, every
    type returned and required equally often, consumers alternating between
    1 and ``MAX_INPUTS`` inputs, chain lengths cycling through
    1..``MAX_CHAIN`` by pair index, and two filler words before each method
    named in a description.
    """
    rng = random.Random(f"{w.name}/{seed}")
    type_names = [f"T{i}" for i in range(w.n_types)]
    shuffled = rng.sample(type_names, len(type_names))
    n_sub = round(SUBTYPE_SHARE * w.n_types)
    parent_of = dict(zip(shuffled[:n_sub], rng.sample(shuffled[n_sub:], n_sub)))
    types = [(t, parent_of.get(t)) for t in type_names]
    n_consumers = w.n_methods - w.n_sources
    arity = [1 + (k % MAX_INPUTS) for k in range(n_consumers)]
    input_types = iter(_balanced(rng, type_names, sum(arity)))
    output_types = _balanced(rng, type_names, w.n_methods)
    methods = []
    for i in range(w.n_methods):
        n_in = 0 if i < w.n_sources else arity[i - w.n_sources]
        inputs = tuple(next(input_types) for _ in range(n_in))
        methods.append((f"{VERBS[i % len(VERBS)]}_{i}", inputs, (output_types[i],)))
    ancestors = ancestors_of(types)
    consumers_of: dict[str, list[int]] = {}
    for k, (_, inputs, _) in enumerate(methods):
        for t in set(inputs):
            consumers_of.setdefault(t, []).append(k)

    pairs = []
    seen: set[tuple[str, ...]] = set()
    total = w.n_train + w.n_valid + w.n_test
    for _attempt in range(100 * total):
        if len(pairs) == total:
            break
        length = 1 + len(pairs) % MAX_CHAIN
        tokens, names = _gen_chain(rng, length, methods, consumers_of, ancestors)
        desc = tuple(
            word for name in names for word in (rng.choice(FILLERS), rng.choice(FILLERS), name)
        )
        if desc in seen:
            continue
        if not chain_reachable(names, methods, ancestors):
            raise AssertionError(f"generated chain is not reachable: {names}")
        if description_tokens(" ".join(desc)) != list(desc):
            raise AssertionError(f"description is not in tokenized form: {desc}")
        seen.add(desc)
        pairs.append((desc, tuple(tokens)))
    else:
        raise AssertionError(f"could not draw {total} distinct descriptions")
    return Corpus(
        types=tuple(types),
        methods=tuple(methods),
        train=tuple(pairs[: w.n_train]),
        valid=tuple(pairs[w.n_train : w.n_train + w.n_valid]),
        test=tuple(pairs[w.n_train + w.n_valid :]),
    )


def write_inputs(w: Workload, corpus: Corpus, work: str) -> dict[str, str]:
    """Write the corpus and a config into ``work``; returns the file paths."""
    os.makedirs(work, exist_ok=True)
    paths = {
        "signatures": os.path.join(work, "signatures.sig"),
        "graph": os.path.join(work, "graph.adg"),
        "train": os.path.join(work, "train.tsv"),
        "valid": os.path.join(work, "valid.tsv"),
        "test": os.path.join(work, "test.tsv"),
        "checkpoint": os.path.join(work, "model.ckpt"),
    }
    with open(paths["signatures"], "w", encoding="utf-8") as fh:
        fh.write(corpus.signature_text())
    for split in ("train", "valid", "test"):
        with open(paths[split], "w", encoding="utf-8") as fh:
            for desc, code in getattr(corpus, split):
                fh.write(f"{' '.join(desc)}\t{' '.join(code)}\n")
    config = {
        "paths": paths,
        "model": {
            "word_dim": w.word_dim, "code_dim": w.code_dim, "hidden_dim": w.hidden_dim,
            "mlp_hidden": w.hidden_dim, "beam_width": w.beam, "max_len": w.max_len,
        },
        "embedder": {"hops": HOPS, "aggregator": "lstm"},
        "train": {
            "batch_size": BATCH, "max_epochs": 1000, "max_steps": w.steps,
            "eval_interval": w.eval_interval, "patience": w.patience,
            "warmup_steps": w.warmup, "seed": 7,
        },
        "seed": 7,
    }
    paths["config"] = os.path.join(work, "config.json")
    with open(paths["config"], "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
    return paths
