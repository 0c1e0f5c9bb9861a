"""Checks of the program's outputs, computed apart from the program.

Every expected value comes from the definitions in the ``adgcode`` README
and the benchmark's own parsers, never from stored output.  Each ``check_*``
function returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter

from inputs import ancestors_of, chain_reachable

GRAPH_HEADER = "ADG-GRAPH-v1"
CHECKPOINT_HEADER = b"ADGS2S-v1\n"
NEVER_EMITTED = ("⟨PAD⟩", "⟨BOS⟩", "⟨UNK⟩")
EOS = "⟨EOS⟩"


# -- parsers ---------------------------------------------------------------


def parse_signatures(text: str):
    """``type N [: P]`` and ``method N (a, b) -> c, d`` lines into
    ``(types, methods)``; types referenced but not declared are roots."""
    declared: dict[str, str | None] = {}
    referenced: list[str] = []
    methods = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(" ")
        if keyword == "type":
            name, _, parent = (part.strip() for part in rest.partition(":"))
            declared[name] = parent or None
            if parent:
                referenced.append(parent)
        elif keyword == "method":
            name, _, sig = rest.partition("(")
            ins, _, outs = sig.partition(")")
            outs = outs.strip()
            if not outs.startswith("->"):
                raise ValueError(f"bad method line: {raw!r}")
            inputs = tuple(t.strip() for t in ins.split(",") if t.strip())
            outputs = tuple(t.strip() for t in outs[2:].split(",") if t.strip())
            methods.append((name.strip(), inputs, outputs))
            referenced += inputs + outputs
        else:
            raise ValueError(f"bad signature line: {raw!r}")
    for t in referenced:
        declared.setdefault(t, None)
    return sorted(declared.items()), methods


def parse_graph_dump(text: str):
    """``ADG-GRAPH-v1`` text into ``(types, nodes, edges)``, tables as dumped."""
    lines = text.splitlines()
    if not lines or lines[0] != GRAPH_HEADER:
        raise ValueError("missing graph header")
    pos = 1

    def table(keyword):
        nonlocal pos
        head, count = lines[pos].split()
        if head != keyword:
            raise ValueError(f"expected {keyword!r} at line {pos + 1}")
        rows = lines[pos + 1 : pos + 1 + int(count)]
        if len(rows) != int(count):
            raise ValueError(f"truncated {keyword!r} table")
        pos += 1 + int(count)
        return rows

    types = []
    for row in table("types"):
        _, name, parent = row.split()
        types.append((name, None if parent == "-" else parent))
    nodes = []
    for row in table("nodes"):
        head, ins, outs = row.split(" | ")
        _, node_id, name = head.split()
        nodes.append((int(node_id), name, tuple(ins.split()), tuple(outs.split())))
    edges = []
    for row in table("edges"):
        _, head, tag, tail = row.split()
        edges.append((int(head), tag, int(tail)))
    if pos != len(lines):
        raise ValueError("trailing lines after the edge table")
    return types, nodes, edges


def parse_report(text: str) -> dict[str, str]:
    """The ``evaluate`` report: a tab-separated header and one value row."""
    header, values = text.strip().splitlines()[-2:]
    return dict(zip(header.split("\t"), values.split("\t"), strict=True))


def checkpoint_meta(data: bytes) -> dict:
    """The JSON hyperparameter block after the ``ADGS2S-v1`` header."""
    if not data.startswith(CHECKPOINT_HEADER):
        raise ValueError("checkpoint does not start with ADGS2S-v1")
    at = len(CHECKPOINT_HEADER)
    (size,) = struct.unpack_from("<I", data, at)
    return json.loads(data[at + 4 : at + 4 + size].decode("utf-8"))


# -- definitions -----------------------------------------------------------


def expected_edges(types, methods) -> set[tuple[int, str, int]]:
    """All-pairs edge definition: ``(p, tag, c)`` whenever an output of ``p``
    is ``tag`` or a subtype of it, ``tag`` is an input of ``c``, and p != c.
    Node ids are declaration positions."""
    ancestors = ancestors_of(types)
    providers: dict[str, set[int]] = {}
    consumers: dict[str, set[int]] = {}
    for k, (_, inputs, outputs) in enumerate(methods):
        for out in outputs:
            for tag in {out} | ancestors[out]:
                providers.setdefault(tag, set()).add(k)
        for tag in inputs:
            consumers.setdefault(tag, set()).add(k)
    return {
        (p, tag, c)
        for tag, cs in consumers.items()
        for p in providers.get(tag, ())
        for c in cs
        if p != c
    }


def graph_stats(n_nodes: int, edges) -> list[tuple[str, str]]:
    """The ``build-graph`` printout, counted from an edge set."""
    indeg = Counter(c for _, _, c in edges)
    outdeg = Counter(p for p, _, _ in edges)
    avg = f"{len(edges) / n_nodes:.2f}" if n_nodes else "0.00"
    return [
        ("Nodes", str(n_nodes)),
        ("Edges", str(len(edges))),
        ("Max.in", str(max(indeg.values(), default=0))),
        ("Avg.in", avg),
        ("Max.out", str(max(outdeg.values(), default=0))),
        ("Avg.out", avg),
    ]


def lrate(step: int, d_model: int, warmup: int) -> float:
    """``d^-0.5 * min(s^-0.5, s * w^-1.5)``."""
    return d_model**-0.5 * min(step**-0.5, step * warmup**-1.5)


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(candidates, references, max_n: int = 4) -> float:
    """Corpus BLEU with one reference per candidate: clipped n-gram
    precisions for n = 1..4, add-one smoothing of a zero count for n >= 2,
    0 when no unigram matches, geometric mean times the brevity penalty
    (1 if c > r else exp(1 - r/c))."""
    matches = [0] * (max_n + 1)
    totals = [0] * (max_n + 1)
    c_len = sum(len(c) for c in candidates)
    r_len = sum(len(r) for r in references)
    if c_len == 0:
        return 0.0
    for cand, ref in zip(candidates, references, strict=True):
        for n in range(1, max_n + 1):
            cand_grams, ref_grams = _ngrams(cand, n), _ngrams(ref, n)
            totals[n] += sum(cand_grams.values())
            matches[n] += sum(min(k, ref_grams[g]) for g, k in cand_grams.items())
    if matches[1] == 0:
        return 0.0
    log_p = math.log(matches[1] / totals[1])
    for n in range(2, max_n + 1):
        if matches[n] == 0:
            log_p += math.log(1 / (totals[n] + 1))
        else:
            log_p += math.log(matches[n] / totals[n])
    bp = 1.0 if c_len > r_len else math.exp(1 - r_len / c_len)
    return bp * math.exp(log_p / max_n)


def exact_match(candidates, references) -> float:
    return sum(tuple(c) == tuple(r) for c, r in zip(candidates, references, strict=True)) / len(references)


# -- checks ----------------------------------------------------------------


def check_build_graph(signature_text: str, dump_text: str, stdout: str) -> list[str]:
    types, methods = parse_signatures(signature_text)
    try:
        d_types, d_nodes, d_edges = parse_graph_dump(dump_text)
    except ValueError as exc:
        return [f"graph dump: {exc}"]
    problems = []
    if d_types != types:
        problems.append("graph dump: type table differs from the signature file")
    if d_nodes != [(k, n, i, o) for k, (n, i, o) in enumerate(methods)]:
        problems.append("graph dump: node table differs from the signature file")
    edges = expected_edges(types, methods)
    got = set(d_edges)
    if len(got) != len(d_edges) or d_edges != sorted(d_edges):
        problems.append("graph dump: edge table is not sorted and distinct")
    if got != edges:
        problems.append(
            f"graph dump: {len(edges - got)} edges missing, {len(got - edges)} unexpected"
        )
    printed = [tuple(line.split()) for line in stdout.strip().splitlines()]
    if printed != graph_stats(len(methods), edges):
        problems.append(f"build-graph stats {printed} != {graph_stats(len(methods), edges)}")
    return problems


def check_history(text: str, steps: int, d_model: int, warmup: int, must_learn: bool) -> list[str]:
    try:
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        return [f"history: {exc}"]
    problems = []
    if [r.get("step") for r in records] != list(range(1, steps + 1)):
        problems.append(f"history: expected steps 1..{steps}, got {len(records)} records")
        return problems
    for r in records:
        loss = r["loss"]
        if not (isinstance(loss, float) and math.isfinite(loss) and loss > 0):
            problems.append(f"history: step {r['step']} loss {loss!r} is not finite and positive")
        want = lrate(r["step"], d_model, warmup)
        if not math.isclose(r["lrate"], want, rel_tol=1e-12, abs_tol=0.0):
            problems.append(f"history: step {r['step']} lrate {r['lrate']!r} != {want!r}")
    if must_learn:
        tenth = max(1, steps // 10)
        first = sum(r["loss"] for r in records[:tenth]) / tenth
        last = sum(r["loss"] for r in records[-tenth:]) / tenth
        if not last < first:
            problems.append(f"history: loss did not fall ({first:.4f} -> {last:.4f})")
    return problems


def check_checkpoint(data: bytes, dump_text: str) -> list[str]:
    try:
        meta = checkpoint_meta(data)
    except (ValueError, struct.error) as exc:
        return [f"checkpoint: {exc}"]
    if meta.get("graph") != dump_text:
        return ["checkpoint: embedded graph differs from the build-graph dump"]
    return []


def check_decoded(outputs, vocabulary: set[str], max_len: int, reach=None) -> list[str]:
    """Decoded token lists: in the training code vocabulary, no reserved
    token, at most ``max_len`` tokens, and with ``reach = (types, methods)``
    every method reachable from the outputs of the methods before it."""
    problems = []
    if reach is not None:
        types, methods = reach
        ancestors = ancestors_of(types)
        names = {n for n, _, _ in methods}
    for k, tokens in enumerate(outputs):
        bad = [t for t in tokens if t not in vocabulary or t in NEVER_EMITTED or t == EOS]
        if bad:
            problems.append(f"output {k}: tokens outside the code vocabulary: {bad[:3]}")
        if len(tokens) > max_len:
            problems.append(f"output {k}: {len(tokens)} tokens > max_len {max_len}")
        called = [t for t in tokens if reach is not None and t in names]
        if called and not chain_reachable(called, methods, ancestors):
            problems.append(f"output {k}: a method is emitted before its inputs are available")
    return problems


def check_report(report_text: str, candidates, references) -> list[str]:
    try:
        report = parse_report(report_text)
    except ValueError as exc:
        return [f"evaluate report: {exc}"]
    problems = []
    for column, value in (
        ("Acc", exact_match(candidates, references)),
        ("Bleu", corpus_bleu(candidates, references)),
    ):
        printed = report.get(column)
        if printed is None or abs(float(printed) - 100 * value) > 0.005 + 1e-9:
            problems.append(f"evaluate report: {column} {printed} != {100 * value:.4f}")
    return problems
