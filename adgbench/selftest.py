"""Self-test of the output checks and of the span arithmetic.

    python3 adgbench/selftest.py

Each check must pass on a correct output and fail on a deliberately wrong
one.  Correct outputs are written here from the definitions, without the
program; self times are compared with values worked out by hand.  Exits 1
if any case goes the wrong way.
"""

from __future__ import annotations

import json
import math
import struct
import sys

import checks
import inputs
import spans

RESULTS: list[tuple[str, bool]] = []


def case(name: str, ok: bool) -> None:
    RESULTS.append((name, ok))
    print(f"{'PASS' if ok else 'FAIL'} {name}")


def expect(name: str, problems: list[str], should_pass: bool) -> None:
    case(f"{name}: {'accepted' if should_pass else 'rejected'}", (not problems) == should_pass)


def dump_of(types, methods, edges) -> str:
    lines = [checks.GRAPH_HEADER, f"types {len(types)}"]
    lines += [f"type {n} {p or '-'}" for n, p in types]
    lines.append(f"nodes {len(methods)}")
    lines += [f"node {k} {n} | {' '.join(i)} | {' '.join(o)}" for k, (n, i, o) in enumerate(methods)]
    lines.append(f"edges {len(edges)}")
    lines += [f"edge {h} {t} {c}" for h, t, c in sorted(edges)]
    return "\n".join(lines) + "\n"


def stats_text(n, edges) -> str:
    return "".join(f"{k} {v}\n" for k, v in checks.graph_stats(n, edges))


def test_build_graph() -> None:
    sig = "type A\ntype B : A\ntype C\nmethod m1 () -> B\nmethod m2 (A) -> C\nmethod m3 (C, A) -> A\n"
    types, methods = checks.parse_signatures(sig)
    edges = checks.expected_edges(types, methods)
    # By hand: B is a subtype of A, so m1 feeds m2 and m3 through tag A;
    # m2 feeds m3 through C; m3's output A feeds m2 (A) but not itself.
    case("edge definition matches the hand-derived edge set",
         edges == {(0, "A", 1), (0, "A", 2), (1, "C", 2), (2, "A", 1)})
    case("stats counted from the edge set",
         checks.graph_stats(3, edges) == [("Nodes", "3"), ("Edges", "4"), ("Max.in", "2"),
                                          ("Avg.in", "1.33"), ("Max.out", "2"), ("Avg.out", "1.33")])
    good = dump_of(types, methods, edges)
    expect("build-graph", checks.check_build_graph(sig, good, stats_text(3, edges)), True)
    dropped = dump_of(types, methods, edges - {(2, "A", 1)})
    expect("build-graph with a dropped edge",
           checks.check_build_graph(sig, dropped, stats_text(3, edges)), False)
    wrong_stat = stats_text(3, edges).replace("Max.in 2", "Max.in 3")
    expect("build-graph with a wrong stat", checks.check_build_graph(sig, good, wrong_stat), False)
    self_loop = dump_of(types, methods, edges | {(2, "A", 2)})
    expect("build-graph with a self-loop",
           checks.check_build_graph(sig, self_loop, stats_text(3, edges)), False)

    w = inputs.WORKLOADS["reach-beam"]
    corpus = inputs.generate(w, 3)
    sig = corpus.signature_text()
    types, methods = checks.parse_signatures(sig)
    edges = checks.expected_edges(types, methods)
    ancestors = inputs.ancestors_of(types)
    brute = {
        (p, tag, c)
        for p, (_, _, outs) in enumerate(methods)
        for c, (_, ins, _) in enumerate(methods)
        for tag in set(ins)
        for o in outs
        if p != c and (o == tag or tag in ancestors[o])
    }
    case("edge definition equals a nested all-pairs loop on a generated corpus", edges == brute)


def history_text(steps, d, w, losses) -> str:
    return "".join(
        json.dumps({"step": s, "loss": losses[s - 1], "lrate": checks.lrate(s, d, w)}) + "\n"
        for s in range(1, steps + 1)
    )


def test_history() -> None:
    steps, d, w = 20, 64, 400
    losses = [3.0 - 0.1 * s for s in range(steps)]
    case("lrate at step 1 and past warmup",
         math.isclose(checks.lrate(1, 64, 400), 64**-0.5 * 400**-1.5)
         and math.isclose(checks.lrate(900, 64, 400), 64**-0.5 * 900**-0.5))
    expect("history", checks.check_history(history_text(steps, d, w, losses), steps, d, w, True), True)
    nan = losses[:5] + [float("nan")] + losses[6:]
    expect("history with a NaN loss",
           checks.check_history(history_text(steps, d, w, nan), steps, d, w, False), False)
    text = history_text(steps, d, w, losses).splitlines()
    rec = json.loads(text[7])
    rec["lrate"] *= 1.001
    text[7] = json.dumps(rec)
    expect("history with a wrong lrate",
           checks.check_history("\n".join(text), steps, d, w, False), False)
    expect("history one step short",
           checks.check_history(history_text(steps - 1, d, w, losses), steps, d, w, False), False)
    expect("history whose loss does not fall",
           checks.check_history(history_text(steps, d, w, losses[::-1]), steps, d, w, True), False)


def checkpoint_bytes(header: bytes, graph: str) -> bytes:
    meta = json.dumps({"graph": graph}).encode("utf-8")
    return header + struct.pack("<I", len(meta)) + meta + b"\0" * 8


def test_checkpoint() -> None:
    graph = "ADG-GRAPH-v1\ntypes 0\nnodes 0\nedges 0\n"
    expect("checkpoint", checks.check_checkpoint(checkpoint_bytes(checks.CHECKPOINT_HEADER, graph), graph), True)
    expect("checkpoint with another graph",
           checks.check_checkpoint(checkpoint_bytes(checks.CHECKPOINT_HEADER, graph + "x"), graph), False)
    expect("checkpoint with a wrong header",
           checks.check_checkpoint(checkpoint_bytes(b"ADGS2S-v0\n", graph), graph), False)


def test_decoded() -> None:
    types = [("A", None), ("B", None)]
    methods = [("mk", (), ("A",)), ("use", ("A",), ("B",)), ("both", ("A", "B"), ("A",))]
    vocab = {"v0", "v1", "=", "(", ")", ";", "mk", "use", "both"}
    good = [["v0", "=", "mk", "(", ")", ";", "v1", "=", "use", "(", "v0", ")", ";"], []]
    expect("decoded outputs", checks.check_decoded(good, vocab, 13, (types, methods)), True)
    for token in checks.NEVER_EMITTED:
        expect(f"decoded output with {token}", checks.check_decoded([["mk", token]], vocab, 13), False)
    expect("decoded output with an unknown token", checks.check_decoded([["mk", "zz"]], vocab, 13), False)
    expect("decoded output longer than max_len", checks.check_decoded(good, vocab, 12), False)
    expect("decoded output with an unreachable method",
           checks.check_decoded([["mk", "both"]], vocab, 13, (types, methods)), False)
    expect("unreachable method without the reach filter",
           checks.check_decoded([["mk", "both"]], vocab, 13), True)


def test_report() -> None:
    refs = [["a", "b", "c", "d"], ["a", "b"], ["x", "y", "z"]]
    cands = [["a", "b", "c", "d"], ["a"], ["x", "y", "q"]]
    case("exact match", checks.exact_match(cands, refs) == 1 / 3)
    case("BLEU of identical corpora is 1", math.isclose(checks.corpus_bleu(refs, refs), 1.0))
    # By hand: matches for n = 1..4 are 7, 4, 2, 1 of 8, 5, 3, 1 n-grams; c = 8 < r = 9.
    by_hand = math.exp(1 - 9 / 8) * (7 / 8 * 4 / 5 * 2 / 3 * 1 / 1) ** 0.25
    case("BLEU by hand", math.isclose(checks.corpus_bleu(cands, refs), by_hand))
    case("BLEU with no unigram match is 0", checks.corpus_bleu([["q"]], [["a"]]) == 0.0)
    acc, bleu = 100 * checks.exact_match(cands, refs), 100 * checks.corpus_bleu(cands, refs)
    header = "Acc\tBleu\tF1\tCIDEr\tRougeL\tRouge1\tRouge2\tRIBES\tPoV"
    report = f"{header}\n{acc:.2f}\t{bleu:.2f}\t0\t0\t0\t0\t0\t0\t0\n"
    expect("evaluate report", checks.check_report(report, cands, refs), True)
    wrong = f"{header}\n{acc + 1:.2f}\t{bleu:.2f}\t0\t0\t0\t0\t0\t0\t0\n"
    expect("evaluate report with a wrong Acc", checks.check_report(wrong, cands, refs), False)


def test_spans() -> None:
    # root [0, 10] holds A [1, 4] and B [5, 9]; B holds C [6, 7] and 0.5 s
    # of aggregated calls.  By hand: root 10-3-4 = 3, A 3, B 4-1-0.5 = 2.5, C 1.
    trace = {
        "spans": [["root", -1, 0.0, 10.0, 0, 9], ["A", 0, 1.0, 4.0, 0, 2],
                  ["B", 0, 5.0, 9.0, 2, 9], ["C", 2, 6.0, 7.0, 3, 4]],
        "aggregates": [["leaf", 2, 4, 0.5]],
        "counters": {"C.nodes": 7},
    }
    got = spans.self_times(trace)
    case("self times of a hand-built tree", all(math.isclose(a, b) for a, b in zip(got, [3.0, 3.0, 2.5, 1.0])))
    case("self times add up to the root span",
         math.isclose(spans.attributed(trace), spans.root_duration(trace)))
    totals = spans.layer_totals([trace, trace])
    case("layer totals over two commands",
         math.isclose(totals["B.self_s"], 5.0) and totals["leaf.calls"] == 8
         and totals["C.nodes"] == 14 and totals["B.tensors"] == 14)
    overlap = {
        "spans": [["root", -1, 0.0, 10.0, 0, 0], ["A", 0, 1.0, 5.0, 0, 0], ["B", 0, 3.0, 7.0, 0, 0],
                  ["late", 0, 9.0, 12.0, 0, 0]],
        "aggregates": [], "counters": {},
    }
    case("overlapping children count once, overhang is clipped",
         math.isclose(spans.self_times(overlap)[0], 10.0 - 6.0 - 1.0))
    case("covered length of disjoint and nested intervals",
         math.isclose(spans.covered((0, 10), [(1, 2), (1.5, 1.8), (3, 4)]), 2.0))


def main() -> int:
    for test in (test_build_graph, test_history, test_checkpoint, test_decoded, test_report, test_spans):
        test()
    failed = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)}/{len(RESULTS)} self-test cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
