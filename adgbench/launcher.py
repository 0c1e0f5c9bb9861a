"""Run one ``adgcode`` CLI command with its public functions traced.

    python3 adgbench/launcher.py SPANS.json -- <adgcode arguments>

The launcher imports ``adgcode.cli``, wraps the functions of each module
where their callers look them up, runs ``adgcode.cli.run`` and, once it
returns, writes the spans it kept in memory to ``SPANS.json`` (format in
``spans.py``).  It exits with the command's exit code.  ``PYTHONPATH`` must
point at the checkout's ``src/``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

clock = time.perf_counter


class Tracer:
    """Spans and aggregates of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.aggregates: dict[tuple[str, int], list] = {}
        self.counters: dict[str, int] = {}
        self.tensors = 0

    def open(self, name: str, start: float | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        sid = len(self.spans)
        self.spans.append([name, parent, clock() if start is None else start, None, self.tensors, None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        if self.stack.pop() != sid:
            raise RuntimeError(f"span {self.spans[sid][0]} closed out of order")
        self.spans[sid][3] = clock()
        self.spans[sid][5] = self.tensors

    def span(self, name: str, fn, count=None):
        """``fn`` wrapped in a span; ``count(*args, **kw)`` adds to counter ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                key = f"{name}.nodes"
                self.counters[key] = self.counters.get(key, 0) + count(*args, **kwargs)
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return wrapper

    def aggregate(self, name: str, fn):
        """``fn`` wrapped with a call count and a total time per enclosing
        span; ``fn`` must call no other traced function."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                key = (name, self.stack[-1])
                slot = self.aggregates.get(key)
                if slot is None:
                    self.aggregates[key] = [1, elapsed]
                else:
                    slot[0] += 1
                    slot[1] += elapsed

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [[n, p, c, s] for (n, p), (c, s) in self.aggregates.items()],
            "counters": self.counters,
        }


def install(tracer: Tracer) -> None:
    """Wrap each traced function where its callers look it up."""
    from adgcode import cli, embedder, graph, metrics, model, neural

    span, agg = tracer.span, tracer.aggregate

    def nodes_requested(adg, params, config, needed=None):
        return adg.num_nodes if needed is None else len(set(needed))

    wrapped_build = span("graph.build_adg", graph.build_adg)
    wrapped_load = span("graph.load_graph", graph.load_graph)
    wrapped_dump = span("graph.dump_graph", graph.dump_graph)
    graph.build_adg = cli.build_adg = wrapped_build  # load_graph calls graph.build_adg
    cli.load_graph = model.load_graph = wrapped_load
    cli.dump_graph = model.dump_graph = wrapped_dump
    graph.Adg.is_reachable = agg("graph.is_reachable", graph.Adg.is_reachable)

    cli.parse_signatures = span("signatures.parse_signatures", cli.parse_signatures)
    cli.read_pairs = span("signatures.read_pairs", cli.read_pairs)

    embedder.embed_tensors = span("embedder.embed_tensors", embedder.embed_tensors, nodes_requested)

    neural.Tensor.backward = span("neural.backward", neural.Tensor.backward)
    neural.Adam.step = span("neural.adam", neural.Adam.step)
    tensor_init = neural.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        tracer.tensors += 1
        tensor_init(self, *args, **kwargs)

    neural.Tensor.__init__ = counting_init

    cli.train = span("model.train", cli.train)
    model.validation_bleu = span("model.validation_bleu", model.validation_bleu)
    model.generate_greedy = span("model.generate_greedy", model.generate_greedy)
    cli.beam_search = span("model.beam_search", cli.beam_search)
    cli.save_checkpoint = span("model.save_checkpoint", cli.save_checkpoint)
    cli.load_checkpoint = span("model.load_checkpoint", cli.load_checkpoint)
    S2S = model.Seq2SeqModel
    S2S.sequence_loss = span("model.sequence_loss", S2S.sequence_loss)
    S2S.encode = span("model.encode", S2S.encode)
    S2S.decode_step = agg("model.decode_step", S2S.decode_step)

    metrics.evaluate_pairs = span("metrics.evaluate_pairs", metrics.evaluate_pairs)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: launcher.py SPANS.json -- <adgcode arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    root = tracer.open("cli.process", start=T0)
    sid = tracer.open("cli.import")
    from adgcode import cli

    tracer.close(sid)
    install(tracer)
    sid = tracer.open("cli." + cli_args[0].replace("-", "_"))
    try:
        code = cli.run(cli_args)
    finally:
        tracer.close(sid)
        tracer.close(root)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
