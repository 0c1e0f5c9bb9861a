"""Benchmark of the ``adgcode`` CLI pipeline, end to end and layer by layer.

    python3 adgbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark writes the workload's inputs
(``inputs.py``) under ``adgbench/work/NAME/`` and then runs rounds of the
pipeline as a user runs it: one ``python -m adgcode.cli`` process per
command, with ``PYTHONPATH=src`` and BLAS pinned to one thread.  A round is
``build-graph``, ``train``, ``evaluate`` and ``generate`` on the first test
descriptions; every round runs the same commands on the same inputs, and
every output is checked (``checks.py``).  Another round starts only if a
round as long as the last one, less the checks made once per run, still
fits in ``--seconds``; there is always one.

The benchmark and every command it starts run on one CPU.  Just before and
just after each command the benchmark times a fixed piece of reference work
(``reference.py``) on that CPU, and scales the command's wall time by how
fast the reference ran then.  With ``--trace 0`` the result holds the
end-to-end metrics: each command of the round is timed by the median of its
scaled times over the run's rounds, and a metric is the median over its
commands (see README.md for why).
With ``--trace 1`` one untraced round is followed by one round in which every
command runs under ``launcher.py``; the result holds the per-layer metrics
of the traced round and the tracing overhead.

An operation is one CLI command; it fails on a non-zero exit or a failed
output check.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks
import inputs
import reference
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launcher.py")
DECODER = os.path.join(HERE, "decode.py")
RUN_LIMIT_S = 170.0  # commands still running at this point of a run are killed
PROBE_REUSE_S = 0.5  # a reference timing this recent also serves the next command

PER_LAYER = (
    "cli.import_s", "cli.outside_spans_s", "cli.build_graph.self_s", "cli.train.self_s",
    "cli.evaluate.self_s", "cli.generate.self_s",
    "signatures.parse_signatures.self_s", "signatures.read_pairs.self_s",
    "graph.build_adg.self_s", "graph.build_adg.calls", "graph.load_graph.self_s",
    "graph.dump_graph.self_s", "graph.is_reachable.self_s", "graph.is_reachable.calls",
    "embedder.embed_tensors.self_s", "embedder.embed_tensors.calls",
    "embedder.embed_tensors.nodes",
    "neural.backward.self_s", "neural.adam.self_s", "neural.tensors_per_step",
    "model.train.self_s", "model.sequence_loss.self_s", "model.encode.self_s",
    "model.generate_greedy.self_s", "model.decode_step.self_s", "model.decode_step.calls",
    "model.beam_search.self_s", "model.save_checkpoint.self_s",
    "model.load_checkpoint.self_s", "metrics.evaluate_pairs.self_s", "trace.overhead_s",
)


def unit_of(metric: str) -> str:
    return "count" if metric.endswith((".calls", ".nodes", "tensors_per_step")) else "s"


@dataclass
class Command:
    """One finished CLI process."""

    label: str
    code: int
    wall: float
    reference: float  # mean reference time just before and just after it
    rss_mb: float
    stdout: str
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)


class Runner:
    """Starts each command in its own process and waits for it to end."""

    def __init__(self, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.references: list[float] = []
        self.last_probe = (-math.inf, 0.0)  # (monotonic time, reference seconds)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = "1"

    def spawn(self, argv: list[str], stem: str) -> tuple[int, float, float, str, str]:
        """Run ``argv`` with its output in ``stem.out``/``stem.err``; returns
        exit code, wall seconds, peak RSS in MB, standard output and error."""
        with open(stem + ".out", "wb") as out, open(stem + ".err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
                _read(stem + ".out"), _read(stem + ".err"))

    def stem(self) -> str:
        self.count += 1
        return os.path.join(self.work, f"cmd{self.count}")

    def probe(self) -> float:
        """Time the reference work now; returns its seconds."""
        value = reference.reference_s()
        self.references.append(value)
        self.last_probe = (time.monotonic(), value)
        return value

    def cli(self, label: str, args: list[str], traced: bool) -> Command:
        stem = self.stem()
        if traced:
            argv = [sys.executable, LAUNCHER, stem + ".spans.json", "--", *args]
        else:
            argv = [sys.executable, "-m", "adgcode.cli", *args]
        at, before = self.last_probe
        if time.monotonic() - at > PROBE_REUSE_S:
            before = self.probe()
        code, wall, rss, stdout, stderr = self.spawn(argv, stem)
        cmd = Command(label, code, wall, (before + self.probe()) / 2, rss, stdout)
        if code != 0:
            cmd.problems.append(f"exit code {code}: {stderr.strip()[-300:]}")
        elif traced:
            cmd.trace = json.loads(_read(stem + ".spans.json"))
        return cmd


class Pipeline:
    """One workload's inputs, the commands of a round and their checks."""

    def __init__(self, w: inputs.Workload, seed: int, runner: Runner):
        self.w, self.runner = w, runner
        self.corpus = inputs.generate(w, seed)
        self.paths = inputs.write_inputs(w, self.corpus, runner.work)
        self.signature_text = self.corpus.signature_text()
        self.types, self.methods = checks.parse_signatures(self.signature_text)
        self.vocabulary = {t for _, code in self.corpus.train for t in code}
        self.generate_set = [d for d, _ in self.corpus.test[: w.n_generate]]
        self.filter_flag = ["--reach-filter"] if w.reach_filter else []
        self.first_build: tuple[str, str] | None = None
        self.decoded_from: bytes | None = None
        self.candidates: list[list[str]] | None = None  # test set decoded in process
        self.decode_problems: list[str] = []
        self.once_s = 0.0  # seconds of the checks made once per run

    def read(self, key: str, mode: str = "r"):
        return _read(self.paths[key], mode)

    def schedule(self) -> list[str]:
        """The commands of one round, the same in every round."""
        return ["build-graph", "train", "evaluate"] + ["generate"] * self.w.n_generate

    def round(self, traced: bool) -> list[Command]:
        cfg = ["--config", self.paths["config"]]
        done = []
        generated = 0
        for label in self.schedule():
            if time.monotonic() > self.runner.deadline:
                break
            if label == "generate":
                desc = self.generate_set[generated]
                generated += 1
                args = ["generate", *cfg, *self.filter_flag, " ".join(desc)]
            else:
                args = [label, *cfg] + (self.filter_flag if label == "evaluate" else [])
            cmd = self.runner.cli(label, args, traced)
            done.append(cmd)
            if cmd.code != 0:
                continue
            if label == "build-graph":
                self.check_build(cmd)
            elif label == "train":
                self.check_train(cmd)
            elif self.candidates is None:
                cmd.problems.append("no in-process decoding of this checkpoint to check against")
            elif label == "evaluate":
                cmd.problems += self.decode_problems
                cmd.problems += checks.check_report(
                    cmd.stdout, self.candidates, [c for _, c in self.corpus.test]
                )
            else:
                output = cmd.stdout.split()
                cmd.problems += checks.check_decoded([output], self.vocabulary, self.w.max_len, self.reach)
                if output != self.candidates[generated - 1]:
                    cmd.problems.append(f"generate output differs from evaluate's decoding: {output}")
        return done

    def check_train(self, cmd: Command) -> None:
        cmd.problems += checks.check_history(
            _read(self.paths["checkpoint"] + ".history"),
            self.w.steps, self.w.hidden_dim, self.w.warmup,
            must_learn=self.w.name == "walkthrough",
        )
        cmd.problems += checks.check_checkpoint(self.read("checkpoint", "rb"), self.read("graph"))
        if not cmd.problems:
            cmd.problems += self.decode_test_set()

    @property
    def reach(self):
        return (self.types, self.methods) if self.w.reach_filter else None

    def check_build(self, cmd: Command) -> None:
        dump = self.read("graph")
        if self.first_build is None:
            began = time.perf_counter()
            cmd.problems += checks.check_build_graph(self.signature_text, dump, cmd.stdout)
            if not cmd.problems:
                self.first_build = (dump, cmd.stdout)
            self.once_s += time.perf_counter() - began
        elif (dump, cmd.stdout) != self.first_build:
            cmd.problems.append("build-graph output differs from the checked first build")

    def decode_test_set(self) -> list[str]:
        """Decode the test descriptions in process from the current
        checkpoint, unless these checkpoint bytes were decoded already."""
        ckpt = self.read("checkpoint", "rb")
        if ckpt == self.decoded_from:
            return []
        self.decoded_from, self.candidates = ckpt, None
        code, wall, _, stdout, stderr = self.runner.spawn([
            sys.executable, DECODER, self.paths["checkpoint"], self.paths["test"],
            str(self.w.beam), str(self.w.max_len), "1" if self.w.reach_filter else "0",
        ], self.runner.stem())
        self.once_s += wall
        if code != 0:
            return [f"decoding the test set in process failed: {stderr.strip()[-300:]}"]
        self.candidates = json.loads(stdout)
        self.decode_problems = checks.check_decoded(
            self.candidates, self.vocabulary, self.w.max_len, self.reach
        )
        return []

    def describe(self) -> str:
        """The workload's make-up, one line."""
        c = self.corpus
        edges = len(checks.expected_edges(self.types, self.methods))
        api = {n for n, _, _ in self.methods} & self.vocabulary
        ended = "not decoded"
        if self.candidates is not None:
            n = len(self.candidates)
            by_len = sum(len(x) == self.w.max_len for x in self.candidates)
            ended = f"ended by max_len {by_len}/{n}, by EOS {n - by_len}/{n}"
        return (
            f"types {len(self.types)}, methods {len(self.methods)}, edges {edges}, "
            f"pairs train/valid/test {len(c.train)}/{len(c.valid)}/{len(c.test)}, "
            f"API methods in code vocabulary {len(api)}, decoded test outputs {ended}"
        )


def _read(path: str, mode: str = "r"):
    with open(path, mode) as fh:
        return fh.read()


def scaled(c: Command) -> float:
    """The command's wall time at the reference speed: wall seconds times
    ``reference.NOMINAL_S`` over the reference time around the command."""
    return c.wall * reference.NOMINAL_S / c.reference


def end_to_end(w: inputs.Workload, rounds: list[list[Command]]) -> dict[str, tuple[float, str]]:
    """Each command of the round is timed by the median of its scaled times
    over the rounds of the run; a metric is the median of its commands'."""
    def times(label):
        return [
            statistics.median(scaled(r[k]) for r in rounds)
            for k, c in enumerate(rounds[0]) if c.label == label
        ]

    return {
        "setup_s": (statistics.median(times("build-graph")), "s"),
        "train_pairs_per_s": (w.steps * inputs.BATCH / statistics.median(times("train")), "pairs/s"),
        "eval_descs_per_s": (w.n_test / statistics.median(times("evaluate")), "descriptions/s"),
        "generate_s": (statistics.median(times("generate")), "s"),
        "peak_rss_mb": (max(c.rss_mb for r in rounds for c in r), "MB"),
    }


def per_layer(plain: list[Command], traced: list[Command]) -> dict[str, tuple[float, str]]:
    traces = [c.trace for c in traced]
    totals = spans.layer_totals(traces)
    values = {
        "cli.import_s": totals["cli.import.self_s"],
        "neural.tensors_per_step": (
            (totals["model.train.tensors"] - totals["model.validation_bleu.tensors"])
            / totals["neural.adam.calls"] if totals["neural.adam.calls"] else 0.0
        ),
        "cli.outside_spans_s": sum(t.wall - spans.root_duration(t.trace) for t in traced),
        "trace.overhead_s": sum(map(scaled, traced)) - sum(map(scaled, plain)),
    }
    out = {}
    for name in PER_LAYER:
        out[name] = (values.get(name, totals.get(name, 0.0)), unit_of(name))
    print("# traced commands: wall outside | root span | sum of self times | untraced wall")
    for p, t in zip(plain, traced):
        print(
            f"#   {t.label:12s} {t.wall:9.4f} | {spans.root_duration(t.trace):9.4f} | "
            f"{spans.attributed(t.trace):9.4f} | {p.wall:9.4f}"
        )
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that the command being
    # waited for is killed and reaped before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "adgcode", "cli.py")):
        print(f"error: no adgcode sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # One CPU for the benchmark and, by inheritance, every command, so that
    # the reference work is timed where the commands run.  The last CPU is
    # taken because the first one usually serves more interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    w = inputs.WORKLOADS[args.workload]
    work = os.path.join(HERE, "work", w.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
    pipeline = Pipeline(w, args.seed, runner)

    rounds: list[list[Command]] = []
    start = time.perf_counter()
    if args.trace:
        rounds = [pipeline.round(traced=False), pipeline.round(traced=True)]
    else:
        while True:
            began, once = time.perf_counter(), pipeline.once_s
            rounds.append(pipeline.round(traced=False))
            took = time.perf_counter() - began - (pipeline.once_s - once)
            if any(c.problems for c in rounds[-1]) or time.perf_counter() - start + took > args.seconds:
                break

    cmds = [c for r in rounds for c in r]
    failed = [c for c in cmds if c.problems]
    for c in failed:
        print(f"FAILED {c.label}: {'; '.join(c.problems)}", file=sys.stderr)
    print(f"# workload {w.name} seed {args.seed}: {pipeline.describe()}")
    print(f"# {len(rounds)} round(s), {len(cmds)} commands, {len(failed)} failed")
    refs = runner.references
    print(
        f"# reference work: {len(refs)} timings, median {statistics.median(refs):.4f} s, "
        f"range {min(refs):.4f}-{max(refs):.4f} s (nominal {reference.NOMINAL_S} s)"
    )
    complete = all(len(r) == len(pipeline.schedule()) for r in rounds) and not failed
    if args.trace:
        metrics = per_layer(rounds[0], rounds[1]) if complete else {}
    else:
        metrics = end_to_end(w, rounds) if complete else {}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not any(c.code == 0 and c.problems for c in cmds),
        "attempted": len(cmds),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
