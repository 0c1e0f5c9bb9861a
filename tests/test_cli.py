"""End-to-end CLI tests over temporary workspaces: command wiring, exit
codes, config precedence, and run-to-run determinism."""

from __future__ import annotations

import gc
import io
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adgcode import cli, neural
from adgcode.cli import EXIT_DATA, EXIT_DIVERGED, EXIT_OK, EXIT_USAGE
from adgcode.config import (
    BEAM_WIDTH_BOUND,
    CONCAT_CAP_BOUND,
    DIM_BOUND,
    MAX_LEN_BOUND,
    RELU_BOUND,
)
from adgcode.graph import load_graph
from adgcode.model import (
    CHECKPOINT_HEADER,
    CheckpointFormatError,
    TrainingDivergedError,
    generate_greedy,
    load_checkpoint,
)

from conftest import corrupt_parameter, edge_triples


def run_cli(args):
    out = io.StringIO()
    code = cli.run(args, out=out)
    return code, out.getvalue()


def write_config(tmp_path, **extra):
    base = {
        "paths": {
            "signatures": str(tmp_path / "signatures.sig"),
            "graph": str(tmp_path / "graph.adg"),
            "train": str(tmp_path / "train.tsv"),
            "valid": str(tmp_path / "valid.tsv"),
            "test": str(tmp_path / "test.tsv"),
            "checkpoint": str(tmp_path / "model.ckpt"),
        },
        "model": {
            "word_dim": 8, "code_dim": 8, "hidden_dim": 12, "mlp_hidden": 12,
            "dropout": 0.1, "beam_width": 2, "max_len": 25,
        },
        "embedder": {"hops": 2, "aggregator": "lstm"},
        "train": {
            "batch_size": 4, "max_epochs": 1000, "max_steps": 25,
            "eval_interval": 100, "patience": 5, "warmup_steps": 50, "seed": 0,
        },
        "seed": 0,
    }
    base.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    code, _ = run_cli([
        "gen-synthetic", "--out", str(tmp_path),
        "--types", "4", "--methods", "8", "--max-chain", "3",
        "--size", "12", "--seed", "3",
    ])
    assert code == EXIT_OK
    return tmp_path


class TestGenSynthetic:
    def test_writes_all_artifacts(self, tmp_path):
        code, out = run_cli([
            "gen-synthetic", "--out", str(tmp_path),
            "--types", "3", "--methods", "6", "--max-chain", "2", "--size", "6",
        ])
        assert code == EXIT_OK
        for name in ("signatures.sig", "train.tsv", "valid.tsv", "test.tsv"):
            assert (tmp_path / name).exists()

    def test_deterministic_per_seed(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            code, _ = run_cli([
                "gen-synthetic", "--out", str(d),
                "--types", "4", "--methods", "8", "--max-chain", "3",
                "--size", "10", "--seed", "7",
            ])
            assert code == EXIT_OK
        for name in ("signatures.sig", "train.tsv", "valid.tsv", "test.tsv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_invalid_spec_usage_error(self, tmp_path, capsys):
        code, _ = run_cli([
            "gen-synthetic", "--out", str(tmp_path), "--methods", "0",
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_other_commands_do_not_import_the_generator(self):
        # nor the metrics, which only the scoring commands import; and the
        # settings alone load neither numpy, dataclasses nor any other
        # adgcode module
        root = Path(__file__).resolve().parents[1]
        probe = (
            "import sys, adgcode.config; "
            "print([m for m in sys.modules if m.split('.')[0] == 'numpy' or m == 'dataclasses' "
            "or m.startswith('adgcode.') and m != 'adgcode.config']); "
            "import adgcode.cli; "
            "print([m for m in ('adgcode.synthetic', 'adgcode.metrics') if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "[]"]


class TestBuildGraph:
    def test_toy_signatures(self, tmp_path):
        sig = tmp_path / "toy.sig"
        sig.write_text(
            "type C\ntype D\ntype E\n"
            "method m1 () -> C\nmethod m2 () -> C\n"
            "method m3 () -> D\nmethod m4 (C, D) -> E\n"
        )
        graph_path = tmp_path / "toy.adg"
        code, out = run_cli([
            "build-graph", "--signatures", str(sig), "--graph", str(graph_path),
        ])
        assert code == EXIT_OK
        adg = load_graph(graph_path.read_text())
        assert adg.num_nodes == 4
        edges = set(edge_triples(adg))
        assert (1, "C", 3) in edges and (2, "D", 3) in edges
        assert "Nodes 4" in out

    def test_empty_signatures(self, tmp_path):
        sig = tmp_path / "empty.sig"
        sig.write_text("# nothing here\n")
        code, out = run_cli([
            "build-graph", "--signatures", str(sig), "--graph", str(tmp_path / "g.adg"),
        ])
        assert code == EXIT_OK
        assert out.splitlines() == [
            "Nodes 0", "Edges 0", "Max.in 0", "Avg.in 0.00", "Max.out 0", "Avg.out 0.00",
        ]

    def test_stats_match_dump_oracle(self, workspace):
        cfg = write_config(workspace)
        code, out = run_cli(["build-graph", "--config", cfg])
        assert code == EXIT_OK
        adg = load_graph((workspace / "graph.adg").read_text())
        stats = dict(line.split() for line in out.strip().splitlines())
        assert int(stats["Nodes"]) == adg.num_nodes
        assert int(stats["Edges"]) == adg.num_edges
        expect_avg = adg.num_edges / adg.num_nodes
        assert float(stats["Avg.in"]) == pytest.approx(expect_avg, abs=0.005)
        edges = edge_triples(adg)
        indegree = [sum(tail == m for _, _, tail in edges) for m in range(adg.num_nodes)]
        outdegree = [sum(head == m for head, _, _ in edges) for m in range(adg.num_nodes)]
        assert int(stats["Max.in"]) == max(indegree)
        assert int(stats["Max.out"]) == max(outdegree)

    def test_parse_error_exit_code(self, tmp_path):
        sig = tmp_path / "bad.sig"
        sig.write_text("method broken ( -> X\n")
        code, _ = run_cli([
            "build-graph", "--signatures", str(sig), "--graph", str(tmp_path / "g.adg"),
        ])
        assert code == EXIT_DATA


class TestTrain:
    def test_missing_dataset_is_config_error(self, workspace):
        cfg = write_config(workspace)
        os.remove(workspace / "train.tsv")
        run_cli(["build-graph", "--config", cfg])
        code, _ = run_cli(["train", "--config", cfg])
        assert code == EXIT_USAGE
        assert not (workspace / "model.ckpt").exists()

    def test_train_writes_checkpoint_and_history(self, workspace):
        cfg = write_config(workspace)
        assert run_cli(["build-graph", "--config", cfg])[0] == EXIT_OK
        code, out = run_cli(["train", "--config", cfg])
        assert code == EXIT_OK
        assert (workspace / "model.ckpt").exists()
        history = (workspace / "model.ckpt.history").read_text().strip().splitlines()
        assert len(history) == 25
        first = json.loads(history[0])
        assert set(first) >= {"step", "loss", "lrate"}

    def test_same_seed_byte_identical_checkpoints(self, workspace):
        cfg = write_config(workspace)
        run_cli(["build-graph", "--config", cfg])
        assert run_cli(["train", "--config", cfg])[0] == EXIT_OK
        first = (workspace / "model.ckpt").read_bytes()
        assert run_cli(["train", "--config", cfg])[0] == EXIT_OK
        assert (workspace / "model.ckpt").read_bytes() == first

    def test_seed_override_changes_checkpoint(self, workspace):
        cfg = write_config(workspace)
        run_cli(["build-graph", "--config", cfg])
        run_cli(["train", "--config", cfg])
        baseline = (workspace / "model.ckpt").read_bytes()
        assert run_cli(["train", "--config", cfg, "--seed", "9"])[0] == EXIT_OK
        assert (workspace / "model.ckpt").read_bytes() != baseline

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_concat_cap_below_a_group_is_usage_error(self, workspace, capsys, command):
        embedder = {"hops": 2, "aggregator": "lstm", "virtualization": "concat", "concat_cap": 1}
        cfg = write_config(workspace, embedder=embedder)
        assert run_cli(["build-graph", "--config", cfg])[0] == EXIT_OK
        args = [command, "--config", cfg] + (["--axis", "hops=1,2"] if command == "ablate" else [])
        code, out = run_cli(args)
        assert code == EXIT_USAGE and out == ""
        line = single_error_line(capsys.readouterr().err)
        size = re.search(r"concat_cap 1 is smaller than a neighbour group of (\d+) nodes", line)
        assert size and int(size.group(1)) > 1, line
        assert not (workspace / "model.ckpt").exists()

    def test_divergence_exit_code(self, workspace, monkeypatch):
        cfg = write_config(workspace)
        run_cli(["build-graph", "--config", cfg])

        def explode(*args, **kwargs):
            raise TrainingDivergedError(3)

        monkeypatch.setattr(cli, "train", explode)
        code, _ = run_cli(["train", "--config", cfg])
        assert code == EXIT_DIVERGED

    @pytest.mark.parametrize(
        "error",
        [
            MemoryError("Unable to allocate 1.03 GiB for an array with shape (2048, 67584)"),
            MemoryError(),
        ],
        ids=["numpy-message", "bare"],
    )
    def test_allocation_failure_is_usage_error(self, workspace, monkeypatch, capsys, error):
        # settings inside every per-field bound can still ask for more
        # memory than the machine has; the model's first weight hits it
        cfg = write_config(workspace)
        run_cli(["build-graph", "--config", cfg])

        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(neural, "glorot_init", exhausted)
        capsys.readouterr()
        code, out = run_cli(["train", "--config", cfg])
        assert code == EXIT_USAGE and out == ""
        assert "out of memory" in single_error_line(capsys.readouterr().err)
        assert not (workspace / "model.ckpt").exists()


@pytest.fixture
def trained(workspace):
    cfg = write_config(workspace)
    run_cli(["build-graph", "--config", cfg])
    assert run_cli(["train", "--config", cfg])[0] == EXIT_OK
    return cfg


def meta_span(blob: bytes) -> tuple[int, int]:
    """Where a checkpoint's metadata block starts and ends."""
    start = len(CHECKPOINT_HEADER) + 4
    return start, start + struct.unpack_from("<I", blob, len(CHECKPOINT_HEADER))[0]


def with_meta_block(blob: bytes, block: bytes) -> bytes:
    """Checkpoint bytes whose metadata block is ``block``."""
    return CHECKPOINT_HEADER + struct.pack("<I", len(block)) + block + blob[meta_span(blob)[1] :]


def with_checkpoint_meta(blob: bytes, edit) -> bytes:
    """Checkpoint bytes whose metadata block ``edit(meta)`` has changed in place."""
    start, end = meta_span(blob)
    meta = json.loads(blob[start:end])
    edit(meta)
    return with_meta_block(blob, json.dumps(meta, sort_keys=True).encode("utf-8"))


# JSON text that json.loads rejects with other errors than JSONDecodeError
HOSTILE_JSON = {
    "deep-nesting": "[" * 200_000,  # RecursionError
    "long-integer": '{"seed": ' + "9" * 5000 + "}",  # ValueError: over 4300 digits
}


def single_error_line(err: str) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "Traceback" not in err
    return lines[0]


class TestGenerateCommand:
    def test_empty_description_usage_error(self, trained):
        code, _ = run_cli(["generate", "--config", trained, "   "])
        assert code == EXIT_USAGE

    def test_beam_one_equals_greedy(self, trained, workspace):
        desc_line = (workspace / "train.tsv").read_text().splitlines()[0]
        description = desc_line.split("\t")[0]
        code, out = run_cli(["generate", "--config", trained, "--beam", "1", description])
        assert code == EXIT_OK
        model = load_checkpoint((workspace / "model.ckpt").read_bytes())
        expect = generate_greedy(model, description.split(), max_len=25)
        assert out.strip().split() == expect

    def test_missing_checkpoint_is_config_error(self, workspace):
        cfg = write_config(workspace)
        code, _ = run_cli(["generate", "--config", cfg, "hello"])
        assert code == EXIT_USAGE

    def test_corrupt_checkpoint_is_data_error(self, trained, workspace):
        (workspace / "model.ckpt").write_bytes(b"garbage")
        code, _ = run_cli(["generate", "--config", trained, "hello there"])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("kind", ["name", "nan", "snan"])
    def test_corrupt_parameter_row_is_data_error(self, trained, workspace, capsys, kind):
        path = workspace / "model.ckpt"
        path.write_bytes(corrupt_parameter(path.read_bytes(), "att.w", kind))
        capsys.readouterr()
        code, out = run_cli(["generate", "--config", trained, "hello there"])
        assert code == EXIT_DATA
        assert out == ""
        single_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "entry", [[7, 1], ["v0", "1"], ["v0", True]], ids=["token-int", "count-str", "count-bool"]
    )
    def test_mistyped_vocabulary_entry_is_data_error(self, trained, workspace, capsys, entry):
        def edit(meta):
            vocab = meta["code_vocab"]
            vocab[[token for token, _ in vocab].index("v0")] = entry

        path = workspace / "model.ckpt"
        path.write_bytes(with_checkpoint_meta(path.read_bytes(), edit))
        capsys.readouterr()
        code, out = run_cli(["generate", "--config", trained, "hello there"])
        assert code == EXIT_DATA and out == ""
        assert "vocabulary" in single_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("text", HOSTILE_JSON.values(), ids=HOSTILE_JSON.keys())
    def test_hostile_metadata_is_data_error(self, trained, workspace, capsys, text):
        path = workspace / "model.ckpt"
        path.write_bytes(with_meta_block(path.read_bytes(), text.encode("utf-8")))
        capsys.readouterr()
        code, out = run_cli(["generate", "--config", trained, "hello there"])
        assert code == EXIT_DATA and out == ""
        assert "hyperparameter block" in single_error_line(capsys.readouterr().err)


class TestLoadedModelImports:
    """A loaded model takes every parameter from the checkpoint, so decoding
    never imports ``numpy.random``; only scoring imports ``metrics``;
    ``build-graph`` imports nothing of the model; and no command imports
    ``dataclasses``.  ``build-graph``, which loads no numpy, also leaves out
    ``inspect``, which both ``dataclasses`` and numpy import."""

    @pytest.mark.parametrize(
        "command, absent",
        [
            (
                ["generate", "call the first method"],
                ["numpy.random", "adgcode.metrics", "dataclasses"],
            ),
            (["evaluate"], ["numpy.random", "dataclasses"]),
            (["train"], ["dataclasses"]),
            (
                ["build-graph"],
                [
                    "adgcode.model", "adgcode.neural", "adgcode.embedder", "adgcode.metrics",
                    "adgcode.synthetic", "numpy.random", "numpy", "dataclasses", "inspect",
                ],
            ),
        ],
        ids=["generate", "evaluate", "train", "build-graph"],
    )
    def test_command_leaves_modules_unimported(self, trained, command, absent):
        root = Path(__file__).resolve().parents[1]
        probe = (
            "import io, sys\n"
            "from adgcode import cli\n"
            f"code = cli.run({[command[0], '--config', trained, *command[1:]]!r}, out=io.StringIO())\n"
            f"print(code, [m for m in {absent!r} if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"{EXIT_OK} []"


class TestTracedRuns:
    """``adgbench/launcher.py`` wraps model functions by name, so a renamed or
    deleted one breaks traced benchmark runs; this catches it first."""

    def test_launcher_traces_train_and_generate(self, workspace):
        # cli binds the model's names on first use; the launcher must still
        # find and replace them (train, beam_search and both checkpoint ends)
        root = Path(__file__).resolve().parents[1]
        cfg = write_config(workspace, train={
            "batch_size": 4, "max_epochs": 1000, "max_steps": 2,
            "eval_interval": 100, "patience": 5, "warmup_steps": 50, "seed": 0,
        })
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        traces = {}
        for args in (
            ["build-graph", "--config", cfg],
            ["train", "--config", cfg],
            ["generate", "--config", cfg, "read the file"],
        ):
            spans_path = workspace / f"{args[0]}.spans.json"
            proc = subprocess.run(
                [sys.executable, str(root / "adgbench" / "launcher.py"), str(spans_path), "--", *args],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            traces[args[0]] = json.loads(spans_path.read_text())
        spans = {cmd: {s[0] for s in t["spans"]} for cmd, t in traces.items()}
        assert {"graph.build_adg", "graph.dump_graph"} <= spans["build-graph"]
        assert {
            "model.train", "model.sequence_loss", "model.encode", "model.save_checkpoint"
        } <= spans["train"]
        assert {"model.load_checkpoint", "model.beam_search", "model.encode"} <= spans["generate"]
        assert "model.decode_step" in {a[0] for a in traces["generate"]["aggregates"]}


class TestEntryPoint:
    """``python -m adgcode.cli`` runs ``main``: ``cli.run``, then a
    ``gc.freeze()`` so that the interpreter's exit collections skip what the
    command made, then ``sys.exit``.  Nothing a command prints or writes may
    change with it, and exit handlers must still run."""

    ROOT = Path(__file__).resolve().parents[1]

    def run_process(self, argv):
        return subprocess.run(
            [sys.executable, *argv],
            env=dict(os.environ, PYTHONPATH=str(self.ROOT / "src")),
            capture_output=True, text=True, timeout=300,
        )

    def run_main(self, args):
        proc = self.run_process(["-m", "adgcode.cli", *args])
        assert proc.stderr == "", proc.stderr
        return proc.returncode, proc.stdout

    def test_commands_match_run_in_process(self, workspace):
        cfg = write_config(workspace, train={
            "batch_size": 4, "max_epochs": 1000, "max_steps": 2,
            "eval_interval": 100, "patience": 5, "warmup_steps": 50, "seed": 0,
        })
        description = (workspace / "test.tsv").read_text().splitlines()[0].split("\t")[0]
        commands = [
            (["build-graph", "--config", cfg], ["graph.adg"]),
            (["train", "--config", cfg], ["model.ckpt", "model.ckpt.history"]),
            (["generate", "--config", cfg, description], []),
            (["evaluate", "--config", cfg], []),
        ]
        results = {}
        for side, call in (("run", run_cli), ("main", self.run_main)):
            results[side] = []
            for args, written in commands:
                code, out = call(args)
                results[side].append((code, out, [(workspace / f).read_bytes() for f in written]))
            for _, written in commands:
                for f in written:
                    (workspace / f).unlink()
        assert [code for code, _, _ in results["run"]] == [EXIT_OK] * len(commands)
        for (args, _), ours, theirs in zip(commands, results["run"], results["main"]):
            assert ours == theirs, args[0]

    def test_exit_handlers_run_after_the_freeze(self, workspace):
        # os._exit would skip the hook; without the freeze the count reads 0
        cfg = write_config(workspace)
        probe = (
            "import atexit, gc, sys\n"
            "from adgcode import cli\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            f"sys.argv = ['adgcode', 'build-graph', '--config', {cfg!r}]\n"
            "cli.main()\n"
        )
        proc = self.run_process(["-c", probe])
        assert proc.returncode == EXIT_OK, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("Nodes ") and lines[-1] == "frozen True", proc.stdout

    def test_usage_error_is_one_line(self, trained):
        proc = self.run_process(["-m", "adgcode.cli", "generate", "--config", trained,
                                 "--beam", "0", "read the file"])
        assert proc.returncode == EXIT_USAGE and proc.stdout == ""
        assert "beam_width" in single_error_line(proc.stderr)

    @pytest.mark.parametrize(
        "runner",
        [
            ["-m", "cProfile", "-m", "adgcode.cli"],
            ["-c", "import runpy; runpy.run_module('adgcode.cli', run_name='__main__')"],
        ],
        ids=["cProfile", "runpy"],
    )
    def test_runs_under_another_main_module(self, workspace, runner):
        # these runners leave sys.modules["__main__"] pointing elsewhere, where
        # annotations of cli's classes cannot be evaluated
        cfg = write_config(workspace)
        code, expect = run_cli(["build-graph", "--config", cfg])
        proc = self.run_process([*runner, "build-graph", "--config", cfg])
        assert proc.returncode == code == EXIT_OK, proc.stderr
        assert proc.stdout.startswith(expect)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_ends_quietly(self, workspace, trained, unbuffered):
        # a reader that went away ends the command as SIGPIPE ends a C tool:
        # exit 141, no error line, and what it wrote stays as written
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:  # print fails inside run; buffered, the flush in main fails
            env["PYTHONUNBUFFERED"] = "1"
        graph = workspace / "graph.adg"
        expect = graph.read_bytes()
        graph.unlink()
        # help as well, which argparse would write through a call that swallows the error
        for args in (["build-graph", "--config", trained],
                     ["generate", "--config", trained, "read the file"],
                     ["--help"], ["train", "--help"]):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "adgcode.cli", *args], env=env, stdout=write_end,
                    stderr=subprocess.PIPE, text=True, timeout=300,
                )
            finally:
                os.close(write_end)
            assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, ""), args[0]
            assert graph.read_bytes() == expect

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stderr_ends_quietly(self, trained, unbuffered):
        # the error line meets a closed pipe: exit 141 either way, not the
        # interpreter's 120 when its exit-time flush of stderr fails again
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "adgcode.cli", "generate", "--config", trained,
                 "--beam", "0", "read the file"],
                env=env, stdout=subprocess.PIPE, stderr=write_end, text=True, timeout=300,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stdout) == (cli.EXIT_PIPE, "")

    def test_run_in_process_freezes_nothing(self, trained):
        before = gc.get_freeze_count()
        assert run_cli(["generate", "--config", trained, "read the file"])[0] == EXIT_OK
        assert gc.get_freeze_count() == before


class TestEvaluateCommand:
    def test_report_format_and_exit(self, workspace):
        cfg = write_config(workspace)
        run_cli(["build-graph", "--config", cfg])
        run_cli(["train", "--config", cfg])
        code, out = run_cli(["evaluate", "--config", cfg])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].split("\t") == [
            "Acc", "Bleu", "F1", "CIDEr", "RougeL", "Rouge1", "Rouge2", "RIBES", "PoV",
        ]
        values = lines[1].split("\t")
        assert len(values) == 9

    @pytest.mark.parametrize(
        "block, name, bound",
        [
            ("model_config", "beam_width", BEAM_WIDTH_BOUND),
            ("model_config", "max_len", MAX_LEN_BOUND),
            ("model_config", "hidden_dim", DIM_BOUND),
            ("model_config", "relu_window", RELU_BOUND),
            ("embedder_config", "concat_cap", CONCAT_CAP_BOUND),
        ],
        ids=["beam_width", "max_len", "hidden_dim", "relu_window", "concat_cap"],
    )
    def test_checkpoint_setting_above_a_bound_is_data_error(
        self, trained, workspace, capsys, block, name, bound
    ):
        # load only: no decode runs, and no array is allocated, at such a size
        path = workspace / "model.ckpt"
        path.write_bytes(with_checkpoint_meta(
            path.read_bytes(), lambda meta: meta[block].update({name: bound + 1})
        ))
        with pytest.raises(CheckpointFormatError, match=name):
            load_checkpoint(path.read_bytes())
        capsys.readouterr()
        code, out = run_cli(["generate", "--config", trained, "hello there"])
        assert code == EXIT_DATA and out == ""
        assert name in single_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("graph", [7, ["ADG-GRAPH-v1"]], ids=["number", "list"])
    def test_checkpoint_graph_not_text_is_data_error(self, trained, workspace, capsys, graph):
        path = workspace / "model.ckpt"
        path.write_bytes(with_checkpoint_meta(path.read_bytes(), lambda meta: meta.update(graph=graph)))
        with pytest.raises(CheckpointFormatError, match="graph"):
            load_checkpoint(path.read_bytes())
        capsys.readouterr()
        code, out = run_cli(["evaluate", "--config", trained])
        assert code == EXIT_DATA and out == ""
        assert "graph" in single_error_line(capsys.readouterr().err)


class TestInputFiles:
    """One mapping for every command: a file that cannot be opened or written
    exits 2; an input that is not UTF-8, a bad TSV record or a train or test
    file without records exits 3; each with one error line naming the file.
    ``edit`` appends bytes to a file, or empties it when they are None."""

    @pytest.mark.parametrize(
        "command, paths, edit, expect",
        [
            ("train", {"valid": "absent.tsv"}, None, EXIT_USAGE),
            ("train", {"graph": "."}, None, EXIT_USAGE),
            ("build-graph", {"graph": "absent/graph.adg"}, None, EXIT_USAGE),
            ("train", {}, ("config.json", b"\xff\n"), EXIT_DATA),
            ("build-graph", {}, ("signatures.sig", b"\xff\n"), EXIT_DATA),
            ("train", {}, ("train.tsv", b"\xff\n"), EXIT_DATA),
            ("train", {}, ("train.tsv", b"\tv0 = m0 ( ) ;\n"), EXIT_DATA),
            ("evaluate", {}, ("test.tsv", b"\tv0 = m0 ( ) ;\n"), EXIT_DATA),
            ("train", {}, ("train.tsv", "call ⟨PAD⟩\tv0 = m0 ( ) ;\n".encode()), EXIT_DATA),
            ("train", {}, ("train.tsv", "call m0\tv0 = ⟨UNK⟩ ( ) ;\n".encode()), EXIT_DATA),
            ("train", {}, ("train.tsv", None), EXIT_DATA),
            ("evaluate", {}, ("test.tsv", None), EXIT_DATA),
        ],
        ids=[
            "valid-missing", "graph-is-directory", "graph-output-dir-missing",
            "config-not-utf8", "signatures-not-utf8", "tsv-not-utf8",
            "train-empty-description", "test-empty-description",
            "train-reserved-pad", "train-reserved-unk", "train-no-records", "test-no-records",
        ],
    )
    def test_exit_code(self, workspace, capsys, command, paths, edit, expect):
        cfg = write_config(workspace)
        assert run_cli(["build-graph", "--config", cfg])[0] == EXIT_OK
        if command == "evaluate":
            assert run_cli(["train", "--config", cfg])[0] == EXIT_OK
        raw = json.loads((workspace / "config.json").read_text())
        raw["paths"].update({key: str(workspace / rel) for key, rel in paths.items()})
        (workspace / "config.json").write_text(json.dumps(raw))
        if edit is not None:
            path = workspace / edit[0]
            path.write_bytes(b"" if edit[1] is None else path.read_bytes() + edit[1])
        capsys.readouterr()
        code, _ = run_cli([command, "--config", cfg])
        assert code == expect
        line = single_error_line(capsys.readouterr().err)
        assert str(workspace) in line
        if edit is not None and edit[1] not in (None, b"\xff\n"):
            assert "line" in line
        # a failed command writes no checkpoint; evaluate read the trained one
        assert (workspace / "model.ckpt").exists() == (command == "evaluate")

    def test_empty_code_and_empty_valid_file_are_legal(self, workspace):
        cfg = write_config(workspace)
        assert run_cli(["build-graph", "--config", cfg])[0] == EXIT_OK
        with open(workspace / "train.tsv", "a", encoding="utf-8") as fh:
            fh.write("call nothing\t\n")
        (workspace / "valid.tsv").write_bytes(b"")
        assert run_cli(["train", "--config", cfg])[0] == EXIT_OK


# what a TSV mutant inserts: field and line breaks (``\x85`` is NEL, which
# ``str.splitlines`` also splits on), NUL, a byte that is not UTF-8 and a
# reserved token
TSV_INSERTS = (b"\t", b"\n", b"\r", "\x85".encode(), b"\x00", b"\xff", "⟨UNK⟩".encode())


def tsv_mutant(data: bytes, rng: np.random.Generator) -> bytes:
    """One seeded byte mutant of ``data``: a bit flip, an insertion from
    ``TSV_INSERTS``, a deletion or a duplicated span."""
    at, span = int(rng.integers(len(data))), int(rng.integers(1, 16))
    kind = int(rng.integers(4))
    if kind == 0:
        return data[:at] + bytes([data[at] ^ 1 << int(rng.integers(8))]) + data[at + 1 :]
    if kind == 1:
        return data[:at] + TSV_INSERTS[int(rng.integers(len(TSV_INSERTS)))] + data[at:]
    if kind == 2:
        return data[:at] + data[at + span :]
    return data[: at + span] + data[at:]


class TestTsvMutations:
    """Byte mutants of every input kind, through ``cli.run``: of the train
    and test TSVs (through ``train`` and ``evaluate``), of the checkpoint
    (through ``generate``), of the graph dump (through ``train``) and of the
    signatures (through ``build-graph``).  Each command exits 0 with nothing
    on stderr, or 3 with one error line, and none ends in a traceback."""

    def test_train_and_evaluate_exit_cleanly(self, workspace, capsys):
        cfg = write_config(workspace)
        raw = json.loads((workspace / "config.json").read_text())
        raw["train"]["max_steps"] = 1
        (workspace / "config.json").write_text(json.dumps(raw))
        assert run_cli(["build-graph", "--config", cfg])[0] == EXIT_OK
        assert run_cli(["train", "--config", cfg])[0] == EXIT_OK
        # the files that the commands write, restored after each run
        written = {name: (workspace / name).read_bytes() for name in ("model.ckpt", "graph.adg")}
        rng = np.random.default_rng(28)
        for command, name in (
            (["train"], "train.tsv"),
            (["evaluate"], "test.tsv"),
            (["generate", "call the first method"], "model.ckpt"),
            (["train"], "graph.adg"),
            (["build-graph"], "signatures.sig"),
        ):
            path = workspace / name
            original = path.read_bytes()
            codes = set()
            for _ in range(60):
                path.write_bytes(tsv_mutant(original, rng))
                capsys.readouterr()
                code, _ = run_cli([command[0], "--config", cfg, *command[1:]])
                err = capsys.readouterr().err
                for kept, data in written.items():
                    (workspace / kept).write_bytes(data)
                assert code in (EXIT_OK, EXIT_DATA), (command, name, code, err)
                if code == EXIT_OK:
                    assert err == "", (command, name, err)
                else:
                    single_error_line(err)
                codes.add(code)
            path.write_bytes(original)
            assert codes == {EXIT_OK, EXIT_DATA}, (command, name)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "command, patch, setting",
        [
            (["generate", "--beam", "0", "call m1"], {}, "beam_width"),
            (["train"], {"model": {"beam_width": 0}}, "beam_width"),
            (["train"], {"embedder": {"aggregator": "gru"}}, "aggregator"),
            (["train"], {"train": {"batch_size": 0}}, "batch_size"),
            (["train"], {"embedder": {"aggregater": "mean"}}, "aggregater"),
            (["train"], {"embedder": {"direction": "off"}}, "direction"),
            (["train"], {"model": {"beam_width": 2.5}}, "beam_width"),
            (["train"], {"train": {"batch_size": True}}, "batch_size"),
            (["train"], {"train": {"initial_types": ["Reader"]}}, "initial_types"),
            (["generate", "--beam", "257", "call m1"], {}, "beam_width"),
            (["generate", "--max-len", "4097", "call m1"], {}, "max_len"),
            (["train"], {"model": {"beam_width": 2**63}}, "beam_width"),
            (["train"], {"model": {"max_len": 10**30}}, "max_len"),
            (["train"], {"model": {"hidden_dim": 2**40}}, "hidden_dim"),
            (["train"], {"model": {"relu_window": 2**40}}, "relu_window"),
            (["train"], {"model": {"word_dim": 10**30}}, "word_dim"),
            (["train"], {"embedder": {"virtualization": "concat", "concat_cap": 2**40}}, "concat_cap"),
        ],
        ids=[
            "beam-flag", "beam-width", "aggregator", "batch-size", "unknown-embedder-key",
            "direction-string", "beam-width-float", "batch-size-bool", "unknown-train-key",
            "beam-flag-above-bound", "max-len-flag-above-bound", "beam-width-above-bound",
            "max-len-above-bound", "hidden-dim-above-bound", "relu-window-above-bound",
            "word-dim-above-bound", "concat-cap-above-bound",
        ],
    )
    def test_bad_value_is_usage_error(self, workspace, capsys, command, patch, setting):
        cfg = write_config(workspace)
        assert run_cli(["build-graph", "--config", cfg])[0] == EXIT_OK
        raw = json.loads((workspace / "config.json").read_text())
        for section, values in patch.items():
            raw[section].update(values)
        (workspace / "config.json").write_text(json.dumps(raw))
        capsys.readouterr()
        code, _ = run_cli([command[0], "--config", cfg, *command[1:]])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert setting in lines[0]
        assert "Traceback" not in err
        assert not (workspace / "model.ckpt").exists()

    @pytest.mark.parametrize(
        "command, edit, setting",
        [
            (["train"], {"seed": "x"}, "seed"),
            (["train"], {"seed": 1.5}, "seed"),
            (["train"], {"seed": -1}, "seed"),
            (["train"], {"train": {"seed": -1}}, "seed"),
            (["train", "--seed", "-1"], {}, "seed"),
            (["gen-synthetic", "--seed", "-1"], {}, "seed"),
            (["train"], {"paths": {"train": ["a"]}}, "paths.train"),
            (["train"], {"paths": {"graph": 3}}, "paths.graph"),
            (["train"], {"sed": 5}, "'sed'"),
        ],
        ids=[
            "seed-string", "seed-float", "seed-negative", "train-seed-negative",
            "seed-flag-negative", "gen-synthetic-seed-negative", "path-list", "path-number",
            "unknown-top-level-key",
        ],
    )
    def test_bad_seed_or_path_is_usage_error(self, workspace, capsys, command, edit, setting):
        cfg = write_config(workspace)
        assert run_cli(["build-graph", "--config", cfg])[0] == EXIT_OK
        raw = json.loads((workspace / "config.json").read_text())
        for key, value in edit.items():
            if isinstance(value, dict):
                raw[key].update(value)
            else:
                raw[key] = value
        (workspace / "config.json").write_text(json.dumps(raw))
        where = ["--out", str(workspace / "out")] if command[0] == "gen-synthetic" else ["--config", cfg]
        capsys.readouterr()
        code, _ = run_cli([command[0], *where, *command[1:]])
        assert code == EXIT_USAGE
        # the workspace path names this test, so it is left out of the match
        assert setting in single_error_line(capsys.readouterr().err).replace(str(workspace), "")
        assert not (workspace / "model.ckpt").exists() and not (workspace / "out").exists()

    @pytest.mark.parametrize(
        "raw", [[1], {"paths": []}, {"embedder": ["hops"]}], ids=["list", "paths-list", "embedder-list"]
    )
    def test_block_that_is_not_an_object_is_usage_error(self, tmp_path, capsys, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        code, _ = run_cli(["train", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", HOSTILE_JSON.values(), ids=HOSTILE_JSON.keys())
    def test_hostile_json_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        code, _ = run_cli(["train", "--config", str(path)])
        assert code == EXIT_USAGE
        assert "not valid JSON" in single_error_line(capsys.readouterr().err)


class TestAblateCommand:
    def test_unknown_axis_usage_error(self, workspace):
        cfg = write_config(workspace)
        run_cli(["build-graph", "--config", cfg])
        code, _ = run_cli(["ablate", "--config", cfg, "--axis", "learning=fast"])
        assert code == EXIT_USAGE

    def test_two_aggregator_variants(self, workspace):
        cfg = write_config(workspace)
        run_cli(["build-graph", "--config", cfg])
        code, out = run_cli(["ablate", "--config", cfg, "--axis", "aggregator=mean,lstm"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("variant")
        assert lines[1].startswith("aggregator=mean")
        assert lines[2].startswith("aggregator=lstm")

    def test_hops_axis_labels(self, workspace):
        cfg = write_config(workspace)
        run_cli(["build-graph", "--config", cfg])
        code, out = run_cli(["ablate", "--config", cfg, "--axis", "hops=1,2"])
        assert code == EXIT_OK
        assert "hops=1" in out and "hops=2" in out
