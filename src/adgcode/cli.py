"""Command-line pipeline: graph building, training, generation, evaluation,
ablation sweeps, and synthetic corpus generation.

Exit codes: 0 success, 2 usage/configuration (a file that cannot be opened
included, and an embedder ``concat_cap`` below the size of a neighbour group
the embedding meets), 3 data/format (an input that is not UTF-8 included),
4 training divergence.  All commands are deterministic given --seed and never mutate
their input files.

Each command builds one frozen :class:`PipelineConfig` from the config file,
then applies its flags through ``dataclasses.replace``.  The settings classes
(``adgcode.config``) check themselves when built, so a bad value from either
place raises there, once, and exits 2 with one ``error:`` line.

Each command imports only what it runs.  At module level this module
imports the standard library, ``config``, ``graph`` and ``signatures`` (and
numpy through ``graph``); that is all ``build-graph`` loads.  ``train``,
``generate``, ``evaluate`` and ``ablate`` also import ``model`` (and through
it ``neural``, ``embedder`` and ``numpy.random``) on first use, and bind
``MODEL_NAMES`` here.  Only the commands that score import ``metrics``:
``evaluate``, ``ablate``, and ``train`` when it has validation pairs (through
``model.validation_bleu``).  ``gen-synthetic`` imports ``synthetic`` and
nothing of the model.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

from .config import (
    CheckpointFormatError,
    ConcatCapError,
    EmbedderConfig,
    ModelConfig,
    TrainConfig,
    TrainingDivergedError,
    check_field_types,
)
from .graph import GraphError, build_adg, dump_graph, load_graph
from .signatures import (
    DataFormatError,
    SignatureError,
    parse_signatures,
    read_pairs,
    read_text,
    tokenize_description,
    write_pairs,
)

if TYPE_CHECKING:
    from .metrics import MetricReport
    from .model import Seq2SeqModel

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

# JSON ``embedder`` keys and the EmbedderConfig fields they set; the
# dimension is always the model's code_dim (query switching).
EMBEDDER_KEYS = {
    "hops": "hops",
    "aggregator": "aggregator",
    "virtualization": "virtualization",
    "direction": "use_edge_direction",
    "labels": "use_edge_labels",
    "concat_cap": "concat_cap",
    "activation": "activation",
}

# Top-level config keys.  Unknown keys are rejected here and in every block
# but ``paths``, which may carry paths that another tool reads from the file.
CONFIG_BLOCKS = ("paths", "model", "embedder", "train")
CONFIG_KEYS = CONFIG_BLOCKS + ("seed",)

# Ablation axes (each an ``embedder`` key) and the values they accept.
ABLATION_AXES = {
    "aggregator": {"mean": "mean", "pooling": "pooling", "lstm": "lstm"},
    "hops": {"1": 1, "2": 2},
    "direction": {"on": True, "off": False},
    "labels": {"on": True, "off": False},
}


# The model layer's names that the commands call.  ``model`` loads numpy's
# random module, ``neural`` and ``embedder``, which ``build-graph`` never
# runs, so they are bound into this module on first use.
MODEL_NAMES = (
    "Seq2SeqModel", "Vocabulary", "beam_search", "beam_search_many",
    "load_checkpoint", "save_checkpoint", "train",
)


def _bind_model_names() -> None:
    """Bind ``MODEL_NAMES`` from ``model`` into this module.  A name already
    set here (a tracing wrapper, a test's stand-in) is kept."""
    from . import model

    for name in MODEL_NAMES:
        globals().setdefault(name, getattr(model, name))


def __getattr__(name: str):
    # module attribute reads from outside (``cli.train``) bind lazily too
    if name in MODEL_NAMES:
        _bind_model_names()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(ValueError):
    """Missing or inconsistent pipeline configuration."""


@dataclass(frozen=True)
class PipelineConfig:
    signatures: Optional[str] = None
    graph: Optional[str] = None
    train_data: Optional[str] = None
    valid_data: Optional[str] = None
    test_data: Optional[str] = None
    checkpoint: Optional[str] = None
    model: ModelConfig = field(default_factory=ModelConfig)
    embedder: EmbedderConfig = field(
        default_factory=lambda: EmbedderConfig(dim=ModelConfig().code_dim)
    )
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def require(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is None:
                raise ConfigError(f"configuration is missing {name!r}")


def _load_config(path: Optional[str]) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: the top level must be a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"config file {path}: unknown top-level keys {unknown}")
    for block in CONFIG_BLOCKS:
        if not isinstance(raw.get(block, {}), dict):
            raise ConfigError(f"config file {path}: {block!r} must be a JSON object")
    paths = raw.get("paths", {})
    for key, value in paths.items():
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"config file {path}: paths.{key} must be a string, got {value!r}")
    emb = raw.get("embedder", {})
    unknown = sorted(set(emb) - set(EMBEDDER_KEYS))
    if unknown:
        raise ConfigError(f"config file {path}: unknown embedder keys {unknown}")
    try:
        model = ModelConfig(**raw.get("model", {}))
        return PipelineConfig(
            signatures=paths.get("signatures"),
            graph=paths.get("graph"),
            train_data=paths.get("train"),
            valid_data=paths.get("valid"),
            test_data=paths.get("test"),
            checkpoint=paths.get("checkpoint"),
            model=model,
            embedder=EmbedderConfig(
                dim=model.code_dim, **{EMBEDDER_KEYS[k]: v for k, v in emb.items()}
            ),
            train_cfg=TrainConfig(**raw.get("train", {})),
            seed=raw.get("seed", 0),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc


def _apply_overrides(cfg: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    """``cfg`` with the command line's settings in place of the file's."""
    top, model, train_cfg = {}, {}, {}
    if getattr(args, "seed", None) is not None:
        top["seed"] = train_cfg["seed"] = args.seed
    if getattr(args, "beam", None) is not None:
        model["beam_width"] = args.beam
    if getattr(args, "max_len", None) is not None:
        model["max_len"] = args.max_len
    if getattr(args, "reach_filter", False):
        train_cfg["reach_filter"] = True
    for name in ("signatures", "graph"):  # build-graph's path flags
        if getattr(args, name, None):
            top[name] = getattr(args, name)
    try:
        return replace(
            cfg,
            model=replace(cfg.model, **model),
            train_cfg=replace(cfg.train_cfg, **train_cfg),
            **top,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _graph_stats(adg) -> list[tuple[str, str]]:
    n = adg.num_nodes
    e = adg.num_edges
    indegree, outdegree = adg.degrees()
    max_in = int(indegree.max(initial=0))
    max_out = int(outdegree.max(initial=0))
    avg = e / n if n else 0.0
    return [
        ("Nodes", str(n)),
        ("Edges", str(e)),
        ("Max.in", str(max_in)),
        ("Avg.in", f"{avg:.2f}"),
        ("Max.out", str(max_out)),
        ("Avg.out", f"{avg:.2f}"),
    ]


def cmd_build_graph(cfg: PipelineConfig, out) -> int:
    cfg.require("signatures", "graph")
    corpus = parse_signatures(read_text(cfg.signatures))
    adg = build_adg(corpus.nodes(), corpus.hierarchy())
    with open(cfg.graph, "w", encoding="utf-8") as fh:
        fh.write(dump_graph(adg))
    for key, value in _graph_stats(adg):
        print(f"{key} {value}", file=out)
    return EXIT_OK


def _build_model(cfg: PipelineConfig, adg, train_pairs) -> Seq2SeqModel:
    desc_vocab = Vocabulary.from_sequences(d for d, _ in train_pairs)
    code_vocab = Vocabulary.from_sequences(c for _, c in train_pairs)
    return Seq2SeqModel(
        desc_vocab=desc_vocab,
        code_vocab=code_vocab,
        adg=adg,
        config=cfg.model,
        embedder_config=cfg.embedder,
        seed=cfg.seed,
    )


def _read_corpus(path: str) -> list:
    """The records of a train or test file, which must hold at least one."""
    pairs = read_pairs(path)
    if not pairs:
        raise DataFormatError(f"{path} holds no records")
    return pairs


def cmd_train(cfg: PipelineConfig, out) -> int:
    _bind_model_names()
    cfg.require("graph", "train_data", "checkpoint")
    adg = load_graph(read_text(cfg.graph))
    train_pairs = _read_corpus(cfg.train_data)
    valid_pairs = read_pairs(cfg.valid_data) if cfg.valid_data else []
    model = _build_model(cfg, adg, train_pairs)
    history = train(model, train_pairs, valid_pairs, cfg.train_cfg)
    data = save_checkpoint(model)
    with open(cfg.checkpoint, "wb") as fh:
        fh.write(data)
    history_path = cfg.checkpoint + ".history"
    with open(history_path, "w", encoding="utf-8") as fh:
        for rec in history:
            entry = {"step": rec.step, "loss": rec.loss, "lrate": rec.lrate}
            if rec.val_bleu is not None:
                entry["val_bleu"] = rec.val_bleu
            fh.write(json.dumps(entry) + "\n")
    print(f"trained {history[-1].step} steps; checkpoint {cfg.checkpoint}", file=out)
    return EXIT_OK


def _load_model(cfg: PipelineConfig) -> Seq2SeqModel:
    cfg.require("checkpoint")
    with open(cfg.checkpoint, "rb") as fh:
        return load_checkpoint(fh.read())


def cmd_generate(cfg: PipelineConfig, description: str, out) -> int:
    _bind_model_names()
    tokens = tokenize_description(description)
    if not tokens:
        raise ConfigError("description is empty after preprocessing")
    model = _load_model(cfg)
    result = beam_search(
        model,
        tokens,
        width=cfg.model.beam_width,
        max_len=cfg.model.max_len,
        reach_filter=cfg.train_cfg.reach_filter,
    )
    print(" ".join(result), file=out)
    return EXIT_OK


def _evaluate_model(cfg: PipelineConfig, model: Seq2SeqModel, pairs) -> MetricReport:
    from . import metrics as metrics_mod  # here: generate and build-graph score nothing

    candidates = beam_search_many(
        model,
        [desc for desc, _ in pairs],
        width=cfg.model.beam_width,
        max_len=cfg.model.max_len,
        reach_filter=cfg.train_cfg.reach_filter,
    )
    eval_pairs = metrics_mod.make_pairs(candidates, [c for _, c in pairs])
    return metrics_mod.evaluate_pairs(eval_pairs)


def cmd_evaluate(cfg: PipelineConfig, out) -> int:
    _bind_model_names()
    from . import metrics as metrics_mod

    cfg.require("test_data")
    model = _load_model(cfg)
    pairs = _read_corpus(cfg.test_data)
    report = _evaluate_model(cfg, model, pairs)
    print(metrics_mod.format_report(report), file=out)
    return EXIT_OK


def _parse_axes(specs: Sequence[str]) -> list[tuple[str, str]]:
    variants: list[tuple[str, str]] = []
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"bad axis {spec!r}; expected axis=value[,value...]")
        axis, _, values = spec.partition("=")
        axis = axis.strip()
        if axis not in ABLATION_AXES:
            raise ConfigError(
                f"unknown ablation axis {axis!r}; valid: {', '.join(sorted(ABLATION_AXES))}"
            )
        for value in values.split(","):
            value = value.strip()
            if value not in ABLATION_AXES[axis]:
                raise ConfigError(f"axis {axis!r} does not accept value {value!r}")
            variants.append((axis, value))
    if not variants:
        raise ConfigError("no ablation axes given")
    return variants


def cmd_ablate(cfg: PipelineConfig, axes: Sequence[str], out) -> int:
    _bind_model_names()
    from . import metrics as metrics_mod

    cfg.require("graph", "train_data", "test_data")
    variants = _parse_axes(axes)
    adg = load_graph(read_text(cfg.graph))
    train_pairs = _read_corpus(cfg.train_data)
    valid_pairs = read_pairs(cfg.valid_data) if cfg.valid_data else []
    test_pairs = _read_corpus(cfg.test_data)
    rows = []
    for axis, value in variants:
        setting = {EMBEDDER_KEYS[axis]: ABLATION_AXES[axis][value]}
        vcfg = replace(cfg, embedder=replace(cfg.embedder, **setting))
        model = _build_model(vcfg, adg, train_pairs)
        train(model, train_pairs, valid_pairs, vcfg.train_cfg)
        report = _evaluate_model(vcfg, model, test_pairs)
        rows.append((f"{axis}={value}", report))
    header = "\t".join(("variant",) + metrics_mod.COLUMN_ORDER)
    print(header, file=out)
    for label, report in rows:
        print("\t".join([label] + metrics_mod.report_cells(report)), file=out)
    return EXIT_OK


def cmd_gen_synthetic(args: argparse.Namespace, out) -> int:
    # imported here: no other command needs the generator, and every command
    # would pay for compiling it
    from .synthetic import SyntheticGenerationError, SyntheticSpec, generate, split_pairs

    try:
        corpus = generate(SyntheticSpec(
            n_types=args.types,
            n_methods=args.methods,
            max_chain_len=args.max_chain,
            corpus_size=args.size,
            seed=args.seed if args.seed is not None else 0,
            min_chain_len=args.min_chain,
            order_sensitive=args.order_sensitive,
        ))
    except SyntheticGenerationError as exc:
        raise ConfigError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    sig_path = os.path.join(args.out, "signatures.sig")
    with open(sig_path, "w", encoding="utf-8") as fh:
        fh.write(corpus.signature_text)
    train_part, valid_part, test_part = split_pairs(corpus.pairs)
    paths = []
    for name, part in (("train", train_part), ("valid", valid_part), ("test", test_part)):
        path = os.path.join(args.out, f"{name}.tsv")
        write_pairs(path, part)
        paths.append(path)
    print(f"wrote {sig_path} and {', '.join(paths)}", file=out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adgcode",
        description="API dependency graphs and graph-aware code generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument("--beam", type=int, help="beam width override")
        p.add_argument("--max-len", type=int, dest="max_len", help="generation length cap")
        p.add_argument("--reach-filter", action="store_true", dest="reach_filter",
                       help="mask methods whose inputs are not yet available")

    p = sub.add_parser("build-graph", help="build and dump the dependency graph")
    common(p)
    p.add_argument("--signatures", help="signature corpus path override")
    p.add_argument("--graph", help="graph dump output path override")

    p = sub.add_parser("train", help="train a model and save a checkpoint")
    common(p)

    p = sub.add_parser("generate", help="generate code for one description")
    common(p)
    p.add_argument("description", nargs="?", default="", help="textual program description")

    p = sub.add_parser("evaluate", help="score generations on the test set")
    common(p)

    p = sub.add_parser("ablate", help="train/evaluate embedder variants side by side")
    common(p)
    p.add_argument("--axis", action="append", default=[], dest="axes",
                   help="axis=value[,value...]; axes: aggregator, hops, direction, labels")

    p = sub.add_parser("gen-synthetic", help="emit a synthetic signature corpus and datasets")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--types", type=int, default=6)
    p.add_argument("--methods", type=int, default=12)
    p.add_argument("--max-chain", type=int, default=4, dest="max_chain")
    p.add_argument("--min-chain", type=int, default=1, dest="min_chain")
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order-sensitive", action="store_true", dest="order_sensitive")
    return parser


def run(argv: Sequence[str], out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "gen-synthetic":
            return cmd_gen_synthetic(args, out)
        cfg = _apply_overrides(_load_config(args.config), args)
        if args.command == "build-graph":
            return cmd_build_graph(cfg, out)
        if args.command == "train":
            return cmd_train(cfg, out)
        if args.command == "generate":
            if not args.description.strip():
                raise ConfigError("a non-empty description is required")
            return cmd_generate(cfg, args.description, out)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, out)
        if args.command == "ablate":
            return cmd_ablate(cfg, args.axes, out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ConcatCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SignatureError, DataFormatError, GraphError, CheckpointFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
