"""Settings of the model, the graph embedder and training, checked when built.

Each config is a frozen :class:`Settings` record that checks its fields in
``_check``, so no config object holds a bad value: building one, directly or
through its ``replace``, raises TypeError for a value of the wrong type and
ValueError for one out of range.  The module imports only the standard
library, and not ``dataclasses``, which would load ``inspect`` and more into
every command, so a command can read and check its settings before it loads
numpy or the model.  It also holds the errors of the model layer that the
CLI maps to exit codes (``ConcatCapError``, ``CheckpointFormatError``,
``TrainingDivergedError``), so the CLI can name them without loading it.
"""

from __future__ import annotations

import numbers
from typing import Optional

AGGREGATORS = ("mean", "pooling", "lstm")
VIRTUALIZATIONS = ("mean", "concat")
ACTIVATIONS = ("tanh", "relu")

# Upper bounds of the decoding settings.  A beam wider than its expansions
# keeps all of them, so its rows grow as V^t; with a huge max_len the
# stopping bound logp / max_len never fires.  Past these bounds one setting
# would run a decode past any time limit.
BEAM_WIDTH_BOUND = 256
MAX_LEN_BOUND = 4096

# Upper bounds of the model's sizes, far above any model this port trains.
# Weights grow with their products (the decoder LSTM's with (code_dim +
# hidden_dim) x hidden_dim, the feature layers' with (2 relu_window + 1) x
# word_dim^2, a concat hop's with concat_cap x dim), so past these bounds one
# setting asks numpy for more memory than a machine has.
DIM_BOUND = 2048  # word_dim, code_dim, hidden_dim, mlp_hidden
RELU_BOUND = 16  # relu_layers, relu_window
CONCAT_CAP_BOUND = 256


class ConcatCapError(ValueError):
    """A neighbour group holds more members than ``concat_cap`` rows."""


class CheckpointFormatError(ValueError):
    """Corrupted or incompatible checkpoint bytes."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, step: int):
        super().__init__(f"training diverged at step {step}: loss is not finite")
        self.step = step


# The annotations check_field_types knows, by their source text: under
# ``from __future__ import annotations`` that is what a field's type is.
# Matching the text evaluates nothing in the class's module, which under
# ``runpy`` or ``python -m cProfile -m adgcode.cli`` is a ``__main__`` that
# ``sys.modules`` does not hold (``typing.get_type_hints`` failed there).
_FIELD_KINDS = {"bool": bool, "int": int, "Optional[int]": Optional[int], "float": float}


def check_field_types(config) -> None:
    """Raise TypeError for a field annotated ``bool`` that holds a non-bool,
    an ``int`` (or ``Optional[int]``) field that holds a bool or a non-integer,
    or a ``float`` field that holds a bool or a non-number."""
    for name, kind in config._field_kinds.items():
        value = getattr(config, name)
        if kind is bool:
            if not isinstance(value, bool):
                raise TypeError(f"{name} must be true or false, got {value!r}")
        elif kind is int or (kind == Optional[int] and value is not None):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        elif kind is float:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")


class Settings:
    """Base of the settings classes: a frozen record of the fields its subclass
    annotates, in that order, with the class attributes as their defaults.

    A record is built from positional and keyword arguments; a missing,
    unknown or repeated one raises TypeError.  Building one, directly or
    through :meth:`replace`, runs the subclass's ``_check``.  Assigning or
    deleting an attribute raises AttributeError.
    """

    def __init_subclass__(cls) -> None:
        annotations = cls.__dict__.get("__annotations__", {})
        cls._fields = tuple(annotations)
        cls._field_kinds = {name: _FIELD_KINDS.get(kind, kind) for name, kind in annotations.items()}

    def __init__(self, *args, **kwargs) -> None:
        cls, names = type(self), self._fields
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}.__init__() takes at most {len(names)} positional arguments, "
                f"got {len(args)}"
            )
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__}.__init__() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}.__init__() got multiple values for argument {name!r}")
            values[name] = value
        for name in names:  # an unset field reads its default from the class
            if name not in values and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__}.__init__() missing required argument {name!r}")
        self.__dict__.update(values)
        self._check()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with ``changes`` in place of its fields, checked as it is built."""
        return type(self)(**{**self.as_dict(), **changes})

    def as_dict(self) -> dict:
        """The fields and their values, in field order."""
        return {name: getattr(self, name) for name in self._fields}


class EmbedderConfig(Settings):
    dim: int
    hops: int = 2
    aggregator: str = "lstm"
    virtualization: str = "mean"
    use_edge_direction: bool = True
    use_edge_labels: bool = True
    concat_cap: Optional[int] = None
    activation: str = "tanh"

    def _check(self) -> None:
        check_field_types(self)
        if self.dim < 1:
            raise ValueError(f"embedding dimension must be >= 1, got {self.dim}")
        if self.hops < 1:
            raise ValueError(f"hop count must be >= 1, got {self.hops}")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        if self.virtualization not in VIRTUALIZATIONS:
            raise ValueError(f"unknown virtualization {self.virtualization!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.virtualization == "concat" and (self.concat_cap is None or self.concat_cap < 1):
            raise ValueError("concat virtualization requires a positive concat_cap")
        if self.concat_cap is not None and self.concat_cap > CONCAT_CAP_BOUND:
            raise ValueError(f"concat_cap must be at most {CONCAT_CAP_BOUND}, got {self.concat_cap}")

    @property
    def element_dim(self) -> int:
        """Dimension of ordered-sequence elements after virtualization."""
        if self.virtualization == "concat":
            return self.concat_cap * self.dim
        return self.dim


class ModelConfig(Settings):
    word_dim: int = 100
    code_dim: int = 64
    hidden_dim: int = 256
    mlp_hidden: int = 256
    relu_layers: int = 1
    relu_window: int = 1
    dropout: float = 0.1
    beam_width: int = 5
    max_len: int = 200

    def _check(self) -> None:
        check_field_types(self)
        for names, low, high in (
            (("word_dim", "code_dim", "hidden_dim", "mlp_hidden"), 1, DIM_BOUND),
            (("relu_layers", "relu_window"), 0, RELU_BOUND),
        ):
            for name in names:
                value = getattr(self, name)
                if not low <= value <= high:
                    raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 1 <= self.beam_width <= BEAM_WIDTH_BOUND:
            raise ValueError(f"beam_width must be in [1, {BEAM_WIDTH_BOUND}], got {self.beam_width}")
        if not 1 <= self.max_len <= MAX_LEN_BOUND:
            raise ValueError(f"max_len must be in [1, {MAX_LEN_BOUND}], got {self.max_len}")


class TrainConfig(Settings):
    batch_size: int = 8
    max_epochs: int = 1000
    max_steps: Optional[int] = None
    eval_interval: int = 100
    patience: int = 10
    warmup_steps: int = 4000
    seed: int = 0
    reach_filter: bool = False

    def _check(self) -> None:
        check_field_types(self)
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")
        if self.eval_interval < 1 or self.patience < 1:
            raise ValueError("eval_interval and patience must be >= 1")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1 when set")
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
