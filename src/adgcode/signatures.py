"""Parsing of API signature corpora and description/code datasets.

Signature grammar, one declaration per line::

    type <Name> [: <ParentName>]
    method <Name> ( [<Type> {, <Type>}] ) -> [<Type> {, <Type>}]
    # comment

Names are identifiers that may contain ``.`` (qualified names) and ``#``
(disambiguated overloads).  A type referenced before (or without) an explicit
declaration is implicitly declared as a root type.

Dataset files hold one record per line: description and code separated by a
single tab, each side already space-tokenized.  The description must not be
empty, and no record may hold a token the model reserves.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Sequence

from .graph import Adg, ApiMethodNode, ParamType, TypeHierarchy


class SignatureError(ValueError):
    """Problem in a signature corpus, with line/column context."""

    def __init__(self, message: str, line: int, col: int | None = None):
        loc = f"line {line}" if col is None else f"line {line}, col {col}"
        super().__init__(f"{loc}: {message}")
        self.line = line
        self.col = col


class DataFormatError(ValueError):
    """Malformed dataset record, or an input file that is not UTF-8."""


# The model's padding, sequence-boundary and unknown-word tokens, in id order.
RESERVED_TOKENS = ("⟨PAD⟩", "⟨BOS⟩", "⟨EOS⟩", "⟨UNK⟩")


class TypeDecl(NamedTuple):
    name: str
    parent: str | None
    line: int
    implicit: bool = False


class MethodDecl(NamedTuple):
    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    line: int


class SignatureCorpus(NamedTuple):
    """Parsed type and method declarations with source-line provenance."""

    types: tuple[TypeDecl, ...]
    methods: tuple[MethodDecl, ...]

    def hierarchy(self) -> TypeHierarchy:
        return TypeHierarchy(ParamType(t.name, t.parent) for t in self.types)

    def nodes(self) -> tuple[ApiMethodNode, ...]:
        """Methods as graph nodes; ids are dense in declaration order."""
        return tuple(
            ApiMethodNode(id=i, name=m.name, inputs=m.inputs, outputs=m.outputs)
            for i, m in enumerate(self.methods)
        )


_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<ident>[A-Za-z_][A-Za-z0-9_.#]*)|(?P<arrow>->)|(?P<sym>[(),:])")


def _scan(text: str, line_no: int) -> list[tuple[str, str, int]]:
    """Tokenize one line into (kind, value, column) triples; 1-based columns."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SignatureError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    return tokens


class _LineParser:
    def __init__(self, tokens: list[tuple[str, str, int]], line_no: int, line_len: int):
        self.tokens = tokens
        self.line = line_no
        self.end_col = line_len + 1
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str, what: str, value: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise SignatureError(f"expected {what}", self.line, self.end_col)
        k, v, col = tok
        if k != kind or (value is not None and v != value):
            raise SignatureError(f"expected {what}, found {v!r}", self.line, col)
        self.pos += 1
        return v

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise SignatureError(f"unexpected {tok[1]!r}", self.line, tok[2])

    def type_list(self, terminator: str | None) -> tuple[str, ...]:
        """[Ident {, Ident}] up to (and excluding) ``terminator`` or line end."""
        items: list[str] = []
        tok = self.peek()
        if tok is None or (terminator is not None and tok[1] == terminator):
            return ()
        items.append(self.take("ident", "a type name"))
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "sym" and tok[1] == ",":
                self.pos += 1
                items.append(self.take("ident", "a type name"))
            else:
                return tuple(items)


def parse_signatures(text: str) -> SignatureCorpus:
    """Parse a signature corpus; comments and blank lines are ignored.

    Raises SignatureError with line/column on syntax problems, and on
    duplicate method or duplicate explicit type declarations (naming both
    lines).  Types referenced before declaration are implicitly declared as
    root types; a later explicit declaration may upgrade an implicit one.
    """
    type_order: list[str] = []
    types: dict[str, TypeDecl] = {}
    methods: list[MethodDecl] = []
    method_lines: dict[str, int] = {}

    def reference(name: str, line_no: int) -> None:
        if name not in types:
            types[name] = TypeDecl(name, None, line_no, implicit=True)
            type_order.append(name)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parser = _LineParser(_scan(raw, line_no), line_no, len(raw))
        keyword = parser.take("ident", "'type' or 'method'")
        if keyword == "type":
            name = parser.take("ident", "a type name")
            parent = None
            if parser.peek() is not None:
                parser.take("sym", "':'", ":")
                parent = parser.take("ident", "a parent type name")
            parser.done()
            prev = types.get(name)
            if prev is not None and not prev.implicit:
                raise SignatureError(
                    f"duplicate declaration of type {name!r} (first on line {prev.line})",
                    line_no,
                )
            if parent is not None:
                reference(parent, line_no)
            if prev is None:
                type_order.append(name)
            types[name] = TypeDecl(name, parent, line_no)
        elif keyword == "method":
            name = parser.take("ident", "a method name")
            parser.take("sym", "'('", "(")
            inputs = parser.type_list(")")
            parser.take("sym", "')'", ")")
            parser.take("arrow", "'->'")
            outputs = parser.type_list(None)
            parser.done()
            if name in method_lines:
                raise SignatureError(
                    f"duplicate method {name!r} (first on line {method_lines[name]})",
                    line_no,
                )
            method_lines[name] = line_no
            for t in inputs + outputs:
                reference(t, line_no)
            methods.append(MethodDecl(name, inputs, outputs, line_no))
        else:
            raise SignatureError(
                f"expected 'type' or 'method', found {keyword!r}", line_no
            )
    return SignatureCorpus(
        types=tuple(types[n] for n in type_order),
        methods=tuple(methods),
    )


def link_api_tokens(vocabulary: Iterable[str], adg: Adg) -> dict[str, int]:
    """Map each vocabulary token that names a graph method to its node id."""
    index: dict[str, int] = {}
    for token in vocabulary:
        node_id = adg.id_of(token)
        if node_id is not None:
            index[token] = node_id
    return index


_DESC_KEEP = re.compile(r"[^a-z0-9_.#]+")


def tokenize_description(text: str) -> list[str]:
    """Lowercase, replace special characters with spaces, split."""
    return [t for t in _DESC_KEEP.sub(" ", text.lower()).split() if t]


Pair = tuple[tuple[str, ...], tuple[str, ...]]


def parse_pairs(text: str, *, source: str = "<data>") -> list[Pair]:
    """Parse description/code records: two tab-separated token fields per line,
    the description non-empty and no token reserved."""
    pairs: list[Pair] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        fields = raw.split("\t")
        if len(fields) != 2:
            raise DataFormatError(
                f"{source}, line {line_no}: expected 2 tab-separated fields, got {len(fields)}"
            )
        desc = tuple(fields[0].split())
        code = tuple(fields[1].split())
        if not desc:
            raise DataFormatError(f"{source}, line {line_no}: empty description")
        for token in desc + code:
            if token in RESERVED_TOKENS:
                raise DataFormatError(f"{source}, line {line_no}: reserved token {token!r}")
        pairs.append((desc, code))
    return pairs


def format_pairs(pairs: Sequence[Pair]) -> str:
    return "".join(f"{' '.join(d)}\t{' '.join(c)}\n" for d, c in pairs)


def read_text(path: str) -> str:
    """The text of the UTF-8 file at ``path``.  A file that is not UTF-8
    raises DataFormatError; one that cannot be opened raises OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path} is not UTF-8: {exc}") from None


def read_pairs(path: str) -> list[Pair]:
    return parse_pairs(read_text(path), source=path)


def write_pairs(path: str, pairs: Sequence[Pair]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_pairs(pairs))
