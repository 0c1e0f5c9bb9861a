"""Evaluation metrics over token sequences: exact-match accuracy, BLEU,
ROUGE-1/2/L, CIDEr, RIBES rank correlation, F1, and toy-grammar parse
validity.  All functions are pure and deterministic.

Every candidate is scored against one reference.  Aggregation: Acc and BLEU
are corpus-level; ROUGE, CIDEr, and RIBES are macro-averaged over pairs.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

Tokens = Sequence[str]

# Highest n-gram order of BLEU and CIDEr.
MAX_N = 4


@dataclass(frozen=True)
class EvalPair:
    """One candidate token sequence with its reference."""

    candidate: tuple[str, ...]
    reference: tuple[str, ...]


def make_pairs(candidates: Iterable[Tokens], references: Iterable[Tokens]) -> list[EvalPair]:
    """Zip pairs from parallel candidate/reference lists."""
    return [EvalPair(tuple(c), tuple(r)) for c, r in zip(candidates, references, strict=True)]


def _require_pairs(pairs: Sequence[EvalPair]) -> None:
    if not pairs:
        raise ValueError("metric requires a non-empty corpus")


def _ngrams(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def acc(pairs: Sequence[EvalPair]) -> float:
    """Fraction of candidates exactly equal to their reference."""
    _require_pairs(pairs)
    correct = sum(1 for p in pairs if p.candidate == p.reference)
    return correct / len(pairs)


def bleu(pairs: Sequence[EvalPair]) -> float:
    """Corpus-level BLEU: geometric mean of modified n-gram precisions with
    uniform weights, times the brevity penalty (1 if c > r else e^(1 - r/c)).

    Zero precisions for n >= 2 get add-one smoothing on their counts; a zero
    unigram numerator (or an empty candidate corpus) scores 0.
    """
    _require_pairs(pairs)
    num = [0] * (MAX_N + 1)
    den = [0] * (MAX_N + 1)
    cand_len = 0
    ref_len = 0
    for p in pairs:
        cand_len += len(p.candidate)
        ref_len += len(p.reference)
        for n in range(1, MAX_N + 1):
            counts = _ngrams(p.candidate, n)
            den[n] += sum(counts.values())
            clip = _ngrams(p.reference, n)
            num[n] += sum(min(k, clip[g]) for g, k in counts.items())
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, MAX_N + 1):
        if n == 1:
            if num[1] == 0:
                return 0.0
            precision = num[1] / den[1]
        elif num[n] == 0:
            precision = (num[n] + 1) / (den[n] + 1)
        else:
            precision = num[n] / den[n]
        log_sum += math.log(precision)
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(log_sum / MAX_N)


def rouge_n(pairs: Sequence[EvalPair], n: int) -> float:
    """Recall of reference n-grams clip-matched in the candidate, per pair,
    macro-averaged.  Pairs whose reference is shorter than n are skipped."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _require_pairs(pairs)
    scores = []
    for p in pairs:
        cand_counts = _ngrams(p.candidate, n)
        rc = _ngrams(p.reference, n)
        total = sum(rc.values())
        match = sum(min(k, cand_counts[g]) for g, k in rc.items())
        if total == 0:
            continue
        scores.append(match / total)
    return sum(scores) / len(scores) if scores else 0.0


def _lcs_len(a: Tokens, b: Tokens) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(pairs: Sequence[EvalPair]) -> float:
    """LCS-based F measure per pair, macro-averaged.

    P = LCS/reference_length, R = LCS/candidate_length, F = 2RP / (R + P);
    a pair with no common token scores 0.
    """
    _require_pairs(pairs)
    scores = []
    for p in pairs:
        lcs = _lcs_len(p.reference, p.candidate)
        if lcs == 0:
            scores.append(0.0)
            continue
        prec = lcs / len(p.reference)
        rec = lcs / len(p.candidate)
        scores.append(2.0 * rec * prec / (rec + prec))
    return sum(scores) / len(scores)


def _tfidf(counts: Counter, df: Counter, corpus_size: int) -> dict:
    total = sum(counts.values())
    if total == 0:
        return {}
    return {
        g: (k / total) * math.log(corpus_size / max(df[g], 1))
        for g, k in counts.items()
    }


def _cosine(u: dict, v: dict) -> float:
    nu = math.sqrt(sum(x * x for x in u.values()))
    nv = math.sqrt(sum(x * x for x in v.values()))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    dot = sum(x * v.get(g, 0.0) for g, x in u.items())
    return dot / (nu * nv)


def cider(pairs: Sequence[EvalPair]) -> float:
    """Mean over n of TF-IDF n-gram cosine similarity against the reference,
    macro-averaged over pairs.

    Document frequencies come from the reference corpus with N = corpus
    size.  Orders whose reference has no n-grams are skipped from a pair's
    average (so identical short pairs still score 1).  When IDF
    weighting degenerates (both vectors zero-norm because every shared gram
    occurs in all N reference sets), the cosine falls back to raw counts so
    self-similarity stays 1; a one-sided zero-norm vector contributes 0 for
    that n.
    """
    _require_pairs(pairs)
    corpus_size = len(pairs)
    df: Counter = Counter()
    for p in pairs:
        seen = set()
        for n in range(1, MAX_N + 1):
            seen.update(_ngrams(p.reference, n))
        df.update(seen)
    per_pair = []
    for p in pairs:
        sims = []
        for n in range(1, MAX_N + 1):
            r_raw = _ngrams(p.reference, n)
            if not r_raw:
                continue
            c_raw = _ngrams(p.candidate, n)
            c_vec = _tfidf(c_raw, df, corpus_size)
            r_vec = _tfidf(r_raw, df, corpus_size)
            nu = math.sqrt(sum(x * x for x in c_vec.values()))
            nv = math.sqrt(sum(x * x for x in r_vec.values()))
            if nu == 0.0 and nv == 0.0:
                sims.append(_cosine(c_raw, r_raw))
            else:
                sims.append(_cosine(c_vec, r_vec))
        per_pair.append(sum(sims) / len(sims) if sims else 0.0)
    return sum(per_pair) / len(per_pair)


def _ribes_single(candidate: Tokens, reference: Tokens) -> float:
    # greedy first-occurrence unigram alignment
    used = [False] * len(reference)
    positions: list[int] = []
    for tok in candidate:
        for j, ref_tok in enumerate(reference):
            if not used[j] and ref_tok == tok:
                used[j] = True
                positions.append(j)
                break
    n = len(positions)
    if n < 2:
        return 0.5
    order = sorted(range(n), key=lambda i: positions[i])
    rank_of = [0] * n
    for rank, i in enumerate(order):
        rank_of[i] = rank
    d_squared = sum((i - rank_of[i]) ** 2 for i in range(n))
    denom = (n + 1) * n * (n - 1) / 6.0  # C(n+1, 3)
    rho = 1.0 - d_squared / denom
    return (rho + 1.0) / 2.0


def ribes(pairs: Sequence[EvalPair]) -> float:
    """Normalized Spearman rank correlation of token order after greedy
    unigram alignment, per pair, macro-averaged.  Pairs with fewer than two
    aligned tokens score a neutral 0.5."""
    _require_pairs(pairs)
    scores = [_ribes_single(p.candidate, p.reference) for p in pairs]
    return sum(scores) / len(scores)


def f1(pairs: Sequence[EvalPair]) -> float:
    """Harmonic mean of corpus BLEU (precision) and ROUGE-1 (recall)."""
    return _harmonic_mean(bleu(pairs), rouge_n(pairs, 1))


def _harmonic_mean(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_.#]*\Z")


def accepts_call_chain(tokens: Tokens) -> bool:
    """True iff ``tokens`` parse under the call-chain toy grammar:
    program := stmt+ ; stmt := var '=' name '(' [var {',' var}] ')' ';'"""
    pos = 0
    statements = 0

    def ident(p: int) -> bool:
        return p < len(tokens) and _IDENT.match(tokens[p]) is not None

    def literal(p: int, text: str) -> bool:
        return p < len(tokens) and tokens[p] == text

    while pos < len(tokens):
        if not ident(pos) or not literal(pos + 1, "=") or not ident(pos + 2):
            return False
        if not literal(pos + 3, "("):
            return False
        pos += 4
        if ident(pos):
            pos += 1
            while literal(pos, ","):
                if not ident(pos + 1):
                    return False
                pos += 2
        if not literal(pos, ")") or not literal(pos + 1, ";"):
            return False
        pos += 2
        statements += 1
    return statements > 0


def pov_toy(candidates: Iterable[Tokens]) -> float:
    """Fraction of candidates accepted by the toy grammar."""
    cands = list(candidates)
    if not cands:
        raise ValueError("pov requires at least one candidate")
    return sum(1 for c in cands if accepts_call_chain(c)) / len(cands)


@dataclass(frozen=True)
class MetricReport:
    """Per-corpus scores in natural ranges (BLEU-family in [0,1])."""

    acc: float
    bleu: float
    f1: float
    cider: float
    rouge_l: float
    rouge_1: float
    rouge_2: float
    ribes: float
    pov: float
    size: int

    def as_dict(self) -> dict:
        return {
            "Acc": self.acc,
            "Bleu": self.bleu,
            "F1": self.f1,
            "CIDEr": self.cider,
            "RougeL": self.rouge_l,
            "Rouge1": self.rouge_1,
            "Rouge2": self.rouge_2,
            "RIBES": self.ribes,
            "PoV": self.pov,
            "size": self.size,
        }


def evaluate_pairs(pairs: Sequence[EvalPair]) -> MetricReport:
    """Full metric battery over a corpus; PoV uses the call-chain grammar."""
    _require_pairs(pairs)
    corpus_bleu, rouge_1 = bleu(pairs), rouge_n(pairs, 1)
    return MetricReport(
        acc=acc(pairs),
        bleu=corpus_bleu,
        f1=_harmonic_mean(corpus_bleu, rouge_1),
        cider=cider(pairs),
        rouge_l=rouge_l(pairs),
        rouge_1=rouge_1,
        rouge_2=rouge_n(pairs, 2),
        ribes=ribes(pairs),
        pov=pov_toy([p.candidate for p in pairs]),
        size=len(pairs),
    )


COLUMN_ORDER = ("Acc", "Bleu", "F1", "CIDEr", "RougeL", "Rouge1", "Rouge2", "RIBES", "PoV")


def report_cells(report: MetricReport) -> list[str]:
    """The report's values in ``COLUMN_ORDER``: CIDEr to three places, the
    rest as percentages to two."""
    values = report.as_dict()
    cells = []
    for col in COLUMN_ORDER:
        v = values[col]
        if col == "CIDEr":
            cells.append(f"{v:.3f}")
        else:
            cells.append(f"{100.0 * v:.2f}")
    return cells


def format_report(report: MetricReport) -> str:
    """One header line and one value row; percentage scale except CIDEr."""
    header = "\t".join(COLUMN_ORDER)
    row = "\t".join(report_cells(report))
    return f"{header}\n{row}"
