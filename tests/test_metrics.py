"""Metric tests against independent brute-force oracles: multiset n-gram
matching by list consumption, exhaustive-subsequence LCS, direct TF-IDF
cosine evaluation, and an explicit rank-table correlation."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from adgcode.metrics import (
    EvalPair,
    acc,
    bleu,
    cider,
    evaluate_pairs,
    f1,
    format_report,
    make_pairs,
    pov_toy,
    ribes,
    rouge_l,
    rouge_n,
)

VOCAB = list("abcdefgh")


def random_tokens(rng, lo=1, hi=10):
    return tuple(VOCAB[int(rng.integers(0, len(VOCAB)))] for _ in range(int(rng.integers(lo, hi))))


def random_pairs(rng, n, lo=1, hi=10):
    return [
        EvalPair(random_tokens(rng, lo, hi), random_tokens(rng, lo, hi))
        for _ in range(n)
    ]


# ---------------------------------------------------------------- oracles --


def oracle_bleu(pairs, max_n=4):
    """List-consumption reimplementation of corpus BLEU with the same
    conventions (add-one smoothing for n >= 2)."""
    matches = {n: 0 for n in range(1, max_n + 1)}
    totals = {n: 0 for n in range(1, max_n + 1)}
    c_total, r_total = 0, 0
    for p in pairs:
        c_total += len(p.candidate)
        r_total += len(p.reference)
        r = p.reference
        for n in range(1, max_n + 1):
            cand = [tuple(p.candidate[i : i + n]) for i in range(len(p.candidate) - n + 1)]
            totals[n] += len(cand)
            pool = [tuple(r[i : i + n]) for i in range(len(r) - n + 1)]
            for g in cand:
                if g in pool:
                    pool.remove(g)
                    matches[n] += 1
    if c_total == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        if n == 1:
            if matches[1] == 0:
                return 0.0
            p_n = matches[1] / totals[1]
        elif matches[n] == 0:
            p_n = (matches[n] + 1) / (totals[n] + 1)
        else:
            p_n = matches[n] / totals[n]
        log_sum += math.log(p_n)
    bp = 1.0 if c_total > r_total else math.exp(1.0 - r_total / c_total)
    return bp * math.exp(log_sum / max_n)


def oracle_rouge_n(pairs, n):
    scores = []
    for p in pairs:
        cand = [tuple(p.candidate[i : i + n]) for i in range(len(p.candidate) - n + 1)]
        r = p.reference
        ref = [tuple(r[i : i + n]) for i in range(len(r) - n + 1)]
        total, match = len(ref), 0
        remaining = list(cand)
        for g in ref:
            if g in remaining:
                remaining.remove(g)
                match += 1
        if total == 0:
            continue
        scores.append(match / total)
    return sum(scores) / len(scores) if scores else 0.0


def oracle_lcs(a, b):
    """Exhaustive: longest subsequence of a that is also a subsequence of b."""

    def is_subsequence(sub, seq):
        it = iter(seq)
        return all(tok in it for tok in sub)

    best = 0
    for k in range(len(a), 0, -1):
        for idx in combinations(range(len(a)), k):
            if is_subsequence([a[i] for i in idx], b):
                return k
    return best


def oracle_rouge_l(pairs):
    scores = []
    for p in pairs:
        lcs = oracle_lcs(list(p.reference), list(p.candidate))
        f = 0.0
        if lcs:
            prec = lcs / len(p.reference)
            rec = lcs / len(p.candidate)
            f = 1 / (0.5 / prec + 0.5 / rec)  # harmonic mean
        scores.append(f)
    return sum(scores) / len(scores)


def oracle_cider(pairs, max_n=4):
    all_grams = {}
    n_docs = len(pairs)
    for p in pairs:
        seen = set()
        r = p.reference
        for n in range(1, max_n + 1):
            for i in range(len(r) - n + 1):
                seen.add(tuple(r[i : i + n]))
        for g in seen:
            all_grams[g] = all_grams.get(g, 0) + 1

    def counts(seq, n):
        out = {}
        for i in range(len(seq) - n + 1):
            g = tuple(seq[i : i + n])
            out[g] = out.get(g, 0) + 1
        return out

    def weight_vector(count_map):
        total = sum(count_map.values())
        return {
            g: (k / total) * math.log(n_docs / max(all_grams.get(g, 0), 1))
            for g, k in count_map.items()
        }

    def cosine(u, v):
        keys = set(u) | set(v)
        uu = np.array([u.get(g, 0.0) for g in sorted(keys)], dtype=float)
        vv = np.array([v.get(g, 0.0) for g in sorted(keys)], dtype=float)
        nu, nv = np.linalg.norm(uu), np.linalg.norm(vv)
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return float(uu @ vv / (nu * nv))

    total_score = 0.0
    for p in pairs:
        per_n = []
        for n in range(1, max_n + 1):
            c_counts = counts(p.candidate, n)
            c_vec = weight_vector(c_counts) if c_counts else {}
            r_counts = counts(p.reference, n)
            if not r_counts:  # orders absent from the reference are skipped
                continue
            r_vec = weight_vector(r_counts)
            nu = math.sqrt(sum(x * x for x in c_vec.values()))
            nv = math.sqrt(sum(x * x for x in r_vec.values()))
            if nu == 0.0 and nv == 0.0:
                per_n.append(cosine(c_counts, r_counts))
            else:
                per_n.append(cosine(c_vec, r_vec))
        total_score += sum(per_n) / len(per_n) if per_n else 0.0
    return total_score / len(pairs)


def oracle_ribes(candidate, reference):
    taken = set()
    aligned = []
    for tok in candidate:
        for j in range(len(reference)):
            if j not in taken and reference[j] == tok:
                taken.add(j)
                aligned.append(j)
                break
    n = len(aligned)
    if n < 2:
        return 0.5
    reference_ranks = {pos: rank for rank, pos in enumerate(sorted(aligned))}
    d_sq = sum((i - reference_ranks[pos]) ** 2 for i, pos in enumerate(aligned))
    rho = 1.0 - d_sq / math.comb(n + 1, 3)
    return (rho + 1.0) / 2.0


# ------------------------------------------------------------------ tests --


class TestAcc:
    def test_all_match(self):
        pairs = make_pairs([("a", "b")] * 4, [("a", "b")] * 4)
        assert acc(pairs) == 1.0

    def test_none_match(self):
        pairs = make_pairs([("a",)] * 4, [("b",)] * 4)
        assert acc(pairs) == 0.0

    def test_counting(self):
        cands = [("a",)] * 3 + [("x",)] * 7
        refs = [("a",)] * 10
        assert acc(make_pairs(cands, refs)) == pytest.approx(0.3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            acc([])


class TestBleu:
    def test_identity_is_one(self):
        ref = ("x", "y", "z", "w", "v")
        assert bleu(make_pairs([ref], [ref])) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert bleu(make_pairs([("a", "b")], [("x", "y")])) == 0.0

    def test_matches_oracle_on_randoms(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            pairs = random_pairs(rng, int(rng.integers(1, 8)))
            assert bleu(pairs) == pytest.approx(oracle_bleu(pairs), abs=1e-9)

    def test_brevity_penalty_applies(self):
        # candidate is a strict prefix: all precisions 1, BP = e^(1 - r/c)
        pairs = make_pairs([("a", "b", "c", "d")], [("a", "b", "c", "d", "e", "f", "g", "h")])
        assert bleu(pairs) == pytest.approx(math.exp(1.0 - 8.0 / 4.0))


class TestRougeN:
    def test_identity(self):
        ref = ("p", "q", "r")
        pairs = make_pairs([ref], [ref])
        assert rouge_n(pairs, 1) == pytest.approx(1.0)
        assert rouge_n(pairs, 2) == pytest.approx(1.0)

    def test_disjoint(self):
        pairs = make_pairs([("a", "b")], [("x", "y")])
        assert rouge_n(pairs, 1) == 0.0

    def test_short_references_skipped(self):
        pairs = [
            EvalPair(("a", "b"), ("a",)),  # no reference bigrams
            EvalPair(("a", "b"), ("a", "b")),
        ]
        assert rouge_n(pairs, 2) == pytest.approx(1.0)

    def test_matches_oracle_on_randoms(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            pairs = random_pairs(rng, int(rng.integers(1, 8)))
            for n in (1, 2):
                assert rouge_n(pairs, n) == pytest.approx(oracle_rouge_n(pairs, n), abs=1e-9)


class TestRougeL:
    def test_identity(self):
        ref = ("p", "q", "r", "s")
        assert rouge_l(make_pairs([ref], [ref])) == pytest.approx(1.0)

    def test_reversed_distinct_four(self):
        pairs = make_pairs([("d", "c", "b", "a")], [("a", "b", "c", "d")])
        assert rouge_l(pairs) == pytest.approx(0.25)

    def test_empty_candidate_zero(self):
        assert rouge_l([EvalPair((), ("a", "b"))]) == 0.0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(15):
            pairs = random_pairs(rng, int(rng.integers(1, 5)), lo=1, hi=13)
            assert rouge_l(pairs) == pytest.approx(oracle_rouge_l(pairs), abs=1e-12)


class TestCider:
    def test_single_pair_identity(self):
        ref = ("u", "v", "w", "u")
        assert cider(make_pairs([ref], [ref])) == pytest.approx(1.0)

    def test_disjoint_zero(self):
        pairs = make_pairs([("a", "b", "c")], [("x", "y", "z")])
        assert cider(pairs) == 0.0

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            pairs = random_pairs(rng, 10)
            assert cider(pairs) == pytest.approx(oracle_cider(pairs), abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            assert cider(random_pairs(rng, 5)) >= 0.0


class TestRibes:
    def test_same_order_is_one(self):
        ref = ("a", "b", "c", "d")
        assert ribes(make_pairs([ref], [ref])) == pytest.approx(1.0)

    def test_reversed_is_zero(self):
        for n in (3, 4, 6):
            ref = tuple(f"t{i}" for i in range(n))
            pairs = make_pairs([tuple(reversed(ref))], [ref])
            assert ribes(pairs) == pytest.approx(0.0, abs=1e-12)

    def test_fewer_than_two_aligned_is_neutral(self):
        pairs = make_pairs([("a", "x")], [("a", "b")])
        assert ribes(pairs) == pytest.approx(0.5)

    def test_matches_rank_table_oracle(self):
        rng = np.random.default_rng(5)
        tokens = [f"t{i}" for i in range(8)]
        for trial in range(50):
            n = int(rng.integers(2, 9))
            ref = tuple(tokens[:n])
            cand = tuple(np.array(tokens[:n])[rng.permutation(n)])
            pairs = make_pairs([cand], [ref])
            assert ribes(pairs) == pytest.approx(oracle_ribes(cand, ref), abs=1e-12)

    def test_matches_oracle_with_duplicates(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            pairs = random_pairs(rng, 1, lo=2, hi=9)
            p = pairs[0]
            assert ribes(pairs) == pytest.approx(
                oracle_ribes(p.candidate, p.reference), abs=1e-12
            )


class TestF1:
    def test_perfect(self):
        ref = ("a", "b", "c", "d")
        assert f1(make_pairs([ref], [ref])) == pytest.approx(1.0)

    def test_zero_precision(self):
        assert f1(make_pairs([("a",)], [("z",)])) == 0.0

    def test_harmonic_mean_of_components(self):
        rng = np.random.default_rng(7)
        pairs = random_pairs(rng, 8)
        p = bleu(pairs)
        r = rouge_n(pairs, 1)
        expect = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert f1(pairs) == pytest.approx(expect, abs=1e-12)
        # spot value: P=0.6, R=0.8 -> 2*0.48/1.4
        assert 2 * 0.6 * 0.8 / (0.6 + 0.8) == pytest.approx(0.6857142857142857)


class TestPov:
    def test_all_grammatical(self):
        cands = [
            ("v0", "=", "m1", "(", ")", ";"),
            ("v0", "=", "m1", "(", "v1", ",", "v2", ")", ";", "v1", "=", "m2", "(", ")", ";"),
        ]
        assert pov_toy(cands) == 1.0

    def test_all_broken(self):
        assert pov_toy([("(",), (")",)]) == 0.0

    def test_hand_parsed_mixed_batch(self):
        good = [
            ("a", "=", "f", "(", ")", ";"),
            ("a", "=", "f", "(", "b", ")", ";"),
            ("a", "=", "f", "(", "b", ",", "c", ")", ";"),
            ("x", "=", "g", "(", ")", ";", "y", "=", "h", "(", "x", ")", ";"),
        ]
        bad = [
            (),                                        # empty program
            ("a", "=", "f", "(", ")",),                # missing ';'
            ("a", "f", "(", ")", ";"),                 # missing '='
            ("a", "=", "f", "(", ",", "b", ")", ";"),  # leading comma
            ("a", "=", "f", "(", "b", "c", ")", ";"),  # missing comma
            ("=", "f", "(", ")", ";"),                 # missing variable
        ]
        assert pov_toy(good + bad) == pytest.approx(len(good) / (len(good) + len(bad)))


class TestCorpusProperties:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        pairs = random_pairs(rng, 12)
        shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
        assert bleu(pairs) == pytest.approx(bleu(shuffled), abs=1e-12)
        assert rouge_l(pairs) == pytest.approx(rouge_l(shuffled), abs=1e-12)
        assert cider(pairs) == pytest.approx(cider(shuffled), abs=1e-12)
        assert ribes(pairs) == pytest.approx(ribes(shuffled), abs=1e-12)
        assert acc(pairs) == pytest.approx(acc(shuffled), abs=1e-12)

    def test_identity_bound_all_metrics(self):
        rng = np.random.default_rng(9)
        refs = [random_tokens(rng, 2, 9) for _ in range(6)]
        pairs = make_pairs(refs, refs)
        assert acc(pairs) == 1.0
        assert bleu(pairs) == pytest.approx(1.0)
        assert rouge_n(pairs, 1) == pytest.approx(1.0)
        assert rouge_n(pairs, 2) == pytest.approx(1.0)
        assert rouge_l(pairs) == pytest.approx(1.0)
        assert ribes(pairs) == pytest.approx(1.0)
        assert cider(pairs) == pytest.approx(1.0)

    def test_ranges_on_arbitrary_inputs(self):
        rng = np.random.default_rng(10)
        for trial in range(25):
            pairs = random_pairs(rng, int(rng.integers(1, 10)))
            assert 0.0 <= acc(pairs) <= 1.0
            assert 0.0 <= bleu(pairs) <= 1.0
            assert 0.0 <= rouge_n(pairs, 1) <= 1.0
            assert 0.0 <= rouge_n(pairs, 2) <= 1.0
            assert 0.0 <= rouge_l(pairs) <= 1.0
            assert 0.0 <= ribes(pairs) <= 1.0
            assert 0.0 <= f1(pairs) <= 1.0
            assert cider(pairs) >= 0.0


class TestReport:
    def test_column_order(self):
        rng = np.random.default_rng(11)
        report = evaluate_pairs(random_pairs(rng, 5))
        text = format_report(report)
        header = text.splitlines()[0].split("\t")
        assert header == ["Acc", "Bleu", "F1", "CIDEr", "RougeL", "Rouge1", "Rouge2", "RIBES", "PoV"]

    def test_identity_report(self):
        ref = ("v0", "=", "m1", "(", ")", ";")
        report = evaluate_pairs(make_pairs([ref], [ref]))
        assert report.acc == 1.0
        assert report.bleu == pytest.approx(1.0)
        assert report.pov == 1.0
        assert report.size == 1
