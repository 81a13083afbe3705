import errno
import os
import re

import numpy as np
import pytest

from mmfuse import (
    Benchmark,
    DimensionError,
    DuplicateEntryError,
    EmbeddingTable,
    EmptyInputError,
    NumericalError,
    ParseError,
    ScoringModel,
    UndefinedCorrelationError,
    WordLookupError,
    WriteError,
    cosine,
    evaluate,
    filter_coverage,
    load_benchmark,
    pair_score,
    save_benchmark,
    spearman,
)
from mmfuse._kernels import row_sq_norms
from mmfuse.evaluation import (
    CoveredPairs,
    Span,
    covered_pairs,
    layer_c_scores,
    rank_results,
    table_sums,
)

# Frozen from the pre-build rank-enumeration oracle:
# ranks [1, 2.5, 2.5, 4] vs [1, 3, 2, 4]  ->  Pearson 3/sqrt(10)
TIES_RHO = 0.94868329805051377


def table(vocab, rows, name=""):
    return EmbeddingTable(tuple(vocab), np.array(rows, dtype=float), name=name)


class TestLoadBenchmark:
    def test_tab_separated(self, tmp_path):
        path = tmp_path / "b.tsv"
        path.write_text("cat\tdog\t7.8\n")
        bench = load_benchmark(path, name="toy")
        assert bench.pairs == (("cat", "dog", 7.8),)
        assert bench.name == "toy"

    def test_comma_separated_and_default_name(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("cat,dog,7.8\nowl,hen,2\n")
        bench = load_benchmark(path)
        assert bench.name == "pairs"
        assert len(bench) == 2

    def test_unordered_duplicate_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("cat,dog,7.8\ndog,cat,3.2\n")
        with pytest.raises(DuplicateEntryError):
            load_benchmark(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "b.tsv"
        path.write_text("cat\tdog\t7.8\ncat\towl\n")
        with pytest.raises(ParseError) as exc:
            load_benchmark(path)
        assert exc.value.line_no == 2

    def test_non_numeric_score(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("cat,dog,high\n")
        with pytest.raises(ParseError):
            load_benchmark(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("\n\n")
        with pytest.raises(EmptyInputError):
            load_benchmark(path)

    @pytest.mark.parametrize("text, pairs", [
        ("\ufeffcat\tdog\t7.8\nowl\then\t2\n", (("cat", "dog", 7.8), ("owl", "hen", 2.0))),
        ("\ufeffcat,dog,7.8\nowl,hen,2\n", (("cat", "dog", 7.8), ("owl", "hen", 2.0))),
        # only one byte-order mark is dropped
        ("\ufeff\ufeffcat\tdog\t1\n", (("\ufeffcat", "dog", 1.0),)),
        # str.splitlines() ends a line at each of these, not only at \n and \r
        *((f"cat\tdog\t1{c}owl\then\t2\n", (("cat", "dog", 1.0), ("owl", "hen", 2.0)))
          for c in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")),
    ])
    def test_pairs_of_the_file(self, tmp_path, text, pairs):
        path = tmp_path / "b.tsv"
        path.write_text(text, encoding="utf-8")
        assert load_benchmark(path).pairs == pairs

    @pytest.mark.parametrize("text, line_no, message", [
        ("\ufeffcat\tdog\n", 1, "expected 3 tab-separated fields, found 2"),
        ("\ufeffcat,dog,1\ncat,dog,x\n", 2, "non-numeric score 'x'"),
        ("cat\tdog\t1\nowl\x85hen\t2\n", 2, "expected 3 tab-separated fields, found 1"),
        ("cat\tdog\tinf\n", 1, "non-finite score 'inf'"),
        ("cat\tdog\t1\nowl\then\t-nan\n", 2, "non-finite score '-nan'"),
    ])
    def test_malformed_file_names_its_line(self, tmp_path, text, line_no, message):
        path = tmp_path / "b.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_benchmark(path)
        assert str(exc.value) == f"{path}:{line_no}: {message}"

    def test_bad_byte_after_a_byte_order_mark_names_its_line(self, tmp_path):
        path = tmp_path / "b.tsv"
        path.write_bytes(b"\xef\xbb\xbfcat\tdog\t1\nowl\t\xff\t2\n")
        with pytest.raises(ParseError) as exc:
            load_benchmark(path)
        assert exc.value.line_no == 2

    def test_round_trip_through_dump(self, tmp_path):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(12)]
        pairs = tuple(
            (words[i], words[i + 1], float(rng.uniform(0, 10))) for i in range(10)
        )
        bench = Benchmark("ten", pairs)
        path = tmp_path / "dump.tsv"
        save_benchmark(bench, path)
        loaded = load_benchmark(path, name="ten")
        assert loaded == bench

    def test_failed_dump_keeps_previous_file(self, tmp_path):
        path = tmp_path / "dump.tsv"
        bad = Benchmark("bad", (("a", "b", 1.0), ("b", "\ud800", 2.0)))
        message = re.escape(f"cannot write {path}: word '\\ud800' cannot be encoded as UTF-8")
        # a lone surrogate cannot be encoded: refused before any file is created
        with pytest.raises(WriteError, match=message):
            save_benchmark(bad, path)
        assert list(tmp_path.iterdir()) == []
        save_benchmark(Benchmark("two", (("a", "b", 1.0), ("b", "c", 2.0))), path)
        before = path.read_bytes()
        with pytest.raises(WriteError, match=message):
            save_benchmark(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["dump.tsv"]

    def test_an_unwritable_target_is_a_write_error(self, tmp_path):
        path = tmp_path / "missing" / "dump.tsv"
        tmp = path.with_name(f".dump.tsv.{os.getpid()}.tmp")
        with pytest.raises(WriteError) as info:
            save_benchmark(Benchmark("two", (("a", "b", 1.0), ("b", "c", 2.0))), path)
        assert str(info.value) == (f"cannot write {path}: [Errno {errno.ENOENT}] "
                                   f"{os.strerror(errno.ENOENT)}: {str(tmp)!r}")
        assert isinstance(info.value.__cause__, FileNotFoundError)
        assert list(tmp_path.iterdir()) == []

    def test_well_formed_odd_words_and_scores_round_trip(self, tmp_path):
        pairs = (("a,b", "\u00e9t\u00e9", 1.5), ("x\x1fy", "b\ufeffc", 3),
                 ("a,b", "z", np.float64(-2.25)))
        path = tmp_path / "odd.tsv"
        save_benchmark(Benchmark("odd", pairs), path)
        loaded = load_benchmark(path)
        assert loaded == Benchmark("odd", pairs)
        assert [type(gold) for _, _, gold in loaded.pairs] == [float] * 3

    @pytest.mark.parametrize("pairs, message", [
        ((), "benchmark 'bad' has no pairs"),
        ((("a", "b", 1.0), (" a", "c", 2.0)), "word ' a' would not read back"),
        ((("a", "b ", 1.0),), "word 'b ' would not read back"),
        ((("a\tb", "c", 1.0),), "word 'a\\tb' would not read back"),
        ((("a", "b\nc", 1.0),), "word 'b\\nc' would not read back"),
        ((("a", "b\x1cc", 1.0),), "word 'b\\x1cc' would not read back"),
        ((("", "b", 1.0),), "word '' would not read back"),
        ((("\ufeffa", "b", 1.0),), "word '\\ufeffa' would not read back"),
        ((("a", "b", float("nan")),), "pair 'a'/'b' has score nan"),
        ((("a", "b", 1.0), ("b", "c", float("-inf"))), "pair 'b'/'c' has score -inf"),
        ((("a", "b", 1.0), ("b", "a", 2.0)), "duplicate pair 'b'/'a' (unordered)"),
    ])
    def test_what_the_loader_refuses_or_changes_is_not_written(self, tmp_path, pairs, message):
        # written line by line as they stand, the pairs do not load back as they are
        naive = tmp_path / "naive.tsv"
        naive.write_text("".join(f"{w1}\t{w2}\t{gold!r}\n" for w1, w2, gold in pairs),
                         encoding="utf-8")
        try:
            assert load_benchmark(naive).pairs != pairs
        except (ParseError, DuplicateEntryError, EmptyInputError):
            pass
        path = tmp_path / "dump.tsv"
        save_benchmark(Benchmark("two", (("a", "b", 1.0), ("b", "c", 2.0))), path)
        before = path.read_bytes()
        with pytest.raises(WriteError, match=re.escape(f"cannot write {path}: {message}")):
            save_benchmark(Benchmark("bad", pairs), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dump.tsv", "naive.tsv"]


class TestFilterCoverage:
    BENCH = Benchmark("b", (("cat", "dog", 1.0), ("dog", "owl", 2.0),
                            ("owl", "hen", 3.0)))

    def test_full_coverage_is_identity(self):
        out = filter_coverage(self.BENCH, ["cat", "dog", "owl", "hen"])
        assert out == self.BENCH

    def test_missing_word_drops_its_pairs(self):
        out = filter_coverage(self.BENCH, ["cat", "dog", "owl"])
        assert out.pairs == (("cat", "dog", 1.0), ("dog", "owl", 2.0))

    def test_empty_result_is_legal(self):
        out = filter_coverage(self.BENCH, ["zebra"])
        assert out.pairs == ()

    def test_idempotent(self):
        vocab = ["cat", "dog"]
        once = filter_coverage(self.BENCH, vocab)
        twice = filter_coverage(once, vocab)
        assert once == twice


class TestCosine:
    def test_parallel(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_analytic_value(self):
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.707107, abs=1e-6)

    def test_zero_norm_scores_zero_with_warning(self):
        with pytest.warns(RuntimeWarning, match="^1 degenerate zero-norm pair scores set to 0$"):
            assert cosine([0.0, 0.0], [1.0, 0.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError, match=r"vector shapes differ: \(2,\) vs \(3,\)"):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("u", [np.ones((2, 2)), 1.0])
    def test_non_vector_input(self, u):
        message = f"cosine needs 1-d vectors, got shape {np.shape(u)}"
        with pytest.raises(DimensionError, match=re.escape(message)):
            cosine(u, u)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_norm_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="overflows"):
            cosine([1e200, 0.0], [1.0, 1.0])


class TestPairScore:
    VOCAB = ("p", "q", "r")
    FIRST = table(VOCAB, [[1.0, 0.0], [1.0, 1.0], [0.2, 1.0]])
    SECOND = table(VOCAB, [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])

    def test_single_is_cosine(self):
        model = ScoringModel(self.FIRST)
        assert pair_score(model, "p", "q") == pytest.approx(0.7071067811865475)

    def test_alpha_one_equals_first(self):
        pair = ScoringModel(self.FIRST, self.SECOND, alpha=1.0, layer_c="li")
        single = ScoringModel(self.FIRST)
        assert pair_score(pair, "p", "q") == pair_score(single, "p", "q")

    def test_weighted_blend(self):
        # first cosine 0.5, second cosine 1.0, alpha 0.4  ->  0.8
        first = table(("a", "b"), [[1.0, 0.0], [0.5, np.sqrt(0.75)]])
        second = table(("a", "b"), [[1.0, 0.0], [1.0, 0.0]])
        model = ScoringModel(first, second, alpha=0.4, layer_c="li")
        assert pair_score(model, "a", "b") == pytest.approx(0.8)

    def test_alpha_half_is_mean(self):
        model = ScoringModel(self.FIRST, self.SECOND, alpha=0.5, layer_c="li")
        s1 = pair_score(ScoringModel(self.FIRST), "q", "r")
        s2 = pair_score(ScoringModel(self.SECOND), "q", "r")
        assert pair_score(model, "q", "r") == pytest.approx((s1 + s2) / 2)

    def test_missing_word(self):
        with pytest.raises(WordLookupError):
            pair_score(ScoringModel(self.FIRST), "p", "zebra")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_norm_is_a_numerical_error(self):
        big = table(self.VOCAB, [[1e200, 0.0], [1.0, 1.0], [0.2, 1.0]])
        for model in (ScoringModel(big), ScoringModel(self.FIRST, big, alpha=1.0, layer_c="li")):
            with pytest.raises(NumericalError, match="'p'/'q' is not finite"):
                pair_score(model, "p", "q")
        assert pair_score(ScoringModel(big), "q", "r") == pair_score(
            ScoringModel(self.FIRST), "q", "r")


class TestSpearman:
    def test_monotone_exactly_one(self):
        assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 1.0

    def test_reversed_exactly_minus_one(self):
        assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_ties_match_rank_enumeration_oracle(self):
        rho = spearman([1.0, 2.0, 2.0, 4.0], [1.0, 3.0, 2.0, 4.0])
        assert rho == pytest.approx(TIES_RHO, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        assert spearman(a, b) == spearman(b, a)

    def test_self_correlation(self):
        a = np.random.default_rng(2).normal(size=20)
        assert spearman(a, a) == 1.0

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(5, 40))
            a = rng.uniform(1.0, 2.0, size=n)
            b = rng.normal(size=n)
            transformed = a ** 3 + 5.0
            assert len(np.unique(transformed)) == n  # transform kept order strict
            assert spearman(transformed, b) == spearman(a, b)

    def test_too_short(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([1.0], [2.0])

    def test_constant_side_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("a, b", [([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]),
                                      ([1.0, 2.0, 3.0], [1.0, 2.0, -np.inf])])
    def test_non_finite_inputs_are_refused(self, a, b):
        with pytest.raises(ValueError) as info:
            spearman(a, b)
        assert type(info.value) is ValueError and str(info.value) == "inputs must be finite"

    def test_result_is_a_plain_float(self):
        # reports print rho with repr(), which must not read np.float64(...)
        rho = spearman([1.0, 2.0, 2.0, 4.0], [1.0, 3.0, 2.0, 4.0])
        assert type(rho) is float


class TestEvaluate:
    def test_gold_equal_to_scores_gives_one(self):
        vocab = ("a", "b", "c", "d")
        rng = np.random.default_rng(4)
        model = ScoringModel(table(vocab, rng.normal(size=(4, 3))))
        pairs = []
        for i in range(4):
            for j in range(i + 1, 4):
                pairs.append((vocab[i], vocab[j],
                              pair_score(model, vocab[i], vocab[j])))
        result = evaluate(model, Benchmark("self", tuple(pairs)))
        assert result.rho == 1.0
        assert result.coverage == 1.0

    def test_hand_scored_micro_fixture(self):
        # cosines: (p,q)=0.70711, (p,r)=0.19612, (q,r)=0.83205
        # gold ranks [3,1,2] vs model ranks [2,1,3]  ->  rho = 0.5
        model = ScoringModel(
            table(("p", "q", "r"), [[1.0, 0.0], [1.0, 1.0], [0.2, 1.0]])
        )
        bench = Benchmark("micro", (("p", "q", 9.0), ("p", "r", 1.0), ("q", "r", 5.0)))
        result = evaluate(model, bench)
        assert result.rho == 0.5
        assert result.n_evaluated == 3 and result.n_total == 3

    def test_uncovered_benchmark_is_empty_outcome(self):
        model = ScoringModel(table(("a", "b"), [[1.0, 0.0], [0.0, 1.0]]))
        bench = Benchmark("faraway", (("x", "y", 1.0), ("y", "z", 2.0)))
        result = evaluate(model, bench)
        assert result.rho is None and not result.defined
        assert result.coverage == 0.0

    def test_single_covered_pair_is_empty_outcome(self):
        model = ScoringModel(table(("a", "b"), [[1.0, 0.0], [0.0, 1.0]]))
        bench = Benchmark("thin", (("a", "b", 1.0), ("a", "z", 2.0)))
        result = evaluate(model, bench)
        assert result.rho is None
        assert result.n_evaluated == 1 and result.n_total == 2

    def test_constant_scores_are_empty_outcome(self):
        model = ScoringModel(table(("a", "b", "c"), [[1.0, 0], [2.0, 0], [3.0, 0]]))
        bench = Benchmark("flat", (("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 3.0)))
        result = evaluate(model, bench)
        assert result.rho is None and result.n_evaluated == 3

    def test_scale_invariance_power_of_two(self):
        # powers of two rescale every float exactly, so scores and rho
        # are reproduced bit for bit
        vocab = tuple("abcdef")
        rng = np.random.default_rng(5)
        base = rng.normal(size=(6, 4))
        pairs = tuple(
            (vocab[i], vocab[j], float(rng.uniform(0, 5)))
            for i in range(6) for j in range(i + 1, 6)
        )
        bench = Benchmark("scale", pairs)
        rho = evaluate(ScoringModel(table(vocab, base)), bench).rho
        for scale in (0.5, 2.0, 8.0):
            scaled = evaluate(ScoringModel(table(vocab, base * scale)), bench).rho
            assert scaled == rho

    def test_pair_reordering_does_not_change_rho(self):
        vocab = tuple("abcde")
        rng = np.random.default_rng(6)
        model = ScoringModel(table(vocab, rng.normal(size=(5, 3))))
        pairs = [
            (vocab[i], vocab[j], float(rng.uniform(0, 5)))
            for i in range(5) for j in range(i + 1, 5)
        ]
        rho = evaluate(model, Benchmark("fwd", tuple(pairs))).rho
        rho_rev = evaluate(model, Benchmark("rev", tuple(reversed(pairs)))).rho
        assert rho == rho_rev

    def test_li_pair_scoring_matches_pairwise_blend(self):
        vocab = ("a", "b", "c")
        rng = np.random.default_rng(7)
        first = table(vocab, rng.normal(size=(3, 4)))
        second = table(vocab, rng.normal(size=(3, 4)))
        model = ScoringModel(first, second, alpha=0.3, layer_c="li")
        bench = Benchmark("blend", (("a", "b", 1.0), ("b", "c", 3.0), ("a", "c", 2.0)))
        result = evaluate(model, bench)
        scores = [pair_score(model, w1, w2) for w1, w2, _ in bench.pairs]
        gold = [g for _, _, g in bench.pairs]
        assert result.rho == pytest.approx(spearman(scores, gold), abs=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_scores_are_a_numerical_error(self):
        # norms and dot products of these rows overflow, so cosines are nan
        rows = [[1e200, 1e200], [1e200, 1e200], [1.0, 0.0]]
        model = ScoringModel(table(("a", "b", "c"), rows))
        bench = Benchmark("big", (("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 3.0)))
        with pytest.raises(NumericalError, match="non-finite"):
            evaluate(model, bench)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_overflowing_row_is_a_numerical_error(self):
        # only the row's norm overflows; its cosines used to read 0
        model = ScoringModel(table(("a", "b", "c"), [[1e200, 0.0], [1.0, 1.0], [1.0, 0.0]]))
        bench = Benchmark("big", (("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 3.0)))
        with pytest.raises(NumericalError, match="non-finite pair scores on 'big'"):
            evaluate(model, bench)

    def test_rho_matches_scipy_on_tied_scores(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        vocab = tuple(f"w{i}" for i in range(25))
        pairs = [(vocab[i], vocab[j]) for i in range(25) for j in range(i + 1, 25, 4)]
        for trial in range(5):
            # coarse grids force ties in both the scores and the gold scores
            gold = np.round(rng.uniform(0, 4, len(pairs)))
            bench = Benchmark("tied", tuple((w1, w2, g) for (w1, w2), g in zip(pairs, gold)))
            span, = covered_pairs([bench], table(vocab, np.eye(25))).spans
            scores = np.round(rng.normal(size=len(pairs)), 1)
            expected, _ = stats.spearmanr(scores, gold)
            result, = rank_results(scores[None], span, bench)
            rho = result.rho
            assert rho == pytest.approx(expected, abs=1e-12)
            assert spearman(scores, gold) == rho

    def test_degenerate_rows_warn_not_fail(self):
        vocab = ("a", "b", "c")
        rows = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]]
        model = ScoringModel(table(vocab, rows))
        bench = Benchmark("deg", (("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 3.0)))
        with pytest.warns(RuntimeWarning):
            result = evaluate(model, bench)
        assert result.n_evaluated == 3


def test_covered_pairs_join_each_benchmarks_own_pairs_end_to_end():
    rng = np.random.default_rng(8)
    vocab = tuple(f"w{i}" for i in rng.permutation(12))
    emb = table(vocab, rng.normal(size=(12, 3)))

    def pairs(n, oov=()):
        pairs = [(vocab[i], vocab[j], float(rng.integers(0, 4)))
                 for i, j in rng.integers(0, 12, (n, 2)) if i != j]
        return tuple(dict.fromkeys(pairs)) + tuple(oov)

    benches = [
        Benchmark("some", pairs(9, [("w1", "oov", 1.0)])),
        Benchmark("none", (("w1", "oov", 1.0), ("x", "y", 2.0))),
        Benchmark("one", (("oov", "w3", 1.0), ("w3", "w5", 2.5))),
        Benchmark("more", pairs(14)),
    ]
    joined = covered_pairs(benches, emb)
    assert [span.name for span in joined.spans] == ["some", "none", "one", "more"]
    assert joined.idx1.dtype == joined.idx2.dtype == np.int64
    stop = 0
    for bench, span in zip(benches, joined.spans):
        own = covered_pairs([bench], emb)
        own_span, = own.spans
        assert (span.start, span.stop) == (stop, stop + len(own.idx1))
        stop = span.stop
        assert joined.idx1[span.start:span.stop].tolist() == own.idx1.tolist()
        assert joined.idx2[span.start:span.stop].tolist() == own.idx2.tolist()
        assert span.name == own_span.name == bench.name
        if own_span.ranks is None:
            assert span.ranks is None and len(own.idx1) < 2
        else:
            (dev, ss), (own_dev, own_ss) = span.ranks, own_span.ranks
            assert dev.tobytes() == own_dev.tobytes() and ss == own_ss
    assert stop == len(joined.idx1) == len(joined.idx2)
    assert [span.stop - span.start for span in joined.spans][1:3] == [0, 1]
    assert joined.spans[0].ranks is not None and joined.spans[3].ranks is not None


class TestRankResults:
    """A block ranked by ``rank_results`` gives each row what it gives that row alone."""

    @staticmethod
    def one_by_one(vectors, span, bench):
        return [result for row in vectors for result in rank_results(row[None], span, bench)]

    def assert_rowwise(self, vectors, span, bench):
        block = rank_results(vectors, span, bench)
        assert len(block) == len(vectors)
        for got, alone in zip(block, self.one_by_one(vectors, span, bench)):
            assert type(got) is type(alone)
            if isinstance(alone, NumericalError):
                assert str(got) == str(alone) == f"non-finite pair scores on {bench.name!r}"
            else:
                # bitwise: == on rho, not approx
                assert got == alone
        return block

    @staticmethod
    def case(n_words=14, seed=2):
        rng = np.random.default_rng(seed)
        vocab = tuple(f"w{i}" for i in range(n_words))
        pairs = tuple((vocab[i], vocab[j], float(rng.integers(0, 4)))
                      for i in range(n_words) for j in range(i + 1, n_words, 3))
        bench = Benchmark("blk", pairs + (("w0", "oov", 1.0),))
        span, = covered_pairs([bench], table(vocab, np.eye(n_words))).spans
        # the covered pairs' gold scores
        return bench, span, np.array([g for _, _, g in pairs]), rng

    def test_mixed_block(self):
        bench, span, gold, rng = self.case()
        n = len(gold)
        tied = np.round(rng.normal(size=(6, n)), 1)
        rows = [tied[0], np.full(n, 0.25), tied[1], gold, -gold, tied[2]]
        with_nan = tied[3].copy()
        with_nan[4] = np.nan
        with_inf = tied[4].copy()
        with_inf[0] = -np.inf
        rows[2:2] = [with_nan, with_inf]
        block = self.assert_rowwise(np.array(rows), span, bench)
        assert block[1].rho is None                       # constant row: undefined
        assert isinstance(block[2], NumericalError)       # nan
        assert isinstance(block[3], NumericalError)       # -inf
        assert block[5].rho == 1.0 and block[6].rho == -1.0
        assert block[0].n_evaluated == n and block[0].n_total == n + 1

    @pytest.mark.parametrize("kind", ["finite", "constant", "non_finite"])
    def test_uniform_blocks(self, kind):
        bench, span, gold, rng = self.case(seed=5)
        n = len(gold)
        vectors = {"finite": np.round(rng.normal(size=(4, n)), 1),
                   "constant": np.full((3, n), -2.0),
                   "non_finite": np.full((2, n), np.nan)}[kind]
        self.assert_rowwise(vectors, span, bench)

    @pytest.mark.parametrize("n_covered", [0, 1])
    def test_fewer_than_two_covered_pairs_are_undefined(self, n_covered):
        vocab = ("a", "b", "c")
        pairs = (("a", "b", 1.0), ("b", "c", 2.0), ("a", "x", 3.0))
        bench = Benchmark("few", pairs[2 - n_covered:])
        span, = covered_pairs([bench], table(vocab, np.eye(3))).spans
        assert span.stop - span.start == n_covered and span.ranks is None
        # not even a non-finite score fails without a correlation to compute
        vectors = np.array([[0.5] * n_covered, [np.nan] * n_covered])
        block = self.assert_rowwise(vectors, span, bench)
        assert [r.rho for r in block] == [None, None]
        assert block[0].n_evaluated == n_covered and block[0].n_total == len(bench.pairs)


class TestLayerCScores:
    """``layer_c_scores`` against plain numpy, apart from ``evaluate`` and the sweep."""

    @pytest.fixture(scope="class")
    def tables(self):
        """Two 20-row tables, the first with a zero row, and 40 pairs over them."""
        rng = np.random.default_rng(21)
        matrices = {"first": rng.normal(size=(20, 5)), "second": rng.normal(size=(20, 3))}
        matrices["first"][4] = 0.0
        idx = rng.integers(0, 20, (40, 2))
        idx[0] = (4, 7)
        pairs = CoveredPairs(idx[:, 0], idx[:, 1], (Span(0, 40, None, None),))
        return matrices, pairs

    @staticmethod
    def scores(tables, layer_c, alpha=None, normalize=False, cache=None):
        matrices, pairs = tables
        sq = {name: row_sq_norms(m) for name, m in matrices.items()}
        sums = {name: table_sums(m, sq[name], pairs) for name, m in matrices.items()}
        inputs = ["first"] if layer_c == "none" else ["first", "second"]
        return layer_c_scores(layer_c, alpha, inputs, sums, normalize,
                              {} if cache is None else cache, pairs, str)

    @staticmethod
    def plain_cosines(matrix, pairs):
        u, v = matrix[pairs.idx1], matrix[pairs.idx2]
        norms = np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        dots = np.einsum("ij,ij->i", u, v)
        return np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0)

    def test_none_is_the_tables_cosines(self, tables):
        matrices, pairs = tables
        zero = np.count_nonzero((pairs.idx1 == 4) | (pairs.idx2 == 4))
        with pytest.warns(RuntimeWarning, match=f"^{zero} degenerate zero-norm pair scores set "
                                                "to 0 in 'first'$"):
            scores = self.scores(tables, "none")
        np.testing.assert_allclose(scores, self.plain_cosines(matrices["first"], pairs),
                                   rtol=1e-13, atol=1e-15)
        assert scores[0] == 0.0

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_li_interpolates_the_two_tables_scores(self, tables, alpha):
        matrices, pairs = tables
        cache = {}
        with pytest.warns(RuntimeWarning, match="in 'first'$"):
            li = self.scores(tables, "li", alpha, cache=cache)
        first, second = cache["first"], cache["second"]
        np.testing.assert_allclose(second, self.plain_cosines(matrices["second"], pairs),
                                   rtol=1e-13, atol=1e-15)
        assert li.tobytes() == (alpha * first + (1.0 - alpha) * second).tobytes()
        # a cached vector serves a later use as it is, without a second warning
        assert self.scores(tables, "none", cache=cache) is first

    def test_concat_is_the_cosine_of_the_stacked_rows(self, tables):
        matrices, pairs = tables
        stacked = np.hstack([matrices["first"], matrices["second"]])
        np.testing.assert_allclose(self.scores(tables, "concat"),
                                   self.plain_cosines(stacked, pairs), rtol=1e-13, atol=1e-15)

    def test_normalized_concat_is_the_mean_of_the_block_cosines(self, tables):
        matrices, pairs = tables
        first, second = (self.plain_cosines(m, pairs) for m in matrices.values())
        scores = self.scores(tables, "concat", normalize=True)
        live = (pairs.idx1 != 4) & (pairs.idx2 != 4)
        assert 0 < np.count_nonzero(live) < 40
        np.testing.assert_allclose(scores[live], ((first + second) / 2)[live],
                                   rtol=1e-13, atol=1e-15)
        # a zero row is left as it is: its pairs score the other block's cosine over sqrt(2)
        np.testing.assert_allclose(scores[~live], second[~live] / np.sqrt(2),
                                   rtol=1e-13, atol=1e-15)

    def test_a_stored_failure_is_raised_in_order(self, tables):
        _, pairs = tables
        sums = {name: NumericalError(name) for name in ("a", "b")}

        def raised(layer_c, sums, normalize=False, inputs=("a", "b")):
            with pytest.raises(NumericalError) as exc:
                layer_c_scores(layer_c, 0.5, inputs, sums, normalize, {}, pairs, str)
            return str(exc.value)

        assert raised("li", sums) == raised("concat", sums) == "a"
        assert raised("concat", sums, normalize=True) == "a"
        assert raised("none", sums, inputs=("b",)) == "b"
        sums["a"] = table_sums(np.eye(20), np.ones(20), pairs)
        assert raised("concat", sums) == raised("concat", sums, normalize=True) == "b"
