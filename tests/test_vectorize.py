"""N-gram extraction, vocabulary, idf, tf-idf and normalization."""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracesvm import (
    ConfigError,
    DimensionMismatchError,
    EmptyVocabularyError,
    FeatureMatrix,
    IdfModel,
    LinearModel,
    ModelArtifact,
    SparseVector,
    SyscallTrace,
    Vocabulary,
    build_vocabulary,
    count_matrix,
    fit_idf,
    fit_transform,
    load_model,
    normalize_matrix,
    save_model,
    tfidf_transform,
    transform,
)
from oracles import (
    canonical_text_v1,
    count_vector,
    csr_matrix,
    dense_tfidf_pipeline,
    extract_ngrams,
    ngram_to_index,
)

SEVEN_CALLS = (
    "ntclose",
    "ntopenkeyex",
    "ntcreatefile",
    "ntcreatesection",
    "ntmapviewofsection",
    "ntclose",
    "ntqueryvirtualmemory",
)


def trace(calls, source_id="t", label=None):
    return SyscallTrace(source_id=source_id, calls=tuple(calls), label=label)


class TestExtractNgrams:
    def test_bigrams_of_seven_calls(self):
        assert extract_ngrams(SEVEN_CALLS, 2) == [
            "ntclose ntopenkeyex",
            "ntopenkeyex ntcreatefile",
            "ntcreatefile ntcreatesection",
            "ntcreatesection ntmapviewofsection",
            "ntmapviewofsection ntclose",
            "ntclose ntqueryvirtualmemory",
        ]

    def test_unigrams_are_identity(self):
        assert extract_ngrams(("ntclose", "ntclose"), 1) == ["ntclose", "ntclose"]

    def test_window_longer_than_trace(self):
        assert extract_ngrams(("ntclose",), 2) == []

    @given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=12), st.integers(1, 5))
    def test_count_property(self, calls, n):
        assert len(extract_ngrams(calls, n)) == max(0, len(calls) - n + 1)


class TestVocabulary:
    def test_lexicographic_indices(self):
        vocab = build_vocabulary([trace(["ntclose", "ntopenkeyex"])], 1, 2)
        assert vocab.by_index == ("ntclose", "ntclose ntopenkeyex", "ntopenkeyex")
        assert ngram_to_index(vocab) == {
            "ntclose": 0,
            "ntclose ntopenkeyex": 1,
            "ntopenkeyex": 2,
        }

    def test_union_over_corpus(self):
        vocab = build_vocabulary([trace(["ntclose"]), trace(["ntopenkeyex"])], 1, 1)
        assert vocab.by_index == ("ntclose", "ntopenkeyex")

    def test_all_short_traces_raise(self):
        with pytest.raises(EmptyVocabularyError):
            build_vocabulary([trace(["ntclose"] * 3)], 8, 10)

    def test_prefix_related_names_sort_as_strings(self):
        # "nta" < "nta nta0" < "nta0" < "nta_b" < "ntab": a gram comes before
        # its extensions, and those before any longer call name it prefixes.
        calls = ["nta", "nta0", "ntab", "nta_b", "nta", "ntab"]
        vocab = build_vocabulary([trace(calls)], 1, 3)
        assert list(vocab.by_index) == sorted(vocab.by_index)
        assert len(vocab) == len(set(vocab.by_index))

    def test_order_holds_past_one_byte_of_ids(self):
        # 300 names give ids above 255, whose bytes must compare big-endian.
        rng = np.random.default_rng(3)
        calls = [f"nt{k}" for k in rng.permutation(300)]
        vocab = build_vocabulary([trace(calls)], 1, 2)
        keys, _, _ = dense_tfidf_pipeline([calls], 1, 2)
        assert list(vocab.by_index) == keys

    def test_fitted_vocabulary_renders_strings_lazily(self):
        vocab = build_vocabulary([trace(["ntclose", "ntopenkeyex"])], 1, 2)
        assert vocab.alphabet == ("ntclose", "ntopenkeyex")
        assert len(vocab) == 3
        assert vocab._by_index is None
        assert vocab.by_index == ("ntclose", "ntclose ntopenkeyex", "ntopenkeyex")

    @pytest.mark.parametrize("name", ["nt close", "ntclose\t", "\x00nt", "nt\nclose"])
    def test_separator_in_call_name_rejected(self, name):
        with pytest.raises(ConfigError):
            build_vocabulary([trace(["ntclose", name])], 1, 2)

    def test_string_vocabulary_must_be_sorted_and_unique(self):
        with pytest.raises(ValueError):
            Vocabulary(by_index=("ntb", "nta"), n_min=1, n_max=1)
        with pytest.raises(ValueError):
            Vocabulary(by_index=("nta", "nta"), n_min=1, n_max=1)

    @pytest.mark.parametrize(
        "grams, n_min, n_max",
        [(("nta",), 2, 3), (("nta ntb",), 1, 1), ((), 0, 1), ((), 3, 2), (("nta",), 1, 1001)],
    )
    def test_string_vocabulary_checks_gram_lengths(self, grams, n_min, n_max):
        with pytest.raises(ValueError):
            Vocabulary(by_index=grams, n_min=n_min, n_max=n_max)

    @pytest.mark.parametrize("grams", [("nta  ntb",), (" nta",), ("",), ("nt\ta",), ("nta\x00",)])
    def test_string_vocabulary_call_names_checked(self, grams):
        # Names must be non-empty and free of characters <= U+0020, or the
        # keys derived from the strings would not sort as the strings do.
        with pytest.raises(ValueError):
            Vocabulary(by_index=grams, n_min=1, n_max=3)

    def test_string_vocabulary_derives_keys(self):
        vocab = Vocabulary(by_index=("nta", "nta ntb", "ntb"), n_min=1, n_max=2)
        assert vocab.alphabet == ("nta", "ntb")
        assert vocab.keys.view(">u4").reshape(-1, 2).tolist() == [[1, 0], [1, 2], [2, 0]]

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigError):
            build_vocabulary([trace(["ntclose"])], 2, 1)
        with pytest.raises(ConfigError):
            build_vocabulary([trace(["ntclose"])], 0, 1)
        with pytest.raises(ConfigError):
            build_vocabulary([trace(["ntclose"])], 1, 1001)


class TestCountVector:
    def test_counts_with_repetition(self):
        t = trace(["ntclose", "ntclose", "ntclose"])
        vocab = build_vocabulary([t], 1, 2)
        v = count_vector(t, vocab)
        assert v.pairs() == [
            (ngram_to_index(vocab)["ntclose"], 3.0),
            (ngram_to_index(vocab)["ntclose ntclose"], 2.0),
        ]

    def test_out_of_vocabulary_ignored(self):
        vocab = build_vocabulary([trace(["ntclose", "ntopenkeyex"])], 1, 2)
        v = count_vector(trace(["ntclose", "ntcreatefile"]), vocab)
        assert v.pairs() == [(0, 1.0)]  # only "ntclose" is known

    def test_no_ngram_long_enough(self):
        vocab = build_vocabulary([trace(SEVEN_CALLS)], 2, 2)
        v = count_vector(trace(["ntclose"]), vocab)
        assert v.nnz == 0


class TestSparseVector:
    def test_dense_round_trip(self):
        v = SparseVector([1, 3], [2.0, -1.5], 4)
        assert v.pairs() == [(1, 2.0), (3, -1.5)]
        assert np.array_equal(v.to_dense(), [0.0, 2.0, 0.0, -1.5])


class TestFeatureMatrix:
    ROWS = [([0, 2], [1.5, -2.0]), ([], []), ([1], [4.0])]

    def _build(self, indptr=(0, 2, 2, 3), indices=(0, 2, 1), data=(1.5, -2.0, 4.0), **kw):
        fields = dict(row_ids=["a", "b", "c"], labels=None, dim=3) | kw
        return FeatureMatrix(indptr=indptr, indices=indices, data=data, **fields)

    def test_valid_matrix_and_row_views(self):
        m = self._build(labels=["malicious", "benign", "benign"])
        assert len(m) == 3 and m.nnz == 3
        assert m.indptr.dtype == m.indices.dtype == np.int64 and m.data.dtype == np.float64
        assert [r.pairs() for r in m.rows] == [[(0, 1.5), (2, -2.0)], [], [(1, 4.0)]]
        assert m.rows is m.rows
        assert np.array_equal(m.dot(np.array([1.0, 2.0, 3.0])), [-4.5, 0.0, 8.0])
        assert csr_matrix(self.ROWS, 3).rows == m.rows

    @pytest.mark.parametrize(
        "indptr",
        [(1, 2, 2, 3), (0, 2, 2, 2), (0, 2, 1, 3), ()],
        ids=["not-from-0", "not-to-nnz", "decreasing", "empty"],
    )
    def test_bad_indptr(self, indptr):
        with pytest.raises(ValueError):
            self._build(indptr=indptr)

    @pytest.mark.parametrize(
        "indices",
        [(2, 0, 1), (0, 0, 1), (0, 3, 1), (0, 2, -1)],
        ids=["unsorted", "duplicate", "at-dim", "negative"],
    )
    def test_bad_indices(self, indices):
        with pytest.raises(ValueError):
            self._build(indices=indices)

    def test_indices_may_fall_across_rows(self):
        # A row may start at a lower column than the previous row ended.
        m = self._build(indptr=(0, 2, 3, 3), indices=(1, 2, 0))
        assert [r.pairs() for r in m.rows] == [[(1, 1.5), (2, -2.0)], [(0, 4.0)], []]

    @pytest.mark.parametrize("value", [0.0, float("nan"), float("inf"), -float("inf")])
    def test_bad_data(self, value):
        with pytest.raises(ValueError):
            self._build(data=(1.5, value, 4.0))

    def test_data_parallel_to_indices(self):
        with pytest.raises(ValueError):
            self._build(data=(1.5, -2.0))

    @pytest.mark.parametrize("field", ["row_ids", "labels"])
    @pytest.mark.parametrize("length", [2, 4])
    def test_wrong_length_ids_or_labels(self, field, length):
        with pytest.raises(ValueError):
            self._build(**{field: ["x"] * length})

    def test_dot_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            self._build().dot(np.zeros(2))


class TestIdf:
    def _matrix_with_df(self, df, n_docs=10):
        # single feature, present in the first df documents
        return csr_matrix([([0], [1.0]) if i < df else ([], []) for i in range(n_docs)], 1)

    def test_rare_feature(self):
        model = fit_idf(self._matrix_with_df(1))
        assert model.idf[0] == pytest.approx(math.log(11 / 2), abs=1e-12)
        assert model.idf[0] == pytest.approx(1.7047, abs=1e-4)

    def test_ubiquitous_feature_is_zero(self):
        model = fit_idf(self._matrix_with_df(10))
        assert model.idf[0] == 0.0

    def test_add_one_variant(self):
        model = fit_idf(self._matrix_with_df(10), add_one=True)
        assert model.idf[0] == 1.0

    def test_absent_feature(self):
        model = fit_idf(self._matrix_with_df(0))
        assert model.idf[0] == pytest.approx(math.log(11.0), abs=1e-12)


class TestTfidf:
    def test_weighting_and_zero_drop(self):
        counts = csr_matrix([([0, 1], [3.0, 2.0])], 2)
        idf = IdfModel(idf=np.array([math.log(11 / 2), 0.0]), n_docs=10)
        out = tfidf_transform(counts, idf)
        assert out.rows[0].pairs() == [(0, pytest.approx(3 * math.log(11 / 2), abs=1e-12))]
        assert out.rows[0].pairs()[0][1] == pytest.approx(5.114, abs=1e-3)

    def test_zero_drop_moves_later_rows(self):
        counts = csr_matrix([([0, 1], [3.0, 2.0]), ([1], [5.0]), ([0], [1.0])], 2)
        out = tfidf_transform(counts, IdfModel(idf=np.array([2.0, 0.0]), n_docs=10))
        assert out.indptr.tolist() == [0, 1, 1, 2]
        assert [r.pairs() for r in out.rows] == [[(0, 6.0)], [], [(0, 2.0)]]

    def test_empty_row_stays_empty(self):
        idf = IdfModel(idf=np.array([1.0]), n_docs=3)
        out = tfidf_transform(csr_matrix([([], [])], 1), idf)
        assert out.rows[0].nnz == 0

    def test_dimension_mismatch(self):
        idf = IdfModel(idf=np.array([1.0]), n_docs=3)
        with pytest.raises(DimensionMismatchError):
            tfidf_transform(csr_matrix([([0], [1.0])], 2), idf)


class TestNormalize:
    def test_worked_example(self):
        v = normalize_matrix(csr_matrix([([0, 1, 2], [10.0, 3.0, 1.0])], 3)).rows[0]
        assert v.values == pytest.approx([0.953, 0.286, 0.095], abs=5e-4)
        assert v.norm() == pytest.approx(1.0, abs=1e-12)

    def test_unit_vector_unchanged(self):
        v = normalize_matrix(csr_matrix([([1], [1.0])], 4)).rows[0]
        assert v.pairs() == [(1, pytest.approx(1.0, abs=1e-12))]

    def test_empty_vector_unchanged(self):
        m = normalize_matrix(csr_matrix([([], []), ([2], [3.0])], 4))
        assert m.indptr.tolist() == [0, 0, 1]
        assert m.rows[0].nnz == 0
        assert m.rows[1].pairs() == [(2, 1.0)]


class TestFitTransform:
    def _corpus(self):
        rng = np.random.default_rng(7)
        names = ["ntclose", "ntopenkeyex", "ntcreatefile", "ntquerykey"]
        return [
            trace([names[j] for j in rng.integers(0, 4, size=rng.integers(3, 12))], f"t{i}")
            for i in range(6)
        ]

    def test_rows_unit_norm(self):
        _, _, m = fit_transform(self._corpus(), 1, 3)
        for row in m.rows:
            if row.nnz:
                assert row.norm() == pytest.approx(1.0, abs=1e-12)

    def test_identical_traces_identical_rows(self):
        corpus = [trace(SEVEN_CALLS, "a"), trace(SEVEN_CALLS, "b")]
        _, _, m = fit_transform(corpus, 1, 2)
        assert m.rows[0] == m.rows[1]

    def test_deterministic(self):
        corpus = self._corpus()
        _, idf1, m1 = fit_transform(corpus, 1, 3)
        _, idf2, m2 = fit_transform(corpus, 1, 3)
        assert idf1 == idf2
        assert all(a == b for a, b in zip(m1.rows, m2.rows))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        names = ["ntclose", "ntopenkeyex", "ntcreatefile", "ntquerykey", "ntreadfile"]
        for _ in range(25):
            corpus = [
                trace(
                    [names[j] for j in rng.integers(0, len(names), size=rng.integers(1, 13))],
                    f"t{i}",
                )
                for i in range(rng.integers(1, 6))
            ]
            vocab, idf, m = fit_transform(corpus, 1, 3)
            keys, idf_ref, rows_ref = dense_tfidf_pipeline([t.calls for t in corpus], 1, 3)
            assert list(vocab.by_index) == keys
            assert np.allclose(idf.idf, idf_ref, atol=1e-12, rtol=0)
            for row, ref in zip(m.rows, rows_ref):
                assert np.allclose(row.to_dense(), ref, atol=1e-12, rtol=0)


# Prefix-related names: one is a prefix of the others, and "0" < "_" < "b".
PREFIX_NAMES = ["nta", "nta0", "nta_b", "ntab"]
UNSEEN_NAMES = ["nt", "nta1", "ntac", "ntz"]


def corpora(names, max_traces=5, max_len=12):
    calls = st.lists(st.sampled_from(names), min_size=0, max_size=max_len)
    return st.lists(calls, min_size=1, max_size=max_traces)


def as_corpus(calls_lists):
    return [trace(calls, f"t{i}") for i, calls in enumerate(calls_lists)]


class TestIntegerKeyedLookup:
    @settings(max_examples=150, deadline=None)
    @given(corpora(PREFIX_NAMES), st.integers(1, 4), st.integers(0, 2))
    def test_fit_transform_matches_dense_oracle(self, calls_lists, n_min, extra):
        n_max = n_min + extra
        corpus = as_corpus(calls_lists)
        keys, idf_ref, rows_ref = dense_tfidf_pipeline(calls_lists, n_min, n_max)
        if not keys:
            with pytest.raises(EmptyVocabularyError):
                fit_transform(corpus, n_min, n_max)
            return
        vocab, idf, m = fit_transform(corpus, n_min, n_max)
        assert list(vocab.by_index) == keys
        assert np.allclose(idf.idf, idf_ref, atol=1e-12, rtol=0)
        for row, ref in zip(m.rows, rows_ref):
            assert np.allclose(row.to_dense(), ref, atol=1e-12, rtol=0)

    @settings(max_examples=60, deadline=None)
    @given(
        corpora(PREFIX_NAMES, max_len=10),
        corpora(PREFIX_NAMES + UNSEEN_NAMES, max_len=10),
        st.integers(1, 3),
        st.integers(0, 2),
    )
    def test_loaded_vocabulary_transforms_like_fitted(self, fit_lists, new_lists, n_min, extra):
        n_max = n_min + extra
        fit_corpus = as_corpus(fit_lists)
        try:
            vocab, idf, _ = fit_transform(fit_corpus, n_min, n_max)
        except EmptyVocabularyError:
            return
        model = LinearModel(weights=np.zeros(len(vocab)), bias=0.0, dim=len(vocab), metadata={})
        artifact = ModelArtifact(model=model, vocabulary=vocab, idf=idf)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(artifact, path)
            loaded = load_model(path)
            path.write_text(canonical_text_v1(artifact))
            loaded_v1 = load_model(path)
        assert loaded.vocabulary._by_index is None  # v2 loads keys, no strings
        assert loaded_v1.vocabulary.by_index == vocab.by_index
        new_corpus = as_corpus(new_lists) + fit_corpus
        fitted_rows = transform(new_corpus, vocab, idf).rows
        assert transform(new_corpus, loaded.vocabulary, loaded.idf).rows == fitted_rows
        assert transform(new_corpus, loaded_v1.vocabulary, loaded_v1.idf).rows == fitted_rows
        per_trace = tuple(count_vector(t, loaded.vocabulary) for t in new_corpus)
        assert count_matrix(new_corpus, vocab).rows == per_trace
        assert count_matrix(new_corpus, loaded.vocabulary).rows == per_trace
        assert count_matrix(new_corpus, loaded_v1.vocabulary).rows == per_trace


class TestExports:
    def test_count_matrix_carries_labels(self):
        corpus = [trace(SEVEN_CALLS, "a", "malicious"), trace(SEVEN_CALLS, "b", "benign")]
        vocab = build_vocabulary(corpus, 1, 2)
        m = count_matrix(corpus, vocab)
        assert m.labels == ["malicious", "benign"]
        assert m.row_ids == ["a", "b"]
