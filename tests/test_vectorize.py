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
    build_vocabulary,
    count_matrix,
    fit_idf,
    fit_transform,
    load_model,
    normalize_matrix,
    save_model,
    tfidf_transform,
    top_features,
    transform,
)
from tracesvm.model_io import _parse_v1_vocabulary
from tracesvm.synthetic import GeneratorConfig, generate
from tracesvm.vectorize import _code_rounds, _id_bits, _IdRows, _pack, _windows
from oracles import (
    canonical_text_v1,
    count_vector,
    csr_matrix,
    dense_tfidf_pipeline,
    extract_ngrams,
    grams,
    ngram_to_index,
    norm,
    pairs,
    same_rows,
    to_dense,
    void_count_csr,
    void_vocabulary_keys,
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
        assert grams(vocab) == ["ntclose", "ntclose ntopenkeyex", "ntopenkeyex"]
        assert ngram_to_index(vocab) == {
            "ntclose": 0,
            "ntclose ntopenkeyex": 1,
            "ntopenkeyex": 2,
        }

    def test_union_over_corpus(self):
        vocab = build_vocabulary([trace(["ntclose"]), trace(["ntopenkeyex"])], 1, 1)
        assert grams(vocab) == ["ntclose", "ntopenkeyex"]

    def test_all_short_traces_raise(self):
        with pytest.raises(EmptyVocabularyError):
            build_vocabulary([trace(["ntclose"] * 3)], 8, 10)

    def test_prefix_related_names_sort_as_strings(self):
        # "nta" < "nta nta0" < "nta0" < "nta_b" < "ntab": a gram comes before
        # its extensions, and those before any longer call name it prefixes.
        calls = ["nta", "nta0", "ntab", "nta_b", "nta", "ntab"]
        vocab = build_vocabulary([trace(calls)], 1, 3)
        assert grams(vocab) == sorted(grams(vocab))
        assert len(vocab) == len(set(grams(vocab)))

    def test_order_holds_past_one_byte_of_ids(self):
        # 300 names give ids above 255, whose bytes must compare big-endian.
        rng = np.random.default_rng(3)
        calls = [f"nt{k}" for k in rng.permutation(300)]
        vocab = build_vocabulary([trace(calls)], 1, 2)
        keys, _, _ = dense_tfidf_pipeline([calls], 1, 2)
        assert grams(vocab) == keys

    @pytest.mark.parametrize("name", ["nt close", "ntclose\t", "\x00nt", "nt\nclose"])
    def test_separator_in_call_name_rejected(self, name):
        with pytest.raises(ConfigError):
            build_vocabulary([trace(["ntclose", name])], 1, 2)

    # The string-vocabulary tests check model_io's v1 parser, which turns a
    # v1 model file's n-gram strings into keys.

    def test_string_vocabulary_must_be_sorted_and_unique(self):
        with pytest.raises(ValueError):
            _parse_v1_vocabulary(["ntb", "nta"], n_min=1, n_max=1)
        with pytest.raises(ValueError):
            _parse_v1_vocabulary(["nta", "nta"], n_min=1, n_max=1)

    @pytest.mark.parametrize(
        "grams, n_min, n_max",
        [(("nta",), 2, 3), (("nta ntb",), 1, 1), ((), 0, 1), ((), 3, 2), (("nta",), 1, 1001)],
    )
    def test_string_vocabulary_checks_gram_lengths(self, grams, n_min, n_max):
        with pytest.raises(ValueError):
            _parse_v1_vocabulary(list(grams), n_min=n_min, n_max=n_max)

    @pytest.mark.parametrize("grams", [("nta  ntb",), (" nta",), ("",), ("nt\ta",), ("nta\x00",)])
    def test_string_vocabulary_call_names_checked(self, grams):
        # Names must be non-empty and free of characters <= U+0020, or the
        # keys derived from the strings would not sort as the strings do.
        with pytest.raises(ValueError):
            _parse_v1_vocabulary(list(grams), n_min=1, n_max=3)

    def test_string_vocabulary_derives_keys(self):
        vocab = _parse_v1_vocabulary(["nta", "nta ntb", "ntb"], n_min=1, n_max=2)
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
        assert pairs(v) == [
            (ngram_to_index(vocab)["ntclose"], 3.0),
            (ngram_to_index(vocab)["ntclose ntclose"], 2.0),
        ]

    def test_out_of_vocabulary_ignored(self):
        vocab = build_vocabulary([trace(["ntclose", "ntopenkeyex"])], 1, 2)
        v = count_vector(trace(["ntclose", "ntcreatefile"]), vocab)
        assert pairs(v) == [(0, 1.0)]  # only "ntclose" is known

    def test_no_ngram_long_enough(self):
        vocab = build_vocabulary([trace(SEVEN_CALLS)], 2, 2)
        v = count_vector(trace(["ntclose"]), vocab)
        assert v.nnz == 0


class TestSparseVector:
    def test_dense_round_trip(self):
        v = SparseVector([1, 3], [2.0, -1.5], 4)
        assert pairs(v) == [(1, 2.0), (3, -1.5)]
        assert np.array_equal(to_dense(v), [0.0, 2.0, 0.0, -1.5])


class TestFeatureMatrix:
    ROWS = [([0, 2], [1.5, -2.0]), ([], []), ([1], [4.0])]

    def _build(self, indptr=(0, 2, 2, 3), indices=(0, 2, 1), data=(1.5, -2.0, 4.0), **kw):
        fields = dict(labels=None, dim=3) | kw
        return FeatureMatrix(indptr=indptr, indices=indices, data=data, **fields)

    def test_valid_matrix_and_row_views(self):
        m = self._build(labels=["malicious", "benign", "benign"])
        assert len(m) == 3 and m.nnz == 3
        assert m.indptr.dtype == m.indices.dtype == np.int64 and m.data.dtype == np.float64
        assert [pairs(r) for r in m.rows] == [[(0, 1.5), (2, -2.0)], [], [(1, 4.0)]]
        assert m.rows is m.rows
        assert np.array_equal(m.dot(np.array([1.0, 2.0, 3.0])), [-4.5, 0.0, 8.0])
        assert same_rows(csr_matrix(self.ROWS, 3).rows, m.rows)

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
        assert [pairs(r) for r in m.rows] == [[(1, 1.5), (2, -2.0)], [(0, 4.0)], []]

    @pytest.mark.parametrize("value", [0.0, float("nan"), float("inf"), -float("inf")])
    def test_bad_data(self, value):
        with pytest.raises(ValueError):
            self._build(data=(1.5, value, 4.0))

    def test_data_parallel_to_indices(self):
        with pytest.raises(ValueError):
            self._build(data=(1.5, -2.0))

    @pytest.mark.parametrize("field", ["labels"])
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

    def test_absent_feature(self):
        model = fit_idf(self._matrix_with_df(0))
        assert model.idf[0] == pytest.approx(math.log(11.0), abs=1e-12)


class TestTfidf:
    def test_weighting_and_zero_drop(self):
        counts = csr_matrix([([0, 1], [3.0, 2.0])], 2)
        idf = IdfModel(idf=np.array([math.log(11 / 2), 0.0]), n_docs=10)
        out = tfidf_transform(counts, idf)
        assert pairs(out.rows[0]) == [(0, pytest.approx(3 * math.log(11 / 2), abs=1e-12))]
        assert pairs(out.rows[0])[0][1] == pytest.approx(5.114, abs=1e-3)

    def test_zero_drop_moves_later_rows(self):
        counts = csr_matrix([([0, 1], [3.0, 2.0]), ([1], [5.0]), ([0], [1.0])], 2)
        out = tfidf_transform(counts, IdfModel(idf=np.array([2.0, 0.0]), n_docs=10))
        assert out.indptr.tolist() == [0, 1, 1, 2]
        assert [pairs(r) for r in out.rows] == [[(0, 6.0)], [], [(0, 2.0)]]

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
        assert norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_unit_vector_unchanged(self):
        v = normalize_matrix(csr_matrix([([1], [1.0])], 4)).rows[0]
        assert pairs(v) == [(1, pytest.approx(1.0, abs=1e-12))]

    def test_empty_vector_unchanged(self):
        m = normalize_matrix(csr_matrix([([], []), ([2], [3.0])], 4))
        assert m.indptr.tolist() == [0, 0, 1]
        assert m.rows[0].nnz == 0
        assert pairs(m.rows[1]) == [(2, 1.0)]


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
                assert norm(row) == pytest.approx(1.0, abs=1e-12)

    def test_identical_traces_identical_rows(self):
        corpus = [trace(SEVEN_CALLS, "a"), trace(SEVEN_CALLS, "b")]
        _, _, m = fit_transform(corpus, 1, 2)
        assert pairs(m.rows[0]) == pairs(m.rows[1])

    def test_deterministic(self):
        corpus = self._corpus()
        _, idf1, m1 = fit_transform(corpus, 1, 3)
        _, idf2, m2 = fit_transform(corpus, 1, 3)
        assert idf1.n_docs == idf2.n_docs and idf1.idf.tobytes() == idf2.idf.tobytes()
        assert same_rows(m1.rows, m2.rows)

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
            assert grams(vocab) == keys
            assert np.allclose(idf.idf, idf_ref, atol=1e-12, rtol=0)
            for row, ref in zip(m.rows, rows_ref):
                assert np.allclose(to_dense(row), ref, atol=1e-12, rtol=0)


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
        assert grams(vocab) == keys
        assert np.allclose(idf.idf, idf_ref, atol=1e-12, rtol=0)
        for row, ref in zip(m.rows, rows_ref):
            assert np.allclose(to_dense(row), ref, atol=1e-12, rtol=0)

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
        model = LinearModel(weights=np.zeros(len(vocab)), bias=0.0, metadata={})
        artifact = ModelArtifact(model=model, vocabulary=vocab, idf=idf)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(artifact, path)
            loaded = load_model(path)
            path.write_text(canonical_text_v1(artifact))
            loaded_v1 = load_model(path)
        assert loaded.vocabulary.alphabet == vocab.alphabet
        assert loaded.vocabulary.keys.tobytes() == vocab.keys.tobytes()
        assert grams(loaded_v1.vocabulary) == grams(vocab)
        new_corpus = as_corpus(new_lists) + fit_corpus
        fitted_rows = transform(new_corpus, vocab, idf).rows
        assert same_rows(transform(new_corpus, loaded.vocabulary, loaded.idf).rows, fitted_rows)
        assert same_rows(transform(new_corpus, loaded_v1.vocabulary, loaded_v1.idf).rows, fitted_rows)
        per_trace = [count_vector(t, loaded.vocabulary) for t in new_corpus]
        assert same_rows(count_matrix(new_corpus, vocab).rows, per_trace)
        assert same_rows(count_matrix(new_corpus, loaded.vocabulary).rows, per_trace)
        assert same_rows(count_matrix(new_corpus, loaded_v1.vocabulary).rows, per_trace)

    @settings(max_examples=100, deadline=None)
    @given(corpora(PREFIX_NAMES), st.integers(1, 3), st.integers(0, 2), st.integers(0, 2**32 - 1))
    def test_top_features_render_every_gram(self, calls_lists, n_min, extra, seed):
        # Every column's string and weight, as rendered by top_features, against
        # the oracle's string n-grams of the corpus and its own rendering.
        n_max = n_min + extra
        try:
            vocab = build_vocabulary(as_corpus(calls_lists), n_min, n_max)
        except EmptyVocabularyError:
            return
        weights = np.random.default_rng(seed).standard_normal(len(vocab))
        model = LinearModel(weights=weights, bias=0.0, metadata={})
        ranked = top_features(model, vocab, len(vocab))
        n_range = range(n_min, n_max + 1)
        expected = {gram for calls in calls_lists for n in n_range for gram in extract_ngrams(calls, n)}
        assert {gram for _, gram in ranked} == expected
        assert len(ranked) == len(expected)
        column = ngram_to_index(vocab)
        assert all(weight == weights[column[gram]] for weight, gram in ranked)


class TestExports:
    def test_count_matrix_carries_labels(self):
        corpus = [trace(SEVEN_CALLS, "a", "malicious"), trace(SEVEN_CALLS, "b", "benign")]
        vocab = build_vocabulary(corpus, 1, 2)
        m = count_matrix(corpus, vocab)
        assert m.labels == ["malicious", "benign"]


def csr_arrays(m):
    return m.indptr, m.indices, m.data


def assert_same_arrays(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def key_rounds(vocab):
    """The ``_code_rounds`` that counting runs over ``vocab``'s keys."""
    n_keys, width = len(vocab), vocab.n_max
    ids = vocab.keys.view(">u4").astype(np.uint32)
    keys = _IdRows(ids, width, np.arange(n_keys), np.full(n_keys, width), width)
    return list(_code_rounds(keys, _id_bits(vocab.alphabet)))


def window_rounds(corpus, vocab):
    """The ``_code_rounds`` that ``build_vocabulary`` runs over the corpus's windows."""
    index = {name: i for i, name in enumerate(vocab.alphabet, start=1)}
    _, windows = _windows(corpus, index, vocab.n_min, vocab.n_max)
    return list(_code_rounds(windows, _id_bits(vocab.alphabet)))


# Alphabet sizes on both sides of 4-, 8- and 9-bit ids: an alphabet of k
# names takes (k + 1).bit_length() bits, room for the unseen-call id k + 1.
BIT_EDGES = [14, 15, 254, 255, 510, 511]


@st.composite
def coded_corpora(draw):
    """(fit traces, evaluation traces, n_min, n_max) over an alphabet of 1-600 names.

    One fit trace holds every name, so the alphabet is all of them; the
    others repeat a few names, so windows share long prefixes.  The
    evaluation traces add names outside the alphabet and fit traces with
    one call changed.
    """
    size = draw(st.one_of(st.integers(1, 600), st.sampled_from(BIT_EDGES)))
    names = [f"nt{i:03d}" for i in range(size)]
    unseen = ["nt", "nt000x", f"nt{size // 2:03d}a", "ntz"]
    n_min = draw(st.integers(1, 40))
    n_max = draw(st.integers(n_min, 40))
    pool = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    repeats = st.lists(st.sampled_from(pool), max_size=60)
    fit = [draw(st.permutations(names))] + draw(st.lists(repeats, max_size=3))
    evaluation = draw(st.lists(st.lists(st.sampled_from(pool + unseen), max_size=50), max_size=3))
    for calls in fit:
        if calls:
            at = draw(st.integers(0, len(calls) - 1))
            other = draw(st.sampled_from(names + unseen).filter(lambda name: name != calls[at]))
            evaluation.append(calls[:at] + [other] + calls[at + 1 :])
    return fit, evaluation + fit, n_min, n_max


class TestIntegerCodes:
    """The uint64 code rounds against the void-key lookup of ``tests/oracles.py``."""

    @settings(max_examples=80, deadline=None)
    @given(coded_corpora())
    def test_vocabulary_and_counts_match_void_keys(self, case):
        fit, evaluation, n_min, n_max = case
        expected_keys = void_vocabulary_keys(fit, n_min, n_max)
        if len(expected_keys) == 0:
            with pytest.raises(EmptyVocabularyError):
                build_vocabulary(as_corpus(fit), n_min, n_max)
            return
        vocab = build_vocabulary(as_corpus(fit), n_min, n_max)
        assert vocab.keys.tobytes() == expected_keys.tobytes()
        for calls_lists in (fit, evaluation):
            got = csr_arrays(count_matrix(as_corpus(calls_lists), vocab))
            assert_same_arrays(got, void_count_csr(calls_lists, vocab))

    def test_large_alphabet_takes_two_rounds(self):
        # About 450 names, as real Nt traces have: 9-bit ids, 7 per first code.
        names = tuple(f"ntcall{i:03d}" for i in range(444))
        config = GeneratorConfig(
            n_traces=20, trace_len_range=(30, 60), background_vocab=names, seed=4
        )
        fit, evaluation = generate(config), generate(GeneratorConfig(**{**vars(config), "seed": 5}))
        vocab = build_vocabulary(fit, 8, 10)
        assert len(vocab.alphabet) >= 300 and _id_bits(vocab.alphabet) == 9
        assert len(window_rounds(fit, vocab)) == 2 and len(key_rounds(vocab)) == 2
        calls = [t.calls for t in fit]
        assert vocab.keys.tobytes() == void_vocabulary_keys(calls, 8, 10).tobytes()
        for corpus in (fit, evaluation):
            expected = void_count_csr([t.calls for t in corpus], vocab)
            assert_same_arrays(csr_arrays(count_matrix(corpus, vocab)), expected)

    def test_rounds_stop_early_and_unread_ids_are_compared(self):
        names = SEVEN_CALLS[:5]
        calls = list(np.random.default_rng(0).choice(names, 60))
        fit = [trace(calls)]
        vocab = build_vocabulary(fit, 30, 30)
        # 3-bit ids, 21 per first code: distinct 21-call prefixes end the rounds.
        (start, stop, table, _), = key_rounds(vocab)
        assert (start, stop, len(table)) == (0, 21, len(vocab))
        assert len(window_rounds(fit, vocab)) == 1
        # The window differs from the first vocabulary gram in its last call only.
        changed = calls[:29] + [next(c for c in names if c != calls[29])]
        evaluation = [trace(changed), trace(calls[:30])]
        counts = count_matrix(evaluation, vocab)
        assert counts.nnz == 1 and counts.indptr.tolist() == [0, 0, 1]
        assert_same_arrays(csr_arrays(counts), void_count_csr([changed, calls[:30]], vocab))

    def test_every_code_is_uint64(self):
        corpus = [trace(SEVEN_CALLS * 3)]
        vocab = build_vocabulary(corpus, 2, 20)
        rounds = window_rounds(corpus, vocab) + key_rounds(vocab)
        assert all(table.dtype == np.uint64 for _, _, table, _ in rounds)
        # A signed rank beside uint32 ids stays exact: 2**62 + ... is not a float64.
        index = {name: i for i, name in enumerate(vocab.alphabet, start=1)}
        _, windows = _windows(corpus, index, 1, 1)
        bits = _id_bits(vocab.alphabet)
        code = _pack(np.full(len(windows), 2**60 + 1, dtype=np.int64), windows, 0, 1, bits)
        expected = [((2**60 + 1) << bits) + index[c] for c in SEVEN_CALLS * 3]
        assert code.dtype == np.uint64 and code.tolist() == expected

    def test_ranks_that_leave_no_room_raise(self):
        # 64-bit ids: after one round of two distinct codes no id fits beside the rank.
        seq = np.array([1, 5, 2, 6, 2, 7], dtype=np.uint32)
        rows = _IdRows(seq, 2, np.arange(3), np.full(3, 2), 2)
        with pytest.raises(ValueError, match="1-bit ranks leave no room for a 64-bit id"):
            list(_code_rounds(rows, 64))
