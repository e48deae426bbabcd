"""Log-free outputs pinned by SHA-256 digest, so that a refactor keeps their bytes.

Each seeded corpus pins the ``alphabet`` field and the three front-coded
``vocabulary_*`` fields that ``save_model`` writes for its vocabulary, the
v2 ``vocabulary`` field of the keys loaded back (the base64 of the
big-endian key matrix, which format v2 stored), and ``count_matrix``'s CSR
arrays for the corpus and for an evaluation corpus drawn with another seed.
Nothing pinned here passes through ``np.log`` or a trainer, whose bits may
differ across CPUs and numpy builds; the model is all-zero weights over an
all-one idf.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from tracesvm import (
    GeneratorConfig,
    IdfModel,
    LinearModel,
    ModelArtifact,
    build_vocabulary,
    count_matrix,
    generate,
    load_model,
    save_model,
)
from tracesvm.model_io import _B64_CHUNK
from tracesvm.vectorize import _id_bits

NAMES_444 = tuple(f"ntcall{i:03d}" for i in range(444))

V3_VOCABULARY = ("vocabulary_prefix", "vocabulary_suffix", "vocabulary_suffix_len")

# (config, n_min, n_max, dim, alphabet, vocabulary, fit counts, evaluation
# counts, v3 vocabulary fields)
CASES = {
    # 13 names: the default background and the motifs' calls.  At 40 bytes
    # a key, 22490 keys span several of save_model's chunks of key rows.
    "13 names, n 8-10": (
        GeneratorConfig(n_traces=30, trace_len_range=(200, 300), seed=11), 8, 10, 22490,
        "66c2d9ba66c5d5574556716b25e5ff3edb9d52685d0c7b89090f366c26e7ad41",
        "bd47ade68bc27b9618490c1b88f3d9db4e4a55e38ff895bb02fe5b568192635c",
        "aeedfc27b6f4461547699baeab119ab04ccce9e1dfa204ea87df5747d630d994",
        "5ea62da281a41feb93383b9521a51f0bd64f057276b4a127fd87abf552bf3443",
        "1cdf00a32f5fef4b824aa8361e1d4ff2e03d6c3f627d243dbc55d18b1176c7fd",
    ),
    "13 names, n 1-3": (
        GeneratorConfig(n_traces=40, trace_len_range=(20, 60), seed=12), 1, 3, 920,
        "66c2d9ba66c5d5574556716b25e5ff3edb9d52685d0c7b89090f366c26e7ad41",
        "b0068187ad820c6eaa86123012fae9211074cb459c9e8053c7c78a7c94ff34ad",
        "479204da3d1ad17d3656e43c14274e24f7ec232b45cdce95d7a483f9904c067b",
        "8d1ab73098eb0c3a2c69e54a202484940f239646484f39fc53dadb840f998c0a",
        "1a62ad082e0c2b23e81dbd0804f7f905a0d844e6dfcf4bc97637594155e16d28",
    ),
    # 9-bit ids, 7 to a first-round code: 10-grams take two rounds.
    "444 names, n 8-10": (
        GeneratorConfig(n_traces=30, trace_len_range=(40, 80), background_vocab=NAMES_444, seed=13),
        8, 10, 5893,
        "3f6fd6c7f8977137d50298504f97e24d20f053f91493559025996934d552fa67",
        "e41cb7394e4c59ed02cfc3c8c6f8ce75ddeac1b311d01417cbca4a14c7afcdbc",
        "2a73d15a7a4fffbe8e05a022a5d2cab0e0be10f70fcbf8fe084aa8bb6143c8f0",
        "bb9924ef6aeac26e6e6e504855aac8c9aa84af91652c191fabf2af068864c77d",
        "a82fb60a546f744f859cb084bad9ff6ad8a81e22612bae87d3e8328a17365b11",
    ),
}


def csr_digest(matrix) -> str:
    h = hashlib.sha256()
    for array in (matrix.indptr, matrix.indices, matrix.data):
        h.update(array.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_vocabulary_field_and_counts_keep_their_bytes(case, tmp_path):
    config, n_min, n_max, dim, alphabet, vocabulary, fit_counts, eval_counts, v3_vocabulary = CASES[case]
    fit = generate(config)
    evaluation = generate(dataclasses.replace(config, seed=config.seed + 100))
    vocab = build_vocabulary(fit, n_min, n_max)
    assert len(vocab) == dim
    if case == "13 names, n 8-10":
        assert dim * 4 * n_max > _B64_CHUNK
    if case == "444 names, n 8-10":
        assert _id_bits(vocab.alphabet) == 9
    artifact = ModelArtifact(LinearModel(np.zeros(dim), 0.0), vocab, IdfModel(np.ones(dim), len(fit)))
    save_model(artifact, tmp_path / "model.json")
    doc = json.loads((tmp_path / "model.json").read_text())
    assert hashlib.sha256(json.dumps(doc["alphabet"]).encode()).hexdigest() == alphabet
    v3_fields = json.dumps([doc[field] for field in V3_VOCABULARY])
    assert hashlib.sha256(v3_fields.encode()).hexdigest() == v3_vocabulary
    keys = load_model(tmp_path / "model.json").vocabulary.keys
    assert hashlib.sha256(base64.b64encode(keys.astype(">u4").tobytes())).hexdigest() == vocabulary
    assert csr_digest(count_matrix(fit, vocab)) == fit_counts
    assert csr_digest(count_matrix(evaluation, vocab)) == eval_counts
