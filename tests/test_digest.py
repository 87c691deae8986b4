"""Digests pinned on fixed inputs.

`privqa._digest` takes sha256 and the keyed blake2b from CPython's builtin
modules and falls back to `hashlib`; whichever it finds, every cache key,
config digest, per-instance seed and featurizer index must stay the same.
"""

import hashlib

from privqa import _digest
from privqa.gateway import GenerationRequest, cache_key
from privqa.harness import ExperimentConfig, config_digest
from privqa.keywords import stable_seed
from privqa.promptkit import PromptText
from privqa.scorer import FeaturizerConfig, featurize_texts


def test_digests_of_fixed_inputs():
    prompt = PromptText(
        text="Question Keywords: heart\nCandidate Answers: (a) x (b) y\nContext:",
        demo_count=2,
        query_id="q",
    )
    assert cache_key(GenerationRequest(model_id="m", prompt=prompt)) == (
        "2441a072683e7a96bf16e3ba74d856ef6f0b24267fd779d36b0490e68e126467"
    )
    assert config_digest(ExperimentConfig()) == (
        "96bf243702a497d523e339875ce2c8a41edd2d06ee1b38297318b794493c461c"
    )
    assert stable_seed(3, "syn-train-0001") == 1814415110586329016
    indices, _, _ = featurize_texts(["Heart valve"], FeaturizerConfig(dim=2**18, hash_seed=17))
    assert indices.tolist() == [158715, 171307, 121669]


def test_shim_digests_equal_hashlib():
    data = "Heart valve\x1fstenosis".encode("utf-8")
    assert _digest.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    key = (17).to_bytes(8, "little")
    assert (
        _digest.blake2b(data, digest_size=8, key=key).digest()
        == hashlib.blake2b(data, digest_size=8, key=key).digest()
    )
