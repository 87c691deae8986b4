"""
Priming a response cache and replaying it offline
=================================================

"""

import tempfile
from pathlib import Path

from privqa.gateway import Gateway, GenerationRequest
from privqa.promptkit import build_prompt
from privqa.synthetic import SyntheticContextProvider, SyntheticSpec, build_corpus

spec = SyntheticSpec(seed=1, train_size=10, dev_size=2, test_size=2)
corpus = build_corpus(spec)
oracle = SyntheticContextProvider(spec)
demos = oracle.demonstrations(corpus["train"], count=2)

with tempfile.TemporaryDirectory() as tmp:
    cache = Path(tmp) / "cache.jsonl"

    # mock mode answers from canned completions and persists every record,
    # so a cache can be primed without touching the network
    canned = oracle.mock_completions(corpus["train"], ratio=1.0, seed=0)
    gw = Gateway(cache, mock_completions=canned)
    for inst in corpus["train"].instances:
        ks = oracle.keywords_for(inst)
        prompt = build_prompt(demos, ks.keywords, inst.choices, query_id=inst.id)
        gw.complete(GenerationRequest(model_id="gpt-3.5-turbo", prompt=prompt), mode="mock")
    print("cached records:", len(cache.read_text().splitlines()))

    # replay mode serves the same requests from the cache alone; a miss is an
    # error rather than a network call
    gw2 = Gateway(cache)
    for inst in corpus["train"].instances:
        ks = oracle.keywords_for(inst)
        prompt = build_prompt(demos, ks.keywords, inst.choices, query_id=inst.id)
        record = gw2.complete(
            GenerationRequest(model_id="gpt-3.5-turbo", prompt=prompt), mode="replay"
        )
        print(inst.id, record.source, repr(record.completion[:40]))
    print("transport calls:", gw2.transport_calls)
