"""
Scoring through an external process
===================================

Any executable speaking the line-oriented JSON protocol can replace the
native scorer: handshake {"protocol": 1} on stdout, then one response
per request echoing the request id with one score per input text.
"""

import sys

from privqa.contexts import ContextView
from privqa.plugin import ExternalScorer, external_score
from privqa.synthetic import SyntheticContextProvider, SyntheticSpec, build_corpus

spec = SyntheticSpec(seed=2, train_size=5, dev_size=1, test_size=1)
corpus = build_corpus(spec)
oracle = SyntheticContextProvider(spec)
augmented, _ = oracle.provide(corpus["train"], 1.0, seed=0)

# the bundled stub scores each input by its character count
with ExternalScorer([sys.executable, "-m", "privqa.plugin_stub"]) as scorer:
    for aug in augmented:
        sv = external_score(scorer, aug, ContextView.FULL)
        picked = sv.labels[sv.scores.index(max(sv.scores))]
        print(aug.instance.id, "gold", aug.instance.gold, "stub picks", picked)
        print("  probs", " ".join("%.3f" % p for p in sv.probs))
