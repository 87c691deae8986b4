import random

from privqa.contexts import (
    CONTEXT_HEAD,
    ContextView,
    apply_view,
    ftcr_admit,
    parse_generation,
    serialize_context,
)
from privqa.corpus import Dataset
from privqa.gateway import GenerationRecord
from privqa.harness import (
    CommandMemo,
    ExperimentConfig,
    run_budget_sweep,
    run_experiment,
    run_representation_compare,
)
from privqa.keywords import (
    METHOD_RANDOM_SPAN,
    METHOD_RANDOM_WORDS,
    corpus_budget_report,
    question_words,
)
from privqa.synthetic import (
    INFORMED_RELATION,
    MARKER,
    UNINFORMED_RELATION,
    SyntheticContextProvider,
    SyntheticSpec,
    build_corpus,
    filler_tokens,
    gazetteer_tokens,
)

SPEC = SyntheticSpec(seed=3, train_size=40, dev_size=20, test_size=20)


def test_corpus_sizes_and_determinism():
    sets1 = build_corpus(SPEC)
    sets2 = build_corpus(SPEC)
    assert [len(sets1[s]) for s in ("train", "dev", "test")] == [40, 20, 20]
    assert sets1["train"].instances == sets2["train"].instances
    assert sets1["test"].instances == sets2["test"].instances
    other = build_corpus(SyntheticSpec(seed=4, train_size=40, dev_size=20, test_size=20))
    assert other["train"].instances != sets1["train"].instances


def test_question_composition():
    gaz = set(gazetteer_tokens(SPEC))
    fil = set(filler_tokens(SPEC))
    assert not gaz & fil
    for inst in build_corpus(SPEC)["train"].instances:
        words = question_words(inst.question)
        assert len(words) == 16
        assert sum(w in gaz for w in words) == 8
        assert sum(w in fil for w in words) == 8
        assert inst.meta["key"] in gaz
        assert inst.meta["key"] in words


def test_extraction_recovers_planted_keywords():
    provider = SyntheticContextProvider(SPEC)
    for inst in build_corpus(SPEC)["dev"].instances:
        ks = provider.keywords_for(inst)
        assert len(ks.keywords) == 8
        assert ks.word_count == 8
        gaz = set(gazetteer_tokens(SPEC))
        assert all(k in gaz for k in ks.keywords)


def test_budget_is_half_of_ratio():
    provider = SyntheticContextProvider(SPEC)
    data = build_corpus(SPEC)["train"]
    for ratio, expect in [(0.25, 0.125), (0.5, 0.25), (0.75, 0.375), (1.0, 0.5)]:
        kmap = provider.keyword_map(data, ratio, seed=SPEC.seed)
        report = corpus_budget_report(data, kmap)
        assert abs(report.budget - expect) < 1e-12
        assert report.avg_question_words == 16.0


def test_disclosures_nest_across_ratios():
    provider = SyntheticContextProvider(SPEC)
    data = build_corpus(SPEC)["train"]
    maps = {
        r: provider.keyword_map(data, r, seed=SPEC.seed) for r in (0.25, 0.5, 0.75, 1.0)
    }
    ratios = (0.25, 0.5, 0.75, 1.0)
    for inst in data.instances:
        sets = [set(maps[r][inst.id].keywords) for r in ratios]
        for small, big in zip(sets, sets[1:]):
            assert small <= big


def test_context_gating_law():
    # marker, relation, and decision all flip together on key disclosure
    provider = SyntheticContextProvider(SPEC)
    data = build_corpus(SPEC)["train"]
    kmap = provider.keyword_map(data, 0.5, seed=SPEC.seed)
    informed_seen = uninformed_seen = 0
    for inst in data.instances:
        ks = kmap[inst.id]
        ctx = provider.oracle_context(inst, ks)
        informed = inst.meta["key"] in ks.keywords
        gold_specific = ctx.specific[inst.gold]
        if informed:
            informed_seen += 1
            assert MARKER in gold_specific.knowledge
            assert gold_specific.relation == INFORMED_RELATION
            assert ctx.decision == frozenset((inst.gold,))
            assert ftcr_admit(ctx, inst.gold)
        else:
            uninformed_seen += 1
            assert MARKER not in gold_specific.knowledge
            assert gold_specific.relation == UNINFORMED_RELATION
            assert ctx.decision != frozenset((inst.gold,))
            assert not ftcr_admit(ctx, inst.gold)
        for label in inst.labels():
            if label != inst.gold:
                assert MARKER not in ctx.specific[label].knowledge
                assert ctx.specific[label].relation == UNINFORMED_RELATION
    assert informed_seen > 0
    assert uninformed_seen > 0


def test_uninformed_decisions_vary_in_shape():
    provider = SyntheticContextProvider(SPEC)
    data = build_corpus(SyntheticSpec(seed=3, train_size=120, dev_size=1, test_size=1))[
        "train"
    ]
    kmap = provider.keyword_map(data, 0.25, seed=SPEC.seed)
    sizes = set()
    for inst in data.instances:
        ks = kmap[inst.id]
        if inst.meta["key"] in ks.keywords:
            continue
        ctx = provider.oracle_context(inst, ks)
        sizes.add(len(ctx.decision))
    assert {0, 1, 2} <= sizes


def test_oracle_round_trips_through_parser():
    provider = SyntheticContextProvider(SPEC)
    data = build_corpus(SPEC)["dev"]
    kmap = provider.keyword_map(data, 0.5, seed=SPEC.seed)
    for inst in data.instances:
        ks = kmap[inst.id]
        text = serialize_context(provider.oracle_context(inst, ks), inst.labels())
        assert parse_generation(text, inst.labels()) == provider.oracle_context(inst, ks)


def test_completion_reconstructs_generation():
    provider = SyntheticContextProvider(SPEC)
    inst = build_corpus(SPEC)["dev"].instances[0]
    ks = provider.keywords_for(inst)
    completion = provider.completion_for(inst, ks)
    full = serialize_context(provider.oracle_context(inst, ks), inst.labels())
    assert CONTEXT_HEAD + completion == full
    records = provider.completions([(inst, ks)])
    assert list(records) == [GenerationRecord(f"synthetic:{inst.id}", completion, "synthetic")]


def test_augment_matches_oracle():
    provider = SyntheticContextProvider(SPEC)
    inst = build_corpus(SPEC)["dev"].instances[1]
    ks = provider.keywords_for(inst)
    [aug] = provider.stream([Dataset("synthetic", "dev", (inst,))], [{inst.id: ks}])
    assert aug.context == provider.oracle_context(inst, ks)
    assert aug.generation_id == f"synthetic:{inst.id}"
    assert aug.instance is inst


def test_mock_completions_keyed_by_id():
    provider = SyntheticContextProvider(SPEC)
    data = build_corpus(SPEC)["test"]
    mocks = provider.mock_completions(data, 1.0, seed=SPEC.seed)
    assert set(mocks) == {inst.id for inst in data.instances}
    assert all(not v.startswith("Context:") for v in mocks.values())


def test_random_baselines_disclose_question_fraction():
    provider = SyntheticContextProvider(SPEC)
    data = build_corpus(SPEC)["train"]
    for method in (METHOD_RANDOM_SPAN, METHOD_RANDOM_WORDS):
        kmap = provider.keyword_map(data, 0.5, seed=SPEC.seed, method=method)
        report = corpus_budget_report(data, kmap)
        assert abs(report.budget - 0.5) < 1e-12


def test_views_expose_expected_fields():
    provider = SyntheticContextProvider(SPEC)
    inst = build_corpus(SPEC)["train"].instances[0]
    ctx = provider.oracle_context(inst, provider.keywords_for(inst))
    overall, specific = apply_view(ctx, ContextView.FULL)
    assert overall == ctx.overall
    assert specific[inst.gold].endswith(INFORMED_RELATION)
    overall, specific = apply_view(ctx, ContextView.NO_RELATION)
    assert INFORMED_RELATION not in specific[inst.gold]
    assert UNINFORMED_RELATION not in specific["a" if inst.gold != "a" else "b"]
    overall, specific = apply_view(ctx, ContextView.NO_CONTEXT)
    assert overall == ""
    assert all(v == "" for v in specific.values())


def test_demonstrations_come_from_dataset_head():
    provider = SyntheticContextProvider(SPEC)
    data = build_corpus(SPEC)["train"]
    demos = provider.demonstrations(data, count=3)
    assert len(demos) == 3
    assert demos[0].choices == data.instances[0].choices
    assert len(demos[0].keywords) == 8


def test_full_disclosure_always_informs():
    provider = SyntheticContextProvider(SPEC)
    data = build_corpus(SPEC)["dev"]
    kmap = provider.keyword_map(data, 1.0, seed=SPEC.seed)
    for inst in data.instances:
        ctx = provider.oracle_context(inst, kmap[inst.id])
        assert ctx.decision == frozenset((inst.gold,))


def test_specific_noise_is_stable():
    provider = SyntheticContextProvider(SPEC)
    inst = build_corpus(SPEC)["train"].instances[2]
    ks = provider.keywords_for(inst)
    assert provider.oracle_context(inst, ks) == provider.oracle_context(inst, ks)


def test_uninformed_decision_reproducible():
    provider = SyntheticContextProvider(SPEC)
    data = build_corpus(SPEC)["train"]
    empty = provider.keyword_map(data, 0.25, seed=SPEC.seed)
    rng = random.Random(0)
    picks = rng.sample(list(data.instances), 10)
    for inst in picks:
        c1 = provider.oracle_context(inst, empty[inst.id])
        c2 = provider.oracle_context(inst, empty[inst.id])
        assert c1.decision == c2.decision


def test_shared_memo_completions_equal_memo_less_ones():
    # no draw depends on the disclosure, so one command memo across the
    # ratios changes no completion byte
    provider = SyntheticContextProvider(SPEC)
    corpus = build_corpus(SPEC)
    memo = CommandMemo()
    for ratio in (0.25, 0.5, 0.75, 1.0):
        for data in corpus.values():
            kmap = provider.keyword_map(data, ratio, SPEC.seed, memo=memo)
            disclosed = [(inst, kmap[inst.id]) for inst in data.instances]
            shared = list(provider.completions(disclosed, memo))
            assert shared == list(provider.completions(disclosed))
    assert len(memo.draws) == sum(len(ds) for ds in corpus.values())


class MemoSpy(SyntheticContextProvider):
    """The oracle, noting each completions call's memo and each draw it makes."""

    def __init__(self, spec):
        super().__init__(spec)
        self.seen = []
        self.drawn = []

    def completions(self, disclosed, memo=None):
        self.seen.append((memo, len(memo.draws)))
        return super().completions(disclosed, memo)

    def _draws(self, instance):
        self.drawn.append(instance.id)
        return super()._draws(instance)


def test_each_command_draws_once_from_a_fresh_memo():
    corpus = build_corpus(SPEC)
    provider = MemoSpy(SPEC)
    config = ExperimentConfig(max_epochs=1, featurizer_dim=2**12)
    commands = [
        lambda: run_budget_sweep(config, corpus, provider, ratios=(0.25, 0.5, 1.0)),
        lambda: run_budget_sweep(config, corpus, provider, ratios=(0.25, 0.5, 1.0)),
        lambda: run_representation_compare(config, corpus, provider),
        lambda: run_experiment(config, corpus, provider),
    ]
    memos = []
    for command in commands:
        provider.seen.clear()
        provider.drawn.clear()
        command()
        first, known = provider.seen[0]
        assert known == 0  # the command starts from an empty memo
        assert all(memo is first for memo, _ in provider.seen)
        assert sorted(provider.drawn) == sorted(set(provider.drawn))
        memos.append(first)
    assert len({id(memo) for memo in memos}) == len(memos)
