import json

import pytest

from privqa.corpus import Dataset, QAInstance
from privqa.keywords import (
    METHOD_NER,
    METHOD_RANDOM_SPAN,
    METHOD_RANDOM_WORDS,
    ExtractionError,
    KeywordSet,
    corpus_budget_report,
    extract_ner,
    extract_random_span,
    extract_random_words,
    format_budget,
    load_gazetteer,
    load_keyword_sets,
    privacy_budget,
    question_words,
    round_half_away,
    save_keyword_sets,
    stable_seed,
    subsample_keywords,
)

GAZETTEER = ["heart", "heart attack", "aspirin", "blood pressure", "troponin"]


def test_question_words_attach_punctuation():
    assert question_words("A 45-year-old man, with chest pain.") == [
        "A",
        "45-year-old",
        "man,",
        "with",
        "chest",
        "pain.",
    ]


def test_round_half_away():
    assert [round_half_away(x) for x in (0.0, 0.4, 0.5, 1.5, 2.4, 2.5, 3.5)] == [
        0,
        0,
        1,
        2,
        2,
        3,
        4,
    ]


def test_extract_ner_longest_match_wins():
    ks = extract_ner("He had a heart attack yesterday.", GAZETTEER)
    assert ks.keywords == ("heart attack",)
    assert ks.word_count == 2
    assert ks.method == METHOD_NER


def test_extract_ner_case_and_punctuation():
    ks = extract_ner("Aspirin, then Troponin!", GAZETTEER)
    # surface form is kept verbatim, edge punctuation stripped
    assert ks.keywords == ("Aspirin", "Troponin")


def test_extract_ner_dedup_first_occurrence():
    ks = extract_ner("aspirin before aspirin after aspirin", GAZETTEER)
    assert ks.keywords == ("aspirin",)
    assert ks.starts == (0,)


def test_extract_ner_question_order_and_no_overlap():
    ks = extract_ner("blood pressure then heart attack then heart", GAZETTEER)
    # "heart" inside "heart attack" is consumed by the longer match; the later
    # bare "heart" is a separate first occurrence.
    assert ks.keywords == ("blood pressure", "heart attack", "heart")
    assert ks.word_count == 5


def test_extract_ner_empty_gazetteer():
    with pytest.raises(ExtractionError):
        extract_ner("anything", [])


def test_random_span_window():
    q = "one two three four five six seven eight"
    ks = extract_random_span(q, 0.5, seed=5)
    assert ks.word_count == 4
    assert len(ks.keywords) == 1
    assert ks.keywords[0] in q  # contiguous slice
    assert extract_random_span(q, 0.5, seed=5) == ks


def test_random_words_order_kept():
    q = "one two three four five six seven eight"
    ks = extract_random_words(q, 0.5, seed=9)
    assert ks.word_count == 4
    order = [q.split().index(w) for w in ks.keywords]
    assert order == sorted(order)
    assert len(set(ks.keywords)) == 4


def test_ratio_out_of_range():
    with pytest.raises(ExtractionError):
        extract_random_words("a b c", 1.5, seed=0)


def base_keywords(k=8):
    words = tuple(f"kw{i}" for i in range(k))
    return KeywordSet(
        keywords=words,
        method=METHOD_NER,
        ratio=1.0,
        seed=0,
        starts=tuple(range(k)),
        word_count=k,
    )


def test_subsample_counts_and_order():
    ks = base_keywords(8)
    for ratio, expect in ((0.25, 2), (0.5, 4), (0.75, 6), (1.0, 8)):
        sub = subsample_keywords(ks, ratio, seed=11)
        assert sub.word_count == expect
        assert sub.ratio == ratio
        positions = [ks.keywords.index(w) for w in sub.keywords]
        assert positions == sorted(positions)


def test_subsample_nested_across_ratios():
    # a fixed seed discloses nested subsets as the ratio grows
    ks = base_keywords(8)
    previous: set = set()
    for ratio in (0.25, 0.5, 0.75, 1.0):
        current = set(subsample_keywords(ks, ratio, seed=23).keywords)
        assert previous <= current
        previous = current


def test_subsample_empty_raises():
    empty = KeywordSet((), METHOD_NER, 1.0, 0, (), 0)
    with pytest.raises(ExtractionError):
        subsample_keywords(empty, 0.5, seed=0)


def test_stable_seed_frozen():
    # cross-process determinism; these values must never drift
    assert stable_seed(0, "x") == 18440893294668129948
    assert stable_seed(7, "syn-dev-0001") == 15134781005897976875
    assert stable_seed(0, "x") != stable_seed(0, "y")


def _budget_dataset(question_lengths, keyword_lengths):
    instances = []
    kmap = {}
    for i, (qn, kn) in enumerate(zip(question_lengths, keyword_lengths)):
        q = " ".join(f"w{j}" for j in range(qn))
        inst = QAInstance(
            id=f"b{i}", question=q, choices={"a": "x", "b": "y"}, gold="a"
        )
        instances.append(inst)
        words = tuple(f"w{j}" for j in range(kn))
        kmap[inst.id] = KeywordSet(words, METHOD_NER, 1.0, 0, tuple(range(kn)), kn)
    return Dataset("fix", "test", tuple(instances)), kmap


def test_privacy_budget_single():
    ks = KeywordSet(("a", "b c"), METHOD_NER, 1.0, 0, (0, 2), 3)
    assert privacy_budget(ks, "a x b c y z") == 0.5


def test_corpus_budget_is_ratio_of_averages():
    # 1/10 and 5/10 average to 0.3 per instance, but the corpus budget is
    # (3 avg keyword words) / (10 avg question words)
    ds, kmap = _budget_dataset([10, 10], [1, 5])
    rep = corpus_budget_report(ds, kmap)
    assert rep.budget == pytest.approx(0.3)
    assert rep.per_instance == {"b0": 0.1, "b1": 0.5}


def test_budget_fixture_first_row():
    # avg 49.1 keyword words over avg 116.2 question words
    ds, kmap = _budget_dataset([116] * 8 + [117] * 2, [49] * 9 + [50] * 1)
    rep = corpus_budget_report(ds, kmap)
    assert rep.avg_question_words == pytest.approx(116.2)
    assert rep.avg_keyword_words == pytest.approx(49.1)
    assert format_budget(rep.budget) == "42.3%"


def test_budget_fixture_second_row():
    # avg 50.7 keyword words over avg 119.6 question words
    ds, kmap = _budget_dataset([119] * 4 + [120] * 6, [50] * 3 + [51] * 7)
    rep = corpus_budget_report(ds, kmap)
    assert rep.avg_question_words == pytest.approx(119.6)
    assert rep.avg_keyword_words == pytest.approx(50.7)
    assert format_budget(rep.budget) == "42.4%"


def test_budget_missing_keywords_raises():
    ds, kmap = _budget_dataset([10, 10], [1, 5])
    del kmap["b1"]
    with pytest.raises(ExtractionError, match="b1"):
        corpus_budget_report(ds, kmap)


def test_format_budget():
    assert format_budget(0.5) == "50.0%"
    assert format_budget(0.42254) == "42.3%"
    assert format_budget(0.0) == "0.0%"


def test_gazetteer_loader(tmp_path):
    path = tmp_path / "gaz.txt"
    path.write_text("# comment\nheart attack\n\naspirin\n", encoding="utf-8")
    assert load_gazetteer(path) == ["heart attack", "aspirin"]
    empty = tmp_path / "empty.txt"
    empty.write_text("# only comments\n", encoding="utf-8")
    with pytest.raises(ExtractionError):
        load_gazetteer(empty)


def test_keyword_sets_round_trip(tmp_path):
    kmap = {
        "q1": extract_ner("he took aspirin", GAZETTEER),
        "q2": extract_random_words("one two three four", 0.5, seed=2),
    }
    path = tmp_path / "kw.jsonl"
    save_keyword_sets(kmap, path)
    assert load_keyword_sets(path) == kmap


def test_keyword_sets_corrupt_line(tmp_path):
    path = tmp_path / "kw.jsonl"
    path.write_text('{"id": "q1"}\n', encoding="utf-8")
    with pytest.raises(ExtractionError, match=r":1:"):
        load_keyword_sets(path)
