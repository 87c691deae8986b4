import json
import re
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privqa.corpus import Dataset, QAInstance, nfc
from privqa.keywords import (
    METHOD_NER,
    METHOD_RANDOM_SPAN,
    METHOD_RANDOM_WORDS,
    ExtractionError,
    Gazetteer,
    KeywordSet,
    _EDGE_PUNCT,
    _core,
    _count_words,
    _word_spans,
    corpus_budget_report,
    extract_ner,
    extract_random_span,
    extract_random_words,
    format_budget,
    keyword_order,
    load_gazetteer,
    load_keyword_sets,
    question_words,
    round_half_away,
    save_keyword_sets,
    stable_seed,
    subsample_keywords,
)

GAZETTEER = Gazetteer(["heart", "heart attack", "aspirin", "blood pressure", "troponin"])


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
    with pytest.raises(ExtractionError, match="empty gazetteer"):
        Gazetteer([])
    # a list of blank terms compiles to nothing, so it fails the same way
    with pytest.raises(ExtractionError, match="empty gazetteer"):
        Gazetteer(["  ", "\t"])


def reference_extract_ner(question, gazetteer):
    """The matcher before the compiled Gazetteer: it rebuilt the term index per call."""
    if not gazetteer:
        raise ExtractionError("empty gazetteer")
    q = nfc(question)
    terms = {}
    for term in gazetteer:
        toks = tuple(nfc(term).lower().split())
        if toks:
            terms.setdefault(len(toks), set()).add(toks)
    max_len = max(terms) if terms else 0

    spans = _word_spans(q)
    cores = [_core(q[s:e]) for s, e in spans]
    keywords = []
    starts = []
    seen = set()
    i = 0
    while i < len(spans):
        matched = 0
        for n in range(min(max_len, len(spans) - i), 0, -1):
            cand = tuple(cores[i : i + n])
            if n in terms and cand in terms[n]:
                if cand not in seen:
                    seen.add(cand)
                    first, last = spans[i], spans[i + n - 1]
                    raw = q[first[0] : last[1]]
                    lead = len(raw) - len(raw.lstrip(_EDGE_PUNCT))
                    trail = len(raw) - len(raw.rstrip(_EDGE_PUNCT))
                    keywords.append(raw[lead : len(raw) - trail])
                    starts.append(i)
                matched = n
                break
        i += matched or 1
    return KeywordSet(
        keywords=tuple(keywords),
        method=METHOD_NER,
        ratio=1.0,
        seed=0,
        starts=tuple(starts),
        word_count=_count_words(keywords),
    )


# a small vocabulary, so terms repeat and overlap and questions match them;
# the accented words differ between their NFC and NFD spellings
_VOCAB = ["heart", "attack", "blood", "pressure", "café", "naïve", "Ünit", "x"]
_word = st.builds(
    lambda w, case, form: unicodedata.normalize(form, getattr(w, case)()),
    st.sampled_from(_VOCAB),
    st.sampled_from(["lower", "upper", "title"]),
    st.sampled_from(["NFC", "NFD"]),
)
_term = st.one_of(
    st.lists(_word, min_size=1, max_size=3).map(" ".join),
    st.sampled_from(["", "   ", "heart\tattack", " blood  pressure "]),
)
_question_word = st.builds(
    lambda lead, w, trail, sep: lead + w + trail + sep,
    st.sampled_from(["", "(", '"', "‘", "“"]),
    _word,
    st.sampled_from(["", ",", ".", "?!", ")", "…", "’", "-x"]),
    st.sampled_from([" ", "  ", "\t", "\n"]),
)


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(_term, min_size=1, max_size=8), words=st.lists(_question_word, max_size=14))
@example(terms=["heart", "heart attack", "attack"], words=["Heart ", "ATTACK, ", "heart. "])
@example(terms=["café"], words=[unicodedata.normalize("NFD", "(Café) "), "café "])
def test_compiled_matcher_equals_per_call_matcher(terms, words):
    question = "".join(words)
    want = reference_extract_ner(question, terms)
    if not any(t.split() for t in terms):
        # all-blank lists matched nothing before; now they fail at construction
        assert want.keywords == ()
        with pytest.raises(ExtractionError, match="empty gazetteer"):
            Gazetteer(terms)
        return
    assert extract_ner(question, Gazetteer(terms)) == want


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


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 12), seed=st.integers(0, 2**64 - 1), ratio=st.floats(0.0, 1.0))
def test_subsample_with_a_drawn_order_equals_drawing_it(k, seed, ratio):
    ks = base_keywords(k)
    order = keyword_order(k, seed)
    assert sorted(order) == list(range(k))
    assert subsample_keywords(ks, ratio, seed, order) == subsample_keywords(ks, ratio, seed)


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


def test_corpus_budget_is_ratio_of_averages():
    # 1/10 and 5/10 average to 0.3 per instance, but the corpus budget is
    # (3 avg keyword words) / (10 avg question words)
    ds, kmap = _budget_dataset([10, 10], [1, 5])
    rep = corpus_budget_report(ds, kmap)
    assert rep.budget == pytest.approx(0.3)


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


def test_keyword_sets_reject_repeated_ids(tmp_path):
    path = tmp_path / "kw.jsonl"
    save_keyword_sets({"q1": extract_ner("he took aspirin", GAZETTEER)}, path)
    path.write_text(path.read_text(encoding="utf-8") * 2, encoding="utf-8")
    with pytest.raises(ExtractionError, match=r"kw\.jsonl:2: duplicate id 'q1'"):
        load_keyword_sets(path)


def test_keyword_sets_reject_a_wrong_word_count(tmp_path):
    path = tmp_path / "kw.jsonl"
    save_keyword_sets({"q1": extract_random_span("one two three four", 0.5, seed=2)}, path)
    rec = json.loads(path.read_text(encoding="utf-8"))
    rec["word_count"] = 3
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    message = r"kw\.jsonl:1: instance 'q1': word_count 3 but the keywords have 2"
    with pytest.raises(ExtractionError, match=message):
        load_keyword_sets(path)


def test_keyword_sets_corrupt_line(tmp_path):
    path = tmp_path / "kw.jsonl"
    path.write_text('{"id": "q1"}\n', encoding="utf-8")
    with pytest.raises(ExtractionError, match=r":1:"):
        load_keyword_sets(path)


@pytest.mark.parametrize(
    "record",
    [
        # a string would load as one keyword per character, with a matching word count
        {"keywords": "ab", "word_count": 2},
        {"keywords": ["ab"], "starts": "0", "word_count": 1},
    ],
)
def test_keyword_sets_reject_a_string_for_a_list(tmp_path, record):
    path = tmp_path / "kw.jsonl"
    rec = {"id": "q1", "method": "NER", "ratio": 1.0, "seed": 0, **record}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    message = r"kw\.jsonl:1: instance 'q1': field '(keywords|starts)': expected a list of "
    with pytest.raises(ExtractionError, match=message):
        load_keyword_sets(path)


@pytest.mark.parametrize("field", ["seed", "word_count", "starts"])
def test_keyword_sets_reject_an_infinite_number(tmp_path, field):
    path = tmp_path / "kw.jsonl"
    save_keyword_sets({"q1": extract_random_span("one two three four", 0.5, seed=2)}, path)
    rec = json.loads(path.read_text(encoding="utf-8"))
    rec[field] = "INF" if field != "starts" else ["INF"]
    path.write_text(json.dumps(rec).replace('"INF"', "1e999") + "\n", encoding="utf-8")
    with pytest.raises(ExtractionError, match=rf"kw\.jsonl:1: instance 'q1': field '{field}': expected "):
        load_keyword_sets(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        # each loaded: the seed as 1, the ratio as nan and the method as "None"
        ("seed", 1.7, "field 'seed': expected an integer, got 1.7"),
        ("seed", True, "field 'seed': expected an integer, got true"),
        ("ratio", "nan", "field 'ratio': expected a finite number, got \"nan\""),
        ("method", None, "field 'method': expected a string, got null"),
        # and these loaded as they stand
        ("ratio", 1.5, "ratio 1.5 outside [0, 1]"),
        ("method", "Bogus", "unknown method 'Bogus'; expected one of"),
        ("starts", [-3], "negative start in [-3]"),
    ],
)
def test_keyword_record_field_is_checked_at_load(tmp_path, field, value, message):
    path = tmp_path / "kw.jsonl"
    save_keyword_sets({"q1": extract_random_span("one two three four", 0.5, seed=2)}, path)
    rec = {**json.loads(path.read_text(encoding="utf-8")), field: value}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(ExtractionError, match=re.escape(f"{path}:1: instance 'q1': {message}")):
        load_keyword_sets(path)
