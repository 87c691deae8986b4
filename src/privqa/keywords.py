"""Privacy-restricted question representations and disclosure accounting.

A question never leaves the machine whole. What may be disclosed is a
KeywordSet: gazetteer-matched entity spans, a random contiguous span, or a
random word sample, each paired with word-count bookkeeping so the disclosed
fraction of the question (the privacy budget) can be reported per instance
and per corpus. A term list is compiled once into a Gazetteer; entity
extraction then only looks question n-grams up in it.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from privqa._digest import blake2b
from privqa.corpus import Dataset, nfc
from privqa.errors import PrivqaError, read_records, read_text, write_records

METHOD_NER = "NER"
METHOD_RANDOM_SPAN = "RandomSpan"
METHOD_RANDOM_WORDS = "RandomWords"
METHODS = (METHOD_NER, METHOD_RANDOM_SPAN, METHOD_RANDOM_WORDS)

_WORD = re.compile(r"\S+")
_EDGE_PUNCT = ".,;:!?()[]{}<>\"'‘’“”…"


class ExtractionError(PrivqaError):
    """Keyword extraction or budget accounting failed."""


def question_words(question: str) -> list[str]:
    """Whitespace-delimited words of the normalized question, punctuation attached."""
    return nfc(question).split()


def round_half_away(x: float) -> int:
    """round() with ties away from zero, for non-negative x."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class KeywordSet:
    """Disclosed keywords for one question, with extraction metadata.

    `starts` holds each keyword's first word index in the question;
    `word_count` is the total number of disclosed words.
    """

    keywords: tuple[str, ...]
    method: str
    ratio: float
    seed: int
    starts: tuple[int, ...]
    word_count: int


def _count_words(keywords: Iterable[str]) -> int:
    return sum(len(k.split()) for k in keywords)


def _word_spans(question: str) -> list[tuple[int, int]]:
    return [(m.start(), m.end()) for m in _WORD.finditer(question)]


def _core(word: str) -> str:
    return word.strip(_EDGE_PUNCT).lower()


# ---------------------------------------------------------------------------
# Extraction methods


class Gazetteer:
    """Gazetteer terms compiled for matching, built once per term list.

    Each term is NFC-normalized, lowercased and split on whitespace; blank
    terms are dropped. A term's length is part of its tuple, so one set
    holds every length.
    """

    def __init__(self, terms: Iterable[str]):
        self.terms = frozenset(filter(None, (tuple(nfc(t).lower().split()) for t in terms)))
        if not self.terms:
            raise ExtractionError("empty gazetteer")
        self.max_len = max(map(len, self.terms))


def extract_ner(question: str, gazetteer: Gazetteer) -> KeywordSet:
    """Match gazetteer terms against the question.

    Longest match wins at each position, matches never overlap, and keywords
    come out in question order. Matching is case-insensitive on words with
    edge punctuation stripped; the emitted keyword is the verbatim surface
    span. Repeated terms are deduplicated to their first occurrence.
    """
    q = nfc(question)
    spans = _word_spans(q)
    cores = [_core(q[s:e]) for s, e in spans]
    keywords: list[str] = []
    starts: list[int] = []
    seen: set[tuple[str, ...]] = set()
    i = 0
    while i < len(spans):
        matched = 0
        for n in range(min(gazetteer.max_len, len(spans) - i), 0, -1):
            cand = tuple(cores[i : i + n])
            if cand in gazetteer.terms:
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


def extract_random_span(question: str, ratio: float, seed: int) -> KeywordSet:
    """One contiguous window covering round(ratio * question words) words."""
    check_ratio(ratio)
    q = nfc(question)
    spans = _word_spans(q)
    if not spans:
        raise ExtractionError("question has no words")
    n = round_half_away(ratio * len(spans))
    if n == 0:
        return KeywordSet((), METHOD_RANDOM_SPAN, ratio, seed, (), 0)
    start = random.Random(seed).randint(0, len(spans) - n)
    text = q[spans[start][0] : spans[start + n - 1][1]]
    return KeywordSet(
        keywords=(text,),
        method=METHOD_RANDOM_SPAN,
        ratio=ratio,
        seed=seed,
        starts=(start,),
        word_count=n,
    )


def extract_random_words(question: str, ratio: float, seed: int) -> KeywordSet:
    """round(ratio * question words) words sampled without replacement.

    Sampled positions are re-sorted so the surviving words keep their
    question order.
    """
    check_ratio(ratio)
    q = nfc(question)
    spans = _word_spans(q)
    if not spans:
        raise ExtractionError("question has no words")
    n = round_half_away(ratio * len(spans))
    idxs = sorted(random.Random(seed).sample(range(len(spans)), n))
    words = tuple(q[s:e] for s, e in (spans[i] for i in idxs))
    return KeywordSet(
        keywords=words,
        method=METHOD_RANDOM_WORDS,
        ratio=ratio,
        seed=seed,
        starts=tuple(idxs),
        word_count=n,
    )


def keyword_order(k: int, seed: int) -> list[int]:
    """The seeded permutation of k keyword indices that subsampling keeps a prefix of.

    It depends on neither the ratio nor the keywords themselves, so a caller
    that subsamples one set at several ratios may draw it once.
    """
    return random.Random(seed).sample(range(k), k)


def subsample_keywords(
    keywords: KeywordSet, ratio: float, seed: int, order: Sequence[int] | None = None
) -> KeywordSet:
    """Keep round(ratio * k) keywords, preserving order.

    Selection takes a prefix of one seeded permutation, so subsets are nested
    across ratios for a fixed seed: everything disclosed at 25% is disclosed
    at 50%, and disclosed word counts grow monotonically with the ratio.
    `order` is that permutation, `keyword_order(k, seed)`, when the caller
    has already drawn it.
    """
    check_ratio(ratio)
    k = len(keywords.keywords)
    if k == 0:
        raise ExtractionError("cannot subsample an empty keyword set")
    if order is None:
        order = keyword_order(k, seed)
    n = round_half_away(ratio * k)
    keep = sorted(order[:n])
    kept_keywords = tuple(keywords.keywords[i] for i in keep)
    return replace(
        keywords,
        keywords=kept_keywords,
        starts=tuple(keywords.starts[i] for i in keep),
        ratio=ratio,
        seed=seed,
        word_count=_count_words(kept_keywords),
    )


def check_ratio(ratio: float) -> None:
    """Refuse a ratio outside [0, 1], nan included."""
    if not 0.0 <= ratio <= 1.0:
        raise ExtractionError(f"ratio {ratio} outside [0, 1]")


def stable_seed(base: int, *parts: str) -> int:
    """Derive a per-item seed that is identical across runs and processes."""
    digest = blake2b(
        ":".join([str(base), *parts]).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


# ---------------------------------------------------------------------------
# Privacy budgets


@dataclass(frozen=True)
class BudgetReport:
    """Corpus-level disclosure accounting."""

    avg_keyword_words: float
    avg_question_words: float
    budget: float


def corpus_budget_report(dataset: Dataset, keyword_map: dict[str, KeywordSet]) -> BudgetReport:
    """Aggregate budget over a dataset: ratio of average word counts.

    The corpus budget divides the average disclosed word count by the average
    question word count (not the average of per-instance ratios).
    """
    if not dataset.instances:
        raise ExtractionError("empty dataset")
    total_k = 0
    total_q = 0
    for inst in dataset.instances:
        ks = keyword_map.get(inst.id)
        if ks is None:
            raise ExtractionError(f"no keyword set for instance {inst.id!r}")
        qw = len(question_words(inst.question))
        if qw == 0:
            raise ExtractionError(f"instance {inst.id!r} has an empty question")
        total_k += ks.word_count
        total_q += qw
    n = len(dataset.instances)
    avg_k = total_k / n
    avg_q = total_q / n
    return BudgetReport(
        avg_keyword_words=avg_k,
        avg_question_words=avg_q,
        budget=avg_k / avg_q,
    )


def format_budget(budget: float) -> str:
    """Render a budget fraction as a percentage with one decimal, e.g. '42.3%'."""
    return f"{budget * 100:.1f}%"


# ---------------------------------------------------------------------------
# Sidecar files


def load_gazetteer(path: str | Path) -> list[str]:
    """Read a gazetteer file: one term per line, '#' comments and blanks skipped."""
    terms = []
    for line in read_text(path, ExtractionError).splitlines():
        term = line.strip()
        if term and not term.startswith("#"):
            terms.append(term)
    if not terms:
        raise ExtractionError(f"gazetteer file {path} has no terms")
    return terms


def save_keyword_sets(keyword_map: dict[str, KeywordSet], path: str | Path) -> None:
    # the record's keys after "id" are KeywordSet's fields, in their order
    write_records(path, ({"id": inst_id, **asdict(ks)} for inst_id, ks in keyword_map.items()))


def load_keyword_sets(path: str | Path) -> dict[str, KeywordSet]:
    def convert(rec: dict, lineno: int) -> tuple[str, KeywordSet]:
        try:
            inst_id = str(rec["id"])
            keywords, starts = rec["keywords"], rec.get("starts", [])
            if not (isinstance(keywords, list) and isinstance(starts, list)):
                raise TypeError("keywords and starts must be JSON lists")
            ks = KeywordSet(
                keywords=tuple(str(k) for k in keywords),
                method=str(rec["method"]),
                ratio=float(rec["ratio"]),
                seed=int(rec["seed"]),
                starts=tuple(int(s) for s in starts),
                word_count=int(rec["word_count"]),
            )
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise ExtractionError(f"bad keyword record ({exc})") from exc
        words = _count_words(ks.keywords)
        if ks.word_count != words:
            raise ExtractionError(f"word_count {ks.word_count} but the keywords have {words} words")
        return inst_id, ks

    return read_records(path, ExtractionError, convert)
