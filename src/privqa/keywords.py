"""Privacy-restricted question representations and disclosure accounting.

A question never leaves the machine whole. What may be disclosed is a
KeywordSet: gazetteer-matched entity spans, a random contiguous span, or a
random word sample, each paired with word-count bookkeeping so the disclosed
fraction of the question (the privacy budget) can be reported per instance
and per corpus.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from privqa.corpus import Dataset, nfc

METHOD_NER = "NER"
METHOD_RANDOM_SPAN = "RandomSpan"
METHOD_RANDOM_WORDS = "RandomWords"
METHODS = (METHOD_NER, METHOD_RANDOM_SPAN, METHOD_RANDOM_WORDS)

_WORD = re.compile(r"\S+")
_EDGE_PUNCT = ".,;:!?()[]{}<>\"'‘’“”…"


class ExtractionError(Exception):
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


def extract_ner(question: str, gazetteer: Sequence[str]) -> KeywordSet:
    """Match gazetteer terms against the question.

    Longest match wins at each position, matches never overlap, and keywords
    come out in question order. Matching is case-insensitive on words with
    edge punctuation stripped; the emitted keyword is the verbatim surface
    span. Repeated terms are deduplicated to their first occurrence.
    """
    if not gazetteer:
        raise ExtractionError("empty gazetteer")
    q = nfc(question)
    terms: dict[int, set[tuple[str, ...]]] = {}
    for term in gazetteer:
        toks = tuple(nfc(term).lower().split())
        if toks:
            terms.setdefault(len(toks), set()).add(toks)
    max_len = max(terms) if terms else 0

    spans = _word_spans(q)
    cores = [_core(q[s:e]) for s, e in spans]
    keywords: list[str] = []
    starts: list[int] = []
    seen: set[tuple[str, ...]] = set()
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


def extract_random_span(question: str, ratio: float, seed: int) -> KeywordSet:
    """One contiguous window covering round(ratio * question words) words."""
    _check_ratio(ratio)
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
    _check_ratio(ratio)
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


def subsample_keywords(keywords: KeywordSet, ratio: float, seed: int) -> KeywordSet:
    """Keep round(ratio * k) keywords, preserving order.

    Selection takes a prefix of one seeded permutation, so subsets are nested
    across ratios for a fixed seed: everything disclosed at 25% is disclosed
    at 50%, and disclosed word counts grow monotonically with the ratio.
    """
    _check_ratio(ratio)
    k = len(keywords.keywords)
    if k == 0:
        raise ExtractionError("cannot subsample an empty keyword set")
    n = round_half_away(ratio * k)
    perm = random.Random(seed).sample(range(k), k)
    keep = sorted(perm[:n])
    kept_keywords = tuple(keywords.keywords[i] for i in keep)
    return replace(
        keywords,
        keywords=kept_keywords,
        starts=tuple(keywords.starts[i] for i in keep),
        ratio=ratio,
        seed=seed,
        word_count=_count_words(kept_keywords),
    )


def _check_ratio(ratio: float) -> None:
    if not 0.0 <= ratio <= 1.0:
        raise ExtractionError(f"ratio {ratio} outside [0, 1]")


def stable_seed(base: int, *parts: str) -> int:
    """Derive a per-item seed that is identical across runs and processes."""
    digest = hashlib.blake2b(
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
    per_instance: dict[str, float]


def privacy_budget(keywords: KeywordSet, question: str) -> float:
    """Disclosed fraction of one question, in words."""
    qw = len(question_words(question))
    if qw == 0:
        raise ExtractionError("question has no words")
    return keywords.word_count / qw


def corpus_budget_report(dataset: Dataset, keyword_map: dict[str, KeywordSet]) -> BudgetReport:
    """Aggregate budget over a dataset: ratio of average word counts.

    The corpus budget divides the average disclosed word count by the average
    question word count (not the average of per-instance ratios).
    """
    if not dataset.instances:
        raise ExtractionError("empty dataset")
    total_k = 0
    total_q = 0
    per_instance: dict[str, float] = {}
    for inst in dataset.instances:
        ks = keyword_map.get(inst.id)
        if ks is None:
            raise ExtractionError(f"no keyword set for instance {inst.id!r}")
        qw = len(question_words(inst.question))
        if qw == 0:
            raise ExtractionError(f"instance {inst.id!r} has an empty question")
        total_k += ks.word_count
        total_q += qw
        per_instance[inst.id] = ks.word_count / qw
    n = len(dataset.instances)
    avg_k = total_k / n
    avg_q = total_q / n
    return BudgetReport(
        avg_keyword_words=avg_k,
        avg_question_words=avg_q,
        budget=avg_k / avg_q,
        per_instance=per_instance,
    )


def format_budget(budget: float) -> str:
    """Render a budget fraction as a percentage with one decimal, e.g. '42.3%'."""
    return f"{budget * 100:.1f}%"


# ---------------------------------------------------------------------------
# Sidecar files


def load_gazetteer(path: str | Path) -> list[str]:
    """Read a gazetteer file: one term per line, '#' comments and blanks skipped."""
    p = Path(path)
    if not p.exists():
        raise ExtractionError(f"gazetteer file not found: {p}")
    terms = []
    for line in p.read_text(encoding="utf-8").splitlines():
        term = line.strip()
        if term and not term.startswith("#"):
            terms.append(term)
    if not terms:
        raise ExtractionError(f"gazetteer file {p} has no terms")
    return terms


def save_keyword_sets(keyword_map: dict[str, KeywordSet], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for inst_id, ks in keyword_map.items():
            rec = {
                "id": inst_id,
                "keywords": list(ks.keywords),
                "method": ks.method,
                "ratio": ks.ratio,
                "seed": ks.seed,
                "starts": list(ks.starts),
                "word_count": ks.word_count,
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def load_keyword_sets(path: str | Path) -> dict[str, KeywordSet]:
    p = Path(path)
    if not p.exists():
        raise ExtractionError(f"keyword file not found: {p}")
    out: dict[str, KeywordSet] = {}
    with p.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                ks = KeywordSet(
                    keywords=tuple(str(k) for k in rec["keywords"]),
                    method=str(rec["method"]),
                    ratio=float(rec["ratio"]),
                    seed=int(rec["seed"]),
                    starts=tuple(int(s) for s in rec.get("starts", [])),
                    word_count=int(rec["word_count"]),
                )
                out[str(rec["id"])] = ks
            except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
                raise ExtractionError(f"{p}:{lineno}: bad keyword record ({exc})") from exc
    return out
