"""Privacy budget accounting on the synthetic corpus."""

from privqa.keywords import (
    METHOD_RANDOM_SPAN,
    METHOD_RANDOM_WORDS,
    Gazetteer,
    corpus_budget_report,
    extract_ner,
    format_budget,
)
from privqa.synthetic import SyntheticContextProvider, SyntheticSpec, build_corpus, gazetteer_tokens

spec = SyntheticSpec(seed=0, train_size=100, dev_size=20, test_size=20)
corpus = build_corpus(spec)
provider = SyntheticContextProvider(spec)
# the term list is compiled once and then matched against every question
gazetteer = Gazetteer(gazetteer_tokens(spec))

inst = corpus["train"].instances[0]
print("question:", inst.question)

# gazetteer extraction discloses only the matched terms, never the rest
ks = extract_ner(inst.question, gazetteer)
print("disclosed:", ", ".join(ks.keywords))
print("that is %d of %d words" % (ks.word_count, len(inst.question.split())))

# the corpus budget is a ratio of averages: average disclosed words over
# average question words
for ratio in (0.25, 0.5, 0.75, 1.0):
    kmap = provider.keyword_map(corpus["train"], ratio, seed=0)
    report = corpus_budget_report(corpus["train"], kmap)
    print(
        "ratio %.2f -> budget %s (%.2f of %.2f words)"
        % (ratio, format_budget(report.budget), report.avg_keyword_words, report.avg_question_words)
    )

# baseline representations are sampled to land on the same budget
for method in (METHOD_RANDOM_SPAN, METHOD_RANDOM_WORDS):
    kmap = provider.keyword_map(corpus["train"], 0.5, seed=0, method=method)
    report = corpus_budget_report(corpus["train"], kmap)
    print(method, "at matched budget:", format_budget(report.budget))
