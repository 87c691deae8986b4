import json
import re

import pytest

from privqa.contexts import ParsedContext, SpecificContext
from privqa.corpus import (
    AugmentedInstance,
    Dataset,
    DatasetFormatError,
    QAInstance,
    ingest_records,
    load_augmented,
    load_dataset,
    plain_augmented,
    write_augmented,
    write_dataset,
)
from privqa.errors import write_records


def make_instance(i=0, n_choices=4):
    labels = "abcde"[:n_choices]
    return QAInstance(
        id=f"q{i}",
        question=f"question number {i}?",
        choices={label: f"choice {label}{i}" for label in labels},
        gold=labels[i % n_choices],
        meta={"dataset": "toy", "split": "train"},
    )


def make_dataset(n=6):
    return Dataset(name="toy", split="train", instances=tuple(make_instance(i) for i in range(n)))


def test_instance_validation():
    make_instance().validate()
    with pytest.raises(DatasetFormatError):
        QAInstance("x", "q", {"a": "1"}, "a").validate()  # too few choices
    with pytest.raises(DatasetFormatError):
        QAInstance("x", "q", {"a": "1", "c": "2"}, "a").validate()  # gap in labels
    with pytest.raises(DatasetFormatError):
        QAInstance("x", "q", {"b": "1", "c": "2"}, "b").validate()  # not from 'a'
    with pytest.raises(DatasetFormatError):
        QAInstance("x", "q", {"a": "1", "b": "2"}, "e").validate()  # gold not a choice


def test_dataset_round_trip(tmp_path):
    ds = make_dataset()
    path = tmp_path / "toy.jsonl"
    write_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.name == "toy" and loaded.split == "train"
    assert loaded.instances == ds.instances


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(
        {"id": "q0", "question": "q", "choices": {"a": "1", "b": "2"}, "gold": "a"}
    )
    path.write_text(good + "\n{not json}\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=r":2:"):
        load_dataset(path)


def test_load_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.jsonl"
    rec = json.dumps(
        {"id": "q0", "question": "q", "choices": {"a": "1", "b": "2"}, "gold": "a"}
    )
    path.write_text(rec + "\n" + rec + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="duplicate id"):
        load_dataset(path)


def test_load_reference_scale(tmp_path):
    # Loader handles a file at the size of the largest published split, MedQA's train.
    n = 10178
    path = tmp_path / "big.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(
                json.dumps(
                    {
                        "id": f"q{i}",
                        "question": f"question {i}",
                        "choices": {"a": "1", "b": "2", "c": "3", "d": "4"},
                        "gold": "abcd"[i % 4],
                    }
                )
                + "\n"
            )
    assert len(load_dataset(path)) == 10178


def _context_for(inst, note="fact"):
    return ParsedContext(
        overall="Some overall text.",
        specific={
            label: SpecificContext(f"A {note} about {label}.", "It is related.")
            for label in inst.labels()
        },
        decision=frozenset(inst.gold),
        raw="raw text",
    )


def test_augmented_round_trip(tmp_path):
    items = []
    for i in range(4):
        inst = make_instance(i)
        items.append(AugmentedInstance(inst, _context_for(inst), f"gen{i}"))
    path = tmp_path / "aug.jsonl"
    write_augmented(items, path)
    loaded = load_augmented(path)
    assert len(loaded) == 4
    for orig, back in zip(items, loaded):
        assert back.instance == orig.instance
        assert back.context == orig.context
        assert back.generation_id == orig.generation_id
        assert back.context.raw == "raw text"


def test_load_augmented_rejects_duplicate_ids(tmp_path):
    items = []
    for i in range(3):
        inst = make_instance(i)
        items.append(AugmentedInstance(inst, _context_for(inst), f"gen{i}"))
    path = tmp_path / "aug.jsonl"
    write_augmented(items + items[:1], path)
    with pytest.raises(DatasetFormatError, match=f"{path}:4: duplicate id 'q0'"):
        load_augmented(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("context", "not an object", "field 'context': expected an object"),
        ("context", [1, 2], "field 'context': expected an object"),
        ("specific", {"a": "text", "b": {}}, "field 'context.specific.a': expected an object"),
        ("specific", ["a", "b"], "field 'context.specific': expected an object"),
        ("decision", "b", "field 'context.decision': expected a list of strings"),
        ("instance", [], "field 'instance': expected an object"),
        ("meta", ["x"], "field 'instance.meta': expected an object of strings"),
    ],
    ids=[
        "context-string",
        "context-list",
        "specific-block-string",
        "specific-list",
        "decision-string",
        "instance-list",
        "meta-list",
    ],
)
def test_load_augmented_malformed_record(tmp_path, field, value, message):
    insts = [make_instance(i) for i in range(2)]
    items = [AugmentedInstance(inst, _context_for(inst), "g") for inst in insts]
    path = tmp_path / "aug.jsonl"
    write_augmented(items, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    if field in ("context", "instance"):
        rec[field] = value
    elif field == "meta":
        rec["instance"]["meta"] = value
    else:
        rec["context"][field] = value
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=f"{path}:2: .*{message}"):
        load_augmented(path)


def test_augmented_validate_label_coverage():
    inst = make_instance(0)
    ctx = ParsedContext(
        overall="",
        specific={"a": SpecificContext("", ""), "b": SpecificContext("", "")},
        decision=frozenset(),
    )
    with pytest.raises(DatasetFormatError, match="q0"):
        AugmentedInstance(inst, ctx, "g").validate()


def test_plain_augmented():
    aug = plain_augmented(make_instance(2))
    aug.validate()
    assert set(aug.context.specific) == set(aug.instance.labels())
    assert aug.context.overall == ""
    assert aug.context.decision == frozenset()


def test_ingest_medqa(tmp_path):
    path = tmp_path / "src.jsonl"
    rec = {
        "question": "What is it?",
        "options": {"A": "one", "B": "two", "C": "three", "D": "four"},
        "answer_idx": "C",
    }
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    ds = ingest_records(path, "medqa", "medqa", "dev")
    inst = ds.instances[0]
    assert inst.choices == {"a": "one", "b": "two", "c": "three", "d": "four"}
    assert inst.gold == "c"
    assert inst.meta["dataset"] == "medqa" and inst.meta["split"] == "dev"


def test_ingest_canonical_records_dataset_and_split(tmp_path):
    path = tmp_path / "canonical.jsonl"
    write_dataset(make_dataset(3), path)
    ds = ingest_records(path, "canonical-jsonl", "medqa", "dev")
    assert (ds.name, ds.split) == ("medqa", "dev")
    assert [inst.id for inst in ds.instances] == ["q0", "q1", "q2"]
    for inst in ds.instances:
        assert inst.meta == {"dataset": "medqa", "split": "dev"}


def test_ingest_medmcqa(tmp_path):
    path = tmp_path / "src.jsonl"
    rec = {"question": "Pick.", "opa": "w", "opb": "x", "opc": "y", "opd": "z", "cop": 1}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    ds = ingest_records(path, "medmcqa", "medmcqa", "train")
    assert ds.instances[0].gold == "b"


def test_ingest_arc(tmp_path):
    path = tmp_path / "src.jsonl"
    rec = {
        "id": "x1",
        "question": {
            "stem": "Which?",
            "choices": [
                {"label": "A", "text": "p"},
                {"label": "B", "text": "q"},
                {"label": "C", "text": "r"},
                {"label": "D", "text": "s"},
            ],
        },
        "answerKey": "D",
    }
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    ds = ingest_records(path, "arc", "obqa", "test")
    assert ds.instances[0].gold == "d"
    assert ds.instances[0].question == "Which?"


def test_ingest_bad_record_names_line(tmp_path):
    path = tmp_path / "src.jsonl"
    path.write_text(json.dumps({"question": "no options"}) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=r":1:"):
        ingest_records(path, "medqa", "medqa", "dev")


def test_ingest_non_object_meta_names_line(tmp_path):
    path = tmp_path / "src.jsonl"
    rec = {"question": "Q?", "options": {"A": "x", "B": "y"}, "answer_idx": "A", "meta": ["x"]}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    message = r":1: instance 'medqa-1': field 'meta': expected an object of strings"
    with pytest.raises(DatasetFormatError, match=message):
        ingest_records(path, "medqa", "medqa", "dev")


def test_ingest_unknown_format(tmp_path):
    path = tmp_path / "src.jsonl"
    path.write_text("{}\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="unknown ingest format"):
        ingest_records(path, "mystery", "x", "y")


def test_ingest_infinite_index_names_line(tmp_path):
    path = tmp_path / "src.jsonl"
    rec = {"question": "Pick.", "opa": "w", "opb": "x", "opc": "y", "opd": "z", "cop": 1}
    path.write_text(json.dumps(rec).replace('"cop": 1', '"cop": 1e999') + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=r":1: not a medmcqa record"):
        ingest_records(path, "medmcqa", "medmcqa", "train")


@pytest.mark.parametrize("cop", [-2, -5, 4, 1.7, 1.0, True, False, "1", None])
def test_ingest_medmcqa_rejects_a_bad_answer_index(tmp_path, cop):
    # at -2 and -5 the index wrapped, at 1.7 and 1.0 it truncated, and a bool
    # or a digit string read as a number, each to a silently chosen gold
    path = tmp_path / "src.jsonl"
    rec = {"question": "Pick.", "opa": "w", "opb": "x", "opc": "y", "opd": "z", "cop": cop}
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=r"src\.jsonl:1: not a medmcqa record \(field 'cop': "):
        ingest_records(path, "medmcqa", "medmcqa", "train")


def test_load_splits_lines_at_newlines_only(tmp_path):
    # json.dumps(..., ensure_ascii=False) writes U+2028 and U+0085 raw
    first = QAInstance("q0", "one\u2028two\x85three", {"a": "x", "b": "y"}, "a")
    second = QAInstance("q1", "four", {"a": "x", "b": "y"}, "b")
    path = tmp_path / "data.jsonl"
    write_dataset(Dataset("toy", "train", (first, second)), path)
    assert "\u2028" in path.read_text(encoding="utf-8")
    assert load_dataset(path).instances == (first, second)
    # a file saved with Windows line ends loads the same
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert load_dataset(path).instances == (first, second)


def _write_record(path, **changes):
    rec = {"id": "q0", "question": "What is it?", "choices": {"a": "x", "b": "y"}, "gold": "a"}
    path.write_text(json.dumps({**rec, **changes}) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "changes, message",
    [
        # each loaded once as the text of its Python repr: "None", "['tok1 alpha', 'b']"
        ({"question": None}, "instance 'q0': field 'question': expected a string with a non-space"),
        ({"question": ["tok1 alpha", "b"]}, "instance 'q0': field 'question': expected a string"),
        ({"id": None}, "field 'id': expected a string with a non-space character, got null"),
        ({"choices": {"a": "x", "b": 2}}, "instance 'q0': field 'choices': expected an object of"),
        ({"meta": {"year": 2020}}, "instance 'q0': field 'meta': expected an object of strings"),
    ],
    ids=["question-null", "question-list", "id-null", "choice-number", "meta-number"],
)
def test_dataset_field_of_another_kind_is_refused(tmp_path, changes, message):
    path = _write_record(tmp_path / "data.jsonl", **changes)
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}:1: {message}")):
        load_dataset(path)


@pytest.mark.parametrize("question", ["", "   ", "\u2028\t"])
def test_dataset_question_without_a_word_is_refused_at_load(tmp_path, question):
    path = _write_record(tmp_path / "data.jsonl", question=question)
    message = f"{path}:1: instance 'q0': field 'question': expected a string with a non-space"
    with pytest.raises(DatasetFormatError, match=re.escape(message)):
        load_dataset(path)


def _augmented_file(tmp_path, change):
    inst = make_instance(1)
    path = tmp_path / "aug.jsonl"
    write_augmented([AugmentedInstance(inst, _context_for(inst), "g1")], path)
    rec = json.loads(path.read_text(encoding="utf-8"))
    change(rec["context"])
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "change, message",
    [
        # `serialize_context` refuses a decision outside the choices; the file took it
        (lambda ctx: ctx.update(decision=["z"]), "decision ['z'] names no choice of"),
        (lambda ctx: ctx.update(decision=[1]), "field 'context.decision': expected a list of"),
        # loaded as the texts "None" and "5"
        (lambda ctx: ctx.update(overall=None), "field 'context.overall': expected a string, got null"),
        (
            lambda ctx: ctx["specific"]["a"].update(knowledge=5),
            "field 'context.specific.a.knowledge': expected a string, got 5",
        ),
    ],
    ids=["decision-label", "decision-number", "overall-null", "knowledge-number"],
)
def test_augmented_context_field_is_checked_at_load(tmp_path, change, message):
    path = _augmented_file(tmp_path, change)
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}:1: instance 'q1': {message}")):
        load_augmented(path)


def test_interrupted_write_records_leaves_the_old_file(tmp_path):
    path = tmp_path / "data.jsonl"
    write_dataset(make_dataset(10), path)
    before = path.read_bytes()

    def records():
        for i in range(10):
            if i == 4:
                raise KeyboardInterrupt
            yield {"id": f"new{i}"}

    with pytest.raises(KeyboardInterrupt):
        write_records(path, records())
    assert path.read_bytes() == before
    assert len(load_dataset(path)) == 10
    assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]
