import sys

import pytest

from privqa.contexts import ContextView
from privqa.plugin import ExternalScorer, PluginError, external_score
from tests.test_scorer import make_augmented

STUB = [sys.executable, "-m", "privqa.plugin_stub"]


def inline_stub(body: str) -> list[str]:
    return [sys.executable, "-c", body]


def test_stub_scores_are_input_lengths():
    with ExternalScorer(STUB) as scorer:
        scores = scorer.score("x1", ["ab", "abcd", ""])
        assert scores == [2.0, 4.0, 0.0]
        # the process stays up across requests
        assert scorer.score("x2", ["hello"]) == [5.0]


def test_external_score_normalizes():
    aug = make_augmented()
    with ExternalScorer(STUB) as scorer:
        sv = external_score(scorer, aug, ContextView.FULL)
    assert sv.labels == ("a", "b", "c", "d")
    assert abs(sum(sv.probs) - 1.0) < 1e-9
    assert len(sv.scores) == 4


def test_missing_handshake():
    scorer = ExternalScorer(inline_stub("pass"), timeout=5.0)
    with pytest.raises(PluginError, match="handshake"):
        scorer.start()
    scorer.close()


def test_wrong_protocol_version():
    scorer = ExternalScorer(
        inline_stub('print(\'{"protocol": 99}\', flush=True)'), timeout=5.0
    )
    with pytest.raises(PluginError, match="protocol"):
        scorer.start()
    scorer.close()


def test_handshake_not_json():
    scorer = ExternalScorer(inline_stub('print("hello there", flush=True)'), timeout=5.0)
    with pytest.raises(PluginError, match="JSON"):
        scorer.start()
    scorer.close()


BAD_RESPONSE = """
import sys, json
print(json.dumps({"protocol": 1}), flush=True)
for line in sys.stdin:
    {body}
"""


def bad_responder(body: str) -> list[str]:
    return inline_stub(BAD_RESPONSE.replace("{body}", body))


def test_response_not_json():
    with ExternalScorer(bad_responder('print("garbage", flush=True)'), timeout=5.0) as s:
        with pytest.raises(PluginError, match="inst-7"):
            s.score("inst-7", ["a", "b"])


def test_response_wrong_id():
    body = 'print(json.dumps({"id": "other", "scores": [1.0, 2.0]}), flush=True)'
    with ExternalScorer(bad_responder(body), timeout=5.0) as s:
        with pytest.raises(PluginError, match="inst-8"):
            s.score("inst-8", ["a", "b"])


def test_response_wrong_score_count():
    body = (
        "req = json.loads(line); "
        'print(json.dumps({"id": req["id"], "scores": [1.0]}), flush=True)'
    )
    with ExternalScorer(bad_responder(body), timeout=5.0) as s:
        with pytest.raises(PluginError, match="1 scores for 3"):
            s.score("inst-9", ["a", "b", "c"])


def test_response_non_numeric_scores():
    body = (
        "req = json.loads(line); "
        'print(json.dumps({"id": req["id"], "scores": ["hi", "yo"]}), flush=True)'
    )
    with ExternalScorer(bad_responder(body), timeout=5.0) as s:
        with pytest.raises(PluginError, match="inst-10: field 'scores': expected a list of finite"):
            s.score("inst-10", ["a", "b"])


def test_response_scores_of_another_json_type_are_not_converted():
    # a numeric string and a bool used to be taken as [1.5, 1.0]
    body = (
        "req = json.loads(line); "
        'print(json.dumps({"id": req["id"], "scores": ["1.5", True]}), flush=True)'
    )
    with ExternalScorer(bad_responder(body), timeout=5.0) as s:
        with pytest.raises(PluginError, match="inst-14: field 'scores': expected a list of finite"):
            s.score("inst-14", ["a", "b"])
        # the child is out of step, so it is killed at once
        assert s._proc.wait(timeout=2.0) != 0


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_response_non_finite_scores(bad):
    # json.dumps writes NaN / Infinity / -Infinity, which json.loads accepts
    body = (
        "req = json.loads(line); "
        f'print(json.dumps({{"id": req["id"], "scores": [1.0, float("{bad}")]}}), flush=True)'
    )
    with ExternalScorer(bad_responder(body), timeout=5.0) as s:
        with pytest.raises(PluginError, match="inst-13: field 'scores': expected a list of finite"):
            s.score("inst-13", ["a", "b"])


def test_silent_scorer_times_out():
    body = "import time; time.sleep(30)"
    with ExternalScorer(bad_responder(body), timeout=0.5) as s:
        with pytest.raises(PluginError, match="inst-11"):
            s.score("inst-11", ["a"])


@pytest.mark.parametrize(
    "body",
    ["import time; time.sleep(30)", 'print("garbage", flush=True)'],
    ids=["timeout", "protocol-error"],
)
def test_fault_kills_child_at_once(body):
    with ExternalScorer(bad_responder(body), timeout=0.5) as s:
        with pytest.raises(PluginError, match="inst-13"):
            s.score("inst-13", ["a"])
        # either child would otherwise keep running until stdin closes
        assert s._proc.wait(timeout=2.0) != 0


def test_scorer_that_exits_midway():
    body = "sys.exit(0)"
    with ExternalScorer(bad_responder(body), timeout=5.0) as s:
        with pytest.raises(PluginError, match="inst-12"):
            s.score("inst-12", ["a"])


def test_score_before_start():
    scorer = ExternalScorer(STUB)
    with pytest.raises(PluginError, match="not started"):
        scorer.score("x", ["a"])


def test_double_start():
    with ExternalScorer(STUB) as scorer:
        with pytest.raises(PluginError, match="already started"):
            scorer.start()


def test_unlaunchable_command():
    scorer = ExternalScorer(["/nonexistent/binary"])
    with pytest.raises(PluginError, match="cannot launch"):
        scorer.start()


def test_close_is_idempotent():
    scorer = ExternalScorer(STUB)
    scorer.start()
    scorer.close()
    scorer.close()
    with pytest.raises(PluginError, match="not started"):
        scorer.score("x", ["a"])
