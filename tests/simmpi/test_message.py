"""Unit tests for message matching rules.

Each case asks the engine's mailbox scan and the test-side
``matches`` oracle (which the mutant engines match with) the same
question, so the two cannot drift apart.
"""

from types import SimpleNamespace

from repro.simmpi.engine import Engine
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Message
from tests.conftest import matches


def make_msg(source=1, tag=7):
    return Message(
        source=source,
        dest=0,
        tag=tag,
        payload=None,
        size=8,
        send_time=0.0,
        arrival=1.0,
        seq=0,
    )


def accepts(msg, source, tag) -> bool:
    """Whether a recv posted with ``(source, tag)`` takes ``msg``."""
    proc = SimpleNamespace(mailbox=[msg])
    engine_says = Engine._match_mailbox(None, proc, source, tag) is msg
    assert matches(msg, source, tag) == engine_says
    return engine_says


class TestMatching:
    def test_exact_match(self):
        assert accepts(make_msg(1, 7), 1, 7)

    def test_source_mismatch(self):
        assert not accepts(make_msg(1, 7), 2, 7)

    def test_tag_mismatch(self):
        assert not accepts(make_msg(1, 7), 1, 8)

    def test_any_source(self):
        assert accepts(make_msg(3, 7), ANY_SOURCE, 7)

    def test_any_tag(self):
        assert accepts(make_msg(3, 7), 3, ANY_TAG)

    def test_full_wildcard(self):
        assert accepts(make_msg(9, 123), ANY_SOURCE, ANY_TAG)
