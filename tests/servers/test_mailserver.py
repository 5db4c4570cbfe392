"""Tests for the mail server: the paper's extensibility showcase (Sec. 2.2).

Mail names use their own syntax (``user@host.ARPA``) and their own
inter-server forwarding (by route table, with the name index left alone) --
and none of that requires any change to the protocol, the prefix server, or
the client runtime.
"""

import pytest

from repro.core.context import ContextPair
from repro.core.descriptors import MailboxDescription
from repro.core.resolver import NameError_
from repro.kernel.domain import Domain
from repro.kernel.ipc import Delay
from repro.kernel.messages import ReplyCode, RequestCode
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import MailServer, VFileServer, start_server
from tests.helpers import run_on, standard_system


def mail_system():
    """Workstation + file server + two mail servers with routes."""
    system = standard_system()
    domain = system.domain
    host_a = domain.create_host("su-score")
    host_b = domain.create_host("mit-ai")
    stanford = MailServer(hostname="su-score.ARPA")
    mit = MailServer(hostname="mit-ai.ARPA")
    handle_a = start_server(host_a, stanford, name="mail-stanford")
    handle_b = start_server(host_b, mit, name="mail-mit")
    stanford.add_route("mit-ai.ARPA", ContextPair(handle_b.pid, 0))
    mit.add_route("su-score.ARPA", ContextPair(handle_a.pid, 0))
    stanford.add_mailbox("cheriton")
    stanford.add_mailbox("mann")
    mit.add_mailbox("minsky")
    return system, stanford, mit, handle_a, handle_b


class TestMalformedDelivery:
    @pytest.mark.parametrize("body", ["text", -1, 10 ** 9],
                             ids=["str", "negative", "huge"])
    def test_a_body_that_is_not_bytes_is_bad_args(self, body):
        # bytes() of a str raises, of -1 raises, of 10**9 allocates 1 GB.
        system, stanford, *__ = mail_system()

        def client(session):
            yield Delay(0.01)
            bad = yield from session.csname_request(
                RequestCode.MAIL_DELIVER, "[mail]mann", body=body)
            good = yield from session.csname_request(
                RequestCode.MAIL_DELIVER, "[mail]mann", body=b"after")
            return bad.reply_code, good.reply_code

        codes = system.run_client(client(system.session()))
        assert codes == (ReplyCode.BAD_ARGS, ReplyCode.OK)
        assert [message.body for message in
                stanford.mailboxes["mann"].messages] == [b"after"]
        assert system.domain.failures == []


class TestLocalDelivery:
    def test_deliver_and_check(self):
        system, stanford, mit, handle_a, __ = mail_system()

        def client(session):
            yield Delay(0.01)
            reply = yield from session.csname_request(
                RequestCode.MAIL_DELIVER, "[mail]cheriton@su-score.ARPA",
                body=b"lunch?", **{"from": "mann"})
            assert reply.ok, reply
            check = yield from session.csname_request(
                RequestCode.MAIL_CHECK, "[mail]cheriton@su-score.ARPA")
            return reply, check

        deliver, check = system.run_client(client(system.session()))
        assert deliver["delivered_to"] == "cheriton"
        assert check["messages"] == 1 and check["unread"] == 1
        assert stanford.mailboxes["cheriton"].messages[0].body == b"lunch?"

    def test_bare_user_delivers_locally(self):
        system, stanford, *__ = mail_system()

        def client(session):
            yield Delay(0.01)
            reply = yield from session.csname_request(
                RequestCode.MAIL_DELIVER, "[mail]mann", body=b"note")
            return reply

        reply = system.run_client(client(system.session()))
        assert reply["host"] == "su-score.arpa"
        assert len(stanford.mailboxes["mann"].messages) == 1

    def test_delivery_creates_missing_mailbox(self):
        system, stanford, *__ = mail_system()

        def client(session):
            yield Delay(0.01)
            reply = yield from session.csname_request(
                RequestCode.MAIL_DELIVER, "[mail]newuser@su-score.ARPA",
                body=b"welcome")
            return reply.ok

        assert system.run_client(client(system.session()))
        assert "newuser" in stanford.mailboxes

    def test_check_unknown_mailbox_not_found(self):
        system, *__ = mail_system()

        def client(session):
            yield Delay(0.01)
            reply = yield from session.csname_request(
                RequestCode.MAIL_CHECK, "[mail]nobody@su-score.ARPA")
            return reply.reply_code

        assert system.run_client(
            client(system.session())) is ReplyCode.NOT_FOUND

    def test_malformed_address_bad_name(self):
        system, *__ = mail_system()

        def client(session):
            yield Delay(0.01)
            reply = yield from session.csname_request(
                RequestCode.MAIL_CHECK, "[mail]@nohost")
            return reply.reply_code

        assert system.run_client(client(system.session())) is ReplyCode.BAD_NAME


class TestInterHostForwarding:
    def test_mail_forwarded_to_the_right_host(self):
        system, stanford, mit, *__ = mail_system()

        def client(session):
            yield Delay(0.01)
            reply = yield from session.csname_request(
                RequestCode.MAIL_DELIVER, "[mail]minsky@mit-ai.ARPA",
                body=b"re: frames")
            return reply

        reply = system.run_client(client(system.session()))
        assert reply["host"] == "mit-ai.arpa"
        assert len(mit.mailboxes["minsky"].messages) == 1
        assert stanford.mailboxes.get("minsky") is None
        assert system.domain.metrics.count("ipc.forwards") > 0

    def test_unrouteable_host_not_found(self):
        system, *__ = mail_system()

        def client(session):
            yield Delay(0.01)
            reply = yield from session.csname_request(
                RequestCode.MAIL_DELIVER, "[mail]who@parc-maxc.ARPA",
                body=b"x")
            return reply.reply_code

        assert system.run_client(
            client(system.session())) is ReplyCode.NOT_FOUND

    def test_query_works_across_the_route(self):
        """The *standard* QUERY_NAME op rides the mail syntax untouched."""
        system, stanford, mit, *__ = mail_system()

        def client(session):
            yield Delay(0.01)
            return (yield from session.query("[mail]minsky@mit-ai.ARPA"))

        record = system.run_client(client(system.session()))
        assert isinstance(record, MailboxDescription)
        assert record.name == "minsky@mit-ai.arpa"


class TestMailboxDirectory:
    def test_list_mailboxes(self):
        system, stanford, *__ = mail_system()

        def client(session):
            yield Delay(0.01)
            return (yield from session.list_directory("[mail]"))

        records = system.run_client(client(system.session()))
        names = [r.name for r in records]
        assert names == ["cheriton@su-score.arpa", "mann@su-score.arpa"]
        assert all(isinstance(r, MailboxDescription) for r in records)

    def test_check_marks_read(self):
        system, stanford, *__ = mail_system()

        def client(session):
            yield Delay(0.01)
            yield from session.csname_request(
                RequestCode.MAIL_DELIVER, "[mail]mann", body=b"1")
            first = yield from session.csname_request(
                RequestCode.MAIL_CHECK, "[mail]mann")
            second = yield from session.csname_request(
                RequestCode.MAIL_CHECK, "[mail]mann")
            return first["unread"], second["unread"]

        assert system.run_client(client(system.session())) == (1, 0)
