"""The mail server: a pre-existing name space grafted into V (paper Sec. 2.2).

"The names for mailboxes, such as 'cheriton@su-score.ARPA', may be imposed
by standards established outside of the system in question.  Such
preexisting servers fit well into a model in which names are normally
interpreted by the server providing the named objects."

This server exercises exactly that extensibility claim:

- its name *syntax* is ``user@host.DOMAIN`` -- not slash-separated, not
  left-to-right component-structured -- and the protocol does not care,
  because interpretation belongs to the server (Sec. 5.4's escape clause);
- mail for hosts this server does not serve is *forwarded* to the server
  that does (via a route table), using the ordinary forwarding convention
  but with the name index left where it was: the next server re-parses the
  whole address itself;
- MAIL_DELIVER/MAIL_CHECK are *new* CSname request codes, registered with
  :func:`repro.core.protocol.register_csname_request` -- "there is no limit
  to the number of request message types that may contain CSnames."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.core.csnh import CSNHServer
from repro.core.context import ContextPair, WellKnownContext
from repro.core.descriptors import (
    ContextDescription,
    MailboxDescription,
    ObjectDescription,
)
from repro.core.mapping import ForwardName, MappingFault, MappingOutcome, ResolvedObject
from repro.core.names import as_text
from repro.core.protocol import CSNameHeader, register_csname_request
from repro.kernel.ipc import Delivery, Now
from repro.kernel.messages import ReplyCode, RequestCode
from repro.kernel.services import ServiceId

Gen = Generator[Any, Any, Any]

#: Mail operations carry CSnames (addresses) and the standard header.
MAIL_DELIVER = register_csname_request(RequestCode.MAIL_DELIVER)
MAIL_CHECK = register_csname_request(RequestCode.MAIL_CHECK)


@dataclass
class MailMessage:
    sender: str
    body: bytes
    delivered_at: float
    read: bool = False


@dataclass
class Mailbox:
    user: str
    messages: list[MailMessage] = field(default_factory=list)

    @property
    def unread(self) -> int:
        return sum(1 for m in self.messages if not m.read)


@dataclass(frozen=True)
class _MailTarget:
    """A parsed local address (the 'resolution' for mail ops)."""

    user: str
    mailbox: Optional[Mailbox]


class MailServer(CSNHServer):
    """ARPA-style mail behind the V name-handling protocol."""

    server_name = "mailserver"
    service_id = int(ServiceId.MAIL)

    def __init__(self, hostname: str = "su-score.ARPA") -> None:
        super().__init__()
        self.hostname = hostname.lower()
        self.mailboxes: dict[str, Mailbox] = {}
        #: host -> ContextPair of the mail server that handles it.
        self.routes: dict[str, ContextPair] = {}
        self.register_csname_op(MAIL_DELIVER, self.op_deliver)
        self.register_csname_op(MAIL_CHECK, self.op_check)

    # ---------------------------------------------------------- local admin

    def add_mailbox(self, user: str) -> Mailbox:
        box = self.mailboxes.setdefault(user.lower(), Mailbox(user=user.lower()))
        return box

    def add_route(self, host: str, pair: ContextPair) -> None:
        """Teach this server where another mail domain lives."""
        self.routes[host.lower()] = pair

    # --------------------------------------------------------------- mapping

    def map_request(self, delivery: Delivery, header: CSNameHeader) -> Gen:
        """Parse ``user@host`` ourselves -- no slashes, no components.

        Forwarding leaves the name index untouched: the receiving mail
        server re-parses the full address.  The protocol permits this; only
        the standard header fields are constrained, not how a server reads
        the name (Sec. 5.4).
        """
        yield from ()
        address = as_text(header.remaining).strip()
        if not address:
            # The empty address names the mailbox context itself (listing).
            return ResolvedObject(ref=self.mailboxes, is_context=True,
                                  parent_ref=None, component=b"",
                                  index=header.name_index)
        if address.startswith("@"):
            return MappingFault(ReplyCode.BAD_NAME,
                                f"malformed address {address!r}")
        user, __, host = address.partition("@")
        host = host.lower()
        if host and host != self.hostname:
            route = self.routes.get(host)
            if route is None:
                return MappingFault(ReplyCode.NOT_FOUND,
                                    f"no route to mail host {host!r}")
            return ForwardName(route, header.name_index)
        mailbox = self.mailboxes.get(user.lower())
        if mailbox is None and delivery.message.code != int(MAIL_DELIVER):
            return MappingFault(ReplyCode.NOT_FOUND,
                                f"no mailbox {user!r} on {self.hostname}")
        return ResolvedObject(ref=_MailTarget(user.lower(), mailbox),
                              is_context=False, parent_ref=None,
                              component=user.encode(),
                              index=len(header.name))

    # ------------------------------------------------------------------- ops

    def op_deliver(self, delivery: Delivery, header: CSNameHeader,
                   resolution: MappingOutcome) -> Gen:
        assert isinstance(resolution, ResolvedObject)
        target = resolution.ref
        assert isinstance(target, _MailTarget)
        # Bytes-like only: bytes() of a str raises, and of an int allocates.
        body = delivery.message.get("body", b"")
        if not isinstance(body, (bytes, bytearray, memoryview)):
            yield from self.reply_error(delivery, ReplyCode.BAD_ARGS)
            return
        mailbox = target.mailbox or self.add_mailbox(target.user)
        now = yield Now()
        mailbox.messages.append(MailMessage(
            sender=str(delivery.message.get("from", "unknown")),
            body=bytes(body), delivered_at=now))
        yield from self.reply_ok(delivery, delivered_to=mailbox.user,
                                 host=self.hostname)

    def op_check(self, delivery: Delivery, header: CSNameHeader,
                 resolution: MappingOutcome) -> Gen:
        assert isinstance(resolution, ResolvedObject)
        target = resolution.ref
        assert isinstance(target, _MailTarget) and target.mailbox is not None
        mailbox = target.mailbox
        unread = mailbox.unread
        for message in mailbox.messages:
            message.read = True
        yield from self.reply_ok(delivery, user=mailbox.user,
                                 messages=len(mailbox.messages), unread=unread)

    # -------------------------------------------------------------- protocol

    def describe(self, resolution: ResolvedObject) -> Optional[ObjectDescription]:
        target = resolution.ref
        if target is self.mailboxes:
            return ContextDescription(name=self.hostname,
                                      entry_count=len(self.mailboxes))
        if isinstance(target, _MailTarget) and target.mailbox is not None:
            return self._record(target.mailbox)
        return None

    def directory_records(self, context_ref: Any) -> list[ObjectDescription]:
        return [self._record(self.mailboxes[user])
                for user in sorted(self.mailboxes)]

    def _record(self, mailbox: Mailbox) -> MailboxDescription:
        return MailboxDescription(
            name=f"{mailbox.user}@{self.hostname}", owner=mailbox.user,
            message_count=len(mailbox.messages), unread=mailbox.unread)

    def name_of_context(self, context_id: int) -> Optional[bytes]:
        if context_id == int(WellKnownContext.DEFAULT):
            return b""
        return None
