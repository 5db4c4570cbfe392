"""The kernel event tap: the one place instruments watch the kernel.

All naming flows through the kernel's IPC (Sec. 3.1), so that is where
spans, the flight recorder and telemetry watch.  A
:class:`~repro.kernel.host.Host` fires ``tap(kind, host, a, b, c)`` once at
each transition (trailing arguments a kind does not use are left out).
The tap is bound per kind: each kind fires through its own host attribute
(:data:`SLOTS`; arriving packets share ``_tap_packet``, a dict from
PacketKind to tap), which is None while no subscriber hears that kind, so
a kind nobody wants costs one attribute load and one None test per site,
as with nothing attached.  :meth:`Domain.attach_tap
<repro.kernel.domain.Domain.attach_tap>` subscribes an instrument to the
kinds it declares.

- ``SEND``: sending Process, its Transaction.
- ``COMPLETE``: Transaction, reply Message, the sender Process -- None when
  the sender is gone or no longer waits on this transaction.
- ``REPLY``: replying Process, the Delivery, the reply Message.
- ``FORWARD``: forwarding Process, the Forward effect, the Message sent on.
- ``PACKET[k]``: the arriving Packet of PacketKind ``k``.
- ``DELIVER``: receiving Process, the Delivery (queued or handed over).
- ``RETRANSMIT``: the Transaction whose request is re-sent.
- ``DUP_SUPPRESSED``: the duplicate request Packet, the Pid holding it.
- ``RECEIVER_EXIT``: exiting Process, a Delivery it held.
- ``CRASH``: None (the host fail-stops).
- ``ANNOTATE``: annotating Process, the Annotate effect.

Packet kinds follow PacketKind definition order; codes below ``DELIVER``
are the ones the flight recorder stores.
"""

from repro.kernel.messages import PacketKind

SEND, COMPLETE, REPLY, FORWARD = range(4)
PACKET_BASE = 4
PACKET = {kind: PACKET_BASE + index for index, kind in enumerate(PacketKind)}
DELIVER = PACKET_BASE + len(PacketKind)
RETRANSMIT, DUP_SUPPRESSED, RECEIVER_EXIT, CRASH, ANNOTATE = range(
    DELIVER + 1, DELIVER + 6)
#: Kind code -> name.
NAMES = ("send", "complete", "reply", "forward",
         *(kind.name.lower() for kind in PacketKind),
         "deliver", "retransmit", "dup_suppressed", "receiver_exit", "crash",
         "annotate")
#: Every kind code.
ALL = frozenset(range(len(NAMES)))
#: Kind code -> the Host attribute its sites fire through, for every kind
#: outside the packet range.
SLOTS = {code: "_tap_" + NAMES[code] for code in ALL
         if not PACKET_BASE <= code < DELIVER}
