"""The kernel event tap: the one place instruments watch the kernel.

All naming flows through the kernel's IPC (Sec. 3.1), so that is where
spans, the flight recorder and telemetry watch.  A
:class:`~repro.kernel.host.Host` fires ``host._tap(kind, host, a, b, c)``
once at each transition (trailing arguments a kind does not use are left
out); ``_tap`` is None while nothing subscribes, so an unobserved kernel
pays one attribute load per site.  :meth:`Domain.attach_tap
<repro.kernel.domain.Domain.attach_tap>` subscribes an instrument.

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
