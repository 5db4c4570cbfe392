"""The span collector's subscriber to the kernel event tap.

One ``ipc.txn:<op>`` span per message transaction (Send to the reply at
the sender's kernel, which also observes ``ipc.txn_seconds``) and one
``server:<process>`` hop span per request delivered to a process (to its
Reply or Forward).  Each outgoing message carries the newest span's
context, so hops chain under their transaction and each forward leg under
the hop before it: the span tree *is* the Sec. 5.4 forwarding path.
"""

from repro.kernel.messages import ReplyCode, code_name
from repro.kernel.tap import (ANNOTATE, COMPLETE, CRASH, DELIVER,
                              DUP_SUPPRESSED, FORWARD, PACKET_BASE,
                              RECEIVER_EXIT, REPLY, RETRANSMIT, SEND)


class KernelSpans:
    """One domain's transaction and hop spans; ``Domain(obs=...)`` attaches
    :meth:`on_event` (kinds and arguments: :mod:`repro.kernel.tap`)."""

    def __init__(self, obs) -> None:
        self.spans = obs.spans
        self.registry = obs.registry
        #: Host -> (txn_id -> transaction span of one of its senders,
        #: (txn_id, receiver pid) -> hop span of one of its processes).
        self._tables: dict = {}

    def on_event(self, kind, host, a, b=None, c=None) -> None:
        if PACKET_BASE <= kind < DELIVER:
            return
        tables = self._tables.get(host)
        if tables is None:
            tables = self._tables[host] = ({}, {})
        txn_spans, hop_spans = tables
        now = host.engine.now
        if kind == SEND:
            message = b.message
            span = self.spans.start(
                f"ipc.txn:{code_name(message.code)}", now,
                parent=message.trace, actor=f"{host.name}/{a.name}",
                dst=str(b.dst), txn=b.txn_id,
                request_bytes=message.wire_bytes)
            message.trace = span.context
            txn_spans[b.txn_id] = span
        elif kind == COMPLETE:
            span = txn_spans.pop(a.txn_id, None)
            if span is not None:
                self.spans.finish(span, now, reply_code=code_name(b.code),
                                  reply_bytes=b.wire_bytes)
                self.registry.histogram(
                    "ipc.txn_seconds",
                    op=code_name(a.message.code)).observe(span.duration)
        elif kind == DELIVER:
            # Group deliveries get no hop: non-owners silently discard, so
            # their spans would never close.
            if b.message.trace is not None and not b.via_group:
                hop_spans[(b.txn_id, a.pid)] = self.spans.start(
                    f"server:{a.name}", now, parent=b.message.trace,
                    actor=f"{host.name}/{a.name}", txn=b.txn_id)
        elif kind == REPLY:
            span = hop_spans.pop((b.txn_id, a.pid), None)
            if span is not None:
                self.spans.finish(span, now, reply_code=code_name(c.code))
                c.trace = span.context      # the reply frame's wire span
        elif kind == FORWARD:
            span = hop_spans.pop((b.delivery.txn_id, a.pid), None)
            if span is not None:
                self.spans.finish(span, now, forwarded_to=str(b.dst))
                c.trace = span.context
        elif kind == RECEIVER_EXIT:
            span = hop_spans.pop((b.txn_id, a.pid), None)
            if span is not None:
                self.spans.finish(
                    span, now, reply_code=ReplyCode.NONEXISTENT_PROCESS.name,
                    aborted="receiver exited")
        elif kind == RETRANSMIT:
            span = txn_spans.get(a.txn_id)
            if span is not None:
                span.append_attr("retransmit", now)
        elif kind == DUP_SUPPRESSED:
            span = hop_spans.get((a.txn_id, b))
            if span is not None:
                span.append_attr("dup_suppressed", now)
        elif kind == ANNOTATE:
            span = hop_spans.get((b.txn_id, a.pid))
            if span is not None:
                if b.append:
                    for key, value in b.attrs.items():
                        span.append_attr(key, value)
                else:
                    span.attrs.update(b.attrs)
        elif kind == CRASH:
            for span in [*txn_spans.values(), *hop_spans.values()]:
                self.spans.finish(span, now, aborted="host crashed")
            txn_spans.clear()
            hop_spans.clear()
