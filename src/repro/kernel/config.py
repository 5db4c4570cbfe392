"""Kernel protocol configuration (timeouts and retries).

These govern *failure detection and recovery*, not the happy path: none of
the paper's latency numbers involve them, because probes and retransmission
timers only fire when a transaction takes longer than their first interval.
The availability experiment (E8c) depends on Sends to crashed servers
failing in bounded time: ``PROBE_INTERVAL * (MAX_FAILED_PROBES + 1)`` after
the Send.

The retransmission block is what makes Send a *reliable* transaction over a
lossy wire (E14): the sender kernel retransmits an unanswered request on a
capped exponential backoff until the reply arrives (the reply is the ack,
as in V) or the probe protocol declares the peer dead; the receiver kernel
suppresses duplicates by transaction id and replays each remote sender's
last reply until its next one, for one to two windows of twice the Send
failure bound above (DESIGN.md section 12).  With
``retransmit_enabled=False`` the kernel behaves like the pre-E14 model:
any lost frame in a transaction surfaces as TIMEOUT.  The defaults are
chosen so that on a loss-free wire no retransmission timer ever fires
before the transactions the paper measures complete -- which is why E1/E4/
E12 are bit-identical with the machinery on.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class KernelConfig:
    """Tunable kernel protocol parameters."""

    #: How long a sender kernel waits before probing an unreplied transaction.
    probe_interval: float = 0.100

    #: Consecutive unanswered probes before the transaction fails with TIMEOUT.
    max_failed_probes: int = 3

    #: How long a broadcast GetPid waits for the first response.
    getpid_timeout: float = 0.050

    #: Extra broadcast rounds after an unanswered GetPid before giving up:
    #: a lost query or response frame must not turn into a spurious
    #: NO_SERVER.  Total time to a negative answer is
    #: ``getpid_timeout * (getpid_retries + 1)``.
    getpid_retries: int = 2

    #: How long a GroupSend waits for the first reply before failing.
    group_reply_timeout: float = 0.050

    #: Master switch for the Send retransmission protocol (reply replay
    #: included).  Off = the fail-stop-only wire model: lost frames become
    #: TIMEOUTs.
    retransmit_enabled: bool = True

    #: First retransmission fires this long after the request frame; far
    #: above every measured transaction time, so the happy path never pays.
    retransmit_initial: float = 0.025

    #: Backoff multiplier and ceiling for subsequent retransmissions.
    retransmit_backoff: float = 2.0
    retransmit_cap: float = 0.200


DEFAULT_CONFIG = KernelConfig()
