"""Client-side name resolution: the stub routines of paper Sec. 6.

"When the program executes an Open call ... the Open routine checks whether
the name specified starts with the standard context prefix character, '['.
If so, it sends an Open request message to the workstation context prefix
server ... If not, Open specifies the current context identifier in the
message and sends the request directly to the server implementing the
current context.  All other CSname-handling routines operate similarly ...
(The code that checks for the '[' character is localized in a single common
routine.)"

That single common routine is :func:`send_csname_request`.  Everything in
:mod:`repro.runtime` and :mod:`repro.core.query` goes through it, and it is
where the client stub's modelled CPU (0.44 ms around an Open on the DES,
priced by the host's latency model) is charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.context import ContextPair, WellKnownContext
from repro.core.namecache import NEGATIVE_ROUTE
from repro.core.names import as_name_bytes, as_text, has_prefix
from repro.core.protocol import csname_message
from repro.kernel.ipc import Cpu, Now, Send
from repro.kernel.messages import Message, ReplyCode, code_name
from repro.kernel.pids import Pid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.namecache import NameCache
    from repro.obs import Observability

Gen = Generator[Any, Any, Any]

#: Reply codes that indicate the *resolution path* failed -- the addressed
#: process vanished, the transaction timed out on a lossy/partitioned wire,
#: no server answered GetPid, or the server explicitly asked for a retry.
#: These justify re-resolving and re-sending within the environment's retry
#: budget.  Authoritative answers about the *name* (NOT_FOUND, BAD_NAME,
#: NO_PERMISSION...) are never retried: asking again cannot change them.
RETRYABLE_REPLY_CODES = frozenset({
    ReplyCode.TIMEOUT,
    ReplyCode.NONEXISTENT_PROCESS,
    ReplyCode.NO_SERVER,
    ReplyCode.RETRY,
})

_RETRYABLE_CODE_INTS = frozenset(int(code) for code in RETRYABLE_REPLY_CODES)


class NameError_(RuntimeError):
    """A naming operation failed with the given reply code."""

    def __init__(self, operation: str, name: str, code: ReplyCode) -> None:
        super().__init__(f"{operation}({name!r}) failed: {code.name}")
        self.operation = operation
        self.name = name
        self.code = code


@dataclass
class NamingEnvironment:
    """The naming state a program carries (Sec. 6).

    "When a new program is executed, it is passed a process identifier and
    context identifier specifying its current context" -- ``current`` --
    plus the workstation's context prefix server.
    """

    current: ContextPair
    prefix_server: Optional[Pid]
    #: Optional observability bundle: when set, every CSname request opens a
    #: root "resolve" span that the kernel's transaction and hop spans chain
    #: under (see repro.obs).  Zero simulated cost either way.
    obs: Optional["Observability"] = None
    #: Optional client-side binding cache (repro.core.namecache).  When set,
    #: ``[prefix]`` requests try a cached direct binding before the prefix
    #: server, with optimistic-send/fallback recovery on stale hints.  The
    #: default None preserves the paper's uncached E4 behaviour.
    cache: Optional["NameCache"] = None
    #: How many *additional* resolution attempts one CSname request may make
    #: after its first reply, shared between stale-hint fallback and
    #: retryable-failure re-resolution.  0 restores the fail-fast stub; the
    #: default tolerates one stale hint plus one transient path failure (or
    #: two of either) before surfacing the error.
    retry_budget: int = 2

    def route(self, name: bytes) -> tuple[Pid, int]:
        """The single common '['-check: where does this CSname request go?"""
        if has_prefix(name):
            if self.prefix_server is None:
                raise NameError_("route", name.decode(errors="replace"),
                                 ReplyCode.NO_SERVER)
            return self.prefix_server, int(WellKnownContext.DEFAULT)
        return self.current.server, self.current.context_id


def send_csname_request(env: NamingEnvironment, code: int, name: str | bytes,
                        **variant_fields: Any) -> Gen:
    """Build, route, and send one CSname request; returns the reply Message.

    Charges the stub's modelled CPU (message creation before the Send,
    reply processing after), which on the DES makes a local current-context
    Open cost 1.21 ms rather than the bare 0.77 ms transaction.
    """
    data = as_name_bytes(name)
    cache = env.cache
    cacheable = cache is not None and cache.should_route(data, code)
    route = None
    if cacheable and env.prefix_server is not None:
        route = yield from cache.route(data)
    if route is NEGATIVE_ROUTE:
        # Negatively cached: a recent authoritative NOT_FOUND still within
        # its TTL.  Answer locally -- the stub cost is still charged, but no
        # message leaves the machine and no span opens (nothing resolved).
        yield Cpu("stub_pre", "stub_post")
        return Message.reply(ReplyCode.NOT_FOUND, negative_cached=True)
    if route is not None:
        dst, context_id = route.dst, route.context_id
        name_index = route.name_index
    else:
        dst, context_id, name_index = yield from _route_full(
            env, cache, data, attempt=0, reply=None)
    span = None
    start = None
    if env.obs is not None:
        start = yield Now()
        span = env.obs.spans.start(
            f"resolve:{code_name(code)}", start, actor="client-stub",
            csname=as_text(data), context_id=context_id, routed_to=str(dst),
            via_prefix=has_prefix(data),
            cache="off" if cache is None else
                  (route.source if route is not None else "miss"))
    fell_back = False
    retries = 0
    while True:
        yield Cpu("stub_pre")
        message = csname_message(code, data, context_id, name_index,
                                 variant_fields)
        if span is not None:
            message.trace = span.context
        reply = yield Send(dst, message)
        if retries >= env.retry_budget:
            break
        if route is not None and cache.is_stale_reply(reply):
            # Stale-hint recovery: the cached binding let us down (dead pid,
            # invalidated context, name moved away...).  Drop it and resend
            # via full prefix-server resolution -- the caller never sees the
            # stale error, only the authoritative outcome.
            cache.invalidate_route(data, route, reply.code)
            fell_back = True
            route = None
        elif int(reply.code) not in _RETRYABLE_CODE_INTS or route is not None:
            # Either a final answer, or a direct-route reply that is not
            # stale-coded: done.  (Authoritative name errors are never
            # retried; see RETRYABLE_REPLY_CODES.)
            break
        # Re-resolve from the top: the prefix server is the authority on
        # where the name lives now, and transient path failures (lossy
        # wire, crash/restart window) deserve a bounded second look.
        retries += 1
        if span is not None:
            span.append_attr("re_resolve", code_name(reply.code))
        dst, context_id, name_index = yield from _route_full(
            env, cache, data, attempt=retries, reply=reply)
    yield Cpu("stub_post")
    if cacheable and (route is None or fell_back):
        now = yield Now()
        cache.learn(data, reply, now)
    elif cache is not None and reply.ok and not cacheable:
        # Cache-bypass operations (ADD/DELETE_CONTEXT_NAME) never reach
        # ``learn``, but their success changes what cached answers are
        # still right -- a create must kill a cached NOT_FOUND for the
        # name it just bound.  Caches that care expose ``note_mutation``
        # (the shard resolver); plain memory writes, zero simulated cost.
        note = getattr(cache, "note_mutation", None)
        if note is not None:
            note(data, code)
    if span is not None:
        end = yield Now()
        env.obs.spans.finish(span, end, reply_code=code_name(reply.code),
                             ok=reply.ok, cache_fallback=fell_back,
                             retries=retries)
        env.obs.registry.histogram(
            "csname.resolve_seconds",
            op=code_name(code)).observe(end - span.start)
        if route is not None and not fell_back:
            env.obs.registry.histogram(
                "namecache.hit_seconds",
                op=code_name(code)).observe(end - start)
    return reply


def _route_full(env: NamingEnvironment, cache: Any, data: bytes,
                attempt: int, reply: Optional[Message]) -> Gen:
    """Full (non-hint) routing: where does attempt number ``attempt`` go?

    The default is the paper's single common routine (:meth:`NamingEnvironment.
    route`): '['-names to the prefix server, the rest to the current context.
    A cache exposing ``fallback_route`` -- the shard resolver
    (:mod:`repro.core.shard`) -- overrides it for '['-names: it knows which
    replica owns the prefix and, on repeated failures, walks the replica
    ring (refreshing its shard map over the wire) instead of re-sending to
    the same corpse.  ``reply`` is the failed attempt's reply (None on the
    first routing): a refusing replica stamps the current owner's pid on
    its RETRY, and the hook follows that redirect directly.  A generator
    because the ring walk costs real messages.
    """
    if cache is not None and has_prefix(data):
        hook = getattr(cache, "fallback_route", None)
        if hook is not None:
            route = yield from hook(data, attempt, reply)
            if route is not None:
                return route
    dst, context_id = env.route(data)
    return dst, context_id, 0


def expect_ok(operation: str, name: str | bytes, reply: Message) -> Message:
    """Raise :class:`NameError_` unless the reply is OK."""
    if not reply.ok:
        text = name.decode(errors="replace") if isinstance(name, bytes) else name
        raise NameError_(operation, text, reply.reply_code)
    return reply


def name_to_context(env: NamingEnvironment, name: str | bytes) -> Gen:
    """Map a CSname naming a context to its (server-pid, context-id) pair."""
    from repro.kernel.messages import RequestCode

    reply = yield from send_csname_request(env, RequestCode.NAME_TO_CONTEXT, name)
    expect_ok("name_to_context", name, reply)
    return ContextPair(Pid(int(reply["server_pid"])), int(reply["context_id"]))
