"""Span annotations are built only for traced requests, and that is exact.

CSNH servers yield ``Annotate`` (the walk, the mapping decision, the prefix
binding) only when the request carries a trace context: an untraced request
has no hop span, so the kernel would discard the annotation anyway.  These
tests pin both halves -- untraced opens reach the kernel's ``Annotate``
handler zero times, and traced opens still record exactly the hop-span
attributes they always did.
"""

import pytest

import repro.kernel.host as host_module
from repro.core.context import ContextPair, WellKnownContext
from repro.kernel import ipc
from repro.kernel.domain import Domain
from repro.obs import Observability
from repro.runtime.workstation import setup_workstation, standard_prefixes
from repro.servers import VFileServer, start_server
from tests.helpers import run_on

HOME = int(WellKnownContext.HOME)

#: cold [prefix] open, warm open, open forwarded to a second file server,
#: open through a link back into the same server, cold generic-prefix open
#: (None = clear the client's name cache first).
OPENS = (None, "[home]doc/a.txt", "[home]doc/b.txt", "[home]other/far.txt",
         "[home]pub/p.txt", None, "[storage]users/mann/doc/a.txt")


def run_opens(obs=None):
    domain = Domain(seed=3, obs=obs)
    workstation = setup_workstation(domain, "mann")
    fs_a = start_server(domain.create_host("vax1"), VFileServer(user="mann"))
    fs_b = start_server(domain.create_host("vax2"), VFileServer(user="mann"))
    standard_prefixes(workstation, fs_a)
    for path in ("users/mann/doc/a.txt", "users/mann/doc/b.txt",
                 "public/p.txt"):
        fs_a.server.store.make_path(path, directory=False)
    fs_b.server.store.make_path("users/mann/far.txt", directory=False)
    fs_a.server.store.link_remote(fs_a.server.home, b"other",
                                  ContextPair(fs_b.pid, HOME))
    fs_a.server.store.link_remote(
        fs_a.server.home, b"pub",
        ContextPair(fs_a.pid, int(WellKnownContext.PUBLIC)))
    cache = workstation.enable_name_cache()
    session = workstation.session()

    def client():
        for name in OPENS:
            if name is None:
                cache.clear()
                continue
            stream = yield from session.open(name, "r")
            yield from stream.close()

    run_on(domain, workstation.host, client())
    return domain


@pytest.fixture
def annotate_calls(monkeypatch):
    """Count every Annotate that reaches the DES kernel's effect table."""
    calls = []
    handler = host_module._EFFECT_HANDLERS[ipc.Annotate]

    def spy(host, proc, effect):
        calls.append(effect)
        return handler(host, proc, effect)

    monkeypatch.setitem(host_module._EFFECT_HANDLERS, ipc.Annotate, spy)
    return calls


def hop_attrs(domain):
    """csname -> [(hop span name, its CSNH annotations)] per resolution."""
    keys = ("walk", "mapping", "prefix", "binding")
    result = {}
    for root in domain.obs.spans.find("resolve:OPEN_FILE"):
        result[root.attrs["csname"]] = [
            (span.name, {key: span.attrs[key] for key in keys
                         if key in span.attrs})
            for span in domain.obs.spans.trace(root.trace_id)
            if span.name.startswith("server:")]
    return result


def step(server, context_id, name_index, outcome, consumed):
    return {"server": server, "context_id": context_id,
            "name_index": name_index, "outcome": outcome,
            "consumed": consumed}


#: The annotations as recorded before servers learned to skip untraced
#: requests: the traced path must not move.
EXPECTED = {
    "[home]doc/a.txt": [
        ("server:prefix-server", {
            "mapping": [step("prefix", 0, 0, "forward", 6)],
            "prefix": "home", "binding": "fixed"}),
        ("server:fileserver", {
            "walk": ["doc=context", "a.txt=leaf"],
            "mapping": [step("fileserver", HOME, 6, "resolved", 9)]}),
    ],
    "[home]doc/b.txt": [
        ("server:fileserver", {
            "walk": ["doc=context", "b.txt=leaf"],
            "mapping": [step("fileserver", HOME, 6, "resolved", 9)]}),
    ],
    "[home]other/far.txt": [
        ("server:fileserver", {
            "walk": ["other=remote-link"],
            "mapping": [step("fileserver", HOME, 6, "forward", 5)]}),
        ("server:fileserver", {
            "walk": ["far.txt=leaf"],
            "mapping": [step("fileserver", HOME, 11, "resolved", 8)]}),
    ],
    "[home]pub/p.txt": [
        ("server:fileserver", {
            "walk": ["pub=remote-link", "p.txt=leaf"],
            "mapping": [step("fileserver", HOME, 6, "forward", 3),
                        step("fileserver", int(WellKnownContext.PUBLIC), 9,
                             "resolved", 6)]}),
    ],
    "[storage]users/mann/doc/a.txt": [
        ("server:prefix-server", {
            "mapping": [step("prefix", 0, 0, "forward", 9)],
            "prefix": "storage", "binding": "generic"}),
        ("server:fileserver", {
            "walk": ["users=context", "mann=context", "doc=context",
                     "a.txt=leaf"],
            "mapping": [step("fileserver", 0, 9, "resolved", 20)]}),
    ],
}


def test_untraced_opens_yield_no_annotations(annotate_calls):
    domain = run_opens()
    # Two prefix-server forwards and one file server -> file server forward
    # (the link back into the same server is followed in place).
    assert domain.metrics.count("ipc.forwards") == 3
    assert annotate_calls == []


def test_traced_opens_record_the_same_hop_annotations(annotate_calls):
    domain = run_opens(Observability())
    assert hop_attrs(domain) == EXPECTED
    # One Annotate per walk step and per mapping record, plus one for each
    # prefix binding: every annotation yielded landed on a hop span.
    assert len(annotate_calls) == sum(
        len(attrs.get("walk", ())) + len(attrs["mapping"]) + ("prefix" in attrs)
        for hops in EXPECTED.values() for __, attrs in hops)
