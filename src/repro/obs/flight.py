"""Deterministic flight recorder: bounded per-host black boxes + digests.

The live observability stack (spans, ``[obs]``, telemetry) answers "what is
the system doing *now*"; this module answers "what was it doing when things
went wrong, and where did two runs first part ways" -- the forensic layer.

Each host gets a *lane*: a bounded ring of compact flight records fed by
the kernel event tap's Send/Forward/Reply/complete/packet events
(:mod:`repro.kernel.tap`), each stamped with the engine event that caused
it.  A record is a plain all-numeric tuple::

    (seq, t, kind, src, dst, txn)

- ``seq``  -- engine sequence number of the firing event (``Engine._fire_seq``,
  maintained by the recording dispatch variants; see ``sim/engine.py``);
- ``t``    -- simulated time of the record;
- ``kind`` -- the tap's own event code (:data:`KIND_NAMES`): what happened
  (``send``/``reply``/``forward``/``complete`` or an arriving packet kind);
- ``src``/``dst`` -- 32-bit pid values (0 when not applicable);
- ``txn``  -- kernel transaction id (0 when not applicable).

The resolution-phase label the profiler vocabulary uses (``phase:send``,
``phase:packet`` ...) is a pure function of ``kind`` and is re-derived at
export time (:func:`record_dict`) rather than stored.

**The hot path is one Python call.**  The recorder subscribes
:meth:`FlightRecorder.on_event` to the domain's kernel tap; per record it
picks three fields off the event, builds the tuple and pushes it through
the lane tail's cached bound ``list.append``.  Window
sealing (and therefore digesting) happens *off* the record path: the
engine's recording run loop calls :meth:`FlightRecorder.flush` every couple
thousand events, which moves full windows out of the tails.  Because a seal
always consumes exactly ``window`` records, the chain is a pure function of
the record stream -- flush timing cannot perturb it.

Determinism is the whole point: every field is a pure function of the seed,
so the record stream is byte-identical across same-seed runs.  To compare
two runs without shipping both streams, each lane maintains a **digest
chain**: every ``window`` records the lane seals the oldest window with
``hash((prev_digest, window_records))`` and appends ``(window_index,
end_seq, end_t, digest)`` to its chain.  Chaining makes window ``n``'s
digest depend on every record since the lane was born, so the *first*
differing chain entry brackets the first divergent record even after the
ring has dropped the records themselves.  Records are all-numeric
tuples, and Python's numeric/tuple hashing does not consult
``PYTHONHASHSEED`` (only str/bytes hashing is randomized), so the digests
are deterministic across processes -- and one C-level tuple hash per window
amortizes to a few ns per record, which is what keeps an attached recorder
inside the E15/E17 <=2% observer-effect budget.

On :meth:`Host.crash` the host's lane is frozen into a postmortem dump (a
JSON-ready snapshot of the ring + chain at the instant of death) without
disturbing the live lane; live lanes are served as JSONL at
``[obs]/hosts/<host>/flightlog`` through the paper's own protocol (see
``obs/introspect.py`` / ``servers/statserver.py``).  Replay and divergence
bisection over these chains live in :mod:`repro.obs.replay`.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.kernel.tap import (COMPLETE, CRASH, DELIVER, NAMES, PACKET_BASE,
                              REPLY, SEND)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.domain import Domain
    from repro.kernel.host import Host

#: Version stamp on every exported flightlog / postmortem document.
FLIGHT_SCHEMA = 1

#: Default ring capacity (records kept per host) and digest window.
DEFAULT_CAPACITY = 4096
DEFAULT_WINDOW = 256

#: Code -> display name: the tap kinds a record can carry (every kind
#: before ``DELIVER``).  Packet REPLY shares the name ``reply`` with the
#: Reply-effect kind (as the V wire does); their phases differ.
KIND_NAMES = NAMES[:DELIVER]

#: Code -> resolution-phase label (the profiler's phase vocabulary).
PHASE_PACKET = "phase:packet"
PHASE_NAMES = ("phase:send", "phase:complete", "phase:reply",
               "phase:forward", *(PHASE_PACKET,) * (DELIVER - PACKET_BASE))

#: Name -> code, first occurrence wins (the IPC-effect codes).
KIND_CODES: dict = {}
for _code, _name in enumerate(KIND_NAMES):
    KIND_CODES.setdefault(_name, _code)
_PACKET_CODES = {name: code for code, name in enumerate(KIND_NAMES)
                 if code >= PACKET_BASE}
del _code, _name

#: Digests are 64-bit: Python hashes masked to an unsigned word.
_DIGEST_MASK = 0xFFFFFFFFFFFFFFFF


def record_code(kind: str, phase: str = "") -> int:
    """Kind name (+ disambiguating phase) -> stored kind code.

    The phase matters only for ``reply``, which names both the Reply
    effect (``phase:reply``) and the arriving REPLY packet
    (``phase:packet``).
    """
    if phase == PHASE_PACKET:
        return _PACKET_CODES[kind]
    return KIND_CODES[kind]


def record_dict(record: tuple) -> dict:
    """One stored record tuple as a JSON-ready dict (names + phase)."""
    seq, t, kind, src, dst, txn = record
    return {"seq": seq, "t": t, "kind": KIND_NAMES[kind], "src": src,
            "dst": dst, "txn": txn, "phase": PHASE_NAMES[kind]}


def chain_dict(entry: tuple) -> dict:
    """One digest-chain entry ``(window, end_seq, end_t, digest)`` as a dict."""
    window, end_seq, end_t, digest = entry
    return {"window": window, "end_seq": end_seq, "end_t": end_t,
            "digest": f"{digest:016x}"}


class _Lane:
    """One host's black box: ring + unsealed tail + digest chain.

    ``tail`` is a *stable* list object -- the recorder caches its bound
    ``append`` for the lane's whole life, so sealing must slice-delete
    from it (``del tail[:window]``), never rebind it.
    """

    __slots__ = ("ring", "tail", "chain", "sealed", "crc")

    def __init__(self, capacity: int) -> None:
        #: Sealed records, oldest dropped first once capacity is reached.
        self.ring: deque = deque(maxlen=capacity)
        #: Records not yet sealed into a window (the hot append target).
        self.tail: list = []
        #: Sealed windows: (window_index, end_seq, end_t, digest) tuples.
        self.chain: list = []
        #: Records sealed into windows so far (ring drops don't forget).
        self.sealed = 0
        #: Running digest carried across windows -- the chain in "hash chain".
        self.crc = 0

    @property
    def seen(self) -> int:
        """Total records ever fed to this lane."""
        return self.sealed + len(self.tail)

    @property
    def dropped(self) -> int:
        return self.sealed - len(self.ring)


class FlightRecorder:
    """Bounded per-host flight-record lanes with rolling digest chains.

    Attach via :func:`enable_flight_recorder`, which subscribes
    :meth:`on_event` to the domain's kernel tap.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 window: int = DEFAULT_WINDOW) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.capacity = capacity
        self.window = window
        self._lanes: dict[str, _Lane] = {}
        #: Host name -> its lane tail's bound ``append`` (the record sink).
        self._appends: dict = {}
        #: Postmortem dumps by host name, in crash order (a host can die
        #: more than once across restarts).
        self.postmortems: dict[str, list[dict]] = {}

    # -------------------------------------------------------------- capture

    def _lane(self, host: str) -> _Lane:
        lane = self._lanes.get(host)
        if lane is None:
            lane = self._lanes[host] = _Lane(self.capacity)
        return lane

    def on_event(self, kind, host: "Host", a, b=None, c=None) -> None:
        """Kernel-tap subscriber: one record per Send, Reply, Forward,
        completion at a waiting sender and arriving packet; a ``CRASH``
        freezes the host's black box (it outlives a restart)."""
        if kind >= DELIVER:
            if kind == CRASH:
                self.freeze(host)
            return
        if kind >= PACKET_BASE:                 # a: the arriving Packet
            src, dst, txn = a.src_pid, a.dst_pid, a.txn_id or 0
            src = src.value if src is not None else 0
            dst = dst.value if dst is not None else 0
        elif kind == SEND:                      # a: sender, b: Transaction
            src, dst, txn = a.pid.value, b.dst.value, b.txn_id
        elif kind == COMPLETE:                  # a: Transaction, c: sender
            if c is None:
                return
            src, dst, txn = a.dst.value, a.sender.value, a.txn_id
        elif kind == REPLY:                     # a: replier, b: Delivery
            src, dst, txn = a.pid.value, b.sender.value, b.txn_id
        else:                                   # FORWARD; b: the effect
            src, dst, txn = a.pid.value, b.dst.value, b.delivery.txn_id
        append = self._appends.get(host.name)
        if append is None:
            lane = self._lane(host.name)
            append = self._appends[host.name] = lane.tail.append
        engine = host.engine
        append((engine._fire_seq, engine._now, kind, src, dst, txn))

    def _seal(self, lane: _Lane, count: int) -> None:
        """Seal the oldest ``count`` tail records: chain digest, ring them.

        ``count`` is ``window`` except for the final partial window at
        :meth:`finalize`.  The digest folds the previous digest with the
        window's records through one C-level tuple hash (deterministic:
        all-numeric tuples never touch string hash randomization).
        """
        tail = lane.tail
        chunk = tail[:count]
        del tail[:count]
        digest = hash((lane.crc, tuple(chunk))) & _DIGEST_MASK
        lane.crc = digest
        last = chunk[-1]
        lane.chain.append((len(lane.chain), last[0], last[1], digest))
        lane.ring.extend(chunk)
        lane.sealed += len(chunk)

    def _drain(self, lane: _Lane) -> None:
        window = self.window
        while len(lane.tail) >= window:
            self._seal(lane, window)

    def flush(self) -> None:
        """Seal every full window in every lane.

        The engine's recording run loop calls this every couple thousand
        events, which is what bounds tail growth and amortizes digesting
        off the record path.  Seals consume exactly ``window`` records, so
        chains (and every read below, all of which drain first) are
        independent of *when* flushes happen.
        """
        window = self.window
        for lane in self._lanes.values():
            if len(lane.tail) >= window:
                self._drain(lane)

    def finalize(self) -> None:
        """Seal every tail, including final partial windows (end of run).

        Two identical runs finalize to identical chains even when their
        record counts are not multiples of the window.  Idempotent: empty
        tails are skipped, so a second call changes nothing.
        """
        for lane in self._lanes.values():
            self._drain(lane)
            if lane.tail:
                self._seal(lane, len(lane.tail))

    # ------------------------------------------------------------ inspection

    def hosts(self) -> list[str]:
        return sorted(self._lanes)

    def records(self, host: str) -> list[tuple]:
        """All retained records for ``host`` (sealed ring + open tail)."""
        lane = self._lanes.get(host)
        if lane is None:
            return []
        self._drain(lane)
        return list(lane.ring) + list(lane.tail)

    def chain(self, host: str) -> list[tuple]:
        """The sealed digest chain for ``host``."""
        lane = self._lanes.get(host)
        if lane is None:
            return []
        self._drain(lane)
        return list(lane.chain)

    def chains(self) -> dict[str, list[tuple]]:
        return {name: self.chain(name) for name in self._lanes}

    def stats(self, host: str) -> dict:
        """Lane accounting only -- no record materialization.

        ``snapshot`` builds JSON dicts for every retained record; summaries
        (the chaos report, bench tables) want just the counters.
        """
        lane = self._lanes.get(host)
        if lane is None:
            return {"records_seen": 0, "dropped": 0, "windows": 0}
        self._drain(lane)
        return {"records_seen": lane.seen, "dropped": lane.dropped,
                "windows": len(lane.chain)}

    def snapshot(self, host: str) -> dict:
        """JSON-ready live view of one lane (the ``[obs]`` flightlog leaf)."""
        lane = self._lanes.get(host)
        if lane is None:
            return {"host": host, "schema": FLIGHT_SCHEMA, "records_seen": 0,
                    "dropped": 0, "capacity": self.capacity,
                    "window": self.window, "records": [], "chain": []}
        self._drain(lane)
        return {
            "host": host,
            "schema": FLIGHT_SCHEMA,
            "records_seen": lane.seen,
            "dropped": lane.dropped,
            "capacity": self.capacity,
            "window": self.window,
            "records": [record_dict(r) for r in self.records(host)],
            "chain": [chain_dict(c) for c in lane.chain],
        }

    # ------------------------------------------------------------ postmortem

    def freeze(self, host: "Host") -> dict:
        """Freeze ``host``'s lane into a postmortem dump (crash time).

        The live lane keeps recording if the host restarts; the dump is
        the black box recovered from the wreck.  Full windows are sealed
        first, so the dump's chain is the same whatever the flush cadence
        was; a partial tail gets a *provisional* seal in the dump only
        (the same digest :meth:`finalize` would produce had the run ended
        here), so every black box carries a chain covering all its
        records even when the host died inside its first window -- the
        live lane is left unsealed and keeps its own window cadence.
        Records and chain are frozen as raw tuples -- crash time is
        *inside* the measured run, so the dump is copied in a few C calls
        and only converted to named JSON form by :func:`export_dump` when
        actually written or served.
        """
        lane = self._lanes.get(host.name)
        chain = []
        if lane is not None:
            self._drain(lane)
            chain = list(lane.chain)
            if lane.tail:
                tail = tuple(lane.tail)
                digest = hash((lane.crc, tail)) & _DIGEST_MASK
                chain.append((len(chain), tail[-1][0], tail[-1][1], digest))
        dump = {
            "kind": "postmortem",
            "schema": FLIGHT_SCHEMA,
            "host": host.name,
            "frozen_t": host.engine.now,
            "frozen_seq": host.engine._fire_seq,
            "records_seen": lane.seen if lane else 0,
            "dropped": lane.dropped if lane else 0,
            "records": self.records(host.name),
            "chain": chain,
        }
        self.postmortems.setdefault(host.name, []).append(dump)
        return dump


# ------------------------------------------------------------------ wiring


def enable_flight_recorder(domain: "Domain",
                           capacity: int = DEFAULT_CAPACITY,
                           window: int = DEFAULT_WINDOW) -> FlightRecorder:
    """Attach a flight recorder to ``domain`` (idempotent).

    Installs the engine's recording dispatch variants (``_fire_seq``
    maintenance + periodic flush; refused from inside ``run()``),
    publishes the recorder at ``domain.flight`` and subscribes it to the
    domain's kernel tap.
    """
    if domain.flight is None:
        recorder = FlightRecorder(capacity=capacity, window=window)
        domain.engine.attach_recorder(recorder)
        domain.flight = recorder
        domain.attach_tap(recorder.on_event)
    return domain.flight


def disable_flight_recorder(domain: "Domain") -> None:
    """Detach and discard ``domain``'s flight recorder, if any."""
    recorder = domain.flight
    if recorder is not None:
        domain.engine.detach_recorder(recorder)
        domain.flight = None
        domain.detach_tap(recorder.on_event)


# ------------------------------------------------------------- divergence


def chain_divergence(chain_a: list, chain_b: list) -> Optional[int]:
    """Index of the first differing digest-chain entry, or None if equal.

    A length mismatch with an equal shared prefix diverges at the first
    missing entry (one run simply recorded more windows).
    """
    for index, (a, b) in enumerate(zip(chain_a, chain_b)):
        if a != b:
            return index
    if len(chain_a) != len(chain_b):
        return min(len(chain_a), len(chain_b))
    return None


def record_divergence(records_a: list, records_b: list) -> Optional[tuple]:
    """First position where two record streams disagree.

    Returns ``(index, record_a, record_b)`` with ``None`` standing in for
    the missing side when one stream is a strict prefix of the other, or
    ``None`` when the streams are identical.
    """
    for index, (a, b) in enumerate(zip(records_a, records_b)):
        if a != b:
            return index, a, b
    if len(records_a) != len(records_b):
        index = min(len(records_a), len(records_b))
        longer = records_a if len(records_a) > len(records_b) else records_b
        extra = longer[index]
        if longer is records_a:
            return index, extra, None
        return index, None, extra
    return None


def compare(recorder_a: FlightRecorder,
            recorder_b: FlightRecorder) -> dict:
    """Full divergence verdict between two finalized recorders.

    Per host: the first divergent chain window (digest comparison) and,
    where records are still retained, the exact fork -- the first record
    pair that disagrees.  The overall ``fork`` is the lowest-seq fork
    across hosts: the first event where the two runs' behaviour split.
    """
    hosts = sorted(set(recorder_a.hosts()) | set(recorder_b.hosts()))
    verdict: dict[str, Any] = {"identical": True, "hosts": {}, "fork": None}
    best: Optional[tuple] = None  # (fork_seq, host, index, rec_a, rec_b)
    for host in hosts:
        window = chain_divergence(recorder_a.chain(host),
                                  recorder_b.chain(host))
        fork = record_divergence(recorder_a.records(host),
                                 recorder_b.records(host))
        entry: dict[str, Any] = {
            "chains_equal": window is None,
            "first_divergent_window": window,
        }
        if fork is not None:
            index, rec_a, rec_b = fork
            entry["fork_index"] = index
            entry["fork_a"] = record_dict(rec_a) if rec_a else None
            entry["fork_b"] = record_dict(rec_b) if rec_b else None
            fork_seq = min(r[0] for r in (rec_a, rec_b) if r is not None)
            entry["fork_seq"] = fork_seq
            if best is None or fork_seq < best[0]:
                best = (fork_seq, host, index, rec_a, rec_b)
        if window is not None or fork is not None:
            verdict["identical"] = False
        verdict["hosts"][host] = entry
    if best is not None:
        fork_seq, host, index, rec_a, rec_b = best
        verdict["fork"] = {
            "host": host,
            "seq": fork_seq,
            "index": index,
            "a": record_dict(rec_a) if rec_a else None,
            "b": record_dict(rec_b) if rec_b else None,
        }
    return verdict


# ----------------------------------------------------------------- dumps


def export_dump(dump: dict) -> dict:
    """A postmortem dump with records/chain in named JSON form.

    :meth:`FlightRecorder.freeze` keeps raw tuples (crash time is inside
    the measured run); exporting converts them.  Idempotent: dumps loaded
    back from disk are already named.
    """
    records = dump.get("records", [])
    if records and not isinstance(records[0], dict):
        dump = dict(dump)
        dump["records"] = [record_dict(r) for r in records]
        dump["chain"] = [chain_dict(c) for c in dump.get("chain", [])]
    return dump


def write_postmortem(path: str, dump: dict) -> None:
    """Write one postmortem dump as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(export_dump(dump), fh, indent=2, sort_keys=True)
        fh.write("\n")


def dump_postmortems(recorder: FlightRecorder, directory: str,
                     seed: Optional[int] = None) -> list[str]:
    """Write every lane's black box under ``directory``; the paths written.

    Crash-frozen dumps go out as recorded (one file per crash); hosts that
    never crashed get an end-of-run dump built from their live lane, so an
    invariant failure always yields a complete set of black boxes.
    """
    os.makedirs(directory, exist_ok=True)
    tag = f"seed{seed}-" if seed is not None else ""
    paths = []
    for host in recorder.hosts():
        dumps = recorder.postmortems.get(host)
        if not dumps:
            snap = recorder.snapshot(host)
            dumps = [{"kind": "postmortem", "schema": FLIGHT_SCHEMA,
                      "host": host, "frozen_t": None, "frozen_seq": None,
                      "records_seen": snap["records_seen"],
                      "dropped": snap["dropped"],
                      "records": snap["records"], "chain": snap["chain"]}]
        for index, dump in enumerate(dumps):
            path = os.path.join(
                directory, f"postmortem-{tag}{host}-{index}.json")
            write_postmortem(path, dump)
            paths.append(path)
    return paths


def load_postmortem(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
