"""Per-layer numbers: direct probes, instrument tax, and the cProfile fold.

A *layer* is a module (or module group) of ``src/repro``; the names below
are the ones every per-layer metric is prefixed with.  Three kinds of
per-layer number come from here:

- **probes** time one layer's public function directly, in ns per call;
- **instrument tax** is ``ops_per_wall_s`` with every instrument off divided
  by the same with one instrument on, runs interleaved;
- **the trace fold** runs a workload's timed region under ``cProfile`` and
  folds function self time by module into layers.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import time
from functools import lru_cache
from pathlib import Path

from repro.core.mapping import map_name
from repro.core.namecache import BindingCache
from repro.core.shard import ShardMap
from repro.kernel.domain import Domain
from repro.kernel.ipc import Send
from repro.kernel.messages import Message, Packet, PacketKind, RequestCode
from repro.kernel.pids import Pid
from repro.net.ethernet import Ethernet
from repro.net.latency import STANDARD_3MBIT
from repro.net.packet import Frame
from repro.net.wire import decode_packet, encode_packet
from repro.servers import VFileServer
from repro.sim.engine import Engine

from catalogue import LAYERS
from workloads import DEFAULT, WORKLOADS, responder

HERE = Path(__file__).resolve().parent
SRC_ROOT = HERE.parents[1] / "src" / "repro"

#: Module (relative to src/repro, no suffix) -> layer; first match wins, a
#: directory entry covers every module beneath it.  Anything of the repo not
#: listed (workloads/, baseline/) and the benchmark's own files are "other".
MODULE_LAYERS = (
    ("net/wire", "net.wire"),
    ("net/asyncio_transport", "net.asyncio"),
    ("net/", "net.ethernet"),
    ("sim/", "sim"),
    ("kernel/", "kernel"),
    ("core/prefix_server", "core.prefix"),
    ("core/namecache", "core.cache"),
    ("core/resolver", "core.cache"),
    ("core/shard", "core.shard"),
    ("core/", "core.csnh"),
    ("servers/statserver", "obs"),
    ("obs/", "obs"),
    ("servers/", "servers"),
    ("vio/", "servers"),
    ("runtime/", "servers"),
    ("faults/", "faults"),
)

#: Standard-library modules that are the asyncio driver's event loop: their
#: self time belongs to net.asyncio whoever called them.
LOOP_MODULES = ("/asyncio/", "/selectors.py", "/socket.py")

#: Built-ins in which the loop only waits (a modelled Delay slept for real,
#: or an idle socket): neither work nor any layer's cost.
IDLE_BUILTINS = ("method 'poll' of 'select.epoll'",
                 "method 'poll' of 'select.poll'",
                 "built-in method select.select",
                 "method 'control' of 'select.kqueue'")


# ---------------------------------------------------------------------- probes


def _timed(body, count: int) -> float:
    start = time.perf_counter()
    body(count)
    return time.perf_counter() - start


def calibrate(body, sample_seconds: float) -> int:
    """How many operations ``body(count)`` needs to run ``sample_seconds``."""
    count = 256
    while True:
        elapsed = _timed(body, count)
        if elapsed >= sample_seconds / 4:
            break
        count *= 4
    return max(1, int(count * sample_seconds / elapsed * 1.1))


def _noop() -> None:
    return None


#: Events (or frames) queued before each drain in the engine and Ethernet
#: probes, so the heap depth -- and with it the cost per push -- does not
#: depend on how long a sample runs.
BATCH = 4096


def _engine_events(count: int) -> None:
    engine = Engine()
    post = engine.post
    for done in range(0, count, BATCH):
        for index in range(min(BATCH, count - done)):
            post(index * 1e-6, _noop)
        engine.run()


def _transactions(remote: bool):
    def body(count: int) -> None:
        domain = Domain(seed=0)
        here = domain.create_host("a")
        there = domain.create_host("b") if remote else here
        target = there.spawn(responder(), name="responder").pid
        done = []

        def client():
            for _ in range(count):
                reply = yield Send(target,
                                   Message.request(RequestCode.QUERY_NAME))
                done.append(reply.ok)

        here.spawn(client(), name="client")
        domain.run()
        if len(done) != count or not all(done):
            raise AssertionError("transaction probe lost replies")
    return body


def _transmits(count: int) -> None:
    engine = Engine()
    ethernet = Ethernet(engine, STANDARD_3MBIT)
    ethernet.attach(1, lambda frame: None)
    ethernet.attach(2, lambda frame: None)
    frame = Frame(1, 2, None, 64)
    transmit = ethernet.transmit
    for done in range(0, count, BATCH):
        for _ in range(min(BATCH, count - done)):
            transmit(frame)
        engine.run()


def _packet(segment_bytes: int) -> Packet:
    message = Message.request(
        RequestCode.OPEN_FILE, segment=b"n" * segment_bytes,
        context_id=DEFAULT, name_index=0, mode="r")
    return Packet(PacketKind.REQUEST, Pid(0x00010002), Pid(0x00020003), 77,
                  message)


def _encodes(segment_bytes: int):
    packet = _packet(segment_bytes)

    def body(count: int) -> None:
        for _ in range(count):
            encode_packet(packet)
    return body


def _decodes(segment_bytes: int):
    packet = _packet(segment_bytes)
    data = encode_packet(packet)
    if decode_packet(data) != packet:
        raise AssertionError("wire codec does not round-trip")

    def body(count: int) -> None:
        for _ in range(count):
            decode_packet(data)
    return body


def _map_names():
    server = VFileServer(user="mann")
    server.store.make_path("a/b/c/leaf.dat", directory=False)
    space = server.namespace()
    name = b"a/b/c/leaf.dat"
    if type(map_name(space, DEFAULT, name, 0)).__name__ != "ResolvedObject":
        raise AssertionError("map_name probe path does not resolve")

    def body(count: int) -> None:
        for _ in range(count):
            map_name(space, DEFAULT, name, 0)
    return body


def _cache_gets(hit: bool):
    cache = BindingCache(max_entries=512, ttl=1.0)
    keys = [b"p%d" % index for index in range(256)]
    for key in keys:
        cache.put(key, key, now=0.0)
    probes = keys if hit else [b"q%d" % index for index in range(256)]

    def body(count: int) -> None:
        get = cache.get
        for index in range(count):
            get(probes[index & 255], 0.5)
    return body


def _cache_puts(count: int) -> None:
    cache = BindingCache(max_entries=512, ttl=1.0)
    keys = [b"p%d" % index for index in range(1024)]
    put = cache.put
    for index in range(count):
        put(keys[index & 1023], index, 0.0)


def _shard_map() -> ShardMap:
    return ShardMap(version=1,
                    replicas=tuple((rid, 1000 + rid) for rid in range(8)),
                    vnodes=64)


def _owner_ofs():
    shard_map = _shard_map()
    prefixes = [b"p%06d" % index for index in range(1024)]
    shard_map.owner_of(prefixes[0])  # builds the ring once, as a server would

    def body(count: int) -> None:
        owner_of = shard_map.owner_of
        for index in range(count):
            owner_of(prefixes[index & 1023])
    return body


def _map_encodes(count: int) -> None:
    shard_map = _shard_map()
    for _ in range(count):
        shard_map.encode()


def _map_decodes():
    payload = _shard_map().encode()
    if ShardMap.decode(payload) != _shard_map():
        raise AssertionError("ShardMap codec does not round-trip")

    def body(count: int) -> None:
        for _ in range(count):
            ShardMap.decode(payload)
    return body


def probes() -> dict:
    """Metric name -> ``body(count)``, built fresh so no probe shares state."""
    return {
        "sim.ns_per_event": _engine_events,
        "kernel.ns_per_local_txn": _transactions(remote=False),
        "kernel.ns_per_remote_txn": _transactions(remote=True),
        "net.ethernet.ns_per_transmit": _transmits,
        "net.wire.ns_per_encode_small": _encodes(16),
        "net.wire.ns_per_decode_small": _decodes(16),
        "net.wire.ns_per_encode_1k": _encodes(1024),
        "net.wire.ns_per_decode_1k": _decodes(1024),
        "core.csnh.ns_per_map_name": _map_names(),
        "core.cache.ns_per_get_hit": _cache_gets(hit=True),
        "core.cache.ns_per_get_miss": _cache_gets(hit=False),
        "core.cache.ns_per_put": _cache_puts,
        "core.shard.ns_per_owner_of": _owner_ofs(),
        "core.shard.ns_per_map_encode": _map_encodes,
        "core.shard.ns_per_map_decode": _map_decodes(),
    }


def run_probes(sample_seconds: float, samples: int) -> dict:
    """Metric name -> ``samples`` ns-per-call samples, each at least
    ``sample_seconds`` long.

    Samples go round-robin over the probes, so a few slow seconds on the box
    cost each probe one sample instead of costing one probe all of them.
    """
    bodies = probes()
    counts = {name: calibrate(body, sample_seconds)
              for name, body in bodies.items()}
    values: dict = {name: [] for name in bodies}
    for _ in range(samples):
        for name, body in bodies.items():
            gc.collect()
            values[name].append(
                _timed(body, counts[name]) / counts[name] * 1e9)
    return values


# -------------------------------------------------------------- instrument tax

#: instrument -> the workload it is priced on.  Kernel-level instruments ride
#: the bare-Send fleet, where their per-event cost is least diluted; the
#: coherence probe only runs where shard state changes.
TAX_WORKLOADS = {"spans": "fleet_send", "telemetry": "fleet_send",
                 "flight": "fleet_send", "profiler": "fleet_send",
                 "coherence": "shard_mutate"}


def _rate(workload, state) -> float:
    """Operations per wall second of one checked run of a built system."""
    gc.collect()
    try:
        outcome = workload.run(state)
    finally:
        workload.close(state)
    if outcome.failed or outcome.problems:
        raise AssertionError(f"{workload.name}: {outcome.problems}")
    return outcome.attempted / outcome.timed_s


def instrument_tax(seed: int, scale: float, rounds: int) -> dict:
    """``obs.<instrument>.tax_ratio`` samples, one per round.

    A round runs each priced workload once with nothing on and once per
    instrument, back to back, so drift in the box's speed hits both sides
    of every ratio alike.
    """
    samples: dict = {f"obs.{name}.tax_ratio": [] for name in TAX_WORKLOADS}
    for _ in range(rounds):
        for base in sorted(set(TAX_WORKLOADS.values())):
            workload = WORKLOADS[base]
            off = _rate(workload, workload.build(seed, scale))
            for instrument, priced_on in TAX_WORKLOADS.items():
                if priced_on == base:
                    on = _rate(workload,
                               workload.build(seed, scale, instrument))
                    samples[f"obs.{instrument}.tax_ratio"].append(off / on)
    return samples


def storm_tax(seed: int, scale: float, rounds: int) -> list:
    """``obs.storm.tax_ratio`` samples: shard_storm / shard_storm_obs reads
    per wall second, interleaved."""
    values = []
    for _ in range(rounds):
        # The state a storm's build returns, without the zero-length storm
        # that build runs only to have a set-up time to report.
        off, on = (_rate(workload, {"seed": seed,
                                    "duration": workload.DURATION * scale})
                   for workload in (WORKLOADS["shard_storm"],
                                    WORKLOADS["shard_storm_obs"]))
        values.append(off / on)
    return values


# ------------------------------------------------------------------ trace fold


@lru_cache(maxsize=None)
def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to, or None for code outside the
    repository (standard library, built-ins)."""
    path = Path(filename).resolve()
    try:
        relative = path.relative_to(SRC_ROOT).with_suffix("")
    except ValueError:
        return "other" if HERE in path.parents else None
    module = relative.as_posix()
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix):
            return layer
    return "other"


def fold_profile(profile: cProfile.Profile, ops: int) -> dict:
    """Fold one cProfile run into ``trace.*`` metrics.

    Self time of a repository function goes to its module's layer.  Self
    time of anything else -- ``heapq``, ``zlib.crc32``, ``struct``, ``json``,
    dict and list methods -- is charged to the layers of its callers, in
    proportion to the time pstats attributes to each caller, following
    caller chains until they reach repository code.  The event loop's own
    modules count as net.asyncio, and time the loop spends waiting in
    ``poll`` is reported as ``trace.idle_wait_share`` and left out of the
    shares, which therefore sum to 1 over *busy* time.
    """
    stats = pstats.Stats(profile).stats
    memo: dict = {}

    def classify(key) -> str | None:
        if key not in memo:
            filename, _, function = key
            if filename == "~":
                memo[key] = ("idle" if any(tag in function
                                           for tag in IDLE_BUILTINS) else None)
            elif any(tag in filename for tag in LOOP_MODULES):
                memo[key] = "net.asyncio"
            else:
                memo[key] = layer_of(filename)
        return memo[key]

    mixes: dict = {}

    def caller_mix(key, open_keys: set) -> dict | None:
        """Layer -> share of the callers of foreign function ``key``; None
        while ``key`` is already being resolved further up (a call cycle
        among foreign functions, whose edge is then ignored)."""
        if key in mixes:
            return mixes[key]
        if key in open_keys:
            return None
        open_keys.add(key)
        callers = stats[key][4]
        # pstats caller entries are (calls, primitive calls, self, cumulative)
        # of ``key`` as called from that caller; weigh by self time, or by
        # calls for functions too cheap to have accrued any.
        column = 2 if any(entry[2] > 0 for entry in callers.values()) else 0
        mix = dict.fromkeys(LAYERS, 0.0)
        total = 0.0
        for caller, entry in callers.items():
            weight = entry[column]
            layer = classify(caller)
            if layer is None:
                inherited = caller_mix(caller, open_keys)
                if inherited is None:
                    continue
                for name, share in inherited.items():
                    mix[name] += weight * share
            else:
                mix[layer] += weight
            total += weight
        open_keys.discard(key)
        if total > 0:
            mix = {name: value / total for name, value in mix.items()}
        else:
            mix = dict.fromkeys(LAYERS, 0.0)
            mix["other"] = 1.0
        mixes[key] = mix
        return mix

    self_time = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    idle = 0.0
    for key, (_, n_calls, own, _, _) in stats.items():
        layer = classify(key)
        if layer == "idle":
            idle += own
        elif layer is None:
            for name, share in caller_mix(key, set()).items():
                self_time[name] += own * share
        else:
            self_time[layer] += own
            calls[layer] += n_calls

    busy = sum(self_time.values())
    metrics = {"trace.idle_wait_share": idle / (busy + idle)
               if busy + idle else 0.0}
    for layer in LAYERS:
        metrics[f"trace.{layer}.self_share"] = (self_time[layer] / busy
                                                if busy else 0.0)
        metrics[f"trace.{layer}.calls_per_op"] = (calls[layer] / ops
                                                  if ops else 0.0)
    return metrics
