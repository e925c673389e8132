"""Span tracer installed from outside the program.

:class:`Tracer` patches the public entry points of each layer (class
attributes and module functions) with thin wrappers that record a span
per call: name, start, end and the enclosing span.  Every call in the
program is synchronous, so spans nest on one stack and a layer's *self
time* is its duration minus the time covered by its child spans.

Aggregates (count, total, self) cover every call.  Individual spans are
kept in memory up to a cap and written once, at the end, as Chrome
trace-event JSON (opens in Perfetto or ``chrome://tracing``).

Install the tracer *before* the program objects are built: a replica
binds its ``on_message`` as the node handler at construction, so a patch
made later would never see those calls.  Spans are recorded only while
``recording`` is set, which keeps set-up work out of the ledger.
``uninstall`` restores every patched attribute, so an untraced run in the
same process measures the unmodified program.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Individual spans kept for the trace file; aggregates cover every call.
MAX_SPANS = 100_000

# (module, owner class or None for a module function, attribute, layer).
# The span name is "<layer>.<Owner>.<attribute>".
ENTRY_POINTS: List[Tuple[str, Optional[str], str, str]] = [
    ("repro.net.local", "AsyncNetwork", "transmit", "net.local"),
    ("repro.net.local", "AsyncNode", "_deliver", "net.local"),
    ("repro.core.replica", "ReplicaServer", "on_message", "core.replica"),
    ("repro.broadcast.abc", "AtomicBroadcast", "a_broadcast", "broadcast.abc"),
    ("repro.broadcast.abc", "AtomicBroadcast", "on_message", "broadcast.abc"),
    ("repro.broadcast.abc", "AuthPlane", "sign", "broadcast.abc"),
    ("repro.broadcast.abc", "AuthPlane", "verify", "broadcast.abc"),
    ("repro.broadcast.abc", "AuthPlane", "verify_many", "broadcast.abc"),
    ("repro.broadcast.aba", "BinaryAgreement", "propose", "broadcast.aba"),
    ("repro.broadcast.aba", "BinaryAgreement", "on_message", "broadcast.aba"),
    ("repro.broadcast.coin", "CommonCoin", "request", "broadcast.coin"),
    ("repro.broadcast.coin", "CommonCoin", "on_message", "broadcast.coin"),
    ("repro.crypto.protocols", "SigningCoordinator", "sign", "crypto.protocols"),
    ("repro.crypto.protocols", "SigningCoordinator", "on_message", "crypto.protocols"),
    ("repro.crypto.shoup", "ThresholdKeyShare", "generate_share", "crypto.shoup"),
    ("repro.crypto.shoup", "ThresholdPublicKey", "assemble", "crypto.shoup"),
    ("repro.crypto.shoup", "ThresholdPublicKey", "signature_is_valid", "crypto.shoup"),
    ("repro.crypto.rsa", "RsaPrivateKey", "sign", "crypto.rsa"),
    ("repro.crypto.rsa", "RsaPublicKey", "verify", "crypto.rsa"),
    ("repro.dns.message", "Message", "from_wire", "dns.message"),
    ("repro.dns.message", "Message", "to_wire", "dns.message"),
    ("repro.dns.server", "AuthoritativeServer", "handle_query", "dns.server"),
    ("repro.dns.update", "UpdateProcessor", "apply", "dns.update"),
    ("repro.dns.dnssec", None, "verify_rrset", "dns.dnssec"),
    ("repro.core.client", "_ClientBase", "_on_message", "core.client"),
    ("repro.sim.kernel", "Simulator", "step", "sim.kernel"),
    ("repro.sim.network", "SimNetwork", "transmit", "sim.network"),
    # Arrival (with the busy re-queue) and every node-local run: message
    # handlers, timers and local work, so Simulator.step keeps only the
    # kernel's own self time.
    ("repro.sim.network", "SimNode", "_deliver", "sim.network"),
    ("repro.sim.network", "SimNode", "_execute", "sim.network"),
]


def span_name(owner: Optional[str], attr: str, layer: str) -> str:
    return f"{layer}.{owner}.{attr}" if owner else f"{layer}.{attr}"


class _Agg:
    __slots__ = ("count", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Records spans around the layers' entry points while installed."""

    def __init__(self) -> None:
        self.recording = False
        self.recorded_ns = 0
        self._recording_since = 0
        self.clock = time.perf_counter_ns
        self.origin_ns = self.clock()
        self.aggs: Dict[str, _Agg] = {}
        # (name, start_ns, end_ns, span_id, parent_id)
        self.spans: List[Tuple[str, int, int, int, int]] = []
        self.spans_dropped = 0
        # (kind, msg_id, client, start_ns, end_ns, ok)
        self.op_spans: List[Tuple[str, int, int, int, int, bool]] = []
        # Stack frames: [span_id, child_ns].
        self._stack: List[List[int]] = []
        self._next_id = 1
        self._patched: List[Tuple[Any, str, Any]] = []
        # Extra per-layer counts gathered from call arguments and results.
        self.verify_many_items = 0
        # OptTE trial and error: the last signature ``assemble`` produced,
        # and how many of those then verified.
        self._last_assembled: Optional[bytes] = None
        self.useful_assemblies = 0
        self.aba_instances: set = set()
        self.coin_instances: set = set()
        # Bumped by the driver per fresh deployment, so a replayed script's
        # agreement ids count as new instances.
        self.segment = 0
        # Queue wait on the asyncio bus: transmit and delivery are matched
        # FIFO (zero-delay links deliver in the order they were sent).
        self._sent_at: deque = deque()
        self.queue_waits_ns: List[int] = []

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, owner_name, attr, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr] if owner_name else getattr(module, attr)
            name = span_name(owner_name, attr, layer)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(raw.__func__, name))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def start(self) -> None:
        """Record spans from now on (the wrappers must be installed)."""
        self.recording = True
        self._recording_since = self.clock()

    def stop(self) -> None:
        if self.recording:
            self.recorded_ns += self.clock() - self._recording_since
        self.recording = False

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, func: Callable, name: str) -> Callable:
        agg = self.aggs.setdefault(name, _Agg())
        hook = self._hooks().get(name)
        clock = self.clock
        stack = self._stack
        spans = self.spans

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return func(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                agg.count += 1
                agg.total_ns += duration
                agg.self_ns += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < MAX_SPANS:
                    spans.append((name, start, end, span_id, parent))
                else:
                    self.spans_dropped += 1
                if hook is not None:
                    hook(args, result, start)

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = func.__doc__
        return traced

    def _hooks(self) -> Dict[str, Callable[[tuple, Any, int], None]]:
        return {
            "net.local.AsyncNetwork.transmit": self._on_transmit,
            "net.local.AsyncNode._deliver": self._on_deliver,
            "broadcast.abc.AuthPlane.verify_many": self._on_verify_many,
            "crypto.shoup.ThresholdPublicKey.assemble": self._on_assemble,
            "crypto.shoup.ThresholdPublicKey.signature_is_valid": self._on_sig_check,
            "broadcast.aba.BinaryAgreement.propose": self._on_aba_propose,
            "broadcast.coin.CommonCoin.request": self._on_coin_request,
        }

    def _on_transmit(self, args: tuple, result: Any, start: int) -> None:
        self._sent_at.append(start)

    def _on_deliver(self, args: tuple, result: Any, start: int) -> None:
        if self._sent_at:
            self.queue_waits_ns.append(start - self._sent_at.popleft())

    def _on_verify_many(self, args: tuple, result: Any, start: int) -> None:
        self.verify_many_items += len(args[1])

    def _on_assemble(self, args: tuple, result: Any, start: int) -> None:
        self._last_assembled = result  # None when assembly raised

    def _on_sig_check(self, args: tuple, result: Any, start: int) -> None:
        # Useful only if it checks what the directly preceding assemble
        # produced; a peer's final signature adopted without assembling
        # counts in neither the attempts nor the useful signatures.
        assembled, self._last_assembled = self._last_assembled, None
        if result and assembled is not None and args[2] == assembled:
            self.useful_assemblies += 1

    def _on_aba_propose(self, args: tuple, result: Any, start: int) -> None:
        self.aba_instances.add((self.segment, args[1]))

    def _on_coin_request(self, args: tuple, result: Any, start: int) -> None:
        self.coin_instances.add((self.segment, args[1], args[2]))

    # -- client operations ------------------------------------------------------

    def op_span(
        self, kind: str, msg_id: int, client: int, start_ns: int, end_ns: int, ok: bool
    ) -> None:
        """Record one client operation (issue to acceptance or give-up)."""
        self.op_spans.append((kind, msg_id, client, start_ns, end_ns, ok))

    # -- reading the results ---------------------------------------------------

    def count(self, name: str) -> int:
        agg = self.aggs.get(name)
        return agg.count if agg else 0

    def total_us(self, name: str) -> float:
        agg = self.aggs.get(name)
        return agg.total_ns / 1e3 if agg else 0.0

    def self_us(self, name: str) -> float:
        agg = self.aggs.get(name)
        return agg.self_ns / 1e3 if agg else 0.0

    def layer_self_us(self) -> Dict[str, float]:
        layers: Dict[str, float] = {}
        for module_name, owner, attr, layer in ENTRY_POINTS:
            layers[layer] = layers.get(layer, 0.0) + self.self_us(
                span_name(owner, attr, layer)
            )
        return layers

    def self_time_table(self) -> str:
        """Per-entry-point and per-layer self time, busiest first."""
        covered = sum(a.self_ns for a in self.aggs.values()) or 1
        wall = self.recorded_ns or 1
        rows = sorted(
            ((name, agg) for name, agg in self.aggs.items() if agg.count),
            key=lambda item: -item[1].self_ns,
        )
        lines = [
            f"{'span':58} {'calls':>9} {'total ms':>10} {'self ms':>10} {'self %':>7}"
        ]
        for name, agg in rows:
            lines.append(
                f"{name:58} {agg.count:9d} {agg.total_ns / 1e6:10.1f} "
                f"{agg.self_ns / 1e6:10.1f} {100 * agg.self_ns / covered:7.1f}"
            )
        lines.append("")
        lines.append(f"{'layer':58} {'self ms':>10} {'self %':>7}")
        for layer, us in sorted(self.layer_self_us().items(), key=lambda kv: -kv[1]):
            lines.append(f"{layer:58} {us / 1e3:10.1f} {100 * us * 1e3 / covered:7.1f}")
        lines.append(
            f"spans cover {covered / 1e6:.1f} ms of {wall / 1e6:.1f} ms recorded wall time "
            f"({100 * covered / wall:.1f} %); self % is of the covered time"
        )
        return "\n".join(lines)

    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        origin = self.origin_ns
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 2)[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"span": span_id, "parent": parent},
            }
            for name, start, end, span_id, parent in self.spans
        ]
        events.extend(
            {
                "name": f"client {kind}",
                "cat": "client",
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 100 + client,
                "args": {"msg_id": msg_id, "ok": ok},
            }
            for kind, msg_id, client, start, end, ok in self.op_spans
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": {"spans_dropped": self.spans_dropped},
                },
                handle,
            )
