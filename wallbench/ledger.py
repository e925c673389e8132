"""Per-layer ledger: the traced run's spans and counters as named metrics.

Every metric is reported on every workload.  A layer the workload never
calls reads zero there (``sim.*`` on the real-time tier, ``crypto.shoup.*``
on ``read_zipf``, ``broadcast.aba.*`` / ``broadcast.coin.*`` off the
failover workload).

Denominators: "per op" is per completed client op of the traced run,
"per write" / "per read" per completed write / read.  On the failover
workload, totals ("instances", "self_us_total", "epoch_changes",
"recovery_sim_s") are per failover script.  "Per signature" counts only
assembled signatures that verified (see ``Tracer._on_sig_check``).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from tracer import Tracer
from workloads import RunResult

# (name, unit) in report order.
LAYER_METRICS: List[Tuple[str, str]] = [
    ("net.local.msgs_per_op", "count"),
    ("net.local.transmit_us_per_op", "us"),
    ("net.local.queue_wait_us_p50", "us"),
    ("core.replica.on_message_self_us_per_op", "us"),
    ("core.replica.answer_cache_hit_ratio", "ratio"),
    ("core.replica.signing_rounds_per_write", "count"),
    ("broadcast.abc.self_us_per_op", "us"),
    ("broadcast.abc.auth_signs_per_op", "count"),
    ("broadcast.abc.auth_verifies_per_op", "count"),
    ("broadcast.abc.epoch_changes", "count"),
    ("broadcast.abc.recovery_sim_s", "s"),
    ("broadcast.aba.instances", "count"),
    ("broadcast.aba.self_us_total", "us"),
    ("broadcast.coin.instances", "count"),
    ("broadcast.coin.self_us_total", "us"),
    ("crypto.rsa.sign_us_per_call", "us"),
    ("crypto.rsa.verify_us_per_call", "us"),
    ("crypto.rsa.calls_per_op", "count"),
    ("crypto.shoup.share_us_per_call", "us"),
    ("crypto.shoup.shares_per_write", "count"),
    ("crypto.shoup.assemble_attempts_per_signature", "ratio"),
    ("crypto.protocols.self_us_per_write", "us"),
    ("dns.message.from_wire_us_per_op", "us"),
    ("dns.message.to_wire_us_per_op", "us"),
    ("dns.server.handle_query_us_per_call", "us"),
    ("dns.update.apply_us_per_write", "us"),
    ("dns.dnssec.verify_rrset_us_per_read", "us"),
    ("dns.rendercache.hit_ratio", "ratio"),
    ("sim.kernel.events_per_op", "count"),
    ("sim.kernel.events_per_msg", "ratio"),
    ("sim.kernel.step_us_per_event", "us"),
    ("sim.network.transmit_us_per_msg", "us"),
    ("sim.network.msgs_per_op", "count"),
    ("sim.network.est_bytes_per_op", "B"),
]


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, result: RunResult) -> Dict[str, float]:
    ok = [op for op in result.ops if op.ok]
    ops = len(ok)
    reads = sum(1 for op in ok if op.is_read)
    writes = ops - reads
    t = tracer
    stats = result.stats
    scripts = max(1, len(result.sim_counts))
    sim_totals = {
        key: sum(counts[key] for counts in result.sim_counts)
        for key in ("events", "msgs", "est_bytes", "deliveries", "ops")
    } if result.sim_counts else {}
    sim_ops = sim_totals.get("ops", 0)

    rsa_sign = "crypto.rsa.RsaPrivateKey.sign"
    rsa_verify = "crypto.rsa.RsaPublicKey.verify"
    share = "crypto.shoup.ThresholdKeyShare.generate_share"
    waits = t.queue_waits_ns
    abc_spans = (
        "broadcast.abc.AtomicBroadcast.on_message",
        "broadcast.abc.AtomicBroadcast.a_broadcast",
    )
    hits = stats.get("answer_cache_hits", 0)
    misses = stats.get("answer_cache_misses", 0)
    render_hits = stats.get("render_hits", 0)
    render_misses = stats.get("render_misses", 0)
    honest = stats.get("honest_replicas", 0) or 1
    recovery = [c["recovery_sim_s"] for c in result.sim_counts if c["recovery_sim_s"] >= 0]

    return {
        "net.local.msgs_per_op": _div(t.count("net.local.AsyncNetwork.transmit"), ops),
        "net.local.transmit_us_per_op": _div(t.total_us("net.local.AsyncNetwork.transmit"), ops),
        "net.local.queue_wait_us_p50": statistics.median(waits) / 1e3 if waits else 0.0,
        "core.replica.on_message_self_us_per_op": _div(
            t.self_us("core.replica.ReplicaServer.on_message"), ops
        ),
        "core.replica.answer_cache_hit_ratio": _div(hits, hits + misses),
        # Rounds started per write, averaged over the honest replicas.
        "core.replica.signing_rounds_per_write": _div(
            stats.get("signing_rounds", 0) / honest, writes
        ),
        "broadcast.abc.self_us_per_op": _div(sum(t.self_us(n) for n in abc_spans), ops),
        "broadcast.abc.auth_signs_per_op": _div(t.count("broadcast.abc.AuthPlane.sign"), ops),
        "broadcast.abc.auth_verifies_per_op": _div(
            t.count("broadcast.abc.AuthPlane.verify") + t.verify_many_items, ops
        ),
        "broadcast.abc.epoch_changes": _div(stats.get("epoch_changes", 0), scripts),
        "broadcast.abc.recovery_sim_s": statistics.median(recovery) if recovery else 0.0,
        "broadcast.aba.instances": _div(len(t.aba_instances), scripts),
        "broadcast.aba.self_us_total": _div(
            t.self_us("broadcast.aba.BinaryAgreement.on_message")
            + t.self_us("broadcast.aba.BinaryAgreement.propose"),
            scripts,
        ),
        "broadcast.coin.instances": _div(len(t.coin_instances), scripts),
        "broadcast.coin.self_us_total": _div(
            t.self_us("broadcast.coin.CommonCoin.on_message")
            + t.self_us("broadcast.coin.CommonCoin.request"),
            scripts,
        ),
        "crypto.rsa.sign_us_per_call": _div(t.total_us(rsa_sign), t.count(rsa_sign)),
        "crypto.rsa.verify_us_per_call": _div(t.total_us(rsa_verify), t.count(rsa_verify)),
        "crypto.rsa.calls_per_op": _div(t.count(rsa_sign) + t.count(rsa_verify), ops),
        "crypto.shoup.share_us_per_call": _div(t.total_us(share), t.count(share)),
        "crypto.shoup.shares_per_write": _div(t.count(share), writes),
        "crypto.shoup.assemble_attempts_per_signature": _div(
            t.count("crypto.shoup.ThresholdPublicKey.assemble"), t.useful_assemblies
        ),
        "crypto.protocols.self_us_per_write": _div(
            t.self_us("crypto.protocols.SigningCoordinator.sign")
            + t.self_us("crypto.protocols.SigningCoordinator.on_message"),
            writes,
        ),
        "dns.message.from_wire_us_per_op": _div(t.total_us("dns.message.Message.from_wire"), ops),
        "dns.message.to_wire_us_per_op": _div(t.total_us("dns.message.Message.to_wire"), ops),
        "dns.server.handle_query_us_per_call": _div(
            t.total_us("dns.server.AuthoritativeServer.handle_query"),
            t.count("dns.server.AuthoritativeServer.handle_query"),
        ),
        "dns.update.apply_us_per_write": _div(t.total_us("dns.update.UpdateProcessor.apply"), writes),
        "dns.dnssec.verify_rrset_us_per_read": _div(t.total_us("dns.dnssec.verify_rrset"), reads),
        "dns.rendercache.hit_ratio": _div(render_hits, render_hits + render_misses),
        "sim.kernel.events_per_op": _div(sim_totals.get("events", 0), sim_ops),
        "sim.kernel.events_per_msg": _div(
            sim_totals.get("events", 0), sim_totals.get("deliveries", 0)
        ),
        # Self time: the kernel's own work (heap, event dispatch); node
        # delivery and execution are spans of their own (see tracer.py).
        "sim.kernel.step_us_per_event": _div(
            t.self_us("sim.kernel.Simulator.step"), t.count("sim.kernel.Simulator.step")
        ),
        "sim.network.transmit_us_per_msg": _div(
            t.total_us("sim.network.SimNetwork.transmit"),
            t.count("sim.network.SimNetwork.transmit"),
        ),
        "sim.network.msgs_per_op": _div(sim_totals.get("msgs", 0), sim_ops),
        "sim.network.est_bytes_per_op": _div(sim_totals.get("est_bytes", 0), sim_ops),
    }
