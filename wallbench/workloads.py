"""The three workloads: seeded traffic, closed-loop clients, answer checks.

Every workload runs ``ServiceConfig`` defaults except ``n``/``t``.  Load
comes from this one process; the serial crypto plane keeps the service on
one core.

* ``read_zipf`` — real-time tier (:class:`AsyncNameService`) at (4,1):
  two closed-loop pragmatic clients on gateway 0 reading a 500-host zone,
  4 in 5 reads Zipf-drawn hosts, 1 in 5 never-existing names.
* ``update_mix`` — same service and zone, replica 2 corrupted with
  ``BAD_SHARES``: one client alternates adds and deletes over a fixed pool
  of names, the other reads as in ``read_zipf`` plus the pool names.
* ``sim_wan_failover`` — simulator tier (:class:`ReplicatedNameService`)
  at (10,3) on ``paper_setup(10)``: a fixed script of closed-loop ops from
  four simulated clients on non-leader gateways (1 op in 10 an add); the
  ABC leader crashes part-way, forcing one epoch change.

Each op is checked outside the timed path; an op not accepted by its
deadline or by the end of the run counts as failed and is never dropped.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import ServiceConfig
from repro.core.client import CompletedOp, PragmaticClient
from repro.core.faults import CorruptionMode
from repro.core.keytool import Deployment, ReplicaKeys
from repro.core.service import DEFAULT_ZONE, ReplicatedNameService
from repro.crypto.params import safe_prime_pair_at
from repro.crypto.rsa import DEFAULT_PUBLIC_EXPONENT, RsaKeyPair, RsaPrivateKey
from repro.crypto.shoup import deal_threshold_key
from repro.dns import constants as c
from repro.dns.name import Name
from repro.dns.rdata import A, KEY, rdata_from_text
from repro.dns.tsig import TsigKey
from repro.errors import ReproError
from repro.net.local import AsyncNameService
from repro.sim.machines import paper_setup
from repro.util.numth import invmod

from tracer import Tracer

ORIGIN = "example.com."
ZIPF_S = 1.1
RT_HOSTS = 500
SIM_HOSTS = 50
POOL_SIZE = 16
SETUP_REPEATS = 3
#: Warm-up ops per client before the timed window (about a second each).
#: Fixed work, so the peak RSS read after it does not follow machine speed.
RT_WARMUP_OPS = {"read_zipf": 100, "update_mix": 15}
RT_CLIENTS = 2
RT_DEADLINE_S = 10.0
SETTLE_LIMIT_S = 10.0
SIM_SCRIPT_OPS = 80
SIM_CRASH_AT = 30
SIM_LEADER = 0
SIM_GATEWAYS = (1, 2, 3, 4)  # one simulated client on each
#: A fault-free op finishes in well under this many simulated seconds;
#: ops caught in the failover wait out the 30 s ABC timeout plus recovery.
SIM_DEADLINE_S = 55.0
SIM_LIMIT_S = 3600.0
MIN_SIM_SCRIPTS = 2

#: Latency tail per workload, fixed so every run reports the same
#: percentile: the highest of p99.5 / p99 / p95 / p90 with at least ten
#: samples beyond it at the benchmark's 25-second run (reads: ~3,500 on
#: read_zipf, ~300 on update_mix, ~350 over the failover scripts) that
#: does not sit on the edge of a cluster of outliers, where it would flip
#: from run to run.  On read_zipf each full garbage collection stalls both
#: clients' reads (pauses grow to ~150 ms as the replicas' per-request
#: logs grow); ~0.4 % of reads, so p99.5 sits on their edge and p99 below.
#: On the failover workload 4 of each script's 72 reads (5.6 %) wait out
#: the epoch change, so p90 (recovery shows in ops_per_s).
TAIL_PERCENTILE = {"read_zipf": 99.0, "update_mix": 95.0, "sim_wan_failover": 90.0}

#: (n, t) of each workload's service.
SHAPE = {"read_zipf": (4, 1), "update_mix": (4, 1), "sim_wan_failover": (10, 3)}

WORKLOADS = ("read_zipf", "update_mix", "sim_wan_failover")

#: Failover-script counts that repeat exactly for a seed.  The byte
#: estimate is not among them: share values and proof nonces are freshly
#: random, so ``wire_size`` of their integers varies by a few bytes.
DETERMINISTIC_COUNTS = ("events", "msgs", "deliveries", "epoch_changes", "recovery_sim_s")

#: Deliberate breakage for the self-test: the checks must notice.
SABOTAGE = ("none", "mute_gateway", "wrong_zone_key")


def host_address(i: int) -> str:
    return f"10.{i // 256}.{i % 256}.7"


def pool_address(j: int) -> str:
    return f"192.0.2.{100 + j}"


def build_zone(hosts: int) -> str:
    lines = [f"h{i} IN A {host_address(i)}" for i in range(hosts)]
    return DEFAULT_ZONE + "\n".join(lines) + "\n"


#: One prime pair per replica for the 512-bit broadcast authentication
#: keys, drawn once with ``repro.util.numth.random_prime`` (as
#: ``generate_rsa_keypair(512)`` draws them).
AUTH_PRIMES: List[Tuple[int, int]] = [
    (int(p, 16), int(q, 16))
    for p, q in json.loads((Path(__file__).parent / "auth_primes.json").read_text())
]


def auth_keypair(index: int) -> RsaKeyPair:
    """Replica ``index``'s authentication key pair, from pinned primes."""
    p, q = AUTH_PRIMES[index]
    return RsaKeyPair(private=RsaPrivateKey(
        modulus=p * q,
        exponent=DEFAULT_PUBLIC_EXPONENT,
        private_exponent=invmod(DEFAULT_PUBLIC_EXPONENT, (p - 1) * (q - 1)),
        prime_p=p,
        prime_q=q,
    ))


def pinned_deployment(config: ServiceConfig, prime_index: int = 0) -> Deployment:
    """Key material as ``generate_deployment`` deals it, from fixed primes.

    ``generate_deployment`` draws safe primes from a process-wide cycling
    pool, so each deployment in a process gets a different zone and coin
    key; the coin values, and with them the agreement rounds of an epoch
    change, would then differ between runs of one seed.  Pinning the
    prime pairs (as the chaos harness does) makes every deployment of a
    run sign and toss coins identically.  The authentication keys come
    from pinned primes too: a fresh prime search takes a random time,
    which set-up time would inherit.  Sharing polynomials stay freshly
    random.
    """
    n, t = config.n, config.t
    zone_p, zone_q = safe_prime_pair_at(256, prime_index)
    coin_p, coin_q = safe_prime_pair_at(256, prime_index + 1)
    zone_public, zone_shares = deal_threshold_key(
        n=n, t=t, bits=512, prime_p=zone_p, prime_q=zone_q
    )
    coin_public, coin_shares = deal_threshold_key(
        n=n, t=t, bits=512, prime_p=coin_p, prime_q=coin_q
    )
    auth_keys = [auth_keypair(i) for i in range(n)]
    return Deployment(
        config=config,
        zone_public=zone_public,
        coin_public=coin_public,
        auth_public=tuple(k.public for k in auth_keys),
        replicas=tuple(
            ReplicaKeys(
                index=i,
                zone_share=zone_shares[i],
                coin_share=coin_shares[i],
                auth_key=auth_keys[i],
            )
            for i in range(n)
        ),
        tsig_key=TsigKey(
            name=Name.from_text("update-key.repro."), secret=b"repro-update-key-secret"
        ),
    )


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One planned client operation and what a correct answer looks like."""

    kind: str                  # "read" / "nx" / "pool" / "add" / "delete"
    name: str
    address: Optional[str] = None  # expected A rdata (reads) / added rdata

    @property
    def is_write(self) -> bool:
        return self.kind in ("add", "delete")


class ReadMix:
    """Seeded reads: Zipf-ranked hosts, never-existing names, pool names.

    Positions fix the mix (every 5th read is a miss, every 10th a pool
    name when a pool exists) so the amount of work does not vary with the
    seed; the seed picks which host holds each Zipf rank and the names.
    """

    def __init__(self, rng: random.Random, hosts: int, pool: Tuple[int, ...] = ()) -> None:
        self.rng = rng
        self.rank_to_host = rng.sample(range(hosts), hosts)
        weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, hosts + 1)]
        total = 0.0
        self.cumulative: List[float] = []
        for weight in weights:
            total += weight
            self.cumulative.append(total)
        self.pool = pool
        self.count = 0

    def next(self) -> Op:
        k = self.count
        self.count += 1
        if k % 5 == 4:
            # A universe of 2^40 names: far beyond the 4,096-entry cache.
            return Op("nx", f"nx-{self.rng.getrandbits(40):010x}.{ORIGIN}")
        if self.pool and k % 10 == 2:
            j = self.rng.choice(self.pool)
            return Op("pool", f"pool{j}.{ORIGIN}", pool_address(j))
        draw = self.rng.random() * self.cumulative[-1]
        rank = min(bisect.bisect_left(self.cumulative, draw), len(self.cumulative) - 1)
        host = self.rank_to_host[rank]
        return Op("read", f"h{host}.{ORIGIN}", host_address(host))


class WriteCycle:
    """Alternating add / delete over a seeded order of the pool names."""

    def __init__(self, rng: random.Random, pool_size: int) -> None:
        self.order = rng.sample(range(pool_size), pool_size)
        self.count = 0

    def next(self) -> Op:
        k = self.count
        self.count += 1
        j = self.order[(k // 2) % len(self.order)]
        name = f"pool{j}.{ORIGIN}"
        if k % 2 == 0:
            return Op("add", name, pool_address(j))
        return Op("delete", name)


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------


def check_answer(op: Op, done: CompletedOp) -> str:
    """Return "" when ``done`` is a correct answer to ``op``, else why not."""
    response = done.response
    if response is None:
        return "no response"
    if op.is_write:
        if response.rcode != c.RCODE_NOERROR:
            return f"{op.kind} {op.name}: rcode {response.rcode}"
        return ""
    if op.kind == "nx" or (op.kind == "pool" and response.rcode == c.RCODE_NXDOMAIN):
        if response.rcode != c.RCODE_NXDOMAIN:
            return f"{op.name}: rcode {response.rcode}, expected NXDOMAIN"
        return ""
    if response.rcode != c.RCODE_NOERROR:
        return f"{op.name}: rcode {response.rcode}"
    if not done.verified:
        return f"{op.name}: answer not verified against the zone key"
    addresses = {
        rr.rdata.address
        for rr in response.answers
        if rr.rtype == c.TYPE_A and isinstance(rr.rdata, A)
    }
    if addresses != {op.address}:
        return f"{op.name}: got {sorted(addresses)}, expected {op.address}"
    return ""


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class OpRecord:
    kind: str
    client: int
    msg_id: int
    start: float          # wall seconds (perf_counter)
    end: float            # wall seconds; nan if never accepted
    error: str            # "" when accepted and correct
    measured: bool        # inside the timed window (not warm-up)

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def is_read(self) -> bool:
        return self.kind in ("read", "nx", "pool")


@dataclass
class RunResult:
    tail_percentile: float
    setup_s: List[float] = field(default_factory=list)
    window_s: float = 0.0
    ops: List[OpRecord] = field(default_factory=list)
    check_errors: List[str] = field(default_factory=list)
    # Per failover script: the counts the simulator makes deterministic.
    sim_counts: List[Dict[str, float]] = field(default_factory=list)
    # Counters read from the program's public stats over the traced part.
    stats: Dict[str, float] = field(default_factory=dict)
    # Ops whose completion fell inside the window (throughput numerator).
    window_reads: int = 0
    window_writes: int = 0
    # Peak RSS through set-up and a fixed amount of traffic (the real-time
    # warm-up, the first failover script); the whole run's peak grows with
    # the number of ops a run completes, so it follows machine speed.
    peak_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (``values`` need not be sorted)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Real-time tier
# ---------------------------------------------------------------------------


def _rt_client(service: AsyncNameService, seed: int, k: int, zone_key: KEY) -> PragmaticClient:
    """A pragmatic client on gateway 0 with seeded DNS message ids.

    ``AsyncNameService.add_client`` draws ids from ``secrets``; a reused id
    would send a repeat query through the gateway's response cache instead
    of atomic broadcast, so the work would vary from run to run.
    """
    config = service.config
    return PragmaticClient(
        gateway=0,
        node=service.net.add_node(),
        config=config,
        replica_ids=list(range(config.n)),
        zone_origin=service.zone_origin,
        zone_key=zone_key,
        id_rng=random.Random(f"ids:{seed}:{k}"),
    )


def _rt_build(workload: str, seed: int, zone_text: str, sabotage: str):
    n, t = SHAPE[workload]
    config = ServiceConfig(n=n, t=t)
    deployment = pinned_deployment(config)
    service = AsyncNameService(config, zone_text=zone_text, deployment=deployment)
    zone_key = deployment.zone_key_record
    if sabotage == "wrong_zone_key":
        zone_key = pinned_deployment(config, prime_index=2).zone_key_record
    clients = [_rt_client(service, seed, k, zone_key) for k in range(RT_CLIENTS)]
    if workload == "update_mix":
        service.replicas[2].corrupt(CorruptionMode.BAD_SHARES)
    if sabotage == "mute_gateway":
        service.replicas[0].corrupt(CorruptionMode.MUTE_TO_CLIENTS)
    return service, clients


def _issue(client: PragmaticClient, op: Op, origin: Name, callback: Callable) -> int:
    name = Name.from_text(op.name)
    if op.kind == "add":
        rdata = rdata_from_text(c.TYPE_A, [op.address], origin)
        return client.add_record(name, c.TYPE_A, 300, rdata, callback)
    if op.kind == "delete":
        return client.delete_name(name, callback)
    return client.query(name, c.TYPE_A, callback)


def _replica_counters(replicas) -> Dict[str, float]:
    totals = {
        "answer_cache_hits": 0,
        "answer_cache_misses": 0,
        "signing_rounds": 0,
        "render_hits": 0,
        "render_misses": 0,
        "epoch_changes": 0,
    }
    honest = [r for r in replicas if not r.fault.is_corrupted]
    for replica in honest:
        totals["answer_cache_hits"] += replica.stats["answer_cache_hits"]
        totals["answer_cache_misses"] += replica.stats["answer_cache_misses"]
        totals["signing_rounds"] += replica.signing_rounds
        totals["render_hits"] += replica.zone.render.stats["hits"]
        totals["render_misses"] += replica.zone.render.stats["misses"]
        if replica.abc is not None:
            totals["epoch_changes"] = max(
                totals["epoch_changes"], replica.abc.stats["epoch_changes"]
            )
    totals["honest_replicas"] = len(honest)
    return totals


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    out = {key: after[key] - before.get(key, 0) for key in after}
    out["honest_replicas"] = after["honest_replicas"]
    return out


async def _realtime(
    workload: str, seed: int, seconds: float, tracer: Optional[Tracer], sabotage: str
) -> RunResult:
    result = RunResult(TAIL_PERCENTILE[workload])
    zone_text = build_zone(RT_HOSTS)
    service = clients = None
    for _ in range(SETUP_REPEATS):
        service = clients = None
        gc.collect()
        t0 = time.perf_counter()
        service, clients = _rt_build(workload, seed, zone_text, sabotage)
        result.setup_s.append(time.perf_counter() - t0)
    assert service is not None and clients is not None
    gc.collect()

    pool = tuple(range(POOL_SIZE)) if workload == "update_mix" else ()
    sources: List[Callable[[], Op]] = []
    for k in range(RT_CLIENTS):
        rng = random.Random(f"traffic:{workload}:{seed}:{k}")
        if workload == "update_mix" and k == 0:
            sources.append(WriteCycle(rng, POOL_SIZE).next)
        else:
            sources.append(ReadMix(rng, RT_HOSTS, pool).next)

    loop = asyncio.get_running_loop()
    before = _replica_counters(service.replicas)
    if tracer is not None:
        tracer.start()

    async def closed_loop(k: int, ops: int, until: float, measured: bool) -> None:
        client = clients[k]
        for _ in range(ops):
            if time.perf_counter() >= until:
                return
            op = sources[k]()
            future: asyncio.Future = loop.create_future()
            issued = time.perf_counter()
            msg_id = _issue(
                client, op, service.zone_origin,
                lambda done, f=future: f.done() or f.set_result(done),
            )
            try:
                done = await asyncio.wait_for(future, RT_DEADLINE_S)
            except asyncio.TimeoutError:
                finished = time.perf_counter()
                end, error = math.nan, f"{op.kind} {op.name}: no answer in {RT_DEADLINE_S} s"
            else:
                finished = time.perf_counter()
                end, error = finished, check_answer(op, done)
            result.ops.append(OpRecord(op.kind, k, msg_id, issued, end, error, measured))
            if tracer is not None:
                tracer.op_span(
                    op.kind, msg_id, k, int(issued * 1e9), int(finished * 1e9), not error
                )

    try:
        # A healthy warm-up takes about a second; the cap only keeps a
        # broken service (see SABOTAGE) from stalling it op by op.
        warmup, cap = RT_WARMUP_OPS[workload], time.perf_counter() + RT_DEADLINE_S
        await asyncio.gather(
            *(closed_loop(k, warmup, cap, False) for k in range(RT_CLIENTS))
        )
        result.peak_rss_mb = peak_rss_mb()
        window_start = time.perf_counter()
        window_end = window_start + seconds
        await asyncio.gather(
            *(closed_loop(k, sys.maxsize, window_end, True) for k in range(RT_CLIENTS))
        )
    finally:
        if tracer is not None:
            tracer.stop()
    result.window_s = seconds
    for op in result.ops:
        if op.ok and window_start <= op.end <= window_end:
            if op.is_read:
                result.window_reads += 1
            else:
                result.window_writes += 1
    result.stats = _delta(_replica_counters(service.replicas), before)

    # Post-run checks: honest replicas converge and every zone verifies.
    deadline = time.perf_counter() + SETTLE_LIMIT_S
    while not service.states_consistent() and time.perf_counter() < deadline:
        await asyncio.sleep(0.05)
    if not service.states_consistent():
        result.check_errors.append("honest replicas disagree on the zone")
    try:
        service.verify_all_zones()
    except ReproError as exc:
        result.check_errors.append(f"zone verification failed: {exc}")
    service.close()
    return result


# ---------------------------------------------------------------------------
# Simulator tier
# ---------------------------------------------------------------------------


def _sim_build(
    seed: int, zone_text: str, sabotage: str
) -> Tuple[ReplicatedNameService, List[PragmaticClient]]:
    n, t = SHAPE["sim_wan_failover"]
    config = ServiceConfig(n=n, t=t)
    deployment = pinned_deployment(config)
    service = ReplicatedNameService(
        config,
        topology=paper_setup(n),
        zone_text=zone_text,
        deployment=deployment,
        gateway=SIM_GATEWAYS[0],
        seed=seed,
    )
    clients = [service.client] + [service.add_client(gateway=g) for g in SIM_GATEWAYS[1:]]
    if sabotage == "wrong_zone_key":
        wrong = pinned_deployment(config, prime_index=2).zone_key_record
        for client in clients:
            client.zone_key = wrong
    return service, clients


def _sim_script(
    service: ReplicatedNameService, clients: list, seed: int, tracer: Optional[Tracer]
) -> Tuple[List[OpRecord], float, Dict[str, float]]:
    """Run the fixed failover script; returns (ops, wall seconds, counts)."""
    sim = service.net.sim
    rng = random.Random(f"traffic:sim_wan_failover:{seed}")
    reads = ReadMix(rng, SIM_HOSTS)
    plan: List[Op] = []
    for k in range(SIM_SCRIPT_OPS):
        if k % 10 == 9:
            plan.append(Op("add", f"add{k}.{ORIGIN}", pool_address(k % 100)))
        else:
            plan.append(reads.next())
    records: List[Optional[OpRecord]] = [None] * SIM_SCRIPT_OPS
    state = {"issued": 0, "done": 0, "crash_time": -1.0, "recovered_at": -1.0}
    honest = [r for i, r in enumerate(service.replicas) if i != SIM_LEADER]

    def issue(k_client: int) -> None:
        index = state["issued"]
        if index >= SIM_SCRIPT_OPS:
            return
        state["issued"] = index + 1
        if index == SIM_CRASH_AT:
            service.corrupt(SIM_LEADER, CorruptionMode.CRASH)
            state["crash_time"] = sim.now
        op = plan[index]
        issued_wall = time.perf_counter()
        issued_sim = sim.now

        def on_done(done: CompletedOp) -> None:
            end = time.perf_counter()
            error = check_answer(op, done)
            if not error and sim.now - issued_sim > SIM_DEADLINE_S:
                error = f"{op.kind} {op.name}: accepted after {sim.now - issued_sim:.1f} sim s"
            records[index] = OpRecord(op.kind, k_client, done.msg_id, issued_wall, end, error, True)
            if tracer is not None:
                tracer.op_span(op.kind, done.msg_id, k_client, int(issued_wall * 1e9),
                               int(end * 1e9), not error)
            state["done"] += 1
            issue(k_client)

        _issue(clients[k_client], op, service.zone_origin, on_done)

    def finished() -> bool:
        if state["recovered_at"] < 0 <= state["crash_time"]:
            if all(r.abc.epoch > 0 for r in honest):
                state["recovered_at"] = sim.now
        return state["done"] >= SIM_SCRIPT_OPS

    if tracer is not None:
        tracer.segment += 1
        tracer.start()
    t0 = time.perf_counter()
    try:
        for k in range(len(clients)):
            issue(k)
        sim.run(until=sim.now + SIM_LIMIT_S, condition=finished)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.stop()
    ops = []
    for index, record in enumerate(records):
        if record is None:
            op = plan[index]
            record = OpRecord(op.kind, -1, -1, t0, math.nan,
                              f"{op.kind} {op.name}: never accepted", True)
        ops.append(record)
    counts = {
        "events": sim.events_processed,
        "msgs": service.net.messages_sent,
        "est_bytes": service.net.bytes_sent,
        "deliveries": sum(node.delivered_count for node in service.net.nodes),
        "epoch_changes": max(r.abc.stats["epoch_changes"] for r in honest),
        "recovery_sim_s": (
            state["recovered_at"] - state["crash_time"]
            if state["recovered_at"] >= 0 else math.nan
        ),
        "ops": len(ops),
    }
    return ops, wall, counts


def _sim(seed: int, seconds: float, tracer: Optional[Tracer], sabotage: str) -> RunResult:
    result = RunResult(TAIL_PERCENTILE["sim_wan_failover"])
    zone_text = build_zone(SIM_HOSTS)
    stats: Dict[str, float] = {}
    while result.window_s < seconds or len(result.sim_counts) < MIN_SIM_SCRIPTS:
        gc.collect()
        t0 = time.perf_counter()
        service, clients = _sim_build(seed, zone_text, sabotage)
        result.setup_s.append(time.perf_counter() - t0)
        gc.collect()
        before = _replica_counters(service.replicas)
        ops, wall, counts = _sim_script(service, clients, seed, tracer)
        if not result.sim_counts:
            result.peak_rss_mb = peak_rss_mb()
        result.ops.extend(ops)
        result.window_s += wall
        result.sim_counts.append(counts)
        for key, value in _delta(_replica_counters(service.replicas), before).items():
            stats[key] = stats.get(key, 0) + value
        if not service.states_consistent():
            result.check_errors.append("honest replicas disagree on the zone")
        try:
            service.verify_all_zones()
        except ReproError as exc:
            result.check_errors.append(f"zone verification failed: {exc}")
        service.close()
    while len(result.setup_s) < SETUP_REPEATS:
        t0 = time.perf_counter()
        _sim_build(seed, zone_text, sabotage)
        result.setup_s.append(time.perf_counter() - t0)
    stats["honest_replicas"] = stats.get("honest_replicas", 0) / len(result.sim_counts)
    result.stats = stats
    result.window_reads = sum(1 for op in result.ops if op.ok and op.is_read)
    result.window_writes = sum(1 for op in result.ops if op.ok and not op.is_read)
    first = result.sim_counts[0]
    if not first["recovery_sim_s"] >= 0:
        result.check_errors.append("the honest replicas never left the crashed leader's epoch")
    for counts in result.sim_counts[1:]:
        for key in DETERMINISTIC_COUNTS:
            if counts[key] != first[key]:
                result.check_errors.append(
                    f"deterministic count {key} differs between scripts: "
                    f"{first[key]} vs {counts[key]}"
                )
    return result


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
    sabotage: str = "none",
) -> RunResult:
    """Set up, run and check one workload; the tracer is optional."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if sabotage not in SABOTAGE:
        raise ValueError(f"unknown sabotage {sabotage!r}")
    # Installed before the service is built (see tracer.py); it records
    # only while the ops run.
    if tracer is not None:
        tracer.install()
    try:
        if workload == "sim_wan_failover":
            return _sim(seed, seconds, tracer, sabotage)
        return asyncio.run(_realtime(workload, seed, seconds, tracer, sabotage))
    finally:
        if tracer is not None:
            tracer.uninstall()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(result: RunResult) -> Dict[str, float]:
    """The end-to-end metrics of one run (units in ``metrics.E2E_UNITS``)."""
    measured = [op for op in result.ops if op.measured]
    # A failed op counts as missing every latency limit.
    read_lat = [
        (op.end - op.start) * 1e3 if op.ok else math.inf
        for op in measured if op.is_read
    ]
    write_lat = [
        (op.end - op.start) * 1e3 if op.ok else math.inf
        for op in measured if not op.is_read
    ]
    window = result.window_s
    pct = result.tail_percentile
    return {
        "setup_s": statistics.median(result.setup_s),
        "ops_per_s": (result.window_reads + result.window_writes) / window,
        "read_ops_per_s": result.window_reads / window,
        "read_p50_ms": percentile(read_lat, 50.0),
        "read_tail_ms": percentile(read_lat, pct),
        "peak_rss_mb": result.peak_rss_mb,
        # Reported beside the gated metrics (read_zipf has no writes).
        "write_ops_per_s": result.window_writes / window,
        "write_p50_ms": percentile(write_lat, 50.0),
        "write_tail_ms": percentile(write_lat, pct),
        "failed_frac": result.failed / max(1, result.attempted),
    }
