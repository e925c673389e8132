"""Wall-clock benchmark of the replicated name service.

Run from the repository root::

    python3 wallbench/run.py --workload read_zipf --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the unmodified program and prints the end-to-end
metrics; ``--trace 1`` runs the workload twice in this process, first
untraced and then with span wrappers installed around every layer's entry
points, and prints the per-layer ledger, the self-time table and the
tracing overhead (traced minus untraced end-to-end metrics).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of the run (seed, nproc, Python version, commit, every metric and
the reference rows) and, when traced, a Chrome trace-event file go to
``.wallbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".wallbench"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"wallbench: no program source at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

from repro.config import ServiceConfig  # noqa: E402

import reference  # noqa: E402
from ledger import LAYER_METRICS, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DETERMINISTIC_COUNTS,
    SHAPE,
    WORKLOADS,
    RunResult,
    end_to_end,
    peak_rss_mb,
    pinned_deployment,
    run_workload,
)

# Gated end-to-end metrics (BENCHMARK.json) with their units.
E2E_METRICS: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
# Printed and recorded, not gated: zero or undefined on some workload.
E2E_EXTRA: List[Tuple[str, str]] = [
    ("write_ops_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("failed_frac", "ratio"),
]

def provenance(seed: int) -> Dict[str, object]:
    """Seed, nproc, Python version, commit (if known) and a digest of src/."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def finite(value: float) -> float:
    """JSON has no inf/nan: -1 marks a metric with no defined value."""
    return value if math.isfinite(value) else -1.0


def print_e2e(label: str, metrics: Dict[str, float], result: RunResult) -> None:
    tail = result.tail_percentile
    reads = sum(1 for op in result.ops if op.measured and op.is_read)
    beyond = reads * (100.0 - tail) / 100.0
    print(f"-- end-to-end ({label}); tail = p{tail:g} of {reads} reads "
          f"({beyond:.0f} beyond it{'' if beyond >= 10 else ': fewer than 10, run longer'})")
    for name, unit in E2E_METRICS + E2E_EXTRA:
        print(f"   {name:16} {metrics[name]:14.4f} {unit}")


def verdict(result: RunResult) -> Tuple[bool, List[str]]:
    problems = list(result.check_errors)
    problems.extend(op.error for op in result.ops if op.error)
    return not problems, problems


def reference_rows(workload: str) -> Dict[str, object]:
    n, t = SHAPE[workload]
    deployment = pinned_deployment(ServiceConfig(n=n, t=t))
    return {
        "calibration_ms": reference.calibration_ms(),
        "rsa512": reference.rsa_rows(deployment.replicas[0].auth_key.private),
        "shoup": reference.shoup_ratios(
            tuple(r.zone_share for r in deployment.replicas)
        ),
    }


def print_reference(rows: Dict[str, object]) -> None:
    rsa_rows = rows["rsa512"]
    shoup = rows["shoup"]
    print("-- reference rows (not gated)")
    print(f"   calibration loop          {rows['calibration_ms']:10.2f} ms")
    for op in ("sign", "verify"):
        ossl = rsa_rows[f"openssl_{op}_us"]
        ossl_text = f"{ossl:10.1f} us" if ossl is not None else "   (no cryptography)"
        print(
            f"   RSA-512 {op:6} crypto.rsa {rsa_rows[f'repro_{op}_us']:10.1f} us"
            f"   OpenSSL {ossl_text}"
        )
    print(
        "   share : assemble : verify  measured "
        f"{shoup['measured_share_per_verify']:.1f} : "
        f"{shoup['measured_assemble_per_verify']:.1f} : 1"
        f"   Table 3 {shoup['table3_share_per_verify']:.1f} : "
        f"{shoup['table3_assemble_per_verify']:.1f} : 1"
    )


def traced_run(
    args: argparse.Namespace, untraced: RunResult, e2e: Dict[str, float], stem: str
) -> Tuple[RunResult, Dict[str, float], Dict[str, object]]:
    """Repeat the workload with span wrappers; print and return the ledger."""
    tracer = Tracer()
    traced = run_workload(args.workload, args.seed, args.seconds, tracer=tracer)
    traced_e2e = end_to_end(traced)
    print_e2e("traced", traced_e2e, traced)
    overhead = {name: traced_e2e[name] - e2e[name] for name, _ in E2E_METRICS + E2E_EXTRA}
    print("-- tracing overhead (traced minus untraced)")
    for name, unit in E2E_METRICS + E2E_EXTRA:
        print(f"   {name:16} {overhead[name]:+14.4f} {unit}")
    if traced.sim_counts:
        for key in DETERMINISTIC_COUNTS:
            if traced.sim_counts[0][key] != untraced.sim_counts[0][key]:
                traced.check_errors.append(
                    f"deterministic count {key} differs with tracing: "
                    f"{untraced.sim_counts[0][key]} vs {traced.sim_counts[0][key]}"
                )
    layers = layer_metrics(tracer, traced)
    print("-- self time by span and layer (traced run)")
    print(tracer.self_time_table())
    print("-- per-layer ledger")
    for name, unit in LAYER_METRICS:
        print(f"   {name:46} {layers[name]:14.4f} {unit}")
    trace_path = OUT_DIR / f"{stem}.trace.json"
    tracer.write_chrome_trace(str(trace_path))
    print(f"-- chrome trace: {trace_path.relative_to(ROOT)} "
          f"({len(tracer.spans)} spans kept, {tracer.spans_dropped} dropped)")
    return traced, layers, {
        "traced_end_to_end": {k: finite(v) for k, v in traced_e2e.items()},
        "tracing_overhead": {k: finite(v) for k, v in overhead.items()},
        "per_layer": layers,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    info = provenance(args.seed)
    print(f"wallbench {args.workload} " + " ".join(f"{k}={v}" for k, v in info.items()))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    result = run_workload(args.workload, args.seed, args.seconds)
    e2e = end_to_end(result)
    print_e2e("untraced", e2e, result)
    correct, problems = verdict(result)
    record: Dict[str, object] = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        **info,
        "end_to_end": {k: finite(v) for k, v in e2e.items()},
        "tail_percentile": result.tail_percentile,
        "setup_samples_s": result.setup_s,
        "run_peak_rss_mb": peak_rss_mb(),
        "sim_counts": result.sim_counts,
    }

    if args.trace:
        traced, layers, fields = traced_run(args, result, e2e, stem)
        record.update(fields)
        traced_ok, traced_problems = verdict(traced)
        correct = correct and traced_ok
        problems.extend(traced_problems)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
        attempted = result.attempted + traced.attempted
        failed = result.failed + traced.failed
    else:
        metrics = {name: {"value": finite(e2e[name]), "unit": unit} for name, unit in E2E_METRICS}
        attempted, failed = result.attempted, result.failed

    rows = reference_rows(args.workload)
    print_reference(rows)
    record["reference"] = rows
    record["problems"] = problems[:50]
    for problem in problems[:10]:
        print(f"   CHECK FAILED: {problem}")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
