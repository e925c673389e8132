"""Self-test of the benchmark: tiny runs pass, broken runs are caught.

Run from the repository root (about three minutes)::

    python3 wallbench/selftest.py

1. A tiny untraced and traced run of every workload, through the real
   command line: each must report ``failed == 0``, ``correct``, and every
   metric ``BENCHMARK.json`` names, with its unit.
2. The traced runs' zero predictions: ``sim.*`` reads zero on the
   real-time tier, ``crypto.shoup.*`` on ``read_zipf``, and
   ``broadcast.aba.*`` / ``broadcast.coin.*`` everywhere but the failover
   workload, where they must be non-zero.
3. Deliberately broken runs must report failures, proving the checks are
   live: a gateway muted towards its clients, and a checker holding the
   wrong zone key.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, run_workload  # noqa: E402

TINY_SECONDS = "1"


def run_cli(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", TINY_SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"{workload} trace={trace} exited {proc.returncode}:\n"
            f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, expected: list, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: not correct"
    assert result["failed"] == 0, f"{label}: {result['failed']} failed ops"
    assert result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, f"{label}: metric names"
    for spec in expected:
        entry = metrics[spec["name"]]
        assert entry["unit"] == spec["unit"], f"{label}: unit of {spec['name']}"
        assert isinstance(entry["value"], (int, float)), f"{label}: {spec['name']}"


def check_zero_predictions(workload: str, metrics: dict) -> None:
    def values(prefix: str) -> list:
        return [v["value"] for k, v in metrics.items() if k.startswith(prefix)]

    if workload != "sim_wan_failover":
        assert not any(values("sim.")), f"{workload}: sim.* must read zero"
        assert not any(values("broadcast.aba.")), f"{workload}: aba must read zero"
        assert not any(values("broadcast.coin.")), f"{workload}: coin must read zero"
        assert metrics["broadcast.abc.epoch_changes"]["value"] == 0, workload
    else:
        assert all(values("broadcast.aba.")), "failover: aba must run"
        assert all(values("broadcast.coin.")), "failover: coin must run"
        assert metrics["broadcast.abc.epoch_changes"]["value"] >= 1
        assert metrics["sim.kernel.events_per_op"]["value"] > 0
    if workload == "read_zipf":
        assert not any(values("crypto.shoup.")), "read_zipf: shoup must read zero"
    if workload == "update_mix":
        assert metrics["crypto.shoup.shares_per_write"]["value"] > 0
        # Every useful signature was an attempt.
        assert metrics["crypto.shoup.assemble_attempts_per_signature"]["value"] >= 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        check_result(run_cli(workload, 0), spec["end_to_end"], f"{workload} untraced")
        traced = run_cli(workload, 1)
        check_result(traced, spec["per_layer"], f"{workload} traced")
        check_zero_predictions(workload, traced["metrics"])
        print(f"ok   {workload}: tiny untraced and traced runs")

    for workload, sabotage in (
        ("read_zipf", "mute_gateway"),
        ("update_mix", "wrong_zone_key"),
        ("sim_wan_failover", "wrong_zone_key"),
    ):
        broken = run_workload(workload, 7, 1.0, sabotage=sabotage)
        assert broken.failed > 0, f"{workload} with {sabotage}: no failures reported"
        print(f"ok   {workload} with {sabotage}: "
              f"{broken.failed}/{broken.attempted} ops failed, as they must")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
