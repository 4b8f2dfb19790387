"""The P3S publish→deliver benchmark: one command, two workloads.

    python3 perfbench/run.py --workload live_fanout --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every workload runs in fresh child
interpreters (``workload.py``):

* ``--trace 0``: a set-up probe, then the measured run, both untraced.
  Prints every end-to-end metric; ``setup_s`` is the median of their
  set-ups.
* ``--trace 1``: an untraced run, then a traced run, each of exactly
  :data:`TRACED_ROUNDS` rounds, so layer totals do not grow with the
  machine's speed.  Prints every per-layer metric, with
  ``trace.overhead_ratio`` = traced wall ÷ untraced wall.

Failures are named on stdout, then the sample counts; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``correct`` is false when the program delivered a wrong
output (an unexpected, duplicate or corrupted delivery) or the oracle's
self-test could not show the check live; a delivery that never came is
a failed operation.  Exits non-zero, printing no result, when the program's
source is missing or a child run fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("live_fanout", "sim_replicated")
# set-ups measured besides the measured run's own; setup_s is their median
SETUP_PROBES = 1
# the traced run and its untraced reference: 5 rounds make 105 deliveries
TRACED_ROUNDS = 5
# the whole command ends within this, child runs included
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def child(workload, seed, mode, seconds, deadline, rounds=0) -> dict:
    """Run ``workload.py`` in a fresh interpreter and parse its result."""
    command = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--rounds", str(rounds),
    ]
    try:
        # run() kills the child and waits for it when the timeout expires
        done = subprocess.run(
            command,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {mode} run overran the {DEADLINE_S:.0f} s budget") from exc
    if done.returncode != 0:
        raise ChildFailed(f"{workload} {mode} run exited {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(main: dict, setups: list[float]) -> dict:
    publications = max(1, main["publications"])
    return {
        "deliveries_per_s": (main["deliveries"] / main["wall_s"], "1/s"),
        "deliver_p50_ms": (_median(main["deliver_ms"]), "ms"),
        "deliver_p90_ms": (_p90(main["deliver_ms"]), "ms"),
        "publish_p50_ms": (_median(main["publish_ms"]), "ms"),
        "subscribe_p50_ms": (_median(main["subscribe_ms"]), "ms"),
        "subscribe_p90_ms": (_p90(main["subscribe_ms"]), "ms"),
        "wire_kb_per_publication": (main["wire_bytes"] / 1024.0 / publications, "KB"),
        "setup_s": (statistics.median(setups), "s"),
        "rss_peak_mb": (main["rss_peak_mb"], "MB"),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    layers = traced["layers"]

    def get(name: str, field: str) -> float:
        return float(layers.get(name, {}).get(field, 0))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    publications = max(1, traced["publications"])
    out: dict[str, tuple[float, str]] = {}
    for name in ("crypto.aead.seal", "crypto.aead.open", "store.put"):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.kb"] = (get(name, "amount") / 1024.0, "KB")
        out[f"{name}.self_ms"] = (get(name, "self_ms"), "ms")
    out["live.record.send.calls"] = (get("live.record.send", "calls"), "count")
    out["live.record.send.kb"] = (get("live.record.send", "amount") / 1024.0, "KB")
    out["live.record.send.ms"] = (get("live.record.send", "ms"), "ms")
    for name in (
        "crypto.scalar_mul",
        "pbe.hve.encrypt",
        "crypto.pairing",
        "pbe.hve.query",
        "crypto.miller_precompute",
        "pbe.hve.gen_token",
        "core.token_mint",
        "crypto.pke",
        "abe.encrypt",
        "abe.decrypt",
        "core.rs.store",
        "crypto.fixed_base_table",
    ):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.self_ms"] = (get(name, "self_ms"), "ms")
    out["pbe.hve.query.hit_ratio"] = (
        ratio(get("pbe.hve.query", "hits"), get("pbe.hve.query", "calls")), "ratio")
    out["par.match_batch.calls"] = (get("par.match_batch", "calls"), "count")
    out["par.match_batch.ms"] = (get("par.match_batch", "ms"), "ms")
    out["par.match_batch.tokens_mean"] = (
        ratio(get("par.match_batch", "amount"), get("par.match_batch", "calls")), "tokens")
    out["live.rpc.call.calls"] = (get("live.rpc.call", "calls"), "count")
    out["live.rpc.call.p50_ms"] = (get("live.rpc.call", "p50_ms"), "ms")
    out["abe.decrypt.denied"] = (get("abe.decrypt", "errors"), "count")
    # every fetched ciphertext is CP-ABE-decrypted once, delivered or
    # denied, so this reads 1.0 when no retrieval needed a retry
    out["core.retrieve.attempts_per_delivery"] = (
        ratio(get("core.retrieve.request", "calls"), get("abe.decrypt", "calls")), "ratio")
    out["cluster.rs_writes_per_publication"] = (
        get("core.rs.store", "calls") / publications, "writes")
    out["net.sim.run.self_ms"] = (get("net.sim.run", "self_ms"), "ms")
    out["live.ds.frames_per_publication"] = (traced["ds_frames"] / publications, "frames")
    out["net.sim.deliver_p50_ms"] = (_median(traced["sim_deliver_ms"]), "ms")
    out["trace.overhead_ratio"] = (traced["wall_s"] / untraced["wall_s"], "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="P3S publish→deliver benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            runs = [
                child(args.workload, args.seed, mode, args.seconds, deadline,
                      rounds=TRACED_ROUNDS)
                for mode in ("measure", "traced")
            ]
            untraced, traced = runs
            metrics = per_layer(traced, untraced)
        else:
            runs = [
                child(args.workload, args.seed, "setup", args.seconds, deadline)
                for _ in range(SETUP_PROBES)
            ]
            runs.append(child(args.workload, args.seed, "measure", args.seconds, deadline))
            metrics = end_to_end(runs[-1], [run["setup_s"] for run in runs])
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # an operation fails once however many checks it fails: keyed by
    # (child run, operation)
    failed_ops = set()
    for n, run in enumerate(runs):
        failures = run["failures"] + [
            f"publication {index}: {reason}" for index, reason, _ in run["check"]["failures"]
        ]
        for failure in failures:
            failed_ops.add((n, failure.split(":")[0]))
            print(f"FAILED {args.workload} seed {args.seed} {run['mode']}: {failure}")
    last = runs[-1]
    print(
        f"samples {args.workload} seed {args.seed} {last['mode']}: "
        f"{last['publications']} publications, {last['deliveries']} deliveries, "
        f"{len(last['subscribe_ms'])} subscribes in {last['wall_s']:.1f} s"
    )
    self_tests = [run["check"]["self_test"] for run in runs if run["mode"] != "setup"]
    wrong_outputs = any(wrong for run in runs for _, _, wrong in run["check"]["failures"])
    correct = not wrong_outputs and all(
        t["drop_detected"] and t["corrupt_detected"] for t in self_tests
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(run["attempted"] for run in runs),
                "failed": len(failed_ops),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
