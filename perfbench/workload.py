"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this file as a child process; it prints one JSON object
on its last stdout line with the raw samples and counters of the run.

    python3 perfbench/workload.py --workload live_fanout --seed 1 \\
        --seconds 40 --mode measure|setup|traced [--rounds N]

``setup`` builds the deployment, warms it and exits (a set-up probe);
``measure`` also runs the measured phase: whole rounds for ``--seconds``
and until every percentile has :data:`MIN_SAMPLES` samples, or exactly
``--rounds`` rounds; ``traced`` runs exactly ``--rounds`` rounds with
the layer wrappers of ``layers.py`` installed and writes its spans to
``.perfbench/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import os
import sys

# The program's defaults, so an inherited environment (a CI job exporting
# P3S_MATCH_WORKERS=1, say) cannot change what is measured.  Set before
# the first ``repro`` import: some of these are read at import time.
PROGRAM_DEFAULTS = {
    "P3S_MATCH_WORKERS": "0",
    "P3S_PRECOMPUTE": "1",
    "P3S_HVE_PRECOMPUTE": "1",
    "P3S_PROFILE": "wall",
}
os.environ.update(PROGRAM_DEFAULTS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

from inputs import Generator, Publish, Shape, Swap  # noqa: E402
from oracle import DeliveryLog  # noqa: E402

# Matching counts are 2-3 per publication so that five rounds of 8 hold
# the 100 deliveries a 90th percentile needs; one match per round is
# denied by the policy.
ROUND_MATCHES = ((2, 0), (3, 0), (3, 0), (3, 1), (3, 0), (2, 0), (3, 0), (3, 0))
# (one-attribute, two-attribute) swaps per round.  One in ten swaps mints
# the cheaper one-attribute token, so the subscribe median sits at the
# 44th percentile of the two-attribute mode, in its densest part; at 6/14
# it sat at the 29th, on the mode's lower tail, and moved with the
# machine's speed bursts by up to a quarter between runs.
ROUND_SWAPS = (2, 18)
SHAPES = {
    "live_fanout": Shape(
        interests_per_subscriber=(1, 2) * 6,
        round_matches=ROUND_MATCHES,
        payload_bytes=(256, 8192),
        round_swaps=ROUND_SWAPS,
    ),
    "sim_replicated": Shape(
        interests_per_subscriber=(1, 2) * 6,
        round_matches=ROUND_MATCHES,
        payload_bytes=(64, 512),
        round_swaps=ROUND_SWAPS,
    ),
}
# a publication's expected deliveries must all arrive within this
DEADLINE_S = 10.0
# every percentile rests on at least this many samples: a measured phase
# of --seconds runs whole rounds past --seconds until it has them
MIN_SAMPLES = 100
# Peak RSS is read after this many measured rounds, a fixed amount of
# work: a live run's RSS grows with every round, so a peak taken at the
# end would rise with throughput.  MIN_SAMPLES makes every run reach it.
RSS_ROUNDS = 5
OUT_DIR = os.path.join(ROOT, ".perfbench")


def _interest(constraint):
    from repro.pbe.schema import Interest

    return Interest(dict(constraint))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Samples and counters of one child run."""

    def __init__(self, workload, seed, mode, seconds, rounds=0, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.mode = mode
        self.seconds = seconds
        self.rounds = rounds
        self.gen = Generator(SHAPES[workload], seed)
        self.log = DeliveryLog()
        self.publish_ms: list[float] = []
        self.deliver_ms: list[float] = []
        self.subscribe_ms: list[float] = []
        self.sim_deliver_ms: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.publications = 0
        self.deliveries = 0
        self.wall_s = 0.0
        self.setup_s = 0.0
        self.wire_bytes = 0
        self.ds_frames = 0
        self.rss_peak_mb = 0.0

    @property
    def measuring(self) -> bool:
        return self.log.measuring

    def start_measuring(self) -> None:
        self.log.start_measuring()
        if self.tracer is not None:
            self.tracer.start_measuring()

    def _short_of_samples(self) -> bool:
        return len(self.deliver_ms) < MIN_SAMPLES or (
            sum(self.gen.shape.round_swaps) > 0 and len(self.subscribe_ms) < MIN_SAMPLES
        )

    def timed_rounds(self):
        """Yield whole rounds: for ``--seconds`` of wall time and until
        every percentile rests on :data:`MIN_SAMPLES` samples, or exactly
        ``--rounds`` rounds."""
        started = time.perf_counter()
        done = 0
        while True:
            if self.rounds:
                if done >= self.rounds:
                    return
            else:
                elapsed = time.perf_counter() - started
                if elapsed >= 3 * self.seconds or (
                    elapsed >= self.seconds and not self._short_of_samples()
                ):
                    return
            done += 1
            yield self.gen.round()

    def result(self) -> dict:
        return {
            "workload": self.workload,
            "mode": self.mode,
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "attempted": self.attempted,
            "failures": self.failures,
            "publications": self.publications,
            "deliveries": self.deliveries,
            "publish_ms": self.publish_ms,
            "deliver_ms": self.deliver_ms,
            "subscribe_ms": self.subscribe_ms,
            "sim_deliver_ms": self.sim_deliver_ms,
            "wire_bytes": self.wire_bytes,
            "rss_peak_mb": self.rss_peak_mb or _rss_mb(),
            "ds_frames": self.ds_frames,
            "check": self.log.verdict,
        }


# -- substrates -----------------------------------------------------------------
#
# Each substrate builds its deployment in ``start`` and offers the two
# operations.  ``publish`` returns ``(t_call, t_returned, guid)`` in
# ``time.monotonic`` seconds once the publication's expected deliveries
# have all arrived (or its deadline passed); deliveries reach
# ``run.log`` through each subscriber's ``on_payload`` callback.


class LiveSubstrate:
    """``LiveDeployment`` on loopback TCP at TOY parameters, matching done
    by the subscribers."""

    def __init__(self, run: Run):
        self.run = run
        self.arrived: asyncio.Event | None = None

    def _on_payload(self, name):
        def on_payload(delivery):
            self.run.log.delivered(
                name, delivery.guid, delivery.payload, delivery.delivered_at
            )
            self.arrived.set()

        return on_payload

    async def start(self) -> None:
        from repro.core.config import P3SConfig
        from repro.live.deployment import LiveDeployment

        self.arrived = asyncio.Event()
        self.deployment = LiveDeployment(P3SConfig(obs=None))
        await self.deployment.start()
        self.subscribers = {}
        for spec in self.run.gen.subscribers:
            subscriber = await self.deployment.add_subscriber(
                spec.name, set(spec.attributes), on_payload=self._on_payload(spec.name)
            )
            for constraint in spec.interests:
                await subscriber.subscribe(_interest(constraint))
            self.subscribers[spec.name] = subscriber
        self.publisher = await self.deployment.add_publisher("pub")

    async def publish(self, op: Publish):
        log = self.run.log
        t0 = time.monotonic()
        record = await self.publisher.publish(
            dict(op.metadata), op.payload, policy=op.policy_text
        )
        t1 = time.monotonic()
        log.expect(record.guid, op)
        deadline = t1 + DEADLINE_S
        while True:
            # clear-then-check, so a delivery landing in between re-sets it
            self.arrived.clear()
            remaining = deadline - time.monotonic()
            if log.complete(record.guid) or remaining <= 0:
                break
            try:
                await asyncio.wait_for(self.arrived.wait(), remaining)
            except asyncio.TimeoutError:
                pass
        return t0, t1, record.guid

    async def unsubscribe(self, name: str, constraint) -> None:
        await self.subscribers[name].unsubscribe(_interest(constraint))

    async def subscribe(self, name: str, constraint) -> None:
        await self.subscribers[name].subscribe(_interest(constraint))

    def wire_bytes(self) -> int:
        """Record-layer bytes sent on every connection of the deployment."""
        d = self.deployment
        endpoints = [
            service.endpoint
            for service in (*d.ds_shards.values(), *d.rs_shards.values(), d.pbe_ts, d.anonymizer)
        ]
        endpoints += [p.endpoint for p in d.publishers.values()]
        endpoints += [s.endpoint for s in d.subscribers.values()]
        return sum(sum(e.tx_bytes.values()) for e in endpoints)

    def ds_frames(self) -> int:
        return sum(self.deployment.ds.endpoint.tx_frames.values())

    async def settle(self) -> None:
        # deliveries the oracle did not expect can still be in flight
        await asyncio.sleep(0.5)

    async def close(self) -> None:
        await self.deployment.close()


class SimSubstrate:
    """``P3SSystem`` at TEST parameters: 2 DS and 2 RS shards, replication
    2, reliable publish, delegated matching on the DS's in-process
    ``MatchPool``, WAL store with an at-rest key and fsync off."""

    def __init__(self, run: Run):
        self.run = run
        self.data_dir = os.path.join(OUT_DIR, f"wal-{os.getpid()}")

    def _on_payload(self, name):
        def on_payload(delivery):
            self.run.log.delivered(name, delivery.guid, delivery.payload, time.monotonic())
            if self.run.measuring:
                self.run.sim_deliver_ms.append(
                    (delivery.delivered_at - self._submitted_at) * 1e3
                )

        return on_payload

    async def start(self) -> None:
        from repro.core.config import P3SConfig
        from repro.core.system import P3SSystem

        self.system = P3SSystem(
            P3SConfig(
                param_set="TEST",
                obs=None,
                ds_shards=2,
                rs_shards=2,
                rs_replication=2,
                reliable_publish=True,
                delegated_matching=True,
                store_backend="wal",
                data_dir=self.data_dir,
                store_key=bytes(range(32)),
                store_fsync=False,
            )
        )
        self.subscribers = {}
        for spec in self.run.gen.subscribers:
            subscriber = self.system.add_subscriber(
                spec.name, set(spec.attributes), on_payload=self._on_payload(spec.name)
            )
            for constraint in spec.interests:
                self.system.subscribe(subscriber, _interest(constraint))
            self.subscribers[spec.name] = subscriber
        self.system.run()
        self.publisher = self.system.add_publisher("pub")

    async def publish(self, op: Publish):
        system = self.system
        timings = system.config.timings
        t0 = time.monotonic()
        record = self.publisher.publish(dict(op.metadata), op.payload, policy=op.policy_text)
        # The publisher's HVE and CP-ABE steps end this much simulated time
        # after submission, well before its first frame can reach a DS
        # (one link latency), so running to here executes the publish
        # step alone: the simulator's counterpart of ``publish()``.
        publish_done = (
            system.now
            + timings.pbe_encrypt
            + timings.cpabe_encrypt
            + timings.symmetric(len(op.payload))
        )
        system.run(until=publish_done + 1e-9)
        t1 = time.monotonic()
        self.run.log.expect(record.guid, op)
        self._submitted_at = record.submitted_at
        system.run()
        return t0, t1, record.guid

    async def unsubscribe(self, name: str, constraint) -> None:
        self.subscribers[name].unsubscribe(_interest(constraint))

    async def subscribe(self, name: str, constraint) -> None:
        self.system.subscribe(self.subscribers[name], _interest(constraint))
        self.system.run()

    def wire_bytes(self) -> int:
        return sum(host.bytes_sent for host in self.system.network.hosts.values())

    def ds_frames(self) -> int:
        return 0

    async def settle(self) -> None:
        self.system.run()  # already quiescent after every operation

    async def close(self) -> None:
        self.system.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)


async def drive(run: Run, substrate) -> None:
    """Set up, warm up, then run whole rounds for the measured phase."""

    async def publish(op: Publish, timed: bool) -> None:
        t0, t1, guid = await substrate.publish(op)
        missing = run.log.missing(guid)
        if missing:
            run.failures.append(f"publication {op.index}: no delivery to {sorted(missing)}")
        if timed:
            run.publications += 1
            run.publish_ms.append((t1 - t0) * 1e3)
            run.deliver_ms.extend((at - t0) * 1e3 for at in run.log.delivered_at(guid))

    async def swap(op: Swap, timed: bool) -> None:
        await substrate.unsubscribe(op.subscriber, op.drop)
        t0 = time.monotonic()
        try:
            await substrate.subscribe(op.subscriber, op.add)
        except Exception as exc:  # a refused subscribe is a counted failure
            run.failures.append(f"subscribe {op.index}: {type(exc).__name__}: {exc}")
            return
        if timed:
            run.subscribe_ms.append((time.monotonic() - t0) * 1e3)

    async def execute(ops, timed: bool) -> None:
        for op in ops:
            run.attempted += 1
            if isinstance(op, Publish):
                await publish(op, timed)
            else:
                await swap(op, timed)

    started = time.perf_counter()
    try:
        await substrate.start()
        # Untimed warm-up: fixed-base tables get promoted, connections
        # dialled and token line functions precomputed before timing.
        await execute(run.gen.warmup(), timed=False)
        run.setup_s = time.perf_counter() - started
        if run.mode == "setup":
            return
        run.start_measuring()
        wire_before = substrate.wire_bytes()
        frames_before = substrate.ds_frames()
        t_start = time.perf_counter()
        for n, ops in enumerate(run.timed_rounds(), 1):
            await execute(ops, timed=True)
            if n == RSS_ROUNDS:
                run.rss_peak_mb = _rss_mb()
        run.wall_s = time.perf_counter() - t_start
        run.wire_bytes = substrate.wire_bytes() - wire_before
        run.deliveries = run.log.measured_deliveries
        run.ds_frames = substrate.ds_frames() - frames_before
        await substrate.settle()
    finally:
        await substrate.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("measure", "setup", "traced"), default="measure")
    parser.add_argument("--rounds", type=int, default=0)
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        import layers

        tracer = layers.Tracer()
        tracer.install()
    run = Run(
        args.workload, args.seed, args.mode, args.seconds, args.rounds, tracer
    )
    substrate = SimSubstrate(run) if args.workload == "sim_replicated" else LiveSubstrate(run)
    asyncio.run(drive(run, substrate))
    result = run.result()
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
