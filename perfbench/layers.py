"""Per-layer tracing for the traced run, installed from outside the program.

:class:`Tracer` wraps the public entry points of each layer on the
publish→deliver path (``repro.crypto``, ``pbe``, ``abe``, ``core``,
``live``, ``par``, ``store``, ``net``, ``cluster``) by replacing class
attributes and module-level names, so the program carries no tracing of
its own.  Each wrapped call records a span (name, start, duration,
thread, parent span) in memory; :meth:`Tracer.write_spans` writes them
out once the run is over.

Synchronous boundaries report *self* time: the call's duration minus the
time spent in wrapped calls nested inside it.  The nesting stack is kept
per thread, because the DS's delegated matching runs in a worker thread.
Asynchronous boundaries (record send, RPC call) report wall time
including waiting, and are not on the stack: other tasks run while they
are suspended.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time

# Metrics whose window is the whole run, set-up included: fixed-base
# tables are built while the deployment warms up, so that is where a
# change to them shows.  Every other layer counts the measured phase.
WHOLE_RUN = frozenset({"crypto.fixed_base_table"})


class _Stat:
    __slots__ = ("calls", "amount", "total", "self_time", "hits", "errors", "samples")

    def __init__(self):
        self.calls = 0
        self.amount = 0
        self.total = 0.0
        self.self_time = 0.0
        self.hits = 0
        self.errors = 0
        self.samples: list[float] = []


def _nbytes(value) -> int:
    return len(value) if isinstance(value, (bytes, bytearray, memoryview)) else 0


class Tracer:
    """Wraps layer boundaries; aggregates counts, bytes and self time."""

    def __init__(self):
        self._stats: dict[str, _Stat] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: list[tuple] = []
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []
        self._measuring = False

    # -- recording -------------------------------------------------------------

    def _record(self, span_id, name, start, duration, child, amount, hit, error, parent):
        with self._lock:
            stat = self._stats.setdefault(name, _Stat())
            if self._measuring or name in WHOLE_RUN:
                stat.calls += 1
                stat.amount += amount
                stat.total += duration
                stat.self_time += duration - child
                stat.hits += hit
                stat.errors += error
                stat.samples.append(duration)
            self._spans.append(
                (span_id, name, start, duration, threading.get_ident(), parent)
            )

    def _sync(self, name, fn, size=None, hit=None, error=None):
        """Wrap a synchronous call: self time via the per-thread stack.

        ``size(args)`` gives the amount processed (bytes, or tokens for a
        match batch), ``hit(result)`` marks a
        useful outcome, ``error`` is an exception type counted (and
        re-raised) as a wasted call.
        """
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1][1] if stack else None
            frame = [0.0, next(self._ids)]
            stack.append(frame)
            start = time.perf_counter()
            result = None
            failed = False
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failed = error is not None and isinstance(exc, error)
                raise
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self._record(
                    frame[1],
                    name,
                    start,
                    duration,
                    frame[0],
                    size(args) if size else 0,
                    int(hit(result)) if hit and not failed else 0,
                    int(failed),
                    parent,
                )

        return wrapper

    def _async(self, name, fn, size=None):
        """Wrap a coroutine function: wall time including waiting."""

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                amount = size(args) if size else 0
                self._record(next(self._ids), name, start, duration, 0.0, amount, 0, 0, None)

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attribute: str, wrapper) -> None:
        original = owner.__dict__[attribute]
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def _patch_function(self, module, attribute: str, wrapper) -> None:
        """Replace a module-level function everywhere it was imported."""
        original = getattr(module, attribute)
        for name, loaded in list(sys.modules.items()):
            if name.startswith("repro") and getattr(loaded, attribute, None) is original:
                self._patch(loaded, attribute, wrapper)

    def install(self) -> None:
        # import every module that binds a wrapped name before patching
        import repro.live.deployment  # noqa: F401
        import repro.core.system  # noqa: F401
        from repro.abe.hybrid import HybridCPABE
        from repro.core import rs
        from repro.core.pbe_ts import TokenIssuer
        from repro.core.rs import RepositoryStore
        from repro.crypto.curve import FixedBaseTable, Point
        from repro.crypto.group import PairingGroup
        from repro.crypto.pke import PKEKeyPair, PKEPublicKey
        from repro.crypto.symmetric import SecretBox
        from repro.errors import DecryptionError
        from repro.live.channel import SecureChannel
        from repro.live.rpc import LiveRpcEndpoint
        from repro.net.simulator import Simulator
        from repro.par.pool import MatchPool
        from repro.pbe.hve import HVE
        from repro.store.engine import MemoryEngine
        from repro.store.wal import WalEngine

        def sync(owner, attribute, name, **kw):
            self._patch(owner, attribute, self._sync(name, owner.__dict__[attribute], **kw))

        arg1 = lambda args: _nbytes(args[1])  # noqa: E731
        sync(SecretBox, "seal", "crypto.aead.seal", size=arg1)
        sync(SecretBox, "open", "crypto.aead.open", size=arg1)
        self._patch(
            SecureChannel,
            "send_record",
            self._async("live.record.send", SecureChannel.send_record, size=arg1),
        )
        mul = self._sync("crypto.scalar_mul", Point.__dict__["__mul__"])
        self._patch(Point, "__mul__", mul)
        self._patch(Point, "__rmul__", mul)
        sync(HVE, "encrypt", "pbe.hve.encrypt")
        for attribute in ("pair", "multi_pair", "pair_precomputed", "multi_pair_precomputed"):
            sync(PairingGroup, attribute, "crypto.pairing")
        sync(HVE, "query", "pbe.hve.query", hit=lambda result: result is not None)
        sync(PairingGroup, "precompute_pairing", "crypto.miller_precompute")
        sync(
            MatchPool,
            "match_indices",
            "par.match_batch",
            size=lambda args: len(args[2]),  # tokens in the batch
        )
        sync(HVE, "gen_token", "pbe.hve.gen_token")
        sync(TokenIssuer, "mint", "core.token_mint")
        sync(PKEPublicKey, "encrypt", "crypto.pke")
        sync(PKEKeyPair, "decrypt", "crypto.pke")
        self._patch(
            LiveRpcEndpoint, "call", self._async("live.rpc.call", LiveRpcEndpoint.call)
        )
        sync(HybridCPABE, "encrypt", "abe.encrypt")
        sync(HybridCPABE, "decrypt", "abe.decrypt", error=DecryptionError)
        self._patch_function(
            rs,
            "encode_retrieval_request",
            self._sync("core.retrieve.request", rs.encode_retrieval_request),
        )
        sync(RepositoryStore, "store", "core.rs.store")
        value = lambda args: _nbytes(args[3])  # noqa: E731
        for engine in (MemoryEngine, WalEngine):
            sync(engine, "put", "store.put", size=value)
        sync(Simulator, "run", "net.sim.run")
        sync(FixedBaseTable, "__init__", "crypto.fixed_base_table")

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()

    def start_measuring(self) -> None:
        """Layers other than :data:`WHOLE_RUN` count from here on."""
        self._measuring = True

    # -- results ---------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            for span_id, name, start, duration, thread, parent in self._spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_s": start,
                            "duration_s": duration,
                            "thread": thread,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )

    def summary(self) -> dict:
        """Raw per-boundary aggregates; ``run.py`` turns them into metrics."""
        out = {}
        for name, stat in self._stats.items():
            out[name] = {
                "calls": stat.calls,
                "amount": stat.amount,
                "ms": stat.total * 1e3,
                "self_ms": stat.self_time * 1e3,
                "hits": stat.hits,
                "errors": stat.errors,
                "p50_ms": statistics.median(stat.samples) * 1e3 if stat.samples else 0.0,
            }
        return out
