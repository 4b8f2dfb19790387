"""The benchmark's plaintext delivery oracle.

Expected delivery sets come from :mod:`inputs` (equality on constrained
attributes, policy literals a subset of the subscriber's attributes);
this module records what the program delivered and compares the two.
A publication fails when an expected subscriber never gets it, when a
subscriber gets it that should not, when a subscriber gets it twice, or
when the delivered bytes differ from the published bytes.
"""

from __future__ import annotations

from collections import defaultdict


class DeliveryLog:
    """Every application delivery of a run, keyed by publication GUID."""

    def __init__(self):
        self._expected: dict[bytes, tuple[int, frozenset[str], bytes]] = {}
        # guid -> [(subscriber, payload, delivered_at)]
        self._delivered: dict[bytes, list[tuple[str, bytes, float]]] = defaultdict(list)
        self.measuring = False
        self.measured_deliveries = 0

    def expect(self, guid: bytes, publish) -> None:
        self._expected[guid] = (publish.index, publish.expected, publish.payload)

    def delivered(self, subscriber: str, guid: bytes, payload: bytes, at: float) -> None:
        self._delivered[guid].append((subscriber, payload, at))
        if self.measuring:
            self.measured_deliveries += 1

    def start_measuring(self) -> None:
        self.measuring = True

    def missing(self, guid: bytes) -> set[str]:
        _, expected, _ = self._expected[guid]
        return set(expected) - {name for name, _, _ in self._delivered.get(guid, ())}

    def complete(self, guid: bytes) -> bool:
        return not self.missing(guid)

    def delivered_at(self, guid: bytes) -> list[float]:
        return [at for _, _, at in self._delivered.get(guid, ())]

    @property
    def verdict(self) -> dict:
        """Check every delivery; a self-test proves the check can fail."""
        failures = check(self._expected, self._delivered)
        return {
            "failures": failures,
            "self_test": self_test(self._expected, self._delivered),
        }


def check(expected, delivered) -> list[tuple[int | None, str, bool]]:
    """``(publication index, reason, wrong)`` for every oracle mismatch.

    ``wrong`` marks a wrong output (an unexpected, duplicate or corrupted
    delivery), as opposed to a delivery that never came."""
    failures: list[tuple[int | None, str, bool]] = []
    for guid, entries in delivered.items():
        if guid not in expected:
            failures.append((None, f"delivery of unknown GUID {guid.hex()}", True))
            continue
        index, wanted, payload = expected[guid]
        seen: set[str] = set()
        for name, got, _ in entries:
            if name not in wanted:
                failures.append((index, f"unexpected delivery to {name}", True))
            elif name in seen:
                failures.append((index, f"duplicate delivery to {name}", True))
            if got != payload:
                failures.append(
                    (index, f"payload to {name} differs from the published bytes", True)
                )
            seen.add(name)
    for guid, (index, wanted, _) in expected.items():
        got = {name for name, _, _ in delivered.get(guid, ())}
        for name in sorted(wanted - got):
            failures.append((index, f"no delivery to {name}", False))
    return failures


def self_test(expected, delivered) -> dict:
    """Drop one real delivery, then corrupt one; :func:`check` must
    report each.  Runs on the run's own log, so it proves the check is
    live on the data it judged."""
    victim = next(
        ((guid, i) for guid, entries in delivered.items() if guid in expected
         for i in range(len(entries))),
        None,
    )
    if victim is None:  # nothing delivered: the check cannot be shown live
        return {"drop_detected": False, "corrupt_detected": False}
    guid, i = victim
    baseline = len(check(expected, delivered))

    dropped = {g: list(e) for g, e in delivered.items()}
    del dropped[guid][i]
    corrupted = {g: list(e) for g, e in delivered.items()}
    name, payload, at = corrupted[guid][i]
    corrupted[guid][i] = (name, bytes([payload[0] ^ 1]) + payload[1:], at)
    return {
        "drop_detected": len(check(expected, dropped)) > baseline,
        "corrupt_detected": len(check(expected, corrupted)) > baseline,
    }
