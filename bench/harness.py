"""Sampling loop, per-run estimator and the counted correctness checks.

Steadiness is designed in rather than hoped for. The machine this was
tuned on changes speed by up to 2x in phases lasting seconds, so:

* every probe is sampled round-robin across the whole run, never in one
  burst, so each metric sees the same mix of phases; probes whose calls
  are short are sampled twice per round;
* a sample repeats its operation until it has lasted at least
  `min_block` seconds, so a region that a later change makes 100x faster
  still yields a sample long enough to time;
* the per-run value is a probe's slowest per-unit sample time (for a
  rate, its reciprocal). Every run spends time in the slow phase, so the
  slowest sample reads its level whatever share of the run the fast phase
  takes; a median or a quartile flips between the phases as that share
  crosses a half or a quarter.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Probe:
    """One timed operation. `op` returns the units of work it did."""

    name: str
    op: Callable[[], int]
    min_block: float = 0.1
    samples: list[tuple[float, float, int]] = field(default_factory=list)  # (t, seconds, units)

    def sample(self, tracer=None) -> None:
        started, spent, units = time.perf_counter(), 0.0, 0
        while spent < self.min_block:
            span = tracer.open("probe." + self.name) if tracer is not None else None
            t0 = time.perf_counter()
            units += self.op()
            spent += time.perf_counter() - t0
            if span is not None:
                tracer.close(span)
        self.samples.append((started, spent, units))

    def unit_time(self) -> float:
        """The slowest sample's time per unit of work, in seconds."""
        return max(s / u for _, s, u in self.samples)


def measure(probes: list[Probe], heavy: tuple[str, ...], seconds: float, tracer=None,
            after_first_round: Callable[[], None] | None = None) -> int:
    """Run whole rounds for about `seconds`; return the number of rounds.

    A round samples every probe once and every probe not named in `heavy`
    a second time, each pass in an order rotated by one per round. Heavy
    probes are those whose one call lasts seconds; sampling the light ones
    twice gives them more, shorter samples at little cost. A round starts
    only while at least half a round's time is left, so the timed phase
    ends within half a round of `seconds` on average.
    """
    light = [p for p in probes if p.name not in heavy]
    start = time.perf_counter()
    rounds, last_round = 0, 0.0
    while rounds == 0 or time.perf_counter() - start + last_round / 2 < seconds:
        t0 = time.perf_counter()
        for group in (probes, light):
            k = rounds % len(group)
            for probe in group[k:] + group[:k]:
                probe.sample(tracer)
        last_round = time.perf_counter() - t0
        rounds += 1
        if rounds == 1 and after_first_round is not None:
            after_first_round()
    return rounds


class Checks:
    """Counts correctness checks. A check is one operation: attempted once,
    failed when its condition is false. Checks named as a known program
    fault count as failed without making the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_faults = 0
        self.correct = True

    def check(self, ok: bool, what: str, known_fault: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if known_fault:
                self.known_faults += 1
            else:
                self.correct = False
                print(f"check failed: {what}", file=sys.stderr)
        return ok
