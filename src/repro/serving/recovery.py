"""Fault-tolerant query execution: retries, backoff, replica recovery.

:class:`RecoveringExecutor` wraps the engine's own executor and adds
exactly two things to it:

* **Retrying reads** (:class:`RetryingReads`): the executor's timing
  model runs unchanged over the same read interface, with a bounded
  retry loop behind it.  A failed entry of a batch restarts per page at
  attempt 1 with a full retry budget; a failed gather is retried whole,
  then read page by page from one past its last attempt.
* **Replica recovery** for the keys of pages that still failed, before
  the query finishes: keys co-resident on a page that *did* transfer
  are served from it for free; the rest are re-selected through the
  *full* (never-shrunk) forward index — the alternate locations
  MaxEmbed's selective replication creates — skipping pages known to
  have failed.  Keys with no surviving page are reported **missing**
  instead of raising.

Backoff is charged in simulated time, so fault handling shows up in
latency percentiles like real tail amplification.  ``pages_read`` counts
transfers, corrupt ones included.  With a device that injects nothing,
timing is bit-identical to the wrapped executor's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ConfigError, DeviceFault
from ..placement import ForwardIndex, InvertIndex
from ..ssd.commands import GatherCommand
from .executor import DeviceReads, ExecutionResult, Executor, stall


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff in simulated time.

    Attributes:
        max_retries: additional attempts after the first failure
            (0 = fail immediately).
        backoff_us: simulated wait before the first retry.
        backoff_multiplier: growth factor of successive backoffs.
    """

    max_retries: int = 2
    backoff_us: float = 50.0
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_us < 0:
            raise ConfigError(
                f"backoff_us must be >= 0, got {self.backoff_us}"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigError(
                f"backoff_multiplier must be >= 1, got "
                f"{self.backoff_multiplier}"
            )

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        return self.backoff_us * self.backoff_multiplier**attempt


@dataclass(frozen=True)
class DegradedExecution:
    """A fault-aware execution: timing plus recovery accounting.

    Attributes:
        execution: the ordinary timing breakdown (retry backoff and
            replacement reads included in its clock).
        valid_per_read: newly covered keys per *useful* page read, in
            read order (failed and corrupt reads contribute nothing).
        pages_ok: pages whose payload actually arrived intact, in read
            order (primary successes then replacements) — the set a
            page-grain cache admission may trust.
        retries: total re-submissions across all reads of the query.
        failed_reads: logical reads abandoned after exhausting retries.
        wasted_reads: transfers that completed but failed their
            integrity check (bandwidth consumed, no data delivered).
        recovered_keys: lost keys served via a replica (free co-resident
            or replacement read).
        missing_keys: keys with no surviving page, in process order.
    """

    execution: ExecutionResult
    valid_per_read: Tuple[int, ...]
    pages_ok: Tuple[int, ...]
    retries: int
    failed_reads: int
    wasted_reads: int
    recovered_keys: int
    missing_keys: Tuple[int, ...]


class RetryingReads:
    """:class:`~repro.serving.executor.DeviceReads` with bounded retries.

    One instance serves one query.  A read that still fails after its
    retries comes back as None and its page joins :attr:`failed`.  The
    device must be fault-aware (:class:`~repro.faults.FaultySsd`):
    attempt-numbered submissions and an ``is_corrupt`` verdict.  Each
    re-submission charges the submit overhead before any queue stall,
    as a first submission does.
    """

    __slots__ = ("retry", "failed", "retries", "wasted")

    def __init__(self, retry: RetryPolicy) -> None:
        self.retry = retry
        self.failed = set()
        self.retries = 0
        self.wasted = 0

    def _check(self, device, result, now_us: float):
        """``(completion or None, clock, worth retrying)`` for one attempt."""
        if isinstance(result, DeviceFault):
            now_us = max(now_us, result.failed_at_us)
            return None, now_us, result.kind != "dead_page"
        if device.is_corrupt(result):
            # The transfer happened: the clock waits for it to arrive.
            self.wasted += 1
            return None, max(now_us, result.completed_at_us), True
        return result, now_us, False

    def _backoff(self, device, now_us: float, attempt: int) -> float:
        """Back off after failed attempt ``attempt``; pay the resubmission."""
        self.retries += 1
        now_us += self.retry.backoff_for(attempt)
        return now_us + device.submit_overhead_us

    def page(self, device, page_id: int, now_us: float, start: int = 0):
        """Read ``page_id`` from attempt ``start`` with a full retry budget."""
        attempt = start
        while True:
            if device.inflight >= device.queue_depth:
                now_us = stall(device, now_us)
            try:
                result = device.submit_read(page_id, now_us, attempt)
            except DeviceFault as fault:
                result = fault
            completion, now_us, retriable = self._check(device, result, now_us)
            if completion is not None:
                return completion, now_us
            if not retriable or attempt - start >= self.retry.max_retries:
                self.failed.add(page_id)
                return None, now_us
            now_us = self._backoff(device, now_us, attempt - start)
            attempt += 1

    def batch(self, device, commands, now_us: float):
        """Submit the batch once; settle each failed entry on its own."""
        results, now_us = DeviceReads.batch(device, commands, now_us)
        for index, command in enumerate(commands):
            if isinstance(command, GatherCommand):
                results[index], now_us = self._gather(
                    device, command, results[index], now_us
                )
                continue
            completion, now_us, retriable = self._check(
                device, results[index], now_us
            )
            if completion is None:
                if retriable and self.retry.max_retries:
                    now_us = self._backoff(device, now_us, 0)
                    completion, now_us = self.page(
                        device, command.page_id, now_us, start=1
                    )
                else:
                    self.failed.add(command.page_id)
            results[index] = completion
        return results, now_us

    def _gather(self, device, command: GatherCommand, result, now_us):
        """Retry a gather whole; when it keeps failing, read page by page.

        A dead page poisons every gather attempt, so the per-page
        fallback starts one past the gather's last attempt and returns
        the latest completion it delivered.
        """
        attempt = 0
        while True:
            completion, now_us, retriable = self._check(device, result, now_us)
            if completion is not None:
                return completion, now_us
            if not retriable or attempt >= self.retry.max_retries:
                break
            now_us = self._backoff(device, now_us, attempt)
            attempt += 1
            if device.inflight >= device.queue_depth:
                now_us = stall(device, now_us)
            try:
                result = device.submit_gather(command, now_us, attempt)
            except DeviceFault as fault:
                result = fault
        done = []
        for page_id in command.page_ids:
            now_us += device.submit_overhead_us
            completion, now_us = self.page(
                device, page_id, now_us, start=attempt + 1
            )
            if completion is not None:
                done.append(completion)
        latest = max(done, key=lambda c: c.completed_at_us, default=None)
        return latest, now_us


class RecoveringExecutor:
    """Runs an executor's timing model with retries and replica recovery.

    Args:
        executor: the timing model to run (the engine's own executor).
        full_forward: the **unshrunk** forward index (every page holding
            each key) — the replica map recovery re-selects from.
        invert: the layout's invert index (page → co-resident keys).
        retry: bounded-backoff retry policy.
    """

    def __init__(
        self,
        executor: Executor,
        full_forward: ForwardIndex,
        invert: InvertIndex,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        self.executor = executor
        self.full_forward = full_forward
        self.invert = invert
        self.retry = retry or RetryPolicy()

    def execute(self, outcome, device, start_us: float) -> DegradedExecution:
        """Run ``outcome`` on ``device``; degrade instead of raising."""
        reads = RetryingReads(self.retry)
        run = self.executor.dispatch(outcome, device, start_us, reads)
        failed = reads.failed
        pages_ok: List[int] = []
        valid_counts: List[int] = []
        lost_order: List[int] = []
        for step in outcome.steps:
            if step.page_id in failed:
                lost_order.extend(step.covered)
            else:
                pages_ok.append(step.page_id)
                valid_counts.append(len(step.covered))
        recovered = 0
        missing: List[int] = []
        if lost_order:
            # Free recovery: a successfully transferred page holds every
            # co-resident key, not only the ones selection assigned it.
            available = set()
            for page in pages_ok:
                available |= self.invert.key_set(page)
            lost = [k for k in lost_order if k not in available]
            recovered = len(lost_order) - len(lost)
            step_time_us = self.executor.cost_model.step_time_us
            overhead = device.submit_overhead_us
            now, last = run.now, run.last
            remaining = dict.fromkeys(lost)
            while remaining:
                key = next(iter(remaining))
                alternates = self.full_forward.pages_of(key)
                cpu = step_time_us(len(alternates))
                run.selection_us += cpu
                now += cpu
                for alt in alternates:
                    if alt in failed:
                        continue
                    now += overhead
                    completion, now = reads.page(device, alt, now)
                    if completion is None:
                        continue
                    pages_ok.append(alt)
                    last = max(last, completion.completed_at_us)
                    cover = [
                        k
                        for k in self.invert.sorted_keys_of(alt)
                        if k in remaining
                    ]
                    for k in cover:
                        del remaining[k]
                    recovered += len(cover)
                    valid_counts.append(len(cover))
                    break
                else:
                    missing.append(key)
                    del remaining[key]
            run.now, run.last = now, last
        run.pages_read = len(pages_ok) + reads.wasted
        return DegradedExecution(
            execution=run.finish(device),
            valid_per_read=tuple(valid_counts),
            pages_ok=tuple(pages_ok),
            retries=reads.retries,
            failed_reads=len(failed),
            wasted_reads=reads.wasted,
            recovered_keys=recovered,
            missing_keys=tuple(missing),
        )
