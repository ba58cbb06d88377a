"""Query executors: serial vs pipelined selection + SSD access (paper §6.2).

Each executor is one timing model: it walks a
:class:`~repro.serving.selection.SelectionOutcome` against a simulated
device, charging CPU per the cost model, and returns when the query's
last page read completes.

* :class:`SerialExecutor` — the "Raw" configuration of Figure 15: the
  page selection runs to completion first, and only then are the chosen
  reads submitted to the device.  CPU and I/O never overlap, so the query
  pays ``selection + reads`` end to end.
* :class:`PipelinedExecutor` — MaxEmbed's §6.2 optimization: each read is
  issued **asynchronously** right after its selection step; the CPU
  proceeds to the next step while earlier reads are in flight, and the
  query only waits at the end, polling all completions (mirrors SPDK
  submit/poll usage in the paper).  The win is the selection CPU hidden
  behind device time — the paper measures ~10 % (§8.4).
* :class:`BatchedExecutor` — the batched command path: selection runs to
  completion, then every chosen read is submitted as **one**
  :class:`~repro.ssd.commands.ReadCommand` batch, so the host-side
  submission overhead (``SsdProfile.submit_overhead_us``) is paid once
  per query instead of once per page.  With zero overhead (the default
  profiles) timing is bit-identical to :class:`SerialExecutor`.
* :class:`NdpExecutor` — near-data-processing path: the selected pages
  go down as a single :class:`~repro.ssd.commands.GatherCommand`; the
  device parses pages in its controller and returns only the valid
  embeddings over the bus (requires a gather-capable profile).

Every timing model sends its reads through one small read interface
(:class:`DeviceReads`: one page, or one command batch) and charges
``device.submit_overhead_us`` of host CPU per submitted command *before*
any queue stall; the default profiles set it to ``0.0``, so existing
per-page timing is unchanged (``now + 0.0`` is float-exact).  The fault
path (:mod:`repro.serving.recovery`) runs the same timing models over a
retrying read interface, so the two cannot drift apart.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Sequence

from ..ssd.commands import DeviceCommand, GatherCommand, ReadCommand
from ..types import EmbeddingSpec
from .cost_model import CpuCostModel
from .selection import SelectionOutcome


@dataclass(frozen=True)
class ExecutionResult:
    """Timing of one executed query.

    All fields are simulated microseconds; ``finish_us`` is absolute,
    the breakdown components are durations.
    """

    start_us: float
    finish_us: float
    sort_us: float
    selection_us: float
    io_wait_us: float
    pages_read: int

    @property
    def latency_us(self) -> float:
        """End-to-end query latency."""
        return self.finish_us - self.start_us

    @property
    def cpu_us(self) -> float:
        """CPU component (sort + selection)."""
        return self.sort_us + self.selection_us


def build_gather_command(
    outcome: SelectionOutcome, spec: "EmbeddingSpec | None" = None
) -> GatherCommand:
    """Translate a selection outcome into one multi-key gather command.

    The controller scans every slot of every named page (``candidates``);
    only the wanted embeddings cross the bus (``payload_bytes``).  With
    no :class:`~repro.types.EmbeddingSpec` the selector's own candidate
    accounting and a 4-byte-per-key payload bound stand in.
    """
    wanted = sum(outcome.covered_counts)
    if spec is not None:
        candidates = outcome.num_steps * spec.slots_per_page
        payload = wanted * spec.embedding_bytes
    else:
        candidates = outcome.total_candidates
        payload = wanted * 4
    return GatherCommand(
        page_ids=tuple(outcome.pages),
        wanted_keys=wanted,
        candidates=candidates,
        payload_bytes=payload,
    )


def stall(device, now_us: float) -> float:
    """Poll completions until the submission queue has a free slot.

    Mirrors an SPDK application's behaviour: when the queue is full the
    submitting CPU polls completions until a slot frees, so the
    submission time advances to that completion.  Returns the clock.
    """
    while device.inflight >= device.queue_depth:
        next_done = device.next_completion_time()
        if next_done is None:  # pragma: no cover - inflight>0 implies one
            break
        now_us = max(now_us, next_done)
        device.poll(now_us)
    return now_us


class DeviceReads:
    """The read interface every timing model sends its reads through.

    :meth:`page` submits one page read and :meth:`batch` a vector of
    commands; both stall on a full submission queue and return
    ``(completion(s), now_us)`` with the possibly-advanced clock.  The
    caller has already charged the submit overhead.  These plain reads
    submit once; the retrying reads of :mod:`repro.serving.recovery`
    keep the signatures and return None for a read that delivered
    nothing.
    """

    @staticmethod
    def page(device, page_id: int, now_us: float):
        """Submit one read, stalling on a full submission queue."""
        if device.inflight >= device.queue_depth:
            now_us = stall(device, now_us)
        return device.submit_read(page_id, now_us), now_us

    @staticmethod
    def batch(device, commands: Sequence[DeviceCommand], now_us: float):
        """Submit a command batch, chunking on submission-queue headroom.

        The whole batch shares one submission timestamp unless the queue
        fills mid-way, in which case the submitting CPU polls until
        slots free (advancing the clock) and pushes the remainder —
        same stall rule as :meth:`page`, amortized.
        """
        completions: List = []
        index = 0
        while index < len(commands):
            now_us = stall(device, now_us)
            free = device.queue_depth - device.inflight
            if free <= 0:  # pragma: no cover - full queue, nothing pending
                break
            chunk = list(commands[index : index + free])
            completions.extend(device.submit_batch(chunk, now_us))
            index += len(chunk)
        return completions, now_us


class Run:
    """One query's clock while a timing model sends its reads.

    Opens at ``start_us`` plus the query base and sort cost, plus all of
    the selection CPU when it is charged ``upfront``.  ``now`` is the
    host clock after the last submission and ``last`` the latest
    delivered completion; the recovery stage advances both before
    :meth:`finish` turns them into an :class:`ExecutionResult`.
    """

    __slots__ = ("start_us", "now", "last", "sort_us", "selection_us",
                 "pages_read")

    def __init__(
        self,
        outcome: SelectionOutcome,
        start_us: float,
        cost: CpuCostModel,
        upfront: bool,
    ) -> None:
        self.start_us = start_us
        self.sort_us = cost.sort_time_us(outcome.sorted_keys)
        now = start_us + (cost.query_base_us + self.sort_us)
        self.selection_us = 0.0
        if upfront:
            self.selection_us = cost.selection_time_us(outcome)
            now += self.selection_us
        self.now = self.last = now
        self.pages_read = outcome.num_steps

    def finish(self, device) -> ExecutionResult:
        """The query finishes at its last completion or its last CPU work."""
        finish = max(self.now, self.last)
        device.poll(finish)
        return ExecutionResult(
            start_us=self.start_us,
            finish_us=finish,
            sort_us=self.sort_us,
            selection_us=self.selection_us,
            io_wait_us=finish - self.now,
            pages_read=self.pages_read,
        )


class Executor(ABC):
    """Strategy interface for executing a selected query against a device."""

    # The plain read interface as static helpers of every executor.
    _submit_with_backpressure = staticmethod(DeviceReads.page)
    _submit_batch_with_backpressure = staticmethod(DeviceReads.batch)

    def __init__(self, cost_model: "CpuCostModel | None" = None) -> None:
        self.cost_model = cost_model or CpuCostModel()

    def execute(
        self, outcome: SelectionOutcome, device, start_us: float
    ) -> ExecutionResult:
        """Run ``outcome``'s reads on ``device`` starting at ``start_us``."""
        return self.dispatch(outcome, device, start_us, DeviceReads).finish(
            device
        )

    @abstractmethod
    def dispatch(
        self, outcome: SelectionOutcome, device, start_us: float, reads
    ) -> Run:
        """Charge the CPU and send ``outcome``'s reads through ``reads``."""

    @staticmethod
    def _submit_overhead(device) -> float:
        """Host CPU charged per submitted command (0 for plain devices)."""
        return getattr(device, "submit_overhead_us", 0.0)


class SerialExecutor(Executor):
    """All selection first, then all reads — no CPU/I-O overlap."""

    def dispatch(self, outcome, device, start_us, reads) -> Run:
        run = Run(outcome, start_us, self.cost_model, upfront=True)
        overhead = self._submit_overhead(device)
        now = last = run.now
        for page_id in outcome.pages:
            now += overhead
            completion, now = reads.page(device, page_id, now)
            if completion is not None:
                last = max(last, completion.completed_at_us)
        run.now, run.last = now, last
        return run


class PipelinedExecutor(Executor):
    """Selection step → async read issue → next step; wait once at the end."""

    def dispatch(self, outcome, device, start_us, reads) -> Run:
        run = Run(outcome, start_us, self.cost_model, upfront=False)
        step_time_us = self.cost_model.step_time_us
        overhead = self._submit_overhead(device)
        now = last = run.now
        selection_us = 0.0
        for page_id, candidates in zip(
            outcome.pages, outcome.candidate_counts
        ):
            cpu = step_time_us(candidates)
            selection_us += cpu
            now += cpu + overhead
            completion, now = reads.page(device, page_id, now)
            if completion is not None:
                last = max(last, completion.completed_at_us)
        run.now, run.last, run.selection_us = now, last, selection_us
        return run


class BatchedExecutor(Executor):
    """Selection first, then all reads as **one** submitted batch.

    The host builds a :class:`~repro.ssd.commands.ReadCommand` per
    selected page and pushes the whole vector through ``submit_batch``,
    paying ``submit_overhead_us`` once per query rather than once per
    page.  The device's service model is untouched: with zero overhead
    this is bit-identical to :class:`SerialExecutor`.
    """

    def dispatch(self, outcome, device, start_us, reads) -> Run:
        run = Run(outcome, start_us, self.cost_model, upfront=True)
        if outcome.num_steps:
            now = run.now + self._submit_overhead(device)
            completions, run.now = reads.batch(
                device, self._commands(outcome), now
            )
            last = run.last
            for completion in completions:
                if completion is not None:
                    last = max(last, completion.completed_at_us)
            run.last = last
        return run

    def _commands(self, outcome: SelectionOutcome) -> List[DeviceCommand]:
        """The query's command vector: one read per selected page."""
        return [ReadCommand(p) for p in outcome.pages]


class NdpExecutor(BatchedExecutor):
    """One multi-key gather command per query (extension: NDP device).

    Selection still runs on the host (it needs the inverted index and
    cache state), but instead of reading whole pages back, the chosen
    pages go down as a single :class:`~repro.ssd.commands.GatherCommand`:
    the device's controller parses every slot of the named pages
    (``candidates``) and only the wanted embeddings
    (``wanted × embedding_bytes``) cross the host bus.  Requires a
    gather-capable profile (:class:`~repro.ssd.profiles.NdpSsdProfile`).
    """

    def __init__(
        self,
        cost_model: "CpuCostModel | None" = None,
        spec: "EmbeddingSpec | None" = None,
    ) -> None:
        super().__init__(cost_model)
        self.spec = spec

    def _commands(self, outcome: SelectionOutcome) -> List[DeviceCommand]:
        """The query as one gather command."""
        return [build_gather_command(outcome, self.spec)]
