"""Per-band subtask runners: the compute phase as a worker-side service.

Each band gets one :class:`SubtaskRunner` (fronted by a
:class:`SubtaskRunnerActor` on the band's worker pool).  A runner only
ever executes kernels against real values — it touches no shared
service state besides accounting-free storage reads — so the executor's
accounting walk stays the single writer of every simulated number, in
all execution modes:

- parallel mode: the band dispatcher calls :meth:`compute` from pool
  threads as dependencies resolve (one logical slot per band); with
  ``config.execution_mode == "process"`` the kernels additionally hop
  to a pool worker process (``repro.core.procpool``) so pure-Python
  kernels run out-of-GIL;
- serial mode: the accounting walk calls :meth:`precompute` for each
  subtask just before accounting it, so kernel execution goes through
  the same runner interface (and shows up in the message trace) while
  the walk consumes the precomputed record exactly like the parallel
  path does.

:func:`run_subtask_kernels` is the one shared kernel loop behind all
three paths — what the serial walk, the band-runner threads and the
pool worker processes execute is literally the same code.
"""

from __future__ import annotations

from typing import Any

from ..core.dispatch import SubtaskComputation
from ..core.operator import ExecContext, is_multi_output
from ..core.opfusion import compile_step, plan_subtask
from .base import ServiceActor


def run_subtask_kernels(subtask, inputs: dict[str, Any],
                        config) -> SubtaskComputation:
    """Run one subtask's kernels against ``inputs`` (pure compute).

    No storage/meta/clock/memory effects — those happen later, in the
    accounting phase on the dispatching thread.  Fused steps that the
    compiled-fusion codegen accepts execute as a single generated
    evaluator: only the step's final result is recorded, intermediates
    live and die as locals of the compiled function.
    """
    env: dict[str, Any] = dict(inputs)
    steps = plan_subtask(subtask, enable=config.operator_fusion)
    executed_ops: set[int] = set()
    op_results: dict[int, Any] = {}
    op_extra: dict[int, dict[str, dict]] = {}
    for step in steps:
        compiled = compile_step(step) if config.compiled_fusion else None
        if compiled is not None:
            result = compiled.run(env)
            env[compiled.output_key] = result
            final_op = compiled.final_op
            executed_ops.add(id(final_op))
            op_results[id(final_op)] = result
            op_extra[id(final_op)] = {}
            continue
        for chunk in step:
            op = chunk.op
            if op is None or id(op) in executed_ops:
                continue
            executed_ops.add(id(op))
            ctx = ExecContext(env, config)
            result = op.execute(ctx)
            if is_multi_output(op, result):
                env.update(result)
            else:
                env[op.outputs[0].key] = result
            op_results[id(op)] = result
            op_extra[id(op)] = {
                key: dict(extra) for key, extra in ctx.extra_meta.items()
            }
    outputs = {
        key: env[key] for key in subtask.output_keys if key in env
    }
    return SubtaskComputation(op_results, op_extra, outputs)


class SubtaskRunner:
    """Kernel execution for one band."""

    def __init__(self, band: str, storage, config, procpool=None):
        self.band = band
        self._storage = storage
        self._config = config
        #: optional :class:`~repro.core.procpool.ProcPoolClient` shared
        #: by every runner of the cluster (process execution mode).
        self._procpool = procpool

    def compute(self, subtask, inputs: dict[str, Any]) -> SubtaskComputation:
        """Run the subtask's kernels against ``inputs``.

        May run on a band-runner pool thread.  In process mode the
        kernels cross into a pool worker process; a dead worker surfaces
        as :class:`~repro.errors.WorkerProcessCrash`, which the
        accounting walk treats like any other retryable compute fault.
        """
        if (self._procpool is not None
                and self._config.execution_mode == "process"):
            return self._procpool.run_subtask(subtask, inputs, self._config)
        return run_subtask_kernels(subtask, inputs, self._config)

    def precompute(self, subtask) -> SubtaskComputation | None:
        """Serial-mode entry: gather inputs and compute, or bail to None.

        Inputs come from one batched accounting-free read; the charged
        ``get`` for the same keys happens in the accounting phase.
        *Any* failure — a missing input the retry machinery will
        recover, or a kernel error — returns ``None`` so the accounting
        walk re-runs the kernels inline and fails (or retries) at
        exactly the point the pre-service engine did.  Serial stages
        stay in-process even in process mode: they exist because the
        graph was too small to amortize dispatch, let alone IPC.
        """
        try:
            inputs = self._storage.peek_values(list(subtask.input_keys))
            return run_subtask_kernels(subtask, inputs, self._config)
        except Exception:
            return None


class SubtaskRunnerActor(ServiceActor):
    """Fronts one band's :class:`SubtaskRunner` on its worker's pool."""

    service_methods = frozenset({"compute", "precompute"})
