"""Per-band subtask runners: the compute phase as a worker-side service.

Each band gets one :class:`SubtaskRunner` (fronted by a
:class:`SubtaskRunnerActor` on the band's worker pool).  A runner only
ever executes kernels against the input values it is handed — it
touches no shared service state — so the executor's accounting walk
stays the single writer of every simulated number in both execution
modes.  :meth:`SubtaskRunner.precompute` is the one kernel entry:

- thread-mode stages: the band dispatcher calls it from pool threads
  as dependencies resolve (one logical slot per band);
- serial stages, retries and lineage recovery: the accounting walk
  calls it on its own thread, over the inputs ``acquire_many`` just
  returned, and then replays the record.

:func:`run_subtask_kernels` is the only kernel loop behind it.
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

    def __init__(self, band: str, config):
        self.band = band
        self._config = config

    def precompute(self, subtask, inputs: dict[str, Any]) -> SubtaskComputation:
        """Run the subtask's kernels against ``inputs``.

        Kernel errors propagate to the caller unchanged.
        """
        return run_subtask_kernels(subtask, inputs, self._config)


class SubtaskRunnerActor(ServiceActor):
    """Fronts one band's :class:`SubtaskRunner` on its worker's pool."""

    service_methods = frozenset({"precompute"})
