"""``repro.engine`` — the single-node frame API seen by the planes above.

:mod:`repro.engine.local` re-exports the ``repro.frame`` surface that
operator kernels, workloads and baselines compute with; the boundary
linter (``tools/check_service_boundaries.py``) points every module
outside ``repro/frame/`` and ``repro/engine/`` at it.
"""
