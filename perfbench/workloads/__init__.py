"""The benchmark's workloads, one module each.

Every module provides ``setup(ctx) -> state`` (timed as ``setup_s``),
``run(ctx, state, outcome)`` (timed operations, output checks and —
when ``ctx.traced`` — the spans of the per-layer breakdown) and
``teardown(state)``, which stops every process the set-up started.
"""
