"""Pass registry for commsig-analyzer.

Each pass module exposes `run(project, ctx) -> list[Finding]`.  `ctx` is the
driver's `PassContext` (repo root, schema path, options); passes consume the
cross-TU `Project` IR only, never raw source, so they behave identically
under both frontends.
"""

from passes import determinism, hygiene, lock_order, obs_schema
from passes import result_discipline

ALL_PASSES = {
    "determinism": determinism.run,
    "hygiene": hygiene.run,
    "lock-order": lock_order.run,
    "obs-schema": obs_schema.run,
    "result": result_discipline.run,
}
