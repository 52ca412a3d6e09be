"""Persistent LOLCODE execution service.

Everything below this package outlives a single program run — the first
layer of the reproduction where the runtime is a *service* rather than a
launcher invocation:

* :mod:`repro.service.pool` — a warm pool of long-lived spawned worker
  processes that accept successive SPMD jobs over per-worker pipes,
  with shared-memory segments recycled by size class.  Exposed through
  the launcher as ``executor="pool"``, the executor for every process
  world.
* :mod:`repro.service.scheduler` — an asyncio job queue with bounded
  concurrency, per-job timeouts, FIFO fairness, and single-flight
  compilation.
* :mod:`repro.service.server` / :mod:`repro.service.client` — a
  JSON-over-unix-socket protocol (submit -> job id; status / wait /
  cancel; result payloads mirror ``lolbench`` rows).
* :mod:`repro.service.cli` — the ``lolserve`` command
  (``serve`` / ``submit`` / ``status`` / ``wait`` / ``cancel`` /
  ``stats`` / ``smoke``).

The heavy submodules import lazily where it matters (the launcher only
pulls :mod:`~repro.service.pool` when ``executor="pool"`` is requested);
this package init re-exports the stable entry points.
"""

from .pool import WorkerPool, get_default_pool, run_pooled, shutdown_default_pool
from .scheduler import Job, JobSpec, JobState, Scheduler, execute_job

__all__ = [
    "Job",
    "JobSpec",
    "JobState",
    "Scheduler",
    "WorkerPool",
    "execute_job",
    "get_default_pool",
    "run_pooled",
    "shutdown_default_pool",
]
