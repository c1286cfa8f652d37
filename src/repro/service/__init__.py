"""``repro.service`` — the durable campaign orchestrator.

The paper's central robustness claim is that page-table transactions
survive a crash at any step via rollback; this package gives
the *checking infrastructure itself* the same property.  A campaign
run through the orchestrator is crash-safe end to end:

* :mod:`repro.service.store` — atomic write-fsync-rename snapshots and
  an append-only, CRC-framed, blake2b-keyed log that persist the
  fingerprint/verdict memo tables and per-wave results, so a
  ``kill -9`` at any instant leaves a loadable prefix;
* :mod:`repro.service.supervisor` — a fault-tolerant executor: dead
  workers are detected and respawned, failing shards retry with
  exponential backoff + deterministic jitter, and a poison shard is
  quarantined as a typed :class:`~repro.errors.ShardQuarantined`
  result instead of sinking the campaign;
* :mod:`repro.service.orchestrator` — checkpoint-per-wave campaign
  execution whose resumed verdict is repr-identical to an
  uninterrupted run, plus warm cross-run memo reuse
  (``python -m repro campaign`` / ``python -m repro resume``);
* :mod:`repro.service.scheduler` — fair-share wavefront interleaving
  of many campaigns over one shared pool, with admission control,
  budgets, work stealing, and graceful drain;
* :mod:`repro.service.daemon` / :mod:`repro.service.client` — the
  checking-as-a-service HTTP/JSON front and its deadline-aware client
  (``python -m repro serve`` / ``submit`` / ``status``).
"""

from repro.service.checkpoint import CampaignCheckpoint
from repro.service.orchestrator import (
    CampaignSpec,
    CampaignStore,
    resume_campaign,
    run_durable_campaign,
)
from repro.service.scheduler import CampaignScheduler
from repro.service.store import AppendLog, MemoStore, atomic_write
from repro.service.supervisor import ResilientExecutor

__all__ = [
    "AppendLog",
    "CampaignCheckpoint",
    "CampaignScheduler",
    "CampaignSpec",
    "CampaignStore",
    "MemoStore",
    "ResilientExecutor",
    "atomic_write",
    "resume_campaign",
    "run_durable_campaign",
]
