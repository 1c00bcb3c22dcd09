"""Engine configuration.

Groups the tunables the paper calls out:

* SSI behaviour switches (commit-ordering optimization of section 3.3.1,
  the read-only optimizations of section 4) so benchmarks can run the
  "SSI (no r/o opt.)" series of Figures 4 and 5a;
* memory-bounding knobs (section 6): predicate-lock granularity
  promotion thresholds and the capacity of the committed-transaction
  list that triggers summarization;
* the simulator cost model standing in for the paper's hardware
  (see DESIGN.md, "Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SSIConfig:
    """Behaviour and capacity knobs for the SSI implementation."""

    # Optimizations -----------------------------------------------------
    #: Commit-ordering optimization (section 3.3.1): a dangerous
    #: structure is a false positive unless T3 committed first.
    commit_ordering_opt: bool = True
    #: Read-only snapshot ordering rule (Theorem 3 / section 4.1): if T1
    #: is read-only the structure is a false positive unless T3
    #: committed before T1's snapshot.
    read_only_opt: bool = True
    #: Safe snapshot detection for read-only transactions (section 4.2).
    safe_snapshots: bool = True
    #: Drop a transaction's own SIREAD lock on a tuple it later writes
    #: (section 7.3); automatically disabled inside subtransactions.
    own_write_drops_siread: bool = True

    # Memory bounding (section 6) --------------------------------------
    #: Tuple-granularity SIREAD locks on one page held by one
    #: transaction are promoted to a single page lock past this count.
    max_pred_locks_per_page: int = 4
    #: Page-granularity locks on one relation held by one transaction
    #: are promoted to a relation lock past this count.
    max_pred_locks_per_relation: int = 32
    #: Hard cap on predicate-lock table entries (simulated shared
    #: memory). Promotion keeps us under it; exceeding it even after
    #: maximal promotion raises CapacityExceededError.
    max_predicate_locks: int = 100_000
    #: Committed SerializableXacts retained before the oldest is
    #: summarized into the OldCommittedSxact dummy (section 6.2).
    max_committed_sxacts: int = 64

    # Index-range locking granularity (section 5.2.1) -------------------
    #: "page": SIREAD gap locks on B+-tree leaf pages (what PostgreSQL
    #: 9.1 shipped). "nextkey": ARIES/KVL-style next-key locking -- the
    #: refinement the paper names as future work -- which locks the
    #: keys read plus the key bounding each scanned gap, eliminating
    #: page-sharing false positives (see the ablation benchmark).
    index_locking: str = "page"

    # Conflict tracking fidelity (section 5.3) --------------------------
    #: "full" keeps complete in/out rw-antidependency lists (the
    #: PostgreSQL 9.1 choice). "flags" keeps only two booleans per
    #: transaction (the original SSI paper's choice) which forfeits the
    #: commit-ordering and read-only optimizations; used by the ablation
    #: benchmark.
    conflict_tracking: str = "full"


@dataclass
class SanitizerConfig:
    """Runtime invariant sanitizers (the repro.analysis subsystem).

    A TSan/ASan analog for the engine: with a sanitizer on, the
    corresponding invariants are re-checked at transaction boundaries
    and any breach raises
    :class:`repro.analysis.sanitize.SanitizerViolation` with an obs
    post-mortem dump. All default off -- they are debugging/CI tools,
    and the benchmark harness asserts they stay off during wall-clock
    runs. The ``REPRO_SANITIZE`` environment variable (any non-empty
    value) force-enables all of them regardless of this config, which
    is how CI runs the tier-1 suite in sanitized mode.
    """

    #: Master switch; individual toggles below are ignored when False
    #: (unless REPRO_SANITIZE is set, which turns everything on).
    enabled: bool = False
    #: SSI state sanitizer: after each commit/abort, the SIREAD table
    #: holds no locks for fully-cleaned-up transactions, conflict
    #: pointers reference live-or-summarized sxacts, and
    #: dangerous-structure bookkeeping is consistent with pointer state
    #: (paper sections 4.7 / 5.3 / 6).
    ssi: bool = True
    #: Heap/MVCC sanitizer: xmin/xmax stamp discipline, hint bits agree
    #: with the CLOG, update-chain ctid acyclicity, visibility-map and
    #: FSM consistency.
    heap: bool = True
    #: Lock-leak detector: at transaction end, the heavyweight lock
    #: manager holds nothing for the finished xid.
    locks: bool = True
    #: Durability sanitizer (no-op for in-memory engines): no page file
    #: frame carries a pageLSN past the durable WAL (WAL-before-data),
    #: dirty-page recLSNs stay within the log, and synchronous commits
    #: are durable when acknowledged.
    durable: bool = True
    #: Run the O(heap)/O(locktable) sweeps only every Nth transaction
    #: end (per-transaction checks always run). 1 = every time.
    sweep_interval: int = 8

    @staticmethod
    def all_on(sweep_interval: int = 1) -> "SanitizerConfig":
        return SanitizerConfig(enabled=True, ssi=True, heap=True, locks=True,
                               sweep_interval=sweep_interval)


@dataclass
class DurabilityConfig:
    """Disk persistence (the repro.storage.durable subsystem).

    Off by default: the engine is the pure in-memory simulator and
    takes exactly the seed code paths (every durability hook is behind
    one ``is not None`` test). On, the engine keeps a physical WAL and
    checksummed page files under ``data_dir`` and can be reopened after
    a crash with :func:`repro.storage.durable.open_database`, replaying
    the log ARIES-style (REDO only -- MVCC makes UNDO unnecessary, see
    DESIGN.md "Durability").
    """

    #: Master switch. When False every other field is ignored and the
    #: engine is byte-identical to the in-memory seed behaviour.
    enabled: bool = False
    #: Directory holding pages/, wal.log and checkpoint.json.
    data_dir: str = ""
    #: On-disk page frame size in bytes (header + JSON payload + zero
    #: padding). A page whose payload outgrows this raises at writeback.
    page_bytes: int = 8192
    #: Commit waits for its WAL record to reach disk (the PostgreSQL
    #: synchronous_commit knob). False acknowledges commits after the
    #: in-memory WAL append; a background flusher (or the next
    #: synchronous event) persists them, so a crash may lose the tail
    #: of *acknowledged* commits -- but never corrupts.
    synchronous_commit: bool = True
    #: Group commit: a committing backend that finds a flush in flight
    #: queues behind it and one leader fsyncs the whole batch.
    group_commit: bool = True
    #: Seconds the async flusher sleeps between flushes when
    #: synchronous_commit is off. 0 = flush only on demand.
    commit_delay: float = 0.0
    #: Call os.fsync after WAL/page writes. Off trades real durability
    #: for speed (still crash-*consistent* against process kills, just
    #: not against power loss) -- used by wall-clock benchmarks.
    fsync: bool = True
    #: Write a full page image into the WAL the first time a page is
    #: dirtied after a checkpoint, so REDO can repair a torn page write
    #: (PostgreSQL full_page_writes).
    full_page_writes: bool = True
    #: Take an automatic checkpoint after this many WAL bytes
    #: (0 = only explicit / shutdown checkpoints).
    checkpoint_wal_bytes: int = 0
    #: Dirty pages retained before the clock hand starts writing the
    #: oldest back (WAL-first) to bound recovery work.
    max_dirty_pages: int = 512
    #: Transaction statuses per CLOG segment page.
    clog_segment_xids: int = 1024
    #: Modeled device sync latency in seconds, slept inside every WAL /
    #: page fsync (after the real one, GIL released). Benchmarks set it
    #: so commit cost reflects a fixed storage device instead of the
    #: host page cache, making shard scale-up measurements (N shards =
    #: N independent WAL devices) meaningful on one machine.
    modeled_flush_latency: float = 0.0


@dataclass
class ObsConfig:
    """Observability toggles (the repro.obs subsystem).

    Metrics counters are always on -- the engine's own stat blocks
    live on the registry and cost one bound-attribute increment each.
    Everything with additional per-event overhead (structured event
    tracing, lock-wait timing) sits behind ``enabled`` and costs a
    single ``is not None`` test when off.
    """

    #: Master switch for tracing and timing instrumentation.
    enabled: bool = False
    #: Structured event tracing into a bounded ring buffer (only when
    #: ``enabled``); see repro.obs.trace for the event catalog.
    trace: bool = True
    #: Ring-buffer capacity (events retained; older events fall off).
    trace_capacity: int = 8192
    #: Record wall-clock lock-wait durations into the
    #: ``locks.wait_ns`` histogram (only when ``enabled``).
    lock_wait_timing: bool = True


@dataclass
class CostModel:
    """Simulated-time charges, standing in for wall-clock measurement.

    Throughput figures in the paper are normalized to snapshot
    isolation, so only *relative* costs matter; these defaults are
    calibrated so the SI/SSI/S2PL relationships land in the ranges the
    paper reports (SSI tracking overhead 5-20% depending on workload,
    section 8).
    """

    #: Fixed cost of dispatching any statement.
    base_op: float = 1.0
    #: Per tuple examined by a scan (visibility check and read).
    tuple_read: float = 0.2
    #: Per tuple written (insert / new version / delete marking).
    tuple_write: float = 0.5
    #: Per unit of SSI lock-manager work (SIREAD tracking, conflict
    #: list maintenance, dangerous-structure checks). Calibrated so
    #: SSI's tracking overhead on SIBENCH falls in the paper's 10-20%
    #: band when the read-only optimizations are off.
    ssi_lock_work: float = 0.1
    #: Per unit of heavyweight lock-manager work (table locks, xid
    #: waits, the S2PL baseline's read/write locks). Cheaper than SSI
    #: bookkeeping: the paper's 100%-read-only point shows S2PL
    #: converging with SI, so plain lock acquisition must cost little;
    #: S2PL's penalty comes from blocking and deadlocks instead.
    hw_lock_work: float = 0.02
    #: Per buffer-cache miss. 0 models the paper's in-memory (tmpfs)
    #: configurations; raise it for the disk-bound ones.
    io_miss: float = 0.0
    #: Per begin/commit/abort.
    txn_overhead: float = 1.0
    #: Charged once per detected deadlock: stands in for PostgreSQL's
    #: deadlock_timeout wait plus the "expensive deadlock detection"
    #: the paper attributes S2PL's RUBiS losses to (section 8.3).
    deadlock_penalty: float = 100.0
    #: Charged each time a statement suspends on a heavyweight lock:
    #: the context switch, semaphore sleep/wake, and convoy effects a
    #: real blocking lock wait costs. SIREAD locks never block
    #: (section 5.2.1), so this term is what separates S2PL (blocking
    #: on every rw-conflict) from SSI in the paper's figures.
    #: Calibrated against the paper's RUBiS table: with this value the
    #: S2PL/SI throughput ratio lands at ~0.5 (paper: 208/435 = 0.48).
    block_event: float = 35.0
    #: Degree of hardware parallelism: with R runnable clients, one
    #: unit of work advances the clock by 1/min(R, parallelism). This
    #: is how blocking hurts throughput -- a blocked client wastes a
    #: processor slot, exactly as on the paper's 4-core (in-memory)
    #: and 16-core (disk-bound) machines.
    parallelism: int = 4


@dataclass
class EngineConfig:
    """Top-level configuration for a Database instance."""

    ssi: SSIConfig = field(default_factory=SSIConfig)
    cost: CostModel = field(default_factory=CostModel)
    #: Observability (metrics always on; tracing behind obs.enabled).
    obs: ObsConfig = field(default_factory=ObsConfig)
    #: Runtime invariant sanitizers (repro.analysis); all off by
    #: default, force-enabled by the REPRO_SANITIZE env var.
    sanitize: SanitizerConfig = field(default_factory=SanitizerConfig)
    #: Disk persistence (physical WAL + page files + REDO recovery);
    #: disabled by default -- the in-memory simulator is the seed path.
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)
    #: Tuples per heap page; small pages make page-granularity locking
    #: and promotion meaningful at laptop scale.
    heap_page_size: int = 32
    #: Keys per B+-tree page.
    btree_page_size: int = 32
    #: Buffer cache capacity in pages; None = unlimited (in-memory
    #: configuration). A finite value plus CostModel.io_miss > 0 models
    #: the paper's disk-bound configuration.
    buffer_pages: "int | None" = None
    #: Record a full history for the serializability checker
    #: (repro.verify). Cheap; disable for the largest benchmark runs.
    record_history: bool = False
    #: Scans voluntarily yield to the scheduler every this many heap
    #: pages (and every 8x this many index entries), so long statements
    #: interleave with concurrent clients as on real hardware.
    scan_yield_pages: int = 2

    @staticmethod
    def in_memory(**kw) -> "EngineConfig":
        """The paper's tmpfs configuration: no I/O cost."""
        return EngineConfig(**kw)

    @staticmethod
    def disk_bound(io_miss: float = 25.0, buffer_pages: int = 256, **kw) -> "EngineConfig":
        """The paper's disk-bound configuration: small buffer pool and a
        large per-miss charge, so I/O dominates CPU overheads."""
        cfg = EngineConfig(**kw)
        cfg.cost.io_miss = io_miss
        cfg.buffer_pages = buffer_pages
        return cfg

    @staticmethod
    def durable(data_dir: str, **kw) -> "EngineConfig":
        """A disk-backed configuration: physical WAL + page files under
        ``data_dir``, reopenable after a crash with
        :func:`repro.storage.durable.open_database`."""
        durability = kw.pop("durability", None)
        cfg = EngineConfig(**kw)
        if durability is None:
            durability = DurabilityConfig(enabled=True, data_dir=data_dir)
        else:
            durability.enabled = True
            durability.data_dir = data_dir
        cfg.durability = durability
        return cfg
