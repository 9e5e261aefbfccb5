//! Communicators: the per-rank handle for point-to-point, one-sided and
//! collective communication.
//!
//! A [`Comm`] pairs a rank [`Group`] with a **context id**. The group defines
//! the communicator's rank space (local rank `i` ↔ some world rank); the
//! context id is woven into the transport tag encoding so that traffic on one
//! communicator can never match receives posted on another. New communicators
//! are created collectively:
//!
//! * [`Comm::comm_dup`] — same group, fresh context id (the MPI idiom for
//!   giving a library its own isolated tag space);
//! * [`Comm::comm_split`] — partition by `color`, order by `key`, producing
//!   one sub-communicator per color (row/column communicators in stencils,
//!   per-node communicators, ...).
//!
//! Context ids are agreed upon with a max-allreduce of each member's next free
//! id over the parent communicator (the MPICH algorithm): any two
//! communicators that share a member therefore get distinct ids, and
//! disjoint-membership communicators may share an id safely because matching
//! also keys on the (world) source and destination ranks.
//!
//! All communicator handles of one rank share the rank's single transport
//! endpoint and virtual clock through an `Arc<RankShared>`. The transport +
//! clock pair sits behind one short-hold mutex (the **io lock**), while the
//! per-communicator progress state — collective sequence numbers, plan cache,
//! collective counters, error handler — is sharded into a per-communicator
//! `CommShard` with its own lock, so threads submitting on *different*
//! communicators of the same rank (MPI_THREAD_MULTIPLE style) never serialize
//! on a rank-global lock for their bookkeeping. Blocking waits take the io
//! lock once per progress *attempt*, never across a rendezvous, so two
//! threads blocked on different communicators cannot deadlock the rank.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use cmpi_fabric::SimClock;

use crate::coll::{self, CommView};
use crate::config::{CollTuning, DataPlaneMode, ProgressMode, ProgressTuning};
use crate::dataplane::DP_SLOTS;
use crate::engine::ProgressEngine;
use crate::error::MpiError;
use crate::group::Group;
use crate::plan::{PlanCache, PlanCacheStats, PlanKey, PlanOp};
use crate::pod::{bytes_of, bytes_of_mut, vec_from_bytes, Pod};
use crate::progress::{CollPlan, CollState, Execution, ProgressCounters, ProgressStats};
use crate::request::{PersistentMeta, Request, RequestState};
use crate::spin::{PoisonFlag, SpinWait};
use crate::topology::{HostHierarchy, HostTopology};
use crate::transport::{
    DataPlaneStats, DpWindow, Transport, TransportCounters, TransportStats, WinId,
};
use crate::types::{CtxId, Rank, ReduceOp, Reducible, Status, Tag, WORLD_CTX};
use crate::Result;

/// Grouping criteria accepted by [`Comm::split_type`] (the `MPI_Comm_split_type`
/// equivalent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitType {
    /// One sub-communicator per host, members ordered by their rank in the
    /// parent (the `MPI_COMM_TYPE_SHARED` idiom: every member of the result
    /// shares a hardware-coherent cache).
    Host,
}

/// Per-communicator error-handling policy for **process failures** (the
/// `MPI_Errhandler` idiom, reduced to the two standard handlers). Selected
/// with [`Comm::set_errhandler`]; scoped to one context id, so a library can
/// run fault-tolerant recovery on its own duplicated communicator while the
/// application keeps fail-fast semantics on the world communicator.
///
/// The handler only governs *survivable* failures — [`MpiError::ProcFailed`]
/// from a fault-injected death ([`crate::runtime::Universe::run_ft`]) and
/// [`MpiError::Revoked`] from [`Comm::revoke`]. Ordinary errors (invalid
/// arguments, truncation, ...) are always returned, and a hard-poisoned
/// universe (a rank that panicked) always surfaces [`MpiError::PeerDead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrHandler {
    /// Escalate a process failure to a universe abort (the
    /// `MPI_ERRORS_ARE_FATAL` default): the poison flag is raised and every
    /// rank's next wait fails with [`MpiError::PeerDead`] — exactly the
    /// pre-fault-tolerance behaviour.
    #[default]
    ErrorsAbort,
    /// Return the failure to the caller (the `MPI_ERRORS_RETURN` idiom):
    /// the operation fails with [`MpiError::ProcFailed`] naming the dead
    /// ranks, but the universe stays up and the survivors can run the
    /// ULFM recovery sequence — [`Comm::revoke`], [`Comm::agree`],
    /// [`Comm::shrink`].
    ErrorsReturn,
}

/// Collective-operation counters for one communicator of one rank, surfaced in
/// [`crate::runtime::RankReport::comm_colls`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CommCollStats {
    /// Context id of the communicator.
    pub ctx: CtxId,
    /// Size of the communicator's group.
    pub comm_size: usize,
    /// Barriers entered.
    pub barriers: u64,
    /// Broadcasts (byte or typed).
    pub bcasts: u64,
    /// Gathers.
    pub gathers: u64,
    /// Scatters.
    pub scatters: u64,
    /// Allgathers.
    pub allgathers: u64,
    /// Rooted reductions.
    pub reduces: u64,
    /// Allreduces.
    pub allreduces: u64,
    /// Reduce-scatters.
    pub reduce_scatters: u64,
    /// Inclusive prefix reductions (scans).
    pub scans: u64,
    /// Exclusive prefix reductions (exscans).
    pub exscans: u64,
    /// Complete exchanges (alltoall, alltoallv, alltoallw).
    pub alltoalls: u64,
    /// Payload bytes this rank contributed across those collectives.
    pub payload_bytes: u64,
}

/// Which collective to account in [`CommCollStats`] (also carried by
/// persistent requests so every `start` is counted).
#[derive(Debug, Clone, Copy)]
pub(crate) enum CollOp {
    Barrier,
    Bcast,
    Gather,
    Scatter,
    Allgather,
    Reduce,
    Allreduce,
    ReduceScatter,
    Scan,
    Exscan,
    Alltoall,
}

/// The wire half of a rank: the transport endpoint and the virtual clock,
/// behind the rank's **io lock**. Every actual transfer goes through here;
/// holders keep the lock for one bounded progress attempt (or one eager
/// send), never across a rendezvous with another rank's *caller*, so
/// concurrent threads of one rank interleave at attempt granularity.
pub(crate) struct RankIo {
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) clock: SimClock,
}

/// Cold per-rank control state: the context-id allocator and the
/// algorithm-choice telemetry. Its own small lock so collective starters
/// touch it briefly without holding the io lock.
struct RankCtl {
    /// Next context id this rank would propose for a new communicator.
    next_ctx: CtxId,
    /// Label of the algorithm chosen by the most recent collective.
    last_algo: &'static str,
    /// How often each collective algorithm was chosen by this rank.
    algo_counts: BTreeMap<&'static str, u64>,
    /// Which data-plane path (shared-window single-copy vs ring) the
    /// data-plane-eligible collectives took, with payload bytes per path.
    /// Merged with the transport's window counters in
    /// [`Comm::data_plane_stats`].
    dp_paths: DataPlaneStats,
}

/// The per-communicator progress state, sharded out of the rank-global locks
/// so threads operating on different communicators of one rank never
/// serialize on each other's bookkeeping (the MPI_THREAD_MULTIPLE hot path).
/// One shard per context id, shared by every handle of that communicator
/// (`comm_dup` of the same parent yields distinct shards).
pub(crate) struct CommShard {
    /// Context id the shard belongs to.
    ctx: CtxId,
    /// Collective sequence numbers: every collective started on the context
    /// (blocking or nonblocking) draws the next number, which is salted into
    /// the collective's internal tags. Ranks start collectives on a
    /// communicator in the same order (the MPI requirement), so the counters
    /// agree across the group and concurrent collectives can never
    /// cross-match.
    coll_seq: u32,
    /// Recovery-operation sequence numbers: every [`Comm::agree`] /
    /// [`Comm::shrink`] draws the next number, keying the shared agreement
    /// cells. Independent of the collective sequence space so recovery never
    /// aliases ordinary collectives.
    recovery_seq: u32,
    /// Collective-operation counters of this communicator.
    stats: CommCollStats,
    /// Compiled plans of repeated collective shapes, so planning runs once
    /// per (communicator, shape) instead of once per call. LRU-bounded by
    /// [`CollTuning::plan_cache_entries`].
    plans: PlanCache,
    /// Process-failure error handler ([`ErrHandler::ErrorsAbort`] is the MPI
    /// default).
    errhandler: ErrHandler,
}

impl CommShard {
    fn new(ctx: CtxId, comm_size: usize) -> Self {
        CommShard {
            ctx,
            coll_seq: 0,
            recovery_seq: 0,
            stats: CommCollStats {
                ctx,
                comm_size,
                ..CommCollStats::default()
            },
            plans: PlanCache::default(),
            errhandler: ErrHandler::default(),
        }
    }

    /// Draw the next collective sequence number.
    fn next_coll_seq(&mut self) -> u32 {
        let seq = self.coll_seq;
        self.coll_seq = self.coll_seq.wrapping_add(1);
        seq
    }
}

/// The state shared by every communicator handle of one rank. Lock order
/// (outer to inner): request `OpCell` slot → [`CommShard`] → [`RankCtl`] →
/// [`RankIo`]; nothing is ever acquired in the reverse direction, and the io
/// lock is never held while taking any other.
pub(crate) struct RankShared {
    /// The transport + clock, i.e. the wire (the io lock).
    io: Mutex<RankIo>,
    /// Context-id allocator and algorithm telemetry.
    ctl: Mutex<RankCtl>,
    /// Registry of every live communicator shard, for rank-level reporting.
    shards: Mutex<BTreeMap<CtxId, Arc<Mutex<CommShard>>>>,
    /// Progress-engine counters (polls, ops serviced, overlap split) —
    /// relaxed atomics, no lock.
    pub(crate) counters: ProgressCounters,
    /// The transport's live operation counters (shared atomics), so stats
    /// reads and collective accounting skip the io lock.
    tstats: Arc<TransportCounters>,
    /// Universe failure state (cloned from the transport at construction).
    pub(crate) poison: PoisonFlag,
    pub(crate) topology: HostTopology,
    /// Collective algorithm switchover thresholds (from the universe config).
    pub(crate) tuning: CollTuning,
    /// Progress-engine tuning (from the universe config).
    pub(crate) progress_cfg: ProgressTuning,
    /// The background progress engine (inert in [`ProgressMode::Polling`]).
    pub(crate) engine: ProgressEngine,
}

impl RankShared {
    /// Lock the io half, ignoring poisoning of the mutex itself (a rank
    /// thread that panicked mid-hold has already raised the universe poison
    /// flag, which every wait observes — the state behind the lock is a
    /// transport whose operations are individually consistent).
    pub(crate) fn io(&self) -> MutexGuard<'_, RankIo> {
        self.io.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn ctl(&self) -> MutexGuard<'_, RankCtl> {
        self.ctl.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The shard registered for `ctx` (created on demand — used by
    /// communicator construction).
    fn shard(&self, ctx: CtxId, comm_size: usize) -> Arc<Mutex<CommShard>> {
        let mut shards = self.shards.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            shards
                .entry(ctx)
                .or_insert_with(|| Arc::new(Mutex::new(CommShard::new(ctx, comm_size)))),
        )
    }

    /// Per-communicator collective counters across every live shard.
    pub(crate) fn coll_stats_snapshot(&self) -> Vec<CommCollStats> {
        let shards = self.shards.lock().unwrap_or_else(|e| e.into_inner());
        shards
            .values()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).stats)
            .collect()
    }

    pub(crate) fn algo_counts_snapshot(&self) -> Vec<(String, u64)> {
        self.ctl()
            .algo_counts
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// Aggregate plan-cache counters across every communicator of the rank.
    pub(crate) fn plan_cache_stats_snapshot(&self) -> PlanCacheStats {
        let mut s = PlanCacheStats::default();
        let shards = self.shards.lock().unwrap_or_else(|e| e.into_inner());
        for shard in shards.values() {
            let cache = &shard.lock().unwrap_or_else(|e| e.into_inner()).plans;
            s.hits += cache.hits;
            s.misses += cache.misses;
            s.evictions += cache.evictions;
            s.invalidations += cache.invalidations;
            s.entries += cache.len();
        }
        s
    }

    /// Eagerly create (or open) the shared-window data plane for `ctx` over
    /// `group` (world ranks, communicator order). Collective over the
    /// group's members — called at communicator construction so no
    /// collective starter ever blocks on window creation. A no-op when the
    /// data plane is configured off, the group is trivial, or the transport
    /// has no shared pool; pool exhaustion is graceful (the communicator
    /// simply stays on the ring path and the failure is counted in
    /// [`DataPlaneStats::window_failures`]).
    fn ensure_data_plane(&self, ctx: CtxId, group: &[Rank]) -> Result<()> {
        if self.tuning.data_plane == DataPlaneMode::Ring || group.len() < 2 {
            return Ok(());
        }
        let arena_bytes = self.tuning.shm_arena_bytes;
        let io = &mut *self.io();
        io.transport
            .dp_ensure(&mut io.clock, ctx, group, arena_bytes, DP_SLOTS)?;
        Ok(())
    }

    /// Merged data-plane counters: the transport's window/op counters plus
    /// this rank's per-path collective accounting.
    pub(crate) fn data_plane_stats_snapshot(&self) -> DataPlaneStats {
        let mut s = self.io().transport.dp_stats();
        s.merge(&self.ctl().dp_paths);
        s
    }

    /// Transport operation counters (lock-free snapshot of the shared
    /// atomics, merged with the transport's single-writer lazy-connection
    /// counters which require the io lock).
    pub(crate) fn transport_stats(&self) -> TransportStats {
        self.io().transport.stats()
    }
}

/// Rewrite a failure error onto communicator `ctx` and apply `errh`, the
/// communicator's error handler.
///
/// [`MpiError::ProcFailed`] arrives from the failure state with a placeholder
/// context of 0; this stamps the real context. Under
/// [`ErrHandler::ErrorsAbort`] a survivable failure escalates to hard poison
/// (universe abort, [`MpiError::PeerDead`]); under
/// [`ErrHandler::ErrorsReturn`] it is returned as-is.
/// [`MpiError::RankKilled`] — the fault injector terminating *this* rank —
/// always passes through untouched so the runtime can record the death.
fn apply_errhandler(poison: &PoisonFlag, errh: ErrHandler, ctx: CtxId, e: MpiError) -> MpiError {
    let e = match e {
        MpiError::ProcFailed { dead, detail, .. } => MpiError::ProcFailed { ctx, dead, detail },
        other => other,
    };
    if !matches!(e, MpiError::ProcFailed { .. } | MpiError::Revoked(_)) {
        return e;
    }
    match errh {
        ErrHandler::ErrorsReturn => e,
        ErrHandler::ErrorsAbort => {
            let reason = e.to_string();
            poison.poison(reason.clone());
            MpiError::PeerDead(reason)
        }
    }
}

/// A communicator handle (the `MPI_Comm` equivalent). The world communicator
/// is handed to every rank by [`crate::runtime::Universe::run`]; further
/// communicators come from [`Comm::comm_dup`] and [`Comm::comm_split`].
///
/// All rank arguments and [`Status::source`] values are **local ranks** of
/// this communicator's group.
pub struct Comm {
    shared: Arc<RankShared>,
    /// This communicator's progress shard (also registered in
    /// [`RankShared::shards`]); handles of the same context share one shard.
    shard: Arc<Mutex<CommShard>>,
    group: Arc<Group>,
    ctx: CtxId,
    /// This rank's local rank within `group`.
    rank: Rank,
    /// Lazily derived host hierarchy (same-host group + one-leader-per-host
    /// group) used by the topology-aware collective compositions. Derived
    /// locally from `(group, topology)` — no communication — and therefore
    /// never stale; communicators created by `comm_dup`/`comm_split` start
    /// with an empty cache and re-derive against their own group.
    hier: Mutex<Option<Arc<HostHierarchy>>>,
}

impl Comm {
    /// Build the world communicator for one rank (runtime-internal).
    /// Collective: when the data plane is enabled this eagerly creates the
    /// world communicator's shared exposure window, so every member must
    /// construct its world communicator.
    pub(crate) fn world(
        transport: Box<dyn Transport>,
        topology: HostTopology,
        tuning: CollTuning,
        progress_cfg: ProgressTuning,
    ) -> Result<Self> {
        let n = transport.size();
        let rank = transport.rank();
        let poison = transport.poison().clone();
        let tstats = transport.stats_handle();
        let shared = Arc::new(RankShared {
            io: Mutex::new(RankIo {
                transport,
                clock: SimClock::new(),
            }),
            ctl: Mutex::new(RankCtl {
                next_ctx: WORLD_CTX + 1,
                last_algo: "none",
                algo_counts: BTreeMap::new(),
                dp_paths: DataPlaneStats::default(),
            }),
            shards: Mutex::new(BTreeMap::new()),
            counters: ProgressCounters::default(),
            tstats,
            poison,
            topology,
            tuning,
            progress_cfg,
            engine: ProgressEngine::new(rank),
        });
        if shared.progress_cfg.mode == ProgressMode::Thread {
            shared.engine.start(Arc::downgrade(&shared));
        }
        let group = Group::world(n);
        shared.ensure_data_plane(WORLD_CTX, group.world_ranks())?;
        let shard = shared.shard(WORLD_CTX, group.size());
        Ok(Comm {
            shared,
            shard,
            group: Arc::new(group),
            ctx: WORLD_CTX,
            rank,
            hier: Mutex::new(None),
        })
    }

    /// Lock this communicator's progress shard.
    fn shard(&self) -> MutexGuard<'_, CommShard> {
        let guard = self.shard.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(guard.ctx, self.ctx, "shard/handle context mismatch");
        guard
    }

    /// Stop the background progress engine and join its thread (runtime
    /// shutdown hook; no-op in [`ProgressMode::Polling`] or when already
    /// stopped).
    pub(crate) fn shutdown_engine(&self) {
        self.shared.engine.shutdown();
    }

    /// The lazily cached host hierarchy of this communicator (see the field
    /// docs): derived on first use, shared by every collective afterwards.
    fn hierarchy(&self) -> Arc<HostHierarchy> {
        let mut hier = self.hier.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(h) = &*hier {
            return Arc::clone(h);
        }
        let derived = Arc::new(HostHierarchy::derive(
            &self.group,
            &self.shared.topology,
            self.rank,
        ));
        *hier = Some(Arc::clone(&derived));
        derived
    }

    /// The hierarchy handle the collective builders consult, or `None` when
    /// trivially impossible (singleton group). `HierarchyMode::Off` is gated
    /// inside [`coll::hier_selected`], not here: the *derived structure* is
    /// also what the data plane's topology-aware shapes slice payloads by,
    /// and those run under `Off` too. Derivation is pure, cached per
    /// communicator and miss-only (plan-cache hits never reach this).
    fn hier_for_coll(&self) -> Option<Arc<HostHierarchy>> {
        if self.group.size() < 2 {
            return None;
        }
        Some(self.hierarchy())
    }

    /// Rewrite a failure error onto this communicator and apply its error
    /// handler (see [`apply_errhandler`]). Takes the shard lock — call only
    /// **after** dropping any io-lock guard.
    fn map_ft_err(&self, e: MpiError) -> MpiError {
        apply_errhandler(&self.shared.poison, self.errhandler(), self.ctx, e)
    }

    /// Blocking send-only execution (non-root contributor of a rooted
    /// collective). Runs under one io-lock hold: the transports drain
    /// incoming traffic internally while flow-control spinning, so a send
    /// cannot deadlock against this rank's own unconsumed messages.
    fn run_send_only_exec(&self, exec: &mut Execution, payload: &[u8]) -> Result<()> {
        let sent = {
            let io = &mut *self.shared.io();
            exec.run_send_only(io.transport.as_mut(), &mut io.clock, payload)
        };
        sent.map_err(|e| self.map_ft_err(e))
    }

    /// Drive `exec` to completion with a **lock-per-attempt** loop: each
    /// iteration takes the rank's io lock for one bounded progress attempt and
    /// releases it before backing off, so concurrent threads of this rank (and
    /// the background progress engine) interleave at attempt granularity
    /// instead of serializing behind one blocked collective.
    fn run_exec(&self, exec: &mut Execution, buf: &mut [u8]) -> Result<()> {
        let mut backoff = SpinWait::new();
        loop {
            let step = {
                let io = &mut *self.shared.io();
                exec.progress(io.transport.as_mut(), &mut io.clock, buf, 0)
            };
            let step = step.map_err(|e| self.map_ft_err(e))?;
            if step.done {
                return Ok(());
            }
            if step.ops > 0 {
                backoff.reset();
            } else {
                backoff
                    .wait(&self.shared.poison)
                    .map_err(|e| self.map_ft_err(e))?;
            }
        }
    }

    /// Attribute a completion failure to the request at `index` in a
    /// `wait_any`/`wait_all`/`test_all` slice: names the request in the error
    /// detail and spends the failed request (so sibling requests stay
    /// individually completable under [`ErrHandler::ErrorsReturn`]), then
    /// applies the communicator's error handler.
    fn fail_request(&self, request: &mut Request, index: usize, e: MpiError) -> MpiError {
        let e = match e {
            MpiError::ProcFailed { ctx, dead, detail } => {
                request.mark_failed();
                MpiError::ProcFailed {
                    ctx,
                    dead,
                    detail: format!("request #{index}: {detail}"),
                }
            }
            MpiError::Revoked(ctx) => {
                request.mark_failed();
                MpiError::Revoked(ctx)
            }
            other => other,
        };
        self.map_ft_err(e)
    }

    /// Failure precheck run at every collective/persistent start and send:
    /// errors (through the communicator's error handler) if this context has
    /// been revoked or a group member is recorded dead. Free in runs that
    /// never saw a fault-tolerance event — one atomic load.
    fn ft_precheck(&self) -> Result<()> {
        let poison = &self.shared.poison;
        if !poison.ft_active() {
            return Ok(());
        }
        if poison.is_revoked(self.ctx) {
            return Err(self.map_ft_err(MpiError::Revoked(self.ctx)));
        }
        let dead = poison.dead_ranks();
        if !dead.is_empty() {
            let failed: Vec<Rank> = self
                .group
                .world_ranks()
                .iter()
                .copied()
                .filter(|r| dead.contains(r))
                .collect();
            if !failed.is_empty() {
                let detail = format!(
                    "{} of {} group members recorded dead before the operation started",
                    failed.len(),
                    self.group.size()
                );
                return Err(self.map_ft_err(MpiError::ProcFailed {
                    ctx: self.ctx,
                    dead: failed,
                    detail,
                }));
            }
        }
        Ok(())
    }

    /// The cached plan for `key` on this communicator, building (and caching)
    /// it on first use. Every collective start — blocking, nonblocking or
    /// persistent — funnels through here, so repeated shapes skip planning
    /// entirely (and every start inherits the [`Comm::ft_precheck`] failure
    /// gate); the cache is per context id and LRU-bounded by
    /// [`CollTuning::plan_cache_entries`].
    fn cached_plan(
        &self,
        key: PlanKey,
        build: impl FnOnce(&CollTuning, Option<&HostHierarchy>, Option<DpWindow>) -> CollPlan,
    ) -> Result<Arc<CollPlan>> {
        self.ft_precheck()?;
        // Probe first: the hit path pays one cache scan and nothing else.
        // Hierarchy derivation (a lock + an Arc clone) is miss-only work —
        // the built plan bakes the hierarchy decision in, and likewise the
        // data-plane decision: the window is created (or definitively absent)
        // at communicator construction, so its availability is fixed for the
        // communicator's lifetime and safe to bake into cached plans.
        if let Some(plan) = self.shard().plans.lookup(&key) {
            return Ok(plan);
        }
        let hier = self.hier_for_coll();
        let tuning = self.shared.tuning;
        let dp = if tuning.data_plane == DataPlaneMode::Ring {
            None
        } else {
            self.shared.io().transport.dp_window(self.ctx)
        };
        let plan = Arc::new(build(&tuning, hier.as_deref(), dp));
        self.shard()
            .plans
            .insert(key, &plan, tuning.plan_cache_entries);
        Ok(plan)
    }

    /// Aggregate plan-cache counters of this rank (hits, misses, evictions,
    /// resident plans — across all communicators sharing the rank state; also
    /// surfaced in [`crate::runtime::RankReport::plan_cache`]).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.shared.plan_cache_stats_snapshot()
    }

    /// Data-plane counters of this rank (across all communicators sharing
    /// the rank state): shared-window setups and failures, single-copy
    /// expose/pull/notify operations, and the shm-vs-ring path split of the
    /// data-plane-eligible collectives. Also surfaced in
    /// [`crate::runtime::RankReport::data_plane`].
    pub fn data_plane_stats(&self) -> DataPlaneStats {
        self.shared.data_plane_stats_snapshot()
    }

    /// Snapshot of the per-communicator collective counters accumulated by
    /// this rank so far (across *all* communicators sharing the rank state).
    pub(crate) fn coll_stats_snapshot(&self) -> Vec<CommCollStats> {
        self.shared.coll_stats_snapshot()
    }

    /// Label of the algorithm chosen by the most recent collective executed by
    /// this rank (any communicator), e.g. `"allreduce/rabenseifner"`. Returns
    /// `"none"` before the first collective.
    pub fn last_coll_algorithm(&self) -> &'static str {
        self.shared.ctl().last_algo
    }

    /// Snapshot of how often each collective algorithm was chosen by this rank
    /// (surfaced in [`crate::runtime::RankReport::coll_algos`]).
    pub(crate) fn algo_counts_snapshot(&self) -> Vec<(String, u64)> {
        self.shared.algo_counts_snapshot()
    }

    /// Record a started collective: transport counters (atomics), this
    /// communicator's op counters (shard lock). Takes no io lock.
    fn note_coll(&self, op: CollOp, payload_bytes: u64) {
        TransportCounters::bump(&self.shared.tstats.collectives, 1);
        TransportCounters::bump(&self.shared.tstats.collective_bytes, payload_bytes);
        let entry = &mut self.shard().stats;
        entry.payload_bytes += payload_bytes;
        match op {
            CollOp::Barrier => entry.barriers += 1,
            CollOp::Bcast => entry.bcasts += 1,
            CollOp::Gather => entry.gathers += 1,
            CollOp::Scatter => entry.scatters += 1,
            CollOp::Allgather => entry.allgathers += 1,
            CollOp::Reduce => entry.reduces += 1,
            CollOp::Allreduce => entry.allreduces += 1,
            CollOp::ReduceScatter => entry.reduce_scatters += 1,
            CollOp::Scan => entry.scans += 1,
            CollOp::Exscan => entry.exscans += 1,
            CollOp::Alltoall => entry.alltoalls += 1,
        }
    }

    /// Record the algorithm chosen for a started collective (ctl lock only).
    fn note_algo(&self, algo: &'static str, payload_bytes: u64) {
        let ctl = &mut *self.shared.ctl();
        ctl.last_algo = algo;
        *ctl.algo_counts.entry(algo).or_insert(0) += 1;
        // Path accounting for the data-plane-eligible collective families:
        // "<family>/shm" labels took the shared-window single-copy path,
        // every other label of those families went through the ring
        // transport (the universal fallback).
        if algo.ends_with("/shm") {
            ctl.dp_paths.shm_colls += 1;
            ctl.dp_paths.shm_bytes += payload_bytes;
        } else if ["bcast/", "reduce/", "allreduce/", "allgather/", "alltoall/"]
            .iter()
            .any(|p| algo.starts_with(p))
        {
            ctl.dp_paths.ring_colls += 1;
            ctl.dp_paths.ring_bytes += payload_bytes;
        }
    }

    /// Draw the next collective sequence number for this communicator.
    fn next_seq(&self) -> u32 {
        self.shard().next_coll_seq()
    }

    fn view(&self) -> CommView<'_> {
        CommView {
            group: &self.group,
            ctx: self.ctx,
            rank: self.rank,
        }
    }

    /// Reject user tags inside the collective-reserved range: they are
    /// invisible to wildcard receives and could collide with an outstanding
    /// collective's salted internal tags.
    fn check_user_tag(tag: Tag) -> Result<()> {
        if tag >= crate::types::COLL_TAG_BASE {
            return Err(MpiError::ReservedTag(tag));
        }
        Ok(())
    }

    /// As [`Comm::check_user_tag`], for receive selectors (wildcards pass).
    fn check_user_tag_sel(tag: Option<Tag>) -> Result<()> {
        tag.map_or(Ok(()), Self::check_user_tag)
    }

    /// Translate a local rank of this communicator to a world rank.
    fn world_of(&self, local: Rank) -> Result<Rank> {
        if local >= self.group.size() {
            return Err(MpiError::InvalidRank {
                rank: local,
                size: self.group.size(),
            });
        }
        Ok(self.group.world_rank(local))
    }

    /// Rewrite a transport-level status (world source) into this
    /// communicator's rank space.
    fn localize(&self, status: Status) -> Result<Status> {
        let source = self.group.local_rank_of(status.source).ok_or_else(|| {
            MpiError::InvalidCommunicator(format!(
                "message from world rank {} matched on context {} but the rank is not a member",
                status.source, self.ctx
            ))
        })?;
        Ok(Status { source, ..status })
    }

    fn ensure_world_group(&self, world_size: usize) -> Result<()> {
        // Any world-spanning group works (window resources exist per world
        // rank and accesses translate local → world), including permuted
        // orders from comm_split with reordering keys; true subsets do not.
        if self.group.spans_world(world_size) {
            Ok(())
        } else {
            Err(MpiError::InvalidCommunicator(
                "RMA windows are only supported on world-spanning communicators".into(),
            ))
        }
    }

    // ------------------------------------------------------------------
    // Identity and introspection
    // ------------------------------------------------------------------

    /// This rank's index within the communicator.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.group.size()
    }

    /// This rank's world (universe-wide) rank.
    pub fn world_rank(&self) -> Rank {
        self.group.world_rank(self.rank)
    }

    /// The communicator's rank group.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// The communicator's context id.
    pub fn context_id(&self) -> CtxId {
        self.ctx
    }

    /// The progress mode this rank runs under ([`ProgressMode::Thread`] means
    /// a background engine thread drives outstanding nonblocking operations).
    pub fn progress_mode(&self) -> ProgressMode {
        self.shared.progress_cfg.mode
    }

    /// Whether the background progress engine thread is live for this rank
    /// (crate-internal; the futures adapter uses it to choose between
    /// engine-driven wakeups and self-waking polls).
    pub(crate) fn engine_running(&self) -> bool {
        self.shared.engine.is_running()
    }

    /// Whether this communicator spans the entire universe.
    pub fn is_world(&self) -> bool {
        let world_size = self.shared.io().transport.size();
        self.group.is_world(world_size)
    }

    /// The host this rank runs on.
    pub fn host(&self) -> usize {
        let world = self.world_rank();
        self.shared.topology.host_of(world)
    }

    /// The full host topology (indexed by world rank).
    pub fn topology(&self) -> HostTopology {
        self.shared.topology.clone()
    }

    /// Whether this rank is rank 0 of the communicator.
    pub fn is_root(&self) -> bool {
        self.rank == 0
    }

    /// Transport label (for benchmark output).
    pub fn transport_label(&self) -> &'static str {
        self.shared.io().transport.label()
    }

    // ------------------------------------------------------------------
    // Virtual time and counters
    // ------------------------------------------------------------------

    /// Current virtual time of this rank, nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        self.shared.io().clock.now()
    }

    /// Charge `ns` nanoseconds of local computation to the virtual clock.
    pub fn advance_clock(&mut self, ns: f64) {
        self.shared.io().clock.advance(ns);
    }

    /// Transport operation counters (shared by every communicator of the
    /// rank).
    pub fn stats(&self) -> TransportStats {
        self.shared.transport_stats()
    }

    /// Tell the contention / NIC-sharing models how many communication pairs
    /// are concurrently active (benchmarks set this to their process count).
    pub fn set_concurrency_hint(&mut self, pairs: usize) {
        self.shared.io().transport.set_concurrency_hint(pairs);
    }

    // ------------------------------------------------------------------
    // Communicator construction
    // ------------------------------------------------------------------

    /// Duplicate the communicator: same group, fresh context id. Collective
    /// over this communicator. The duplicate's traffic is fully isolated from
    /// the original's — the MPI idiom for handing a library its own
    /// communicator.
    pub fn comm_dup(&mut self) -> Result<Comm> {
        self.ft_precheck()?;
        let hier = self.hier_for_coll();
        let view = self.view();
        let tuning = self.shared.tuning;
        let seq = self.next_seq();
        let mut proposal = [self.shared.ctl().next_ctx as u64];
        let algo = {
            let io = &mut *self.shared.io();
            coll::allreduce(
                io.transport.as_mut(),
                &mut io.clock,
                &view,
                &tuning,
                hier.as_deref(),
                seq,
                &mut proposal,
                ReduceOp::Max,
            )
        }
        .map_err(|e| self.map_ft_err(e))?;
        let new_ctx = proposal[0] as CtxId;
        self.shared.ctl().next_ctx = new_ctx + 1;
        self.note_coll(CollOp::Allreduce, 8);
        self.note_algo(algo, 8);
        self.shared
            .ensure_data_plane(new_ctx, self.group.world_ranks())?;
        let shard = self.shared.shard(new_ctx, self.group.size());
        Ok(Comm {
            shared: Arc::clone(&self.shared),
            shard,
            group: Arc::clone(&self.group),
            ctx: new_ctx,
            rank: self.rank,
            hier: Mutex::new(self.hier.lock().unwrap_or_else(|e| e.into_inner()).clone()),
        })
    }

    /// Split the communicator: ranks passing the same non-negative `color`
    /// form a new sub-communicator, ordered by (`key`, current rank); a
    /// negative `color` (the `MPI_UNDEFINED` idiom) yields `None`. Collective
    /// over this communicator — every member must call it.
    pub fn comm_split(&mut self, color: i32, key: i32) -> Result<Option<Comm>> {
        self.ft_precheck()?;
        let n = self.group.size();
        let mut gathered = vec![0i64; 3 * n];
        let hier = self.hier_for_coll();
        let view = self.view();
        let tuning = self.shared.tuning;
        let seq = self.next_seq();
        let mine = [color as i64, key as i64, self.shared.ctl().next_ctx as i64];
        let algo = {
            let io = &mut *self.shared.io();
            coll::allgather_into(
                io.transport.as_mut(),
                &mut io.clock,
                &view,
                &tuning,
                hier.as_deref(),
                seq,
                &mine,
                &mut gathered,
            )
        }
        .map_err(|e| self.map_ft_err(e))?;
        self.note_algo(algo, 24);
        // Agree on a context id unused by every member (max of proposals);
        // all colors of this split share it — their groups are disjoint,
        // so their (source, destination) pairs already are.
        let new_ctx = gathered
            .chunks_exact(3)
            .map(|c| c[2])
            .max()
            .expect("split gathered at least this rank") as CtxId;
        self.shared.ctl().next_ctx = new_ctx + 1;
        self.note_coll(CollOp::Allgather, 24);
        if color < 0 {
            return Ok(None);
        }
        // Members of my color, ordered by (key, parent rank).
        let mut members: Vec<(i64, Rank)> = gathered
            .chunks_exact(3)
            .enumerate()
            .filter(|(_, c)| c[0] == color as i64)
            .map(|(local, c)| (c[1], local))
            .collect();
        members.sort_unstable();
        let world_ranks: Vec<Rank> = members
            .iter()
            .map(|&(_, local)| self.group.world_rank(local))
            .collect();
        let group = Arc::new(Group::from_world_ranks(world_ranks)?);
        let my_local = group
            .local_rank_of(self.world_rank())
            .expect("split member contains itself");
        // Eagerly provision the new sub-communicator's shared window.
        // Collective over the color's members only; distinct colors sharing
        // the context id get distinct windows because the window objects are
        // named after (ctx, leader world rank). Ranks that opted out
        // (negative color) already returned above and are not waited on.
        self.shared
            .ensure_data_plane(new_ctx, group.world_ranks())?;
        let shard = self.shared.shard(new_ctx, group.size());
        Ok(Some(Comm {
            shared: Arc::clone(&self.shared),
            shard,
            group,
            ctx: new_ctx,
            rank: my_local,
            hier: Mutex::new(None),
        }))
    }

    /// Split the communicator by a topology criterion (the
    /// `MPI_Comm_split_type` equivalent). [`SplitType::Host`] yields one
    /// sub-communicator per host whose members all share a hardware-coherent
    /// cache, ordered by parent rank — the building block of application-level
    /// two-level algorithms (the library's own hierarchical collectives use an
    /// internally cached equivalent and need no extra context id). Collective
    /// over this communicator; every member receives `Some(sub)`.
    pub fn split_type(&mut self, split: SplitType) -> Result<Option<Comm>> {
        match split {
            SplitType::Host => {
                let host = self.host() as i32;
                let key = self.rank as i32;
                self.comm_split(host, key)
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault tolerance (ULFM-style recovery)
    // ------------------------------------------------------------------
    //
    // The recovery vocabulary of ULFM (User-Level Failure Mitigation),
    // adapted to the coherent CXL control plane: failure notification and
    // agreement ride the shared failure state instead of message floods.
    // The canonical survivor loop is
    //
    // ```text
    // match comm.allreduce(&mut x, op) {
    //     Ok(()) => ...,
    //     Err(MpiError::ProcFailed { .. }) | Err(MpiError::Revoked(..)) => {
    //         comm.revoke();            // cut off stragglers (optional)
    //         comm = comm.shrink()?;    // ack + agree + rebuild
    //         // re-balance work onto comm.size() survivors, retry
    //     }
    //     Err(e) => return Err(e),
    // }
    // ```
    //
    // requiring `comm.set_errhandler(ErrHandler::ErrorsReturn)` beforehand —
    // under the default `ErrorsAbort`, the first failure poisons the
    // universe exactly as before fault tolerance existed.

    /// Set this communicator's process-failure error handler
    /// (`MPI_Comm_set_errhandler`). Local and immediate. New communicators
    /// default to [`ErrHandler::ErrorsAbort`]; [`Comm::shrink`] carries the
    /// parent's handler onto the shrunk communicator.
    pub fn set_errhandler(&mut self, handler: ErrHandler) {
        self.shard().errhandler = handler;
    }

    /// This communicator's current process-failure error handler.
    pub fn errhandler(&self) -> ErrHandler {
        self.shard().errhandler
    }

    /// Acknowledge every failure this rank has observed so far
    /// (`MPI_Comm_failure_ack`): this rank's blocking waits stop raising
    /// [`MpiError::ProcFailed`] for the acknowledged deaths, so recovery code
    /// can keep communicating among survivors. Returns the acknowledged dead
    /// members of **this communicator**, as local ranks. The acknowledgement
    /// watermark is per rank (all communicator handles of the rank share it),
    /// matching ULFM.
    pub fn failure_ack(&mut self) -> Vec<Rank> {
        let dead = self.shared.poison.ack_failures();
        dead.iter()
            .filter_map(|w| self.group.local_rank_of(*w))
            .collect()
    }

    /// Mark this communicator revoked (`MPI_Comm_revoke`): every member's
    /// subsequent operation on this context fails with [`MpiError::Revoked`]
    /// (mapped through the error handler), cutting off ranks that have not
    /// yet noticed a failure so the group converges on recovery. Revocation
    /// is immediate and universe-visible through the shared control plane —
    /// the coherent-memory stand-in for ULFM's revocation flood — and is
    /// permanent for the context. Also drops this communicator's cached
    /// plans (counted in [`PlanCacheStats::invalidations`]).
    pub fn revoke(&mut self) {
        self.shared.poison.revoke(self.ctx);
        self.invalidate_plans();
    }

    /// Whether this communicator's context has been revoked by any member.
    pub fn is_revoked(&self) -> bool {
        self.shared.poison.is_revoked(self.ctx)
    }

    /// Drop every cached collective plan of this communicator, returning how
    /// many plans were dropped (also counted in
    /// [`PlanCacheStats::invalidations`]). Called by [`Comm::revoke`] and
    /// [`Comm::shrink`]; public so applications embedding their own recovery
    /// can force re-planning after membership or topology changes.
    pub fn invalidate_plans(&mut self) -> usize {
        self.shard().plans.invalidate()
    }

    /// Fault-tolerant agreement (`MPI_Comm_agree`): returns the bitwise AND
    /// of every live member's `flag` once all survivors have contributed.
    /// Deaths *during* the agreement are tolerated — the rendezvous restarts
    /// among the remaining survivors (see [`crate::spin::PoisonFlag::agree`]) —
    /// and the call works on a revoked communicator (ULFM requires both: this
    /// is the primitive recovery is built from). Collective over the live
    /// members; dead members are not waited on.
    pub fn agree(&mut self, flag: u64) -> Result<u64> {
        self.agree_inner(flag, 0).map(|(and, _, _)| and)
    }

    /// Shared agreement core for [`Comm::agree`] and [`Comm::shrink`]: folds
    /// AND over `flag` and MAX over `proposal`, returning both folds plus the
    /// dead-member snapshot of the epoch the agreement completed in (identical
    /// on every participant). Draws the per-context recovery sequence number
    /// that keys the shared rendezvous cell — disjoint-membership
    /// communicators sharing one context id (possible after `comm_split`)
    /// must not run recovery concurrently, as their cells would alias.
    fn agree_inner(&mut self, flag: u64, proposal: u64) -> Result<(u64, u64, Vec<Rank>)> {
        let seq = {
            let shard = &mut *self.shard();
            let seq = shard.recovery_seq;
            shard.recovery_seq = shard.recovery_seq.wrapping_add(1);
            seq
        };
        self.shared
            .poison
            .agree(self.ctx, seq, self.group.world_ranks(), flag, proposal)
            .map_err(|e| self.map_ft_err(e))
    }

    /// Build a working communicator from the survivors (`MPI_Comm_shrink`).
    /// Collective over the live members; every survivor must call it (dead
    /// members are, by definition, excused). The sequence is:
    ///
    /// 1. acknowledge observed failures (so recovery waits don't re-raise
    ///    the failure being recovered from),
    /// 2. revoke the old context (stragglers cannot start new operations on
    ///    it mid-recovery) and drop its cached plans,
    /// 3. run a fault-tolerant agreement folding MAX over each survivor's
    ///    next-context-id proposal — the agreement's epoch snapshot also
    ///    fixes the dead set, so every survivor derives the *same* shrunk
    ///    group without a second round,
    /// 4. write off the dead members' pending data-plane acknowledgements on
    ///    the old context (a dead reader must never wedge slot rotation),
    /// 5. provision the survivor communicator: parent-relative rank order,
    ///    fresh context id, eagerly created shared window, freshly derived
    ///    host hierarchy (leaders whose host lost its leader are re-elected
    ///    on first collective), inheriting the parent's error handler.
    ///
    /// Deaths during the shrink are tolerated by the agreement; deaths after
    /// its epoch snapshot surface as [`MpiError::ProcFailed`] on the *new*
    /// communicator, which can be shrunk again.
    pub fn shrink(&mut self) -> Result<Comm> {
        self.shared.poison.ack_failures();
        self.shared.poison.revoke(self.ctx);
        self.invalidate_plans();
        let proposal = self.shared.ctl().next_ctx as u64;
        let (_, agreed, dead) = self.agree_inner(u64::MAX, proposal)?;
        let new_ctx = agreed as CtxId;
        let survivors: Vec<Rank> = self
            .group
            .world_ranks()
            .iter()
            .copied()
            .filter(|r| !dead.contains(r))
            .collect();
        let group = Arc::new(Group::from_world_ranks(survivors)?);
        let my_local = group.local_rank_of(self.world_rank()).ok_or_else(|| {
            MpiError::InvalidCommunicator("shrink called by a rank recorded dead".into())
        })?;
        self.shared.ctl().next_ctx = new_ctx + 1;
        {
            let io = &mut *self.shared.io();
            for w in &dead {
                if let Some(idx) = self.group.local_rank_of(*w) {
                    io.transport.dp_write_off(&mut io.clock, self.ctx, idx)?;
                }
            }
        }
        let handler = self.errhandler();
        let shard = self.shared.shard(new_ctx, group.size());
        shard.lock().unwrap_or_else(|e| e.into_inner()).errhandler = handler;
        self.shared
            .ensure_data_plane(new_ctx, group.world_ranks())
            .map_err(|e| apply_errhandler(&self.shared.poison, handler, new_ctx, e))?;
        Ok(Comm {
            shared: Arc::clone(&self.shared),
            shard,
            group,
            ctx: new_ctx,
            rank: my_local,
            hier: Mutex::new(None),
        })
    }

    // ------------------------------------------------------------------
    // Two-sided
    // ------------------------------------------------------------------

    /// Blocking send of `data` to local rank `dst` with `tag` (user tags must
    /// stay below [`crate::types::COLL_TAG_BASE`]).
    pub fn send(&mut self, dst: Rank, tag: Tag, data: &[u8]) -> Result<()> {
        Self::check_user_tag(tag)?;
        let dst = self.world_of(dst)?;
        // A send to a recorded-dead rank fails immediately (ULFM
        // `MPI_ERR_PROC_FAILED` on point-to-point) instead of filling a ring
        // nobody will ever drain.
        let poison = &self.shared.poison;
        if poison.ft_active() && poison.is_dead(dst) {
            return Err(self.map_ft_err(MpiError::ProcFailed {
                ctx: self.ctx,
                dead: vec![dst],
                detail: format!("send targets world rank {dst}, which is recorded dead"),
            }));
        }
        let sent = {
            let io = &mut *self.shared.io();
            io.transport.send(&mut io.clock, dst, self.ctx, tag, data)
        };
        sent.map_err(|e| self.map_ft_err(e))
    }

    /// Blocking receive into `buf`; returns the completion status. Waits with
    /// a lock-per-attempt loop (one `try_recv_into` per io-lock hold), so
    /// other threads of this rank keep progressing between attempts.
    pub fn recv(&mut self, src: Option<Rank>, tag: Option<Tag>, buf: &mut [u8]) -> Result<Status> {
        Self::check_user_tag_sel(tag)?;
        let src = src.map(|s| self.world_of(s)).transpose()?;
        let mut backoff = SpinWait::new();
        loop {
            let found = {
                let io = &mut *self.shared.io();
                io.transport
                    .try_recv_into(&mut io.clock, self.ctx, src, tag, buf)
            };
            match found.map_err(|e| self.map_ft_err(e))? {
                Some(status) => return self.localize(status),
                None => backoff
                    .wait(&self.shared.poison)
                    .map_err(|e| self.map_ft_err(e))?,
            }
        }
    }

    /// Blocking receive returning an owned payload (lock-per-attempt, as
    /// [`Comm::recv`]).
    pub fn recv_owned(&mut self, src: Option<Rank>, tag: Option<Tag>) -> Result<(Status, Vec<u8>)> {
        Self::check_user_tag_sel(tag)?;
        let src = src.map(|s| self.world_of(s)).transpose()?;
        let mut backoff = SpinWait::new();
        loop {
            let found = {
                let io = &mut *self.shared.io();
                io.transport
                    .try_recv_owned(&mut io.clock, self.ctx, src, tag)
            };
            match found.map_err(|e| self.map_ft_err(e))? {
                Some((status, data)) => return Ok((self.localize(status)?, data)),
                None => backoff
                    .wait(&self.shared.poison)
                    .map_err(|e| self.map_ft_err(e))?,
            }
        }
    }

    /// Non-blocking receive attempt returning an owned payload.
    pub fn try_recv(
        &mut self,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<Option<(Status, Vec<u8>)>> {
        Self::check_user_tag_sel(tag)?;
        let src = src.map(|s| self.world_of(s)).transpose()?;
        let found = {
            let io = &mut *self.shared.io();
            io.transport
                .try_recv_owned(&mut io.clock, self.ctx, src, tag)?
        };
        match found {
            Some((status, data)) => Ok(Some((self.localize(status)?, data))),
            None => Ok(None),
        }
    }

    /// Non-blocking send (eager: completes immediately once enqueued).
    pub fn isend(&mut self, dst: Rank, tag: Tag, data: &[u8]) -> Result<Request> {
        self.send(dst, tag, data)?;
        Ok(Request::send_done(
            self.ctx,
            Status::new(self.rank, tag, data.len()),
        ))
    }

    /// Non-blocking receive: returns a pending request to pass to
    /// [`Comm::wait`], [`Comm::test`] or the `*_any`/`*_all` combinators.
    pub fn irecv(&mut self, src: Option<Rank>, tag: Option<Tag>) -> Result<Request> {
        Self::check_user_tag_sel(tag)?;
        let src = src.map(|s| self.world_of(s)).transpose()?;
        Ok(Request::recv_pending(self.ctx, src, tag))
    }

    /// Non-blocking receive into a caller-owned buffer: completion writes the
    /// payload into `buf` through the transports' allocation-free
    /// `recv_into` path (the buffer also bounds the acceptable message size —
    /// a longer matched message fails the completion with truncation).
    /// [`Request::take_data`] returns the same allocation, truncated to the
    /// received length, so receive loops can recycle one buffer indefinitely.
    pub fn irecv_into(
        &mut self,
        src: Option<Rank>,
        tag: Option<Tag>,
        buf: Vec<u8>,
    ) -> Result<Request> {
        Self::check_user_tag_sel(tag)?;
        let src = src.map(|s| self.world_of(s)).transpose()?;
        Ok(Request::recv_pending_into(self.ctx, src, tag, buf))
    }

    fn check_request_ctx(&self, request: &Request) -> Result<()> {
        if request.ctx != self.ctx {
            return Err(MpiError::InvalidCommunicator(format!(
                "request created on context {} completed on context {}",
                request.ctx, self.ctx
            )));
        }
        Ok(())
    }

    /// One incremental progress attempt on a pending nonblocking-collective
    /// request: advances its schedule through the progress engine and, on
    /// completion, fulfills the request with the collective's result bytes.
    /// Returns the completion status (if reached) plus the schedule ops this
    /// attempt serviced, so blocking loops can reset their backoff on partial
    /// progress. `during_wait` routes the poll/op counters into the wait
    /// columns of [`ProgressStats`] (nonblocking `test`-family polls are the
    /// overlap metric — progress made during user compute).
    fn progress_coll(
        &mut self,
        request: &mut Request,
        during_wait: bool,
    ) -> Result<(Option<Status>, usize)> {
        self.check_request_ctx(request)?;
        let cell = Arc::clone(request.coll.as_ref().expect("collective request has cell"));
        debug_assert_eq!(cell.ctx(), request.ctx, "cell/request context mismatch");
        let counters = &self.shared.counters;
        if during_wait {
            ProgressCounters::add(&counters.wait_polls, 1);
        } else {
            ProgressCounters::add(&counters.test_polls, 1);
        }
        let mut slot = cell.lock();
        let mut ops = 0usize;
        if slot.outcome.is_none() {
            if self.shared.engine.is_running() {
                // The background engine owns progress in Thread mode: this
                // poll merely observes (and the fast path above it, the
                // `done` flag, is one atomic load).
                return Ok((None, 0));
            }
            let budget = if during_wait {
                0
            } else {
                self.shared.progress_cfg.max_ops_per_poll
            };
            let state = slot.state.as_mut().expect("pending collective has state");
            let step = {
                let io = &mut *self.shared.io();
                state.progress(io.transport.as_mut(), &mut io.clock, budget)
            };
            let step = match step {
                Ok(step) => step,
                Err(e) => {
                    drop(slot);
                    return Err(self.map_ft_err(e));
                }
            };
            ops = step.ops;
            if during_wait {
                ProgressCounters::add(&counters.ops_in_wait, ops as u64);
            } else {
                ProgressCounters::add(&counters.ops_in_test, ops as u64);
            }
            if !step.done {
                return Ok((None, ops));
            }
            ProgressCounters::add(&counters.colls_completed, 1);
            let status = state.completion_status();
            cell.complete(&mut slot, Ok(status));
        }
        // Terminal: finalize into the request. Errors were published raw by
        // whoever drove the final step; map them through this communicator's
        // error handler here (identical observable behavior in both modes).
        match slot.outcome.clone().expect("terminal cell has outcome") {
            Err(e) => {
                drop(slot);
                Err(self.map_ft_err(e))
            }
            Ok(status) => {
                if request.is_persistent() {
                    // Persistent completion keeps the execution state and
                    // buffers: the request stays restartable, and the result
                    // is read in place via `Request::read_result`.
                    drop(slot);
                    request.fulfill_in_place(status);
                    Ok((Some(status), ops))
                } else {
                    let state = slot.state.take().expect("one-shot result not yet consumed");
                    drop(slot);
                    let (status, data) = state.finish();
                    request.fulfill(status, data);
                    // Drop the cell: the request is spent (algorithm label
                    // cleared, engine queue prunes the inactive cell).
                    request.coll = None;
                    Ok((Some(status), ops))
                }
            }
        }
    }

    /// One non-blocking completion attempt for a pending request (receive or
    /// collective). `during_wait` only affects how collective progress is
    /// accounted.
    /// A pending receive posted from a specific source that is recorded dead
    /// — and has no matching message left to drain — can never complete:
    /// surface `ProcFailed` naming the source instead of spinning until the
    /// slice-level backoff notices the failure epoch. Called only after a
    /// failed match attempt so messages the peer sent *before* dying are
    /// still delivered first (ULFM: failure does not discard delivered data).
    fn dead_source_err(&self, src: Option<Rank>) -> Option<MpiError> {
        let src = src?;
        let poison = &self.shared.poison;
        if poison.ft_active() && poison.is_dead(src) {
            Some(MpiError::ProcFailed {
                ctx: self.ctx,
                dead: vec![src],
                detail: format!(
                    "receive posted from world rank {src}, which is recorded dead with no \
                     matching message pending"
                ),
            })
        } else {
            None
        }
    }

    fn try_complete(&mut self, request: &mut Request, during_wait: bool) -> Result<Option<Status>> {
        if request.is_coll() {
            return self.progress_coll(request, during_wait).map(|(s, _)| s);
        }
        self.check_request_ctx(request)?;
        if request.is_buffered() {
            let mut buf = request.take_buffer().expect("buffered request has buffer");
            let found = {
                let io = &mut *self.shared.io();
                io.transport.try_recv_into(
                    &mut io.clock,
                    self.ctx,
                    request.src,
                    request.tag,
                    &mut buf,
                )
            };
            return match found {
                Ok(Some(status)) => {
                    let status = self.localize(status)?;
                    request.fulfill_buffered(status, buf);
                    Ok(Some(status))
                }
                Ok(None) => {
                    if let Some(e) = self.dead_source_err(request.src) {
                        request.mark_failed();
                        return Err(e);
                    }
                    // Not matched yet: re-arm the request with its buffer.
                    *request = Request::recv_pending_into(self.ctx, request.src, request.tag, buf);
                    Ok(None)
                }
                Err(e) => {
                    // The matched message was consumed and the posted buffer
                    // dropped (e.g. truncation): the request is spent, and
                    // retrying must report StaleRequest rather than silently
                    // taking the unbuffered path.
                    request.mark_failed();
                    Err(e)
                }
            };
        }
        let found = {
            let io = &mut *self.shared.io();
            io.transport
                .try_recv_owned(&mut io.clock, self.ctx, request.src, request.tag)?
        };
        match found {
            Some((status, data)) => {
                let status = self.localize(status)?;
                request.fulfill(status, data);
                Ok(Some(status))
            }
            None => {
                if let Some(e) = self.dead_source_err(request.src) {
                    request.mark_failed();
                    return Err(e);
                }
                Ok(None)
            }
        }
    }

    /// Block until the request completes; returns its status. For receive
    /// requests the payload is then available via [`Request::take_data`].
    pub fn wait(&mut self, request: &mut Request) -> Result<Status> {
        match request.state() {
            RequestState::SendComplete | RequestState::RecvComplete => {
                request.status().ok_or(MpiError::StaleRequest)
            }
            RequestState::Consumed | RequestState::Inactive => Err(MpiError::StaleRequest),
            RequestState::RecvPending => {
                self.check_request_ctx(request)?;
                if request.is_coll() {
                    if self.shared.engine.is_running() {
                        // Thread mode: the engine drives; this thread parks
                        // on the cell's waiter registry and is unparked by a
                        // directed token the instant the engine publishes
                        // completion. The escalation timeout only bounds
                        // lost-wakeup latency.
                        self.wait_engine_managed(request)?;
                        let (status, _) = self.progress_coll(request, true)?;
                        return status.ok_or(MpiError::StaleRequest);
                    }
                    return self.wait_polling(request);
                }
                if request.is_buffered() {
                    // Lock-per-attempt wait on the buffered receive.
                    let mut buf = request.take_buffer().expect("buffered request has buffer");
                    let mut backoff = SpinWait::new();
                    let status = loop {
                        let found = {
                            let io = &mut *self.shared.io();
                            io.transport.try_recv_into(
                                &mut io.clock,
                                self.ctx,
                                request.src,
                                request.tag,
                                &mut buf,
                            )
                        };
                        // An error here consumed the message and dropped the
                        // posted buffer: spend the request so a retry reports
                        // StaleRequest instead of blocking in the wrong path.
                        match found.and_then(|s| s.map(|s| self.localize(s)).transpose()) {
                            Ok(Some(s)) => break s,
                            Ok(None) => {
                                // Stalled on the sender: opportunistically
                                // drive outstanding collectives meanwhile.
                                if let Some(ops) =
                                    self.shared.engine.poll_siblings(&self.shared, None)
                                {
                                    if ops > 0 {
                                        backoff.reset();
                                    }
                                }
                                if let Err(e) = backoff.wait(&self.shared.poison) {
                                    request.mark_failed();
                                    return Err(self.map_ft_err(e));
                                }
                            }
                            Err(e) => {
                                request.mark_failed();
                                return Err(self.map_ft_err(e));
                            }
                        }
                    };
                    request.fulfill_buffered(status, buf);
                    return Ok(status);
                }
                let mut backoff = SpinWait::new();
                let (status, data) = loop {
                    let found = {
                        let io = &mut *self.shared.io();
                        io.transport.try_recv_owned(
                            &mut io.clock,
                            self.ctx,
                            request.src,
                            request.tag,
                        )
                    };
                    match found.map_err(|e| self.map_ft_err(e))? {
                        Some(found) => break found,
                        None => {
                            // Stalled on the sender: opportunistically drive
                            // outstanding collectives meanwhile.
                            if let Some(ops) = self.shared.engine.poll_siblings(&self.shared, None)
                            {
                                if ops > 0 {
                                    backoff.reset();
                                }
                            }
                            backoff
                                .wait(&self.shared.poison)
                                .map_err(|e| self.map_ft_err(e))?;
                        }
                    }
                };
                let status = self.localize(status)?;
                request.fulfill(status, data);
                Ok(status)
            }
        }
    }

    /// Polling-mode terminal wait on a collective request. Drives this
    /// request's own schedule; whenever it stalls on remote peers, also
    /// drives **every other outstanding operation** of the rank
    /// (cross-communicator opportunistic progress — the `opal_progress`
    /// idiom). At most one thread per rank sweeps at a time: the first
    /// stalled waiter takes the poller token and batches everyone's schedule
    /// work into its scheduling quantum, completing sibling cells and waking
    /// their waiters by directed unpark; threads that lose the token park on
    /// their own cell instead of contending for the io lock. A poisoned
    /// universe aborts the wait instead of parking forever, and partial
    /// progress restarts the backoff escalation so a steadily advancing
    /// schedule never degrades to parked sleeps.
    fn wait_polling(&mut self, request: &mut Request) -> Result<Status> {
        let cell = Arc::clone(request.coll.as_ref().expect("collective request has cell"));
        // Idempotent re-registration: covers requests started before a
        // registry prune dropped them (e.g. after an error elsewhere).
        self.shared.engine.enqueue(Arc::clone(&cell));
        let mut backoff = SpinWait::new();
        let out = loop {
            // Fast path: completion already published — by a sibling poller,
            // a prior test, or the p2p-wait sweep. One atomic load.
            if cell.is_done() {
                match self.progress_coll(request, true) {
                    Err(e) => break Err(e),
                    Ok((Some(status), _)) => break Ok(status),
                    Ok((None, _)) => continue,
                }
            }
            if self.shared.engine.try_poller() {
                // This thread is the rank's poller: drive its own schedule
                // and every sibling's, batching all outstanding work into
                // one scheduling quantum on the io lock.
                let own = self.progress_coll(request, true);
                let sibling_ops = self.shared.engine.drive_siblings(&self.shared, Some(&cell));
                self.shared.engine.release_poller();
                match own {
                    Err(e) => break Err(e),
                    Ok((Some(status), _)) => break Ok(status),
                    Ok((None, ops)) => {
                        if ops + sibling_ops > 0 {
                            backoff.reset();
                        }
                        if let Err(e) = backoff.wait(&self.shared.poison) {
                            break Err(self.map_ft_err(e));
                        }
                    }
                }
            } else {
                // Another thread of this rank holds the poller token: it
                // drives this cell too and unparks us the moment completion
                // is published. Register, re-check, park — no spinning, no
                // io-lock contention; the park timeout is only a safety net
                // against a poller that left without a hand-off. (Each wake
                // drains the registration, so re-register every lap.)
                cell.waiter().register();
                if !cell.is_done() {
                    if let Err(e) = SpinWait::park_registered(&self.shared.poison) {
                        break Err(self.map_ft_err(e));
                    }
                }
            }
        };
        cell.waiter().deregister();
        // This waiter leaving may leave the rank with no poller: wake one
        // still-pending sibling so it promptly takes over the token rather
        // than sleeping out its park timeout.
        self.shared.engine.handoff(&cell);
        out
    }

    /// Thread-mode terminal wait on an engine-managed collective request:
    /// register on the cell's waiter list, re-check the completion flag, and
    /// park until the engine's directed unpark (see [`WaitCell`]). The
    /// caller finalizes via [`Comm::progress_coll`] afterwards.
    fn wait_engine_managed(&mut self, request: &mut Request) -> Result<()> {
        let cell = Arc::clone(request.coll.as_ref().expect("collective request has cell"));
        // Idempotent: `start`/`start_coll` already enqueued the cell; this
        // covers requests created before the engine started.
        self.shared.engine.enqueue(Arc::clone(&cell));
        let counters = &self.shared.counters;
        let mut backoff = SpinWait::new();
        cell.waiter().register();
        let waited = loop {
            if cell.is_done() {
                break Ok(());
            }
            ProgressCounters::add(&counters.wait_polls, 1);
            if let Err(e) = backoff.wait_registered(&self.shared.poison) {
                break Err(e);
            }
        };
        cell.waiter().deregister();
        waited.map_err(|e| self.map_ft_err(e))
    }

    /// Test a request for completion without blocking.
    pub fn test(&mut self, request: &mut Request) -> Result<Option<Status>> {
        match request.state() {
            RequestState::SendComplete | RequestState::RecvComplete => {
                Ok(Some(request.status().ok_or(MpiError::StaleRequest)?))
            }
            RequestState::Consumed | RequestState::Inactive => Err(MpiError::StaleRequest),
            RequestState::RecvPending => self.try_complete(request, false),
        }
    }

    /// Wait for every request in the slice; statuses are returned in request
    /// order. Pending requests are driven *together* (`MPI_Waitall`
    /// semantics): completion cannot depend on the slice order, so ranks may
    /// pass the same outstanding collectives in different orders without
    /// deadlocking. Errors with [`MpiError::StaleRequest`] if any request was
    /// already consumed.
    pub fn wait_all(&mut self, requests: &mut [Request]) -> Result<Vec<Status>> {
        let poison = self.shared.poison.clone();
        let mut backoff = SpinWait::new();
        loop {
            let mut all_done = true;
            let mut progressed = false;
            for (i, request) in requests.iter_mut().enumerate() {
                match request.state() {
                    RequestState::SendComplete | RequestState::RecvComplete => {}
                    RequestState::Consumed | RequestState::Inactive => {
                        return Err(MpiError::StaleRequest)
                    }
                    RequestState::RecvPending => match self.try_complete(request, true) {
                        Ok(Some(_)) => progressed = true,
                        Ok(None) => all_done = false,
                        Err(e) => return Err(self.fail_request(request, i, e)),
                    },
                }
            }
            if all_done {
                break;
            }
            if progressed {
                backoff.reset();
            }
            if let Err(e) = backoff.wait(&poison) {
                // The universe failure state fired mid-wait. Sweep once more
                // so a request that can now be pinned on a specific dead
                // source is reported with its index (and its siblings stay
                // completable), falling back to the epoch-level error only
                // when no single request is attributable.
                self.attribute_failure(requests)?;
                return Err(self.map_ft_err(e));
            }
        }
        requests
            .iter()
            .map(|r| r.status().ok_or(MpiError::StaleRequest))
            .collect()
    }

    /// Post-failure attribution sweep shared by [`Comm::wait_all`] and
    /// [`Comm::wait_any`]: re-polls every still-pending request once so the
    /// failure is reported against the specific request that can never
    /// complete (via [`Comm::fail_request`], which also spends just that
    /// request). Requests that completed in the meantime are left complete.
    fn attribute_failure(&mut self, requests: &mut [Request]) -> Result<()> {
        for (i, request) in requests.iter_mut().enumerate() {
            if matches!(request.state(), RequestState::RecvPending) {
                if let Err(e) = self.try_complete(request, true) {
                    return Err(self.fail_request(request, i, e));
                }
            }
        }
        Ok(())
    }

    /// Block until *some* request completes; returns its index and status.
    /// Already-complete (but unconsumed) requests are returned immediately.
    /// Errors with [`MpiError::StaleRequest`] if the slice is empty or every
    /// request has been consumed.
    pub fn wait_any(&mut self, requests: &mut [Request]) -> Result<(usize, Status)> {
        let poison = self.shared.poison.clone();
        let mut backoff = SpinWait::new();
        loop {
            match self.poll_any(requests, true)? {
                PollAny::Ready(i, status) => return Ok((i, status)),
                PollAny::Pending => {
                    if let Err(e) = backoff.wait(&poison) {
                        self.attribute_failure(requests)?;
                        return Err(self.map_ft_err(e));
                    }
                }
                PollAny::NoneActive => return Err(MpiError::StaleRequest),
            }
        }
    }

    /// Non-blocking [`Comm::wait_any`]: `Ok(None)` when no request is
    /// currently completable (but at least one is still pending). Errors with
    /// [`MpiError::StaleRequest`] if the slice is empty or fully consumed.
    pub fn test_any(&mut self, requests: &mut [Request]) -> Result<Option<(usize, Status)>> {
        match self.poll_any(requests, false)? {
            PollAny::Ready(i, status) => Ok(Some((i, status))),
            PollAny::Pending => Ok(None),
            PollAny::NoneActive => Err(MpiError::StaleRequest),
        }
    }

    fn poll_any(&mut self, requests: &mut [Request], during_wait: bool) -> Result<PollAny> {
        let mut any_pending = false;
        for (i, request) in requests.iter_mut().enumerate() {
            match request.state() {
                RequestState::SendComplete | RequestState::RecvComplete => {
                    let status = request.status().ok_or(MpiError::StaleRequest)?;
                    return Ok(PollAny::Ready(i, status));
                }
                RequestState::Consumed | RequestState::Inactive => {}
                RequestState::RecvPending => {
                    any_pending = true;
                    match self.try_complete(request, during_wait) {
                        Ok(Some(status)) => return Ok(PollAny::Ready(i, status)),
                        Ok(None) => {}
                        Err(e) => return Err(self.fail_request(request, i, e)),
                    }
                }
            }
        }
        Ok(if any_pending {
            PollAny::Pending
        } else {
            PollAny::NoneActive
        })
    }

    /// Test whether *every* request has completed; if so, returns their
    /// statuses in request order (without consuming payloads). Returns
    /// `Ok(None)` if any request is still pending. Errors with
    /// [`MpiError::StaleRequest`] if any request was already consumed.
    pub fn test_all(&mut self, requests: &mut [Request]) -> Result<Option<Vec<Status>>> {
        let mut all_complete = true;
        for (i, request) in requests.iter_mut().enumerate() {
            match request.state() {
                RequestState::SendComplete | RequestState::RecvComplete => {}
                RequestState::Consumed | RequestState::Inactive => {
                    return Err(MpiError::StaleRequest)
                }
                RequestState::RecvPending => match self.try_complete(request, false) {
                    Ok(Some(_)) => {}
                    Ok(None) => all_complete = false,
                    Err(e) => return Err(self.fail_request(request, i, e)),
                },
            }
        }
        if !all_complete {
            return Ok(None);
        }
        requests
            .iter()
            .map(|r| r.status().ok_or(MpiError::StaleRequest))
            .collect::<Result<Vec<_>>>()
            .map(Some)
    }

    /// Combined send + receive (deadlock-safe pairwise exchange).
    pub fn sendrecv(
        &mut self,
        dst: Rank,
        send_tag: Tag,
        data: &[u8],
        src: Rank,
        recv_tag: Tag,
    ) -> Result<(Status, Vec<u8>)> {
        if self.rank <= dst {
            self.send(dst, send_tag, data)?;
            self.recv_owned(Some(src), Some(recv_tag))
        } else {
            let received = self.recv_owned(Some(src), Some(recv_tag))?;
            self.send(dst, send_tag, data)?;
            Ok(received)
        }
    }

    /// Blocking typed send: `values`' bytes travel as-is through the
    /// zero-copy [`Pod`] view (no per-element encoding).
    pub fn send_values<T: Pod>(&mut self, dst: Rank, tag: Tag, values: &[T]) -> Result<()> {
        self.send(dst, tag, bytes_of(values))
    }

    /// Blocking typed receive returning an owned value vector (the typed
    /// companion of [`Comm::recv_owned`]). `status.len` stays in bytes.
    /// Panics if the received byte length is not a multiple of the element
    /// size — match the sender's element type.
    pub fn recv_values<T: Pod>(
        &mut self,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<(Status, Vec<T>)> {
        let (status, data) = self.recv_owned(src, tag)?;
        Ok((status, vec_from_bytes(&data)))
    }

    /// Combined typed send + receive (deadlock-safe pairwise exchange; the
    /// typed companion of [`Comm::sendrecv`]). Panics if the received byte
    /// length is not a multiple of the element size.
    pub fn sendrecv_values<T: Pod>(
        &mut self,
        dst: Rank,
        send_tag: Tag,
        values: &[T],
        src: Rank,
        recv_tag: Tag,
    ) -> Result<(Status, Vec<T>)> {
        let (status, data) = self.sendrecv(dst, send_tag, bytes_of(values), src, recv_tag)?;
        Ok((status, vec_from_bytes(&data)))
    }

    /// Barrier across all ranks of the communicator. The world communicator
    /// (and any same-group duplicate) uses the transport's sequence-number
    /// barrier — a shared flag array no message-passing scheme beats;
    /// sub-communicators run a dissemination barrier over their own
    /// point-to-point path, composed hierarchically (per-host fan-in, leader
    /// dissemination, per-host fan-out) when the topology gates select it.
    pub fn barrier(&mut self) -> Result<()> {
        self.ft_precheck()?;
        // The transport's sequence barrier is a single rank-wide rendezvous
        // object: only the **world context** may use it. A same-group
        // duplicate of world runs the plan-based path instead — two threads
        // concurrently barriering on world and a world-spanning duplicate
        // must not cross-match on one shared flag array.
        let algo = if self.ctx == WORLD_CTX {
            // Still draws a sequence number: every collective start on a
            // context consumes one, so the counters agree across ranks no
            // matter which barrier implementation a communicator uses.
            let _seq = self.next_seq();
            let entered = {
                let io = &mut *self.shared.io();
                io.transport.barrier(&mut io.clock)
            };
            entered.map_err(|e| self.map_ft_err(e))?;
            "barrier/sequence"
        } else {
            let view = self.view();
            let plan = self
                .cached_plan(PlanKey::shaped(PlanOp::Barrier, 0), |tuning, hier, _| {
                    coll::build_barrier(&view, tuning, hier)
                })?;
            let seq = self.next_seq();
            let mut exec = Execution::new(Arc::clone(&plan), seq);
            self.run_exec(&mut exec, &mut [])?;
            plan.label
        };
        self.note_coll(CollOp::Barrier, 0);
        self.note_algo(algo, 0);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Nonblocking collectives (MPI-3 `i*` operations)
    // ------------------------------------------------------------------
    //
    // Each starter compiles the *same* size-adaptive schedule the blocking
    // collective would run (identical algorithms, tags and op orderings) and
    // returns a [`Request`] owning the schedule plus copies of the payload.
    // The request completes through the progress engine from
    // `wait`/`test`/`wait_any`/`test_all`, mixing freely with p2p requests;
    // results come back through [`Request::take_values`].
    //
    // Ordering rules: all ranks must start collectives on one communicator
    // in the same order (as in MPI), and every started collective must
    // eventually be completed on every rank. Progress only happens inside
    // `wait`/`test`-family calls of the rank holding the request, and a bare
    // `wait(&mut one_request)` advances only that request — so to complete
    // several outstanding collectives, either wait for them in start order
    // or drive them together (`wait_all`, a `wait_any` loop, `test_all`, or
    // `test` polling), which progresses every request passed. Waiting single
    // requests in an order that differs across ranks can deadlock (the
    // weak-progress caveat of an engine without a progress thread; see the
    // README's request-mixing rules).

    /// Account and package a cached collective plan as a pending request:
    /// draws the next sequence number and binds the plan to a fresh
    /// execution.
    fn start_coll(
        &mut self,
        plan: Arc<CollPlan>,
        buf: Vec<u8>,
        op: CollOp,
        payload_bytes: u64,
    ) -> Request {
        let seq = self.next_seq();
        self.note_coll(op, payload_bytes);
        self.note_algo(plan.label, payload_bytes);
        ProgressCounters::add(&self.shared.counters.colls_started, 1);
        let request = Request::coll_pending(
            self.ctx,
            CollState::new(Execution::new(plan, seq), buf, self.rank),
        );
        // Register the fresh operation with the rank's outstanding-op
        // registry: in Thread mode the background engine starts advancing it
        // before the caller ever polls; in Polling mode it becomes visible
        // to sibling waiters' cross-communicator sweeps.
        if let Some(cell) = &request.coll {
            self.shared.engine.enqueue(Arc::clone(cell));
        }
        request
    }

    /// Nonblocking barrier (`MPI_Ibarrier`): completes once every rank of the
    /// communicator has entered it. Runs the dissemination-token plan on
    /// every communicator (world included) — hierarchical when the topology
    /// gates select it — so it can overlap with compute.
    pub fn ibarrier(&mut self) -> Result<Request> {
        let view = self.view();
        let plan = self.cached_plan(PlanKey::shaped(PlanOp::Barrier, 0), |tuning, hier, _| {
            coll::build_barrier(&view, tuning, hier)
        })?;
        Ok(self.start_coll(plan, Vec::new(), CollOp::Barrier, 0))
    }

    /// Nonblocking broadcast (`MPI_Ibcast`): the root contributes `buf`;
    /// on completion every rank's request yields the broadcast values via
    /// [`Request::take_values`]. All ranks must pass equal-length buffers
    /// (non-root contents are ignored).
    pub fn ibcast_into<T: Pod>(&mut self, root: Rank, buf: &[T]) -> Result<Request> {
        self.world_of(root)?;
        let bytes = std::mem::size_of_val(buf);
        let view = self.view();
        let plan = self.cached_plan(
            PlanKey::rooted(PlanOp::Bcast, root, bytes),
            |tuning, hier, dp| coll::build_bcast(&view, tuning, hier, dp, root, bytes),
        )?;
        Ok(self.start_coll(plan, bytes_of(buf).to_vec(), CollOp::Bcast, bytes as u64))
    }

    /// Nonblocking allreduce (`MPI_Iallreduce`): on completion every rank's
    /// request yields the element-wise reduction of all contributions.
    pub fn iallreduce<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        let bytes = std::mem::size_of_val(values) as u64;
        let view = self.view();
        let count = values.len();
        let plan = self.cached_plan(
            PlanKey::reduction::<T>(PlanOp::Allreduce, None, count, std::mem::size_of::<T>(), op),
            |tuning, hier, dp| coll::build_allreduce::<T>(&view, tuning, hier, dp, count, op),
        )?;
        Ok(self.start_coll(plan, bytes_of(values).to_vec(), CollOp::Allreduce, bytes))
    }

    /// Nonblocking rooted reduce (`MPI_Ireduce`): on completion the root's
    /// request yields the element-wise reduction of all contributions via
    /// [`Request::take_values`]; non-root requests yield an empty result.
    pub fn ireduce<T: Reducible>(
        &mut self,
        root: Rank,
        values: &[T],
        op: ReduceOp,
    ) -> Result<Request> {
        self.world_of(root)?;
        let bytes = std::mem::size_of_val(values) as u64;
        let view = self.view();
        let count = values.len();
        let plan = self.cached_plan(
            PlanKey::reduction::<T>(
                PlanOp::Reduce,
                Some(root),
                count,
                std::mem::size_of::<T>(),
                op,
            ),
            |tuning, hier, dp| coll::build_reduce::<T>(&view, tuning, hier, dp, root, count, op),
        )?;
        Ok(self.start_coll(plan, bytes_of(values).to_vec(), CollOp::Reduce, bytes))
    }

    /// Nonblocking allgather (`MPI_Iallgather`): on completion every rank's
    /// request yields the flat `size × send.len()` buffer with local rank
    /// `r`'s contribution at block `r`.
    pub fn iallgather_into<T: Pod>(&mut self, send: &[T]) -> Result<Request> {
        let n = self.group.size();
        let block = std::mem::size_of_val(send);
        let mut buf = vec![0u8; n * block];
        buf[self.rank * block..(self.rank + 1) * block].copy_from_slice(bytes_of(send));
        let view = self.view();
        let plan = self.cached_plan(
            PlanKey::shaped(PlanOp::Allgather, block),
            |tuning, hier, dp| coll::build_allgather(&view, tuning, hier, dp, block),
        )?;
        Ok(self.start_coll(plan, buf, CollOp::Allgather, block as u64))
    }

    /// Nonblocking reduce-scatter (`MPI_Ireduce_scatter_block`): on completion
    /// this rank's request yields its reduced block (`values.len() / size`
    /// elements). `values.len()` must be divisible by the rank count.
    pub fn ireduce_scatter<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        let n = self.group.size();
        if !values.len().is_multiple_of(n) {
            return Err(MpiError::InvalidCollective(format!(
                "ireduce_scatter input of {} elements not divisible by {} ranks",
                values.len(),
                n
            )));
        }
        let bytes = std::mem::size_of_val(values) as u64;
        let view = self.view();
        let count = values.len();
        let plan = self.cached_plan(
            PlanKey::reduction::<T>(
                PlanOp::ReduceScatter,
                None,
                count,
                std::mem::size_of::<T>(),
                op,
            ),
            |tuning, _, _| coll::build_reduce_scatter::<T>(&view, tuning, count, op),
        )?;
        Ok(self.start_coll(
            plan,
            bytes_of(values).to_vec(),
            CollOp::ReduceScatter,
            bytes,
        ))
    }

    /// Nonblocking gather (`MPI_Igather`): on completion the root's request
    /// yields the flat `size × send.len()` buffer (rank `r`'s contribution at
    /// block `r`); non-root requests yield an empty result.
    pub fn igather_into<T: Pod>(&mut self, root: Rank, send: &[T]) -> Result<Request> {
        self.world_of(root)?;
        let n = self.group.size();
        let block = std::mem::size_of_val(send);
        let buf = if self.rank == root {
            let mut b = vec![0u8; n * block];
            b[root * block..(root + 1) * block].copy_from_slice(bytes_of(send));
            b
        } else {
            bytes_of(send).to_vec()
        };
        let view = self.view();
        let plan = self.cached_plan(PlanKey::rooted(PlanOp::Gather, root, block), |_, _, _| {
            coll::build_gather(&view, root, block)
        })?;
        Ok(self.start_coll(plan, buf, CollOp::Gather, block as u64))
    }

    /// Nonblocking scatter (`MPI_Iscatter`): the root passes
    /// `Some(send)` with `size × block_elems` elements, everyone else `None`;
    /// on completion each rank's request yields its `block_elems`-element
    /// chunk.
    pub fn iscatter_from<T: Pod>(
        &mut self,
        root: Rank,
        send: Option<&[T]>,
        block_elems: usize,
    ) -> Result<Request> {
        self.world_of(root)?;
        let n = self.group.size();
        let block = block_elems * std::mem::size_of::<T>();
        let buf = if self.rank == root {
            let send = send.ok_or_else(|| {
                MpiError::InvalidCollective("iscatter_from root must provide a send buffer".into())
            })?;
            if send.len() != n * block_elems {
                return Err(MpiError::InvalidCollective(format!(
                    "iscatter_from send buffer has {} elements, expected {} ({} ranks × {})",
                    send.len(),
                    n * block_elems,
                    n,
                    block_elems
                )));
            }
            bytes_of(send).to_vec()
        } else {
            vec![0u8; block]
        };
        let view = self.view();
        let plan = self.cached_plan(PlanKey::rooted(PlanOp::Scatter, root, block), |_, _, _| {
            coll::build_scatter(&view, root, block)
        })?;
        Ok(self.start_coll(plan, buf, CollOp::Scatter, block as u64))
    }

    /// Nonblocking inclusive prefix reduction (`MPI_Iscan`): on completion
    /// rank `r`'s request yields the element-wise reduction of ranks `0..=r`
    /// via [`Request::take_values`].
    pub fn iscan<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        let bytes = std::mem::size_of_val(values) as u64;
        let view = self.view();
        let count = values.len();
        let plan = self.cached_plan(
            PlanKey::reduction::<T>(PlanOp::Scan, None, count, std::mem::size_of::<T>(), op),
            |_, _, _| coll::build_scan::<T>(&view, count, op),
        )?;
        Ok(self.start_coll(plan, bytes_of(values).to_vec(), CollOp::Scan, bytes))
    }

    /// Nonblocking exclusive prefix reduction (`MPI_Iexscan`): on completion
    /// rank `r > 0`'s request yields the element-wise reduction of ranks
    /// `0..r`; rank 0's request yields an empty result (the MPI "undefined"
    /// slot).
    pub fn iexscan<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        let bytes = std::mem::size_of_val(values) as u64;
        let view = self.view();
        let count = values.len();
        let plan = self.cached_plan(
            PlanKey::reduction::<T>(PlanOp::Exscan, None, count, std::mem::size_of::<T>(), op),
            |_, _, _| coll::build_exscan::<T>(&view, count, op),
        )?;
        Ok(self.start_coll(plan, bytes_of(values).to_vec(), CollOp::Exscan, bytes))
    }

    /// Nonblocking complete exchange (`MPI_Ialltoall`): `send` holds one
    /// equal block per rank (`size × block_elems` elements, block `r`
    /// addressed to local rank `r`); on completion the request yields the
    /// same-shaped buffer with block `r` holding rank `r`'s contribution.
    pub fn ialltoall<T: Pod>(&mut self, send: &[T]) -> Result<Request> {
        let n = self.group.size();
        if !send.len().is_multiple_of(n) {
            return Err(MpiError::InvalidCollective(format!(
                "ialltoall send buffer of {} elements not divisible by {} ranks",
                send.len(),
                n
            )));
        }
        let block = std::mem::size_of_val(send) / n;
        let view = self.view();
        let plan = self.cached_plan(
            PlanKey::shaped(PlanOp::Alltoall, block),
            |tuning, hier, dp| coll::build_alltoall(&view, tuning, hier, dp, block),
        )?;
        Ok(self.start_coll(
            plan,
            bytes_of(send).to_vec(),
            CollOp::Alltoall,
            (n * block) as u64,
        ))
    }

    /// Nonblocking irregular complete exchange (`MPI_Ialltoallv`, packed
    /// layout — see [`Comm::alltoallv`]); on completion the request yields
    /// the packed receive segments.
    pub fn ialltoallv<T: Pod>(
        &mut self,
        send: &[T],
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Result<Request> {
        let elem = std::mem::size_of::<T>();
        let (plan, send_total, recv_total) =
            self.irregular_plan(send.len(), send_counts, recv_counts, elem, false)?;
        let mut buf = vec![0u8; send_total + recv_total];
        buf[..send_total].copy_from_slice(bytes_of(send));
        Ok(self.start_coll(plan, buf, CollOp::Alltoall, send_total as u64))
    }

    /// Nonblocking byte-granular irregular complete exchange
    /// (`MPI_Ialltoallw`'s role here — see [`Comm::alltoallw_bytes`]); on
    /// completion the request yields the packed receive segments.
    pub fn ialltoallw(
        &mut self,
        send: &[u8],
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Result<Request> {
        let (plan, send_total, recv_total) =
            self.irregular_plan(send.len(), send_counts, recv_counts, 1, true)?;
        let mut buf = vec![0u8; send_total + recv_total];
        buf[..send_total].copy_from_slice(send);
        Ok(self.start_coll(plan, buf, CollOp::Alltoall, send_total as u64))
    }

    // ------------------------------------------------------------------
    // Persistent collectives (MPI-4 `*_init` operations)
    // ------------------------------------------------------------------
    //
    // A `*_init` method binds the communicator's *cached* plan for the
    // requested shape to an owned execution and returns an **inactive**
    // persistent [`Request`]. [`Comm::start`]/[`Comm::startall`] activate it
    // (drawing a fresh collective sequence number and rewinding the
    // execution — no re-planning, no reallocation); the request then
    // completes through the ordinary `wait`/`test` machinery and becomes
    // restartable. Between starts the bound contribution is rewritten with
    // [`Request::write_input`] and a completed result is read (without
    // consuming the request) with [`Request::read_result`];
    // [`Request::release`] retires the request. Init calls are collective:
    // every rank must create the matching request, and starts must follow the
    // usual same-order rule for collectives on one communicator.

    /// Package a cached plan as an inactive persistent request.
    fn init_coll(
        &mut self,
        plan: Arc<CollPlan>,
        buf: Vec<u8>,
        op: CollOp,
        payload_bytes: u64,
    ) -> Request {
        Request::coll_persistent(
            self.ctx,
            CollState::new(Execution::new(plan, 0), buf, self.rank),
            PersistentMeta { op, payload_bytes },
        )
    }

    /// Persistent barrier (`MPI_Barrier_init`).
    pub fn barrier_init(&mut self) -> Result<Request> {
        let view = self.view();
        let plan = self.cached_plan(PlanKey::shaped(PlanOp::Barrier, 0), |tuning, hier, _| {
            coll::build_barrier(&view, tuning, hier)
        })?;
        Ok(self.init_coll(plan, Vec::new(), CollOp::Barrier, 0))
    }

    /// Persistent broadcast (`MPI_Bcast_init`): binds `buf` as the payload
    /// (read on the root at every start; replaced with the broadcast values
    /// everywhere on completion, readable via [`Request::read_result`]).
    /// All ranks must pass equal-length buffers.
    pub fn bcast_init<T: Pod>(&mut self, root: Rank, buf: &[T]) -> Result<Request> {
        self.world_of(root)?;
        let bytes = std::mem::size_of_val(buf);
        let view = self.view();
        let plan = self.cached_plan(
            PlanKey::rooted(PlanOp::Bcast, root, bytes),
            |tuning, hier, dp| coll::build_bcast(&view, tuning, hier, dp, root, bytes),
        )?;
        Ok(self.init_coll(plan, bytes_of(buf).to_vec(), CollOp::Bcast, bytes as u64))
    }

    /// Persistent allreduce (`MPI_Allreduce_init`): binds a copy of `values`
    /// as the contribution. Rewrite it between starts with
    /// [`Request::write_input`]; without a rewrite, a restart reduces the
    /// previous result again (the buffer is bound in place, as in MPI).
    pub fn allreduce_init<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        let bytes = std::mem::size_of_val(values) as u64;
        let view = self.view();
        let count = values.len();
        let plan = self.cached_plan(
            PlanKey::reduction::<T>(PlanOp::Allreduce, None, count, std::mem::size_of::<T>(), op),
            |tuning, hier, dp| coll::build_allreduce::<T>(&view, tuning, hier, dp, count, op),
        )?;
        Ok(self.init_coll(plan, bytes_of(values).to_vec(), CollOp::Allreduce, bytes))
    }

    /// Persistent rooted reduce (`MPI_Reduce_init`); see
    /// [`Comm::allreduce_init`] for the rebind rules. Only the root's
    /// completed request carries a result.
    pub fn reduce_init<T: Reducible>(
        &mut self,
        root: Rank,
        values: &[T],
        op: ReduceOp,
    ) -> Result<Request> {
        self.world_of(root)?;
        let bytes = std::mem::size_of_val(values) as u64;
        let view = self.view();
        let count = values.len();
        let plan = self.cached_plan(
            PlanKey::reduction::<T>(
                PlanOp::Reduce,
                Some(root),
                count,
                std::mem::size_of::<T>(),
                op,
            ),
            |tuning, hier, dp| coll::build_reduce::<T>(&view, tuning, hier, dp, root, count, op),
        )?;
        Ok(self.init_coll(plan, bytes_of(values).to_vec(), CollOp::Reduce, bytes))
    }

    /// Persistent allgather (`MPI_Allgather_init`): binds `send` as this
    /// rank's block of the flat `size × send.len()` result buffer.
    pub fn allgather_init<T: Pod>(&mut self, send: &[T]) -> Result<Request> {
        let n = self.group.size();
        let block = std::mem::size_of_val(send);
        let mut buf = vec![0u8; n * block];
        buf[self.rank * block..(self.rank + 1) * block].copy_from_slice(bytes_of(send));
        let view = self.view();
        let plan = self.cached_plan(
            PlanKey::shaped(PlanOp::Allgather, block),
            |tuning, hier, dp| coll::build_allgather(&view, tuning, hier, dp, block),
        )?;
        Ok(self.init_coll(plan, buf, CollOp::Allgather, block as u64))
    }

    /// Persistent reduce-scatter (`MPI_Reduce_scatter_block_init`);
    /// `values.len()` must be divisible by the rank count.
    pub fn reduce_scatter_init<T: Reducible>(
        &mut self,
        values: &[T],
        op: ReduceOp,
    ) -> Result<Request> {
        let n = self.group.size();
        if !values.len().is_multiple_of(n) {
            return Err(MpiError::InvalidCollective(format!(
                "reduce_scatter_init input of {} elements not divisible by {} ranks",
                values.len(),
                n
            )));
        }
        let bytes = std::mem::size_of_val(values) as u64;
        let view = self.view();
        let count = values.len();
        let plan = self.cached_plan(
            PlanKey::reduction::<T>(
                PlanOp::ReduceScatter,
                None,
                count,
                std::mem::size_of::<T>(),
                op,
            ),
            |tuning, _, _| coll::build_reduce_scatter::<T>(&view, tuning, count, op),
        )?;
        Ok(self.init_coll(
            plan,
            bytes_of(values).to_vec(),
            CollOp::ReduceScatter,
            bytes,
        ))
    }

    /// Persistent gather (`MPI_Gather_init`): binds `send` as this rank's
    /// contribution; the root's completed request carries the flat gathered
    /// buffer.
    pub fn gather_init<T: Pod>(&mut self, root: Rank, send: &[T]) -> Result<Request> {
        self.world_of(root)?;
        let n = self.group.size();
        let block = std::mem::size_of_val(send);
        let buf = if self.rank == root {
            let mut b = vec![0u8; n * block];
            b[root * block..(root + 1) * block].copy_from_slice(bytes_of(send));
            b
        } else {
            bytes_of(send).to_vec()
        };
        let view = self.view();
        let plan = self.cached_plan(PlanKey::rooted(PlanOp::Gather, root, block), |_, _, _| {
            coll::build_gather(&view, root, block)
        })?;
        Ok(self.init_coll(plan, buf, CollOp::Gather, block as u64))
    }

    /// Persistent scatter (`MPI_Scatter_init`): the root binds `Some(send)`
    /// with `size × block_elems` elements, everyone else `None`; each
    /// completed request carries this rank's chunk.
    pub fn scatter_init<T: Pod>(
        &mut self,
        root: Rank,
        send: Option<&[T]>,
        block_elems: usize,
    ) -> Result<Request> {
        self.world_of(root)?;
        let n = self.group.size();
        let block = block_elems * std::mem::size_of::<T>();
        let buf = if self.rank == root {
            let send = send.ok_or_else(|| {
                MpiError::InvalidCollective("scatter_init root must provide a send buffer".into())
            })?;
            if send.len() != n * block_elems {
                return Err(MpiError::InvalidCollective(format!(
                    "scatter_init send buffer has {} elements, expected {} ({} ranks × {})",
                    send.len(),
                    n * block_elems,
                    n,
                    block_elems
                )));
            }
            bytes_of(send).to_vec()
        } else {
            vec![0u8; block]
        };
        let view = self.view();
        let plan = self.cached_plan(PlanKey::rooted(PlanOp::Scatter, root, block), |_, _, _| {
            coll::build_scatter(&view, root, block)
        })?;
        Ok(self.init_coll(plan, buf, CollOp::Scatter, block as u64))
    }

    /// Persistent inclusive prefix reduction (`MPI_Scan_init`); see
    /// [`Comm::allreduce_init`] for the rebind rules.
    pub fn scan_init<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        let bytes = std::mem::size_of_val(values) as u64;
        let view = self.view();
        let count = values.len();
        let plan = self.cached_plan(
            PlanKey::reduction::<T>(PlanOp::Scan, None, count, std::mem::size_of::<T>(), op),
            |_, _, _| coll::build_scan::<T>(&view, count, op),
        )?;
        Ok(self.init_coll(plan, bytes_of(values).to_vec(), CollOp::Scan, bytes))
    }

    /// Persistent exclusive prefix reduction (`MPI_Exscan_init`); see
    /// [`Comm::allreduce_init`] for the rebind rules.
    pub fn exscan_init<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        let bytes = std::mem::size_of_val(values) as u64;
        let view = self.view();
        let count = values.len();
        let plan = self.cached_plan(
            PlanKey::reduction::<T>(PlanOp::Exscan, None, count, std::mem::size_of::<T>(), op),
            |_, _, _| coll::build_exscan::<T>(&view, count, op),
        )?;
        Ok(self.init_coll(plan, bytes_of(values).to_vec(), CollOp::Exscan, bytes))
    }

    /// Persistent complete exchange (`MPI_Alltoall_init`): binds `send`
    /// (one equal block per rank) as the contribution; rewrite it between
    /// starts with [`Request::write_input`].
    pub fn alltoall_init<T: Pod>(&mut self, send: &[T]) -> Result<Request> {
        let n = self.group.size();
        if !send.len().is_multiple_of(n) {
            return Err(MpiError::InvalidCollective(format!(
                "alltoall_init send buffer of {} elements not divisible by {} ranks",
                send.len(),
                n
            )));
        }
        let block = std::mem::size_of_val(send) / n;
        let view = self.view();
        let plan = self.cached_plan(
            PlanKey::shaped(PlanOp::Alltoall, block),
            |tuning, hier, dp| coll::build_alltoall(&view, tuning, hier, dp, block),
        )?;
        Ok(self.init_coll(
            plan,
            bytes_of(send).to_vec(),
            CollOp::Alltoall,
            (n * block) as u64,
        ))
    }

    /// Persistent irregular complete exchange (`MPI_Alltoallv_init`, packed
    /// layout — see [`Comm::alltoallv`]). [`Request::write_input`] rewrites
    /// the packed send segments between starts.
    pub fn alltoallv_init<T: Pod>(
        &mut self,
        send: &[T],
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Result<Request> {
        let elem = std::mem::size_of::<T>();
        let (plan, send_total, recv_total) =
            self.irregular_plan(send.len(), send_counts, recv_counts, elem, false)?;
        let mut buf = vec![0u8; send_total + recv_total];
        buf[..send_total].copy_from_slice(bytes_of(send));
        Ok(self.init_coll(plan, buf, CollOp::Alltoall, send_total as u64))
    }

    /// Persistent byte-granular irregular complete exchange (see
    /// [`Comm::alltoallw_bytes`]).
    pub fn alltoallw_init(
        &mut self,
        send: &[u8],
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Result<Request> {
        let (plan, send_total, recv_total) =
            self.irregular_plan(send.len(), send_counts, recv_counts, 1, true)?;
        let mut buf = vec![0u8; send_total + recv_total];
        buf[..send_total].copy_from_slice(send);
        Ok(self.init_coll(plan, buf, CollOp::Alltoall, send_total as u64))
    }

    /// Start (or restart) a persistent collective request (`MPI_Start`):
    /// draws the next collective sequence number, rewinds the bound execution
    /// and marks the request pending — no planning, no allocation. The
    /// request must be inactive or complete; starting an in-flight request
    /// errors. Starts count toward the same per-communicator ordering rule as
    /// every other collective: all ranks must start their matching requests
    /// in the same order relative to other collectives on the communicator.
    pub fn start(&mut self, request: &mut Request) -> Result<()> {
        self.ft_precheck()?;
        self.check_request_ctx(request)?;
        let meta = request.persistent.ok_or_else(|| {
            MpiError::InvalidCollective(
                "start requires a persistent collective request (*_init)".into(),
            )
        })?;
        match request.state() {
            RequestState::Inactive | RequestState::RecvComplete => {}
            RequestState::RecvPending => {
                return Err(MpiError::InvalidCollective(
                    "start on a persistent request that is already in flight".into(),
                ))
            }
            RequestState::SendComplete | RequestState::Consumed => {
                return Err(MpiError::StaleRequest)
            }
        }
        let algo = request
            .coll_algorithm()
            .expect("persistent request has a plan");
        let seq = self.next_seq();
        self.note_coll(meta.op, meta.payload_bytes);
        self.note_algo(algo, meta.payload_bytes);
        ProgressCounters::add(&self.shared.counters.colls_started, 1);
        ProgressCounters::add(&self.shared.counters.persistent_starts, 1);
        request.activate(seq);
        // Hand the re-armed cell back to the background engine (no-op in
        // Polling mode): completed cells were pruned from its queue.
        if let Some(cell) = &request.coll {
            self.shared.engine.enqueue(Arc::clone(cell));
        }
        Ok(())
    }

    /// Start every persistent request in the slice, in slice order
    /// (`MPI_Startall`).
    pub fn startall(&mut self, requests: &mut [Request]) -> Result<()> {
        for request in requests.iter_mut() {
            self.start(request)?;
        }
        Ok(())
    }

    /// Drive transport-level progress without completing any request: moves
    /// fully-arrived messages off the wire into local staging so peers
    /// blocked on transport flow control (full CXL rings) can proceed while
    /// this rank computes. Returns how many messages were moved. Call it
    /// periodically from long compute phases with outstanding nonblocking
    /// operations; `test`-family calls on the requests themselves remain the
    /// way to *complete* them.
    pub fn progress(&mut self) -> Result<usize> {
        let counters = &self.shared.counters;
        ProgressCounters::add(&counters.transport_drains, 1);
        if !self.shared.progress_cfg.drain_on_progress {
            return Ok(0);
        }
        let moved = {
            let io = &mut *self.shared.io();
            io.transport.poll_incoming(&mut io.clock)?
        };
        ProgressCounters::add(&counters.drained_messages, moved as u64);
        Ok(moved)
    }

    /// Snapshot of the progress-engine counters accumulated by this rank
    /// (shared across all communicators of the rank; also surfaced in
    /// [`crate::runtime::RankReport::progress`]).
    pub fn progress_stats(&self) -> ProgressStats {
        self.shared.counters.snapshot()
    }

    // ------------------------------------------------------------------
    // One-sided
    // ------------------------------------------------------------------
    //
    // RMA windows are provisioned against the full universe (queue matrices,
    // fence barriers and lock tables are sized for every rank), so the window
    // API is only available on world-spanning communicators; sub-communicators
    // return `MpiError::InvalidCommunicator`.

    /// Collectively allocate an RMA window exposing `size_per_rank` bytes per
    /// rank (the `MPI_Win_allocate_shared` equivalent over CXL SHM).
    pub fn win_allocate(&mut self, size_per_rank: usize) -> Result<WinId> {
        let io = &mut *self.shared.io();
        self.ensure_world_group(io.transport.size())?;
        io.transport.win_allocate(&mut io.clock, size_per_rank)
    }

    /// Collectively free a window.
    pub fn win_free(&mut self, win: WinId) -> Result<()> {
        let io = &mut *self.shared.io();
        self.ensure_world_group(io.transport.size())?;
        io.transport.win_free(&mut io.clock, win)
    }

    /// One-sided write into `target`'s window region (`MPI_Put`).
    pub fn put(&mut self, win: WinId, target: Rank, offset: usize, data: &[u8]) -> Result<()> {
        let target = self.world_of(target)?;
        let io = &mut *self.shared.io();
        self.ensure_world_group(io.transport.size())?;
        io.transport.put(&mut io.clock, win, target, offset, data)
    }

    /// One-sided read from `target`'s window region (`MPI_Get`).
    pub fn get(&mut self, win: WinId, target: Rank, offset: usize, buf: &mut [u8]) -> Result<()> {
        let target = self.world_of(target)?;
        let io = &mut *self.shared.io();
        self.ensure_world_group(io.transport.size())?;
        io.transport.get(&mut io.clock, win, target, offset, buf)
    }

    /// One-sided accumulate into `target`'s window region (`MPI_Accumulate`).
    pub fn accumulate(
        &mut self,
        win: WinId,
        target: Rank,
        offset: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<()> {
        let target = self.world_of(target)?;
        let io = &mut *self.shared.io();
        self.ensure_world_group(io.transport.size())?;
        io.transport
            .accumulate(&mut io.clock, win, target, offset, data, op)
    }

    /// Read this rank's own window region.
    pub fn win_read_local(&mut self, win: WinId, offset: usize, buf: &mut [u8]) -> Result<()> {
        let io = &mut *self.shared.io();
        self.ensure_world_group(io.transport.size())?;
        io.transport.win_read_local(&mut io.clock, win, offset, buf)
    }

    /// Write this rank's own window region.
    pub fn win_write_local(&mut self, win: WinId, offset: usize, data: &[u8]) -> Result<()> {
        let io = &mut *self.shared.io();
        self.ensure_world_group(io.transport.size())?;
        io.transport
            .win_write_local(&mut io.clock, win, offset, data)
    }

    /// PSCW: expose this rank's window to `origins` (`MPI_Win_post`).
    pub fn win_post(&mut self, win: WinId, origins: &[Rank]) -> Result<()> {
        let origins = origins
            .iter()
            .map(|&o| self.world_of(o))
            .collect::<Result<Vec<_>>>()?;
        let io = &mut *self.shared.io();
        self.ensure_world_group(io.transport.size())?;
        io.transport.post(&mut io.clock, win, &origins)
    }

    /// PSCW: start an access epoch to `targets` (`MPI_Win_start`).
    pub fn win_start(&mut self, win: WinId, targets: &[Rank]) -> Result<()> {
        let targets = targets
            .iter()
            .map(|&t| self.world_of(t))
            .collect::<Result<Vec<_>>>()?;
        let io = &mut *self.shared.io();
        self.ensure_world_group(io.transport.size())?;
        io.transport.start(&mut io.clock, win, &targets)
    }

    /// PSCW: complete the access epoch (`MPI_Win_complete`).
    pub fn win_complete(&mut self, win: WinId) -> Result<()> {
        let io = &mut *self.shared.io();
        io.transport.complete(&mut io.clock, win)
    }

    /// PSCW: wait for the exposure epoch to finish (`MPI_Win_wait`).
    pub fn win_wait(&mut self, win: WinId) -> Result<()> {
        let io = &mut *self.shared.io();
        io.transport.wait(&mut io.clock, win)
    }

    /// Passive-target exclusive lock on `target`'s window (`MPI_Win_lock`).
    pub fn win_lock(&mut self, win: WinId, target: Rank) -> Result<()> {
        let target = self.world_of(target)?;
        let io = &mut *self.shared.io();
        io.transport.lock(&mut io.clock, win, target)
    }

    /// Release the passive-target lock (`MPI_Win_unlock`).
    pub fn win_unlock(&mut self, win: WinId, target: Rank) -> Result<()> {
        let target = self.world_of(target)?;
        let io = &mut *self.shared.io();
        io.transport.unlock(&mut io.clock, win, target)
    }

    /// Fence synchronization over the window (`MPI_Win_fence`).
    pub fn win_fence(&mut self, win: WinId) -> Result<()> {
        let io = &mut *self.shared.io();
        io.transport.fence(&mut io.clock, win)
    }

    // ------------------------------------------------------------------
    // Typed collectives
    // ------------------------------------------------------------------

    /// Broadcast the fixed-size buffer `buf` from `root`. Every rank must pass
    /// a buffer of identical length. Size-adaptive: binomial tree for small
    /// payloads, scatter + ring allgather above the configured threshold.
    /// Repeated shapes hit the communicator's plan cache and skip planning.
    pub fn bcast_into<T: Pod>(&mut self, root: Rank, buf: &mut [T]) -> Result<()> {
        self.world_of(root)?;
        let bytes = std::mem::size_of_val(buf);
        let view = self.view();
        let plan = self.cached_plan(
            PlanKey::rooted(PlanOp::Bcast, root, bytes),
            |tuning, hier, dp| coll::build_bcast(&view, tuning, hier, dp, root, bytes),
        )?;
        let seq = self.next_seq();
        let mut exec = Execution::new(Arc::clone(&plan), seq);
        self.run_exec(&mut exec, bytes_of_mut(buf))?;
        self.note_coll(CollOp::Bcast, bytes as u64);
        self.note_algo(plan.label, bytes as u64);
        Ok(())
    }

    /// Gather equal-sized contributions into a flat buffer at `root`:
    /// `recv[r * send.len() .. (r+1) * send.len()]` receives rank `r`'s
    /// `send`. Non-root ranks pass `None`.
    pub fn gather_into<T: Pod>(
        &mut self,
        root: Rank,
        send: &[T],
        recv: Option<&mut [T]>,
    ) -> Result<()> {
        self.world_of(root)?;
        let n = self.group.size();
        let me = self.rank;
        let block = std::mem::size_of_val(send);
        let view = self.view();
        let plan = self.cached_plan(PlanKey::rooted(PlanOp::Gather, root, block), |_, _, _| {
            coll::build_gather(&view, root, block)
        })?;
        let seq = self.next_seq();
        let mut exec = Execution::new(Arc::clone(&plan), seq);
        if me == root {
            let recv = recv.ok_or_else(|| {
                MpiError::InvalidCollective("gather_into root must provide a receive buffer".into())
            })?;
            if recv.len() != n * send.len() {
                return Err(MpiError::InvalidCollective(format!(
                    "gather_into receive buffer has {} elements, expected {} ({} ranks × {})",
                    recv.len(),
                    n * send.len(),
                    n,
                    send.len()
                )));
            }
            recv[me * send.len()..(me + 1) * send.len()].copy_from_slice(send);
            self.run_exec(&mut exec, bytes_of_mut(recv))?;
        } else {
            self.run_send_only_exec(&mut exec, bytes_of(send))?;
        }
        self.note_coll(CollOp::Gather, block as u64);
        self.note_algo(plan.label, block as u64);
        Ok(())
    }

    /// Allgather equal-sized contributions into a flat buffer on every rank:
    /// `recv.len()` must equal `size × send.len()`. Size-adaptive: Bruck for
    /// small blocks, ring for large ones.
    pub fn allgather_into<T: Pod>(&mut self, send: &[T], recv: &mut [T]) -> Result<()> {
        let n = self.group.size();
        let me = self.rank;
        if recv.len() != n * send.len() {
            return Err(MpiError::InvalidCollective(format!(
                "allgather_into receive buffer has {} elements, expected {} ({} ranks × {})",
                recv.len(),
                n * send.len(),
                n,
                send.len()
            )));
        }
        let block = std::mem::size_of_val(send);
        recv[me * send.len()..(me + 1) * send.len()].copy_from_slice(send);
        let view = self.view();
        let plan = self.cached_plan(
            PlanKey::shaped(PlanOp::Allgather, block),
            |tuning, hier, dp| coll::build_allgather(&view, tuning, hier, dp, block),
        )?;
        let seq = self.next_seq();
        let mut exec = Execution::new(Arc::clone(&plan), seq);
        self.run_exec(&mut exec, bytes_of_mut(recv))?;
        self.note_coll(CollOp::Allgather, block as u64);
        self.note_algo(plan.label, block as u64);
        Ok(())
    }

    /// Scatter equal blocks of `send` from `root` into every rank's `recv`:
    /// rank `r` receives `send[r * recv.len() .. (r+1) * recv.len()]`.
    /// Non-root ranks pass `None`.
    pub fn scatter_from<T: Pod>(
        &mut self,
        root: Rank,
        send: Option<&[T]>,
        recv: &mut [T],
    ) -> Result<()> {
        self.world_of(root)?;
        let n = self.group.size();
        let me = self.rank;
        let block = std::mem::size_of_val(recv);
        let view = self.view();
        let plan = self.cached_plan(PlanKey::rooted(PlanOp::Scatter, root, block), |_, _, _| {
            coll::build_scatter(&view, root, block)
        })?;
        let seq = self.next_seq();
        let mut exec = Execution::new(Arc::clone(&plan), seq);
        if me == root {
            let send = send.ok_or_else(|| {
                MpiError::InvalidCollective("scatter_from root must provide a send buffer".into())
            })?;
            if send.len() != n * recv.len() {
                return Err(MpiError::InvalidCollective(format!(
                    "scatter_from send buffer has {} elements, expected {} ({} ranks × {})",
                    send.len(),
                    n * recv.len(),
                    n,
                    recv.len()
                )));
            }
            self.run_send_only_exec(&mut exec, bytes_of(send))?;
            recv.copy_from_slice(&send[me * recv.len()..(me + 1) * recv.len()]);
        } else {
            self.run_exec(&mut exec, bytes_of_mut(recv))?;
        }
        self.note_coll(CollOp::Scatter, block as u64);
        self.note_algo(plan.label, block as u64);
        Ok(())
    }

    /// Reduce typed values to `root` (binomial tree; two-level across hosts
    /// when the topology gates select it). Returns `Some(result)` on the
    /// root, `None` elsewhere.
    pub fn reduce<T: Reducible>(
        &mut self,
        root: Rank,
        values: &[T],
        op: ReduceOp,
    ) -> Result<Option<Vec<T>>> {
        self.world_of(root)?;
        let bytes = std::mem::size_of_val(values) as u64;
        let view = self.view();
        let count = values.len();
        let plan = self.cached_plan(
            PlanKey::reduction::<T>(
                PlanOp::Reduce,
                Some(root),
                count,
                std::mem::size_of::<T>(),
                op,
            ),
            |tuning, hier, dp| coll::build_reduce::<T>(&view, tuning, hier, dp, root, count, op),
        )?;
        let seq = self.next_seq();
        let mut buf = bytes_of(values).to_vec();
        let mut exec = Execution::new(Arc::clone(&plan), seq);
        self.run_exec(&mut exec, &mut buf)?;
        let out = if self.rank == root {
            Some(vec_from_bytes(exec.result_slice(&buf)))
        } else {
            None
        };
        self.note_coll(CollOp::Reduce, bytes);
        self.note_algo(plan.label, bytes);
        Ok(out)
    }

    /// Allreduce typed values in place. Size-adaptive: recursive doubling for
    /// small payloads, Rabenseifner above the configured threshold, with
    /// power-of-two fold elimination for other rank counts.
    pub fn allreduce<T: Reducible>(&mut self, values: &mut [T], op: ReduceOp) -> Result<()> {
        let bytes = std::mem::size_of_val(values) as u64;
        let view = self.view();
        let count = values.len();
        let plan = self.cached_plan(
            PlanKey::reduction::<T>(PlanOp::Allreduce, None, count, std::mem::size_of::<T>(), op),
            |tuning, hier, dp| coll::build_allreduce::<T>(&view, tuning, hier, dp, count, op),
        )?;
        let seq = self.next_seq();
        let mut exec = Execution::new(Arc::clone(&plan), seq);
        self.run_exec(&mut exec, bytes_of_mut(values))?;
        self.note_coll(CollOp::Allreduce, bytes);
        self.note_algo(plan.label, bytes);
        Ok(())
    }

    /// Reduce-scatter typed values; returns this rank's block. Size-adaptive:
    /// naive allreduce + selection for small payloads, recursive halving /
    /// pairwise exchange above the configured threshold.
    pub fn reduce_scatter<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Vec<T>> {
        let n = self.group.size();
        if !values.len().is_multiple_of(n) {
            return Err(MpiError::InvalidCollective(format!(
                "reduce_scatter input of {} elements not divisible by {} ranks",
                values.len(),
                n
            )));
        }
        let bytes = std::mem::size_of_val(values) as u64;
        let view = self.view();
        let count = values.len();
        let plan = self.cached_plan(
            PlanKey::reduction::<T>(
                PlanOp::ReduceScatter,
                None,
                count,
                std::mem::size_of::<T>(),
                op,
            ),
            |tuning, _, _| coll::build_reduce_scatter::<T>(&view, tuning, count, op),
        )?;
        let seq = self.next_seq();
        let mut buf = bytes_of(values).to_vec();
        let mut exec = Execution::new(Arc::clone(&plan), seq);
        self.run_exec(&mut exec, &mut buf)?;
        let out = vec_from_bytes(exec.result_slice(&buf));
        self.note_coll(CollOp::ReduceScatter, bytes);
        self.note_algo(plan.label, bytes);
        Ok(out)
    }

    /// Inclusive prefix reduction (`MPI_Scan`), updated in place: rank `r`
    /// ends up with the element-wise reduction of ranks `0..=r`
    /// (Hillis–Steele recursive doubling over the plan layer; repeated
    /// shapes hit the plan cache).
    pub fn scan<T: Reducible>(&mut self, values: &mut [T], op: ReduceOp) -> Result<()> {
        let bytes = std::mem::size_of_val(values) as u64;
        let view = self.view();
        let count = values.len();
        let plan = self.cached_plan(
            PlanKey::reduction::<T>(PlanOp::Scan, None, count, std::mem::size_of::<T>(), op),
            |_, _, _| coll::build_scan::<T>(&view, count, op),
        )?;
        let seq = self.next_seq();
        let mut exec = Execution::new(Arc::clone(&plan), seq);
        self.run_exec(&mut exec, bytes_of_mut(values))?;
        self.note_coll(CollOp::Scan, bytes);
        self.note_algo(plan.label, bytes);
        Ok(())
    }

    /// Exclusive prefix reduction (`MPI_Exscan`), updated in place: rank
    /// `r > 0` ends up with the element-wise reduction of ranks `0..r`;
    /// rank 0's buffer is left untouched (the MPI "undefined" slot).
    pub fn exscan<T: Reducible>(&mut self, values: &mut [T], op: ReduceOp) -> Result<()> {
        let bytes = std::mem::size_of_val(values) as u64;
        let view = self.view();
        let count = values.len();
        let plan = self.cached_plan(
            PlanKey::reduction::<T>(PlanOp::Exscan, None, count, std::mem::size_of::<T>(), op),
            |_, _, _| coll::build_exscan::<T>(&view, count, op),
        )?;
        let seq = self.next_seq();
        let mut exec = Execution::new(Arc::clone(&plan), seq);
        self.run_exec(&mut exec, bytes_of_mut(values))?;
        self.note_coll(CollOp::Exscan, bytes);
        self.note_algo(plan.label, bytes);
        Ok(())
    }

    /// Complete exchange (`MPI_Alltoall`) of equal per-rank blocks: `send`
    /// holds `size × block_elems` elements with block `r` addressed to local
    /// rank `r`; `recv` (same shape) ends up with block `r` holding rank
    /// `r`'s contribution to this rank. Size-adaptive: the single-copy shm
    /// data plane when the exchange fits a window slot, the host-hierarchical
    /// composition above [`crate::config::CollTuning::hier_alltoall_min_bytes`],
    /// Bruck for blocks up to
    /// [`crate::config::CollTuning::alltoall_bruck_max_bytes`], pairwise
    /// exchange for the rest.
    pub fn alltoall<T: Pod>(&mut self, send: &[T], recv: &mut [T]) -> Result<()> {
        let n = self.group.size();
        if !send.len().is_multiple_of(n) || recv.len() != send.len() {
            return Err(MpiError::InvalidCollective(format!(
                "alltoall buffers must both hold size × block elements ({} ranks, got send {} / recv {})",
                n,
                send.len(),
                recv.len()
            )));
        }
        let block = std::mem::size_of_val(send) / n;
        // The plan runs in place: the buffer starts as the send image and
        // finishes as the receive image.
        recv.copy_from_slice(send);
        let view = self.view();
        let plan = self.cached_plan(
            PlanKey::shaped(PlanOp::Alltoall, block),
            |tuning, hier, dp| coll::build_alltoall(&view, tuning, hier, dp, block),
        )?;
        let seq = self.next_seq();
        let mut exec = Execution::new(Arc::clone(&plan), seq);
        self.run_exec(&mut exec, bytes_of_mut(recv))?;
        self.note_coll(CollOp::Alltoall, (n * block) as u64);
        self.note_algo(plan.label, (n * block) as u64);
        Ok(())
    }

    /// Validate an irregular exchange's shape and fetch/build its cached
    /// plan. Returns the plan and the packed send/receive image sizes in
    /// bytes.
    fn irregular_plan(
        &mut self,
        send_elems: usize,
        send_counts: &[usize],
        recv_counts: &[usize],
        elem: usize,
        byte_variant: bool,
    ) -> Result<(Arc<CollPlan>, usize, usize)> {
        let n = self.group.size();
        let name = if byte_variant {
            "alltoallw"
        } else {
            "alltoallv"
        };
        if send_counts.len() != n || recv_counts.len() != n {
            return Err(MpiError::InvalidCollective(format!(
                "{name} takes one send and one receive count per rank ({n} ranks, got {} / {})",
                send_counts.len(),
                recv_counts.len()
            )));
        }
        let send_sum: usize = send_counts.iter().sum();
        if send_elems != send_sum {
            return Err(MpiError::InvalidCollective(format!(
                "{name} send buffer has {send_elems} elements, counts sum to {send_sum}"
            )));
        }
        if send_counts[self.rank] != recv_counts[self.rank] {
            return Err(MpiError::InvalidCollective(format!(
                "{name} self segment disagrees: sending {} to self, expecting {}",
                send_counts[self.rank], recv_counts[self.rank]
            )));
        }
        let op = if byte_variant {
            PlanOp::Alltoallw
        } else {
            PlanOp::Alltoallv
        };
        let mut counts = Vec::with_capacity(2 * n);
        counts.extend_from_slice(send_counts);
        counts.extend_from_slice(recv_counts);
        let view = self.view();
        let plan = self.cached_plan(PlanKey::irregular(op, counts, elem), |_, _, _| {
            coll::build_alltoallv(&view, send_counts, recv_counts, elem, byte_variant)
        })?;
        let recv_sum: usize = recv_counts.iter().sum();
        Ok((plan, send_sum * elem, recv_sum * elem))
    }

    /// Irregular complete exchange (`MPI_Alltoallv`) in the **packed**
    /// layout: no displacement arrays — `send` concatenates the per-peer
    /// segments in rank order (`send_counts[r]` elements for local rank
    /// `r`), and the returned vector concatenates the received segments the
    /// same way (`recv_counts[r]` elements from rank `r`). Counts must agree
    /// pairwise across ranks (`send_counts[d]` here = `recv_counts[me]`
    /// there), as in MPI. Empty segments are free: a zero-count pair sends
    /// no message at all. Irregular shapes always run the flat pairwise
    /// schedule.
    pub fn alltoallv<T: Pod>(
        &mut self,
        send: &[T],
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Result<Vec<T>> {
        let elem = std::mem::size_of::<T>();
        let (plan, send_total, recv_total) =
            self.irregular_plan(send.len(), send_counts, recv_counts, elem, false)?;
        let mut buf = vec![0u8; send_total + recv_total];
        buf[..send_total].copy_from_slice(bytes_of(send));
        let seq = self.next_seq();
        let mut exec = Execution::new(Arc::clone(&plan), seq);
        self.run_exec(&mut exec, &mut buf)?;
        let out = vec_from_bytes(exec.result_slice(&buf));
        self.note_coll(CollOp::Alltoall, send_total as u64);
        self.note_algo(plan.label, send_total as u64);
        Ok(out)
    }

    /// Byte-granular irregular complete exchange — this API's rendition of
    /// `MPI_Alltoallw` (heterogeneous per-peer types reduce to per-peer byte
    /// counts once buffers are packed): segment sizes are given directly in
    /// bytes. Layout and zero-count semantics as in [`Comm::alltoallv`].
    pub fn alltoallw_bytes(
        &mut self,
        send: &[u8],
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Result<Vec<u8>> {
        let (plan, send_total, recv_total) =
            self.irregular_plan(send.len(), send_counts, recv_counts, 1, true)?;
        let mut buf = vec![0u8; send_total + recv_total];
        buf[..send_total].copy_from_slice(send);
        let seq = self.next_seq();
        let mut exec = Execution::new(Arc::clone(&plan), seq);
        self.run_exec(&mut exec, &mut buf)?;
        let out = exec.result_slice(&buf).to_vec();
        self.note_coll(CollOp::Alltoall, send_total as u64);
        self.note_algo(plan.label, send_total as u64);
        Ok(out)
    }
}

enum PollAny {
    Ready(usize, Status),
    Pending,
    NoneActive,
}
