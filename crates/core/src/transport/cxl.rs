//! The cMPI transport: MPI point-to-point and RMA over CXL memory sharing.
//!
//! Everything that crosses ranks lives in CXL shared memory:
//!
//! * two-sided messages travel as message cells through the lazy connection
//!   state of [`super::conn`]: a sender publishes into the receiver's shared
//!   receive queue (SRQ) until the pair has exchanged enough messages to be
//!   promoted to a dedicated SPSC queue pair ([`crate::queue`]), whose
//!   chunks ring the receiver's doorbell. Per-rank state is O(active peers)
//!   and an idle poll costs O(1) instead of a ranks-wide sweep. Every send —
//!   blocking or driven by the progress engine — runs through one resumable
//!   step (`CxlTransport::send_step`);
//! * RMA windows, their PSCW flags, bakery locks and fence barrier live in a
//!   per-window SHM object ([`crate::rma`]);
//! * the global barrier is the sequence-number barrier of [`crate::barrier`].
//!
//! Payload data is published with the software-coherence protocol
//! (write + flush + fence / fence + flush + read); flags and queue indices use
//! non-temporal accesses. Costs are charged to the per-rank virtual clock from
//! the [`CxlCostModel`], with the [`CxlContentionModel`] throttling concurrent
//! large transfers the way the paper's memory-hierarchy contention does.

use std::collections::BTreeMap;
use std::sync::Arc;

use cmpi_fabric::cost::CoherenceMode;
use cmpi_fabric::{CxlContentionModel, CxlCostModel, SimClock};
use cxl_shm::slots::SLOT_CELL_TS_OFF;
use cxl_shm::{CxlShmArena, ShmObject, SlotLayout};

use crate::barrier::SeqBarrier;
use crate::config::CxlShmTransportConfig;
use crate::error::MpiError;
use crate::p2p::{BufferPool, ChunkAssembler, PendingMessage, UnexpectedQueue};
use crate::queue::{CellHeader, QueueGeometry, SpscQueue, CELL_HEADER_SIZE};
use crate::rma::layout::WINDOW_READY_MAGIC;
use crate::rma::{BakeryLock, WindowLayout};
use crate::spin::{PoisonFlag, SpinWait};
use crate::transport::conn::{ConnTable, SrqConsumer};
use crate::transport::{
    no_data_plane, DataPlaneStats, DpWindow, FaultInjector, SendCursor, Transport,
    TransportCounters, TransportStats, WinId,
};
use crate::types::{source_matches, tag_matches, CtxId, Rank, ReduceOp, Status, Tag};
use crate::Result;

/// Name of the SHM object holding the global barrier array.
const BARRIER_OBJECT: &str = "cmpi/init_barrier";

/// Value the data-plane window leader publishes in the status object once the
/// window object exists and its control region is zeroed.
const DP_WINDOW_OK: u64 = 0x6450_4c4e_5f4f_4b21;

/// Value published instead when window creation failed (pool exhausted): the
/// communicator runs ring-only on every member.
const DP_WINDOW_FAIL: u64 = 0x6450_4c4e_5f42_5553;

/// Bound on the attempts [`open_poisoned`] makes before deciding the creator
/// is never going to produce the object. Attempts are separated by scheduler
/// yields (see `CxlShmArena::open_when`), so this is seconds of real time —
/// far beyond any legitimate format/create latency, tight enough that a
/// creator that died *between* raising no flag and tripping no poison (e.g. a
/// fault-injected kill mid-initialization) fails the waiters instead of
/// hanging them.
const OPEN_MAX_SPINS: usize = 2_000_000;

/// Open a shared object that another rank is about to create, with a bounded,
/// poison-aware retry — so a creator that dies before (or while) creating the
/// object aborts the waiters with `PeerDead`/`ProcFailed` (or, past the
/// bound, a transport error) instead of leaving them in an unbounded
/// `open_wait` spin.
pub(crate) fn open_poisoned(
    arena: &CxlShmArena,
    name: &str,
    poison: &PoisonFlag,
) -> Result<ShmObject> {
    match arena.open_when(name, OPEN_MAX_SPINS, || poison.check().is_err()) {
        Ok(obj) => Ok(obj),
        Err(cxl_shm::ShmError::ObjectNotFound(_)) => {
            // Surface the real cause when a recorded death aborted the wait;
            // otherwise the bound itself expired.
            poison.check()?;
            Err(MpiError::Transport(format!(
                "shared object {name} was never created \
                 (creator died during initialization?)"
            )))
        }
        Err(e) => Err(e.into()),
    }
}

/// Poll a non-temporal `u64` flag with tiered backoff until `pred` holds,
/// aborting with `PeerDead` if the universe is poisoned. Replaces the
/// unbounded `nt_spin_until_at` on every flag the transport waits on.
pub(crate) fn spin_flag(
    obj: &ShmObject,
    off: u64,
    poison: &PoisonFlag,
    pred: impl Fn(u64) -> bool,
) -> Result<u64> {
    let mut backoff = SpinWait::new();
    loop {
        let v = obj.nt_load_u64_at(off)?;
        if pred(v) {
            return Ok(v);
        }
        backoff.wait(poison)?;
    }
}

/// One communicator's shared exposure window for the single-copy collective
/// data plane (see [`SlotLayout`] for the on-device grid).
struct DpState {
    obj: ShmObject,
    layout: SlotLayout,
    /// World ranks of the group, in group order (index = group rank).
    group: Vec<Rank>,
    /// This rank's index within `group`.
    my_idx: usize,
    /// Which collective sequence number currently owns each of this rank's
    /// slots. A slot is claimed by the first expose of a collective and
    /// retired by the last ack wait; an expose that maps to a slot still
    /// owned by an *earlier* collective reports "busy" (pending) instead of
    /// overwriting data a slow reader may not have pulled yet.
    in_use: Vec<Option<u32>>,
}

struct WindowState {
    obj: ShmObject,
    layout: WindowLayout,
    fence_barrier: SeqBarrier,
    /// Origins of the current exposure epoch (set by `post`).
    exposure_group: Vec<Rank>,
    /// Targets of the current access epoch (set by `start`).
    access_group: Vec<Rank>,
    /// Targets this rank currently holds a passive-target lock on.
    held_locks: Vec<Rank>,
}

/// The CXL SHM transport (cMPI proper).
pub struct CxlTransport {
    rank: Rank,
    ranks: usize,
    arena: CxlShmArena,
    /// Doorbell, shared receive queue and lazily promoted queue pairs: the
    /// only per-pair connection state.
    conn: ConnTable,
    barrier: SeqBarrier,
    unexpected: UnexpectedQueue,
    /// One in-flight reassembly per sender: the drain path pulls whatever
    /// chunks have arrived into these without ever blocking for the rest of
    /// a message, so two ranks mid-send to each other can both keep pumping
    /// (a blocking drain here deadlocked them).
    partial_rx: Vec<Option<ChunkAssembler>>,
    windows: Vec<Option<WindowState>>,
    /// Per-communicator data-plane windows. `Some(None)` memoizes a failed
    /// creation so the communicator never retries (ring-only forever).
    dp: BTreeMap<CtxId, Option<DpState>>,
    dp_stats: DataPlaneStats,
    cost: CxlCostModel,
    contention: CxlContentionModel,
    coherence: CoherenceMode,
    /// Host of each world rank: same-host peers share a hardware-coherent
    /// cache, so their traffic skips the software-coherence flush/fence costs
    /// *and* the pooled-device contention floor (it is served out of the
    /// shared cache hierarchy, not the device DIMMs).
    host_of: Vec<usize>,
    active_pairs: usize,
    stats: Arc<TransportCounters>,
    cell_payload: usize,
    /// Universe peer-death flag: every blocking wait checks it.
    poison: PoisonFlag,
    /// Fault injection armed on this rank (fault-tolerance testing only).
    fault: Option<FaultInjector>,
    /// Scratch for snapshots of the pending-sender set (keeps the poll path
    /// allocation-free in steady state).
    pending_scan: Vec<Rank>,
    /// Reusable header+payload staging for `try_enqueue_with_scratch`.
    tx_scratch: Vec<u8>,
    /// Staging arena recycling the buffers of unexpected messages.
    pool: BufferPool,
}

/// A consumer-side queue a receive pumps: this rank's shared receive queue
/// (chunks of many senders, in ticket order) or one sender's dedicated ring.
#[derive(Clone, Copy)]
enum Inbound<'a> {
    Srq(&'a SrqConsumer),
    Ring(&'a SpscQueue),
}

impl Inbound<'_> {
    fn peek_header(self) -> Result<Option<CellHeader>> {
        match self {
            Inbound::Srq(q) => q.peek_header(),
            Inbound::Ring(q) => q.peek_header(),
        }
    }

    fn try_dequeue_into(self, now_ts: f64, dst: &mut [u8]) -> Result<Option<CellHeader>> {
        match self {
            Inbound::Srq(q) => q.try_dequeue_into(now_ts, dst),
            Inbound::Ring(q) => q.try_dequeue_into(now_ts, dst),
        }
    }
}

impl std::fmt::Debug for CxlTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CxlTransport")
            .field("rank", &self.rank)
            .field("ranks", &self.ranks)
            .field("cell_payload", &self.cell_payload)
            .finish()
    }
}

impl CxlTransport {
    /// Bytes of CXL device memory the connection state and barrier need for a
    /// universe of `ranks` ranks with the given configuration (linear in
    /// `ranks`).
    pub fn required_shared_bytes(ranks: usize, config: &CxlShmTransportConfig) -> Result<usize> {
        let geometry = QueueGeometry {
            cell_payload: config.cell_size,
            cells: config.cells_per_queue,
        };
        ConnTable::required_device_bytes(ranks, geometry, config)?
            .checked_add(SeqBarrier::required_bytes(ranks))
            .and_then(|b| b.checked_add(2 * 64))
            .and_then(|b| b.checked_add(config.window_headroom))
            .ok_or_else(|| {
                MpiError::Transport(format!(
                    "shared-pool sizing for {ranks} ranks overflows usize"
                ))
            })
    }

    /// How many named SHM objects the runtime should size the arena directory
    /// for: its own bookkeeping plus every doorbell, SRQ and budgeted queue
    /// pair the connection tables may create.
    pub fn arena_object_hint(ranks: usize, config: &CxlShmTransportConfig) -> usize {
        256 + ranks * 8 + ConnTable::object_count_hint(ranks, config)
    }

    /// Build the transport for one rank. Rank 0 creates and formats the
    /// barrier; every other rank opens it by name and waits for the ready
    /// flag — mirroring the root-creates-then-broadcasts flow of the paper.
    /// Each rank then creates only its own doorbell + SRQ; peer state is
    /// opened on first use. `poison` is the universe's peer-death flag,
    /// raised by the runtime when any rank exits abnormally; every blocking
    /// wait in this transport checks it and fails with
    /// [`MpiError::PeerDead`].
    pub fn new(
        rank: Rank,
        ranks: usize,
        arena: CxlShmArena,
        config: &CxlShmTransportConfig,
        topology: &crate::topology::HostTopology,
        poison: PoisonFlag,
    ) -> Result<Self> {
        let geometry = QueueGeometry {
            cell_payload: config.cell_size,
            cells: config.cells_per_queue,
        };
        let barrier_bytes = SeqBarrier::required_bytes(ranks);

        let barrier_obj = if rank == 0 {
            let barrier_obj = arena.create(BARRIER_OBJECT, barrier_bytes + 64)?;
            let barrier = SeqBarrier::new(barrier_obj.clone(), 0, 0, ranks);
            barrier.format()?;
            // Raise the ready flag only after formatting is complete.
            barrier_obj.nt_store_u64_at(barrier_bytes as u64, WINDOW_READY_MAGIC)?;
            barrier_obj
        } else {
            let barrier_obj = open_poisoned(&arena, BARRIER_OBJECT, &poison)?;
            spin_flag(&barrier_obj, barrier_bytes as u64, &poison, |v| {
                v == WINDOW_READY_MAGIC
            })?;
            barrier_obj
        };

        let conn = ConnTable::new(rank, ranks, arena.clone(), geometry, config, poison.clone())?;
        let barrier = SeqBarrier::new(barrier_obj, 0, rank, ranks).with_poison(poison.clone());

        Ok(CxlTransport {
            rank,
            ranks,
            arena,
            conn,
            barrier,
            unexpected: UnexpectedQueue::new(),
            partial_rx: (0..ranks).map(|_| None).collect(),
            windows: Vec::new(),
            dp: BTreeMap::new(),
            dp_stats: DataPlaneStats::default(),
            cost: CxlCostModel::default(),
            contention: CxlContentionModel::default(),
            coherence: config.coherence,
            host_of: topology.mapping().to_vec(),
            active_pairs: (ranks / 2).max(1),
            stats: Arc::new(TransportCounters::default()),
            cell_payload: config.cell_size,
            poison,
            fault: None,
            pending_scan: Vec::new(),
            tx_scratch: Vec::new(),
            pool: BufferPool::new(),
        })
    }

    /// Change the coherence mode on the data path (used by ablation benches).
    pub fn set_coherence(&mut self, mode: CoherenceMode) {
        self.coherence = mode;
    }

    /// The cost model in use (exposed for benchmarks).
    pub fn cost_model(&self) -> &CxlCostModel {
        &self.cost
    }

    // ------------------------------------------------------------------
    // Cost accounting helpers
    // ------------------------------------------------------------------

    /// Whether `peer` shares this rank's host (and therefore its
    /// hardware-coherent cache).
    fn same_host(&self, peer: Rank) -> bool {
        self.host_of[peer] == self.host_of[self.rank]
    }

    /// Charge a chunk publish to `peer`. `msg_bytes` is the size of the whole
    /// message the chunk belongs to: memory-hierarchy contention is driven by
    /// the size of the concurrent transfers (Section 3.6), not by how the MPI
    /// library slices them into cells, so the cap degradation is keyed on the
    /// message while the fair-share floor applies to the bytes actually moved
    /// here. A **same-host** peer reads the cells out of the shared
    /// hardware-coherent cache: no flush, no fence, and no share of the
    /// pooled-device bandwidth cap — the physical basis of the hierarchical
    /// collectives' local phases.
    fn charge_chunk_write(&self, clock: &mut SimClock, bytes: usize, msg_bytes: usize, peer: Rank) {
        if self.same_host(peer) {
            let ideal = self.cost.coherent_write(bytes, CoherenceMode::Cached)
                + 2.0 * self.cost.nt_access();
            clock.advance(ideal);
            return;
        }
        let ideal = self.cost.coherent_write(bytes, self.coherence) + 2.0 * self.cost.nt_access();
        let cap = self
            .contention
            .aggregate_cap_gbps(self.active_pairs, msg_bytes.max(bytes), true);
        let floor = cmpi_fabric::clock::transfer_ns(bytes, cap / self.active_pairs.max(1) as f64);
        clock.advance(ideal.max(floor));
    }

    /// Charge a chunk consume from `peer`; see [`Self::charge_chunk_write`].
    fn charge_chunk_read(&self, clock: &mut SimClock, bytes: usize, msg_bytes: usize, peer: Rank) {
        if self.same_host(peer) {
            let ideal =
                self.cost.coherent_read(bytes, CoherenceMode::Cached) + 2.0 * self.cost.nt_access();
            clock.advance(ideal);
            return;
        }
        let ideal = self.cost.coherent_read(bytes, self.coherence) + 2.0 * self.cost.nt_access();
        let cap = self
            .contention
            .aggregate_cap_gbps(self.active_pairs, msg_bytes.max(bytes), true);
        let floor = cmpi_fabric::clock::transfer_ns(bytes, cap / self.active_pairs.max(1) as f64);
        clock.advance(ideal.max(floor));
    }

    fn charge_rma(&self, clock: &mut SimClock, bytes: usize, write: bool) {
        let ideal = if write {
            self.cost.coherent_write(bytes, self.coherence)
        } else {
            self.cost.coherent_read(bytes, self.coherence)
        };
        let t = self
            .contention
            .throttle(self.active_pairs, bytes, ideal, false);
        clock.advance(self.cost.mpi_overhead() + t);
    }

    fn window(&self, win: WinId) -> Result<&WindowState> {
        self.windows
            .get(win)
            .and_then(|w| w.as_ref())
            .ok_or(MpiError::InvalidWindow(win))
    }

    fn window_mut(&mut self, win: WinId) -> Result<&mut WindowState> {
        self.windows
            .get_mut(win)
            .and_then(|w| w.as_mut())
            .ok_or(MpiError::InvalidWindow(win))
    }

    fn check_window_access(state: &WindowState, offset: usize, len: usize) -> Result<()> {
        if offset + len > state.layout.size_per_rank {
            return Err(MpiError::WindowOutOfBounds {
                offset,
                len,
                window_len: state.layout.size_per_rank,
            });
        }
        Ok(())
    }

    fn check_rank(&self, rank: Rank) -> Result<()> {
        if rank >= self.ranks {
            return Err(MpiError::InvalidRank {
                rank,
                size: self.ranks,
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Two-sided receive internals (doorbell + SRQ + sparse rings)
    // ------------------------------------------------------------------
    //
    // A receive never sweeps `0..ranks`. It
    //
    // 1. drains the doorbell summary into the pending-sender set (one
    //    non-temporal load when idle, regardless of world size),
    // 2. pumps the shared receive queue, where not-yet-promoted senders
    //    publish their messages (two non-temporal loads when idle),
    // 3. pumps only the pending senders' dedicated rings, retiring a sender
    //    from the set once its ring is drained (senders re-ring the doorbell
    //    for every chunk, so retirement never loses a wakeup).
    //
    // The receive path is allocation-free in steady state:
    //
    // * a receive posted into a caller buffer (`recv_into`, used by all typed
    //   collectives) peeks the next cell header of a ring and, when it
    //   matches, dequeues every chunk payload **directly into the caller's
    //   buffer** — no `Vec` per chunk, no reassembly copy;
    // * messages that no receive asked for yet are reassembled into buffers
    //   recycled through the per-rank [`BufferPool`] staging arena and stashed
    //   on the unexpected queue; consuming them via `recv_into` returns the
    //   buffer to the pool.

    /// Whether a cell header satisfies a receive's `(ctx, src, tag)` selectors.
    fn header_matches(h: &CellHeader, ctx: CtxId, src: Option<Rank>, tag: Option<Tag>) -> bool {
        h.ctx == ctx && source_matches(src, h.src) && tag_matches(tag, h.tag)
    }

    /// Dequeue all remaining chunks of the message whose first header was
    /// `first`, writing payloads at their chunk offsets within `dst` (which
    /// must hold the whole message). Merges timestamps and charges per-chunk
    /// read costs. Returns the arrival time (the consumer clock after the last
    /// chunk).
    fn drain_chunks_into(
        &mut self,
        clock: &mut SimClock,
        queue: &SpscQueue,
        first: &CellHeader,
        dst: &mut [u8],
    ) -> Result<f64> {
        let total = first.total_len as usize;
        debug_assert!(dst.len() >= total);
        let mut received = 0usize;
        let mut backoff = SpinWait::new();
        loop {
            // The next cell is guaranteed to belong to this message (the
            // sender publishes a whole message before starting the next), but
            // the ring may momentarily be empty when the producer is behind.
            let off = if received == 0 {
                first.chunk_offset as usize
            } else {
                match queue.peek_header()? {
                    Some(h) => {
                        debug_assert_eq!(h.src, first.src);
                        debug_assert_eq!(h.ctx, first.ctx);
                        h.chunk_offset as usize
                    }
                    None => {
                        backoff.wait(&self.poison)?;
                        continue;
                    }
                }
            };
            let Some(h) = queue.try_dequeue_into(clock.now(), &mut dst[off..])? else {
                backoff.wait(&self.poison)?;
                continue;
            };
            backoff.reset();
            clock.merge(h.timestamp);
            self.charge_chunk_read(clock, h.chunk_len as usize + CELL_HEADER_SIZE, total, h.src);
            received += h.chunk_len as usize;
            if received >= total {
                return Ok(clock.now());
            }
        }
    }

    /// Pull every chunk currently available in `queue` into its sender's
    /// persistent assembler **without blocking**: chunks of a message
    /// mid-publication are accepted incrementally (freeing cells, which is
    /// what keeps a sender blocked on flow control moving), and the assembly
    /// resumes on the next call. SRQ chunks of different senders interleave
    /// in ticket order; each sender's chunks stay contiguous. Returns a
    /// reassembled message as soon as its last chunk arrives, `None` when
    /// the queue holds nothing further.
    fn pump(&mut self, clock: &mut SimClock, queue: Inbound<'_>) -> Result<Option<PendingMessage>> {
        if matches!(queue, Inbound::Ring(_)) {
            TransportCounters::bump(&self.stats.ring_probes, 1);
        }
        loop {
            let Some(h) = queue.peek_header()? else {
                return Ok(None);
            };
            let sender = h.src;
            // A fresh assembler always starts at a first-of-message header.
            let mut asm = match self.partial_rx[sender].take() {
                Some(asm) => asm,
                None => {
                    let total = h.total_len as usize;
                    let buf = self.pool.take(total);
                    ChunkAssembler::with_buffer(h.src, h.ctx, h.tag, total, buf)
                }
            };
            let dst = asm.chunk_target(h.chunk_offset as usize, h.chunk_len as usize);
            let h = queue
                .try_dequeue_into(clock.now(), dst)?
                .expect("peeked cell vanished");
            clock.merge(h.timestamp);
            self.charge_chunk_read(
                clock,
                h.chunk_len as usize + CELL_HEADER_SIZE,
                h.total_len as usize,
                sender,
            );
            asm.commit_chunk(h.chunk_len as usize, clock.now());
            if asm.is_complete() {
                let mut msg = asm.finish();
                msg.arrival = clock.now();
                TransportCounters::bump(&self.stats.msgs_received, 1);
                TransportCounters::bump(&self.stats.bytes_received, msg.data.len() as u64);
                return Ok(Some(msg));
            }
            self.partial_rx[sender] = Some(asm);
        }
    }

    /// Collect the doorbell, then pump the SRQ until it yields a message that
    /// `keep` accepts (returned) — everything else goes to the unexpected
    /// queue. Also returns how many messages were stashed.
    fn pump_srq_until(
        &mut self,
        clock: &mut SimClock,
        mut keep: impl FnMut(&PendingMessage) -> bool,
    ) -> Result<(Option<PendingMessage>, usize)> {
        self.conn.collect()?;
        let srq = self.conn.my_srq.clone();
        let mut stashed = 0;
        while let Some(msg) = self.pump(clock, Inbound::Srq(&srq))? {
            if keep(&msg) {
                return Ok((Some(msg), stashed));
            }
            self.unexpected.push(msg);
            stashed += 1;
        }
        Ok((None, stashed))
    }

    /// The senders a receive should probe: the single requested source when
    /// its ring is known or flagged, otherwise the whole pending set.
    fn ring_candidates(&self, src: Option<Rank>, out: &mut Vec<Rank>) {
        out.clear();
        match src {
            Some(s) => {
                if self.conn.pending.contains(&s) || self.conn.rx_contains(s) {
                    out.push(s);
                }
            }
            None => out.extend(self.conn.pending.iter().copied()),
        }
    }

    /// Drop `sender` from the pending set once its ring holds nothing and no
    /// reassembly is in flight. Safe because senders ring the doorbell after
    /// every chunk: new data always re-flags them.
    fn retire_sender(&mut self, sender: Rank, queue: &SpscQueue) -> Result<()> {
        if self.partial_rx[sender].is_none() && !queue.has_message()? {
            self.conn.pending.remove(&sender);
        }
        Ok(())
    }

    /// Pump the rings of the senders a receive with source selector `src`
    /// should probe, like [`Self::pump_srq_until`], retiring each drained
    /// sender from the pending set.
    fn pump_rings_until(
        &mut self,
        clock: &mut SimClock,
        src: Option<Rank>,
        mut keep: impl FnMut(&PendingMessage) -> bool,
    ) -> Result<(Option<PendingMessage>, usize)> {
        let mut scan = std::mem::take(&mut self.pending_scan);
        self.ring_candidates(src, &mut scan);
        let mut stashed = 0;
        for &sender in &scan {
            let queue = self.conn.rx_queue(sender)?;
            while let Some(msg) = self.pump(clock, Inbound::Ring(&queue))? {
                if keep(&msg) {
                    self.pending_scan = scan;
                    return Ok((Some(msg), stashed));
                }
                self.unexpected.push(msg);
                stashed += 1;
            }
            self.retire_sender(sender, &queue)?;
        }
        self.pending_scan = scan;
        Ok((None, stashed))
    }

    /// One matching attempt: search the unexpected queue, then poll the
    /// SRQ and the candidate rings once. `ctx` scopes the match to one
    /// communicator; messages from other communicators found along the way
    /// are stashed unexpected.
    fn try_match_once(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<Option<(Status, Vec<u8>)>> {
        let overhead = self.cost.mpi_overhead();
        if let Some(m) = self.unexpected.take_match(ctx, src, tag) {
            clock.merge(m.arrival);
            clock.advance(overhead);
            return Ok(Some((m.status, m.data)));
        }
        let keep = |m: &PendingMessage| m.matches(ctx, src, tag);
        let mut found = self.pump_srq_until(clock, keep)?.0;
        if found.is_none() {
            found = self.pump_rings_until(clock, src, keep)?.0;
        }
        Ok(found.map(|msg| {
            clock.advance(overhead);
            (msg.status, msg.data)
        }))
    }

    /// One matching attempt for a receive **into a caller buffer**: searches
    /// the unexpected queue (returning its staging buffer to the pool), then
    /// the SRQ, then peeks the candidate rings — a matching message at a
    /// ring head streams straight into `buf` without touching the heap.
    fn try_match_once_into(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
        buf: &mut [u8],
    ) -> Result<Option<Status>> {
        if let Some(m) = self.unexpected.take_match(ctx, src, tag) {
            return self.deliver_staged(clock, m, buf).map(Some);
        }
        if let (Some(msg), _) = self.pump_srq_until(clock, |m| m.matches(ctx, src, tag))? {
            return self.deliver_staged(clock, msg, buf).map(Some);
        }
        let mut scan = std::mem::take(&mut self.pending_scan);
        self.ring_candidates(src, &mut scan);
        for &sender in &scan {
            let queue = self.conn.rx_queue(sender)?;
            if let Some(status) = self.match_ring_into(clock, sender, &queue, ctx, src, tag, buf)? {
                self.pending_scan = scan;
                return Ok(Some(status));
            }
            self.retire_sender(sender, &queue)?;
        }
        self.pending_scan = scan;
        Ok(None)
    }

    /// Probe one sender ring for a receive into a caller buffer: a matching
    /// message at the ring head streams straight into `buf` with no staging
    /// copy; anything else is pumped toward the unexpected queue. Returns
    /// `None` when the ring has nothing further for this receive.
    #[allow(clippy::too_many_arguments)]
    fn match_ring_into(
        &mut self,
        clock: &mut SimClock,
        sender: Rank,
        queue: &SpscQueue,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
        buf: &mut [u8],
    ) -> Result<Option<Status>> {
        loop {
            // Finish any in-flight partial reassembly first: its chunks own
            // the ring head, so nothing newer from this sender can be
            // examined until it completes.
            if self.partial_rx[sender].is_some() {
                match self.pump(clock, Inbound::Ring(queue))? {
                    Some(msg) => {
                        if msg.matches(ctx, src, tag) {
                            return self.deliver_staged(clock, msg, buf).map(Some);
                        }
                        self.unexpected.push(msg);
                        continue;
                    }
                    // Still partial: nothing deliverable from this ring.
                    None => return Ok(None),
                }
            }
            let Some(first) = queue.peek_header()? else {
                return Ok(None);
            };
            if !Self::header_matches(&first, ctx, src, tag) {
                // Not ours: pump it toward the unexpected queue without
                // blocking if it is still being published.
                match self.pump(clock, Inbound::Ring(queue))? {
                    Some(msg) => {
                        self.unexpected.push(msg);
                        continue;
                    }
                    None => return Ok(None),
                }
            }
            let total = first.total_len as usize;
            if total > buf.len() {
                // MPI truncation: the message is consumed (into staging,
                // recycled immediately) and the receive errors. Blocking
                // for the remainder is fine — the sender of a matching
                // partial message is committed and actively publishing.
                let poison = self.poison.clone();
                let mut backoff = SpinWait::new();
                let msg = loop {
                    match self.pump(clock, Inbound::Ring(queue))? {
                        Some(msg) => break msg,
                        None => backoff.wait(&poison)?,
                    }
                };
                self.pool.put(msg.data);
                clock.advance(self.cost.mpi_overhead());
                return Err(MpiError::Truncation {
                    message_len: total,
                    buffer_len: buf.len(),
                });
            }
            // Direct path: chunks land in the caller's buffer, with no
            // staging copy. Waits for the remainder of a matching message
            // mid-publication — safe for the same reason.
            self.drain_chunks_into(clock, queue, &first, buf)?;
            TransportCounters::bump(&self.stats.msgs_received, 1);
            TransportCounters::bump(&self.stats.bytes_received, total as u64);
            clock.advance(self.cost.mpi_overhead());
            return Ok(Some(Status::new(first.src, first.tag, total)));
        }
    }

    /// Deliver a staged (unexpected or freshly pumped) message into the
    /// caller's buffer, recycling its staging storage through the pool.
    fn deliver_staged(
        &mut self,
        clock: &mut SimClock,
        m: PendingMessage,
        buf: &mut [u8],
    ) -> Result<Status> {
        clock.merge(m.arrival);
        clock.advance(self.cost.mpi_overhead());
        if m.data.len() > buf.len() {
            return Err(MpiError::Truncation {
                message_len: m.data.len(),
                buffer_len: buf.len(),
            });
        }
        buf[..m.data.len()].copy_from_slice(&m.data);
        self.pool.put(m.data);
        Ok(m.status)
    }

    // ------------------------------------------------------------------
    // Send internals: one resumable send
    // ------------------------------------------------------------------

    /// Resume the send of `data` to `dst` from `cursor`, publishing chunks
    /// until the whole message is out (`Ok(true)`) or flow control stops it
    /// (`Ok(false)`: the route is full, its head timestamp is merged, and
    /// nothing of the stopped chunk is published). Both [`Transport::send`]
    /// (which drives it to completion) and [`Transport::try_send_progress`]
    /// (one call) run every message through here.
    ///
    /// Message entry happens exactly once per message, tracked by the
    /// cursor: the fault hook fires (before any chunk is published, so peers
    /// never observe a half-written message) and the software overhead is
    /// charged. Until the first chunk is out, every call re-decides the route
    /// with [`ConnTable::prepare_send`] (idempotent; promotes the pair to a
    /// dedicated queue pair when it may); later chunks stay on the route of
    /// the first. Queue-pair chunks ring the receiver's doorbell; SRQ chunks
    /// need none (the receiver probes its SRQ unconditionally).
    fn send_step(
        &mut self,
        clock: &mut SimClock,
        dst: Rank,
        ctx: CtxId,
        tag: Tag,
        data: &[u8],
        cursor: &mut SendCursor,
    ) -> Result<bool> {
        let nt = self.cost.nt_access();
        if !cursor.entered {
            if let Some(f) = self.fault.as_mut() {
                f.on_send()?;
            }
            clock.advance(self.cost.mpi_overhead());
            cursor.entered = true;
        }
        if cursor.chunks == 0 {
            self.conn.prepare_send(dst, clock, nt)?;
        }
        let total = data.len();
        // A zero-length message is one header-only chunk.
        let total_chunks = total.div_ceil(self.cell_payload).max(1);
        let mut last_ticket = None;
        while cursor.chunks < total_chunks {
            let offset = cursor.chunks * self.cell_payload;
            let chunk = &data[offset..(offset + self.cell_payload).min(total)];
            // Charge the publish first and stamp the cell with the time at
            // which the data is visible — on a copy of the clock, committed
            // only if the chunk actually goes out.
            let mut published = *clock;
            self.charge_chunk_write(&mut published, chunk.len() + CELL_HEADER_SIZE, total, dst);
            let header = CellHeader {
                src: self.rank,
                ctx,
                tag,
                total_len: total as u64,
                chunk_offset: offset as u64,
                chunk_len: chunk.len() as u32,
                timestamp: published.now(),
            };
            let peer = self.conn.peer(dst).expect("peer prepared at message entry");
            let full_at = match &peer.qp {
                Some(qp) => {
                    if qp.try_enqueue_with_scratch(&header, chunk, &mut self.tx_scratch)? {
                        peer.db.ring(self.rank)?;
                        TransportCounters::bump(&self.stats.doorbell_rings, 1);
                        published.advance(2.0 * nt);
                        None
                    } else {
                        Some(qp.head_timestamp()?)
                    }
                }
                None => {
                    match peer
                        .srq
                        .try_enqueue_with_scratch(&header, chunk, &mut self.tx_scratch)?
                    {
                        Some(ticket) => {
                            // The ticket claim is one RMW round-trip.
                            last_ticket = Some(ticket);
                            published.advance(nt);
                            None
                        }
                        // Full, or a racing producer took the last slot.
                        None => Some(peer.srq.head_timestamp()?),
                    }
                }
            };
            if let Some(head_ts) = full_at {
                // The receiver is behind: merge its published timestamp so
                // our clock reflects the wait.
                clock.merge(head_ts);
                clock.advance(nt);
                return Ok(false);
            }
            *clock = published;
            cursor.chunks += 1;
        }
        self.conn.note_sent(dst, last_ticket);
        TransportCounters::bump(&self.stats.msgs_sent, 1);
        TransportCounters::bump(&self.stats.bytes_sent, total as u64);
        Ok(true)
    }
}

impl Transport for CxlTransport {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.ranks
    }

    fn send(
        &mut self,
        clock: &mut SimClock,
        dst: Rank,
        ctx: CtxId,
        tag: Tag,
        data: &[u8],
    ) -> Result<()> {
        self.check_rank(dst)?;
        let mut cursor = SendCursor::default();
        let mut backoff = SpinWait::new();
        loop {
            let published = cursor.chunks;
            if self.send_step(clock, dst, ctx, tag, data, &mut cursor)? {
                return Ok(());
            }
            // Flow control: drain this rank's own inbound queues while
            // waiting, exactly as the progress engine does — the receiver we
            // wait on may itself be blocked sending to us. The backoff
            // restarts whenever either side moved.
            let drained = self.poll_incoming(clock)?;
            if drained > 0 || cursor.chunks > published {
                backoff.reset();
            } else {
                backoff.wait(&self.poison)?;
            }
        }
    }

    fn recv_owned(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<(Status, Vec<u8>)> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        let mut backoff = SpinWait::new();
        loop {
            if let Some(found) = self.try_match_once(clock, ctx, src, tag)? {
                return Ok(found);
            }
            backoff.wait(&self.poison)?;
        }
    }

    fn recv_into(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
        buf: &mut [u8],
    ) -> Result<Status> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        let mut backoff = SpinWait::new();
        loop {
            if let Some(status) = self.try_match_once_into(clock, ctx, src, tag, buf)? {
                return Ok(status);
            }
            backoff.wait(&self.poison)?;
        }
    }

    fn try_recv_owned(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<Option<(Status, Vec<u8>)>> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        self.try_match_once(clock, ctx, src, tag)
    }

    fn try_recv_into(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
        buf: &mut [u8],
    ) -> Result<Option<Status>> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        self.try_match_once_into(clock, ctx, src, tag, buf)
    }

    fn try_send_progress(
        &mut self,
        clock: &mut SimClock,
        dst: Rank,
        ctx: CtxId,
        tag: Tag,
        data: &[u8],
        cursor: &mut SendCursor,
    ) -> Result<bool> {
        self.check_rank(dst)?;
        self.send_step(clock, dst, ctx, tag, data, cursor)
    }

    fn debug_state(&self) -> String {
        let partials: Vec<usize> = self
            .partial_rx
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.as_ref().map(|_| i))
            .collect();
        let unexpected: Vec<(Rank, CtxId, Tag, usize)> = self
            .unexpected
            .iter()
            .map(|m| (m.status.source, m.ctx, m.status.tag, m.data.len()))
            .collect();
        format!(
            "rank={} partials={partials:?} unexpected={unexpected:?} conn={}",
            self.rank,
            self.conn.debug_state()
        )
    }

    fn poll_incoming(&mut self, clock: &mut SimClock) -> Result<usize> {
        // Drain the SRQ and every flagged ring into the pool-backed
        // unexpected queue: each cell freed returns space to its sender, so a
        // peer blocked on flow control can finish its send while this rank
        // is otherwise busy. `pump` accepts partial messages incrementally
        // and never blocks — essential, because the sender of a
        // half-published message may itself be waiting for the cells this
        // drain frees.
        let (_, from_srq) = self.pump_srq_until(clock, |_| false)?;
        let (_, from_rings) = self.pump_rings_until(clock, None, |_| false)?;
        Ok(from_srq + from_rings)
    }

    fn barrier(&mut self, clock: &mut SimClock) -> Result<()> {
        // Publish + one pass over every peer slot, at minimum.
        clock.advance((2 + self.ranks.saturating_sub(1)) as f64 * self.cost.nt_access());
        self.barrier.enter(clock)
    }

    fn win_allocate(&mut self, clock: &mut SimClock, size_per_rank: usize) -> Result<WinId> {
        let id = self.windows.len();
        let layout = WindowLayout::new(self.ranks, size_per_rank);
        let name = format!("cmpi/win_{id}");
        // The ready value is tied to the window id so that stale bytes left in
        // reused device memory by a freed window can never look "ready".
        let ready_value = WINDOW_READY_MAGIC ^ id as u64;
        let obj = if self.rank == 0 {
            let obj = self.arena.create(&name, layout.total_bytes())?;
            // Zero the synchronization region (flags, locks, fence slots).
            let sync_start = layout.post_flag_offset(0, 0);
            let zeros = vec![0u8; layout.total_bytes() - sync_start as usize - 64];
            obj.write_flush_at(sync_start, &zeros)?;
            obj.nt_store_u64_at(layout.ready_offset(), ready_value)?;
            obj
        } else {
            let obj = open_poisoned(&self.arena, &name, &self.poison)?;
            spin_flag(&obj, layout.ready_offset(), &self.poison, |v| {
                v == ready_value
            })?;
            obj
        };
        let fence_barrier =
            SeqBarrier::new(obj.clone(), layout.fence_base(), self.rank, self.ranks)
                .with_poison(self.poison.clone());
        self.windows.push(Some(WindowState {
            obj,
            layout,
            fence_barrier,
            exposure_group: Vec::new(),
            access_group: Vec::new(),
            held_locks: Vec::new(),
        }));
        // Window allocation is collective: synchronize before anyone uses it.
        self.barrier(clock)?;
        Ok(id)
    }

    fn win_free(&mut self, clock: &mut SimClock, win: WinId) -> Result<()> {
        self.window(win)?;
        self.barrier(clock)?;
        if self.rank == 0 {
            self.arena.destroy_by_name(&format!("cmpi/win_{win}"))?;
        }
        self.windows[win] = None;
        Ok(())
    }

    fn put(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        target: Rank,
        offset: usize,
        data: &[u8],
    ) -> Result<()> {
        self.check_rank(target)?;
        let state = self.window(win)?;
        Self::check_window_access(state, offset, data.len())?;
        let addr = state.layout.data_offset(target) + offset as u64;
        state.obj.write_flush_at(addr, data)?;
        self.charge_rma(clock, data.len(), true);
        TransportCounters::bump(&self.stats.puts, 1);
        TransportCounters::bump(&self.stats.rma_bytes_written, data.len() as u64);
        Ok(())
    }

    fn get(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        target: Rank,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<()> {
        self.check_rank(target)?;
        let state = self.window(win)?;
        Self::check_window_access(state, offset, buf.len())?;
        let addr = state.layout.data_offset(target) + offset as u64;
        state.obj.read_coherent_at(addr, buf)?;
        self.charge_rma(clock, buf.len(), false);
        TransportCounters::bump(&self.stats.gets, 1);
        TransportCounters::bump(&self.stats.rma_bytes_read, buf.len() as u64);
        Ok(())
    }

    fn accumulate(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        target: Rank,
        offset: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<()> {
        self.check_rank(target)?;
        let bytes = data.len() * 8;
        let state = self.window(win)?;
        Self::check_window_access(state, offset, bytes)?;
        let addr = state.layout.data_offset(target) + offset as u64;
        let mut current = vec![0u8; bytes];
        state.obj.read_coherent_at(addr, &mut current)?;
        let mut values = crate::pod::bytes_to_f64(&current);
        op.fold_f64(&mut values, data);
        state
            .obj
            .write_flush_at(addr, &crate::pod::f64_to_bytes(&values))?;
        self.charge_rma(clock, bytes, false);
        self.charge_rma(clock, bytes, true);
        TransportCounters::bump(&self.stats.rma_bytes_written, bytes as u64);
        Ok(())
    }

    fn win_read_local(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<()> {
        let rank = self.rank;
        let state = self.window(win)?;
        Self::check_window_access(state, offset, buf.len())?;
        let addr = state.layout.data_offset(rank) + offset as u64;
        state.obj.read_coherent_at(addr, buf)?;
        self.charge_rma(clock, buf.len(), false);
        Ok(())
    }

    fn win_write_local(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        offset: usize,
        data: &[u8],
    ) -> Result<()> {
        let rank = self.rank;
        let state = self.window(win)?;
        Self::check_window_access(state, offset, data.len())?;
        let addr = state.layout.data_offset(rank) + offset as u64;
        state.obj.write_flush_at(addr, data)?;
        self.charge_rma(clock, data.len(), true);
        Ok(())
    }

    fn post(&mut self, clock: &mut SimClock, win: WinId, origins: &[Rank]) -> Result<()> {
        for &o in origins {
            self.check_rank(o)?;
        }
        let rank = self.rank;
        let nt = self.cost.nt_access();
        let state = self.window_mut(win)?;
        if !state.exposure_group.is_empty() {
            return Err(MpiError::InvalidSyncState(
                "post called while an exposure epoch is already open".into(),
            ));
        }
        for &origin in origins {
            let off = state.layout.post_flag_offset(origin, rank);
            state.obj.nt_store_u64_at(off + 8, clock.now().to_bits())?;
            state.obj.nt_store_u64_at(off, 1)?;
            clock.advance(2.0 * nt);
        }
        state.exposure_group = origins.to_vec();
        Ok(())
    }

    fn start(&mut self, clock: &mut SimClock, win: WinId, targets: &[Rank]) -> Result<()> {
        for &t in targets {
            self.check_rank(t)?;
        }
        let rank = self.rank;
        let nt = self.cost.nt_access();
        let poison = self.poison.clone();
        let state = self.window_mut(win)?;
        if !state.access_group.is_empty() {
            return Err(MpiError::InvalidSyncState(
                "start called while an access epoch is already open".into(),
            ));
        }
        for &target in targets {
            let off = state.layout.post_flag_offset(rank, target);
            spin_flag(&state.obj, off, &poison, |v| v == 1)?;
            let ts = f64::from_bits(state.obj.nt_load_u64_at(off + 8)?);
            clock.merge(ts);
            // Reset the flag (the origin resets its own post flag).
            state.obj.nt_store_u64_at(off, 0)?;
            clock.advance(3.0 * nt);
        }
        state.access_group = targets.to_vec();
        Ok(())
    }

    fn complete(&mut self, clock: &mut SimClock, win: WinId) -> Result<()> {
        let rank = self.rank;
        let nt = self.cost.nt_access();
        let state = self.window_mut(win)?;
        if state.access_group.is_empty() {
            return Err(MpiError::InvalidSyncState(
                "complete called without a matching start".into(),
            ));
        }
        let targets = std::mem::take(&mut state.access_group);
        for target in targets {
            let off = state.layout.complete_flag_offset(target, rank);
            state.obj.nt_store_u64_at(off + 8, clock.now().to_bits())?;
            state.obj.nt_store_u64_at(off, 1)?;
            clock.advance(2.0 * nt);
        }
        Ok(())
    }

    fn wait(&mut self, clock: &mut SimClock, win: WinId) -> Result<()> {
        let rank = self.rank;
        let nt = self.cost.nt_access();
        let poison = self.poison.clone();
        let state = self.window_mut(win)?;
        if state.exposure_group.is_empty() {
            return Err(MpiError::InvalidSyncState(
                "wait called without a matching post".into(),
            ));
        }
        let origins = std::mem::take(&mut state.exposure_group);
        for origin in origins {
            let off = state.layout.complete_flag_offset(rank, origin);
            spin_flag(&state.obj, off, &poison, |v| v == 1)?;
            let ts = f64::from_bits(state.obj.nt_load_u64_at(off + 8)?);
            clock.merge(ts);
            // Reset the flag (the target resets its own complete flag).
            state.obj.nt_store_u64_at(off, 0)?;
            clock.advance(3.0 * nt);
        }
        Ok(())
    }

    fn lock(&mut self, clock: &mut SimClock, win: WinId, target: Rank) -> Result<()> {
        self.check_rank(target)?;
        let rank = self.rank;
        let ranks = self.ranks;
        let nt = self.cost.nt_access();
        let poison = self.poison.clone();
        let state = self.window_mut(win)?;
        if state.held_locks.contains(&target) {
            return Err(MpiError::InvalidSyncState(format!(
                "lock on target {target} already held"
            )));
        }
        let lock = BakeryLock::new(state.obj.clone(), state.layout.lock_base(target), ranks);
        let reads = lock.lock(rank, &poison)?;
        // Doorway writes (3 stores) plus every remote read performed.
        clock.advance((reads as f64 + 3.0) * nt);
        state.held_locks.push(target);
        Ok(())
    }

    fn unlock(&mut self, clock: &mut SimClock, win: WinId, target: Rank) -> Result<()> {
        self.check_rank(target)?;
        let rank = self.rank;
        let ranks = self.ranks;
        let nt = self.cost.nt_access();
        let state = self.window_mut(win)?;
        let Some(pos) = state.held_locks.iter().position(|&t| t == target) else {
            return Err(MpiError::InvalidSyncState(format!(
                "unlock on target {target} without a matching lock"
            )));
        };
        let lock = BakeryLock::new(state.obj.clone(), state.layout.lock_base(target), ranks);
        lock.unlock(rank)?;
        clock.advance(nt);
        state.held_locks.remove(pos);
        Ok(())
    }

    fn fence(&mut self, clock: &mut SimClock, win: WinId) -> Result<()> {
        let ranks = self.ranks;
        let nt = self.cost.nt_access();
        let state = self.window_mut(win)?;
        clock.advance((2 + ranks.saturating_sub(1)) as f64 * nt);
        state.fence_barrier.enter(clock)
    }

    // ------------------------------------------------------------------
    // Shared-window single-copy data plane
    // ------------------------------------------------------------------

    fn dp_ensure(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        group: &[Rank],
        arena_bytes: usize,
        slots: usize,
    ) -> Result<Option<DpWindow>> {
        if let Some(entry) = self.dp.get(&ctx) {
            return Ok(entry.as_ref().map(|s| DpWindow {
                slot_bytes: s.layout.slot_bytes(),
                slots: s.layout.slots(),
            }));
        }
        let Some(my_idx) = group.iter().position(|&r| r == self.rank) else {
            return Ok(None);
        };
        let layout = SlotLayout::new(group.len(), slots, arena_bytes / slots.max(1));
        if group.len() < 2 || layout.slot_bytes() == 0 {
            self.dp.insert(ctx, None);
            return Ok(None);
        }
        let nt = self.cost.nt_access();
        let lead = group[0];
        // The lead's *world* rank is in the object names because the disjoint
        // groups of one comm_split share a context id — each color gets its
        // own window, keyed by its own leader.
        let status_name = format!("cmpi/dps_{ctx}_{lead}");
        let data_name = format!("cmpi/dp_{ctx}_{lead}");
        let state = if self.rank == lead {
            // The tiny status object is created *first* and unconditionally,
            // so non-leads always have something to open: a data-window
            // failure is announced through it rather than by absence.
            let status = self.arena.create(&status_name, 64)?;
            match self.arena.create(&data_name, layout.total_len()) {
                Ok(obj) => {
                    let zeros = vec![0u8; layout.control_len()];
                    obj.write_flush_at(0, &zeros)?;
                    clock.advance(
                        self.cost
                            .coherent_write(layout.control_len(), self.coherence)
                            + 2.0 * nt,
                    );
                    status.nt_store_u64_at(SLOT_CELL_TS_OFF as u64, clock.now().to_bits())?;
                    status.nt_store_u64_at(0, DP_WINDOW_OK)?;
                    Some(obj)
                }
                Err(_) => {
                    // Pool exhausted: announce the failure and run ring-only.
                    clock.advance(2.0 * nt);
                    status.nt_store_u64_at(SLOT_CELL_TS_OFF as u64, clock.now().to_bits())?;
                    status.nt_store_u64_at(0, DP_WINDOW_FAIL)?;
                    None
                }
            }
        } else {
            let status = open_poisoned(&self.arena, &status_name, &self.poison)?;
            let verdict = spin_flag(&status, 0, &self.poison, |v| {
                v == DP_WINDOW_OK || v == DP_WINDOW_FAIL
            })?;
            let ts = f64::from_bits(status.nt_load_u64_at(SLOT_CELL_TS_OFF as u64)?);
            clock.merge(ts);
            clock.advance(2.0 * nt);
            if verdict == DP_WINDOW_OK {
                Some(open_poisoned(&self.arena, &data_name, &self.poison)?)
            } else {
                None
            }
        };
        match state {
            Some(obj) => {
                self.dp_stats.window_setups += 1;
                self.dp.insert(
                    ctx,
                    Some(DpState {
                        obj,
                        layout,
                        group: group.to_vec(),
                        my_idx,
                        in_use: vec![None; layout.slots()],
                    }),
                );
                Ok(Some(DpWindow {
                    slot_bytes: layout.slot_bytes(),
                    slots: layout.slots(),
                }))
            }
            None => {
                self.dp_stats.window_failures += 1;
                self.dp.insert(ctx, None);
                Ok(None)
            }
        }
    }

    fn dp_window(&self, ctx: CtxId) -> Option<DpWindow> {
        self.dp.get(&ctx).and_then(|entry| {
            entry.as_ref().map(|s| DpWindow {
                slot_bytes: s.layout.slot_bytes(),
                slots: s.layout.slots(),
            })
        })
    }

    fn dp_expose(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        seq: u32,
        phase: u8,
        region_off: usize,
        data: &[u8],
    ) -> Result<bool> {
        let nt = self.cost.nt_access();
        let publish = self.cost.streamed_publish(data.len(), self.coherence);
        let Some(Some(state)) = self.dp.get_mut(&ctx) else {
            return no_data_plane();
        };
        let slot = seq as usize % state.layout.slots();
        if matches!(state.in_use[slot], Some(owner) if owner != seq) {
            // The slot still belongs to an unretired earlier collective whose
            // readers may not have pulled yet: report busy, the progress
            // engine retries after pumping acks.
            return Ok(false);
        }
        // Publish entry (slot claimable, nothing written yet): the
        // fault-injection point for data-plane publishes.
        if let Some(f) = self.fault.as_mut() {
            f.on_publish()?;
        }
        state.in_use[slot] = Some(seq);
        debug_assert!(region_off + data.len() <= state.layout.slot_bytes());
        let off = state.layout.data_off(state.my_idx, slot) + region_off;
        state.obj.write_flush_at(off as u64, data)?;
        // One streamed publish (NT store stream + fence, no per-line flush)
        // for *all* readers, then the flag cell — whose value and timestamp
        // words share a cache line and go out as a single 16-byte NT store:
        // this is the whole point of the single-copy path — no per-chunk
        // headers, no per-message software overhead.
        clock.advance(publish + nt);
        let f = state.layout.flag_off(state.my_idx, slot, phase as usize);
        state
            .obj
            .nt_store_u64_at((f + SLOT_CELL_TS_OFF) as u64, clock.now().to_bits())?;
        state.obj.nt_store_u64_at(f as u64, u64::from(seq) + 1)?;
        self.dp_stats.expose_ops += 1;
        self.dp_stats.bytes_exposed += data.len() as u64;
        Ok(true)
    }

    fn dp_pull(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        seq: u32,
        writer_idx: usize,
        phase: u8,
        src_off: usize,
        buf: &mut [u8],
        ack: bool,
    ) -> Result<bool> {
        let (obj, layout, writer, my_idx) = {
            let Some(Some(state)) = self.dp.get(&ctx) else {
                return no_data_plane();
            };
            (
                state.obj.clone(),
                state.layout,
                state.group[writer_idx],
                state.my_idx,
            )
        };
        let slot = seq as usize % layout.slots();
        let f = layout.flag_off(writer_idx, slot, phase as usize);
        if obj.nt_load_u64_at(f as u64)? < u64::from(seq) + 1 {
            // Flag not up yet: a failed poll costs nothing (same as the PSCW
            // spin idiom — the flag line lives in this rank's cache).
            return Ok(false);
        }
        clock.merge(f64::from_bits(
            obj.nt_load_u64_at((f + SLOT_CELL_TS_OFF) as u64)?,
        ));
        let src = layout.data_off(writer_idx, slot) + src_off;
        debug_assert!(src_off + buf.len() <= layout.slot_bytes());
        obj.read_coherent_at(src as u64, buf)?;
        // Flag value + timestamp live in one cache line: one NT load. The
        // payload fetch itself is a streamed read — the slot rotation means
        // this rank's write-allocate copies of these lines were evicted
        // `slots` collectives ago, so no per-line invalidation applies.
        let nt = self.cost.nt_access();
        if self.same_host(writer) {
            clock.advance(self.cost.coherent_read(buf.len(), CoherenceMode::Cached) + nt);
        } else {
            // One-sided cap: a pull is a single device transaction per byte
            // (the ring's two-copies-per-hop load factor does not apply).
            let ideal = self.cost.streamed_read(buf.len(), self.coherence) + nt;
            let cap = self
                .contention
                .aggregate_cap_gbps(self.active_pairs, buf.len(), false);
            let floor =
                cmpi_fabric::clock::transfer_ns(buf.len(), cap / self.active_pairs.max(1) as f64);
            clock.advance(ideal.max(floor));
        }
        if ack {
            // Ack entry: killing here is the classic reader-death wedge — the
            // writer's slot would wait on this ack forever if shrink's
            // `dp_write_off` did not retire it.
            if let Some(f) = self.fault.as_mut() {
                f.on_ack()?;
            }
            let a = layout.ack_off(writer_idx, my_idx, slot);
            obj.nt_store_u64_at((a + SLOT_CELL_TS_OFF) as u64, clock.now().to_bits())?;
            obj.nt_store_u64_at(a as u64, u64::from(seq) + 1)?;
            clock.advance(nt);
        }
        self.dp_stats.pull_ops += 1;
        self.dp_stats.bytes_pulled += buf.len() as u64;
        Ok(true)
    }

    fn dp_wait_ack(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        seq: u32,
        reader_idx: usize,
        last: bool,
    ) -> Result<bool> {
        let nt = self.cost.nt_access();
        let Some(Some(state)) = self.dp.get_mut(&ctx) else {
            return no_data_plane();
        };
        let slot = seq as usize % state.layout.slots();
        let a = state.layout.ack_off(state.my_idx, reader_idx, slot);
        if state.obj.nt_load_u64_at(a as u64)? < u64::from(seq) + 1 {
            return Ok(false);
        }
        clock.merge(f64::from_bits(
            state.obj.nt_load_u64_at((a + SLOT_CELL_TS_OFF) as u64)?,
        ));
        // Ack value + timestamp share a line: a single NT load.
        clock.advance(nt);
        if last {
            // Every reader has promised it is done with this slot's data:
            // retire it so a later collective can claim it.
            state.in_use[slot] = None;
        }
        self.dp_stats.notify_waits += 1;
        Ok(true)
    }

    fn dp_write_off(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        dead_reader_idx: usize,
    ) -> Result<()> {
        let nt = self.cost.nt_access();
        let Some(Some(state)) = self.dp.get_mut(&ctx) else {
            return Ok(());
        };
        if dead_reader_idx >= state.group.len() || dead_reader_idx == state.my_idx {
            return Ok(());
        }
        for (slot, owner) in state.in_use.iter().enumerate() {
            let Some(seq) = owner else { continue };
            // Store the exact ack value the dead reader would have written
            // (`seq + 1`, not a sentinel — a larger value would falsely
            // satisfy a future owner of the slot after sequence wraparound),
            // so the writer's pending `dp_wait_ack` completes and the slot
            // rotation unwedges.
            let a = state.layout.ack_off(state.my_idx, dead_reader_idx, slot);
            state
                .obj
                .nt_store_u64_at((a + SLOT_CELL_TS_OFF) as u64, clock.now().to_bits())?;
            state.obj.nt_store_u64_at(a as u64, u64::from(*seq) + 1)?;
            clock.advance(nt);
        }
        Ok(())
    }

    fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.fault = Some(injector);
    }

    fn dp_stats(&self) -> DataPlaneStats {
        self.dp_stats
    }

    fn stats(&self) -> TransportStats {
        // The connection table keeps its own (single-writer) counters;
        // fold them into the shared snapshot.
        let mut s = self.stats.snapshot();
        s.qps_established = self.conn.counters.qps_established;
        s.qps_opened = self.conn.counters.qps_opened;
        s.srq_msgs = self.conn.counters.srq_msgs;
        s
    }

    fn stats_handle(&self) -> Arc<TransportCounters> {
        Arc::clone(&self.stats)
    }

    fn set_concurrency_hint(&mut self, pairs: usize) {
        self.active_pairs = pairs.max(1);
    }

    fn concurrency_hint(&self) -> usize {
        self.active_pairs
    }

    fn label(&self) -> &'static str {
        "CXL-SHM"
    }

    fn poison(&self) -> &PoisonFlag {
        &self.poison
    }
}
