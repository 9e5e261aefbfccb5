//! The transport abstraction: two-sided and one-sided primitives that the
//! [`crate::comm::Comm`] facade and the collectives are built on.
//!
//! Two implementations exist, mirroring the paper's comparison:
//!
//! * [`cxl::CxlTransport`] — cMPI proper: the SPSC message-queue matrix, RMA
//!   windows and synchronization flags all live in CXL shared memory and every
//!   transfer is a CPU copy published with software cache coherence.
//! * [`tcp::TcpTransport`] — the baseline: MPI over TCP on a simulated NIC
//!   (standard Ethernet or SmartNIC), with per-message software-stack costs and
//!   NIC bandwidth sharing.

pub mod conn;
pub mod cxl;
pub mod tcp;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cmpi_fabric::SimClock;
use serde::{Deserialize, Serialize};

use crate::config::FaultTrigger;
use crate::error::MpiError;
use crate::spin::PoisonFlag;
use crate::types::{CtxId, Rank, ReduceOp, Status, Tag};
use crate::Result;

/// Identifier of an allocated RMA window.
pub type WinId = usize;

/// Per-rank fault-injection state armed by the fault-tolerant launcher (see
/// [`crate::config::FaultPlan`]). Transports that support injection call the
/// `on_*` hooks at *operation entry* — before any bytes hit the wire or the
/// shared window — and propagate the resulting
/// [`MpiError::RankKilled`] up their call stack, so a kill
/// never leaves a half-published message for peers to trip over.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    trigger: FaultTrigger,
    sends: u64,
    publishes: u64,
    acks: u64,
    ops: u64,
    /// Precomputed kill index for [`FaultTrigger::SeededOp`] (over `ops`).
    seeded_kill_at: u64,
}

impl FaultInjector {
    /// Arm an injector for one victim rank.
    pub fn new(trigger: FaultTrigger) -> Self {
        let seeded_kill_at = match trigger {
            FaultTrigger::SeededOp { seed, max_ops } => {
                // One LCG step (Knuth's MMIX constants); the high bits are the
                // well-mixed ones.
                let x = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                1 + (x >> 33) % max_ops.max(1)
            }
            _ => 0,
        };
        FaultInjector {
            trigger,
            sends: 0,
            publishes: 0,
            acks: 0,
            ops: 0,
            seeded_kill_at,
        }
    }

    fn fire(&self, kind: &str, n: u64) -> Result<()> {
        Err(MpiError::RankKilled(format!(
            "injected fault at {kind} #{n} (op #{})",
            self.ops
        )))
    }

    fn check(&mut self, kind: &str, n: u64, wanted: Option<u64>) -> Result<()> {
        self.ops += 1;
        if wanted == Some(n) {
            return self.fire(kind, n);
        }
        if let FaultTrigger::SeededOp { .. } = self.trigger {
            if self.ops == self.seeded_kill_at {
                return self.fire(kind, n);
            }
        }
        Ok(())
    }

    /// Entry hook of a point-to-point send (blocking or progress-driven).
    pub fn on_send(&mut self) -> Result<()> {
        self.sends += 1;
        let wanted = match self.trigger {
            FaultTrigger::NthSend(n) => Some(n),
            _ => None,
        };
        self.check("send", self.sends, wanted)
    }

    /// Entry hook of a data-plane slot publish (`dp_expose`).
    pub fn on_publish(&mut self) -> Result<()> {
        self.publishes += 1;
        let wanted = match self.trigger {
            FaultTrigger::NthPublish(n) => Some(n),
            _ => None,
        };
        self.check("publish", self.publishes, wanted)
    }

    /// Entry hook of a data-plane acknowledgement (the ack half of `dp_pull`).
    pub fn on_ack(&mut self) -> Result<()> {
        self.acks += 1;
        let wanted = match self.trigger {
            FaultTrigger::NthAck(n) => Some(n),
            _ => None,
        };
        self.check("ack", self.acks, wanted)
    }
}

/// Operation counters maintained by every transport.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportStats {
    /// Two-sided messages sent.
    pub msgs_sent: u64,
    /// Two-sided payload bytes sent.
    pub bytes_sent: u64,
    /// Two-sided messages received.
    pub msgs_received: u64,
    /// Two-sided payload bytes received.
    pub bytes_received: u64,
    /// One-sided put operations issued.
    pub puts: u64,
    /// One-sided get operations issued.
    pub gets: u64,
    /// Bytes written by put/accumulate.
    pub rma_bytes_written: u64,
    /// Bytes read by get.
    pub rma_bytes_read: u64,
    /// Collective operations executed through this rank (all communicators).
    pub collectives: u64,
    /// Payload bytes contributed to collectives by this rank.
    pub collective_bytes: u64,
    /// Lazy connections: dedicated queue pairs this rank established as a
    /// sender (eager mode reports 0 — the matrix is not established, it just
    /// exists).
    pub qps_established: u64,
    /// Lazy connections: queue pairs this rank opened as a receiver after
    /// doorbell discovery of a new sender.
    pub qps_opened: u64,
    /// Lazy connections: messages funnelled through a shared receive queue
    /// (the cold path before promotion / past the QP budget).
    pub srq_msgs: u64,
    /// Receive-side per-sender ring probes. An idle rank must keep this flat
    /// regardless of world size — the doorbell regression tests assert on it.
    pub ring_probes: u64,
    /// Doorbell rings performed on the send side (one per chunk enqueued into
    /// a dedicated queue pair).
    pub doorbell_rings: u64,
}

/// The live, shared form of [`TransportStats`]: relaxed atomics bumped on the
/// message hot path, shared (`Arc`) between the transport and the
/// communicator layer so `Comm::stats` and the collective-accounting bumps
/// never take the transport lock. Relaxed ordering is sufficient — counters
/// are pure telemetry; nothing synchronizes through them (the data they
/// describe is published by the transport's own synchronization).
#[derive(Debug, Default)]
pub struct TransportCounters {
    /// Two-sided messages sent.
    pub msgs_sent: AtomicU64,
    /// Two-sided payload bytes sent.
    pub bytes_sent: AtomicU64,
    /// Two-sided messages received.
    pub msgs_received: AtomicU64,
    /// Two-sided payload bytes received.
    pub bytes_received: AtomicU64,
    /// One-sided put operations issued.
    pub puts: AtomicU64,
    /// One-sided get operations issued.
    pub gets: AtomicU64,
    /// Bytes written by put/accumulate.
    pub rma_bytes_written: AtomicU64,
    /// Bytes read by get.
    pub rma_bytes_read: AtomicU64,
    /// Collective operations executed through this rank.
    pub collectives: AtomicU64,
    /// Payload bytes contributed to collectives by this rank.
    pub collective_bytes: AtomicU64,
    /// Lazy connections: dedicated queue pairs established as a sender.
    pub qps_established: AtomicU64,
    /// Lazy connections: queue pairs opened as a receiver.
    pub qps_opened: AtomicU64,
    /// Lazy connections: messages funnelled through a shared receive queue.
    pub srq_msgs: AtomicU64,
    /// Receive-side per-sender ring probes.
    pub ring_probes: AtomicU64,
    /// Doorbell rings performed on the send side.
    pub doorbell_rings: AtomicU64,
}

impl TransportCounters {
    /// Relaxed increment helper: `counters.add(&counters.msgs_sent, 1)` reads
    /// poorly — call as `TransportCounters::bump(&self.stats.msgs_sent, 1)`.
    #[inline]
    pub fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot the counters into the plain reporting struct.
    pub fn snapshot(&self) -> TransportStats {
        TransportStats {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            msgs_received: self.msgs_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            rma_bytes_written: self.rma_bytes_written.load(Ordering::Relaxed),
            rma_bytes_read: self.rma_bytes_read.load(Ordering::Relaxed),
            collectives: self.collectives.load(Ordering::Relaxed),
            collective_bytes: self.collective_bytes.load(Ordering::Relaxed),
            qps_established: self.qps_established.load(Ordering::Relaxed),
            qps_opened: self.qps_opened.load(Ordering::Relaxed),
            srq_msgs: self.srq_msgs.load(Ordering::Relaxed),
            ring_probes: self.ring_probes.load(Ordering::Relaxed),
            doorbell_rings: self.doorbell_rings.load(Ordering::Relaxed),
        }
    }
}

/// Resume state of one message sent through
/// [`Transport::try_send_progress`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SendCursor {
    /// Chunks already published. `0` means nothing of the message is
    /// visible to the receiver yet, so the caller may still defer it.
    pub(crate) chunks: usize,
    /// Whether the once-per-message entry work (fault hook, software
    /// overhead) is done.
    pub(crate) entered: bool,
}

/// Geometry of a communicator's shared exposure window, as reported by
/// [`Transport::dp_window`]: what the collective builders need to decide
/// whether a payload fits the single-copy data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpWindow {
    /// Usable bytes in one exposure slot (a collective whose shared footprint
    /// exceeds this falls back to the ring path).
    pub slot_bytes: usize,
    /// Exposure slots per rank (consecutive collectives rotate through them).
    pub slots: usize,
}

/// Counters for the shared-window single-copy data plane, surfaced in
/// [`crate::runtime::RankReport::data_plane`]. The transport maintains the
/// window and per-op counters; the communicator layer adds the per-path
/// collective split (how many collectives ran single-copy vs ring).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataPlaneStats {
    /// Exposure windows created (once per communicator, amortized over every
    /// collective start on it).
    pub window_setups: u64,
    /// Window creations that failed gracefully (pool exhausted); the
    /// communicator runs ring-only.
    pub window_failures: u64,
    /// Collectives that ran on the single-copy shared-window path.
    pub shm_colls: u64,
    /// Collectives of the data-plane-eligible kinds (bcast, reduce,
    /// allreduce, allgather) that ran on the ring path instead.
    pub ring_colls: u64,
    /// Payload bytes this rank contributed to single-copy collectives.
    pub shm_bytes: u64,
    /// Payload bytes this rank contributed to ring-path eligible collectives.
    pub ring_bytes: u64,
    /// Expose operations (buffer published into a window slot).
    pub expose_ops: u64,
    /// Pull operations (reader copied from a peer's exposed slot).
    pub pull_ops: u64,
    /// Notify waits completed (writer observed a reader's ack).
    pub notify_waits: u64,
    /// Bytes published into window slots.
    pub bytes_exposed: u64,
    /// Bytes pulled out of peers' window slots.
    pub bytes_pulled: u64,
}

impl DataPlaneStats {
    /// Fold another snapshot's counters into this one.
    pub fn merge(&mut self, other: &DataPlaneStats) {
        self.window_setups += other.window_setups;
        self.window_failures += other.window_failures;
        self.shm_colls += other.shm_colls;
        self.ring_colls += other.ring_colls;
        self.shm_bytes += other.shm_bytes;
        self.ring_bytes += other.ring_bytes;
        self.expose_ops += other.expose_ops;
        self.pull_ops += other.pull_ops;
        self.notify_waits += other.notify_waits;
        self.bytes_exposed += other.bytes_exposed;
        self.bytes_pulled += other.bytes_pulled;
    }
}

fn no_data_plane<T>() -> Result<T> {
    Err(crate::error::MpiError::Transport(
        "data-plane operation on a transport without a shared window".into(),
    ))
}

/// A point-to-point + RMA transport bound to one rank.
///
/// Every operation takes the rank's virtual clock and advances it by the
/// modelled cost of the operation; blocking operations merge the peer's
/// published timestamps so virtual time stays causally consistent.
pub trait Transport: Send {
    /// This rank's index.
    fn rank(&self) -> Rank;
    /// Number of ranks in the universe.
    fn size(&self) -> usize;

    /// Blocking standard-mode send (eager: completes locally once the message
    /// is handed to the queue / NIC). `dst` is a world rank; `ctx` is the
    /// communicator context id woven into the wire-level tag so that receives
    /// posted on other communicators can never match this message.
    fn send(
        &mut self,
        clock: &mut SimClock,
        dst: Rank,
        ctx: CtxId,
        tag: Tag,
        data: &[u8],
    ) -> Result<()>;

    /// Blocking receive of the next message on communicator `ctx` matching the
    /// selectors (world source rank, tag), returning the payload in a freshly
    /// allocated buffer.
    fn recv_owned(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<(Status, Vec<u8>)>;

    /// Non-blocking variant of [`Transport::recv_owned`].
    fn try_recv_owned(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<Option<(Status, Vec<u8>)>>;

    /// Barrier across every rank in the universe.
    fn barrier(&mut self, clock: &mut SimClock) -> Result<()>;

    // ------------------------------------------------------------------
    // One-sided (RMA)
    // ------------------------------------------------------------------

    /// Collectively allocate an RMA window with `size_per_rank` bytes exposed
    /// by every rank. Every rank must call this in the same order.
    fn win_allocate(&mut self, clock: &mut SimClock, size_per_rank: usize) -> Result<WinId>;

    /// Collectively free a window.
    fn win_free(&mut self, clock: &mut SimClock, win: WinId) -> Result<()>;

    /// One-sided write into `target`'s window region.
    fn put(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        target: Rank,
        offset: usize,
        data: &[u8],
    ) -> Result<()>;

    /// One-sided read from `target`'s window region.
    fn get(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        target: Rank,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<()>;

    /// One-sided element-wise accumulate of `f64` values into `target`'s
    /// window region.
    fn accumulate(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        target: Rank,
        offset: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<()>;

    /// Read this rank's own window region.
    fn win_read_local(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<()>;

    /// Write this rank's own window region.
    fn win_write_local(
        &mut self,
        clock: &mut SimClock,
        win: WinId,
        offset: usize,
        data: &[u8],
    ) -> Result<()>;

    /// PSCW: open an exposure epoch for the given origin ranks (`MPI_Win_post`).
    fn post(&mut self, clock: &mut SimClock, win: WinId, origins: &[Rank]) -> Result<()>;

    /// PSCW: open an access epoch to the given target ranks (`MPI_Win_start`).
    fn start(&mut self, clock: &mut SimClock, win: WinId, targets: &[Rank]) -> Result<()>;

    /// PSCW: close the access epoch (`MPI_Win_complete`).
    fn complete(&mut self, clock: &mut SimClock, win: WinId) -> Result<()>;

    /// PSCW: close the exposure epoch (`MPI_Win_wait`).
    fn wait(&mut self, clock: &mut SimClock, win: WinId) -> Result<()>;

    /// Passive-target exclusive lock on `target`'s window.
    fn lock(&mut self, clock: &mut SimClock, win: WinId, target: Rank) -> Result<()>;

    /// Release the passive-target lock on `target`'s window.
    fn unlock(&mut self, clock: &mut SimClock, win: WinId, target: Rank) -> Result<()>;

    /// Fence synchronization across all ranks of the window (`MPI_Win_fence`).
    fn fence(&mut self, clock: &mut SimClock, win: WinId) -> Result<()>;

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Operation counters (a snapshot of [`Transport::stats_handle`]).
    fn stats(&self) -> TransportStats {
        self.stats_handle().snapshot()
    }

    /// Shared handle onto the live operation counters, so the communicator
    /// layer can read (and bump the collective counters of) the stats without
    /// holding the transport lock.
    fn stats_handle(&self) -> Arc<TransportCounters>;

    /// Record one collective operation contributing `payload_bytes` from this
    /// rank (bumped by the communicator layer, which is where collectives are
    /// implemented).
    fn record_collective(&self, payload_bytes: u64) {
        let stats = self.stats_handle();
        TransportCounters::bump(&stats.collectives, 1);
        TransportCounters::bump(&stats.collective_bytes, payload_bytes);
    }

    /// Hint: how many communication pairs are concurrently active (used by the
    /// CXL contention model; ignored by transports that do not need it).
    fn set_concurrency_hint(&mut self, _pairs: usize) {}

    /// The standing concurrency hint, so scoped overrides (a hierarchical
    /// collective schedule whose leader phase crowds the device far less than
    /// the default estimate) can save and restore it.
    fn concurrency_hint(&self) -> usize {
        1
    }

    /// Human-readable transport label (used in benchmark output).
    fn label(&self) -> &'static str;

    /// One-line snapshot of internal progress state, embedded in stall panics
    /// so a wedged universe reports *what* each side was waiting on.
    fn debug_state(&self) -> String {
        String::new()
    }

    /// The universe's peer-death flag; spin loops above the transport (e.g.
    /// request combinators) thread it through their waits so they abort when
    /// a rank dies.
    fn poison(&self) -> &PoisonFlag;

    /// Blocking receive into a caller-provided buffer, with MPI truncation
    /// semantics (error if the matched message is longer than the buffer).
    ///
    /// Transports override this with an allocation-free implementation (the
    /// CXL transport streams chunk payloads straight from the ring cells into
    /// `buf`); the default is a correct but copying fallback.
    fn recv_into(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
        buf: &mut [u8],
    ) -> Result<Status> {
        let (status, data) = self.recv_owned(clock, ctx, src, tag)?;
        if data.len() > buf.len() {
            return Err(crate::error::MpiError::Truncation {
                message_len: data.len(),
                buffer_len: buf.len(),
            });
        }
        buf[..data.len()].copy_from_slice(&data);
        Ok(status)
    }

    /// Make nonblocking progress on sending `data` to `dst`: `cursor` is the
    /// resume state (start from [`SendCursor::default`] for a fresh message,
    /// pass the same value back on re-entry). Returns `true` once the whole
    /// message has been handed off, `false` — without blocking — when
    /// transport flow control (a full ring whose receiver has not drained)
    /// stops the send partway. The progress engine uses this for schedule
    /// `Send` ops so that two ranks driving independent outstanding
    /// schedules can never wedge inside each other's blocking sends.
    ///
    /// The default forwards to the blocking [`Transport::send`], which is
    /// correct for transports whose sends never block on a peer (the TCP
    /// fabric channel is unbounded).
    fn try_send_progress(
        &mut self,
        clock: &mut SimClock,
        dst: Rank,
        ctx: CtxId,
        tag: Tag,
        data: &[u8],
        cursor: &mut SendCursor,
    ) -> Result<bool> {
        debug_assert_eq!(cursor.chunks, 0, "default try_send_progress cannot resume");
        self.send(clock, dst, ctx, tag, data)?;
        cursor.chunks = 1;
        Ok(true)
    }

    /// Opportunistically move fully-arrived messages off the wire into local
    /// staging (the unexpected-message queue / endpoint stash) without
    /// matching them against any receive. Returns how many messages were
    /// moved. Called by the progress engine (`Comm::progress`) so that a rank
    /// deep in user compute still frees transport flow-control resources —
    /// ring cells on the CXL transport — letting its peers' sends complete.
    /// The default is a no-op for transports without sender-visible flow
    /// control.
    fn poll_incoming(&mut self, _clock: &mut SimClock) -> Result<usize> {
        Ok(0)
    }

    // ------------------------------------------------------------------
    // Shared-window single-copy data plane
    // ------------------------------------------------------------------
    //
    // The CXL transport exposes a per-communicator slotted window in the
    // shared pool (see `cxl-shm`'s `slots` module) so collectives can move
    // payloads with one coherent copy and flag-based completion instead of
    // two ring copies plus per-chunk headers. Transports without shared
    // memory keep the defaults: no window is ever offered, so plans never
    // contain data-plane ops and the erroring op defaults are unreachable.

    /// Collectively establish the exposure window for communicator `ctx`
    /// over `group` (world ranks, group order), with `arena_bytes` of data
    /// capacity per rank split into `slots` slots. Blocking and collective:
    /// every member must call it at the same point (communicator creation).
    /// Returns the window geometry, or `None` — permanently, memoized — when
    /// the transport has no shared pool or creation failed gracefully.
    fn dp_ensure(
        &mut self,
        _clock: &mut SimClock,
        _ctx: CtxId,
        _group: &[Rank],
        _arena_bytes: usize,
        _slots: usize,
    ) -> Result<Option<DpWindow>> {
        Ok(None)
    }

    /// Geometry of the established window for `ctx`, if any (cheap lookup;
    /// consulted by the collective builders on every plan-cache miss).
    fn dp_window(&self, _ctx: CtxId) -> Option<DpWindow> {
        None
    }

    /// Publish `data` at `region_off` within this rank's slot for collective
    /// `seq`, then raise the slot's `phase` flag. Returns `false` — without
    /// blocking — while the slot is still held by an unretired earlier
    /// collective.
    fn dp_expose(
        &mut self,
        _clock: &mut SimClock,
        _ctx: CtxId,
        _seq: u32,
        _phase: u8,
        _region_off: usize,
        _data: &[u8],
    ) -> Result<bool> {
        no_data_plane()
    }

    /// Copy `buf.len()` bytes from `src_off` within group-member
    /// `writer_idx`'s slot for collective `seq`, once that slot's `phase`
    /// flag is up (returns `false` without blocking until then). With `ack`,
    /// also stores this rank's ack for the writer — the reader's promise
    /// that this was its last read from that slot.
    #[allow(clippy::too_many_arguments)]
    fn dp_pull(
        &mut self,
        _clock: &mut SimClock,
        _ctx: CtxId,
        _seq: u32,
        _writer_idx: usize,
        _phase: u8,
        _src_off: usize,
        _buf: &mut [u8],
        _ack: bool,
    ) -> Result<bool> {
        no_data_plane()
    }

    /// Wait (non-blockingly: `false` = not yet) for group-member
    /// `reader_idx`'s ack of this rank's slot for collective `seq`. With
    /// `last`, the ack retires the slot for reuse by a later collective.
    fn dp_wait_ack(
        &mut self,
        _clock: &mut SimClock,
        _ctx: CtxId,
        _seq: u32,
        _reader_idx: usize,
        _last: bool,
    ) -> Result<bool> {
        no_data_plane()
    }

    /// Write off a dead group member's pending data-plane acknowledgements on
    /// `ctx`: for every slot this rank still holds exposed, store the ack the
    /// dead reader (`dead_reader_idx`, group index) will never send, so slot
    /// rotation can never wedge behind a corpse. Called by `Comm::shrink` on
    /// the revoked communicator. The default is a no-op for transports without
    /// a data plane.
    fn dp_write_off(
        &mut self,
        _clock: &mut SimClock,
        _ctx: CtxId,
        _dead_reader_idx: usize,
    ) -> Result<()> {
        Ok(())
    }

    /// Arm fault injection on this rank's transport (see [`FaultInjector`]).
    /// The default ignores the injector: such a transport never kills, which
    /// is safe — the fault-tolerance tests only assert on transports that
    /// support injection (both bundled transports do).
    fn set_fault_injector(&mut self, _injector: FaultInjector) {}

    /// Data-plane counters (window setups/failures and per-op traffic; the
    /// communicator layer adds the per-path collective split on top).
    fn dp_stats(&self) -> DataPlaneStats {
        DataPlaneStats::default()
    }

    /// Non-blocking variant of [`Transport::recv_into`]: `Ok(None)` when no
    /// matching message is currently available.
    fn try_recv_into(
        &mut self,
        clock: &mut SimClock,
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
        buf: &mut [u8],
    ) -> Result<Option<Status>> {
        let Some((status, data)) = self.try_recv_owned(clock, ctx, src, tag)? else {
            return Ok(None);
        };
        if data.len() > buf.len() {
            return Err(crate::error::MpiError::Truncation {
                message_len: data.len(),
                buffer_len: buf.len(),
            });
        }
        buf[..data.len()].copy_from_slice(&data);
        Ok(Some(status))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_default_is_zero() {
        let s = TransportStats::default();
        assert_eq!(s.msgs_sent, 0);
        assert_eq!(s.rma_bytes_read, 0);
    }
}
