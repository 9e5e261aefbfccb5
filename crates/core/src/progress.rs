//! The progress engine: immutable collective plans and resumable executions.
//!
//! Every collective algorithm in [`crate::coll`] is compiled into a
//! [`CollPlan`] — an **immutable**, buffer-agnostic, sequence-agnostic list of
//! point-to-point operations (`SchedOp::Send` / `SchedOp::Recv`), local
//! data movements (`SchedOp::Fold` / `SchedOp::Copy`) and shared-window
//! data-plane operations (`SchedOp::ExposeRead` / `SchedOp::PullCopy` /
//! `SchedOp::FoldInPlace` / `SchedOp::NotifyWait`) over two byte arenas:
//! the *primary* buffer (the user's payload) and a *scratch* buffer (algorithm
//! temporaries). Ops carry **tag offsets** (kind × step within the collective
//! tag layout), not wire tags: the per-start collective sequence number is
//! resolved against the offset only when the plan is *bound* to an
//! [`Execution`]. A plan is therefore a pure function of
//! (communicator, operation, shape, tuning) and can be cached and re-run any
//! number of times — the basis of the per-communicator plan cache
//! ([`crate::plan`]) and the MPI-4-style persistent collectives.
//!
//! An [`Execution`] is the lightweight per-start state: a shared handle to the
//! plan, the op cursor, the live sequence number and the owned scratch arena
//! (reused across restarts of a persistent collective). Ops execute strictly
//! in order, which preserves exactly the deadlock-safe orderings (lower rank
//! sends first, rank 0 of a ring receives first) the straight-line algorithms
//! used; op `i + 1` never starts before op `i` has completed.
//!
//! An execution can be driven two ways:
//!
//! * **to completion** ([`Execution::run`]) — the blocking collective API is
//!   bind-plan-then-run, so blocking, nonblocking and persistent collectives
//!   execute byte-identical plans and cannot diverge;
//! * **incrementally** ([`Execution::progress`]) — each call executes ops
//!   until one cannot complete (a `SchedOp::Recv` whose message has not
//!   arrived, probed through the transports' non-blocking `try_recv_into`
//!   path) and then returns. This is what `Comm::test`/`Comm::wait` (and the
//!   `*_any`/`*_all` combinators) call on a collective request, giving
//!   MPI-3-style compute/communication overlap.
//!
//! Who makes progress: in the default [`crate::config::ProgressMode::Polling`]
//! mode, the rank that holds the request, whenever it calls `test`/`wait`-
//! family functions — like MPICH's default configuration, communication
//! advances only inside MPI calls. In
//! [`crate::config::ProgressMode::Thread`] mode each rank additionally runs a
//! background progress thread (see `crate::engine`) that drives every
//! outstanding execution, so requests complete while the caller computes.
//! A `Send` op advances through the transports' nonblocking
//! [`Transport::try_send_progress`] path; while it waits (for ring space or
//! a missing message) the engine drains fully-arrived traffic off the wire
//! ([`Transport::poll_incoming`]), so peers blocked on flow control keep
//! moving and concurrent independent executions stay deadlock-free. One
//! commitment rule: once the first chunk of a multi-chunk message is in a
//! destination ring, the op finishes the message before control returns
//! (the SPSC rings require one whole message per sender at a time) — the
//! same liveness class as the blocking sends the schedules replaced.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use cmpi_fabric::SimClock;

use crate::coll::bind_coll_tag;
use crate::error::MpiError;
use crate::transport::{SendCursor, Transport};
use crate::types::{CtxId, Rank, ReduceOp, Status, Tag, COLL_TAG_BASE};
use crate::Result;

/// Which arena a plan op's byte range refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// The primary buffer (the user payload).
    Buf,
    /// The scratch buffer (algorithm temporaries).
    Scratch,
}

/// One step of a collective plan. Byte ranges are `[start, end)` within the
/// arena selected by the op's [`Loc`]. `tag_off` is the kind × step tag
/// offset; the wire tag is resolved against the execution's live sequence
/// number at run time (see [`crate::coll::bind_coll_tag`]), which is what
/// makes a plan reusable across starts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SchedOp {
    /// Send `loc[start..end]` to `peer` (a world rank).
    Send {
        /// Destination world rank.
        peer: Rank,
        /// Tag offset within the collective layout (kind and step only; the
        /// sequence salt is applied at bind time).
        tag_off: Tag,
        /// Source arena.
        loc: Loc,
        /// Byte range start.
        start: usize,
        /// Byte range end.
        end: usize,
    },
    /// Receive exactly `end - start` bytes from `peer` (world rank) into
    /// `loc[start..end]`.
    Recv {
        /// Source world rank.
        peer: Rank,
        /// Tag offset (see `Send`).
        tag_off: Tag,
        /// Destination arena.
        loc: Loc,
        /// Byte range start.
        start: usize,
        /// Byte range end.
        end: usize,
    },
    /// Element-wise reduce `src` into `dst` using the plan's fold function.
    /// The two ranges must have equal length and, within one arena, must be
    /// disjoint.
    Fold {
        /// Destination arena.
        dst_loc: Loc,
        /// Destination range start.
        dst_start: usize,
        /// Source arena.
        src_loc: Loc,
        /// Source range start.
        src_start: usize,
        /// Byte length of both ranges.
        len: usize,
    },
    /// Copy `src` to `dst` (ranges within one arena may overlap).
    Copy {
        /// Destination arena.
        dst_loc: Loc,
        /// Destination range start.
        dst_start: usize,
        /// Source arena.
        src_loc: Loc,
        /// Source range start.
        src_start: usize,
        /// Byte length of both ranges.
        len: usize,
    },
    /// Data plane: publish `loc[start..end]` at `region_off` within this
    /// rank's exposure slot for the execution's live sequence number, then
    /// raise the slot's `phase` flag. Pending (does not advance) while the
    /// slot is still held by an unretired earlier collective.
    ExposeRead {
        /// Publish phase within the collective (flag cell selector).
        phase: u8,
        /// Byte offset of the published region within the slot.
        region_off: usize,
        /// Source arena.
        loc: Loc,
        /// Byte range start.
        start: usize,
        /// Byte range end.
        end: usize,
    },
    /// Data plane: copy `len` bytes from `src_off` within group-member
    /// `writer_idx`'s exposed slot into `dst_loc[dst_start..]` once that
    /// slot's `phase` flag is up (pending until then). With `ack`, also
    /// acknowledge the writer — this was the reader's last read of the slot.
    PullCopy {
        /// Writer's index within the communicator group.
        writer_idx: usize,
        /// Publish phase whose flag gates the read.
        phase: u8,
        /// Whether to store the reader's ack after the copy.
        ack: bool,
        /// Byte offset of the source region within the writer's slot.
        src_off: usize,
        /// Byte length to pull.
        len: usize,
        /// Destination arena.
        dst_loc: Loc,
        /// Destination range start.
        dst_start: usize,
    },
    /// Data plane: like `PullCopy`, but element-wise folds the pulled bytes
    /// into the destination using the plan's reduction, staging them through
    /// `scratch[stage_off..stage_off + len]`.
    FoldInPlace {
        /// Writer's index within the communicator group.
        writer_idx: usize,
        /// Publish phase whose flag gates the read.
        phase: u8,
        /// Whether to store the reader's ack after the read.
        ack: bool,
        /// Byte offset of the source region within the writer's slot.
        src_off: usize,
        /// Byte length to pull and fold.
        len: usize,
        /// Destination arena.
        dst_loc: Loc,
        /// Destination range start.
        dst_start: usize,
        /// Staging offset in scratch for the pulled bytes.
        stage_off: usize,
    },
    /// Data plane: wait (pending until observed) for group-member
    /// `reader_idx`'s ack of this rank's exposed slot; with `last`, the ack
    /// retires the slot for reuse by a later collective.
    NotifyWait {
        /// Reader's index within the communicator group.
        reader_idx: usize,
        /// Whether this is the final ack the writer waits for.
        last: bool,
    },
}

/// Type-erased element-wise reduction over raw bytes (a monomorphized
/// `fold_bytes::<T>` stored as a function pointer, so plans stay
/// non-generic and a collective request can live inside a plain
/// [`crate::request::Request`]).
pub type FoldFn = fn(ReduceOp, &mut [u8], &[u8]);

/// Element-wise fold of `src` into `dst` interpreted as `T` values. Handles
/// unaligned buffers (nonblocking requests own plain `Vec<u8>` storage).
pub fn fold_bytes<T: crate::types::Reducible>(op: ReduceOp, dst: &mut [u8], src: &[u8]) {
    let esz = std::mem::size_of::<T>();
    debug_assert_eq!(dst.len(), src.len());
    debug_assert!(dst.len().is_multiple_of(esz));
    let n = dst.len() / esz;
    // Safety: T is Pod (any bit pattern valid, no padding); reads/writes are
    // unaligned-tolerant and in bounds by the length checks above.
    unsafe {
        let d = dst.as_mut_ptr().cast::<T>();
        let s = src.as_ptr().cast::<T>();
        for i in 0..n {
            let a = d.add(i).read_unaligned();
            let b = s.add(i).read_unaligned();
            d.add(i).write_unaligned(T::combine(op, a, b));
        }
    }
}

/// Outcome of one [`Execution::progress`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Whether the execution has run to completion.
    pub done: bool,
    /// Ops completed by this call.
    pub ops: usize,
}

/// The immutable compiled form of one collective operation from one rank's
/// perspective: the op list plus everything needed to bind and interpret an
/// execution over it. Buffer-agnostic (ops reference symbolic byte offsets
/// into the primary/scratch arenas) and sequence-agnostic (ops carry tag
/// *offsets*), so one plan serves any number of starts — cached plans back
/// both the repeated one-shot collectives and the persistent `*_init` API.
#[derive(Debug)]
pub struct CollPlan {
    pub(crate) ops: Vec<SchedOp>,
    /// Context id the collective runs under.
    ctx: CtxId,
    /// Reduction applied by `Fold` ops, if any.
    fold: Option<(ReduceOp, FoldFn)>,
    /// Arena holding the collective's result for this rank.
    pub(crate) result_loc: Loc,
    /// Byte range of the result within `result_loc`.
    pub(crate) result_range: (usize, usize),
    /// Byte range of this rank's *contribution* within the primary buffer —
    /// the region a persistent request re-reads at every start (and the one
    /// [`crate::request::Request::write_input`] rewrites between starts).
    pub(crate) input_range: (usize, usize),
    /// Scratch bytes an execution of the plan needs.
    pub(crate) scratch_len: usize,
    /// Estimated concurrent cross-host communication pairs while the plan
    /// executes, if the builder knows better than the transport's standing
    /// hint (hierarchical composites: only one leader per host crosses
    /// hosts). Applied to the transport around every progress call and
    /// restored afterwards, so the contention model sees the reduced crowd
    /// without disturbing unrelated traffic.
    pub(crate) pairs_hint: Option<usize>,
    /// Label of the algorithm this plan implements (surfaced in
    /// `RankReport::coll_algos`).
    pub label: &'static str,
}

impl CollPlan {
    /// Build a plan from its parts (used by the builders in [`crate::coll`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ops: Vec<SchedOp>,
        ctx: CtxId,
        fold: Option<(ReduceOp, FoldFn)>,
        result_loc: Loc,
        result_range: (usize, usize),
        input_range: (usize, usize),
        scratch_len: usize,
        label: &'static str,
    ) -> Self {
        CollPlan {
            ops,
            ctx,
            fold,
            result_loc,
            result_range,
            input_range,
            scratch_len,
            pairs_hint: None,
            label,
        }
    }

    /// Attach a concurrent cross-host pair estimate (see
    /// [`CollPlan::pairs_hint`]).
    pub(crate) fn with_pairs_hint(mut self, pairs: usize) -> Self {
        self.pairs_hint = Some(pairs);
        self
    }

    /// Context id the plan's traffic runs under.
    pub fn context_id(&self) -> CtxId {
        self.ctx
    }

    /// Total ops in the plan.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan has no ops (single-rank collectives).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Scratch bytes an execution of this plan allocates.
    pub fn scratch_len(&self) -> usize {
        self.scratch_len
    }

    /// Byte length of this rank's result.
    pub fn result_len(&self) -> usize {
        self.result_range.1 - self.result_range.0
    }

    /// Byte length of this rank's contribution region in the primary buffer.
    pub fn input_len(&self) -> usize {
        self.input_range.1 - self.input_range.0
    }
}

/// The lightweight per-start state of one collective: a shared handle to the
/// immutable [`CollPlan`], the op cursor, the live sequence number (salted
/// into every wire tag at op execution) and the owned scratch arena. Binding
/// a cached plan to a fresh execution is what a persistent `start()` — and
/// every cache-hit one-shot collective — does instead of re-planning.
#[derive(Debug)]
pub struct Execution {
    plan: Arc<CollPlan>,
    /// Next op to execute.
    pos: usize,
    /// Transport resume cursor of the in-flight `Send` op at `pos` (no
    /// chunks published between `progress` calls: a send that has committed
    /// its first chunk is finished within the same call to preserve ring
    /// contiguity).
    send_cursor: SendCursor,
    /// Live collective sequence number of this start.
    seq: u32,
    /// Scratch arena (kept across restarts, so persistent re-starts allocate
    /// nothing).
    scratch: Vec<u8>,
}

impl Execution {
    /// Bind `plan` to a fresh execution under sequence number `seq`.
    pub fn new(plan: Arc<CollPlan>, seq: u32) -> Self {
        let scratch = vec![0u8; plan.scratch_len];
        Execution {
            plan,
            pos: 0,
            send_cursor: SendCursor::default(),
            seq,
            scratch,
        }
    }

    /// The plan this execution runs.
    pub fn plan(&self) -> &CollPlan {
        &self.plan
    }

    /// The live sequence number of this start.
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// Rewind for a new start under sequence number `seq` (persistent
    /// collectives). The scratch arena is kept; plans write scratch before
    /// reading it, so no re-zeroing is needed.
    pub(crate) fn restart(&mut self, seq: u32) {
        debug_assert_eq!(
            self.send_cursor.chunks, 0,
            "restart of a mid-send execution"
        );
        self.pos = 0;
        self.send_cursor = SendCursor::default();
        self.seq = seq;
    }

    /// Whether every op has executed.
    pub fn is_complete(&self) -> bool {
        self.pos >= self.plan.ops.len()
    }

    /// Execute ops in order until one cannot complete, the execution
    /// finishes, or `budget` ops have run (`budget == 0` means unlimited).
    /// Returns whether the execution completed and how many ops this call
    /// executed.
    ///
    /// Nothing in here blocks on a peer: `Recv` ops probe via the
    /// transports' non-blocking `try_recv_into`, and `Send` ops advance via
    /// [`Transport::try_send_progress`] (resuming a partially-sent chunked
    /// message across calls). Whenever the current op cannot complete, the
    /// engine drains fully-arrived messages off the wire
    /// ([`Transport::poll_incoming`]) and retries — freeing ring cells keeps
    /// peers' sends moving, which makes concurrent independent executions
    /// deadlock-free without any global op ordering across them.
    pub fn progress(
        &mut self,
        t: &mut dyn Transport,
        clock: &mut SimClock,
        buf: &mut [u8],
        budget: usize,
    ) -> Result<StepOutcome> {
        // Plans with a better crowd estimate than the transport's standing
        // hint (hierarchical composites) scope it to their own execution.
        match self.plan.pairs_hint {
            None => self.progress_inner(t, clock, buf, budget),
            Some(pairs) => {
                let saved = t.concurrency_hint();
                t.set_concurrency_hint(pairs);
                let out = self.progress_inner(t, clock, buf, budget);
                t.set_concurrency_hint(saved);
                out
            }
        }
    }

    fn progress_inner(
        &mut self,
        t: &mut dyn Transport,
        clock: &mut SimClock,
        buf: &mut [u8],
        budget: usize,
    ) -> Result<StepOutcome> {
        let budget = if budget == 0 { usize::MAX } else { budget };
        let plan = Arc::clone(&self.plan);
        let ctx = plan.ctx;
        let mut completed = 0usize;
        while completed < budget {
            let Some(op) = plan.ops.get(self.pos) else {
                break;
            };
            match *op {
                SchedOp::Send {
                    peer,
                    tag_off,
                    loc,
                    start,
                    end,
                } => {
                    let tag = bind_coll_tag(tag_off, self.seq);
                    let data: &[u8] = &arena(loc, buf, &mut self.scratch)[start..end];
                    let mut backoff = crate::spin::SpinWait::new();
                    let poison = t.poison().clone();
                    loop {
                        if t.try_send_progress(clock, peer, ctx, tag, data, &mut self.send_cursor)?
                        {
                            break;
                        }
                        // Destination ring full. Drain our own inbound rings
                        // (unblocking the peers that must drain ours) before
                        // deciding how to wait.
                        let drained = t.poll_incoming(clock)?;
                        if self.send_cursor.chunks == 0 {
                            // Nothing committed yet: the op can be deferred
                            // freely. Retry only if the drain made progress.
                            if drained == 0 {
                                return Ok(StepOutcome {
                                    done: false,
                                    ops: completed,
                                });
                            }
                            continue;
                        }
                        // Mid-message: chunks already sit in the destination
                        // ring, and the ring's contiguity invariant (a whole
                        // message per sender before the next begins) forbids
                        // handing control back — another send to the same
                        // peer would interleave chunks and corrupt
                        // reassembly. Spin (poison-aware, still draining)
                        // until the receiver frees cells; same liveness class
                        // as the blocking sends these plans replaced.
                        if drained == 0 {
                            backoff.wait(&poison)?;
                        } else {
                            backoff.reset();
                        }
                    }
                    self.send_cursor = SendCursor::default();
                }
                SchedOp::Recv {
                    peer,
                    tag_off,
                    loc,
                    start,
                    end,
                } => {
                    let tag = bind_coll_tag(tag_off, self.seq);
                    let dst = &mut arena(loc, buf, &mut self.scratch)[start..end];
                    match t.try_recv_into(clock, ctx, Some(peer), Some(tag), dst)? {
                        Some(status) => {
                            if status.len != end - start {
                                return Err(MpiError::InvalidCollective(format!(
                                    "collective length mismatch: received {} bytes, expected {}",
                                    status.len,
                                    end - start
                                )));
                            }
                        }
                        None => {
                            // Keep inbound rings drained while we wait so no
                            // peer wedges on flow control; a drained message
                            // may be the one we need, so retry on progress.
                            if t.poll_incoming(clock)? == 0 {
                                return Ok(StepOutcome {
                                    done: false,
                                    ops: completed,
                                });
                            }
                            continue;
                        }
                    }
                }
                SchedOp::Fold {
                    dst_loc,
                    dst_start,
                    src_loc,
                    src_start,
                    len,
                } => {
                    let (op_kind, f) = plan.fold.ok_or_else(|| {
                        MpiError::InvalidCollective(
                            "plan contains Fold ops but no reduction".into(),
                        )
                    })?;
                    if dst_loc == src_loc {
                        let a = arena(dst_loc, buf, &mut self.scratch);
                        let (d, s) = disjoint_mut(a, dst_start, src_start, len)?;
                        f(op_kind, d, s);
                    } else {
                        let (d, s) =
                            cross_arena(dst_loc, buf, &mut self.scratch, dst_start, src_start, len);
                        f(op_kind, d, s);
                    }
                }
                SchedOp::Copy {
                    dst_loc,
                    dst_start,
                    src_loc,
                    src_start,
                    len,
                } => {
                    if dst_loc == src_loc {
                        arena(dst_loc, buf, &mut self.scratch)
                            .copy_within(src_start..src_start + len, dst_start);
                    } else {
                        let (d, s) =
                            cross_arena(dst_loc, buf, &mut self.scratch, dst_start, src_start, len);
                        d.copy_from_slice(s);
                    }
                }
                SchedOp::ExposeRead {
                    phase,
                    region_off,
                    loc,
                    start,
                    end,
                } => {
                    let data: &[u8] = &arena(loc, buf, &mut self.scratch)[start..end];
                    if !t.dp_expose(clock, ctx, self.seq, phase, region_off, data)? {
                        // Slot still held by an earlier collective: pending.
                        return Ok(StepOutcome {
                            done: false,
                            ops: completed,
                        });
                    }
                }
                SchedOp::PullCopy {
                    writer_idx,
                    phase,
                    ack,
                    src_off,
                    len,
                    dst_loc,
                    dst_start,
                } => {
                    let dst =
                        &mut arena(dst_loc, buf, &mut self.scratch)[dst_start..dst_start + len];
                    if !t.dp_pull(clock, ctx, self.seq, writer_idx, phase, src_off, dst, ack)? {
                        // Writer's flag not up yet: pending.
                        return Ok(StepOutcome {
                            done: false,
                            ops: completed,
                        });
                    }
                }
                SchedOp::FoldInPlace {
                    writer_idx,
                    phase,
                    ack,
                    src_off,
                    len,
                    dst_loc,
                    dst_start,
                    stage_off,
                } => {
                    let (op_kind, f) = plan.fold.ok_or_else(|| {
                        MpiError::InvalidCollective(
                            "plan contains FoldInPlace ops but no reduction".into(),
                        )
                    })?;
                    {
                        let stage = &mut self.scratch[stage_off..stage_off + len];
                        if !t
                            .dp_pull(clock, ctx, self.seq, writer_idx, phase, src_off, stage, ack)?
                        {
                            return Ok(StepOutcome {
                                done: false,
                                ops: completed,
                            });
                        }
                    }
                    match dst_loc {
                        Loc::Scratch => {
                            let (d, s) =
                                disjoint_mut(&mut self.scratch, dst_start, stage_off, len)?;
                            f(op_kind, d, s);
                        }
                        Loc::Buf => {
                            let d = &mut buf[dst_start..dst_start + len];
                            f(op_kind, d, &self.scratch[stage_off..stage_off + len]);
                        }
                    }
                }
                SchedOp::NotifyWait { reader_idx, last } => {
                    if !t.dp_wait_ack(clock, ctx, self.seq, reader_idx, last)? {
                        // Reader has not acked yet: pending.
                        return Ok(StepOutcome {
                            done: false,
                            ops: completed,
                        });
                    }
                }
            }
            self.pos += 1;
            completed += 1;
        }
        Ok(StepOutcome {
            done: self.is_complete(),
            ops: completed,
        })
    }

    /// Drive the execution to completion with tiered backoff between pending
    /// probes — the blocking execution mode backing the blocking collective
    /// API. Aborts with [`MpiError::PeerDead`] if the universe is poisoned.
    pub fn run(
        &mut self,
        t: &mut dyn Transport,
        clock: &mut SimClock,
        buf: &mut [u8],
    ) -> Result<()> {
        let poison = t.poison().clone();
        let mut backoff = crate::spin::SpinWait::new();
        loop {
            let step = self.progress(t, clock, buf, 0)?;
            if step.done {
                return Ok(());
            }
            if step.ops > 0 {
                backoff.reset();
            }
            backoff.wait(&poison)?;
        }
    }

    /// Execute a plan that consists solely of `Send` ops reading from the
    /// primary arena, against an *immutable* buffer. Used by blocking
    /// collectives on their pure-sender roles (gather non-root, scatter root),
    /// whose user buffers are `&[T]`: the op list is identical to what the
    /// nonblocking path executes, just driven without a mutable view.
    pub(crate) fn run_send_only(
        &mut self,
        t: &mut dyn Transport,
        clock: &mut SimClock,
        buf: &[u8],
    ) -> Result<()> {
        let plan = Arc::clone(&self.plan);
        while let Some(op) = plan.ops.get(self.pos) {
            match *op {
                SchedOp::Send {
                    peer,
                    tag_off,
                    loc: Loc::Buf,
                    start,
                    end,
                } => {
                    let tag = bind_coll_tag(tag_off, self.seq);
                    t.send(clock, peer, plan.ctx, tag, &buf[start..end])?
                }
                ref other => {
                    return Err(MpiError::InvalidCollective(format!(
                        "send-only plan contains a non-send op: {other:?}"
                    )))
                }
            }
            self.pos += 1;
        }
        Ok(())
    }

    /// The result bytes of a completed execution over `buf`.
    pub(crate) fn result_slice<'a>(&'a self, buf: &'a [u8]) -> &'a [u8] {
        let (lo, hi) = self.plan.result_range;
        match self.plan.result_loc {
            Loc::Buf => &buf[lo..hi],
            Loc::Scratch => &self.scratch[lo..hi],
        }
    }
}

/// Select an arena mutably.
fn arena<'a>(loc: Loc, buf: &'a mut [u8], scratch: &'a mut [u8]) -> &'a mut [u8] {
    match loc {
        Loc::Buf => buf,
        Loc::Scratch => scratch,
    }
}

/// Destination range in `dst_loc`'s arena plus source range in the *other*
/// arena (the cross-arena case of `Fold`/`Copy`, where the borrows are
/// naturally disjoint).
fn cross_arena<'a>(
    dst_loc: Loc,
    buf: &'a mut [u8],
    scratch: &'a mut [u8],
    dst_start: usize,
    src_start: usize,
    len: usize,
) -> (&'a mut [u8], &'a [u8]) {
    match dst_loc {
        Loc::Buf => (
            &mut buf[dst_start..dst_start + len],
            &scratch[src_start..src_start + len],
        ),
        Loc::Scratch => (
            &mut scratch[dst_start..dst_start + len],
            &buf[src_start..src_start + len],
        ),
    }
}

/// Two non-overlapping mutable ranges of one slice, via `split_at_mut`.
fn disjoint_mut(
    a: &mut [u8],
    dst_start: usize,
    src_start: usize,
    len: usize,
) -> Result<(&mut [u8], &[u8])> {
    if dst_start + len <= src_start {
        let (lo, hi) = a.split_at_mut(src_start);
        Ok((&mut lo[dst_start..dst_start + len], &hi[..len]))
    } else if src_start + len <= dst_start {
        let (lo, hi) = a.split_at_mut(dst_start);
        Ok((&mut hi[..len], &lo[src_start..src_start + len]))
    } else {
        Err(MpiError::InvalidCollective(format!(
            "fold ranges overlap: dst {dst_start}+{len} vs src {src_start}+{len}"
        )))
    }
}

/// The owned execution state of one nonblocking (or persistent) collective:
/// the bound execution plus the primary buffer it runs over. Lives inside a
/// [`crate::request::Request`]; a one-shot completion consumes it via
/// [`CollState::finish`], a persistent completion keeps it for the next
/// `start`.
#[derive(Debug)]
pub struct CollState {
    /// The bound execution (plan handle + cursor + seq + scratch).
    pub exec: Execution,
    /// Primary arena (owned copy of the user payload).
    pub buf: Vec<u8>,
    /// This rank's local rank (stamped into the completion status).
    pub rank: Rank,
}

impl CollState {
    /// Package a bound execution with an owned payload.
    pub fn new(exec: Execution, buf: Vec<u8>, rank: Rank) -> Self {
        CollState { exec, buf, rank }
    }

    /// One incremental progress attempt (see [`Execution::progress`]).
    pub fn progress(
        &mut self,
        t: &mut dyn Transport,
        clock: &mut SimClock,
        budget: usize,
    ) -> Result<StepOutcome> {
        self.exec.progress(t, clock, &mut self.buf, budget)
    }

    /// Completion status of a finished execution (without consuming the
    /// state — the persistent path, which keeps buffers for the next start).
    pub fn completion_status(&self) -> Status {
        debug_assert!(self.exec.is_complete());
        Status::new(self.rank, COLL_TAG_BASE, self.exec.plan().result_len())
    }

    /// The result bytes of a finished execution (borrowed — the persistent
    /// read path).
    pub fn result_bytes(&self) -> &[u8] {
        debug_assert!(self.exec.is_complete());
        self.exec.result_slice(&self.buf)
    }

    /// Overwrite this rank's contribution region of the primary buffer (the
    /// persistent rebind between starts). `bytes` must match the plan's
    /// declared input length exactly.
    pub fn write_input(&mut self, bytes: &[u8]) -> Result<()> {
        let (lo, hi) = self.exec.plan().input_range;
        if bytes.len() != hi - lo {
            return Err(MpiError::InvalidCollective(format!(
                "persistent input of {} bytes does not match the bound contribution of {}",
                bytes.len(),
                hi - lo
            )));
        }
        self.buf[lo..hi].copy_from_slice(bytes);
        Ok(())
    }

    /// Extract the completion status and result bytes of a finished one-shot
    /// execution.
    pub fn finish(mut self) -> (Status, Vec<u8>) {
        debug_assert!(self.exec.is_complete());
        let (lo, hi) = self.exec.plan().result_range;
        let data = match self.exec.plan().result_loc {
            // Full-buffer results hand the allocation over without a copy.
            Loc::Buf if lo == 0 && hi == self.buf.len() => std::mem::take(&mut self.buf),
            Loc::Buf => self.buf[lo..hi].to_vec(),
            Loc::Scratch => self.exec.result_slice(&self.buf).to_vec(),
        };
        (Status::new(self.rank, COLL_TAG_BASE, data.len()), data)
    }
}

/// Per-rank progress-engine counters, surfaced in
/// [`crate::runtime::RankReport::progress`]. The split between `*_in_test`
/// and `*_in_wait` is the overlap metric: ops serviced by `test`-family calls
/// ran during user compute, ops serviced inside a terminal `wait` did not.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProgressStats {
    /// Nonblocking collectives started (`i*` calls and persistent starts).
    pub colls_started: u64,
    /// Nonblocking collectives completed.
    pub colls_completed: u64,
    /// Persistent-request starts (`start`/`startall`), a subset of
    /// `colls_started`.
    pub persistent_starts: u64,
    /// Progress polls from `test`/`test_any`/`test_all` (user-compute
    /// context).
    pub test_polls: u64,
    /// Progress polls from inside blocking `wait`/`wait_any`.
    pub wait_polls: u64,
    /// Schedule ops serviced during `test`-family polls — progress made
    /// *during user compute*, the overlap figure of merit.
    pub ops_in_test: u64,
    /// Schedule ops serviced inside blocking waits.
    pub ops_in_wait: u64,
    /// Schedule ops serviced by the background progress thread
    /// ([`crate::config::ProgressMode::Thread`]) — like `ops_in_test`, these
    /// ran during user compute, so they count toward the overlap figure of
    /// merit. Always 0 in `Polling` mode.
    pub ops_in_thread: u64,
    /// Explicit [`crate::comm::Comm::progress`] calls.
    pub transport_drains: u64,
    /// Messages moved off the wire into local staging by those calls.
    pub drained_messages: u64,
}

/// The live, shared form of [`ProgressStats`]: relaxed atomics bumped on the
/// hot path (a counter bump is never a synchronization point — the data it
/// describes is published by the transport locks), snapshotted into the plain
/// struct by [`ProgressCounters::snapshot`] for reporting.
#[derive(Debug, Default)]
pub(crate) struct ProgressCounters {
    pub(crate) colls_started: AtomicU64,
    pub(crate) colls_completed: AtomicU64,
    pub(crate) persistent_starts: AtomicU64,
    pub(crate) test_polls: AtomicU64,
    pub(crate) wait_polls: AtomicU64,
    pub(crate) ops_in_test: AtomicU64,
    pub(crate) ops_in_wait: AtomicU64,
    pub(crate) ops_in_thread: AtomicU64,
    pub(crate) transport_drains: AtomicU64,
    pub(crate) drained_messages: AtomicU64,
}

impl ProgressCounters {
    /// Relaxed increment helper: `add(&self.ops_in_test, n)`.
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, AtomicOrdering::Relaxed);
    }

    /// Snapshot the counters into the reporting struct.
    pub(crate) fn snapshot(&self) -> ProgressStats {
        ProgressStats {
            colls_started: self.colls_started.load(AtomicOrdering::Relaxed),
            colls_completed: self.colls_completed.load(AtomicOrdering::Relaxed),
            persistent_starts: self.persistent_starts.load(AtomicOrdering::Relaxed),
            test_polls: self.test_polls.load(AtomicOrdering::Relaxed),
            wait_polls: self.wait_polls.load(AtomicOrdering::Relaxed),
            ops_in_test: self.ops_in_test.load(AtomicOrdering::Relaxed),
            ops_in_wait: self.ops_in_wait.load(AtomicOrdering::Relaxed),
            ops_in_thread: self.ops_in_thread.load(AtomicOrdering::Relaxed),
            transport_drains: self.transport_drains.load(AtomicOrdering::Relaxed),
            drained_messages: self.drained_messages.load(AtomicOrdering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_bytes_is_elementwise_and_unaligned_safe() {
        let a: Vec<u64> = vec![1, 2, 3];
        let b: Vec<u64> = vec![10, 20, 30];
        // Deliberately misalign by prefixing one byte.
        let mut dst = [0u8; 25];
        dst[1..].copy_from_slice(crate::pod::bytes_of(&a));
        let mut src = [0u8; 25];
        src[1..].copy_from_slice(crate::pod::bytes_of(&b));
        fold_bytes::<u64>(ReduceOp::Sum, &mut dst[1..], &src[1..]);
        let out: Vec<u64> = crate::pod::vec_from_bytes(&dst[1..]);
        assert_eq!(out, vec![11, 22, 33]);
    }

    #[test]
    fn disjoint_mut_rejects_overlap() {
        let mut a = vec![0u8; 16];
        assert!(disjoint_mut(&mut a, 0, 8, 8).is_ok());
        assert!(disjoint_mut(&mut a, 8, 0, 8).is_ok());
        assert!(disjoint_mut(&mut a, 0, 4, 8).is_err());
    }

    #[test]
    fn plan_bookkeeping() {
        let plan = CollPlan::new(
            Vec::new(),
            3,
            Some((ReduceOp::Sum, fold_bytes::<u64> as FoldFn)),
            Loc::Scratch,
            (8, 16),
            (0, 4),
            16,
            "test/local",
        );
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert_eq!(plan.context_id(), 3);
        assert_eq!(plan.scratch_len(), 16);
        assert_eq!(plan.result_len(), 8);
        assert_eq!(plan.input_len(), 4);
        let mut exec = Execution::new(Arc::new(plan), 7);
        assert!(exec.is_complete());
        assert_eq!(exec.seq(), 7);
        exec.scratch.copy_from_slice(&(0..16).collect::<Vec<u8>>());
        let buf = vec![0u8; 4];
        assert_eq!(exec.result_slice(&buf), &(8..16).collect::<Vec<u8>>()[..]);
        // Restart rewinds the cursor and swaps the live sequence number.
        exec.restart(9);
        assert_eq!(exec.seq(), 9);
        assert!(exec.is_complete()); // empty plan
    }

    #[test]
    fn coll_state_full_buffer_result_moves_allocation() {
        let plan = CollPlan::new(
            Vec::new(),
            0,
            None,
            Loc::Buf,
            (0, 8),
            (0, 8),
            0,
            "test/local",
        );
        let buf: Vec<u8> = (0..8).collect();
        let ptr = buf.as_ptr();
        let state = CollState::new(Execution::new(Arc::new(plan), 0), buf, 2);
        assert_eq!(state.completion_status().len, 8);
        assert_eq!(state.result_bytes(), (0..8).collect::<Vec<u8>>());
        let (status, data) = state.finish();
        assert_eq!(status.source, 2);
        assert_eq!(status.len, 8);
        assert_eq!(data.as_ptr(), ptr);
        assert_eq!(data, (0..8).collect::<Vec<u8>>());
    }

    #[test]
    fn coll_state_write_input_targets_the_contribution_region() {
        let plan = CollPlan::new(
            Vec::new(),
            0,
            None,
            Loc::Buf,
            (0, 8),
            (4, 8),
            0,
            "test/local",
        );
        let mut state = CollState::new(Execution::new(Arc::new(plan), 0), vec![0u8; 8], 0);
        assert!(state.write_input(&[1, 2, 3]).is_err());
        state.write_input(&[9, 9, 9, 9]).unwrap();
        assert_eq!(state.buf, vec![0, 0, 0, 0, 9, 9, 9, 9]);
    }
}
