//! The collective API of [`Comm`]: one **descriptor** per collective and
//! three thin start adapters.
//!
//! MPI-4.0 (§6.13) defines the blocking, nonblocking (`i*`) and persistent
//! (`*_init`) forms of a collective as one operation with three start
//! semantics, and the code has that shape. Each of the 13 operations has
//! exactly one [`CollDesc`] constructor, which holds the op's only argument
//! validation, its plan-cache key and its payload accounting. The public
//! methods set up buffers and hand the descriptor to one adapter:
//!
//! * `run_coll` — blocking: runs in place on the caller's buffer, or as a
//!   send-only run for a non-root gather or a root scatter (no extra copy);
//! * `start_coll` — `i*`: binds the plan to a pending request over an owned
//!   image of the payload;
//! * `init_coll` — `*_init`: binds the plan to an inactive persistent request
//!   over the same image ([`Comm::start`] activates it).
//!
//! The `i*` and `*_init` forms of an op share one image builder. Validation
//! runs in the constructor, before any side effect, so a rejected call draws
//! no collective sequence number and never touches the plan cache.
//!
//! A descriptor's builder is a plain `fn` (it cannot capture anything) that
//! reads every input from the [`PlanKey`]: root, bytes, count, reduction
//! operator, per-peer counts, and the element type through monomorphisation
//! (the key carries its `TypeId`). The plan cache's rule that equal keys
//! build identical plans therefore holds by construction.

use std::sync::Arc;

use super::Comm;
use crate::coll::{self, CommView};
use crate::config::{CollTuning, DataPlaneMode};
use crate::error::MpiError;
use crate::plan::{PlanKey, PlanOp};
use crate::pod::{bytes_of, bytes_of_mut, vec_from_bytes, Pod};
use crate::progress::{CollPlan, CollState, Execution, ProgressCounters};
use crate::request::{PersistentMeta, Request, RequestState};
use crate::spin::SpinWait;
use crate::topology::HostHierarchy;
use crate::transport::DpWindow;
use crate::types::{Rank, ReduceOp, Reducible, WORLD_CTX};
use crate::Result;

/// Compiles the plan of a key. The communicator, tuning, host hierarchy and
/// data-plane window are fixed per communicator, so they need no key
/// component (see [`crate::plan`]).
type BuildFn =
    fn(&CommView<'_>, &PlanKey, &CollTuning, Option<&HostHierarchy>, Option<DpWindow>) -> CollPlan;

/// One validated collective call: its plan-cache key, the builder of the
/// key's plan, and the payload bytes this rank contributes (counted in
/// [`super::CommCollStats`]).
struct CollDesc {
    key: PlanKey,
    build: BuildFn,
    payload_bytes: u64,
}

/// The buffer a blocking collective runs over.
enum Role<'a> {
    /// The plan runs in place: the buffer holds the input on entry and the
    /// result on exit.
    InPlace(&'a mut [u8]),
    /// A pure sender (non-root gather, root scatter): the plan only sends
    /// from the caller's immutable buffer.
    SendOnly(&'a [u8]),
}

/// A descriptor plus the owned primary buffer a nonblocking or persistent
/// request runs over.
type Staged = (CollDesc, Vec<u8>);

fn root(k: &PlanKey) -> Rank {
    k.root.expect("rooted plan key")
}

fn red(k: &PlanKey) -> ReduceOp {
    k.red.expect("reduction plan key")
}

fn check_root(v: &CommView<'_>, root: Rank) -> Result<()> {
    if root >= v.size() {
        return Err(MpiError::InvalidRank {
            rank: root,
            size: v.size(),
        });
    }
    Ok(())
}

/// Reject a missing buffer, or one that does not hold `n × block` elements.
fn check_len(what: &str, got: Option<usize>, n: usize, block: usize) -> Result<()> {
    match got {
        Some(len) if len == n * block => Ok(()),
        Some(len) => Err(MpiError::InvalidCollective(format!(
            "{what} has {len} elements, expected {} ({n} ranks × {block})",
            n * block
        ))),
        None => Err(MpiError::InvalidCollective(format!("{what} is missing"))),
    }
}

impl CollDesc {
    fn new(key: PlanKey, build: BuildFn, payload_bytes: usize) -> Self {
        CollDesc {
            key,
            build,
            payload_bytes: payload_bytes as u64,
        }
    }

    fn barrier() -> Self {
        let key = PlanKey::shaped(PlanOp::Barrier, 0);
        Self::new(key, |v, _, t, h, _| coll::build_barrier(v, t, h), 0)
    }

    fn bcast(v: &CommView<'_>, r: Rank, bytes: usize) -> Result<Self> {
        check_root(v, r)?;
        let key = PlanKey::rooted(PlanOp::Bcast, r, bytes);
        let build: BuildFn = |v, k, t, h, dp| coll::build_bcast(v, t, h, dp, root(k), k.bytes);
        Ok(Self::new(key, build, bytes))
    }

    /// `recv`: the element count of the root's receive buffer, if it passed
    /// one (ignored elsewhere).
    fn gather<T: Pod>(v: &CommView<'_>, r: Rank, send: usize, recv: Option<usize>) -> Result<Self> {
        check_root(v, r)?;
        if v.rank == r {
            check_len("gather root's receive buffer", recv, v.size(), send)?;
        }
        let block = send * std::mem::size_of::<T>();
        let key = PlanKey::rooted(PlanOp::Gather, r, block);
        let build: BuildFn = |v, k, _, _, _| coll::build_gather(v, root(k), k.bytes);
        Ok(Self::new(key, build, block))
    }

    /// `send`: the element count of the root's send buffer, if it passed one
    /// (ignored elsewhere).
    fn scatter<T: Pod>(
        v: &CommView<'_>,
        r: Rank,
        recv: usize,
        send: Option<usize>,
    ) -> Result<Self> {
        check_root(v, r)?;
        if v.rank == r {
            check_len("scatter root's send buffer", send, v.size(), recv)?;
        }
        let block = recv * std::mem::size_of::<T>();
        let key = PlanKey::rooted(PlanOp::Scatter, r, block);
        let build: BuildFn = |v, k, _, _, _| coll::build_scatter(v, root(k), k.bytes);
        Ok(Self::new(key, build, block))
    }

    fn allgather<T: Pod>(v: &CommView<'_>, send: usize, recv: usize) -> Result<Self> {
        check_len("allgather receive buffer", Some(recv), v.size(), send)?;
        let block = send * std::mem::size_of::<T>();
        let key = PlanKey::shaped(PlanOp::Allgather, block);
        let build: BuildFn = |v, k, t, h, dp| coll::build_allgather(v, t, h, dp, k.bytes);
        Ok(Self::new(key, build, block))
    }

    /// Shared by the five reduction-family constructors.
    fn fold<T: Reducible>(
        op: PlanOp,
        r: Option<Rank>,
        count: usize,
        red: ReduceOp,
        build: BuildFn,
    ) -> Self {
        let elem = std::mem::size_of::<T>();
        let key = PlanKey::reduction::<T>(op, r, count, elem, red);
        Self::new(key, build, count * elem)
    }

    fn reduce<T: Reducible>(v: &CommView<'_>, r: Rank, count: usize, op: ReduceOp) -> Result<Self> {
        check_root(v, r)?;
        let build: BuildFn =
            |v, k, t, h, dp| coll::build_reduce::<T>(v, t, h, dp, root(k), k.count, red(k));
        Ok(Self::fold::<T>(PlanOp::Reduce, Some(r), count, op, build))
    }

    fn allreduce<T: Reducible>(count: usize, op: ReduceOp) -> Self {
        Self::fold::<T>(PlanOp::Allreduce, None, count, op, |v, k, t, h, dp| {
            coll::build_allreduce::<T>(v, t, h, dp, k.count, red(k))
        })
    }

    fn reduce_scatter<T: Reducible>(v: &CommView<'_>, count: usize, op: ReduceOp) -> Result<Self> {
        if !count.is_multiple_of(v.size()) {
            return Err(MpiError::InvalidCollective(format!(
                "reduce_scatter input of {count} elements not divisible by {} ranks",
                v.size()
            )));
        }
        Ok(Self::fold::<T>(
            PlanOp::ReduceScatter,
            None,
            count,
            op,
            |v, k, t, _, _| coll::build_reduce_scatter::<T>(v, t, k.count, red(k)),
        ))
    }

    fn scan<T: Reducible>(count: usize, op: ReduceOp) -> Self {
        Self::fold::<T>(PlanOp::Scan, None, count, op, |v, k, _, _, _| {
            coll::build_scan::<T>(v, k.count, red(k))
        })
    }

    fn exscan<T: Reducible>(count: usize, op: ReduceOp) -> Self {
        Self::fold::<T>(PlanOp::Exscan, None, count, op, |v, k, _, _, _| {
            coll::build_exscan::<T>(v, k.count, red(k))
        })
    }

    fn alltoall<T: Pod>(v: &CommView<'_>, send: usize, recv: usize) -> Result<Self> {
        let n = v.size();
        if !send.is_multiple_of(n) || recv != send {
            return Err(MpiError::InvalidCollective(format!(
                "alltoall buffers must both hold size × block elements ({n} ranks, got send {send} / recv {recv})"
            )));
        }
        let block = send / n * std::mem::size_of::<T>();
        let key = PlanKey::shaped(PlanOp::Alltoall, block);
        let build: BuildFn = |v, k, t, h, dp| coll::build_alltoall(v, t, h, dp, k.bytes);
        Ok(Self::new(key, build, n * block))
    }

    fn alltoallv<T: Pod>(
        v: &CommView<'_>,
        send: usize,
        sc: &[usize],
        rc: &[usize],
    ) -> Result<Self> {
        Self::irregular(v, PlanOp::Alltoallv, send, sc, rc, std::mem::size_of::<T>())
    }

    fn alltoallw(v: &CommView<'_>, send: usize, sc: &[usize], rc: &[usize]) -> Result<Self> {
        Self::irregular(v, PlanOp::Alltoallw, send, sc, rc, 1)
    }

    /// Shared by `alltoallv` (`elem`-byte elements) and `alltoallw` (bytes):
    /// the key holds the send counts followed by the receive counts.
    fn irregular(
        v: &CommView<'_>,
        op: PlanOp,
        send: usize,
        sc: &[usize],
        rc: &[usize],
        elem: usize,
    ) -> Result<Self> {
        let (n, me) = (v.size(), v.rank);
        let name = if op == PlanOp::Alltoallw {
            "alltoallw"
        } else {
            "alltoallv"
        };
        let invalid = |msg: String| Err(MpiError::InvalidCollective(format!("{name} {msg}")));
        if sc.len() != n || rc.len() != n {
            return invalid(format!(
                "takes one send and one receive count per rank ({n} ranks, got {} / {})",
                sc.len(),
                rc.len()
            ));
        }
        let send_sum: usize = sc.iter().sum();
        if send != send_sum {
            return invalid(format!(
                "send buffer has {send} elements, counts sum to {send_sum}"
            ));
        }
        if sc[me] != rc[me] {
            return invalid(format!(
                "self segment disagrees: sending {} to self, expecting {}",
                sc[me], rc[me]
            ));
        }
        let key = PlanKey::irregular(op, [sc, rc].concat(), elem);
        let build: BuildFn = |v, k, _, _, _| {
            let (sc, rc) = k.counts.split_at(k.counts.len() / 2);
            coll::build_alltoallv(v, sc, rc, k.bytes, k.op == PlanOp::Alltoallw)
        };
        Ok(Self::new(key, build, send_sum * elem))
    }
}

impl Comm {
    /// The cached plan for `key` on this communicator, building (and caching)
    /// it with `build` on first use. Every collective start — blocking,
    /// nonblocking or persistent — funnels through here, so repeated shapes
    /// skip planning entirely (and every start inherits the
    /// [`Comm::ft_precheck`] failure gate); the cache is per context id and
    /// LRU-bounded by [`CollTuning::plan_cache_entries`].
    fn cached_plan(&self, key: PlanKey, build: BuildFn) -> Result<Arc<CollPlan>> {
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
        let plan = Arc::new(build(&self.view(), &key, &tuning, hier.as_deref(), dp));
        self.shard()
            .plans
            .insert(key, &plan, tuning.plan_cache_entries);
        Ok(plan)
    }

    /// Blocking adapter: bind the cached plan under the next sequence number,
    /// run it over `role`'s buffer, and record the collective once it
    /// succeeded. Returns the finished execution (for result ranges).
    fn run_coll(&self, desc: CollDesc, role: Role<'_>) -> Result<Execution> {
        let op = desc.key.op;
        let plan = self.cached_plan(desc.key, desc.build)?;
        let mut exec = Execution::new(plan, self.next_seq());
        match role {
            // One io-lock hold: the transports drain incoming traffic
            // internally while flow-control spinning, so a send cannot
            // deadlock against this rank's own unconsumed messages.
            Role::SendOnly(payload) => {
                let sent = {
                    let io = &mut *self.shared.io();
                    exec.run_send_only(io.transport.as_mut(), &mut io.clock, payload)
                };
                sent.map_err(|e| self.map_ft_err(e))?;
            }
            // Lock-per-attempt: each iteration takes the io lock for one
            // bounded progress attempt and releases it before backing off, so
            // concurrent threads of this rank (and the background engine)
            // interleave at attempt granularity instead of serializing behind
            // one blocked collective.
            Role::InPlace(buf) => {
                let mut backoff = SpinWait::new();
                loop {
                    let step = {
                        let io = &mut *self.shared.io();
                        exec.progress(io.transport.as_mut(), &mut io.clock, buf, 0)
                    };
                    let step = step.map_err(|e| self.map_ft_err(e))?;
                    if step.done {
                        break;
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
        }
        self.note_coll(op, desc.payload_bytes, exec.plan().label);
        Ok(exec)
    }

    /// Blocking run over an owned image, returning the result range as `T`s.
    fn run_image<T: Pod>(&self, (desc, mut image): Staged) -> Result<Vec<T>> {
        let exec = self.run_coll(desc, Role::InPlace(&mut image))?;
        Ok(vec_from_bytes(exec.result_slice(&image)))
    }

    /// Nonblocking adapter: bind the cached plan under the next sequence
    /// number to a pending request owning `image`.
    fn start_coll(&self, (desc, image): Staged) -> Result<Request> {
        let op = desc.key.op;
        let plan = self.cached_plan(desc.key, desc.build)?;
        let seq = self.next_seq();
        self.note_coll(op, desc.payload_bytes, plan.label);
        ProgressCounters::add(&self.shared.counters.colls_started, 1);
        let request = Request::coll_pending(
            self.ctx,
            CollState::new(Execution::new(plan, seq), image, self.rank),
        );
        // Register the fresh operation with the rank's outstanding-op
        // registry: in Thread mode the background engine starts advancing it
        // before the caller ever polls; in Polling mode it becomes visible
        // to sibling waiters' cross-communicator sweeps.
        if let Some(cell) = &request.coll {
            self.shared.engine.enqueue(Arc::clone(cell));
        }
        Ok(request)
    }

    /// Persistent adapter: bind the cached plan to an inactive persistent
    /// request owning `image` (no sequence number until [`Comm::start`]).
    fn init_coll(&self, (desc, image): Staged) -> Result<Request> {
        let meta = PersistentMeta {
            op: desc.key.op,
            payload_bytes: desc.payload_bytes,
        };
        let plan = self.cached_plan(desc.key, desc.build)?;
        let state = CollState::new(Execution::new(plan, 0), image, self.rank);
        Ok(Request::coll_persistent(self.ctx, state, meta))
    }

    // ------------------------------------------------------------------
    // Image builders shared by the `i*` and `*_init` forms
    // ------------------------------------------------------------------

    fn bcast_image<T: Pod>(&self, root: Rank, buf: &[T]) -> Result<Staged> {
        let desc = CollDesc::bcast(&self.view(), root, std::mem::size_of_val(buf))?;
        Ok((desc, bytes_of(buf).to_vec()))
    }

    fn gather_image<T: Pod>(&self, root: Rank, send: &[T]) -> Result<Staged> {
        let n = self.group.size();
        let desc = CollDesc::gather::<T>(&self.view(), root, send.len(), Some(n * send.len()))?;
        if self.rank != root {
            return Ok((desc, bytes_of(send).to_vec()));
        }
        let block = std::mem::size_of_val(send);
        let mut image = vec![0u8; n * block];
        image[root * block..(root + 1) * block].copy_from_slice(bytes_of(send));
        Ok((desc, image))
    }

    fn scatter_image<T: Pod>(
        &self,
        root: Rank,
        send: Option<&[T]>,
        block_elems: usize,
    ) -> Result<Staged> {
        let desc = CollDesc::scatter::<T>(&self.view(), root, block_elems, send.map(<[T]>::len))?;
        let image = match send.filter(|_| self.rank == root) {
            Some(send) => bytes_of(send).to_vec(),
            None => vec![0u8; block_elems * std::mem::size_of::<T>()],
        };
        Ok((desc, image))
    }

    fn allgather_image<T: Pod>(&self, send: &[T]) -> Result<Staged> {
        let n = self.group.size();
        let desc = CollDesc::allgather::<T>(&self.view(), send.len(), n * send.len())?;
        let block = std::mem::size_of_val(send);
        let mut image = vec![0u8; n * block];
        image[self.rank * block..(self.rank + 1) * block].copy_from_slice(bytes_of(send));
        Ok((desc, image))
    }

    fn reduce_image<T: Reducible>(&self, root: Rank, values: &[T], op: ReduceOp) -> Result<Staged> {
        let desc = CollDesc::reduce::<T>(&self.view(), root, values.len(), op)?;
        Ok((desc, bytes_of(values).to_vec()))
    }

    fn allreduce_image<T: Reducible>(&self, values: &[T], op: ReduceOp) -> Staged {
        let desc = CollDesc::allreduce::<T>(values.len(), op);
        (desc, bytes_of(values).to_vec())
    }

    fn reduce_scatter_image<T: Reducible>(&self, values: &[T], op: ReduceOp) -> Result<Staged> {
        let desc = CollDesc::reduce_scatter::<T>(&self.view(), values.len(), op)?;
        Ok((desc, bytes_of(values).to_vec()))
    }

    fn scan_image<T: Reducible>(&self, values: &[T], op: ReduceOp) -> Staged {
        let desc = CollDesc::scan::<T>(values.len(), op);
        (desc, bytes_of(values).to_vec())
    }

    fn exscan_image<T: Reducible>(&self, values: &[T], op: ReduceOp) -> Staged {
        let desc = CollDesc::exscan::<T>(values.len(), op);
        (desc, bytes_of(values).to_vec())
    }

    fn alltoall_image<T: Pod>(&self, send: &[T]) -> Result<Staged> {
        let desc = CollDesc::alltoall::<T>(&self.view(), send.len(), send.len())?;
        Ok((desc, bytes_of(send).to_vec()))
    }

    /// The packed send segments followed by room for the received ones.
    fn irregular_image(desc: CollDesc, send: &[u8], recv_counts: &[usize], elem: usize) -> Staged {
        let recv_total = recv_counts.iter().sum::<usize>() * elem;
        let mut image = vec![0u8; send.len() + recv_total];
        image[..send.len()].copy_from_slice(send);
        (desc, image)
    }

    fn alltoallv_image<T: Pod>(&self, send: &[T], sc: &[usize], rc: &[usize]) -> Result<Staged> {
        let desc = CollDesc::alltoallv::<T>(&self.view(), send.len(), sc, rc)?;
        let elem = std::mem::size_of::<T>();
        Ok(Self::irregular_image(desc, bytes_of(send), rc, elem))
    }

    fn alltoallw_image(&self, send: &[u8], sc: &[usize], rc: &[usize]) -> Result<Staged> {
        let desc = CollDesc::alltoallw(&self.view(), send.len(), sc, rc)?;
        Ok(Self::irregular_image(desc, send, rc, 1))
    }

    // ------------------------------------------------------------------
    // Blocking collectives
    // ------------------------------------------------------------------

    /// Barrier across all ranks of the communicator. The world communicator
    /// uses the transport's sequence-number barrier — a shared flag array no
    /// message-passing scheme beats; every other communicator (a same-group
    /// duplicate of world included) runs a dissemination barrier over its own
    /// point-to-point path, composed hierarchically (per-host fan-in, leader
    /// dissemination, per-host fan-out) when the topology gates select it.
    pub fn barrier(&mut self) -> Result<()> {
        // The transport's sequence barrier is a single rank-wide rendezvous
        // object: only the **world context** may use it. Two threads
        // concurrently barriering on world and a world-spanning duplicate
        // must not cross-match on one shared flag array.
        if self.ctx != WORLD_CTX {
            self.run_coll(CollDesc::barrier(), Role::InPlace(&mut []))?;
            return Ok(());
        }
        self.ft_precheck()?;
        // Still draws a sequence number: every collective start on a context
        // consumes one, so the counters agree across ranks no matter which
        // barrier implementation a communicator uses.
        let _seq = self.next_seq();
        let entered = {
            let io = &mut *self.shared.io();
            io.transport.barrier(&mut io.clock)
        };
        entered.map_err(|e| self.map_ft_err(e))?;
        self.note_coll(PlanOp::Barrier, 0, "barrier/sequence");
        Ok(())
    }

    /// Broadcast the fixed-size buffer `buf` from `root`. Every rank must pass
    /// a buffer of identical length. Size-adaptive: binomial tree for small
    /// payloads, scatter + ring allgather above the configured threshold.
    /// Repeated shapes hit the communicator's plan cache and skip planning.
    pub fn bcast_into<T: Pod>(&mut self, root: Rank, buf: &mut [T]) -> Result<()> {
        let desc = CollDesc::bcast(&self.view(), root, std::mem::size_of_val(buf))?;
        self.run_coll(desc, Role::InPlace(bytes_of_mut(buf)))?;
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
        let recv_len = recv.as_ref().map(|r| r.len());
        let desc = CollDesc::gather::<T>(&self.view(), root, send.len(), recv_len)?;
        let role = match recv.filter(|_| self.rank == root) {
            Some(recv) => {
                let k = send.len();
                recv[root * k..(root + 1) * k].copy_from_slice(send);
                Role::InPlace(bytes_of_mut(recv))
            }
            None => Role::SendOnly(bytes_of(send)),
        };
        self.run_coll(desc, role)?;
        Ok(())
    }

    /// Allgather equal-sized contributions into a flat buffer on every rank:
    /// `recv.len()` must equal `size × send.len()`. Size-adaptive: Bruck for
    /// small blocks, ring for large ones.
    pub fn allgather_into<T: Pod>(&mut self, send: &[T], recv: &mut [T]) -> Result<()> {
        let desc = CollDesc::allgather::<T>(&self.view(), send.len(), recv.len())?;
        let (me, k) = (self.rank, send.len());
        recv[me * k..(me + 1) * k].copy_from_slice(send);
        self.run_coll(desc, Role::InPlace(bytes_of_mut(recv)))?;
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
        let desc = CollDesc::scatter::<T>(&self.view(), root, recv.len(), send.map(<[T]>::len))?;
        match send.filter(|_| self.rank == root) {
            Some(send) => {
                self.run_coll(desc, Role::SendOnly(bytes_of(send)))?;
                let k = recv.len();
                recv.copy_from_slice(&send[root * k..(root + 1) * k]);
            }
            None => {
                self.run_coll(desc, Role::InPlace(bytes_of_mut(recv)))?;
            }
        }
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
        let out = self.run_image(self.reduce_image(root, values, op)?)?;
        Ok((self.rank == root).then_some(out))
    }

    /// Allreduce typed values in place. Size-adaptive: recursive doubling for
    /// small payloads, Rabenseifner above the configured threshold, with
    /// power-of-two fold elimination for other rank counts.
    pub fn allreduce<T: Reducible>(&mut self, values: &mut [T], op: ReduceOp) -> Result<()> {
        let desc = CollDesc::allreduce::<T>(values.len(), op);
        self.run_coll(desc, Role::InPlace(bytes_of_mut(values)))?;
        Ok(())
    }

    /// Reduce-scatter typed values; returns this rank's block. Size-adaptive:
    /// naive allreduce + selection for small payloads, recursive halving /
    /// pairwise exchange above the configured threshold.
    pub fn reduce_scatter<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Vec<T>> {
        self.run_image(self.reduce_scatter_image(values, op)?)
    }

    /// Inclusive prefix reduction (`MPI_Scan`), updated in place: rank `r`
    /// ends up with the element-wise reduction of ranks `0..=r`
    /// (Hillis–Steele recursive doubling over the plan layer; repeated
    /// shapes hit the plan cache).
    pub fn scan<T: Reducible>(&mut self, values: &mut [T], op: ReduceOp) -> Result<()> {
        let desc = CollDesc::scan::<T>(values.len(), op);
        self.run_coll(desc, Role::InPlace(bytes_of_mut(values)))?;
        Ok(())
    }

    /// Exclusive prefix reduction (`MPI_Exscan`), updated in place: rank
    /// `r > 0` ends up with the element-wise reduction of ranks `0..r`;
    /// rank 0's buffer is left untouched (the MPI "undefined" slot).
    pub fn exscan<T: Reducible>(&mut self, values: &mut [T], op: ReduceOp) -> Result<()> {
        let desc = CollDesc::exscan::<T>(values.len(), op);
        self.run_coll(desc, Role::InPlace(bytes_of_mut(values)))?;
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
        let desc = CollDesc::alltoall::<T>(&self.view(), send.len(), recv.len())?;
        // The plan runs in place: the buffer starts as the send image and
        // finishes as the receive image.
        recv.copy_from_slice(send);
        self.run_coll(desc, Role::InPlace(bytes_of_mut(recv)))?;
        Ok(())
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
        self.run_image(self.alltoallv_image(send, send_counts, recv_counts)?)
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
        self.run_image(self.alltoallw_image(send, send_counts, recv_counts)?)
    }

    // ------------------------------------------------------------------
    // Nonblocking collectives (MPI-3 `i*` operations)
    // ------------------------------------------------------------------
    //
    // Each starter binds the *same* cached plan the blocking collective
    // would run (identical algorithms, tags and op orderings) and returns a
    // [`Request`] owning the execution plus a copy of the payload. The
    // request completes through the progress engine from
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

    /// Nonblocking barrier (`MPI_Ibarrier`): completes once every rank of the
    /// communicator has entered it. Runs the dissemination-token plan on
    /// every communicator (world included) — hierarchical when the topology
    /// gates select it — so it can overlap with compute.
    pub fn ibarrier(&mut self) -> Result<Request> {
        self.start_coll((CollDesc::barrier(), Vec::new()))
    }

    /// Nonblocking broadcast (`MPI_Ibcast`): the root contributes `buf`;
    /// on completion every rank's request yields the broadcast values via
    /// [`Request::take_values`]. All ranks must pass equal-length buffers
    /// (non-root contents are ignored).
    pub fn ibcast_into<T: Pod>(&mut self, root: Rank, buf: &[T]) -> Result<Request> {
        self.start_coll(self.bcast_image(root, buf)?)
    }

    /// Nonblocking allreduce (`MPI_Iallreduce`): on completion every rank's
    /// request yields the element-wise reduction of all contributions.
    pub fn iallreduce<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        self.start_coll(self.allreduce_image(values, op))
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
        self.start_coll(self.reduce_image(root, values, op)?)
    }

    /// Nonblocking allgather (`MPI_Iallgather`): on completion every rank's
    /// request yields the flat `size × send.len()` buffer with local rank
    /// `r`'s contribution at block `r`.
    pub fn iallgather_into<T: Pod>(&mut self, send: &[T]) -> Result<Request> {
        self.start_coll(self.allgather_image(send)?)
    }

    /// Nonblocking reduce-scatter (`MPI_Ireduce_scatter_block`): on completion
    /// this rank's request yields its reduced block (`values.len() / size`
    /// elements). `values.len()` must be divisible by the rank count.
    pub fn ireduce_scatter<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        self.start_coll(self.reduce_scatter_image(values, op)?)
    }

    /// Nonblocking gather (`MPI_Igather`): on completion the root's request
    /// yields the flat `size × send.len()` buffer (rank `r`'s contribution at
    /// block `r`); non-root requests yield an empty result.
    pub fn igather_into<T: Pod>(&mut self, root: Rank, send: &[T]) -> Result<Request> {
        self.start_coll(self.gather_image(root, send)?)
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
        self.start_coll(self.scatter_image(root, send, block_elems)?)
    }

    /// Nonblocking inclusive prefix reduction (`MPI_Iscan`): on completion
    /// rank `r`'s request yields the element-wise reduction of ranks `0..=r`
    /// via [`Request::take_values`].
    pub fn iscan<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        self.start_coll(self.scan_image(values, op))
    }

    /// Nonblocking exclusive prefix reduction (`MPI_Iexscan`): on completion
    /// rank `r > 0`'s request yields the element-wise reduction of ranks
    /// `0..r`; rank 0's request yields an empty result (the MPI "undefined"
    /// slot).
    pub fn iexscan<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        self.start_coll(self.exscan_image(values, op))
    }

    /// Nonblocking complete exchange (`MPI_Ialltoall`): `send` holds one
    /// equal block per rank (`size × block_elems` elements, block `r`
    /// addressed to local rank `r`); on completion the request yields the
    /// same-shaped buffer with block `r` holding rank `r`'s contribution.
    pub fn ialltoall<T: Pod>(&mut self, send: &[T]) -> Result<Request> {
        self.start_coll(self.alltoall_image(send)?)
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
        self.start_coll(self.alltoallv_image(send, send_counts, recv_counts)?)
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
        self.start_coll(self.alltoallw_image(send, send_counts, recv_counts)?)
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

    /// Persistent barrier (`MPI_Barrier_init`).
    pub fn barrier_init(&mut self) -> Result<Request> {
        self.init_coll((CollDesc::barrier(), Vec::new()))
    }

    /// Persistent broadcast (`MPI_Bcast_init`): binds `buf` as the payload
    /// (read on the root at every start; replaced with the broadcast values
    /// everywhere on completion, readable via [`Request::read_result`]).
    /// All ranks must pass equal-length buffers.
    pub fn bcast_init<T: Pod>(&mut self, root: Rank, buf: &[T]) -> Result<Request> {
        self.init_coll(self.bcast_image(root, buf)?)
    }

    /// Persistent allreduce (`MPI_Allreduce_init`): binds a copy of `values`
    /// as the contribution. Rewrite it between starts with
    /// [`Request::write_input`]; without a rewrite, a restart reduces the
    /// previous result again (the buffer is bound in place, as in MPI).
    pub fn allreduce_init<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        self.init_coll(self.allreduce_image(values, op))
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
        self.init_coll(self.reduce_image(root, values, op)?)
    }

    /// Persistent allgather (`MPI_Allgather_init`): binds `send` as this
    /// rank's block of the flat `size × send.len()` result buffer.
    pub fn allgather_init<T: Pod>(&mut self, send: &[T]) -> Result<Request> {
        self.init_coll(self.allgather_image(send)?)
    }

    /// Persistent reduce-scatter (`MPI_Reduce_scatter_block_init`);
    /// `values.len()` must be divisible by the rank count.
    pub fn reduce_scatter_init<T: Reducible>(
        &mut self,
        values: &[T],
        op: ReduceOp,
    ) -> Result<Request> {
        self.init_coll(self.reduce_scatter_image(values, op)?)
    }

    /// Persistent gather (`MPI_Gather_init`): binds `send` as this rank's
    /// contribution; the root's completed request carries the flat gathered
    /// buffer.
    pub fn gather_init<T: Pod>(&mut self, root: Rank, send: &[T]) -> Result<Request> {
        self.init_coll(self.gather_image(root, send)?)
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
        self.init_coll(self.scatter_image(root, send, block_elems)?)
    }

    /// Persistent inclusive prefix reduction (`MPI_Scan_init`); see
    /// [`Comm::allreduce_init`] for the rebind rules.
    pub fn scan_init<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        self.init_coll(self.scan_image(values, op))
    }

    /// Persistent exclusive prefix reduction (`MPI_Exscan_init`); see
    /// [`Comm::allreduce_init`] for the rebind rules.
    pub fn exscan_init<T: Reducible>(&mut self, values: &[T], op: ReduceOp) -> Result<Request> {
        self.init_coll(self.exscan_image(values, op))
    }

    /// Persistent complete exchange (`MPI_Alltoall_init`): binds `send`
    /// (one equal block per rank) as the contribution; rewrite it between
    /// starts with [`Request::write_input`].
    pub fn alltoall_init<T: Pod>(&mut self, send: &[T]) -> Result<Request> {
        self.init_coll(self.alltoall_image(send)?)
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
        self.init_coll(self.alltoallv_image(send, send_counts, recv_counts)?)
    }

    /// Persistent byte-granular irregular complete exchange (see
    /// [`Comm::alltoallw_bytes`]).
    pub fn alltoallw_init(
        &mut self,
        send: &[u8],
        send_counts: &[usize],
        recv_counts: &[usize],
    ) -> Result<Request> {
        self.init_coll(self.alltoallw_image(send, send_counts, recv_counts)?)
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
        self.note_coll(meta.op, meta.payload_bytes, algo);
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
}
