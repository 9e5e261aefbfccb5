//! The four closed-loop workloads: seeded op streams and the two rank bodies.
//!
//! Rank 0 is the client and rank 1 the server. Both ranks derive the same op
//! stream from the seed, so they agree on every op without exchanging control
//! messages through the library. The only coordination outside the library is
//! an in-process handshake (`Shared`): rank 0 starts timing op `i` only after
//! rank 1 has finished op `i - 1`, verified it and prepared op `i`, so neither
//! side's verification ever lands inside a timed span.

use std::collections::BTreeMap;
use std::hint::spin_loop;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::time::{Duration, Instant};

use cmpi_core::transport::WinId;
use cmpi_core::{Comm, ReduceOp, Request, Result};

use crate::affinity;
use crate::counters::Counters;

/// Bytes of the one-sided window each rank exposes in `rma_pscw`.
pub const WINDOW_BYTES: usize = 64 * 1024;
/// f64 elements of the persistent allreduce in `coll_small`.
pub const PERSISTENT_COUNT: usize = 16;
/// Blocks of ops run before the timed phase (promotes queue pairs, fills the
/// plan cache, warms the host caches). Their order is fixed, largest op
/// first: the first messages of a pair decide which state it stays in (on
/// `p2p_large` a small-first start leaves it about 2x faster for the rest of
/// the universe), so a seeded warm-up order would make seeds measure
/// different states. Largest first is the state most orders reach.
pub const WARMUP_BLOCKS: usize = 2;
/// Timed ops per universe over which rank 0's virtual clock is read. Not a
/// multiple of any block length, so the seed decides part of the mix and the
/// figure differs between seeds.
const VIRT_OPS: usize = 103;
/// User tag of every two-sided message.
const TAG: i32 = 7;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    P2pSmall,
    P2pLarge,
    RmaPscw,
    CollSmall,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::P2pSmall,
        Workload::P2pLarge,
        Workload::RmaPscw,
        Workload::CollSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::P2pSmall => "p2p_small",
            Workload::P2pLarge => "p2p_large",
            Workload::RmaPscw => "rma_pscw",
            Workload::CollSmall => "coll_small",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether rank 0's virtual clock is expected to be a deterministic
    /// function of the seed. `p2p_large` sends messages larger than the
    /// 512 KiB ring, and a sender that finds the ring full merges the
    /// receiver's wall-order-dependent head timestamp into its clock.
    pub fn virt_deterministic(self) -> bool {
        self != Workload::P2pLarge
    }

    /// One stratification block: every (kind, size) stratum exactly once.
    /// Sizes are powers of two, so a shuffled block is a log-uniform sample
    /// whose mix does not depend on the seed.
    fn strata(self) -> Vec<(Kind, usize)> {
        let pow2 = |lo: u32, hi: u32| (lo..=hi).map(|e| 1usize << e);
        match self {
            Workload::P2pSmall => pow2(3, 12).map(|s| (Kind::Echo, s)).collect(),
            Workload::P2pLarge => pow2(16, 22).map(|s| (Kind::Bulk, s)).collect(),
            Workload::RmaPscw => pow2(3, 16)
                .flat_map(|s| [(Kind::Put, s), (Kind::Get, s)])
                .collect(),
            Workload::CollSmall => {
                let mut v = vec![(Kind::Persistent, PERSISTENT_COUNT * 8); 20];
                v.extend(pow2(3, 12).map(|s| (Kind::Allreduce, s)));
                v.extend(pow2(3, 12).map(|s| (Kind::Ibcast, s)));
                v
            }
        }
    }

    pub fn block_len(self) -> usize {
        self.strata().len()
    }

    /// Payload bytes of one block.
    pub fn block_payload(self) -> usize {
        self.strata().iter().map(|&(_, s)| s).sum()
    }

    pub fn max_payload(self) -> usize {
        self.strata().iter().map(|&(_, s)| s).max().unwrap_or(0)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `p2p_small`: rank 0 sends, rank 1 echoes the bytes back.
    Echo,
    /// `p2p_large`: rank 0 sends, rank 1 answers with a 1-byte ack.
    Bulk,
    /// `rma_pscw`: one put inside a PSCW access epoch.
    Put,
    /// `rma_pscw`: one get inside a PSCW access epoch.
    Get,
    /// `coll_small`: start + wait of the persistent 16-f64 allreduce.
    Persistent,
    /// `coll_small`: blocking allreduce of integer-valued f64.
    Allreduce,
    /// `coll_small`: `ibcast_into` + wait from rank 0.
    Ibcast,
}

#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: Kind,
    /// Payload bytes the op moves (acks and headers excluded).
    pub bytes: usize,
    /// Byte offset in the target window (`rma_pscw` only).
    pub offset: usize,
    /// Seeds the op's payload pattern.
    pub key: u64,
}

/// splitmix64: the benchmark's only source of randomness.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The seeded, endless op stream of one workload: `WARMUP_BLOCKS` blocks of
/// strata largest first, then shuffled blocks.
pub struct OpStream {
    workload: Workload,
    rng: Rng,
    block: Vec<Op>,
    blocks: usize,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64) -> Self {
        OpStream {
            workload,
            rng: Rng(mix(seed ^ 0x5eed)),
            block: Vec::new(),
            blocks: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        if self.block.is_empty() {
            let mut strata = self.workload.strata();
            if self.blocks < WARMUP_BLOCKS {
                strata.sort_by_key(|&(_, bytes)| std::cmp::Reverse(bytes));
            } else {
                for i in (1..strata.len()).rev() {
                    strata.swap(i, self.rng.below(i + 1));
                }
            }
            self.blocks += 1;
            // Popped from the back, so reverse to keep the shuffled order.
            for &(kind, bytes) in strata.iter().rev() {
                let offset = match kind {
                    Kind::Put | Kind::Get => self.rng.below(WINDOW_BYTES - bytes + 1),
                    _ => 0,
                };
                let key = self.rng.next();
                self.block.push(Op {
                    kind,
                    bytes,
                    offset,
                    key,
                });
            }
        }
        self.block.pop().expect("block refilled above")
    }
}

/// Fill `buf` with the pattern of `key`.
pub fn fill(buf: &mut [u8], key: u64) {
    let mut words = buf.chunks_exact_mut(8);
    let mut i = 0u64;
    for w in &mut words {
        w.copy_from_slice(&mix(key ^ i).to_le_bytes());
        i += 1;
    }
    let tail = words.into_remainder();
    let last = mix(key ^ i).to_le_bytes();
    let n = tail.len();
    tail.copy_from_slice(&last[..n]);
}

/// Whether `buf` holds the pattern of `key`.
pub fn matches(buf: &[u8], key: u64) -> bool {
    let mut words = buf.chunks_exact(8);
    let mut i = 0u64;
    for w in &mut words {
        if w != mix(key ^ i).to_le_bytes() {
            return false;
        }
        i += 1;
    }
    let tail = words.remainder();
    tail == &mix(key ^ i).to_le_bytes()[..tail.len()]
}

/// Integer-valued f64 contribution of `rank` (sums of two stay exact).
fn contribution(key: u64, rank: usize, count: usize) -> Vec<f64> {
    (0..count)
        .map(|j| (mix(key ^ ((rank as u64) << 32) ^ j as u64) >> 40) as f64)
        .collect()
}

fn expected_sum(key: u64, count: usize) -> Vec<f64> {
    let a = contribution(key, 0, count);
    let b = contribution(key, 1, count);
    a.iter().zip(&b).map(|(x, y)| x + y).collect()
}

/// The `Comm` calls the benchmark wraps in spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Call {
    Send,
    Recv,
    WinStart,
    Put,
    Get,
    WinComplete,
    WinPost,
    WinWait,
    Start,
    Wait,
    Allreduce,
    Ibcast,
}

impl Call {
    pub const ALL: [Call; 12] = [
        Call::Send,
        Call::Recv,
        Call::WinStart,
        Call::Put,
        Call::Get,
        Call::WinComplete,
        Call::WinPost,
        Call::WinWait,
        Call::Start,
        Call::Wait,
        Call::Allreduce,
        Call::Ibcast,
    ];

    pub fn metric(self) -> &'static str {
        match self {
            Call::Send => "comm.send_ns",
            Call::Recv => "comm.recv_ns",
            Call::WinStart => "comm.win_start_ns",
            Call::Put => "comm.put_ns",
            Call::Get => "comm.get_ns",
            Call::WinComplete => "comm.win_complete_ns",
            Call::WinPost => "comm.win_post_ns",
            Call::WinWait => "comm.win_wait_ns",
            Call::Start => "comm.start_ns",
            Call::Wait => "comm.wait_ns",
            Call::Allreduce => "comm.allreduce_ns",
            Call::Ibcast => "comm.ibcast_ns",
        }
    }
}

/// In-memory span recorder around `Comm` calls; off outside traced blocks.
struct Tracer {
    on: bool,
    spans: Vec<(Call, u64)>,
}

impl Tracer {
    fn span<T>(&mut self, call: Call, f: impl FnOnce() -> Result<T>) -> Result<T> {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.spans.push((call, t0.elapsed().as_nanos() as u64));
        out
    }
}

/// Parameters and the in-process handshake shared by both rank threads.
pub struct Shared {
    pub workload: Workload,
    pub seed: u64,
    /// Wall time of the timed phase after which rank 0 stops at the next
    /// block boundary (once `min_ops` are done).
    pub target: Duration,
    pub min_ops: usize,
    /// Trace every other block of the timed phase.
    pub trace: bool,
    /// Taken just before `Universe::run` is entered.
    pub entered: Instant,
    /// Ops rank 1 has finished, verified and prepared the successor of.
    done: AtomicU64,
    /// Block decisions rank 0 has published.
    decided: AtomicU64,
    /// Timed-op count at which the phase ends (`u64::MAX` while running).
    stop_at: AtomicU64,
}

impl Shared {
    pub fn new(
        workload: Workload,
        seed: u64,
        target: Duration,
        min_ops: usize,
        trace: bool,
    ) -> Self {
        Shared {
            workload,
            seed,
            target,
            min_ops,
            trace,
            entered: Instant::now(),
            done: AtomicU64::new(0),
            decided: AtomicU64::new(0),
            stop_at: AtomicU64::new(u64::MAX),
        }
    }
}

fn spin_until(cond: impl Fn() -> bool) {
    let mut spins = 0u32;
    while !cond() {
        spins += 1;
        if spins < 1 << 12 {
            spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// What one rank hands back from a universe.
#[derive(Default)]
pub struct RankOut {
    pub body_start: Option<Instant>,
    /// The CPU this rank's thread was pinned to.
    pub cpu: Option<usize>,
    pub ready: Option<Instant>,
    pub win_allocate_s: f64,
    pub warmup_s: f64,
    /// Rank 0: wall latency of every timed op, ns (see `traced_block`).
    pub latencies: Vec<u32>,
    /// Rank 0: (kind, bytes) → count over the timed ops.
    pub traffic: BTreeMap<(Kind, usize), u64>,
    /// Rank 0: modelled ns per op over the first `VIRT_OPS` timed ops.
    pub virt_op_ns: f64,
    /// (call, ns) of every span this rank recorded in traced blocks.
    pub spans: Vec<(Call, u64)>,
    /// Counter deltas over the timed phase.
    pub delta: Counters,
    /// Counters at the end of the timed phase.
    pub end: Counters,
    /// Indices (warm-up included) of ops whose output did not verify here.
    pub failed: Vec<u64>,
    pub timed_ops: u64,
}

/// Per-rank state that lives across ops.
struct Endpoint {
    rank: usize,
    win: Option<WinId>,
    persistent: Option<Request>,
    /// Rank 0 in `rma_pscw`: what rank 1's window must hold.
    shadow: Vec<u8>,
    /// Outgoing payload (rank 0) or incoming payload (rank 1).
    buf: Vec<u8>,
    /// Rank 0: the echo, the ack or the get result.
    rbuf: Vec<u8>,
    values: Vec<f64>,
    tracer: Tracer,
}

impl Endpoint {
    fn setup(comm: &mut Comm, sh: &Shared) -> Result<(Endpoint, f64)> {
        let rank = comm.rank();
        let mut ep = Endpoint {
            rank,
            win: None,
            persistent: None,
            shadow: Vec::new(),
            buf: vec![0; sh.workload.max_payload()],
            rbuf: match (rank, sh.workload) {
                (0, Workload::P2pSmall | Workload::RmaPscw) => vec![0; sh.workload.max_payload()],
                (0, Workload::P2pLarge) => vec![0; 1],
                _ => Vec::new(),
            },
            values: Vec::new(),
            tracer: Tracer {
                on: false,
                spans: Vec::new(),
            },
        };
        let mut win_allocate_s = 0.0;
        match sh.workload {
            Workload::RmaPscw => {
                let t0 = Instant::now();
                let win = comm.win_allocate(WINDOW_BYTES)?;
                win_allocate_s = t0.elapsed().as_secs_f64();
                let mut init = vec![0; WINDOW_BYTES];
                fill(&mut init, mix(sh.seed ^ 0x317d0));
                if rank == 1 {
                    comm.win_write_local(win, 0, &init)?;
                } else {
                    ep.shadow = init;
                }
                ep.win = Some(win);
            }
            Workload::CollSmall => {
                let zero = vec![0.0f64; PERSISTENT_COUNT];
                ep.persistent = Some(comm.allreduce_init(&zero, ReduceOp::Sum)?);
            }
            Workload::P2pSmall | Workload::P2pLarge => {}
        }
        Ok((ep, win_allocate_s))
    }

    /// Set up the inputs of `op` (outside every timed span).
    fn prepare(&mut self, op: &Op) -> Result<()> {
        match op.kind {
            Kind::Echo | Kind::Bulk | Kind::Put if self.rank == 0 => {
                fill(&mut self.buf[..op.bytes], op.key)
            }
            Kind::Ibcast => {
                if self.rank == 0 {
                    fill(&mut self.buf[..op.bytes], op.key)
                } else {
                    self.buf[..op.bytes].fill(0)
                }
            }
            Kind::Allreduce => self.values = contribution(op.key, self.rank, op.bytes / 8),
            Kind::Persistent => {
                let mine = contribution(op.key, self.rank, PERSISTENT_COUNT);
                self.persistent
                    .as_mut()
                    .expect("coll_small sets up the persistent request")
                    .write_input(&mine)?
            }
            _ => {}
        }
        Ok(())
    }

    /// Run `op` (the timed part). An `ibcast` hands back its request, whose
    /// values are taken in `verify`.
    fn execute(&mut self, comm: &mut Comm, op: &Op) -> Result<Option<Request>> {
        let tr = &mut self.tracer;
        let n = op.bytes;
        match (op.kind, self.rank) {
            (Kind::Echo, 0) => {
                tr.span(Call::Send, || comm.send(1, TAG, &self.buf[..n]))?;
                let back = &mut self.rbuf[..n];
                tr.span(Call::Recv, || comm.recv(Some(1), Some(TAG), back))?;
            }
            (Kind::Echo, _) => {
                let buf = &mut self.buf[..n];
                tr.span(Call::Recv, || comm.recv(Some(0), Some(TAG), buf))?;
                tr.span(Call::Send, || comm.send(0, TAG, buf))?;
            }
            (Kind::Bulk, 0) => {
                tr.span(Call::Send, || comm.send(1, TAG, &self.buf[..n]))?;
                let ack = &mut self.rbuf[..1];
                tr.span(Call::Recv, || comm.recv(Some(1), Some(TAG), ack))?;
            }
            (Kind::Bulk, _) => {
                let buf = &mut self.buf[..n];
                tr.span(Call::Recv, || comm.recv(Some(0), Some(TAG), buf))?;
                tr.span(Call::Send, || comm.send(0, TAG, &[op.key as u8]))?;
            }
            (Kind::Put | Kind::Get, 0) => {
                let win = self.win.expect("rma_pscw allocates a window");
                tr.span(Call::WinStart, || comm.win_start(win, &[1]))?;
                if op.kind == Kind::Put {
                    let data = &self.buf[..n];
                    tr.span(Call::Put, || comm.put(win, 1, op.offset, data))?;
                } else {
                    let got = &mut self.rbuf[..n];
                    tr.span(Call::Get, || comm.get(win, 1, op.offset, got))?;
                }
                tr.span(Call::WinComplete, || comm.win_complete(win))?;
            }
            (Kind::Put | Kind::Get, _) => {
                let win = self.win.expect("rma_pscw allocates a window");
                tr.span(Call::WinPost, || comm.win_post(win, &[0]))?;
                tr.span(Call::WinWait, || comm.win_wait(win))?;
            }
            (Kind::Persistent, _) => {
                let req = self
                    .persistent
                    .as_mut()
                    .expect("coll_small sets up the persistent request");
                tr.span(Call::Start, || comm.start(req))?;
                tr.span(Call::Wait, || comm.wait(req))?;
            }
            (Kind::Allreduce, _) => {
                let values = &mut self.values;
                tr.span(Call::Allreduce, || comm.allreduce(values, ReduceOp::Sum))?;
            }
            (Kind::Ibcast, _) => {
                let buf = &self.buf[..n];
                let mut req = tr.span(Call::Ibcast, || comm.ibcast_into(0, buf))?;
                tr.span(Call::Wait, || comm.wait(&mut req))?;
                return Ok(Some(req));
            }
        }
        Ok(None)
    }

    /// Check the outputs of `op` (outside every timed span).
    fn verify(&mut self, op: &Op, req: Option<Request>) -> Result<bool> {
        let n = op.bytes;
        Ok(match (op.kind, self.rank) {
            (Kind::Echo, 0) => matches(&self.rbuf[..n], op.key),
            (Kind::Bulk, 0) => self.rbuf[0] == op.key as u8,
            (Kind::Bulk, _) => matches(&self.buf[..n], op.key),
            (Kind::Put, 0) => {
                self.shadow[op.offset..op.offset + n].copy_from_slice(&self.buf[..n]);
                true
            }
            (Kind::Get, 0) => self.rbuf[..n] == self.shadow[op.offset..op.offset + n],
            (Kind::Persistent, _) => {
                let req = self
                    .persistent
                    .as_ref()
                    .expect("coll_small sets up the persistent request");
                req.read_result::<f64>()? == expected_sum(op.key, PERSISTENT_COUNT)
            }
            (Kind::Allreduce, _) => self.values == expected_sum(op.key, n / 8),
            (Kind::Ibcast, _) => match req {
                Some(mut req) => matches(&req.take_values::<u8>()?, op.key),
                None => false,
            },
            _ => true,
        })
    }
}

/// Whether block `b` of the timed phase is traced: every other block of a
/// traced run, so its untraced blocks measure the tracing overhead.
pub fn traced_block(trace: bool, b: usize) -> bool {
    trace && b % 2 == 1
}

/// The body both ranks run in one universe.
pub fn rank_body(comm: &mut Comm, sh: &Shared) -> Result<RankOut> {
    let mut out = RankOut {
        body_start: Some(Instant::now()),
        ..RankOut::default()
    };
    let client = comm.rank() == 0;
    out.cpu = affinity::pin_current_thread(comm.rank());
    let (mut ep, win_allocate_s) = Endpoint::setup(comm, sh)?;
    out.win_allocate_s = win_allocate_s;
    let mut stream = OpStream::new(sh.workload, sh.seed);
    let block = sh.workload.block_len();
    let mut next = stream.next_op();
    ep.prepare(&next)?;

    // Warm-up: whole blocks through the same handshake, verified, untimed.
    let warm_t0 = Instant::now();
    let warm_ops = (WARMUP_BLOCKS * block) as u64;
    for idx in 0..warm_ops {
        let op = next;
        let ok = step(comm, sh, &mut ep, &op, idx, client)?.1;
        next = stream.next_op();
        ep.prepare(&next)?;
        finish_step(sh, idx, client);
        if !ok {
            out.failed.push(idx);
        }
    }
    out.warmup_s = warm_t0.elapsed().as_secs_f64();

    comm.barrier()?;
    out.ready = Some(Instant::now());
    let c0 = Counters::read(comm);
    let v0 = comm.clock_ns();
    let phase_t0 = Instant::now();
    let virt_ops = VIRT_OPS as u64;
    let mut t = 0u64; // timed ops so far
    loop {
        if t.is_multiple_of(block as u64) {
            let b = t / block as u64;
            if client {
                // Every op before this block is done on both ranks.
                spin_until(|| sh.done.load(SeqCst) >= warm_ops + t);
                if phase_t0.elapsed() >= sh.target && t >= sh.min_ops.max(virt_ops as usize) as u64
                {
                    sh.stop_at.store(t, SeqCst);
                }
                sh.decided.store(b + 1, SeqCst);
            } else {
                spin_until(|| sh.decided.load(SeqCst) > b);
            }
            if sh.stop_at.load(SeqCst) == t {
                break;
            }
            ep.tracer.on = traced_block(sh.trace, b as usize);
        }
        let idx = warm_ops + t;
        let op = next;
        let (ns, ok) = step(comm, sh, &mut ep, &op, idx, client)?;
        if client {
            out.latencies.push(u32::try_from(ns).unwrap_or(u32::MAX));
            *out.traffic.entry((op.kind, op.bytes)).or_default() += 1;
            if t + 1 == virt_ops {
                out.virt_op_ns = (comm.clock_ns() - v0) / virt_ops as f64;
            }
        }
        next = stream.next_op();
        ep.prepare(&next)?;
        finish_step(sh, idx, client);
        if !ok {
            out.failed.push(idx);
        }
        t += 1;
    }
    out.end = Counters::read(comm);
    out.delta = out.end.minus(&c0);
    out.timed_ops = t;
    out.spans = std::mem::take(&mut ep.tracer.spans);
    Ok(out)
}

/// Run op `idx` on this rank: returns its wall latency (ns) and whether its
/// output verified.
fn step(
    comm: &mut Comm,
    sh: &Shared,
    ep: &mut Endpoint,
    op: &Op,
    idx: u64,
    client: bool,
) -> Result<(u64, bool)> {
    if client {
        spin_until(|| sh.done.load(SeqCst) >= idx);
    }
    let t0 = Instant::now();
    let result = ep.execute(comm, op)?;
    let ns = t0.elapsed().as_nanos() as u64;
    Ok((ns, ep.verify(op, result)?))
}

/// Rank 1 publishes that op `idx` is finished and its successor prepared.
fn finish_step(sh: &Shared, idx: u64, client: bool) {
    if !client {
        sh.done.store(idx + 1, SeqCst);
    }
}
