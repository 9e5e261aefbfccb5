//! Per-layer replays: the lower layers' public functions, timed one call at a
//! time on the byte sizes a run actually moved. Each distinct size is replayed
//! a few times and its median kept; a layer's figure is then weighted by how
//! often the run used each size.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cmpi_core::coll::{build_allreduce, build_bcast, CommView};
use cmpi_core::dataplane::DP_SLOTS;
use cmpi_core::queue::{CellHeader, QueueGeometry, SpscQueue};
use cmpi_core::{CollPlan, CollTuning, DpWindow, Execution, Group, ReduceOp};
use cxl_shm::{ArenaConfig, CxlShmArena, CxlView, DaxDevice, HostCache, SlotLayout};

use crate::stats::median;
use crate::workload::{fill, Kind};

const MIB: f64 = 1024.0 * 1024.0;

/// size → how many times the run moved it.
pub type Sizes = BTreeMap<usize, u64>;

/// Repetitions for one size: enough to take a median, bounded in bytes.
fn reps(bytes: usize) -> usize {
    ((16 << 20) / bytes.max(1)).clamp(5, 101) | 1
}

/// Median ns of `f` over `reps(bytes)` calls; `before` runs untimed ahead of
/// each call.
fn time_ns(bytes: usize, mut before: impl FnMut(), mut f: impl FnMut()) -> f64 {
    let mut ns: Vec<f64> = (0..reps(bytes))
        .map(|_| {
            before();
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut ns)
}

/// Traffic-weighted mean of per-size costs (ns per call).
fn weighted_ns(sizes: &Sizes, cost: &BTreeMap<usize, f64>) -> f64 {
    let calls: u64 = sizes.values().sum();
    let ns: f64 = sizes.iter().map(|(s, &c)| cost[s] * c as f64).sum();
    ns / calls.max(1) as f64
}

/// Traffic-weighted rate of per-size costs (MiB/s).
fn weighted_mib_s(sizes: &Sizes, cost: &BTreeMap<usize, f64>) -> f64 {
    let bytes: f64 = sizes.iter().map(|(&s, &c)| (s as u64 * c) as f64).sum();
    let ns: f64 = sizes.iter().map(|(s, &c)| cost[s] * c as f64).sum();
    bytes / MIB / (ns * 1e-9)
}

/// Per-size medians (ns) of one call, keyed by size.
pub struct Costs(pub BTreeMap<usize, f64>);

impl Costs {
    fn measure(sizes: &Sizes, mut one: impl FnMut(usize) -> f64) -> Costs {
        Costs(sizes.keys().map(|&s| (s, one(s))).collect())
    }

    pub fn ns_per_call(&self, sizes: &Sizes) -> f64 {
        weighted_ns(sizes, &self.0)
    }

    pub fn mib_s(&self, sizes: &Sizes) -> f64 {
        weighted_mib_s(sizes, &self.0)
    }

    /// Total replayed ns for the traffic in `sizes`.
    pub fn total_ns(&self, sizes: &Sizes) -> f64 {
        sizes.iter().map(|(s, &c)| self.0[s] * c as f64).sum()
    }
}

fn device(bytes: usize) -> DaxDevice {
    let size = (bytes + (4 << 20)).div_ceil(2 << 20) * (2 << 20);
    DaxDevice::with_alignment("perfbench-replay", size, 4096).expect("replay device size is valid")
}

/// `SpscQueue::try_enqueue_with_scratch` (the transports' send path) and
/// `try_dequeue_into`, producer and consumer on distinct host caches, on the
/// run's chunk sizes. Returns (enqueue, dequeue) per-size medians.
pub fn queue(chunks: &Sizes, geometry: QueueGeometry) -> (Costs, Costs) {
    let dev = device(geometry.queue_bytes());
    let producer_arena = CxlShmArena::init(
        CxlView::new(dev.clone(), HostCache::new("hostA")),
        ArenaConfig::small(),
    )
    .expect("replay arena fits its device");
    let consumer_arena = CxlShmArena::attach(CxlView::new(dev, HostCache::new("hostB")))
        .expect("replay arena attaches");
    let obj = producer_arena
        .create("q", geometry.queue_bytes())
        .expect("queue object fits the replay device");
    let producer = SpscQueue::new(obj, 0, geometry);
    let consumer = SpscQueue::new(
        consumer_arena.open("q").expect("queue object exists"),
        0,
        geometry,
    );
    producer.format().expect("queue formats");
    let mut payload = vec![0u8; geometry.cell_payload];
    fill(&mut payload, 0x9e11);
    let mut dst = vec![0u8; geometry.cell_payload];
    let mut scratch = Vec::new();
    let mut enq = BTreeMap::new();
    let mut deq = BTreeMap::new();
    for &c in chunks.keys() {
        let header = CellHeader {
            src: 0,
            ctx: 0,
            tag: 0,
            total_len: c as u64,
            chunk_offset: 0,
            chunk_len: c as u32,
            timestamp: 0.0,
        };
        let (mut e, mut d) = (Vec::new(), Vec::new());
        for _ in 0..reps(c) {
            let t0 = Instant::now();
            let queued = producer
                .try_enqueue_with_scratch(&header, &payload[..c], &mut scratch)
                .expect("replay enqueue");
            let t1 = Instant::now();
            let got = consumer
                .try_dequeue_into(0.0, &mut dst)
                .expect("replay dequeue");
            let t2 = Instant::now();
            assert!(queued && got.is_some(), "replay queue never fills");
            e.push((t1 - t0).as_nanos() as f64);
            d.push((t2 - t1).as_nanos() as f64);
        }
        enq.insert(c, median(&mut e));
        deq.insert(c, median(&mut d));
    }
    (Costs(enq), Costs(deq))
}

/// The coherence-layer and raw-segment calls, writer and reader on distinct
/// host caches.
pub struct Coherence {
    pub nt_store: Costs,
    pub write_flush: Costs,
    pub read_coherent: Costs,
    pub nt_load: Costs,
    pub write_relaxed: Costs,
    pub read_relaxed: Costs,
    pub memcpy: Costs,
}

pub fn coherence(sizes: &Sizes) -> Coherence {
    let max = sizes.keys().copied().max().unwrap_or(8);
    let dev = device(max);
    let writer = CxlView::new(dev.clone(), HostCache::new("writer"));
    let reader = CxlView::new(dev.clone(), HostCache::new("reader"));
    let seg = dev.segment();
    let mut src = vec![0u8; max];
    fill(&mut src, 0xc0de);
    let mut dst = vec![0u8; max];
    let nt_store = Costs::measure(sizes, |s| {
        time_ns(
            s,
            || {},
            || writer.nt_store(0, &src[..s]).expect("nt_store"),
        )
    });
    let write_flush = Costs::measure(sizes, |s| {
        time_ns(
            s,
            || {},
            || writer.write_flush(0, &src[..s]).expect("write_flush"),
        )
    });
    let read_coherent = Costs::measure(sizes, |s| {
        let d = &mut dst;
        time_ns(
            s,
            || writer.write_flush(0, &src[..s]).expect("write_flush"),
            || reader.read_coherent(0, &mut d[..s]).expect("read_coherent"),
        )
    });
    let nt_load = Costs::measure(sizes, |s| {
        let d = &mut dst;
        time_ns(
            s,
            || {},
            || reader.nt_load(0, &mut d[..s]).expect("nt_load"),
        )
    });
    let write_relaxed = Costs::measure(sizes, |s| {
        time_ns(
            s,
            || {},
            || seg.write_relaxed(0, &src[..s]).expect("write_relaxed"),
        )
    });
    let read_relaxed = Costs::measure(sizes, |s| {
        let d = &mut dst;
        time_ns(
            s,
            || {},
            || seg.read_relaxed(0, &mut d[..s]).expect("read_relaxed"),
        )
    });
    let memcpy = Costs::measure(sizes, |s| {
        let d = &mut dst;
        time_ns(
            s,
            || {},
            || black_box(&mut d[..s]).copy_from_slice(black_box(&src[..s])),
        )
    });
    Coherence {
        nt_store,
        write_flush,
        read_coherent,
        nt_load,
        write_relaxed,
        read_relaxed,
        memcpy,
    }
}

/// Plan-layer replay at n = 2: `build_allreduce` / `build_bcast` with the
/// run's shared-window geometry, then `Execution::new` on the built plan.
/// `shapes` maps (collective kind, payload bytes) → count.
pub struct Plans {
    pub build_ns: f64,
    pub bind_ns: f64,
    /// Replayed bind ns per (kind, bytes), for the explained-time sum.
    pub bind: BTreeMap<(Kind, usize), f64>,
}

pub fn plans(shapes: &BTreeMap<(Kind, usize), u64>, tuning: &CollTuning) -> Plans {
    let group = Group::world(2);
    let view = CommView {
        group: &group,
        ctx: 0,
        rank: 0,
    };
    let slot_bytes = SlotLayout::new(2, DP_SLOTS, tuning.shm_arena_bytes / DP_SLOTS).slot_bytes();
    let dp = Some(DpWindow {
        slot_bytes,
        slots: DP_SLOTS,
    });
    let build = |kind: Kind, bytes: usize| -> CollPlan {
        match kind {
            Kind::Ibcast => build_bcast(&view, tuning, None, dp, 0, bytes),
            _ => build_allreduce::<f64>(&view, tuning, None, dp, (bytes / 8).max(1), ReduceOp::Sum),
        }
    };
    let (mut build_total, mut bind_total, mut calls) = (0.0, 0.0, 0u64);
    let mut bind = BTreeMap::new();
    for (&(kind, bytes), &count) in shapes {
        let b = time_ns(8, || {}, || drop(black_box(build(kind, bytes))));
        let plan = Arc::new(build(kind, bytes));
        let mut seq = 0u32;
        let e = time_ns(
            8,
            || {},
            || {
                seq += 1;
                drop(black_box(Execution::new(Arc::clone(&plan), seq)))
            },
        );
        build_total += b * count as f64;
        bind_total += e * count as f64;
        calls += count;
        bind.insert((kind, bytes), e);
    }
    let calls = calls.max(1) as f64;
    Plans {
        build_ns: build_total / calls,
        bind_ns: bind_total / calls,
        bind,
    }
}
