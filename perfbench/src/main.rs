//! cmpi-perfbench: the repository benchmark.
//!
//! ```text
//! cmpi-perfbench --workload <p2p_small|p2p_large|rma_pscw|coll_small>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one closed-loop workload (one client, rank 0, and one server, rank 1)
//! in a pinned 2-rank CXL universe, several universes in a row, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See README.md for every workload and metric.

mod affinity;
mod counters;
mod replay;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmpi_core::queue::QueueGeometry;
use cmpi_core::{
    CollTuning, ConnMode, CxlShmTransportConfig, DataPlaneMode, HostPlacement, ProgressMode,
    ProgressTuning, TransportConfig, Universe, UniverseConfig,
};

use counters::Counters;
use replay::Sizes;
use stats::{median, peak_rss_mib, quantile, trimmed_mean};
use workload::{Call, Kind, RankOut, Shared, Workload};

/// Universes set up and measured one after another in every run; the
/// end-to-end figures are trimmed means over them (see `across`).
const UNIVERSES: usize = 40;
/// Timed ops a p99 group completes at least, so that ≥ 10 samples lie
/// beyond its p99.
const MIN_RUN_OPS: usize = 1000;
/// Groups of universes whose pooled p99s are averaged (too few groups for
/// the trimmed mean to drop any); each group completes at least
/// `MIN_RUN_OPS` timed ops.
const P99_GROUPS: usize = 4;
const CELL_BYTES: usize = 64 * 1024;
const CELLS_PER_QUEUE: usize = 8;
const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every knob that shapes a workload, set explicitly so that no environment
/// variable (`CMPI_PROGRESS`) or changed default silently alters it.
fn pinned_config() -> UniverseConfig {
    let mut cfg = UniverseConfig::cxl(2)
        .with_hosts(2)
        .with_placement(HostPlacement::Blocked)
        .with_coll_tuning(CollTuning {
            data_plane: DataPlaneMode::Auto,
            ..CollTuning::default()
        })
        .with_progress_tuning(ProgressTuning {
            max_ops_per_poll: 0,
            drain_on_progress: true,
            mode: ProgressMode::Polling,
        });
    cfg.transport = TransportConfig::CxlShm(CxlShmTransportConfig {
        cell_size: CELL_BYTES,
        cells_per_queue: CELLS_PER_QUEUE,
        conn_mode: ConnMode::Lazy,
        ..CxlShmTransportConfig::default()
    });
    cfg
}

/// One universe's outcome: both ranks' outputs plus its set-up time.
struct UniverseOut {
    ranks: Vec<RankOut>,
    trace: bool,
    /// Taken just before `Universe::run` is entered.
    entered: Instant,
}

fn run_universe(args: &Args, target: Duration, min_ops: usize) -> cmpi_core::Result<UniverseOut> {
    let shared = Arc::new(Shared::new(
        args.workload,
        args.seed,
        target,
        min_ops,
        args.trace,
    ));
    let sh = Arc::clone(&shared);
    let reports = Universe::run(pinned_config(), move |comm| workload::rank_body(comm, &sh))?;
    Ok(UniverseOut {
        ranks: reports.into_iter().map(|(out, _report)| out).collect(),
        trace: args.trace,
        entered: shared.entered,
    })
}

impl UniverseOut {
    /// Rank 0's timed-op latencies (ns) in blocks with tracing `traced`,
    /// block by block.
    fn blocks(&self, w: Workload, traced: bool) -> impl Iterator<Item = &[u32]> {
        self.ranks[0]
            .latencies
            .chunks_exact(w.block_len())
            .enumerate()
            .filter(move |&(b, _)| workload::traced_block(self.trace, b) == traced)
            .map(|(_, block)| block)
    }

    /// Rank 0's untraced op latencies, ns, ascending.
    fn untraced(&self, w: Workload) -> Vec<f64> {
        pooled(std::slice::from_ref(self), w, false)
    }

    /// Seconds from entering `Universe::run` to `at`, the latest over ranks.
    fn latest(&self, at: impl Fn(&RankOut) -> Option<Instant>) -> f64 {
        self.ranks
            .iter()
            .filter_map(at)
            .max()
            .map_or(0.0, |t| (t - self.entered).as_secs_f64())
    }
}

/// Rank 0's op latencies (ns) in untraced or traced blocks of `universes`,
/// ascending.
fn pooled(universes: &[UniverseOut], w: Workload, traced: bool) -> Vec<f64> {
    let mut v: Vec<f64> = universes
        .iter()
        .flat_map(|u| u.blocks(w, traced).flatten().map(|&ns| f64::from(ns)))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// p99 of each group of `UNIVERSES / P99_GROUPS` universes (each group holds
/// ≥ 1000 ops), averaged over groups; and the fewest samples beyond p99 in
/// a group.
fn p99(universes: &[UniverseOut], w: Workload) -> (f64, usize) {
    let mut p = Vec::new();
    let mut beyond = usize::MAX;
    for group in universes.chunks(UNIVERSES / P99_GROUPS) {
        let lat = pooled(group, w, false);
        p.push(quantile(&lat, 0.99));
        beyond = beyond.min(lat.len() - (0.99 * lat.len() as f64).ceil() as usize);
    }
    (trimmed_mean(&mut p), beyond)
}

/// A metric line: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cmpi-perfbench: {e}");
            eprintln!(
                "usage: cmpi-perfbench --workload <p2p_small|p2p_large|rma_pscw|coll_small> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} universes={UNIVERSES} host_logical_cpus={cpus}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("config: {:?}", pinned_config());

    let target = Duration::from_secs_f64(args.seconds / UNIVERSES as f64);
    let min_ops = MIN_RUN_OPS.div_ceil(UNIVERSES / P99_GROUPS);
    let mut universes = Vec::with_capacity(UNIVERSES);
    // Peak RSS once the first universe has ended: later universes only add
    // the allocator's memory of earlier ones, which varies run to run.
    let mut peak_rss = 0.0;
    for _ in 0..UNIVERSES {
        match run_universe(&args, target, min_ops) {
            Ok(u) => {
                universes.push(u);
                if universes.len() == 1 {
                    peak_rss = peak_rss_mib();
                }
            }
            Err(e) => {
                eprintln!("cmpi-perfbench: {} failed: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }

    let pins: Vec<String> = universes[0]
        .ranks
        .iter()
        .enumerate()
        .map(|(r, o)| {
            format!(
                "rank{r}->cpu{}",
                o.cpu.map_or("?".into(), |c| c.to_string())
            )
        })
        .collect();
    println!("pinning: {}", pins.join(" "));

    // Verification and path checks.
    let mut problems = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for u in &universes {
        attempted += u.ranks[0].timed_ops + (workload::WARMUP_BLOCKS * w.block_len()) as u64;
        let mut bad: Vec<u64> = u
            .ranks
            .iter()
            .flat_map(|r| r.failed.iter().copied())
            .collect();
        bad.sort_unstable();
        bad.dedup();
        failed += bad.len() as u64;
    }
    if failed > 0 {
        problems.push(format!("{failed} ops did not verify"));
    }
    let virt: Vec<f64> = universes.iter().map(|u| u.ranks[0].virt_op_ns).collect();
    let (vmin, vmax) = virt
        .iter()
        .fold((f64::MAX, f64::MIN), |(a, b), &v| (a.min(v), b.max(v)));
    if w.virt_deterministic() {
        if virt.iter().any(|v| v.to_bits() != virt[0].to_bits()) {
            problems.push(format!(
                "virt_op_ns differs between same-seed universes: {virt:?}"
            ));
        }
        println!(
            "virt_op_ns bit-identical over {UNIVERSES} universes: {}",
            vmin == vmax
        );
    } else {
        println!(
            "virt_op_ns over {UNIVERSES} same-seed universes: {vmin:.1}..{vmax:.1} ns \
             (spread {:.2}%, not deterministic: known ring-full clock-merge defect)",
            100.0 * (vmax - vmin) / vmin
        );
    }
    let delta = universes
        .iter()
        .flat_map(|u| &u.ranks)
        .fold(Counters::default(), |acc, r| acc.plus(&r.delta));
    let timed_ops: u64 = universes.iter().map(|u| u.ranks[0].timed_ops).sum();
    let qps_per_universe = {
        let mut q: Vec<f64> = universes
            .iter()
            .map(|u| u.ranks.iter().map(|r| r.end.qps_established).sum::<u64>() as f64)
            .collect();
        median(&mut q)
    };
    match w {
        Workload::P2pSmall if qps_per_universe == 0.0 => {
            problems.push("p2p_small established no queue pair".into())
        }
        Workload::RmaPscw if delta.msgs_sent + delta.msgs_received > 0 => problems.push(format!(
            "rma_pscw sent {} two-sided messages in its timed phase",
            delta.msgs_sent
        )),
        Workload::CollSmall if delta.shm_colls != 2 * timed_ops => problems.push(format!(
            "coll_small: {} shm collectives summed over ranks, expected {}",
            delta.shm_colls,
            2 * timed_ops
        )),
        _ => {}
    }
    let correct = problems.is_empty();
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }

    let per_universe: Vec<String> = universes
        .iter()
        .map(|u| format!("{:.3}", quantile(&u.untraced(w), 0.5) / 1e3))
        .collect();
    println!("op_p50_us per universe: {}", per_universe.join(" "));
    let (_, beyond) = p99(&universes, w);
    let fail_frac = failed as f64 / attempted.max(1) as f64;
    println!(
        "ops: attempted={attempted} failed={failed} fail_frac={fail_frac} ratio timed={timed_ops} \
         untraced-samples={} fewest-beyond-p99-per-group={beyond}",
        pooled(&universes, w, false).len(),
    );

    let metrics: Vec<Metric> = if !args.trace {
        end_to_end(w, &universes, peak_rss)
    } else {
        per_layer(w, &universes, delta, qps_per_universe)
    };
    for (name, v, unit) in &metrics {
        println!("{name:<32} {v:>20.6} {unit}");
    }
    println!("{}", json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Trimmed mean over universes of a per-universe figure. A pair can settle
/// into one of two speeds for a whole universe (see README.md), so a median
/// over universes would jump between them as their shares shift by one or
/// two universes; the trimmed mean moves in proportion to the shares.
fn across(universes: &[UniverseOut], f: impl Fn(&UniverseOut) -> f64) -> f64 {
    let mut v: Vec<f64> = universes.iter().map(f).collect();
    trimmed_mean(&mut v)
}

fn end_to_end(w: Workload, universes: &[UniverseOut], peak_rss: f64) -> Vec<Metric> {
    // Every block holds the same stratum mix, so block times are comparable:
    // a universe's throughput is its median block's, robust to a stalled
    // block.
    let block_s = across(universes, |u| {
        let mut blocks: Vec<f64> = u
            .blocks(w, false)
            .map(|b| b.iter().map(|&ns| f64::from(ns)).sum::<f64>() * 1e-9)
            .collect();
        median(&mut blocks)
    });
    vec![
        ("setup_s", across(universes, |u| u.latest(|r| r.ready)), "s"),
        (
            "op_p50_us",
            across(universes, |u| quantile(&u.untraced(w), 0.5) / 1e3),
            "us",
        ),
        ("op_p99_us", p99(universes, w).0 / 1e3, "us"),
        ("ops_per_s", w.block_len() as f64 / block_s, "1/s"),
        (
            "payload_mib_s",
            w.block_payload() as f64 / MIB / block_s,
            "MiB/s",
        ),
        (
            "virt_op_ns",
            across(universes, |u| u.ranks[0].virt_op_ns),
            "ns",
        ),
        ("peak_rss_mib", peak_rss, "MiB"),
    ]
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn per_layer(w: Workload, universes: &[UniverseOut], d: Counters, qps: f64) -> Vec<Metric> {
    let ops: u64 = universes.iter().map(|u| u.ranks[0].timed_ops).sum();
    let mut m: Vec<Metric> = Vec::new();

    // comm.*: median span per call, both ranks, traced blocks.
    let mut spans: BTreeMap<Call, Vec<f64>> = BTreeMap::new();
    for r in universes.iter().flat_map(|u| u.ranks.iter()) {
        for &(call, ns) in &r.spans {
            spans.entry(call).or_default().push(ns as f64);
        }
    }
    for call in Call::ALL {
        m.push((call.metric(), median(spans.entry(call).or_default()), "ns"));
    }

    // What the run moved, from rank 0's op log.
    let mut traffic: BTreeMap<(Kind, usize), u64> = BTreeMap::new();
    for u in universes {
        for (&k, &c) in &u.ranks[0].traffic {
            *traffic.entry(k).or_default() += c;
        }
    }
    let mut payloads = Sizes::new();
    let mut chunks = Sizes::new();
    let mut puts = Sizes::new();
    let mut gets = Sizes::new();
    let mut shapes = BTreeMap::new();
    for (&(kind, bytes), &c) in &traffic {
        *payloads.entry(bytes).or_default() += c;
        match kind {
            Kind::Echo => *chunks.entry(bytes).or_default() += 2 * c,
            Kind::Bulk => {
                *chunks.entry(CELL_BYTES.min(bytes)).or_default() +=
                    c * bytes.div_ceil(CELL_BYTES) as u64;
                *chunks.entry(1).or_default() += c;
            }
            Kind::Put => *puts.entry(bytes).or_default() += c,
            Kind::Get => *gets.entry(bytes).or_default() += c,
            Kind::Persistent | Kind::Allreduce | Kind::Ibcast => {
                *shapes.entry((kind, bytes)).or_default() += c
            }
        }
    }
    // Layers a workload does not use are replayed on its payload sizes, so
    // every layer row reads as "this layer's cost at this workload's sizes".
    let mut queue_sizes = chunks.clone();
    if queue_sizes.is_empty() {
        for (&s, &c) in &payloads {
            *queue_sizes.entry(s.min(CELL_BYTES)).or_default() += c;
        }
    }
    if shapes.is_empty() {
        shapes = payloads
            .iter()
            .map(|(&s, &c)| ((Kind::Allreduce, s), c))
            .collect();
    }

    let geometry = QueueGeometry {
        cell_payload: CELL_BYTES,
        cells: CELLS_PER_QUEUE,
    };
    let (enq, deq) = replay::queue(&queue_sizes, geometry);
    m.push(("queue.enqueue_ns", enq.ns_per_call(&queue_sizes), "ns"));
    m.push(("queue.dequeue_ns", deq.ns_per_call(&queue_sizes), "ns"));

    m.push(("transport.msgs_per_op", ratio(d.msgs_sent, ops), "msg/op"));
    m.push(("transport.srq_msgs", d.srq_msgs as f64, "count"));
    m.push(("transport.qps_established", qps, "count"));
    m.push((
        "transport.doorbell_rings_per_op",
        ratio(d.doorbell_rings, ops),
        "1/op",
    ));
    m.push((
        "transport.ring_probes_per_msg",
        ratio(d.ring_probes, d.msgs_received),
        "ratio",
    ));
    m.push(("transport.puts", d.puts as f64, "count"));
    m.push(("transport.gets", d.gets as f64, "count"));

    let coh = replay::coherence(&payloads);
    m.push((
        "coherence.nt_store_mib_s",
        coh.nt_store.mib_s(&payloads),
        "MiB/s",
    ));
    m.push((
        "coherence.write_flush_mib_s",
        coh.write_flush.mib_s(&payloads),
        "MiB/s",
    ));
    m.push((
        "coherence.read_coherent_mib_s",
        coh.read_coherent.mib_s(&payloads),
        "MiB/s",
    ));
    m.push((
        "coherence.nt_load_mib_s",
        coh.nt_load.mib_s(&payloads),
        "MiB/s",
    ));
    m.push((
        "dax.write_relaxed_mib_s",
        coh.write_relaxed.mib_s(&payloads),
        "MiB/s",
    ));
    m.push((
        "dax.read_relaxed_mib_s",
        coh.read_relaxed.mib_s(&payloads),
        "MiB/s",
    ));

    let plans = replay::plans(&shapes, &pinned_config().coll);
    m.push((
        "plan.hit_ratio",
        ratio(d.plan_hits, d.plan_hits + d.plan_misses),
        "ratio",
    ));
    m.push(("plan.misses", d.plan_misses as f64, "count"));
    m.push(("plan.build_ns", plans.build_ns, "ns"));
    m.push(("plan.bind_ns", plans.bind_ns, "ns"));
    m.push((
        "progress.wait_polls_per_op",
        ratio(d.wait_polls, ops),
        "1/op",
    ));
    m.push((
        "progress.ops_per_poll",
        ratio(d.ops_polled, d.test_polls + d.wait_polls),
        "ratio",
    ));
    m.push((
        "progress.persistent_starts",
        d.persistent_starts as f64,
        "count",
    ));
    m.push(("dataplane.shm_colls", d.shm_colls as f64, "count"));
    m.push(("dataplane.ring_colls", d.ring_colls as f64, "count"));
    m.push(("dataplane.pull_ops_per_op", ratio(d.pull_ops, ops), "1/op"));
    m.push(("dataplane.notify_ops", d.notify_waits as f64, "count"));

    let part = |f: &dyn Fn(&RankOut) -> f64| {
        let mut v: Vec<f64> = universes
            .iter()
            .map(|u| u.ranks.iter().map(f).fold(0.0, f64::max))
            .collect();
        median(&mut v)
    };
    let mut start: Vec<f64> = universes
        .iter()
        .map(|u| u.latest(|r| r.body_start))
        .collect();
    m.push(("runtime.universe_start_s", median(&mut start), "s"));
    m.push(("runtime.win_allocate_s", part(&|r| r.win_allocate_s), "s"));
    m.push(("runtime.warmup_s", part(&|r| r.warmup_s), "s"));

    m.push((
        "baseline.memcpy_mib_s",
        coh.memcpy.mib_s(&payloads),
        "MiB/s",
    ));

    // Replayed cost of the traffic the run recorded, per op, against rank 0's
    // comm span time per traced op (the blocking path of the closed loop).
    let replayed_ns = match w {
        Workload::P2pSmall | Workload::P2pLarge => enq.total_ns(&chunks) + deq.total_ns(&chunks),
        Workload::RmaPscw => coh.write_flush.total_ns(&puts) + coh.read_coherent.total_ns(&gets),
        Workload::CollSmall => shapes
            .iter()
            .map(|(&(kind, bytes), &c)| {
                let bind = if kind == Kind::Persistent {
                    0.0
                } else {
                    plans.bind[&(kind, bytes)]
                };
                (bind + coh.write_flush.0[&bytes] + coh.read_coherent.0[&bytes]) * c as f64
            })
            .sum(),
    };
    let span_ns: f64 = universes
        .iter()
        .flat_map(|u| u.ranks[0].spans.iter())
        .map(|&(_, ns)| ns as f64)
        .sum();
    let untraced = pooled(universes, w, false);
    let traced = pooled(universes, w, true);
    let traced_ops = traced.len().max(1) as f64;
    m.push((
        "layers.explained_frac",
        (replayed_ns / ops.max(1) as f64) / (span_ns / traced_ops),
        "ratio",
    ));
    m.push((
        "trace.overhead_frac",
        quantile(&traced, 0.5) / quantile(&untraced, 0.5) - 1.0,
        "ratio",
    ));
    m
}
