//! Lazy sparse connection-state suite: byte-equivalence between the CXL
//! transport (doorbell + SRQ + lazily promoted queue pairs) and the TCP
//! baseline, large-world correctness at n=64/256/1024 across 8–64 simulated
//! hosts, the O(active peers) memory bound (Σ queue-pairs ≪ n²), and the
//! doorbell-gated poll regression (idle poll cost independent of world size).

mod common;

use cmpi::fabric::cost::TcpNic;
use cmpi::mpi::{
    Comm, ErrHandler, FaultPlan, FaultTrigger, FtOutcome, MpiError, RankReport, ReduceOp, Universe,
    UniverseConfig,
};

/// A composite workload touching every start path the equivalence matrix
/// cares about — p2p, blocking collectives, nonblocking, persistent — and
/// returning a digest of every byte the rank ends up with.
fn workload(comm: &mut Comm) -> cmpi::mpi::Result<Vec<u64>> {
    let me = comm.rank();
    let n = comm.size();
    let mut digest = Vec::new();

    // p2p: neighbour ring exchange.
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    let mine: Vec<u64> = (0..8).map(|i| (me * 1000 + i) as u64).collect();
    let bytes: Vec<u8> = mine.iter().flat_map(|v| v.to_le_bytes()).collect();
    let (_, from_left) = comm.sendrecv(right, 3, &bytes, left, 3)?;
    assert_eq!(from_left.len(), bytes.len());
    digest.extend(
        from_left
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
    );

    // Blocking collectives.
    let mut v = if me == 0 { [0xABCDu64; 4] } else { [0u64; 4] };
    comm.bcast_into(0, &mut v)?;
    digest.extend_from_slice(&v);
    let mut s = [me as u64, 7];
    comm.allreduce(&mut s, ReduceOp::Sum)?;
    digest.extend_from_slice(&s);
    let mut g = vec![0u64; n];
    comm.allgather_into(&[me as u64 + 99], &mut g)?;
    digest.extend_from_slice(&g);

    // Nonblocking allreduce through the progress engine.
    let mut req = comm.iallreduce(&[me as u64 * 3 + 1], ReduceOp::Sum)?;
    comm.wait(&mut req)?;
    let out: Vec<u64> = req.take_values()?;
    digest.extend_from_slice(&out);

    // Persistent allreduce, started twice.
    let mut req = comm.allreduce_init(&[me as u64, 5], ReduceOp::Sum)?;
    for _ in 0..2 {
        comm.start(&mut req)?;
        comm.wait(&mut req)?;
        let out: Vec<u64> = req.read_result()?;
        digest.extend_from_slice(&out);
    }
    req.release()?;

    comm.barrier()?;
    Ok(digest)
}

fn run_digests(config: UniverseConfig) -> Vec<Vec<u64>> {
    Universe::run(config, workload)
        .expect("universe run")
        .into_iter()
        .map(|(d, _)| d)
        .collect()
}

/// The CXL transport and the TCP baseline (inherently lazy endpoints) must
/// produce byte-identical results.
fn assert_equivalence(ranks: usize, hosts: usize) {
    let cxl = run_digests(UniverseConfig::cxl_small(ranks).with_hosts(hosts));
    let tcp = run_digests(UniverseConfig::tcp(ranks, TcpNic::MellanoxCx6Dx).with_hosts(hosts));
    assert_eq!(cxl, tcp, "CXL vs TCP digests differ at n={ranks}");
}

#[test]
fn cxl_vs_tcp_equivalence_small_worlds() {
    for n in [3, 5, 6, 7] {
        assert_equivalence(n, common::matrix_hosts());
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "64-rank matrix: run under --release")]
fn cxl_vs_tcp_equivalence_n64() {
    assert_equivalence(64, 8);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "256-rank matrix: run under --release")]
fn cxl_vs_tcp_equivalence_n256() {
    assert_equivalence(256, 32);
}

/// The large-world correctness + memory-bound check: bcast / allreduce /
/// allgather / barrier complete with correct bytes on a lazy universe, and
/// the whole universe establishes far fewer queue pairs than a flat n²
/// matrix would format.
fn run_scale(ranks: usize, hosts: usize) -> Vec<RankReport> {
    let reports = Universe::run(
        UniverseConfig::cxl_scale(ranks, hosts),
        move |comm: &mut Comm| {
            let me = comm.rank();
            let n = comm.size();
            let mut v = if me == 0 { [0x5CA1Eu64; 8] } else { [0u64; 8] };
            comm.bcast_into(0, &mut v)?;
            assert_eq!(v, [0x5CA1Eu64; 8], "bcast at n={n}");
            let mut s = [1u64, me as u64];
            comm.allreduce(&mut s, ReduceOp::Sum)?;
            assert_eq!(s[0], n as u64, "allreduce count at n={n}");
            assert_eq!(
                s[1],
                (n as u64 * (n as u64 - 1)) / 2,
                "allreduce sum at n={n}"
            );
            let mut g = vec![0u32; n];
            comm.allgather_into(&[me as u32], &mut g)?;
            for (i, &x) in g.iter().enumerate() {
                assert_eq!(x, i as u32, "allgather block at n={n}");
            }
            comm.barrier()?;
            Ok(())
        },
    )
    .expect("scale universe");
    let reports: Vec<RankReport> = reports.into_iter().map(|(_, r)| r).collect();
    // Per-rank memory is O(active peers): the universe-wide queue-pair count
    // stays a sliver of the n² matrix (each rank talks to O(log n) partners
    // in these algorithms, and only message-heavy pairs get promoted at all).
    let qps: u64 = reports.iter().map(|r| r.stats.qps_established).sum();
    let matrix = (ranks * ranks) as u64;
    assert!(
        qps < matrix / 8,
        "Σ queue pairs {qps} not ≪ n² = {matrix} at n={ranks}"
    );
    reports
}

#[test]
fn scale_n64_over_8_hosts() {
    run_scale(64, 8);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "256 ranks: run under --release")]
fn scale_n256_over_32_hosts() {
    run_scale(256, 32);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "1024 ranks: run under --release")]
fn scale_n1024_over_64_hosts() {
    run_scale(1024, 64);
}

/// Satellite regression: with the doorbell gating the receive sweep, polling
/// an idle communicator probes no dedicated rings at all — the per-poll cost
/// is independent of world size (the old code scanned all n sender rings on
/// every poll). Measured live via `Comm::stats` so scheduling noise from the
/// startup phase cannot leak into the window under test.
#[test]
fn idle_poll_probes_no_rings_regardless_of_world_size() {
    for ranks in [4usize, 16, 48] {
        let reports = Universe::run(
            UniverseConfig::cxl_small(ranks).with_hosts(2),
            |comm: &mut Comm| {
                comm.barrier()?;
                // Settle: drain any straggling barrier traffic.
                for _ in 0..50 {
                    comm.progress()?;
                }
                let before = comm.stats().ring_probes;
                for _ in 0..500 {
                    comm.progress()?;
                }
                Ok(comm.stats().ring_probes - before)
            },
        )
        .expect("idle poll universe");
        for (extra, report) in &reports {
            assert_eq!(
                *extra, 0,
                "rank {} probed {extra} rings over 500 idle polls at n={ranks}",
                report.rank
            );
        }
    }
}

/// Fault injection on a lazy universe where the victim dies before ever
/// establishing a queue pair with the observers: the victim's very first send
/// kills it, so no survivor holds connection state for it. The survivors must
/// still detect the death, agree, shrink, and complete a correct allreduce —
/// the dead-rank sweeps must not trip over never-connected peers.
#[test]
fn fault_with_never_connected_victim() {
    let n = 6;
    let victim = n - 1;
    let config = UniverseConfig::cxl_small(n)
        .with_hosts(2)
        .with_faults(vec![FaultPlan {
            victim,
            trigger: FaultTrigger::NthSend(1),
        }]);
    let outcomes = Universe::run_ft(config, move |comm: &mut Comm| {
        comm.set_errhandler(ErrHandler::ErrorsReturn);
        let mut result = loop {
            let mut v = [comm.world_rank() as u64, 1];
            match comm.allreduce(&mut v, ReduceOp::Sum) {
                Ok(()) => break v,
                Err(MpiError::ProcFailed { .. }) | Err(MpiError::Revoked(_)) => {
                    match comm.agree(0) {
                        Ok(_) | Err(MpiError::ProcFailed { .. }) | Err(MpiError::Revoked(_)) => {}
                        Err(e) => return Err(e),
                    }
                    *comm = comm.shrink()?;
                }
                Err(e) => return Err(e),
            }
        };
        // One more verified round on the shrunk communicator.
        comm.allreduce(&mut result, ReduceOp::Sum)?;
        Ok((result, comm.group().world_ranks().to_vec()))
    })
    .expect("faulty universe");
    assert!(outcomes[victim].is_killed(), "victim survived");
    let survivors: Vec<usize> = (0..n).filter(|&r| r != victim).collect();
    let expect_sum: u64 = survivors.iter().map(|&r| r as u64).sum();
    for (rank, outcome) in outcomes.iter().enumerate() {
        if rank == victim {
            continue;
        }
        match outcome {
            FtOutcome::Survived((v, membership), _) => {
                assert_eq!(membership, &survivors, "rank {rank} membership");
                // First round summed world ranks over survivors; the
                // second round re-summed the first round's result.
                assert_eq!(
                    *v,
                    [
                        expect_sum * survivors.len() as u64,
                        survivors.len() as u64 * survivors.len() as u64
                    ],
                    "rank {rank} result"
                );
            }
            FtOutcome::Killed { .. } => panic!("rank {rank} died unexpectedly"),
        }
    }
}

/// Scaling-interaction satellite: alltoall is the adversarial workload for
/// the lazy connection table — n·(n−1) distinct peer payloads per call —
/// so a tight `qp_budget` must funnel the long tail through the shared
/// receive queue instead of exploding the QP matrix. Byte-correctness and
/// the Σ-queue-pair bound are both asserted.
#[test]
fn alltoall_n64_under_tight_qp_budget() {
    use cmpi::mpi::TransportConfig;
    let ranks = 64usize;
    let budget = 8usize;
    let mut config = UniverseConfig::cxl_scale(ranks, 8);
    if let TransportConfig::CxlShm(ref mut c) = config.transport {
        c.qp_budget = budget;
    }
    let reports = Universe::run(config, move |comm: &mut Comm| {
        let me = comm.rank();
        let n = comm.size();
        let block = 4usize;
        let send: Vec<u64> = (0..n * block)
            .map(|i| (me * 1_000_000 + (i / block) * 1_000 + i % block) as u64)
            .collect();
        let mut recv = vec![0u64; n * block];
        comm.alltoall(&send, &mut recv)?;
        for s in 0..n {
            for e in 0..block {
                assert_eq!(
                    recv[s * block + e],
                    (s * 1_000_000 + me * 1_000 + e) as u64,
                    "block from {s} elem {e} at rank {me}"
                );
            }
        }
        // A second call through the pairwise branch stresses the budget
        // with large per-peer payloads too.
        let mut recv2 = vec![0u64; n * block];
        let tuning = comm.last_coll_algorithm().to_string();
        assert_eq!(tuning, "alltoall/bruck", "32 B blocks should take Bruck");
        comm.alltoall(&send, &mut recv2)?;
        assert_eq!(recv, recv2);
        Ok(())
    })
    .expect("tight-budget universe");
    let reports: Vec<RankReport> = reports.into_iter().map(|(_, r)| r).collect();
    // No QP explosion: the whole universe stays under budget × ranks
    // dedicated queue pairs (a flat matrix would be ranks²).
    let qps: u64 = reports.iter().map(|r| r.stats.qps_established).sum();
    let bound = (budget * ranks) as u64;
    assert!(
        qps < bound,
        "Σ queue pairs {qps} not below budget × ranks = {bound}"
    );
    // The dense traffic past the budget actually went through the SRQ.
    let srq: u64 = reports.iter().map(|r| r.stats.srq_msgs).sum();
    assert!(
        srq > 0,
        "tight-budget alltoall never funnelled through the SRQ"
    );
}
