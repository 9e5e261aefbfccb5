//! Persistent collectives and the plan-cache layer, end-to-end.
//!
//! The three start paths — blocking, nonblocking `i*`, persistent
//! `*_init`/`start` — must produce byte-identical results (they bind the same
//! cached plan: one cache entry per shape, whichever form built it), across
//! non-power-of-two rank counts, both transports and hierarchy Off/Force. Plan-cache keys must isolate every shape component
//! (count, root, element type, reduction operator, communicator), and
//! interleaved persistent + one-shot collectives must stay correct across a
//! full collective-sequence-window wrap (> 2048 starts on one communicator).

use cmpi::mpi::{Comm, MpiError, PlanCacheStats, ReduceOp, RequestState, Universe, UniverseConfig};

mod common;
use common::{configs, force_hier, force_small, within_a_minute};

/// Deterministic per-(rank, iteration) input.
fn seeded(me: usize, iter: i64, count: usize) -> Vec<i64> {
    (0..count)
        .map(|i| (me as i64 + 1) * 1000 + iter * 7 + i as i64)
        .collect()
}

#[test]
fn persistent_equals_blocking_equals_nonblocking_across_matrix() {
    for n in [3usize, 5, 6, 7] {
        for (label, config) in configs(n) {
            for (tname, tuning) in [("flat", force_small()), ("hier", force_hier())] {
                let config = config.clone().with_coll_tuning(tuning);
                Universe::run(config, move |comm: &mut Comm| {
                    let n = comm.size();
                    let me = comm.rank();
                    let count = 3 * n; // divisible by n for reduce_scatter
                    let root = 1 % n;
                    let zero = vec![0i64; count];
                    let cache_at_start = comm.plan_cache_stats();

                    // Bind every persistent request once; the loop below
                    // rewrites inputs and restarts them.
                    let mut p_barrier = comm.barrier_init()?;
                    let mut p_bcast = comm.bcast_init(root, &zero)?;
                    let mut p_allreduce = comm.allreduce_init(&zero, ReduceOp::Sum)?;
                    let mut p_reduce = comm.reduce_init(root, &zero, ReduceOp::Max)?;
                    let mut p_allgather = comm.allgather_init(&zero[..3])?;
                    let mut p_rs = comm.reduce_scatter_init(&zero, ReduceOp::Sum)?;
                    let mut p_scan = comm.scan_init(&zero, ReduceOp::Sum)?;
                    let mut p_exscan = comm.exscan_init(&zero, ReduceOp::Sum)?;
                    // Gather, scatter and alltoall bind on the first pass,
                    // *after* their blocking and `i*` forms ran the same
                    // shape: the blocking call builds the plan, the other two
                    // forms must hit it.
                    let mut p_gather = None;
                    let mut p_scatter = None;
                    let mut p_alltoall = None;
                    let one_miss_then_hits = |before: PlanCacheStats, comm: &Comm, what: &str| {
                        let after = comm.plan_cache_stats();
                        assert_eq!(after.misses, before.misses + 1, "{what}: {after:?}");
                        assert_eq!(after.hits, before.hits + 2, "{what}: {after:?}");
                        assert_eq!(after.entries, before.entries + 1, "{what}: {after:?}");
                    };

                    for iter in 0..3i64 {
                        let input = seeded(me, iter, count);

                        // --- barrier (three paths complete) -------------
                        comm.barrier()?;
                        let mut r = comm.ibarrier()?;
                        comm.wait(&mut r)?;
                        r.release()?;
                        comm.start(&mut p_barrier)?;
                        comm.wait(&mut p_barrier)?;

                        // --- bcast --------------------------------------
                        let mut blocking = if me == root {
                            input.clone()
                        } else {
                            vec![0i64; count]
                        };
                        comm.bcast_into(root, &mut blocking)?;
                        let mut r =
                            comm.ibcast_into(root, if me == root { &input } else { &zero })?;
                        comm.wait(&mut r)?;
                        let nb: Vec<i64> = r.take_values()?;
                        if me == root {
                            p_bcast.write_input(&input)?;
                        }
                        comm.start(&mut p_bcast)?;
                        comm.wait(&mut p_bcast)?;
                        let pr: Vec<i64> = p_bcast.read_result()?;
                        assert_eq!(blocking, nb, "bcast i* diverged");
                        assert_eq!(blocking, pr, "bcast persistent diverged");

                        // --- allreduce ----------------------------------
                        let mut blocking = input.clone();
                        comm.allreduce(&mut blocking, ReduceOp::Sum)?;
                        let mut r = comm.iallreduce(&input, ReduceOp::Sum)?;
                        comm.wait(&mut r)?;
                        let nb: Vec<i64> = r.take_values()?;
                        p_allreduce.write_input(&input)?;
                        comm.start(&mut p_allreduce)?;
                        comm.wait(&mut p_allreduce)?;
                        let pr: Vec<i64> = p_allreduce.read_result()?;
                        assert_eq!(blocking, nb, "allreduce i* diverged");
                        assert_eq!(blocking, pr, "allreduce persistent diverged");

                        // --- rooted reduce ------------------------------
                        let blocking = comm.reduce(root, &input, ReduceOp::Max)?;
                        let mut r = comm.ireduce(root, &input, ReduceOp::Max)?;
                        comm.wait(&mut r)?;
                        let nb: Vec<i64> = r.take_values()?;
                        p_reduce.write_input(&input)?;
                        comm.start(&mut p_reduce)?;
                        comm.wait(&mut p_reduce)?;
                        let pr: Vec<i64> = p_reduce.read_result()?;
                        if me == root {
                            let b = blocking.expect("root gets the reduction");
                            assert_eq!(b, nb, "reduce i* diverged");
                            assert_eq!(b, pr, "reduce persistent diverged");
                        } else {
                            assert!(blocking.is_none());
                            assert!(nb.is_empty());
                            assert!(pr.is_empty());
                        }

                        // --- allgather ----------------------------------
                        let mine = &input[..3];
                        let mut blocking = vec![0i64; 3 * n];
                        comm.allgather_into(mine, &mut blocking)?;
                        let mut r = comm.iallgather_into(mine)?;
                        comm.wait(&mut r)?;
                        let nb: Vec<i64> = r.take_values()?;
                        p_allgather.write_input(mine)?;
                        comm.start(&mut p_allgather)?;
                        comm.wait(&mut p_allgather)?;
                        let pr: Vec<i64> = p_allgather.read_result()?;
                        assert_eq!(blocking, nb, "allgather i* diverged");
                        assert_eq!(blocking, pr, "allgather persistent diverged");

                        // --- reduce-scatter -----------------------------
                        let blocking = comm.reduce_scatter(&input, ReduceOp::Sum)?;
                        let mut r = comm.ireduce_scatter(&input, ReduceOp::Sum)?;
                        comm.wait(&mut r)?;
                        let nb: Vec<i64> = r.take_values()?;
                        p_rs.write_input(&input)?;
                        comm.start(&mut p_rs)?;
                        comm.wait(&mut p_rs)?;
                        let pr: Vec<i64> = p_rs.read_result()?;
                        assert_eq!(blocking, nb, "reduce_scatter i* diverged");
                        assert_eq!(blocking, pr, "reduce_scatter persistent diverged");

                        // --- scan / exscan ------------------------------
                        let mut blocking = input.clone();
                        comm.scan(&mut blocking, ReduceOp::Sum)?;
                        let mut r = comm.iscan(&input, ReduceOp::Sum)?;
                        comm.wait(&mut r)?;
                        let nb: Vec<i64> = r.take_values()?;
                        p_scan.write_input(&input)?;
                        comm.start(&mut p_scan)?;
                        comm.wait(&mut p_scan)?;
                        let pr: Vec<i64> = p_scan.read_result()?;
                        assert_eq!(blocking, nb, "scan i* diverged");
                        assert_eq!(blocking, pr, "scan persistent diverged");
                        // Reference: prefix sum over ranks 0..=me.
                        let expect: Vec<i64> = (0..count)
                            .map(|i| (0..=me).map(|r| seeded(r, iter, count)[i]).sum::<i64>())
                            .collect();
                        assert_eq!(blocking, expect, "scan reference mismatch");

                        let mut b_ex = input.clone();
                        comm.exscan(&mut b_ex, ReduceOp::Sum)?;
                        let mut r = comm.iexscan(&input, ReduceOp::Sum)?;
                        comm.wait(&mut r)?;
                        let nb: Vec<i64> = r.take_values()?;
                        p_exscan.write_input(&input)?;
                        comm.start(&mut p_exscan)?;
                        comm.wait(&mut p_exscan)?;
                        let pr: Vec<i64> = p_exscan.read_result()?;
                        if me == 0 {
                            // Rank 0's exscan buffer is the MPI "undefined"
                            // slot: our implementation leaves the input.
                            assert_eq!(b_ex, input);
                            assert!(nb.is_empty());
                            assert!(pr.is_empty());
                        } else {
                            let expect: Vec<i64> = (0..count)
                                .map(|i| (0..me).map(|r| seeded(r, iter, count)[i]).sum::<i64>())
                                .collect();
                            assert_eq!(b_ex, expect, "exscan reference mismatch");
                            assert_eq!(b_ex, nb, "exscan i* diverged");
                            assert_eq!(b_ex, pr, "exscan persistent diverged");
                        }

                        // --- gather -------------------------------------
                        let mine = &input[..3];
                        let before = comm.plan_cache_stats();
                        let mut blocking = vec![0i64; 3 * n];
                        let recv = (me == root).then_some(&mut blocking[..]);
                        comm.gather_into(root, mine, recv)?;
                        let mut r = comm.igather_into(root, mine)?;
                        comm.wait(&mut r)?;
                        let nb: Vec<i64> = r.take_values()?;
                        if p_gather.is_none() {
                            p_gather = Some(comm.gather_init(root, mine)?);
                            one_miss_then_hits(before, comm, "gather");
                        }
                        let p = p_gather.as_mut().expect("bound above");
                        p.write_input(mine)?;
                        comm.start(p)?;
                        comm.wait(p)?;
                        let pr: Vec<i64> = p.read_result()?;
                        if me == root {
                            let expect: Vec<i64> = (0..n)
                                .flat_map(|r| seeded(r, iter, count)[..3].to_vec())
                                .collect();
                            assert_eq!(blocking, expect, "gather reference mismatch");
                            assert_eq!(blocking, nb, "gather i* diverged");
                            assert_eq!(blocking, pr, "gather persistent diverged");
                        } else {
                            assert!(nb.is_empty());
                            assert!(pr.is_empty());
                        }

                        // --- scatter ------------------------------------
                        let before = comm.plan_cache_stats();
                        let send = (me == root).then_some(&input[..]);
                        let mut blocking = vec![0i64; 3];
                        comm.scatter_from(root, send, &mut blocking)?;
                        let mut r = comm.iscatter_from(root, send, 3)?;
                        comm.wait(&mut r)?;
                        let nb: Vec<i64> = r.take_values()?;
                        if p_scatter.is_none() {
                            p_scatter = Some(comm.scatter_init(root, send, 3)?);
                            one_miss_then_hits(before, comm, "scatter");
                        }
                        let p = p_scatter.as_mut().expect("bound above");
                        if me == root {
                            p.write_input(&input)?;
                        }
                        comm.start(p)?;
                        comm.wait(p)?;
                        let pr: Vec<i64> = p.read_result()?;
                        let expect = seeded(root, iter, count)[3 * me..3 * me + 3].to_vec();
                        assert_eq!(blocking, expect, "scatter reference mismatch");
                        assert_eq!(blocking, nb, "scatter i* diverged");
                        assert_eq!(blocking, pr, "scatter persistent diverged");

                        // --- alltoall -----------------------------------
                        let before = comm.plan_cache_stats();
                        let mut blocking = vec![0i64; count];
                        comm.alltoall(&input, &mut blocking)?;
                        let mut r = comm.ialltoall(&input)?;
                        comm.wait(&mut r)?;
                        let nb: Vec<i64> = r.take_values()?;
                        if p_alltoall.is_none() {
                            p_alltoall = Some(comm.alltoall_init(&input)?);
                            one_miss_then_hits(before, comm, "alltoall");
                        }
                        let p = p_alltoall.as_mut().expect("bound above");
                        p.write_input(&input)?;
                        comm.start(p)?;
                        comm.wait(p)?;
                        let pr: Vec<i64> = p.read_result()?;
                        let expect: Vec<i64> = (0..n)
                            .flat_map(|r| seeded(r, iter, count)[3 * me..3 * me + 3].to_vec())
                            .collect();
                        assert_eq!(blocking, expect, "alltoall reference mismatch");
                        assert_eq!(blocking, nb, "alltoall i* diverged");
                        assert_eq!(blocking, pr, "alltoall persistent diverged");
                    }

                    // Every shape ran three times per path, and the three
                    // forms of a shape share one cache entry: exactly one
                    // miss per shape (the world barrier's blocking form uses
                    // the transport's sequence barrier, not a plan).
                    let stats = comm.plan_cache_stats();
                    let shapes = 11;
                    assert_eq!(stats.misses - cache_at_start.misses, shapes, "{stats:?}");
                    assert_eq!(stats.entries - cache_at_start.entries, shapes as usize);
                    assert!(stats.hits > stats.misses, "cache barely used: {stats:?}");
                    Ok(())
                })
                .unwrap_or_else(|e| panic!("{label} n={n} {tname}: {e}"));
            }
        }
    }
}

#[test]
fn plan_cache_keys_isolate_every_shape_component() {
    let results = Universe::run(UniverseConfig::cxl_small(4), |comm: &mut Comm| {
        let me = comm.rank();
        let n = comm.size();

        // Same byte size, different element type: u64 vs f64 embed different
        // fold functions — a collision would corrupt the arithmetic.
        let mut a: Vec<u64> = vec![me as u64 + 1; 8];
        comm.allreduce(&mut a, ReduceOp::Sum)?;
        assert!(a.iter().all(|&v| v == (1..=n as u64).sum::<u64>()));
        let mut b: Vec<f64> = vec![me as f64 + 1.5; 8];
        comm.allreduce(&mut b, ReduceOp::Sum)?;
        let expect: f64 = (0..n).map(|r| r as f64 + 1.5).sum();
        assert!(b.iter().all(|&v| (v - expect).abs() < 1e-9));

        // Same shape, different operator.
        let mut c: Vec<u64> = vec![me as u64 + 1; 8];
        comm.allreduce(&mut c, ReduceOp::Max)?;
        assert!(c.iter().all(|&v| v == n as u64));

        // Same operator, different count.
        let mut d: Vec<u64> = vec![me as u64 + 1; 16];
        comm.allreduce(&mut d, ReduceOp::Sum)?;
        assert!(d.iter().all(|&v| v == (1..=n as u64).sum::<u64>()));

        // Same op and size, different root.
        for root in 0..2 {
            let mut buf = vec![if me == root { 42u8 + root as u8 } else { 0 }; 64];
            comm.bcast_into(root, &mut buf)?;
            assert!(buf.iter().all(|&v| v == 42 + root as u8));
        }

        // Same shapes on a duplicated communicator: plans are cached per
        // context id, so the dup builds its own and both stay correct.
        let mut dup = comm.comm_dup()?;
        let mut e: Vec<u64> = vec![me as u64 + 1; 8];
        dup.allreduce(&mut e, ReduceOp::Sum)?;
        assert!(e.iter().all(|&v| v == (1..=n as u64).sum::<u64>()));

        // Repeat the first shape: must hit, not rebuild.
        let before = comm.plan_cache_stats();
        let mut f: Vec<u64> = vec![me as u64 + 1; 8];
        comm.allreduce(&mut f, ReduceOp::Sum)?;
        let after = comm.plan_cache_stats();
        assert_eq!(after.misses, before.misses, "repeat shape rebuilt its plan");
        assert_eq!(after.hits, before.hits + 1);
        Ok(())
    })
    .unwrap();
    // Counters surface in the rank report.
    for (_, report) in &results {
        assert!(report.plan_cache.misses >= 6, "{:?}", report.plan_cache);
        assert!(report.plan_cache.hits >= 1, "{:?}", report.plan_cache);
        assert!(report.plan_cache.entries >= 6, "{:?}", report.plan_cache);
    }
}

#[test]
fn rejected_root_gather_and_scatter_leave_no_trace() {
    // A blocking gather/scatter whose root buffer has the wrong length is a
    // local argument error: the root must return it before drawing a
    // collective sequence number or touching the plan cache, so the next
    // collective on the communicator still matches the peers' (who never
    // entered the rejected call).
    within_a_minute("rejected root gather/scatter", || {
        Universe::run(UniverseConfig::cxl_small(2), |comm: &mut Comm| {
            let me = comm.rank();
            let root = 0;
            if me == root {
                let before = comm.plan_cache_stats();
                let send = [7u64; 2];
                let mut short = [0u64; 3]; // needs 2 ranks × 2
                assert!(matches!(
                    comm.gather_into(root, &send, Some(&mut short)),
                    Err(MpiError::InvalidCollective(_))
                ));
                assert!(matches!(
                    comm.gather_into::<u64>(root, &send, None),
                    Err(MpiError::InvalidCollective(_))
                ));
                let mut recv = [0u64; 2];
                assert!(matches!(
                    comm.scatter_from(root, Some(&short[..]), &mut recv),
                    Err(MpiError::InvalidCollective(_))
                ));
                assert!(matches!(
                    comm.scatter_from::<u64>(root, None, &mut recv),
                    Err(MpiError::InvalidCollective(_))
                ));
                assert_eq!(
                    comm.plan_cache_stats(),
                    before,
                    "rejected calls touched the cache"
                );
            }
            let mut v = vec![me as u64 + 1; 4];
            comm.allreduce(&mut v, ReduceOp::Sum)?;
            assert_eq!(v, vec![3; 4]);
            Ok(())
        })
        .expect("universe");
    });
}

#[test]
fn interleaved_persistent_and_one_shot_survive_seq_window_wrap() {
    // The collective tag layout keeps 2048 in-flight sequence numbers
    // distinct; > 2048 starts on one communicator wrap the window. A
    // persistent allreduce restarts throughout, interleaved with one-shot
    // bcasts (different shape, same communicator), so cached plans are
    // re-bound under wrapped sequence numbers in both paths.
    const ITERS: i64 = 2_100;
    let results = Universe::run(UniverseConfig::cxl_small(3), |comm: &mut Comm| {
        let me = comm.rank();
        let n = comm.size();
        let zero = vec![0i64; 4];
        let mut p = comm.allreduce_init(&zero, ReduceOp::Sum)?;
        for iter in 0..ITERS {
            let input: Vec<i64> = (0..4).map(|i| (me as i64 + 1) * (iter + 1) + i).collect();
            p.write_input(&input)?;
            comm.start(&mut p)?;
            // One-shot bcast while the persistent allreduce is in flight.
            let mut payload = vec![if me == iter as usize % n { iter } else { 0 }; 2];
            comm.bcast_into(iter as usize % n, &mut payload)?;
            assert!(payload.iter().all(|&v| v == iter));
            comm.wait(&mut p)?;
            let out: Vec<i64> = p.read_result()?;
            let rank_sum: i64 = (1..=n as i64).sum::<i64>() * (iter + 1);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, rank_sum + n as i64 * i as i64, "iter {iter} elem {i}");
            }
        }
        p.release()?;
        Ok(())
    })
    .unwrap();
    for (_, report) in &results {
        assert_eq!(report.progress.persistent_starts, ITERS as u64);
        // Persistent starts bypass the cache entirely (the request owns its
        // plan handle); the one-shot bcasts hit after one build per root.
        assert!(
            report.plan_cache.hits >= ITERS as u64 - 3,
            "{:?}",
            report.plan_cache
        );
        assert!(report.plan_cache.misses <= 4, "{:?}", report.plan_cache);
    }
}

#[test]
fn persistent_lifecycle_guards() {
    Universe::run(UniverseConfig::cxl_small(2), |comm: &mut Comm| {
        let zero = vec![0u64; 4];
        let mut p = comm.allreduce_init(&zero, ReduceOp::Sum)?;
        assert_eq!(p.state(), RequestState::Inactive);
        assert!(p.is_persistent());

        // Wait/test on an inactive request is an error (it will never
        // complete), as is reading a result that does not exist yet.
        assert!(matches!(comm.wait(&mut p), Err(MpiError::StaleRequest)));
        assert!(matches!(comm.test(&mut p), Err(MpiError::StaleRequest)));
        assert!(p.read_result::<u64>().is_err());

        // Start on a non-persistent request is rejected.
        let mut one_shot = comm.iallreduce(&zero, ReduceOp::Sum)?;
        assert!(matches!(
            comm.start(&mut one_shot),
            Err(MpiError::InvalidCollective(_))
        ));
        comm.wait(&mut one_shot)?;
        one_shot.release()?;

        // Input length must match the bound contribution exactly.
        assert!(p.write_input(&[1u64, 2]).is_err());
        p.write_input(&[1u64, 2, 3, 4])?;

        comm.start(&mut p)?;
        // Double-start of an in-flight request is rejected; rewriting the
        // input mid-flight is too.
        assert!(matches!(
            comm.start(&mut p),
            Err(MpiError::InvalidCollective(_))
        ));
        assert!(p.write_input(&[9u64, 9, 9, 9]).is_err());
        comm.wait(&mut p)?;
        assert_eq!(p.state(), RequestState::RecvComplete);

        // take_data would destroy the restartable buffers: rejected, and the
        // request stays complete + restartable.
        assert!(p.take_data().is_err());
        assert_eq!(p.state(), RequestState::RecvComplete);
        let out: Vec<u64> = p.read_result()?;
        assert_eq!(out, vec![2, 4, 6, 8]);

        // Restart works from the completed state.
        comm.start(&mut p)?;
        comm.wait(&mut p)?;

        // Release retires it for good (it is no longer persistent at all).
        p.release()?;
        assert_eq!(p.state(), RequestState::Consumed);
        assert!(!p.is_persistent());
        assert!(comm.start(&mut p).is_err());
        Ok(())
    })
    .unwrap();
}

#[test]
fn startall_runs_a_wave_of_persistent_collectives() {
    for (label, config) in configs(4) {
        Universe::run(config, |comm: &mut Comm| {
            let me = comm.rank();
            let n = comm.size();
            let ar_in = vec![me as i64 + 1; 4];
            let ag_in = vec![me as i64; 2];
            let mut wave = vec![
                comm.allreduce_init(&ar_in, ReduceOp::Sum)?,
                comm.allgather_init(&ag_in)?,
                comm.barrier_init()?,
            ];
            for _ in 0..3 {
                // An allreduce restart folds whatever the buffer holds (the
                // previous result, after a completion): rewrite the
                // contribution before every wave, as a real solver would.
                wave[0].write_input(&ar_in)?;
                comm.startall(&mut wave)?;
                comm.wait_all(&mut wave)?;
                let ar: Vec<i64> = wave[0].read_result()?;
                assert!(ar.iter().all(|&v| v == (1..=n as i64).sum::<i64>()));
                let ag: Vec<i64> = wave[1].read_result()?;
                let expect: Vec<i64> = (0..n as i64).flat_map(|r| [r, r]).collect();
                assert_eq!(ag, expect);
            }
            for r in &mut wave {
                r.release()?;
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn persistent_data_plane_matches_ring_across_restarts() {
    // Persistent starts on the shared-window data plane: window and plan are
    // set up once at bind time, every restart re-executes the same
    // single-copy schedule (rotating exposure slots), and the results stay
    // byte-identical to the flat ring path across all restarts.
    use cmpi::mpi::CollTuning;
    use common::{force_ring, force_shm, with_window_headroom};

    for n in [3usize, 5, 6, 7] {
        let run = |tuning: CollTuning, expect_shm: bool| -> Vec<Vec<Vec<i64>>> {
            let config =
                with_window_headroom(UniverseConfig::cxl_small(n).with_hosts(2), 64 * 1024 * 1024)
                    .with_coll_tuning(tuning);
            let results = Universe::run(config, move |comm: &mut Comm| {
                let me = comm.rank();
                let n = comm.size();
                let count = 3 * n;
                let root = 1 % n;
                let zero = vec![0i64; count];
                let mut p_bcast = comm.bcast_init(root, &zero)?;
                let mut p_ar = comm.allreduce_init(&zero, ReduceOp::Sum)?;
                let mut p_ag = comm.allgather_init(&zero[..3])?;
                let mut out: Vec<Vec<i64>> = Vec::new();
                // More restarts than DP_SLOTS, so slot reuse waits on acks.
                for iter in 0..6i64 {
                    let input = seeded(me, iter, count);
                    if me == root {
                        p_bcast.write_input(&input)?;
                    }
                    comm.start(&mut p_bcast)?;
                    comm.wait(&mut p_bcast)?;
                    out.push(p_bcast.read_result()?);
                    p_ar.write_input(&input)?;
                    comm.start(&mut p_ar)?;
                    comm.wait(&mut p_ar)?;
                    out.push(p_ar.read_result()?);
                    p_ag.write_input(&input[..3])?;
                    comm.start(&mut p_ag)?;
                    comm.wait(&mut p_ag)?;
                    out.push(p_ag.read_result()?);
                }
                p_bcast.release()?;
                p_ar.release()?;
                p_ag.release()?;
                let dp = comm.data_plane_stats();
                if expect_shm {
                    // One window, 3 families × 6 restarts on it.
                    assert_eq!(dp.window_setups, 1, "{dp:?}");
                    assert!(dp.shm_colls >= 18, "{dp:?}");
                    assert!(dp.expose_ops > 0 && dp.bytes_pulled > 0, "{dp:?}");
                } else {
                    assert_eq!(dp.shm_colls, 0, "{dp:?}");
                }
                Ok(out)
            })
            .unwrap_or_else(|e| panic!("n={n} expect_shm={expect_shm}: {e}"));
            results.into_iter().map(|(o, _)| o).collect()
        };
        let ring = run(force_ring(), false);
        let shm = run(force_shm(), true);
        assert_eq!(ring, shm, "n={n}: persistent shm diverged from ring");
    }
}
