//! The library's counters that prove which path ran, read through the public
//! `Comm` snapshots (`stats`, `progress_stats`, `plan_cache_stats`,
//! `data_plane_stats`) and combined as deltas and sums over ranks.

use cmpi_core::Comm;

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// One rank's counter snapshot, or a delta or sum of snapshots.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            pub fn minus(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field,)* }
            }

            pub fn plus(&self, other: &Counters) -> Counters {
                Counters { $($field: self.$field + other.$field,)* }
            }
        }
    };
}

counters!(
    msgs_sent,
    msgs_received,
    srq_msgs,
    qps_established,
    doorbell_rings,
    ring_probes,
    puts,
    gets,
    plan_hits,
    plan_misses,
    test_polls,
    wait_polls,
    ops_polled,
    persistent_starts,
    shm_colls,
    ring_colls,
    pull_ops,
    notify_waits,
);

impl Counters {
    pub fn read(comm: &Comm) -> Counters {
        let t = comm.stats();
        let p = comm.progress_stats();
        let plan = comm.plan_cache_stats();
        let dp = comm.data_plane_stats();
        Counters {
            msgs_sent: t.msgs_sent,
            msgs_received: t.msgs_received,
            srq_msgs: t.srq_msgs,
            qps_established: t.qps_established,
            doorbell_rings: t.doorbell_rings,
            ring_probes: t.ring_probes,
            puts: t.puts,
            gets: t.gets,
            plan_hits: plan.hits,
            plan_misses: plan.misses,
            test_polls: p.test_polls,
            wait_polls: p.wait_polls,
            ops_polled: p.ops_in_test + p.ops_in_wait + p.ops_in_thread,
            persistent_starts: p.persistent_starts,
            shm_colls: dp.shm_colls,
            ring_colls: dp.ring_colls,
            pull_ops: dp.pull_ops,
            notify_waits: dp.notify_waits,
        }
    }
}
