//! Analytic flat-vs-sparse connection-state scaling model.
//!
//! The paper's platform stops at four hosts, so — like the Figure 10 study —
//! the large-universe connection-state question is answered analytically and
//! cross-checked against the transport's own sizing arithmetic. An *eager*
//! (flat) universe formats the full `ranks × ranks` queue matrix at
//! construction: pool state quadratic in the world size. A *lazy* (sparse)
//! universe formats one doorbell and one shared receive queue per rank up
//! front and promotes at most `min(budget, n-1)` queue-pairs per rank on
//! first use, so the pool reservation is linear in `n` for a fixed budget.
//!
//! The transport implements only the lazy discipline; the flat matrix exists
//! here alone, as the analytic baseline. The model is deliberately
//! parameterized on per-object byte costs instead of importing them: the
//! bench harness feeds the real transport's numbers
//! (`QueueGeometry::queue_bytes`, doorbell/SRQ sizes, allocator slack) and
//! asserts the analytic lazy total matches `ConnTable::required_device_bytes`
//! exactly, while this crate stays free of a core dependency. All arithmetic
//! is `u128` so the flat side can be evaluated well past the point where it
//! stops being allocatable.

use serde::{Deserialize, Serialize};

/// Per-object device byte costs of the connection state, matching what the
/// transport's sizing paths charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnCosts {
    /// Raw bytes of one SPSC ring queue (control block + cells).
    pub queue_bytes: u128,
    /// Per-object allocator slack charged for each lazily created pool object
    /// (the eager matrix is one object, so its queues carry no slack).
    pub obj_slack: u128,
    /// Bytes of one rank's doorbell object at this world size (summary word +
    /// one group word per 64 senders), including slack.
    pub doorbell_bytes: u128,
    /// Bytes of one rank's shared receive queue, including slack.
    pub srq_bytes: u128,
}

/// One analytic point: connection-object counts and pool bytes for both
/// formatting disciplines at a given world size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnScalingPoint {
    /// World size.
    pub ranks: u128,
    /// Queues the eager discipline formats: the full `n × n` matrix.
    pub eager_queues: u128,
    /// Worst-case queue-pairs the lazy discipline can promote:
    /// `n · min(budget, n-1)`.
    pub lazy_qp_capacity: u128,
    /// Pool bytes the eager matrix reserves.
    pub eager_bytes: u128,
    /// Pool bytes the lazy discipline reserves (doorbells + SRQs + QP budget).
    pub lazy_bytes: u128,
}

impl ConnScalingPoint {
    /// Evaluate the model at one world size. `qp_budget` is the per-rank
    /// promotion budget of the lazy discipline.
    pub fn evaluate(ranks: usize, qp_budget: usize, costs: ConnCosts) -> Self {
        let n = ranks as u128;
        let budget = n.saturating_sub(1).min(qp_budget as u128);
        let eager_queues = n * n;
        let lazy_qp_capacity = n * budget;
        ConnScalingPoint {
            ranks: n,
            eager_queues,
            lazy_qp_capacity,
            eager_bytes: eager_queues * costs.queue_bytes,
            lazy_bytes: n
                * (costs.doorbell_bytes
                    + costs.srq_bytes
                    + budget * (costs.queue_bytes + costs.obj_slack)),
        }
    }

    /// Ratio of eager to lazy pool bytes — the memory headroom the sparse
    /// discipline buys at this world size.
    pub fn bytes_ratio(&self) -> f64 {
        self.eager_bytes as f64 / self.lazy_bytes as f64
    }
}

/// Evaluate the model across a sweep of world sizes.
pub fn conn_scaling_sweep(
    ranks: &[usize],
    qp_budget: usize,
    costs: ConnCosts,
) -> Vec<ConnScalingPoint> {
    ranks
        .iter()
        .map(|&n| ConnScalingPoint::evaluate(n, qp_budget, costs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const COSTS: ConnCosts = ConnCosts {
        queue_bytes: 4_096,
        obj_slack: 192,
        doorbell_bytes: 384,
        srq_bytes: 8_192,
    };

    #[test]
    fn eager_is_quadratic_lazy_is_linear() {
        let sweep = conn_scaling_sweep(&[64, 256, 1024], 16, COSTS);
        // Quadrupling the world size ×16s the eager matrix but only ×4s the
        // lazy capacity once the budget binds.
        assert_eq!(sweep[1].eager_queues, 256 * 256);
        assert_eq!(sweep[1].eager_bytes, 16 * sweep[0].eager_bytes);
        assert_eq!(sweep[1].lazy_qp_capacity, 4 * sweep[0].lazy_qp_capacity);
        assert_eq!(sweep[2].lazy_bytes, 4 * sweep[1].lazy_bytes);
        // At n=1024 the sparse discipline is well over an order of magnitude
        // cheaper in pool bytes.
        assert!(sweep[2].bytes_ratio() > 10.0);
    }

    #[test]
    fn budget_clips_to_world_size() {
        let small = ConnScalingPoint::evaluate(4, 16, COSTS);
        assert_eq!(small.lazy_qp_capacity, 4 * 3);
        // Below the budget the lazy side holds nearly the full matrix plus
        // SRQs and doorbells on top, so it is the eager side that wins.
        assert!(small.lazy_bytes > small.eager_bytes * 3 / 4);
    }

    #[test]
    fn huge_worlds_do_not_overflow() {
        let p = ConnScalingPoint::evaluate(1 << 20, 16, COSTS);
        assert_eq!(p.eager_queues, (1u128 << 20) * (1u128 << 20));
        assert!(p.bytes_ratio() > 1000.0);
    }
}
