//! Shared scaffolding for the integration-test suites: the two-transport
//! configuration matrix and the tuning overrides that force every collective
//! algorithm branch (flat, hierarchical, and data-plane).

#![allow(dead_code)] // not every suite uses every helper

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use cmpi::fabric::cost::TcpNic;
use cmpi::mpi::{CollTuning, DataPlaneMode, HierarchyMode, TransportConfig, UniverseConfig};

/// Host count of the test matrix: `CMPI_HOSTS` (the CI topology-matrix leg
/// sets 1, 2 and 3), defaulting to the paper's two-host layout. Clamped to the
/// rank count by the config layer.
pub fn matrix_hosts() -> usize {
    std::env::var("CMPI_HOSTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&h| h >= 1)
        .unwrap_or(2)
}

/// Data-plane mode of the test matrix: `CMPI_DATA_PLANE` ∈ {`ring`, `shm`,
/// `auto`} (the CI data-plane matrix leg). `None` when unset — the matrix
/// then runs the stock `cxl_small` config, whose 1 MiB pool deliberately
/// fails window creation so the default leg exercises the graceful
/// fall-back-to-ring path.
pub fn matrix_data_plane() -> Option<DataPlaneMode> {
    match std::env::var("CMPI_DATA_PLANE").ok().as_deref() {
        Some("ring") => Some(DataPlaneMode::Ring),
        Some("shm") => Some(DataPlaneMode::Shm),
        Some("auto") => Some(DataPlaneMode::Auto),
        _ => None,
    }
}

/// Per-rank shared-window arena used by the test matrix and the `force_shm`
/// tuning: small enough that the pool comfortably holds one window per
/// communicator the suites create, with 64 KiB slots that still take the
/// single-copy path for the integration payloads.
pub const TEST_SHM_ARENA_BYTES: usize = 256 * 1024;

/// Grow a CXL config's pool headroom so data-plane windows can actually be
/// created (`cxl_small`'s 1 MiB headroom deliberately cannot hold even the
/// default per-rank arena — the graceful creation-failure path).
pub fn with_window_headroom(mut config: UniverseConfig, headroom: usize) -> UniverseConfig {
    if let TransportConfig::CxlShm(ref mut c) = config.transport {
        c.window_headroom = headroom;
    }
    config
}

/// Both transports at `ranks` ranks (small CXL cells so chunking is
/// exercised, Mellanox for the faster TCP baseline), spread over the
/// `CMPI_HOSTS` topology-matrix host count and running the `CMPI_DATA_PLANE`
/// data-plane mode (the non-ring legs get a pool large enough to hold the
/// per-communicator windows; TCP ignores the mode — it has no shared pool).
pub fn configs(ranks: usize) -> Vec<(&'static str, UniverseConfig)> {
    let mut cxl = UniverseConfig::cxl_small(ranks).with_hosts(matrix_hosts());
    if let Some(dp) = matrix_data_plane() {
        cxl.coll.data_plane = dp;
        if dp != DataPlaneMode::Ring {
            cxl.coll.shm_arena_bytes = TEST_SHM_ARENA_BYTES;
            cxl = with_window_headroom(cxl, 64 * 1024 * 1024);
        }
    }
    vec![
        ("CXL-SHM", cxl),
        (
            "TCP",
            UniverseConfig::tcp(ranks, TcpNic::MellanoxCx6Dx).with_hosts(matrix_hosts()),
        ),
    ]
}

/// Thresholds that force the large-message flat algorithms at tiny sizes
/// (hierarchy off and the data plane pinned to ring, so the flat ring branch
/// under test is the one that runs).
pub fn force_large() -> CollTuning {
    CollTuning {
        bcast_scatter_allgather_min_bytes: 1,
        allreduce_rabenseifner_min_bytes: 1,
        allgather_bruck_max_bytes: 0,
        reduce_scatter_direct_min_bytes: 1,
        alltoall_bruck_max_bytes: 0,
        hierarchy: HierarchyMode::Off,
        data_plane: DataPlaneMode::Ring,
        ..CollTuning::default()
    }
}

/// Thresholds that force the small-message flat algorithms at any size
/// (hierarchy off, data plane pinned to ring).
pub fn force_small() -> CollTuning {
    CollTuning {
        bcast_scatter_allgather_min_bytes: usize::MAX,
        allreduce_rabenseifner_min_bytes: usize::MAX,
        allgather_bruck_max_bytes: usize::MAX,
        reduce_scatter_direct_min_bytes: usize::MAX,
        alltoall_bruck_max_bytes: usize::MAX,
        hierarchy: HierarchyMode::Off,
        data_plane: DataPlaneMode::Ring,
        ..CollTuning::default()
    }
}

/// Force the hierarchical compositions at any size and shape (on ≥ 2 spanned
/// hosts; single-host communicators still run flat), with default flat
/// thresholds inside the phases. Data plane pinned to ring so the composite
/// ring labels stay deterministic under every `CMPI_DATA_PLANE` leg.
pub fn force_hier() -> CollTuning {
    CollTuning {
        hierarchy: HierarchyMode::Force,
        data_plane: DataPlaneMode::Ring,
        ..CollTuning::default()
    }
}

/// As [`force_hier`], but with the large-payload flat algorithms forced
/// *inside* the hierarchical phases too (van de Geijn fan-out, Rabenseifner
/// leader phase at tiny sizes).
pub fn force_hier_large() -> CollTuning {
    CollTuning {
        bcast_scatter_allgather_min_bytes: 1,
        allreduce_rabenseifner_min_bytes: 1,
        allgather_bruck_max_bytes: 0,
        reduce_scatter_direct_min_bytes: 1,
        alltoall_bruck_max_bytes: 0,
        hierarchy: HierarchyMode::Force,
        data_plane: DataPlaneMode::Ring,
        ..CollTuning::default()
    }
}

/// Force the shared-window single-copy data plane (hierarchy off; payloads
/// that exceed one slot, and communicators whose window creation failed,
/// still fall back to ring). Pair with [`with_window_headroom`] on
/// `cxl_small` configs so the window can actually be created.
pub fn force_shm() -> CollTuning {
    CollTuning {
        hierarchy: HierarchyMode::Off,
        data_plane: DataPlaneMode::Shm,
        shm_arena_bytes: TEST_SHM_ARENA_BYTES,
        ..CollTuning::default()
    }
}

/// Pin the flat ring path with default size thresholds: the baseline side of
/// the shm ≡ ring byte-equivalence checks.
pub fn force_ring() -> CollTuning {
    CollTuning {
        hierarchy: HierarchyMode::Off,
        data_plane: DataPlaneMode::Ring,
        ..CollTuning::default()
    }
}

/// Run `f` on a helper thread and fail — instead of hanging the suite — if it
/// does not finish within a minute.
pub fn within_a_minute<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(v) => {
            runner.join().expect("runner finished after sending");
            v
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what} did not finish within 60 s (deadlock)"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("runner dropped its result"))
        }
    }
}
