//! Two-sided traffic under CXL flow control: sends whose messages exceed the
//! receiver's queue capacity, crossing each other or the SRQ → queue-pair
//! promotion, must neither deadlock nor reorder.

use std::time::Duration;

use cmpi::mpi::{Comm, DataPlaneMode, Request, Universe, UniverseConfig};

mod common;
use common::within_a_minute;

/// Deterministic bytes unique to `(key, len)`.
fn pattern(key: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (key * 131 + j * 7 + j / 251) as u8)
        .collect()
}

/// Every rank `isend`s `bytes` to its right neighbour *before* posting the
/// receive from its left one. With two ranks this is the pairwise exchange;
/// with more it is a ring. Each message exceeds what the receiver's queue
/// holds, so every send stalls mid-message until the peer — itself stuck in
/// its own send — drains its inbound side.
fn exchange(what: &str, config: UniverseConfig, bytes: usize) {
    within_a_minute(what, move || {
        Universe::run(config, move |comm: &mut Comm| {
            let me = comm.rank();
            let n = comm.size();
            let (right, left) = ((me + 1) % n, (me + n - 1) % n);
            let mut sent = comm.isend(right, 5, &pattern(me, bytes))?;
            let (status, data) = comm.recv_owned(Some(left), Some(5))?;
            comm.wait(&mut sent)?;
            assert_eq!(status.source, left);
            assert!(
                data == pattern(left, bytes),
                "{bytes} B from {left} corrupt"
            );
            Ok(())
        })
        .expect("exchange universe");
    });
}

#[test]
fn crossing_sends_larger_than_the_queues_complete() {
    // 64 KiB against 1 KiB cells: 2× the SRQ, 16× a queue pair.
    exchange("pairwise 64 KiB", UniverseConfig::cxl_small(2), 64 * 1024);
    // 4 MiB against the paper geometry: 2× the SRQ, 8× a queue pair.
    exchange("pairwise 4 MiB", UniverseConfig::cxl(2), 4 * 1024 * 1024);
    exchange(
        "3-rank ring 64 KiB",
        UniverseConfig::cxl_small(3),
        64 * 1024,
    );
}

/// Sizes of the same-tag message stream: from 1 B to ~3× the 32 KiB SRQ and
/// ~25× a 4 KiB queue pair of `cxl_small`.
const SIZES: [usize; 14] = [
    1, 1024, 700, 5000, 33_000, 3, 4096, 100_000, 17, 2048, 65_536, 9, 40_000, 1500,
];

/// Rank 0 completes its posted `ibcast`s before sending this message and
/// waits for rank 1 to receive it afterwards, so the next message entry finds
/// every SRQ ticket consumed and promotes the pair.
const HANDSHAKE_AFTER: usize = 6;

/// Elements of each ring-mode `ibcast` (24 KiB, larger than a queue pair).
const BCAST_ELEMS: usize = 3 * 1024;

fn bcast_payload(k: usize) -> Vec<u64> {
    (0..BCAST_ELEMS as u64)
        .map(|j| j * 1_000 + k as u64)
        .collect()
}

/// Rank 0 streams same-tag messages of mixed sizes to rank 1, interleaved
/// with ring-mode `ibcast`s, so the blocking `send` and the progress
/// engine's resumable sends feed the same peer. The early messages travel
/// the SRQ, the ones after a mid-stream handshake the promoted queue pair,
/// and the large ones stall on full queues mid-message — rank 1 only starts
/// receiving once rank 0 is well ahead. Every payload must arrive intact and
/// in posting order.
#[test]
fn same_tag_stream_keeps_order_across_promotion_and_full_queues() {
    let mut config = UniverseConfig::cxl_small(2);
    config.coll.data_plane = DataPlaneMode::Ring;
    let reports = within_a_minute("ordered stream", move || {
        Universe::run(config, |comm: &mut Comm| {
            let mut bcasts: Vec<Request> = Vec::new();
            if comm.rank() == 0 {
                for (i, &size) in SIZES.iter().enumerate() {
                    if i == HANDSHAKE_AFTER {
                        for mut req in bcasts.drain(..) {
                            comm.wait(&mut req)?;
                        }
                    }
                    comm.send(1, 9, &pattern(i, size))?;
                    if i == HANDSHAKE_AFTER {
                        comm.recv_owned(Some(1), Some(10))?;
                    }
                    if i % 5 == 1 {
                        bcasts.push(comm.ibcast_into(0, &bcast_payload(i / 5))?);
                    }
                }
            } else {
                // Post late, so rank 0 most likely fills the SRQ and stalls
                // first (no assertion depends on this timing).
                std::thread::sleep(Duration::from_millis(50));
                for _ in 0..SIZES.len().div_ceil(5) {
                    bcasts.push(comm.ibcast_into(0, &[0u64; BCAST_ELEMS])?);
                }
                for (i, &size) in SIZES.iter().enumerate() {
                    let (status, data) = comm.recv_owned(Some(0), Some(9))?;
                    assert_eq!(status.len, size, "message {i} out of order");
                    assert!(data == pattern(i, size), "message {i} corrupt");
                    if i == HANDSHAKE_AFTER {
                        comm.send(0, 10, &[])?;
                    }
                }
            }
            for (k, req) in bcasts.iter_mut().enumerate() {
                comm.wait(req)?;
                if comm.rank() == 1 {
                    assert!(req.take_values::<u64>()? == bcast_payload(k), "ibcast {k}");
                }
            }
            Ok(())
        })
        .expect("ordered-stream universe")
    });
    // Both routes carried traffic from rank 0.
    let stats = &reports[0].1.stats;
    assert!(stats.srq_msgs > 0, "nothing went through the SRQ");
    assert!(stats.qps_established > 0, "the pair never promoted");
}
