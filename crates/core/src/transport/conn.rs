//! Lazy sparse connection state for the CXL transport.
//!
//! The original transport carved a full `ranks × ranks` queue matrix out of
//! the pool at universe construction and swept every sender ring on every
//! poll — O(n²) device memory and O(n) per-poll cost, which is what stopped
//! the simulated universe well short of 1024 ranks. This module replaces the
//! matrix with per-rank sparse state, established on first use:
//!
//! * a **doorbell** per receiver — a two-level atomic bitmap (summary word +
//!   one word per group of 64 senders) that a sender rings after every chunk
//!   it enqueues into a dedicated queue pair, so the receiver's poll visits
//!   exactly the rings that have data (one non-temporal load when idle);
//! * a **shared receive queue** (SRQ) per receiver — a multi-producer ticket
//!   ring carrying all traffic from peers that have not (yet) been promoted
//!   to a dedicated queue pair, so a pair that exchanges two messages never
//!   pays for a private ring;
//! * **dedicated queue pairs** (SPSC message-cell rings, [`crate::queue`]),
//!   created by the sender once a pair crosses
//!   [`crate::config::CxlShmTransportConfig::promotion_threshold`] messages
//!   and bounded per rank by
//!   [`crate::config::CxlShmTransportConfig::qp_budget`] — per-rank transport
//!   memory is O(active peers), never O(n).
//!
//! ### The atomics deviation
//!
//! The paper's platform has no cross-host atomic read-modify-writes, which is
//! why the *data path* (queue pairs, barriers, RMA flags) uses only SPSC
//! loads and stores. The doorbell bitmap and the SRQ ticket counter are the
//! deliberate exception: they model the back-invalidate atomics of CXL 3.0
//! devices (`cxl_shm::SharedSegment::fetch_or_u64` documents this), carry no
//! payload bytes, and are the only multi-writer words in the system.
//!
//! ### Ordering across promotion
//!
//! A sender funnels its first messages through the peer's SRQ. Promotion to a
//! dedicated queue pair is **opportunistic**: it only happens at a message
//! entry where the receiver has already consumed every SRQ ticket this sender
//! published (`head > last_ticket`). The switch therefore never lets a
//! queue-pair message overtake an SRQ message from the same sender — MPI's
//! non-overtaking guarantee holds without sequence numbers, and no send path
//! ever blocks waiting for the drain (it just stays on the SRQ one more
//! message).

use std::collections::{BTreeMap, BTreeSet};

use cmpi_fabric::SimClock;
use cxl_shm::{CxlShmArena, ShmObject};

use crate::config::CxlShmTransportConfig;
use crate::error::MpiError;
use crate::queue::{CellHeader, QueueGeometry, SpscQueue, CELL_HEADER_SIZE};
use crate::spin::PoisonFlag;
use crate::transport::cxl::{open_poisoned, spin_flag};
use crate::types::Rank;
use crate::Result;

/// Ready magic published at the tail of every lazily created connection
/// object (doorbell, SRQ, queue pair) once it is formatted, so an opener
/// racing the creator never observes stale bytes from recycled pool memory.
const CONN_READY_MAGIC: u64 = 0x434f_4e4e_5f52_4459; // "CONN_RDY"

/// Per-object sizing slack accounted when provisioning the device: the ready
/// flag line plus allocator alignment headroom. Public so the bench harness
/// can reconstruct the sizing arithmetic for the analytic scaling cross-check.
pub const OBJ_SLACK: usize = 192;

/// SRQ control offsets: the consumer-owned head (+ its timestamp) on line 0,
/// the multi-producer ticket counter on line 1, slots from line 2.
const SRQ_HEAD: u64 = 0;
const SRQ_HEAD_TS: u64 = 8;
const SRQ_TICKET: u64 = 64;
const SRQ_SLOTS_BASE: u64 = 128;

/// Name of rank `r`'s doorbell object.
pub fn db_name(rank: Rank) -> String {
    format!("cmpi/db_{rank}")
}

/// Name of rank `r`'s shared receive queue object.
pub fn srq_name(rank: Rank) -> String {
    format!("cmpi/srq_{rank}")
}

/// Name of the dedicated queue pair carrying `src → dst` traffic (created and
/// produced by `src`, consumed by `dst`).
pub fn qp_name(dst: Rank, src: Rank) -> String {
    format!("cmpi/qp_{dst}_{src}")
}

// ---------------------------------------------------------------------------
// Doorbell
// ---------------------------------------------------------------------------

/// A receiver's two-level active-sender bitmap.
///
/// Word 0 is the summary: bit `g` means group word `g` may hold rung bits.
/// Group word `g` (at `stride × (1 + g)`) holds one bit per sender in
/// `[64g, 64g + 64)`. Senders ring with `fetch_or` group-then-summary; the
/// receiver collects with `swap` summary-then-groups, so a ring can be
/// observed twice (benign spurious wakeup) but never lost. With a 64-bit
/// summary the scheme addresses up to 4096 ranks.
#[derive(Debug, Clone)]
pub struct Doorbell {
    obj: ShmObject,
    stride: u64,
    groups: usize,
}

impl Doorbell {
    /// Bytes of the bitmap itself (summary + group words at `stride`), with
    /// the rank ceiling enforced.
    pub fn required_bytes(ranks: usize, stride: usize) -> Result<usize> {
        let groups = ranks.div_ceil(64);
        if groups > 64 {
            return Err(MpiError::Transport(format!(
                "doorbell bitmap addresses at most 4096 ranks, got {ranks}"
            )));
        }
        stride
            .checked_mul(1 + groups)
            .ok_or_else(|| MpiError::Transport("doorbell_stride overflows".into()))
    }

    /// Create, format and publish rank `owner`'s doorbell.
    pub fn create(arena: &CxlShmArena, owner: Rank, ranks: usize, stride: usize) -> Result<Self> {
        let bytes = Self::required_bytes(ranks, stride)?;
        let obj = arena.create(&db_name(owner), bytes + 64)?;
        let db = Doorbell {
            obj,
            stride: stride as u64,
            groups: ranks.div_ceil(64),
        };
        db.obj.nt_store_u64_at(0, 0)?;
        for g in 0..db.groups {
            db.obj.nt_store_u64_at(db.group_off(g), 0)?;
        }
        db.obj.nt_store_u64_at(bytes as u64, CONN_READY_MAGIC)?;
        Ok(db)
    }

    /// Open rank `owner`'s doorbell (waiting for creation + format).
    pub fn open(
        arena: &CxlShmArena,
        owner: Rank,
        ranks: usize,
        stride: usize,
        poison: &PoisonFlag,
    ) -> Result<Self> {
        let bytes = Self::required_bytes(ranks, stride)?;
        let obj = open_poisoned(arena, &db_name(owner), poison)?;
        spin_flag(&obj, bytes as u64, poison, |v| v == CONN_READY_MAGIC)?;
        Ok(Doorbell {
            obj,
            stride: stride as u64,
            groups: ranks.div_ceil(64),
        })
    }

    fn group_off(&self, g: usize) -> u64 {
        self.stride * (1 + g as u64)
    }

    /// Sender side: mark `sender` as having unconsumed data. Group bit first,
    /// then the summary bit — the collect order (summary swap, then group
    /// swaps) makes that publication order lost-wakeup free.
    pub fn ring(&self, sender: Rank) -> Result<()> {
        let g = sender / 64;
        debug_assert!(g < self.groups);
        self.obj
            .nt_fetch_or_u64_at(self.group_off(g), 1u64 << (sender % 64))?;
        self.obj.nt_fetch_or_u64_at(0, 1u64 << (g % 64))?;
        Ok(())
    }

    /// Receiver side: drain every rung sender bit into `pending`. Costs a
    /// single non-temporal load when idle, regardless of world size — the
    /// property the scaling regression tests assert on.
    pub fn collect_into(&self, pending: &mut BTreeSet<Rank>) -> Result<usize> {
        if self.obj.nt_load_u64_at(0)? == 0 {
            return Ok(0);
        }
        let mut summary = self.obj.nt_swap_u64_at(0, 0)?;
        let mut found = 0;
        while summary != 0 {
            let g = summary.trailing_zeros() as usize;
            summary &= summary - 1;
            if g >= self.groups {
                continue;
            }
            let mut word = self.obj.nt_swap_u64_at(self.group_off(g), 0)?;
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                pending.insert(g * 64 + b);
                found += 1;
            }
        }
        Ok(found)
    }
}

// ---------------------------------------------------------------------------
// Shared receive queue
// ---------------------------------------------------------------------------

/// Bytes of an SRQ ring (control lines + `cells` slots, each a seq-word line
/// plus one message cell of `geometry`).
pub fn srq_required_bytes(geometry: QueueGeometry, cells: usize) -> Result<usize> {
    geometry.checked_queue_bytes()?; // validates the cell arithmetic
    let slot = geometry
        .cell_bytes()
        .checked_add(64)
        .ok_or_else(|| MpiError::Transport("srq slot size overflows".into()))?;
    slot.checked_mul(cells)
        .and_then(|s| s.checked_add(SRQ_SLOTS_BASE as usize))
        .ok_or_else(|| {
            MpiError::Transport(format!(
                "shared receive queue of {cells} cells × {} payload bytes overflows — \
                 shrink srq_cells or cell_size",
                geometry.cell_payload
            ))
        })
}

fn srq_slot_bytes(geometry: QueueGeometry) -> u64 {
    64 + geometry.cell_bytes() as u64
}

/// Producer handle on a peer's SRQ: any rank may hold one; slots are claimed
/// with a compare-exchange on the ticket word, so a reservation is only ever
/// taken for a slot that is already free — producers never block each other.
#[derive(Debug, Clone)]
pub struct SrqProducer {
    obj: ShmObject,
    geometry: QueueGeometry,
    cells: u64,
}

impl SrqProducer {
    /// Open rank `owner`'s SRQ (waiting for creation + format).
    pub fn open(
        arena: &CxlShmArena,
        owner: Rank,
        geometry: QueueGeometry,
        cells: usize,
        poison: &PoisonFlag,
    ) -> Result<Self> {
        let bytes = srq_required_bytes(geometry, cells)?;
        let obj = open_poisoned(arena, &srq_name(owner), poison)?;
        spin_flag(&obj, bytes as u64, poison, |v| v == CONN_READY_MAGIC)?;
        Ok(SrqProducer {
            obj,
            geometry,
            cells: cells as u64,
        })
    }

    /// The consumer's published head (tickets consumed so far).
    pub fn head(&self) -> Result<u64> {
        Ok(self.obj.nt_load_u64_at(SRQ_HEAD)?)
    }

    /// Timestamp the consumer published when it last freed a slot.
    pub fn head_timestamp(&self) -> Result<f64> {
        Ok(f64::from_bits(self.obj.nt_load_u64_at(SRQ_HEAD_TS)?))
    }

    /// Whether the ring currently has a free slot (conservative: another
    /// producer may take it first; `try_enqueue` re-validates).
    pub fn has_space(&self) -> Result<bool> {
        let head = self.obj.nt_load_u64_at(SRQ_HEAD)?;
        let ticket = self.obj.nt_load_u64_at(SRQ_TICKET)?;
        Ok(ticket.wrapping_sub(head) < self.cells)
    }

    /// Try to publish one chunk: claim a ticket (compare-exchange loop that
    /// only succeeds for an already-free slot), write the cell, then flip the
    /// slot's seq word to `ticket + 1` as the ready marker. Returns the
    /// ticket, or `None` when the ring is full — without blocking, which is
    /// what keeps two ranks mid-send to each other's full SRQs deadlock-free.
    pub fn try_enqueue_with_scratch(
        &self,
        header: &CellHeader,
        payload: &[u8],
        scratch: &mut Vec<u8>,
    ) -> Result<Option<u64>> {
        if payload.len() > self.geometry.cell_payload {
            return Err(MpiError::Transport(format!(
                "chunk of {} bytes exceeds SRQ cell payload capacity {}",
                payload.len(),
                self.geometry.cell_payload
            )));
        }
        let head = self.obj.nt_load_u64_at(SRQ_HEAD)?;
        let ticket = loop {
            let ticket = self.obj.nt_load_u64_at(SRQ_TICKET)?;
            // `head` only grows, so a stale head can only under-report space:
            // a successful claim is always for a slot the consumer has fully
            // drained (`ticket - cells < head` ⇒ the slot's previous occupant
            // was consumed, and its stale seq word `ticket - cells + 1` can
            // never be mistaken for this ticket's ready marker).
            if ticket.wrapping_sub(head) >= self.cells {
                return Ok(None);
            }
            match self
                .obj
                .nt_compare_exchange_u64_at(SRQ_TICKET, ticket, ticket + 1)?
            {
                Ok(_) => break ticket,
                Err(_) => continue, // lost the race; someone else progressed
            }
        };
        let slot = SRQ_SLOTS_BASE + (ticket % self.cells) * srq_slot_bytes(self.geometry);
        scratch.clear();
        scratch.reserve(CELL_HEADER_SIZE + payload.len());
        scratch.extend_from_slice(&header.encode());
        scratch.extend_from_slice(payload);
        self.obj.write_flush_at(slot + 64, scratch)?;
        self.obj.nt_store_u64_at(slot, ticket + 1)?;
        Ok(Some(ticket))
    }
}

/// Consumer handle on this rank's own SRQ (exactly one per rank). Cloning
/// yields another handle on the same shared ring (the transport's pump path
/// clones it to sidestep borrowing the whole connection table).
#[derive(Debug, Clone)]
pub struct SrqConsumer {
    obj: ShmObject,
    geometry: QueueGeometry,
    cells: u64,
}

impl SrqConsumer {
    /// Create, format and publish rank `owner`'s SRQ.
    pub fn create(
        arena: &CxlShmArena,
        owner: Rank,
        geometry: QueueGeometry,
        cells: usize,
    ) -> Result<Self> {
        let bytes = srq_required_bytes(geometry, cells)?;
        let obj = arena.create(&srq_name(owner), bytes + 64)?;
        let srq = SrqConsumer {
            obj,
            geometry,
            cells: cells as u64,
        };
        srq.obj.nt_store_u64_at(SRQ_HEAD, 0)?;
        srq.obj.nt_store_u64_at(SRQ_HEAD_TS, 0)?;
        srq.obj.nt_store_u64_at(SRQ_TICKET, 0)?;
        for slot in 0..srq.cells {
            srq.obj
                .nt_store_u64_at(SRQ_SLOTS_BASE + slot * srq_slot_bytes(geometry), 0)?;
        }
        srq.obj.nt_store_u64_at(bytes as u64, CONN_READY_MAGIC)?;
        Ok(srq)
    }

    fn head(&self) -> Result<u64> {
        Ok(self.obj.nt_load_u64_at(SRQ_HEAD)?)
    }

    fn slot_off(&self, ticket: u64) -> u64 {
        SRQ_SLOTS_BASE + (ticket % self.cells) * srq_slot_bytes(self.geometry)
    }

    /// Whether the next ticket in order has been published (two non-temporal
    /// loads when idle, independent of world size).
    pub fn has_message(&self) -> Result<bool> {
        let head = self.head()?;
        Ok(self.obj.nt_load_u64_at(self.slot_off(head))? == head + 1)
    }

    /// Read the next waiting cell's header without consuming it.
    pub fn peek_header(&self) -> Result<Option<CellHeader>> {
        let head = self.head()?;
        let slot = self.slot_off(head);
        if self.obj.nt_load_u64_at(slot)? != head + 1 {
            return Ok(None);
        }
        let mut hdr = [0u8; CELL_HEADER_SIZE];
        self.obj.read_coherent_at(slot + 64, &mut hdr)?;
        let header = CellHeader::decode(&hdr);
        self.check_geometry(&header)?;
        Ok(Some(header))
    }

    fn check_geometry(&self, header: &CellHeader) -> Result<()> {
        if header.chunk_len as usize > self.geometry.cell_payload {
            return Err(MpiError::Transport(format!(
                "corrupt SRQ cell: chunk_len {} exceeds capacity {}",
                header.chunk_len, self.geometry.cell_payload
            )));
        }
        Ok(())
    }

    /// Consume the next chunk in ticket order, copying its payload into
    /// `dst[..chunk_len]`. Publishes `now_ts` as the head timestamp so a
    /// producer waiting on a full ring can merge the consumer's clock.
    pub fn try_dequeue_into(&self, now_ts: f64, dst: &mut [u8]) -> Result<Option<CellHeader>> {
        let head = self.head()?;
        let slot = self.slot_off(head);
        if self.obj.nt_load_u64_at(slot)? != head + 1 {
            return Ok(None);
        }
        let mut hdr = [0u8; CELL_HEADER_SIZE];
        self.obj.read_coherent_at(slot + 64, &mut hdr)?;
        let header = CellHeader::decode(&hdr);
        self.check_geometry(&header)?;
        let len = header.chunk_len as usize;
        if len > dst.len() {
            return Err(MpiError::Transport(format!(
                "SRQ dequeue destination of {} bytes too small for {}-byte chunk",
                dst.len(),
                len
            )));
        }
        if len > 0 {
            self.obj
                .read_coherent_at(slot + 64 + CELL_HEADER_SIZE as u64, &mut dst[..len])?;
        }
        self.obj.nt_store_u64_at(SRQ_HEAD_TS, now_ts.to_bits())?;
        self.obj.nt_store_u64_at(SRQ_HEAD, head + 1)?;
        Ok(Some(header))
    }
}

// ---------------------------------------------------------------------------
// Connection table
// ---------------------------------------------------------------------------

/// Send-side state toward one peer.
#[derive(Debug)]
pub struct TxPeer {
    /// The peer's doorbell (rung after every queue-pair chunk).
    pub db: Doorbell,
    /// Producer handle on the peer's SRQ (the cold path).
    pub srq: SrqProducer,
    /// Dedicated queue pair once the pair is promoted.
    pub qp: Option<SpscQueue>,
    /// Queue-pair creation failed (pool exhausted): stay on the SRQ forever —
    /// correctness never depends on a successful promotion.
    pub srq_sticky: bool,
    /// Messages sent to this peer (drives promotion).
    pub msgs: u64,
    /// Last SRQ ticket published to this peer, if any — promotion waits
    /// (opportunistically) until the peer consumed past it.
    pub last_ticket: Option<u64>,
}

/// Counters the transport folds into [`crate::transport::TransportStats`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ConnCounters {
    /// Queue pairs this rank established as a sender.
    pub qps_established: u64,
    /// Queue pairs this rank opened as a receiver on doorbell discovery.
    pub qps_opened: u64,
    /// Messages this rank pushed through peers' SRQs.
    pub srq_msgs: u64,
}

/// One rank's lazy sparse connection state: its own doorbell + SRQ, sparse
/// per-peer send state, sparse per-sender receive rings, and the pending set
/// the doorbell drains into.
#[derive(Debug)]
pub struct ConnTable {
    rank: Rank,
    ranks: usize,
    arena: CxlShmArena,
    geometry: QueueGeometry,
    qp_budget: usize,
    promotion_threshold: u64,
    srq_cells: usize,
    doorbell_stride: usize,
    /// This rank's own doorbell (collected on every poll).
    my_db: Doorbell,
    /// This rank's own SRQ (consumer side).
    pub my_srq: SrqConsumer,
    tx: BTreeMap<Rank, TxPeer>,
    rx: BTreeMap<Rank, SpscQueue>,
    /// Senders whose dedicated rings may hold data. Survives early returns
    /// (e.g. truncation errors) — a bit once collected is only dropped after
    /// its ring drained empty.
    pub pending: BTreeSet<Rank>,
    /// Running totals folded into the transport stats.
    pub counters: ConnCounters,
    qps_created: usize,
    poison: PoisonFlag,
}

impl ConnTable {
    /// A rank never talks to more peers than exist, so the provisioned QP
    /// budget is capped at `ranks - 1`.
    pub fn effective_qp_budget(ranks: usize, qp_budget: usize) -> usize {
        qp_budget.min(ranks.saturating_sub(1))
    }

    /// Device bytes the lazy connection state of a whole universe may demand:
    /// per rank one doorbell, one SRQ, and up to the effective QP budget of
    /// dedicated queues. Checked arithmetic with actionable errors; linear in
    /// `ranks`, where a flat `ranks × ranks` queue matrix would be quadratic.
    pub fn required_device_bytes(
        ranks: usize,
        geometry: QueueGeometry,
        config: &CxlShmTransportConfig,
    ) -> Result<usize> {
        let db = Doorbell::required_bytes(ranks, config.doorbell_stride)? + OBJ_SLACK;
        let srq = srq_required_bytes(geometry, config.srq_cells)? + OBJ_SLACK;
        let qp = geometry.checked_queue_bytes()? + OBJ_SLACK;
        let budget = Self::effective_qp_budget(ranks, config.qp_budget);
        qp.checked_mul(budget)
            .and_then(|pool| pool.checked_add(db))
            .and_then(|per_rank| per_rank.checked_add(srq))
            .and_then(|per_rank| per_rank.checked_mul(ranks))
            .ok_or_else(|| {
                MpiError::Transport(format!(
                    "lazy connection state for {ranks} ranks overflows the pool \
                     arithmetic — shrink qp_budget ({}), srq_cells ({}) or \
                     cell_size ({})",
                    config.qp_budget, config.srq_cells, geometry.cell_payload
                ))
            })
    }

    /// How many named objects the lazy state may create, for sizing the
    /// arena's hash directory.
    pub fn object_count_hint(ranks: usize, config: &CxlShmTransportConfig) -> usize {
        ranks * (2 + Self::effective_qp_budget(ranks, config.qp_budget))
    }

    /// Create this rank's own doorbell + SRQ and an empty table. Peer state
    /// is opened on first use.
    pub fn new(
        rank: Rank,
        ranks: usize,
        arena: CxlShmArena,
        geometry: QueueGeometry,
        config: &CxlShmTransportConfig,
        poison: PoisonFlag,
    ) -> Result<Self> {
        let my_db = Doorbell::create(&arena, rank, ranks, config.doorbell_stride)?;
        let my_srq = SrqConsumer::create(&arena, rank, geometry, config.srq_cells)?;
        Ok(ConnTable {
            rank,
            ranks,
            arena,
            geometry,
            qp_budget: Self::effective_qp_budget(ranks, config.qp_budget),
            promotion_threshold: config.promotion_threshold,
            srq_cells: config.srq_cells,
            doorbell_stride: config.doorbell_stride,
            my_db,
            my_srq,
            tx: BTreeMap::new(),
            rx: BTreeMap::new(),
            pending: BTreeSet::new(),
            counters: ConnCounters::default(),
            qps_created: 0,
            poison,
        })
    }

    /// Established connection endpoints on this rank (send-side queue pairs +
    /// receive-side rings) — the quantity the scaling tests assert stays far
    /// below `ranks²`.
    pub fn qp_count(&self) -> usize {
        self.tx.values().filter(|p| p.qp.is_some()).count() + self.rx.len()
    }

    /// Send-side state toward `dst`, opening the peer's doorbell and SRQ on
    /// first use.
    pub fn peer_mut(&mut self, dst: Rank) -> Result<&mut TxPeer> {
        if !self.tx.contains_key(&dst) {
            let db = Doorbell::open(
                &self.arena,
                dst,
                self.ranks,
                self.doorbell_stride,
                &self.poison,
            )?;
            let srq = SrqProducer::open(
                &self.arena,
                dst,
                self.geometry,
                self.srq_cells,
                &self.poison,
            )?;
            self.tx.insert(
                dst,
                TxPeer {
                    db,
                    srq,
                    qp: None,
                    srq_sticky: false,
                    msgs: 0,
                    last_ticket: None,
                },
            );
        }
        Ok(self.tx.get_mut(&dst).expect("peer just ensured"))
    }

    /// Read-only peer state (must have been ensured by a prior
    /// [`ConnTable::peer_mut`]).
    pub fn peer(&self, dst: Rank) -> Option<&TxPeer> {
        self.tx.get(&dst)
    }

    /// Message-entry bookkeeping toward `dst`: ensures the peer is open and
    /// opportunistically promotes the pair to a dedicated queue pair.
    /// **Idempotent** — the progress engine may re-enter a message's first
    /// chunk many times. Promotion requires the completed-message count to
    /// reach the threshold, a free slot in the budget, and — when SRQ tickets
    /// were published — that the receiver has consumed past the last one (the
    /// ordering barrier); otherwise the message simply stays on the SRQ and
    /// promotion retries at the next message. Never blocks. Charges the
    /// queue-pair format cost to `clock` when promotion happens.
    pub fn prepare_send(&mut self, dst: Rank, clock: &mut SimClock, nt: f64) -> Result<()> {
        let rank = self.rank;
        let budget_left = self.qps_created < self.qp_budget;
        let threshold = self.promotion_threshold;
        let geometry = self.geometry;
        let arena = self.arena.clone();
        let peer = self.peer_mut(dst)?;
        if peer.qp.is_some() || peer.srq_sticky || !budget_left || peer.msgs < threshold {
            return Ok(());
        }
        if let Some(t) = peer.last_ticket {
            if peer.srq.head()? <= t {
                return Ok(()); // receiver not caught up yet — stay on the SRQ
            }
        }
        let bytes = geometry.checked_queue_bytes()?;
        match arena.create(&qp_name(dst, rank), bytes + 64) {
            Err(_) => {
                // Pool exhausted: this pair runs on the SRQ forever. The
                // budget math provisions the full pool, so this is only
                // reachable when windows or user objects ate the headroom —
                // a graceful degradation, not an error.
                peer.srq_sticky = true;
            }
            Ok(obj) => {
                let qp = SpscQueue::new(obj.clone(), 0, geometry);
                qp.format()?;
                obj.nt_store_u64_at(bytes as u64, CONN_READY_MAGIC)?;
                clock.advance(5.0 * nt);
                peer.qp = Some(qp);
                self.qps_created += 1;
                self.counters.qps_established += 1;
            }
        }
        Ok(())
    }

    /// Message-completion bookkeeping: bump the completed count that drives
    /// promotion, and record the last SRQ ticket when the message travelled
    /// the cold path (the promotion ordering barrier watches it).
    pub fn note_sent(&mut self, dst: Rank, srq_ticket: Option<u64>) {
        if let Some(peer) = self.tx.get_mut(&dst) {
            peer.msgs += 1;
            if let Some(t) = srq_ticket {
                peer.last_ticket = Some(t);
                self.counters.srq_msgs += 1;
            }
        }
    }

    /// Whether a dedicated receive ring from `sender` is already open.
    pub fn rx_contains(&self, sender: Rank) -> bool {
        self.rx.contains_key(&sender)
    }

    /// One-line state snapshot for stall diagnostics (embedded in the
    /// progress engine's wedge panics).
    pub fn debug_state(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "srq_head={:?} pending={:?} rx={:?} tx=[",
            self.my_srq.head(),
            self.pending,
            self.rx.keys().collect::<Vec<_>>(),
        );
        for (dst, p) in &self.tx {
            let _ = write!(
                s,
                "{dst}:(msgs={} qp={} sticky={} last_ticket={:?}) ",
                p.msgs,
                p.qp.is_some(),
                p.srq_sticky,
                p.last_ticket,
            );
        }
        s.push(']');
        s
    }

    /// Drain this rank's doorbell into the pending set. Returns how many
    /// sender bits were newly collected (0 — and a single non-temporal load —
    /// when idle).
    pub fn collect(&mut self) -> Result<usize> {
        self.my_db.collect_into(&mut self.pending)
    }

    /// The dedicated ring carrying `sender → self` traffic, opened on first
    /// doorbell discovery. A doorbell bit is only ever rung after the sender
    /// created, formatted and filled the ring, so the open never waits long.
    pub fn rx_queue(&mut self, sender: Rank) -> Result<SpscQueue> {
        if !self.rx.contains_key(&sender) {
            let bytes = self.geometry.checked_queue_bytes()?;
            let obj = open_poisoned(&self.arena, &qp_name(self.rank, sender), &self.poison)?;
            spin_flag(&obj, bytes as u64, &self.poison, |v| v == CONN_READY_MAGIC)?;
            self.rx
                .insert(sender, SpscQueue::new(obj, 0, self.geometry));
            self.counters.qps_opened += 1;
        }
        Ok(self.rx.get(&sender).expect("rx just ensured").clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_shm::{ArenaConfig, CxlView, DaxDevice, HostCache};

    fn two_arenas(bytes: usize) -> (CxlShmArena, CxlShmArena) {
        let size = (bytes + 4 * 1024 * 1024).div_ceil(4096) * 4096;
        let dev = DaxDevice::with_alignment("conn-test", size, 4096).unwrap();
        let a = CxlShmArena::init(
            CxlView::new(dev.clone(), HostCache::with_capacity("hostA", 1 << 20)),
            ArenaConfig::for_objects(64),
        )
        .unwrap();
        let b = CxlShmArena::attach(CxlView::new(
            dev,
            HostCache::with_capacity("hostB", 1 << 20),
        ))
        .unwrap();
        (a, b)
    }

    fn hdr(src: Rank, total: u64, off: u64, len: u32, ts: f64) -> CellHeader {
        CellHeader {
            src,
            ctx: 0,
            tag: 1,
            total_len: total,
            chunk_offset: off,
            chunk_len: len,
            timestamp: ts,
        }
    }

    #[test]
    fn doorbell_ring_collect_roundtrip() {
        let (a, b) = two_arenas(1 << 20);
        let poison = PoisonFlag::new();
        let db = Doorbell::create(&a, 0, 200, 64).unwrap();
        let remote = Doorbell::open(&b, 0, 200, 64, &poison).unwrap();
        let mut pending = BTreeSet::new();
        assert_eq!(db.collect_into(&mut pending).unwrap(), 0);
        remote.ring(3).unwrap();
        remote.ring(130).unwrap(); // second group word
        remote.ring(3).unwrap(); // idempotent
        assert_eq!(db.collect_into(&mut pending).unwrap(), 2);
        assert!(pending.contains(&3) && pending.contains(&130));
        // Drained: the next collect is idle again.
        pending.clear();
        assert_eq!(db.collect_into(&mut pending).unwrap(), 0);
        assert!(pending.is_empty());
    }

    #[test]
    fn doorbell_idle_collect_cost_independent_of_world_size() {
        // The core scaling property: an idle poll is one non-temporal load,
        // no matter how many ranks the universe has.
        let poison = PoisonFlag::new();
        let mut costs = Vec::new();
        for ranks in [8usize, 256, 4096] {
            let (a, b) = two_arenas(1 << 20);
            let db = Doorbell::create(&a, 0, ranks, 64).unwrap();
            // Touch the opener side so both views are live.
            Doorbell::open(&b, 0, ranks, 64, &poison).unwrap();
            let before = db.obj.view().counters().nt_bytes_read;
            let mut pending = BTreeSet::new();
            db.collect_into(&mut pending).unwrap();
            let after = db.obj.view().counters().nt_bytes_read;
            costs.push(after - before);
        }
        assert_eq!(costs[0], costs[1]);
        assert_eq!(costs[1], costs[2]);
        assert_eq!(costs[0], 8, "idle collect must be exactly one u64 load");
    }

    #[test]
    fn doorbell_rejects_past_4096_ranks() {
        assert!(Doorbell::required_bytes(4096, 64).is_ok());
        assert!(Doorbell::required_bytes(4097, 64).is_err());
    }

    #[test]
    fn srq_two_producers_interleave_fifo_per_sender() {
        let g = QueueGeometry {
            cell_payload: 128,
            cells: 4,
        };
        let (a, b) = two_arenas(1 << 20);
        let poison = PoisonFlag::new();
        let consumer = SrqConsumer::create(&a, 0, g, 4).unwrap();
        let p1 = SrqProducer::open(&b, 0, g, 4, &poison).unwrap();
        let p2 = SrqProducer::open(&b, 0, g, 4, &poison).unwrap();
        let mut scratch = Vec::new();
        // Interleaved publications from two senders.
        p1.try_enqueue_with_scratch(&hdr(1, 4, 0, 4, 1.0), b"aaaa", &mut scratch)
            .unwrap()
            .unwrap();
        p2.try_enqueue_with_scratch(&hdr(2, 4, 0, 4, 2.0), b"bbbb", &mut scratch)
            .unwrap()
            .unwrap();
        p1.try_enqueue_with_scratch(&hdr(1, 4, 0, 4, 3.0), b"cccc", &mut scratch)
            .unwrap()
            .unwrap();
        // Ticket order globally, FIFO per sender.
        let mut buf = [0u8; 4];
        let h = consumer.try_dequeue_into(10.0, &mut buf).unwrap().unwrap();
        assert_eq!((h.src, &buf), (1, b"aaaa"));
        let h = consumer.try_dequeue_into(11.0, &mut buf).unwrap().unwrap();
        assert_eq!((h.src, &buf), (2, b"bbbb"));
        let h = consumer.try_dequeue_into(12.0, &mut buf).unwrap().unwrap();
        assert_eq!((h.src, &buf), (1, b"cccc"));
        assert!(consumer.try_dequeue_into(13.0, &mut buf).unwrap().is_none());
        // Head timestamp reached the producers.
        assert_eq!(p1.head_timestamp().unwrap(), 12.0);
        assert_eq!(p1.head().unwrap(), 3);
    }

    #[test]
    fn srq_full_reports_none_and_wraps() {
        let g = QueueGeometry {
            cell_payload: 64,
            cells: 2,
        };
        let (a, b) = two_arenas(1 << 20);
        let poison = PoisonFlag::new();
        let consumer = SrqConsumer::create(&a, 0, g, 2).unwrap();
        let p = SrqProducer::open(&b, 0, g, 2, &poison).unwrap();
        let mut scratch = Vec::new();
        let mut buf = [0u8; 8];
        // Several wraps of the 2-cell ring.
        for round in 0u64..5 {
            assert!(p
                .try_enqueue_with_scratch(&hdr(1, 4, 0, 4, round as f64), b"wrap", &mut scratch)
                .unwrap()
                .is_some());
            assert!(p
                .try_enqueue_with_scratch(&hdr(1, 4, 0, 4, round as f64), b"wrap", &mut scratch)
                .unwrap()
                .is_some());
            assert!(!p.has_space().unwrap());
            assert!(p
                .try_enqueue_with_scratch(&hdr(1, 4, 0, 4, round as f64), b"wrap", &mut scratch)
                .unwrap()
                .is_none());
            assert!(consumer.has_message().unwrap());
            consumer.try_dequeue_into(1.0, &mut buf).unwrap().unwrap();
            consumer.try_dequeue_into(1.0, &mut buf).unwrap().unwrap();
            assert!(!consumer.has_message().unwrap());
        }
    }

    #[test]
    fn conn_table_promotes_after_threshold_and_respects_budget() {
        let g = QueueGeometry {
            cell_payload: 128,
            cells: 2,
        };
        let (a, b) = two_arenas(4 << 20);
        let poison = PoisonFlag::new();
        let config = CxlShmTransportConfig {
            cell_size: 128,
            cells_per_queue: 2,
            qp_budget: 1,
            promotion_threshold: 2,
            srq_cells: 4,
            ..CxlShmTransportConfig::small()
        };
        // Rank 1 (on arena b) sends to ranks 0 and 2; their tables live on a.
        let t0 = ConnTable::new(0, 3, a.clone(), g, &config, poison.clone()).unwrap();
        let _t2 = ConnTable::new(2, 3, a.clone(), g, &config, poison.clone()).unwrap();
        let mut t1 = ConnTable::new(1, 3, b, g, &config, poison.clone()).unwrap();
        let mut clock = SimClock::new();
        // Two completed messages stay under the threshold: no QP.
        for _ in 0..2 {
            t1.prepare_send(0, &mut clock, 1.0).unwrap();
            t1.note_sent(0, None);
        }
        assert!(t1.peer(0).unwrap().qp.is_none());
        // Third message crosses it (no SRQ tickets pending → no barrier).
        t1.prepare_send(0, &mut clock, 1.0).unwrap();
        assert!(t1.peer(0).unwrap().qp.is_some());
        assert_eq!(t1.counters.qps_established, 1);
        // The budget of 1 is spent: rank 2 never promotes.
        for _ in 0..5 {
            t1.prepare_send(2, &mut clock, 1.0).unwrap();
            t1.note_sent(2, None);
        }
        assert!(t1.peer(2).unwrap().qp.is_none());
        assert_eq!(t1.qp_count(), 1);
        drop(t0);
    }

    #[test]
    fn conn_table_promotion_waits_for_srq_drain() {
        let g = QueueGeometry {
            cell_payload: 128,
            cells: 2,
        };
        let (a, b) = two_arenas(4 << 20);
        let poison = PoisonFlag::new();
        let config = CxlShmTransportConfig {
            cell_size: 128,
            cells_per_queue: 2,
            qp_budget: 4,
            promotion_threshold: 0,
            srq_cells: 4,
            ..CxlShmTransportConfig::small()
        };
        let t0 = ConnTable::new(0, 2, a, g, &config, poison.clone()).unwrap();
        let mut t1 = ConnTable::new(1, 2, b, g, &config, poison).unwrap();
        let mut clock = SimClock::new();
        let mut scratch = Vec::new();
        // Simulate an un-drained SRQ message: publish a ticket by hand.
        {
            let peer = t1.peer_mut(0).unwrap();
            let ticket = peer
                .srq
                .try_enqueue_with_scratch(&hdr(1, 4, 0, 4, 1.0), b"cold", &mut scratch)
                .unwrap()
                .unwrap();
            peer.last_ticket = Some(ticket);
        }
        // Threshold 0 would promote immediately — but the receiver has not
        // consumed the ticket, so the pair stays on the SRQ.
        t1.prepare_send(0, &mut clock, 1.0).unwrap();
        assert!(t1.peer(0).unwrap().qp.is_none());
        // Receiver drains; the next message promotes.
        let mut buf = [0u8; 8];
        t0.my_srq.try_dequeue_into(5.0, &mut buf).unwrap().unwrap();
        t1.prepare_send(0, &mut clock, 1.0).unwrap();
        assert!(t1.peer(0).unwrap().qp.is_some());
    }

    #[test]
    fn lazy_sizing_is_linear_and_checked() {
        let g = QueueGeometry {
            cell_payload: 1024,
            cells: 4,
        };
        // Pin the budget below ranks-1 at both sizes so `effective_qp_budget`
        // does not clip differently at n=64 vs n=1024.
        let config = CxlShmTransportConfig {
            qp_budget: 16,
            ..CxlShmTransportConfig::small()
        };
        let n64 = ConnTable::required_device_bytes(64, g, &config).unwrap();
        let n1024 = ConnTable::required_device_bytes(1024, g, &config).unwrap();
        // Linear in ranks up to the doorbell bitmaps — each rank's doorbell
        // grows one group word per 64 ranks, the only superlinear term (the
        // flat matrix is quadratic in whole queues). Subtracting that term
        // restores exact 16× scaling.
        let db64 = Doorbell::required_bytes(64, config.doorbell_stride).unwrap();
        let db1024 = Doorbell::required_bytes(1024, config.doorbell_stride).unwrap();
        assert_eq!(n1024 - 1024 * (db1024 - db64), 16 * n64);
        assert!(db1024 - db64 < 16 * 1024, "doorbell term stays tiny");
        // The n=1024 lazy footprint is a small fraction of the flat
        // ranks × ranks queue matrix at the same geometry.
        assert!(n1024 * 10 < 1024 * 1024 * g.queue_bytes());
        // A geometry whose queue size overflows is refused with a message
        // naming the knobs to shrink.
        let overflowing = QueueGeometry {
            cell_payload: usize::MAX / 2,
            cells: 2,
        };
        let err = ConnTable::required_device_bytes(4, overflowing, &config).unwrap_err();
        assert!(err.to_string().contains("cell_size"), "{err}");
        // Overflowing knobs surface an actionable error.
        let huge = CxlShmTransportConfig {
            qp_budget: usize::MAX / 2,
            ..config
        };
        // The budget clips to ranks-1 and the doorbell caps the rank count, so
        // overflowing the pool arithmetic takes an absurd cell size too.
        let huge_geom = QueueGeometry {
            cell_payload: usize::MAX / 40_000,
            cells: 4,
        };
        let err = ConnTable::required_device_bytes(4096, huge_geom, &huge).unwrap_err();
        assert!(err.to_string().contains("qp_budget"), "{err}");
    }
}
