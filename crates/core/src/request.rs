//! Non-blocking communication requests (`MPI_Isend` / `MPI_Irecv` /
//! `MPI_Ibcast`-family handles).
//!
//! cMPI's two-sided path is eager: a send is complete as soon as the message
//! has been copied into the CXL message queue (or handed to the TCP stack), so
//! an `isend` returns an already-complete request. An `irecv` records its
//! selectors — including the context id of the communicator it was posted on;
//! completion happens when `wait`/`test` (or the `*_any`/`*_all` combinators)
//! finds a matching message on that communicator. The payload is delivered
//! through the request itself (Rust-friendly ownership instead of MPI's
//! caller-provided buffer).
//!
//! **Nonblocking collectives** produce the same `Request` type: the request
//! carries a resumable [`CollState`] (the collective's bound execution plus
//! its owned buffers) that every `wait`/`test`-family call advances through
//! the progress engine. P2p and collective requests therefore mix freely in
//! `wait_any`/`test_all` slices; a completed collective delivers its result
//! bytes through [`Request::take_data`] / [`Request::take_values`].
//!
//! **Persistent collectives** (`MPI_Bcast_init`-family, MPI-4) are requests
//! whose `CollState` survives completion: created **inactive** by the
//! `*_init` methods on [`crate::comm::Comm`], activated by
//! `Comm::start`/`Comm::startall` (which re-binds the *cached* plan under a
//! fresh collective sequence number — no re-planning), completed through the
//! same `wait`/`test` machinery, and then **restartable**: the next `start`
//! reuses the plan, the buffers and the scratch arena. Between starts the
//! bound contribution is rewritten with [`Request::write_input`] and a
//! completed result is read (without consuming the request) with
//! [`Request::read_result`]. Lifecycle: inactive → started → complete →
//! (start again | `release`).
//!
//! A request must be completed on the communicator that created it; completing
//! it elsewhere fails with [`MpiError::InvalidCommunicator`]
//! (checked via the stored context id).

use std::sync::Arc;

use crate::engine::OpCell;
use crate::error::MpiError;
use crate::pod::{vec_from_bytes, Pod};
use crate::progress::CollState;
use crate::types::{CtxId, Rank, Status, Tag};
use crate::Result;

/// Completion state of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// Send already finished (eager protocol).
    SendComplete,
    /// Receive posted, not yet matched.
    RecvPending,
    /// Receive matched; payload ready to be taken. A completed *persistent*
    /// request also sits here — restartable via `Comm::start`.
    RecvComplete,
    /// The payload has been taken; the request is spent.
    Consumed,
    /// A persistent request that has not been started (or whose previous
    /// completion was retired without a restart is `RecvComplete`, not this).
    /// `wait`/`test`-family calls treat an inactive request like a consumed
    /// one; `Comm::start` activates it.
    Inactive,
}

/// A non-blocking operation handle.
#[derive(Debug)]
pub struct Request {
    state: RequestState,
    /// Context id of the communicator the request was created on.
    pub(crate) ctx: CtxId,
    /// Source selector of a pending receive (world rank).
    pub(crate) src: Option<Rank>,
    /// Tag selector of a pending receive.
    pub(crate) tag: Option<Tag>,
    /// Caller-owned receive buffer of a buffered receive (`irecv_into`):
    /// completion writes the payload here through the transports'
    /// allocation-free `recv_into` path instead of allocating a fresh `Vec`.
    pub(crate) buffer: Option<Vec<u8>>,
    /// Operation cell of a nonblocking collective (`i*` operations): the
    /// bound execution plus its owned buffers behind the cell's slot lock,
    /// advanced by `wait`/`test`-family calls (Polling mode) or the
    /// background progress engine (Thread mode). Persistent requests keep it
    /// across completions.
    pub(crate) coll: Option<Arc<OpCell>>,
    /// Start-time accounting of a persistent collective (`Some` marks the
    /// request as persistent).
    pub(crate) persistent: Option<PersistentMeta>,
    status: Option<Status>,
    data: Option<Vec<u8>>,
}

/// What `Comm::start` must account each time a persistent request starts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PersistentMeta {
    /// The collective operation (for the per-communicator counters).
    pub op: crate::plan::PlanOp,
    /// Payload bytes this rank contributes per start.
    pub payload_bytes: u64,
}

impl Request {
    /// A completed send request on communicator `ctx`.
    pub fn send_done(ctx: CtxId, status: Status) -> Self {
        Request {
            state: RequestState::SendComplete,
            ctx,
            src: None,
            tag: None,
            buffer: None,
            coll: None,
            persistent: None,
            status: Some(status),
            data: None,
        }
    }

    /// A pending receive request on communicator `ctx` with the given
    /// selectors (`src` is a world rank).
    pub fn recv_pending(ctx: CtxId, src: Option<Rank>, tag: Option<Tag>) -> Self {
        Request {
            state: RequestState::RecvPending,
            ctx,
            src,
            tag,
            buffer: None,
            coll: None,
            persistent: None,
            status: None,
            data: None,
        }
    }

    /// A pending *buffered* receive: the payload will be written into `buf`
    /// (which also bounds the acceptable message size — longer messages fail
    /// with truncation). `buf` typically comes from a previous request via
    /// [`Request::take_data`], making steady-state receive loops
    /// allocation-free.
    pub fn recv_pending_into(
        ctx: CtxId,
        src: Option<Rank>,
        tag: Option<Tag>,
        buf: Vec<u8>,
    ) -> Self {
        Request {
            state: RequestState::RecvPending,
            ctx,
            src,
            tag,
            buffer: Some(buf),
            coll: None,
            persistent: None,
            status: None,
            data: None,
        }
    }

    /// A pending nonblocking collective on communicator `ctx`: `state` holds
    /// the compiled schedule and its owned buffers; `wait`/`test`-family
    /// calls on the owning communicator advance it via the progress engine.
    pub fn coll_pending(ctx: CtxId, state: CollState) -> Self {
        Request {
            state: RequestState::RecvPending,
            ctx,
            src: None,
            tag: None,
            buffer: None,
            coll: Some(OpCell::new(ctx, state)),
            persistent: None,
            status: None,
            data: None,
        }
    }

    /// An **inactive persistent** collective on communicator `ctx` (the
    /// `MPI_Bcast_init`-family result): `state` holds the cached plan bound
    /// to an idle execution plus the owned buffers; `Comm::start` activates
    /// it, and completion leaves it restartable instead of consuming it.
    pub(crate) fn coll_persistent(ctx: CtxId, state: CollState, meta: PersistentMeta) -> Self {
        Request {
            state: RequestState::Inactive,
            ctx,
            src: None,
            tag: None,
            buffer: None,
            coll: Some(OpCell::new(ctx, state)),
            persistent: Some(meta),
            status: None,
            data: None,
        }
    }

    /// Whether this is a nonblocking-collective request.
    pub fn is_coll(&self) -> bool {
        self.coll.is_some()
    }

    /// Whether this is a persistent collective request (`*_init` family).
    pub fn is_persistent(&self) -> bool {
        self.persistent.is_some()
    }

    /// Label of the collective algorithm this request executes (`None` for
    /// p2p requests or after completion; persistent requests keep it for
    /// life).
    pub fn coll_algorithm(&self) -> Option<&'static str> {
        self.coll.as_ref().map(|c| c.algorithm())
    }

    /// Activate (or re-activate) a persistent request under a fresh
    /// collective sequence number (comm-internal; [`crate::comm::Comm::start`]
    /// is the public entry).
    pub(crate) fn activate(&mut self, seq: u32) {
        debug_assert!(self.persistent.is_some());
        let cell = self.coll.as_ref().expect("persistent request has state");
        let mut slot = cell.lock();
        slot.state
            .as_mut()
            .expect("persistent state survives completion")
            .exec
            .restart(seq);
        cell.rearm(&mut slot);
        self.state = RequestState::RecvPending;
        self.status = None;
    }

    /// Complete a persistent collective *in place*: record the status but
    /// keep the execution state and buffers so the request can be started
    /// again (comm-internal).
    pub(crate) fn fulfill_in_place(&mut self, status: Status) {
        debug_assert_eq!(self.state, RequestState::RecvPending);
        debug_assert!(self.persistent.is_some());
        self.state = RequestState::RecvComplete;
        self.status = Some(status);
    }

    /// Overwrite the bound contribution region of a persistent request's
    /// buffer before the next `start` (the MPI idiom of rewriting the send
    /// buffer between starts of a persistent collective). The value length
    /// must match the bound contribution exactly. Rejected while the request
    /// is in flight.
    pub fn write_input<T: Pod>(&mut self, values: &[T]) -> Result<()> {
        if self.persistent.is_none() {
            return Err(MpiError::InvalidCollective(
                "write_input requires a persistent collective request".into(),
            ));
        }
        if self.state == RequestState::RecvPending {
            return Err(MpiError::InvalidCollective(
                "write_input on a started (in-flight) persistent request".into(),
            ));
        }
        let cell = self.coll.as_ref().ok_or(MpiError::StaleRequest)?;
        let mut slot = cell.lock();
        slot.state
            .as_mut()
            .ok_or(MpiError::StaleRequest)?
            .write_input(crate::pod::bytes_of(values))
    }

    /// Read the result of a *completed* persistent request as `T` values
    /// without consuming it (the request stays restartable). Panics if the
    /// byte length is not a multiple of the element size.
    pub fn read_result<T: Pod>(&self) -> Result<Vec<T>> {
        if self.persistent.is_none() {
            return Err(MpiError::InvalidCollective(
                "read_result requires a persistent collective request".into(),
            ));
        }
        if self.state != RequestState::RecvComplete {
            return Err(MpiError::StaleRequest);
        }
        let cell = self.coll.as_ref().ok_or(MpiError::StaleRequest)?;
        let slot = cell.lock();
        let state = slot.state.as_ref().ok_or(MpiError::StaleRequest)?;
        Ok(vec_from_bytes(state.result_bytes()))
    }

    /// Whether this is a buffered receive (posted with a caller buffer).
    pub fn is_buffered(&self) -> bool {
        self.buffer.is_some()
    }

    /// Take the posted buffer out of a pending buffered receive so it can be
    /// handed to the transport's `recv_into` (comm-internal).
    pub(crate) fn take_buffer(&mut self) -> Option<Vec<u8>> {
        self.buffer.take()
    }

    /// Complete a buffered receive: `buf` is the posted buffer now holding
    /// `status.len` payload bytes at the front; it is truncated to that length
    /// and delivered through [`Request::take_data`] (comm-internal).
    pub(crate) fn fulfill_buffered(&mut self, status: Status, mut buf: Vec<u8>) {
        debug_assert_eq!(self.state, RequestState::RecvPending);
        buf.truncate(status.len);
        self.state = RequestState::RecvComplete;
        self.status = Some(status);
        self.data = Some(buf);
    }

    /// Current state.
    pub fn state(&self) -> RequestState {
        self.state
    }

    /// Context id of the communicator the request belongs to.
    pub fn context_id(&self) -> CtxId {
        self.ctx
    }

    /// Whether the operation has completed.
    pub fn is_complete(&self) -> bool {
        matches!(
            self.state,
            RequestState::SendComplete | RequestState::RecvComplete | RequestState::Consumed
        )
    }

    /// Completion status, if available.
    pub fn status(&self) -> Option<Status> {
        self.status
    }

    /// Mark a pending request as failed (comm-internal): its operation
    /// errored mid-completion (e.g. truncation consumed the message and
    /// dropped the posted buffer), so the request must not be retried — a
    /// later `wait`/`test` reports [`MpiError::StaleRequest`] instead of
    /// silently falling into a different completion path.
    pub(crate) fn mark_failed(&mut self) {
        self.state = RequestState::Consumed;
        self.buffer = None;
        if let Some(cell) = self.coll.take() {
            // Withdraw the op from the background engine so it stops being
            // driven (and its cell can be dropped from the queue).
            cell.cancel();
        }
        self.persistent = None;
        self.data = None;
    }

    /// Mark a pending receive as complete with the matched message.
    pub(crate) fn fulfill(&mut self, status: Status, data: Vec<u8>) {
        debug_assert_eq!(self.state, RequestState::RecvPending);
        self.state = RequestState::RecvComplete;
        self.status = Some(status);
        self.data = Some(data);
    }

    /// Take the received payload out of a completed receive request.
    /// Persistent requests deliver results through [`Request::read_result`]
    /// instead (their buffers must survive for the next start), so this
    /// errors on them without consuming anything.
    pub fn take_data(&mut self) -> Result<Vec<u8>> {
        if self.persistent.is_some() {
            return Err(MpiError::InvalidCollective(
                "persistent requests deliver results via read_result (take_data would \
                 consume the restartable buffers)"
                    .into(),
            ));
        }
        match self.state {
            RequestState::RecvComplete => {
                self.state = RequestState::Consumed;
                self.data.take().ok_or(MpiError::StaleRequest)
            }
            _ => Err(MpiError::StaleRequest),
        }
    }

    /// Mark a completed request as consumed without taking its payload — the
    /// `MPI_Request_free` analogue for completed requests. Necessary for
    /// completed *send* requests in a `wait_any` loop (they carry no payload
    /// for `take_data` to consume, and `wait_any` keeps returning a completed
    /// request until it is consumed); harmless on an already-consumed
    /// request. For persistent requests this is the retirement path
    /// (`MPI_Request_free`): the cached plan handle, buffers and scratch are
    /// dropped and the request cannot be started again. Errors with
    /// [`MpiError::StaleRequest`] if the request is still pending (in
    /// flight).
    pub fn release(&mut self) -> Result<()> {
        match self.state {
            RequestState::SendComplete | RequestState::RecvComplete | RequestState::Inactive => {
                self.state = RequestState::Consumed;
                self.data = None;
                if let Some(cell) = self.coll.take() {
                    cell.cancel();
                }
                self.persistent = None;
                Ok(())
            }
            RequestState::Consumed => Ok(()),
            RequestState::RecvPending => Err(MpiError::StaleRequest),
        }
    }

    /// Take the result of a completed request decoded as `T` values — the
    /// typed companion of [`Request::take_data`] for nonblocking collectives
    /// (e.g. the reduced vector of an `iallreduce`, this rank's block of an
    /// `ireduce_scatter`, the gathered buffer of an `igather_into` root).
    /// Panics if the byte length is not a multiple of the element size.
    pub fn take_values<T: Pod>(&mut self) -> Result<Vec<T>> {
        Ok(vec_from_bytes(&self.take_data()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_request_is_complete_immediately() {
        let r = Request::send_done(0, Status::new(0, 1, 8));
        assert!(r.is_complete());
        assert_eq!(r.state(), RequestState::SendComplete);
        assert_eq!(r.status().unwrap().len, 8);
        assert_eq!(r.context_id(), 0);
    }

    #[test]
    fn recv_request_lifecycle() {
        let mut r = Request::recv_pending(3, Some(2), Some(7));
        assert_eq!(r.context_id(), 3);
        assert!(!r.is_complete());
        assert!(r.status().is_none());
        assert!(r.take_data().is_err());
        r.fulfill(Status::new(2, 7, 3), vec![1, 2, 3]);
        assert!(r.is_complete());
        assert_eq!(r.state(), RequestState::RecvComplete);
        assert_eq!(r.take_data().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.state(), RequestState::Consumed);
        assert!(matches!(r.take_data(), Err(MpiError::StaleRequest)));
    }

    #[test]
    fn take_data_from_send_request_fails() {
        let mut r = Request::send_done(0, Status::new(0, 0, 0));
        assert!(matches!(r.take_data(), Err(MpiError::StaleRequest)));
    }

    #[test]
    fn buffered_recv_request_reuses_caller_buffer() {
        let mut r = Request::recv_pending_into(1, Some(0), Some(4), vec![0u8; 64]);
        assert!(r.is_buffered());
        assert!(!r.is_complete());
        let mut buf = r.take_buffer().unwrap();
        assert!(!r.is_buffered());
        let ptr = buf.as_ptr();
        buf[..3].copy_from_slice(&[7, 8, 9]);
        r.fulfill_buffered(Status::new(0, 4, 3), buf);
        assert!(r.is_complete());
        let data = r.take_data().unwrap();
        // Same allocation, truncated to the received length.
        assert_eq!(data.as_ptr(), ptr);
        assert_eq!(data, vec![7, 8, 9]);
    }
}
