//! The loopback-first TCP front door and its client.
//!
//! Threading model: one acceptor loop (the caller's thread inside
//! [`serve_tcp`]), one OS thread per connection, each answering through
//! the [`RegistryServer`] — concurrency across clients comes from
//! multiple connections, while each connection handles its requests in
//! order (responses are written in request order, so the client can
//! pipeline frames and match them by correlation id).
//!
//! Every `kgag serve` is a registry server (DESIGN.md §16): score
//! requests go through the per-entry batchers, and lifecycle and
//! registry transitions are applied *synchronously on the connection
//! thread* — they never enter a batcher queue, so a mutation is fully
//! applied (store + caches) before its ack is written, and any score
//! request the same client sends afterwards sees the new membership.
//!
//! Shutdown: trigger the [`ShutdownToken`]. The acceptor stops taking
//! connections, per-connection threads finish their buffered requests
//! and close, and [`serve_tcp`] returns. Every request read before
//! shutdown is answered, never dropped — the same exactly-one-response
//! contract as the in-process layer; the entry batchers drain when the
//! server drops.

use crate::registry::RegistryServer;
use crate::wire::{self, LifecycleRequest, Message, Reply, Request, Response};
use crate::{ServeError, ServeResult};
use kgag_data::{LifecycleAck, LifecycleOp};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the acceptor re-checks the shutdown token while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(2);
/// Read timeout per connection: the cadence at which handlers notice a
/// triggered token on an otherwise-quiet socket.
const READ_POLL: Duration = Duration::from_millis(50);

/// A cloneable one-way shutdown switch shared between the server and
/// whoever decides it is done (signal handler, test, CLI stdin watcher).
#[derive(Clone, Default)]
pub struct ShutdownToken(Arc<AtomicBool>);

impl ShutdownToken {
    pub fn new() -> ShutdownToken {
        ShutdownToken::default()
    }

    /// Flip the switch. Idempotent; never blocks.
    pub fn trigger(&self) {
        self.0.store(true, Ordering::Release);
    }

    pub fn is_triggered(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Serve `server` over TCP until `token` is triggered — the one TCP
/// front door of `kgag serve`.
///
/// Binds `addr` (use `127.0.0.1:0` for an ephemeral loopback port),
/// reports the bound address through `on_ready`, then runs the accept
/// loop on the calling thread. Returns once every connection thread has
/// exited, so every request read before shutdown has been answered.
/// The server stays usable afterwards; its entry batchers drain when it
/// drops.
pub fn serve_tcp(
    server: &RegistryServer,
    addr: &str,
    token: &ShutdownToken,
    on_ready: impl FnOnce(SocketAddr),
) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    on_ready(listener.local_addr()?);
    serve_connections(&listener, token, server);
    Ok(())
}

/// What a server *does* with one request payload — the seam between the
/// shared framing/connection machinery and the two servers: the
/// registry server (per-entry batchers behind admission control) and
/// the shard peer (`crate::shard`: draw and row queries). One call
/// answers one request with exactly one response frame.
pub(crate) trait Dispatch: Sync {
    fn answer(&self, payload: &[u8]) -> Vec<u8>;

    /// A connection was accepted; it answers on its own thread from now
    /// until [`connection_closed`](Self::connection_closed).
    fn connection_opened(&self) {}

    /// A connection's thread is done, returned or unwound: it will
    /// send nothing more.
    fn connection_closed(&self) {}
}

/// An open connection; tells its dispatch it closed on drop, so a
/// connection thread that unwinds still counts itself out.
struct OpenConnection<'a, D: Dispatch + ?Sized>(&'a D);

impl<D: Dispatch + ?Sized> Drop for OpenConnection<'_, D> {
    fn drop(&mut self) {
        self.0.connection_closed();
    }
}

/// Accept-loop body shared by both TCP servers (registry and shard): take connections until the token triggers, one scoped OS
/// thread per connection, all answering through `dispatch`. The
/// listener must already be nonblocking.
pub(crate) fn serve_connections<D: Dispatch + ?Sized>(
    listener: &TcpListener,
    token: &ShutdownToken,
    dispatch: &D,
) {
    std::thread::scope(|s| {
        while !token.is_triggered() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let token = token.clone();
                    dispatch.connection_opened();
                    let open = OpenConnection(dispatch);
                    s.spawn(move || {
                        let _open = open;
                        handle_connection(stream, dispatch, token);
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
                Err(e) => {
                    // transient accept failures (e.g. EMFILE) must
                    // not kill the server; connections already open
                    // keep working
                    eprintln!("[kgag-serve] accept error: {e}");
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
    });
}

/// Per-connection loop: accumulate bytes, answer each complete frame in
/// order straight from the buffer, then compact the buffer once before
/// the next read. Partial frames survive read timeouts — the buffer is
/// only advanced on whole frames, so a client dribbling bytes across
/// timeout boundaries is handled correctly.
fn handle_connection<D: Dispatch + ?Sized>(stream: TcpStream, dispatch: &D, token: ShutdownToken) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut stream = stream;
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 4096];
    loop {
        let mut start = 0;
        loop {
            match wire::peek_frame(&buf[start..]) {
                Ok(Some(payload)) => {
                    if wire::write_frame(&mut stream, &dispatch.answer(payload)).is_err() {
                        return;
                    }
                    start += 4 + payload.len();
                }
                Ok(None) => break,
                // an invalid length prefix poisons the stream: there is
                // no way to resynchronise, so drop the connection
                Err(_) => return,
            }
        }
        buf.drain(..start);
        if token.is_triggered() {
            return;
        }
        match stream.read(&mut tmp) {
            Ok(0) => return, // client closed
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Decode a scoring-protocol request, dispatch it, and encode the
/// response frame.
pub(crate) fn answer_message(
    payload: &[u8],
    dispatch: impl FnOnce(Message) -> Response,
) -> Vec<u8> {
    let response = match wire::decode_request(payload) {
        Ok(msg) => dispatch(msg),
        Err(_) => Response { id: wire::salvage_id(payload), reply: Err(ServeError::Invalid) },
    };
    match wire::encode_response(&response) {
        Ok(frame) => frame,
        // A response too large for one frame (pathological score count)
        // degrades to a typed error under the same correlation id —
        // error responses have empty bodies, so this always encodes.
        Err(_) => {
            let fallback = Response { id: response.id, reply: Err(ServeError::Invalid) };
            wire::encode_response(&fallback).expect("error responses fit one frame")
        }
    }
}

/// Turn the wire's µs latency budget into a batcher deadline. Zero
/// means "no deadline", and a budget so large that `now + budget`
/// overflows `Instant` saturates to no deadline too — the field is
/// untrusted client input, and `Instant + Duration` panics on overflow,
/// so a hostile `deadline_us = u64::MAX` must not take the connection
/// thread down.
pub(crate) fn wire_deadline(deadline_us: u64) -> Option<Instant> {
    (deadline_us > 0)
        .then(|| Instant::now().checked_add(Duration::from_micros(deadline_us)))
        .flatten()
}

/// Client-side transport failure. Everything the *server* decides is a
/// [`ServeError`] inside the inner result; this type is about the
/// connection itself.
#[derive(Debug)]
pub enum ClientError {
    /// No response within the client's read timeout
    /// ([`ServeClient::set_timeout`]). The
    /// connection may have a stale response in flight afterwards, so
    /// treat it as poisoned: drop it and reconnect.
    Timeout,
    /// Any other transport failure (refused, reset, undecodable bytes).
    Io(std::io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Timeout => f.write_str("no response within the client read timeout"),
            ClientError::Io(e) => write!(f, "transport failure: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            ClientError::Timeout
        } else {
            ClientError::Io(e)
        }
    }
}

/// A blocking client for the wire protocol — what the serving test
/// suites drive servers with.
///
/// A read timeout (off by default; [`ServeClient::set_timeout`]) bounds
/// how long any call blocks on a stalled server: the call returns
/// [`ClientError::Timeout`] instead of hanging forever.
pub struct ServeClient {
    stream: TcpStream,
    next_id: u64,
}

impl ServeClient {
    /// Connect, with no read timeout.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<ServeClient, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ClientError::Io)?;
        stream.set_nodelay(true).map_err(ClientError::Io)?;
        Ok(ServeClient { stream, next_id: 1 })
    }

    /// Set or clear the per-response read timeout.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout).map_err(ClientError::Io)
    }

    /// Score one candidate list; blocks for the response. The outer
    /// `Err` is transport failure, the inner [`ServeResult`] is the
    /// server's verdict.
    pub fn score(&mut self, group: u32, items: &[u32]) -> Result<ServeResult, ClientError> {
        self.score_with_deadline_us(group, items, 0)
    }

    /// Like [`score`](Self::score) with a latency budget in µs (0 = none).
    pub fn score_with_deadline_us(
        &mut self,
        group: u32,
        items: &[u32],
        deadline_us: u64,
    ) -> Result<ServeResult, ClientError> {
        let id = self.fresh_id();
        let frame =
            wire::encode_request(&Request { id, group, deadline_us, items: items.to_vec() })
                .map_err(invalid_input)?;
        self.expect_scores(id, &frame)
    }

    /// Score against a tenant's active model on a registry server
    /// (protocol v3).
    pub fn score_tenant(
        &mut self,
        tenant: u32,
        group: u32,
        items: &[u32],
    ) -> Result<ServeResult, ClientError> {
        self.score_tenant_with_deadline_us(tenant, group, items, 0)
    }

    /// Like [`score_tenant`](Self::score_tenant) with a latency budget
    /// in µs (0 = none).
    pub fn score_tenant_with_deadline_us(
        &mut self,
        tenant: u32,
        group: u32,
        items: &[u32],
        deadline_us: u64,
    ) -> Result<ServeResult, ClientError> {
        let id = self.fresh_id();
        let frame = wire::encode_tenant_request(&wire::TenantRequest {
            id,
            tenant,
            group,
            deadline_us,
            items: items.to_vec(),
        })
        .map_err(invalid_input)?;
        self.expect_scores(id, &frame)
    }

    /// Create a new group from `members`; the ack carries the new id.
    pub fn create_group(&mut self, members: &[u32]) -> Result<LifecycleResult, ClientError> {
        self.lifecycle(LifecycleOp::Create { members: members.to_vec() })
    }

    /// Add `user` to `group`.
    pub fn join_group(&mut self, group: u32, user: u32) -> Result<LifecycleResult, ClientError> {
        self.lifecycle(LifecycleOp::Join { group, user })
    }

    /// Remove `user` from `group`.
    pub fn leave_group(&mut self, group: u32, user: u32) -> Result<LifecycleResult, ClientError> {
        self.lifecycle(LifecycleOp::Leave { group, user })
    }

    /// Load a server-local checkpoint into the registry; the ack
    /// carries its content hash (protocol v3).
    pub fn load_model(&mut self, path: &str) -> Result<RegistryResult, ClientError> {
        self.registry(wire::RegistryOp::Load { path: path.to_owned() })
    }

    /// Bind a fresh tenant to a resident checkpoint.
    pub fn bind_tenant(&mut self, tenant: u32, hash: u64) -> Result<RegistryResult, ClientError> {
        self.registry(wire::RegistryOp::Bind { tenant, hash })
    }

    /// Stage a candidate as the tenant's shadow with a clean quota.
    pub fn stage_shadow(
        &mut self,
        tenant: u32,
        hash: u64,
        min_clean: u64,
    ) -> Result<RegistryResult, ClientError> {
        self.registry(wire::RegistryOp::Shadow { tenant, hash, min_clean })
    }

    /// Promote the tenant's proven shadow; the ack carries the new
    /// active hash.
    pub fn promote(&mut self, tenant: u32) -> Result<RegistryResult, ClientError> {
        self.registry(wire::RegistryOp::Promote { tenant })
    }

    /// Roll the tenant back to its previous version; the ack carries
    /// the new active hash.
    pub fn rollback(&mut self, tenant: u32) -> Result<RegistryResult, ClientError> {
        self.registry(wire::RegistryOp::Rollback { tenant })
    }

    /// Drop an unreferenced resident checkpoint.
    pub fn retire(&mut self, hash: u64) -> Result<RegistryResult, ClientError> {
        self.registry(wire::RegistryOp::Retire { hash })
    }

    fn lifecycle(&mut self, op: LifecycleOp) -> Result<LifecycleResult, ClientError> {
        let id = self.fresh_id();
        let frame = wire::encode_lifecycle(&LifecycleRequest { id, op }).map_err(invalid_input)?;
        match self.transact(id, &frame)? {
            Ok(Reply::Ack(ack)) => Ok(Ok(ack)),
            Ok(_) => Err(protocol_violation("non-ack reply to a lifecycle request")),
            Err(e) => Ok(Err(e)),
        }
    }

    fn registry(&mut self, op: wire::RegistryOp) -> Result<RegistryResult, ClientError> {
        let id = self.fresh_id();
        let frame =
            wire::encode_registry(&wire::RegistryRequest { id, op }).map_err(invalid_input)?;
        match self.transact(id, &frame)? {
            Ok(Reply::RegistryAck(hash)) => Ok(Ok(hash)),
            Ok(_) => Err(protocol_violation("non-registry reply to a registry request")),
            Err(e) => Ok(Err(e)),
        }
    }

    fn expect_scores(&mut self, id: u64, frame: &[u8]) -> Result<ServeResult, ClientError> {
        match self.transact(id, frame)? {
            Ok(Reply::Scores(scores)) => Ok(Ok(scores)),
            Ok(_) => Err(protocol_violation("non-score reply to a score request")),
            Err(e) => Ok(Err(e)),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Write one frame, read one response, check the correlation id.
    fn transact(
        &mut self,
        id: u64,
        frame: &[u8],
    ) -> Result<Result<Reply, ServeError>, ClientError> {
        self.stream.write_all(frame)?;
        self.stream.flush()?;
        let payload = wire::read_frame(&mut self.stream)?;
        let resp = wire::decode_response(&payload)
            .map_err(|e| ClientError::Io(std::io::Error::new(ErrorKind::InvalidData, e)))?;
        if resp.id != id {
            return Err(ClientError::Io(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("response id {} for request {id}", resp.id),
            )));
        }
        Ok(resp.into_result())
    }
}

/// What a lifecycle request resolves to: an applied-mutation receipt or
/// a terminal error.
pub type LifecycleResult = Result<LifecycleAck, ServeError>;

/// What a registry request resolves to: the checkpoint hash the
/// transition settled on, or a terminal error.
pub type RegistryResult = Result<u64, ServeError>;

fn invalid_input(e: wire::FrameTooLarge) -> ClientError {
    ClientError::Io(std::io::Error::new(ErrorKind::InvalidInput, e))
}

fn protocol_violation(what: &str) -> ClientError {
    ClientError::Io(std::io::Error::new(
        ErrorKind::InvalidData,
        format!("protocol violation: {what}"),
    ))
}
