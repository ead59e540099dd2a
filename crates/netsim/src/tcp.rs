//! Real-socket transport: the [`crate::transport::Transport`] trait over
//! blocking `std::net` TCP, one OS process per protocol node.
//!
//! # Wire format
//!
//! Every frame is length-prefixed: `[u32 len][u8 kind][body]`, all integers
//! little-endian. Three kinds exist:
//!
//! * `HELLO` (`kind = 1`): `u32 src` — sent once by the connection
//!   initiator, identifying which node's outbound traffic the connection
//!   carries. Connections are direction-dedicated: node `a` dials node `b`
//!   to *send* to `b`; deliveries from `b` to `a` ride `b`'s own dial.
//! * `DATA` (`kind = 2`): `u64 epoch, u32 src, u32 dst, u32 seq,
//!   u32 attempt, u64 payload` — one [`Envelope`] stamped with the sender's
//!   trial epoch (the global trial index + 1; see below).
//! * `ACK` (`kind = 3`): `u64 epoch, u32 seq` — acknowledges receipt of the
//!   `DATA` frame with that `(epoch, seq)` on the same connection.
//!
//! # Epochs and the block-index determinism contract
//!
//! The in-process trial engine re-salts the transport between trials via
//! [`Transport::begin_trial`]; per-sender sequence numbers restart at zero
//! every trial, so `(src, seq)` alone cannot deduplicate across trials once
//! real sockets (which outlive trials) are involved. Each `DATA` frame
//! therefore carries the sender's *epoch* — a monotone trial counter that
//! every process derives from the same global trial index. A receiver:
//!
//! * delivers a frame whose epoch matches its own, deduplicating on
//!   `(epoch, src, seq)`;
//! * buffers a frame from the *future* (the peer has pipelined ahead within
//!   the batch) until [`TcpTransport::set_epoch`]/`begin_trial` catches up;
//! * drops — but still acknowledges — a *stale* frame (a retransmission of a
//!   trial this node has already finished or abandoned), so a lagging sender
//!   completes its round instead of retrying forever.
//!
//! # Time: virtual deadlines, wall waits
//!
//! The robustness layer ([`crate::transport::robust_send`] /
//! [`crate::transport::robust_recv`]) runs the shared
//! [`crate::policy::RetryPolicy`] backoff schedule in virtual nanoseconds.
//! This transport makes those windows physically real: a window of `w`
//! virtual ns becomes a wall-clock wait of `w * nanos_per_vns` (clamped to
//! `[min_wait, max_wait]`). An attempt that fails *early* — connection
//! refused while a peer restarts, connection reset when it dies — sleeps out
//! the remainder of its window before reporting [`SendOutcome::Lost`], so
//! the retry schedule paces reconnection exactly like the virtual backoff
//! discipline: attempt `i` rides out `~base_timeout << i` of peer downtime,
//! and a policy's [`crate::policy::RetryPolicy::virtual_budget`] bounds the wall time a
//! surviving node spends on a dead peer before surfacing a
//! [`crate::transport::FaultCause`] to the supervisor.
//!
//! Crash detection is thus two-level: in-band (connection refused/reset and
//! acknowledgement silence, absorbed by the retry schedule) and out-of-band
//! (the supervisor's control-channel heartbeat, which notices a dead child
//! immediately and restarts it; see `dqma::cluster`).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::transport::{Envelope, NodeId, RecvOutcome, SendOutcome, Transport, VTime};

const KIND_HELLO: u8 = 1;
const KIND_DATA: u8 = 2;
const KIND_ACK: u8 = 3;

/// Wall-clock shaping of the virtual-time retry windows.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Wall nanoseconds per virtual nanosecond (default 1000: 1 vns = 1 µs).
    pub nanos_per_vns: u64,
    /// Floor on any single wall wait, so sub-RTT virtual windows still give
    /// the socket a fighting chance (default 1 ms).
    pub min_wait: Duration,
    /// Cap on any single wall wait (default 2 s).
    pub max_wait: Duration,
    /// Cap on one TCP connect attempt (default 250 ms); also clamped to the
    /// attempt's wall window.
    pub connect_timeout: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            nanos_per_vns: 1000,
            min_wait: Duration::from_millis(1),
            max_wait: Duration::from_secs(2),
            connect_timeout: Duration::from_millis(250),
        }
    }
}

impl TcpConfig {
    /// Maps a virtual-time window to the wall wait this transport grants it.
    pub fn wall(&self, vns: VTime) -> Duration {
        let nanos = vns.saturating_mul(self.nanos_per_vns);
        Duration::from_nanos(nanos).clamp(self.min_wait, self.max_wait)
    }
}

/// Locks `mutex`, recovering the guard when a panicking thread poisoned it.
/// Every critical section here leaves its map or mailbox consistent at each
/// step, so one panicking peer handler must not take the whole node down.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Inbound state shared with the acceptor/handler threads.
struct MailState {
    /// Current epoch: frames stamped with it are deliverable now.
    epoch: u64,
    /// Deliverable / future envelopes, keyed by epoch, FIFO within a key.
    by_epoch: HashMap<u64, Vec<Envelope>>,
    /// Dedup keys `(epoch, src, seq)` of everything accepted so far.
    seen: HashMap<u64, Vec<(NodeId, u32)>>,
}

impl MailState {
    /// Drops buffered envelopes and dedup state of epochs before `epoch`.
    fn prune(&mut self) {
        let e = self.epoch;
        self.by_epoch.retain(|&k, _| k >= e);
        self.seen.retain(|&k, _| k >= e);
    }
}

/// [`Transport`] over real loopback/LAN TCP sockets; see the module docs.
///
/// One instance serves exactly one node (its `recv` mailbox is the node's
/// own). Peers are dialled lazily on first send and re-dialled after any
/// socket error, with pacing supplied by the caller's
/// [`crate::policy::RetryPolicy`]
/// windows; [`TcpTransport::set_peer`] re-points a peer at a new address
/// (process restart) and invalidates the cached connection.
pub struct TcpTransport {
    node: NodeId,
    cfg: TcpConfig,
    listener_addr: SocketAddr,
    /// Where each peer currently listens; `set_peer` updates this.
    peers: Mutex<HashMap<NodeId, SocketAddr>>,
    /// Cached outbound connections, one per peer.
    conns: Mutex<HashMap<NodeId, TcpStream>>,
    mail: Arc<(Mutex<MailState>, Condvar)>,
    /// Virtual clock mirrored by the wall: reset each trial, advanced by
    /// elapsed wall time on every blocking operation.
    vclock: AtomicU64,
    shutdown: Arc<AtomicBool>,
}

impl TcpTransport {
    /// Binds a listener for `node` on an ephemeral loopback port and starts
    /// the acceptor thread. Fails where loopback sockets are unavailable —
    /// callers (tests, CI) treat that error as a graceful skip.
    pub fn bind(node: NodeId) -> io::Result<TcpTransport> {
        TcpTransport::with_config(node, TcpConfig::default())
    }

    /// [`TcpTransport::bind`] with explicit wall-clock shaping.
    pub fn with_config(node: NodeId, cfg: TcpConfig) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let listener_addr = listener.local_addr()?;
        let mail = Arc::new((
            Mutex::new(MailState {
                epoch: 0,
                by_epoch: HashMap::new(),
                seen: HashMap::new(),
            }),
            Condvar::new(),
        ));
        let shutdown = Arc::new(AtomicBool::new(false));
        {
            let mail = Arc::clone(&mail);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || acceptor_loop(listener, mail, shutdown));
        }
        Ok(TcpTransport {
            node,
            cfg,
            listener_addr,
            peers: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            mail,
            vclock: AtomicU64::new(0),
            shutdown,
        })
    }

    /// The address peers should dial to reach this node.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener_addr
    }

    /// This transport's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Points `node` at `addr`, dropping any cached connection to it (a
    /// restarted process listens on a fresh port; the stale socket would
    /// only ever yield resets).
    pub fn set_peer(&self, node: NodeId, addr: SocketAddr) {
        lock(&self.peers).insert(node, addr);
        lock(&self.conns).remove(&node);
    }

    /// Forgets `node` entirely (peer leave): sends to it fail fast as
    /// [`SendOutcome::Lost`] until a new address is installed.
    pub fn clear_peer(&self, node: NodeId) {
        lock(&self.peers).remove(&node);
        lock(&self.conns).remove(&node);
    }

    /// Jumps the trial epoch (e.g. to the batch's global trial index after a
    /// supervisor `abandon`). Buffered future-epoch deliveries for the new
    /// epoch become visible; everything older is pruned.
    pub fn set_epoch(&self, epoch: u64) {
        let (mutex, cvar) = &*self.mail;
        let mut mail = lock(mutex);
        mail.epoch = epoch;
        mail.prune();
        self.vclock.store(0, Ordering::Relaxed);
        cvar.notify_all();
    }

    /// The current trial epoch.
    pub fn epoch(&self) -> u64 {
        lock(&self.mail.0).epoch
    }

    fn advance_vclock(&self, start: Instant) -> VTime {
        let elapsed_v = (start.elapsed().as_nanos() as u64) / self.cfg.nanos_per_vns.max(1);
        let v = self
            .vclock
            .load(Ordering::Relaxed)
            .saturating_add(elapsed_v.max(1));
        self.vclock.store(v, Ordering::Relaxed);
        v
    }

    /// One send attempt: dial if needed, write the frame, await its ack.
    /// Any failure tears down the cached connection and returns `Err`.
    fn try_send(&self, env: &Envelope, epoch: u64, budget: Duration) -> io::Result<()> {
        let deadline = Instant::now() + budget;
        let mut stream = {
            let cached = lock(&self.conns).remove(&env.dst);
            match cached {
                Some(s) => s,
                None => {
                    let addr = lock(&self.peers).get(&env.dst).copied();
                    let addr = addr.ok_or_else(|| {
                        io::Error::new(io::ErrorKind::NotFound, "peer address unknown")
                    })?;
                    let timeout = self.cfg.connect_timeout.min(budget);
                    let s =
                        TcpStream::connect_timeout(&addr, timeout.max(Duration::from_millis(1)))?;
                    s.set_nodelay(true)?;
                    let mut hello = Vec::with_capacity(9);
                    hello.push(KIND_HELLO);
                    hello.extend_from_slice(&(self.node as u32).to_le_bytes());
                    write_frame(&mut &s, &hello)?;
                    s
                }
            }
        };
        let mut data = Vec::with_capacity(33);
        data.push(KIND_DATA);
        data.extend_from_slice(&epoch.to_le_bytes());
        data.extend_from_slice(&(env.src as u32).to_le_bytes());
        data.extend_from_slice(&(env.dst as u32).to_le_bytes());
        data.extend_from_slice(&env.seq.to_le_bytes());
        data.extend_from_slice(&env.attempt.to_le_bytes());
        data.extend_from_slice(&env.payload.to_le_bytes());
        write_frame(&mut &stream, &data)?;
        // Await the ack for exactly this (epoch, seq); stale acks of earlier
        // timed-out attempts may still be queued on the stream — skip them.
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "ack deadline"));
            }
            stream.set_read_timeout(Some(left))?;
            let frame = read_frame(&mut stream)?;
            if frame.first() != Some(&KIND_ACK) || frame.len() < 13 {
                continue;
            }
            let ack_epoch = u64::from_le_bytes(frame[1..9].try_into().unwrap());
            let ack_seq = u32::from_le_bytes(frame[9..13].try_into().unwrap());
            if ack_epoch == epoch && ack_seq == env.seq {
                lock(&self.conns).insert(env.dst, stream);
                return Ok(());
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept() so the acceptor thread can exit.
        let _ = TcpStream::connect(self.listener_addr);
    }
}

impl Transport for TcpTransport {
    fn send(&self, now: VTime, env: &Envelope, ack_deadline: VTime) -> SendOutcome {
        let start = Instant::now();
        let v = self.vclock.load(Ordering::Relaxed).max(now);
        self.vclock.store(v, Ordering::Relaxed);
        let budget = self.cfg.wall(ack_deadline.saturating_sub(v));
        let epoch = self.epoch();
        match self.try_send(env, epoch, budget) {
            Ok(()) => SendOutcome::Acked(self.advance_vclock(start)),
            Err(_) => {
                lock(&self.conns).remove(&env.dst);
                // Consume the rest of the window so the caller's backoff
                // schedule paces reconnection in wall time.
                let left = budget.saturating_sub(start.elapsed());
                if !left.is_zero() {
                    std::thread::sleep(left);
                }
                self.advance_vclock(start);
                SendOutcome::Lost
            }
        }
    }

    fn recv(&self, node: NodeId, deadline: VTime) -> RecvOutcome {
        debug_assert_eq!(node, self.node, "TcpTransport serves exactly one node");
        let start = Instant::now();
        let v = self.vclock.load(Ordering::Relaxed);
        let budget = self.cfg.wall(deadline.saturating_sub(v));
        let wall_deadline = start + budget;
        let (mutex, cvar) = &*self.mail;
        let mut mail = lock(mutex);
        loop {
            let epoch = mail.epoch;
            if let Some(queue) = mail.by_epoch.get_mut(&epoch) {
                if !queue.is_empty() {
                    let env = queue.remove(0);
                    drop(mail);
                    return RecvOutcome::Delivered(env, self.advance_vclock(start));
                }
            }
            let left = wall_deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.advance_vclock(start);
                return RecvOutcome::TimedOut;
            }
            let (guard, _timeout) = cvar
                .wait_timeout(mail, left)
                .unwrap_or_else(PoisonError::into_inner);
            mail = guard;
        }
    }

    fn begin_trial(&self, _salt: u64) {
        let (mutex, cvar) = &*self.mail;
        let mut mail = lock(mutex);
        mail.epoch += 1;
        mail.prune();
        self.vclock.store(0, Ordering::Relaxed);
        cvar.notify_all();
    }
}

/// Accepts inbound connections and spawns one handler per peer connection.
fn acceptor_loop(
    listener: TcpListener,
    mail: Arc<(Mutex<MailState>, Condvar)>,
    shutdown: Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let mail = Arc::clone(&mail);
        std::thread::spawn(move || {
            let _ = handle_peer(stream, mail);
        });
    }
}

/// Reads HELLO then DATA frames from one peer connection, acknowledging and
/// delivering each; exits on any socket error (peer death ≡ EOF/reset).
fn handle_peer(mut stream: TcpStream, mail: Arc<(Mutex<MailState>, Condvar)>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let hello = read_frame(&mut stream)?;
    if hello.first() != Some(&KIND_HELLO) || hello.len() < 5 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "expected HELLO"));
    }
    loop {
        let frame = read_frame(&mut stream)?;
        if frame.first() != Some(&KIND_DATA) || frame.len() < 33 {
            continue;
        }
        let epoch = u64::from_le_bytes(frame[1..9].try_into().unwrap());
        let env = Envelope {
            src: u32::from_le_bytes(frame[9..13].try_into().unwrap()) as NodeId,
            dst: u32::from_le_bytes(frame[13..17].try_into().unwrap()) as NodeId,
            seq: u32::from_le_bytes(frame[17..21].try_into().unwrap()),
            attempt: u32::from_le_bytes(frame[21..25].try_into().unwrap()),
            payload: u64::from_le_bytes(frame[25..33].try_into().unwrap()),
        };
        {
            let (mutex, cvar) = &*mail;
            let mut state = lock(mutex);
            // Stale frames (epoch already finished/abandoned here) are
            // dropped but still acknowledged below, so a lagging sender
            // completes instead of retrying forever.
            if epoch >= state.epoch {
                let seen = state.seen.entry(epoch).or_default();
                if !seen.contains(&(env.src, env.seq)) {
                    seen.push((env.src, env.seq));
                    state.by_epoch.entry(epoch).or_default().push(env);
                    cvar.notify_all();
                }
            }
        }
        let mut ack = Vec::with_capacity(13);
        ack.push(KIND_ACK);
        ack.extend_from_slice(&epoch.to_le_bytes());
        ack.extend_from_slice(&env.seq.to_le_bytes());
        write_frame(&mut &stream, &ack)?;
    }
}

fn write_frame(stream: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = body.len() as u32;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

fn read_frame(stream: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > 1 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized frame",
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RetryPolicy;
    use crate::transport::{robust_send, FaultCause};

    fn env(src: NodeId, dst: NodeId, seq: u32, payload: u64) -> Envelope {
        Envelope {
            src,
            dst,
            seq,
            attempt: 0,
            payload,
        }
    }

    fn pair() -> Option<(TcpTransport, TcpTransport)> {
        let a = TcpTransport::bind(0).ok()?;
        let b = TcpTransport::bind(1).ok()?;
        a.set_peer(1, b.local_addr());
        b.set_peer(0, a.local_addr());
        Some((a, b))
    }

    #[test]
    fn delivers_and_acks_over_loopback() {
        let Some((a, b)) = pair() else { return };
        a.begin_trial(7);
        b.begin_trial(7);
        let got = a.send(0, &env(0, 1, 0, 42), 1 << 20);
        assert!(matches!(got, SendOutcome::Acked(_)));
        let RecvOutcome::Delivered(e, _) = b.recv(1, 1 << 20) else {
            panic!("expected delivery");
        };
        assert_eq!(e.payload, 42);
        assert_eq!(e.src, 0);
    }

    #[test]
    fn poisoned_locks_do_not_take_the_node_down() {
        let Some((a, b)) = pair() else { return };
        // A handler thread that panics while holding the receiver's mailbox
        // lock, and a sender thread that panics holding the connection and
        // peer maps, poison all three locks.
        let mail = Arc::clone(&b.mail);
        let poisoner = std::thread::spawn(move || {
            let _held = mail.0.lock();
            panic!("handler bug while holding the mailbox lock");
        });
        assert!(poisoner.join().is_err());
        std::thread::scope(|s| {
            let held = s.spawn(|| {
                let _conns = a.conns.lock();
                let _peers = a.peers.lock();
                panic!("sender bug while holding the connection maps");
            });
            assert!(held.join().is_err());
        });
        assert!(b.mail.0.is_poisoned() && a.conns.is_poisoned() && a.peers.is_poisoned());

        a.begin_trial(3);
        b.begin_trial(3);
        assert!(matches!(
            a.send(0, &env(0, 1, 0, 21), 1 << 20),
            SendOutcome::Acked(_)
        ));
        let RecvOutcome::Delivered(e, _) = b.recv(1, 1 << 20) else {
            panic!("expected delivery through the poisoned mailbox");
        };
        assert_eq!(e.payload, 21);
        a.set_peer(1, b.local_addr());
        assert!(matches!(
            a.send(0, &env(0, 1, 1, 22), 1 << 20),
            SendOutcome::Acked(_)
        ));
        assert!(matches!(b.recv(1, 1 << 20), RecvOutcome::Delivered(_, _)));
    }

    #[test]
    fn future_epoch_buffers_until_receiver_catches_up() {
        let Some((a, b)) = pair() else { return };
        a.set_epoch(5);
        b.set_epoch(4);
        assert!(matches!(
            a.send(0, &env(0, 1, 0, 9), 1 << 20),
            SendOutcome::Acked(_)
        ));
        // Receiver is still at epoch 4: nothing deliverable.
        assert_eq!(b.recv(1, 1), RecvOutcome::TimedOut);
        // Catch up: the buffered frame becomes visible.
        b.set_epoch(5);
        let RecvOutcome::Delivered(e, _) = b.recv(1, 1 << 20) else {
            panic!("expected delivery after epoch catch-up");
        };
        assert_eq!(e.payload, 9);
    }

    #[test]
    fn stale_epoch_is_acked_but_dropped_and_dedup_holds() {
        let Some((a, b)) = pair() else { return };
        a.set_epoch(3);
        b.set_epoch(8);
        // Stale: acked (sender completes) but never delivered.
        assert!(matches!(
            a.send(0, &env(0, 1, 0, 1), 1 << 20),
            SendOutcome::Acked(_)
        ));
        assert_eq!(b.recv(1, 1), RecvOutcome::TimedOut);
        // Dedup: the same (epoch, src, seq) delivered once despite a
        // retransmission.
        a.set_epoch(8);
        let mut e = env(0, 1, 4, 77);
        assert!(matches!(a.send(0, &e, 1 << 20), SendOutcome::Acked(_)));
        e.attempt = 1;
        assert!(matches!(a.send(0, &e, 1 << 20), SendOutcome::Acked(_)));
        assert!(matches!(b.recv(1, 1 << 20), RecvOutcome::Delivered(_, _)));
        assert_eq!(b.recv(1, 1), RecvOutcome::TimedOut);
    }

    #[test]
    fn reconnects_to_rebound_peer_via_retry_policy() {
        let Some((a, b)) = pair() else { return };
        a.set_epoch(1);
        b.set_epoch(1);
        assert!(matches!(
            a.send(0, &env(0, 1, 0, 5), 1 << 20),
            SendOutcome::Acked(_)
        ));
        assert!(matches!(b.recv(1, 1 << 20), RecvOutcome::Delivered(_, _)));
        // "Restart" node 1 on a fresh port: the old listener dies with it.
        let b_addr_old = b.local_addr();
        drop(b);
        let b2 = TcpTransport::bind(1).expect("rebind");
        assert_ne!(b_addr_old, b2.local_addr());
        b2.set_peer(0, a.local_addr());
        b2.set_epoch(1);
        a.set_peer(1, b2.local_addr());
        // The shared RetryPolicy drives the reconnect: the cached socket is
        // gone, so robust_send dials the new address.
        let policy = RetryPolicy {
            base_timeout: 1 << 14,
            max_attempts: 4,
            jitter: 0.0,
        };
        let mut clock: VTime = 0;
        let sent = robust_send(&a, &policy, 0xABCD, &mut clock, env(0, 1, 1, 6));
        assert!(sent.is_ok(), "reconnect failed: {sent:?}");
        let RecvOutcome::Delivered(e, _) = b2.recv(1, 1 << 20) else {
            panic!("expected delivery on rebound listener");
        };
        assert_eq!(e.payload, 6);
    }

    #[test]
    fn dead_peer_exhausts_retries_with_fault_cause() {
        let Some((a, b)) = pair() else { return };
        a.set_epoch(1);
        drop(b); // peer gone, no restart
        let policy = RetryPolicy {
            base_timeout: 1 << 10,
            max_attempts: 2,
            jitter: 0.0,
        };
        let mut clock: VTime = 0;
        let err = robust_send(&a, &policy, 1, &mut clock, env(0, 1, 0, 3));
        assert!(matches!(
            err,
            Err(FaultCause::RetriesExhausted { to: 1, .. })
        ));
    }
}
