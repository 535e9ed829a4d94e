//! Framed TCP transport: one [`FramedConn`] per socket, bounded timeouts
//! on every read and write, byte counters, and a deterministic
//! fault-injection shim.
//!
//! The fabric is std-only: plain `TcpStream`s on loopback (or any
//! network), thread-per-connection on the accepting side. Every
//! connection gets explicit read/write timeouts, so a dead peer costs a
//! bounded wait — never a hang — and the caller maps the typed
//! [`TransportError`] to a retriable `NodeUnavailable`.
//!
//! Connections are long-lived on both ends. The dialing side keeps its
//! links in a [`ConnPool`] (checked out per call, parked again only after
//! a clean round trip, lazily re-dialed when stale); the accepting side
//! keeps one thread per link in an [`Accepted`] registry that forgets
//! finished threads and can close every link at once for a prompt
//! teardown.
//!
//! Fault injection ([`FaultPlan`]) is symmetric: a *sent* frame can be
//! silently dropped (the peer's read times out), delayed, or the socket
//! torn down mid-conversation; a *received* frame can be swallowed after
//! full receipt or delayed before delivery; and periodic **partition
//! windows** black out both directions at once, so the endpoint looks
//! alive at the TCP layer but exchanges nothing. Every schedule is a pure
//! function of the plan's seed and the connection's index, so a failing
//! run replays exactly.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::wire::{decode_message, encode_frame, Message, WireError, MAX_PAYLOAD};

/// Transport-level failures, distinct from protocol-level [`WireError`]s
/// (which are also surfaced here once bytes arrive but do not parse).
#[derive(Debug)]
pub enum TransportError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// The peer closed the connection (EOF mid-protocol).
    Closed,
    /// No full frame arrived within the read timeout.
    TimedOut,
    /// Bytes arrived but did not parse.
    Wire(WireError),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "io error: {e}"),
            TransportError::Closed => write!(f, "peer closed the connection"),
            TransportError::TimedOut => write!(f, "timed out waiting for a frame"),
            TransportError::Wire(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

/// Bytes moved through a set of connections (an endpoint shares one
/// counter pair across all its sockets).
#[derive(Debug, Default)]
pub struct WireCounters {
    /// Bytes written.
    pub sent: AtomicU64,
    /// Bytes read.
    pub recv: AtomicU64,
}

impl WireCounters {
    /// Reads both counters.
    #[must_use]
    pub fn totals(&self) -> (u64, u64) {
        (
            self.sent.load(Ordering::Relaxed),
            self.recv.load(Ordering::Relaxed),
        )
    }
}

/// Declarative fault schedule, deterministic from `seed`. Rates are per
/// mille per frame; send-side faults are rolled independently per frame
/// in the order disconnect → drop → delay, receive-side faults (drop →
/// delay) from a second independent stream, and partition windows black
/// out both directions on a shared frame counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the xorshift streams all rolls derive from.
    pub seed: u64,
    /// Sent frames silently dropped, per mille.
    pub drop_per_mille: u32,
    /// Sent frames delayed by [`FaultPlan::delay`], per mille.
    pub delay_per_mille: u32,
    /// Delay applied to delayed frames (both directions).
    pub delay: Duration,
    /// Sends that tear the connection down instead, per mille.
    pub disconnect_per_mille: u32,
    /// Received frames swallowed *after* full receipt, per mille — the
    /// bytes crossed the socket (and are counted) but the caller never
    /// sees the message, so the requester's read times out.
    pub recv_drop_per_mille: u32,
    /// Received frames delayed by [`FaultPlan::delay`] before delivery,
    /// per mille.
    pub recv_delay_per_mille: u32,
    /// Bidirectional partition cadence: out of every `partition_period`
    /// frames crossing the connection (sends and receives share one
    /// counter), [`FaultPlan::partition_len`] consecutive frames are
    /// blacked out. Each connection's cadence starts at a deterministic
    /// per-connection phase — a fresh dial is not automatically born
    /// inside the blackout, which would turn a periodic partition into a
    /// permanent one for fresh-dial-per-call flows like heartbeats.
    /// `0` disables partitions.
    pub partition_period: u64,
    /// Frames blacked out per partition window.
    pub partition_len: u64,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a config default).
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            drop_per_mille: 0,
            delay_per_mille: 0,
            delay: Duration::ZERO,
            disconnect_per_mille: 0,
            recv_drop_per_mille: 0,
            recv_delay_per_mille: 0,
            partition_period: 0,
            partition_len: 0,
        }
    }

    /// Builds the injector for the `index`-th connection of this plan.
    /// Each connection gets its own deterministic roll streams (one per
    /// direction), so the fault sequence does not depend on
    /// cross-connection interleaving.
    #[must_use]
    pub fn injector(&self, index: u64) -> FaultInjector {
        let lane = self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Phase-shift the partition cadence per connection: the window
        // still reopens every `partition_period` frames, but where in the
        // cycle this connection starts is a deterministic roll.
        let phase = if self.partition_period == 0 {
            0
        } else {
            splitmix(lane ^ 0x0FF5_0FF5_0FF5_0FF5) % self.partition_period
        };
        FaultInjector {
            plan: *self,
            state: Mutex::new(splitmix(lane)),
            recv_state: Mutex::new(splitmix(lane ^ 0xD1E5_E10F_ACE5_0FF5)),
            frames: AtomicU64::new(phase),
        }
    }
}

/// One fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    Drop,
    Delay(Duration),
    Disconnect,
}

/// Per-connection deterministic fault roller.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    state: Mutex<u64>,
    recv_state: Mutex<u64>,
    frames: AtomicU64,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

impl FaultInjector {
    fn draw(state: &Mutex<u64>) -> u32 {
        let mut state = lock_clean(state);
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % 1000) as u32
    }

    /// Send-side roll: disconnect → drop → delay.
    fn roll(&self) -> Fault {
        let draw = Self::draw(&self.state);
        let p = &self.plan;
        if draw < p.disconnect_per_mille {
            Fault::Disconnect
        } else if draw < p.disconnect_per_mille + p.drop_per_mille {
            Fault::Drop
        } else if draw < p.disconnect_per_mille + p.drop_per_mille + p.delay_per_mille {
            Fault::Delay(p.delay)
        } else {
            Fault::None
        }
    }

    /// Receive-side roll: drop → delay (a receiver cannot "disconnect" a
    /// frame it already has; teardown is a send-side fault).
    fn recv_roll(&self) -> Fault {
        let draw = Self::draw(&self.recv_state);
        let p = &self.plan;
        if draw < p.recv_drop_per_mille {
            Fault::Drop
        } else if draw < p.recv_drop_per_mille + p.recv_delay_per_mille {
            Fault::Delay(p.delay)
        } else {
            Fault::None
        }
    }

    /// Advances the shared frame counter and reports whether this frame
    /// falls inside a partition blackout window.
    fn partitioned(&self) -> bool {
        let p = &self.plan;
        if p.partition_period == 0 || p.partition_len == 0 {
            return false;
        }
        let frame = self.frames.fetch_add(1, Ordering::Relaxed);
        frame % p.partition_period < p.partition_len
    }
}

/// A framed, fault-injectable message stream over one `TcpStream`.
#[derive(Debug)]
pub struct FramedConn {
    stream: TcpStream,
    peer: String,
    counters: Arc<WireCounters>,
    faults: Option<Arc<FaultInjector>>,
}

impl FramedConn {
    /// Dials `addr` with `timeout` as the connect, read, and write bound.
    ///
    /// # Errors
    /// Any socket error (unresolvable address, refused, timed out).
    pub fn connect(
        addr: &str,
        timeout: Duration,
        counters: Arc<WireCounters>,
    ) -> Result<Self, TransportError> {
        let sockaddr: SocketAddr = addr
            .to_socket_addrs()
            .map_err(TransportError::Io)?
            .next()
            .ok_or_else(|| {
                TransportError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("address {addr} resolved to nothing"),
                ))
            })?;
        // Classified, not raw `Io`: a connect that times out must look
        // exactly like a read that timed out (`TimedOut`) so retry
        // classification upstream is platform-independent.
        let stream = TcpStream::connect_timeout(&sockaddr, timeout).map_err(|e| classify(&e))?;
        Self::from_stream(stream, timeout, counters)
    }

    /// Wraps an accepted (or freshly dialed) stream, installing bounded
    /// read/write timeouts.
    ///
    /// # Errors
    /// Socket-option failures.
    pub fn from_stream(
        stream: TcpStream,
        timeout: Duration,
        counters: Arc<WireCounters>,
    ) -> Result<Self, TransportError> {
        stream.set_nodelay(true).map_err(TransportError::Io)?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(TransportError::Io)?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(TransportError::Io)?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into());
        Ok(Self {
            stream,
            peer,
            counters,
            faults: None,
        })
    }

    /// Installs a fault injector on this connection's sends.
    #[must_use]
    pub fn with_faults(mut self, injector: Arc<FaultInjector>) -> Self {
        self.faults = Some(injector);
        self
    }

    /// The peer's address, for error messages.
    #[must_use]
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Sends one message, rolling the fault plan first: a partitioned or
    /// dropped frame returns `Ok` without writing (the peer sees
    /// silence), a delayed frame sleeps, a disconnect tears the socket
    /// down and errors.
    ///
    /// # Errors
    /// Socket errors, encode failures, injected disconnects.
    pub fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        if let Some(faults) = &self.faults {
            if faults.partitioned() {
                return Ok(());
            }
            match faults.roll() {
                Fault::None => {}
                Fault::Drop => return Ok(()),
                Fault::Delay(d) => std::thread::sleep(d),
                Fault::Disconnect => {
                    let _ = self.stream.shutdown(Shutdown::Both);
                    return Err(TransportError::Closed);
                }
            }
        }
        let frame = encode_frame(msg)?;
        self.stream.write_all(&frame).map_err(|e| classify(&e))?;
        self.counters
            .sent
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Receives one message, waiting at most one read-timeout for it to
    /// start arriving.
    ///
    /// # Errors
    /// [`TransportError::TimedOut`] when nothing arrives in time,
    /// [`TransportError::Closed`] on EOF, wire errors on garbage.
    pub fn recv(&mut self) -> Result<Message, TransportError> {
        self.recv_idle(&mut || false)
    }

    /// Receives one message; on an idle read timeout (no byte of the next
    /// frame arrived yet) consults `keep_waiting` — `true` keeps
    /// listening, `false` gives up with [`TransportError::TimedOut`].
    /// Accept loops pass their shutdown flag here so an idle connection
    /// thread can wind down promptly without dropping mid-frame.
    ///
    /// Receive-side faults are rolled *after* a frame fully arrives: a
    /// partitioned or dropped frame is swallowed (bytes counted, message
    /// discarded) and the read continues waiting for the next one — to
    /// the requester this is indistinguishable from send-side loss.
    ///
    /// # Errors
    /// See [`FramedConn::recv`].
    pub fn recv_idle(
        &mut self,
        keep_waiting: &mut dyn FnMut() -> bool,
    ) -> Result<Message, TransportError> {
        loop {
            let msg = self.recv_frame(keep_waiting)?;
            if let Some(faults) = &self.faults {
                if faults.partitioned() {
                    continue;
                }
                match faults.recv_roll() {
                    Fault::None => {}
                    Fault::Drop => continue,
                    Fault::Delay(d) => std::thread::sleep(d),
                    // recv_roll never yields Disconnect.
                    Fault::Disconnect => {}
                }
            }
            return Ok(msg);
        }
    }

    /// Reads exactly one frame off the socket (no fault rolls).
    fn recv_frame(
        &mut self,
        keep_waiting: &mut dyn FnMut() -> bool,
    ) -> Result<Message, TransportError> {
        let mut header = [0u8; 4];
        self.read_exact_idle(&mut header, keep_waiting)?;
        let len = u32::from_be_bytes(header);
        if len > MAX_PAYLOAD {
            return Err(WireError::Oversized {
                len: u64::from(len),
            }
            .into());
        }
        // The frame has started: finish it regardless of keep_waiting.
        let mut payload = vec![0u8; len as usize];
        self.read_exact_idle(&mut payload, &mut || true)?;
        self.counters
            .recv
            .fetch_add(4 + u64::from(len), Ordering::Relaxed);
        Ok(decode_message(&payload)?)
    }

    /// `read_exact` that survives read-timeout wakeups: progress made so
    /// far is kept, and `keep_waiting` decides whether an *idle* timeout
    /// (zero bytes of `buf` filled) aborts. A timeout mid-buffer always
    /// keeps waiting — the bytes are in flight.
    fn read_exact_idle(
        &mut self,
        buf: &mut [u8],
        keep_waiting: &mut dyn FnMut() -> bool,
    ) -> Result<(), TransportError> {
        let mut filled = 0usize;
        while filled < buf.len() {
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => filled += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if filled == 0 && !keep_waiting() {
                        return Err(TransportError::TimedOut);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(classify(&e)),
            }
        }
        Ok(())
    }

    /// One round trip: send `msg`, wait for the answer.
    ///
    /// # Errors
    /// See [`FramedConn::send`] and [`FramedConn::recv`].
    pub fn call(&mut self, msg: &Message) -> Result<Message, TransportError> {
        self.send(msg)?;
        self.recv()
    }
}

/// Locks a mutex, recovering from poisoning: everything the fabric keeps
/// behind a mutex is updated in single steps that leave it valid, so a
/// panicked peer thread cannot leave it torn.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The dialing side's connections, keyed by peer address: every outbound
/// request/response call of an endpoint goes through [`ConnPool::call`].
///
/// A call *checks out* an idle link (it leaves the pool, so a concurrent
/// call to the same peer never queues behind it — it takes another idle
/// link or dials one) and parks it again only after a clean round trip.
/// Any failure drops the link, so a poisoned stream never serves a later
/// call and a caller's retry always runs on a new physical connection.
///
/// A parked link can be *stale*: the peer restarted, closed it, or a
/// partition outlived it. Every message sent through here is idempotent,
/// so a transport failure on a parked link falls through to exactly one
/// fresh dial before it surfaces — peer restarts and severed links cost
/// the caller a reconnect, not an error. Wire errors are typed peer
/// answers, not staleness, and surface immediately.
///
/// Each physical connection gets its own [`FaultPlan::injector`], indexed
/// by dial order. The pool's mutex is a leaf lock: it is held only to
/// move a link in or out, never across I/O.
#[derive(Debug)]
pub struct ConnPool {
    timeout: Duration,
    counters: Arc<WireCounters>,
    fault: Option<FaultPlan>,
    idle: Mutex<HashMap<String, Vec<FramedConn>>>,
    dial_count: AtomicU64,
    reconnects: AtomicU64,
}

impl ConnPool {
    /// An empty pool whose connections share `timeout` (connect, read and
    /// write bound), `counters`, and — when set — the fault plan.
    #[must_use]
    pub fn new(timeout: Duration, counters: Arc<WireCounters>, fault: Option<FaultPlan>) -> Self {
        Self {
            timeout,
            counters,
            fault,
            idle: Mutex::new(HashMap::new()),
            dial_count: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
        }
    }

    /// Opens a new physical connection to `addr`, outside the pool.
    ///
    /// # Errors
    /// See [`FramedConn::connect`].
    pub fn dial(&self, addr: &str) -> Result<FramedConn, TransportError> {
        let conn = FramedConn::connect(addr, self.timeout, Arc::clone(&self.counters))?;
        let index = self.dial_count.fetch_add(1, Ordering::Relaxed);
        Ok(match &self.fault {
            Some(plan) => conn.with_faults(Arc::new(plan.injector(index))),
            None => conn,
        })
    }

    /// One round trip to `addr` over a parked link, or a fresh one.
    ///
    /// # Errors
    /// The transport error of the last physical attempt (at most two: the
    /// parked link, then one fresh dial).
    pub fn call(&self, addr: &str, msg: &Message) -> Result<Message, TransportError> {
        // Bind the parked link first: an `if let` on the locked map would
        // hold the guard across the round trip.
        let parked = lock_clean(&self.idle).get_mut(addr).and_then(Vec::pop);
        if let Some(mut conn) = parked {
            match conn.call(msg) {
                Ok(reply) => {
                    self.park(addr, conn);
                    return Ok(reply);
                }
                Err(e @ TransportError::Wire(_)) => return Err(e),
                Err(_) => {
                    self.reconnects.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let mut conn = self.dial(addr)?;
        let reply = conn.call(msg)?;
        self.park(addr, conn);
        Ok(reply)
    }

    fn park(&self, addr: &str, conn: FramedConn) {
        let mut idle = lock_clean(&self.idle);
        // A popped-empty slot stays in the map, so re-parking on the
        // steady path finds it without allocating a key.
        match idle.get_mut(addr) {
            Some(links) => links.push(conn),
            None => {
                idle.insert(addr.to_string(), vec![conn]);
            }
        }
    }

    /// Closes every parked link to an address `keep` rejects.
    pub fn retain(&self, mut keep: impl FnMut(&str) -> bool) {
        lock_clean(&self.idle).retain(|addr, _| keep(addr));
    }

    /// Physical connections opened so far.
    #[must_use]
    pub fn dials(&self) -> u64 {
        self.dial_count.load(Ordering::Relaxed)
    }

    /// Stale parked links replaced by a fresh dial so far.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }
}

/// The accepting side's connections: one thread per accepted link, plus a
/// handle on each link's socket.
///
/// Finished threads are forgotten whenever a new link is accepted, so the
/// registry holds O(live links) however many short-lived peers come and
/// go. [`Accepted::close`] shuts every socket down first and joins second:
/// a thread parked in an idle read wakes at once instead of after its read
/// timeout.
#[derive(Debug, Default)]
pub struct Accepted {
    links: Mutex<Vec<(JoinHandle<()>, TcpStream)>>,
}

impl Accepted {
    /// Runs `serve` over `stream` on a new thread and tracks it. A stream
    /// whose handle cannot be duplicated is dropped (the peer sees a
    /// close and re-dials).
    pub fn spawn(&self, stream: TcpStream, serve: impl FnOnce(TcpStream) + Send + 'static) {
        let Ok(handle) = stream.try_clone() else {
            return;
        };
        let thread = std::thread::spawn(move || serve(stream));
        let mut links = lock_clean(&self.links);
        links.retain(|(thread, _)| !thread.is_finished());
        links.push((thread, handle));
    }

    /// Tracked links: live ones, plus any that finished since the last
    /// accept.
    #[cfg(test)]
    fn len(&self) -> usize {
        lock_clean(&self.links).len()
    }

    /// Shuts every tracked socket down without waiting for the threads:
    /// each peer sees a close, each serving thread winds down on its own.
    pub fn sever(&self) {
        for (_, stream) in lock_clean(&self.links).iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Shuts every tracked socket down and joins every thread.
    pub fn close(&self) {
        self.sever();
        let links = std::mem::take(&mut *lock_clean(&self.links));
        for (thread, _) in links {
            let _ = thread.join();
        }
    }
}

fn classify(e: &std::io::Error) -> TransportError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => TransportError::TimedOut,
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted
        | std::io::ErrorKind::BrokenPipe => TransportError::Closed,
        _ => TransportError::Io(std::io::Error::new(e.kind(), e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (FramedConn, FramedConn) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let timeout = Duration::from_millis(500);
        let client = FramedConn::connect(&addr, timeout, Arc::new(WireCounters::default()))
            .expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let server = FramedConn::from_stream(accepted, timeout, Arc::new(WireCounters::default()))
            .expect("wrap");
        (client, server)
    }

    #[test]
    fn frames_cross_a_real_socket_and_are_counted() {
        let (mut client, mut server) = pair();
        client.send(&Message::Ping { seq: 42 }).expect("send");
        let got = server.recv().expect("recv");
        assert_eq!(got, Message::Ping { seq: 42 });
        server
            .send(&Message::Pong { seq: 42, epoch: 7 })
            .expect("send");
        assert_eq!(
            client.recv().expect("recv"),
            Message::Pong { seq: 42, epoch: 7 }
        );
        let (sent, recv) = client.counters.totals();
        assert!(sent > 0 && recv > 0);
        // Both directions framed identically: what one side sent, the
        // other counted received.
        assert_eq!(server.counters.totals().1, sent);
        assert_eq!(server.counters.totals().0, recv);
    }

    #[test]
    fn idle_timeout_is_bounded_and_typed() {
        let (mut client, _server) = pair();
        let started = std::time::Instant::now();
        let err = client.recv().expect_err("nothing was sent");
        assert!(matches!(err, TransportError::TimedOut));
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn dropped_frames_leave_the_peer_waiting() {
        let (client, mut server) = pair();
        let plan = FaultPlan {
            drop_per_mille: 1000,
            ..FaultPlan::quiet(7)
        };
        let mut client = client.with_faults(Arc::new(plan.injector(0)));
        client
            .send(&Message::Ping { seq: 1 })
            .expect("drop is silent");
        assert!(matches!(
            server.recv().expect_err("frame was dropped"),
            TransportError::TimedOut
        ));
        assert_eq!(client.counters.totals().0, 0);
    }

    #[test]
    fn injected_disconnects_are_loud_on_both_sides() {
        let (client, mut server) = pair();
        let plan = FaultPlan {
            disconnect_per_mille: 1000,
            ..FaultPlan::quiet(7)
        };
        let mut client = client.with_faults(Arc::new(plan.injector(3)));
        assert!(matches!(
            client
                .send(&Message::Ping { seq: 1 })
                .expect_err("torn down"),
            TransportError::Closed
        ));
        assert!(matches!(
            server.recv().expect_err("peer vanished"),
            TransportError::Closed | TransportError::Io(_)
        ));
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed_and_connection() {
        let plan = FaultPlan {
            drop_per_mille: 200,
            delay_per_mille: 100,
            delay: Duration::from_millis(1),
            disconnect_per_mille: 50,
            recv_drop_per_mille: 150,
            ..FaultPlan::quiet(99)
        };
        let a: Vec<_> = {
            let inj = plan.injector(5);
            (0..64).map(|_| (inj.roll(), inj.recv_roll())).collect()
        };
        let b: Vec<_> = {
            let inj = plan.injector(5);
            (0..64).map(|_| (inj.roll(), inj.recv_roll())).collect()
        };
        assert_eq!(a, b);
        let other: Vec<_> = {
            let inj = plan.injector(6);
            (0..64).map(|_| (inj.roll(), inj.recv_roll())).collect()
        };
        assert_ne!(a, other);
        assert!(a.iter().any(|(f, _)| *f != Fault::None));
        // The two directions draw from independent streams.
        assert!(a
            .iter()
            .any(|(f, r)| (*f == Fault::None) != (*r == Fault::None)));
    }

    #[test]
    fn recv_side_drops_swallow_frames_after_receipt() {
        let (mut client, server) = pair();
        let plan = FaultPlan {
            recv_drop_per_mille: 1000,
            ..FaultPlan::quiet(11)
        };
        let mut server = server.with_faults(Arc::new(plan.injector(0)));
        client.send(&Message::Ping { seq: 9 }).expect("send");
        // The bytes cross the socket, but the receiver swallows the frame
        // and keeps waiting until its idle timeout fires.
        assert!(matches!(
            server.recv().expect_err("every frame is swallowed"),
            TransportError::TimedOut
        ));
        assert!(
            server.counters.totals().1 > 0,
            "swallowed bytes still count"
        );
    }

    #[test]
    fn partition_windows_black_out_both_directions() {
        let (client, mut server) = pair();
        // Every frame falls inside the blackout window.
        let plan = FaultPlan {
            partition_period: 4,
            partition_len: 4,
            ..FaultPlan::quiet(3)
        };
        let mut client = client.with_faults(Arc::new(plan.injector(0)));
        client.send(&Message::Ping { seq: 1 }).expect("silent");
        assert_eq!(
            client.counters.totals().0,
            0,
            "partitioned send writes nothing"
        );
        assert!(matches!(
            server.recv().expect_err("nothing crossed"),
            TransportError::TimedOut
        ));
        // And the same window swallows inbound frames too.
        server
            .send(&Message::Pong { seq: 1, epoch: 0 })
            .expect("send");
        assert!(matches!(
            client.recv().expect_err("inbound blacked out"),
            TransportError::TimedOut
        ));
    }

    #[test]
    fn partition_windows_reopen_on_schedule() {
        let plan = FaultPlan {
            partition_period: 4,
            partition_len: 2,
            ..FaultPlan::quiet(3)
        };
        // The cadence starts at a per-connection phase, so assert the
        // shape, not the offset: exactly `len` of every `period`
        // consecutive frames are blacked out, the pattern repeats with
        // the period, and the blackout frames are contiguous (cyclically).
        for index in 0..16 {
            let inj = plan.injector(index);
            let pattern: Vec<bool> = (0..16).map(|_| inj.partitioned()).collect();
            for window in pattern.windows(4) {
                assert_eq!(window.iter().filter(|&&b| b).count(), 2, "{pattern:?}");
            }
            for (a, b) in pattern.iter().zip(pattern.iter().skip(4)) {
                assert_eq!(a, b, "cadence drifted: {pattern:?}");
            }
        }
        // And across connections the phases differ: not every fresh dial
        // may be born partitioned.
        let clean_start = (0..16).any(|index| !plan.injector(index).partitioned());
        assert!(clean_start, "every connection starts inside the blackout");
    }

    /// A listener that answers every `Ping` on every connection with a
    /// `Pong`, tracked by an [`Accepted`] registry.
    fn echo_server() -> (String, Arc<Accepted>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let accepted = Arc::new(Accepted::default());
        let registry = Arc::clone(&accepted);
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                registry.spawn(stream, |stream| {
                    let counters = Arc::new(WireCounters::default());
                    let Ok(mut conn) =
                        FramedConn::from_stream(stream, Duration::from_secs(5), counters)
                    else {
                        return;
                    };
                    while let Ok(Message::Ping { seq }) = conn.recv() {
                        if conn.send(&Message::Pong { seq, epoch: 0 }).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        (addr, accepted)
    }

    fn pool(fault: Option<FaultPlan>) -> ConnPool {
        ConnPool::new(
            Duration::from_secs(5),
            Arc::new(WireCounters::default()),
            fault,
        )
    }

    #[test]
    fn pooled_calls_reuse_one_link_and_redial_a_severed_one() {
        let (addr, accepted) = echo_server();
        let pool = pool(None);
        for seq in 0..20 {
            let reply = pool.call(&addr, &Message::Ping { seq }).expect("call");
            assert_eq!(reply, Message::Pong { seq, epoch: 0 });
        }
        assert_eq!((pool.dials(), pool.reconnects()), (1, 0));
        // The peer closes the link while it sits parked: the next call
        // notices, re-dials once, and succeeds.
        accepted.sever();
        let reply = pool.call(&addr, &Message::Ping { seq: 99 }).expect("call");
        assert_eq!(reply, Message::Pong { seq: 99, epoch: 0 });
        assert_eq!((pool.dials(), pool.reconnects()), (2, 1));
        // Pruned addresses lose their parked links; the next call dials.
        pool.retain(|parked| parked != addr);
        pool.call(&addr, &Message::Ping { seq: 100 }).expect("call");
        assert_eq!((pool.dials(), pool.reconnects()), (3, 1));
    }

    #[test]
    fn failed_pooled_link_is_retried_on_a_new_connection_with_a_new_injector() {
        // A plan whose connection 0 sends one frame and tears down on the
        // second, while connection 1 sends two frames cleanly. A retry
        // that reused the link, or re-rolled injector 0 on a new link,
        // could not complete three calls on two dials.
        let plan = (0..10_000u64)
            .map(|seed| FaultPlan {
                disconnect_per_mille: 300,
                ..FaultPlan::quiet(seed)
            })
            .find(|plan| {
                let (first, second) = (plan.injector(0), plan.injector(1));
                first.roll() == Fault::None
                    && first.roll() == Fault::Disconnect
                    && second.roll() == Fault::None
                    && second.roll() == Fault::None
            })
            .expect("some seed yields the schedule");
        let (addr, _accepted) = echo_server();
        let pool = pool(Some(plan));
        for seq in 0..3 {
            let reply = pool.call(&addr, &Message::Ping { seq }).expect("call");
            assert_eq!(reply, Message::Pong { seq, epoch: 0 });
        }
        assert_eq!((pool.dials(), pool.reconnects()), (2, 1));
    }

    #[test]
    fn concurrent_calls_to_one_peer_do_not_queue_on_one_link() {
        // While one caller holds the only parked link mid-call, a second
        // caller must open its own link rather than wait.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let pool = Arc::new(pool(None));
        let serve = |listener: &TcpListener| {
            let (stream, _) = listener.accept().expect("accept");
            FramedConn::from_stream(
                stream,
                Duration::from_secs(5),
                Arc::new(WireCounters::default()),
            )
            .expect("wrap")
        };
        let slow = {
            let (pool, addr) = (Arc::clone(&pool), addr.clone());
            std::thread::spawn(move || pool.call(&addr, &Message::Ping { seq: 1 }))
        };
        let mut first = serve(&listener);
        assert_eq!(first.recv().expect("recv"), Message::Ping { seq: 1 });
        // The first call is now in flight and unanswered.
        let fast = {
            let (pool, addr) = (Arc::clone(&pool), addr.clone());
            std::thread::spawn(move || pool.call(&addr, &Message::Ping { seq: 2 }))
        };
        let mut second = serve(&listener);
        assert_eq!(second.recv().expect("recv"), Message::Ping { seq: 2 });
        second
            .send(&Message::Pong { seq: 2, epoch: 0 })
            .expect("send");
        assert!(fast.join().expect("join").is_ok());
        first
            .send(&Message::Pong { seq: 1, epoch: 0 })
            .expect("send");
        assert!(slow.join().expect("join").is_ok());
        assert_eq!(pool.dials(), 2);
    }

    #[test]
    fn accepted_registry_forgets_finished_links() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let accepted = Accepted::default();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for _ in 0..200 {
            drop(TcpStream::connect(addr).expect("connect"));
            let (stream, _) = listener.accept().expect("accept");
            let done = done_tx.clone();
            accepted.spawn(stream, move |mut stream| {
                // Serve until the peer's close, like a real conn loop.
                let _ = stream.read(&mut [0u8; 1]);
                let _ = done.send(());
            });
            done_rx.recv().expect("serving thread ended");
        }
        // Every link ended before the next was accepted, so each accept
        // found at most a few threads still returning — not 200 handles.
        assert!(accepted.len() < 20, "registry grew to {}", accepted.len());
        // One live link keeps its place, and `close` reaches it.
        let live = TcpStream::connect(addr).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        accepted.spawn(stream, |mut stream| {
            let _ = stream.read(&mut [0u8; 1]);
        });
        assert!(accepted.len() >= 1);
        let started = std::time::Instant::now();
        accepted.close();
        assert!(started.elapsed() < Duration::from_secs(2));
        assert_eq!(accepted.len(), 0);
        drop(live);
    }

    #[test]
    fn timeouts_classify_identically_regardless_of_platform_kind() {
        for kind in [std::io::ErrorKind::WouldBlock, std::io::ErrorKind::TimedOut] {
            assert!(matches!(
                classify(&std::io::Error::new(kind, "t")),
                TransportError::TimedOut
            ));
        }
        assert!(matches!(
            classify(&std::io::Error::new(std::io::ErrorKind::BrokenPipe, "p")),
            TransportError::Closed
        ));
    }

    #[test]
    fn connect_to_a_dead_port_fails_typed_not_raw() {
        // Bind a listener, note its port, drop it: connecting now must
        // fail through `classify`, i.e. never panic and never produce a
        // `TimedOut`-shaped raw `Io`.
        let port = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").port()
        };
        let err = FramedConn::connect(
            &format!("127.0.0.1:{port}"),
            Duration::from_millis(200),
            Arc::new(WireCounters::default()),
        )
        .expect_err("nothing listens");
        assert!(matches!(
            err,
            TransportError::Io(_) | TransportError::Closed | TransportError::TimedOut
        ));
    }
}
