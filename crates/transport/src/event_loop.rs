//! Event-driven TCP backend: one I/O thread drives every connection.
//!
//! The crate's socket backend. It multiplexes **all** sockets onto a
//! single I/O thread (see [`crate::poll`] for the readiness model)
//! behind the same [`Transport`] semantics as the loopback fabric:
//!
//! * thread budget is O(1) — the I/O thread plus whatever the caller
//!   already had, regardless of peer count;
//! * every connection carries an idle-read deadline
//!   ([`EventLoopConfig::idle_timeout`]): a peer that stops producing
//!   bytes is reaped and its resources reclaimed, instead of pinning a
//!   blocked thread;
//! * per-connection state (buffers, pending-send watermarks) is owned
//!   exclusively by the I/O thread — no shared mutex exists to poison —
//!   and per-frame handling is panic-isolated, so a defect triggered by
//!   one peer's traffic closes that connection only;
//! * connection lifecycle is observable: `conn_open` / `conn_close` /
//!   `conn_reaped` telemetry events.
//!
//! Senders talk to the I/O thread over a command channel. While the
//! endpoint's total write backlog sits below `SEND_HIGH_WATER`, a send
//! completes as soon as the frame is queued — one channel push, no
//! thread round-trip — which is what lets a coordinator broadcast to a
//! hundred learners in one loop wakeup. Past the high-water mark the
//! sender falls back to blocking on the per-connection flush watermark,
//! bounded by the endpoint's `io_timeout`; a frame stuck past that
//! deadline fails its connection either way. On Linux the loop parks in
//! a raw `ppoll` over every socket plus a loopback wake connection — a
//! queued command writes one wake byte, so commands and socket traffic
//! both interrupt the wait instantly and only ready sockets are
//! touched. On targets without the raw syscall the command channel's
//! `recv_timeout` doubles as the idle sleep and sockets are scanned
//! with non-blocking reads.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ppml_telemetry as telemetry;
use telemetry::EventKind;

use crate::frame::{Frame, Message, PartyId};
use crate::poll::{pin_current_thread, read_scratch, ConnIo, IdleBackoff, ReadSweep};
use crate::retry::RetryPolicy;
use crate::transport::{Envelope, LinkStats, Transport, TransportError};

/// Locks a mutex, recovering the data if a previous holder panicked.
/// Poisoning is advisory; every structure guarded this way is a plain
/// registry that stays consistent across any single operation.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Tuning for the event loop. The defaults suit localhost protocol
/// traffic; tests shrink `idle_timeout` to exercise reaping.
#[derive(Debug, Clone, Copy)]
pub struct EventLoopConfig {
    /// A connection that produces no inbound bytes for this long is
    /// reaped (closed and deregistered). Writes do not refresh the
    /// deadline — a half-open peer absorbs writes into a dead kernel
    /// buffer, so only inbound bytes prove liveness. Learners heartbeat
    /// every 500 ms and the coordinator broadcasts every round, so live
    /// links refresh constantly; the default is deliberately generous.
    pub idle_timeout: Duration,
    /// Best-effort core to pin the I/O thread to (see
    /// [`pin_current_thread`]); `None` leaves scheduling to the OS.
    pub pin_core: Option<usize>,
    /// Shard count for the connected-party registry readers query.
    pub shards: usize,
    /// Scan sleep bounds for `IdleBackoff`: the loop wakes at least
    /// this often when active / at most this rarely when idle.
    pub min_scan_wait: Duration,
    /// See [`EventLoopConfig::min_scan_wait`].
    pub max_scan_wait: Duration,
}

impl Default for EventLoopConfig {
    fn default() -> Self {
        EventLoopConfig {
            idle_timeout: Duration::from_secs(60),
            pin_core: None,
            shards: 8,
            min_scan_wait: Duration::from_micros(50),
            max_scan_wait: Duration::from_millis(2),
        }
    }
}

#[derive(Default)]
struct AtomicStats {
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    retries: AtomicU64,
}

/// Party ids with a live registered connection, sharded so senders on
/// different threads never contend on one lock (and a poisoned shard —
/// impossible to brick, see [`lock_recover`] — would cost one shard,
/// not the registry).
struct ShardedSet {
    shards: Vec<Mutex<HashSet<PartyId>>>,
}

impl ShardedSet {
    fn new(n: usize) -> ShardedSet {
        let n = n.max(1);
        ShardedSet {
            shards: (0..n).map(|_| Mutex::new(HashSet::new())).collect(),
        }
    }

    fn shard(&self, party: PartyId) -> &Mutex<HashSet<PartyId>> {
        &self.shards[party as usize % self.shards.len()]
    }

    fn insert(&self, party: PartyId) {
        lock_recover(self.shard(party)).insert(party);
    }

    fn remove(&self, party: PartyId) {
        lock_recover(self.shard(party)).remove(&party);
    }

    fn contains(&self, party: PartyId) -> bool {
        lock_recover(self.shard(party)).contains(&party)
    }

    fn snapshot(&self) -> Vec<PartyId> {
        let mut all: Vec<PartyId> = Vec::new();
        for shard in &self.shards {
            all.extend(lock_recover(shard).iter().copied());
        }
        all.sort_unstable();
        all
    }
}

/// Total unflushed write-buffer bytes below which sends complete at
/// queue time instead of blocking on their flush watermark.
const SEND_HIGH_WATER: u64 = 1 << 20;

struct Shared {
    party: PartyId,
    connected: ShardedSet,
    stats: AtomicStats,
    shutdown: AtomicBool,
    /// Unflushed bytes across all connections, refreshed by the loop
    /// each iteration. Advisory: senders read it to pick the fast
    /// (queue-and-return) or blocking send path.
    backlog: AtomicU64,
    /// True while the I/O thread is parked in `ppoll`. Senders check it
    /// after pushing a command: only then is a wake byte worth a
    /// syscall. The loop re-checks the command queue *after* setting
    /// this (both ends use `SeqCst`), so a command can never be missed.
    io_sleeping: AtomicBool,
}

/// How one queued send ended, reported back to the sending thread.
enum SendOutcome {
    /// The socket accepted the last byte of the frame.
    Sent,
    /// No registered connection for the destination.
    NotConnected,
    /// The connection failed while the frame was pending.
    Io(std::io::ErrorKind),
}

enum Cmd {
    /// Queue an encoded frame for `to`. With `done` set, answer on it
    /// when flushed or failed (the blocking, backpressured path); with
    /// `done` empty the sender already returned and failures surface
    /// through the connection lifecycle instead.
    Send {
        to: PartyId,
        encoded: Vec<u8>,
        done: Option<mpsc::Sender<SendOutcome>>,
    },
    /// Adopt a freshly dialed (hello already written) outbound stream.
    Register { party: PartyId, stream: TcpStream },
    /// Test hook: panic inside the next frame handled for `party`.
    PanicOnNextFrame { party: PartyId },
    /// Stop the loop.
    Shutdown,
}

/// One frame queued on a connection, awaiting its flush watermark.
struct Pending {
    /// Send completes when the connection's flushed byte total reaches
    /// this.
    watermark: u64,
    /// Encoded frame size, charged to stats on completion.
    bytes: u64,
    /// Past this instant an unflushed frame fails the connection (the
    /// event-loop analogue of a blocking write timeout).
    deadline: Instant,
    /// Present only for blocking sends; fast-path frames settle their
    /// stats here but answer no one.
    done: Option<mpsc::Sender<SendOutcome>>,
}

enum CloseReason {
    /// Peer closed or the socket errored during a read.
    Gone,
    /// The byte stream failed frame decoding.
    Corrupt,
    /// Frame handling panicked (isolated to this connection).
    Panicked,
    /// A write failed or a pending frame outlived its deadline.
    WriteFailed(std::io::ErrorKind),
    /// A newer connection registered for the same party.
    Replaced,
    /// No inbound bytes within the idle deadline.
    Idle(u64),
}

struct Conn {
    io: ConnIo,
    party: Option<PartyId>,
    inbound: bool,
    pending: VecDeque<Pending>,
    panic_next: bool,
    close: Option<CloseReason>,
}

enum FrameFlow {
    Continue,
    CloseCorrupt,
    InboxGone,
}

/// Drains complete frames off one connection: handshakes are handled in
/// place, app messages go to the inbox. Runs under `catch_unwind`, so a
/// panic here (including the injected test panic) costs this connection
/// only.
fn drain_frames(
    shared: &Shared,
    inbox_tx: &mpsc::Sender<Envelope>,
    conn: &mut Conn,
) -> (FrameFlow, Option<PartyId>) {
    let mut registered = None;
    loop {
        let encoded = match conn.io.take_frame() {
            Ok(Some(buf)) => buf,
            Ok(None) => return (FrameFlow::Continue, registered),
            Err(()) => {
                telemetry::emit(shared.party, EventKind::FrameRejected { bytes: 4 });
                return (FrameFlow::CloseCorrupt, registered);
            }
        };
        if conn.panic_next {
            conn.panic_next = false;
            panic!("injected connection-handler panic");
        }
        let frame = match Frame::decode(&encoded) {
            Ok(f) => f,
            Err(_) => {
                telemetry::emit(
                    shared.party,
                    EventKind::FrameRejected {
                        bytes: encoded.len() as u64,
                    },
                );
                return (FrameFlow::CloseCorrupt, registered);
            }
        };
        shared
            .stats
            .bytes_received
            .fetch_add(encoded.len() as u64, Ordering::Relaxed);
        shared.stats.frames_received.fetch_add(1, Ordering::Relaxed);
        telemetry::emit(
            shared.party,
            EventKind::FrameRecv {
                from: frame.from,
                bytes: encoded.len() as u64,
            },
        );
        if frame.to != shared.party {
            continue; // misrouted; ignore
        }
        match frame.msg {
            Message::Hello { party } => {
                conn.party = Some(party);
                registered = Some(party);
                shared.connected.insert(party);
                telemetry::emit(
                    shared.party,
                    EventKind::ConnOpen {
                        peer: party,
                        inbound: conn.inbound,
                    },
                );
                let ack = Frame {
                    flags: 0,
                    from: shared.party,
                    to: party,
                    seq: 0,
                    msg: Message::HelloAck {
                        party: shared.party,
                    },
                }
                .encode();
                conn.io.queue(&ack);
                shared
                    .stats
                    .bytes_sent
                    .fetch_add(ack.len() as u64, Ordering::Relaxed);
                shared.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
            }
            Message::HelloAck { .. } => {}
            msg => {
                let env = Envelope {
                    from: frame.from,
                    seq: frame.seq,
                    flags: frame.flags,
                    msg,
                };
                if inbox_tx.send(env).is_err() {
                    return (FrameFlow::InboxGone, registered);
                }
            }
        }
    }
}

struct IoLoop {
    shared: Arc<Shared>,
    cfg: EventLoopConfig,
    listener: TcpListener,
    cmd_rx: mpsc::Receiver<Cmd>,
    inbox_tx: mpsc::Sender<Envelope>,
    io_timeout: Duration,
    conns: Vec<Conn>,
    /// Read end of the loopback wake connection: senders write a byte
    /// here to interrupt a parked `ppoll`. `None` when the wake pair
    /// could not be set up — the loop then falls back to scanning.
    wake: Option<TcpStream>,
    /// Where the last `Cmd::Send` found its connection. A coordinator
    /// broadcast addresses parties in registration order, so starting
    /// the next lookup here makes the scan O(1) amortized.
    send_hint: usize,
    /// Reused across `poll_ready` calls to keep the hot loop
    /// allocation-free.
    poll_fds: Vec<crate::poll::PollFd>,
    poll_map: Vec<usize>,
    ready_pool: Vec<bool>,
}

/// What one `ppoll` wait observed, indexed alongside `IoLoop::conns`.
struct Ready {
    listener: bool,
    wake: bool,
    any: bool,
    /// Per-connection readable/writable bits; connections registered
    /// after the poll (missing entries) are treated as ready.
    conns: Vec<bool>,
}

impl IoLoop {
    fn run(mut self) {
        if let Some(core) = self.cfg.pin_core {
            let _ = pin_current_thread(core);
        }
        if self.listener.set_nonblocking(true).is_err() {
            return;
        }
        let use_ppoll = crate::poll::PPOLL_SUPPORTED && self.wake.is_some();
        let mut backoff = IdleBackoff::new(self.cfg.min_scan_wait, self.cfg.max_scan_wait);
        let mut scratch = read_scratch();
        loop {
            let mut progress = false;
            let mut stop = false;
            // Wait phase: park in `ppoll` over every socket (a queued
            // command writes a wake byte), or — on targets without the
            // raw syscall — sleep on the command channel and scan.
            let mut ready: Option<Ready> = None;
            if use_ppoll {
                self.shared.io_sleeping.store(true, Ordering::SeqCst);
                match self.cmd_rx.try_recv() {
                    Ok(cmd) => {
                        self.shared.io_sleeping.store(false, Ordering::SeqCst);
                        progress = true;
                        stop = self.handle_cmd(cmd);
                    }
                    Err(mpsc::TryRecvError::Empty) => {
                        // Readiness ends this wait instantly, so unlike
                        // the scan fallback there is no latency reason
                        // to wake early: the timeout only paces
                        // housekeeping (deadlines, reaping).
                        let r = self.poll_ready(self.cfg.max_scan_wait);
                        self.shared.io_sleeping.store(false, Ordering::SeqCst);
                        progress |= r.any;
                        ready = Some(r);
                    }
                    Err(mpsc::TryRecvError::Disconnected) => {
                        self.shared.io_sleeping.store(false, Ordering::SeqCst);
                        stop = true;
                    }
                }
            } else {
                match self.cmd_rx.recv_timeout(backoff.next_wait()) {
                    Ok(cmd) => {
                        progress = true;
                        stop = self.handle_cmd(cmd);
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => stop = true,
                }
            }
            if !stop {
                while let Ok(cmd) = self.cmd_rx.try_recv() {
                    progress = true;
                    if self.handle_cmd(cmd) {
                        stop = true;
                        break;
                    }
                }
            }
            if stop || self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            if use_ppoll && ready.is_none() {
                // Commands were handled without a wait; take a zero-
                // timeout readiness snapshot so the sweep still touches
                // only sockets with actual traffic — and so a sustained
                // command stream cannot starve the read path.
                ready = Some(self.poll_ready(Duration::ZERO));
            }
            if ready.as_ref().is_some_and(|r| r.wake) {
                self.drain_wake();
            }
            if ready.as_ref().is_none_or(|r| r.listener) {
                progress |= self.accept_new();
            }
            progress |= self.sweep(&mut scratch, ready.as_ref());
            progress |= self.flush_backlogged();
            if let Some(r) = ready.take() {
                // Recycle the readiness mask for the next poll.
                self.ready_pool = r.conns;
            }
            self.reap_idle();
            self.cleanup();
            let backlog: u64 = self.conns.iter().map(|c| c.io.backlog() as u64).sum();
            self.shared.backlog.store(backlog, Ordering::Relaxed);
            if progress {
                backoff.reset();
            }
        }
        // Linger: fast-path sends complete at queue time, so "send,
        // then drop the endpoint" must still put the queued bytes on
        // the wire. Bounded by the I/O timeout — a peer that stopped
        // draining its socket cannot wedge shutdown.
        let linger_deadline = Instant::now() + self.io_timeout;
        loop {
            let mut remaining = 0u64;
            for idx in 0..self.conns.len() {
                if self.conns[idx].close.is_some() {
                    continue;
                }
                self.flush_conn(idx);
                let conn = &self.conns[idx];
                if conn.close.is_none() {
                    remaining += conn.io.backlog() as u64;
                }
            }
            if remaining == 0 || Instant::now() >= linger_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Shutdown: deregister everything so `connected_parties` empties
        // and blocked senders learn the endpoint is gone.
        for mut conn in std::mem::take(&mut self.conns) {
            if let Some(party) = conn.party {
                self.shared.connected.remove(party);
            }
            for pending in conn.pending.drain(..) {
                if let Some(done) = pending.done {
                    let _ = done.send(SendOutcome::NotConnected);
                }
            }
        }
    }

    /// Returns `true` when the loop must stop.
    fn handle_cmd(&mut self, cmd: Cmd) -> bool {
        match cmd {
            Cmd::Send { to, encoded, done } => {
                match self.find_conn(to) {
                    Some(idx) => {
                        let conn = &mut self.conns[idx];
                        let watermark = conn.io.queue(&encoded);
                        conn.pending.push_back(Pending {
                            watermark,
                            bytes: encoded.len() as u64,
                            deadline: Instant::now() + self.io_timeout,
                            done,
                        });
                    }
                    None => {
                        if let Some(done) = done {
                            let _ = done.send(SendOutcome::NotConnected);
                        }
                    }
                }
                false
            }
            Cmd::Register { party, stream } => {
                if let Ok(io) = ConnIo::new(stream) {
                    for old in self.conns.iter_mut().filter(|c| c.party == Some(party)) {
                        old.close.get_or_insert(CloseReason::Replaced);
                    }
                    self.conns.push(Conn {
                        io,
                        party: Some(party),
                        inbound: false,
                        pending: VecDeque::new(),
                        panic_next: false,
                        close: None,
                    });
                    self.shared.connected.insert(party);
                    telemetry::emit(
                        self.shared.party,
                        EventKind::ConnOpen {
                            peer: party,
                            inbound: false,
                        },
                    );
                }
                false
            }
            Cmd::PanicOnNextFrame { party } => {
                if let Some(conn) = self.conns.iter_mut().find(|c| c.party == Some(party)) {
                    conn.panic_next = true;
                }
                false
            }
            Cmd::Shutdown => true,
        }
    }

    /// Finds the live connection for `to`, starting at (and updating)
    /// the rotating send hint so in-order broadcasts resolve without a
    /// full scan.
    fn find_conn(&mut self, to: PartyId) -> Option<usize> {
        let n = self.conns.len();
        for step in 0..n {
            let idx = (self.send_hint + step) % n;
            let conn = &self.conns[idx];
            if conn.party == Some(to) && conn.close.is_none() {
                self.send_hint = (idx + 1) % n;
                return Some(idx);
            }
        }
        None
    }

    /// Adopts every connection waiting in the accept queue. Inbound
    /// connections stay anonymous until their [`Message::Hello`] lands.
    fn accept_new(&mut self) -> bool {
        let mut progress = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if let Ok(io) = ConnIo::new(stream) {
                        self.conns.push(Conn {
                            io,
                            party: None,
                            inbound: true,
                            pending: VecDeque::new(),
                            panic_next: false,
                            close: None,
                        });
                        progress = true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        progress
    }

    /// Blocks in `ppoll` for up to `timeout` over the listener, the
    /// wake socket and every live connection (write interest only where
    /// a backlog exists). Conservative on syscall failure: everything
    /// is reported ready and the iteration degrades to one full sweep.
    fn poll_ready(&mut self, timeout: Duration) -> Ready {
        use crate::poll::{fd_of, ppoll, PollFd, POLLIN, POLLOUT};
        let mut fds = std::mem::take(&mut self.poll_fds);
        let mut map = std::mem::take(&mut self.poll_map);
        let mut conns_ready = std::mem::take(&mut self.ready_pool);
        fds.clear();
        map.clear();
        fds.push(PollFd::new(fd_of(&self.listener), POLLIN));
        let wake_fd = self.wake.as_ref().map_or(-1, fd_of); // <0: ignored
        fds.push(PollFd::new(wake_fd, POLLIN));
        for (idx, conn) in self.conns.iter().enumerate() {
            if conn.close.is_some() {
                continue;
            }
            let mut interest = POLLIN;
            if conn.io.backlog() > 0 {
                interest |= POLLOUT;
            }
            fds.push(PollFd::new(conn.io.raw_fd(), interest));
            map.push(idx);
        }
        let n = ppoll(&mut fds, timeout);
        conns_ready.clear();
        conns_ready.resize(self.conns.len(), n < 0);
        let ready = if n < 0 {
            Ready {
                listener: true,
                wake: true,
                any: true,
                conns: conns_ready,
            }
        } else {
            for (slot, &idx) in map.iter().enumerate() {
                if fds[2 + slot].revents != 0 {
                    conns_ready[idx] = true;
                }
            }
            Ready {
                listener: fds[0].revents != 0,
                wake: fds[1].revents != 0,
                any: n > 0,
                conns: conns_ready,
            }
        };
        self.poll_fds = fds;
        self.poll_map = map;
        ready
    }

    /// Empties the wake socket (each queued command may have written a
    /// nudge byte). EOF means the endpoint handle is gone — shutdown is
    /// already in flight.
    fn drain_wake(&mut self) {
        let Some(wake) = &mut self.wake else { return };
        let mut buf = [0u8; 64];
        loop {
            match Read::read(wake, &mut buf) {
                Ok(0) => {
                    self.wake = None;
                    return;
                }
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.wake = None;
                    return;
                }
            }
        }
    }

    /// Flushes every connection with parked bytes — freshly queued
    /// sends and `POLLOUT`-ready sockets alike — settling watermarks.
    fn flush_backlogged(&mut self) -> bool {
        let mut progress = false;
        for idx in 0..self.conns.len() {
            if self.conns[idx].close.is_none() && self.conns[idx].io.backlog() > 0 {
                progress |= self.flush_conn(idx);
            }
        }
        progress
    }

    /// One readiness pass: read every connection (only the ready ones
    /// when a poll result is supplied), handle its frames
    /// (panic-isolated), flush its write buffer, complete or expire its
    /// pending sends.
    fn sweep(&mut self, scratch: &mut [u8; 64 * 1024], ready: Option<&Ready>) -> bool {
        let mut progress = false;
        let mut registrations: Vec<(usize, PartyId)> = Vec::new();
        for idx in 0..self.conns.len() {
            // Connections registered after the poll snapshot (index
            // beyond the mask) are swept unconditionally.
            if ready.is_some_and(|r| !r.conns.get(idx).copied().unwrap_or(true)) {
                continue;
            }
            let shared = Arc::clone(&self.shared);
            let inbox_tx = self.inbox_tx.clone();
            let conn = &mut self.conns[idx];
            if conn.close.is_some() {
                continue;
            }
            match conn.io.read_sweep(scratch) {
                ReadSweep::Progress => progress = true,
                ReadSweep::Idle => {}
                ReadSweep::Closed => {
                    conn.close = Some(CloseReason::Gone);
                }
            }
            // Drain whatever full frames arrived (even on a connection
            // that just hit EOF — its final bytes are still valid).
            let drained = catch_unwind(AssertUnwindSafe(|| drain_frames(&shared, &inbox_tx, conn)));
            match drained {
                Ok((flow, registered)) => {
                    if let Some(party) = registered {
                        registrations.push((idx, party));
                    }
                    match flow {
                        FrameFlow::Continue => {}
                        FrameFlow::CloseCorrupt => {
                            conn.close.get_or_insert(CloseReason::Corrupt);
                        }
                        FrameFlow::InboxGone => {
                            // The endpoint was dropped; stop everything.
                            self.shared.shutdown.store(true, Ordering::Release);
                            return progress;
                        }
                    }
                }
                Err(_) => {
                    conn.close = Some(CloseReason::Panicked);
                }
            }
            if conn.close.is_none() {
                progress |= self.flush_conn(idx);
            }
        }
        // A party that announced itself on a new connection replaces any
        // older connection registered under the same id.
        for (keep_idx, party) in registrations {
            for (idx, old) in self.conns.iter_mut().enumerate() {
                if idx != keep_idx && old.party == Some(party) {
                    old.close.get_or_insert(CloseReason::Replaced);
                }
            }
        }
        progress
    }

    /// Flushes one connection and settles its pending sends. Returns
    /// whether bytes moved.
    fn flush_conn(&mut self, idx: usize) -> bool {
        let conn = &mut self.conns[idx];
        let before = conn.io.flushed_total();
        if let Err(e) = conn.io.flush() {
            conn.close = Some(CloseReason::WriteFailed(e.kind()));
            return false;
        }
        let flushed = conn.io.flushed_total();
        while let Some(front) = conn.pending.front() {
            if front.watermark > flushed {
                break;
            }
            let settled = conn.pending.pop_front().expect("front exists");
            self.shared
                .stats
                .bytes_sent
                .fetch_add(settled.bytes, Ordering::Relaxed);
            self.shared
                .stats
                .frames_sent
                .fetch_add(1, Ordering::Relaxed);
            if let Some(done) = settled.done {
                let _ = done.send(SendOutcome::Sent);
            }
        }
        if let Some(front) = conn.pending.front() {
            if conn.io.backlog() > 0 && Instant::now() > front.deadline {
                // The peer stopped draining its socket: the event-loop
                // analogue of a blocking write timing out.
                conn.close = Some(CloseReason::WriteFailed(std::io::ErrorKind::TimedOut));
            }
        }
        flushed > before
    }

    /// Closes connections whose peers have produced no bytes within the
    /// idle deadline, so a half-open peer cannot hold its connection
    /// open forever.
    fn reap_idle(&mut self) {
        let now = Instant::now();
        for conn in &mut self.conns {
            if conn.close.is_none() {
                let idle = now.saturating_duration_since(conn.io.last_rx);
                if idle > self.cfg.idle_timeout {
                    conn.close = Some(CloseReason::Idle(idle.as_millis() as u64));
                }
            }
        }
    }

    /// Removes every connection marked for close: fails its pending
    /// sends, deregisters its party, emits the lifecycle event.
    fn cleanup(&mut self) {
        if self.conns.iter().all(|c| c.close.is_none()) {
            return;
        }
        let mut kept = Vec::with_capacity(self.conns.len());
        let mut closing = Vec::new();
        for conn in std::mem::take(&mut self.conns) {
            if conn.close.is_some() {
                closing.push(conn);
            } else {
                kept.push(conn);
            }
        }
        self.conns = kept;
        for mut conn in closing {
            let reason = conn.close.take().expect("marked for close");
            let outcome_kind = match &reason {
                CloseReason::WriteFailed(kind) => Some(*kind),
                _ => None,
            };
            for pending in conn.pending.drain(..) {
                if let Some(done) = pending.done {
                    let _ = done.send(match outcome_kind {
                        Some(kind) => SendOutcome::Io(kind),
                        None => SendOutcome::NotConnected,
                    });
                }
            }
            if let Some(party) = conn.party {
                // Deregister only if no newer connection owns the id.
                if !self.conns.iter().any(|c| c.party == Some(party)) {
                    self.shared.connected.remove(party);
                }
            }
            let peer = conn.party.unwrap_or(telemetry::NO_PARTY);
            match reason {
                CloseReason::Idle(idle_ms) => {
                    telemetry::emit(self.shared.party, EventKind::ConnReaped { peer, idle_ms });
                }
                _ => {
                    telemetry::emit(self.shared.party, EventKind::ConnClose { peer });
                }
            }
        }
    }
}

/// The event-driven TCP endpoint: Hello/HelloAck handshake on dial-in,
/// lazy dialing with reconnection, O(1) threads regardless of peer
/// count. See the module docs.
pub struct EventTransport {
    shared: Arc<Shared>,
    inbox: mpsc::Receiver<Envelope>,
    cmd_tx: mpsc::Sender<Cmd>,
    peers: HashMap<PartyId, SocketAddr>,
    next_seq: HashMap<PartyId, u64>,
    retry: RetryPolicy,
    io_timeout: Duration,
    local_addr: SocketAddr,
    /// Write end of the loopback wake connection ([`IoLoop::wake`]).
    wake_tx: Option<TcpStream>,
    io_thread: Option<std::thread::JoinHandle<()>>,
}

impl EventTransport {
    /// Binds `party`'s endpoint on `addr` with default
    /// [`EventLoopConfig`]. `peers` are dialed lazily on first send
    /// under the `retry` schedule; `io_timeout` bounds every blocking
    /// socket operation.
    pub fn bind(
        party: PartyId,
        addr: SocketAddr,
        peers: HashMap<PartyId, SocketAddr>,
        retry: RetryPolicy,
        io_timeout: Duration,
    ) -> Result<Self, TransportError> {
        Self::bind_with(
            party,
            addr,
            peers,
            retry,
            io_timeout,
            EventLoopConfig::default(),
        )
    }

    /// [`EventTransport::bind`] with explicit loop tuning.
    pub fn bind_with(
        party: PartyId,
        addr: SocketAddr,
        peers: HashMap<PartyId, SocketAddr>,
        retry: RetryPolicy,
        io_timeout: Duration,
        cfg: EventLoopConfig,
    ) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Wake channel: a loopback self-connection the loop polls
        // alongside peer sockets, so a queued command interrupts a
        // parked `ppoll` instantly. Failure is non-fatal — the loop
        // then sleeps on the command channel and scans instead.
        let mut early: Vec<TcpStream> = Vec::new();
        let wake_pair: Option<(TcpStream, TcpStream)> = if crate::poll::PPOLL_SUPPORTED {
            (|| -> std::io::Result<(TcpStream, TcpStream)> {
                let tx = TcpStream::connect_timeout(&local_addr, Duration::from_secs(1))?;
                tx.set_nonblocking(true)?;
                let me = tx.local_addr()?;
                // The connect above completed its handshake, so our own
                // end already sits in the accept queue — at worst behind
                // a few real peers that raced in on a well-known port;
                // adopt those as ordinary inbound connections.
                for _ in 0..64 {
                    let (rx, peer) = listener.accept()?;
                    if peer == me {
                        rx.set_nonblocking(true)?;
                        return Ok((tx, rx));
                    }
                    early.push(rx);
                }
                Err(std::io::Error::other(
                    "wake connection lost in accept queue",
                ))
            })()
            .ok()
        } else {
            None
        };
        let (wake_tx, wake_rx) = match wake_pair {
            Some((tx, rx)) => (Some(tx), Some(rx)),
            None => (None, None),
        };
        let conns: Vec<Conn> = early
            .into_iter()
            .filter_map(|s| ConnIo::new(s).ok())
            .map(|io| Conn {
                io,
                party: None,
                inbound: true,
                pending: VecDeque::new(),
                panic_next: false,
                close: None,
            })
            .collect();
        let (inbox_tx, inbox) = mpsc::channel();
        let (cmd_tx, cmd_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            party,
            connected: ShardedSet::new(cfg.shards),
            stats: AtomicStats::default(),
            shutdown: AtomicBool::new(false),
            backlog: AtomicU64::new(0),
            io_sleeping: AtomicBool::new(false),
        });
        let io_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ppml-io-{party}"))
                .spawn(move || {
                    IoLoop {
                        shared,
                        cfg,
                        listener,
                        cmd_rx,
                        inbox_tx,
                        io_timeout,
                        conns,
                        wake: wake_rx,
                        send_hint: 0,
                        poll_fds: Vec::new(),
                        poll_map: Vec::new(),
                        ready_pool: Vec::new(),
                    }
                    .run()
                })
                .map_err(TransportError::Io)?
        };
        Ok(EventTransport {
            shared,
            inbox,
            cmd_tx,
            peers,
            next_seq: HashMap::new(),
            retry,
            io_timeout,
            local_addr,
            wake_tx,
            io_thread: Some(io_thread),
        })
    }

    /// The address this endpoint is actually listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Parties with a registered live connection (dialed out or dialed
    /// in and hello-handshaken), sorted.
    pub fn connected_parties(&self) -> Vec<PartyId> {
        self.shared.connected.snapshot()
    }

    /// Wakes a parked I/O loop after pushing a command. Skipped (and
    /// free) while the loop is awake; a full or dead wake socket is
    /// also fine — the loop is then guaranteed to drain the queue on
    /// its own.
    fn nudge(&self) {
        if self.shared.io_sleeping.load(Ordering::SeqCst) {
            if let Some(wake) = &self.wake_tx {
                let _ = (&*wake).write(&[1]);
            }
        }
    }

    /// Test hook: the I/O loop panics inside the next frame handled for
    /// `party`, which must close only that connection.
    #[doc(hidden)]
    pub fn debug_panic_on_next_frame(&self, party: PartyId) {
        let _ = self.cmd_tx.send(Cmd::PanicOnNextFrame { party });
        self.nudge();
    }

    /// Dials `to`, writes the hello (blocking, bounded by `io_timeout`)
    /// and hands the stream to the I/O loop. Command-channel FIFO
    /// guarantees the registration lands before any send this thread
    /// queues afterwards.
    fn dial(&self, to: PartyId, addr: SocketAddr) -> Result<(), TransportError> {
        let stream = TcpStream::connect_timeout(&addr, self.io_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        let hello = Frame {
            flags: 0,
            from: self.shared.party,
            to,
            seq: 0,
            msg: Message::Hello {
                party: self.shared.party,
            },
        }
        .encode();
        (&stream).write_all(&hello)?;
        self.shared
            .stats
            .bytes_sent
            .fetch_add(hello.len() as u64, Ordering::Relaxed);
        self.shared
            .stats
            .frames_sent
            .fetch_add(1, Ordering::Relaxed);
        self.cmd_tx
            .send(Cmd::Register { party: to, stream })
            .map_err(|_| TransportError::Closed)?;
        self.nudge();
        Ok(())
    }
}

impl Transport for EventTransport {
    fn party(&self) -> PartyId {
        self.shared.party
    }

    fn next_seq(&mut self, to: PartyId) -> u64 {
        let slot = self.next_seq.entry(to).or_insert(0);
        *slot += 1;
        *slot
    }

    fn send_raw(
        &mut self,
        to: PartyId,
        msg: &Message,
        seq: u64,
        flags: u16,
    ) -> Result<usize, TransportError> {
        // `Option` so the fast path below can hand the buffer to the
        // loop without a copy: every branch past the `take` returns.
        let mut encoded = Some(
            Frame {
                flags,
                from: self.shared.party,
                to,
                seq,
                msg: msg.clone(),
            }
            .encode(),
        );
        let len = encoded.as_ref().map_or(0, Vec::len);
        let mut last_err: Option<TransportError> = None;
        for attempt in 0..self.retry.max_attempts {
            if attempt > 0 {
                self.shared.stats.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.retry.backoff(attempt - 1));
            }
            if !self.shared.connected.contains(to) {
                match self.peers.get(&to) {
                    Some(&addr) => {
                        if let Err(e) = self.dial(to, addr) {
                            last_err = Some(e);
                            continue;
                        }
                    }
                    // We cannot dial this party; it must dial us. Give
                    // the handshake time to land before retrying.
                    None => {
                        std::thread::sleep(self.retry.backoff(attempt));
                        if !self.shared.connected.contains(to) {
                            last_err = Some(TransportError::Unreachable(to));
                            continue;
                        }
                    }
                }
            }
            // Fast path: below the high-water mark the frame is handed
            // to the loop and the send is complete — no thread
            // round-trip. A frame lost to a connection dying in flight
            // is indistinguishable from one lost on the wire just after
            // a blocking write returned, and the same recovery applies:
            // the courier retransmits, later sends see `NotConnected`,
            // and the receive-side deadlines still bound every wait.
            if self.shared.backlog.load(Ordering::Relaxed) < SEND_HIGH_WATER {
                if self
                    .cmd_tx
                    .send(Cmd::Send {
                        to,
                        encoded: encoded.take().expect("fast path always returns"),
                        done: None,
                    })
                    .is_err()
                {
                    return Err(TransportError::Closed);
                }
                self.nudge();
                telemetry::emit(
                    self.shared.party,
                    EventKind::FrameSent {
                        to,
                        bytes: len as u64,
                        retransmit: flags & crate::frame::FLAG_RETRANSMIT != 0,
                    },
                );
                return Ok(len);
            }
            // Backpressured: block on the flush watermark so a peer that
            // stops draining its socket pushes back on the sender (and
            // eventually fails the connection via the write deadline).
            let (done_tx, done_rx) = mpsc::channel();
            let bytes = encoded.clone().expect("taken only on the fast path");
            if self
                .cmd_tx
                .send(Cmd::Send {
                    to,
                    encoded: bytes,
                    done: Some(done_tx),
                })
                .is_err()
            {
                return Err(TransportError::Closed);
            }
            self.nudge();
            // The loop always answers first: its per-frame deadline is
            // `io_timeout` and its scan tick is bounded by
            // `max_scan_wait`, both well inside this wait.
            match done_rx.recv_timeout(self.io_timeout + Duration::from_secs(1)) {
                Ok(SendOutcome::Sent) => {
                    telemetry::emit(
                        self.shared.party,
                        EventKind::FrameSent {
                            to,
                            bytes: len as u64,
                            retransmit: flags & crate::frame::FLAG_RETRANSMIT != 0,
                        },
                    );
                    return Ok(len);
                }
                Ok(SendOutcome::NotConnected) => {
                    last_err = Some(TransportError::Unreachable(to));
                }
                Ok(SendOutcome::Io(kind)) => {
                    last_err = Some(TransportError::Io(std::io::Error::from(kind)));
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    last_err = Some(TransportError::Io(std::io::Error::from(
                        std::io::ErrorKind::TimedOut,
                    )));
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(TransportError::Closed);
                }
            }
        }
        telemetry::emit(
            self.shared.party,
            EventKind::SendTimeout {
                to,
                attempts: self.retry.max_attempts,
            },
        );
        Err(last_err.unwrap_or(TransportError::Unreachable(to)))
    }

    fn recv(&mut self, timeout: Duration) -> Result<Envelope, TransportError> {
        match self.inbox.recv_timeout(timeout) {
            Ok(env) => Ok(env),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn stats(&self) -> LinkStats {
        let s = &self.shared.stats;
        LinkStats {
            frames_sent: s.frames_sent.load(Ordering::Relaxed),
            frames_received: s.frames_received.load(Ordering::Relaxed),
            bytes_sent: s.bytes_sent.load(Ordering::Relaxed),
            bytes_received: s.bytes_received.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
        }
    }
}

impl Drop for EventTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let _ = self.cmd_tx.send(Cmd::Shutdown);
        self.nudge();
        if let Some(handle) = self.io_thread.take() {
            // The loop wakes at least every `max_scan_wait`, so this
            // join is bounded by milliseconds.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::courier::Courier;

    fn loopback_addr() -> SocketAddr {
        "127.0.0.1:0".parse().expect("addr")
    }

    fn bind(party: PartyId, peers: HashMap<PartyId, SocketAddr>) -> EventTransport {
        EventTransport::bind(
            party,
            loopback_addr(),
            peers,
            RetryPolicy::fast_local(),
            Duration::from_secs(2),
        )
        .expect("bind")
    }

    #[test]
    fn dial_in_and_reply_on_same_socket() {
        let mut server = bind(0, HashMap::new());
        let mut client = bind(1, HashMap::from([(0, server.local_addr())]));
        client
            .send(0, &Message::Heartbeat { nonce: 11 })
            .expect("client send");
        let env = server.recv(Duration::from_secs(5)).expect("server recv");
        assert_eq!(env.from, 1);
        assert_eq!(env.msg, Message::Heartbeat { nonce: 11 });
        // The server replies without knowing the client's address.
        server
            .send(1, &Message::Heartbeat { nonce: 22 })
            .expect("server send");
        let env = client.recv(Duration::from_secs(5)).expect("client recv");
        assert_eq!(env.from, 0);
        assert_eq!(env.msg, Message::Heartbeat { nonce: 22 });
    }

    #[test]
    fn unreachable_peer_fails_after_bounded_retries() {
        let mut lone = bind(3, HashMap::new());
        let err = lone.send(9, &Message::Shutdown).unwrap_err();
        assert!(matches!(err, TransportError::Unreachable(9)));
    }

    #[test]
    fn courier_over_event_loop_round_trips() {
        let server = bind(0, HashMap::new());
        let server_addr = server.local_addr();
        let client = bind(1, HashMap::from([(0, server_addr)]));
        let mut sc = Courier::new(server, RetryPolicy::tcp_default());
        let mut cc = Courier::new(client, RetryPolicy::tcp_default());
        let h = std::thread::spawn(move || {
            let env = sc.recv(Duration::from_secs(5)).expect("server recv");
            (env, sc)
        });
        cc.send_reliable(
            0,
            &Message::MaskedShare {
                iteration: 1,
                epoch: 0,
                party: 1,
                payload: vec![1, 2, 3],
            },
        )
        .expect("reliable send");
        let (env, _sc) = h.join().unwrap();
        assert_eq!(
            env.msg,
            Message::MaskedShare {
                iteration: 1,
                epoch: 0,
                party: 1,
                payload: vec![1, 2, 3],
            }
        );
    }

    #[test]
    fn reconnects_after_peer_restart() {
        let mut server = bind(0, HashMap::new());
        let server_addr = server.local_addr();
        let mut client = bind(1, HashMap::from([(0, server_addr)]));
        client.send(0, &Message::Heartbeat { nonce: 1 }).unwrap();
        assert_eq!(
            server.recv(Duration::from_secs(5)).unwrap().msg,
            Message::Heartbeat { nonce: 1 }
        );
        let port_addr = server.local_addr();
        drop(server);
        std::thread::sleep(Duration::from_millis(50));
        let mut server = EventTransport::bind(
            0,
            port_addr,
            HashMap::new(),
            RetryPolicy::fast_local(),
            Duration::from_secs(2),
        )
        .expect("rebind");
        let mut delivered = false;
        for nonce in 2..6 {
            if client.send(0, &Message::Heartbeat { nonce }).is_ok()
                && server.recv(Duration::from_secs(2)).is_ok()
            {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "client never reconnected");
    }

    #[test]
    fn half_open_peer_is_reaped_on_the_idle_deadline() {
        // A raw socket that handshakes then stalls without closing: the
        // event loop must reap it.
        let cfg = EventLoopConfig {
            idle_timeout: Duration::from_millis(150),
            ..EventLoopConfig::default()
        };
        let server = EventTransport::bind_with(
            0,
            loopback_addr(),
            HashMap::new(),
            RetryPolicy::fast_local(),
            Duration::from_secs(2),
            cfg,
        )
        .expect("bind");
        let stalled = TcpStream::connect(server.local_addr()).expect("connect");
        let hello = Frame {
            flags: 0,
            from: 7,
            to: 0,
            seq: 0,
            msg: Message::Hello { party: 7 },
        }
        .encode();
        (&stalled).write_all(&hello).expect("hello");
        // The handshake registers the peer...
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.connected_parties() != vec![7] {
            assert!(Instant::now() < deadline, "peer 7 never registered");
            std::thread::sleep(Duration::from_millis(5));
        }
        // ...and total silence afterwards reaps it. The socket is kept
        // open on our side the whole time: this is idle-reaping, not EOF.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !server.connected_parties().is_empty() {
            assert!(Instant::now() < deadline, "stalled peer never reaped");
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(stalled);
    }

    #[test]
    fn panicked_connection_handler_leaves_other_peers_sendable() {
        let mut server = bind(0, HashMap::new());
        let addr = server.local_addr();
        let mut doomed = bind(1, HashMap::from([(0, addr)]));
        let mut healthy = bind(2, HashMap::from([(0, addr)]));
        doomed.send(0, &Message::Heartbeat { nonce: 1 }).unwrap();
        healthy.send(0, &Message::Heartbeat { nonce: 2 }).unwrap();
        for _ in 0..2 {
            server.recv(Duration::from_secs(5)).expect("announce");
        }
        // Arm the panic and trigger it with traffic from the doomed peer.
        server.debug_panic_on_next_frame(1);
        let _ = doomed.send(0, &Message::Heartbeat { nonce: 3 });
        // The panic closes peer 1's connection only: the server still
        // serves peer 2 in both directions.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.connected_parties().contains(&1) {
            assert!(Instant::now() < deadline, "panicked conn never closed");
            std::thread::sleep(Duration::from_millis(5));
        }
        healthy.send(0, &Message::Heartbeat { nonce: 4 }).unwrap();
        let env = server.recv(Duration::from_secs(5)).expect("healthy recv");
        assert_eq!(env.from, 2);
        server.send(2, &Message::Heartbeat { nonce: 5 }).unwrap();
        let env = healthy.recv(Duration::from_secs(5)).expect("healthy reply");
        assert_eq!(env.from, 0);
    }
}
