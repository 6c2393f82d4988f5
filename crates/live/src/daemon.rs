//! `rftpd` — the persistent multi-session transfer daemon.
//!
//! The one-shot `--listen` sink serves exactly one source and exits;
//! real deployments of the paper's middleware run a *daemon*: one
//! registered buffer pool, many concurrent sessions, follow-on jobs
//! reusing the warm listener. This module is that daemon:
//!
//! * **One accept loop, N sessions.** A nonblocking accept loop feeds
//!   every incoming socket to a shared [`StreamAssembler`]; the hello
//!   token groups each source's control + data connections into a
//!   session, interleaved arbitrarily with other sources' connections.
//! * **Shared pool arena.** All slot buffers are allocated (and, on the
//!   io_uring backend, registered) once at startup; each admitted
//!   session gets an all-or-nothing [`SlotArena`] lease and runs the
//!   ordinary sink protocol over the borrowed view — wire slot `i` is
//!   `lease[i]`, so per-session wire bytes are unchanged.
//! * **Admission control.** A session the daemon cannot serve *right
//!   now* gets a typed [`CtrlMsg::SessionBusy`] with a retry hint —
//!   never a hang; a session it can never serve (block too large for
//!   the arena's slots, too many channels) gets a typed
//!   [`CtrlMsg::SessionReject`].
//! * **Weighted-fair credits.** Grants across sessions go through one
//!   [`WeightedFair`] arbiter, so a bulk transfer cannot starve an
//!   interactive one (small jobs get a higher weight).
//! * **Graceful drain.** SIGTERM (or [`DaemonHandle::shutdown`]) stops
//!   admissions, lets in-flight sessions finish inside a bounded
//!   deadline, then aborts stragglers; slot accounting is asserted at
//!   exit — a drained daemon has every arena slot back.

use crate::net::{
    read_one_ctrl_frame, shutdown_all, sink_transport_from_streams, SessionStreams,
    StreamAssembler, HELLO_TIMEOUT,
};
use crate::pipeline::{LiveConfig, LiveReport};
#[cfg(target_os = "linux")]
use crate::shm::ShmSessionStreams;
#[cfg(target_os = "linux")]
use crate::shm::{sink_transport_for_window, SessionWindow, ShmAssembler};
use crate::split::run_sink_session;
use crate::store::SlotBuf;
use crate::transport::UringStats;
use crate::uring::{run_shared_uring_session, spawn_shared_uring_driver, UringHub};
use parking_lot::Mutex;
use rftp_core::wire::{encode_stream_frame, reject_reason, CTRL_SLOT_LEN, FRAME_PREFIX_LEN};
use rftp_core::{CtrlMsg, SlotArena, WeightedFair};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(target_os = "linux")]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Which sink backend each admitted session runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonTransport {
    Tcp,
    Uring,
}

/// Daemon-side knobs. Geometry (block size, channels, total bytes) is
/// per-session and comes from each source's `SessionRequest`; these are
/// the *shared* resources the sessions contend for.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    pub transport: DaemonTransport,
    /// Largest admissible per-session block size; every arena slot is
    /// allocated at this size and a session's blocks live in the prefix.
    pub slot_cap: usize,
    /// Total slots in the shared arena.
    pub arena_slots: u32,
    /// Target pool size per session (clamped down for small jobs).
    pub session_slots: u32,
    /// Concurrent admitted sessions beyond which admission replies busy.
    pub max_sessions: usize,
    /// Largest per-session channel count admission accepts; beyond it
    /// the request is a typed reject. Every admitted channel costs the
    /// sink a reader thread, so this caps what two cheap connections
    /// (the shm hello pair especially — TCP at least pays one socket
    /// per channel) can make the daemon spawn.
    pub max_channels: usize,
    /// Global outstanding-credit budget for the weighted-fair arbiter.
    pub credit_budget: u32,
    /// Jobs of at most this many bytes count as interactive …
    pub interactive_cutoff: u64,
    /// … and get this weight (bulk jobs get weight 1).
    pub interactive_weight: u32,
    /// Retry hint carried in `SessionBusy` replies.
    pub retry_after_ms: u32,
    /// How long a drain waits for in-flight sessions before aborting
    /// the stragglers.
    pub drain_deadline: Duration,
    /// Data socket buffer sizing (0 = OS default).
    pub sockbuf: usize,
    /// When set, session `n`'s payload is written to
    /// `<dst_dir>/session-<n>.dat`; otherwise payloads are
    /// pattern-verified and discarded.
    pub dst_dir: Option<PathBuf>,
    /// When set (Linux only), the daemon also accepts *shared-memory*
    /// sessions at this unix socket path (created owner-only): each
    /// admitted shm session gets its **own** memfd window sized to its
    /// lease (fd shipped over `SCM_RIGHTS`), and placement is the
    /// source's own write — zero receiver copies. The arena lease the
    /// session holds is the admission/fairness currency, so shm, TCP
    /// and uring sessions contend for the one arena exactly as before,
    /// while no tenant ever maps another tenant's memory.
    pub shm_path: Option<PathBuf>,
    /// WAN impairment shim + adaptive controller for TCP sessions: each
    /// admitted session's inbound (data) direction runs through the
    /// emulated path and its sink brain adapts dwell/depth to the
    /// measured RTT. Uring sessions reject the flag (their receive path
    /// bypasses the shim); shm sessions ignore it (no socket to impair).
    pub wan: Option<rftp_faults::WanProfile>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            transport: DaemonTransport::Tcp,
            slot_cap: 256 * 1024,
            arena_slots: 64,
            session_slots: 16,
            max_sessions: 8,
            max_channels: 64,
            credit_budget: 64,
            interactive_cutoff: 4 * 1024 * 1024,
            interactive_weight: 4,
            retry_after_ms: 50,
            drain_deadline: Duration::from_secs(10),
            sockbuf: 0,
            dst_dir: None,
            shm_path: None,
            wan: None,
        }
    }
}

/// Outcome of one served (admitted) session.
#[derive(Debug)]
pub struct SessionSummary {
    /// Order of admission (also the `session-<n>.dat` index).
    pub index: u64,
    pub token: u64,
    /// `Ok` carries the session's transfer report; `Err` is the I/O
    /// error that ended it (a crashed source lands here — its neighbors
    /// don't).
    pub result: io::Result<LiveReport>,
}

/// What the daemon did over its lifetime, returned from [`Daemon::run`]
/// after the drain completes.
#[derive(Debug, Default)]
pub struct DaemonReport {
    /// Sessions admitted (= `sessions.len()`).
    pub served: u64,
    /// Admitted sessions that completed their dataset cleanly.
    pub completed: u64,
    /// Admitted sessions that ended in an error (crashed peer, …).
    pub failed: u64,
    /// Sessions turned away with `SessionBusy`.
    pub rejected_busy: u64,
    /// Sessions turned away with `SessionReject` (impossible geometry).
    pub rejected_geometry: u64,
    /// Connection sets dropped before admission (bad hello, protocol
    /// violation, peer died during negotiation).
    pub dropped_preadmission: u64,
    /// Shared uring driver counters, when the daemon ran one (uring
    /// transport): every admitted session's data path went through this
    /// one ring.
    pub uring: Option<UringStats>,
    /// Admitted sessions that ran the shared-memory transport (subset
    /// of `served`; only possible with [`DaemonConfig::shm_path`] set).
    pub shm_sessions: u64,
    pub sessions: Vec<SessionSummary>,
}

/// Cloneable remote control for a running daemon: tests and signal
/// handlers use it to start the drain.
#[derive(Clone)]
pub struct DaemonHandle {
    stop: Arc<AtomicBool>,
}

impl DaemonHandle {
    /// Begin a graceful drain: stop admitting, finish in-flight
    /// sessions, return from [`Daemon::run`].
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
    }

    pub fn is_shutdown(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// The SIGTERM hook targets whichever handle was installed last; the
/// handler itself only does an atomic store (async-signal-safe).
static SIGNAL_TARGET: OnceLock<Mutex<Option<DaemonHandle>>> = OnceLock::new();

fn signal_target() -> &'static Mutex<Option<DaemonHandle>> {
    SIGNAL_TARGET.get_or_init(|| Mutex::new(None))
}

extern "C" fn on_sigterm(_sig: i32) {
    // Only atomics in here: no allocation, no locks… except the
    // parking_lot try_lock below, which never blocks. A lost wakeup
    // (lock held at signal time) is acceptable for a drain signal —
    // the operator's next SIGTERM lands.
    if let Some(Some(h)) = signal_target().try_lock().map(|g| g.clone()) {
        h.stop.store(true, Ordering::Release);
    }
}

/// Route SIGTERM to this daemon handle: the default disposition kills
/// the process mid-transfer; with the hook installed, SIGTERM starts
/// the graceful drain instead. No-op off Unix.
pub fn install_sigterm_hook(h: &DaemonHandle) {
    *signal_target().lock() = Some(h.clone());
    #[cfg(unix)]
    {
        // `signal(2)` from the platform libc (std links it already;
        // same precedent as the raw `setsockopt` in `net.rs`). glibc's
        // signal() installs BSD semantics: SA_RESTART, handler stays.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
        }
    }
}

/// Read timeout for the opening `SessionRequest` of an assembled
/// connection set: a source that completes hellos and then goes silent
/// is dropped, it cannot wedge admission.
const NEGOTIATE_TIMEOUT: Duration = HELLO_TIMEOUT;

/// Accept-loop poll interval while the listener is idle.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

struct Tally {
    completed: u64,
    failed: u64,
    rejected_busy: u64,
    rejected_geometry: u64,
    dropped_preadmission: u64,
    shm_sessions: u64,
    sessions: Vec<SessionSummary>,
}

/// Sockets an in-flight session can be cut loose by when the drain
/// deadline passes: a TCP session's control + data streams, or an shm
/// session's control + notify pair.
enum AbortSet {
    Tcp(Vec<TcpStream>),
    #[cfg(target_os = "linux")]
    Unix(Vec<UnixStream>),
}

impl AbortSet {
    fn cut(&self) {
        match self {
            AbortSet::Tcp(socks) => shutdown_all(socks, Shutdown::Both),
            #[cfg(target_os = "linux")]
            AbortSet::Unix(socks) => {
                for s in socks {
                    let _ = s.shutdown(Shutdown::Both);
                }
            }
        }
    }
}

/// Shared state of a running daemon, borrowed by every session thread.
struct DaemonState {
    cfg: DaemonConfig,
    /// The one slot arena; a session's lease indexes into it.
    slots: Vec<Mutex<SlotBuf>>,
    arena: SlotArena,
    fair: WeightedFair,
    stop: Arc<AtomicBool>,
    active: AtomicUsize,
    admitted_seq: AtomicU64,
    /// Abort hooks for in-flight sessions (token → socket shutdown),
    /// fired on the stragglers when the drain deadline passes.
    aborts: Mutex<Vec<(u64, AbortSet)>>,
    tally: Mutex<Tally>,
}

/// The daemon's shm accept socket; the path is unlinked on drop (and
/// any stale previous path at bind) so a crashed daemon's leftover
/// socket file does not shadow the next run.
#[cfg(target_os = "linux")]
struct ShmEndpoint {
    listener: UnixListener,
    path: PathBuf,
}

#[cfg(target_os = "linux")]
impl Drop for ShmEndpoint {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A bound, not-yet-running daemon. [`Daemon::run`] consumes it and
/// blocks until a drain completes.
pub struct Daemon {
    listener: TcpListener,
    #[cfg(target_os = "linux")]
    shm: Option<ShmEndpoint>,
    state: DaemonState,
}

impl Daemon {
    pub fn bind(addr: impl ToSocketAddrs, cfg: DaemonConfig) -> io::Result<Daemon> {
        assert!(cfg.slot_cap > 0 && cfg.arena_slots > 0 && cfg.session_slots > 0);
        assert!(cfg.max_sessions > 0 && cfg.max_channels > 0);
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        #[cfg(not(target_os = "linux"))]
        if cfg.shm_path.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "shm endpoint requires Linux (memfd + SCM_RIGHTS)",
            ));
        }
        if cfg.wan.is_some() && matches!(cfg.transport, DaemonTransport::Uring) {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "WAN emulation requires the tcp transport (the uring receive path \
                 bypasses the impairment shim)",
            ));
        }
        // The shm endpoint is just another way in: each admitted shm
        // session gets its own memfd window at admission time, so the
        // arena slots here stay ordinary process-private buffers for
        // every transport. The socket is owner-only — admission is
        // limited to the daemon's uid.
        #[cfg(target_os = "linux")]
        let shm = match &cfg.shm_path {
            Some(p) => {
                if p.exists() {
                    std::fs::remove_file(p)?;
                }
                let ul = UnixListener::bind(p)?;
                ul.set_nonblocking(true)?;
                {
                    use std::os::unix::fs::PermissionsExt;
                    std::fs::set_permissions(p, std::fs::Permissions::from_mode(0o600))?;
                }
                Some(ShmEndpoint {
                    listener: ul,
                    path: p.clone(),
                })
            }
            None => None,
        };
        let slots: Vec<Mutex<SlotBuf>> = (0..cfg.arena_slots)
            .map(|_| Mutex::new(SlotBuf::new(cfg.slot_cap)))
            .collect();
        let arena = SlotArena::new(cfg.arena_slots);
        let fair = WeightedFair::new(cfg.credit_budget);
        Ok(Daemon {
            listener,
            #[cfg(target_os = "linux")]
            shm,
            state: DaemonState {
                cfg,
                slots,
                arena,
                fair,
                stop: Arc::new(AtomicBool::new(false)),
                active: AtomicUsize::new(0),
                admitted_seq: AtomicU64::new(0),
                aborts: Mutex::new(Vec::new()),
                tally: Mutex::new(Tally {
                    completed: 0,
                    failed: 0,
                    rejected_busy: 0,
                    rejected_geometry: 0,
                    dropped_preadmission: 0,
                    shm_sessions: 0,
                    sessions: Vec::new(),
                }),
            },
        })
    }

    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle {
            stop: Arc::clone(&self.state.stop),
        }
    }

    /// Serve until [`DaemonHandle::shutdown`] (or hooked SIGTERM), then
    /// drain and report. Asserts the arena's slot accounting on the way
    /// out: a clean drain leaks nothing.
    pub fn run(mut self) -> io::Result<DaemonReport> {
        #[cfg(target_os = "linux")]
        let shm = self.shm.take();
        let Daemon {
            listener, state, ..
        } = self;
        let d = &state;
        let mut asm = StreamAssembler::new(d.cfg.sockbuf);
        #[cfg(target_os = "linux")]
        let mut shm_asm = ShmAssembler::new();
        let mut last_sweep = Instant::now();

        // ENFILE/EMFILE have no stable `io::ErrorKind`; match the raw
        // errno (same values on Linux and the BSDs).
        const ENFILE: i32 = 23;
        const EMFILE: i32 = 24;

        let mut driver_stats: Option<UringStats> = None;
        std::thread::scope(|scope| -> io::Result<()> {
            // One shared ring for every uring session: the whole arena
            // is registered as fixed buffers exactly once, here, before
            // any admission — admission only hands out leases into the
            // already-registered table. A driver that cannot start
            // (kernel without io_uring, registration refused) fails the
            // daemon with its own error before anything is admitted.
            let shared = if d.cfg.transport == DaemonTransport::Uring {
                Some(spawn_shared_uring_driver(scope, &d.slots)?)
            } else {
                None
            };
            let hub = shared.as_ref().map(|(h, _)| Arc::clone(h));
            while !d.stop.load(Ordering::Acquire) {
                match listener.accept() {
                    // `offer` hands the hello read to a helper thread and
                    // returns at once — a silent client cannot stall the
                    // accept loop (it also pins the socket back to
                    // blocking mode, which accepted sockets don't inherit
                    // on every platform).
                    Ok((s, _)) => asm.offer(s),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    // The peer hung up between SYN and accept — routine
                    // under load, not a listener failure.
                    Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                    // Out of file descriptors during a burst: shed load
                    // and retry rather than taking down the daemon (and
                    // its in-flight sessions).
                    Err(e) if matches!(e.raw_os_error(), Some(ENFILE) | Some(EMFILE)) => {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    Err(e) => return Err(e),
                }
                // The shm endpoint shares the loop: drain its accept
                // queue (nonblocking), assemble (control, notify) pairs
                // by hello token, and spawn admitted pairs exactly like
                // TCP sets. The 2 ms idle poll above bounds shm accept
                // latency too.
                #[cfg(target_os = "linux")]
                if let Some(ep) = &shm {
                    loop {
                        match ep.listener.accept() {
                            Ok((s, _)) => shm_asm.offer(s),
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                            Err(e) if matches!(e.raw_os_error(), Some(ENFILE) | Some(EMFILE)) => {
                                std::thread::sleep(Duration::from_millis(50));
                                break;
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    while let Some(sess) = shm_asm.poll() {
                        scope.spawn(move || serve_shm_session(d, sess));
                    }
                }
                while let Some(streams) = asm.poll() {
                    let hub = hub.clone();
                    scope.spawn(move || serve_session(d, streams, hub.as_deref()));
                }
                if last_sweep.elapsed() >= Duration::from_secs(1) {
                    asm.sweep_stale(Instant::now());
                    #[cfg(target_os = "linux")]
                    shm_asm.sweep_stale(Instant::now());
                    last_sweep = Instant::now();
                }
            }

            // Drain: no more admissions (loop exited); wait for the
            // in-flight sessions, then cut the stragglers' sockets so
            // their threads fail out promptly and the scope can join.
            let deadline = Instant::now() + d.cfg.drain_deadline;
            while d.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if d.active.load(Ordering::Acquire) > 0 {
                for (_, set) in d.aborts.lock().iter() {
                    set.cut();
                }
            }
            // The driver exits once every session has detached (cut
            // stragglers detach on their error path), then hands back
            // its lifetime counters.
            if let Some((hub, jh)) = shared {
                hub.stop();
                driver_stats = jh.join().ok();
            }
            Ok(())
        })?;

        assert_eq!(
            d.arena.free_slots(),
            d.arena.total_slots() as usize,
            "drained daemon leaked arena slots"
        );

        let t = state.tally.into_inner();
        Ok(DaemonReport {
            served: t.sessions.len() as u64,
            completed: t.completed,
            failed: t.failed,
            rejected_busy: t.rejected_busy,
            rejected_geometry: t.rejected_geometry,
            dropped_preadmission: t.dropped_preadmission,
            uring: driver_stats,
            shm_sessions: t.shm_sessions,
            sessions: t.sessions,
        })
    }
}

/// Write one control frame straight to a raw stream (pre-transport:
/// admission replies go out before any backend wraps the session).
fn send_raw_ctrl(s: &mut impl Write, msg: &CtrlMsg) -> io::Result<()> {
    let mut buf = [0u8; FRAME_PREFIX_LEN + CTRL_SLOT_LEN];
    let n = encode_stream_frame(msg, &mut buf);
    s.write_all(&buf[..n])
}

/// Send a terminal admission reply and close the set down politely:
/// shut our write side, then drain until the peer closes (bounded) so
/// an immediate local close can't RST the reply out from under it.
fn reply_and_close(mut streams: SessionStreams, msg: &CtrlMsg) {
    if send_raw_ctrl(&mut streams.ctrl, msg).is_ok() {
        let _ = streams.ctrl.shutdown(Shutdown::Write);
        shutdown_all(&streams.data, Shutdown::Both);
        // The drain is bounded in *total*, not just per read — a peer
        // trickling bytes cannot pin this thread (rejected sets are not
        // in the abort list, so nothing else would cut them loose).
        let deadline = Instant::now() + Duration::from_millis(500);
        let _ = streams
            .ctrl
            .set_read_timeout(Some(Duration::from_millis(100)));
        let mut sink = [0u8; 256];
        while Instant::now() < deadline {
            match streams.ctrl.read(&mut sink) {
                Ok(n) if n > 0 => {}
                _ => break, // peer closed, timed out, or errored
            }
        }
    }
}

/// Admission + service for one assembled connection set. Runs on its
/// own thread; everything it leases it returns before exiting.
fn serve_session(d: &DaemonState, mut streams: SessionStreams, hub: Option<&UringHub>) {
    // --- Negotiation: read the opening SessionRequest, bounded. ---
    let first = (|| -> io::Result<CtrlMsg> {
        streams.ctrl.set_read_timeout(Some(NEGOTIATE_TIMEOUT))?;
        let first = read_one_ctrl_frame(&mut streams.ctrl)?;
        streams.ctrl.set_read_timeout(None)?;
        Ok(first)
    })();
    let first = match first {
        Ok(m) => m,
        Err(_) => {
            // Peer died or stalled mid-negotiation: drop the set; the
            // listener itself never blocked on it.
            shutdown_all(&streams.data, Shutdown::Both);
            let _ = streams.ctrl.shutdown(Shutdown::Both);
            d.tally.lock().dropped_preadmission += 1;
            return;
        }
    };
    let CtrlMsg::SessionRequest {
        session,
        block_size,
        channels,
        total_bytes,
        ..
    } = first
    else {
        shutdown_all(&streams.data, Shutdown::Both);
        let _ = streams.ctrl.shutdown(Shutdown::Both);
        d.tally.lock().dropped_preadmission += 1;
        return;
    };

    // --- Admission. Impossible geometry → typed reject; transient
    // saturation → typed busy with a retry hint. Never a hang. ---
    let reject = |reason: u8| CtrlMsg::SessionReject { session, reason };
    let busy = CtrlMsg::SessionBusy {
        session,
        retry_after_ms: d.cfg.retry_after_ms,
    };
    // A zero block size would divide-by-zero in the slot math below —
    // reject it (typed, like every other impossible geometry) before
    // any arithmetic can panic.
    if block_size == 0 || block_size as usize > d.cfg.slot_cap {
        reply_and_close(streams, &reject(reject_reason::BLOCK_TOO_LARGE));
        d.tally.lock().rejected_geometry += 1;
        return;
    }
    if channels == 0
        || channels as usize > d.cfg.max_channels
        || channels as usize != streams.data.len()
        || total_bytes == 0
    {
        // The hello census and the request disagree, the job is empty,
        // or the channel fan-out exceeds what the daemon will spawn
        // reader threads for — a protocol violation dressed as
        // geometry, or geometry it refuses to serve. Typed, either way.
        reply_and_close(streams, &reject(reject_reason::TOO_MANY_CHANNELS));
        d.tally.lock().rejected_geometry += 1;
        return;
    }
    if d.stop.load(Ordering::Acquire) {
        // Draining: admit nothing new, tell the source to come back.
        reply_and_close(streams, &busy);
        d.tally.lock().rejected_busy += 1;
        return;
    }
    // Claim a session-table entry before touching the arena so a burst
    // can't both oversubscribe the table and strand a lease.
    if d.active.fetch_add(1, Ordering::AcqRel) >= d.cfg.max_sessions {
        d.active.fetch_sub(1, Ordering::AcqRel);
        reply_and_close(streams, &busy);
        d.tally.lock().rejected_busy += 1;
        return;
    }
    let total_blocks = total_bytes.div_ceil(block_size).max(1);
    let want_slots = (d.cfg.session_slots as u64).min(total_blocks).max(1) as usize;
    let Some(lease) = d.arena.lease(want_slots) else {
        d.active.fetch_sub(1, Ordering::AcqRel);
        reply_and_close(streams, &busy);
        d.tally.lock().rejected_busy += 1;
        return;
    };

    // --- Admitted: register with the arbiter, run the sink session
    // over the leased view, and undo everything on the way out. ---
    let token = streams.token;
    let index = d.admitted_seq.fetch_add(1, Ordering::AcqRel);
    let weight = if total_bytes <= d.cfg.interactive_cutoff {
        d.cfg.interactive_weight
    } else {
        1
    };
    d.fair.register(token, weight);

    let result = run_admitted(d, streams, &lease, first, index, token, hub);

    d.aborts.lock().retain(|(t, _)| *t != token);
    d.fair.deregister(token);
    d.arena.release(&lease);
    d.active.fetch_sub(1, Ordering::AcqRel);

    let mut t = d.tally.lock();
    match &result {
        Ok(_) => t.completed += 1,
        Err(_) => t.failed += 1,
    }
    t.sessions.push(SessionSummary {
        index,
        token,
        result,
    });
}

/// The admitted path, separated so `serve_session` can unwind the lease
/// and registration on *any* exit, success or error.
fn run_admitted(
    d: &DaemonState,
    streams: SessionStreams,
    lease: &[u32],
    first: CtrlMsg,
    index: u64,
    token: u64,
    hub: Option<&UringHub>,
) -> io::Result<LiveReport> {
    let CtrlMsg::SessionRequest {
        block_size,
        channels,
        total_bytes,
        notify_imm,
        ..
    } = first
    else {
        unreachable!("admission checked the request shape");
    };

    let mut cfg = LiveConfig::new(block_size as usize, channels as usize, total_bytes);
    cfg.pool_blocks = lease.len() as u32;
    cfg.notify_imm = notify_imm;
    if let Some(dir) = &d.cfg.dst_dir {
        cfg.dst_file = Some(dir.join(format!("session-{index}.dat")));
    }
    if let Some(wan) = &d.cfg.wan {
        // The pool stays the arena lease (the admission currency can't
        // grow per-session), but the sink brain adapts its dwell window
        // and clamps its credit depth to the measured path.
        cfg.adaptive = true;
        cfg.wan_rate_bps = wan.rate_bps;
    }

    // Keep socket clones around so the drain deadline can cut a
    // straggler loose (its blocked threads fail out with EOF/EPIPE).
    let mut abort_socks = vec![streams.ctrl.try_clone()?];
    for s in &streams.data {
        abort_socks.push(s.try_clone()?);
    }
    d.aborts.lock().push((token, AbortSet::Tcp(abort_socks)));

    // The leased view: wire slot `i` is arena slot `lease[i]`. Slots
    // are `slot_cap`-sized; a session's blocks live in the prefix.
    let view: Vec<&Mutex<SlotBuf>> = lease.iter().map(|&g| &d.slots[g as usize]).collect();
    let fair = Some((&d.fair, token));
    match d.cfg.transport {
        DaemonTransport::Tcp => {
            let t = sink_transport_from_streams(streams)?;
            let t = match &d.cfg.wan {
                Some(wan) => crate::netem::wrap_sink(t, wan),
                None => t,
            };
            run_sink_session(&cfg, t, Some(first), &view, fair)
        }
        // The session joins the daemon's one driver ring — admission
        // touches no buffer registration (the arena was registered once
        // at startup; see the regression test below).
        DaemonTransport::Uring => {
            let hub = hub.expect("a uring daemon starts its shared driver before admitting");
            run_shared_uring_session(&cfg, streams, Some(first), &view, lease, hub, fair)
        }
    }
}

/// Unix-socket twin of [`reply_and_close`] for shm sessions turned
/// away at admission: send the typed reply, shut our write side, and
/// drain (bounded in total) so an immediate close can't lose it.
#[cfg(target_os = "linux")]
fn reply_and_close_shm(mut sess: ShmSessionStreams, msg: &CtrlMsg) {
    if send_raw_ctrl(&mut sess.ctrl, msg).is_ok() {
        let _ = sess.ctrl.shutdown(Shutdown::Write);
        let _ = sess.notify.shutdown(Shutdown::Both);
        let deadline = Instant::now() + Duration::from_millis(500);
        let _ = sess.ctrl.set_read_timeout(Some(Duration::from_millis(100)));
        let mut sink = [0u8; 256];
        while Instant::now() < deadline {
            match sess.ctrl.read(&mut sink) {
                Ok(n) if n > 0 => {}
                _ => break, // peer closed, timed out, or errored
            }
        }
    }
}

/// Admission + service for one assembled shm (control, notify) pair —
/// the same ladder as [`serve_session`], with one extra geometry check:
/// the channel count the control hello announced must match the
/// `SessionRequest`, because the sink fans that many notify readers
/// over the one stream.
#[cfg(target_os = "linux")]
fn serve_shm_session(d: &DaemonState, mut sess: ShmSessionStreams) {
    let first = (|| -> io::Result<CtrlMsg> {
        sess.ctrl.set_read_timeout(Some(NEGOTIATE_TIMEOUT))?;
        let first = read_one_ctrl_frame(&mut sess.ctrl)?;
        sess.ctrl.set_read_timeout(None)?;
        Ok(first)
    })();
    let drop_preadmission = |sess: ShmSessionStreams| {
        let _ = sess.ctrl.shutdown(Shutdown::Both);
        let _ = sess.notify.shutdown(Shutdown::Both);
        d.tally.lock().dropped_preadmission += 1;
    };
    let first = match first {
        Ok(m) => m,
        Err(_) => return drop_preadmission(sess),
    };
    let CtrlMsg::SessionRequest {
        session,
        block_size,
        channels,
        total_bytes,
        ..
    } = first
    else {
        return drop_preadmission(sess);
    };

    let reject = |reason: u8| CtrlMsg::SessionReject { session, reason };
    let busy = CtrlMsg::SessionBusy {
        session,
        retry_after_ms: d.cfg.retry_after_ms,
    };
    if block_size == 0 || block_size as usize > d.cfg.slot_cap {
        reply_and_close_shm(sess, &reject(reject_reason::BLOCK_TOO_LARGE));
        d.tally.lock().rejected_geometry += 1;
        return;
    }
    // The channel cap matters most here: an shm "channel" is only a
    // notify-reader thread over the one stream — two cheap unix
    // connections could otherwise announce 65535 channels and make the
    // session spawn that many threads (thread-spawn failure panics in
    // the session scope and would take the whole daemon down). TCP at
    // least pays one real socket per channel; both paths enforce the
    // same cap for symmetry.
    if channels == 0
        || channels as usize > d.cfg.max_channels
        || channels != sess.channels
        || total_bytes == 0
    {
        reply_and_close_shm(sess, &reject(reject_reason::TOO_MANY_CHANNELS));
        d.tally.lock().rejected_geometry += 1;
        return;
    }
    if d.stop.load(Ordering::Acquire) {
        reply_and_close_shm(sess, &busy);
        d.tally.lock().rejected_busy += 1;
        return;
    }
    if d.active.fetch_add(1, Ordering::AcqRel) >= d.cfg.max_sessions {
        d.active.fetch_sub(1, Ordering::AcqRel);
        reply_and_close_shm(sess, &busy);
        d.tally.lock().rejected_busy += 1;
        return;
    }
    let total_blocks = total_bytes.div_ceil(block_size).max(1);
    let want_slots = (d.cfg.session_slots as u64).min(total_blocks).max(1) as usize;
    let Some(lease) = d.arena.lease(want_slots) else {
        d.active.fetch_sub(1, Ordering::AcqRel);
        reply_and_close_shm(sess, &busy);
        d.tally.lock().rejected_busy += 1;
        return;
    };

    let token = sess.token;
    let index = d.admitted_seq.fetch_add(1, Ordering::AcqRel);
    let weight = if total_bytes <= d.cfg.interactive_cutoff {
        d.cfg.interactive_weight
    } else {
        1
    };
    d.fair.register(token, weight);

    let result = run_admitted_shm(d, sess, &lease, first, index, token);

    d.aborts.lock().retain(|(t, _)| *t != token);
    d.fair.deregister(token);
    d.arena.release(&lease);
    d.active.fetch_sub(1, Ordering::AcqRel);

    let mut t = d.tally.lock();
    match &result {
        Ok(_) => t.completed += 1,
        Err(_) => t.failed += 1,
    }
    t.shm_sessions += 1;
    t.sessions.push(SessionSummary {
        index,
        token,
        result,
    });
}

/// The admitted shm path: create a memfd window for **this session
/// alone**, sized to its lease, ship the descriptor with the window fd
/// over `SCM_RIGHTS`, and run the ordinary sink session — placement is
/// the source's own write into the window's slots, verified by the
/// per-slot publication word. The arena lease is pure accounting here
/// (it bounds concurrent shm memory to the arena's budget and keeps
/// admission/fairness transport-blind); the fd a tenant receives maps
/// its own window and nothing else, so a hostile or buggy session can
/// scribble only payloads it could already corrupt on the wire.
#[cfg(target_os = "linux")]
fn run_admitted_shm(
    d: &DaemonState,
    sess: ShmSessionStreams,
    lease: &[u32],
    first: CtrlMsg,
    index: u64,
    token: u64,
) -> io::Result<LiveReport> {
    let CtrlMsg::SessionRequest {
        block_size,
        channels,
        total_bytes,
        notify_imm,
        ..
    } = first
    else {
        unreachable!("admission checked the request shape");
    };

    let mut cfg = LiveConfig::new(block_size as usize, channels as usize, total_bytes);
    cfg.pool_blocks = lease.len() as u32;
    cfg.notify_imm = notify_imm;
    if let Some(dir) = &d.cfg.dst_dir {
        cfg.dst_file = Some(dir.join(format!("session-{index}.dat")));
    }

    d.aborts.lock().push((
        token,
        AbortSet::Unix(vec![sess.ctrl.try_clone()?, sess.notify.try_clone()?]),
    ));

    let sw = SessionWindow::create(lease.len(), block_size as usize)?;
    sw.send_descriptor(&sess.ctrl)?;
    let snk_bufs = sw.slot_bufs();
    let win = Arc::new(sw.into_sink_window());
    let view: Vec<&Mutex<SlotBuf>> = snk_bufs.iter().collect();
    let t = sink_transport_for_window(sess.ctrl, sess.notify, channels as usize, win)?;
    run_sink_session(&cfg, t, Some(first), &view, Some((&d.fair, token)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::connect_streams;

    fn start(
        cfg: DaemonConfig,
    ) -> (
        std::net::SocketAddr,
        DaemonHandle,
        std::thread::JoinHandle<io::Result<DaemonReport>>,
    ) {
        let d = Daemon::bind("127.0.0.1:0", cfg).unwrap();
        let addr = d.local_addr().unwrap();
        let h = d.handle();
        let jh = std::thread::spawn(move || d.run());
        (addr, h, jh)
    }

    fn request(streams: &mut SessionStreams, block_size: u64) -> CtrlMsg {
        send_raw_ctrl(
            &mut streams.ctrl,
            &CtrlMsg::SessionRequest {
                session: 1,
                block_size,
                channels: 1,
                total_bytes: 1 << 20,
                notify_imm: false,
            },
        )
        .unwrap();
        streams
            .ctrl
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        read_one_ctrl_frame(&mut streams.ctrl).unwrap()
    }

    /// A `SessionRequest` with `block_size: 0` used to divide-by-zero in
    /// the slot math, leak a session-table entry, and take down the
    /// whole daemon when the panic re-raised at scope join. It must be
    /// an ordinary typed reject — and admission must survive repeats.
    #[test]
    fn zero_block_size_is_a_typed_reject_not_a_panic() {
        let (addr, handle, jh) = start(DaemonConfig::default());
        for _ in 0..2 {
            let mut streams = connect_streams(addr, 1, 0).unwrap();
            let reply = request(&mut streams, 0);
            assert!(matches!(reply, CtrlMsg::SessionReject { .. }), "{reply:?}");
        }
        handle.shutdown();
        let report = jh.join().expect("daemon must not panic").unwrap();
        assert_eq!(report.rejected_geometry, 2, "{report:?}");
        assert_eq!(report.served, 0);
    }

    /// A channel count above the daemon's cap is a typed reject, not
    /// `channels` reader threads: each admitted channel costs a thread,
    /// and thread-spawn failure would panic through the session scope
    /// and take the whole daemon down.
    #[test]
    fn oversized_channel_count_is_a_typed_reject() {
        let cfg = DaemonConfig {
            max_channels: 2,
            ..DaemonConfig::default()
        };
        let (addr, handle, jh) = start(cfg);
        let mut streams = connect_streams(addr, 3, 0).unwrap();
        send_raw_ctrl(
            &mut streams.ctrl,
            &CtrlMsg::SessionRequest {
                session: 1,
                block_size: 64 * 1024,
                channels: 3,
                total_bytes: 1 << 20,
                notify_imm: false,
            },
        )
        .unwrap();
        streams
            .ctrl
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let reply = read_one_ctrl_frame(&mut streams.ctrl).unwrap();
        assert!(matches!(reply, CtrlMsg::SessionReject { .. }), "{reply:?}");
        handle.shutdown();
        let report = jh.join().expect("daemon must not panic").unwrap();
        assert_eq!(report.rejected_geometry, 1, "{report:?}");
        assert_eq!(report.served, 0);
    }

    /// Open one shm (control, notify) pair announcing an absurd channel
    /// count and read one unix control frame back. Returns the reply.
    #[cfg(target_os = "linux")]
    fn shm_request(sock: &std::path::Path, channels: u16, block_size: u64) -> io::Result<CtrlMsg> {
        use crate::net::{new_session_token, write_hello, KIND_CTRL, KIND_DATA};
        let token = new_session_token();
        let mut ctrl = UnixStream::connect(sock)?;
        write_hello(&mut ctrl, KIND_CTRL, channels, token)?;
        let mut notify = UnixStream::connect(sock)?;
        write_hello(&mut notify, KIND_DATA, 0, token)?;
        send_raw_ctrl(
            &mut ctrl,
            &CtrlMsg::SessionRequest {
                session: 1,
                block_size,
                channels,
                total_bytes: 1 << 20,
                notify_imm: false,
            },
        )?;
        ctrl.set_read_timeout(Some(Duration::from_secs(5)))?;
        read_one_ctrl_frame(&mut ctrl)
    }

    /// Two cheap unix connections must not be able to make the daemon
    /// spawn 65535 notify readers: the shm hello has no per-channel
    /// connection cost (unlike TCP), so the admission cap is the only
    /// bound. The reject must be typed, and the daemon must keep
    /// serving afterwards.
    #[cfg(target_os = "linux")]
    #[test]
    fn shm_hello_cannot_spawn_unbounded_channel_readers() {
        if !crate::shm::shm_supported() {
            eprintln!("skipping: shm transport not supported on this host");
            return;
        }
        let sock = std::env::temp_dir().join(format!("rftpd-chancap-{}.sock", std::process::id()));
        let cfg = DaemonConfig {
            slot_cap: 64 * 1024,
            shm_path: Some(sock.clone()),
            ..DaemonConfig::default()
        };
        let (_, handle, jh) = start(cfg);
        let reply = shm_request(&sock, u16::MAX, 64 * 1024).unwrap();
        assert!(matches!(reply, CtrlMsg::SessionReject { .. }), "{reply:?}");

        // The daemon survived and still admits a well-formed session.
        let client = {
            let sock = sock.clone();
            std::thread::spawn(move || {
                let cfg = LiveConfig::new(64 * 1024, 2, 1 << 20);
                let t = crate::shm::connect_source_shm(&sock, cfg.channels)?;
                crate::split::run_split_source(&cfg, t)
            })
        };
        client.join().unwrap().unwrap();
        handle.shutdown();
        let report = jh.join().expect("daemon must not panic").unwrap();
        assert_eq!(report.rejected_geometry, 1, "{report:?}");
        assert_eq!(report.completed, 1, "{report:?}");
        assert_eq!(report.shm_sessions, 1, "{report:?}");
    }

    /// The descriptor an admitted shm session receives must cover its
    /// own lease and nothing else — a tenant's fd maps a window created
    /// for that session, never the arena (one tenant reading or
    /// scribbling another's in-flight payloads through a shared slab fd
    /// was the isolation hole this pins shut).
    #[cfg(target_os = "linux")]
    #[test]
    fn shm_descriptor_covers_only_the_session_lease() {
        if !crate::shm::shm_supported() {
            eprintln!("skipping: shm transport not supported on this host");
            return;
        }
        use crate::net::{new_session_token, write_hello, KIND_CTRL, KIND_DATA};
        let sock = std::env::temp_dir().join(format!("rftpd-leasewin-{}.sock", std::process::id()));
        let cfg = DaemonConfig {
            slot_cap: 256 * 1024,
            arena_slots: 64,
            session_slots: 8,
            shm_path: Some(sock.clone()),
            ..DaemonConfig::default()
        };
        let (_, handle, jh) = start(cfg);

        let block = 64 * 1024u64;
        let token = new_session_token();
        let mut ctrl = UnixStream::connect(&sock).unwrap();
        write_hello(&mut ctrl, KIND_CTRL, 2, token).unwrap();
        let mut notify = UnixStream::connect(&sock).unwrap();
        write_hello(&mut notify, KIND_DATA, 0, token).unwrap();
        send_raw_ctrl(
            &mut ctrl,
            &CtrlMsg::SessionRequest {
                session: 1,
                block_size: block,
                channels: 2,
                total_bytes: 4 << 20, // 64 blocks >> 8 session slots
                notify_imm: false,
            },
        )
        .unwrap();
        // Read the raw descriptor head off the control stream (a plain
        // read discards the SCM_RIGHTS fd, which is fine — we only
        // check the claimed geometry here).
        ctrl.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut head = [0u8; 28];
        ctrl.read_exact(&mut head).unwrap();
        assert_eq!(
            u16::from_be_bytes([head[0], head[1]]),
            0xFFFF,
            "not a descriptor"
        );
        let slots = u32::from_be_bytes(head[4..8].try_into().unwrap());
        let stride = u64::from_be_bytes(head[8..16].try_into().unwrap());
        let window_len = u64::from_be_bytes(head[16..24].try_into().unwrap());
        assert_eq!(slots, 8, "window must span exactly the lease");
        assert_eq!(stride, SlotBuf::stride(block as usize) as u64);
        assert_eq!(
            window_len,
            8 * stride,
            "window must be the lease's 8 slots, not the 64-slot arena"
        );

        // Abandon the session (its thread fails out on EOF) and drain.
        drop(ctrl);
        drop(notify);
        handle.shutdown();
        let report = jh.join().expect("daemon must not panic").unwrap();
        assert_eq!(report.served, 1, "{report:?}");
    }

    /// End-to-end over the shared uring driver: three concurrent uring
    /// sources against one daemon. Every session's data path must run
    /// on the daemon's ONE driver thread, and admission must not touch
    /// buffer registration — the arena is registered exactly once at
    /// driver startup, so the shared ring's `registrations` counter
    /// stays at 1 no matter how many sessions were admitted.
    #[test]
    fn shared_uring_daemon_one_thread_one_registration() {
        if !crate::uring::uring_supported() {
            eprintln!("skipping: io_uring not supported by this kernel");
            return;
        }
        let cfg = DaemonConfig {
            transport: DaemonTransport::Uring,
            slot_cap: 64 * 1024,
            arena_slots: 24,
            session_slots: 8,
            ..DaemonConfig::default()
        };
        let (addr, handle, jh) = start(cfg);
        let n = 3;
        let clients: Vec<_> = (0..n)
            .map(|_| {
                std::thread::spawn(move || {
                    let cfg = LiveConfig::new(64 * 1024, 2, 4 << 20);
                    let t = crate::uring::connect_source_uring(addr, cfg.channels, 0)?;
                    crate::split::run_split_source(&cfg, t)
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap().unwrap();
        }
        handle.shutdown();
        let report = jh.join().unwrap().unwrap();
        assert_eq!(report.completed, n as u64, "{report:?}");
        assert_eq!(report.failed, 0, "{report:?}");
        for s in &report.sessions {
            let r = s.result.as_ref().unwrap();
            assert_eq!(r.checksum_failures, 0);
            assert_eq!(
                r.transport_threads, 1,
                "all data paths share one driver thread"
            );
            assert!(r.uring.is_some(), "session report carries ring stats");
        }
        let stats = report.uring.expect("daemon reports its driver's stats");
        assert!(stats.enters > 0 && stats.cqes > 0);
        assert_eq!(
            stats.registrations, 1,
            "admission must never re-register buffers: {stats:?}"
        );
    }

    /// A uring daemon whose shared driver cannot start fails `run` with
    /// the driver's own error — here, an arena larger than the
    /// fixed-buffer table — instead of admitting sessions it cannot
    /// serve.
    #[test]
    fn uring_daemon_driver_failure_fails_run() {
        if !crate::uring::uring_supported() {
            eprintln!("skipping: io_uring not supported by this kernel");
            return;
        }
        let cfg = DaemonConfig {
            transport: DaemonTransport::Uring,
            slot_cap: 4096,
            arena_slots: 1100,
            session_slots: 8,
            ..DaemonConfig::default()
        };
        let d = Daemon::bind("127.0.0.1:0", cfg).unwrap();
        let err = d
            .run()
            .expect_err("a driver that cannot start fails the daemon");
        assert!(err.to_string().contains("fixed-buffer limit"), "{err}");
    }

    /// One daemon, two transports, one arena: an shm session (its own
    /// per-session memfd window) and a TCP session run concurrently,
    /// each against its own disjoint arena lease. Both must verify
    /// clean, and the report must count exactly one shm session —
    /// proof one admission ladder serves both the zero-copy path and
    /// the ordinary copy path.
    #[cfg(target_os = "linux")]
    #[test]
    fn shm_and_tcp_sessions_share_one_arena() {
        if !crate::shm::shm_supported() {
            eprintln!("skipping: shm transport not supported on this host");
            return;
        }
        let sock = std::env::temp_dir().join(format!("rftpd-test-{}.sock", std::process::id()));
        let cfg = DaemonConfig {
            slot_cap: 64 * 1024,
            arena_slots: 24,
            session_slots: 8,
            shm_path: Some(sock.clone()),
            ..DaemonConfig::default()
        };
        let (addr, handle, jh) = start(cfg);

        let shm_client = {
            let sock = sock.clone();
            std::thread::spawn(move || {
                let cfg = LiveConfig::new(64 * 1024, 2, 4 << 20);
                let t = crate::shm::connect_source_shm(&sock, cfg.channels)?;
                crate::split::run_split_source(&cfg, t)
            })
        };
        let tcp_client = std::thread::spawn(move || {
            let cfg = LiveConfig::new(64 * 1024, 2, 4 << 20);
            let t = crate::net::connect_source(addr, cfg.channels, 0)?;
            crate::split::run_split_source(&cfg, t)
        });
        let shm_src = shm_client.join().unwrap().unwrap();
        let tcp_src = tcp_client.join().unwrap().unwrap();
        assert!(shm_src.blocks > 0 && tcp_src.blocks > 0);

        handle.shutdown();
        let report = jh.join().unwrap().unwrap();
        assert_eq!(report.completed, 2, "{report:?}");
        assert_eq!(report.failed, 0, "{report:?}");
        assert_eq!(report.shm_sessions, 1, "{report:?}");
        for s in &report.sessions {
            let r = s.result.as_ref().unwrap();
            assert_eq!(r.checksum_failures, 0);
        }
        assert!(!sock.exists(), "drained daemon must unlink its shm socket");
    }

    /// A rejected peer that keeps trickling bytes on its control stream
    /// must not pin the reply thread past the drain's total bound — the
    /// daemon still shuts down promptly.
    #[test]
    fn trickling_peer_cannot_pin_a_rejected_session() {
        let cfg = DaemonConfig {
            slot_cap: 4096,
            ..DaemonConfig::default()
        };
        let (addr, handle, jh) = start(cfg);
        let mut streams = connect_streams(addr, 1, 0).unwrap();
        let reply = request(&mut streams, 64 * 1024); // block > slot_cap
        assert!(matches!(reply, CtrlMsg::SessionReject { .. }), "{reply:?}");

        let mut wr = streams.ctrl.try_clone().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let trickler = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    if wr.write_all(&[0]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        };

        handle.shutdown();
        let t0 = Instant::now();
        let report = jh.join().unwrap().unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "drain pinned by a trickling peer: {:?}",
            t0.elapsed()
        );
        assert_eq!(report.rejected_geometry, 1, "{report:?}");
        stop.store(true, Ordering::Release);
        trickler.join().unwrap();
    }
}
