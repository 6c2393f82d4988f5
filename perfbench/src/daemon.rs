//! `daemon-mixed`: one `rftpd` daemon over tcp serving an open-loop
//! interactive user and a closed-loop bulk user at the same time.

use std::io;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rftp_live::net::default_sockbuf;
use rftp_live::{
    connect_source, run_split_source, Daemon, DaemonConfig, DaemonHandle, DaemonReport, LiveConfig,
    LiveReport,
};

use crate::measure::{process_cpu, quantile, sub_seed, Rng};
use crate::trace;
use crate::xfer::{verify, Metric, Tally};

/// Interactive arrivals per second (Poisson, open loop).
pub const ARRIVAL_RATE: f64 = 40.0;

/// Stand-in latency for a refused or failed interactive transfer: it
/// misses every latency limit.
const MISSED_MS: f64 = 1e6;

/// A daemon serving on its own thread; dropping it drains and joins it.
pub struct RunningDaemon {
    pub addr: SocketAddr,
    handle: DaemonHandle,
    join: Option<JoinHandle<io::Result<DaemonReport>>>,
}

impl RunningDaemon {
    /// Bind a default-configured tcp daemon and start serving.
    pub fn start(parent: u64) -> io::Result<RunningDaemon> {
        let d = trace::span("daemon.bind", parent, 0, |_| {
            Daemon::bind("127.0.0.1:0", DaemonConfig::default())
        })?;
        let addr = d.local_addr()?;
        let handle = d.handle();
        let join = Some(std::thread::spawn(move || d.run()));
        Ok(RunningDaemon { addr, handle, join })
    }

    /// Drain in-flight sessions and return what the daemon served.
    pub fn stop(mut self) -> io::Result<DaemonReport> {
        self.handle.shutdown();
        let join = self.join.take().expect("a running daemon has its thread");
        join.join().expect("daemon thread panicked")
    }
}

impl Drop for RunningDaemon {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.handle.shutdown();
            let _ = join.join();
        }
    }
}

/// One client session against the daemon; the sink half runs inside it.
fn session(d: &RunningDaemon, cfg: &LiveConfig, xfer: u64, parent: u64) -> io::Result<LiveReport> {
    trace::span("transfer", parent, xfer, |sp| {
        let sockbuf = default_sockbuf(cfg.block_size, cfg.channel_depth);
        let t = trace::span("connect", sp, xfer, |_| {
            connect_source(d.addr, cfg.channels, sockbuf)
        })?;
        let r = trace::span("source.run", sp, xfer, |_| run_split_source(cfg, t))?;
        trace::count(sp, "source.blocks", r.blocks as f64);
        trace::count(sp, "source.ctrl_msgs", r.ctrl_msgs as f64);
        Ok(r)
    })
}

fn interactive_cfg(seed: u64) -> LiveConfig {
    let mut c = LiveConfig::new(64 << 10, 1, 1 << 20);
    c.fault_seed = seed;
    c
}

fn bulk_cfg(seed: u64) -> LiveConfig {
    let mut c = LiveConfig::new(256 << 10, 2, 64 << 20);
    c.fault_seed = seed;
    c
}

/// A single-block session: the daemon's per-session floor.
pub fn one_block_session(d: &RunningDaemon, i: u64, parent: u64) -> io::Result<()> {
    let cfg = LiveConfig::new(64 << 10, 1, 64 << 10);
    let r = session(d, &cfg, i, parent)?;
    if r.blocks != 1 {
        return Err(io::Error::other(format!(
            "one-block session moved {} blocks",
            r.blocks
        )));
    }
    Ok(())
}

/// What `daemon-mixed` measured.
#[derive(Default)]
pub struct Mixed {
    pub tally: Tally,
    /// The bulk user's verified (bytes, summed session seconds, sessions).
    pub bulk: (u64, f64, usize),
    pub timed_s: f64,
    pub cpu_s: f64,
    session_ms: Vec<f64>,
    late_ms: Vec<f64>,
    report: DaemonReport,
}

/// After one untimed warm-up session of each shape, run both users
/// against `d` for `secs`; then drain the daemon and check every session
/// its sink half served.
pub fn mixed(d: RunningDaemon, seed: u64, secs: f64, parent: u64) -> io::Result<Mixed> {
    let mut m = Mixed::default();
    for (i, cfg) in [interactive_cfg(seed), bulk_cfg(seed)].iter().enumerate() {
        m.tally.attempted += 1;
        let t = Instant::now();
        match session(&d, cfg, 1_000_000 + i as u64, parent) {
            Ok(r) => m.tally.add_source(&r, t.elapsed()),
            Err(e) => {
                m.tally.failed += 1;
                println!("warm-up session failed: {e}");
            }
        }
    }
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(secs);
    let (inter, bulk) = std::thread::scope(|s| {
        let bulk = s.spawn(|| {
            let mut out = Vec::new();
            let mut i = 0;
            while Instant::now() < end {
                let cfg = bulk_cfg(sub_seed(seed, 2 * i + 1));
                let t = Instant::now();
                out.push((session(&d, &cfg, 2 * i + 1, parent), t.elapsed()));
                i += 1;
            }
            out
        });
        let mut rng = Rng::new(sub_seed(seed, 0xA11));
        let mut due = t0 + rng.exp_gap(ARRIVAL_RATE);
        let mut out = Vec::new();
        let mut i = 0;
        while due < end {
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let start = Instant::now();
            let cfg = interactive_cfg(sub_seed(seed, 2 * i));
            let r = session(&d, &cfg, 2 * i, parent);
            let done = Instant::now();
            out.push((r, start - due, done - start, done - due));
            due += rng.exp_gap(ARRIVAL_RATE);
            i += 1;
        }
        (out, bulk.join().expect("bulk user thread panicked"))
    });
    m.timed_s = t0.elapsed().as_secs_f64();
    m.cpu_s = (process_cpu() - cpu0).as_secs_f64();
    for (r, late, run, from_due) in inter {
        m.tally.attempted += 1;
        m.late_ms.push(late.as_secs_f64() * 1e3);
        match r {
            Ok(r) => {
                m.tally.xfer_ms.push(from_due.as_secs_f64() * 1e3);
                m.tally.bytes += r.bytes;
                m.session_ms.push(run.as_secs_f64() * 1e3);
                m.tally.add_source(&r, run);
            }
            Err(e) => {
                m.tally.failed += 1;
                m.tally.xfer_ms.push(MISSED_MS);
                println!("interactive session failed: {e}");
            }
        }
    }
    for (r, wall) in bulk {
        m.tally.attempted += 1;
        match r {
            Ok(r) => {
                m.bulk.0 += r.bytes;
                m.bulk.1 += wall.as_secs_f64();
                m.bulk.2 += 1;
                m.tally.bytes += r.bytes;
                m.tally.add_source(&r, wall);
            }
            Err(e) => {
                m.tally.failed += 1;
                println!("bulk session failed: {e}");
            }
        }
    }
    m.report = d.stop()?;
    // The sink halves ran inside the daemon: check each one's report
    // against the shapes that were sent.
    let shapes = [interactive_cfg(0), bulk_cfg(0)];
    let mut sink_failed = 0;
    for s in &m.report.sessions {
        match &s.result {
            Ok(r) if shapes.iter().any(|c| verify(r, c).is_ok()) => m.tally.add_sink(r),
            Ok(r) => {
                m.tally.wrong += 1;
                println!(
                    "daemon session {} returned wrong data: {} checksum failures, {} blocks, {} bytes",
                    s.index, r.checksum_failures, r.blocks, r.bytes
                );
            }
            Err(_) => sink_failed += 1,
        }
    }
    // A session the sink saw fail or refused, but the client did not
    // notice, is still a failed transfer.
    m.tally.failed = m.tally.failed.max(sink_failed + m.report.rejected_busy) + m.tally.wrong;
    Ok(m)
}

impl Mixed {
    /// The daemon and load-generator layers; all zero for a default
    /// `Mixed`, so a workload without a daemon reports the same names.
    pub fn layer_metrics(&mut self, m: &mut Vec<Metric>) {
        let (n_sess, n_late) = (self.session_ms.len(), self.late_ms.len());
        let r = &self.report;
        m.extend([
            Metric::new(
                "daemon.session_ms.p50",
                quantile(&mut self.session_ms, 0.5),
                "ms",
            )
            .n(n_sess),
            Metric::new(
                "daemon.session_ms.p95",
                quantile(&mut self.session_ms, 0.95),
                "ms",
            )
            .n(n_sess),
            Metric::new("daemon.completed", r.completed as f64, "count"),
            Metric::new("daemon.failed", r.failed as f64, "count"),
            Metric::new("daemon.rejected_busy", r.rejected_busy as f64, "count"),
            Metric::new(
                "loadgen.late_ms.p95",
                quantile(&mut self.late_ms, 0.95),
                "ms",
            )
            .n(n_late),
        ]);
    }
}
