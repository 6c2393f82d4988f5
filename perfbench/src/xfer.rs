//! One verified transfer over a transport arm, driven only through the
//! live crate's public API, and the per-run tally of what came back.

use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rftp_live::net::default_sockbuf;
use rftp_live::{
    accept_source_uring, connect_source, connect_source_shm, connect_source_uring, run_live,
    run_shm_sink, run_split_sink, run_split_source, run_uring_sink, wrap_sink, wrap_source,
    LiveConfig, LiveReport, NetListener, ShmListener, SourceTransport, WanProfile,
};

use crate::measure::{median, quantile};
use crate::trace;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Arm {
    Inproc,
    Tcp,
    Uring,
    Shm,
}

impl Arm {
    pub fn name(self) -> &'static str {
        match self {
            Arm::Inproc => "inproc",
            Arm::Tcp => "tcp",
            Arm::Uring => "uring",
            Arm::Shm => "shm",
        }
    }
}

/// A bound sink endpoint: what a transfer connects to.
pub enum Endpoint {
    Inproc,
    Net(Arm, NetListener),
    Shm(ShmListener, PathBuf),
}

/// Unix socket path for the shm control stream, relative to the working
/// directory (socket paths are limited to 108 bytes).
pub fn shm_path() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    PathBuf::from(format!(
        ".perfbench-{}-{}.sock",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

impl Endpoint {
    pub fn bind(arm: Arm) -> io::Result<Endpoint> {
        Ok(match arm {
            Arm::Inproc => Endpoint::Inproc,
            Arm::Tcp | Arm::Uring => Endpoint::Net(arm, NetListener::bind("127.0.0.1:0")?),
            Arm::Shm => {
                let path = shm_path();
                Endpoint::Shm(ShmListener::bind(&path)?, path)
            }
        })
    }
}

/// What one transfer returned.
pub struct Xfer {
    pub wall: Duration,
    /// Wall time of the source and sink halves' run calls (connect and
    /// accept excluded).
    pub src_s: f64,
    pub snk_s: f64,
    pub connect_s: f64,
    pub accept_s: f64,
    /// The source half's report (`None` in process, where one report
    /// covers both halves).
    pub src: Option<LiveReport>,
    pub snk: LiveReport,
}

fn timed<T>(f: impl FnOnce() -> io::Result<T>) -> io::Result<(T, f64)> {
    let t = Instant::now();
    let out = f()?;
    Ok((out, t.elapsed().as_secs_f64()))
}

/// The sink half, accepted and ready to run.
type SinkRun<'a> = Box<dyn FnOnce() -> io::Result<LiveReport> + 'a>;

/// Run one transfer of `cfg` into `ep`. With `wan`, both halves run
/// behind the impairment shim (the sink impairs inbound data, the source
/// inbound control), which only the tcp arm supports.
pub fn transfer(
    ep: &Endpoint,
    cfg: &LiveConfig,
    wan: Option<&WanProfile>,
    xfer: u64,
    parent: u64,
) -> io::Result<Xfer> {
    trace::span("transfer", parent, xfer, |sp| {
        let t0 = Instant::now();
        let ch = cfg.channels;
        let mut x = match ep {
            Endpoint::Inproc => {
                let (snk, s) = trace::span("run_live", sp, xfer, |_| timed(|| Ok(run_live(cfg))))?;
                Xfer {
                    wall: Duration::ZERO,
                    src_s: s,
                    snk_s: s,
                    connect_s: 0.0,
                    accept_s: 0.0,
                    src: None,
                    snk,
                }
            }
            Endpoint::Net(Arm::Uring, listener) => {
                let addr = listener.local_addr()?;
                let sockbuf = default_sockbuf(cfg.block_size, cfg.channel_depth);
                split_pair(
                    cfg,
                    sp,
                    xfer,
                    || connect_source_uring(addr, ch, sockbuf),
                    || {
                        let (sess, first) = accept_source_uring(listener, sockbuf)?;
                        Ok(Box::new(move || run_uring_sink(cfg, sess, Some(first))))
                    },
                )?
            }
            Endpoint::Net(_, listener) => {
                let addr = listener.local_addr()?;
                let sockbuf = default_sockbuf(cfg.block_size, cfg.channel_depth);
                split_pair(
                    cfg,
                    sp,
                    xfer,
                    || {
                        let t = connect_source(addr, ch, sockbuf)?;
                        Ok(match wan {
                            Some(w) => wrap_source(t, w),
                            None => t,
                        })
                    },
                    || {
                        let (t, first) = listener.accept_session(sockbuf)?;
                        let t = match wan {
                            Some(w) => wrap_sink(t, w),
                            None => t,
                        };
                        Ok(Box::new(move || run_split_sink(cfg, t, Some(first))))
                    },
                )?
            }
            Endpoint::Shm(listener, path) => split_pair(
                cfg,
                sp,
                xfer,
                || connect_source_shm(path, ch),
                || {
                    let (sess, first) = listener.accept_session()?;
                    Ok(Box::new(move || run_shm_sink(cfg, sess, Some(first))))
                },
            )?,
        };
        x.wall = t0.elapsed();
        record_counters(sp, &x);
        Ok(x)
    })
}

/// Source half on a helper thread, sink half here; each half's connect
/// or accept and its run call get a span and a clock of their own.
fn split_pair<'a>(
    cfg: &LiveConfig,
    sp: u64,
    xfer: u64,
    connect: impl FnOnce() -> io::Result<SourceTransport> + Send,
    accept: impl FnOnce() -> io::Result<SinkRun<'a>>,
) -> io::Result<Xfer> {
    std::thread::scope(|s| {
        let src = s.spawn(move || {
            let (t, c) = trace::span("connect", sp, xfer, |_| timed(connect))?;
            let (r, run) = trace::span("source.run", sp, xfer, |_| {
                timed(|| run_split_source(cfg, t))
            })?;
            Ok::<_, io::Error>((r, c, run))
        });
        let snk = (|| {
            let (run, a) = trace::span("accept", sp, xfer, |_| timed(accept))?;
            let (r, s) = trace::span("sink.run", sp, xfer, |_| timed(run))?;
            Ok::<_, io::Error>((r, a, s))
        })();
        let src = src.join().expect("source half thread panicked");
        let (snk, accept_s, snk_s) = snk?;
        let (src, connect_s, src_s) = src?;
        Ok(Xfer {
            wall: Duration::ZERO,
            src_s,
            snk_s,
            connect_s,
            accept_s,
            src: Some(src),
            snk,
        })
    })
}

/// Record the returned report counters at the transfer's span.
fn record_counters(sp: u64, x: &Xfer) {
    if sp == 0 {
        return;
    }
    let c = |name, v: u64| trace::count(sp, name, v as f64);
    if let Some(s) = &x.src {
        c("source.blocks", s.blocks);
        c("source.ctrl_msgs", s.ctrl_msgs);
        c("source.retransmits", s.retransmits);
    }
    let k = &x.snk;
    c("sink.blocks", k.blocks);
    c("sink.ctrl_msgs", k.ctrl_msgs);
    c("sink.duplicates", k.duplicate_payloads);
    c("sink.checksum_failures", k.checksum_failures);
    c("sink.ooo_blocks", k.ooo_blocks);
}

/// Why a returned transfer is not a correct one, if it is not.
pub fn verify(snk: &LiveReport, cfg: &LiveConfig) -> Result<(), String> {
    let want = cfg.total_bytes.div_ceil(cfg.block_size as u64);
    if snk.checksum_failures != 0 {
        return Err(format!("{} checksum failures", snk.checksum_failures));
    }
    if snk.blocks != want || snk.bytes != cfg.total_bytes {
        return Err(format!(
            "sink placed {} blocks / {} bytes, expected {want} / {}",
            snk.blocks, snk.bytes, cfg.total_bytes
        ));
    }
    Ok(())
}

/// Everything a run's timed transfers add up to.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    /// I/O errors, busy or reject replies.
    pub failed: u64,
    /// Transfers that returned wrong data or a wrong block count.
    pub wrong: u64,
    pub xfer_ms: Vec<f64>,
    pub bytes: u64,
    pub blocks: u64,
    pub wall_ns: f64,
    pub load_ns: f64,
    pub dispatch_ns: f64,
    pub place_ns: f64,
    pub verify_ns: f64,
    pub verify_p99: Vec<f64>,
    pub ctrl: u64,
    pub ooo: u64,
    pub retx: u64,
    pub dup: u64,
    pub src_s: Vec<f64>,
    pub snk_s: Vec<f64>,
    pub uring_cqes: u64,
    pub uring_enters: u64,
    pub uring_pbuf_exhausted: u64,
    pub srtt_ms: Vec<f64>,
    pub rttvar_ms: Vec<f64>,
    pub depth: Vec<f64>,
    pub dwell_us: Vec<f64>,
    pub first_block_ms: Vec<f64>,
}

impl Tally {
    /// Count one attempted transfer and return it if it verified.
    pub fn check(&mut self, cfg: &LiveConfig, x: io::Result<Xfer>) -> Option<Xfer> {
        self.attempted += 1;
        let x = match x {
            Ok(x) => x,
            Err(e) => {
                self.failed += 1;
                println!("transfer failed: {e}");
                return None;
            }
        };
        if let Err(why) = verify(&x.snk, cfg) {
            self.failed += 1;
            self.wrong += 1;
            println!("transfer returned wrong data: {why}");
            return None;
        }
        Some(x)
    }

    /// [`Tally::check`] a timed transfer; a verified one adds to the
    /// goodput, latency and per-layer sums.
    pub fn add(&mut self, cfg: &LiveConfig, x: io::Result<Xfer>) {
        let Some(x) = self.check(cfg, x) else {
            return;
        };
        let wall = x.wall.as_secs_f64();
        self.xfer_ms.push(wall * 1e3);
        self.bytes += cfg.total_bytes;
        self.src_s.push(x.src_s);
        self.snk_s.push(x.snk_s);
        match &x.src {
            Some(src) => {
                self.add_source(src, x.wall);
                self.add_sink(&x.snk);
            }
            None => {
                // In process one report covers both halves and counts
                // each control message once.
                self.add_source(&x.snk, x.wall);
                self.add_sink(&x.snk);
                self.ctrl -= x.snk.ctrl_msgs;
            }
        }
    }

    /// Fold a source half's counters, and the wall time of the transfer
    /// it ran, into the tally.
    pub fn add_source(&mut self, r: &LiveReport, wall: Duration) {
        let blocks = r.blocks as f64;
        self.wall_ns += wall.as_nanos() as f64;
        self.load_ns += r.stages.load_ns * blocks;
        self.dispatch_ns += r.stages.dispatch_ns * blocks;
        self.ctrl += r.ctrl_msgs;
        self.retx += r.retransmits;
        if let Some(a) = &r.adapt {
            self.srtt_ms.push(a.srtt_us / 1e3);
            self.rttvar_ms.push(a.rttvar_us / 1e3);
            self.depth.push(a.effective_depth as f64);
            self.dwell_us.push(a.dwell_ns as f64 / 1e3);
        }
    }

    /// Fold a verified sink half's counters into the tally.
    pub fn add_sink(&mut self, r: &LiveReport) {
        let blocks = r.blocks as f64;
        self.blocks += r.blocks;
        self.place_ns += r.stages.place_ns * blocks;
        self.verify_ns += r.stages.verify_ns * blocks;
        if !r.tails.verify.is_empty() {
            self.verify_p99.push(r.tails.verify.p99());
        }
        self.ctrl += r.ctrl_msgs;
        self.ooo += r.ooo_blocks;
        self.dup += r.duplicate_payloads;
        if let Some(u) = &r.uring {
            self.uring_cqes += u.cqes;
            self.uring_enters += u.enters;
            self.uring_pbuf_exhausted += u.pbuf_exhausted;
        }
        if let Some(a) = &r.adapt {
            self.first_block_ms.push(a.first_block_us / 1e3);
        }
    }

    pub fn p(&mut self, q: f64) -> f64 {
        quantile(&mut self.xfer_ms, q)
    }

    /// Verified bytes, summed transfer wall seconds and transfer count.
    pub fn rate(&self) -> (u64, f64, usize) {
        (self.bytes, self.wall_ns / 1e9, self.xfer_ms.len())
    }

    fn per_blk(&self, ns: f64) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            ns / self.blocks as f64
        }
    }

    /// Per-layer metrics every workload reports from its own transfers.
    pub fn layer_metrics(&mut self, m: &mut Vec<Metric>) {
        let blocks = self.blocks.max(1) as f64;
        let kblk = blocks / 1e3;
        let stage_sum = self.load_ns + self.dispatch_ns + self.place_ns + self.verify_ns;
        let unattributed = if self.wall_ns > 0.0 {
            1.0 - stage_sum / self.wall_ns
        } else {
            0.0
        };
        let wall = self.wall_ns.max(1.0);
        m.extend([
            Metric::new("pipeline.load_ns_per_blk", self.per_blk(self.load_ns), "ns"),
            Metric::new(
                "pipeline.dispatch_ns_per_blk",
                self.per_blk(self.dispatch_ns),
                "ns",
            ),
            Metric::new(
                "pipeline.place_ns_per_blk",
                self.per_blk(self.place_ns),
                "ns",
            ),
            Metric::new(
                "pipeline.verify_ns_per_blk",
                self.per_blk(self.verify_ns),
                "ns",
            ),
            Metric::new("pipeline.load_share", self.load_ns / wall, "share"),
            Metric::new("pipeline.dispatch_share", self.dispatch_ns / wall, "share"),
            Metric::new("pipeline.place_share", self.place_ns / wall, "share"),
            Metric::new("pipeline.verify_share", self.verify_ns / wall, "share"),
            Metric::new("pipeline.unattributed_share", unattributed, "share"),
            Metric::new("pipeline.verify_ns.p99", median(&mut self.verify_p99), "ns"),
            Metric::new("pipeline.ooo_share", self.ooo as f64 / blocks, "share"),
            Metric::new("split.source_s", median(&mut self.src_s), "s"),
            Metric::new("split.sink_s", median(&mut self.snk_s), "s"),
            Metric::new("split.retx_per_kblk", self.retx as f64 / kblk, "1/kblk"),
            Metric::new("split.dup_per_kblk", self.dup as f64 / kblk, "1/kblk"),
            Metric::new("ctrl.frames_per_blk", self.ctrl as f64 / blocks, "1/blk"),
            Metric::new(
                "uring.cqes_per_blk",
                self.uring_cqes as f64 / blocks,
                "1/blk",
            ),
            Metric::new(
                "uring.enters_per_blk",
                self.uring_enters as f64 / blocks,
                "1/blk",
            ),
            Metric::new(
                "uring.pbuf_exhausted",
                self.uring_pbuf_exhausted as f64,
                "count",
            ),
            Metric::new("estimator.srtt_ms", median(&mut self.srtt_ms), "ms"),
            Metric::new("estimator.rttvar_ms", median(&mut self.rttvar_ms), "ms"),
            Metric::new(
                "estimator.effective_depth",
                median(&mut self.depth),
                "blocks",
            ),
            Metric::new("estimator.dwell_us", median(&mut self.dwell_us), "us"),
            Metric::new(
                "estimator.first_block_ms",
                median(&mut self.first_block_ms),
                "ms",
            ),
        ]);
    }
}

/// One named measurement with its unit and sample count.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub n: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            n: None,
        }
    }

    pub fn n(mut self, n: usize) -> Metric {
        self.n = Some(n);
        self
    }
}
