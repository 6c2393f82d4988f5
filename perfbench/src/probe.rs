//! The ceiling ladder and the session-setup probes a traced run takes
//! before its timed transfers.

use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use rftp_core::pattern::{checksum, fill_pattern};
use rftp_live::LiveConfig;

use crate::daemon::{one_block_session, RunningDaemon};
use crate::measure::{median, Host};
use crate::trace;
use crate::xfer::{transfer, verify, Arm, Endpoint, Metric};

const MIB: usize = 1 << 20;

/// GB/s of `f` run repeatedly over `bytes` each time for at least `min`.
fn rate(bytes: usize, min: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut n = 0u64;
    while n < 4 || t.elapsed() < min {
        f();
        n += 1;
    }
    (n * bytes as u64) as f64 / t.elapsed().as_secs_f64() / 1e9
}

/// Raw loopback TCP: two streams, 1 MiB writes, for `dur`.
fn pump_gbps(dur: Duration) -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let t = Instant::now();
    let bytes = std::thread::scope(|s| {
        let writers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(move || -> io::Result<()> {
                    let mut c = TcpStream::connect(addr)?;
                    let buf = vec![0x5Au8; MIB];
                    while t.elapsed() < dur {
                        c.write_all(&buf)?;
                    }
                    c.shutdown(std::net::Shutdown::Write)
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (mut c, _) = listener.accept()?;
                Ok(s.spawn(move || -> io::Result<u64> {
                    let mut buf = vec![0u8; MIB];
                    let mut total = 0u64;
                    loop {
                        match c.read(&mut buf)? {
                            0 => return Ok(total),
                            n => total += n as u64,
                        }
                    }
                }))
            })
            .collect::<io::Result<_>>()?;
        let mut total = 0;
        for w in writers {
            w.join().expect("pump writer panicked")?;
        }
        for r in readers {
            total += r.join().expect("pump reader panicked")?;
        }
        Ok::<_, io::Error>(total)
    })?;
    Ok(bytes as f64 / t.elapsed().as_secs_f64() / 1e9)
}

/// Memory copy bandwidth over 32 MiB buffers: the ceiling of every copy
/// and, printed with each run, a sign of memory contention on the host.
pub fn memcpy_gbps(min: Duration) -> f64 {
    let src = vec![0xA5u8; 32 * MIB];
    let mut dst = vec![0u8; 32 * MIB];
    rate(32 * MIB, min, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    })
}

pub struct Ceilings {
    pub memcpy: f64,
    pub fill: f64,
    pub checksum: f64,
    pub pump: f64,
}

/// The per-byte kernels and the plain socket pump, on this host.
pub fn ceilings(parent: u64) -> io::Result<Ceilings> {
    trace::span("ceilings", parent, 0, |_| {
        let min = Duration::from_millis(200);
        let memcpy = memcpy_gbps(min);
        let mut blk = vec![0u8; MIB];
        let mut seed = 0;
        let fill = rate(MIB, min, || {
            seed += 1;
            fill_pattern(black_box(&mut blk), seed);
        });
        let sum = rate(MIB, min, || {
            black_box(checksum(black_box(&blk)));
        });
        Ok(Ceilings {
            memcpy,
            fill,
            checksum: sum,
            pump: pump_gbps(Duration::from_millis(400))?,
        })
    })
}

impl Ceilings {
    /// The slowest raw kernel on the arm's byte path.
    pub fn of(&self, arm: Arm) -> f64 {
        let cpu = self.memcpy.min(self.fill).min(self.checksum);
        match arm {
            Arm::Inproc | Arm::Shm => cpu,
            Arm::Tcp | Arm::Uring => self.pump.min(cpu),
        }
    }

    pub fn metrics(&self, m: &mut Vec<Metric>) {
        m.extend([
            Metric::new("host.memcpy_gbps", self.memcpy, "GB/s"),
            Metric::new("pattern.fill_gbps", self.fill, "GB/s"),
            Metric::new("pattern.checksum_gbps", self.checksum, "GB/s"),
            Metric::new("net.pump_gbps", self.pump, "GB/s"),
        ]);
    }
}

const PROBE_REPS: usize = 7;

/// Connect and accept cost per transport, from single-block transfers
/// at the bulk geometry's channel count; then the daemon's bind cost and
/// per-session floor. A transport the host lacks is reported absent.
pub fn session_probes(host: &Host, parent: u64, m: &mut Vec<Metric>) -> io::Result<()> {
    trace::span("probes", parent, 0, |sp| {
        let cfg = LiveConfig::new(64 << 10, 2, 64 << 10);
        let arms = [
            (Arm::Tcp, Ok(()), "net.connect_ms", "net.accept_ms"),
            (
                Arm::Uring,
                host.uring.clone(),
                "uring.connect_ms",
                "uring.accept_ms",
            ),
            (
                Arm::Shm,
                host.shm.clone(),
                "shm.connect_ms",
                "shm.accept_ms",
            ),
        ];
        for (arm, support, connect, accept) in arms {
            if let Err(why) = support {
                println!("probe {}: absent ({why})", arm.name());
                continue;
            }
            let ep = Endpoint::bind(arm)?;
            let (mut c, mut a) = (Vec::new(), Vec::new());
            for _ in 0..PROBE_REPS {
                let x = transfer(&ep, &cfg, None, 0, sp)?;
                verify(&x.snk, &cfg).map_err(io::Error::other)?;
                c.push(x.connect_s * 1e3);
                a.push(x.accept_s * 1e3);
            }
            m.push(Metric::new(connect, median(&mut c), "ms").n(PROBE_REPS));
            m.push(Metric::new(accept, median(&mut a), "ms").n(PROBE_REPS));
        }
        let mut bind = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let d = RunningDaemon::start(sp)?;
            bind.push(t.elapsed().as_secs_f64() * 1e3);
            d.stop()?;
        }
        m.push(Metric::new("daemon.bind_ms", median(&mut bind), "ms").n(bind.len()));
        let d = RunningDaemon::start(sp)?;
        let mut one = Vec::new();
        for i in 0..20 {
            let t = Instant::now();
            one_block_session(&d, i, sp)?;
            one.push(t.elapsed().as_secs_f64() * 1e3);
        }
        d.stop()?;
        m.push(Metric::new("daemon.one_block_ms.p50", median(&mut one), "ms").n(one.len()));
        Ok(())
    })
}
