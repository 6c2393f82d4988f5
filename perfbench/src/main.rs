//! End-to-end and per-layer benchmark of the live RFTP stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every transfer runs over loopback in this one process and is
//! verified. The last line of standard output is one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (from a run
//! with spans recorded around each layer call) with `--trace 1`. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod daemon;
mod measure;
mod probe;
mod trace;
mod xfer;

use std::io;
use std::time::{Duration, Instant};

use rftp_live::{LiveConfig, WanProfile};

use measure::{median, process_cpu, reset_rss_peak, rss_peak_mib, sub_seed, CpuTicks, Host};
use xfer::{transfer, Arm, Endpoint, Metric, Tally};

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

/// Set-up is repeated this many times per run; the median is reported.
const SETUP_REPS: usize = 21;

/// A workload that has not finished by then is stuck: exit without a
/// result.
const WATCHDOG: Duration = Duration::from_secs(170);

#[derive(Clone, Copy)]
enum Workload {
    Bulk(Arm),
    DaemonMixed,
    WanLossy,
}

/// Each workload with why it was chosen (as in BENCHMARK.json).
const WORKLOADS: &[(&str, Workload, &str)] = &[
    (
        "bulk-1m.inproc",
        Workload::Bulk(Arm::Inproc),
        "in-process run_live, 1 GiB of 1 MiB blocks x 2 channels: per-byte work (pattern fill, placement copy, checksum verify) dominates",
    ),
    (
        "bulk-1m.tcp",
        Workload::Bulk(Arm::Tcp),
        "the same transfer split over loopback TCP: per-byte work plus the socket copy dominates; the control arm for uring and shm",
    ),
    (
        "bulk-1m.uring",
        Workload::Bulk(Arm::Uring),
        "the same transfer into the io_uring sink: per-byte work plus ring completions (CQEs, enters, provided buffers) dominates",
    ),
    (
        "bulk-1m.shm",
        Workload::Bulk(Arm::Shm),
        "the same transfer through the memfd window with zero receiver copies: fill, source copy and verify dominate",
    ),
    (
        "daemon-mixed",
        Workload::DaemonMixed,
        "one default tcp daemon, open-loop 1 MiB interactive users beside a closed-loop 64 MiB bulk user: per-session and per-block work dominate",
    ),
    (
        "wan-lossy",
        Workload::WanLossy,
        "ani-wan (49 ms RTT, 10 Gb/s) with 0.2% seeded loss and the adaptive controller: round trips, the credit ramp and loss recovery bound it",
    ),
];

/// The 49 ms, 10 Gb/s ANI WAN with 0.2% loss; the seed is appended.
const WAN_SPEC: &str = "ani-wan,drop=0.002";

struct Args {
    /// Indices into [`WORKLOADS`]; `--workload all` runs each in turn.
    workloads: Vec<usize>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut w, mut seed, mut seconds, mut tr) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if v == "all" => w = Some((0..WORKLOADS.len()).collect()),
            "--workload" => {
                let i = WORKLOADS.iter().position(|(n, _, _)| *n == v);
                w = Some(vec![i.ok_or(format!("unknown workload {v:?}"))?]);
            }
            "--seed" => seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?),
            "--seconds" => {
                let s: f64 = v.parse().map_err(|_| format!("bad seconds {v:?}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                tr = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: w.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(12.0),
        trace: tr.unwrap_or(false),
    })
}

/// What a workload run produced.
struct Outcome {
    tally: Tally,
    /// Verified payload of the workload's bulk stream: (bytes, summed
    /// transfer wall seconds, transfers).
    goodput: (u64, f64, usize),
    setup_s: Vec<f64>,
    timed_s: f64,
    cpu_s: f64,
    daemon: Option<daemon::Mixed>,
    /// The arm whose raw byte-path ceiling the goodput is compared
    /// against; `None` over the WAN, where the rate cap is the ceiling.
    ceiling: Option<Arm>,
}

/// Set-up is what a launcher does before its first transfer: probe the
/// host's transports, reset the peak-RSS mark, then `bind` the
/// workload's endpoint. It runs [`SETUP_REPS`] times, each result torn
/// down before the next; the last is kept with every duration.
fn setup<T>(
    parent: u64,
    mut bind: impl FnMut(&Host, u64) -> io::Result<T>,
) -> io::Result<(T, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(trace::span("setup", parent, 0, |sp| {
            let host = Host::probe();
            if !reset_rss_peak() {
                return Err(io::Error::other("cannot reset the peak-RSS mark"));
            }
            bind(&host, sp)
        })?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("SETUP_REPS >= 1"), times))
}

/// One untimed warm-up transfer (verified and counted), then
/// back-to-back transfers for `secs`; `make(i)` gives transfer `i` its
/// config from its sub-seed (and, over the WAN, its own loss seed).
/// Returns the tally, the timed seconds and the CPU seconds spent.
fn timed_transfers(
    ep: &Endpoint,
    warm: (LiveConfig, Option<WanProfile>),
    secs: f64,
    parent: u64,
    mut make: impl FnMut(u64) -> (LiveConfig, Option<WanProfile>),
) -> (Tally, f64, f64) {
    let mut tally = Tally::default();
    let (cfg, wan) = warm;
    tally.check(&cfg, transfer(ep, &cfg, wan.as_ref(), u64::MAX, parent));
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(secs);
    let mut i = 0;
    while Instant::now() < end {
        let (cfg, wan) = make(i);
        tally.add(&cfg, transfer(ep, &cfg, wan.as_ref(), i, parent));
        i += 1;
    }
    let timed = t0.elapsed().as_secs_f64();
    (tally, timed, (process_cpu() - cpu0).as_secs_f64())
}

fn bulk(arm: Arm, seed: u64, secs: f64, parent: u64) -> io::Result<Outcome> {
    let (ep, setup_s) = setup(parent, |host, _| {
        let support = match arm {
            Arm::Uring => &host.uring,
            Arm::Shm => &host.shm,
            Arm::Inproc | Arm::Tcp => &Ok(()),
        };
        // An arm the host cannot run is absent, never zero.
        if let Err(why) = support {
            let arm = arm.name();
            return Err(io::Error::other(format!(
                "bulk-1m.{arm} is absent on this host: {why}"
            )));
        }
        Endpoint::bind(arm)
    })?;
    let cfg = |s: u64, total: u64| {
        let mut c = LiveConfig::new(MIB as usize, 2, total);
        c.fault_seed = s;
        c
    };
    let warm = (cfg(seed, 64 * MIB), None);
    let (tally, timed_s, cpu_s) = timed_transfers(&ep, warm, secs, parent, |i| {
        (cfg(sub_seed(seed, i), GIB), None)
    });
    Ok(Outcome {
        goodput: tally.rate(),
        tally,
        setup_s,
        timed_s,
        cpu_s,
        daemon: None,
        ceiling: Some(arm),
    })
}

fn wan_lossy(seed: u64, secs: f64, parent: u64) -> io::Result<Outcome> {
    let wan = |s: u64| {
        WanProfile::parse(&format!("{WAN_SPEC},seed={s}")).expect("the WAN spec is well-formed")
    };
    let cfg = |s: u64, total: u64| {
        let mut c = LiveConfig::new(256 << 10, 2, total);
        c.apply_wan(&wan(s));
        c.fault_seed = s;
        c
    };
    let (ep, setup_s) = setup(parent, |_, _| Endpoint::bind(Arm::Tcp))?;
    let warm = (cfg(seed, 16 * MIB), Some(wan(seed)));
    let (tally, timed_s, cpu_s) = timed_transfers(&ep, warm, secs, parent, |i| {
        let s = sub_seed(seed, i);
        (cfg(s, GIB), Some(wan(s)))
    });
    Ok(Outcome {
        goodput: tally.rate(),
        tally,
        setup_s,
        timed_s,
        cpu_s,
        daemon: None,
        ceiling: None,
    })
}

fn daemon_mixed(seed: u64, secs: f64, parent: u64) -> io::Result<Outcome> {
    let (d, setup_s) = setup(parent, |_, sp| daemon::RunningDaemon::start(sp))?;
    let mut m = daemon::mixed(d, seed, secs, parent)?;
    Ok(Outcome {
        goodput: m.bulk,
        tally: std::mem::take(&mut m.tally),
        setup_s,
        timed_s: m.timed_s,
        cpu_s: m.cpu_s,
        daemon: Some(m),
        ceiling: Some(Arm::Tcp),
    })
}

fn print_metric(m: &Metric) {
    let n = m.n.map_or(String::new(), |n| format!(" (n={n})"));
    println!("metric {} = {:.6} {}{n}", m.name, m.value, m.unit);
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    )
}

fn run(args: &Args, w: usize) -> io::Result<()> {
    let (name, workload, why) = WORKLOADS[w];
    println!(
        "perfbench: workload={name} seed={} seconds={} trace={} link=loopback (no real link)",
        args.seed, args.seconds, args.trace as u8
    );
    println!("why: {why}");
    let host = Host::probe();
    let mut layers = Vec::new();
    let mut ceilings = None;
    if args.trace {
        trace::enable();
        let c = probe::ceilings(0)?;
        c.metrics(&mut layers);
        ceilings = Some(c);
        probe::session_probes(&host, 0, &mut layers)?;
    }
    let memcpy = probe::memcpy_gbps(Duration::from_millis(100));
    let ticks0 = CpuTicks::now();
    let (seed, secs) = (args.seed, args.seconds);
    let mut out = trace::span("workload", 0, 0, |sp| match workload {
        Workload::Bulk(arm) => bulk(arm, seed, secs, sp),
        Workload::DaemonMixed => daemon_mixed(seed, secs, sp),
        Workload::WanLossy => wan_lossy(seed, secs, sp),
    })?;
    let steal = match (ticks0, CpuTicks::now()) {
        (Some(a), Some(b)) => a.steal_share(&b),
        _ => 0.0,
    };
    println!("{}", host.line(steal, memcpy));

    let t = &mut out.tally;
    let gb = t.bytes as f64 / 1e9;
    let n_xfer = t.xfer_ms.len();
    let (bytes, wall_s, n) = out.goodput;
    let goodput = bytes as f64 / wall_s.max(1e-9) / 1e9;
    let e2e = vec![
        Metric::new("goodput_gbps", goodput, "GB/s").n(n),
        Metric::new("xfer_ms.p50", t.p(0.5), "ms").n(n_xfer),
        Metric::new("cpu_s_per_gb", out.cpu_s / gb.max(1e-9), "s/GB"),
        Metric::new("rss_peak_mib", rss_peak_mib().unwrap_or(0.0), "MiB"),
        Metric::new("setup_s", median(&mut out.setup_s), "s").n(SETUP_REPS),
    ];
    for m in &e2e {
        print_metric(m);
    }
    let fail_ratio = t.failed as f64 / t.attempted.max(1) as f64;
    println!(
        "fail_ratio = {fail_ratio} ({} of {} transfers; {} returned wrong data); timed {:.3} s, {:.3} GB verified",
        t.failed, t.attempted, t.wrong, out.timed_s, gb
    );

    let metrics = if args.trace {
        t.layer_metrics(&mut layers);
        layers.push(Metric::new("loadgen.xfer_ms.p95", t.p(0.95), "ms").n(n_xfer));
        let mut no_daemon = daemon::Mixed::default();
        out.daemon
            .as_mut()
            .unwrap_or(&mut no_daemon)
            .layer_metrics(&mut layers);
        let c = ceilings.expect("a traced run measures its ceilings first");
        let ceiling = out.ceiling.map_or_else(
            || {
                let wan = WanProfile::parse(WAN_SPEC).expect("the WAN spec is well-formed");
                wan.rate_bps.expect("ani-wan has a rate cap") / 8e9
            },
            |arm| c.of(arm),
        );
        layers.push(Metric::new(
            "goodput.ceiling_share",
            goodput / ceiling,
            "share",
        ));
        layers.push(Metric::new("host.steal_share", steal, "share"));
        let cost = trace::span_cost_ns();
        let (spans, counts) = trace::take();
        layers.push(Metric::new("trace.spans", spans.len() as f64, "count"));
        layers.push(Metric::new(
            "trace.overhead_share",
            spans.len() as f64 * cost / (out.timed_s * 1e9),
            "share",
        ));
        println!("self time by span (count, total ms, self ms):");
        for (name, (n, total, own)) in trace::self_times(&spans) {
            println!(
                "  {name:<14} {n:>6} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = std::path::PathBuf::from(format!("perfbench/out/trace-{name}-{seed}.jsonl"));
        trace::write(&path, &spans, &counts)?;
        println!("trace written to {}", path.display());
        for m in &layers {
            print_metric(m);
        }
        layers
    } else {
        e2e
    };
    let correct = t.wrong == 0 && t.attempted > 0;
    println!("{}", json_line(correct, t.attempted, t.failed, &metrics));
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join("|")
            );
            std::process::exit(2);
        }
    };
    // Watchdog: a hung transfer must not hold the run past its limit.
    // It is never joined; `exit` ends it with the process.
    let limit = WATCHDOG * args.workloads.len() as u32;
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: no result after {limit:?}; giving up");
        std::process::exit(3);
    });
    for &w in &args.workloads {
        if let Err(e) = run(&args, w) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    std::process::exit(0);
}
