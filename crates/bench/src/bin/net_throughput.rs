//! Socket-transport throughput gate: the split pipeline over real
//! sockets on loopback, swept across channel count × block size for
//! **both** socket backends — TCP (thread per channel, vectored
//! zero-copy framing) and io_uring (one ring per side, registered
//! buffers, batched completions) — head to head.
//!
//! Emits `BENCH_net.json` with GB/s, control frames per block, mean and
//! p50/p99 per-stage latencies, and the data-path thread count for every
//! sweep point, plus a tuned-vs-default socket-buffer contrast at the
//! gate point. Every best-of series is preceded by one untimed warmup
//! transfer so page-cache, allocator, and TCP window ramp-up don't decide
//! which run wins.
//!
//! The acceptance gates run at 8 channels × 256 KB, best of 3:
//! * **tcp**: an absolute floor well under a healthy run but far above a
//!   regression that re-introduces a copy or a per-block control
//!   round-trip, and ≤ 1 control frame per block;
//! * **uring** (when the kernel supports it): a higher absolute floor,
//!   ≤ 1 control frame per block, a lower mean place-stage latency than
//!   the TCP run next to it, and a data path of O(1) threads per side
//!   where TCP spends O(channels);
//! * **shm** (when the host supports it): at least the TCP run's
//!   throughput, ≤ 1 control frame per block, and a mean place stage at
//!   most [`SHM_PLACE_RATIO`] of the TCP run's (a publication-word check
//!   against a socket read into the slot).
//!
//! `--quick` runs a reduced sweep for CI smoke (no gate); `--gate-only`
//! skips the sweep and runs just the gate head-to-head; `--out PATH`
//! overrides the JSON location.
//!
//! `--wan` switches to the WAN figure instead: the deterministic
//! impairment shim on loopback TCP across the paper's Table I paths
//! (roce-lan, ib-lan, ani-wan), a static knob grid (block × channels ×
//! depth) against the adaptive credit/depth controller per preset.
//! Writes `BENCH_wan.json` and gates: adaptive at least the best static
//! point per preset, at least 2× the worst static point at the 49 ms
//! WAN, zero retransmits on the clean path, and first-block latency
//! under two round trips. `--gate-only` runs the ani-wan preset alone.
//!
//! `--daemon` switches to the multi-session daemon benchmark instead:
//! aggregate throughput and the per-session fairness ratio (min/max
//! session GB/s) at 1, 2, and 4 concurrent sessions through one
//! `rftpd`-style daemon, plus the interactive-under-bulk fairness gate
//! (interactive completion must stay under 2× its solo time while a
//! bulk session saturates the daemon; skipped under `--quick`). Writes
//! `BENCH_net_daemon.json` unless `--out` overrides.
//!
//! `--daemon --transport uring` runs the daemon ladder on the shared
//! ring (ONE ring and ONE driver thread for every admitted session,
//! header-first `READ_FIXED` receive into the leased slots), with TCP
//! for reference. Each scale point's JSON carries the ring counters
//! (`enters`, `cqes`, CQEs/block, buffer registrations) plus the
//! driver-thread count. The full run gates on the shared shape: one
//! driver thread and exactly one buffer registration at 4 sessions,
//! and fairness ≥ 0.9 everywhere.

use rftp_bench::{bs_label, MB};
use rftp_core::AdaptSnapshot;
use rftp_live::net::{connect_source, default_sockbuf, probe_sockbuf, NetListener};
use rftp_live::pipeline::LiveReport;
use rftp_live::{
    accept_source_uring, connect_source_shm, connect_source_uring, run_shm_sink, run_split_sink,
    run_split_source, run_uring_sink, shm_supported, uring_supported, wrap_sink, wrap_source,
    Daemon, DaemonConfig, DaemonReport, DaemonTransport, LiveConfig, ShmListener, UringStats,
    WanProfile,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// TCP gate floor, GB/s, at 8 channels × 256 KB (best of 3, release
/// build). Loopback moved ~1.75 GB/s on the reference machine; a
/// transport that stages an extra copy or serializes the control plane
/// lands well below the floor.
const GATE_FLOOR_GBPS: f64 = 1.0;

/// io_uring gate floor, GB/s, same point. The ring backend saves the
/// per-block syscalls and the per-channel receiver threads; it must
/// clear a higher bar than TCP on the same machine.
const URING_GATE_FLOOR_GBPS: f64 = 2.2;

/// The shm gate's place-latency bound: placement on the zero-copy shm
/// path is a publication-word check, not a copy, so its mean place
/// stage must land at or under this fraction of the TCP run's at the
/// same point (whose placement is a socket read into the slot).
const SHM_PLACE_RATIO: f64 = 0.1;

#[derive(Clone, Copy, PartialEq)]
enum Backend {
    Tcp,
    Uring,
    Shm,
}

impl Backend {
    fn label(self) -> &'static str {
        match self {
            Backend::Tcp => "tcp",
            Backend::Uring => "uring",
            Backend::Shm => "shm",
        }
    }
}

/// Fresh unix socket path for one shm run (loopback's ADDR analogue).
fn shm_sock_path() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "rftp-bench-{}-{}.sock",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One transfer over loopback: source half on a helper thread, sink half
/// here. `sockbuf = 0` leaves the OS socket-buffer defaults.
fn run_net(
    backend: Backend,
    block: u64,
    channels: usize,
    total: u64,
    sockbuf: usize,
) -> (LiveReport, LiveReport) {
    let mut cfg = LiveConfig::new(block as usize, channels, total);
    cfg.pool_blocks = 32;
    cfg.loaders = 4;
    let src_cfg = cfg.clone();
    if backend == Backend::Shm {
        // The shm rung has no TCP listener: a unix control socket
        // carries the memfd window fd; payload never crosses a socket.
        let path = shm_sock_path();
        let listener = ShmListener::bind(&path).expect("bind shm socket");
        let src = std::thread::spawn(move || {
            let t = connect_source_shm(&path, channels).expect("connect shm");
            run_split_source(&src_cfg, t).expect("source half")
        });
        let (sess, first) = listener.accept_session().expect("accept shm");
        let snk = run_shm_sink(&cfg, sess, Some(first)).expect("sink half");
        return (src.join().expect("source thread"), snk);
    }
    let listener = NetListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    match backend {
        Backend::Tcp => {
            let src = std::thread::spawn(move || {
                let t = connect_source(addr, channels, sockbuf).expect("connect");
                run_split_source(&src_cfg, t).expect("source half")
            });
            let (t, first) = listener.accept_session(sockbuf).expect("accept");
            let snk = run_split_sink(&cfg, t, Some(first)).expect("sink half");
            (src.join().expect("source thread"), snk)
        }
        Backend::Uring => {
            let src = std::thread::spawn(move || {
                let t = connect_source_uring(addr, channels, sockbuf).expect("connect");
                run_split_source(&src_cfg, t).expect("source half")
            });
            let (sess, first) = accept_source_uring(&listener, sockbuf).expect("accept");
            let snk = run_uring_sink(&cfg, sess, Some(first)).expect("sink half");
            (src.join().expect("source thread"), snk)
        }
        Backend::Shm => unreachable!("handled above"),
    }
}

/// Best wall-clock run of `n`, after one untimed warmup transfer at the
/// same geometry (reports are from the sink — the receive side clocks
/// the bytes as placed and verified).
fn best_of(
    n: usize,
    backend: Backend,
    block: u64,
    channels: usize,
    total: u64,
    sockbuf: usize,
) -> LiveReport {
    let _warmup = run_net(backend, block, channels, total.min(32 * MB), sockbuf);
    (0..n)
        .map(|_| run_net(backend, block, channels, total, sockbuf).1)
        .max_by(|a, b| a.gbytes_per_sec.total_cmp(&b.gbytes_per_sec))
        .expect("n >= 1")
}

struct Entry {
    backend: Backend,
    block: u64,
    channels: usize,
    tuned: bool,
    gate: bool,
    r: LiveReport,
}

/// The ring counters of a [`UringStats`] as a JSON object (`null` when the
/// run had no ring). `blocks` normalizes the per-block rates the gates
/// read: CQEs/block is the per-block kernel-crossing cost (about two on
/// the header-first receive path: header read, payload read).
fn uring_json(stats: Option<&UringStats>, blocks: u64) -> String {
    match stats {
        None => "null".to_string(),
        Some(s) => format!(
            concat!(
                "{{\"enters\": {}, \"cqes\": {}, ",
                "\"enters_per_block\": {:.4}, \"cqes_per_block\": {:.4}, ",
                "\"registrations\": {}}}"
            ),
            s.enters,
            s.cqes,
            s.enters as f64 / blocks.max(1) as f64,
            s.cqes as f64 / blocks.max(1) as f64,
            s.registrations,
        ),
    }
}

/// The adaptive controller's end-of-run state as a JSON object (`null`
/// for static runs — the knobs were pinned, nothing was estimated).
fn adapt_json(a: Option<&AdaptSnapshot>) -> String {
    match a {
        None => "null".to_string(),
        Some(a) => format!(
            "{{\"srtt_us\": {:.1}, \"rttvar_us\": {:.1}, \"loss_rate\": {:.6}, \
             \"effective_depth\": {}, \"dwell_ns\": {}, \"first_block_us\": {:.1}}}",
            a.srtt_us, a.rttvar_us, a.loss_rate, a.effective_depth, a.dwell_ns, a.first_block_us,
        ),
    }
}

fn json_entry(e: &Entry, total: u64) -> String {
    format!(
        concat!(
            "    {{\"transport\": \"{}\", \"block_size\": {}, \"channels\": {}, ",
            "\"sockbuf\": \"{}\", \"gate\": {}, ",
            "\"total_bytes\": {}, \"gbytes_per_sec\": {:.4}, ",
            "\"ctrl_msgs_per_block\": {:.4}, \"ctrl_msgs\": {}, \"blocks\": {}, ",
            "\"ooo_blocks\": {}, \"transport_threads\": {}, ",
            "\"stage_ns_per_block\": {{\"place\": {:.0}, \"verify\": {:.0}}}, ",
            "\"place_ns\": {{\"p50\": {:.0}, \"p99\": {:.0}}}, ",
            "\"verify_ns\": {{\"p50\": {:.0}, \"p99\": {:.0}}}, ",
            "\"adapt\": {}, \"uring\": {}}}"
        ),
        e.backend.label(),
        e.block,
        e.channels,
        if e.tuned { "tuned" } else { "default" },
        e.gate,
        total,
        e.r.gbytes_per_sec,
        e.r.ctrl_msgs_per_block,
        e.r.ctrl_msgs,
        e.r.blocks,
        e.r.ooo_blocks,
        e.r.transport_threads,
        e.r.stages.place_ns,
        e.r.stages.verify_ns,
        e.r.tails.place.p50(),
        e.r.tails.place.p99(),
        e.r.tails.verify.p50(),
        e.r.tails.verify.p99(),
        adapt_json(e.r.adapt.as_ref()),
        uring_json(e.r.uring.as_ref(), e.r.blocks),
    )
}

fn print_run(tag: &str, r: &LiveReport) {
    println!(
        "  {tag}  {:>6.3} GB/s  {:.2} ctrl/blk  {} ooo  {} thr  \
         place {:.0} ns/blk (p50 {:.0} p99 {:.0})  verify {:.0} ns/blk",
        r.gbytes_per_sec,
        r.ctrl_msgs_per_block,
        r.ooo_blocks,
        r.transport_threads,
        r.stages.place_ns,
        r.tails.place.p50(),
        r.tails.place.p99(),
        r.stages.verify_ns,
    );
}

// ---------------------------------------------------------------------------
// WAN mode: the impairment shim on real TCP, static grid vs adaptive.
// ---------------------------------------------------------------------------

/// Adaptive must clear the *worst* static grid point at the 49 ms WAN by
/// at least this factor — the cost of shipping LAN-tuned knobs to a long
/// path is the whole point of the figure.
const WAN_WORST_STATIC_RATIO: f64 = 2.0;
/// First-block latency bound at the ANI WAN, in round trips: proactive
/// initial credits mean data rides the very next one-way after the
/// handshake, so two RTTs is already generous.
const WAN_FIRST_BLOCK_RTTS: f64 = 2.0;

/// The paper's Table I paths, as bench arms. Every arm runs `drop=0`:
/// the grid measures the protocol's shape against RTT and rate, and the
/// zero-retransmit gate needs a clean path to be meaningful (loss runs
/// live in the e2e tests, where exactly-once is the assertion).
const WAN_PRESETS: &[&str] = &["roce-lan,drop=0", "ib-lan,drop=0", "ani-wan,drop=0"];

/// One transfer over loopback TCP with both endpoints behind the WAN
/// shim — the sink impairs inbound data, the source impairs inbound
/// control, splitting the emulated RTT exactly like a two-process run.
fn run_wan_tcp(wan: &WanProfile, cfg: &LiveConfig) -> (LiveReport, LiveReport) {
    let listener = NetListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let sockbuf = default_sockbuf(cfg.block_size, cfg.channel_depth);
    let src_cfg = cfg.clone();
    let src_wan = wan.clone();
    let channels = cfg.channels;
    let src = std::thread::spawn(move || {
        let t = connect_source(addr, channels, sockbuf).expect("connect");
        let t = wrap_source(t, &src_wan);
        run_split_source(&src_cfg, t).expect("source half")
    });
    let (t, first) = listener.accept_session(sockbuf).expect("accept");
    let t = wrap_sink(t, wan);
    let snk = run_split_sink(cfg, t, Some(first)).expect("sink half");
    (src.join().expect("source thread"), snk)
}

struct WanArm {
    preset: String,
    adaptive: bool,
    block: u64,
    channels: usize,
    depth: u32,
    total: u64,
    src: LiveReport,
    snk: LiveReport,
}

/// One static grid point: every knob pinned, controller off.
fn wan_static_arm(spec: &str, block: u64, channels: usize, depth: u32, total: u64) -> WanArm {
    let wan = WanProfile::parse(spec).expect("preset spec");
    let mut cfg = LiveConfig::new(block as usize, channels, total);
    cfg.pool_blocks = depth;
    let (src, snk) = run_wan_tcp(&wan, &cfg);
    assert_eq!(
        snk.checksum_failures, 0,
        "corruption at {spec} {block}x{channels}"
    );
    WanArm {
        preset: wan.name.clone(),
        adaptive: false,
        block,
        channels,
        depth,
        total,
        src,
        snk,
    }
}

/// The adaptive arm: default config plus [`LiveConfig::apply_wan`] —
/// the controller sizes pool/credits from the profile's BDP up front,
/// then tracks measured RTT at run time. Best of `tries` (after one
/// untimed warmup) so a scheduler hiccup on a fast LAN preset doesn't
/// decide a gate.
fn wan_adaptive_arm(spec: &str, block: u64, channels: usize, total: u64, tries: usize) -> WanArm {
    let wan = WanProfile::parse(spec).expect("preset spec");
    let mut cfg = LiveConfig::new(block as usize, channels, total);
    cfg.apply_wan(&wan);
    let mut warm_cfg = cfg.clone();
    warm_cfg.total_bytes = total.min(8 * MB);
    let _ = run_wan_tcp(&wan, &warm_cfg);
    let (src, snk) = (0..tries)
        .map(|_| run_wan_tcp(&wan, &cfg))
        .max_by(|a, b| a.1.gbytes_per_sec.total_cmp(&b.1.gbytes_per_sec))
        .expect("tries >= 1");
    assert_eq!(snk.checksum_failures, 0, "corruption at {spec} adaptive");
    WanArm {
        preset: wan.name.clone(),
        adaptive: true,
        block,
        channels,
        depth: cfg.pool_blocks,
        total,
        src,
        snk,
    }
}

fn wan_arm_json(a: &WanArm, wan: &WanProfile) -> String {
    format!(
        "    {{\"preset\": \"{}\", \"rtt_us\": {}, \"rate_bps\": {}, \
         \"adaptive\": {}, \"block_size\": {}, \"channels\": {}, \"depth\": {}, \
         \"total_bytes\": {}, \"gbytes_per_sec\": {:.4}, \"blocks\": {}, \
         \"retransmits\": {}, \"duplicate_payloads\": {}, \
         \"source_adapt\": {}, \"sink_adapt\": {}}}",
        a.preset,
        wan.rtt().as_micros(),
        wan.rate_bps
            .map_or("null".to_string(), |r| format!("{r:.0}")),
        a.adaptive,
        a.block,
        a.channels,
        a.depth,
        a.total,
        a.snk.gbytes_per_sec,
        a.snk.blocks,
        a.src.retransmits,
        a.snk.duplicate_payloads,
        adapt_json(a.src.adapt.as_ref()),
        adapt_json(a.snk.adapt.as_ref()),
    )
}

fn print_wan_arm(a: &WanArm) {
    let knobs = if a.adaptive {
        format!(
            "adaptive (pool {}, depth -> {}, dwell {:.0} us, srtt {:.0} us)",
            a.depth,
            a.snk.adapt.as_ref().map_or(0, |s| s.effective_depth),
            a.snk
                .adapt
                .as_ref()
                .map_or(0.0, |s| s.dwell_ns as f64 / 1e3),
            a.snk.adapt.as_ref().map_or(0.0, |s| s.srtt_us),
        )
    } else {
        format!("static depth {:>3}", a.depth)
    };
    println!(
        "  {:>8}  {:>5} x{} ch  {:<18}  {:>8.4} GB/s  {} retx",
        a.preset,
        bs_label(a.block),
        a.channels,
        knobs,
        a.snk.gbytes_per_sec,
        a.src.retransmits,
    );
}

fn run_wan_bench(quick: bool, gate_only: bool, out_path: &str) {
    println!(
        "WAN grid: impairment shim on loopback TCP, static knobs vs adaptive controller{}\n",
        if quick { " (quick)" } else { "" },
    );
    let presets: &[&str] = if gate_only {
        &["ani-wan,drop=0"]
    } else {
        WAN_PRESETS
    };
    // The worst static point at 49 ms is window-bound near 5 MB/s, so
    // its total must stay small for the arm to finish in seconds; the
    // adaptive arm is rate-bound three orders of magnitude higher and
    // gets a total that dwarfs its ramp.
    let (static_total, wan_static_total, adaptive_total) = if quick {
        (16 * MB, 4 * MB, 16 * MB)
    } else {
        (64 * MB, 8 * MB, 96 * MB)
    };
    let mut arms: Vec<WanArm> = Vec::new();
    for spec in presets {
        let wan = WanProfile::parse(spec).expect("preset spec");
        let long_path = wan.rtt() >= Duration::from_millis(1);
        let grid_total = if long_path {
            wan_static_total
        } else {
            static_total
        };
        for &block in &[64 * 1024u64, 256 * 1024] {
            for &channels in &[1usize, 4] {
                for &depth in &[4u32, 16] {
                    let a = wan_static_arm(spec, block, channels, depth, grid_total);
                    print_wan_arm(&a);
                    arms.push(a);
                }
            }
        }
        let a = wan_adaptive_arm(spec, 256 * 1024, 4, adaptive_total, 3);
        print_wan_arm(&a);
        arms.push(a);
    }

    // Gates, from the grid itself.
    let best_static_arm = |name: &str| {
        arms.iter()
            .filter(|a| !a.adaptive && a.preset == name)
            .max_by(|a, b| a.snk.gbytes_per_sec.total_cmp(&b.snk.gbytes_per_sec))
            .expect("static grid per preset")
    };
    let worst_static = |name: &str| {
        arms.iter()
            .filter(|a| !a.adaptive && a.preset == name)
            .map(|a| a.snk.gbytes_per_sec)
            .fold(f64::MAX, f64::min)
    };
    let mut gate_ok = true;
    let mut vs_best_json = Vec::new();
    for spec in presets {
        let wan = WanProfile::parse(spec).expect("preset spec");
        let name = wan.name.clone();
        let adaptive = arms
            .iter()
            .find(|a| a.adaptive && a.preset == name)
            .expect("adaptive arm per preset");
        let best_arm = best_static_arm(&name);
        let worst = worst_static(&name);
        let mut adaptive_gbps = adaptive.snk.gbytes_per_sec;
        let mut best = best_arm.snk.gbytes_per_sec;
        // Sub-millisecond presets are CPU-noise-limited on loopback and
        // the two arms run near parity (the depth clamp deliberately
        // disengages there) — and the "best static" is the max over 12
        // single noisy runs, a winner's-curse overestimate. If the
        // first comparison loses there, decide by paired back-to-back
        // re-measures of exactly the contested pair (same methodology
        // as the daemon bench's near-parity aggregate gate). The 49 ms
        // preset is RTT-bound arithmetic and never re-measured.
        let mut remeasured = false;
        if wan.rtt() < Duration::from_millis(1) && adaptive_gbps < best {
            remeasured = true;
            let (b, c, d, t) = (
                best_arm.block,
                best_arm.channels,
                best_arm.depth,
                best_arm.total,
            );
            let at = adaptive.total;
            for _ in 0..2 {
                let s = wan_static_arm(spec, b, c, d, t);
                let a = wan_adaptive_arm(spec, 256 * 1024, 4, at, 1);
                best = best.max(s.snk.gbytes_per_sec);
                adaptive_gbps = adaptive_gbps.max(a.snk.gbytes_per_sec);
            }
        }
        let pass = adaptive_gbps >= best;
        println!(
            "\n  gate {name}: adaptive {adaptive_gbps:.4} GB/s vs best static {best:.4}{}  [{}]",
            if remeasured {
                " (paired re-measure)"
            } else {
                ""
            },
            if pass { "ok" } else { "FAIL" }
        );
        gate_ok &= pass;
        vs_best_json.push(format!(
            "{{\"preset\": \"{name}\", \"adaptive_gbps\": {adaptive_gbps:.4}, \
             \"best_static_gbps\": {best:.4}, \"worst_static_gbps\": {worst:.4}, \
             \"paired_remeasure\": {remeasured}, \"pass\": {pass}}}"
        ));
    }
    // The 49 ms-specific gates: LAN-tuned knobs must cost >= 2x against
    // adaptive, a clean path must recover nothing, and the first block
    // must land within two round trips of session start.
    let ani = arms
        .iter()
        .find(|a| a.adaptive && a.preset == "ani-wan")
        .expect("ani-wan adaptive arm");
    let ani_rtt_us = WanProfile::ani_wan().rtt().as_micros() as f64;
    let worst = worst_static("ani-wan");
    let worst_ratio = ani.snk.gbytes_per_sec / worst;
    let ratio_pass = worst_ratio >= WAN_WORST_STATIC_RATIO;
    let retx_pass = ani.src.retransmits == 0 && ani.snk.duplicate_payloads == 0;
    let first_us = ani
        .snk
        .adapt
        .as_ref()
        .map_or(f64::MAX, |s| s.first_block_us);
    let first_bound_us = WAN_FIRST_BLOCK_RTTS * ani_rtt_us;
    let first_pass = first_us > 0.0 && first_us < first_bound_us;
    println!(
        "  gate ani-wan: {worst_ratio:.1}x worst static (bound {WAN_WORST_STATIC_RATIO}x)  [{}]",
        if ratio_pass { "ok" } else { "FAIL" }
    );
    println!(
        "  gate ani-wan: {} retransmits, {} duplicates on a clean path  [{}]",
        ani.src.retransmits,
        ani.snk.duplicate_payloads,
        if retx_pass { "ok" } else { "FAIL" }
    );
    println!(
        "  gate ani-wan: first block at {:.1} ms vs bound {:.1} ms ({WAN_FIRST_BLOCK_RTTS} RTT)  [{}]",
        first_us / 1e3,
        first_bound_us / 1e3,
        if first_pass { "ok" } else { "FAIL" }
    );
    gate_ok &= ratio_pass && retx_pass && first_pass;

    let body: Vec<String> = arms
        .iter()
        .map(|a| {
            let spec = presets
                .iter()
                .find(|s| WanProfile::parse(s).unwrap().name == a.preset)
                .expect("arm preset in list");
            wan_arm_json(a, &WanProfile::parse(spec).unwrap())
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"net_throughput\",\n  \"mode\": \"wan\",\n  \
         \"quick\": {},\n  \"wire\": \"loopback+netem-shim\",\n  \
         \"presets\": [{}],\n  \
         \"results\": [\n{}\n  ],\n  \"gates\": {{\n    \
         \"adaptive_vs_best_static\": [{}],\n    \
         \"ani_worst_static_ratio\": {{\"ratio\": {:.2}, \"bound\": {WAN_WORST_STATIC_RATIO}, \"pass\": {}}},\n    \
         \"ani_clean_zero_retransmits\": {{\"retransmits\": {}, \"duplicates\": {}, \"pass\": {}}},\n    \
         \"ani_first_block\": {{\"first_block_us\": {:.1}, \"bound_us\": {:.1}, \"pass\": {}}}\n  }}\n}}\n",
        quick,
        presets
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", "),
        body.join(",\n"),
        vs_best_json.join(", "),
        worst_ratio,
        ratio_pass,
        ani.src.retransmits,
        ani.snk.duplicate_payloads,
        retx_pass,
        first_us,
        first_bound_us,
        first_pass,
    );
    std::fs::write(out_path, json).expect("write wan bench JSON");
    println!("\nwrote {out_path}");
    if !gate_ok && !quick {
        eprintln!("WAN adaptive gate FAILED");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// Daemon mode: many sessions through one shared arena.
// ---------------------------------------------------------------------------

/// The interactive-under-bulk gate bound: while a bulk session
/// saturates the daemon, an interactive session must complete in at
/// most this multiple of its solo time. The weighted-fair arbiter is
/// what holds this — without it, bulk's outstanding credits would eat
/// the whole budget.
const FAIRNESS_GATE_RATIO: f64 = 2.0;

fn daemon_cfg(transport: DaemonTransport) -> DaemonConfig {
    DaemonConfig {
        transport,
        slot_cap: 256 * 1024,
        arena_slots: 32,
        session_slots: 8,
        max_sessions: 8,
        credit_budget: 32,
        interactive_cutoff: 32 * MB,
        interactive_weight: 8,
        ..DaemonConfig::default()
    }
}

/// Where a running daemon can be reached: its TCP address always, plus
/// the unix socket path of its shm endpoint when one is configured.
#[derive(Clone)]
struct Target {
    addr: std::net::SocketAddr,
    shm: Option<PathBuf>,
}

/// Start a daemon, run `f` against its address(es), then drain it. The
/// daemon's own report rides along — it carries the shared-ring
/// counters and the per-session sink reports the JSON needs. A
/// [`Backend::Shm`] ladder runs the TCP daemon with an shm endpoint:
/// sessions arrive over the unix socket and place into the shared slab.
fn with_daemon<T>(backend: Backend, f: impl FnOnce(Target) -> T) -> (T, DaemonReport) {
    let transport = match backend {
        Backend::Uring => DaemonTransport::Uring,
        Backend::Tcp | Backend::Shm => DaemonTransport::Tcp,
    };
    let shm = (backend == Backend::Shm).then(shm_sock_path);
    let cfg = DaemonConfig {
        shm_path: shm.clone(),
        ..daemon_cfg(transport)
    };
    let d = Daemon::bind("127.0.0.1:0", cfg).expect("bind daemon");
    let addr = d.local_addr().unwrap();
    let handle = d.handle();
    let jh = std::thread::spawn(move || d.run());
    let out = f(Target { addr, shm });
    handle.shutdown();
    let report = jh.join().expect("daemon thread").expect("daemon report");
    (out, report)
}

/// One source session against a running daemon; the client-side report
/// carries its throughput.
fn daemon_client(
    backend: Backend,
    target: &Target,
    block: u64,
    channels: usize,
    total: u64,
) -> LiveReport {
    let mut cfg = LiveConfig::new(block as usize, channels, total);
    cfg.pool_blocks = 8;
    let sockbuf = default_sockbuf(cfg.block_size, cfg.channel_depth);
    let t = match backend {
        Backend::Tcp => connect_source(target.addr, channels, sockbuf).expect("connect to daemon"),
        Backend::Uring => {
            connect_source_uring(target.addr, channels, sockbuf).expect("connect to daemon")
        }
        Backend::Shm => {
            let path = target.shm.as_ref().expect("shm ladder sets the path");
            connect_source_shm(path, channels).expect("connect to daemon shm endpoint")
        }
    };
    run_split_source(&cfg, t).expect("daemon session")
}

struct ScalePoint {
    sessions: usize,
    aggregate_gbps: f64,
    fairness: f64,
    per_session_gbps: Vec<f64>,
    /// Sink-side data-path threads across all sessions (TCP spends
    /// one per channel per session; uring one for the whole daemon).
    data_path_threads: u64,
    /// Threads driving the shared ring: 1 for uring, 0 for TCP.
    driver_threads: u64,
    blocks: u64,
    /// The daemon's shared-ring counters (uring only).
    uring: Option<UringStats>,
}

/// `n` equal sessions concurrently; aggregate GB/s over the whole wall
/// clock and the min/max per-session throughput ratio (1.0 = perfectly
/// fair).
fn daemon_scale_point(backend: Backend, n: usize, per_session_bytes: u64) -> ScalePoint {
    let (reports, daemon) = with_daemon(backend, |target| {
        let t0 = Instant::now();
        let joins: Vec<_> = (0..n)
            .map(|_| {
                let target = target.clone();
                std::thread::spawn(move || {
                    daemon_client(backend, &target, 256 * 1024, 2, per_session_bytes)
                })
            })
            .collect();
        let out: Vec<LiveReport> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        (out, t0.elapsed())
    });
    let (reports, wall) = reports;
    let wall = wall.as_secs_f64();
    let per: Vec<f64> = reports.iter().map(|r| r.gbytes_per_sec).collect();
    let (lo, hi) = per
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &g| (lo.min(g), hi.max(g)));
    let sinks: Vec<&LiveReport> = daemon
        .sessions
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .collect();
    assert_eq!(sinks.len(), n, "every session must complete cleanly");
    // Every shared-mode session reports `transport_threads == 1` — the
    // SAME thread, the daemon's one driver — so the daemon-wide count
    // is 1, not the sum.
    let data_path_threads = if daemon.uring.is_some() {
        1
    } else {
        sinks.iter().map(|r| r.transport_threads as u64).sum()
    };
    let blocks: u64 = sinks.iter().map(|r| r.blocks).sum();
    let driver_threads = u64::from(daemon.uring.is_some());
    ScalePoint {
        sessions: n,
        aggregate_gbps: (n as u64 * per_session_bytes) as f64 / 1e9 / wall,
        fairness: if hi > 0.0 { lo / hi } else { 0.0 },
        per_session_gbps: per,
        data_path_threads,
        driver_threads,
        blocks,
        uring: daemon.uring,
    }
}

struct FairnessGate {
    solo: Duration,
    contended: Duration,
    bulk_overlapped: bool,
    pass: bool,
}

/// Interactive-under-bulk: time a small session solo, then again while
/// a bulk session is mid-flight. The arbiter must keep the contended
/// run under [`FAIRNESS_GATE_RATIO`] × solo. Both sides take the best
/// of three trials — the interactive session finishes in tens of
/// milliseconds, so a single sample is at the mercy of the host
/// scheduler; the minimum is what the credit arbiter actually
/// guarantees.
/// Loopback contention at this margin is noisy across daemon
/// instances, not just across transfers — like the single-session
/// throughput gate, take the best of three independent instances and
/// stop early on a pass.
fn daemon_fairness_gate(backend: Backend, bulk_bytes: u64, interactive_bytes: u64) -> FairnessGate {
    let ratio = |g: &FairnessGate| {
        if g.bulk_overlapped {
            g.contended.as_secs_f64() / g.solo.as_secs_f64()
        } else {
            f64::MAX
        }
    };
    let mut best: Option<FairnessGate> = None;
    for _ in 0..3 {
        let g = daemon_fairness_gate_once(backend, bulk_bytes, interactive_bytes);
        if g.pass {
            return g;
        }
        if best.as_ref().is_none_or(|b| ratio(&g) < ratio(b)) {
            best = Some(g);
        }
    }
    best.expect("at least one fairness attempt")
}

fn daemon_fairness_gate_once(
    backend: Backend,
    bulk_bytes: u64,
    interactive_bytes: u64,
) -> FairnessGate {
    const TRIALS: usize = 3;
    with_daemon(backend, |target| {
        // Warm, then time the interactive session with the daemon idle.
        daemon_client(backend, &target, 64 * 1024, 2, interactive_bytes);
        let solo = (0..TRIALS)
            .map(|_| {
                let t0 = Instant::now();
                daemon_client(backend, &target, 64 * 1024, 2, interactive_bytes);
                t0.elapsed()
            })
            .min()
            .unwrap();

        let bulk = {
            let target = target.clone();
            std::thread::spawn(move || daemon_client(backend, &target, 256 * 1024, 2, bulk_bytes))
        };
        std::thread::sleep(Duration::from_millis(100));
        let mut contended = Duration::MAX;
        let mut bulk_overlapped = false;
        for _ in 0..TRIALS {
            // Only trials that start while bulk is still mid-flight
            // measure contention; once bulk drains, stop sampling.
            if bulk.is_finished() {
                break;
            }
            let t1 = Instant::now();
            daemon_client(backend, &target, 64 * 1024, 2, interactive_bytes);
            contended = contended.min(t1.elapsed());
            bulk_overlapped = true;
        }
        bulk.join().unwrap();

        let pass =
            bulk_overlapped && contended.as_secs_f64() <= solo.as_secs_f64() * FAIRNESS_GATE_RATIO;
        FairnessGate {
            solo,
            contended,
            bulk_overlapped,
            pass,
        }
    })
    .0
}

/// One JSON line per scale point, including the ring counters and the
/// thread shape — the head-to-head evidence for the shared-ring design.
fn scale_json(p: &ScalePoint) -> String {
    format!(
        "    {{\"sessions\": {}, \"aggregate_gbytes_per_sec\": {:.4}, \
         \"fairness_min_over_max\": {:.4}, \"per_session_gbytes_per_sec\": [{}], \
         \"data_path_threads\": {}, \"driver_threads\": {}, \"blocks\": {}, \
         \"uring\": {}}}",
        p.sessions,
        p.aggregate_gbps,
        p.fairness,
        p.per_session_gbps
            .iter()
            .map(|g| format!("{g:.4}"))
            .collect::<Vec<_>>()
            .join(", "),
        p.data_path_threads,
        p.driver_threads,
        p.blocks,
        uring_json(p.uring.as_ref(), p.blocks),
    )
}

fn print_scale(label: &str, p: &ScalePoint) {
    println!(
        "  {label} {} session(s): {:>6.3} GB/s aggregate, fairness {:.3}, \
         {} driver thr, {:.3} CQEs/blk (per-session: {})",
        p.sessions,
        p.aggregate_gbps,
        p.fairness,
        p.driver_threads,
        p.uring
            .as_ref()
            .map_or(0.0, |s| s.cqes as f64 / p.blocks.max(1) as f64),
        p.per_session_gbps
            .iter()
            .map(|g| format!("{g:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
}

/// Run the 1/2/4-session scaling ladder for one daemon shape.
fn scale_ladder(backend: Backend, label: &str, per_session: u64) -> Vec<ScalePoint> {
    let mut points = Vec::new();
    for n in [1usize, 2, 4] {
        let p = daemon_scale_point(backend, n, per_session);
        print_scale(label, &p);
        points.push(p);
    }
    points
}

fn run_daemon_bench(backend: Backend, quick: bool, out_path: &str) {
    let per_session = if quick { 16 * MB } else { 128 * MB };
    println!(
        "daemon scaling ({}): {} MB per session through one shared arena{}\n",
        backend.label(),
        per_session / MB,
        if quick { " (quick)" } else { "" },
    );

    // The requested transport's ladder; for uring (the ONE shared
    // ring) and shm (zero-copy sessions through the daemon's memfd
    // slab), TCP runs beside it as the reference ladder.
    let (points, tcp_ref) = match backend {
        Backend::Tcp => (
            scale_ladder(Backend::Tcp, "tcp          ", per_session),
            None,
        ),
        Backend::Uring => {
            let shared = scale_ladder(Backend::Uring, "uring shared ", per_session);
            let tcp = scale_ladder(Backend::Tcp, "tcp          ", per_session);
            (shared, Some(tcp))
        }
        Backend::Shm => {
            let shm = scale_ladder(Backend::Shm, "shm          ", per_session);
            let tcp = scale_ladder(Backend::Tcp, "tcp          ", per_session);
            (shm, Some(tcp))
        }
    };

    let gate = if quick {
        None
    } else {
        let g = daemon_fairness_gate(backend, 512 * MB, 16 * MB);
        println!(
            "\n  fairness gate: interactive {:.1} ms solo, {:.1} ms under bulk \
             (bound {FAIRNESS_GATE_RATIO}x, bulk overlapped: {})  [{}]",
            g.solo.as_secs_f64() * 1e3,
            g.contended.as_secs_f64() * 1e3,
            g.bulk_overlapped,
            if g.pass { "ok" } else { "FAIL" }
        );
        Some(g)
    };

    // Shared-ring gates (uring, full run): the whole daemon's data path
    // on ONE driver thread, registration exactly once, and per-session
    // fairness >= 0.9.
    let mut shape_ok = true;
    let mut shape_json = "null".to_string();
    if backend == Backend::Uring && !quick {
        let last = points.last().expect("scale points");
        let stats = last.uring.as_ref().expect("shared driver stats");
        let one_driver = last.driver_threads == 1 && last.data_path_threads == 1;
        let one_reg = stats.registrations == 1;
        let min_fair = points.iter().map(|p| p.fairness).fold(f64::MAX, f64::min);
        shape_ok = one_driver && one_reg && min_fair >= 0.9;
        println!(
            "\n  shared-ring gate @4 sessions: {} driver thread(s), {} registration(s), \
             min fairness {:.3}  [{}]",
            last.driver_threads,
            stats.registrations,
            min_fair,
            if shape_ok { "ok" } else { "FAIL" }
        );
        shape_json = format!(
            "{{\"driver_threads\": {}, \"registrations\": {}, \"min_fairness\": {:.4}, \
             \"fairness_bound\": 0.9, \"pass\": {}}}",
            last.driver_threads, stats.registrations, min_fair, shape_ok
        );
    }

    let ladder_json =
        |pts: &[ScalePoint]| pts.iter().map(scale_json).collect::<Vec<_>>().join(",\n");
    let gate_json = match &gate {
        None => "null".to_string(),
        Some(g) => format!(
            "{{\"interactive_solo_ms\": {:.3}, \"interactive_under_bulk_ms\": {:.3}, \
             \"bound_ratio\": {FAIRNESS_GATE_RATIO}, \"bulk_overlapped\": {}, \"pass\": {}}}",
            g.solo.as_secs_f64() * 1e3,
            g.contended.as_secs_f64() * 1e3,
            g.bulk_overlapped,
            g.pass
        ),
    };
    let cfg = daemon_cfg(DaemonTransport::Tcp);
    let mut extra = String::new();
    if let Some(t) = &tcp_ref {
        extra.push_str(&format!(",\n  \"scaling_tcp\": [\n{}\n  ]", ladder_json(t)));
    }
    let json = format!(
        "{{\n  \"bench\": \"net_throughput\",\n  \"mode\": \"daemon\",\n  \
         \"transport\": \"{}\",\n  \
         \"quick\": {},\n  \"wire\": \"loopback\",\n  \
         \"per_session_bytes\": {},\n  \"arena_slots\": {},\n  \
         \"session_slots\": {},\n  \"credit_budget\": {},\n  \
         \"scaling\": [\n{}\n  ]{},\n  \"fairness_gate\": {},\n  \
         \"shared_ring_gate\": {}\n}}\n",
        backend.label(),
        quick,
        per_session,
        cfg.arena_slots,
        cfg.session_slots,
        cfg.credit_budget,
        ladder_json(&points),
        extra,
        gate_json,
        shape_json,
    );
    std::fs::write(out_path, json).expect("write daemon bench JSON");
    println!("\nwrote {out_path}");
    if gate.as_ref().is_some_and(|g| !g.pass) {
        eprintln!("daemon fairness gate FAILED");
        std::process::exit(1);
    }
    if !shape_ok {
        eprintln!("daemon shared-ring gate FAILED");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate_only = args.iter().any(|a| a == "--gate-only");
    let daemon_mode = args.iter().any(|a| a == "--daemon");
    let wan_mode = args.iter().any(|a| a == "--wan");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            if daemon_mode {
                "BENCH_net_daemon.json".to_string()
            } else if wan_mode {
                "BENCH_wan.json".to_string()
            } else {
                "BENCH_net.json".to_string()
            }
        });
    if wan_mode {
        run_wan_bench(quick, gate_only, &out_path);
        return;
    }
    if daemon_mode {
        let backend = match args
            .iter()
            .position(|a| a == "--transport")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
        {
            None | Some("tcp") => Backend::Tcp,
            Some("uring") => {
                assert!(
                    uring_supported(),
                    "--transport uring: kernel lacks io_uring"
                );
                Backend::Uring
            }
            Some("shm") => {
                assert!(shm_supported(), "--transport shm: host lacks shm transport");
                Backend::Shm
            }
            Some(other) => panic!("bad --transport {other} (tcp, uring, or shm)"),
        };
        run_daemon_bench(backend, quick, &out_path);
        return;
    }
    let total = if quick { 32 * MB } else { 256 * MB };
    let blocks: &[u64] = if quick {
        &[64 * 1024, 256 * 1024]
    } else {
        &[64 * 1024, 256 * 1024, 1024 * 1024]
    };
    let channel_sweep: &[usize] = if quick { &[1, 8] } else { &[1, 2, 4, 8] };
    let depth = LiveConfig::new(1, 1, 1).channel_depth;
    let uring = uring_supported();
    let shm = shm_supported();
    let mut ladder = vec![Backend::Tcp];
    if uring {
        ladder.push(Backend::Uring);
    }
    if shm {
        ladder.push(Backend::Shm);
    }
    let backends: &[Backend] = &ladder;

    println!(
        "loopback sweep: {} MB per run{}, ladder: {}\n",
        total / MB,
        if quick { " (quick)" } else { "" },
        backends
            .iter()
            .map(|b| b.label())
            .collect::<Vec<_>>()
            .join(" vs "),
    );
    let mut entries: Vec<Entry> = Vec::new();
    let sweep_blocks: &[u64] = if gate_only { &[] } else { blocks };
    for &block in sweep_blocks {
        for &channels in channel_sweep {
            let sockbuf = default_sockbuf(block as usize, depth);
            for &backend in backends {
                let r = best_of(1, backend, block, channels, total, sockbuf);
                assert_eq!(r.checksum_failures, 0, "corruption at {block}x{channels}");
                print_run(
                    &format!(
                        "{:>5} x{} ch  {:<5}",
                        bs_label(block),
                        channels,
                        backend.label()
                    ),
                    &r,
                );
                entries.push(Entry {
                    backend,
                    block,
                    channels,
                    tuned: true,
                    gate: false,
                    r,
                });
            }
        }
    }

    // Socket-buffer contrast at the gate point: the same transfer with
    // the kernel's default buffers. On loopback the defaults are often
    // adequate (the "wire" has no bandwidth-delay product); the contrast
    // is in the JSON so WAN runs have a local reference.
    let gate_block: u64 = 256 * 1024;
    if !gate_only {
        let r = best_of(1, Backend::Tcp, gate_block, 8, total, 0);
        assert_eq!(r.checksum_failures, 0);
        println!();
        print_run(
            &format!("{:>5} x8 ch  tcp   (OS sockbuf)", bs_label(gate_block)),
            &r,
        );
        entries.push(Entry {
            backend: Backend::Tcp,
            block: gate_block,
            channels: 8,
            tuned: false,
            gate: false,
            r,
        });
    }

    // The gates: best of 3 at 8 × 256 KB with tuned buffers, tcp first,
    // then uring head to head against it.
    let mut gate_ok = true;
    if !quick {
        let sockbuf = default_sockbuf(gate_block as usize, depth);
        let tcp_best = best_of(3, Backend::Tcp, gate_block, 8, total, sockbuf);
        assert_eq!(tcp_best.checksum_failures, 0);
        let tcp_pass =
            tcp_best.gbytes_per_sec >= GATE_FLOOR_GBPS && tcp_best.ctrl_msgs_per_block <= 1.0;
        println!(
            "\n  gate {:>5} x8 tcp   (best of 3): {:.3} GB/s vs floor {:.1}, {:.2} ctrl/blk  [{}]",
            bs_label(gate_block),
            tcp_best.gbytes_per_sec,
            GATE_FLOOR_GBPS,
            tcp_best.ctrl_msgs_per_block,
            if tcp_pass { "ok" } else { "FAIL" }
        );
        gate_ok = tcp_pass;

        if uring {
            let ur_best = best_of(3, Backend::Uring, gate_block, 8, total, sockbuf);
            assert_eq!(ur_best.checksum_failures, 0);
            let faster_place = ur_best.stages.place_ns < tcp_best.stages.place_ns;
            let cqes_per_block = ur_best
                .uring
                .map_or(f64::NAN, |s| s.cqes as f64 / ur_best.blocks.max(1) as f64);
            let ur_pass = ur_best.gbytes_per_sec >= URING_GATE_FLOOR_GBPS
                && ur_best.ctrl_msgs_per_block <= 1.0
                && faster_place;
            println!(
                "  gate {:>5} x8 uring (best of 3): {:.3} GB/s vs floor {:.1}, {:.2} ctrl/blk, \
                 {:.3} CQEs/blk, place {:.0} vs tcp {:.0} ns/blk, \
                 {} vs {} data-path threads  [{}]",
                bs_label(gate_block),
                ur_best.gbytes_per_sec,
                URING_GATE_FLOOR_GBPS,
                ur_best.ctrl_msgs_per_block,
                cqes_per_block,
                ur_best.stages.place_ns,
                tcp_best.stages.place_ns,
                ur_best.transport_threads,
                tcp_best.transport_threads,
                if ur_pass { "ok" } else { "FAIL" }
            );
            gate_ok = gate_ok && ur_pass;
            entries.push(Entry {
                backend: Backend::Uring,
                block: gate_block,
                channels: 8,
                tuned: true,
                gate: true,
                r: ur_best,
            });
        }

        // The shm gate: zero receiver copies must beat the copying TCP
        // path outright on aggregate throughput, keep the 1-control-
        // frame-per-block discipline, and place in at most a tenth of
        // the TCP run's per-block place stage (a word check vs a socket
        // read into the slot).
        if shm {
            let shm_best = best_of(3, Backend::Shm, gate_block, 8, total, 0);
            assert_eq!(shm_best.checksum_failures, 0);
            let vs_tcp = shm_best.gbytes_per_sec >= tcp_best.gbytes_per_sec;
            let place_ok = shm_best.stages.place_ns <= tcp_best.stages.place_ns * SHM_PLACE_RATIO;
            let shm_pass = vs_tcp && shm_best.ctrl_msgs_per_block <= 1.0 && place_ok;
            println!(
                "  gate {:>5} x8 shm   (best of 3): {:.3} GB/s vs tcp {:.3}, \
                 {:.2} ctrl/blk, place {:.0} ns/blk vs tcp {:.0} \
                 (bound {SHM_PLACE_RATIO}x)  [{}]",
                bs_label(gate_block),
                shm_best.gbytes_per_sec,
                tcp_best.gbytes_per_sec,
                shm_best.ctrl_msgs_per_block,
                shm_best.stages.place_ns,
                tcp_best.stages.place_ns,
                if shm_pass { "ok" } else { "FAIL" }
            );
            gate_ok = gate_ok && shm_pass;
            entries.push(Entry {
                backend: Backend::Shm,
                block: gate_block,
                channels: 8,
                tuned: true,
                gate: true,
                r: shm_best,
            });
        }
        entries.push(Entry {
            backend: Backend::Tcp,
            block: gate_block,
            channels: 8,
            tuned: true,
            gate: true,
            r: tcp_best,
        });
    }

    // Requested-vs-effective socket buffers at the gate point: the
    // kernel reports back what `setsockopt` actually took (doubled for
    // bookkeeping on Linux, clamped by `net.core.{w,r}mem_max`), so a
    // WAN reader can see whether this host honored the tuning.
    let gate_sockbuf = default_sockbuf(gate_block as usize, depth);
    let sockbuf_json = match probe_sockbuf(gate_sockbuf) {
        Ok(Some(e)) => format!(
            "{{\"requested\": {}, \"effective_sndbuf\": {}, \
             \"effective_rcvbuf\": {}, \"clamped\": {}}}",
            e.requested,
            e.sndbuf,
            e.rcvbuf,
            e.clamped()
        ),
        _ => "null".to_string(),
    };

    let body: Vec<String> = entries.iter().map(|e| json_entry(e, total)).collect();
    let json = format!(
        "{{\n  \"bench\": \"net_throughput\",\n  \"quick\": {},\n  \
         \"wire\": \"loopback\",\n  \"uring_supported\": {},\n  \
         \"shm_supported\": {},\n  \
         \"total_bytes_per_run\": {},\n  \
         \"pool_blocks\": 32,\n  \"loaders\": 4,\n  \"gate_floor_gbps\": {},\n  \
         \"uring_gate_floor_gbps\": {},\n  \"shm_place_ratio_bound\": {},\n  \
         \"sockbuf_effective\": {},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        quick,
        uring,
        shm,
        total,
        GATE_FLOOR_GBPS,
        URING_GATE_FLOOR_GBPS,
        SHM_PLACE_RATIO,
        sockbuf_json,
        body.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write BENCH_net.json");
    println!("\nwrote {out_path}");
    if !gate_ok {
        eprintln!("net throughput gate FAILED");
        std::process::exit(1);
    }
}
