//! The live pipeline's shared types, and [`run_live`].
//!
//! A transfer is the split pipeline ([`crate::split`]): a source half
//! (loaders → in-order dispatcher → retransmit watchdog, retiring blocks
//! on the sink's acks) and a sink half (per-channel receivers placing
//! into credited slots → one protocol handler that grants, verifies in
//! order, and coalesces acks and credits), joined only by a
//! [`crate::transport`]. [`run_live`] runs both halves in this process
//! over the in-process channel backend and merges their reports with
//! [`LiveReport::from_halves`]; TCP, io_uring and shm run the same two
//! halves across processes.
//!
//! This module holds what both halves share: [`LiveConfig`],
//! [`LiveReport`] and its [`StageBreakdown`], the storage backends, and
//! the lock-free helpers on the data path — the granted-slot ring
//! ([`CreditSlots`]), the first-placement ledger ([`AtomicBitmap`]), the
//! drop RNG and the wait backoff.

use crate::store::{FileSink, FileSource};
use rftp_core::engine::pattern_seed as engine_pattern_seed;
use rftp_core::wire::{MAX_ACKS_PER_BATCH, MAX_SLOTS_PER_CREDIT_BATCH, PAYLOAD_HEADER_LEN};
use rftp_core::IndexQueue;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

pub(crate) const SESSION: u32 = 1;

/// The symbolic rkey of the sink pool's region (channels address slots
/// directly in this model).
pub(crate) const SINK_RKEY: u64 = 0x11FE;

/// Configuration of one live transfer.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Payload bytes per block.
    pub block_size: usize,
    /// Blocks in each endpoint's pool.
    pub pool_blocks: u32,
    /// Parallel data channels.
    pub channels: usize,
    /// Loader threads at the source.
    pub loaders: usize,
    /// Total payload bytes to move.
    pub total_bytes: u64,
    /// Per-channel queue depth (the "send queue"); also the receivers'
    /// batch-drain limit.
    pub channel_depth: usize,
    /// Credits granted per completion notification (paper: 2).
    pub grant_per_completion: u32,
    pub initial_credits: u32,
    /// Max control entries coalesced per frame: completions per
    /// `AckBatch`, grants per `CreditBatch`. 1 = the unbatched wire
    /// (one `BlockComplete`/`Credits` per event), for comparison runs.
    /// Clamped to the wire maxima.
    pub ctrl_batch: usize,
    /// Max-latency bound on coalescing: a partial control batch waits at
    /// most this long for more entries before it is flushed. Irrelevant
    /// at full throughput (batches fill first); bounds added latency
    /// when the pipeline trickles.
    pub flush_window: std::time::Duration,
    /// Fault injection: probability that a dispatched payload is dropped
    /// on the wire instead of reaching a receiver (0.0 = perfect
    /// fabric). Dropped blocks are recovered by the retransmit watchdog.
    pub fault_drop_p: f64,
    /// Seed for the drop RNG — same seed, same drop pattern.
    pub fault_seed: u64,
    /// A dispatched block still unacked after this long is retransmitted
    /// (the watchdog only runs when `fault_drop_p > 0`). Must comfortably
    /// exceed the pipeline's ack latency or healthy blocks are re-sent.
    pub retx_timeout: std::time::Duration,
    /// Source backend: read blocks from this file instead of filling
    /// pattern data. The file must hold at least `total_bytes`.
    pub src_file: Option<PathBuf>,
    /// Sink backend: `pwrite` placed blocks into this file (created and
    /// pre-sized) instead of checksum-verifying pattern data.
    pub dst_file: Option<PathBuf>,
    /// Open storage with `O_DIRECT` where the filesystem allows it
    /// (silently degrades to buffered I/O + `posix_fadvise` elsewhere).
    pub direct_io: bool,
    /// Model the source device's service rate, bytes/second: block reads
    /// are paced on a shared device timeline so a tmpfs- or page-cache-
    /// backed file behaves like the device a [`rftp_core::StoreConfig`]
    /// profile describes. `None` (default) reads at backing-store speed.
    pub src_rate: Option<f64>,
    /// Read-ahead depth: maximum source blocks in flight (loading →
    /// unacked) at once, i.e. how far the loaders may run ahead of the
    /// network. `0` serializes one block at a time (no disk/network
    /// overlap); `u32::MAX` (the default) lets the loaders fill the
    /// whole pool. Pacing keys off the source pool's free-depth
    /// watermark, so it costs nothing when the pool itself is the bound.
    pub readahead: u32,
    /// Run the adaptive controller: estimate RTT/loss from the live ack
    /// stream (RFC 6298) and derive the coalescing dwell window, the
    /// retransmit deadline, and — with [`LiveConfig::wan_rate_bps`] — a
    /// BDP-based in-flight depth target, instead of trusting the static
    /// `flush_window` / `retx_timeout` / pool-depth defaults that were
    /// tuned for loopback.
    pub adaptive: bool,
    /// Offered path rate in bits/s for the adaptive controller's BDP
    /// math (typically the `--wan` profile's rate cap). `None` disables
    /// the depth target; dwell and RTO still adapt.
    pub wan_rate_bps: Option<f64>,
}

impl LiveConfig {
    pub fn new(block_size: usize, channels: usize, total_bytes: u64) -> LiveConfig {
        LiveConfig {
            block_size,
            pool_blocks: 16,
            channels,
            loaders: 2,
            total_bytes,
            channel_depth: 8,
            grant_per_completion: 2,
            initial_credits: 2,
            ctrl_batch: MAX_ACKS_PER_BATCH,
            // Scale the dwell to the block service time (~block_size at
            // 2 GB/s): small blocks arrive microseconds apart and want a
            // short window; megabyte blocks are hundreds of microseconds
            // apart, and a window shorter than the gap never coalesces.
            // Capped at 1 ms — past that the dwell stops buying frames
            // and starts starving the credit loop (multi-MB blocks).
            flush_window: std::time::Duration::from_nanos(
                (block_size as u64 / 2).clamp(50_000, 1_000_000),
            ),
            fault_drop_p: 0.0,
            fault_seed: 0xFA_017,
            retx_timeout: std::time::Duration::from_millis(100),
            src_file: None,
            dst_file: None,
            direct_io: false,
            src_rate: None,
            readahead: u32::MAX,
            adaptive: false,
            wan_rate_bps: None,
        }
    }

    /// Adopt a storage profile (the same [`rftp_core::StoreConfig`]s the
    /// simulated disk harness consumes): I/O mode, modeled device rate,
    /// and read-ahead depth.
    pub fn apply_store(&mut self, store: &rftp_core::StoreConfig) {
        self.direct_io = store.direct_io;
        self.src_rate = Some(store.rate.bits_per_sec() as f64 / 8.0);
        self.readahead = store.readahead;
    }

    /// Adopt a WAN profile: turn the adaptive controller on, feed it the
    /// path's rate cap, and widen the pool / queues / retransmit deadline
    /// so the BDP target has headroom to converge upward. Static knobs
    /// the caller pinned tighter are only ever widened, never shrunk.
    pub fn apply_wan(&mut self, wan: &rftp_faults::WanProfile) {
        self.adaptive = true;
        self.wan_rate_bps = wan.rate_bps;
        let bdp = wan.bdp_bytes();
        if bdp > 0 {
            // 2× BDP in blocks, so a full window can be in flight while
            // the previous window's acks are still returning.
            let want = ((2 * bdp).div_ceil(self.block_size as u64))
                .clamp(self.pool_blocks as u64, 4096) as u32;
            self.pool_blocks = want;
            self.initial_credits = self.initial_credits.max(want / 2);
            self.channel_depth = self
                .channel_depth
                .max((want as usize).div_ceil(self.channels.max(1)));
        }
        // A fixed 100 ms deadline fires spuriously past ~25 ms RTT; hold
        // a conservative floor until the estimator takes over.
        self.retx_timeout = self.retx_timeout.max(4 * wan.rtt());
    }

    pub(crate) fn total_blocks(&self) -> u64 {
        self.total_bytes.div_ceil(self.block_size as u64)
    }

    pub(crate) fn slot_bytes(&self) -> usize {
        self.block_size + PAYLOAD_HEADER_LEN
    }

    /// Completion entries per `AckBatch` frame.
    pub(crate) fn ack_batch(&self) -> usize {
        self.ctrl_batch.clamp(1, MAX_ACKS_PER_BATCH)
    }

    /// Slots per `CreditBatch` frame.
    pub(crate) fn credit_batch(&self) -> usize {
        self.ctrl_batch.clamp(1, MAX_SLOTS_PER_CREDIT_BATCH)
    }
}

/// Wall-clock nanoseconds per block spent in each pipeline stage, summed
/// across the threads that run the stage (loaders and receivers are
/// pools, so their clocks add).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageBreakdown {
    /// Header encode + pattern fill (or source-file read) at the loaders.
    pub load_ns: f64,
    /// Credit pairing, FSM transitions, and channel send at the dispatcher.
    pub dispatch_ns: f64,
    /// Placement memcpy at the receivers.
    pub place_ns: f64,
    /// Header + checksum verification at the consumer.
    pub verify_ns: f64,
    /// Write-behind `pwrite` to the sink file at the receivers (zero in
    /// pattern mode).
    pub flush_ns: f64,
    /// The dataset-completion `fdatasync`, amortized per block (zero in
    /// pattern mode).
    pub sync_ns: f64,
}

/// Results of a live transfer.
#[derive(Debug, Clone)]
pub struct LiveReport {
    pub bytes: u64,
    pub blocks: u64,
    pub elapsed: std::time::Duration,
    /// Real wall-clock payload throughput, GB/s.
    pub gbytes_per_sec: f64,
    pub checksum_failures: u64,
    /// Blocks that reached the sink ahead of sequence.
    pub ooo_blocks: u64,
    /// Control messages sent (both directions, counted once at the
    /// sender). Coalesced batches count as one message — that is the
    /// point of coalescing.
    pub ctrl_msgs: u64,
    /// Control messages per payload block — the coalescing figure of
    /// merit (< 1 means the control plane is off the per-block path).
    pub ctrl_msgs_per_block: f64,
    pub credit_requests: u64,
    /// Payloads the fault injector dropped on the wire.
    pub dropped_payloads: u64,
    /// Blocks the watchdog re-sent after an ack timeout.
    pub retransmits: u64,
    /// Arrivals the sink discarded as already-placed duplicates (a
    /// retransmit raced a slow ack).
    pub duplicate_payloads: u64,
    /// Per-stage cost of a block, merged from per-thread clocks at join.
    pub stages: StageBreakdown,
    /// Per-stage tail histograms (p50/p99), merged from per-thread
    /// histograms at join. Each half fills its own stages; a merged
    /// in-process report carries all four.
    pub tails: crate::hist::StageTails,
    /// Threads this side ran for the data path itself — per-channel
    /// senders/receivers on stream backends, ring driver(s) on io_uring.
    /// The O(channels) → O(1) collapse is this number.
    pub transport_threads: usize,
    /// Whether storage I/O actually went through `O_DIRECT` (false in
    /// pattern mode, or when the filesystem rejected the flag and the
    /// buffered fallback served the transfer).
    pub direct_io_active: bool,
    /// Ring counters when this side ran on the io_uring backend
    /// (`None` on stream backends).
    pub uring: Option<crate::transport::UringStats>,
    /// Adaptive-controller state at end of run (`None` when the static
    /// configuration ran). The source half reports the ack-loop
    /// estimator; the sink half reports the grant-loop estimator plus
    /// first-block latency.
    pub adapt: Option<rftp_core::AdaptSnapshot>,
}

impl LiveReport {
    /// Merge the source and sink halves of one in-process transfer into
    /// a single report: the source's load/dispatch clocks, credit
    /// requests, drops and retransmits; the sink's placement, verify and
    /// storage clocks, integrity counters and estimator snapshot. The
    /// sink sees every control frame of both directions exactly once (it
    /// sends or receives each one), so its count is the transfer's.
    pub fn from_halves(src: LiveReport, snk: LiveReport) -> LiveReport {
        // Each half starts its clock once its own pool and storage are
        // ready, and both stop together (the source drains its control
        // link until the sink closes it). The shorter clock is therefore
        // the transfer from the moment both halves were set up, so a
        // slow set-up on one side (truncating an existing destination
        // file, say) is not billed to the transfer.
        let elapsed = src.elapsed.min(snk.elapsed);
        LiveReport {
            gbytes_per_sec: snk.bytes as f64 / 1e9 / elapsed.as_secs_f64().max(1e-9),
            elapsed,
            credit_requests: src.credit_requests,
            dropped_payloads: src.dropped_payloads,
            retransmits: src.retransmits,
            stages: StageBreakdown {
                load_ns: src.stages.load_ns,
                dispatch_ns: src.stages.dispatch_ns,
                ..snk.stages
            },
            tails: crate::hist::StageTails {
                load: src.tails.load,
                dispatch: src.tails.dispatch,
                ..snk.tails
            },
            transport_threads: src.transport_threads + snk.transport_threads,
            direct_io_active: src.direct_io_active || snk.direct_io_active,
            uring: snk.uring.or(src.uring),
            adapt: snk.adapt.or(src.adapt),
            ..snk
        }
    }
}

/// Where the loaders get payload bytes.
pub(crate) enum SrcBackend {
    /// Synthetic seeded pattern (the memory-to-memory experiments).
    Pattern,
    /// Aligned block reads from a real file.
    File(FileSource),
}

impl SrcBackend {
    /// Open the backend `cfg` names, validating the source covers the
    /// transfer.
    pub(crate) fn open(cfg: &LiveConfig) -> std::io::Result<SrcBackend> {
        match &cfg.src_file {
            Some(path) => {
                let f = FileSource::open(path, cfg.direct_io)?;
                if f.len() < cfg.total_bytes {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        format!(
                            "source file {} holds {} bytes, transfer wants {}",
                            path.display(),
                            f.len(),
                            cfg.total_bytes
                        ),
                    ));
                }
                Ok(SrcBackend::File(f))
            }
            None => Ok(SrcBackend::Pattern),
        }
    }

    pub(crate) fn direct_active(&self) -> bool {
        matches!(self, SrcBackend::File(f) if f.direct_active())
    }
}

/// Where placed payload goes.
pub(crate) enum SnkBackend {
    /// Checksum-verify the pattern and discard.
    Verify,
    /// Write-behind `pwrite` into a real file at `seq * block_size`.
    File(FileSink),
}

impl SnkBackend {
    pub(crate) fn open(cfg: &LiveConfig) -> std::io::Result<SnkBackend> {
        match &cfg.dst_file {
            Some(path) => Ok(SnkBackend::File(FileSink::create(
                path,
                cfg.total_bytes,
                cfg.direct_io,
            )?)),
            None => Ok(SnkBackend::Verify),
        }
    }

    pub(crate) fn direct_active(&self) -> bool {
        matches!(self, SnkBackend::File(f) if f.direct_active())
    }
}

#[derive(Clone, Copy)]
pub(crate) struct InFlightInfo {
    pub(crate) seq: u32,
    pub(crate) slot: u32,
    pub(crate) len: u32,
    /// When the block last went onto the wire (dispatch or retransmit);
    /// the watchdog re-sends once `retx_timeout` passes without an ack.
    pub(crate) sent_at: Instant,
    /// Wire attempts so far — a runaway count means the recovery loop is
    /// broken, not that the fabric is unlucky.
    pub(crate) attempts: u32,
}

pub(crate) fn pattern_seed(seq: u32) -> u64 {
    engine_pattern_seed(SESSION, seq)
}

/// splitmix64 — the drop RNG. Self-contained so the fault injector adds
/// no dependency to the crate; determinism per seed is all it needs.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One uniform draw in [0, 1); drops fire when it lands below `p`.
pub(crate) fn drop_roll(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Backoff for lock-free waits. Escalates fast to `yield_now`: on a
/// saturated (or single-core) machine the event being waited on is
/// produced by another thread that needs this core, so burning cycles in
/// a spin loop delays the very thing being awaited. A short sleep caps
/// the cost of long waits without adding meaningful wakeup latency.
pub(crate) fn backoff(spins: &mut u32) {
    *spins = spins.saturating_add(1);
    if *spins < 4 {
        std::hint::spin_loop();
    } else if *spins < 64 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}

/// Lock-free source-side credit inventory: granted sink slots in a
/// Vyukov ring (every credit of a pool transfer shares rkey and length,
/// so the slot index is the whole credit), plus the MrRequest debounce
/// flag. The threaded replacement for `Mutex<CreditStock>` + condvar.
pub(crate) struct CreditSlots {
    pub(crate) slots: IndexQueue,
    /// True while an MrRequest is outstanding (at most one at a time).
    pub(crate) request_outstanding: AtomicBool,
}

impl CreditSlots {
    pub(crate) fn new(capacity: u32) -> CreditSlots {
        CreditSlots {
            slots: IndexQueue::new(capacity as usize),
            request_outstanding: AtomicBool::new(false),
        }
    }

    pub(crate) fn deposit(&self, slot: u32) {
        // The protocol bounds outstanding credits to the sink pool size,
        // so the ring can never actually overflow — but a dispatcher
        // preempted mid-pop can make it look transiently full to a
        // lapping deposit. push_must rides that window out.
        self.slots.push_must(slot);
        self.request_outstanding.store(false, Ordering::Release);
    }
}

/// First-placement ledger, one bit per sequence: receivers claim a
/// sequence before placing, so a retransmit that raced a slow ack is
/// discarded instead of overwriting a slot the sink has since freed and
/// re-granted. One bit per block of the whole transfer (the table this
/// replaced spent a mutex per block — 1 byte + state and a pointer-chase
/// per check).
pub(crate) struct AtomicBitmap {
    words: Vec<AtomicU64>,
}

impl AtomicBitmap {
    pub(crate) fn new(bits: u64) -> AtomicBitmap {
        AtomicBitmap {
            words: (0..bits.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Atomically claim bit `i`; true if this caller newly set it.
    pub(crate) fn claim(&self, i: u64) -> bool {
        let mask = 1u64 << (i % 64);
        self.words[(i / 64) as usize].fetch_or(mask, Ordering::AcqRel) & mask == 0
    }
}

/// Run one transfer; blocks until completion and returns the report.
/// Panics on any failure — use [`try_run_live`] to get the error.
pub fn run_live(cfg: &LiveConfig) -> LiveReport {
    try_run_live(cfg).expect("live transfer failed")
}

/// [`run_live`], but failures (missing source file, unwritable
/// destination, short source, a protocol error) come back as `Err`
/// instead of a panic.
pub fn try_run_live(cfg: &LiveConfig) -> std::io::Result<LiveReport> {
    let (src, snk) = crate::split::run_split_pair(cfg)?;
    Ok(LiveReport::from_halves(src, snk))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_live_merges_both_halves() {
        let cfg = LiveConfig::new(64 * 1024, 2, 4 << 20);
        let r = run_live(&cfg);
        assert_eq!(r.blocks, 64);
        assert_eq!(r.bytes, 4 << 20);
        assert_eq!(r.checksum_failures, 0);
        // Source-side stages and sink-side stages both land in the one
        // report, with their tails.
        assert!(r.stages.load_ns > 0.0 && r.stages.dispatch_ns > 0.0);
        assert!(r.stages.place_ns > 0.0 && r.stages.verify_ns > 0.0);
        assert_eq!(r.tails.load.count(), 64);
        assert_eq!(r.tails.verify.count(), 64);
        assert!(r.ctrl_msgs > 0);
        // Channel sink: one receiver per channel plus the control pump.
        assert_eq!(r.transport_threads, 3);
    }

    #[test]
    fn try_run_live_surfaces_storage_errors() {
        let mut cfg = LiveConfig::new(4096, 1, 8192);
        cfg.dst_file = Some(PathBuf::from("/nonexistent-dir/rftp-out.bin"));
        let err = try_run_live(&cfg).expect_err("unwritable destination must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
    }

    #[test]
    fn atomic_bitmap_claims_each_bit_once() {
        let bm = AtomicBitmap::new(130);
        assert!(bm.claim(0));
        assert!(!bm.claim(0));
        assert!(bm.claim(64));
        assert!(bm.claim(129));
        assert!(!bm.claim(64));
        assert!(!bm.claim(129));
        assert!(bm.claim(63));
    }
}
