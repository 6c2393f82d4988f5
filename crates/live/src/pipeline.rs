//! The native-thread transfer pipeline.
//!
//! Thread topology (arrows are bounded crossbeam channels):
//!
//! ```text
//!  SOURCE                                      SINK
//!  loaders ──▶ dispatcher ══ data[ch] ══▶ receivers ─┐ (placement memcpy)
//!     ▲            │                                 │ ack batches
//!     └── completion ◀────────────────────────────────┘
//!            │ AckBatch (coalesced ctrl)
//!            ▼
//!        sink events ───────────▶ sink-ctrl ──▶ consumer (verify, free)
//!        ctrl k→s  ◀─ CreditBatch ──┴──────────────┘
//! ```
//!
//! The control channels carry the *real* Fig. 7(a) encodings; payload
//! buffers carry the *real* Fig. 7(b) header plus pattern data, verified
//! at the sink. Pools, credit policy, and the reorder buffer are the
//! exact `rftp-core` types.
//!
//! The hot path is contention-free and batched, end to end:
//!
//! * **No shared locks per block.** Block handout and return go through
//!   the lock-free [`AtomicSourcePool`]/[`AtomicSinkPool`] (a Vyukov
//!   index ring plus per-block CAS state bytes); the source's credit
//!   stock is an [`IndexQueue`] of granted slots; the per-transfer
//!   duplicate-placement ledger is an atomic bitmap. The only mutexes
//!   left on the data path guard single-owner block buffers and are
//!   never contended.
//! * **One copy per block.** The receiver places payload straight from
//!   the source's registered block into the slot the credit named — the
//!   analogue of RDMA WRITE's single DMA from source MR to sink MR.
//!   (The block stays pinned, `Waiting`, until its ack retires it, so
//!   the buffer is stable for the whole flight, retransmits included.)
//! * **Batched crossings.** Every stage drains its input channel in
//!   batches (`recv_batch`: one wakeup, one lock round-trip per drain,
//!   not per block), and control traffic is coalesced: completions ride
//!   [`CtrlMsg::AckBatch`] and grants ride [`CtrlMsg::CreditBatch`], up
//!   to `ctrl_batch` entries per frame, flushed before every blocking
//!   wait so coalescing adds no latency. Each batched entry is processed
//!   exactly as its standalone message would be — the sink still grants
//!   per completion, so the proactive-credit exponential ramp-up is
//!   unchanged. `ctrl_batch = 1` reproduces the one-message-per-block
//!   wire behaviour for comparison.
//! * **No shared stats on the data path.** Worker threads count into
//!   locals (including per-stage nanosecond clocks) and the report
//!   merges them at join.

use crate::coalesce::{channel_events, drain_coalesced, CoalescedSink, DrainEnd};
use crate::store::{FileSink, FileSource, RatePacer, SlotBuf};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use rftp_core::engine::{expected_checksum, pattern_seed as engine_pattern_seed};
use rftp_core::pattern::{checksum, fill_pattern};
use rftp_core::wire::{
    BlockAck, Credit, CtrlMsg, PayloadHeader, CTRL_SLOT_LEN, MAX_ACKS_PER_BATCH,
    MAX_CREDITS_PER_MSG, MAX_SLOTS_PER_CREDIT_BATCH, PAYLOAD_HEADER_LEN,
};
use rftp_core::{AtomicSinkPool, AtomicSourcePool, IndexQueue, PoolGeometry, ReorderBuffer};
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
    /// Notify the sink in the data path (the WRITE_WITH_IMM analogue):
    /// the receiving channel reports the arrival directly instead of the
    /// source sending a completion control message after its own
    /// completion — one less hop in the credit loop.
    pub notify_imm: bool,
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
    /// io_uring sink only: provided-buffer-ring depth for multishot
    /// receive. `0` (default) means 32 buffers, the count the daemon's
    /// shared driver always uses; tests pin it low to force buffer
    /// exhaustion. Capped at 256. Ignored by stream backends.
    pub uring_pbuf: u32,
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
            notify_imm: false,
            fault_drop_p: 0.0,
            fault_seed: 0xFA_017,
            retx_timeout: std::time::Duration::from_millis(100),
            src_file: None,
            dst_file: None,
            direct_io: false,
            src_rate: None,
            readahead: u32::MAX,
            uring_pbuf: 0,
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
    /// histograms at join. Only the split pipeline fills these.
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

/// One in-flight data block on a channel. Carries the source block
/// index, not bytes: the receiver places directly from the source's
/// registered block into the credited sink slot — one copy per block,
/// the RDMA WRITE analogue (the block is pinned until its ack).
#[derive(Debug)]
struct DataMsg {
    src_block: u32,
    seq: u32,
    slot: u32,
    len: u32,
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

/// A control message in its on-wire form: one fixed slot passed by
/// value, no heap round trip per message.
#[derive(Debug, Clone, Copy)]
struct CtrlFrame {
    len: u16,
    buf: [u8; CTRL_SLOT_LEN],
}

impl CtrlFrame {
    fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

fn encode(msg: &CtrlMsg) -> Box<CtrlFrame> {
    let mut buf = [0u8; CTRL_SLOT_LEN];
    let n = msg.encode(&mut buf);
    Box::new(CtrlFrame { len: n as u16, buf })
}

/// Everything the sink's control handler reacts to, on one channel: the
/// control QP's frames and (in `notify_imm` mode) the receivers' in-band
/// arrival notifications. One blocking `recv` replaces a polling select.
#[derive(Debug)]
enum SinkEvent {
    // Boxed: control frames are rare (sub-one per block when batched)
    // while `Imm` is the hot variant in `notify_imm` mode, and an
    // unboxed 258-byte frame would inflate every queued event to match.
    Ctrl(Box<CtrlFrame>),
    Imm { seq: u32, slot: u32, len: u32 },
}

/// The source completion handler's state, as a [`CoalescedSink`]: ack
/// batches retire blocks immediately; the sink-bound completion
/// notifications coalesce into `AckBatch` frames (up to `ctrl_batch` per
/// frame), flushed at every drain boundary.
struct AckCoalescer<'a> {
    cfg: &'a LiveConfig,
    src_pool: &'a AtomicSourcePool,
    inflight: &'a [Mutex<Option<InFlightInfo>>],
    evt_tx: &'a Sender<SinkEvent>,
    total_blocks: u64,
    completed: u64,
    ctrl_sent: u64,
    pending: Vec<BlockAck>,
}

impl CoalescedSink<Vec<u32>> for AckCoalescer<'_> {
    type Err = std::convert::Infallible;

    fn handle(&mut self, batch: Vec<u32>) -> Result<(), Self::Err> {
        for block in batch {
            let info = self.inflight[block as usize]
                .lock()
                .take()
                .expect("ack for idle block");
            self.src_pool.complete(block).expect("FSM: complete");
            self.completed += 1;
            if !self.cfg.notify_imm {
                self.pending.push(BlockAck {
                    seq: info.seq,
                    slot: info.slot,
                    len: info.len,
                });
                if self.pending.len() >= self.cfg.ack_batch() {
                    self.flush()?;
                }
            }
        }
        Ok(())
    }

    // Max-latency dwell: a partial batch waits at most the flush window
    // for more acks (the blocks themselves were already retired — only
    // the sink-bound notification waits).
    fn dwell(&self) -> bool {
        !self.pending.is_empty()
    }

    fn window(&self) -> std::time::Duration {
        self.cfg.flush_window
    }

    fn done(&self) -> bool {
        self.completed >= self.total_blocks
    }

    fn flush(&mut self) -> Result<(), Self::Err> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let msg = if self.pending.len() == 1 && self.cfg.ctrl_batch <= 1 {
            let a = self.pending[0];
            CtrlMsg::BlockComplete {
                session: SESSION,
                seq: a.seq,
                slot: a.slot,
                len: a.len,
            }
        } else {
            CtrlMsg::AckBatch {
                session: SESSION,
                acks: std::mem::take(&mut self.pending),
            }
        };
        self.pending.clear();
        self.ctrl_sent += 1;
        self.evt_tx
            .send(SinkEvent::Ctrl(encode(&msg)))
            .expect("sink ctrl gone");
        Ok(())
    }
}

/// The sink control handler's state, as a [`CoalescedSink`]: arrivals in
/// one drain grant per completion (preserving the proactive ramp) but
/// the grants leave as coalesced `CreditBatch` frames — the credit
/// loop's message count scales with drains, not blocks. The *policy* is
/// untouched: every completion still earns its `grant_per_completion`
/// slots the moment it is processed, so the exponential ramp is the same
/// credits-per-arrival curve, just carried in fewer frames.
struct GrantCoalescer<'a> {
    cfg: &'a LiveConfig,
    snk_pool: &'a AtomicSinkPool,
    granter: &'a Mutex<rftp_core::Granter>,
    ctrl_tx: &'a Sender<Box<CtrlFrame>>,
    deliver_tx: &'a Sender<(u32, u32, u32)>,
    total_blocks: u64,
    reorder: ReorderBuffer<(u32, u32)>,
    // Slots granted (popped from the pool, counted by the granter) but
    // not yet on the wire. Grants accumulate across the events of a
    // drain — and across the flush window — so the credit loop pays one
    // message per batch, not per completion.
    pending: Vec<u32>,
    ctrl_sent: u64,
}

impl GrantCoalescer<'_> {
    /// Pop up to `want` free slots into the pending grant batch.
    fn accumulate(&mut self, want: u32) {
        let before = self.pending.len();
        self.pending
            .extend((0..want).map_while(|_| self.snk_pool.grant()));
        let got = (self.pending.len() - before) as u32;
        if got > 0 {
            self.granter.lock().note_granted(got);
        }
    }

    fn on_arrival(&mut self, seq: u32, slot: u32, len: u32) {
        self.snk_pool.ready(slot).expect("FSM: ready");
        for (s2, (slot2, len2)) in self.reorder.push(seq, (slot, len)) {
            self.deliver_tx
                .send((s2, slot2, len2))
                .expect("consumer gone");
        }
        let want = self.granter.lock().on_completion();
        self.accumulate(want);
    }
}

impl CoalescedSink<SinkEvent> for GrantCoalescer<'_> {
    type Err = std::convert::Infallible;

    fn handle(&mut self, ev: SinkEvent) -> Result<(), Self::Err> {
        match ev {
            SinkEvent::Ctrl(raw) => {
                match CtrlMsg::decode(raw.as_bytes()).expect("bad ctrl message") {
                    CtrlMsg::SessionRequest { session, .. } => {
                        assert_eq!(session, SESSION);
                        self.ctrl_sent += 1;
                        self.ctrl_tx
                            .send(encode(&CtrlMsg::SessionAccept {
                                session: SESSION,
                                block_size: self.cfg.block_size as u64,
                                data_qpns: (0..self.cfg.channels as u32).collect(),
                            }))
                            .expect("source ctrl gone");
                        let want = self.granter.lock().on_accept();
                        self.accumulate(want);
                    }
                    CtrlMsg::BlockComplete {
                        session,
                        seq,
                        slot,
                        len,
                    } => {
                        assert_eq!(session, SESSION);
                        self.on_arrival(seq, slot, len);
                    }
                    CtrlMsg::AckBatch { session, acks } => {
                        assert_eq!(session, SESSION);
                        for a in acks {
                            self.on_arrival(a.seq, a.slot, a.len);
                        }
                    }
                    CtrlMsg::MrRequest { session } => {
                        assert_eq!(session, SESSION);
                        let free = self.snk_pool.free_count();
                        let want = self.granter.lock().on_request(free);
                        self.accumulate(want);
                    }
                    CtrlMsg::DatasetComplete {
                        total_blocks: t, ..
                    } => {
                        assert_eq!(t as u64, self.total_blocks);
                    }
                    other => panic!("unexpected ctrl at sink: {other:?}"),
                }
            }
            SinkEvent::Imm { seq, slot, len } => self.on_arrival(seq, slot, len),
        }
        if self.pending.len() >= self.cfg.credit_batch() {
            self.flush()?;
        }
        Ok(())
    }

    // Dwell for the flush window on a partial grant batch (unbatched
    // mode flushes immediately — per-event grants ARE its wire
    // behaviour).
    fn dwell(&self) -> bool {
        !self.pending.is_empty() && self.cfg.ctrl_batch > 1
    }

    fn window(&self) -> std::time::Duration {
        self.cfg.flush_window
    }

    // Runs until the event channel closes at teardown.
    fn done(&self) -> bool {
        false
    }

    fn flush(&mut self) -> Result<(), Self::Err> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if self.cfg.ctrl_batch <= 1 {
            for chunk in self.pending.chunks(MAX_CREDITS_PER_MSG) {
                self.ctrl_sent += 1;
                self.ctrl_tx
                    .send(encode(&CtrlMsg::Credits {
                        session: SESSION,
                        credits: chunk
                            .iter()
                            .map(|&s2| Credit {
                                slot: s2,
                                rkey: SINK_RKEY,
                                offset: s2 as u64 * self.cfg.slot_bytes() as u64,
                                len: self.cfg.slot_bytes() as u32,
                            })
                            .collect(),
                    }))
                    .expect("source ctrl gone");
            }
        } else {
            for chunk in self.pending.chunks(self.cfg.credit_batch()) {
                self.ctrl_sent += 1;
                self.ctrl_tx
                    .send(encode(&CtrlMsg::CreditBatch {
                        session: SESSION,
                        rkey: SINK_RKEY,
                        slot_len: self.cfg.slot_bytes() as u32,
                        slots: chunk.to_vec(),
                    }))
                    .expect("source ctrl gone");
            }
        }
        self.pending.clear();
        Ok(())
    }
}

/// Run one transfer; blocks until completion and returns the report.
/// Panics on protocol violations (they are bugs, not runtime conditions)
/// *and* on storage errors — use [`try_run_live`] to surface the latter.
pub fn run_live(cfg: &LiveConfig) -> LiveReport {
    try_run_live(cfg).expect("storage backend failed")
}

/// [`run_live`], but storage errors (missing source file, unwritable
/// destination, short source) come back as `Err` instead of a panic.
pub fn try_run_live(cfg: &LiveConfig) -> std::io::Result<LiveReport> {
    assert!(cfg.channels >= 1 && cfg.loaders >= 1 && cfg.total_bytes > 0);
    let total_blocks = cfg.total_blocks();
    let geo = PoolGeometry::new(cfg.block_size as u64, cfg.pool_blocks);

    // ---- storage backends ----
    let src_backend = SrcBackend::open(cfg)?;
    let snk_backend = SnkBackend::open(cfg)?;
    let direct_io_active = src_backend.direct_active() || snk_backend.direct_active();
    // Read-ahead limit: how many blocks the source side may hold
    // concurrently. +1 because "no read-ahead" still needs the block in
    // service; capped at the pool, where the existing free-list wait
    // already throttles.
    let ra_limit = (cfg.readahead.saturating_add(1)).min(cfg.pool_blocks) as usize;
    // Modeled-device pacing only applies where there is a device to
    // model: a pattern source has no read stage.
    let pacer = match &src_backend {
        SrcBackend::File(_) => cfg.src_rate.map(RatePacer::new),
        SrcBackend::Pattern => None,
    };

    // ---- shared source state ----
    let src_pool = AtomicSourcePool::new(geo);
    let src_bufs: Vec<Mutex<SlotBuf>> = (0..cfg.pool_blocks)
        .map(|_| Mutex::new(SlotBuf::new(cfg.block_size)))
        .collect();
    let stock = CreditSlots::new(cfg.pool_blocks);
    let inflight: Vec<Mutex<Option<InFlightInfo>>> =
        (0..cfg.pool_blocks).map(|_| Mutex::new(None)).collect();

    // ---- shared sink state ----
    let snk_pool = AtomicSinkPool::new(geo);
    let granter = Mutex::new(rftp_core::Granter::new(
        rftp_core::CreditMode::Proactive,
        cfg.initial_credits,
        cfg.grant_per_completion,
        4,
    ));
    let snk_bufs: Vec<Mutex<SlotBuf>> = (0..cfg.pool_blocks)
        .map(|_| Mutex::new(SlotBuf::new(cfg.block_size)))
        .collect();
    let placed = AtomicBitmap::new(total_blocks);

    let next_seq = AtomicU64::new(0);
    let done_flag = AtomicBool::new(false);

    // ---- channels ----
    let (sink_evt_tx, sink_evt_rx) = bounded::<SinkEvent>(1024);
    let (ctrl_k2s_tx, ctrl_k2s_rx) = bounded::<Box<CtrlFrame>>(1024);
    let data: Vec<(Sender<DataMsg>, Receiver<DataMsg>)> = (0..cfg.channels)
        .map(|_| bounded(cfg.channel_depth))
        .collect();
    // Receivers ack in per-drain batches of source block indices.
    let (ack_tx, ack_rx) = bounded::<Vec<u32>>(1024);
    let (loaded_tx, loaded_rx) = bounded::<u32>(cfg.pool_blocks as usize);
    let (deliver_tx, deliver_rx) = bounded::<(u32, u32, u32)>(cfg.pool_blocks as usize);

    let start = Instant::now();
    // Phase 1: negotiation over the control channel, for real.
    sink_evt_tx
        .send(SinkEvent::Ctrl(encode(&CtrlMsg::SessionRequest {
            session: SESSION,
            block_size: cfg.block_size as u64,
            channels: cfg.channels as u16,
            total_bytes: cfg.total_bytes,
            notify_imm: cfg.notify_imm,
        })))
        .unwrap();
    let mut ctrl_sent_main = 1u64;

    struct Tally {
        ctrl_sent: u64,
        credit_requests: u64,
        dropped: u64,
        retransmits: u64,
        duplicates: u64,
        checksum_failures: u64,
        delivered: u64,
        ooo: u64,
        stage_ns: [u64; 5], // load, dispatch, place, verify, flush
    }
    let mut tally = Tally {
        ctrl_sent: 0,
        credit_requests: 0,
        dropped: 0,
        retransmits: 0,
        duplicates: 0,
        checksum_failures: 0,
        delivered: 0,
        ooo: 0,
        stage_ns: [0; 5],
    };

    std::thread::scope(|s| {
        // Watchdog (debug aid): with RFTP_LIVE_DEBUG set, dump pipeline
        // state every few seconds so stalls are diagnosable.
        if std::env::var_os("RFTP_LIVE_DEBUG").is_some() {
            let (src_pool, snk_pool, stock) = (&src_pool, &snk_pool, &stock);
            let (next_seq, done_flag) = (&next_seq, &done_flag);
            s.spawn(move || {
                for _ in 0..120 {
                    std::thread::sleep(std::time::Duration::from_secs(2));
                    if done_flag.load(Ordering::Relaxed) {
                        return;
                    }
                    eprintln!(
                        "[watchdog] seq={} | src_free={} snk_free={} stock={} req_out={}",
                        next_seq.load(Ordering::Relaxed),
                        src_pool.free_count(),
                        snk_pool.free_count(),
                        stock.slots.len(),
                        stock.request_outstanding.load(Ordering::Relaxed),
                    );
                }
            });
        }

        // ---------------- SOURCE ----------------
        // Loader threads: claim sequence numbers, fill blocks with
        // header + pattern, hand them to the dispatcher.
        let loader_handles: Vec<_> = (0..cfg.loaders)
            .map(|_| {
                let loaded_tx = loaded_tx.clone();
                let src_pool = &src_pool;
                let (src_backend, pacer) = (&src_backend, &pacer);
                let (src_bufs, inflight, next_seq, cfg) = (&src_bufs, &inflight, &next_seq, &cfg);
                s.spawn(move || {
                    let mut load_ns = 0u64;
                    loop {
                        // Hold a block BEFORE claiming a sequence:
                        // claiming first would let sibling loaders absorb
                        // the whole pool for later sequences and starve
                        // the one the in-order pipeline needs next (the
                        // second face of the head-of-line hazard described
                        // at the dispatcher).
                        //
                        // Read-ahead pacing rides the same wait: a loader
                        // only prefetches while the source pool's
                        // free-depth watermark says fewer than `ra_limit`
                        // blocks are in flight. At the default (full-pool)
                        // depth the check is equivalent to the free-list
                        // wait below; at `readahead = 0` it serializes
                        // the transfer for overlap-ablation runs.
                        let mut spins = 0;
                        let block = loop {
                            if next_seq.load(Ordering::Relaxed) >= total_blocks {
                                return load_ns;
                            }
                            if src_pool.in_flight() < ra_limit {
                                if let Some(b) = src_pool.get_free() {
                                    break b;
                                }
                            }
                            backoff(&mut spins);
                        };
                        let seq = next_seq.fetch_add(1, Ordering::Relaxed);
                        if seq >= total_blocks {
                            // Lost the race for the final sequence.
                            src_pool.abandon(block).expect("FSM: abandon");
                            return load_ns;
                        }
                        let offset = seq * cfg.block_size as u64;
                        let len = (cfg.total_bytes - offset).min(cfg.block_size as u64) as u32;
                        let t0 = Instant::now();
                        {
                            let mut buf = src_bufs[block as usize].lock();
                            PayloadHeader {
                                session: SESSION,
                                seq: seq as u32,
                                offset,
                                len,
                            }
                            .encode(&mut buf[..PAYLOAD_HEADER_LEN]);
                            match src_backend {
                                SrcBackend::Pattern => fill_pattern(
                                    &mut buf[PAYLOAD_HEADER_LEN..PAYLOAD_HEADER_LEN + len as usize],
                                    pattern_seed(seq as u32),
                                ),
                                // The payload region of a SlotBuf starts
                                // on the 4 KiB boundary, so this read is
                                // O_DIRECT-eligible straight into the
                                // registered block.
                                SrcBackend::File(f) => {
                                    f.read_block(
                                        &mut buf[PAYLOAD_HEADER_LEN..],
                                        len as usize,
                                        offset,
                                    )
                                    .expect("source file read");
                                    if let Some(p) = pacer {
                                        p.pace(len as usize);
                                    }
                                }
                            }
                        }
                        load_ns += t0.elapsed().as_nanos() as u64;
                        *inflight[block as usize].lock() = Some(InFlightInfo {
                            seq: seq as u32,
                            slot: u32::MAX,
                            len,
                            sent_at: Instant::now(),
                            attempts: 0,
                        });
                        src_pool.loaded(block).expect("FSM: loaded");
                        loaded_tx.send(block).expect("dispatcher gone");
                    }
                })
            })
            .collect();
        drop(loaded_tx);

        // Dispatcher: pair each loaded block with a credit, ship it.
        let dispatcher = {
            let data_tx: Vec<Sender<DataMsg>> = data.iter().map(|(t, _)| t.clone()).collect();
            let evt_tx = sink_evt_tx.clone();
            let (stock, src_pool, inflight) = (&stock, &src_pool, &inflight);
            let cfg = &cfg;
            s.spawn(move || {
                let mut rr = 0usize;
                let mut fault_rng = cfg.fault_seed;
                let mut dispatch_ns = 0u64;
                let mut ctrl_sent = 0u64;
                let mut credit_requests = 0u64;
                let mut dropped = 0u64;
                // Blocks must be DISPATCHED in sequence order. Loaders
                // finish out of order, and if later sequences were allowed
                // to consume credits while an earlier one waits, the sink's
                // bounded pool could fill with blocks its in-order consumer
                // cannot accept — a head-of-line deadlock (found the hard
                // way; see DESIGN.md). Reordering here restores the
                // invariant that the oldest outstanding sequence always
                // owns a credit.
                let mut dispatch_order = ReorderBuffer::<u32>::new();
                let mut ready: std::collections::VecDeque<u32> = Default::default();
                let mut drain: Vec<u32> = Vec::with_capacity(cfg.pool_blocks as usize);
                while let Ok(_n) = loaded_rx.recv_batch(&mut drain, cfg.pool_blocks as usize) {
                    for block in drain.drain(..) {
                        let seq = inflight[block as usize]
                            .lock()
                            .as_ref()
                            .expect("loaded block untracked")
                            .seq;
                        for (_, b) in dispatch_order.push(seq, block) {
                            ready.push_back(b);
                        }
                    }
                    while let Some(block) = ready.pop_front() {
                        let slot = {
                            let mut spins = 0;
                            let mut starved_since: Option<Instant> = None;
                            loop {
                                if let Some(s2) = stock.slots.try_pop() {
                                    break s2;
                                }
                                if !stock.request_outstanding.swap(true, Ordering::AcqRel) {
                                    credit_requests += 1;
                                    ctrl_sent += 1;
                                    evt_tx
                                        .send(SinkEvent::Ctrl(encode(&CtrlMsg::MrRequest {
                                            session: SESSION,
                                        })))
                                        .expect("sink ctrl gone");
                                    starved_since = Some(Instant::now());
                                }
                                // A grant can race the sink's own
                                // bookkeeping (unlike the serialized
                                // simulator), so a starved request is
                                // eventually retried rather than trusted
                                // to be answered exactly once.
                                if starved_since.is_some_and(|t| {
                                    t.elapsed() > std::time::Duration::from_millis(20)
                                }) {
                                    stock.request_outstanding.store(false, Ordering::Release);
                                    starved_since = None;
                                }
                                backoff(&mut spins);
                            }
                        };
                        let t0 = Instant::now();
                        let info = {
                            let mut inf = inflight[block as usize].lock();
                            let i = inf.as_mut().expect("loaded block untracked");
                            i.slot = slot;
                            i.sent_at = Instant::now();
                            i.attempts = 1;
                            *i
                        };
                        assert!(
                            cfg.slot_bytes() >= info.len as usize + PAYLOAD_HEADER_LEN,
                            "credit too small"
                        );
                        src_pool.start_sending(block).expect("FSM: start_sending");
                        src_pool.posted(block).expect("FSM: posted");
                        let ch = rr % data_tx.len();
                        rr += 1;
                        if cfg.fault_drop_p > 0.0 && drop_roll(&mut fault_rng) < cfg.fault_drop_p {
                            // The wire ate it: the block stays Posted and
                            // unacked until the watchdog re-sends it.
                            dropped += 1;
                        } else {
                            data_tx[ch]
                                .send(DataMsg {
                                    src_block: block,
                                    seq: info.seq,
                                    slot,
                                    len: info.len,
                                })
                                .expect("receiver gone");
                        }
                        dispatch_ns += t0.elapsed().as_nanos() as u64;
                    }
                }
                assert!(
                    dispatch_order.is_drained(),
                    "loads ended with a sequence gap"
                );
                (dispatch_ns, ctrl_sent, credit_requests, dropped)
            })
        };

        // Retransmit watchdog (fault injection only): any dispatched
        // block whose ack hasn't arrived within `retx_timeout` is put
        // back on the wire — the live analogue of the simulated engine's
        // TOK_RETX scan. Re-sends roll the same drop dice as first
        // sends, so a retransmit can itself be lost and retried.
        let retx_watchdog = (cfg.fault_drop_p > 0.0).then(|| {
            let data_tx: Vec<Sender<DataMsg>> = data.iter().map(|(t, _)| t.clone()).collect();
            let inflight = &inflight;
            let (done_flag, cfg) = (&done_flag, &cfg);
            s.spawn(move || {
                let mut fault_rng = cfg.fault_seed ^ 0x5EED_5EED_5EED_5EED;
                let mut rr = 0usize;
                let mut retransmits = 0u64;
                let mut dropped = 0u64;
                while !done_flag.load(Ordering::Relaxed) {
                    std::thread::sleep(cfg.retx_timeout / 4);
                    for block in 0..cfg.pool_blocks {
                        // Hold the block's in-flight entry across the
                        // whole re-send so a concurrently arriving ack
                        // (which takes this same lock to retire the
                        // block) cannot interleave with it.
                        let mut inf = inflight[block as usize].lock();
                        let Some(i) = inf.as_mut() else { continue };
                        if i.slot == u32::MAX {
                            continue; // not dispatched yet
                        }
                        // Karn's backoff: each unacked attempt doubles
                        // the block's own deadline, so an ack stalled on
                        // receiver-side work cannot expire the same
                        // window round after round.
                        let shift = i.attempts.saturating_sub(1).min(6);
                        if i.sent_at.elapsed() < cfg.retx_timeout.saturating_mul(1 << shift) {
                            continue; // still fresh
                        }
                        assert!(i.attempts < 64, "block seq {} will not go through", i.seq);
                        i.sent_at = Instant::now();
                        i.attempts += 1;
                        retransmits += 1;
                        let ch = rr % data_tx.len();
                        rr += 1;
                        if drop_roll(&mut fault_rng) < cfg.fault_drop_p {
                            dropped += 1;
                        } else {
                            data_tx[ch]
                                .send(DataMsg {
                                    src_block: block,
                                    seq: i.seq,
                                    slot: i.slot,
                                    len: i.len,
                                })
                                .expect("receiver gone");
                        }
                    }
                }
                (retransmits, dropped)
            })
        });

        // Completion handler: ack batches retire blocks; completions are
        // coalesced into AckBatch control frames (up to `ctrl_batch` per
        // frame), flushed at every drain boundary — never held across a
        // blocking wait, so batching costs no latency. The final block
        // triggers teardown.
        let completion = {
            let evt_tx = sink_evt_tx.clone();
            let (src_pool, inflight) = (&src_pool, &inflight);
            let cfg = &cfg;
            s.spawn(move || {
                let mut h = AckCoalescer {
                    cfg,
                    src_pool,
                    inflight,
                    evt_tx: &evt_tx,
                    total_blocks,
                    completed: 0,
                    ctrl_sent: 0,
                    pending: Vec::with_capacity(cfg.ack_batch()),
                };
                let end = drain_coalesced(&mut h, &mut channel_events(&ack_rx, 64)).unwrap();
                assert_eq!(end, DrainEnd::Done, "ack channel closed early");
                let mut ctrl_sent = h.ctrl_sent;
                ctrl_sent += 1;
                evt_tx
                    .send(SinkEvent::Ctrl(encode(&CtrlMsg::DatasetComplete {
                        session: SESSION,
                        total_blocks: total_blocks as u32,
                    })))
                    .expect("sink ctrl gone");
                ctrl_sent
            })
        };

        // Source control handler: accepts and credits.
        let src_ctrl = {
            let stock = &stock;
            s.spawn(move || {
                for raw in ctrl_k2s_rx.iter() {
                    match CtrlMsg::decode(raw.as_bytes()).expect("bad ctrl message") {
                        CtrlMsg::SessionAccept { session, .. } => {
                            assert_eq!(session, SESSION);
                        }
                        CtrlMsg::Credits { session, credits } => {
                            assert_eq!(session, SESSION);
                            for c in credits {
                                stock.deposit(c.slot);
                            }
                        }
                        CtrlMsg::CreditBatch { session, slots, .. } => {
                            assert_eq!(session, SESSION);
                            for slot in slots {
                                stock.deposit(slot);
                            }
                        }
                        other => panic!("unexpected ctrl at source: {other:?}"),
                    }
                }
            })
        };

        // ---------------- SINK ----------------
        // Per-channel receivers: place payloads into the slots credits
        // named, then ack (the transport-level completion). Each wake
        // drains up to `channel_depth` messages and acks them as one
        // batch — one crossing per drain, not per block.
        let receiver_handles: Vec<_> = data
            .iter()
            .map(|(_, data_rx)| {
                let data_rx = data_rx.clone();
                let ack_tx = ack_tx.clone();
                let evt_tx = sink_evt_tx.clone();
                let (src_bufs, snk_bufs, placed) = (&src_bufs, &snk_bufs, &placed);
                let snk_backend = &snk_backend;
                let cfg = &cfg;
                s.spawn(move || {
                    let mut place_ns = 0u64;
                    let mut flush_ns = 0u64;
                    let mut duplicates = 0u64;
                    let mut batch: Vec<DataMsg> = Vec::with_capacity(cfg.channel_depth);
                    let mut acks: Vec<u32> = Vec::with_capacity(cfg.channel_depth);
                    while data_rx.recv_batch(&mut batch, cfg.channel_depth).is_ok() {
                        for msg in batch.drain(..) {
                            // Claim first placement of this sequence. A
                            // second copy means a retransmit raced a slow
                            // ack; its slot may already be freed and
                            // re-granted to a newer block, so placing it
                            // would corrupt that block — discard it (the
                            // paper-side duplicate-block rule).
                            if !placed.claim(msg.seq as u64) {
                                duplicates += 1;
                                continue;
                            }
                            let wire_len = msg.len as usize + PAYLOAD_HEADER_LEN;
                            let t0 = Instant::now();
                            {
                                let src = src_bufs[msg.src_block as usize].lock();
                                let mut dst = snk_bufs[msg.slot as usize].lock();
                                match snk_backend {
                                    SnkBackend::Verify => {
                                        // The RDMA WRITE: one copy,
                                        // registered source block →
                                        // credited sink slot.
                                        dst[..wire_len].copy_from_slice(&src[..wire_len]);
                                        place_ns += t0.elapsed().as_nanos() as u64;
                                    }
                                    SnkBackend::File(sink) => {
                                        // Write-behind placement: in file
                                        // mode the file page IS the sink
                                        // memory, so the WRITE goes
                                        // straight from the registered
                                        // source block to the block's
                                        // final offset — one copy per
                                        // block, same as pattern mode,
                                        // and sparse placement is the
                                        // reassembly. The credited slot
                                        // receives only the header, for
                                        // the consumer's in-order
                                        // validation. The source block
                                        // stays pinned (Waiting) until
                                        // the ack this placement
                                        // triggers, so the buffer is
                                        // stable for the whole pwrite.
                                        dst[..PAYLOAD_HEADER_LEN]
                                            .copy_from_slice(&src[..PAYLOAD_HEADER_LEN]);
                                        place_ns += t0.elapsed().as_nanos() as u64;
                                        let t1 = Instant::now();
                                        sink.write_block(
                                            &src[PAYLOAD_HEADER_LEN
                                                ..PAYLOAD_HEADER_LEN + msg.len as usize],
                                            msg.seq as u64 * cfg.block_size as u64,
                                        )
                                        .expect("sink file write");
                                        flush_ns += t1.elapsed().as_nanos() as u64;
                                    }
                                }
                            }
                            if cfg.notify_imm {
                                // The immediate: arrival notification
                                // in-band, one per WRITE by design.
                                evt_tx
                                    .send(SinkEvent::Imm {
                                        seq: msg.seq,
                                        slot: msg.slot,
                                        len: msg.len,
                                    })
                                    .expect("sink ctrl gone");
                            }
                            acks.push(msg.src_block);
                        }
                        if !acks.is_empty() {
                            ack_tx
                                .send(std::mem::replace(
                                    &mut acks,
                                    Vec::with_capacity(cfg.channel_depth),
                                ))
                                .expect("completion gone");
                        }
                    }
                    (place_ns, flush_ns, duplicates)
                })
            })
            .collect();
        drop(ack_tx);

        // Sink control handler: negotiation, arrivals, credits. Arrivals
        // in one event grant per completion (preserving the proactive
        // ramp) but the grants leave as one CreditBatch per event — the
        // credit loop's message count scales with drains, not blocks.
        let sink_ctrl = {
            let ctrl_tx = ctrl_k2s_tx.clone();
            let deliver_tx = deliver_tx.clone();
            let (snk_pool, granter) = (&snk_pool, &granter);
            let cfg = &cfg;
            s.spawn(move || {
                let mut h = GrantCoalescer {
                    cfg,
                    snk_pool,
                    granter,
                    ctrl_tx: &ctrl_tx,
                    deliver_tx: &deliver_tx,
                    total_blocks,
                    reorder: ReorderBuffer::new(),
                    pending: Vec::with_capacity(cfg.pool_blocks as usize),
                    ctrl_sent: 0,
                };
                let end = drain_coalesced(&mut h, &mut channel_events(&sink_evt_rx, 64)).unwrap();
                assert_eq!(end, DrainEnd::Closed, "sink ctrl never reports done");
                (h.ctrl_sent, h.reorder.ooo_arrivals)
            })
        };
        drop(deliver_tx);

        // Consumer: verify and free, in order.
        let consumer = {
            let ctrl_tx = ctrl_k2s_tx.clone();
            let (snk_pool, granter, snk_bufs) = (&snk_pool, &granter, &snk_bufs);
            // Payload checksum verification needs pattern data in the
            // sink slot: a file source carries arbitrary bytes, and a
            // file sink places payload in the file, not the slot. In
            // either file mode the consumer checks the header invariants
            // (session, sequence, length) and leaves byte integrity to
            // the file itself (the e2e tests compare source and
            // destination).
            let file_mode = matches!(snk_backend, SnkBackend::File(_))
                || matches!(src_backend, SrcBackend::File(_));
            let cfg = &cfg;
            s.spawn(move || {
                let mut verify_ns = 0u64;
                let mut checksum_failures = 0u64;
                let mut ctrl_sent = 0u64;
                let mut delivered = 0u64;
                let mut expected_seq = 0u32;
                let mut drain: Vec<(u32, u32, u32)> = Vec::with_capacity(cfg.pool_blocks as usize);
                'outer: while deliver_rx
                    .recv_batch(&mut drain, cfg.pool_blocks as usize)
                    .is_ok()
                {
                    for (seq, slot, len) in drain.drain(..) {
                        assert_eq!(seq, expected_seq, "consumer saw out-of-order delivery");
                        expected_seq += 1;
                        let t0 = Instant::now();
                        {
                            let buf = snk_bufs[slot as usize].lock();
                            let hdr = PayloadHeader::decode(&buf[..PAYLOAD_HEADER_LEN]).unwrap();
                            let ok = hdr.session == SESSION
                                && hdr.seq == seq
                                && hdr.len == len
                                && (file_mode
                                    || checksum(
                                        &buf[PAYLOAD_HEADER_LEN..PAYLOAD_HEADER_LEN + len as usize],
                                    ) == expected_checksum(SESSION, seq, len));
                            if !ok {
                                checksum_failures += 1;
                            }
                        }
                        verify_ns += t0.elapsed().as_nanos() as u64;
                        snk_pool.put_free(slot).expect("FSM: put_free");
                        let owed = granter.lock().on_block_freed();
                        if owed > 0 {
                            // Answer a starved MrRequest immediately.
                            match snk_pool.grant() {
                                Some(s2) => {
                                    granter.lock().note_granted(1);
                                    ctrl_sent += 1;
                                    let msg = if cfg.ctrl_batch <= 1 {
                                        CtrlMsg::Credits {
                                            session: SESSION,
                                            credits: vec![Credit {
                                                slot: s2,
                                                rkey: SINK_RKEY,
                                                offset: s2 as u64 * cfg.slot_bytes() as u64,
                                                len: cfg.slot_bytes() as u32,
                                            }],
                                        }
                                    } else {
                                        CtrlMsg::CreditBatch {
                                            session: SESSION,
                                            rkey: SINK_RKEY,
                                            slot_len: cfg.slot_bytes() as u32,
                                            slots: vec![s2],
                                        }
                                    };
                                    let _ = ctrl_tx.send(encode(&msg));
                                }
                                None => {
                                    // The freed block was granted by the
                                    // ctrl thread in between: the request
                                    // is still owed, keep it pending for
                                    // the next free.
                                    granter.lock().pending_request = true;
                                }
                            }
                        }
                        delivered += 1;
                        if delivered == total_blocks {
                            break 'outer;
                        }
                    }
                }
                (delivered, checksum_failures, verify_ns, ctrl_sent)
            })
        };

        // Close the scope-level clones so channel hangup propagates once
        // the worker threads drop theirs.
        drop(sink_evt_tx);
        drop(ctrl_k2s_tx);
        drop(data);

        let (delivered, checksum_failures, verify_ns, consumer_ctrl) =
            consumer.join().expect("consumer panicked");
        done_flag.store(true, Ordering::Relaxed);
        tally.delivered = delivered;
        tally.checksum_failures = checksum_failures;
        tally.stage_ns[3] = verify_ns;
        tally.ctrl_sent = ctrl_sent_main + consumer_ctrl;
        ctrl_sent_main = 0;

        for h in loader_handles {
            tally.stage_ns[0] += h.join().expect("loader panicked");
        }
        let (dispatch_ns, disp_ctrl, credit_requests, disp_dropped) =
            dispatcher.join().expect("dispatcher panicked");
        tally.stage_ns[1] = dispatch_ns;
        tally.ctrl_sent += disp_ctrl;
        tally.credit_requests = credit_requests;
        tally.dropped = disp_dropped;
        if let Some(h) = retx_watchdog {
            let (retransmits, dropped) = h.join().expect("retx watchdog panicked");
            tally.retransmits = retransmits;
            tally.dropped += dropped;
        }
        tally.ctrl_sent += completion.join().expect("completion panicked");
        for h in receiver_handles {
            let (place_ns, flush_ns, duplicates) = h.join().expect("receiver panicked");
            tally.stage_ns[2] += place_ns;
            tally.stage_ns[4] += flush_ns;
            tally.duplicates += duplicates;
        }
        let (sink_ctrl_sent, ooo) = sink_ctrl.join().expect("sink ctrl panicked");
        tally.ctrl_sent += sink_ctrl_sent;
        tally.ooo = ooo;
        src_ctrl.join().expect("source ctrl panicked");
    });

    // Dataset-completion durability: one batched fdatasync for the whole
    // transfer, inside the timing window — disk-to-disk throughput is
    // honest only if it includes getting the bytes to the platter.
    let mut sync_ns = 0u64;
    if let SnkBackend::File(sink) = &snk_backend {
        let t0 = Instant::now();
        sink.sync()?;
        sync_ns = t0.elapsed().as_nanos() as u64;
    }
    let elapsed = start.elapsed();
    assert_eq!(tally.delivered, total_blocks, "blocks lost in the pipeline");
    src_pool.check_invariants();
    snk_pool.check_invariants();
    let per_block = |ns: u64| ns as f64 / total_blocks as f64;
    Ok(LiveReport {
        bytes: cfg.total_bytes,
        blocks: total_blocks,
        elapsed,
        gbytes_per_sec: cfg.total_bytes as f64 / 1e9 / elapsed.as_secs_f64().max(1e-9),
        checksum_failures: tally.checksum_failures,
        ooo_blocks: tally.ooo,
        ctrl_msgs: tally.ctrl_sent,
        ctrl_msgs_per_block: tally.ctrl_sent as f64 / total_blocks as f64,
        credit_requests: tally.credit_requests,
        dropped_payloads: tally.dropped,
        retransmits: tally.retransmits,
        duplicate_payloads: tally.duplicates,
        stages: StageBreakdown {
            load_ns: per_block(tally.stage_ns[0]),
            dispatch_ns: per_block(tally.stage_ns[1]),
            place_ns: per_block(tally.stage_ns[2]),
            verify_ns: per_block(tally.stage_ns[3]),
            flush_ns: per_block(tally.stage_ns[4]),
            sync_ns: per_block(sync_ns),
        },
        tails: Default::default(),
        transport_threads: cfg.channels,
        direct_io_active,
        uring: None,
        adapt: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug builds run the pattern/checksum word loops and copies far
    /// slower than release; scale test volumes so `cargo test` stays
    /// snappy while `cargo test --release` exercises the full sizes.
    const SCALE: u64 = if cfg!(debug_assertions) { 8 } else { 1 };

    #[test]
    fn small_transfer_is_exact() {
        let cfg = LiveConfig::new(64 * 1024, 2, (8 << 20) / SCALE);
        let r = run_live(&cfg);
        assert_eq!(r.blocks, 128 / SCALE);
        assert_eq!(r.checksum_failures, 0);
        assert!(r.ctrl_msgs > 0, "control traffic must flow");
    }

    #[test]
    fn batched_mode_coalesces_below_one_ctrl_per_block() {
        // Needs a transfer long enough that the steady state dominates
        // the credit ramp-up (during which messages are small and
        // frequent by design).
        let mut cfg = LiveConfig::new(8 * 1024, 8, (16 << 20) / SCALE);
        cfg.pool_blocks = 32;
        cfg.loaders = 2;
        // Debug builds run ~10× slower, so stretch the dwell to keep the
        // inter-ack gap inside the window (the default is tuned for
        // release-speed service times).
        cfg.flush_window = std::time::Duration::from_micros(500);
        let r = run_live(&cfg);
        assert_eq!(r.checksum_failures, 0);
        assert!(
            r.ctrl_msgs_per_block < 1.0,
            "batched mode must coalesce control traffic below one message \
             per block, got {:.2} ({} msgs / {} blocks)",
            r.ctrl_msgs_per_block,
            r.ctrl_msgs,
            r.blocks
        );
    }

    #[test]
    fn unbatched_mode_sends_per_block_control() {
        let mut cfg = LiveConfig::new(64 * 1024, 2, (8 << 20) / SCALE);
        cfg.ctrl_batch = 1;
        let r = run_live(&cfg);
        assert_eq!(r.checksum_failures, 0);
        // One BlockComplete per block plus credit grants.
        assert!(
            r.ctrl_msgs as f64 >= 1.5 * r.blocks as f64,
            "unbatched wire must pay per-block control: {} msgs for {} blocks",
            r.ctrl_msgs,
            r.blocks
        );
    }

    #[test]
    fn batched_and_unbatched_deliver_identical_bytes() {
        // Coalescing is a wire-format change only: both modes must
        // byte-verify every block and deliver the same count.
        let mk = |batch: usize| {
            let mut cfg = LiveConfig::new(32 * 1024, 3, (6 << 20) / SCALE);
            cfg.pool_blocks = 8;
            cfg.ctrl_batch = batch;
            run_live(&cfg)
        };
        let batched = mk(MAX_ACKS_PER_BATCH);
        let unbatched = mk(1);
        assert_eq!(batched.checksum_failures, 0);
        assert_eq!(unbatched.checksum_failures, 0);
        assert_eq!(batched.blocks, unbatched.blocks);
        assert!(
            batched.ctrl_msgs < unbatched.ctrl_msgs,
            "coalescing must cut message count: {} vs {}",
            batched.ctrl_msgs,
            unbatched.ctrl_msgs
        );
    }

    #[test]
    fn short_tail_block() {
        let cfg = LiveConfig::new(64 * 1024, 1, (64 << 10) * 3 + 777);
        let r = run_live(&cfg);
        assert_eq!(r.blocks, 4);
        assert_eq!(r.checksum_failures, 0);
    }

    #[test]
    fn single_block() {
        let cfg = LiveConfig::new(4096, 1, 4096);
        let r = run_live(&cfg);
        assert_eq!(r.blocks, 1);
        assert_eq!(r.checksum_failures, 0);
    }

    #[test]
    fn many_channels_and_loaders_verify() {
        let mut cfg = LiveConfig::new(128 * 1024, 8, (64 << 20) / SCALE);
        cfg.loaders = 4;
        cfg.pool_blocks = 32;
        let r = run_live(&cfg);
        assert_eq!(r.checksum_failures, 0);
        assert_eq!(r.blocks, 512 / SCALE);
    }

    #[test]
    fn tiny_pool_forces_credit_cycling() {
        let mut cfg = LiveConfig::new(256 * 1024, 2, (32 << 20) / SCALE);
        cfg.pool_blocks = 4;
        cfg.initial_credits = 1;
        cfg.grant_per_completion = 1;
        let r = run_live(&cfg);
        assert_eq!(r.checksum_failures, 0);
        assert_eq!(r.blocks, 128 / SCALE);
    }

    #[test]
    fn throughput_is_real() {
        // The full pipeline: loaders pattern-fill, one placement copy per
        // block, checksum verification. Release builds should beat
        // 0.2 GB/s on any machine; debug builds run a reduced volume with
        // a token floor (the word loops are unoptimized there).
        let mut cfg = LiveConfig::new(1 << 20, 4, (256 << 20) / SCALE);
        cfg.pool_blocks = 32;
        cfg.loaders = 4;
        let r = run_live(&cfg);
        assert_eq!(r.checksum_failures, 0);
        let floor = if cfg!(debug_assertions) { 0.005 } else { 0.2 };
        assert!(
            r.gbytes_per_sec > floor,
            "pipeline too slow: {:.3} GB/s",
            r.gbytes_per_sec
        );
        // The per-stage clocks must account for real work.
        assert!(r.stages.load_ns > 0.0);
        assert!(r.stages.place_ns > 0.0);
        assert!(r.stages.verify_ns > 0.0);
    }

    #[test]
    fn notify_imm_mode_verifies_and_saves_ctrl_messages() {
        let mk = |imm: bool| {
            let mut cfg = LiveConfig::new(64 * 1024, 4, (16 << 20) / SCALE);
            cfg.pool_blocks = 16;
            cfg.notify_imm = imm;
            run_live(&cfg)
        };
        // Message counts wobble by a frame or two with scheduler timing
        // (a slow flush coalesces what two fast ones would split), and
        // the structural saving at this volume is only a handful of
        // frames — compare best-of-3 per mode so a loaded test host
        // can't flip the margin.
        let run3 = |imm: bool| {
            (0..3)
                .map(|_| {
                    let r = mk(imm);
                    assert_eq!(r.checksum_failures, 0);
                    r.ctrl_msgs
                })
                .min()
                .unwrap()
        };
        let ctrl = mk(false);
        let imm = mk(true);
        assert_eq!(ctrl.checksum_failures, 0);
        assert_eq!(imm.checksum_failures, 0);
        assert_eq!(ctrl.blocks, imm.blocks);
        assert!(
            run3(true) < run3(false),
            "in-band notification must cut control traffic"
        );
    }

    #[test]
    fn notify_imm_repeated_runs() {
        for i in 0..6 {
            let mut cfg = LiveConfig::new(32 * 1024, 3, (4 << 20) / SCALE);
            cfg.pool_blocks = 6;
            cfg.loaders = 3;
            cfg.notify_imm = true;
            let r = run_live(&cfg);
            assert_eq!(r.checksum_failures, 0, "iteration {i}");
        }
    }

    #[test]
    fn dropped_payloads_are_retransmitted_end_to_end() {
        // One in five payloads vanishes on the wire; the watchdog must
        // re-send until every block lands, byte-verified and in order —
        // with control coalescing enabled (the default).
        let mut cfg = LiveConfig::new(32 * 1024, 2, (4 << 20) / SCALE);
        cfg.pool_blocks = 8;
        cfg.loaders = 2;
        cfg.fault_drop_p = 0.2;
        cfg.fault_seed = 7;
        cfg.retx_timeout = std::time::Duration::from_millis(25);
        let r = run_live(&cfg);
        assert_eq!(r.blocks, 128 / SCALE);
        assert_eq!(r.checksum_failures, 0);
        assert!(r.dropped_payloads >= 1, "fault injector never fired");
        assert!(
            r.retransmits >= r.dropped_payloads,
            "every drop needs at least one re-send: {} drops, {} retransmits",
            r.dropped_payloads,
            r.retransmits
        );
    }

    #[test]
    fn dropped_payloads_recover_in_unbatched_mode() {
        let mut cfg = LiveConfig::new(32 * 1024, 2, (2 << 20) / SCALE);
        cfg.pool_blocks = 6;
        cfg.ctrl_batch = 1;
        cfg.fault_drop_p = 0.15;
        cfg.fault_seed = 3;
        cfg.retx_timeout = std::time::Duration::from_millis(25);
        let r = run_live(&cfg);
        assert_eq!(r.checksum_failures, 0);
        assert!(r.dropped_payloads >= 1, "fault injector never fired");
    }

    #[test]
    fn dropped_payloads_recover_in_notify_imm_mode() {
        let mut cfg = LiveConfig::new(32 * 1024, 2, (2 << 20) / SCALE);
        cfg.pool_blocks = 6;
        cfg.notify_imm = true;
        cfg.fault_drop_p = 0.15;
        cfg.fault_seed = 11;
        cfg.retx_timeout = std::time::Duration::from_millis(25);
        let r = run_live(&cfg);
        assert_eq!(r.checksum_failures, 0);
        assert!(r.dropped_payloads >= 1, "fault injector never fired");
    }

    #[test]
    fn repeated_runs_are_clean() {
        // Shake out nondeterministic deadlocks/races by iterating.
        for i in 0..10 {
            let mut cfg = LiveConfig::new(32 * 1024, 3, (4 << 20) / SCALE);
            cfg.pool_blocks = 6;
            cfg.loaders = 3;
            let r = run_live(&cfg);
            assert_eq!(r.checksum_failures, 0, "iteration {i}");
        }
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
