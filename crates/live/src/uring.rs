//! io_uring backend for the split pipeline: one ring per side — and
//! under the daemon, one ring for every session.
//!
//! The TCP backend ([`crate::net`]) spends a thread per link — N
//! receivers plus a control pump at the sink, and a blocking `writev`
//! per block at the source. This module keeps the exact same wire
//! format (the hello exchange and the `[DataFrameHeader | wire image]`
//! stream records of PROTOCOL.md §7 — a uring source interoperates with
//! a TCP sink and vice versa) but drives all N+1 sockets of a session
//! through **one io_uring**:
//!
//! * the pinned slot pool is registered with the kernel once as *fixed
//!   buffers* (`IORING_REGISTER_BUFFERS`) — the userspace analogue of
//!   RDMA memory registration — so every data send/receive is
//!   `WRITE_FIXED`/`READ_FIXED` naming a buffer index instead of
//!   re-pinning pages per call;
//! * the source queues one `WRITE_FIXED` per block (frame header
//!   written into the slot's dead space, so header + wire image is a
//!   single contiguous SQE) and submits the whole dispatcher drain with
//!   one `io_uring_enter` — the doorbell ([`DataTx::kick`]); one reaper
//!   thread retires completions for every channel;
//! * the sink runs a **single driver thread** for all data links, on
//!   one receive path: header-first re-armed reads. The 16-byte
//!   `DataFrameHeader` is read and routed *before* the payload read is
//!   committed — `READ_FIXED` straight into the credited slot's
//!   registered buffer (the kernel writes the payload where the
//!   protocol placed it; no user-space copy), or into a scratch buffer
//!   for duplicates. At most [`PLACE_CAP`] payload reads are armed at
//!   once per session. Control frames are read off the same
//!   ring and the ack/credit dwell is `IORING_ENTER_EXT_ARG` timed
//!   waits feeding the shared [`drain_coalesced`] loop;
//! * the daemon ([`crate::daemon`]) shares ONE ring and ONE driver
//!   thread ([`MultiDriver`]) across every admitted session: the whole
//!   slot arena is registered once at startup, leases map to
//!   fixed-buffer indices (admission never re-registers), CQEs demux
//!   by `user_data = sid << 32 | link`, and per-session mailboxes
//!   carry events to session threads — cross-session completion
//!   batching means one `GETEVENTS` drains arrivals for all sessions.
//!
//! The module reads no environment variables and has no tuning knobs:
//! ring flags follow from the kernel, everything else from
//! [`LiveConfig`].
//!
//! Everything is raw syscalls (`io_uring_setup`/`enter`/`register` are
//! 425/426/427 on every Linux architecture) over `extern "C"` shims —
//! the workspace links no FFI crate, matching the raw `setsockopt` in
//! [`crate::net`]. [`uring_supported`] probes the running kernel; on
//! non-Linux targets or old kernels every entry point reports
//! `Unsupported` and callers fall back to the TCP backend.

#[cfg(target_os = "linux")]
pub use linux::{
    accept_source_uring, connect_source_uring, run_uring_sink, uring_supported, UringSinkSession,
};
#[cfg(target_os = "linux")]
pub(crate) use linux::{run_shared_uring_session, spawn_shared_uring_driver, UringHub};

#[cfg(target_os = "linux")]
mod linux {
    use crate::coalesce::{channel_events, drain_coalesced, CoalescedSink, DrainEnd};
    use crate::hist::{NsHist, StageTails};
    use crate::net::{
        connect_streams, shutdown_all, NetCtrlRx, NetCtrlTx, NetListener, SessionStreams,
    };
    use crate::pipeline::{
        AtomicBitmap, LiveConfig, LiveReport, SnkBackend, StageBreakdown, SESSION,
    };
    use crate::split::{perr, Controller, Fail, FairShare, SinkEvt, SinkHandler};
    use crate::store::SlotBuf;
    use crate::transport::{BufPool, DataTx, SourceTransport, UringStats};
    use parking_lot::Mutex;
    use rftp_core::wire::{CtrlMsg, DataFrameHeader, DATA_FRAME_HEADER_LEN, PAYLOAD_HEADER_LEN};
    use rftp_core::{AtomicSinkPool, Granter, PoolGeometry};
    use std::collections::{HashMap, VecDeque};
    use std::io;
    use std::net::{Shutdown, TcpStream, ToSocketAddrs};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    // -----------------------------------------------------------------
    // Raw io_uring ABI (uapi/linux/io_uring.h)
    // -----------------------------------------------------------------

    const SYS_IO_URING_SETUP: i64 = 425;
    const SYS_IO_URING_ENTER: i64 = 426;
    const SYS_IO_URING_REGISTER: i64 = 427;

    const IORING_OFF_SQ_RING: i64 = 0;
    const IORING_OFF_CQ_RING: i64 = 0x800_0000;
    const IORING_OFF_SQES: i64 = 0x1000_0000;

    /// Don't interrupt the ring owner signal-style to run completion
    /// task-work; batch it onto the next kernel transition (5.19+).
    const IORING_SETUP_COOP_TASKRUN: u32 = 1 << 8;
    const IORING_SETUP_SINGLE_ISSUER: u32 = 1 << 12;
    /// Run completion task-work only inside `GETEVENTS` enters — the
    /// strictest batching; requires `SINGLE_ISSUER` (6.1+).
    const IORING_SETUP_DEFER_TASKRUN: u32 = 1 << 13;

    const IORING_ENTER_GETEVENTS: u32 = 1 << 0;
    const IORING_ENTER_EXT_ARG: u32 = 1 << 3;

    const IORING_FEAT_SINGLE_MMAP: u32 = 1 << 0;
    const IORING_FEAT_EXT_ARG: u32 = 1 << 8;

    const IORING_REGISTER_BUFFERS: u32 = 0;
    const IORING_REGISTER_PROBE: u32 = 8;

    const IORING_OP_NOP: u8 = 0;
    const IORING_OP_READ_FIXED: u8 = 4;
    const IORING_OP_WRITE_FIXED: u8 = 5;
    const IORING_OP_READ: u8 = 22;
    const IORING_OP_WRITE: u8 = 23;

    const ETIME: i32 = 62;
    /// The kernel can drop a poll-armed socket op with `-ECANCELED`
    /// without transferring any bytes (poll races on busy streams).
    /// Such ops are resubmitted verbatim, not treated as link failure.
    const ECANCELED: i32 = 125;

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct SqringOffsets {
        head: u32,
        tail: u32,
        ring_mask: u32,
        ring_entries: u32,
        flags: u32,
        dropped: u32,
        array: u32,
        resv1: u32,
        user_addr: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct CqringOffsets {
        head: u32,
        tail: u32,
        ring_mask: u32,
        ring_entries: u32,
        overflow: u32,
        cqes: u32,
        flags: u32,
        resv1: u32,
        user_addr: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct IoUringParams {
        sq_entries: u32,
        cq_entries: u32,
        flags: u32,
        sq_thread_cpu: u32,
        sq_thread_idle: u32,
        features: u32,
        wq_fd: u32,
        resv: [u32; 3],
        sq_off: SqringOffsets,
        cq_off: CqringOffsets,
    }

    /// One 64-byte submission queue entry (the non-`SQE128` layout).
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct Sqe {
        opcode: u8,
        flags: u8,
        ioprio: u16,
        fd: i32,
        off: u64,
        addr: u64,
        len: u32,
        op_flags: u32,
        user_data: u64,
        buf_index: u16,
        personality: u16,
        splice_fd_in: i32,
        addr3: u64,
        _pad2: u64,
    }

    /// One 16-byte completion queue entry.
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct Cqe {
        user_data: u64,
        res: i32,
        flags: u32,
    }

    #[repr(C)]
    struct IoVec {
        base: *mut core::ffi::c_void,
        len: usize,
    }

    /// `IORING_ENTER_EXT_ARG` payload: a timed `GETEVENTS` wait.
    #[repr(C)]
    struct GeteventsArg {
        sigmask: u64,
        sigmask_sz: u32,
        pad: u32,
        ts: u64,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    mod sys {
        use core::ffi::{c_long, c_void};
        extern "C" {
            pub fn syscall(num: c_long, ...) -> c_long;
            pub fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                off: i64,
            ) -> *mut c_void;
            pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        }
    }

    // -----------------------------------------------------------------
    // Ring core
    // -----------------------------------------------------------------

    struct MmapRegion {
        ptr: *mut u8,
        len: usize,
    }

    impl MmapRegion {
        fn map(fd: i32, len: usize, off: i64) -> io::Result<MmapRegion> {
            const PROT_RW: i32 = 0x3;
            const MAP_SHARED_POPULATE: i32 = 0x1 | 0x8000;
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_RW,
                    MAP_SHARED_POPULATE,
                    fd,
                    off,
                )
            };
            if ptr as i64 == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(MmapRegion {
                ptr: ptr as *mut u8,
                len,
            })
        }

        /// # Safety
        /// `off` must lie inside the mapping (callers use kernel-supplied
        /// ring offsets, which do).
        unsafe fn at(&self, off: u32) -> *mut u8 {
            debug_assert!((off as usize) < self.len);
            self.ptr.add(off as usize)
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            unsafe {
                sys::munmap(self.ptr as *mut core::ffi::c_void, self.len);
            }
        }
    }

    /// One io_uring instance: fd, mapped rings, and raw pointers into
    /// them. SQ production must be externally serialized (the source
    /// holds its submit lock; the sink driver is single-threaded); CQ
    /// consumption is single-consumer (reaper thread / sink driver).
    /// Kernel-shared indices are accessed as atomics.
    ///
    /// The mappings are unmapped on drop — owners must quiesce first
    /// (no in-flight operations), or the kernel could complete an op
    /// into memory the allocator has already reused.
    struct Ring {
        fd: OwnedFd,
        features: u32,
        sq_entries: u32,
        sq_mask: u32,
        cq_mask: u32,
        sq_khead: *const AtomicU32,
        sq_ktail: *const AtomicU32,
        sq_array: *mut u32,
        cq_khead: *const AtomicU32,
        cq_ktail: *const AtomicU32,
        cq_cqes: *const Cqe,
        sqes: *mut Sqe,
        /// `io_uring_enter` calls made (reported in [`UringStats`]).
        enters: AtomicU64,
        /// `IORING_REGISTER_BUFFERS` calls on this ring.
        registers: AtomicU64,
        /// CQEs reaped (reported in [`UringStats`]).
        reaped: AtomicU64,
        // Held for Drop; the raw pointers above point into these.
        _sq_map: MmapRegion,
        _cq_map: Option<MmapRegion>,
        _sqes_map: MmapRegion,
    }

    // SAFETY: see the struct docs — SQ writes are serialized by the
    // owners, CQ reads are single-consumer, and the shared head/tail
    // words are only touched through atomics.
    unsafe impl Send for Ring {}
    unsafe impl Sync for Ring {}

    impl Ring {
        fn new(entries: u32, setup_flags: u32) -> io::Result<Ring> {
            let mut p = IoUringParams {
                flags: setup_flags,
                ..Default::default()
            };
            let r = unsafe {
                sys::syscall(
                    SYS_IO_URING_SETUP as core::ffi::c_long,
                    entries as usize,
                    &mut p as *mut IoUringParams,
                )
            };
            if r < 0 {
                return Err(io::Error::last_os_error());
            }
            let fd = unsafe { OwnedFd::from_raw_fd(r as i32) };
            let raw = fd.as_raw_fd();

            let sq_len = p.sq_off.array as usize + p.sq_entries as usize * 4;
            let cq_len =
                p.cq_off.cqes as usize + p.cq_entries as usize * std::mem::size_of::<Cqe>();
            let single = p.features & IORING_FEAT_SINGLE_MMAP != 0;
            let sq_map = MmapRegion::map(
                raw,
                if single { sq_len.max(cq_len) } else { sq_len },
                IORING_OFF_SQ_RING,
            )?;
            let cq_map = if single {
                None
            } else {
                Some(MmapRegion::map(raw, cq_len, IORING_OFF_CQ_RING)?)
            };
            let sqes_map = MmapRegion::map(
                raw,
                p.sq_entries as usize * std::mem::size_of::<Sqe>(),
                IORING_OFF_SQES,
            )?;

            let cq_base = cq_map.as_ref().unwrap_or(&sq_map);
            unsafe {
                Ok(Ring {
                    features: p.features,
                    sq_entries: p.sq_entries,
                    sq_mask: *(sq_map.at(p.sq_off.ring_mask) as *const u32),
                    cq_mask: *(cq_base.at(p.cq_off.ring_mask) as *const u32),
                    sq_khead: sq_map.at(p.sq_off.head) as *const AtomicU32,
                    sq_ktail: sq_map.at(p.sq_off.tail) as *const AtomicU32,
                    sq_array: sq_map.at(p.sq_off.array) as *mut u32,
                    cq_khead: cq_base.at(p.cq_off.head) as *const AtomicU32,
                    cq_ktail: cq_base.at(p.cq_off.tail) as *const AtomicU32,
                    cq_cqes: cq_base.at(p.cq_off.cqes) as *const Cqe,
                    sqes: sqes_map.ptr as *mut Sqe,
                    fd,
                    enters: AtomicU64::new(0),
                    registers: AtomicU64::new(0),
                    reaped: AtomicU64::new(0),
                    _sq_map: sq_map,
                    _cq_map: cq_map,
                    _sqes_map: sqes_map,
                })
            }
        }

        fn enter(
            &self,
            to_submit: u32,
            min_complete: u32,
            flags: u32,
            arg: *const core::ffi::c_void,
            argsz: usize,
        ) -> io::Result<u32> {
            self.enters.fetch_add(1, Ordering::Relaxed);
            loop {
                let r = unsafe {
                    sys::syscall(
                        SYS_IO_URING_ENTER as core::ffi::c_long,
                        self.fd.as_raw_fd() as usize,
                        to_submit as usize,
                        min_complete as usize,
                        flags as usize,
                        arg,
                        argsz,
                    )
                };
                if r >= 0 {
                    return Ok(r as u32);
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            }
        }

        fn register(&self, opcode: u32, arg: *const core::ffi::c_void, nr: u32) -> io::Result<()> {
            let r = unsafe {
                sys::syscall(
                    SYS_IO_URING_REGISTER as core::ffi::c_long,
                    self.fd.as_raw_fd() as usize,
                    opcode as usize,
                    arg,
                    nr as usize,
                )
            };
            if r < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Queue one SQE without telling the kernel (callers batch a
        /// [`Ring::submit`] per drain — the doorbell). Returns `false`
        /// when the SQ is full: submit, then retry.
        fn sq_push(&self, sqe: &Sqe) -> bool {
            unsafe {
                let head = (*self.sq_khead).load(Ordering::Acquire);
                let tail = (*self.sq_ktail).load(Ordering::Relaxed);
                if tail.wrapping_sub(head) >= self.sq_entries {
                    return false;
                }
                let idx = tail & self.sq_mask;
                *self.sqes.add(idx as usize) = *sqe;
                *self.sq_array.add(idx as usize) = idx;
                (*self.sq_ktail).store(tail.wrapping_add(1), Ordering::Release);
                true
            }
        }

        /// Hand `queued` SQEs to the kernel.
        fn submit(&self, queued: u32) -> io::Result<()> {
            let mut left = queued;
            while left > 0 {
                left -= self.enter(left, 0, 0, std::ptr::null(), 0)?;
            }
            Ok(())
        }

        fn cq_ready(&self) -> u32 {
            unsafe {
                (*self.cq_ktail)
                    .load(Ordering::Acquire)
                    .wrapping_sub((*self.cq_khead).load(Ordering::Relaxed))
            }
        }

        /// Block until at least one CQE is available. `Ok(false)` means
        /// the `timeout` (an `EXT_ARG` timed wait) expired first.
        fn wait(&self, timeout: Option<Duration>) -> io::Result<bool> {
            if self.cq_ready() > 0 {
                return Ok(true);
            }
            match timeout {
                None => {
                    self.enter(0, 1, IORING_ENTER_GETEVENTS, std::ptr::null(), 0)?;
                    Ok(true)
                }
                Some(w) => {
                    let ts = Timespec {
                        tv_sec: w.as_secs() as i64,
                        tv_nsec: w.subsec_nanos() as i64,
                    };
                    let arg = GeteventsArg {
                        sigmask: 0,
                        sigmask_sz: 0,
                        pad: 0,
                        ts: &ts as *const Timespec as u64,
                    };
                    let r = self.enter(
                        0,
                        1,
                        IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG,
                        &arg as *const GeteventsArg as *const core::ffi::c_void,
                        std::mem::size_of::<GeteventsArg>(),
                    );
                    match r {
                        Ok(_) => Ok(true),
                        Err(e) if e.raw_os_error() == Some(ETIME) => Ok(false),
                        Err(e) => Err(e),
                    }
                }
            }
        }

        /// Hand `queued` SQEs to the kernel *and* block for at least one
        /// CQE with a single `io_uring_enter` — the hot-path doorbell
        /// and wakeup fused into one syscall. Timed (dwell) waits keep
        /// the two-syscall shape: a `-ETIME` return would leave the
        /// submitted count ambiguous.
        fn submit_and_wait(&self, queued: u32) -> io::Result<()> {
            let mut left = queued;
            loop {
                let flags = if self.cq_ready() > 0 {
                    0 // nothing to wait for; just flush the SQ
                } else {
                    IORING_ENTER_GETEVENTS
                };
                if left == 0 && flags == 0 {
                    return Ok(());
                }
                left -= self.enter(left, 1, flags, std::ptr::null(), 0)?;
                if left == 0 {
                    return Ok(());
                }
            }
        }

        /// Drain every available CQE into `out`; returns how many.
        fn reap(&self, out: &mut Vec<Cqe>) -> usize {
            unsafe {
                let tail = (*self.cq_ktail).load(Ordering::Acquire);
                let mut head = (*self.cq_khead).load(Ordering::Relaxed);
                let n = tail.wrapping_sub(head);
                out.reserve(n as usize);
                for _ in 0..n {
                    out.push(*self.cq_cqes.add((head & self.cq_mask) as usize));
                    head = head.wrapping_add(1);
                }
                (*self.cq_khead).store(head, Ordering::Release);
                self.reaped.fetch_add(n as u64, Ordering::Relaxed);
                n as usize
            }
        }

        /// Register every slot of a pinned pool as a fixed buffer,
        /// indexed by pool block — the MR-registration analogue. Takes
        /// a borrowed buffer view so a daemon session can register the
        /// arena slots it leased rather than a pool it owns.
        fn register_pool(&self, bufs: &[&Mutex<SlotBuf>]) -> io::Result<()> {
            if bufs.len() >= OWNED_BUF as usize || bufs.len() > 1024 {
                return Err(perr(format!(
                    "pool of {} blocks exceeds the fixed-buffer limit",
                    bufs.len()
                )));
            }
            let iovecs: Vec<IoVec> = bufs
                .iter()
                .map(|b| {
                    let (base, len) = b.lock().registration_parts();
                    IoVec {
                        base: base as *mut core::ffi::c_void,
                        len,
                    }
                })
                .collect();
            self.register(
                IORING_REGISTER_BUFFERS,
                iovecs.as_ptr() as *const core::ffi::c_void,
                iovecs.len() as u32,
            )?;
            self.registers.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }

        /// Which opcodes the kernel supports (`IORING_REGISTER_PROBE`).
        fn probe_op_supported(&self, ops: &[u8]) -> io::Result<Vec<bool>> {
            const NOPS: usize = 64;
            // struct io_uring_probe: 16-byte header + 8 bytes per op.
            let mut raw = [0u8; 16 + NOPS * 8];
            self.register(
                IORING_REGISTER_PROBE,
                raw.as_mut_ptr() as *const core::ffi::c_void,
                NOPS as u32,
            )?;
            let last_op = raw[0] as usize;
            Ok(ops
                .iter()
                .map(|&op| {
                    let op = op as usize;
                    const IO_URING_OP_SUPPORTED: u8 = 1;
                    op <= last_op && op < NOPS && raw[16 + op * 8 + 2] & IO_URING_OP_SUPPORTED != 0
                })
                .collect())
        }
    }

    // -----------------------------------------------------------------
    // Capability probe
    // -----------------------------------------------------------------

    /// SQ depth for transfer rings: far above the in-flight ceiling of
    /// either side (one write per channel at the source, one read per
    /// link at the sink), so the only submit path is the batched kick.
    const RING_ENTRIES: u32 = 256;

    /// Probe the running kernel: ring setup, `EXT_ARG` timed waits, the
    /// fixed-buffer opcodes, and a real fixed-buffer registration.
    fn ring_caps() -> io::Result<()> {
        let ring = Ring::new(8, 0)?; // ENOSYS / EPERM land here
        if ring.features & IORING_FEAT_EXT_ARG == 0 {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "kernel io_uring lacks IORING_FEAT_EXT_ARG (needs 5.11+)",
            ));
        }
        let need = [
            IORING_OP_NOP,
            IORING_OP_READ_FIXED,
            IORING_OP_WRITE_FIXED,
            IORING_OP_READ,
            IORING_OP_WRITE,
        ];
        let got = ring.probe_op_supported(&need)?;
        if got.iter().any(|ok| !ok) {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "kernel io_uring lacks fixed-buffer read/write opcodes",
            ));
        }
        // Fixed-buffer registration must actually work (memlock limits
        // can forbid it even when the opcodes exist).
        let probe_buf = Mutex::new(SlotBuf::new(4096));
        ring.register_pool(&[&probe_buf])
    }

    /// Whether this kernel can run the io_uring backend: ring setup,
    /// `EXT_ARG` timed waits, fixed-buffer registration, and the
    /// fixed-buffer read/write opcodes all probe healthy.
    pub fn uring_supported() -> bool {
        ring_caps().is_ok()
    }

    /// Build a transfer ring.
    ///
    /// `single_issuer` promises every `io_uring_enter` comes from the
    /// thread that created the ring; that unlocks `DEFER_TASKRUN`, which
    /// keeps completion task-work out of signal context so it stops
    /// interrupting the driver mid-verify. The source ring submits from
    /// two threads (dispatcher + reaper), so it only gets `COOP_TASKRUN`.
    /// Each flag combination degrades to the next on older kernels.
    fn transfer_ring(single_issuer: bool) -> io::Result<Ring> {
        if single_issuer {
            let flags = IORING_SETUP_SINGLE_ISSUER | IORING_SETUP_DEFER_TASKRUN;
            if let Ok(r) = Ring::new(RING_ENTRIES, flags) {
                return Ok(r);
            }
        }
        if let Ok(r) = Ring::new(RING_ENTRIES, IORING_SETUP_COOP_TASKRUN) {
            return Ok(r);
        }
        Ring::new(RING_ENTRIES, 0)
    }

    // -----------------------------------------------------------------
    // Source half
    // -----------------------------------------------------------------

    /// `buf_index` sentinel for [`WriteOp`]s that carry their own copy
    /// (the plain [`DataTx::send`] path) instead of a registered slot.
    const OWNED_BUF: u16 = u16::MAX;
    /// `user_data` of the wakeup NOP the teardown path submits.
    const UD_NOP: u64 = u64::MAX;

    /// One queued data-frame write: current wire position plus what is
    /// left, so short-write continuations just advance and resubmit.
    struct WriteOp {
        addr: u64,
        remaining: u32,
        buf_index: u16,
        /// Keep-alive for plain `send` copies (no registered buffer);
        /// `addr` points into it. Registered-slot ops carry `None` —
        /// the pool pin (block stays busy until its ack) is the
        /// lifetime guarantee.
        _own: Option<Box<[u8]>>,
    }

    /// Per-channel send state: at most one write in flight per socket
    /// (two concurrent writes to one stream would interleave bytes and
    /// corrupt the framing); the rest queue here in order.
    struct Chan {
        fd: i32,
        cur: Option<WriteOp>,
        queue: VecDeque<WriteOp>,
    }

    struct SubState {
        chans: Vec<Chan>,
        /// SQEs pushed since the last doorbell.
        queued: u32,
        /// Reap scratch — completions are drained under this lock (by
        /// the doorbell or the reaper, whoever gets there first).
        cq_scratch: Vec<Cqe>,
    }

    /// Everything the N channel handles, the reaper, and the teardown
    /// guard share.
    struct SrcRing {
        ring: Ring,
        sub: Mutex<SubState>,
        /// CQEs submitted but not yet reaped (NOPs included) — the
        /// reaper exits only at zero, so no kernel op can outlive the
        /// ring mappings.
        inflight: AtomicI64,
        shutdown: AtomicBool,
        dead: AtomicBool,
        err: Mutex<Option<String>>,
        /// The data sockets the ring writes to (owners of the fds in
        /// [`Chan`]); the failure path shuts them down to flush
        /// in-flight ops out as errors.
        socks: Vec<TcpStream>,
    }

    impl SrcRing {
        fn stored_err(&self) -> io::Error {
            let msg = self
                .err
                .lock()
                .clone()
                .unwrap_or_else(|| "io_uring transport failed".into());
            io::Error::new(io::ErrorKind::BrokenPipe, msg)
        }

        /// First-error-wins: record, mark dead, and shut the data links
        /// so every in-flight op completes (as an error) promptly.
        fn fail(&self, msg: String) {
            {
                let mut slot = self.err.lock();
                if slot.is_none() {
                    *slot = Some(msg);
                }
            }
            self.dead.store(true, Ordering::Release);
            shutdown_all(&self.socks, Shutdown::Both);
        }

        fn push_sqe_locked(&self, st: &mut SubState, sqe: &Sqe) -> io::Result<()> {
            while !self.ring.sq_push(sqe) {
                // SQ full: flush what is queued to make room.
                self.ring.submit(st.queued)?;
                st.queued = 0;
            }
            st.queued += 1;
            self.inflight.fetch_add(1, Ordering::AcqRel);
            Ok(())
        }

        /// Queue the SQE for `chans[ch].cur` (which must be set).
        fn push_write_locked(&self, st: &mut SubState, ch: usize) -> io::Result<()> {
            let chan = &st.chans[ch];
            let op = chan.cur.as_ref().expect("push_write without a current op");
            let mut sqe = Sqe {
                fd: chan.fd,
                addr: op.addr,
                len: op.remaining,
                user_data: ch as u64,
                ..Default::default()
            };
            if op.buf_index == OWNED_BUF {
                sqe.opcode = IORING_OP_WRITE;
            } else {
                sqe.opcode = IORING_OP_WRITE_FIXED;
                sqe.buf_index = op.buf_index;
            }
            self.push_sqe_locked(st, &sqe)
        }

        /// Queue one frame on channel `ch`, keeping the one-in-flight-
        /// per-socket invariant.
        fn queue_op(&self, ch: usize, op: WriteOp) -> io::Result<()> {
            if self.dead.load(Ordering::Acquire) {
                return Err(self.stored_err());
            }
            let mut st = self.sub.lock();
            if st.chans[ch].cur.is_some() {
                st.chans[ch].queue.push_back(op);
                Ok(())
            } else {
                st.chans[ch].cur = Some(op);
                self.push_write_locked(&mut st, ch)
            }
        }

        /// Reap and retire every available completion: finished writes
        /// pop the next queued frame, short writes continue where they
        /// left off, errors trip the first-error-wins latch. Callers
        /// hold the submission lock — it doubles as the CQ consumer
        /// lock, so the doorbell and the reaper can both drain.
        fn drain_cqes_locked(&self, st: &mut SubState) {
            let mut cqes = std::mem::take(&mut st.cq_scratch);
            cqes.clear();
            self.ring.reap(&mut cqes);
            for c in &cqes {
                self.inflight.fetch_sub(1, Ordering::AcqRel);
                if c.user_data == UD_NOP {
                    continue;
                }
                let ch = c.user_data as usize;
                let resubmit = {
                    let chan = &mut st.chans[ch];
                    if c.res == -ECANCELED
                        && chan.cur.is_some()
                        && !self.dead.load(Ordering::Acquire)
                    {
                        // Dropped without side effects — retry in place.
                        true
                    } else if c.res < 0 {
                        if !self.dead.load(Ordering::Acquire) {
                            let e = io::Error::from_raw_os_error(-c.res);
                            self.fail(format!("data channel {ch} write: {e}"));
                        }
                        // Stragglers on a dead transport just drain.
                        chan.cur = None;
                        chan.queue.clear();
                        false
                    } else {
                        match chan.cur.as_mut() {
                            None => false, // cleared by the error path
                            Some(op) => {
                                let sent = c.res as u32;
                                if sent < op.remaining {
                                    op.addr += sent as u64;
                                    op.remaining -= sent;
                                    true
                                } else {
                                    chan.cur = chan.queue.pop_front();
                                    chan.cur.is_some()
                                }
                            }
                        }
                    }
                };
                if resubmit {
                    if let Err(e) = self.push_write_locked(st, ch) {
                        self.fail(format!("io_uring submit: {e}"));
                    }
                }
            }
            st.cq_scratch = cqes;
        }

        /// The doorbell: retire whatever has already completed (so
        /// short-write continuations resubmit on the dispatcher's
        /// schedule, not the reaper's), then submit everything queued
        /// since the last kick with one kernel crossing.
        fn kick(&self) -> io::Result<()> {
            if self.dead.load(Ordering::Acquire) {
                return Err(self.stored_err());
            }
            let mut st = self.sub.lock();
            self.drain_cqes_locked(&mut st);
            if st.queued > 0 {
                self.ring.submit(st.queued)?;
                st.queued = 0;
            }
            Ok(())
        }

        /// Wait until every queued data-frame write has fully left the
        /// ring. The write-side shutdown must run behind this: unlike
        /// the TCP backend's synchronous sends, a queued frame (e.g. a
        /// spurious retransmit whose original was acked in the
        /// meantime) can still be in flight when `DatasetComplete` goes
        /// out, and `SHUT_WR` would truncate it mid-frame — the sink
        /// sees a torn stream instead of a clean end-of-stream. Timed
        /// waits, because the reaper may consume the very CQE being
        /// waited on.
        fn drain_writes(&self) {
            loop {
                if self.dead.load(Ordering::Acquire) {
                    return; // the error path owns the links now
                }
                {
                    let mut st = self.sub.lock();
                    self.drain_cqes_locked(&mut st);
                    if st.queued > 0 {
                        if let Err(e) = self.ring.submit(st.queued) {
                            self.fail(format!("io_uring submit: {e}"));
                            return;
                        }
                        st.queued = 0;
                    }
                    if st
                        .chans
                        .iter()
                        .all(|c| c.cur.is_none() && c.queue.is_empty())
                    {
                        return;
                    }
                }
                if self.ring.wait(Some(Duration::from_millis(1))).is_err() {
                    return;
                }
            }
        }

        /// The reaper: the source's single transport thread, the
        /// backstop for completions that land while the dispatcher is
        /// blocked elsewhere. Exits once the teardown guard raises
        /// `shutdown` and every expected CQE has drained.
        fn reap_loop(self: &Arc<SrcRing>) {
            loop {
                if self.shutdown.load(Ordering::Acquire)
                    && self.inflight.load(Ordering::Acquire) == 0
                {
                    return;
                }
                if let Err(e) = self.ring.wait(None) {
                    self.fail(format!("io_uring wait: {e}"));
                    return;
                }
                let mut st = self.sub.lock();
                self.drain_cqes_locked(&mut st);
                // Continuations go out before the next block on the
                // wait — one crossing per batch.
                if st.queued > 0 {
                    if let Err(e) = self.ring.submit(st.queued) {
                        self.fail(format!("io_uring submit: {e}"));
                    }
                    st.queued = 0;
                }
            }
        }
    }

    /// One channel's send handle over the shared ring.
    struct UringDataTx {
        ch: usize,
        shared: Arc<SrcRing>,
    }

    impl DataTx for UringDataTx {
        fn send(&self, hdr: DataFrameHeader, wire: &[u8]) -> io::Result<()> {
            // No registered slot backs this payload, so carry an owned
            // copy (exactly what the channel backend does) and kick
            // immediately — this path is control-scale, not bulk.
            let mut own = vec![0u8; DATA_FRAME_HEADER_LEN + wire.len()].into_boxed_slice();
            hdr.encode(&mut own[..DATA_FRAME_HEADER_LEN]);
            own[DATA_FRAME_HEADER_LEN..].copy_from_slice(wire);
            let op = WriteOp {
                addr: own.as_ptr() as u64,
                remaining: own.len() as u32,
                buf_index: OWNED_BUF,
                _own: Some(own),
            };
            self.shared.queue_op(self.ch, op)?;
            self.shared.kick()
        }

        fn send_block(
            &self,
            hdr: DataFrameHeader,
            bufs: &[Mutex<SlotBuf>],
            block: u32,
        ) -> io::Result<()> {
            // Write the frame header into the slot's dead space so
            // header + wire image is one contiguous fixed-buffer write
            // — no linked SQEs, no staging copy. The block stays pinned
            // until its ack, so the kernel always reads stable bytes (a
            // retransmit rewrites identical ones).
            let (addr, total) = {
                let mut buf = bufs[block as usize].lock();
                let frame = buf.framed_mut(DATA_FRAME_HEADER_LEN);
                hdr.encode(&mut frame[..DATA_FRAME_HEADER_LEN]);
                (
                    frame.as_ptr() as u64,
                    (DATA_FRAME_HEADER_LEN + hdr.wire_len()) as u32,
                )
            };
            self.shared.queue_op(
                self.ch,
                WriteOp {
                    addr,
                    remaining: total,
                    buf_index: block as u16,
                    _own: None,
                },
            )
        }

        fn kick(&self) -> io::Result<()> {
            self.shared.kick()
        }
    }

    /// Joins the reaper on drop (stashed in the transport's `abort`
    /// closure, so it lives exactly as long as the transport): raises
    /// `shutdown`, wakes the reaper with a NOP, and waits for it to
    /// drain every in-flight CQE before the ring can be unmapped.
    struct ReaperGuard {
        shared: Arc<SrcRing>,
        handle: Option<std::thread::JoinHandle<()>>,
    }

    impl Drop for ReaperGuard {
        fn drop(&mut self) {
            self.shared.shutdown.store(true, Ordering::Release);
            {
                let mut st = self.shared.sub.lock();
                let nop = Sqe {
                    opcode: IORING_OP_NOP,
                    user_data: UD_NOP,
                    ..Default::default()
                };
                if self.shared.push_sqe_locked(&mut st, &nop).is_ok() {
                    let queued = st.queued;
                    st.queued = 0;
                    let _ = self.shared.ring.submit(queued);
                }
            }
            if let Some(h) = self.handle.take() {
                let _ = h.join();
            }
        }
    }

    /// Connect the source half to a sink listening at `addr`, like
    /// [`crate::net::connect_source`], but with every data link driven
    /// through one io_uring: same hello exchange, same wire bytes, one
    /// reaper thread instead of per-send blocking writes.
    pub fn connect_source_uring(
        addr: impl ToSocketAddrs + Copy,
        channels: usize,
        sockbuf: usize,
    ) -> io::Result<SourceTransport> {
        // Unsupported kernels fail here, before anything connects.
        ring_caps()?;
        let SessionStreams {
            ctrl,
            data,
            token: _,
        } = connect_streams(addr, channels, sockbuf)?;
        let ring = transfer_ring(false)?;
        assert!(channels as u32 + 2 <= RING_ENTRIES);

        let mut handles = vec![ctrl.try_clone()?];
        for s in &data {
            handles.push(s.try_clone()?);
        }
        let handles = Arc::new(handles);
        let chans = data
            .iter()
            .map(|s| Chan {
                fd: s.as_raw_fd(),
                cur: None,
                queue: VecDeque::new(),
            })
            .collect();
        let shared = Arc::new(SrcRing {
            ring,
            sub: Mutex::new(SubState {
                chans,
                queued: 0,
                cq_scratch: Vec::with_capacity(64),
            }),
            inflight: AtomicI64::new(0),
            shutdown: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            err: Mutex::new(None),
            socks: data,
        });
        let reaper = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("rftp-uring-src".into())
                .spawn(move || shared.reap_loop())?
        };
        let guard = ReaperGuard {
            shared: shared.clone(),
            handle: Some(reaper),
        };

        let ctrl_rd = ctrl.try_clone()?;
        let data_tx: Vec<Box<dyn DataTx>> = (0..channels)
            .map(|ch| {
                Box::new(UringDataTx {
                    ch,
                    shared: shared.clone(),
                }) as Box<dyn DataTx>
            })
            .collect();
        let reg_shared = shared.clone();
        let shutdown_shared = shared.clone();
        let shutdown_handles = handles.clone();
        Ok(SourceTransport {
            ctrl_tx: Arc::new(NetCtrlTx(Mutex::new(ctrl))),
            ctrl_rx: Box::new(NetCtrlRx::new(ctrl_rd)),
            data: Arc::new(data_tx),
            register: Box::new(move |bufs: &BufPool| {
                let view: Vec<&Mutex<SlotBuf>> = bufs.iter().collect();
                reg_shared.ring.register_pool(&view)
            }),
            transport_threads: 1,
            shutdown_write: Box::new(move || {
                shutdown_shared.drain_writes();
                shutdown_all(&shutdown_handles, Shutdown::Write)
            }),
            abort: Arc::new(move || {
                // `guard` rides in this closure so the reaper is joined
                // exactly when the transport is dropped.
                let _keep = &guard;
                shared.fail("transport aborted".into());
                shutdown_all(&handles, Shutdown::Both);
            }),
        })
    }

    // -----------------------------------------------------------------
    // Sink half
    // -----------------------------------------------------------------

    /// Where one data link's header-first framing state machine stands:
    /// the 16-byte [`DataFrameHeader`] is read (`FxHeader`) and routed
    /// *before* the payload read is committed, into either the credited
    /// slot's registered buffer (`FxPlace`, a `READ_FIXED` — the CQE is
    /// the placement) or a scratch buffer (`FxDiscard`, a duplicate
    /// arrival).
    #[derive(Clone, Copy)]
    enum RxState {
        FxHeader {
            got: usize,
        },
        FxPlace {
            hdr: DataFrameHeader,
            base: u64,
            got: usize,
            t0: Instant,
        },
        FxDiscard {
            wire_len: usize,
            got: usize,
        },
        Eof,
    }

    struct Link {
        fd: i32,
        state: RxState,
        /// Boxed so its address is stable while a kernel header read
        /// targets it.
        hdr_buf: Box<[u8; DATA_FRAME_HEADER_LEN]>,
        scratch: Vec<u8>,
    }

    struct CtrlLink {
        fd: i32,
        buf: Box<[u8; 4096]>,
        dec: rftp_core::wire::FrameDecoder,
        eof: bool,
    }

    /// What one session's driver half hands back to its handler thread
    /// at detach: the placement stats the driver accumulated on the
    /// session's behalf, any driver-side error, and a snapshot of the
    /// shared ring's counters.
    struct SessionStats {
        place_ns: u64,
        flush_ns: u64,
        duplicates: u64,
        place_hist: NsHist,
        err: Option<io::Error>,
        ring: UringStats,
    }

    /// One admitted session as the shared driver sees it: wire
    /// geometry, link state machines, the slot mapping, and the
    /// handler-side plumbing.
    struct Sess {
        /// Wire slot index → fixed-buffer index in the driver's
        /// registered table. Identity for a standalone sink (the pool
        /// *is* the table); an arena lease for daemon sessions — the
        /// stable global slot indices are what let one
        /// `register_buffers` call at daemon startup cover every future
        /// lease.
        lease: Vec<u32>,
        links: Vec<Link>,
        ctrl: CtrlLink,
        block_size: usize,
        pool_blocks: u32,
        total_blocks: u64,
        placed: Arc<AtomicBitmap>,
        backend: Arc<SnkBackend>,
        /// Driver-owned socket clones (control first), shut down to cut
        /// the session loose on a driver-side failure or detach.
        socks: Vec<TcpStream>,
        /// Events parsed this loop, not yet handed to the handler.
        emit: Vec<SinkEvt>,
        /// Daemon mode: the session thread's mailbox. `None` in pump
        /// mode (the session thread *is* the driver thread) — and after
        /// a failure, which is how the handler learns the source died.
        mailbox: Option<crossbeam::channel::Sender<SinkEvt>>,
        /// Daemon mode: where the detach handshake delivers
        /// [`SessionStats`].
        stats_tx: Option<std::sync::mpsc::SyncSender<SessionStats>>,
        /// Kernel ops currently in flight for this session.
        inflight: u32,
        err: Option<io::Error>,
        /// Detach requested: stop re-arming, drain to `inflight == 0`,
        /// then send stats and drop the entry.
        detaching: bool,
        /// Sockets already shut down (error/detach path ran).
        cut: bool,
        /// Payload (`FxPlace`) reads armed right now, bounded by
        /// [`PLACE_CAP`].
        place_armed: u32,
        /// Links routed into `FxPlace` whose read is deferred until a
        /// slot under the cap frees up. Safe to defer: the header is
        /// already read, and the source wrote header + payload as one
        /// contiguous write, so the payload is on the wire (or in the
        /// socket buffer) no matter when the read arms.
        place_pending: VecDeque<usize>,
        place_ns: u64,
        flush_ns: u64,
        duplicates: u64,
        place_hist: NsHist,
    }

    impl Sess {
        /// Build a session entry over driver-owned socket clones
        /// (control + data, in that order).
        #[allow(clippy::too_many_arguments)]
        fn new(
            lease: Vec<u32>,
            ctrl: TcpStream,
            data: Vec<TcpStream>,
            block_size: usize,
            pool_blocks: u32,
            total_blocks: u64,
            placed: Arc<AtomicBitmap>,
            backend: Arc<SnkBackend>,
            mailbox: Option<crossbeam::channel::Sender<SinkEvt>>,
            stats_tx: Option<std::sync::mpsc::SyncSender<SessionStats>>,
        ) -> Sess {
            let links = data
                .iter()
                .map(|s| Link {
                    fd: s.as_raw_fd(),
                    state: RxState::FxHeader { got: 0 },
                    hdr_buf: Box::new([0u8; DATA_FRAME_HEADER_LEN]),
                    scratch: Vec::new(),
                })
                .collect();
            let ctrl_link = CtrlLink {
                fd: ctrl.as_raw_fd(),
                buf: Box::new([0u8; 4096]),
                dec: rftp_core::wire::FrameDecoder::new(),
                eof: false,
            };
            let mut socks = vec![ctrl];
            socks.extend(data);
            Sess {
                lease,
                links,
                ctrl: ctrl_link,
                block_size,
                pool_blocks,
                total_blocks,
                placed,
                backend,
                socks,
                emit: Vec::new(),
                mailbox,
                stats_tx,
                inflight: 0,
                err: None,
                detaching: false,
                cut: false,
                place_armed: 0,
                place_pending: VecDeque::new(),
                place_ns: 0,
                flush_ns: 0,
                duplicates: 0,
                place_hist: NsHist::new(),
            }
        }
    }

    /// Per-session cap on concurrently-armed payload reads — one keeps
    /// each socket→slot copy adjacent to its verify instead of a burst
    /// of sibling copies evicting the block first. Per session, so a
    /// peer stopped mid-frame holds only its own session's slot.
    const PLACE_CAP: u32 = 1;

    /// `user_data` link field naming a session's control socket.
    const CTRL_LINK: u32 = u32::MAX;
    /// `user_data` of the daemon driver's hub-wakeup read. (`UD_NOP` is
    /// `u64::MAX`; session ids never reach `u32::MAX`, so neither
    /// sentinel collides with `ud()`.)
    const UD_WAKE: u64 = u64::MAX - 1;

    /// Completion demultiplexing key: session id in the high word, link
    /// index (or [`CTRL_LINK`]) in the low.
    fn ud(sid: u32, link: u32) -> u64 {
        ((sid as u64) << 32) | link as u64
    }

    /// The hub-wakeup socket the daemon driver arms a `READ` on, so
    /// registration/detach messages interrupt a blocked `GETEVENTS`.
    struct WakeLink {
        stream: UnixStream,
        buf: Box<[u8; 64]>,
    }

    /// What `on_cqe`'s split-borrow inner blocks ask the driver to do
    /// next, once the session borrow is released.
    enum Next {
        None,
        /// Re-arm link `i`'s current state.
        Arm,
        /// Arm link `i`'s `FxPlace` read under the cap (or queue it).
        ArmPlace,
        /// A block finished placing on link `i`: free its cap slot (arming
        /// a deferred placement if any), then re-arm `i`'s header read.
        Placed,
        /// Record a session-level failure and cut the session loose.
        Fail(io::Error),
    }

    /// The sink's single data-path driver: one ring, one thread, every
    /// admitted session's links. Two harnesses share it:
    ///
    /// * **pump mode** (the standalone sink, [`run_uring_sink`]): one
    ///   session, and [`MultiDriver::pump`] is the event source
    ///   [`drain_coalesced`] drives the [`SinkHandler`] with — CQE
    ///   batches in, a batch of [`SinkEvt`]s out, dwell waits as
    ///   `EXT_ARG` ring timeouts;
    /// * **daemon mode**: the driver loop forwards each session's
    ///   events through its mailbox to the session thread, which runs
    ///   the same handler + drain over [`channel_events`].
    struct MultiDriver<'a> {
        ring: &'a Ring,
        /// The registered fixed-buffer table; each session's `lease`
        /// maps wire slots into it.
        slots: &'a [&'a Mutex<SlotBuf>],
        sessions: HashMap<u32, Sess>,
        queued: u32,
        cqes: Vec<Cqe>,
        /// The place-clock floor: the last instant this thread returned
        /// from a ring wait or finished retiring a completion. A
        /// block's place time clocks from `max(armed, floor)`, so it
        /// measures the driver's *observable wait* for that block's
        /// bytes — comparable to the TCP sink's per-thread blocking
        /// reads.
        place_floor: Instant,
        /// Ring-level failure: everything on the ring is dead.
        fatal: Option<io::Error>,
        wake: Option<WakeLink>,
        wake_armed: bool,
        /// Teardown: stop re-arming the wake read.
        stopping: bool,
    }

    impl<'a> MultiDriver<'a> {
        fn new(ring: &'a Ring, slots: &'a [&'a Mutex<SlotBuf>]) -> MultiDriver<'a> {
            MultiDriver {
                ring,
                slots,
                sessions: HashMap::new(),
                queued: 0,
                cqes: Vec::with_capacity(64),
                place_floor: Instant::now(),
                fatal: None,
                wake: None,
                wake_armed: false,
                stopping: false,
            }
        }

        fn stats_snapshot(&self) -> UringStats {
            UringStats {
                enters: self.ring.enters.load(Ordering::Relaxed),
                cqes: self.ring.reaped.load(Ordering::Relaxed),
                pbuf_exhausted: 0,
                registrations: self.ring.registers.load(Ordering::Relaxed),
            }
        }

        fn push_sqe(&mut self, sqe: &Sqe) -> io::Result<()> {
            while !self.ring.sq_push(sqe) {
                // SQ full: flush what is queued to make room.
                self.ring.submit(self.queued)?;
                self.queued = 0;
            }
            self.queued += 1;
            Ok(())
        }

        fn submit_queued(&mut self) -> io::Result<()> {
            if self.queued > 0 {
                self.ring.submit(self.queued)?;
                self.queued = 0;
            }
            Ok(())
        }

        /// Arm the hub-wakeup read (daemon mode).
        fn arm_wake(&mut self) -> io::Result<()> {
            let Some(w) = &self.wake else { return Ok(()) };
            let sqe = Sqe {
                opcode: IORING_OP_READ,
                fd: w.stream.as_raw_fd(),
                addr: w.buf.as_ptr() as u64,
                len: w.buf.len() as u32,
                user_data: UD_WAKE,
                ..Default::default()
            };
            self.push_sqe(&sqe)?;
            self.wake_armed = true;
            Ok(())
        }

        /// (Re-)arm whatever receive link `i`'s state calls for.
        fn arm_link(&mut self, sid: u32, i: usize) -> io::Result<()> {
            let sess = self.sessions.get_mut(&sid).unwrap();
            let fd = sess.links[i].fd;
            let user_data = ud(sid, i as u32);
            let sqe = match sess.links[i].state {
                RxState::Eof => return Ok(()),
                RxState::FxHeader { got } => Sqe {
                    opcode: IORING_OP_READ,
                    fd,
                    addr: sess.links[i].hdr_buf.as_ptr() as u64 + got as u64,
                    len: (DATA_FRAME_HEADER_LEN - got) as u32,
                    user_data,
                    ..Default::default()
                },
                RxState::FxPlace { hdr, base, got, .. } => Sqe {
                    opcode: IORING_OP_READ_FIXED,
                    fd,
                    addr: base + got as u64,
                    len: (hdr.wire_len() - got) as u32,
                    buf_index: sess.lease[hdr.slot as usize] as u16,
                    user_data,
                    ..Default::default()
                },
                RxState::FxDiscard { wire_len, got } => {
                    let want = (wire_len - got).min(64 * 1024);
                    if sess.links[i].scratch.len() < want {
                        sess.links[i].scratch.resize(want, 0);
                    }
                    Sqe {
                        opcode: IORING_OP_READ,
                        fd,
                        addr: sess.links[i].scratch.as_ptr() as u64,
                        len: want as u32,
                        user_data,
                        ..Default::default()
                    }
                }
            };
            sess.inflight += 1;
            self.push_sqe(&sqe)
        }

        /// Arm a `FxPlace` read if the session's cap has room, else
        /// park the link. Resets the place clock at true arm time so a
        /// parked link doesn't bill its queue wait as placement.
        fn arm_place(&mut self, sid: u32, i: usize) -> io::Result<()> {
            let sess = self.sessions.get_mut(&sid).unwrap();
            if sess.place_armed < PLACE_CAP {
                sess.place_armed += 1;
                if let RxState::FxPlace { ref mut t0, .. } = sess.links[i].state {
                    *t0 = Instant::now();
                }
                self.arm_link(sid, i)
            } else {
                sess.place_pending.push_back(i);
                Ok(())
            }
        }

        fn arm_ctrl(&mut self, sid: u32) -> io::Result<()> {
            let sess = self.sessions.get_mut(&sid).unwrap();
            let sqe = Sqe {
                opcode: IORING_OP_READ,
                fd: sess.ctrl.fd,
                addr: sess.ctrl.buf.as_ptr() as u64,
                len: sess.ctrl.buf.len() as u32,
                user_data: ud(sid, CTRL_LINK),
                ..Default::default()
            };
            sess.inflight += 1;
            self.push_sqe(&sqe)
        }

        /// Insert a session and arm every opening read. The caller
        /// submits (pump's first loop / the daemon tick).
        fn add_session(&mut self, sid: u32, sess: Sess) -> io::Result<()> {
            let links = sess.links.len();
            self.sessions.insert(sid, sess);
            for i in 0..links {
                self.arm_link(sid, i)?;
            }
            self.arm_ctrl(sid)
        }

        /// First-error-wins session failure: record it, cut the
        /// session's sockets (in-flight ops complete as errors
        /// promptly), and drop the mailbox so the handler thread sees
        /// the source close after draining what was already parsed.
        fn sess_fail(&mut self, sid: u32, e: io::Error) {
            let Some(sess) = self.sessions.get_mut(&sid) else {
                return;
            };
            if sess.err.is_none() {
                sess.err = Some(e);
            }
            if !sess.cut {
                sess.cut = true;
                shutdown_all(&sess.socks, Shutdown::Both);
            }
            sess.mailbox = None;
        }

        /// Daemon detach: stop re-arming, cut the sockets so armed ops
        /// drain, and let `finalize_sessions` complete the handshake at
        /// `inflight == 0`.
        fn begin_detach(&mut self, sid: u32) {
            let Some(sess) = self.sessions.get_mut(&sid) else {
                return;
            };
            sess.detaching = true;
            sess.mailbox = None;
            if !sess.cut {
                sess.cut = true;
                shutdown_all(&sess.socks, Shutdown::Both);
            }
        }

        /// Complete the detach handshake for every drained session:
        /// send its stats (and any driver-side error) to the waiting
        /// session thread and drop the entry. No in-flight op can now
        /// land in the session's leased slots, so the caller may
        /// release the lease the moment it receives the stats.
        fn finalize_sessions(&mut self) {
            let done: Vec<u32> = self
                .sessions
                .iter()
                .filter(|(_, s)| s.detaching && s.inflight == 0)
                .map(|(&sid, _)| sid)
                .collect();
            for sid in done {
                let ring = self.stats_snapshot();
                let sess = self.sessions.remove(&sid).unwrap();
                if let Some(tx) = sess.stats_tx {
                    let _ = tx.send(SessionStats {
                        place_ns: sess.place_ns,
                        flush_ns: sess.flush_ns,
                        duplicates: sess.duplicates,
                        place_hist: sess.place_hist,
                        err: sess.err,
                        ring,
                    });
                }
            }
        }

        /// Forward freshly-parsed events to each daemon session's
        /// mailbox (batched per driver loop, so a CQE burst arrives at
        /// the handler as one `recv_batch`).
        fn deliver_mailboxes(&mut self) {
            for sess in self.sessions.values_mut() {
                if sess.emit.is_empty() {
                    continue;
                }
                match &sess.mailbox {
                    Some(tx) => {
                        for ev in sess.emit.drain(..) {
                            let _ = tx.send(ev);
                        }
                    }
                    None => sess.emit.clear(),
                }
            }
        }

        fn on_ctrl_cqe(&mut self, sid: u32, c: &Cqe) -> io::Result<()> {
            let mut next = Next::None;
            {
                let sess = self.sessions.get_mut(&sid).unwrap();
                let idle = sess.detaching || sess.err.is_some();
                if c.res == -ECANCELED {
                    if !idle {
                        next = Next::Arm;
                    }
                } else if c.res < 0 {
                    if !idle {
                        next = Next::Fail(io::Error::from_raw_os_error(-c.res));
                    }
                } else if c.res == 0 {
                    if sess.ctrl.dec.pending_bytes() != 0 {
                        next = Next::Fail(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "control stream closed mid-frame",
                        ));
                    } else {
                        sess.ctrl.eof = true;
                        sess.emit.push(SinkEvt::CtrlEof);
                    }
                } else {
                    let n = c.res as usize;
                    let buf: &[u8] = &sess.ctrl.buf[..n];
                    // Decode in place; the decoder owns a copy.
                    let buf = buf.to_vec();
                    sess.ctrl.dec.push(&buf);
                    loop {
                        match sess.ctrl.dec.next_frame() {
                            Ok(Some(msg)) => sess.emit.push(SinkEvt::Ctrl(msg)),
                            Ok(None) => break,
                            Err(e) => {
                                next = Next::Fail(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!("bad control frame: {e:?}"),
                                ));
                                break;
                            }
                        }
                    }
                    if matches!(next, Next::None) && !idle {
                        next = Next::Arm;
                    }
                }
            }
            match next {
                Next::Arm => self.arm_ctrl(sid),
                Next::Fail(e) => {
                    self.sess_fail(sid, e);
                    Ok(())
                }
                _ => Ok(()),
            }
        }

        /// Data completion: the header-first armed-read state machine.
        fn on_data_cqe(&mut self, sid: u32, i: usize, c: &Cqe) -> io::Result<()> {
            let place_floor = self.place_floor;
            let mut next = Next::None;
            {
                let Self {
                    sessions, slots, ..
                } = self;
                let sess = sessions.get_mut(&sid).unwrap();
                let idle = sess.detaching || sess.err.is_some();
                let st = sess.links[i].state;
                if c.res == -ECANCELED && !matches!(st, RxState::Eof) {
                    // Dropped without side effects — retry in place.
                    if !idle {
                        next = Next::Arm;
                    }
                } else if c.res < 0 {
                    if !idle {
                        next = Next::Fail(io::Error::from_raw_os_error(-c.res));
                    }
                } else {
                    let n = c.res as usize;
                    match st {
                        RxState::FxHeader { got } => {
                            if n == 0 {
                                if got == 0 {
                                    sess.links[i].state = RxState::Eof;
                                    sess.emit.push(SinkEvt::DataEof);
                                } else {
                                    next = Next::Fail(io::Error::new(
                                        io::ErrorKind::UnexpectedEof,
                                        "stream closed mid-frame",
                                    ));
                                }
                            } else {
                                let got = got + n;
                                if got < DATA_FRAME_HEADER_LEN {
                                    sess.links[i].state = RxState::FxHeader { got };
                                    next = Next::Arm;
                                } else {
                                    match DataFrameHeader::decode(&sess.links[i].hdr_buf[..]) {
                                        Err(e) => {
                                            next = Next::Fail(perr(format!(
                                                "bad data frame header: {e:?}"
                                            )))
                                        }
                                        Ok(hdr)
                                            if hdr.session != SESSION
                                                || hdr.slot >= sess.pool_blocks
                                                || hdr.len as usize > sess.block_size
                                                || hdr.seq as u64 >= sess.total_blocks =>
                                        {
                                            next =
                                                Next::Fail(perr(format!("bad data frame {hdr:?}")))
                                        }
                                        Ok(hdr) => {
                                            if !sess.placed.claim(hdr.seq as u64) {
                                                // Retransmit raced a slow
                                                // ack; consume without
                                                // placing.
                                                sess.duplicates += 1;
                                                sess.links[i].state = RxState::FxDiscard {
                                                    wire_len: hdr.wire_len(),
                                                    got: 0,
                                                };
                                                next = Next::Arm;
                                            } else {
                                                // Route on the header, then
                                                // commit the payload read
                                                // straight into the credited
                                                // slot's registered buffer —
                                                // the CQE is the placement.
                                                let fixed = sess.lease[hdr.slot as usize] as usize;
                                                let base = slots[fixed].lock().as_ptr() as u64;
                                                sess.links[i].state = RxState::FxPlace {
                                                    hdr,
                                                    base,
                                                    got: 0,
                                                    t0: Instant::now(),
                                                };
                                                next = Next::ArmPlace;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        RxState::FxPlace { hdr, got, t0, .. } => {
                            if n == 0 {
                                next = Next::Fail(io::Error::new(
                                    io::ErrorKind::UnexpectedEof,
                                    "stream closed mid-frame",
                                ));
                            } else {
                                let got = got + n;
                                if got < hdr.wire_len() {
                                    if let RxState::FxPlace { got: ref mut g, .. } =
                                        sess.links[i].state
                                    {
                                        *g = got;
                                    }
                                    next = Next::Arm;
                                } else {
                                    // Clock from max(armed, floor) — see
                                    // `place_floor`.
                                    let ns = t0.max(place_floor).elapsed().as_nanos() as u64;
                                    sess.place_ns += ns;
                                    sess.place_hist.record(ns);
                                    let mut write_err = None;
                                    if let SnkBackend::File(sink) = &*sess.backend {
                                        // Write-behind: the block lands at
                                        // its final offset the moment it is
                                        // placed.
                                        let t1 = Instant::now();
                                        let fixed = sess.lease[hdr.slot as usize] as usize;
                                        let dst = slots[fixed].lock();
                                        match sink.write_block(
                                            &dst[PAYLOAD_HEADER_LEN
                                                ..PAYLOAD_HEADER_LEN + hdr.len as usize],
                                            hdr.seq as u64 * sess.block_size as u64,
                                        ) {
                                            Ok(()) => {
                                                sess.flush_ns += t1.elapsed().as_nanos() as u64
                                            }
                                            Err(e) => write_err = Some(e),
                                        }
                                    }
                                    match write_err {
                                        Some(e) => next = Next::Fail(e),
                                        None => {
                                            sess.emit.push(SinkEvt::Arrival {
                                                seq: hdr.seq,
                                                slot: hdr.slot,
                                                len: hdr.len,
                                            });
                                            sess.links[i].state = RxState::FxHeader { got: 0 };
                                            next = Next::Placed;
                                        }
                                    }
                                }
                            }
                        }
                        RxState::FxDiscard { wire_len, got } => {
                            if n == 0 {
                                next = Next::Fail(io::Error::new(
                                    io::ErrorKind::UnexpectedEof,
                                    "stream closed mid-frame",
                                ));
                            } else {
                                let got = got + n;
                                if got < wire_len {
                                    sess.links[i].state = RxState::FxDiscard { wire_len, got };
                                } else {
                                    sess.links[i].state = RxState::FxHeader { got: 0 };
                                }
                                next = Next::Arm;
                            }
                        }
                        _ => {}
                    }
                }
            }
            match next {
                Next::None => Ok(()),
                Next::Arm => self.arm_link(sid, i),
                Next::ArmPlace => self.arm_place(sid, i),
                Next::Placed => {
                    let parked = {
                        let sess = self.sessions.get_mut(&sid).unwrap();
                        sess.place_armed -= 1;
                        sess.place_pending.pop_front()
                    };
                    if let Some(j) = parked {
                        self.arm_place(sid, j)?;
                    }
                    self.arm_link(sid, i)
                }
                Next::Fail(e) => {
                    self.sess_fail(sid, e);
                    Ok(())
                }
            }
        }

        /// Route one CQE. `Err` here is ring-fatal (a failed submit);
        /// session-level failures are recorded via `sess_fail`.
        fn on_cqe(&mut self, c: &Cqe) -> io::Result<()> {
            if c.user_data == UD_NOP {
                return Ok(());
            }
            if c.user_data == UD_WAKE {
                self.wake_armed = false;
                if !self.stopping {
                    return self.arm_wake();
                }
                return Ok(());
            }
            let sid = (c.user_data >> 32) as u32;
            let link = (c.user_data & u32::MAX as u64) as u32;
            // A CQE for a removed session cannot happen (entries only
            // drop at `inflight == 0`), but route defensively.
            let Some(sess) = self.sessions.get_mut(&sid) else {
                return Ok(());
            };
            sess.inflight = sess.inflight.saturating_sub(1);
            if link == CTRL_LINK {
                self.on_ctrl_cqe(sid, c)
            } else {
                self.on_data_cqe(sid, link as usize, c)
            }
        }

        /// The recv callback for [`drain_coalesced`] in pump mode:
        /// deliver at least one [`SinkEvt`] for session `sid`
        /// (`window: None` blocks; `Some(w)` is a dwell wait bounded by
        /// a *cumulative* deadline across its internal waits), or
        /// `false` when the wait timed out, every link is done, or the
        /// driver failed.
        fn pump(&mut self, sid: u32, window: Option<Duration>, out: &mut Vec<SinkEvt>) -> bool {
            if self.fatal.is_some() || self.sessions.get(&sid).is_none_or(|s| s.err.is_some()) {
                return false;
            }
            self.place_floor = Instant::now();
            let deadline = window.map(|w| Instant::now() + w);
            loop {
                self.cqes.clear();
                self.ring.reap(&mut self.cqes);
                if self.cqes.is_empty() {
                    if self.sessions.get(&sid).map_or(0, |s| s.inflight) == 0 {
                        return false; // every link EOF — nothing can arrive
                    }
                    let waited = match deadline {
                        // Hot path: hand re-armed reads to the kernel
                        // and wait for the next completion in ONE
                        // syscall.
                        None => {
                            let queued = std::mem::take(&mut self.queued);
                            self.ring.submit_and_wait(queued).map(|()| true)
                        }
                        // Dwell wait: flush first, then the timed wait
                        // (`-ETIME` and a fused submit don't mix). Each
                        // retry gets the *remaining* window, so partial
                        // reads can't stretch the dwell past the
                        // handler's flush deadline.
                        Some(d) => {
                            let now = Instant::now();
                            if d <= now {
                                return false; // dwell window exhausted
                            }
                            self.submit_queued()
                                .and_then(|()| self.ring.wait(Some(d - now)))
                        }
                    };
                    match waited {
                        Ok(true) => {
                            self.place_floor = Instant::now();
                            continue;
                        }
                        Ok(false) => {
                            // -ETIME: drain completions that raced the
                            // timeout into this dwell's batch rather
                            // than leaving them for the next pump.
                            if self.ring.cq_ready() > 0 {
                                continue;
                            }
                            return false;
                        }
                        Err(e) => {
                            self.fatal = Some(e);
                            return false;
                        }
                    }
                }
                let cqes = std::mem::take(&mut self.cqes);
                for c in &cqes {
                    let r = self.on_cqe(c);
                    self.place_floor = Instant::now();
                    if let Err(e) = r {
                        self.fatal = Some(e);
                        self.cqes = cqes;
                        return false;
                    }
                }
                self.cqes = cqes;
                if let Some(sess) = self.sessions.get_mut(&sid) {
                    if sess.err.is_some() {
                        return false;
                    }
                    out.append(&mut sess.emit);
                }
                if !out.is_empty() {
                    // Flush the re-arms before handing the events over,
                    // so the kernel fills slots while the handler
                    // verifies and acks.
                    if let Err(e) = self.submit_queued() {
                        self.fatal = Some(e);
                        return false;
                    }
                    return true;
                }
                // Partial reads advanced without yielding an event;
                // keep draining (the empty-reap path flushes `queued`).
            }
        }

        /// The error to surface for session `sid` after a `Closed`
        /// drain (ring-fatal first — it explains every session).
        fn take_err(&mut self, sid: u32) -> Option<io::Error> {
            self.fatal
                .take()
                .or_else(|| self.sessions.get_mut(&sid).and_then(|s| s.err.take()))
        }

        /// One daemon-driver iteration: submit + block for completions
        /// (the armed wake read turns hub messages into CQEs), retire a
        /// batch, forward events. `Err` is ring-fatal.
        fn daemon_tick(&mut self) -> io::Result<()> {
            self.place_floor = Instant::now();
            self.cqes.clear();
            self.ring.reap(&mut self.cqes);
            if self.cqes.is_empty() {
                let queued = std::mem::take(&mut self.queued);
                self.ring.submit_and_wait(queued)?;
                self.place_floor = Instant::now();
                self.ring.reap(&mut self.cqes);
            }
            let cqes = std::mem::take(&mut self.cqes);
            let mut r = Ok(());
            for c in &cqes {
                r = self.on_cqe(c);
                self.place_floor = Instant::now();
                if r.is_err() {
                    break;
                }
            }
            self.cqes = cqes;
            r?;
            self.submit_queued()?;
            self.deliver_mailboxes();
            Ok(())
        }

        /// Ring-fatal failure in daemon mode: every session dies with
        /// it.
        fn fail_all(&mut self, e: io::Error) {
            let sids: Vec<u32> = self.sessions.keys().copied().collect();
            for sid in sids {
                self.sess_fail(sid, perr(format!("shared uring driver failed: {e}")));
                self.begin_detach(sid);
            }
            self.fatal = Some(e);
        }

        /// Drain until no kernel op targets the slot buffers or the wake
        /// buffer — must run (after the sockets are
        /// shut down) before any of them can be freed.
        fn quiesce(&mut self) {
            self.stopping = true;
            if let Some(w) = &self.wake {
                let _ = w.stream.shutdown(Shutdown::Both);
            }
            let _ = self.submit_queued();
            loop {
                let inflight: u32 = self.sessions.values().map(|s| s.inflight).sum();
                if inflight == 0 && !self.wake_armed {
                    return;
                }
                if self.ring.wait(None).is_err() {
                    return; // ring is gone; nothing more to drain
                }
                self.cqes.clear();
                self.ring.reap(&mut self.cqes);
                let cqes = std::mem::take(&mut self.cqes);
                for c in &cqes {
                    if c.user_data == UD_WAKE {
                        self.wake_armed = false;
                        continue;
                    }
                    if c.user_data == UD_NOP {
                        continue;
                    }
                    let sid = (c.user_data >> 32) as u32;
                    if let Some(sess) = self.sessions.get_mut(&sid) {
                        sess.inflight = sess.inflight.saturating_sub(1);
                    }
                }
                self.cqes = cqes;
            }
        }
    }

    /// One accepted source connection set, ready for [`run_uring_sink`]
    /// — the uring counterpart of [`NetListener::accept_session`].
    pub struct UringSinkSession {
        streams: SessionStreams,
    }

    /// Accept one source's connection set for the io_uring sink and
    /// read the opening `SessionRequest` so the caller can size its
    /// half, mirroring [`NetListener::accept_session`]. Fails with
    /// `Unsupported` before accepting anything if the kernel cannot run
    /// the backend.
    pub fn accept_source_uring(
        listener: &NetListener,
        sockbuf: usize,
    ) -> io::Result<(UringSinkSession, CtrlMsg)> {
        ring_caps()?;
        let mut streams = listener.accept_streams(sockbuf)?;
        // Bounded like `accept_session`: a silent post-hello peer is a
        // timeout error, not a parked sink.
        streams
            .ctrl
            .set_read_timeout(Some(crate::net::HELLO_TIMEOUT))?;
        let first = crate::net::read_one_ctrl_frame(&mut streams.ctrl)?;
        streams.ctrl.set_read_timeout(None)?;
        Ok((UringSinkSession { streams }, first))
    }

    /// Run the sink half over one io_uring: the protocol brain is the
    /// same [`SinkHandler`] + [`drain_coalesced`] pair as the TCP sink,
    /// but placement, control reads, and the ack/credit dwell all ride
    /// the ring on **one** thread — no per-channel receivers, no
    /// control pump.
    pub fn run_uring_sink(
        cfg: &LiveConfig,
        session: UringSinkSession,
        first_ctrl: Option<CtrlMsg>,
    ) -> io::Result<LiveReport> {
        assert!(cfg.channels >= 1 && cfg.total_bytes > 0);
        let UringSinkSession { streams } = session;
        let SessionStreams {
            ctrl,
            data,
            token: _,
        } = streams;
        assert_eq!(data.len(), cfg.channels, "one data link per channel");
        assert!(cfg.channels as u32 + 2 <= RING_ENTRIES);
        let bufs: Vec<Mutex<SlotBuf>> = (0..cfg.pool_blocks)
            .map(|_| Mutex::new(SlotBuf::new(cfg.block_size)))
            .collect();
        let snk_bufs: Vec<&Mutex<SlotBuf>> = bufs.iter().collect();
        let total_blocks = cfg.total_blocks();
        let geo = PoolGeometry::new(cfg.block_size as u64, cfg.pool_blocks);
        let backend = Arc::new(SnkBackend::open(cfg)?);

        let snk_pool = AtomicSinkPool::new(geo);
        let granter = Mutex::new(Granter::new(
            rftp_core::CreditMode::Proactive,
            cfg.initial_credits,
            cfg.grant_per_completion,
            4,
        ));
        let placed = Arc::new(AtomicBitmap::new(total_blocks));

        let ring = transfer_ring(true)?;
        ring.register_pool(&snk_bufs)?;

        let mut handles = vec![ctrl.try_clone()?];
        for s in &data {
            handles.push(s.try_clone()?);
        }
        let handles = Arc::new(handles);
        let fail_handles = handles.clone();
        let fail = Fail::new(Arc::new(move || {
            shutdown_all(&fail_handles, Shutdown::Both)
        }));
        let ctrl_wr = ctrl.try_clone()?;
        let ctrl_tx = NetCtrlTx(Mutex::new(ctrl_wr));

        let start = Instant::now();
        let ctl = cfg.adaptive.then(|| Controller::new(cfg));
        let mut h = SinkHandler::new(
            cfg,
            &ctrl_tx,
            &snk_pool,
            &granter,
            &snk_bufs,
            None,
            ctl.as_ref(),
        );
        let mut drv = MultiDriver::new(&ring, &snk_bufs);
        // Pump mode: one session, identity lease (the pool *is* the
        // registered table), no mailbox — `pump` feeds the handler
        // directly on this thread.
        let sess = Sess::new(
            (0..cfg.pool_blocks).collect(),
            ctrl,
            data,
            cfg.block_size,
            cfg.pool_blocks,
            total_blocks,
            placed,
            backend.clone(),
            None,
            None,
        );

        let run = (|| -> io::Result<()> {
            if let Some(msg) = first_ctrl {
                h.handle(SinkEvt::Ctrl(msg))?;
            }
            drv.add_session(0, sess)?;
            match drain_coalesced(&mut h, &mut |w, out| drv.pump(0, w, out))? {
                DrainEnd::Done => Ok(()),
                DrainEnd::Closed => Err(drv
                    .take_err(0)
                    .unwrap_or_else(|| perr("event pipeline stopped before transfer completed"))),
            }
        })();
        if let Err(e) = run {
            fail.set(e);
        }
        // Quiesce before the slot buffers or ring can be freed: shut every link (the transfer is over either
        // way — the final acks are already flushed and ride out ahead
        // of the FIN), then drain the in-flight reads the shutdown
        // completes.
        shutdown_all(&handles, Shutdown::Both);
        drv.quiesce();
        let ring_stats = drv.stats_snapshot();
        let sess = drv.sessions.remove(&0).unwrap();
        let stats = SessionStats {
            place_ns: sess.place_ns,
            flush_ns: sess.flush_ns,
            duplicates: sess.duplicates,
            place_hist: sess.place_hist,
            err: None,
            ring: ring_stats,
        };
        drop(drv);
        drop(ring);

        if fail.is_set() {
            return Err(fail.into_err());
        }
        finish_sink(cfg, &h, &snk_pool, &backend, start, stats, ctl.as_ref())
    }

    /// The tail both uring sinks share once their data path has
    /// quiesced: sync a file sink, check the pool's accounting, and
    /// assemble the report from the handler and the placement stats the
    /// driver kept for the session.
    fn finish_sink(
        cfg: &LiveConfig,
        h: &SinkHandler<'_>,
        snk_pool: &AtomicSinkPool,
        backend: &SnkBackend,
        start: Instant,
        stats: SessionStats,
        ctl: Option<&Controller>,
    ) -> io::Result<LiveReport> {
        let total_blocks = cfg.total_blocks();
        let mut sync_ns = 0u64;
        if let SnkBackend::File(sink) = backend {
            let t0 = Instant::now();
            sink.sync()?;
            sync_ns = t0.elapsed().as_nanos() as u64;
        }
        let elapsed = start.elapsed();
        assert_eq!(h.delivered, total_blocks, "blocks lost in the pipeline");
        snk_pool.check_invariants();
        let per_block = |ns: u64| ns as f64 / total_blocks as f64;
        Ok(LiveReport {
            bytes: cfg.total_bytes,
            blocks: total_blocks,
            elapsed,
            gbytes_per_sec: cfg.total_bytes as f64 / 1e9 / elapsed.as_secs_f64().max(1e-9),
            checksum_failures: h.checksum_failures,
            ooo_blocks: h.reorder.ooo_arrivals,
            ctrl_msgs: h.ctrl_msgs,
            ctrl_msgs_per_block: h.ctrl_msgs as f64 / total_blocks as f64,
            credit_requests: 0,
            dropped_payloads: 0,
            retransmits: 0,
            duplicate_payloads: stats.duplicates,
            stages: StageBreakdown {
                place_ns: per_block(stats.place_ns),
                verify_ns: per_block(h.verify_ns),
                flush_ns: per_block(stats.flush_ns),
                sync_ns: per_block(sync_ns),
                ..Default::default()
            },
            tails: StageTails {
                place: stats.place_hist,
                verify: h.verify_hist.clone(),
                ..Default::default()
            },
            // The whole data path — all N links, placement, control,
            // and the dwell — is one driver thread: this one for a
            // standalone sink, the daemon's shared driver for a daemon
            // session (whose own thread only runs the protocol brain).
            transport_threads: 1,
            direct_io_active: backend.direct_active(),
            uring: Some(stats.ring),
            adapt: ctl.map(Controller::snapshot),
        })
    }

    // -----------------------------------------------------------------
    // Shared daemon driver: one ring, one thread, every session
    // -----------------------------------------------------------------

    /// Everything the shared driver needs to adopt one admitted
    /// session: wire geometry, the arena lease, driver-owned socket
    /// clones, and the handler-side plumbing.
    pub(crate) struct SessionReg {
        sid: u32,
        lease: Vec<u32>,
        ctrl: TcpStream,
        data: Vec<TcpStream>,
        block_size: usize,
        pool_blocks: u32,
        total_blocks: u64,
        placed: Arc<AtomicBitmap>,
        backend: Arc<SnkBackend>,
        mailbox: crossbeam::channel::Sender<SinkEvt>,
        stats_tx: std::sync::mpsc::SyncSender<SessionStats>,
    }

    enum HubMsg {
        Register(Box<SessionReg>),
        Detach(u32),
        Stop,
    }

    /// Session threads' handle to the daemon's one shared driver
    /// thread. Every message is paired with a byte on the wake socket,
    /// whose armed `READ` turns it into a CQE — so a driver blocked in
    /// `GETEVENTS` notices registrations and detaches immediately.
    pub(crate) struct UringHub {
        tx: std::sync::mpsc::Sender<HubMsg>,
        wake: Mutex<UnixStream>,
        next_sid: AtomicU32,
    }

    impl UringHub {
        fn send(&self, msg: HubMsg) -> io::Result<()> {
            self.tx
                .send(msg)
                .map_err(|_| perr("shared uring driver is gone"))?;
            use io::Write;
            // A failed wake write means the driver already tore the
            // socket down on its way out; the message error above (or
            // the stats channel) reports that.
            let _ = self.wake.lock().write(&[1u8]);
            Ok(())
        }

        /// Ask the driver to exit once every session has detached.
        pub(crate) fn stop(&self) {
            let _ = self.send(HubMsg::Stop);
        }
    }

    impl<'a> MultiDriver<'a> {
        /// Adopt a registered session: reject (via its stats channel)
        /// if its links cannot fit the ring alongside the sessions
        /// already armed, else insert and arm.
        fn add_daemon_session(&mut self, reg: SessionReg) -> io::Result<()> {
            let SessionReg {
                sid,
                lease,
                ctrl,
                data,
                block_size,
                pool_blocks,
                total_blocks,
                placed,
                backend,
                mailbox,
                stats_tx,
            } = reg;
            // Worst-case concurrently-armed ops: every session's links
            // + control, the newcomer's, and the wake read. The CQ is
            // 2x the SQ, so fitting the SQ bounds completions too.
            let armed: usize = self
                .sessions
                .values()
                .map(|s| s.links.len() + 1)
                .sum::<usize>()
                + 1;
            if armed + data.len() + 1 > RING_ENTRIES as usize {
                let _ = stats_tx.send(SessionStats {
                    place_ns: 0,
                    flush_ns: 0,
                    duplicates: 0,
                    place_hist: NsHist::new(),
                    err: Some(perr("shared uring driver is at link capacity")),
                    ring: self.stats_snapshot(),
                });
                return Ok(());
            }
            let sess = Sess::new(
                lease,
                ctrl,
                data,
                block_size,
                pool_blocks,
                total_blocks,
                placed,
                backend,
                Some(mailbox),
                Some(stats_tx),
            );
            self.add_session(sid, sess)
        }
    }

    /// The daemon's one data-path thread: owns the shared ring (created
    /// *on this thread* — `SINGLE_ISSUER` pins submission to the
    /// creator), registers the whole arena as fixed buffers **once**,
    /// then loops adopting/detaching sessions and retiring completions
    /// until told to stop.
    fn driver_main(
        slots: &[Mutex<SlotBuf>],
        rx: std::sync::mpsc::Receiver<HubMsg>,
        wake_r: UnixStream,
        init_tx: std::sync::mpsc::SyncSender<io::Result<()>>,
    ) -> UringStats {
        let view: Vec<&Mutex<SlotBuf>> = slots.iter().collect();
        let init = transfer_ring(true).and_then(|ring| {
            ring.register_pool(&view)?;
            Ok(ring)
        });
        let ring = match init {
            Ok(ring) => {
                let _ = init_tx.send(Ok(()));
                ring
            }
            Err(e) => {
                let _ = init_tx.send(Err(e));
                return UringStats::default();
            }
        };
        let mut drv = MultiDriver::new(&ring, &view);
        drv.wake = Some(WakeLink {
            stream: wake_r,
            buf: Box::new([0u8; 64]),
        });
        let run = (|| -> io::Result<()> {
            drv.arm_wake()?;
            drv.submit_queued()?;
            let mut stop = false;
            loop {
                loop {
                    match rx.try_recv() {
                        Ok(HubMsg::Register(reg)) => drv.add_daemon_session(*reg)?,
                        Ok(HubMsg::Detach(sid)) => drv.begin_detach(sid),
                        Ok(HubMsg::Stop) => stop = true,
                        Err(std::sync::mpsc::TryRecvError::Empty) => break,
                        Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                            stop = true;
                            break;
                        }
                    }
                }
                drv.finalize_sessions();
                if stop && drv.sessions.is_empty() {
                    return Ok(());
                }
                drv.daemon_tick()?;
            }
        })();
        if let Err(e) = run {
            drv.fail_all(e);
        }
        // Drain every kernel op targeting the arena or the wake buffer
        // before either can be freed, then
        // complete outstanding detach handshakes.
        drv.quiesce();
        drv.finalize_sessions();
        drv.stats_snapshot()
    }

    /// Spawn the daemon's shared uring driver over the whole arena
    /// (`slots`). Fails with `Unsupported` when the kernel cannot run
    /// the ring backend, and with the driver's own error when ring
    /// setup or registration fails — nothing is leaked either way.
    pub(crate) fn spawn_shared_uring_driver<'scope, 'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        slots: &'env [Mutex<SlotBuf>],
    ) -> io::Result<(
        Arc<UringHub>,
        std::thread::ScopedJoinHandle<'scope, UringStats>,
    )> {
        ring_caps()?;
        let (tx, rx) = std::sync::mpsc::channel::<HubMsg>();
        let (wake_w, wake_r) = UnixStream::pair()?;
        let (init_tx, init_rx) = std::sync::mpsc::sync_channel::<io::Result<()>>(1);
        let handle = scope.spawn(move || driver_main(slots, rx, wake_r, init_tx));
        match init_rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                let _ = handle.join();
                return Err(e);
            }
            Err(_) => {
                let _ = handle.join();
                return Err(perr("uring driver thread died during init"));
            }
        }
        Ok((
            Arc::new(UringHub {
                tx,
                wake: Mutex::new(wake_w),
                next_sid: AtomicU32::new(0),
            }),
            handle,
        ))
    }

    /// Run one admitted daemon session's *handler half* against the
    /// shared driver: register the session's sockets with the hub, then
    /// drive the same [`SinkHandler`] + [`drain_coalesced`] pair as
    /// every other sink over a mailbox the driver fills. Admission does
    /// **not** touch buffer registration — the arena was registered
    /// once at daemon startup, and the lease maps this session's wire
    /// slots onto those stable fixed-buffer indices.
    pub(crate) fn run_shared_uring_session(
        cfg: &LiveConfig,
        streams: SessionStreams,
        first_ctrl: Option<CtrlMsg>,
        snk_bufs: &[&Mutex<SlotBuf>],
        lease: &[u32],
        hub: &UringHub,
        fair: FairShare<'_>,
    ) -> io::Result<LiveReport> {
        assert!(cfg.channels >= 1 && cfg.total_bytes > 0);
        assert_eq!(
            snk_bufs.len(),
            cfg.pool_blocks as usize,
            "one buffer per pool block"
        );
        assert_eq!(lease.len(), snk_bufs.len(), "lease covers the pool");
        let SessionStreams {
            ctrl,
            data,
            token: _,
        } = streams;
        assert_eq!(data.len(), cfg.channels, "one data link per channel");
        let total_blocks = cfg.total_blocks();
        let geo = PoolGeometry::new(cfg.block_size as u64, cfg.pool_blocks);
        let backend = Arc::new(SnkBackend::open(cfg)?);
        let snk_pool = AtomicSinkPool::new(geo);
        let granter = Mutex::new(Granter::new(
            rftp_core::CreditMode::Proactive,
            cfg.initial_credits,
            cfg.grant_per_completion,
            4,
        ));
        let placed = Arc::new(AtomicBitmap::new(total_blocks));

        // The driver gets its own socket clones (it cuts them on a
        // driver-side failure); this thread keeps the originals for the
        // handler's control writes and its own teardown.
        let drv_ctrl = ctrl.try_clone()?;
        let mut drv_data = Vec::with_capacity(data.len());
        for s in &data {
            drv_data.push(s.try_clone()?);
        }
        let mut handles = vec![ctrl.try_clone()?];
        for s in &data {
            handles.push(s.try_clone()?);
        }
        let ctrl_tx = NetCtrlTx(Mutex::new(ctrl.try_clone()?));

        let (evt_tx, evt_rx) = crossbeam::channel::bounded::<SinkEvt>(1024);
        let (stats_tx, stats_rx) = std::sync::mpsc::sync_channel::<SessionStats>(1);
        let sid = hub.next_sid.fetch_add(1, Ordering::Relaxed);

        let start = Instant::now();
        let ctl = cfg.adaptive.then(|| Controller::new(cfg));
        let mut h = SinkHandler::new(
            cfg,
            &ctrl_tx,
            &snk_pool,
            &granter,
            snk_bufs,
            fair,
            ctl.as_ref(),
        );
        let run = (|| -> io::Result<()> {
            // Register before answering the hello: the opening grants
            // go out only after the driver can be armed, so no data
            // races the first receive.
            hub.send(HubMsg::Register(Box::new(SessionReg {
                sid,
                lease: lease.to_vec(),
                ctrl: drv_ctrl,
                data: drv_data,
                block_size: cfg.block_size,
                pool_blocks: cfg.pool_blocks,
                total_blocks,
                placed,
                backend: backend.clone(),
                mailbox: evt_tx,
                stats_tx,
            })))?;
            if let Some(msg) = first_ctrl {
                h.handle(SinkEvt::Ctrl(msg))?;
            }
            match drain_coalesced(&mut h, &mut channel_events(&evt_rx, 64))? {
                DrainEnd::Done => Ok(()),
                DrainEnd::Closed => Err(perr("event pipeline stopped before transfer completed")),
            }
        })();

        // Detach handshake: cut our socket halves (the final acks are
        // already flushed and ride out ahead of the FIN), then wait for
        // the driver to drain its in-flight ops and hand back the
        // session's stats. Only after that may the caller release the
        // arena lease — no kernel op can target the leased slots.
        shutdown_all(&handles, Shutdown::Both);
        let _ = hub.send(HubMsg::Detach(sid));
        let stats = stats_rx.recv().unwrap_or_else(|_| SessionStats {
            place_ns: 0,
            flush_ns: 0,
            duplicates: 0,
            place_hist: NsHist::new(),
            err: Some(perr("uring driver exited before detach")),
            ring: UringStats::default(),
        });
        if let Err(e) = run {
            // The driver-side error is the root cause when both halves
            // failed (a closed mailbox surfaces here only as "pipeline
            // stopped").
            return Err(stats.err.unwrap_or(e));
        }
        finish_sink(cfg, &h, &snk_pool, &backend, start, stats, ctl.as_ref())
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The raw ABI structs must match uapi/linux/io_uring.h exactly
        /// — a silent size drift corrupts the rings.
        #[test]
        fn abi_struct_sizes_match_kernel() {
            assert_eq!(std::mem::size_of::<IoUringParams>(), 120);
            assert_eq!(std::mem::size_of::<Sqe>(), 64);
            assert_eq!(std::mem::size_of::<Cqe>(), 16);
            assert_eq!(std::mem::size_of::<SqringOffsets>(), 40);
            assert_eq!(std::mem::size_of::<CqringOffsets>(), 40);
        }

        /// The header-first `READ_FIXED` receive path under loss: four
        /// links with forced drops and retransmits must still deliver
        /// byte-identical, exactly-once output.
        #[test]
        fn uring_transfer_under_drops() {
            if !uring_supported() {
                eprintln!("skipping: io_uring not supported by this kernel");
                return;
            }
            let cfg = LiveConfig::new(64 * 1024, 4, 8 << 20);
            let listener = NetListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let sockbuf = crate::net::default_sockbuf(cfg.block_size, cfg.channel_depth);
            let mut src_cfg = cfg.clone();
            src_cfg.fault_drop_p = 0.2;
            let src = std::thread::spawn(move || {
                let t = connect_source_uring(addr, src_cfg.channels, sockbuf)?;
                crate::split::run_split_source(&src_cfg, t)
            });
            let (sess, first) = accept_source_uring(&listener, sockbuf).unwrap();
            let snk = run_uring_sink(&cfg, sess, Some(first)).unwrap();
            let src = src.join().unwrap().unwrap();
            assert_eq!(snk.blocks, cfg.total_blocks());
            assert_eq!(snk.bytes, cfg.total_bytes);
            assert_eq!(snk.checksum_failures, 0, "output must be byte-identical");
            assert!(src.retransmits > 0, "fault injector must have fired");
        }

        /// The capability probe must never panic, whatever the kernel.
        #[test]
        fn probe_is_total() {
            let _ = uring_supported();
        }

        /// Full uring↔uring loopback transfer: pattern data, checksum
        /// verified at the sink, one driver thread per side.
        #[test]
        fn uring_pattern_transfer_loopback() {
            if !uring_supported() {
                eprintln!("skipping: io_uring not supported by this kernel");
                return;
            }
            let cfg = LiveConfig::new(64 * 1024, 4, 8 << 20);
            let listener = NetListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let sockbuf = crate::net::default_sockbuf(cfg.block_size, cfg.channel_depth);
            let src_cfg = cfg.clone();
            let src = std::thread::spawn(move || {
                let t = connect_source_uring(addr, src_cfg.channels, sockbuf)?;
                crate::split::run_split_source(&src_cfg, t)
            });
            let (sess, first) = accept_source_uring(&listener, sockbuf).unwrap();
            let snk = run_uring_sink(&cfg, sess, Some(first)).unwrap();
            let src = src.join().unwrap().unwrap();
            assert_eq!(snk.blocks, cfg.total_blocks());
            assert_eq!(snk.checksum_failures, 0);
            assert_eq!(
                snk.transport_threads, 1,
                "sink data path must be one thread"
            );
            assert_eq!(src.transport_threads, 1, "source adds one reaper thread");
            assert!(
                snk.ctrl_msgs_per_block <= 1.0,
                "control plane not coalesced: {:.2}/blk",
                snk.ctrl_msgs_per_block
            );
        }
    }
}

/// Portable stubs: the backend is Linux-only; every other platform
/// reports "unsupported" and the callers fall back to TCP.
#[cfg(not(target_os = "linux"))]
mod stub {
    use crate::net::NetListener;
    use crate::pipeline::{LiveConfig, LiveReport};
    use crate::transport::SourceTransport;
    use rftp_core::wire::CtrlMsg;
    use std::io;
    use std::net::ToSocketAddrs;

    /// Placeholder session handle; never constructible off-Linux.
    pub struct UringSinkSession(());

    pub fn uring_supported() -> bool {
        false
    }

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "io_uring transport requires Linux",
        ))
    }

    pub fn connect_source_uring(
        _addr: impl ToSocketAddrs,
        _channels: usize,
        _sockbuf: usize,
    ) -> io::Result<SourceTransport> {
        unsupported()
    }

    pub fn accept_source_uring(
        _listener: &NetListener,
        _sockbuf: usize,
    ) -> io::Result<(UringSinkSession, CtrlMsg)> {
        unsupported()
    }

    pub fn run_uring_sink(
        _cfg: &LiveConfig,
        _session: UringSinkSession,
        _first_ctrl: Option<CtrlMsg>,
    ) -> io::Result<LiveReport> {
        unsupported()
    }

    /// Placeholder hub handle; never constructible off-Linux.
    pub(crate) struct UringHub(());

    impl UringHub {
        pub(crate) fn stop(&self) {}
    }

    pub(crate) fn spawn_shared_uring_driver<'scope, 'env>(
        _scope: &'scope std::thread::Scope<'scope, 'env>,
        _slots: &'env [parking_lot::Mutex<crate::store::SlotBuf>],
    ) -> io::Result<(
        std::sync::Arc<UringHub>,
        std::thread::ScopedJoinHandle<'scope, crate::transport::UringStats>,
    )> {
        unsupported()
    }

    pub(crate) fn run_shared_uring_session(
        _cfg: &LiveConfig,
        _streams: crate::net::SessionStreams,
        _first_ctrl: Option<CtrlMsg>,
        _snk_bufs: &[&parking_lot::Mutex<crate::store::SlotBuf>],
        _lease: &[u32],
        _hub: &UringHub,
        _fair: crate::split::FairShare<'_>,
    ) -> io::Result<LiveReport> {
        unsupported()
    }
}

#[cfg(not(target_os = "linux"))]
pub use stub::{
    accept_source_uring, connect_source_uring, run_uring_sink, uring_supported, UringSinkSession,
};
#[cfg(not(target_os = "linux"))]
pub(crate) use stub::{run_shared_uring_session, spawn_shared_uring_driver, UringHub};
