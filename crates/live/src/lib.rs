//! # rftp-live — the protocol pipeline on real threads
//!
//! The simulated engines in `rftp-core` prove the protocol's *timing*
//! behaviour; this crate proves its *concurrency* behaviour. It runs the
//! same middleware machinery — the Fig. 7 wire formats, the Fig. 6
//! buffer-block state machines, the proactive credit granter, and the
//! out-of-order reassembly buffer — on native threads, as one pipeline
//! in two halves ([`split`]):
//!
//! * the **source half** runs loaders (pattern fill or file reads), an
//!   in-order dispatcher that pairs each block with a credit, a
//!   retransmit watchdog, and a control thread that retires blocks on
//!   the sink's acks;
//! * the **sink half** runs one receiver per data channel (the "NIC":
//!   it places each frame into the slot its credit named) and one
//!   protocol handler that grants credits, verifies in order, and
//!   coalesces acks and grants into batched control frames.
//!
//! The halves talk only through a [`transport`]: one control link plus
//! N data links. [`run_live`] joins them in one process over the
//! in-process channel backend, where an RDMA WRITE is one copy from the
//! pinned source block into the credited sink slot. [`net`] (TCP),
//! [`uring`] (io_uring) and [`shm`] (a shared memfd window) join them
//! across processes, so `rftp-live --listen` and `rftp-live --connect`
//! move a file between two OS processes; [`daemon`] serves many sink
//! sessions from one shared slot arena.
//!
//! A transfer moves pattern data end to end with header validation and
//! checksum verification at the sink, and reports real wall-clock
//! throughput and per-stage clocks. With a source and/or destination
//! file configured, the same pipeline runs **disk to disk**: the
//! [`store`] module supplies an aligned, `O_DIRECT`-capable block reader
//! and a write-behind sink that `pwrite`s each block at its final offset
//! the moment it is placed — loaders become the read-ahead scheduler and
//! sparse placement is the reassembly.

pub mod args;
pub(crate) mod coalesce;
pub mod daemon;
pub mod hist;
pub mod net;
pub mod netem;
pub mod pipeline;
pub mod shm;
pub mod split;
pub mod store;
pub mod transport;
pub mod uring;

pub use daemon::{
    install_sigterm_hook, Daemon, DaemonConfig, DaemonHandle, DaemonReport, DaemonTransport,
    SessionSummary,
};
pub use hist::{NsHist, StageTails};
pub use net::{connect_source, NetListener};
pub use netem::{wrap_pair, wrap_sink, wrap_source, wrap_source_datapath, WanProfile};
pub use pipeline::{run_live, try_run_live, LiveConfig, LiveReport, StageBreakdown};
pub use shm::{
    connect_source_shm, connect_source_shm_or_tcp, run_shm_sink, shm_supported, ShmListener,
    ShmSessionStreams,
};
pub use split::{run_split_pair, run_split_pair_wan, run_split_sink, run_split_source};
pub use store::{FileSink, FileSource, RatePacer, SlotBuf, STORE_ALIGN};
pub use transport::{channel_transport, SinkTransport, SourceTransport, UringStats};
pub use uring::{
    accept_source_uring, connect_source_uring, run_uring_sink, uring_supported, UringSinkSession,
};
