//! # rftp-live — the protocol pipeline on real threads
//!
//! The simulated engines in `rftp-core` prove the protocol's *timing*
//! behaviour; this crate proves its *concurrency* behaviour. It runs the
//! same middleware machinery — the Fig. 7 wire formats, the Fig. 6
//! buffer-block state machines, the proactive credit granter, and the
//! out-of-order reassembly buffer — as a native multi-threaded pipeline:
//!
//! * **queue pairs** are bounded `crossbeam` channels carrying real
//!   encoded bytes (control) and real payload buffers (data);
//! * **RDMA WRITE placement** is a memcpy into the slot a credit named,
//!   performed by a per-channel receiver thread (the "NIC");
//! * **threads** mirror Fig. 2's pool: loaders, a dispatcher, a
//!   completion handler, per-channel receivers, a control handler, and a
//!   consumer — synchronized with `parking_lot` locks and condvars.
//!
//! A transfer moves pattern data end to end with header validation and
//! checksum verification at the sink, and reports real wall-clock
//! throughput (this is actual memory bandwidth, typically several GB/s).
//!
//! With a source and/or destination file configured, the same pipeline
//! runs **disk to disk**: the `store` module supplies an aligned,
//! `O_DIRECT`-capable block reader and a write-behind sink that `pwrite`s
//! each block at its final offset the moment it is placed — loaders
//! become the read-ahead scheduler and sparse placement is the
//! reassembly.
//!
//! The `transport` / `net` / `split` modules take the final step off the
//! simulator: the pipeline splits into a standalone source half and sink
//! half joined only by a [`transport`] — in-process channels for tests,
//! or real TCP sockets ([`net`]) so `rftp-live --listen` and
//! `rftp-live --connect` move a file between two OS processes. An RDMA
//! WRITE becomes one vectored write of frame header + payload straight
//! from the pinned block; the receiver reads the wire image directly
//! into the credited slot.

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
