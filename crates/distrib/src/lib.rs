//! # distrib — simulated distributed runtime (AGAS + parcelports)
//!
//! The paper's distributed experiments (§6.2.2, Fig. 8) run Octo-Tiger on an
//! in-house cluster of two VisionFive2 RISC-V boards over gigabit Ethernet,
//! comparing HPX's parcelports. This crate reproduces that substrate inside
//! one process, layered like HPX's parcel subsystem:
//!
//! * [`Cluster`] boots N *localities*, each with its own `amt::Runtime`
//!   (one per board) and a frame receive loop;
//! * [`agas::Agas`] is the Active Global Address Space: components are
//!   created on a locality, addressed by [`agas::Gid`], and resolvable from
//!   anywhere;
//! * remote **actions** ([`LocalityHandle::invoke`]) encode their arguments
//!   — any [`Wire`] type; the [`wire`] module docs hold the format table —
//!   into [`parcel::ParcelMsg`]s, with HPX's unified local/remote syntax
//!   (local calls skip the wire);
//! * a pluggable [`parcelport::Parcelport`] — TCP, MPI or LCI — moves
//!   [`frame`]d byte buffers, one parcel each, and measures per-port
//!   [`stats::PortStats`];
//!   the `rv-machine` cost model turns those into per-backend link times
//!   for the Fig. 8 projection.

pub mod agas;
pub mod cluster;
pub mod frame;
pub mod parcel;
pub mod parcelport;
pub mod stats;
pub mod wire;

pub use agas::{Agas, Gid, LocalityId};
pub use cluster::{Cluster, ClusterConfig, CoalesceConfig, LocalityHandle};
pub use frame::{FrameError, TraceCtx, TRACE_CTX_BYTES};
pub use parcel::ParcelMsg;
pub use parcelport::{Deliver, Parcelport};
pub use stats::{CommMetrics, LinkSnapshot, NetSnapshot, NetStats, PortSnapshot, PortStats};
pub use wire::{from_bytes, to_bytes, Wire, WireError};
