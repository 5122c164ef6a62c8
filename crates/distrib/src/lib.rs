//! # distrib — simulated distributed runtime (AGAS + parcelports)
//!
//! The paper's distributed experiments (§6.2.2, Fig. 8) run Octo-Tiger on an
//! in-house cluster of two VisionFive2 RISC-V boards over gigabit Ethernet,
//! comparing HPX's parcelports. This crate reproduces that substrate inside
//! one process, layered like HPX's parcel subsystem:
//!
//! * [`Cluster`] boots N *localities*, each with its own `amt::Runtime`
//!   (one per board), which reads the frames delivered to it in receive
//!   tasks;
//! * [`Agas`] is the Active Global Address Space: components are
//!   created on a locality, addressed by [`Gid`], and resolvable from
//!   anywhere;
//! * remote **actions** ([`LocalityHandle::invoke`]) encode their arguments
//!   — any [`Wire`] type; the [`wire`] module docs hold the format table —
//!   straight into the frame of one parcel, read in place on arrival as a
//!   [`Parcel`] (the owned form, [`ParcelMsg`], has the same image), with
//!   HPX's unified local/remote syntax (local calls skip the wire);
//! * a pluggable parcelport — TCP, MPI or LCI — moves [`frame`]d byte
//!   buffers, one parcel each, and measures per-port counters
//!   ([`PortSnapshot`]);
//!   the `rv-machine` cost model turns those into per-backend link times
//!   for the Fig. 8 projection.

pub(crate) mod agas;
pub(crate) mod cluster;
pub mod frame;
pub(crate) mod parcel;
pub(crate) mod parcelport;
pub(crate) mod stats;
pub(crate) mod wire;

pub use agas::{Agas, Gid, LocalityId};
pub use cluster::{Cluster, ClusterConfig, CoalesceConfig, LocalityHandle};
pub use parcel::{Parcel, ParcelMsg};
pub use stats::{NetSnapshot, PortSnapshot};
pub use wire::{from_bytes, to_bytes, Wire, WireError};
