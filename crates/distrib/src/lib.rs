//! # distrib — simulated distributed runtime (global ids + parcel delivery)
//!
//! The paper's distributed experiments (§6.2.2, Fig. 8) run Octo-Tiger on an
//! in-house cluster of two VisionFive2 RISC-V boards over gigabit Ethernet,
//! comparing HPX's parcelports. This crate reproduces that substrate inside
//! one process, layered like HPX's parcel subsystem:
//!
//! * [`Cluster`] boots N *localities*, each with its own `amt::Runtime`
//!   (one per board), which reads the frames delivered to it in receive
//!   tasks;
//! * components are created on a locality and addressed from anywhere by
//!   a [`Gid`], which names the locality they live on — HPX's AGAS without
//!   the address map, since a component never moves;
//! * remote **actions** ([`LocalityHandle::invoke`]) encode their arguments
//!   — any [`Encode`] value or view; the [`wire`] module docs hold the
//!   format table — straight into the frame of one parcel, read in place on
//!   arrival as a [`Parcel`]; the action decodes its argument from the frame
//!   or keeps the frame whole as a [`Payload`]. Calls have HPX's unified
//!   local/remote syntax (local calls skip the wire);
//! * the cluster delivers each [`frame`]d buffer, one parcel each, inside
//!   the call that sends it and counts frames and bytes
//!   ([`PortSnapshot`]). The parcelports — TCP, MPI, LCI — are link models
//!   only: the `rv-machine` cost model turns the measured counts into
//!   per-backend link times for the Fig. 8 projection.

pub(crate) mod cluster;
pub mod frame;
pub(crate) mod gid;
pub(crate) mod parcel;
pub(crate) mod stats;
pub(crate) mod wire;

pub use cluster::{Arg, Cluster, ClusterConfig, CoalesceConfig, LocalityHandle, Payload};
pub use gid::{Gid, LocalityId};
pub use parcel::Parcel;
pub use stats::{NetSnapshot, PortSnapshot};
pub use wire::{from_bytes, to_bytes, Encode, Reader, Wire, WireError, Writer};
