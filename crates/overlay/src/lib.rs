//! # wow-overlay — a Brunet-style structured P2P overlay kernel
//!
//! The self-organizing overlay at the heart of the WOW paper (HPDC'06):
//! a ring of nodes ordered by 160-bit addresses, held together by
//! *structured near* connections (ring neighbours) and *structured far*
//! connections (small-world long links), routed greedily, and extended at
//! runtime with traffic-driven *shortcut* connections that let chatty node
//! pairs talk over a single overlay hop — through NATs, with no central
//! coordination.
//!
//! The crate is **sans-IO**: [`node::BrunetNode`] consumes timestamped
//! events and emits its effects into a [`driver::NodeSink`] — frames on the
//! hot path, [`driver::NodeEvent`]s and [`telemetry::Counter`]s on the cold
//! path. [`driver::NodeDriver`] packages the node with event buffering and
//! timer bookkeeping; the `wow` crate layers two thin runtimes on top — a
//! deterministic simulator adapter (for the paper's experiments) and a
//! real-UDP runtime (for live use).
//!
//! ## A node in five lines
//!
//! ```
//! use wow_overlay::prelude::*;
//! use wow_overlay::addr::Address;
//! use wow_netsim::{addr::PhysAddr, time::SimTime};
//!
//! struct Null;
//! impl Transport for Null {
//!     fn transmit(&mut self, _to: PhysAddr, _frame: bytes::Bytes) -> bool {
//!         true
//!     }
//! }
//!
//! let node = BrunetNode::new(Address([7; 20]), OverlayConfig::default(), 42);
//! let mut driver = NodeDriver::new(node);
//! driver.start(SimTime::ZERO, "brunet.udp://10.0.0.2:14000".parse().unwrap(), vec![], &mut Null);
//! assert!(driver.node().is_running());
//! assert!(!driver.has_events()); // first node: nothing to say yet
//! ```
//!
//! Module map:
//!
//! * [`addr`] — 160-bit addresses, ring distances, small-world sampling
//! * [`uri`] — `brunet.udp://…` transport URIs and the advertised-URI set
//! * [`wire`] — the frame codec
//! * [`conn`] — connection table and greedy next-hop selection
//! * [`bootstrap`] — the decentralized-join introducer cache
//! * [`linking`] — the linking handshake (URI trials, retries, races)
//! * [`ping`] — keepalives and failure detection
//! * [`overlord`] — near / far / shortcut connection overlords
//! * [`config`] — tunables, with paper-matched defaults
//! * [`node`] — the composed state machine
//! * [`driver`] — the runtime-agnostic sink/driver seam
//! * [`telemetry`] — structured per-node counters

#![warn(missing_docs)]

pub mod addr;
pub mod bootstrap;
pub mod config;
pub mod conn;
mod deadline;
pub mod driver;
pub mod linking;
pub mod node;
pub mod overlord;
pub mod ping;
mod table;
pub mod telemetry;
pub mod uri;
pub mod wire;

/// Commonly-used names, for glob import.
pub mod prelude {
    pub use crate::addr::Address;
    pub use crate::bootstrap::{BootstrapManager, IntroducerRecord, JoinState};
    pub use crate::config::OverlayConfig;
    pub use crate::conn::{ConnSnapshot, ConnTable, ConnType};
    pub use crate::driver::{FrameBatch, NodeDriver, NodeEvent, NodeSink, Transport};
    pub use crate::node::{BrunetNode, NodeStats};
    pub use crate::telemetry::{Counter, TelemetryCounters};
    pub use crate::uri::{TransportUri, UriOrder};
}
