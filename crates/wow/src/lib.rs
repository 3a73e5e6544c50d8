//! # wow — self-organizing wide-area overlay networks of virtual workstations
//!
//! The top-level crate of this reproduction of *"WOW: Self-Organizing Wide
//! Area Overlay Networks of Virtual Workstations"* (Ganguly, Agrawal,
//! Boykin, Figueiredo — HPDC 2006). It composes the substrates into the
//! system the paper describes:
//!
//! * [`simrt`] — runs `wow-overlay` nodes on the deterministic `wow-netsim`
//!   substrate, including the router CPU-load model;
//! * [`workstation`] — a *virtual workstation*: an overlay node with an
//!   IPOP virtual NIC and a user-level IP stack, on which unmodified
//!   middleware runs;
//! * [`harness`] — the simulated-overlay world the self-healing
//!   experiments share: a bootstrapped or pre-wired ring builder, live
//!   snapshots and the repair wait over the [`audit`] ring auditor;
//! * [`testbed`] — the paper's Figure-1 / Table-I deployment: 33 WOW nodes
//!   across six NAT/firewalled domains plus 118 PlanetLab-class routers;
//! * [`migrate`] — WAN VM migration choreography (suspend, image copy,
//!   resume, IPOP restart, overlay rejoin);
//! * [`udprt`] — the same overlay over real UDP sockets on loopback;
//! * [`reactor`] — the high-density live runtime: an epoll event loop
//!   multiplexing many `udprt` nodes per thread with batched ingress; each
//!   shard's decisions are a socket-free core (`shard`), and every foreign
//!   call of the live runtime is in one module (`os`).

#![warn(missing_docs)]

pub mod audit;
pub mod churn;
pub mod harness;
pub mod migrate;
mod os;
pub mod reactor;
mod shard;
pub mod simrt;
pub mod testbed;
pub mod udprt;
pub mod workstation;

pub use wow_netsim as netsim;
pub use wow_overlay as overlay;
pub use wow_vnet as vnet;
