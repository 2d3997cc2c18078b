//! Discrete-slot synchronous radio network simulator with exact energy metering.
//!
//! This crate implements the abstract model of *The Energy Complexity of
//! Broadcast* (Chang, Dani, Hayes, He, Li, Pettie — PODC 2018): a connected
//! undirected graph of devices, time partitioned into slots agreed by all
//! devices, and per slot each device either **sends** a message, **listens**,
//! or **idles**. Sending and listening cost one unit of energy each; idling
//! is free. What a listener hears depends on the collision model:
//!
//! * [`Model::NoCd`] — zero or ≥2 transmitting neighbors are both heard as
//!   silence; exactly one neighbor's message is received.
//! * [`Model::Cd`] — zero transmitters are heard as silence, ≥2 as *noise*.
//! * [`Model::CdStar`] — like CD, but with ≥2 transmitters the listener
//!   receives an arbitrary one of the messages (paper §6.3).
//! * [`Model::Local`] — every listener hears every message transmitted by
//!   any neighbor; there are no collisions.
//! * [`Model::Beep`] — content-free: a listener only learns whether at least
//!   one neighbor transmitted.
//!
//! One execution engine, [`Sim`], runs every algorithm. Algorithms in the
//! paper are built from primitives occupying a contiguous block of slots
//! with a known participant set; [`Sim::drive`] executes such a block
//! under a [`Schedule`] — a dense range, CSR-backed [`SparseSchedule`]
//! slots, or a dynamic wake queue fed by [`SlotBehavior`] hints for
//! protocols whose wake times are data-dependent (the paper's §8 path
//! algorithm) — charging energy only for polled participants, while
//! [`Sim::skip`] advances the global clock over provably-idle regions so
//! reported *time* still counts them. Collision resolution scans each
//! listener's CSR neighbor row against the slot's sender index, with
//! model-specific early exit.
//!
//! # Example
//!
//! ```
//! use ebc_radio::{Graph, Model, Schedule, Sim, Action, Feedback, SlotBehavior, NodeId};
//!
//! // A two-node path: node 0 sends "hi" once, node 1 listens.
//! let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
//! struct OneShot { heard: Option<&'static str> }
//! impl SlotBehavior<&'static str> for OneShot {
//!     fn act(&mut self, v: NodeId, _t: u64) -> Action<&'static str> {
//!         if v == 0 { Action::Send("hi") } else { Action::Listen }
//!     }
//!     fn feedback(&mut self, _v: NodeId, _t: u64, fb: Feedback<&'static str>) {
//!         if let Feedback::One(m) = fb { self.heard = Some(m); }
//!     }
//! }
//! let mut sim = Sim::new(g, Model::NoCd, 7);
//! let mut b = OneShot { heard: None };
//! sim.drive(Schedule::Dense { participants: &[0, 1], slots: 1 }, &mut b);
//! assert_eq!(b.heard, Some("hi"));
//! assert_eq!(sim.meter().energy(0), 1);
//! assert_eq!(sim.meter().energy(1), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod energy;
pub mod fault;
mod graph;
mod model;
pub mod rng;
mod sim;
pub mod telemetry;

pub use bitset::BitSet;
pub use energy::{EnergyMeter, EnergyReport};
pub use fault::{FaultModel, FaultPlan, FaultState, JammerStrategy, SlotVerdict};
pub use graph::{Graph, GraphError};
pub use model::{resolve, Action, Feedback, Model};
pub use sim::{from_fns, Schedule, Sim, SlotBehavior, SparseSchedule};
pub use telemetry::{EventKind, Gauge, SlotCounters, SlotEvent, Span, Telemetry};

/// Index of a device (vertex) in the network, in `0..n`.
pub type NodeId = usize;

/// A slot number on the globally agreed clock (slot zero is shared).
pub type Slot = u64;
