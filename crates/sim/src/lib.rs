//! Deterministic discrete-event simulator for consensus protocols.
//!
//! The paper's analysis predicts *probabilities* of safety and liveness; this crate
//! provides the substrate on which the executable protocols (`consensus-protocols`) run
//! so those predictions can be validated empirically: a virtual clock, a message network
//! with configurable latency, loss and partitions, per-node deterministic randomness, and
//! fault injection driven by the failure models of the `fault-model` crate.
//!
//! * [`time`] — virtual time ([`time::SimTime`]), microsecond granularity.
//! * [`actor`] — the [`actor::Actor`] trait protocols implement, and the
//!   [`actor::Context`] handed to them for sending messages and arming timers.
//! * [`network`] — latency / loss / partition model.
//! * [`fault`] — fault schedules: explicit crash/recover/Byzantine events, or schedules
//!   sampled from a (possibly correlated) failure model.
//! * [`runtime`] — the event loop: [`runtime::Simulation`].
//! * [`trace`] — execution counters for statistics.
//!
//! # Examples
//!
//! A two-node ping/pong protocol:
//!
//! ```
//! use consensus_sim::actor::{Actor, Context};
//! use consensus_sim::network::NetworkConfig;
//! use consensus_sim::runtime::Simulation;
//! use consensus_sim::time::SimTime;
//!
//! #[derive(Clone, Debug)]
//! enum Msg { Ping, Pong }
//!
//! struct Node { got_pong: bool }
//!
//! impl Actor<Msg> for Node {
//!     fn on_start(&mut self, ctx: &mut Context<Msg>) {
//!         if ctx.id() == 0 {
//!             ctx.send(1, Msg::Ping);
//!         }
//!     }
//!     fn on_message(&mut self, from: usize, msg: Msg, ctx: &mut Context<Msg>) {
//!         match msg {
//!             Msg::Ping => ctx.send(from, Msg::Pong),
//!             Msg::Pong => self.got_pong = true,
//!         }
//!     }
//!     fn on_timer(&mut self, _tag: u64, _ctx: &mut Context<Msg>) {}
//! }
//!
//! let mut sim = Simulation::new(
//!     vec![Node { got_pong: false }, Node { got_pong: false }],
//!     NetworkConfig::default(),
//!     42,
//! );
//! sim.run_until(SimTime::from_millis(10));
//! assert!(sim.node(0).got_pong);
//! ```

// Documentation is part of this crate's contract: every public item is
// documented, and CI builds rustdoc with `-D warnings` (see the `docs` job).
#![warn(missing_docs)]
pub mod actor;
pub mod fault;
pub mod network;
pub mod runtime;
pub mod time;
pub mod trace;

pub use actor::{Actor, Context};
pub use fault::{FaultEvent, FaultKind, FaultSchedule, NetEvent, NetEventKind};
pub use network::{DelayDistribution, LinkQuality, NetworkConfig};
pub use runtime::Simulation;
pub use time::SimTime;
pub use trace::TraceStats;
