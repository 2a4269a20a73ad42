//! # edgstr-sim — virtual time, device models, energy, and metrics
//!
//! The paper evaluates EdgStr on physical hardware: a desktop-class cloud
//! server, Raspberry Pi 3/4 edge nodes, and an Android client measured
//! with a power profiler and a digital power meter (§IV). This crate is
//! the laptop-scale substitute: a deterministic discrete-event simulation
//! substrate with
//!
//! - [`SimTime`] / [`SimDuration`] — microsecond virtual time;
//! - [`Clock`] — the execution clock abstraction: deterministic virtual
//!   time for correctness experiments, monotonic wall time for the
//!   parallel executor;
//! - [`DeviceSpec`] / [`Device`] — calibrated CPU models (cloud desktop,
//!   RPI-3, RPI-4, Snapdragon phone) with per-core queueing; the RPI-4 /
//!   RPI-3 effective-speed ratio is calibrated to the paper's measured
//!   1.71× (Fig. 6b);
//! - [`PowerModel`] / [`EnergyMeter`] / [`PowerState`] — watts per power
//!   state integrated over virtual time (the power-meter analog), with the
//!   low-power parking mode used by the elasticity experiment (Fig. 9);
//! - [`LatencyStats`] / [`Throughput`] / [`linear_fit`] — the measurement
//!   toolkit used by the benchmark harness.

pub mod clock;
pub mod device;
pub mod metrics;
pub mod rng;
pub mod time;

pub use clock::Clock;
pub use device::{Device, DeviceSpec, EnergyMeter, PowerModel, PowerState};
pub use metrics::{linear_fit, FiveNumber, LatencyStats, LinearFit, Throughput, Window};
pub use rng::{splitmix64, DetRng};
pub use time::{SimDuration, SimTime};
