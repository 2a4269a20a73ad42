//! Device CPU models and power states.
//!
//! The paper's evaluation hardware (§IV-C): a DELL OPTIPLEX-5050 desktop as
//! the cloud, Raspberry Pi 3 (Cortex-A53 1.4 GHz×4) and Raspberry Pi 4
//! (Cortex-A72 1.5 GHz×4) as edge nodes, and a Snapdragon Android phone as
//! the client. Per-device efficiency factors are calibrated so the RPI-4 /
//! RPI-3 performance ratio matches the paper's measurement (≈1.71, Fig.
//! 6b) and the desktop dominates both.

use crate::time::{SimDuration, SimTime};

/// Power draw (watts) per device state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    pub active_w: f64,
    pub idle_w: f64,
    pub low_power_w: f64,
    pub off_w: f64,
}

impl PowerModel {
    /// Watts drawn in `state`.
    pub fn watts(&self, state: PowerState) -> f64 {
        match state {
            PowerState::Active => self.active_w,
            PowerState::Idle => self.idle_w,
            PowerState::LowPower => self.low_power_w,
            PowerState::Off => self.off_w,
        }
    }
}

/// Device power state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerState {
    /// Executing requests.
    Active,
    /// Powered on, waiting.
    Idle,
    /// The paper's "low-power mode": parked but quick to resume
    /// (§IV-D — devices are not shut down completely so they can be
    /// "brought back to the running mode without incurring unnecessary
    /// delays").
    LowPower,
    /// Fully off.
    Off,
}

/// Static description of a device's compute capability.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    pub name: String,
    pub clock_ghz: f64,
    pub cores: u32,
    /// Instructions-per-cycle style efficiency factor; effective speed is
    /// `clock_ghz * efficiency` cycles per nanosecond per core.
    pub efficiency: f64,
    pub power: PowerModel,
    /// Delay to resume from low-power to active.
    pub wake_latency: SimDuration,
}

impl DeviceSpec {
    /// The cloud server: DELL OPTIPLEX-5050-class desktop (3.6 GHz × 8).
    pub fn cloud_server() -> DeviceSpec {
        DeviceSpec {
            name: "cloud-optiplex5050".into(),
            clock_ghz: 3.6,
            cores: 8,
            efficiency: 1.6,
            power: PowerModel {
                active_w: 150.0,
                idle_w: 60.0,
                low_power_w: 30.0,
                off_w: 2.0,
            },
            wake_latency: SimDuration::from_millis(50),
        }
    }

    /// Raspberry Pi 3: Cortex-A53 1.4 GHz × 4.
    pub fn rpi3() -> DeviceSpec {
        DeviceSpec {
            name: "rpi3".into(),
            clock_ghz: 1.4,
            cores: 4,
            efficiency: 0.595,
            power: PowerModel {
                active_w: 5.5,
                idle_w: 1.9,
                low_power_w: 0.6,
                off_w: 0.0,
            },
            wake_latency: SimDuration::from_millis(300),
        }
    }

    /// Raspberry Pi 4: Cortex-A72 1.5 GHz × 4.
    pub fn rpi4() -> DeviceSpec {
        DeviceSpec {
            name: "rpi4".into(),
            clock_ghz: 1.5,
            cores: 4,
            efficiency: 0.95,
            power: PowerModel {
                active_w: 7.0,
                idle_w: 2.7,
                low_power_w: 0.9,
                off_w: 0.0,
            },
            wake_latency: SimDuration::from_millis(250),
        }
    }

    /// Snapdragon-class Android phone (the mobile client).
    pub fn android() -> DeviceSpec {
        DeviceSpec {
            name: "android-snapdragon".into(),
            clock_ghz: 2.0,
            cores: 4,
            efficiency: 0.8,
            power: PowerModel {
                active_w: 4.0,
                idle_w: 1.2,
                low_power_w: 0.35,
                off_w: 0.0,
            },
            wake_latency: SimDuration::from_millis(20),
        }
    }

    /// Effective cycles per second of a single core.
    pub fn core_hz(&self) -> f64 {
        self.clock_ghz * 1e9 * self.efficiency
    }

    /// Time one core needs to execute `cycles` virtual cycles.
    pub fn service_time(&self, cycles: u64) -> SimDuration {
        SimDuration::from_secs_f64(cycles as f64 / self.core_hz())
    }

    /// Aggregate effective compute (all cores), used for regression-style
    /// comparisons.
    pub fn total_hz(&self) -> f64 {
        self.core_hz() * f64::from(self.cores)
    }
}

/// A running device: per-core availability (queueing) plus energy
/// accounting.
#[derive(Debug, Clone)]
pub struct Device {
    pub spec: DeviceSpec,
    core_free: Vec<SimTime>,
    meter: EnergyMeter,
    busy_until: SimTime,
    completed: u64,
}

impl Device {
    /// A device that is idle at time zero.
    pub fn new(spec: DeviceSpec) -> Device {
        let cores = spec.cores as usize;
        let power = spec.power;
        Device {
            spec,
            core_free: vec![SimTime::ZERO; cores],
            meter: EnergyMeter::new(power, PowerState::Idle),
            busy_until: SimTime::ZERO,
            completed: 0,
        }
    }

    /// Schedule `cycles` of work arriving at `now`: picks the
    /// earliest-available core and returns `(start, finish)`. Also accrues
    /// active-state energy for the busy interval.
    pub fn schedule_work(&mut self, now: SimTime, cycles: u64) -> (SimTime, SimTime) {
        let (idx, free_at) = self
            .core_free
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, t)| (i, *t))
            .expect("devices have at least one core");
        let start = if free_at > now { free_at } else { now };
        let finish = start + self.spec.service_time(cycles);
        self.core_free[idx] = finish;
        if finish > self.busy_until {
            self.busy_until = finish;
        }
        self.completed += 1;
        // energy: account the span as active on this core's share
        self.meter.accrue_busy(start, finish);
        (start, finish)
    }

    /// Number of cores that are busy at `now`.
    pub fn busy_cores(&self, now: SimTime) -> usize {
        self.core_free.iter().filter(|t| **t > now).count()
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Change the idle-time power state (Idle/LowPower/Off bookkeeping).
    pub fn set_power_state(&mut self, state: PowerState, now: SimTime) {
        self.meter.set_state(state, now);
    }

    /// Current idle-time power state.
    pub fn power_state(&self) -> PowerState {
        self.meter.state
    }

    /// Total energy consumed up to `now`, in joules.
    pub fn energy_joules(&self, now: SimTime) -> f64 {
        self.meter.energy_joules(now)
    }

    /// Wake latency if currently in low-power mode, else zero.
    pub fn wake_penalty(&self) -> SimDuration {
        match self.meter.state {
            PowerState::LowPower => self.spec.wake_latency,
            _ => SimDuration::ZERO,
        }
    }
}

/// Integrates power draw over virtual time.
///
/// Busy intervals are accounted at active wattage (minus the baseline
/// already accounted by the background state); the background state
/// (idle/low-power/off) accrues continuously.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    power: PowerModel,
    state: PowerState,
    state_since: SimTime,
    accumulated_j: f64,
    busy_extra_j: f64,
}

impl EnergyMeter {
    /// A meter starting in `state` at time zero.
    pub fn new(power: PowerModel, state: PowerState) -> EnergyMeter {
        EnergyMeter {
            power,
            state,
            state_since: SimTime::ZERO,
            accumulated_j: 0.0,
            busy_extra_j: 0.0,
        }
    }

    /// Switch the background power state at `now`.
    pub fn set_state(&mut self, state: PowerState, now: SimTime) {
        let dt = now.since(self.state_since).as_secs_f64();
        self.accumulated_j += self.power.watts(self.state) * dt;
        self.state = state;
        self.state_since = now;
    }

    /// Account a busy (active-execution) interval.
    pub fn accrue_busy(&mut self, start: SimTime, finish: SimTime) {
        let dt = finish.since(start).as_secs_f64();
        let baseline = self.power.watts(self.state);
        let extra = (self.power.active_w - baseline).max(0.0);
        self.busy_extra_j += extra * dt;
    }

    /// Total joules consumed up to `now`.
    pub fn energy_joules(&self, now: SimTime) -> f64 {
        let dt = now.since(self.state_since).as_secs_f64();
        self.accumulated_j + self.power.watts(self.state) * dt + self.busy_extra_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpi4_to_rpi3_ratio_matches_paper() {
        let r3 = DeviceSpec::rpi3();
        let r4 = DeviceSpec::rpi4();
        let ratio = r4.core_hz() / r3.core_hz();
        assert!(
            (1.6..1.9).contains(&ratio),
            "RPI4/RPI3 ratio {ratio} outside the paper's 1.71–1.8 band"
        );
    }

    #[test]
    fn cloud_dominates_edge_devices() {
        let cloud = DeviceSpec::cloud_server();
        let r4 = DeviceSpec::rpi4();
        assert!(cloud.core_hz() > 3.0 * r4.core_hz());
        assert!(cloud.total_hz() > 6.0 * r4.total_hz());
    }

    #[test]
    fn service_time_scales_inverse_speed() {
        let r3 = DeviceSpec::rpi3();
        let cloud = DeviceSpec::cloud_server();
        let cycles = 1_000_000_000;
        assert!(r3.service_time(cycles) > cloud.service_time(cycles));
    }

    #[test]
    fn queueing_serializes_beyond_core_count() {
        let mut d = Device::new(DeviceSpec::rpi3()); // 4 cores
        let cycles = 100_000_000;
        let t0 = SimTime::ZERO;
        let mut finishes = Vec::new();
        for _ in 0..8 {
            let (_, f) = d.schedule_work(t0, cycles);
            finishes.push(f);
        }
        // first 4 finish together; the next 4 queue behind them
        assert_eq!(finishes[0], finishes[3]);
        assert!(finishes[4] > finishes[3]);
        assert_eq!(d.completed(), 8);
    }

    #[test]
    fn work_arriving_later_starts_later() {
        let mut d = Device::new(DeviceSpec::rpi4());
        let (s1, _) = d.schedule_work(SimTime::from_secs_f64(1.0), 1000);
        assert_eq!(s1, SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn energy_integrates_over_states() {
        let spec = DeviceSpec::rpi3();
        let mut d = Device::new(spec.clone());
        let one_hour = SimTime::from_secs_f64(3600.0);
        let idle_j = d.energy_joules(one_hour);
        assert!((idle_j - spec.power.idle_w * 3600.0).abs() < 1.0);
        // low-power mode burns less
        d.set_power_state(PowerState::LowPower, one_hour);
        let two_hours = SimTime::from_secs_f64(7200.0);
        let total = d.energy_joules(two_hours);
        let expected = spec.power.idle_w * 3600.0 + spec.power.low_power_w * 3600.0;
        assert!((total - expected).abs() < 1.0);
    }

    #[test]
    fn busy_energy_adds_to_baseline() {
        let spec = DeviceSpec::rpi4();
        let mut d = Device::new(spec.clone());
        // 10 seconds of continuous single-core work
        let cycles = (spec.core_hz() * 10.0) as u64;
        let (_, finish) = d.schedule_work(SimTime::ZERO, cycles);
        let e = d.energy_joules(finish);
        let idle_only = spec.power.idle_w * finish.as_secs_f64();
        assert!(
            e > idle_only,
            "busy energy {e} should exceed idle-only {idle_only}"
        );
    }

    #[test]
    fn wake_penalty_only_in_low_power() {
        let mut d = Device::new(DeviceSpec::rpi4());
        assert_eq!(d.wake_penalty(), SimDuration::ZERO);
        d.set_power_state(PowerState::LowPower, SimTime::ZERO);
        assert!(d.wake_penalty() > SimDuration::ZERO);
        assert_eq!(d.power_state(), PowerState::LowPower);
    }

    #[test]
    fn busy_cores_reflects_inflight_work() {
        let mut d = Device::new(DeviceSpec::rpi3());
        let (_, f) = d.schedule_work(SimTime::ZERO, 1_000_000_000);
        assert_eq!(d.busy_cores(SimTime::ZERO + SimDuration(1)), 1);
        assert_eq!(d.busy_cores(f), 0);
    }
}
