//! Power / energy model (paper Fig. 6d).
//!
//! Average power during a run is modelled as
//!
//! ```text
//! P = base + cpu_active × (cpu_busy / wall) + e_byte × bytes / wall
//! ```
//!
//! * `base` — idle draw of the board with radios/NIC up (the no-capture
//!   baseline the paper's overhead percentages are computed against);
//! * `cpu_active` — additional draw at 100 % CPU;
//! * `e_byte` — energy per transmitted wire byte (transceiver + driver
//!   path).
//!
//! Constant values live in [`crate::calib`] and are fit to the paper's
//! reported 1.43 / 1.47 / 1.49 W averages.

use std::time::Duration;

/// Device power parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerModel {
    /// Idle draw, watts.
    pub base_w: f64,
    /// Additional draw at full CPU utilization, watts.
    pub cpu_active_w: f64,
    /// Energy per transmitted wire byte, joules.
    pub joules_per_byte: f64,
}

impl PowerModel {
    /// A8-M3 fit: see [`crate::calib`] for the derivation.
    pub fn a8_m3() -> Self {
        PowerModel {
            base_w: crate::calib::A8_BASE_POWER_W,
            cpu_active_w: crate::calib::A8_CPU_ACTIVE_POWER_W,
            joules_per_byte: crate::calib::A8_JOULES_PER_WIRE_BYTE,
        }
    }

    /// Server-class placeholder (the paper only reports edge power).
    pub fn server() -> Self {
        PowerModel {
            base_w: 85.0,
            cpu_active_w: 40.0,
            joules_per_byte: 2e-8,
        }
    }

    /// Average power over a window.
    pub fn average_power_w(&self, wall: Duration, cpu_busy: Duration, wire_bytes: u64) -> f64 {
        if wall.is_zero() {
            return self.base_w;
        }
        let wall_s = wall.as_secs_f64();
        let util = (cpu_busy.as_secs_f64() / wall_s).min(1.0);
        self.base_w + self.cpu_active_w * util + self.joules_per_byte * wire_bytes as f64 / wall_s
    }

    /// Total energy over a window, joules.
    pub fn energy_j(&self, wall: Duration, cpu_busy: Duration, wire_bytes: u64) -> f64 {
        self.average_power_w(wall, cpu_busy, wire_bytes) * wall.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel {
            base_w: 1.0,
            cpu_active_w: 0.5,
            joules_per_byte: 1e-5,
        }
    }

    #[test]
    fn idle_draws_base() {
        let p = model().average_power_w(Duration::from_secs(10), Duration::ZERO, 0);
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cpu_and_network_add_linearly() {
        let m = model();
        // 10% CPU + 10 KB/s => 1.0 + 0.05 + 0.1 = 1.15 W
        let p = m.average_power_w(Duration::from_secs(10), Duration::from_secs(1), 100_000);
        assert!((p - 1.15).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn utilization_clamped_at_one() {
        let m = model();
        let p = m.average_power_w(Duration::from_secs(1), Duration::from_secs(50), 0);
        assert!((p - 1.5).abs() < 1e-12);
    }

    #[test]
    fn energy_is_power_times_time() {
        let m = model();
        let e = m.energy_j(Duration::from_secs(100), Duration::ZERO, 0);
        assert!((e - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_window_returns_base() {
        assert_eq!(
            model().average_power_w(Duration::ZERO, Duration::ZERO, 99),
            1.0
        );
    }

    #[test]
    fn a8_fit_matches_paper_band() {
        // The no-capture baseline should be near 1.39 W and a
        // ProvLight-like load (2% CPU, 3.5 KB/s) near the paper's 1.43 W.
        let m = PowerModel::a8_m3();
        let idle = m.average_power_w(Duration::from_secs(60), Duration::ZERO, 0);
        assert!((1.3..1.45).contains(&idle), "idle {idle}");
        let provlight = m.average_power_w(
            Duration::from_secs(60),
            Duration::from_secs_f64(1.2),
            3_500 * 60,
        );
        assert!(provlight > idle);
        assert!(provlight < 1.5, "provlight-ish load {provlight}");
    }
}
