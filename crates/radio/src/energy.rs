//! Exact per-device energy accounting.

use crate::{NodeId, Slot};

/// Meters every send and listen, per device, over a whole simulation.
///
/// Energy complexity in the paper is the number of slots a device transmits
/// or listens; a full-duplex slot counts both. The meter also records the
/// last slot in which *any* device was active, which is the simulation's
/// time complexity.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    sends: Vec<u64>,
    listens: Vec<u64>,
    /// Sends charged in slots the fault layer lost or jammed — energy
    /// paid for transmissions nobody could decode (the retry cost of
    /// unreliable channels). Always ≤ `sends`, element-wise.
    lost_sends: Vec<u64>,
    last_active: Option<Slot>,
    idle_skipped: u64,
}

impl EnergyMeter {
    /// A meter for `n` devices with all counters zero.
    pub fn new(n: usize) -> Self {
        EnergyMeter {
            sends: vec![0; n],
            listens: vec![0; n],
            lost_sends: vec![0; n],
            last_active: None,
            idle_skipped: 0,
        }
    }

    /// Records that `v` transmitted in slot `t`.
    pub fn charge_send(&mut self, v: NodeId, t: Slot) {
        self.sends[v] += 1;
        self.bump(t);
    }

    /// Records that `v` listened in slot `t`.
    pub fn charge_listen(&mut self, v: NodeId, t: Slot) {
        self.listens[v] += 1;
        self.bump(t);
    }

    fn bump(&mut self, t: Slot) {
        self.last_active = Some(self.last_active.map_or(t, |x| x.max(t)));
    }

    /// Records `slots` slots in which every device provably idled and the
    /// clock advanced in one batch (the [`crate::Sim::skip`] path and the
    /// gaps of a sparse schedule). Idling is free, so no energy is charged;
    /// the counter only makes the batching observable in reports.
    pub fn note_skip(&mut self, slots: u64) {
        self.idle_skipped += slots;
    }

    /// Total slots batch-skipped as provably idle.
    pub fn idle_skipped(&self) -> u64 {
        self.idle_skipped
    }

    /// Records that `v`'s already-charged send fell in a slot the fault
    /// layer destroyed (lost or jammed) — the energy stays charged; this
    /// counter makes the waste observable.
    pub fn note_lost_send(&mut self, v: NodeId) {
        self.lost_sends[v] += 1;
    }

    /// Sends by `v` that a fault destroyed (already counted in
    /// [`EnergyMeter::sends`]).
    pub fn lost_sends(&self, v: NodeId) -> u64 {
        self.lost_sends[v]
    }

    /// Total fault-destroyed sends across all devices.
    pub fn total_lost_sends(&self) -> u64 {
        self.lost_sends.iter().sum()
    }

    /// Total energy spent by `v` (sends + listens).
    pub fn energy(&self, v: NodeId) -> u64 {
        self.sends[v] + self.listens[v]
    }

    /// Number of transmissions by `v`.
    pub fn sends(&self, v: NodeId) -> u64 {
        self.sends[v]
    }

    /// Number of listening slots of `v`.
    pub fn listens(&self, v: NodeId) -> u64 {
        self.listens[v]
    }

    /// The maximum energy over all devices — the paper's energy complexity.
    pub fn max_energy(&self) -> u64 {
        (0..self.sends.len())
            .map(|v| self.energy(v))
            .max()
            .unwrap_or(0)
    }

    /// Sum of energy over all devices.
    pub fn total_energy(&self) -> u64 {
        (0..self.sends.len()).map(|v| self.energy(v)).sum()
    }

    /// Mean per-device energy.
    pub fn mean_energy(&self) -> f64 {
        if self.sends.is_empty() {
            0.0
        } else {
            self.total_energy() as f64 / self.sends.len() as f64
        }
    }

    /// The last slot in which any device was active, if any.
    pub fn last_active(&self) -> Option<Slot> {
        self.last_active
    }

    /// A summary snapshot suitable for printing in benchmark tables.
    ///
    /// Percentiles use the ceil-based nearest-rank definition: the q-th
    /// percentile is the smallest value with at least `⌈q·len⌉` values at
    /// or below it. (The old `((len-1)·q) as usize` truncated — on a
    /// 4-device network "p95" reported index 2, roughly p66.)
    pub fn report(&self) -> EnergyReport {
        let n = self.sends.len();
        let mut energies: Vec<u64> = (0..n).map(|v| self.energy(v)).collect();
        energies.sort_unstable();
        let p = |q: f64| -> u64 {
            if energies.is_empty() {
                0
            } else {
                let rank = (energies.len() as f64 * q).ceil() as usize;
                energies[rank.clamp(1, energies.len()) - 1]
            }
        };
        EnergyReport {
            max: self.max_energy(),
            mean: self.mean_energy(),
            median: p(0.5),
            p95: p(0.95),
            total: self.total_energy(),
            time: self.last_active.map_or(0, |t| t + 1),
            idle_skipped: self.idle_skipped,
            lost_sends: self.total_lost_sends(),
        }
    }

    /// Resets all counters (devices and clock history).
    pub fn reset(&mut self) {
        self.sends.iter_mut().for_each(|x| *x = 0);
        self.listens.iter_mut().for_each(|x| *x = 0);
        self.lost_sends.iter_mut().for_each(|x| *x = 0);
        self.last_active = None;
        self.idle_skipped = 0;
    }
}

/// Aggregate energy/time statistics for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Maximum per-device energy (the paper's energy complexity).
    pub max: u64,
    /// Mean per-device energy.
    pub mean: f64,
    /// Median per-device energy.
    pub median: u64,
    /// 95th-percentile per-device energy.
    pub p95: u64,
    /// Total energy across all devices.
    pub total: u64,
    /// Number of slots up to and including the last active one.
    pub time: u64,
    /// Slots the simulation batch-skipped as provably idle (free time the
    /// engine never simulated slot-by-slot).
    pub idle_skipped: u64,
    /// Sends destroyed by the fault layer (energy paid for transmissions
    /// nobody could decode); 0 in every clean run.
    pub lost_sends: u64,
}

impl core::fmt::Display for EnergyReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "time={} slots ({} idle-skipped), energy max={} mean={:.1} median={} p95={} total={}",
            self.time, self.idle_skipped, self.max, self.mean, self.median, self.p95, self.total
        )?;
        if self.lost_sends > 0 {
            write!(f, " ({} sends lost to faults)", self.lost_sends)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sends_and_listens() {
        let mut m = EnergyMeter::new(3);
        m.charge_send(0, 5);
        m.charge_listen(0, 6);
        m.charge_listen(2, 9);
        assert_eq!(m.energy(0), 2);
        assert_eq!(m.energy(1), 0);
        assert_eq!(m.energy(2), 1);
        assert_eq!(m.sends(0), 1);
        assert_eq!(m.listens(0), 1);
        assert_eq!(m.max_energy(), 2);
        assert_eq!(m.total_energy(), 3);
        assert_eq!(m.last_active(), Some(9));
    }

    #[test]
    fn last_active_is_max_not_last_call() {
        let mut m = EnergyMeter::new(2);
        m.charge_send(0, 100);
        m.charge_send(1, 7);
        assert_eq!(m.last_active(), Some(100));
    }

    #[test]
    fn report_statistics() {
        let mut m = EnergyMeter::new(4);
        for t in 0..10 {
            m.charge_listen(0, t);
        }
        m.charge_send(1, 3);
        let r = m.report();
        assert_eq!(r.max, 10);
        assert_eq!(r.total, 11);
        assert_eq!(r.time, 10);
        assert!((r.mean - 11.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_use_ceil_based_nearest_rank() {
        // Energies 1, 2, 3, 4 across four devices: p95's rank is ⌈4·0.95⌉
        // = 4 → the max; the median's rank is ⌈4·0.5⌉ = 2.
        let mut m = EnergyMeter::new(4);
        for v in 0..4 {
            for t in 0..=v as u64 {
                m.charge_listen(v, t);
            }
        }
        let r = m.report();
        assert_eq!(r.p95, 4, "p95 on 4 devices must be the max");
        assert_eq!(r.median, 2);

        // 20 devices with energies 1..=20: rank ⌈20·0.95⌉ = 19 → value 19.
        let mut m = EnergyMeter::new(20);
        for v in 0..20 {
            for t in 0..=v as u64 {
                m.charge_send(v, t);
            }
        }
        let r = m.report();
        assert_eq!(r.p95, 19);
        assert_eq!(r.median, 10);
    }

    #[test]
    fn single_device_percentiles_are_its_energy() {
        let mut m = EnergyMeter::new(1);
        m.charge_send(0, 0);
        m.charge_listen(0, 1);
        let r = m.report();
        assert_eq!(r.median, 2);
        assert_eq!(r.p95, 2);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = EnergyMeter::new(2);
        m.charge_send(0, 1);
        m.reset();
        assert_eq!(m.total_energy(), 0);
        assert_eq!(m.last_active(), None);
    }

    #[test]
    fn empty_meter() {
        let m = EnergyMeter::new(0);
        assert_eq!(m.max_energy(), 0);
        assert_eq!(m.mean_energy(), 0.0);
    }

    #[test]
    fn report_of_zero_device_meter_is_all_zero() {
        let r = EnergyMeter::new(0).report();
        assert_eq!(
            r,
            EnergyReport {
                max: 0,
                mean: 0.0,
                median: 0,
                p95: 0,
                total: 0,
                time: 0,
                idle_skipped: 0,
                lost_sends: 0
            }
        );
    }

    #[test]
    fn lost_sends_are_counted_and_reset() {
        let mut m = EnergyMeter::new(3);
        m.charge_send(0, 1);
        m.note_lost_send(0);
        m.charge_send(2, 2);
        assert_eq!(m.lost_sends(0), 1);
        assert_eq!(m.lost_sends(2), 0);
        assert_eq!(m.total_lost_sends(), 1);
        assert_eq!(m.report().lost_sends, 1);
        m.reset();
        assert_eq!(m.total_lost_sends(), 0);
    }

    #[test]
    fn idle_skips_are_counted_and_reset() {
        let mut m = EnergyMeter::new(2);
        m.note_skip(100);
        m.note_skip(23);
        assert_eq!(m.idle_skipped(), 123);
        assert_eq!(m.total_energy(), 0, "idling is free");
        assert_eq!(m.last_active(), None, "skips are not activity");
        assert_eq!(m.report().idle_skipped, 123);
        m.reset();
        assert_eq!(m.idle_skipped(), 0);
    }

    #[test]
    fn report_with_devices_but_no_charges() {
        // Devices exist but nothing ever sent or listened: every statistic
        // is zero and no slot counts as active.
        let m = EnergyMeter::new(5);
        let r = m.report();
        assert_eq!(r.max, 0);
        assert_eq!(r.mean, 0.0);
        assert_eq!(r.median, 0);
        assert_eq!(r.p95, 0);
        assert_eq!(r.total, 0);
        assert_eq!(r.time, 0);
        assert_eq!(m.last_active(), None);
    }

    #[test]
    fn skip_only_sim_charges_nothing_but_advances_clock() {
        // A simulation that only skips provably-idle regions: the global
        // clock moves, the meter stays empty (idling is free), and the
        // report's activity-based time stays zero.
        use crate::{Graph, Model, Sim};
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let mut sim = Sim::new(g, Model::NoCd, 1);
        sim.skip(1000);
        assert_eq!(sim.now(), 1000);
        assert_eq!(sim.meter().total_energy(), 0);
        assert_eq!(sim.meter().last_active(), None);
        assert_eq!(sim.meter().report().time, 0);
    }

    #[test]
    fn charge_after_skip_counts_skipped_slots_in_time() {
        use crate::{from_fns, Action, Graph, Model, Schedule, Sim};
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let mut sim = Sim::new(g, Model::NoCd, 1);
        sim.skip(50);
        let mut b = from_fns(
            |v, _t| {
                if v == 0 {
                    Action::Send(1u8)
                } else {
                    Action::Listen
                }
            },
            |_v, _t, _fb| {},
        );
        sim.drive(
            Schedule::Dense {
                participants: &[0, 1],
                slots: 1,
            },
            &mut b,
        );
        let r = sim.meter().report();
        assert_eq!(r.total, 2);
        // Time counts through the skipped region up to the active slot.
        assert_eq!(r.time, 51);
    }
}
