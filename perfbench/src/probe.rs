//! What the benchmark reads off a finished run: the energy meter, the
//! program's existing telemetry (per-slot counters and phase spans), a
//! digest of the simulated result, and an engine-only drive microbench.

use std::sync::Arc;
use std::time::Instant;

use ebc_bench::cache::Fnv;
use ebc_radio::telemetry::Telemetry;
use ebc_radio::{Action, Feedback, Graph, Model, NodeId, Schedule, Sim};

use crate::report::{Report, PHASES};
use crate::stats;

/// A recorder for one traced run: no slot events (the counters carry the
/// aggregates this benchmark reads), and `counter_rows` per-slot rows.
pub fn recorder(counter_rows: usize) -> Telemetry {
    Telemetry::with_capacity(1, counter_rows)
}

/// A digest of one run's simulated result: every device's energy, the
/// clock, and the informed set. Equal digests mean bit-identical results.
pub fn run_digest(sim: &Sim, informed: &[bool]) -> u64 {
    let mut h = Fnv::default();
    for v in 0..sim.graph().n() {
        h.update(&sim.meter().energy(v).to_le_bytes());
    }
    h.update(&sim.now().to_le_bytes());
    for &b in informed {
        h.update(&[u8::from(b)]);
    }
    h.finish()
}

/// Folds a sequence of digests into one.
pub fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::default();
    for d in digests {
        h.update(&d.to_le_bytes());
    }
    h.finish()
}

/// Charged sends and listens summed over every device.
fn sends_listens(sim: &Sim) -> (u64, u64) {
    let meter = sim.meter();
    (0..sim.graph().n()).fold((0, 0), |(s, l), v| {
        (s + meter.sends(v), l + meter.listens(v))
    })
}

/// Slot and action totals of one phase across runs.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseTotals {
    slots: u64,
    actions: u64,
}

/// Meter and telemetry totals across the traced runs of one pass.
#[derive(Debug, Default)]
pub struct RunTotals {
    actions: u64,
    sends: u64,
    listens: u64,
    slots_simulated: u64,
    slots_skipped: u64,
    slots_stepped: u64,
    polls: u64,
    listeners: u64,
    deliveries: u64,
    collisions: u64,
    lost_sends: u64,
    jammed_slots: u64,
    counters_dropped: u64,
    spans_dropped: u64,
    phases: [PhaseTotals; PHASES.len()],
}

impl RunTotals {
    /// Adds one finished run whose telemetry was taken into `telemetry`.
    pub fn absorb(&mut self, sim: &Sim, telemetry: &Telemetry) {
        let (sends, listens) = sends_listens(sim);
        self.actions += sim.meter().total_energy();
        self.sends += sends;
        self.listens += listens;
        self.slots_simulated += sim.now();
        self.slots_skipped += sim.meter().idle_skipped();
        self.lost_sends += sim.meter().total_lost_sends();
        // Dropped rows are counted, so the stepped-slot count stays exact
        // even when the ring overflows; the per-row sums below cover only
        // retained rows.
        self.slots_stepped += telemetry.counters().count() as u64 + telemetry.counters_dropped();
        self.counters_dropped += telemetry.counters_dropped();
        self.spans_dropped += telemetry.spans_dropped();
        for row in telemetry.counters() {
            self.polls += u64::from(row.polled);
            self.listeners += u64::from(row.listeners);
            self.deliveries += u64::from(row.delivered);
            self.collisions += u64::from(row.collisions);
            self.jammed_slots += u64::from(row.jammed > 0);
        }
        for (i, phase) in PHASES.iter().enumerate() {
            let intervals = phase_intervals(telemetry, phase, sim.now());
            let covered = &mut self.phases[i];
            covered.slots += intervals.iter().map(|(s, e)| e - s).sum::<u64>();
            covered.actions += actions_within(telemetry, &intervals);
        }
    }

    /// Records the radio and phase metrics, per op over `ops` ops.
    pub fn report(&self, ops: usize, report: &mut Report) {
        let per_op = |x: u64| x as f64 / ops.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        report.add("radio.actions", per_op(self.actions), ops);
        report.add("radio.sends", per_op(self.sends), ops);
        report.add("radio.listens", per_op(self.listens), ops);
        report.add("radio.slots_simulated", per_op(self.slots_simulated), ops);
        report.add("radio.slots_skipped", per_op(self.slots_skipped), ops);
        report.add("radio.slots_stepped", per_op(self.slots_stepped), ops);
        report.add(
            "radio.polls_per_stepped_slot",
            ratio(self.polls, self.slots_stepped - self.counters_dropped),
            ops,
        );
        report.add("radio.deliveries", per_op(self.deliveries), ops);
        report.add("radio.collisions", per_op(self.collisions), ops);
        report.add(
            "radio.useful_listen_ratio",
            ratio(self.deliveries, self.listeners),
            ops,
        );
        report.add("radio.lost_sends", per_op(self.lost_sends), ops);
        report.add("radio.jammed_slots", per_op(self.jammed_slots), ops);
        report.add("radio.counters_dropped", self.counters_dropped as f64, ops);
        for (i, phase) in PHASES.iter().enumerate() {
            let p = self.phases[i];
            report.add(&format!("core.phase.{phase}.slots"), per_op(p.slots), ops);
            report.add(
                &format!("core.phase.{phase}.slot_share"),
                ratio(p.slots, self.slots_simulated),
                ops,
            );
            report.add(
                &format!("core.phase.{phase}.actions"),
                per_op(p.actions),
                ops,
            );
        }
        if self.counters_dropped > 0 || self.spans_dropped > 0 {
            println!(
                "telemetry dropped {} counter rows and {} spans: per-row sums cover retained rows only",
                self.counters_dropped, self.spans_dropped
            );
        }
    }
}

/// The merged slot intervals of every span named `name`, open spans
/// closed at `now`.
fn phase_intervals(telemetry: &Telemetry, name: &str, now: u64) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = telemetry
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.start, if s.is_open() { now } else { s.end }))
        .filter(|(s, e)| s < e)
        .collect();
    v.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Energy charged in retained counter rows whose slot lies inside the
/// merged `intervals`.
fn actions_within(telemetry: &Telemetry, intervals: &[(u64, u64)]) -> u64 {
    let mut i = 0;
    let mut sum = 0;
    for row in telemetry.counters() {
        while i < intervals.len() && intervals[i].1 <= row.slot {
            i += 1;
        }
        if i == intervals.len() {
            break;
        }
        if intervals[i].0 <= row.slot {
            sum += row.energy();
        }
    }
    sum
}

/// Engine-only cost: `Sim::drive` over every device of `graph` under
/// `model`, `Schedule::Dense`, each device sending in one slot of 16 (by
/// `(v + t) mod 16`) and listening otherwise, with callbacks that do no
/// work. Returns `(host ns, charged actions)` for about `target_actions`
/// actions.
pub fn drive_cost(graph: &Arc<Graph>, model: Model, target_actions: u64) -> (u64, u64) {
    let participants: Vec<NodeId> = (0..graph.n()).collect();
    let slots = (target_actions / graph.n().max(1) as u64).max(1);
    let mut sim = Sim::new(Arc::clone(graph), model, 1);
    let mut behavior = ebc_radio::from_fns(
        |v: NodeId, t: u64| {
            if (v as u64 + t) % 16 == 0 {
                Action::Send(v as u32)
            } else {
                Action::Listen
            }
        },
        |_v, _t, fb: Feedback<u32>| {
            std::hint::black_box(fb);
        },
    );
    let t0 = Instant::now();
    sim.drive(
        Schedule::Dense {
            participants: &participants,
            slots,
        },
        &mut behavior,
    );
    let ns = t0.elapsed().as_nanos() as u64;
    (ns, sim.meter().total_energy())
}

/// `radio.drive_ns_per_action` over `targets` (graph, model) pairs: the
/// median over `reps` repetitions of total ns over total actions.
pub fn drive_ns_per_action(targets: &[(Arc<Graph>, Model)], per_target: u64, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (ns, actions) = targets
                .iter()
                .map(|(g, m)| drive_cost(g, *m, per_target))
                .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
            stats::ns_per_action(ns as f64, actions).expect("the drive charges every device")
        })
        .collect();
    stats::median(&samples).expect("at least one repetition")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_microbench_charges_every_device_every_slot() {
        let g = Arc::new(ebc_graphs::deterministic::cycle(32));
        let (_, actions) = drive_cost(&g, Model::Cd, 32 * 10);
        assert_eq!(actions, 32 * 10);
    }

    #[test]
    fn digests_separate_different_results() {
        let g = Arc::new(ebc_graphs::deterministic::cycle(16));
        let alg = ebc_core::suite::by_name("naive_flood").unwrap();
        let digest = |seed: u64| {
            let mut sim = Sim::new(Arc::clone(&g), Model::Local, seed);
            let out = alg.run(&mut sim, 0);
            run_digest(&sim, &out.informed)
        };
        assert_eq!(digest(5), digest(5));
        let mut sim = Sim::new(Arc::clone(&g), Model::Local, 5);
        sim.skip(1);
        let out = alg.run(&mut sim, 0);
        assert_ne!(run_digest(&sim, &out.informed), digest(5));
    }
}
