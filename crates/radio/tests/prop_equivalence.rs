//! Differential property suite: [`Sim::drive`] must be bit-for-bit
//! equivalent to a naive dense slot loop kept here as a test-only oracle
//! — informed set, per-node energy, clock, `last_active`, `idle_skipped`
//! — across every collision model, on random graphs, random scripted
//! behaviors, and all three [`Schedule`] shapes (dense, sparse, dynamic).
//!
//! This extends the relay-chain equivalence test in `sim.rs` from one
//! hand-built scenario to the generated scenario space: any divergence in
//! the engine's row-probe collision resolution (early exits, CD\*'s
//! lowest-id pick, LOCAL's ascending message order) or in the schedule
//! drivers' clock/energy accounting fails here with the case seed.

use ebc_radio::{
    resolve, Action, EnergyMeter, FaultPlan, Feedback, Graph, JammerStrategy, Model, NodeId,
    Schedule, Sim, SlotBehavior, SparseSchedule,
};
use proptest::prelude::*;

/// Every fault plan at zero strength: the fault layer runs (draws its
/// verdicts, applies its empty event lists) but must never perturb the
/// engine. [`FaultPlan::None`] additionally asserts the no-state fast
/// path.
fn zero_strength_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::None,
        FaultPlan::SlotLoss { p: 0.0 },
        FaultPlan::EdgeLoss { p: 0.0 },
        FaultPlan::Crash { schedule: vec![] },
        FaultPlan::Jammer {
            budget: u64::MAX,
            strategy: JammerStrategy::Random { p: 0.0 },
        },
        FaultPlan::Churn {
            leave: vec![],
            join: vec![],
        },
    ]
}

/// Splitmix-style mixer: a pure hash of (seed, v, t), so every engine
/// sees identical actions no matter how often or in what order it polls.
fn mix(seed: u64, v: u64, t: u64) -> u64 {
    let mut z =
        seed ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ t.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random connected-enough graph: a deterministic spanning path plus
/// `extra` random chords, so every density from near-tree to dense occurs.
fn random_graph(n: usize, seed: u64) -> Graph {
    let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let extra = (mix(seed, 0, 0) % (2 * n as u64)) as usize;
    for i in 0..extra {
        let u = (mix(seed, 1, i as u64) % n as u64) as usize;
        let v = (mix(seed, 2, i as u64) % n as u64) as usize;
        if u != v {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges).unwrap()
}

/// A scripted behavior: the action of `(v, t)` is a pure function of the
/// seed, so the reference loop and every schedule shape replay the exact
/// same script. Records everything the engines must agree on.
struct Scripted {
    seed: u64,
    slots: u64,
    /// `informed[v]` once `v` received at least one message.
    informed: Vec<bool>,
    /// Every feedback delivery, in delivery order.
    log: Vec<(NodeId, u64, Feedback<u32>)>,
}

impl Scripted {
    fn new(seed: u64, n: usize, slots: u64) -> Self {
        Scripted {
            seed,
            slots,
            informed: vec![false; n],
            log: Vec::new(),
        }
    }

    /// Whether `v` is scripted to be active (non-idle) in slot `t`.
    fn active(&self, v: NodeId, t: u64) -> bool {
        mix(self.seed, v as u64, t) % 4 != 0
    }

    fn scripted_action(&self, v: NodeId, t: u64) -> Action<u32> {
        if !self.active(v, t) {
            return Action::Idle;
        }
        let msg = (v as u32) << 8 | (t as u32 & 0xff);
        match mix(self.seed, v as u64 ^ 0xabcd, t) % 4 {
            0 | 1 => Action::Listen,
            2 => Action::Send(msg),
            _ => Action::SendListen(msg),
        }
    }
}

impl SlotBehavior<u32> for Scripted {
    fn act(&mut self, v: NodeId, t: u64) -> Action<u32> {
        self.scripted_action(v, t)
    }

    fn feedback(&mut self, v: NodeId, t: u64, fb: Feedback<u32>) {
        if matches!(fb, Feedback::One(_) | Feedback::Many(_)) {
            self.informed[v] = true;
        }
        self.log.push((v, t, fb));
    }

    // Wake hints for Schedule::Dynamic: exactly the scripted active slots.
    // Skipped slots are Idle by construction and consume no randomness, so
    // the dynamic run must be bit-identical to the dense one.
    fn first_wake(&mut self, v: NodeId) -> Option<u64> {
        (0..self.slots).find(|&t| self.active(v, t))
    }

    fn next_wake(&mut self, v: NodeId, t: u64) -> Option<u64> {
        (t + 1..self.slots).find(|&t2| self.active(v, t2))
    }
}

/// What every engine/schedule combination must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    informed: Vec<bool>,
    log: Vec<(NodeId, u64, Feedback<u32>)>,
    energy: Vec<u64>,
    clock: u64,
    last_active: Option<u64>,
}

fn outcome(sim: &Sim, b: Scripted) -> Outcome {
    Outcome {
        informed: b.informed,
        log: b.log,
        energy: (0..sim.graph().n())
            .map(|v| sim.meter().energy(v))
            .collect(),
        clock: sim.now(),
        last_active: sim.meter().last_active(),
    }
}

/// The test-only oracle: the naive dense slot loop, built on nothing but
/// the public [`resolve`] and [`Graph::neighbors`]. Every device is polled
/// every slot in ascending id order, and every listener resolves by a
/// fresh scan of its neighbor list. It never batch-skips, so the engine's
/// `idle_skipped` on a dense drive must be 0 to match it.
fn dense_oracle(graph: &Graph, model: Model, mut b: Scripted, slots: u64) -> Outcome {
    let n = graph.n();
    let mut meter = EnergyMeter::new(n);
    for t in 0..slots {
        let mut sent: Vec<Option<u32>> = vec![None; n];
        let mut listeners = Vec::new();
        for (v, sent_v) in sent.iter_mut().enumerate() {
            let action = b.act(v, t);
            if let Some(&m) = action.message() {
                meter.charge_send(v, t);
                *sent_v = Some(m);
            }
            if action.listens() {
                meter.charge_listen(v, t);
                listeners.push(v);
            }
        }
        for v in listeners {
            let fb = resolve(
                model,
                graph.neighbors(v).filter_map(|u| sent[u].map(|m| (u, m))),
            );
            b.feedback(v, t, fb);
        }
    }
    Outcome {
        informed: b.informed,
        log: b.log,
        energy: (0..n).map(|v| meter.energy(v)).collect(),
        clock: slots,
        last_active: meter.last_active(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Telemetry differential: enabling the recorder must not perturb the
    /// engine. A traced dense drive must match the untraced drive —
    /// informed set, feedback log, per-node energy, clock, `last_active`,
    /// `idle_skipped`, and the rng-driven collision outcomes folded into
    /// all of those — bit-for-bit on every model, while actually
    /// recording (non-empty events and counters once anything transmits).
    #[test]
    fn telemetry_does_not_perturb_the_engine(
        n in 2usize..32,
        graph_seed in any::<u64>(),
        script_seed in any::<u64>(),
        slots in 1u64..20,
    ) {
        let graph = random_graph(n, graph_seed);
        let all: Vec<NodeId> = (0..n).collect();
        for model in Model::ALL {
            let mut plain_sim = Sim::new(graph.clone(), model, 0);
            let mut plain_b = Scripted::new(script_seed, n, slots);
            plain_sim.drive(Schedule::Dense { participants: &all, slots }, &mut plain_b);
            let plain_skipped = plain_sim.meter().idle_skipped();
            let plain = outcome(&plain_sim, plain_b);

            let mut traced_sim = Sim::new(graph.clone(), model, 0);
            traced_sim.enable_telemetry();
            let mut traced_b = Scripted::new(script_seed, n, slots);
            traced_sim.drive(Schedule::Dense { participants: &all, slots }, &mut traced_b);
            prop_assert_eq!(traced_sim.meter().idle_skipped(), plain_skipped);
            prop_assert_eq!(&outcome(&traced_sim, traced_b), &plain, "traced vs plain, {}", model);

            // The recorder really recorded: a scripted sender exists in
            // almost every case, and whenever one does the event ring and
            // the per-slot counters must have seen it.
            let tel = traced_sim.take_telemetry().expect("telemetry enabled");
            if plain.energy.iter().any(|&e| e > 0) {
                prop_assert!(tel.event_count() > 0, "no events on {}", model);
                prop_assert!(tel.counters().count() > 0, "no counters on {}", model);
            }
        }
    }
}

/// The zero-cost-when-off claim, measured: the untraced drive must not be
/// slower than the traced one beyond generous noise margins (median of
/// three runs each; the off path is a single `Option` check per slot).
/// This is deliberately one-sided — it catches the off path accidentally
/// growing recording work, without flaking on machine noise.
#[test]
fn telemetry_off_costs_nothing_measurable() {
    let n = 192;
    let slots = 384;
    let graph = random_graph(n, 0xfeed);
    let all: Vec<NodeId> = (0..n).collect();
    let run = |traced: bool| {
        let mut sim = Sim::new(graph.clone(), Model::Local, 0);
        if traced {
            sim.enable_telemetry();
        }
        let mut b = Scripted::new(0xbeef, n, slots);
        let start = std::time::Instant::now();
        sim.drive(
            Schedule::Dense {
                participants: &all,
                slots,
            },
            &mut b,
        );
        start.elapsed()
    };
    let median = |traced: bool| {
        let mut times: Vec<_> = (0..3).map(|_| run(traced)).collect();
        times.sort();
        times[1]
    };
    let off = median(false);
    let on = median(true);
    assert!(
        off <= on.mul_f64(1.25) + std::time::Duration::from_millis(50),
        "telemetry-off drive slower than traced: off={off:?} on={on:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bitset_engine_matches_dense_reference_on_all_models(
        n in 2usize..40,
        graph_seed in any::<u64>(),
        script_seed in any::<u64>(),
        slots in 1u64..24,
    ) {
        let graph = random_graph(n, graph_seed);
        let all: Vec<NodeId> = (0..n).collect();
        for model in Model::ALL {
            // Oracle: the test-local naive dense loop.
            let reference = dense_oracle(&graph, model, Scripted::new(script_seed, n, slots), slots);

            // Dense schedule.
            let mut dense_sim = Sim::new(graph.clone(), model, 0);
            let mut dense_b = Scripted::new(script_seed, n, slots);
            dense_sim.drive(Schedule::Dense { participants: &all, slots }, &mut dense_b);
            prop_assert_eq!(dense_sim.meter().idle_skipped(), 0);
            prop_assert_eq!(&outcome(&dense_sim, dense_b), &reference, "dense vs reference, {}", model);

            // Sparse schedule naming exactly the active polls.
            let probe = Scripted::new(script_seed, n, slots);
            let mut sparse = SparseSchedule::new();
            for t in 0..slots {
                let row: Vec<NodeId> = (0..n).filter(|&v| probe.active(v, t)).collect();
                if !row.is_empty() {
                    sparse.push(t, row);
                }
            }
            let mut sparse_sim = Sim::new(graph.clone(), model, 0);
            let mut sparse_b = Scripted::new(script_seed, n, slots);
            sparse_sim.drive(Schedule::Sparse { schedule: &sparse, slots }, &mut sparse_b);
            prop_assert_eq!(&outcome(&sparse_sim, sparse_b), &reference, "sparse vs reference, {}", model);

            // Dynamic wake-queue fed by the scripted hints.
            let mut dyn_sim = Sim::new(graph.clone(), model, 0);
            let mut dyn_b = Scripted::new(script_seed, n, slots);
            dyn_sim.drive(Schedule::Dynamic { participants: &all, slots }, &mut dyn_b);
            prop_assert_eq!(&outcome(&dyn_sim, dyn_b), &reference, "dynamic vs reference, {}", model);

            // Sparse/dynamic batch-skip all-idle slots; the clock already
            // matched above, so skipped + simulated is conserved.
            prop_assert_eq!(sparse_sim.meter().idle_skipped(), slots - sparse.len() as u64);

            // Fault differential: a faulted drive at zero strength — every
            // plan kind with probability 0, empty event lists, or a jammer
            // that never fires — must pin the informed set, feedback log,
            // per-node energy, clock, `last_active`, and `idle_skipped`
            // bit-for-bit against the reference dense loop.
            for plan in zero_strength_plans() {
                let name = plan.name();
                let mut fault_sim = Sim::with_faults(graph.clone(), model, 0, plan);
                let mut fault_b = Scripted::new(script_seed, n, slots);
                fault_sim.drive(Schedule::Dense { participants: &all, slots }, &mut fault_b);
                prop_assert_eq!(fault_sim.meter().idle_skipped(), 0);
                prop_assert_eq!(
                    fault_sim.meter().total_lost_sends(),
                    0,
                    "zero-strength {} destroyed a send",
                    name
                );
                prop_assert_eq!(
                    &outcome(&fault_sim, fault_b),
                    &reference,
                    "faulted({}) vs reference, {}",
                    name,
                    model
                );
            }
        }
    }
}
