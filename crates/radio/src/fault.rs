//! Fault injection at the slot pipeline's single choke point.
//!
//! Every transmission in the engine flows through [`crate::Sim`]'s
//! `step_slot`, so faults are applied exactly once per simulated slot —
//! after behaviors act (senders pay for the attempt either way) and
//! before collision resolution computes feedback. Dense, sparse, and
//! dynamic schedules and all five collision models inherit every fault
//! for free.
//!
//! A [`FaultPlan`] declares *what* goes wrong; the engine-side
//! [`FaultState`] tracks *where the plan is* (which devices are down,
//! how much jamming budget remains, which events already fired). All
//! randomness is a pure hash of the fault key and the **global** slot
//! number — never a sequential stream — so batch-skipped slots draw
//! nothing and the three schedule shapes stay bit-identical under the
//! same plan. [`FaultPlan::None`] is never consulted at all: the engine
//! stores no fault state for it, so a clean run is bit-for-bit the
//! pre-fault engine.

use crate::bitset::BitSet;
use crate::model::{Feedback, Model};
use crate::rng::splitmix64;
use crate::{NodeId, Slot};

/// The stream label under which [`crate::Sim`] derives the fault key
/// from its master seed via [`crate::rng::derive_seed`] — disjoint from
/// every algorithm-visible stream, so adding faults never perturbs an
/// algorithm's own random draws.
pub const FAULT_STREAM: u64 = 0xfa01_7bad_51de_c0de;

/// How a [`FaultPlan::Jammer`] decides which slots to hit.
#[derive(Debug, Clone, PartialEq)]
pub enum JammerStrategy {
    /// Jam every slot whose global number is ≡ 0 (mod `period`).
    Periodic {
        /// The jamming period in slots (must be ≥ 1).
        period: u64,
    },
    /// Jam each slot independently with probability `p`.
    Random {
        /// Per-slot jamming probability in `[0, 1]`.
        p: f64,
    },
    /// Jam exactly the slots in which some device transmits — a
    /// carrier-sensing adversary that never wastes budget on silence.
    Reactive,
}

/// A declarative fault plan for one simulation run.
///
/// Plans are pure data: pass one to [`crate::Sim::with_faults`] and the
/// engine applies it deterministically. Randomized plans (slot loss,
/// edge loss, random jamming) draw from a key derived from the
/// simulation's master seed under [`FAULT_STREAM`], so two runs with the
/// same seed and plan fail identically.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum FaultPlan {
    /// No faults. The engine stores no fault state for this plan, so a
    /// `None` run is bit-identical to the pre-fault engine.
    #[default]
    None,
    /// Each simulated slot is independently *lost* with probability `p`:
    /// every transmission in it vanishes (listeners resolve an empty
    /// channel → [`Feedback::Silence`] in every model) while senders
    /// still pay send energy — the retry cost of unreliable channels.
    SlotLoss {
        /// Per-slot loss probability in `[0, 1]`.
        p: f64,
    },
    /// Each directed delivery (sender → listener) is independently
    /// dropped with probability `p` in each slot — the classic
    /// independent-link-loss model. Different listeners of the same
    /// sender fail independently.
    EdgeLoss {
        /// Per-delivery drop probability in `[0, 1]`.
        p: f64,
    },
    /// Devices crash permanently: at global slot `t`, device `v` goes
    /// down for every `(t, v)` in `schedule`. Down devices are never
    /// polled, transmit nothing, hear nothing, and pay no energy.
    Crash {
        /// `(global slot, device)` crash events, in any order.
        schedule: Vec<(Slot, NodeId)>,
    },
    /// An adversary with a finite jamming `budget`. A jammed slot
    /// reaches every listener as channel garbage: [`Feedback::Silence`]
    /// under No-CD (collisions are indistinguishable from silence),
    /// [`Feedback::Noise`] under CD/CD\*/LOCAL, [`Feedback::Beep`]
    /// under Beep. One budget unit buys one slot actually heard by at
    /// least one listener; slots nobody observes are free, so budget
    /// consumption is identical across schedule shapes.
    Jammer {
        /// How many observed slots the adversary can jam.
        budget: u64,
        /// Which slots it targets.
        strategy: JammerStrategy,
    },
    /// Churn: devices leave and later (re)join. `leave` takes a device
    /// down at a global slot exactly like a crash; `join` brings it back
    /// up. A device down over a window misses every delivery in it.
    Churn {
        /// `(global slot, device)` leave events.
        leave: Vec<(Slot, NodeId)>,
        /// `(global slot, device)` join events.
        join: Vec<(Slot, NodeId)>,
    },
}

impl FaultPlan {
    /// The stable kebab-case name of the plan kind (the bench matrix's
    /// fault-axis value): `"none"`, `"slot-loss"`, `"edge-loss"`,
    /// `"crash"`, `"jammer"`, or `"churn"`.
    pub fn name(&self) -> &'static str {
        match self {
            FaultPlan::None => "none",
            FaultPlan::SlotLoss { .. } => "slot-loss",
            FaultPlan::EdgeLoss { .. } => "edge-loss",
            FaultPlan::Crash { .. } => "crash",
            FaultPlan::Jammer { .. } => "jammer",
            FaultPlan::Churn { .. } => "churn",
        }
    }

    /// Whether this plan can ever perturb a run (everything but `None`).
    pub fn is_active(&self) -> bool {
        !matches!(self, FaultPlan::None)
    }
}

/// What the fault layer decides about one simulated slot's channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotVerdict {
    /// The channel behaves normally.
    Clean,
    /// Every transmission is dropped: listeners resolve an empty
    /// transmitting set (silence in every model).
    Lost,
    /// The adversary transmits garbage: every listener hears
    /// [`jam_feedback`] for its model, regardless of real senders.
    Jammed,
}

/// The choke-point contract between the engine and a fault model.
///
/// [`crate::Sim`] calls these hooks from `step_slot`, in order:
/// [`begin_slot`] once per simulated slot (before polling anyone), then
/// [`is_down`] per participant, then — only if some participant
/// listened — [`verdict`] once, then [`edge_alive`] per (listener,
/// transmitting neighbor) pair when [`filters_edges`] is set. Skipped
/// slots call nothing, so implementations must derive randomness as a
/// pure function of the global slot, never from a sequential stream.
///
/// [`begin_slot`]: FaultModel::begin_slot
/// [`is_down`]: FaultModel::is_down
/// [`verdict`]: FaultModel::verdict
/// [`edge_alive`]: FaultModel::edge_alive
/// [`filters_edges`]: FaultModel::filters_edges
pub trait FaultModel: core::fmt::Debug {
    /// Applies every crash/churn event scheduled at or before `slot`.
    /// Called once per simulated slot, before any behavior is polled;
    /// batch-skipped ranges are caught up by the next simulated slot.
    fn begin_slot(&mut self, slot: Slot);

    /// Whether device `v` is currently down (crashed or churned out).
    fn is_down(&self, v: NodeId) -> bool;

    /// The packed down-set, one bit per device.
    fn down(&self) -> &BitSet;

    /// Whether any device is currently down (fast-path gate for the
    /// per-participant masking and the no-down-sender check).
    fn any_down(&self) -> bool;

    /// The channel verdict for `slot`. Called at most once per simulated
    /// slot, and only when at least one (up) participant listened —
    /// unobserved slots never consume jamming budget, keeping budget
    /// spend invariant across schedule shapes. `any_tx` reports whether
    /// some up device transmitted (for [`JammerStrategy::Reactive`]).
    fn verdict(&mut self, slot: Slot, any_tx: bool) -> SlotVerdict;

    /// Whether deliveries must be filtered per (listener, sender) edge.
    /// When `false` the engine keeps the CSR row probe.
    fn filters_edges(&self) -> bool;

    /// Whether the directed delivery `sender → listener` survives
    /// `slot`. Only consulted when [`FaultModel::filters_edges`].
    fn edge_alive(&self, slot: Slot, listener: NodeId, sender: NodeId) -> bool;
}

/// What every listener hears in a jammed slot, per model: the adversary
/// floods the channel, so under No-CD the collision is indistinguishable
/// from silence, under CD/CD\*/LOCAL it is noise (garbage is not a
/// decodable message, even for CD\*'s arbitrary pick), and under Beep
/// the jammer's carrier is just another beep.
pub fn jam_feedback<M>(model: Model) -> Feedback<M> {
    match model {
        Model::NoCd => Feedback::Silence,
        Model::Cd | Model::CdStar | Model::Local => Feedback::Noise,
        Model::Beep => Feedback::Beep,
    }
}

/// A crash/churn membership event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// The device goes down.
    Down,
    /// The device comes back up.
    Up,
}

/// The engine-side state of a [`FaultPlan`]: the realized down-set,
/// remaining jam budget, and the cursor into the sorted event list.
/// Construct via [`FaultState::new`]; [`crate::Sim::with_faults`] does
/// this for you.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    /// The fault key all randomized draws hash from (derived from the
    /// simulation master seed under [`FAULT_STREAM`]).
    key: u64,
    /// Packed set of currently-down devices.
    down: BitSet,
    /// `down.count_ones() > 0`, tracked incrementally.
    down_count: usize,
    /// Crash/churn events sorted by `(slot, node, kind)`; `Down` sorts
    /// before `Up`, so a same-slot leave+join nets to up.
    events: Vec<(Slot, NodeId, EventKind)>,
    /// First unapplied index into `events`.
    next_event: usize,
    /// Remaining jamming budget (meaningful for `Jammer` plans only).
    jam_budget: u64,
    /// Devices whose `Down` transition fired in the most recent
    /// [`FaultModel::begin_slot`] — the telemetry layer's crash events.
    newly_down: Vec<NodeId>,
}

impl FaultState {
    /// Fault state for `plan` over `n` devices, drawing from `key`.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`, a periodic jammer
    /// has period 0, or an event names a device `>= n`.
    pub fn new(plan: FaultPlan, key: u64, n: usize) -> Self {
        let mut events: Vec<(Slot, NodeId, EventKind)> = Vec::new();
        match &plan {
            FaultPlan::None | FaultPlan::EdgeLoss { .. } => {}
            FaultPlan::SlotLoss { p } => {
                assert!((0.0..=1.0).contains(p), "slot-loss p={p} outside [0, 1]");
            }
            FaultPlan::Crash { schedule } => {
                events.extend(schedule.iter().map(|&(t, v)| (t, v, EventKind::Down)));
            }
            FaultPlan::Jammer { strategy, .. } => match strategy {
                JammerStrategy::Periodic { period } => {
                    assert!(*period >= 1, "jammer period must be >= 1");
                }
                JammerStrategy::Random { p } => {
                    assert!((0.0..=1.0).contains(p), "jammer p={p} outside [0, 1]");
                }
                JammerStrategy::Reactive => {}
            },
            FaultPlan::Churn { leave, join } => {
                events.extend(leave.iter().map(|&(t, v)| (t, v, EventKind::Down)));
                events.extend(join.iter().map(|&(t, v)| (t, v, EventKind::Up)));
            }
        }
        if let FaultPlan::EdgeLoss { p } = &plan {
            assert!((0.0..=1.0).contains(p), "edge-loss p={p} outside [0, 1]");
        }
        for &(_, v, _) in &events {
            assert!(v < n, "fault event names device {v} >= n = {n}");
        }
        events.sort_unstable();
        let jam_budget = match &plan {
            FaultPlan::Jammer { budget, .. } => *budget,
            _ => 0,
        };
        FaultState {
            plan,
            key,
            down: BitSet::new(n),
            down_count: 0,
            events,
            next_event: 0,
            jam_budget,
            newly_down: Vec::new(),
        }
    }

    /// The plan this state realizes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Remaining jamming budget (0 for non-jammer plans).
    pub fn jam_budget(&self) -> u64 {
        self.jam_budget
    }

    /// How many devices are currently down.
    pub fn down_count(&self) -> usize {
        self.down_count
    }

    /// The devices whose crash/leave transition fired in the most
    /// recent [`FaultModel::begin_slot`] — batch-skipped ranges surface
    /// all their due transitions at the next simulated slot.
    pub fn newly_down(&self) -> &[NodeId] {
        &self.newly_down
    }

    /// A uniform draw in `[0, 1)` as a pure hash of the key and up to
    /// three coordinates — no sequential state, so skipped slots and
    /// reordered calls cannot shift any other draw.
    fn unit(&self, stream: u64, a: u64, b: u64, c: u64) -> f64 {
        let h = splitmix64(
            self.key
                ^ stream
                ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9)
                ^ c.wrapping_mul(0x94d0_49bb_1331_11eb),
        );
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Per-draw stream labels, keeping slot-loss, jammer, and edge draws
/// independent even at equal coordinates.
const STREAM_SLOT_LOSS: u64 = 0x51a7_1055;
const STREAM_JAMMER: u64 = 0x7a33_ed00;
const STREAM_EDGE: u64 = 0xed6e_d601;

impl FaultModel for FaultState {
    fn begin_slot(&mut self, slot: Slot) {
        if !self.newly_down.is_empty() {
            self.newly_down.clear();
        }
        while let Some(&(t, v, kind)) = self.events.get(self.next_event) {
            if t > slot {
                break;
            }
            match kind {
                EventKind::Down => {
                    if !self.down.contains(v) {
                        self.down.insert(v);
                        self.down_count += 1;
                        self.newly_down.push(v);
                    }
                }
                EventKind::Up => {
                    if self.down.contains(v) {
                        self.down.remove(v);
                        self.down_count -= 1;
                        // A same-batch leave+join nets to up: it is not a
                        // crash transition for this slot.
                        if let Some(pos) = self.newly_down.iter().position(|&u| u == v) {
                            self.newly_down.swap_remove(pos);
                        }
                    }
                }
            }
            self.next_event += 1;
        }
    }

    fn is_down(&self, v: NodeId) -> bool {
        self.down_count > 0 && self.down.contains(v)
    }

    fn down(&self) -> &BitSet {
        &self.down
    }

    fn any_down(&self) -> bool {
        self.down_count > 0
    }

    fn verdict(&mut self, slot: Slot, any_tx: bool) -> SlotVerdict {
        match &self.plan {
            FaultPlan::SlotLoss { p } => {
                if self.unit(STREAM_SLOT_LOSS, slot, 0, 0) < *p {
                    SlotVerdict::Lost
                } else {
                    SlotVerdict::Clean
                }
            }
            FaultPlan::Jammer { strategy, .. } => {
                if self.jam_budget == 0 {
                    return SlotVerdict::Clean;
                }
                let jam = match strategy {
                    JammerStrategy::Periodic { period } => slot % period == 0,
                    JammerStrategy::Random { p } => self.unit(STREAM_JAMMER, slot, 0, 0) < *p,
                    JammerStrategy::Reactive => any_tx,
                };
                if jam {
                    self.jam_budget -= 1;
                    SlotVerdict::Jammed
                } else {
                    SlotVerdict::Clean
                }
            }
            FaultPlan::None
            | FaultPlan::EdgeLoss { .. }
            | FaultPlan::Crash { .. }
            | FaultPlan::Churn { .. } => SlotVerdict::Clean,
        }
    }

    fn filters_edges(&self) -> bool {
        matches!(self.plan, FaultPlan::EdgeLoss { .. })
    }

    fn edge_alive(&self, slot: Slot, listener: NodeId, sender: NodeId) -> bool {
        match &self.plan {
            FaultPlan::EdgeLoss { p } => {
                self.unit(STREAM_EDGE, slot, listener as u64, sender as u64) >= *p
            }
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(plan: FaultPlan, n: usize) -> FaultState {
        FaultState::new(plan, 0xdead_beef, n)
    }

    #[test]
    fn plan_names_are_stable() {
        assert_eq!(FaultPlan::None.name(), "none");
        assert_eq!(FaultPlan::SlotLoss { p: 0.5 }.name(), "slot-loss");
        assert_eq!(FaultPlan::EdgeLoss { p: 0.5 }.name(), "edge-loss");
        assert_eq!(FaultPlan::Crash { schedule: vec![] }.name(), "crash");
        assert_eq!(
            FaultPlan::Jammer {
                budget: 1,
                strategy: JammerStrategy::Reactive
            }
            .name(),
            "jammer"
        );
        assert_eq!(
            FaultPlan::Churn {
                leave: vec![],
                join: vec![]
            }
            .name(),
            "churn"
        );
        assert!(!FaultPlan::None.is_active());
        assert!(FaultPlan::SlotLoss { p: 0.0 }.is_active());
    }

    #[test]
    fn slot_loss_draws_are_pure_functions_of_the_slot() {
        let mut a = state(FaultPlan::SlotLoss { p: 0.5 }, 4);
        let mut b = state(FaultPlan::SlotLoss { p: 0.5 }, 4);
        // b queries a scrambled subset in a different order: verdicts
        // must agree wherever both looked.
        let a_verdicts: Vec<SlotVerdict> = (0..100).map(|t| a.verdict(t, true)).collect();
        for t in (0..100).rev().step_by(3) {
            assert_eq!(b.verdict(t, false), a_verdicts[t as usize]);
        }
        let lost = a_verdicts
            .iter()
            .filter(|v| **v == SlotVerdict::Lost)
            .count();
        assert!((20..=80).contains(&lost), "p=0.5 lost {lost}/100");
    }

    #[test]
    fn zero_probability_plans_never_fire() {
        let mut s = state(FaultPlan::SlotLoss { p: 0.0 }, 4);
        assert!((0..200).all(|t| s.verdict(t, true) == SlotVerdict::Clean));
        let e = state(FaultPlan::EdgeLoss { p: 0.0 }, 4);
        assert!((0..200).all(|t| e.edge_alive(t, 1, 2)));
        let mut j = state(
            FaultPlan::Jammer {
                budget: u64::MAX,
                strategy: JammerStrategy::Random { p: 0.0 },
            },
            4,
        );
        assert!((0..200).all(|t| j.verdict(t, true) == SlotVerdict::Clean));
    }

    #[test]
    fn certain_probability_plans_always_fire() {
        let mut s = state(FaultPlan::SlotLoss { p: 1.0 }, 4);
        assert!((0..200).all(|t| s.verdict(t, false) == SlotVerdict::Lost));
        let e = state(FaultPlan::EdgeLoss { p: 1.0 }, 4);
        assert!((0..200).all(|t| !e.edge_alive(t, 1, 2)));
    }

    #[test]
    fn crash_events_apply_in_slot_order_and_catch_up_after_skips() {
        let mut s = state(
            FaultPlan::Crash {
                schedule: vec![(10, 2), (5, 0)],
            },
            4,
        );
        s.begin_slot(0);
        assert!(!s.any_down());
        s.begin_slot(5);
        assert!(s.is_down(0) && !s.is_down(2));
        // A batch-skip jumped the clock past slot 10: the next simulated
        // slot catches up on everything due.
        s.begin_slot(100);
        assert!(s.is_down(0) && s.is_down(2));
        assert_eq!(s.down().count_ones(), 2);
    }

    #[test]
    fn churn_leave_then_join_restores_the_device() {
        let mut s = state(
            FaultPlan::Churn {
                leave: vec![(3, 1)],
                join: vec![(7, 1)],
            },
            4,
        );
        s.begin_slot(3);
        assert!(s.is_down(1));
        s.begin_slot(6);
        assert!(s.is_down(1));
        s.begin_slot(7);
        assert!(!s.is_down(1));
        assert!(!s.any_down());
    }

    #[test]
    fn same_slot_leave_and_join_nets_to_up() {
        let mut s = state(
            FaultPlan::Churn {
                leave: vec![(4, 2)],
                join: vec![(4, 2)],
            },
            4,
        );
        s.begin_slot(4);
        assert!(!s.is_down(2), "Down sorts before Up at equal slots");
        assert!(
            s.newly_down().is_empty(),
            "a netted leave+join is not a crash transition"
        );
    }

    #[test]
    fn newly_down_reports_each_transition_once() {
        let mut s = state(
            FaultPlan::Crash {
                schedule: vec![(5, 0), (10, 2)],
            },
            4,
        );
        s.begin_slot(0);
        assert!(s.newly_down().is_empty());
        s.begin_slot(5);
        assert_eq!(s.newly_down(), &[0]);
        s.begin_slot(6);
        assert!(s.newly_down().is_empty(), "transitions report only once");
        // A batch skip past slot 10 surfaces the due transition at the
        // next simulated slot.
        s.begin_slot(100);
        assert_eq!(s.newly_down(), &[2]);
        assert_eq!(s.down_count(), 2);
    }

    #[test]
    fn jammer_budget_depletes_only_on_jammed_slots() {
        let mut s = state(
            FaultPlan::Jammer {
                budget: 2,
                strategy: JammerStrategy::Periodic { period: 3 },
            },
            4,
        );
        let verdicts: Vec<SlotVerdict> = (0..9).map(|t| s.verdict(t, true)).collect();
        assert_eq!(verdicts[0], SlotVerdict::Jammed);
        assert_eq!(verdicts[1], SlotVerdict::Clean);
        assert_eq!(verdicts[3], SlotVerdict::Jammed);
        // Budget exhausted: slot 6 would match the period but stays clean.
        assert_eq!(verdicts[6], SlotVerdict::Clean);
        assert_eq!(s.jam_budget(), 0);
    }

    #[test]
    fn reactive_jammer_only_spends_on_transmissions() {
        let mut s = state(
            FaultPlan::Jammer {
                budget: 10,
                strategy: JammerStrategy::Reactive,
            },
            4,
        );
        assert_eq!(s.verdict(0, false), SlotVerdict::Clean);
        assert_eq!(s.jam_budget(), 10);
        assert_eq!(s.verdict(1, true), SlotVerdict::Jammed);
        assert_eq!(s.jam_budget(), 9);
    }

    #[test]
    fn edge_loss_is_directional_and_per_pair() {
        let e = state(FaultPlan::EdgeLoss { p: 0.5 }, 64);
        let mut alive = 0;
        let mut asymmetric = 0;
        for t in 0..50 {
            for u in 0..8 {
                for v in 0..8 {
                    if u == v {
                        continue;
                    }
                    if e.edge_alive(t, u, v) {
                        alive += 1;
                    }
                    if e.edge_alive(t, u, v) != e.edge_alive(t, v, u) {
                        asymmetric += 1;
                    }
                }
            }
        }
        let total = 50 * 8 * 7;
        assert!(
            (total / 3..=2 * total / 3).contains(&alive),
            "alive {alive}/{total}"
        );
        assert!(asymmetric > 0, "directional losses must be independent");
    }

    #[test]
    fn jam_feedback_per_model() {
        assert_eq!(jam_feedback::<u32>(Model::NoCd), Feedback::Silence);
        assert_eq!(jam_feedback::<u32>(Model::Cd), Feedback::Noise);
        assert_eq!(jam_feedback::<u32>(Model::CdStar), Feedback::Noise);
        assert_eq!(jam_feedback::<u32>(Model::Local), Feedback::Noise);
        assert_eq!(jam_feedback::<u32>(Model::Beep), Feedback::Beep);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_probability_above_one() {
        state(FaultPlan::SlotLoss { p: 1.5 }, 4);
    }

    #[test]
    #[should_panic(expected = ">= n")]
    fn rejects_out_of_range_device() {
        state(
            FaultPlan::Crash {
                schedule: vec![(0, 9)],
            },
            4,
        );
    }
}
