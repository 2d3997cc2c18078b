//! The phase-composed simulation engine and the [`Schedule`] driving API.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::fault::{jam_feedback, FaultModel, FaultPlan, FaultState, SlotVerdict, FAULT_STREAM};
use crate::model::{resolve, resolve_row, Action, Feedback, Model};
use crate::telemetry::Telemetry;
use crate::{EnergyMeter, Graph, NodeId, Slot};

/// Per-slot behavior of the devices taking part in one primitive.
///
/// A *primitive* is a contiguous block of slots with a fixed participant set
/// (e.g. one SR-communication instance). The engine calls [`act`] for every
/// participant at the start of each slot, resolves the channel, then calls
/// [`feedback`] on every participant that listened.
///
/// [`act`]: SlotBehavior::act
/// [`feedback`]: SlotBehavior::feedback
pub trait SlotBehavior<M> {
    /// The action of device `v` in local slot `t` (0-based within the
    /// primitive).
    fn act(&mut self, v: NodeId, t: u64) -> Action<M>;

    /// Delivers channel feedback to `v` for local slot `t`. Called only if
    /// `v` listened in that slot.
    fn feedback(&mut self, v: NodeId, t: u64, fb: Feedback<M>);

    /// For [`Schedule::Dynamic`]: the first local slot at which `v` wants
    /// to be polled, or `None` if it never participates. Wakes at or
    /// beyond the schedule's slot count are dropped. Defaults to slot 0,
    /// so behaviors written for the dense loop compile unchanged.
    fn first_wake(&mut self, v: NodeId) -> Option<u64> {
        let _ = v;
        Some(0)
    }

    /// For [`Schedule::Dynamic`]: the next local slot (strictly after `t`)
    /// at which `v` wants to be polled, or `None` once it is done. Called
    /// after `v`'s slot-`t` action (and any feedback) resolved. The
    /// default — wake every following slot — makes a `Dynamic` schedule
    /// equivalent to a `Dense` one.
    ///
    /// A hint must only skip slots in which `v` would provably return
    /// [`Action::Idle`] without consuming randomness; then energy, clock,
    /// and random streams are bit-identical to the dense loop.
    fn next_wake(&mut self, v: NodeId, t: u64) -> Option<u64> {
        let _ = v;
        Some(t + 1)
    }
}

/// Builds a [`SlotBehavior`] from two closures — handy in tests.
pub fn from_fns<M, A, F>(act: A, feedback: F) -> impl SlotBehavior<M>
where
    A: FnMut(NodeId, u64) -> Action<M>,
    F: FnMut(NodeId, u64, Feedback<M>),
{
    struct FnBehavior<A, F>(A, F);
    impl<M, A, F> SlotBehavior<M> for FnBehavior<A, F>
    where
        A: FnMut(NodeId, u64) -> Action<M>,
        F: FnMut(NodeId, u64, Feedback<M>),
    {
        fn act(&mut self, v: NodeId, t: u64) -> Action<M> {
            (self.0)(v, t)
        }
        fn feedback(&mut self, v: NodeId, t: u64, fb: Feedback<M>) {
            (self.1)(v, t, fb)
        }
    }
    FnBehavior(act, feedback)
}

/// A CSR-backed sparse slot schedule: the possibly-active slots of one
/// primitive, each with its participant row stored in one flat array and
/// borrowed back as a `&[NodeId]` slice — no per-slot `Vec` allocation.
///
/// Build with [`push`] (slots strictly increasing), drive with
/// [`Schedule::Sparse`]. Reusable across primitives.
///
/// [`push`]: SparseSchedule::push
#[derive(Debug, Clone)]
pub struct SparseSchedule {
    slots: Vec<Slot>,
    /// Degree-prefix bounds into `participants`; length `slots.len() + 1`.
    offsets: Vec<u32>,
    participants: Vec<NodeId>,
}

impl Default for SparseSchedule {
    fn default() -> Self {
        Self::new()
    }
}

impl SparseSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        SparseSchedule {
            slots: Vec::new(),
            offsets: vec![0],
            participants: Vec::new(),
        }
    }

    /// Appends `slot` with its participant set.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not strictly after the last pushed slot.
    pub fn push(&mut self, slot: Slot, participants: impl IntoIterator<Item = NodeId>) {
        if let Some(&last) = self.slots.last() {
            assert!(
                slot > last,
                "schedule slots must be strictly increasing (slot {slot} after {last})"
            );
        }
        self.slots.push(slot);
        self.participants.extend(participants);
        self.offsets.push(self.participants.len() as u32);
    }

    /// The `(slot, participant row)` pairs, in increasing slot order.
    pub fn entries(&self) -> impl Iterator<Item = (Slot, &[NodeId])> + '_ {
        self.slots.iter().enumerate().map(move |(i, &t)| {
            let lo = self.offsets[i] as usize;
            let hi = self.offsets[i + 1] as usize;
            (t, &self.participants[lo..hi])
        })
    }

    /// The number of scheduled slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no slot is scheduled.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The total number of scheduled participant polls (Σ row lengths).
    pub fn total_participants(&self) -> usize {
        self.participants.len()
    }
}

/// How one primitive's slots map to participant sets — the unified driving
/// API behind [`Sim::drive`].
///
/// Every variant occupies local slots `0..slots` on the clock; behaviors
/// see 0-based local slot numbers either way. Unscheduled slots are
/// batch-skipped ([`Sim::skip`]) and never poll anyone, so host cost is
/// proportional to scheduled participant polls, not `devices × slots`.
#[derive(Debug)]
pub enum Schedule<'a> {
    /// Every slot polls the same participant set (the classic dense loop).
    Dense {
        /// The devices polled in every slot.
        participants: &'a [NodeId],
        /// The number of slots.
        slots: u64,
    },
    /// Only the listed slots poll anyone; everything between is skipped in
    /// one clock batch.
    Sparse {
        /// The CSR-backed slot → participants map.
        schedule: &'a SparseSchedule,
        /// The total slots the primitive occupies (≥ every scheduled slot).
        slots: u64,
    },
    /// A wake-queue fed by the behavior's [`SlotBehavior::first_wake`] /
    /// [`SlotBehavior::next_wake`] hints: each device is polled exactly at
    /// the slots it asks for, so devices that are done — or asleep between
    /// data-dependent wake times — cost nothing.
    Dynamic {
        /// The devices offered a first wake.
        participants: &'a [NodeId],
        /// The number of slots; wake hints at or beyond it are dropped.
        slots: u64,
    },
}

/// The wake queue behind [`Schedule::Dynamic`]: a calendar ring of
/// per-slot buckets covering the next [`WakeQueue::WINDOW`] slots — O(1)
/// enqueue, one occupancy-bitmap word scan to find the next busy slot —
/// with a `BTreeMap` overflow for wakes farther out.
///
/// The ring matters because the common wake hint is `t + 1` (an active
/// device polling every slot): routing those through a `BTreeMap` costs a
/// tree probe per device per slot, which dominated large dynamic
/// primitives. Bucket `Vec`s are recycled through a pool, so the steady
/// state allocates nothing.
struct WakeQueue {
    /// Bucket for slot `t` (with `base ≤ t < base + ring.len()`) is
    /// `ring[t % ring.len()]`.
    ring: Vec<Vec<NodeId>>,
    /// Occupancy bitmap over ring indices.
    occupied: Vec<u64>,
    /// Wakes at or beyond `base + ring.len()` at enqueue time.
    far: BTreeMap<u64, Vec<NodeId>>,
    /// Recycled bucket allocations.
    pool: Vec<Vec<NodeId>>,
    /// The earliest slot still queueable; advances past each popped slot.
    base: u64,
}

impl WakeQueue {
    const WINDOW: u64 = 1024;

    fn new(slots: u64) -> WakeQueue {
        let win = Self::WINDOW.min(slots.max(1)) as usize;
        WakeQueue {
            ring: (0..win).map(|_| Vec::new()).collect(),
            occupied: vec![0u64; win.div_ceil(64)],
            far: BTreeMap::new(),
            pool: Vec::new(),
            base: 0,
        }
    }

    fn push(&mut self, t: u64, v: NodeId) {
        debug_assert!(t >= self.base, "wake {t} before queue base {}", self.base);
        let len = self.ring.len() as u64;
        if t - self.base < len {
            let i = (t % len) as usize;
            self.ring[i].push(v);
            self.occupied[i >> 6] |= 1 << (i & 63);
        } else {
            self.far
                .entry(t)
                .or_insert_with(|| self.pool.pop().unwrap_or_default())
                .push(v);
        }
    }

    /// The earliest queued slot, if any.
    fn next_slot(&self) -> Option<u64> {
        let len = self.ring.len();
        let start = (self.base % len as u64) as usize;
        let ring_next = self
            .scan_range(start, len)
            .map(|i| i - start)
            .or_else(|| self.scan_range(0, start).map(|i| len - start + i))
            .map(|steps| self.base + steps as u64);
        let far_next = self.far.keys().next().copied();
        match (ring_next, far_next) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// First occupied ring index in `lo..hi`, scanning bitmap words.
    fn scan_range(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let lo_w = lo >> 6;
        let hi_w = (hi - 1) >> 6;
        for w in lo_w..=hi_w {
            let mut word = self.occupied[w];
            if w == lo_w {
                word &= !0u64 << (lo & 63);
            }
            if w == hi_w && (hi & 63) != 0 {
                word &= (1u64 << (hi & 63)) - 1;
            }
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Takes the batch queued for slot `t` (from [`WakeQueue::next_slot`])
    /// and advances the queue past it.
    fn pop(&mut self, t: u64) -> Vec<NodeId> {
        let len = self.ring.len() as u64;
        let mut batch = if t - self.base < len {
            let i = (t % len) as usize;
            self.occupied[i >> 6] &= !(1 << (i & 63));
            std::mem::replace(&mut self.ring[i], self.pool.pop().unwrap_or_default())
        } else {
            self.pool.pop().unwrap_or_default()
        };
        // A slot can sit in both stores: enqueued far, then `base`
        // advanced to within a window of it.
        if let Some(extra) = self.far.remove(&t) {
            batch.extend_from_slice(&extra);
            self.recycle(extra);
        }
        self.base = t + 1;
        batch
    }

    fn recycle(&mut self, mut bucket: Vec<NodeId>) {
        bucket.clear();
        self.pool.push(bucket);
    }
}

/// A synchronous radio network simulation with a global slot clock.
///
/// Algorithms drive the simulation as a sequence of primitives via
/// [`Sim::drive`] (dense, sparse, or dynamically scheduled — see
/// [`Schedule`]), interleaved with [`Sim::skip`] for slot ranges in which
/// the algorithm's schedule provably keeps every device idle. Energy is
/// metered exactly; time is the global clock.
///
/// The master `seed` is exposed so algorithm implementations can derive
/// per-node randomness with [`crate::rng`]; the engine itself is
/// deterministic.
#[derive(Debug)]
pub struct Sim {
    graph: Arc<Graph>,
    model: Model,
    clock: Slot,
    meter: EnergyMeter,
    /// The opt-in structured recorder; `None` (the default) keeps every
    /// instrumentation hook to a single pointer check, so uninstrumented
    /// runs are bit-identical to the pre-telemetry engine.
    telemetry: Option<Box<Telemetry>>,
    seed: u64,
    /// Scratch: per-node index+1 into the current slot's sender list
    /// (0 = not transmitting) — the state collision resolution probes.
    sending: Vec<u32>,
    /// The realized fault plan, if any. [`FaultPlan::None`] is stored as
    /// `None` here, so clean runs never touch the fault layer at all and
    /// stay bit-identical to the pre-fault engine.
    faults: Option<FaultState>,
}

impl Sim {
    /// A fresh simulation over `graph` under `model` with master `seed`.
    ///
    /// Accepts either an owned [`Graph`] or an [`Arc<Graph>`]; parallel seed
    /// sweeps pass `Arc::clone`s of one shared graph so the CSR arrays are
    /// never deep-copied per seed.
    pub fn new(graph: impl Into<Arc<Graph>>, model: Model, seed: u64) -> Self {
        let graph = graph.into();
        let n = graph.n();
        Sim {
            graph,
            model,
            clock: 0,
            meter: EnergyMeter::new(n),
            telemetry: None,
            seed,
            sending: vec![0; n],
            faults: None,
        }
    }

    /// A fresh simulation with a [`FaultPlan`] applied at the slot
    /// pipeline's choke point: crashed/churned devices are masked out of
    /// every slot (no polls, no energy), lost slots drop all
    /// transmissions, jammed slots reach every listener as channel
    /// garbage, and edge loss filters individual deliveries.
    ///
    /// The fault layer's randomness is a pure hash of a key derived from
    /// `seed` under the dedicated [`FAULT_STREAM`], so it never perturbs
    /// an algorithm's own random draws, and [`FaultPlan::None`] is
    /// bit-identical to [`Sim::new`].
    ///
    /// # Panics
    ///
    /// Panics if the plan is malformed (probability outside `[0, 1]`,
    /// zero jammer period, or an event naming a device `>= n`).
    pub fn with_faults(
        graph: impl Into<Arc<Graph>>,
        model: Model,
        seed: u64,
        plan: FaultPlan,
    ) -> Self {
        let mut sim = Sim::new(graph, model, seed);
        if plan.is_active() {
            let key = crate::rng::derive_seed(seed, 0, FAULT_STREAM);
            let n = sim.graph.n();
            sim.faults = Some(FaultState::new(plan, key, n));
        }
        sim
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The shared handle to the underlying graph (cheap to clone; useful
    /// for building further simulations over the same topology).
    pub fn graph_arc(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The collision model.
    pub fn model(&self) -> Model {
        self.model
    }

    /// The master seed for deriving per-node randomness.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The current global slot.
    pub fn now(&self) -> Slot {
        self.clock
    }

    /// The fault plan in force ([`FaultPlan::None`] for a clean run).
    pub fn fault_plan(&self) -> &FaultPlan {
        static NONE: FaultPlan = FaultPlan::None;
        self.faults.as_ref().map_or(&NONE, |f| f.plan())
    }

    /// The realized fault state, if an active plan is in force — for
    /// inspecting the remaining jam budget or the current down-set.
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.faults.as_ref()
    }

    /// The energy meter.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Advances the clock over `slots` slots in which every device idles.
    ///
    /// Idling is free, so no energy is charged; the meter counts the
    /// batch-skipped slots (`idle_skipped`) so reports can show how much of
    /// the clock was never simulated slot-by-slot.
    pub fn skip(&mut self, slots: u64) {
        self.clock += slots;
        self.meter.note_skip(slots);
    }

    /// Starts recording structured [`Telemetry`] (slot events, per-slot
    /// counters, phase spans, gauges) for all subsequent slots, with the
    /// default ring capacities. Idempotent: an already-attached recorder
    /// keeps its records.
    ///
    /// Recording never perturbs the run: the informed set, per-node
    /// energy, clock, and every random stream are bit-identical with
    /// telemetry on or off (property-tested across all models).
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::new(Telemetry::new()));
        }
    }

    /// Attaches a caller-configured recorder (e.g. custom ring
    /// capacities), replacing any existing one.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(Box::new(telemetry));
    }

    /// Whether a telemetry recorder is attached — algorithms gate any
    /// non-trivial instrumentation work (e.g. computing an informed-set
    /// curve) on this so uninstrumented runs pay nothing.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// The telemetry recorded so far, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Detaches and returns the recorder (for exporting after a run).
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.telemetry.take().map(|t| *t)
    }

    /// Opens a phase span named `name` at the current slot. No-op
    /// without telemetry. See [`Telemetry::span_enter`].
    pub fn span_enter(&mut self, name: &'static str) {
        let now = self.clock;
        if let Some(t) = &mut self.telemetry {
            t.span_enter(name, now);
        }
    }

    /// Closes the innermost open span at the current slot. No-op
    /// without telemetry.
    pub fn span_exit(&mut self) {
        let now = self.clock;
        if let Some(t) = &mut self.telemetry {
            t.span_exit(now);
        }
    }

    /// Records an already-closed span retroactively. No-op without
    /// telemetry. See [`Telemetry::span_at`].
    pub fn span_at(&mut self, name: &'static str, start: Slot, end: Slot) {
        if let Some(t) = &mut self.telemetry {
            t.span_at(name, start, end);
        }
    }

    /// Records one gauge sample (e.g. the informed-set size at `slot`).
    /// No-op without telemetry. See [`Telemetry::record_gauge`].
    pub fn record_gauge(&mut self, name: &'static str, slot: Slot, value: f64) {
        if let Some(t) = &mut self.telemetry {
            t.record_gauge(name, slot, value);
        }
    }

    /// Runs one primitive under `schedule` — the single driving core every
    /// schedule shape goes through.
    ///
    /// The clock advances over exactly the schedule's `slots` slots;
    /// unscheduled stretches are batch-skipped via [`Sim::skip`] without
    /// polling any behavior. Collision resolution scans each listener's
    /// CSR neighbor row against the slot's sender index, with
    /// model-specific early exit.
    ///
    /// # Panics
    ///
    /// Panics if a scheduled slot is out of range, a participant id is out
    /// of range, a [`Schedule::Dynamic`] wake hint is not strictly in the
    /// future, or (debug builds) a slot's participants contain duplicates.
    pub fn drive<M, B>(&mut self, schedule: Schedule<'_>, behavior: &mut B)
    where
        M: Clone + core::fmt::Debug,
        B: SlotBehavior<M>,
    {
        let mut senders: Vec<(NodeId, M)> = Vec::new();
        let mut listeners: Vec<NodeId> = Vec::new();
        match schedule {
            Schedule::Dense {
                participants,
                slots,
            } => {
                self.debug_check_distinct(participants);
                for t in 0..slots {
                    self.step_slot(participants, t, behavior, &mut senders, &mut listeners);
                }
            }
            Schedule::Sparse { schedule, slots } => {
                let mut next = 0u64;
                for (t, participants) in schedule.entries() {
                    assert!(t < slots, "scheduled slot {t} outside 0..{slots}");
                    self.debug_check_distinct(participants);
                    self.skip(t - next);
                    self.step_slot(participants, t, behavior, &mut senders, &mut listeners);
                    next = t + 1;
                }
                self.skip(slots - next);
            }
            Schedule::Dynamic {
                participants,
                slots,
            } => {
                self.debug_check_distinct(participants);
                // Each device has at most one pending wake, so batches are
                // duplicate-free.
                let mut wake = WakeQueue::new(slots);
                for &v in participants {
                    if let Some(t) = behavior.first_wake(v) {
                        if t < slots {
                            wake.push(t, v);
                        }
                    }
                }
                let mut next = 0u64;
                while let Some(t) = wake.next_slot() {
                    let mut batch = wake.pop(t);
                    // Poll in ascending id order — the same order a dense
                    // loop over a sorted participant list would use.
                    batch.sort_unstable();
                    self.skip(t - next);
                    self.step_slot(&batch, t, behavior, &mut senders, &mut listeners);
                    next = t + 1;
                    for &v in &batch {
                        if let Some(t2) = behavior.next_wake(v, t) {
                            assert!(t2 > t, "device {v} scheduled non-future wake {t2} <= {t}");
                            if t2 < slots {
                                wake.push(t2, v);
                            }
                        }
                    }
                    wake.recycle(batch);
                }
                self.skip(slots - next);
            }
        }
    }

    /// O(k) duplicate-participant check against the `sending` scratch
    /// (all-zero between slots): stamp every participant, panic on a
    /// repeat, unstamp. One shared implementation for all [`Schedule`]
    /// variants; debug builds only (release builds skip the scan).
    fn debug_check_distinct(&mut self, participants: &[NodeId]) {
        if cfg!(debug_assertions) {
            for &v in participants {
                assert!(self.sending[v] == 0, "duplicate participant {v}");
                self.sending[v] = u32::MAX;
            }
            for &v in participants {
                self.sending[v] = 0;
            }
        }
    }

    /// Simulates one slot (local slot number `t`) for `participants`,
    /// advancing the clock by one. `senders`/`listeners` are caller-owned
    /// scratch so multi-slot drivers reuse the allocations.
    fn step_slot<M, B>(
        &mut self,
        participants: &[NodeId],
        t: u64,
        behavior: &mut B,
        senders: &mut Vec<(NodeId, M)>,
        listeners: &mut Vec<NodeId>,
    ) where
        M: Clone + core::fmt::Debug,
        B: SlotBehavior<M>,
    {
        senders.clear();
        listeners.clear();
        let now = self.clock;
        if let Some(f) = &mut self.faults {
            f.begin_slot(now);
        }
        if let Some(tel) = &mut self.telemetry {
            tel.begin_slot(now, participants.len() as u32);
            if let Some(f) = &self.faults {
                for &v in f.newly_down() {
                    tel.note_crashed(v);
                }
                tel.set_down(f.down_count() as u32);
            }
        }
        for &v in participants {
            // Down devices (crashed or churned out) are masked before the
            // poll: no action, no feedback, no energy, and their private
            // random streams stay untouched until they rejoin.
            if let Some(f) = &self.faults {
                if f.any_down() && f.is_down(v) {
                    continue;
                }
            }
            let action = behavior.act(v, t);
            match &action {
                Action::Idle => {}
                Action::Send(m) => {
                    self.meter.charge_send(v, now);
                    if let Some(tel) = &mut self.telemetry {
                        tel.note_tx(v);
                    }
                    senders.push((v, m.clone()));
                }
                Action::Listen => {
                    self.meter.charge_listen(v, now);
                    listeners.push(v);
                }
                Action::SendListen(m) => {
                    self.meter.charge_send(v, now);
                    self.meter.charge_listen(v, now);
                    if let Some(tel) = &mut self.telemetry {
                        tel.note_tx(v);
                    }
                    senders.push((v, m.clone()));
                    listeners.push(v);
                }
            }
        }
        for (i, (v, _)) in senders.iter().enumerate() {
            self.sending[*v] = i as u32 + 1;
        }
        // The fault choke point: every transmission in every schedule
        // shape passes through here before collision resolution.
        let mut verdict = SlotVerdict::Clean;
        if let Some(f) = &mut self.faults {
            if f.any_down() {
                // The poll loop above masks down devices, so this is an
                // invariant check, not a second decision point.
                for (v, _) in senders.iter() {
                    assert!(!f.is_down(*v), "down device {v} transmitted");
                }
            }
            // Unobserved slots never draw a verdict: jamming budget is
            // only spent on slots some listener actually hears, which
            // keeps budget consumption invariant across schedule shapes.
            if !listeners.is_empty() {
                verdict = f.verdict(now, !senders.is_empty());
            }
            if verdict != SlotVerdict::Clean {
                // Senders already paid for the attempt — that charge is
                // the retry energy of unreliable channels; the meter
                // tallies the wasted transmissions separately.
                for (v, _) in senders.iter() {
                    self.meter.note_lost_send(*v);
                }
                if let Some(tel) = &mut self.telemetry {
                    for (v, _) in senders.iter() {
                        tel.note_lost(*v);
                    }
                }
            }
            if verdict == SlotVerdict::Lost {
                // Drop every transmission before resolution: listeners
                // then resolve an empty channel, which is silence in
                // every model.
                for (v, _) in senders.iter() {
                    self.sending[*v] = 0;
                }
            }
        }
        for &v in listeners.iter() {
            let fb = if verdict == SlotVerdict::Jammed {
                jam_feedback(self.model)
            } else if let Some(f) = self.faults.as_ref().filter(|f| f.filters_edges()) {
                // Edge loss needs a per-(listener, sender) decision, so
                // this plan drops from the row probe to the filtered
                // iterator scan.
                resolve(
                    self.model,
                    self.graph.neighbors(v).filter_map(|u| {
                        let idx = self.sending[u];
                        (idx != 0 && f.edge_alive(now, v, u))
                            .then(|| (u, senders[idx as usize - 1].1.clone()))
                    }),
                )
            } else {
                resolve_row(
                    self.model,
                    self.graph.neighbor_row(v),
                    &self.sending,
                    senders,
                )
            };
            if let Some(tel) = &mut self.telemetry {
                if verdict == SlotVerdict::Jammed {
                    tel.note_jammed(v);
                } else {
                    match &fb {
                        Feedback::Silence => tel.note_silence(v),
                        Feedback::Noise | Feedback::Beep => tel.note_noise(v),
                        Feedback::One(_) | Feedback::Many(_) => tel.note_recv(v),
                    }
                }
            }
            behavior.feedback(v, t, fb);
        }
        for (v, _) in senders.iter() {
            self.sending[*v] = 0;
        }
        if let Some(tel) = &mut self.telemetry {
            tel.end_slot();
        }
        self.clock += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::JammerStrategy;

    fn star(leaves: usize) -> Graph {
        // Vertex 0 is the hub.
        let edges: Vec<_> = (1..=leaves).map(|v| (0, v)).collect();
        Graph::from_edges(leaves + 1, &edges).unwrap()
    }

    /// Drives `slots` dense slots in which exactly `participants` act.
    fn drive_dense<M, B>(sim: &mut Sim, participants: &[NodeId], slots: u64, b: &mut B)
    where
        M: Clone + core::fmt::Debug,
        B: SlotBehavior<M>,
    {
        sim.drive(
            Schedule::Dense {
                participants,
                slots,
            },
            b,
        );
    }

    /// A sparse schedule from `(slot, participants)` pairs.
    fn sparse_of(rows: &[(Slot, &[NodeId])]) -> SparseSchedule {
        let mut sched = SparseSchedule::new();
        for &(t, row) in rows {
            sched.push(t, row.iter().copied());
        }
        sched
    }

    #[test]
    fn collision_heard_as_silence_in_nocd() {
        let mut sim = Sim::new(star(2), Model::NoCd, 0);
        let mut got = None;
        let mut b = from_fns(
            |v, _| {
                if v == 0 {
                    Action::Listen
                } else {
                    Action::Send(v)
                }
            },
            |_, _, fb| got = Some(fb),
        );
        drive_dense(&mut sim, &[0, 1, 2], 1, &mut b);
        drop(b);
        assert_eq!(got, Some(Feedback::Silence));
    }

    #[test]
    fn collision_heard_as_noise_in_cd() {
        let mut sim = Sim::new(star(2), Model::Cd, 0);
        let mut got = None;
        let mut b = from_fns(
            |v, _| {
                if v == 0 {
                    Action::Listen
                } else {
                    Action::Send(v)
                }
            },
            |_, _, fb| got = Some(fb),
        );
        drive_dense(&mut sim, &[0, 1, 2], 1, &mut b);
        drop(b);
        assert_eq!(got, Some(Feedback::Noise));
    }

    #[test]
    fn non_participants_stay_idle_and_free() {
        let mut sim = Sim::new(star(3), Model::NoCd, 0);
        let mut b = from_fns(|_, _| Action::Send(1u8), |_, _, _| panic!("nobody listens"));
        drive_dense(&mut sim, &[1], 4, &mut b);
        assert_eq!(sim.meter().energy(1), 4);
        assert_eq!(sim.meter().energy(0), 0);
        assert_eq!(sim.meter().energy(2), 0);
    }

    #[test]
    fn skip_advances_clock_without_energy() {
        let mut sim = Sim::new(star(1), Model::Cd, 0);
        sim.skip(100);
        assert_eq!(sim.now(), 100);
        assert_eq!(sim.meter().total_energy(), 0);
        let mut b = from_fns(|_, _| Action::Send(0u8), |_, _, _| {});
        drive_dense(&mut sim, &[0], 1, &mut b);
        assert_eq!(sim.meter().last_active(), Some(100));
    }

    #[test]
    fn sender_does_not_hear_itself() {
        // Full duplex: node 1 sends+listens; node 2 sends. Node 1 hears only
        // node 2's message (they are both leaves, not adjacent), i.e. silence
        // since leaves aren't neighbors — then test on an edge instead.
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let mut sim = Sim::new(g, Model::Cd, 0);
        let mut got = None;
        let mut b = from_fns(
            |v, _| {
                if v == 0 {
                    Action::SendListen("a")
                } else {
                    Action::Idle
                }
            },
            |_, _, fb| got = Some(fb),
        );
        drive_dense(&mut sim, &[0, 1], 1, &mut b);
        drop(b);
        // Node 0's own transmission must not reach its own listener.
        assert_eq!(got, Some(Feedback::Silence));
        assert_eq!(sim.meter().energy(0), 2);
    }

    #[test]
    fn full_duplex_hears_neighbor() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let mut sim = Sim::new(g, Model::Cd, 0);
        let mut got = Vec::new();
        let mut b = from_fns(
            |v, _| {
                if v == 0 {
                    Action::SendListen("a")
                } else {
                    Action::SendListen("b")
                }
            },
            |v, _, fb| got.push((v, fb)),
        );
        drive_dense(&mut sim, &[0, 1], 1, &mut b);
        drop(b);
        got.sort_by_key(|(v, _)| *v);
        assert_eq!(got, vec![(0, Feedback::One("b")), (1, Feedback::One("a"))]);
    }

    #[test]
    fn local_delivers_all_messages() {
        let mut sim = Sim::new(star(3), Model::Local, 0);
        let mut got = None;
        let mut b = from_fns(
            |v, _| {
                if v == 0 {
                    Action::Listen
                } else {
                    Action::Send(v as u8)
                }
            },
            |_, _, fb| got = Some(fb),
        );
        drive_dense(&mut sim, &[0, 1, 2, 3], 1, &mut b);
        drop(b);
        assert_eq!(got, Some(Feedback::Many(vec![1, 2, 3])));
    }

    #[test]
    fn telemetry_records_sends_and_receptions() {
        use crate::telemetry::EventKind;
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let mut sim = Sim::new(g, Model::NoCd, 0);
        sim.enable_telemetry();
        let mut b = from_fns(
            |v, _| {
                if v == 0 {
                    Action::Send(9u8)
                } else {
                    Action::Listen
                }
            },
            |_, _, _| {},
        );
        drive_dense(&mut sim, &[0, 1], 1, &mut b);
        let tel = sim.telemetry().unwrap();
        let events: Vec<_> = tel.events().collect();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].node(), events[0].kind()), (0, EventKind::Tx));
        assert_eq!((events[1].node(), events[1].kind()), (1, EventKind::Recv));
        let rows: Vec<_> = tel.counters().collect();
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].polled, rows[0].tx, rows[0].delivered), (2, 1, 1));
        // take_telemetry hands the recorder over and detaches it.
        let owned = sim.take_telemetry().unwrap();
        assert_eq!(owned.event_count(), 2);
        assert!(!sim.telemetry_enabled());
    }

    #[test]
    fn telemetry_surfaces_fault_verdicts_per_slot() {
        use crate::telemetry::EventKind;
        // Slot loss with p = 1: every send is Lost, every listener hears
        // recorded Silence — the per-slot view of lost_sends.
        let mut sim = Sim::with_faults(star(1), Model::Cd, 3, FaultPlan::SlotLoss { p: 1.0 });
        sim.enable_telemetry();
        let mut b = from_fns(
            |v, _| {
                if v == 0 {
                    Action::Listen
                } else {
                    Action::Send(1u8)
                }
            },
            |_, _, _| {},
        );
        sim.drive(
            Schedule::Dense {
                participants: &[0, 1],
                slots: 3,
            },
            &mut b,
        );
        drop(b);
        let tel = sim.telemetry().unwrap();
        assert_eq!(tel.events_of(EventKind::Lost).count(), 3);
        assert_eq!(tel.events_of(EventKind::Silence).count(), 3);
        let row = tel.counters().next().unwrap();
        assert_eq!((row.tx, row.lost, row.silent), (1, 1, 1));
        assert_eq!(
            tel.counters().map(|r| r.lost as u64).sum::<u64>(),
            sim.meter().total_lost_sends()
        );
    }

    #[test]
    fn telemetry_marks_jammed_listeners_and_crashes() {
        use crate::telemetry::EventKind;
        let mut sim = Sim::with_faults(
            star(2),
            Model::Cd,
            3,
            FaultPlan::Jammer {
                budget: 1,
                strategy: JammerStrategy::Reactive,
            },
        );
        sim.enable_telemetry();
        let mut b = from_fns(
            |v, _| {
                if v == 0 {
                    Action::Listen
                } else {
                    Action::Send(v as u8)
                }
            },
            |_, _, _| {},
        );
        sim.drive(
            Schedule::Dense {
                participants: &[0, 1, 2],
                slots: 2,
            },
            &mut b,
        );
        drop(b);
        let tel = sim.telemetry().unwrap();
        // Slot 0 is jammed (budget 1); slot 1 is a clean collision.
        assert_eq!(tel.events_of(EventKind::Jammed).count(), 1);
        assert_eq!(tel.events_of(EventKind::Noise).count(), 1);
        assert_eq!(tel.events_of(EventKind::Lost).count(), 2);
        let rows: Vec<_> = tel.counters().collect();
        assert_eq!((rows[0].jammed, rows[0].lost), (1, 2));
        assert_eq!((rows[1].jammed, rows[1].collisions), (0, 1));

        // A crash schedule produces one Crashed event at the crash slot
        // and the down gauge in subsequent rows.
        let mut sim = Sim::with_faults(
            star(1),
            Model::Cd,
            3,
            FaultPlan::Crash {
                schedule: vec![(1, 1)],
            },
        );
        sim.enable_telemetry();
        let mut b = from_fns(
            |v, _| {
                if v == 0 {
                    Action::Listen
                } else {
                    Action::Send(1u8)
                }
            },
            |_, _, _| {},
        );
        sim.drive(
            Schedule::Dense {
                participants: &[0, 1],
                slots: 3,
            },
            &mut b,
        );
        drop(b);
        let tel = sim.telemetry().unwrap();
        let crashes: Vec<_> = tel.events_of(EventKind::Crashed).collect();
        assert_eq!(crashes.len(), 1);
        assert_eq!((crashes[0].slot, crashes[0].node()), (1, 1));
        let rows: Vec<_> = tel.counters().collect();
        assert_eq!(rows[0].down, 0);
        assert_eq!(rows[1].down, 1);
        assert_eq!(rows[2].down, 1);
    }

    #[test]
    fn spans_and_gauges_record_through_the_sim() {
        let mut sim = Sim::new(star(1), Model::Cd, 0);
        // All span/gauge calls are no-ops without telemetry.
        sim.span_enter("ignored");
        sim.span_exit();
        sim.record_gauge("ignored", 0, 1.0);
        assert!(sim.telemetry().is_none());
        sim.enable_telemetry();
        sim.span_enter("phase");
        sim.skip(10);
        let mut b = from_fns(|_, _| Action::Send(0u8), |_, _, _| {});
        drive_dense(&mut sim, &[0], 2, &mut b);
        sim.span_exit();
        sim.span_at("retro", 3, 7);
        sim.record_gauge("informed", 12, 2.0);
        let tel = sim.telemetry().unwrap();
        assert_eq!(tel.spans().len(), 2);
        assert_eq!((tel.spans()[0].start, tel.spans()[0].end), (0, 12));
        assert_eq!((tel.spans()[1].start, tel.spans()[1].end), (3, 7));
        assert_eq!(tel.gauges().len(), 1);
        // Skipped slots produce no counter rows.
        assert_eq!(tel.counters().count(), 2);
    }

    #[test]
    fn sims_over_one_arc_share_the_graph_allocation() {
        let g = Arc::new(star(2));
        let a = Sim::new(Arc::clone(&g), Model::Cd, 0);
        let b = Sim::new(Arc::clone(&g), Model::Cd, 1);
        assert!(Arc::ptr_eq(a.graph_arc(), b.graph_arc()));
        assert!(Arc::ptr_eq(a.graph_arc(), &g));
    }

    #[test]
    fn sparse_schedule_matches_dense_run() {
        // The same star broadcast driven densely and sparsely must produce
        // identical feedback, energy, and clock.
        let dense = |sim: &mut Sim| {
            let mut got = Vec::new();
            let mut b = from_fns(
                |v, t| {
                    if v == 0 && t == 3 {
                        Action::Send(7u8)
                    } else if v != 0 && t == 3 {
                        Action::Listen
                    } else {
                        Action::Idle
                    }
                },
                |v, _, fb| got.push((v, fb)),
            );
            drive_dense(sim, &[0, 1, 2], 10, &mut b);
            drop(b);
            got
        };
        let sparse = |sim: &mut Sim| {
            let mut got = Vec::new();
            let mut b = from_fns(
                |v, t| {
                    assert_eq!(t, 3, "only the scheduled slot is polled");
                    if v == 0 {
                        Action::Send(7u8)
                    } else {
                        Action::Listen
                    }
                },
                |v, _, fb| got.push((v, fb)),
            );
            let sched = sparse_of(&[(3, &[0, 1, 2])]);
            sim.drive(
                Schedule::Sparse {
                    schedule: &sched,
                    slots: 10,
                },
                &mut b,
            );
            drop(b);
            got
        };
        let mut a = Sim::new(star(2), Model::Cd, 0);
        let mut b = Sim::new(star(2), Model::Cd, 0);
        let ga = dense(&mut a);
        let gb = sparse(&mut b);
        assert_eq!(ga, gb);
        assert_eq!(a.now(), b.now());
        assert_eq!(a.meter().report().total, b.meter().report().total);
        assert_eq!(a.meter().last_active(), b.meter().last_active());
        // The sparse run batch-skipped the 9 unscheduled slots.
        assert_eq!(b.meter().idle_skipped(), 9);
    }

    #[test]
    fn sparse_schedule_is_equivalent_to_the_dense_loop_on_a_relay_chain() {
        // A multi-hop relay on the path 0–1–…–5: node v transmits in slot
        // 3v once informed, node v+1 listens there; every other slot is
        // provably idle. Driven (a) slot-by-slot through a dense schedule
        // with an explicitly idle behavior off-schedule and (b) through a
        // sparse schedule, the two runs must agree on the final
        // informed set, every per-node energy, the total, the clock, and
        // the last active slot — with the whole difference showing up in
        // `idle_skipped` accounting.
        const N: usize = 6;
        const SLOTS: u64 = 3 * (N as u64 - 1) + 1;
        struct Relay {
            informed: Vec<bool>,
        }
        impl Relay {
            // The only possibly-active slots: sender v and listener v+1
            // in slot 3v.
            fn roles(t: u64) -> Option<(NodeId, NodeId)> {
                (t % 3 == 0 && (t / 3) as usize + 1 < N)
                    .then(|| ((t / 3) as usize, (t / 3) as usize + 1))
            }
        }
        impl SlotBehavior<u8> for Relay {
            fn act(&mut self, v: NodeId, t: u64) -> Action<u8> {
                match Relay::roles(t) {
                    Some((sender, _)) if v == sender && self.informed[v] => Action::Send(7),
                    Some((_, listener)) if v == listener => Action::Listen,
                    _ => Action::Idle,
                }
            }
            fn feedback(&mut self, v: NodeId, _t: u64, fb: Feedback<u8>) {
                if matches!(fb, Feedback::One(7)) {
                    self.informed[v] = true;
                }
            }
        }
        let path =
            || Graph::from_edges(N, &(0..N - 1).map(|v| (v, v + 1)).collect::<Vec<_>>()).unwrap();
        let fresh = || Relay {
            informed: std::iter::once(true).chain((1..N).map(|_| false)).collect(),
        };

        let mut dense_sim = Sim::new(path(), Model::NoCd, 0);
        let mut dense = fresh();
        let all: Vec<NodeId> = (0..N).collect();
        drive_dense(&mut dense_sim, &all, SLOTS, &mut dense);

        let mut sparse_sim = Sim::new(path(), Model::NoCd, 0);
        let mut sparse = fresh();
        let mut schedule = SparseSchedule::new();
        for t in 0..SLOTS {
            if let Some((s, l)) = Relay::roles(t) {
                schedule.push(t, [s, l]);
            }
        }
        sparse_sim.drive(
            Schedule::Sparse {
                schedule: &schedule,
                slots: SLOTS,
            },
            &mut sparse,
        );

        // The relay reached the far end both ways.
        assert_eq!(dense.informed, vec![true; N]);
        assert_eq!(sparse.informed, dense.informed, "informed sets differ");
        // Exact energy equivalence, node by node.
        for v in 0..N {
            assert_eq!(
                dense_sim.meter().energy(v),
                sparse_sim.meter().energy(v),
                "node {v} energy differs"
            );
        }
        assert_eq!(
            dense_sim.meter().total_energy(),
            sparse_sim.meter().total_energy()
        );
        assert_eq!(dense_sim.now(), sparse_sim.now());
        assert_eq!(
            dense_sim.meter().last_active(),
            sparse_sim.meter().last_active()
        );
        // idle_skipped accounts exactly for the unscheduled slots: the
        // dense loop simulated all of them, the sparse loop none.
        assert_eq!(dense_sim.meter().idle_skipped(), 0);
        assert_eq!(
            sparse_sim.meter().idle_skipped(),
            SLOTS - schedule.len() as u64
        );
    }

    #[test]
    fn dynamic_schedule_with_default_hints_matches_dense() {
        // With the default first_wake/next_wake (wake every slot), a
        // Dynamic schedule must be indistinguishable from Dense: same
        // feedback, energy, clock, and zero idle_skipped.
        let run_with = |dynamic: bool| {
            let mut sim = Sim::new(star(2), Model::Cd, 0);
            let mut got = Vec::new();
            let mut b = from_fns(
                |v, t| {
                    if v == 0 && t % 2 == 1 {
                        Action::Listen
                    } else if v != 0 && t % 2 == 1 {
                        Action::Send(v as u8)
                    } else {
                        Action::Idle
                    }
                },
                |v, t, fb| got.push((v, t, fb)),
            );
            let participants: Vec<NodeId> = vec![0, 1, 2];
            if dynamic {
                sim.drive(
                    Schedule::Dynamic {
                        participants: &participants,
                        slots: 6,
                    },
                    &mut b,
                );
            } else {
                sim.drive(
                    Schedule::Dense {
                        participants: &participants,
                        slots: 6,
                    },
                    &mut b,
                );
            }
            drop(b);
            (
                got,
                sim.now(),
                (0..3).map(|v| sim.meter().energy(v)).collect::<Vec<_>>(),
                sim.meter().idle_skipped(),
            )
        };
        assert_eq!(run_with(false), run_with(true));
    }

    #[test]
    fn dynamic_relay_chain_matches_dense_and_skips_idle_slots() {
        // The relay-chain scenario again, this time driven dynamically:
        // wake hints only skip provably-idle slots, so the informed set,
        // per-node energy, clock, and last_active must all match the dense
        // loop bit-for-bit while the host only polls the active devices.
        const N: usize = 6;
        const SLOTS: u64 = 3 * (N as u64 - 1) + 1;
        struct Relay {
            informed: Vec<bool>,
        }
        impl Relay {
            fn roles(t: u64) -> Option<(NodeId, NodeId)> {
                (t % 3 == 0 && (t / 3) as usize + 1 < N)
                    .then(|| ((t / 3) as usize, (t / 3) as usize + 1))
            }
        }
        impl SlotBehavior<u8> for Relay {
            fn act(&mut self, v: NodeId, t: u64) -> Action<u8> {
                match Relay::roles(t) {
                    Some((sender, _)) if v == sender && self.informed[v] => Action::Send(7),
                    Some((_, listener)) if v == listener => Action::Listen,
                    _ => Action::Idle,
                }
            }
            fn feedback(&mut self, v: NodeId, _t: u64, fb: Feedback<u8>) {
                if matches!(fb, Feedback::One(7)) {
                    self.informed[v] = true;
                }
            }
            // Node v's only possibly-active slots: listen at 3(v-1), send
            // at 3v (senders run 0..N-1). Every skipped slot is Idle by
            // construction and draws no randomness.
            fn first_wake(&mut self, v: NodeId) -> Option<u64> {
                if v == 0 {
                    Some(0)
                } else {
                    Some(3 * (v as u64 - 1))
                }
            }
            fn next_wake(&mut self, v: NodeId, t: u64) -> Option<u64> {
                if t == 3 * (v as u64) {
                    None // just had the send slot
                } else if v + 1 < N {
                    Some(3 * v as u64)
                } else {
                    None // the far endpoint never sends
                }
            }
        }
        let path =
            || Graph::from_edges(N, &(0..N - 1).map(|v| (v, v + 1)).collect::<Vec<_>>()).unwrap();
        let fresh = || Relay {
            informed: std::iter::once(true).chain((1..N).map(|_| false)).collect(),
        };
        let all: Vec<NodeId> = (0..N).collect();

        let mut dense_sim = Sim::new(path(), Model::NoCd, 0);
        let mut dense = fresh();
        dense_sim.drive(
            Schedule::Dense {
                participants: &all,
                slots: SLOTS,
            },
            &mut dense,
        );

        let mut dyn_sim = Sim::new(path(), Model::NoCd, 0);
        let mut dynamic = fresh();
        dyn_sim.drive(
            Schedule::Dynamic {
                participants: &all,
                slots: SLOTS,
            },
            &mut dynamic,
        );

        assert_eq!(dense.informed, vec![true; N]);
        assert_eq!(dynamic.informed, dense.informed);
        for v in 0..N {
            assert_eq!(
                dense_sim.meter().energy(v),
                dyn_sim.meter().energy(v),
                "node {v} energy differs"
            );
        }
        assert_eq!(dense_sim.now(), dyn_sim.now());
        assert_eq!(
            dense_sim.meter().last_active(),
            dyn_sim.meter().last_active()
        );
        // Slots with no pending wake were batch-skipped, not simulated.
        assert_eq!(dyn_sim.meter().idle_skipped(), 2 * (N as u64 - 1) + 1);
    }

    #[test]
    #[should_panic(expected = "non-future wake")]
    fn dynamic_rejects_non_future_wakes() {
        let mut sim = Sim::new(star(1), Model::Cd, 0);
        struct Bad;
        impl SlotBehavior<u8> for Bad {
            fn act(&mut self, _v: NodeId, _t: u64) -> Action<u8> {
                Action::Idle
            }
            fn feedback(&mut self, _v: NodeId, _t: u64, _fb: Feedback<u8>) {}
            fn next_wake(&mut self, _v: NodeId, t: u64) -> Option<u64> {
                Some(t)
            }
        }
        sim.drive(
            Schedule::Dynamic {
                participants: &[0],
                slots: 10,
            },
            &mut Bad,
        );
    }

    #[test]
    fn dynamic_devices_without_a_wake_cost_nothing() {
        // Only device 0 ever wakes (once, at slot 5): the sleeping devices
        // are never polled and pay nothing, and every other slot of the
        // primitive is batch-skipped.
        struct OnlyZero {
            polls: Vec<(NodeId, u64)>,
        }
        impl SlotBehavior<u8> for OnlyZero {
            fn act(&mut self, v: NodeId, t: u64) -> Action<u8> {
                self.polls.push((v, t));
                Action::Send(1)
            }
            fn feedback(&mut self, _v: NodeId, _t: u64, _fb: Feedback<u8>) {}
            fn first_wake(&mut self, v: NodeId) -> Option<u64> {
                (v == 0).then_some(5)
            }
            fn next_wake(&mut self, _v: NodeId, _t: u64) -> Option<u64> {
                None
            }
        }
        let mut sim = Sim::new(star(2), Model::Cd, 0);
        let mut b = OnlyZero { polls: Vec::new() };
        sim.drive(
            Schedule::Dynamic {
                participants: &[0, 1, 2],
                slots: 100,
            },
            &mut b,
        );
        assert_eq!(b.polls, vec![(0, 5)]);
        assert_eq!(sim.meter().energy(0), 1);
        assert_eq!(sim.meter().energy(1), 0);
        assert_eq!(sim.meter().energy(2), 0);
        assert_eq!(sim.now(), 100);
        assert_eq!(sim.meter().idle_skipped(), 99);
    }

    #[test]
    fn dynamic_drops_wakes_at_or_past_the_slot_cap() {
        // Device 0 asks for slots 0, 4, 8, …; device 1 first asks for a
        // slot past the cap. With `slots: 10` only the wakes below 10 are
        // polled, and the clock still ends at the cap.
        struct Every4 {
            polls: Vec<(NodeId, u64)>,
        }
        impl SlotBehavior<u8> for Every4 {
            fn act(&mut self, v: NodeId, t: u64) -> Action<u8> {
                self.polls.push((v, t));
                Action::Listen
            }
            fn feedback(&mut self, _v: NodeId, _t: u64, _fb: Feedback<u8>) {}
            fn first_wake(&mut self, v: NodeId) -> Option<u64> {
                Some(if v == 0 { 0 } else { 10 })
            }
            fn next_wake(&mut self, _v: NodeId, t: u64) -> Option<u64> {
                Some(t + 4)
            }
        }
        let mut sim = Sim::new(star(1), Model::Cd, 0);
        let mut b = Every4 { polls: Vec::new() };
        sim.drive(
            Schedule::Dynamic {
                participants: &[0, 1],
                slots: 10,
            },
            &mut b,
        );
        assert_eq!(b.polls, vec![(0, 0), (0, 4), (0, 8)]);
        assert_eq!(sim.meter().energy(1), 0);
        assert_eq!(sim.now(), 10);
    }

    #[test]
    fn sparse_schedule_is_reusable_across_primitives() {
        // One SparseSchedule built once, driven twice: the second primitive
        // sees fresh 0-based local slots and the clock keeps advancing.
        let mut sparse = SparseSchedule::new();
        sparse.push(1, [0usize]);
        sparse.push(4, [0usize, 1]);
        assert_eq!(sparse.len(), 2);
        assert!(!sparse.is_empty());
        assert_eq!(sparse.total_participants(), 3);
        let rows: Vec<(Slot, Vec<NodeId>)> =
            sparse.entries().map(|(t, row)| (t, row.to_vec())).collect();
        assert_eq!(rows, vec![(1, vec![0]), (4, vec![0, 1])]);

        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let mut sim = Sim::new(g, Model::Cd, 0);
        let mut polls = Vec::new();
        let mut b = from_fns(
            |v, t| {
                polls.push((v, t));
                Action::<u8>::Idle
            },
            |_, _, _| {},
        );
        sim.drive(
            Schedule::Sparse {
                schedule: &sparse,
                slots: 6,
            },
            &mut b,
        );
        sim.drive(
            Schedule::Sparse {
                schedule: &sparse,
                slots: 6,
            },
            &mut b,
        );
        drop(b);
        assert_eq!(sim.now(), 12);
        assert_eq!(polls, vec![(0, 1), (0, 4), (1, 4), (0, 1), (0, 4), (1, 4)]);
    }

    #[test]
    fn sparse_schedule_batches_trailing_and_leading_gaps() {
        let mut sim = Sim::new(star(1), Model::Cd, 0);
        let mut b = from_fns(|_, _| Action::Send(1u8), |_, _, _| {});
        let sched = sparse_of(&[(100, &[0]), (200, &[1])]);
        sim.drive(
            Schedule::Sparse {
                schedule: &sched,
                slots: 1_000_000,
            },
            &mut b,
        );
        assert_eq!(sim.now(), 1_000_000);
        assert_eq!(sim.meter().last_active(), Some(200));
        assert_eq!(sim.meter().total_energy(), 2);
        assert_eq!(sim.meter().idle_skipped(), 1_000_000 - 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn sparse_schedule_rejects_unsorted_slots() {
        sparse_of(&[(5, &[0]), (5, &[1])]);
    }

    #[test]
    #[should_panic(expected = "slot 3 after 5")]
    fn sparse_schedule_reports_the_previous_slot_when_out_of_order() {
        sparse_of(&[(5, &[0]), (3, &[1])]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn sparse_schedule_rejects_out_of_range_slots() {
        let mut sim = Sim::new(star(1), Model::Cd, 0);
        let mut b = from_fns(|_, _| Action::<u8>::Idle, |_, _, _| {});
        let sched = sparse_of(&[(10, &[0])]);
        sim.drive(
            Schedule::Sparse {
                schedule: &sched,
                slots: 10,
            },
            &mut b,
        );
    }

    #[test]
    fn skip_is_metered_as_idle() {
        let mut sim = Sim::new(star(1), Model::Cd, 0);
        sim.skip(42);
        assert_eq!(sim.meter().idle_skipped(), 42);
        assert_eq!(sim.meter().total_energy(), 0);
    }

    #[test]
    fn local_slot_numbers_are_zero_based_per_primitive() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let mut sim = Sim::new(g, Model::NoCd, 0);
        let mut slots_seen = Vec::new();
        let mut b = from_fns(
            |_, t| {
                slots_seen.push(t);
                Action::<u8>::Idle
            },
            |_, _, _| {},
        );
        drive_dense(&mut sim, &[0], 2, &mut b);
        drive_dense(&mut sim, &[0], 2, &mut b);
        drop(b);
        assert_eq!(slots_seen, vec![0, 1, 0, 1]);
        assert_eq!(sim.now(), 4);
    }

    /// Leaves send every slot, the hub listens every slot; returns the
    /// hub's per-slot feedback after `slots` slots.
    fn hub_feedback(mut sim: Sim, leaves: usize, slots: u64) -> Vec<Feedback<usize>> {
        let mut heard = Vec::new();
        let all: Vec<NodeId> = (0..=leaves).collect();
        let mut b = from_fns(
            |v, _| {
                if v == 0 {
                    Action::Listen
                } else {
                    Action::Send(v)
                }
            },
            |_, _, fb| heard.push(fb),
        );
        sim.drive(
            Schedule::Dense {
                participants: &all,
                slots,
            },
            &mut b,
        );
        drop(b);
        heard
    }

    #[test]
    fn none_plan_stores_no_fault_state() {
        let sim = Sim::with_faults(star(2), Model::Cd, 7, FaultPlan::None);
        assert!(sim.fault_state().is_none());
        assert_eq!(sim.fault_plan(), &FaultPlan::None);
        let sim = Sim::with_faults(star(2), Model::Cd, 7, FaultPlan::SlotLoss { p: 0.5 });
        assert_eq!(sim.fault_plan().name(), "slot-loss");
        assert!(sim.fault_state().is_some());
    }

    #[test]
    fn certain_slot_loss_silences_every_delivery_but_charges_senders() {
        let sim = Sim::with_faults(star(1), Model::Cd, 3, FaultPlan::SlotLoss { p: 1.0 });
        let heard = hub_feedback(sim, 1, 4);
        assert_eq!(heard, vec![Feedback::Silence; 4]);
    }

    #[test]
    fn slot_loss_retry_energy_is_charged_and_tallied() {
        let mut sim = Sim::with_faults(star(1), Model::Cd, 3, FaultPlan::SlotLoss { p: 1.0 });
        let mut b = from_fns(
            |v, _| {
                if v == 0 {
                    Action::Listen
                } else {
                    Action::Send(1u8)
                }
            },
            |_, _, _| {},
        );
        sim.drive(
            Schedule::Dense {
                participants: &[0, 1],
                slots: 5,
            },
            &mut b,
        );
        drop(b);
        // The sender paid for all 5 attempts; all 5 were destroyed.
        assert_eq!(sim.meter().sends(1), 5);
        assert_eq!(sim.meter().lost_sends(1), 5);
        assert_eq!(sim.meter().report().lost_sends, 5);
        // The listener still paid to listen to silence.
        assert_eq!(sim.meter().listens(0), 5);
    }

    #[test]
    fn certain_edge_loss_silences_deliveries_per_edge() {
        let sim = Sim::with_faults(star(1), Model::Cd, 3, FaultPlan::EdgeLoss { p: 1.0 });
        let heard = hub_feedback(sim, 1, 4);
        assert_eq!(heard, vec![Feedback::Silence; 4]);
    }

    #[test]
    fn crashed_device_is_masked_out_of_polls_energy_and_resolution() {
        // Leaf 1 crashes at global slot 2 of 6: it transmits (and pays)
        // only before the crash, and the hub hears it collide with leaf 2
        // only while it is still up.
        let sim = Sim::with_faults(
            star(2),
            Model::Cd,
            3,
            FaultPlan::Crash {
                schedule: vec![(2, 1)],
            },
        );
        let heard = hub_feedback(sim, 2, 6);
        assert_eq!(heard[0], Feedback::Noise);
        assert_eq!(heard[1], Feedback::Noise);
        // From slot 2 on only leaf 2 transmits: a clean single delivery.
        assert!(heard[2..].iter().all(|fb| *fb == Feedback::One(2)));
    }

    #[test]
    fn crash_energy_stops_at_the_crash_slot() {
        let mut sim = Sim::with_faults(
            star(1),
            Model::Cd,
            3,
            FaultPlan::Crash {
                schedule: vec![(3, 1)],
            },
        );
        let mut b = from_fns(
            |v, _| {
                if v == 0 {
                    Action::Listen
                } else {
                    Action::Send(1u8)
                }
            },
            |_, _, _| {},
        );
        sim.drive(
            Schedule::Dense {
                participants: &[0, 1],
                slots: 10,
            },
            &mut b,
        );
        drop(b);
        assert_eq!(sim.meter().sends(1), 3, "no polls after the crash");
        assert_eq!(sim.meter().listens(0), 10, "the hub stays up");
    }

    #[test]
    fn churned_device_misses_the_down_window_then_rejoins() {
        let sim = Sim::with_faults(
            star(1),
            Model::Cd,
            3,
            FaultPlan::Churn {
                leave: vec![(1, 1)],
                join: vec![(3, 1)],
            },
        );
        let heard = hub_feedback(sim, 1, 5);
        assert_eq!(
            heard,
            vec![
                Feedback::One(1),
                Feedback::Silence,
                Feedback::Silence,
                Feedback::One(1),
                Feedback::One(1),
            ]
        );
    }

    #[test]
    fn reactive_jammer_spends_budget_only_on_observed_transmissions() {
        let mut sim = Sim::with_faults(
            star(1),
            Model::Cd,
            3,
            FaultPlan::Jammer {
                budget: 2,
                strategy: JammerStrategy::Reactive,
            },
        );
        let mut heard = Vec::new();
        // The leaf transmits only in slots 2, 4, 6; the hub always listens.
        let mut b = from_fns(
            |v, t| {
                if v == 0 {
                    Action::Listen
                } else if t % 2 == 0 && t > 0 {
                    Action::Send(1u8)
                } else {
                    Action::Idle
                }
            },
            |_, _, fb| heard.push(fb),
        );
        sim.drive(
            Schedule::Dense {
                participants: &[0, 1],
                slots: 8,
            },
            &mut b,
        );
        drop(b);
        // Budget 2 hits the first two transmissions; the third gets through.
        assert_eq!(heard[2], Feedback::Noise);
        assert_eq!(heard[4], Feedback::Noise);
        assert_eq!(heard[6], Feedback::One(1));
        assert_eq!(sim.fault_state().unwrap().jam_budget(), 0);
        assert_eq!(sim.meter().total_lost_sends(), 2);
    }

    #[test]
    fn periodic_jammer_budget_is_schedule_shape_invariant() {
        // A jammer with period 1 (every observed slot) and budget 2 must
        // spend the same two units whether idle stretches are simulated
        // (dense) or batch-skipped (sparse): unobserved slots are free.
        let run = |sparse: bool| -> Vec<Feedback<u8>> {
            let mut sim = Sim::with_faults(
                star(1),
                Model::Cd,
                3,
                FaultPlan::Jammer {
                    budget: 2,
                    strategy: JammerStrategy::Periodic { period: 1 },
                },
            );
            let mut heard = Vec::new();
            let active = [2u64, 5, 9];
            let mut b = from_fns(
                |v, t| {
                    if !active.contains(&t) {
                        Action::Idle
                    } else if v == 0 {
                        Action::Listen
                    } else {
                        Action::Send(1u8)
                    }
                },
                |_, _, fb| heard.push(fb),
            );
            if sparse {
                let mut sched = SparseSchedule::new();
                for &t in &active {
                    sched.push(t, [0, 1]);
                }
                sim.drive(
                    Schedule::Sparse {
                        schedule: &sched,
                        slots: 12,
                    },
                    &mut b,
                );
            } else {
                sim.drive(
                    Schedule::Dense {
                        participants: &[0, 1],
                        slots: 12,
                    },
                    &mut b,
                );
            }
            drop(b);
            heard
        };
        let dense = run(false);
        let sparse = run(true);
        assert_eq!(dense, sparse);
        assert_eq!(
            dense,
            vec![Feedback::Noise, Feedback::Noise, Feedback::One(1)]
        );
    }

    #[test]
    fn fault_events_fire_even_across_batch_skipped_ranges() {
        // The crash lands at slot 50, inside a skipped stretch: the next
        // simulated slot must still see the device down.
        let sim_run = |crash_at: u64| -> Vec<Feedback<u8>> {
            let mut sim = Sim::with_faults(
                star(1),
                Model::Cd,
                3,
                FaultPlan::Crash {
                    schedule: vec![(crash_at, 1)],
                },
            );
            let mut heard = Vec::new();
            let mut sched = SparseSchedule::new();
            sched.push(100, [0, 1]);
            let mut b = from_fns(
                |v, _| {
                    if v == 0 {
                        Action::Listen
                    } else {
                        Action::Send(1u8)
                    }
                },
                |_, _, fb| heard.push(fb),
            );
            sim.drive(
                Schedule::Sparse {
                    schedule: &sched,
                    slots: 101,
                },
                &mut b,
            );
            drop(b);
            heard
        };
        assert_eq!(sim_run(50), vec![Feedback::Silence]);
        assert_eq!(sim_run(200), vec![Feedback::One(1)]);
    }
}
