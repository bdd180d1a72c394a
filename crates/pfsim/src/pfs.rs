//! Event-driven fluid parallel-file-system engine.
//!
//! Flows progress at the bounded max-min rates of [`crate::alloc::water_fill`]:
//! each flow runs at `min(cap, θ·weight)`, with the water level `θ` chosen so
//! the channel is fully used whenever demand allows. Rates are
//! piecewise-constant between *events* (submissions, completions, cap or
//! capacity changes). The engine is passive: a host simulation calls
//! [`Pfs::advance_to`] to move virtual time forward and collects completed
//! flows, and uses [`Pfs::next_completion`] to know when to call back.
//!
//! Identical flows submitted at the same instant merge into *flow groups*
//! that progress and complete together.
//!
//! # Virtual-time allocation
//!
//! Each channel keeps a virtual clock `V(t)`: the cumulative service per
//! unit weight, advancing at `dV/dt = θ` (Parekh–Gallager GPS). A group
//! running at its fair share — *elastic*: uncapped, or capped above `θ·w` —
//! holds the finish tag `F = V + remaining/w`. A change of `θ` moves no tag,
//! so the next elastic completion, `(F_min − V)/θ` away, comes off a
//! min-heap that is never rebuilt and no group is decremented per event. A
//! group *frozen* at its cap holds an absolute finish time in a second heap.
//! The θ solve walks only the capped groups, in breakpoint (`cap/w`) order.
//! A submit, completion or cap change thus costs O(log g + capped groups)
//! for g live groups.

use crate::alloc::{water_fill, Demand};
use simcore::{Invariant, SimTime, StepSeries};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Identifies a single flow (one logical transfer) for completion callbacks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// Identifies a bandwidth meter (a recorded aggregate rate series).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MeterId(usize);

/// Transfer direction; the two channels have independent capacities, matching
/// the paper's Lichtenberg numbers (106 GB/s write, 120 GB/s read).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Channel {
    /// Writes to the PFS.
    Write,
    /// Reads from the PFS.
    Read,
}

impl Channel {
    fn index(self) -> usize {
        match self {
            Channel::Write => 0,
            Channel::Read => 1,
        }
    }
}

/// Specification of a new flow.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Bytes to transfer. Zero-byte flows complete immediately.
    pub bytes: f64,
    /// Scheduling weight (jobs use node counts; ranks use 1).
    pub weight: f64,
    /// Optional rate cap in bytes/s.
    pub cap: Option<f64>,
    /// Optional meter to record this flow's aggregate rate into.
    pub meter: Option<MeterId>,
}

impl FlowSpec {
    /// Convenience: an uncapped weight-1 unmetered flow of `bytes`.
    pub fn simple(bytes: f64) -> Self {
        FlowSpec {
            bytes,
            weight: 1.0,
            cap: None,
            meter: None,
        }
    }
}

/// Configuration of the PFS model.
#[derive(Clone, Copy, Debug)]
pub struct PfsConfig {
    /// Write channel capacity, bytes/s.
    pub write_capacity: f64,
    /// Read channel capacity, bytes/s.
    pub read_capacity: f64,
}

impl Default for PfsConfig {
    /// Lichtenberg II defaults from the paper: 106 GB/s write, 120 GB/s read.
    fn default() -> Self {
        PfsConfig {
            write_capacity: 106e9,
            read_capacity: 120e9,
        }
    }
}

/// Deterministic work counters of a [`Pfs`], for scaling checks. They
/// depend only on the call sequence, never on the machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PfsStats {
    /// Flows submitted.
    pub submits: u64,
    /// Flows completed.
    pub completions: u64,
    /// Water-level solves (one per state change of a channel).
    pub solves: u64,
    /// Group entries visited: capped groups walked by solves plus heap
    /// levels visited by completion-index updates.
    pub touched: u64,
    /// Largest number of live flow groups across both channels.
    pub peak_groups: u64,
}

/// How a group progresses under the current allocation.
#[derive(Clone, Copy, Debug)]
enum State {
    /// Runs at `θ·weight`; finishes when the channel's virtual clock
    /// reaches `tag`.
    Elastic { tag: f64 },
    /// Runs at its cap: had `rem` bytes per member at `since` and finishes
    /// at `finish` (`FAR_FUTURE` for a zero cap).
    Frozen {
        rem: f64,
        since: SimTime,
        finish: SimTime,
    },
}

/// A group of identical flows progressing in lockstep.
#[derive(Debug)]
struct Group {
    /// Empty while the slot is free; retained so a reused slot does not
    /// allocate.
    members: Vec<FlowId>,
    channel: usize,
    weight: f64,
    cap: Option<f64>,
    meter: Option<MeterId>,
    /// Creation sequence: the tie-break of every ordering.
    seq: u64,
    state: State,
}

/// Exact identity of an elastic group that new flows may join.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct MergeKey {
    tag: u64,
    weight: u64,
    cap: Option<u64>,
    meter: Option<usize>,
}

impl MergeKey {
    fn new(tag: f64, weight: f64, cap: Option<f64>, meter: Option<MeterId>) -> Self {
        MergeKey {
            tag: tag.to_bits(),
            weight: weight.to_bits(),
            cap: cap.map(f64::to_bits),
            meter: meter.map(|m| m.0),
        }
    }

    fn of(tag: f64, g: &Group) -> Self {
        MergeKey::new(tag, g.weight, g.cap, g.meter)
    }
}

/// Key of a capped group in breakpoint order (`cap/w`, then creation).
fn breakpoint_key(cap: f64, g: &Group) -> (u64, u64) {
    // Non-negative floats order like their bits; `+ 0.0` folds -0.0.
    ((cap / g.weight + 0.0).to_bits(), g.seq)
}

/// Multiply-rotate hasher for the engine's integer keys (flow ids and the
/// bit patterns of merge keys): the per-event maps need no DoS resistance,
/// and SipHash would cost more than the rest of a submit.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upward; rotate so the bucket bits see it too.
        self.0.rotate_left(26)
    }
}

type IdMap<K> = HashMap<K, u32, BuildHasherDefault<IdHasher>>;

const ABSENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct HeapItem {
    key: f64,
    seq: u64,
    slot: u32,
}

impl HeapItem {
    fn before(&self, other: &HeapItem) -> bool {
        self.key < other.key || (self.key == other.key && self.seq < other.seq)
    }
}

/// Indexed binary min-heap of group slots ordered by `(key, seq)`. The
/// position table makes removing an arbitrary slot O(log n).
#[derive(Default, Debug)]
struct SlotHeap {
    items: Vec<HeapItem>,
    /// Slot → index in `items`, or `ABSENT`.
    pos: Vec<u32>,
}

impl SlotHeap {
    fn peek(&self) -> Option<HeapItem> {
        self.items.first().copied()
    }

    fn push(&mut self, key: f64, seq: u64, slot: u32, touched: &mut u64) {
        let s = slot as usize;
        if self.pos.len() <= s {
            self.pos.resize(s + 1, ABSENT);
        }
        self.items.push(HeapItem { key, seq, slot });
        self.pos[s] = (self.items.len() - 1) as u32;
        self.sift_up(self.items.len() - 1, touched);
    }

    fn remove(&mut self, slot: u32, touched: &mut u64) {
        let i = self.pos[slot as usize] as usize;
        debug_assert!(i != ABSENT as usize, "slot {slot} not in heap");
        self.pos[slot as usize] = ABSENT;
        let last = self.items.pop().invariant("heap holds the slot");
        if i < self.items.len() {
            self.items[i] = last;
            self.pos[last.slot as usize] = i as u32;
            let j = self.sift_up(i, touched);
            self.sift_down(j, touched);
        } else {
            *touched += 1;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.items.swap(a, b);
        self.pos[self.items[a].slot as usize] = a as u32;
        self.pos[self.items[b].slot as usize] = b as u32;
    }

    fn sift_up(&mut self, mut i: usize, touched: &mut u64) -> usize {
        *touched += 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.items[i].before(&self.items[parent]) {
                break;
            }
            *touched += 1;
            self.swap(i, parent);
            i = parent;
        }
        i
    }

    fn sift_down(&mut self, mut i: usize, touched: &mut u64) {
        loop {
            let l = 2 * i + 1;
            if l >= self.items.len() {
                return;
            }
            *touched += 1;
            let r = l + 1;
            let c = if r < self.items.len() && self.items[r].before(&self.items[l]) {
                r
            } else {
                l
            };
            if !self.items[c].before(&self.items[i]) {
                return;
            }
            self.swap(i, c);
            i = c;
        }
    }
}

struct ChannelState {
    capacity: f64,
    /// Fault-plan capacity multiplier (1 = healthy, 0 = outage). Kept
    /// separate from `capacity` so capacity noise and injected faults
    /// compose instead of overwriting each other.
    fault_factor: f64,
    /// Water level of the last solve: the rate per unit weight of elastic
    /// groups, and the speed of the virtual clock `V(t) = v0 + θ·(t − t0)`
    /// anchored by each solve. 0 while no elastic group runs.
    theta: f64,
    t0: SimTime,
    v0: f64,
    /// Earliest completion under the current allocation, set by each solve
    /// (every state change ends in one), so polling costs no arithmetic.
    due: Option<SimTime>,
    /// Elastic groups by finish tag.
    elastic: SlotHeap,
    /// Frozen groups by absolute finish time.
    frozen: SlotHeap,
    /// Every capped group, in breakpoint order. The frozen groups are
    /// always its prefix.
    capped: BTreeMap<(u64, u64), u32>,
    /// Elastic groups that new flows may join.
    merge: IdMap<MergeKey>,
    /// Σ weight·members over live groups; live uncapped and all groups.
    weight: f64,
    uncapped: usize,
    groups: usize,
    /// Live flows, including zero-byte flows awaiting harvest.
    flows: usize,
    /// Per meter: Σ weight·members over live groups and their count.
    meter_weight: Vec<(f64, usize)>,
    /// From the last solve: Σ cap·members of frozen groups and the weight
    /// left elastic, in total and per meter (rate, weight).
    frozen_rate: f64,
    elastic_weight: f64,
    meter_frozen: Vec<(f64, f64)>,
    total_series: StepSeries,
}

impl ChannelState {
    fn new(capacity: f64) -> Self {
        ChannelState {
            capacity,
            fault_factor: 1.0,
            theta: 0.0,
            t0: SimTime::ZERO,
            v0: 0.0,
            due: None,
            elastic: SlotHeap::default(),
            frozen: SlotHeap::default(),
            capped: BTreeMap::new(),
            merge: IdMap::default(),
            weight: 0.0,
            uncapped: 0,
            groups: 0,
            flows: 0,
            meter_weight: Vec::new(),
            frozen_rate: 0.0,
            elastic_weight: 0.0,
            meter_frozen: Vec::new(),
            total_series: StepSeries::new(),
        }
    }

    /// The virtual clock at `t` (not before the last solve).
    #[inline]
    fn v_at(&self, t: SimTime) -> f64 {
        self.v0 + self.theta * (t - self.t0)
    }

    /// When the elastic group with the smallest tag completes, if any runs.
    #[inline]
    fn elastic_due(&self) -> Option<SimTime> {
        let top = self.elastic.peek()?;
        (self.theta > 0.0).then(|| self.t0.after(((top.key - self.v0) / self.theta).max(0.0)))
    }

    /// When the earliest frozen group completes, unless all are stalled.
    #[inline]
    fn frozen_due(&self) -> Option<SimTime> {
        let top = self.frozen.peek()?;
        let at = SimTime::from_secs(top.key);
        (!at.is_far_future()).then_some(at)
    }

    fn next_completion(&self) -> Option<SimTime> {
        [self.elastic_due(), self.frozen_due()]
            .into_iter()
            .flatten()
            .min()
    }

    /// Rate of a meter's flows on this channel.
    fn meter_rate(&self, m: usize) -> f64 {
        let (rate, frozen_weight) = self.meter_frozen[m];
        rate + self.theta * (self.meter_weight[m].0 - frozen_weight).max(0.0)
    }
}

/// The fluid PFS engine. See module docs.
pub struct Pfs {
    channels: [ChannelState; 2],
    /// Group slab; freed slots are listed in `free`.
    groups: Vec<Group>,
    free: Vec<u32>,
    now: SimTime,
    next_flow: u64,
    next_seq: u64,
    meter_series: Vec<StepSeries>,
    /// Live flow → group slot, for cap changes and harvests.
    locator: IdMap<FlowId>,
    /// Zero-byte flows, completed at their submit instant by the next
    /// advance.
    instant: Vec<(FlowId, Channel)>,
    record: bool,
    stats: PfsStats,
    /// Resident buffer of the groups a solve moves between states.
    transitions: Vec<u32>,
}

/// Bytes below which a flow counts as finished (guards FP drift).
const EPSILON_BYTES: f64 = 1e-6;

impl Pfs {
    /// Creates a PFS with the given channel capacities. Recording of rate
    /// series is enabled by default.
    pub fn new(config: PfsConfig) -> Self {
        for c in [config.write_capacity, config.read_capacity] {
            assert!(c >= 0.0 && c.is_finite(), "capacity must be finite");
        }
        Pfs {
            channels: [
                ChannelState::new(config.write_capacity),
                ChannelState::new(config.read_capacity),
            ],
            groups: Vec::new(),
            free: Vec::new(),
            now: SimTime::ZERO,
            next_flow: 0,
            next_seq: 0,
            meter_series: Vec::new(),
            locator: IdMap::default(),
            instant: Vec::new(),
            record: true,
            stats: PfsStats::default(),
            transitions: Vec::new(),
        }
    }

    /// Disables rate-series recording (large sweeps that only need times).
    pub fn set_recording(&mut self, on: bool) {
        self.record = on;
    }

    /// Current virtual time of the PFS state.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The engine's work counters so far.
    pub fn stats(&self) -> PfsStats {
        self.stats
    }

    /// Allocates a new bandwidth meter.
    pub fn meter(&mut self) -> MeterId {
        let id = MeterId(self.meter_series.len());
        self.meter_series.push(StepSeries::new());
        for ch in &mut self.channels {
            ch.meter_weight.push((0.0, 0));
            ch.meter_frozen.push((0.0, 0.0));
        }
        id
    }

    /// The recorded aggregate rate of a meter.
    pub fn meter_series(&self, meter: MeterId) -> &StepSeries {
        &self.meter_series[meter.0]
    }

    /// The recorded aggregate rate of a whole channel.
    pub fn total_series(&self, channel: Channel) -> &StepSeries {
        &self.channels[channel.index()].total_series
    }

    /// Number of in-flight flows on a channel. O(1).
    pub fn active_flows(&self, channel: Channel) -> usize {
        self.channels[channel.index()].flows
    }

    /// Submits `count` identical flows at time `t`; returns their ids.
    ///
    /// `t` must be ≥ all previously observed times, and completions due by
    /// `t` must have been harvested. Zero-byte flows complete at `t`: the
    /// next [`Pfs::advance_to`] reports them, even on a stalled channel.
    pub fn submit_many(
        &mut self,
        t: SimTime,
        channel: Channel,
        spec: FlowSpec,
        count: usize,
    ) -> Vec<FlowId> {
        assert!(count > 0, "need at least one flow");
        let first = self.enqueue(t, channel, spec, count);
        (first..first + count as u64).map(FlowId).collect()
    }

    /// Submits a single flow. See [`Pfs::submit_many`].
    ///
    /// Allocation-free in steady state: the id goes straight into a
    /// (possibly recycled) group slot.
    pub fn submit(&mut self, t: SimTime, channel: Channel, spec: FlowSpec) -> FlowId {
        FlowId(self.enqueue(t, channel, spec, 1))
    }

    /// Adds `count` flows of `spec`, merging them into an identical elastic
    /// group if one exists. Returns the first (consecutive) flow id.
    fn enqueue(&mut self, t: SimTime, channel: Channel, spec: FlowSpec, count: usize) -> u64 {
        assert!(spec.bytes >= 0.0, "bytes must be non-negative");
        assert!(spec.weight > 0.0, "weight must be positive");
        if let Some(c) = spec.cap {
            assert!(c >= 0.0, "caps must be non-negative");
        }
        let done = self.advance_to(t);
        assert!(
            done.is_empty(),
            "advance_to before submit returned unharvested completions; \
             call advance_to(t) and handle them first"
        );
        let first = self.next_flow;
        self.next_flow += count as u64;
        self.stats.submits += count as u64;
        let c = channel.index();
        self.channels[c].flows += count;
        if spec.bytes == 0.0 {
            self.instant
                .extend((first..first + count as u64).map(|f| (FlowId(f), channel)));
            return first;
        }
        let ch = &self.channels[c];
        let tag = ch.v_at(self.now) + spec.bytes / spec.weight;
        let key = MergeKey::new(tag, spec.weight, spec.cap, spec.meter);
        let slot = match ch.merge.get(&key) {
            Some(&slot) => {
                self.add_weight(slot, count);
                slot
            }
            None => {
                let slot = self.alloc_group(c, &spec);
                self.groups[slot as usize].members.reserve(count);
                self.link(slot, tag, count);
                slot
            }
        };
        let members = &mut self.groups[slot as usize].members;
        for f in first..first + count as u64 {
            members.push(FlowId(f));
            self.locator.insert(FlowId(f), slot);
        }
        self.solve(c);
        first
    }

    /// Changes the rate cap of one in-flight flow at time `t`.
    ///
    /// The flow is split out of its group if needed. No-op for unknown or
    /// already-completed flows.
    pub fn set_cap(&mut self, t: SimTime, flow: FlowId, cap: Option<f64>) {
        if let Some(c) = cap {
            assert!(c >= 0.0, "caps must be non-negative");
        }
        let done = self.advance_to(t);
        assert!(done.is_empty(), "handle completions before set_cap");
        let Some(&slot) = self.locator.get(&flow) else {
            return;
        };
        let g = &self.groups[slot as usize];
        if g.cap == cap {
            return;
        }
        let c = g.channel;
        let tag = self.tag_now(slot);
        if g.members.len() == 1 {
            self.unlink(slot, 1);
            self.groups[slot as usize].cap = cap;
            self.link(slot, tag, 1);
        } else {
            // Split this member into its own group.
            let g = &mut self.groups[slot as usize];
            let at = g.members.iter().position(|&m| m == flow);
            g.members.remove(at.invariant("located flow is a member"));
            let spec = FlowSpec {
                bytes: 0.0,
                weight: g.weight,
                cap,
                meter: g.meter,
            };
            self.sub_weight(slot, 1);
            let split = self.alloc_group(c, &spec);
            self.groups[split as usize].members.push(flow);
            self.locator.insert(flow, split);
            self.link(split, tag, 1);
        }
        self.solve(c);
    }

    /// Changes a channel's capacity at time `t` (capacity noise, Fig. 14).
    pub fn set_capacity(&mut self, t: SimTime, channel: Channel, capacity: f64) {
        assert!(capacity >= 0.0 && capacity.is_finite());
        let done = self.advance_to(t);
        assert!(done.is_empty(), "handle completions before set_capacity");
        self.channels[channel.index()].capacity = capacity;
        self.solve(channel.index());
    }

    /// Applies a fault-plan capacity multiplier to a channel at time `t`
    /// (0 = outage: every flow water-fills to rate 0 and completions freeze
    /// until the factor is restored). Composes with [`Pfs::set_capacity`]:
    /// the effective capacity is `capacity × fault_factor`.
    pub fn set_fault_factor(&mut self, t: SimTime, channel: Channel, factor: f64) {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "fault factor must be non-negative"
        );
        let done = self.advance_to(t);
        assert!(
            done.is_empty(),
            "handle completions before set_fault_factor"
        );
        self.channels[channel.index()].fault_factor = factor;
        self.solve(channel.index());
    }

    /// The current fault-plan capacity multiplier of a channel.
    pub fn fault_factor(&self, channel: Channel) -> f64 {
        self.channels[channel.index()].fault_factor
    }

    /// Earliest future completion across both channels, if any flow is live.
    /// Returns `None` when idle or when all live flows are stalled (rate 0).
    ///
    /// O(1): each channel answers from the tops of its two heaps.
    pub fn next_completion(&self) -> Option<SimTime> {
        if !self.instant.is_empty() {
            return Some(self.now);
        }
        let due = self.channels.iter().filter_map(|ch| ch.due);
        due.min().map(|d| d.max(self.now))
    }

    /// Advances the fluid state to time `t`, returning every flow that
    /// completed at or before `t` with its completion time, in time order.
    ///
    /// Allocates only when completions exist; event-loop callers should
    /// prefer [`Pfs::advance_into`] with a resident buffer.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<(SimTime, FlowId)> {
        let mut completed = Vec::new();
        self.advance_into(t, &mut completed);
        completed
    }

    /// Allocation-free form of [`Pfs::advance_to`]: appends completions to
    /// `completed` (not cleared first).
    pub fn advance_into(&mut self, t: SimTime, completed: &mut Vec<(SimTime, FlowId)>) {
        assert!(
            t >= self.now,
            "PFS cannot move backwards: {t:?} < {:?}",
            self.now
        );
        if !self.instant.is_empty() {
            for (id, channel) in self.instant.drain(..) {
                completed.push((self.now, id));
                self.channels[channel.index()].flows -= 1;
                self.stats.completions += 1;
            }
        }
        loop {
            let step = match self.next_completion() {
                Some(due) if due <= t => due,
                _ => {
                    self.now = t;
                    return;
                }
            };
            self.now = step;
            for c in 0..2 {
                if self.harvest(c, step, completed) {
                    self.solve(c);
                }
            }
        }
    }

    /// Completes every group of channel `c` that is finished at `step`.
    /// Returns whether any was.
    fn harvest(&mut self, c: usize, step: SimTime, completed: &mut Vec<(SimTime, FlowId)>) -> bool {
        // The threshold must absorb float residue AND the case where a
        // group's remainder maps to a time increment below the ulp of `now`
        // (otherwise the loop would spin at dt = 0 forever): any remainder
        // the clock cannot resolve counts as finished.
        let ch = &self.channels[c];
        if ch.due.is_none_or(|due| due > step) {
            return false;
        }
        let time_ulp = step.as_secs().abs() * 2.3e-16 + 1e-18;
        let mut any = false;
        if let (Some(due), Some(top)) = (ch.elastic_due(), ch.elastic.peek()) {
            if due <= step {
                // The due group is finished by construction: settle the
                // clock on its tag so rounding cannot leave it behind.
                let v = ch.v_at(step).max(top.key);
                let theta = ch.theta;
                let ch = &mut self.channels[c];
                ch.v0 = v;
                ch.t0 = step;
                while let Some(top) = self.channels[c].elastic.peek() {
                    let w = self.groups[top.slot as usize].weight;
                    let eps = (EPSILON_BYTES / w).max(theta * time_ulp * 4.0);
                    if top.key - v > eps {
                        break;
                    }
                    self.retire(top.slot, step, completed);
                    any = true;
                }
            }
        }
        while let Some(top) = self.channels[c].frozen.peek() {
            let cap = self.groups[top.slot as usize].cap.unwrap_or(0.0);
            let finish = SimTime::from_secs(top.key);
            let left = (top.key - step.as_secs()) * cap;
            let done = finish <= step
                || (!finish.is_far_future() && left <= EPSILON_BYTES.max(cap * time_ulp * 4.0));
            if !done {
                break;
            }
            self.retire(top.slot, step, completed);
            any = true;
        }
        any
    }

    /// Reports a finished group's members as completed at `at` and frees it.
    fn retire(&mut self, slot: u32, at: SimTime, completed: &mut Vec<(SimTime, FlowId)>) {
        let n = self.groups[slot as usize].members.len();
        self.unlink(slot, n);
        let g = &mut self.groups[slot as usize];
        for &m in &g.members {
            self.locator.remove(&m);
            completed.push((at, m));
        }
        g.members.clear();
        self.channels[g.channel].flows -= n;
        self.stats.completions += n as u64;
        self.free.push(slot);
    }

    /// Takes a free group slot for a new, unlinked group of `spec`'s shape.
    fn alloc_group(&mut self, channel: usize, spec: &FlowSpec) -> u32 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let fresh = Group {
            members: Vec::new(),
            channel,
            weight: spec.weight,
            cap: spec.cap,
            meter: spec.meter,
            seq,
            state: State::Elastic { tag: 0.0 },
        };
        match self.free.pop() {
            Some(slot) => {
                let g = &mut self.groups[slot as usize];
                let members = std::mem::take(&mut g.members);
                *g = Group { members, ..fresh };
                slot
            }
            None => {
                self.groups.push(fresh);
                (self.groups.len() - 1) as u32
            }
        }
    }

    /// The finish tag group `slot` would hold if elastic now.
    fn tag_now(&self, slot: u32) -> f64 {
        let g = &self.groups[slot as usize];
        let ch = &self.channels[g.channel];
        let v = ch.v_at(self.now);
        match g.state {
            State::Elastic { tag } => tag,
            State::Frozen { .. } => v + self.frozen_left(g) / g.weight,
        }
    }

    /// Bytes per member a frozen group has left now.
    fn frozen_left(&self, g: &Group) -> f64 {
        match g.state {
            State::Frozen { rem, since, finish } if finish > self.now => {
                (rem - g.cap.unwrap_or(0.0) * (self.now - since)).max(0.0)
            }
            _ => 0.0,
        }
    }

    /// Inserts group `slot` (holding `n` members, or about to) into its
    /// channel as an elastic group with finish tag `tag`.
    fn link(&mut self, slot: u32, tag: f64, n: usize) {
        let g = &self.groups[slot as usize];
        let ch = &mut self.channels[g.channel];
        match g.cap {
            Some(cap) => {
                ch.capped.insert(breakpoint_key(cap, g), slot);
            }
            None => ch.uncapped += 1,
        }
        ch.groups += 1;
        let live = self.channels.iter().map(|ch| ch.groups as u64).sum();
        self.stats.peak_groups = self.stats.peak_groups.max(live);
        self.add_weight(slot, n);
        self.enter(slot, State::Elastic { tag });
    }

    /// Removes group `slot` (holding `n` members) from its channel's
    /// structures; the inverse of [`Pfs::link`].
    fn unlink(&mut self, slot: u32, n: usize) {
        self.sub_weight(slot, n);
        self.leave(slot);
        let g = &self.groups[slot as usize];
        let ch = &mut self.channels[g.channel];
        match g.cap {
            Some(cap) => {
                ch.capped.remove(&breakpoint_key(cap, g));
            }
            None => ch.uncapped -= 1,
        }
        ch.groups -= 1;
        if ch.groups == 0 {
            ch.weight = 0.0;
        }
    }

    /// Files group `slot` under `state`: elastic groups in the tag heap and
    /// the merge map, frozen ones in the finish-time heap.
    fn enter(&mut self, slot: u32, state: State) {
        let g = &mut self.groups[slot as usize];
        g.state = state;
        let ch = &mut self.channels[g.channel];
        let touched = &mut self.stats.touched;
        match state {
            State::Elastic { tag } => {
                ch.elastic.push(tag, g.seq, slot, touched);
                ch.merge.entry(MergeKey::of(tag, g)).or_insert(slot);
            }
            State::Frozen { finish, .. } => ch.frozen.push(finish.as_secs(), g.seq, slot, touched),
        }
    }

    /// Takes group `slot` out of the index its state files it under.
    fn leave(&mut self, slot: u32) {
        let g = &self.groups[slot as usize];
        let ch = &mut self.channels[g.channel];
        match g.state {
            State::Elastic { tag } => {
                ch.elastic.remove(slot, &mut self.stats.touched);
                if let Entry::Occupied(e) = ch.merge.entry(MergeKey::of(tag, g)) {
                    if *e.get() == slot {
                        e.remove();
                    }
                }
            }
            State::Frozen { .. } => ch.frozen.remove(slot, &mut self.stats.touched),
        }
    }

    /// Accounts `n` more members of group `slot` in its channel's weights.
    fn add_weight(&mut self, slot: u32, n: usize) {
        let g = &self.groups[slot as usize];
        let ch = &mut self.channels[g.channel];
        let w = g.weight * n as f64;
        ch.weight += w;
        if let Some(m) = g.meter {
            ch.meter_weight[m.0].0 += w;
            ch.meter_weight[m.0].1 += n;
        }
    }

    /// Accounts `n` fewer members of group `slot`; sums reset to exactly 0
    /// once they cover nothing, so float residue cannot accumulate.
    fn sub_weight(&mut self, slot: u32, n: usize) {
        let g = &self.groups[slot as usize];
        let ch = &mut self.channels[g.channel];
        let w = g.weight * n as f64;
        ch.weight -= w;
        if let Some(m) = g.meter {
            let e = &mut ch.meter_weight[m.0];
            e.1 -= n;
            e.0 = if e.1 == 0 { 0.0 } else { e.0 - w };
        }
    }

    /// Re-solves the water level of channel `c` after a state change at
    /// `now`, moves capped groups between the elastic and frozen states as
    /// the level requires, and records series.
    ///
    /// Mirrors [`crate::alloc::water_fill`]'s breakpoint walk operation for
    /// operation, over the capped groups only: uncapped groups never
    /// freeze, so their total weight is all the solve needs of them.
    fn solve(&mut self, c: usize) {
        self.stats.solves += 1;
        let now = self.now;
        let ch = &mut self.channels[c];
        // Re-anchor the virtual clock at `now` under the outgoing level.
        ch.v0 = ch.v_at(now);
        ch.t0 = now;
        for e in &mut ch.meter_frozen {
            *e = (0.0, 0.0);
        }
        let mut remaining = ch.capacity * ch.fault_factor;
        let mut active = ch.weight;
        let mut theta = f64::INFINITY;
        let mut frozen_rate = 0.0;
        let mut n_frozen = 0usize;
        for (&(bp, _), &slot) in &ch.capped {
            self.stats.touched += 1;
            if active <= 0.0 {
                break;
            }
            let candidate = remaining / active;
            if candidate <= f64::from_bits(bp) {
                theta = candidate;
                break;
            }
            let g = &self.groups[slot as usize];
            let n = g.members.len() as f64;
            let cap = g.cap.invariant("capped group") * n;
            let w = g.weight * n;
            remaining -= cap;
            active -= w;
            if remaining < 0.0 {
                // Caps alone exceed capacity: θ binds below this breakpoint.
                remaining += cap;
                active += w;
                theta = remaining / active;
                break;
            }
            frozen_rate += cap;
            if let Some(m) = g.meter {
                ch.meter_frozen[m.0].0 += cap;
                ch.meter_frozen[m.0].1 += w;
            }
            n_frozen += 1;
        }
        if theta.is_infinite() && ch.uncapped > 0 && active > 0.0 {
            theta = remaining / active;
        }
        // The frozen groups are the first `n_frozen` in breakpoint order;
        // before this solve they were a (possibly different) prefix.
        self.transitions.clear();
        let mut seen = 0;
        let was_frozen = ch.frozen.items.len();
        for (i, &slot) in ch.capped.values().enumerate() {
            if i >= n_frozen && seen == was_frozen {
                break;
            }
            self.stats.touched += 1;
            let frozen = matches!(self.groups[slot as usize].state, State::Frozen { .. });
            seen += frozen as usize;
            if (i < n_frozen) != frozen {
                self.transitions.push(slot);
            }
        }
        ch.frozen_rate = frozen_rate;
        ch.elastic_weight = active;
        for i in 0..self.transitions.len() {
            self.toggle(self.transitions[i]);
        }
        let ch = &mut self.channels[c];
        if ch.elastic.items.is_empty() || theta.is_infinite() {
            // No elastic group runs (θ = ∞ means capacity does not bind,
            // which with a finite capacity leaves no group elastic).
            // With none left, no tag refers to the clock, so rebase it.
            ch.theta = 0.0;
            ch.elastic_weight = 0.0;
            if ch.elastic.items.is_empty() {
                ch.v0 = 0.0;
            }
        } else {
            ch.theta = theta;
        }
        ch.due = ch.next_completion();
        if self.record {
            self.record_series(c);
        }
    }

    /// Moves a capped group between the frozen and elastic states at `now`,
    /// carrying its remaining bytes across.
    fn toggle(&mut self, slot: u32) {
        let now = self.now;
        let g = &self.groups[slot as usize];
        let v = self.channels[g.channel].v0;
        let state = match g.state {
            State::Elastic { tag } => {
                let rem = ((tag - v) * g.weight).max(0.0);
                let cap = g.cap.invariant("capped group");
                let finish = if rem == 0.0 {
                    now
                } else {
                    now.after(rem / cap)
                };
                State::Frozen {
                    rem,
                    since: now,
                    finish,
                }
            }
            State::Frozen { .. } => State::Elastic {
                tag: v + self.frozen_left(g) / g.weight,
            },
        };
        self.leave(slot);
        self.enter(slot, state);
    }

    fn record_series(&mut self, c: usize) {
        let now = self.now;
        let ch = &mut self.channels[c];
        ch.total_series
            .push(now, ch.frozen_rate + ch.theta * ch.elastic_weight);
        // Meter rates are summed across BOTH channels (a meter may track read
        // and write flows of the same job). Every allocated meter is updated
        // so rates fall back to 0 once its flows complete.
        for (m, s) in self.meter_series.iter_mut().enumerate() {
            // StepSeries run-length-codes, so repeated zeros cost nothing.
            s.push(
                now,
                self.channels[0].meter_rate(m) + self.channels[1].meter_rate(m),
            );
        }
    }

    /// Test support: asserts that the incremental state agrees with a
    /// from-scratch recomputation: rates against [`water_fill`] over the
    /// live groups (in creation order, so ties break alike), heap, set and
    /// counter membership against a scan, and the indexed next completion
    /// against a rescan of every group.
    #[doc(hidden)]
    pub fn validate_invariants(&self) {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs()) + 1e-300;
        for (ci, ch) in self.channels.iter().enumerate() {
            let mut live: Vec<(u32, &Group)> = self
                .groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.channel == ci && !g.members.is_empty())
                .map(|(i, g)| (i as u32, g))
                .collect();
            live.sort_by_key(|(_, g)| g.seq);
            assert_eq!(live.len(), ch.groups, "channel {ci}: live group count");
            let flows: usize = live.iter().map(|(_, g)| g.members.len()).sum();
            let pending = self.instant.iter().filter(|(_, c)| c.index() == ci).count();
            assert_eq!(flows + pending, ch.flows, "channel {ci}: live flow count");
            let weight: f64 = live
                .iter()
                .map(|(_, g)| g.weight * g.members.len() as f64)
                .sum();
            assert!(
                close(weight, ch.weight),
                "channel {ci}: weight {weight} vs {}",
                ch.weight
            );
            let demands: Vec<Demand> = live
                .iter()
                .map(|(_, g)| Demand {
                    count: g.members.len(),
                    weight: g.weight,
                    cap: g.cap,
                })
                .collect();
            let fresh = water_fill(ch.capacity * ch.fault_factor, &demands);
            let mut scan: Option<f64> = None;
            let (mut n_elastic, mut n_frozen) = (0, 0);
            for ((slot, g), &r) in live.iter().zip(&fresh.rates) {
                for m in &g.members {
                    assert_eq!(self.locator.get(m), Some(slot), "locator of {m:?}");
                }
                let (rate, left) = match g.state {
                    State::Elastic { tag } => {
                        n_elastic += 1;
                        assert_eq!(
                            ch.elastic.items[ch.elastic.pos[*slot as usize] as usize].slot,
                            *slot
                        );
                        (ch.theta * g.weight, (tag - ch.v_at(self.now)) * g.weight)
                    }
                    State::Frozen { .. } => {
                        n_frozen += 1;
                        assert_eq!(
                            ch.frozen.items[ch.frozen.pos[*slot as usize] as usize].slot,
                            *slot
                        );
                        (
                            g.cap.invariant("frozen groups are capped"),
                            self.frozen_left(g),
                        )
                    }
                };
                assert!(
                    close(rate, r) || (rate - r).abs() <= 1e-12 * ch.capacity,
                    "channel {ci} group {slot}: incremental rate {rate} != from-scratch {r}"
                );
                if rate > 0.0 {
                    let at = self.now.as_secs() + left.max(0.0) / rate;
                    scan = Some(scan.map_or(at, |b| b.min(at)));
                }
            }
            assert_eq!(
                n_elastic,
                ch.elastic.items.len(),
                "channel {ci}: elastic heap"
            );
            assert_eq!(n_frozen, ch.frozen.items.len(), "channel {ci}: frozen heap");
            for h in [&ch.elastic, &ch.frozen] {
                for (i, it) in h.items.iter().enumerate().skip(1) {
                    assert!(
                        !it.before(&h.items[(i - 1) / 2]),
                        "channel {ci}: heap order"
                    );
                }
            }
            let capped = live.iter().filter(|(_, g)| g.cap.is_some()).count();
            assert_eq!(capped, ch.capped.len(), "channel {ci}: capped set");
            assert_eq!(
                live.len() - capped,
                ch.uncapped,
                "channel {ci}: uncapped count"
            );
            let prefix = ch
                .capped
                .values()
                .take_while(|&&s| matches!(self.groups[s as usize].state, State::Frozen { .. }))
                .count();
            assert_eq!(
                prefix, n_frozen,
                "channel {ci}: frozen groups are not a prefix"
            );
            assert_eq!(ch.due, ch.next_completion(), "channel {ci}: cached due");
            let indexed = ch.due.map(|d| d.max(self.now).as_secs());
            match (indexed, scan) {
                (None, None) => {}
                (Some(a), Some(b)) => assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "channel {ci}: indexed completion {a} != rescanned {b}"
                ),
                (a, b) => panic!("channel {ci}: index {a:?} vs rescan {b:?}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn pfs(cap: f64) -> Pfs {
        Pfs::new(PfsConfig {
            write_capacity: cap,
            read_capacity: cap,
        })
    }

    #[test]
    fn single_flow_completes_at_bytes_over_capacity() {
        let mut p = pfs(100.0);
        let id = p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        assert_eq!(p.next_completion(), Some(t(10.0)));
        let done = p.advance_to(t(20.0));
        assert_eq!(done, vec![(t(10.0), id)]);
    }

    #[test]
    fn two_flows_share_equally() {
        let mut p = pfs(100.0);
        let a = p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        let b = p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        // Each runs at 50 B/s -> both complete at 20 s.
        let done = p.advance_to(t(30.0));
        let times: Vec<f64> = done.iter().map(|d| d.0.as_secs()).collect();
        assert_eq!(done.len(), 2);
        assert!((times[0] - 20.0).abs() < 1e-9 && (times[1] - 20.0).abs() < 1e-9);
        let ids: Vec<FlowId> = done.iter().map(|d| d.1).collect();
        assert!(ids.contains(&a) && ids.contains(&b));
    }

    #[test]
    fn late_arrival_slows_first_flow() {
        let mut p = pfs(100.0);
        let a = p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        // At t=5, a has 500 left. New flow of 250 arrives; both at 50 B/s.
        let b = p.submit(t(5.0), Channel::Write, FlowSpec::simple(250.0));
        // b finishes at 5 + 250/50 = 10; then a runs at 100 with 250 left
        // (a did 500 + 5*50 = 750 by t=10) -> finishes at 12.5.
        let done = p.advance_to(t(20.0));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].1, b);
        assert!((done[0].0.as_secs() - 10.0).abs() < 1e-9);
        assert_eq!(done[1].1, a);
        assert!((done[1].0.as_secs() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn channels_are_independent() {
        let mut p = pfs(100.0);
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        p.submit(t(0.0), Channel::Read, FlowSpec::simple(1000.0));
        // No interference: both complete at t=10.
        let done = p.advance_to(t(15.0));
        assert_eq!(done.len(), 2);
        for (ct, _) in done {
            assert!((ct.as_secs() - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn capped_flow_obeys_cap() {
        let mut p = pfs(100.0);
        let spec = FlowSpec {
            bytes: 100.0,
            weight: 1.0,
            cap: Some(10.0),
            meter: None,
        };
        p.submit(t(0.0), Channel::Write, spec);
        let done = p.advance_to(t(20.0));
        assert!((done[0].0.as_secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cap_change_mid_flight() {
        let mut p = pfs(100.0);
        let id = p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        // After 5 s at 100 B/s: 500 left. Cap to 25 B/s -> 20 more seconds.
        p.set_cap(t(5.0), id, Some(25.0));
        let done = p.advance_to(t(100.0));
        assert!((done[0].0.as_secs() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn group_merge_keeps_individual_ids() {
        let mut p = pfs(100.0);
        let ids = p.submit_many(t(0.0), Channel::Write, FlowSpec::simple(50.0), 4);
        assert_eq!(ids.len(), 4);
        assert_eq!(p.active_flows(Channel::Write), 4);
        // One group internally.
        assert_eq!(p.channels[0].groups, 1);
        let done = p.advance_to(t(10.0));
        assert_eq!(done.len(), 4);
        // 4 flows à 50 B at 25 B/s each -> t = 2.
        assert!((done[0].0.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn same_spec_same_time_submits_merge() {
        let mut p = pfs(100.0);
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(50.0));
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(50.0));
        assert_eq!(p.channels[0].groups, 1);
    }

    #[test]
    fn split_on_cap_change_in_group() {
        let mut p = pfs(100.0);
        let ids = p.submit_many(t(0.0), Channel::Write, FlowSpec::simple(100.0), 2);
        p.set_cap(t(0.0), ids[0], Some(10.0));
        // ids[0] at 10 B/s (done at 10 s); ids[1] at 90 B/s (done at ~1.11 s).
        let done = p.advance_to(t(20.0));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].1, ids[1]);
        assert!((done[0].0.as_secs() - 100.0 / 90.0).abs() < 1e-9);
        assert_eq!(done[1].1, ids[0]);
        assert!((done[1].0.as_secs() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn capacity_change_respected() {
        let mut p = pfs(100.0);
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        p.set_capacity(t(5.0), Channel::Write, 50.0);
        // 500 left at 50 B/s -> completes at 15 s.
        let done = p.advance_to(t(30.0));
        assert!((done[0].0.as_secs() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn fault_factor_degrades_effective_capacity() {
        let mut p = pfs(100.0);
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        // Half capacity from t = 5: 500 left at 50 B/s -> completes at 15 s.
        p.set_fault_factor(t(5.0), Channel::Write, 0.5);
        assert_eq!(p.fault_factor(Channel::Write), 0.5);
        let done = p.advance_to(t(30.0));
        assert!((done[0].0.as_secs() - 15.0).abs() < 1e-9);
        p.validate_invariants();
    }

    #[test]
    fn fault_outage_freezes_then_resumes() {
        let mut p = pfs(100.0);
        let id = p.submit(t(0.0), Channel::Write, FlowSpec::simple(100.0));
        // Dead channel: the flow water-fills to rate 0 and completions freeze.
        p.set_fault_factor(t(0.5), Channel::Write, 0.0);
        assert_eq!(p.next_completion(), None);
        assert!(p.advance_to(t(10.0)).is_empty());
        // Recovery: 50 B remain at full speed -> completes at 10.5 s.
        p.set_fault_factor(t(10.0), Channel::Write, 1.0);
        let done = p.advance_to(t(20.0));
        assert_eq!(done, vec![(t(10.5), id)]);
    }

    #[test]
    fn fault_factor_composes_with_capacity_noise() {
        let mut p = pfs(100.0);
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        p.set_fault_factor(t(0.0), Channel::Write, 0.5);
        // Capacity noise halves the nominal too: effective 25 B/s.
        p.set_capacity(t(0.0), Channel::Write, 50.0);
        let done = p.advance_to(t(100.0));
        assert!((done[0].0.as_secs() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn neutral_fault_factor_changes_nothing() {
        let mut a = pfs(100.0);
        let mut b = pfs(100.0);
        a.submit(t(0.0), Channel::Write, FlowSpec::simple(777.0));
        b.submit(t(0.0), Channel::Write, FlowSpec::simple(777.0));
        b.set_fault_factor(t(0.0), Channel::Write, 1.0);
        assert_eq!(a.next_completion(), b.next_completion());
        let da = a.advance_to(t(50.0));
        let db = b.advance_to(t(50.0));
        assert_eq!(da[0].0, db[0].0);
    }

    #[test]
    fn stalled_flow_resumes_on_capacity() {
        let mut p = pfs(100.0);
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(100.0));
        p.set_capacity(t(0.0), Channel::Write, 0.0);
        assert_eq!(p.next_completion(), None);
        p.set_capacity(t(10.0), Channel::Write, 100.0);
        let done = p.advance_to(t(20.0));
        assert!((done[0].0.as_secs() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_jobs_share_by_weight() {
        let mut p = pfs(120.0);
        let a = p.submit(
            t(0.0),
            Channel::Write,
            FlowSpec {
                bytes: 300.0,
                weight: 2.0,
                cap: None,
                meter: None,
            },
        );
        let b = p.submit(
            t(0.0),
            Channel::Write,
            FlowSpec {
                bytes: 300.0,
                weight: 1.0,
                cap: None,
                meter: None,
            },
        );
        // a at 80, b at 40. a done at 3.75; then b at 120 with 150 left ->
        // 3.75 + 1.25 = 5.0.
        let done = p.advance_to(t(10.0));
        assert_eq!(done[0].1, a);
        assert!((done[0].0.as_secs() - 3.75).abs() < 1e-9);
        assert_eq!(done[1].1, b);
        assert!((done[1].0.as_secs() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn total_series_records_rates() {
        let mut p = pfs(100.0);
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(1000.0));
        p.submit(t(5.0), Channel::Write, FlowSpec::simple(250.0));
        p.advance_to(t(20.0));
        let s = p.total_series(Channel::Write);
        assert_eq!(s.value_at(t(1.0)), 100.0);
        assert_eq!(s.value_at(t(6.0)), 100.0); // still work-conserving
        assert_eq!(s.value_at(t(15.0)), 0.0);
        // Total bytes moved = integral = 1250.
        assert!((s.integral(t(0.0), t(20.0)) - 1250.0).abs() < 1e-6);
    }

    #[test]
    fn meter_tracks_only_its_flows() {
        let mut p = pfs(100.0);
        let m = p.meter();
        p.submit(
            t(0.0),
            Channel::Write,
            FlowSpec {
                bytes: 500.0,
                weight: 1.0,
                cap: None,
                meter: Some(m),
            },
        );
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(500.0));
        p.advance_to(t(20.0));
        let s = p.meter_series(m);
        assert_eq!(s.value_at(t(1.0)), 50.0);
        assert!((s.integral(t(0.0), t(20.0)) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn next_completion_none_when_idle() {
        let p = pfs(100.0);
        assert_eq!(p.next_completion(), None);
    }

    #[test]
    fn completion_index_matches_linear_scan() {
        let mut p = pfs(100.0);
        // Mixed state: several group shapes across both channels, with
        // progress and a cap change between submissions.
        p.submit_many(t(0.0), Channel::Write, FlowSpec::simple(500.0), 3);
        p.submit(
            t(0.0),
            Channel::Read,
            FlowSpec {
                bytes: 900.0,
                weight: 2.0,
                cap: Some(30.0),
                meter: None,
            },
        );
        let capped = p.submit(
            t(1.0),
            Channel::Write,
            FlowSpec {
                bytes: 400.0,
                weight: 1.0,
                cap: Some(20.0),
                meter: None,
            },
        );
        p.advance_to(t(2.0));
        p.set_cap(t(2.5), capped, Some(40.0));
        // The indexed next completion equals a rescan of every group.
        p.validate_invariants();
        // Draining must terminate, complete everything, in time order.
        let done = p.advance_to(t(1000.0));
        assert_eq!(done.len(), 5);
        assert_eq!(
            p.active_flows(Channel::Write) + p.active_flows(Channel::Read),
            0
        );
        assert!(done.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(p.next_completion(), None);
    }

    #[test]
    fn zero_byte_flow_completes_instantly() {
        let mut p = pfs(100.0);
        let id = p.submit(t(1.0), Channel::Write, FlowSpec::simple(0.0));
        assert_eq!(p.next_completion(), Some(t(1.0)));
        let done = p.advance_to(t(1.0));
        assert_eq!(done, vec![(t(1.0), id)]);
    }

    #[test]
    fn zero_byte_flow_completes_on_a_stalled_channel() {
        // Outage: the effective capacity is 0, yet a zero-byte flow has no
        // work to wait for and completes at its submit instant.
        let mut p = pfs(100.0);
        let busy = p.submit(t(0.0), Channel::Write, FlowSpec::simple(100.0));
        p.set_fault_factor(t(0.5), Channel::Write, 0.0);
        let id = p.submit(t(1.0), Channel::Write, FlowSpec::simple(0.0));
        assert_eq!(p.next_completion(), Some(t(1.0)));
        assert_eq!(p.advance_to(t(5.0)), vec![(t(1.0), id)]);
        assert_eq!(p.next_completion(), None);
        assert_eq!(p.active_flows(Channel::Write), 1);
        // The same through a zero nominal capacity.
        p.set_capacity(t(5.0), Channel::Read, 0.0);
        let ids = p.submit_many(t(5.0), Channel::Read, FlowSpec::simple(0.0), 2);
        assert_eq!(
            p.advance_to(t(9.0)),
            vec![(t(5.0), ids[0]), (t(5.0), ids[1])]
        );
        assert_eq!(p.active_flows(Channel::Read), 0);
        p.set_fault_factor(t(9.0), Channel::Write, 1.0);
        assert_eq!(p.advance_to(t(20.0)), vec![(t(9.5), busy)]);
        p.validate_invariants();
    }

    #[test]
    fn active_flows_counts_members_until_harvested() {
        let mut p = pfs(100.0);
        p.submit_many(t(0.0), Channel::Write, FlowSpec::simple(100.0), 3);
        p.submit(t(0.0), Channel::Write, FlowSpec::simple(400.0));
        p.submit(t(0.0), Channel::Read, FlowSpec::simple(0.0));
        assert_eq!(p.active_flows(Channel::Write), 4);
        assert_eq!(p.active_flows(Channel::Read), 1);
        // 4 flows at 25 B/s: the three 100 B flows finish at 4 s.
        assert_eq!(p.advance_to(t(4.0)).len(), 4);
        assert_eq!(p.active_flows(Channel::Write), 1);
        assert_eq!(p.active_flows(Channel::Read), 0);
    }

    #[test]
    fn stats_count_the_work_done() {
        let mut p = pfs(100.0);
        p.submit_many(t(0.0), Channel::Write, FlowSpec::simple(100.0), 3);
        p.submit(t(1.0), Channel::Write, FlowSpec::simple(10.0));
        p.advance_to(t(100.0));
        let s = p.stats();
        assert_eq!((s.submits, s.completions), (4, 4));
        assert_eq!(s.peak_groups, 2);
        // Two submits and two harvests each re-solve the write channel.
        assert_eq!(s.solves, 4);
        assert!(s.touched > 0);
    }

    #[test]
    fn capped_groups_freeze_and_thaw_with_the_water_level() {
        let mut p = pfs(100.0);
        let spec = |cap| FlowSpec {
            bytes: 1000.0,
            weight: 1.0,
            cap: Some(cap),
            meter: None,
        };
        // Alone, a 60 B/s cap binds; a second flow drops the fair share to
        // 50 B/s, below both caps, so both thaw to elastic.
        let a = p.submit(t(0.0), Channel::Write, spec(60.0));
        p.validate_invariants();
        let b = p.submit(t(1.0), Channel::Write, spec(70.0));
        p.validate_invariants();
        assert_eq!(p.total_series(Channel::Write).value_at(t(0.5)), 60.0);
        assert_eq!(p.total_series(Channel::Write).value_at(t(1.5)), 100.0);
        // a has 940 B left at 1 s and finishes at 1 + 940/50 = 19.8 s; b has
        // 60 B left then and runs alone at its 70 B/s cap.
        let done = p.advance_to(t(100.0));
        assert_eq!(done[0].1, a);
        assert!((done[0].0.as_secs() - 19.8).abs() < 1e-9);
        assert_eq!(done[1].1, b);
        assert!((done[1].0.as_secs() - (19.8 + 60.0 / 70.0)).abs() < 1e-9);
    }
}
