//! The group-vector fluid engine that `pfsim::Pfs` replaced, kept as a
//! test oracle.
//!
//! Every event re-solves the whole channel with [`water_fill`], stamps each
//! group's completion time, and decrements every group's remaining bytes as
//! time passes: O(groups) per event, but each step is plain enough to check
//! by eye. Behaviour is that of the replaced engine, with its completion
//! index reduced to a scan over the stamped times (the same values).

#![allow(dead_code)]

use pfsim::alloc::{water_fill, Demand};
use pfsim::{Channel, FlowId, FlowSpec, MeterId};
use simcore::{SimTime, StepSeries};

/// Bytes below which a flow counts as finished (guards FP drift).
const EPSILON_BYTES: f64 = 1e-6;

fn index(c: Channel) -> usize {
    match c {
        Channel::Write => 0,
        Channel::Read => 1,
    }
}

/// A group of identical flows progressing in lockstep.
struct Group {
    members: Vec<FlowId>,
    remaining: f64,
    weight: f64,
    cap: Option<f64>,
    meter: Option<MeterId>,
    rate: f64,
    /// Completion time stamped by the last reallocation (rate > 0 only).
    due: Option<SimTime>,
}

struct ChannelState {
    capacity: f64,
    fault_factor: f64,
    groups: Vec<Group>,
    total_series: StepSeries,
}

/// The oracle engine; mirrors the public surface of `pfsim::Pfs`.
pub struct OraclePfs {
    channels: [ChannelState; 2],
    now: SimTime,
    next_flow: u64,
    /// Meters are minted by the engine under test and registered here.
    meters: Vec<(MeterId, StepSeries)>,
}

impl OraclePfs {
    pub fn new(write_capacity: f64, read_capacity: f64) -> Self {
        let ch = |capacity| ChannelState {
            capacity,
            fault_factor: 1.0,
            groups: Vec::new(),
            total_series: StepSeries::new(),
        };
        OraclePfs {
            channels: [ch(write_capacity), ch(read_capacity)],
            now: SimTime::ZERO,
            next_flow: 0,
            meters: Vec::new(),
        }
    }

    /// Registers a meter id minted by the engine under test.
    pub fn register_meter(&mut self, id: MeterId) {
        self.meters.push((id, StepSeries::new()));
    }

    pub fn meter_series(&self, id: MeterId) -> &StepSeries {
        &self
            .meters
            .iter()
            .find(|(m, _)| *m == id)
            .expect("registered")
            .1
    }

    pub fn total_series(&self, channel: Channel) -> &StepSeries {
        &self.channels[index(channel)].total_series
    }

    pub fn active_flows(&self, channel: Channel) -> usize {
        self.channels[index(channel)]
            .groups
            .iter()
            .map(|g| g.members.len())
            .sum()
    }

    /// Submits one flow; same id sequence as `Pfs::submit`.
    pub fn submit(&mut self, t: SimTime, channel: Channel, spec: FlowSpec) -> FlowId {
        assert!(self.advance_to(t).is_empty(), "harvest before submit");
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        let ch = &mut self.channels[index(channel)];
        // Merge with an identical group (same remaining/cap/weight/meter).
        let found = ch.groups.iter_mut().find(|g| {
            g.remaining == spec.bytes
                && g.cap == spec.cap
                && g.weight == spec.weight
                && g.meter == spec.meter
        });
        match found {
            Some(g) => g.members.push(id),
            None => ch.groups.push(Group {
                members: vec![id],
                remaining: spec.bytes,
                weight: spec.weight,
                cap: spec.cap,
                meter: spec.meter,
                rate: 0.0,
                due: None,
            }),
        }
        self.reallocate(channel);
        id
    }

    /// Changes one flow's cap, splitting it out of its group if needed.
    pub fn set_cap(&mut self, t: SimTime, flow: FlowId, cap: Option<f64>) {
        assert!(self.advance_to(t).is_empty(), "harvest before set_cap");
        for channel in [Channel::Write, Channel::Read] {
            let ch = &mut self.channels[index(channel)];
            let Some(gi) = ch.groups.iter().position(|g| g.members.contains(&flow)) else {
                continue;
            };
            if ch.groups[gi].cap == cap {
                return;
            }
            if ch.groups[gi].members.len() == 1 {
                ch.groups[gi].cap = cap;
            } else {
                let g = &mut ch.groups[gi];
                g.members.retain(|&m| m != flow);
                let split = Group {
                    members: vec![flow],
                    remaining: g.remaining,
                    weight: g.weight,
                    cap,
                    meter: g.meter,
                    rate: 0.0,
                    due: None,
                };
                ch.groups.push(split);
            }
            self.reallocate(channel);
            return;
        }
    }

    pub fn set_capacity(&mut self, t: SimTime, channel: Channel, capacity: f64) {
        assert!(self.advance_to(t).is_empty(), "harvest before set_capacity");
        self.channels[index(channel)].capacity = capacity;
        self.reallocate(channel);
    }

    pub fn set_fault_factor(&mut self, t: SimTime, channel: Channel, factor: f64) {
        assert!(
            self.advance_to(t).is_empty(),
            "harvest before set_fault_factor"
        );
        self.channels[index(channel)].fault_factor = factor;
        self.reallocate(channel);
    }

    fn channel_due(&self, ci: usize) -> Option<SimTime> {
        self.channels[ci].groups.iter().filter_map(|g| g.due).min()
    }

    pub fn next_completion(&self) -> Option<SimTime> {
        match (self.channel_due(0), self.channel_due(1)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// Advances to `t`, returning every completion up to `t` in time order.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<(SimTime, FlowId)> {
        assert!(t >= self.now, "oracle cannot move backwards");
        let mut completed = Vec::new();
        loop {
            let step_to = match self.next_completion() {
                Some(ct) if ct <= t => ct,
                _ => {
                    self.progress_all(t);
                    self.now = t;
                    return completed;
                }
            };
            self.progress_all(step_to);
            self.now = step_to;
            // Any remainder the clock cannot resolve counts as finished.
            let time_ulp = step_to.as_secs().abs() * 2.3e-16 + 1e-18;
            for channel in [Channel::Write, Channel::Read] {
                let ci = index(channel);
                match self.channel_due(ci) {
                    Some(due) if due <= step_to => {}
                    _ => continue,
                }
                let before = completed.len();
                let mut i = 0;
                while i < self.channels[ci].groups.len() {
                    let g = &self.channels[ci].groups[i];
                    let eps = EPSILON_BYTES.max(g.rate * time_ulp * 4.0);
                    if g.remaining <= eps {
                        let g = self.channels[ci].groups.swap_remove(i);
                        completed.extend(g.members.iter().map(|&m| (step_to, m)));
                    } else {
                        i += 1;
                    }
                }
                assert!(completed.len() > before, "due completion harvested nothing");
                self.reallocate(channel);
            }
        }
    }

    /// Moves every group's remaining bytes forward to `t` at current rates.
    fn progress_all(&mut self, t: SimTime) {
        let dt = t - self.now;
        if dt <= 0.0 {
            return;
        }
        for ch in &mut self.channels {
            for g in &mut ch.groups {
                if g.rate > 0.0 {
                    let moved = g.rate * dt;
                    // Snap to exactly zero when the step covers the rest.
                    g.remaining = if moved >= g.remaining {
                        0.0
                    } else {
                        g.remaining - moved
                    };
                }
            }
        }
    }

    /// Re-solves `channel` from scratch, stamps completion times and
    /// records series.
    fn reallocate(&mut self, channel: Channel) {
        let now = self.now;
        let ch = &mut self.channels[index(channel)];
        let demands: Vec<Demand> = ch
            .groups
            .iter()
            .map(|g| Demand {
                count: g.members.len(),
                weight: g.weight,
                cap: g.cap,
            })
            .collect();
        let alloc = water_fill(ch.capacity * ch.fault_factor, &demands);
        for (g, &r) in ch.groups.iter_mut().zip(&alloc.rates) {
            g.rate = r;
            g.due = (r > 0.0).then(|| now.after(g.remaining / r));
        }
        let total: f64 = ch
            .groups
            .iter()
            .map(|g| g.rate * g.members.len() as f64)
            .sum();
        ch.total_series.push(now, total);
        for (m, series) in &mut self.meters {
            let rate: f64 = self
                .channels
                .iter()
                .flat_map(|ch| &ch.groups)
                .filter(|g| g.meter == Some(*m))
                .map(|g| g.rate * g.members.len() as f64)
                .sum();
            series.push(now, rate);
        }
    }
}
