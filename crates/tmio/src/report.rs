//! TMIO's output: the per-run report with rank records, application-level
//! aggregates (Eq. 3), the time decomposition behind Figs. 6/7/11, and JSON
//! serialization (the real tool's trace-file role).

use crate::regions::{sweep, Interval};
use crate::tracer::{AsyncSpan, ChannelKind, PhaseRecord, SyncInterval, ThroughputWindow};
use serde::{Deserialize, Serialize};
use simcore::{Invariant, StepSeries};
use std::sync::OnceLock;

/// Everything TMIO recorded about one run, plus modeled overheads.
///
/// `Serialize`/`Deserialize` are implemented by hand (below) so the cache
/// fields stay out of the JSON trace format.
#[derive(Clone, Debug)]
pub struct Report {
    /// Number of ranks traced.
    pub n_ranks: usize,
    /// Name of the limiting strategy used.
    pub strategy_name: String,
    /// All closed `B_{i,j}` phases.
    pub phases: Vec<PhaseRecord>,
    /// All closed `T_{i,j}` windows.
    pub windows: Vec<ThroughputWindow>,
    /// Per-request async lifetimes.
    pub spans: Vec<AsyncSpan>,
    /// Blocking I/O intervals.
    pub syncs: Vec<SyncInterval>,
    /// Per-rank end times, seconds.
    pub rank_end: Vec<f64>,
    /// Number of intercepted calls.
    pub calls: u64,
    /// Total peri-runtime overhead injected, seconds (across ranks).
    pub peri_overhead: f64,
    /// Modeled post-runtime overhead (finalize gather), seconds.
    pub post_overhead: f64,
    /// Fault events observed during the run (retries and terminal op
    /// errors); empty for fault-free runs.
    pub faults: Vec<FaultEventRecord>,
    /// Total retry backoff time across ranks, seconds (fault injection).
    pub retry_time: f64,
    /// `B_r` sweep (Eq. 3) over `phases`, computed on first query. Not
    /// serialized.
    pub(crate) required_cache: OnceLock<StepSeries>,
    /// `B_L` sweep over the limited `phases`, computed on first query. Not
    /// serialized.
    pub(crate) limit_cache: OnceLock<StepSeries>,
    /// `T` sweep over `windows`, computed on first query. Not serialized.
    pub(crate) throughput_cache: OnceLock<StepSeries>,
    /// Cached time decomposition. Not serialized.
    pub(crate) decomposition_cache: OnceLock<Decomposition>,
}

/// The serialized field set, in trace-format order. The hand-written
/// impls below must mirror what `#[derive(Serialize, Deserialize)]`
/// produced before the cache fields existed, keeping the JSON trace
/// format byte-compatible.
macro_rules! report_fields {
    ($m:ident) => {
        $m!(
            n_ranks,
            strategy_name,
            phases,
            windows,
            spans,
            syncs,
            rank_end,
            calls,
            peri_overhead,
            post_overhead,
            faults,
            retry_time
        )
    };
}

impl Serialize for Report {
    fn serialize(&self) -> serde::Value {
        macro_rules! ser {
            ($($f:ident),+) => {
                serde::Value::Map(vec![
                    $((String::from(stringify!($f)), Serialize::serialize(&self.$f)),)+
                ])
            };
        }
        report_fields!(ser)
    }
}

impl Deserialize for Report {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        macro_rules! de {
            ($($f:ident),+) => {
                Report {
                    $($f: Deserialize::deserialize(serde::__field(v, stringify!($f))?)?,)+
                    required_cache: OnceLock::new(),
                    limit_cache: OnceLock::new(),
                    throughput_cache: OnceLock::new(),
                    decomposition_cache: OnceLock::new(),
                }
            };
        }
        let report = report_fields!(de);
        for (i, p) in report.phases.iter().enumerate() {
            let limit = p.limit_during.unwrap_or(0.0);
            check_interval("phase", i, p.ts, p.te, &[p.b_required, limit])?;
        }
        for (i, w) in report.windows.iter().enumerate() {
            check_interval("window", i, w.start, w.end, &[w.bytes])?;
        }
        for (i, s) in report.spans.iter().enumerate() {
            check_interval("span", i, s.submit, s.complete, &[s.wait_enter, s.bytes])?;
        }
        for (i, s) in report.syncs.iter().enumerate() {
            check_interval("sync", i, s.begin, s.end, &[s.bytes])?;
        }
        if let Some(i) = report.rank_end.iter().position(|t| !t.is_finite()) {
            let t = report.rank_end[i];
            return Err(serde::Error::custom(format!(
                "rank_end {i}: non-finite {t}"
            )));
        }
        if !report.retry_time.is_finite() {
            let t = report.retry_time;
            return Err(serde::Error::custom(format!("retry_time: non-finite {t}")));
        }
        Ok(report)
    }
}

/// Rejects a trace interval the Eq. 3 sweep or the time decomposition
/// cannot take: a non-finite bound or value (JSON's `1e999` parses as
/// infinity) or an end before the start.
fn check_interval(
    what: &str,
    i: usize,
    start: f64,
    end: f64,
    values: &[f64],
) -> Result<(), serde::Error> {
    if ![start, end].iter().chain(values).all(|x| x.is_finite()) {
        return Err(serde::Error::custom(format!(
            "{what} {i}: non-finite interval [{start}, {end}) or value {values:?}"
        )));
    }
    if end < start {
        return Err(serde::Error::custom(format!(
            "{what} {i}: reversed interval [{start}, {end})"
        )));
    }
    Ok(())
}

/// One observed fault event: a sub-request retry or a terminal op error.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEventRecord {
    /// Virtual time of the event, seconds.
    pub t: f64,
    /// Affected rank.
    pub rank: usize,
    /// Request tag for async ops; `None` for blocking calls.
    pub tag: Option<u32>,
    /// Symbolic errno name (e.g. `"EIO"`).
    pub kind: String,
    /// Numeric errno.
    pub code: i32,
    /// Retry number (1-based) for retries; total attempts for terminal
    /// errors.
    pub retry: u32,
    /// Backoff slept before the retry, seconds (0 for terminal errors).
    pub backoff: f64,
    /// True when the op failed terminally (retries exhausted / cancelled).
    pub terminal: bool,
}

/// Aggregate split of the application time (the stacked bars of
/// Figs. 6/7/11). All values are rank-seconds summed over ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Decomposition {
    /// Blocking writes.
    pub sync_write: f64,
    /// Blocking reads.
    pub sync_read: f64,
    /// Async writes' time blocked in the matching wait.
    pub async_write_lost: f64,
    /// Async reads' time blocked in the matching wait.
    pub async_read_lost: f64,
    /// Async writes hidden behind other work.
    pub async_write_exploit: f64,
    /// Async reads hidden behind other work.
    pub async_read_exploit: f64,
    /// Remaining time: compute/communication with no I/O in flight.
    pub compute_io_free: f64,
    /// Retry backoff sleeps of the I/O threads (fault injection); zero in
    /// fault-free runs.
    pub retry_degraded: f64,
    /// Total rank-seconds (Σ rank end times).
    pub total: f64,
}

impl Decomposition {
    /// The stacked-bar percentages in the paper's order:
    /// `[sync write, sync read, async write lost, async read lost,
    ///   async write exploit, async read exploit, compute (I/O free)]`.
    pub fn percentages(&self) -> [f64; 7] {
        let t = self.total.max(1e-12);
        [
            100.0 * self.sync_write / t,
            100.0 * self.sync_read / t,
            100.0 * self.async_write_lost / t,
            100.0 * self.async_read_lost / t,
            100.0 * self.async_write_exploit / t,
            100.0 * self.async_read_exploit / t,
            100.0 * self.compute_io_free / t,
        ]
    }

    /// The stacked percentages with the retry/degraded slice appended (for
    /// fault-injected runs). The first seven entries match
    /// [`Decomposition::percentages`] when no faults fired.
    pub fn percentages_with_faults(&self) -> [f64; 8] {
        let p = self.percentages();
        let t = self.total.max(1e-12);
        [
            p[0],
            p[1],
            p[2],
            p[3],
            p[4],
            p[5],
            p[6],
            100.0 * self.retry_degraded / t,
        ]
    }

    /// "Visible I/O" (Fig. 6): blocking I/O plus async time lost in waits.
    pub fn visible_io(&self) -> f64 {
        self.sync_write + self.sync_read + self.async_write_lost + self.async_read_lost
    }

    /// Total exploitation ("async exploit") time.
    pub fn exploit(&self) -> f64 {
        self.async_write_exploit + self.async_read_exploit
    }
}

impl Report {
    /// Application-level required-bandwidth series `B_r` (Eq. 3, Fig. 4):
    /// the sweep over every rank-phase `[ts, te)` carrying `B_{i,j}`.
    /// Computed once and cached.
    pub fn required_series(&self) -> &StepSeries {
        self.required_cache.get_or_init(|| {
            let iv: Vec<Interval> = self
                .phases
                .iter()
                .map(|p| Interval {
                    ts: p.ts,
                    te: p.te,
                    value: p.b_required,
                })
                .collect();
            sweep(&iv)
        })
    }

    /// Application-level limit series `B_L`: the sweep carrying each phase's
    /// in-effect limit (phases without a limit contribute nothing).
    /// Computed once and cached.
    pub fn limit_series(&self) -> &StepSeries {
        self.limit_cache.get_or_init(|| {
            let iv: Vec<Interval> = self
                .phases
                .iter()
                .filter_map(|p| {
                    p.limit_during.map(|l| Interval {
                        ts: p.ts,
                        te: p.te,
                        value: l,
                    })
                })
                .collect();
            sweep(&iv)
        })
    }

    /// Application-level throughput series `T`: the sweep over throughput
    /// windows carrying `T_{i,j}`. Computed once and cached.
    pub fn throughput_series(&self) -> &StepSeries {
        self.throughput_cache.get_or_init(|| {
            let iv: Vec<Interval> = self
                .windows
                .iter()
                .map(|w| Interval {
                    ts: w.start,
                    te: w.end,
                    value: w.throughput(),
                })
                .collect();
            sweep(&iv)
        })
    }

    /// `max_r B_r` — the minimal application-level bandwidth such that no
    /// rank ever waits (Sec. IV-C).
    pub fn required_bandwidth(&self) -> f64 {
        self.required_series().max_value()
    }

    /// Time when the limiter first took effect (first phase with a limit in
    /// effect), for the figures' vertical "limit starts" marker.
    pub fn limit_start_time(&self) -> Option<f64> {
        self.phases
            .iter()
            .filter(|p| p.limit_during.is_some())
            .map(|p| p.ts)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }

    /// The application makespan (max rank end), seconds.
    pub fn makespan(&self) -> f64 {
        self.rank_end.iter().copied().fold(0.0, f64::max)
    }

    /// The stacked time decomposition (Figs. 6/7/11). Computed once and
    /// cached.
    pub fn decomposition(&self) -> Decomposition {
        *self
            .decomposition_cache
            .get_or_init(|| self.compute_decomposition())
    }

    fn compute_decomposition(&self) -> Decomposition {
        let mut d = Decomposition::default();
        for s in &self.syncs {
            let dur = (s.end - s.begin).max(0.0);
            match s.channel {
                ChannelKind::Write => d.sync_write += dur,
                ChannelKind::Read => d.sync_read += dur,
            }
        }
        for sp in &self.spans {
            match sp.channel {
                ChannelKind::Write => {
                    d.async_write_lost += sp.lost();
                    d.async_write_exploit += sp.exploit();
                }
                ChannelKind::Read => {
                    d.async_read_lost += sp.lost();
                    d.async_read_exploit += sp.exploit();
                }
            }
        }
        d.retry_degraded = self.retry_time;
        d.total = self.rank_end.iter().sum();
        d.compute_io_free = (d.total
            - d.sync_write
            - d.sync_read
            - d.async_write_lost
            - d.async_read_lost
            - d.async_write_exploit
            - d.async_read_exploit
            - d.retry_degraded)
            .max(0.0);
        d
    }

    /// Fig. 5/6 accounting: `(app, peri, post, total)` seconds where
    /// `total = app + post` and `peri` is already inside `app`.
    pub fn overhead_split(&self) -> (f64, f64, f64, f64) {
        let app = self.makespan();
        (
            app,
            self.peri_overhead,
            self.post_overhead,
            app + self.post_overhead,
        )
    }

    /// Serializes to the JSON trace format (the file the real TMIO writes at
    /// `MPI_Finalize` for the plotting scripts).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).invariant("report serializes")
    }

    /// Parses a JSON trace produced by [`Report::to_json`]. A phase,
    /// window, span or sync interval that is reversed or has a non-finite
    /// time or value is an error, and so is a non-finite rank end time or
    /// retry time.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{AsyncSpan, ChannelKind, PhaseRecord, SyncInterval, ThroughputWindow};

    fn sample_report() -> Report {
        Report {
            n_ranks: 2,
            strategy_name: "direct".into(),
            phases: vec![
                PhaseRecord {
                    rank: 0,
                    phase: 0,
                    ts: 0.0,
                    te: 2.0,
                    bytes: 200.0,
                    b_required: 100.0,
                    limit_during: None,
                    limit_next: Some(110.0),
                    n_requests: 1,
                },
                PhaseRecord {
                    rank: 1,
                    phase: 0,
                    ts: 1.0,
                    te: 3.0,
                    bytes: 100.0,
                    b_required: 50.0,
                    limit_during: Some(60.0),
                    limit_next: Some(55.0),
                    n_requests: 1,
                },
            ],
            windows: vec![ThroughputWindow {
                rank: 0,
                start: 0.0,
                end: 1.0,
                bytes: 200.0,
            }],
            spans: vec![AsyncSpan {
                rank: 0,
                submit: 0.0,
                complete: 1.0,
                wait_enter: 2.0,
                bytes: 200.0,
                channel: ChannelKind::Write,
            }],
            syncs: vec![SyncInterval {
                rank: 1,
                begin: 3.0,
                end: 3.5,
                bytes: 10.0,
                channel: ChannelKind::Read,
            }],
            rank_end: vec![4.0, 4.0],
            calls: 6,
            peri_overhead: 12e-6,
            post_overhead: 0.05,
            faults: Vec::new(),
            retry_time: 0.0,
            required_cache: OnceLock::new(),
            limit_cache: OnceLock::new(),
            throughput_cache: OnceLock::new(),
            decomposition_cache: OnceLock::new(),
        }
    }

    #[test]
    fn required_series_sums_overlaps() {
        let r = sample_report();
        let s = r.required_series();
        assert_eq!(s.value_at(simcore::SimTime::from_secs(0.5)), 100.0);
        assert_eq!(s.value_at(simcore::SimTime::from_secs(1.5)), 150.0);
        assert_eq!(s.value_at(simcore::SimTime::from_secs(2.5)), 50.0);
        assert_eq!(r.required_bandwidth(), 150.0);
    }

    #[test]
    fn limit_series_only_limited_phases() {
        let r = sample_report();
        let s = r.limit_series();
        assert_eq!(s.value_at(simcore::SimTime::from_secs(0.5)), 0.0);
        assert_eq!(s.value_at(simcore::SimTime::from_secs(1.5)), 60.0);
    }

    #[test]
    fn throughput_series_from_windows() {
        let r = sample_report();
        let s = r.throughput_series();
        assert_eq!(s.value_at(simcore::SimTime::from_secs(0.5)), 200.0);
        assert_eq!(s.value_at(simcore::SimTime::from_secs(1.5)), 0.0);
    }

    #[test]
    fn decomposition_categories() {
        let r = sample_report();
        let d = r.decomposition();
        // Span: exploit = min(1,2)-0 = 1; lost = max(0, 1-2) = 0.
        assert_eq!(d.async_write_exploit, 1.0);
        assert_eq!(d.async_write_lost, 0.0);
        assert_eq!(d.sync_read, 0.5);
        assert_eq!(d.total, 8.0);
        assert_eq!(d.compute_io_free, 8.0 - 1.0 - 0.5);
        let p = d.percentages();
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn retry_time_becomes_its_own_slice() {
        let mut r = sample_report();
        r.retry_time = 0.5;
        let d = r.decomposition();
        assert_eq!(d.retry_degraded, 0.5);
        // Backoff sleeps come out of the I/O-free remainder.
        assert_eq!(d.compute_io_free, 8.0 - 1.0 - 0.5 - 0.5);
        let p7 = d.percentages();
        let p8 = d.percentages_with_faults();
        assert_eq!(&p8[..7], &p7[..], "seven-way split must not change");
        assert!((p8.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fault_records_roundtrip_json() {
        let mut r = sample_report();
        r.faults.push(FaultEventRecord {
            t: 1.25,
            rank: 1,
            tag: Some(3),
            kind: "EIO".into(),
            code: 5,
            retry: 2,
            backoff: 2e-3,
            terminal: false,
        });
        r.retry_time = 2e-3;
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back.faults, r.faults);
        assert_eq!(back.retry_time, r.retry_time);
    }

    #[test]
    fn lost_span_counts() {
        let sp = AsyncSpan {
            rank: 0,
            submit: 0.0,
            complete: 3.0,
            wait_enter: 1.0,
            bytes: 1.0,
            channel: ChannelKind::Read,
        };
        assert_eq!(sp.exploit(), 1.0);
        assert_eq!(sp.lost(), 2.0);
    }

    #[test]
    fn json_roundtrip() {
        let r = sample_report();
        let json = r.to_json();
        let back = Report::from_json(&json).unwrap();
        assert_eq!(back.n_ranks, 2);
        assert_eq!(back.phases.len(), 2);
        assert_eq!(back.required_bandwidth(), r.required_bandwidth());
    }

    #[test]
    fn from_json_rejects_reversed_intervals() {
        let mut r = sample_report();
        r.phases[1].te = 0.5;
        let err = Report::from_json(&r.to_json()).unwrap_err();
        assert!(err.to_string().contains("phase 1: reversed"), "{err}");
        let mut r = sample_report();
        r.windows[0].end = -1.0;
        let err = Report::from_json(&r.to_json()).unwrap_err();
        assert!(err.to_string().contains("window 0: reversed"), "{err}");
        let mut r = sample_report();
        r.spans[0].complete = -0.5;
        let err = Report::from_json(&r.to_json()).unwrap_err();
        assert!(err.to_string().contains("span 0: reversed"), "{err}");
        let mut r = sample_report();
        r.syncs[0].end = 2.5;
        let err = Report::from_json(&r.to_json()).unwrap_err();
        assert!(err.to_string().contains("sync 0: reversed"), "{err}");
    }

    #[test]
    fn from_json_rejects_overflowing_time() {
        type Edit = fn(&mut Report);
        let cases: [(&str, Edit); 8] = [
            ("phase 0: non-finite", |r| r.phases[0].te = 123.25),
            ("span 0: non-finite", |r| r.spans[0].complete = 123.25),
            ("span 0: non-finite", |r| r.spans[0].wait_enter = 123.25),
            ("span 0: non-finite", |r| r.spans[0].bytes = 123.25),
            ("sync 0: non-finite", |r| r.syncs[0].end = 123.25),
            ("sync 0: non-finite", |r| r.syncs[0].bytes = 123.25),
            ("rank_end 1: non-finite", |r| r.rank_end[1] = 123.25),
            ("retry_time: non-finite", |r| r.retry_time = 123.25),
        ];
        for (want, set) in cases {
            let mut r = sample_report();
            set(&mut r);
            let json = r.to_json();
            assert_eq!(json.matches("123.25").count(), 1, "{want}");
            let err = Report::from_json(&json.replace("123.25", "1e999")).unwrap_err();
            assert!(err.to_string().contains(want), "{want}: {err}");
        }
    }

    #[test]
    fn from_json_accepts_zero_length_intervals() {
        // A request waited on at its own submit time closes a zero-length
        // phase; the trace stays valid.
        let mut r = sample_report();
        r.phases[0].te = r.phases[0].ts;
        r.windows[0].end = r.windows[0].start;
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back.phases[0].te, back.phases[0].ts);
        assert_eq!(back.required_bandwidth(), r.required_bandwidth());
    }

    #[test]
    fn limit_start_time_is_earliest_limited_phase() {
        let r = sample_report();
        assert_eq!(r.limit_start_time(), Some(1.0));
    }

    #[test]
    fn overhead_split_adds_post() {
        let r = sample_report();
        let (app, peri, post, total) = r.overhead_split();
        assert_eq!(app, 4.0);
        assert!(peri > 0.0);
        assert_eq!(total, app + post);
    }
}
