//! Streaming leakage monitor: per-window NMI scoring and deterministic
//! mid-run alarms.
//!
//! Every audit elsewhere in the workspace is an end-of-run batch
//! verdict — the [`LeakageGate`](crate::LeakageGate) only speaks after
//! the whole trace has drained. This module scores the same two
//! channels (wire size and inter-transmission gap, labeled by event
//! class) over **tumbling virtual-time windows**, so a regression that
//! starts at minute one of a long ingest raises an alarm at minute one,
//! not at the post-run gate.
//!
//! Design constraints, in order:
//!
//! 1. **Commutative merge.** A [`WindowedMonitor`] lives inside each
//!    gateway shard; the fleet-level monitor is the fold of the shard
//!    monitors via [`WindowedMonitor::absorb`]. Window counts are plain
//!    sums and the watermark is a max, so the merged monitor — and every
//!    alarm scored from it — is byte-identical at any shard or thread
//!    count.
//! 2. **Deterministic alarms.** [`WindowedMonitor::alarms`] is a pure
//!    function of merged window counts, a [`MonitorConfig`], and a seed.
//!    Permutation p-values use a per-(window, stream) seed derived with
//!    the same splitmix constant the rest of the workspace uses.
//! 3. **Cheap ingest.** Frames arrive in virtual-time order within a
//!    shard, so observations hit a "current window" fast path: scalar
//!    counter bumps plus one or two joint-count increments on the
//!    window's [`LeakageStream`]s (which keep no marginals; those are
//!    rebuilt at scoring time), and p-values are only computed for
//!    windows whose NMI already crossed the threshold.
//!
//! Alarm semantics mirror the end-of-run gate: a **size** alarm needs
//! window NMI above the threshold on a defended stream with enough
//! observations; a **timing** alarm additionally needs a significant
//! permutation p-value (gap histograms are noisy; NMI alone would
//! false-alarm on short windows); a **rejection-rate** alarm is
//! channel-independent plumbing health (an auth-failure flood, a replay
//! storm) over the same windows.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::BTreeMap;
use std::fmt;

use crate::leakage::{
    LeakageStream, LEAKAGE_MIN_OBSERVATIONS, LEAKAGE_NMI_THRESHOLD, LEAKAGE_P_THRESHOLD,
};

/// Thresholds and window shape for the streaming monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Tumbling window width in virtual microseconds (0 behaves as 1).
    pub window_us: u64,
    /// Window NMI above this on a defended stream is a leak.
    pub nmi_threshold: f64,
    /// Timing alarms additionally require a permutation p-value at or
    /// below this.
    pub p_threshold: f64,
    /// Windows with fewer observations on a channel are never scored:
    /// small-sample NMI is dominated by estimator bias.
    pub min_observations: u64,
    /// Permutations for the p-value (only run when NMI already crossed
    /// the threshold).
    pub permutations: usize,
    /// Rejected/arrived above this ratio in a window raises a
    /// rejection-rate alarm.
    pub max_rejection_rate: f64,
    /// Windows with fewer arrivals than this are never rate-checked.
    pub min_frames: u64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window_us: 1_000_000,
            nmi_threshold: LEAKAGE_NMI_THRESHOLD,
            p_threshold: LEAKAGE_P_THRESHOLD,
            min_observations: LEAKAGE_MIN_OBSERVATIONS,
            permutations: 100,
            max_rejection_rate: 0.25,
            min_frames: 50,
        }
    }
}

/// Arrival counters for one window (all streams pooled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowTraffic {
    /// Datagrams that arrived in the window, accepted or not.
    pub frames: u64,
    /// Arrivals that were accepted.
    pub accepted: u64,
    /// Arrivals that were rejected at any rung.
    pub rejected: u64,
}

impl WindowTraffic {
    fn note(&mut self, accepted: bool) {
        self.frames += 1;
        if accepted {
            self.accepted += 1;
        } else {
            self.rejected += 1;
        }
    }

    fn add(&mut self, other: &WindowTraffic) {
        self.frames += other.frames;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
    }

    /// Fraction of arrivals rejected (0 when the window is empty).
    pub fn rejection_rate(&self) -> f64 {
        if self.frames == 0 {
            return 0.0;
        }
        self.rejected as f64 / self.frames as f64
    }
}

/// Joint `(event, value)` counts for one stream in one window: the
/// size channel and the gap channel, each scored as it is.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct WindowCounts {
    sizes: LeakageStream,
    gaps: LeakageStream,
}

impl WindowCounts {
    fn is_empty(&self) -> bool {
        self.sizes.is_empty() && self.gaps.is_empty()
    }

    fn add(&mut self, other: &WindowCounts) {
        self.sizes.merge(&other.sizes);
        self.gaps.merge(&other.gaps);
    }
}

/// The NMI scores of one stream in one closed window (no p-values —
/// those are computed lazily by [`WindowedMonitor::alarms`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowScore {
    /// Window index (`virtual time / window_us`).
    pub window: u64,
    /// Stream id the score belongs to (the caller's cohort index).
    pub stream: usize,
    /// Size-channel observations in the window.
    pub observations: u64,
    /// Distinct wire sizes seen in the window.
    pub distinct_sizes: usize,
    /// Size-channel NMI for the window.
    pub nmi: f64,
    /// Gap-channel observations in the window.
    pub gap_observations: u64,
    /// Distinct gap values seen in the window.
    pub distinct_gaps: usize,
    /// Gap-channel NMI for the window.
    pub timing_nmi: f64,
}

/// Which invariant a mid-run alarm saw violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlarmKind {
    /// A defended stream's wire sizes correlated with the event class.
    SizeLeak,
    /// A defended stream's transmission gaps correlated with the event
    /// class (significant under permutation).
    TimingLeak,
    /// Too large a fraction of arrivals was rejected.
    RejectionRate,
}

impl AlarmKind {
    /// Stable lowercase name used in JSON and log lines.
    pub fn as_str(&self) -> &'static str {
        match self {
            AlarmKind::SizeLeak => "size-leak",
            AlarmKind::TimingLeak => "timing-leak",
            AlarmKind::RejectionRate => "rejection-rate",
        }
    }
}

/// One deterministic mid-run alarm.
#[derive(Debug, Clone, PartialEq)]
pub struct Alarm {
    /// What tripped.
    pub kind: AlarmKind,
    /// Window index the violation was observed in.
    pub window: u64,
    /// Window start, virtual microseconds.
    pub start_us: u64,
    /// Window end (exclusive), virtual microseconds.
    pub end_us: u64,
    /// Stream name for leak alarms; `"fleet"` for rate alarms.
    pub stream: String,
    /// Offending value: NMI for leaks, rejection ratio for rate alarms.
    pub value: f64,
    /// Permutation p-value (1.0 where not applicable).
    pub p_value: f64,
    /// Observations behind the score (channel observations for leaks,
    /// arrivals for rate alarms).
    pub observations: u64,
}

impl fmt::Display for Alarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ALARM {} stream={} window={} [{}..{}us) value={:.4} p={:.4} n={}",
            self.kind.as_str(),
            self.stream,
            self.window,
            self.start_us,
            self.end_us,
            self.value,
            self.p_value,
            self.observations,
        )
    }
}

/// Per-(window, stream) seed for the permutation test: the monitor
/// seed mixed with the window index and stream id through the
/// workspace's splitmix constant, so alarm p-values are stable across
/// shard counts, thread counts, and scoring order.
fn window_seed(seed: u64, window: u64, stream: usize) -> u64 {
    seed ^ window
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((stream as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Tumbling-window joint histograms for one shard (or, after
/// [`absorb`](WindowedMonitor::absorb), the fleet).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedMonitor {
    window_us: u64,
    /// Window currently being filled by the fast path.
    current_window: u64,
    current_traffic: WindowTraffic,
    current_streams: Vec<WindowCounts>,
    /// Closed (or out-of-order) windows.
    traffic: BTreeMap<u64, WindowTraffic>,
    streams: BTreeMap<(u64, usize), WindowCounts>,
    watermark_us: u64,
}

impl WindowedMonitor {
    /// A monitor over `streams` stream ids with the given window width.
    pub fn new(window_us: u64, streams: usize) -> WindowedMonitor {
        WindowedMonitor {
            window_us: window_us.max(1),
            current_window: 0,
            current_traffic: WindowTraffic::default(),
            current_streams: vec![WindowCounts::default(); streams],
            traffic: BTreeMap::new(),
            streams: BTreeMap::new(),
            watermark_us: 0,
        }
    }

    /// The window width in virtual microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// The window index a virtual timestamp falls into.
    pub fn window_of(&self, vtime_us: u64) -> u64 {
        vtime_us / self.window_us
    }

    /// `[start, end)` bounds of a window in virtual microseconds.
    pub fn window_bounds(&self, window: u64) -> (u64, u64) {
        (
            window.saturating_mul(self.window_us),
            window.saturating_add(1).saturating_mul(self.window_us),
        )
    }

    /// Highest virtual timestamp observed (a commutative max).
    pub fn watermark_us(&self) -> u64 {
        self.watermark_us
    }

    /// Advances the fast path to `window`, retiring the previous
    /// current window into the closed maps.
    fn roll(&mut self, vtime_us: u64) {
        self.watermark_us = self.watermark_us.max(vtime_us);
        let window = self.window_of(vtime_us);
        if window > self.current_window {
            self.flush_current();
            self.current_window = window;
        }
    }

    fn flush_current(&mut self) {
        if self.current_traffic != WindowTraffic::default() {
            self.traffic
                .entry(self.current_window)
                .or_default()
                .add(&std::mem::take(&mut self.current_traffic));
        }
        for stream in 0..self.current_streams.len() {
            if self.current_streams[stream].is_empty() {
                continue;
            }
            let counts = std::mem::take(&mut self.current_streams[stream]);
            let slot = self
                .streams
                .entry((self.current_window, stream))
                .or_default();
            if slot.is_empty() {
                *slot = counts;
            } else {
                slot.add(&counts);
            }
        }
    }

    /// Counts one arrival (accepted or not) into its window.
    pub fn observe_frame(&mut self, vtime_us: u64, accepted: bool) {
        self.roll(vtime_us);
        if self.window_of(vtime_us) == self.current_window {
            self.current_traffic.note(accepted);
        } else {
            // Out-of-order arrival behind the current window: slow path.
            self.traffic
                .entry(self.window_of(vtime_us))
                .or_default()
                .note(accepted);
        }
    }

    /// Records one accepted frame's size (and, when the session had a
    /// previous accept with an advancing stamp, its transmission gap)
    /// into the stream's window histograms.
    pub fn observe_accepted(
        &mut self,
        stream: usize,
        event: usize,
        wire_bytes: usize,
        gap_us: Option<u64>,
        vtime_us: u64,
    ) {
        self.roll(vtime_us);
        let window = self.window_of(vtime_us);
        let counts = if window == self.current_window {
            match self.current_streams.get_mut(stream) {
                Some(counts) => counts,
                None => return,
            }
        } else {
            self.streams.entry((window, stream)).or_default()
        };
        counts.sizes.observe(event, wire_bytes);
        if let Some(gap) = gap_us {
            counts.gaps.observe(event, gap as usize);
        }
    }

    /// Folds another monitor's windows into this one. Window counts are
    /// sums and the watermark is a max, so absorption is commutative
    /// and associative — the fleet monitor is identical however the
    /// shard monitors are combined.
    pub fn absorb(&mut self, other: &WindowedMonitor) {
        self.watermark_us = self.watermark_us.max(other.watermark_us);
        for (&window, traffic) in &other.traffic {
            self.traffic.entry(window).or_default().add(traffic);
        }
        if other.current_traffic != WindowTraffic::default() {
            self.traffic
                .entry(other.current_window)
                .or_default()
                .add(&other.current_traffic);
        }
        for (&key, counts) in &other.streams {
            self.streams.entry(key).or_default().add(counts);
        }
        for (stream, counts) in other.current_streams.iter().enumerate() {
            if !counts.is_empty() {
                self.streams
                    .entry((other.current_window, stream))
                    .or_default()
                    .add(counts);
            }
        }
    }

    /// Pooled arrival counters for one window.
    pub fn traffic_in(&self, window: u64) -> WindowTraffic {
        let mut total = self.traffic.get(&window).copied().unwrap_or_default();
        if window == self.current_window {
            total.add(&self.current_traffic);
        }
        total
    }

    fn counts_in(&self, window: u64, stream: usize) -> Option<WindowCounts> {
        let mut merged = self
            .streams
            .get(&(window, stream))
            .cloned()
            .unwrap_or_default();
        if window == self.current_window {
            if let Some(current) = self.current_streams.get(stream) {
                merged.add(current);
            }
        }
        if merged.is_empty() {
            None
        } else {
            Some(merged)
        }
    }

    /// Scores one stream's channels in one window; `None` if the stream
    /// saw nothing there.
    pub fn score(&self, window: u64, stream: usize) -> Option<WindowScore> {
        let WindowCounts { sizes, gaps } = self.counts_in(window, stream)?;
        Some(WindowScore {
            window,
            stream,
            observations: sizes.total(),
            distinct_sizes: sizes.distinct_sizes(),
            nmi: sizes.nmi(),
            gap_observations: gaps.total(),
            distinct_gaps: gaps.distinct_sizes(),
            timing_nmi: gaps.nmi(),
        })
    }

    /// Evaluates windows `from_window..to_window` (which the caller
    /// knows to be fully closed) against the config and returns every
    /// alarm, ordered by `(window, kind, stream)`. `names` maps stream
    /// ids to report names; only ids in `defended` are leak-checked.
    /// Permutation p-values are seeded per `(window, stream)` from
    /// `seed`, so the result is a pure function of the merged window
    /// counts — byte-identical at any shard or thread count.
    pub fn alarms(
        &self,
        config: &MonitorConfig,
        names: &[&str],
        defended: &[usize],
        seed: u64,
        from_window: u64,
        to_window: u64,
    ) -> Vec<Alarm> {
        let mut alarms = Vec::new();
        for window in from_window..to_window {
            let (start_us, end_us) = self.window_bounds(window);
            let traffic = self.traffic_in(window);
            if traffic.frames >= config.min_frames
                && traffic.rejection_rate() > config.max_rejection_rate
            {
                alarms.push(Alarm {
                    kind: AlarmKind::RejectionRate,
                    window,
                    start_us,
                    end_us,
                    stream: "fleet".to_string(),
                    value: traffic.rejection_rate(),
                    p_value: 1.0,
                    observations: traffic.frames,
                });
            }
            for &stream in defended {
                let Some(WindowCounts { sizes, gaps }) = self.counts_in(window, stream) else {
                    continue;
                };
                let name = names.get(stream).copied().unwrap_or("?");
                if sizes.total() >= config.min_observations && sizes.nmi() > config.nmi_threshold {
                    alarms.push(Alarm {
                        kind: AlarmKind::SizeLeak,
                        window,
                        start_us,
                        end_us,
                        stream: name.to_string(),
                        value: sizes.nmi(),
                        p_value: sizes
                            .permutation_p(config.permutations, window_seed(seed, window, stream)),
                        observations: sizes.total(),
                    });
                }
                if gaps.total() >= config.min_observations && gaps.nmi() > config.nmi_threshold {
                    let p = gaps.permutation_p(
                        config.permutations,
                        window_seed(seed, window, stream) ^ 0x5851_f42d_4c95_7f2d,
                    );
                    if p <= config.p_threshold {
                        alarms.push(Alarm {
                            kind: AlarmKind::TimingLeak,
                            window,
                            start_us,
                            end_us,
                            stream: name.to_string(),
                            value: gaps.nmi(),
                            p_value: p,
                            observations: gaps.total(),
                        });
                    }
                }
            }
        }
        alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = 1_000; // 1 ms windows keep test timestamps small.

    fn cfg() -> MonitorConfig {
        MonitorConfig {
            window_us: W,
            min_observations: 10,
            min_frames: 10,
            permutations: 50,
            ..MonitorConfig::default()
        }
    }

    fn names() -> Vec<&'static str> {
        vec!["AGE", "Std"]
    }

    #[test]
    fn windows_partition_virtual_time() {
        let m = WindowedMonitor::new(W, 1);
        assert_eq!(m.window_of(0), 0);
        assert_eq!(m.window_of(W - 1), 0);
        assert_eq!(m.window_of(W), 1);
        assert_eq!(m.window_bounds(3), (3 * W, 4 * W));
    }

    #[test]
    fn constant_size_stream_never_alarms() {
        let mut m = WindowedMonitor::new(W, 2);
        for i in 0..60u64 {
            let t = i * 50;
            m.observe_frame(t, true);
            m.observe_accepted(0, (i % 3) as usize, 160, Some(250), t);
        }
        let alarms = m.alarms(
            &cfg(),
            &names(),
            &[0],
            7,
            0,
            m.window_of(m.watermark_us()) + 1,
        );
        assert!(alarms.is_empty(), "constant sizes alarmed: {alarms:?}");
    }

    #[test]
    fn event_correlated_sizes_trip_a_size_alarm_in_the_right_window() {
        let mut m = WindowedMonitor::new(W, 2);
        // Window 0: constant. Window 1: size = f(event) — a leak.
        for i in 0..30u64 {
            m.observe_accepted(0, (i % 3) as usize, 160, None, i * 30);
        }
        for i in 0..30u64 {
            let event = (i % 3) as usize;
            m.observe_accepted(0, event, 100 + 40 * event, None, W + i * 30);
        }
        let alarms = m.alarms(&cfg(), &names(), &[0], 7, 0, 2);
        assert_eq!(alarms.len(), 1, "{alarms:?}");
        assert_eq!(alarms[0].kind, AlarmKind::SizeLeak);
        assert_eq!(alarms[0].window, 1);
        assert_eq!(alarms[0].stream, "AGE");
        assert!(alarms[0].value > 0.9);
    }

    #[test]
    fn event_correlated_gaps_trip_a_timing_alarm() {
        let mut m = WindowedMonitor::new(W, 1);
        for i in 0..40u64 {
            let event = (i % 3) as usize;
            m.observe_accepted(0, event, 160, Some(200 + 100 * event as u64), i * 20);
        }
        let alarms = m.alarms(&cfg(), &names(), &[0], 7, 0, 1);
        assert_eq!(alarms.len(), 1, "{alarms:?}");
        assert_eq!(alarms[0].kind, AlarmKind::TimingLeak);
        assert!(alarms[0].p_value <= 0.05);
    }

    #[test]
    fn undefended_streams_are_not_leak_checked() {
        let mut m = WindowedMonitor::new(W, 2);
        for i in 0..30u64 {
            let event = (i % 3) as usize;
            // Stream 1 (the Std baseline) leaks blatantly.
            m.observe_accepted(1, event, 50 + 90 * event, None, i * 30);
        }
        assert!(m.alarms(&cfg(), &names(), &[0], 7, 0, 1).is_empty());
        assert_eq!(m.alarms(&cfg(), &names(), &[0, 1], 7, 0, 1).len(), 1);
    }

    #[test]
    fn rejection_flood_trips_a_rate_alarm() {
        let mut m = WindowedMonitor::new(W, 1);
        for i in 0..40u64 {
            m.observe_frame(i * 20, i % 2 == 0);
        }
        let alarms = m.alarms(&cfg(), &names(), &[0], 7, 0, 1);
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].kind, AlarmKind::RejectionRate);
        assert!((alarms[0].value - 0.5).abs() < 1e-9);
        assert_eq!(alarms[0].observations, 40);
    }

    #[test]
    fn sparse_windows_stay_below_the_observation_floor() {
        let mut m = WindowedMonitor::new(W, 1);
        // A blatant leak, but only 6 observations: below min_observations.
        for i in 0..6u64 {
            let event = (i % 3) as usize;
            m.observe_accepted(0, event, 100 + 40 * event, None, i * 30);
        }
        assert!(m.alarms(&cfg(), &names(), &[0], 7, 0, 1).is_empty());
    }

    /// The determinism contract: any partition of the observations into
    /// shard-local monitors absorbs to the same scores and alarms.
    #[test]
    fn absorb_matches_single_writer() {
        let observations: Vec<(usize, usize, usize, Option<u64>, u64)> = (0..200u64)
            .map(|i| {
                let stream = (i % 2) as usize;
                let event = (i % 3) as usize;
                let size = if stream == 0 { 160 } else { 60 + 20 * event };
                (stream, event, size, Some(100 + 30 * i % 7), i * 37)
            })
            .collect();
        let mut single = WindowedMonitor::new(W, 2);
        let mut a = WindowedMonitor::new(W, 2);
        let mut b = WindowedMonitor::new(W, 2);
        for (i, &(stream, event, size, gap, t)) in observations.iter().enumerate() {
            single.observe_frame(t, true);
            single.observe_accepted(stream, event, size, gap, t);
            let part = if i % 3 == 0 { &mut a } else { &mut b };
            part.observe_frame(t, true);
            part.observe_accepted(stream, event, size, gap, t);
        }
        let mut merged = WindowedMonitor::new(W, 2);
        merged.absorb(&b);
        merged.absorb(&a);
        let last = single.window_of(single.watermark_us()) + 1;
        assert_eq!(merged.watermark_us(), single.watermark_us());
        for w in 0..last {
            assert_eq!(merged.traffic_in(w), single.traffic_in(w), "window {w}");
            for stream in 0..2 {
                assert_eq!(
                    merged.score(w, stream),
                    single.score(w, stream),
                    "window {w} stream {stream}"
                );
            }
        }
        assert_eq!(
            merged.alarms(&cfg(), &names(), &[0, 1], 9, 0, last),
            single.alarms(&cfg(), &names(), &[0, 1], 9, 0, last),
        );
    }

    #[test]
    fn out_of_order_arrivals_land_in_their_own_window() {
        let mut m = WindowedMonitor::new(W, 1);
        m.observe_accepted(0, 0, 160, None, 5 * W);
        // Late arrival for window 0 after the fast path moved on.
        m.observe_accepted(0, 1, 160, None, 10);
        m.observe_frame(5 * W, true);
        m.observe_frame(10, true);
        assert_eq!(m.score(0, 0).map(|s| s.observations), Some(1));
        assert_eq!(m.score(5, 0).map(|s| s.observations), Some(1));
        assert_eq!(m.traffic_in(0).frames, 1);
        assert_eq!(m.traffic_in(5).frames, 1);
    }

    #[test]
    fn alarm_display_is_stable() {
        let alarm = Alarm {
            kind: AlarmKind::TimingLeak,
            window: 3,
            start_us: 3000,
            end_us: 4000,
            stream: "AGE".to_string(),
            value: 0.5,
            p_value: 0.0099,
            observations: 42,
        };
        assert_eq!(
            alarm.to_string(),
            "ALARM timing-leak stream=AGE window=3 [3000..4000us) value=0.5000 p=0.0099 n=42"
        );
    }
}
