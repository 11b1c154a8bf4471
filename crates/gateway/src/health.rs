//! Health snapshots, the per-shard table, and postmortem dumps.
//!
//! Three observability surfaces live here, each with a different
//! determinism contract:
//!
//! - [`HealthSnapshot`] — one `HEALTH.jsonl` line per virtual tick.
//!   Every field is a commutative fold over shards (counters, window
//!   scores, alarm states) or a pure function of virtual time, so the
//!   JSONL stream is **byte-identical at any shard or thread count** —
//!   CI `cmp`s it at 1 vs 4 shards. The gateway reads no clock, so no
//!   field can differ run to run.
//! - [`ShardReport`] / [`shard_table`] — the per-shard ingest view.
//!   *Intentionally* shard-count-dependent: its whole point is making
//!   load imbalance visible without parsing `GATEWAY.json`.
//! - [`render_postmortem`] — the `POSTMORTEM.json` dump assembled when
//!   a windowed alarm fires, a nonce audit goes dirty, or the end-of-run
//!   gate fails. Deterministic for a given configuration; additionally
//!   shard-count-independent whenever no flight-recorder ring has
//!   evicted (the merged record list is a total sort).

use crate::shard::ShardStats;

use age_telemetry::{Alarm, FlightRecord, JsonStr};

/// The per-rung rejection counters in report order, shared by the
/// health JSONL schema, the Prometheus exposition, and the postmortem.
pub(crate) fn rung_counters(stats: &ShardStats) -> [(&'static str, u64); 8] {
    [
        ("header_truncated", stats.header_truncated),
        ("header_oversized", stats.header_oversized),
        ("unknown_sensor", stats.unknown_sensor),
        ("auth_failed", stats.auth_failed),
        ("replay_rejected", stats.replay_rejected),
        ("far_future", stats.far_future),
        ("missing_sequence", stats.missing_sequence),
        ("decode_failed", stats.decode_failed),
    ]
}

/// One shard's ingest accounting, as returned by
/// [`Gateway::shard_reports`](crate::Gateway::shard_reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Sessions provisioned into the shard.
    pub sessions: usize,
    /// The shard's datagram counters.
    pub stats: ShardStats,
}

/// Renders the per-shard table `repro --gateway` prints: one row per
/// shard with its sessions, frames, accepts and every rejection rung.
pub fn shard_table(reports: &[ShardReport]) -> String {
    let mut out = String::with_capacity(128 * (reports.len() + 1));
    out.push_str(
        "shard sessions   frames accepted  trunc oversz unknown   auth replay future  noseq nodec\n",
    );
    for report in reports {
        let s = &report.stats;
        out.push_str(&format!(
            "{:>5} {:>8} {:>8} {:>8} {:>6} {:>6} {:>7} {:>6} {:>6} {:>6} {:>6} {:>5}\n",
            report.shard,
            report.sessions,
            s.frames,
            s.accepted,
            s.header_truncated,
            s.header_oversized,
            s.unknown_sensor,
            s.auth_failed,
            s.replay_rejected,
            s.far_future,
            s.missing_sequence,
            s.decode_failed,
        ));
    }
    out
}

/// One stream's latest-closed-window scores inside a health snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamHealth {
    /// Stream (cohort) name.
    pub name: String,
    /// The scored window index.
    pub window: u64,
    /// Size-channel observations in that window.
    pub observations: u64,
    /// Size-channel NMI.
    pub nmi: f64,
    /// Gap-channel observations.
    pub gap_observations: u64,
    /// Gap-channel NMI.
    pub timing_nmi: f64,
}

/// One periodic health record — a single `HEALTH.jsonl` line.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// 1-based tick counter.
    pub tick: u64,
    /// Virtual time at the tick boundary, microseconds.
    pub virtual_us: u64,
    /// Cumulative fleet counters at the boundary.
    pub stats: ShardStats,
    /// Arrivals during this tick alone.
    pub delta_frames: u64,
    /// Arrivals per *virtual* second over this tick — the deterministic
    /// throughput figure (wall-clock frames/s lives in the bench).
    pub frames_per_vsec: f64,
    /// Latest fully-closed window's scores per stream, cohort order.
    pub streams: Vec<StreamHealth>,
    /// Alarms raised so far, this tick's included.
    pub alarms_total: u64,
    /// Alarms first raised at this tick.
    pub new_alarms: u64,
    /// Distinct alarming stream names so far, sorted (leak alarms carry
    /// the cohort name; rate alarms contribute `"fleet"`).
    pub alarming: Vec<String>,
}

impl HealthSnapshot {
    /// One stable JSONL line (trailing newline included): fixed field
    /// order, integers except the two fixed-precision floats, no
    /// wall-clock anything.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\"tick\":{},\"virtual_us\":{},\"frames\":{},\"accepted\":{},\"rejected\":{}",
            self.tick,
            self.virtual_us,
            self.stats.frames,
            self.stats.accepted,
            self.stats.rejected(),
        ));
        for (key, value) in rung_counters(&self.stats) {
            out.push_str(&format!(",\"{key}\":{value}"));
        }
        // Epoch rotations are not a rejection rung (rotated frames are
        // counted in `accepted` too), so they render outside the rung
        // block. Sum-merged like every other counter, the field is
        // byte-identical at any shard count.
        out.push_str(&format!(",\"rotations\":{}", self.stats.rotations));
        out.push_str(&format!(
            ",\"delta_frames\":{},\"frames_per_vsec\":{:.3}",
            self.delta_frames, self.frames_per_vsec,
        ));
        out.push_str(",\"windows\":[");
        for (i, stream) in self.streams.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stream\":{},\"window\":{},\"observations\":{},\"nmi\":{:.6},\"gap_observations\":{},\"timing_nmi\":{:.6}}}",
                JsonStr(&stream.name),
                stream.window,
                stream.observations,
                stream.nmi,
                stream.gap_observations,
                stream.timing_nmi,
            ));
        }
        out.push_str(&format!(
            "],\"alarms_total\":{},\"new_alarms\":{},\"alarming\":[",
            self.alarms_total, self.new_alarms,
        ));
        for (i, name) in self.alarming.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&JsonStr(name).to_string());
        }
        out.push_str("]}\n");
        out
    }

    /// Prometheus-style text exposition of this snapshot — the final
    /// tick's is what `repro --gateway --health` writes next to the
    /// JSONL stream.
    pub fn prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("# TYPE age_gateway_virtual_seconds gauge\n");
        out.push_str(&format!(
            "age_gateway_virtual_seconds {:.3}\n",
            self.virtual_us as f64 / 1e6
        ));
        out.push_str("# TYPE age_gateway_frames_total counter\n");
        out.push_str(&format!("age_gateway_frames_total {}\n", self.stats.frames));
        out.push_str("# TYPE age_gateway_accepted_total counter\n");
        out.push_str(&format!(
            "age_gateway_accepted_total {}\n",
            self.stats.accepted
        ));
        out.push_str("# TYPE age_gateway_rejected_total counter\n");
        for (rung, value) in rung_counters(&self.stats) {
            out.push_str(&format!(
                "age_gateway_rejected_total{{rung=\"{rung}\"}} {value}\n"
            ));
        }
        out.push_str("# TYPE age_gateway_rotations_total counter\n");
        out.push_str(&format!(
            "age_gateway_rotations_total {}\n",
            self.stats.rotations
        ));
        out.push_str("# TYPE age_gateway_frames_per_virtual_second gauge\n");
        out.push_str(&format!(
            "age_gateway_frames_per_virtual_second {:.3}\n",
            self.frames_per_vsec
        ));
        out.push_str("# TYPE age_gateway_window_nmi gauge\n");
        for stream in &self.streams {
            out.push_str(&format!(
                "age_gateway_window_nmi{{stream=\"{}\",channel=\"size\"}} {:.6}\n",
                stream.name, stream.nmi
            ));
            out.push_str(&format!(
                "age_gateway_window_nmi{{stream=\"{}\",channel=\"timing\"}} {:.6}\n",
                stream.name, stream.timing_nmi
            ));
        }
        out.push_str("# TYPE age_gateway_alarms_total counter\n");
        out.push_str(&format!("age_gateway_alarms_total {}\n", self.alarms_total));
        out.push_str("# TYPE age_gateway_alarming_streams gauge\n");
        out.push_str(&format!(
            "age_gateway_alarming_streams {}\n",
            self.alarming.len()
        ));
        out
    }
}

/// Renders `POSTMORTEM.json`: the trigger, every alarm so far, the
/// cumulative fleet counters, and the merged flight-recorder contents
/// in arrival order. Stable field order, fixed-precision floats, no
/// wall-clock anything — byte-deterministic for a given configuration.
pub fn render_postmortem(
    trigger: &str,
    triggered_at_us: u64,
    tick: u64,
    stats: &ShardStats,
    alarms: &[Alarm],
    records: &[FlightRecord],
    dropped_records: u64,
) -> String {
    let mut out = String::with_capacity(256 + 96 * records.len());
    out.push_str(&format!(
        "{{\n  \"version\": 1,\n  \"trigger\": {},\n  \"triggered_at_us\": {triggered_at_us},\n  \"tick\": {tick},\n  \"fleet\": {{ \"frames\": {}, \"accepted\": {}, \"rejected\": {}",
        JsonStr(trigger),
        stats.frames,
        stats.accepted,
        stats.rejected(),
    ));
    for (key, value) in rung_counters(stats) {
        out.push_str(&format!(", \"{key}\": {value}"));
    }
    out.push_str(" },\n  \"alarms\": [");
    for (i, alarm) in alarms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{ \"kind\": \"{}\", \"window\": {}, \"start_us\": {}, \"end_us\": {}, \"stream\": {}, \"value\": {:.6}, \"p_value\": {:.6}, \"observations\": {} }}",
            alarm.kind.as_str(),
            alarm.window,
            alarm.start_us,
            alarm.end_us,
            JsonStr(&alarm.stream),
            alarm.value,
            alarm.p_value,
            alarm.observations,
        ));
    }
    if alarms.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str(&format!(
        "  \"retained_records\": {},\n  \"dropped_records\": {dropped_records},\n  \"records\": [",
        records.len(),
    ));
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{ \"t_us\": {}, \"sensor\": {}, \"seq\": {}, \"event\": {}, \"bytes\": {}, \"rung\": \"{}\" }}",
            record.sent_at_us,
            record.sensor_id,
            if record.sequence == u64::MAX {
                "null".to_string()
            } else {
                record.sequence.to_string()
            },
            record.event,
            record.wire_bytes,
            record.rung.as_str(),
        ));
    }
    if records.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> ShardStats {
        ShardStats {
            frames: 100,
            wire_bytes: 16_800,
            accepted: 97,
            payload_bytes: 15_000,
            decoded_values: 4_000,
            auth_failed: 2,
            replay_rejected: 1,
            ..ShardStats::default()
        }
    }

    #[test]
    fn shard_table_has_one_row_per_shard_plus_header() {
        let reports = vec![
            ShardReport {
                shard: 0,
                sessions: 50,
                stats: stats(),
            },
            ShardReport {
                shard: 1,
                sessions: 49,
                stats: ShardStats::default(),
            },
        ];
        let table = shard_table(&reports);
        assert_eq!(table.lines().count(), 3);
        let row = table.lines().nth(1).expect("row 0");
        assert!(row.contains("100"), "frames column: {row}");
        assert!(row.contains("97"), "accepted column: {row}");
        for line in table.lines() {
            assert_eq!(line.split_whitespace().count(), 12, "columns: {line}");
        }
    }

    mod exports {
        use super::*;
        use age_telemetry::AlarmKind;

        fn snapshot() -> HealthSnapshot {
            HealthSnapshot {
                tick: 2,
                virtual_us: 1_000_000,
                stats: stats(),
                delta_frames: 40,
                frames_per_vsec: 80.0,
                streams: vec![StreamHealth {
                    name: "AGE".to_string(),
                    window: 1,
                    observations: 38,
                    nmi: 0.0,
                    gap_observations: 30,
                    timing_nmi: 0.0123456,
                }],
                alarms_total: 1,
                new_alarms: 1,
                alarming: vec!["AGE".to_string()],
            }
        }

        #[test]
        fn json_line_is_single_line_and_stable() {
            let line = snapshot().to_json_line();
            assert!(line.ends_with("]}\n"));
            assert_eq!(line.matches('\n').count(), 1, "one line per snapshot");
            assert!(line.contains("\"tick\":2"));
            assert!(line.contains("\"auth_failed\":2"));
            assert!(line.contains("\"timing_nmi\":0.012346"), "{line}");
            assert!(line.contains("\"alarming\":[\"AGE\"]"));
            // Byte-stable under repetition.
            assert_eq!(line, snapshot().to_json_line());
        }

        #[test]
        fn prometheus_exposition_names_every_rung() {
            let text = snapshot().prometheus();
            for (rung, _) in rung_counters(&stats()) {
                assert!(
                    text.contains(&format!("rung=\"{rung}\"")),
                    "missing {rung} in:\n{text}"
                );
            }
            assert!(text.contains("age_gateway_frames_total 100"));
            assert!(text.contains("age_gateway_alarms_total 1"));
            assert!(
                text.contains("channel=\"timing\"}} 0.012346")
                    || text.contains("channel=\"timing\"} 0.012346")
            );
        }

        #[test]
        fn postmortem_renders_alarms_and_records() {
            let alarm = Alarm {
                kind: AlarmKind::TimingLeak,
                window: 3,
                start_us: 1_500_000,
                end_us: 2_000_000,
                stream: "AGE".to_string(),
                value: 0.42,
                p_value: 0.0099,
                observations: 64,
            };
            let record = FlightRecord {
                sent_at_us: 1_600_000,
                sensor_id: 17,
                sequence: u64::MAX,
                event: 2,
                wire_bytes: 168,
                rung: age_telemetry::IngestRung::AuthFailed,
            };
            let json = render_postmortem(
                "windowed-alarm",
                2_000_000,
                4,
                &stats(),
                &[alarm],
                &[record],
                3,
            );
            assert!(json.contains("\"trigger\": \"windowed-alarm\""));
            assert!(json.contains("\"kind\": \"timing-leak\""));
            assert!(
                json.contains("\"seq\": null"),
                "rejected frames have no sequence"
            );
            assert!(json.contains("\"rung\": \"auth_failed\""));
            assert!(json.contains("\"dropped_records\": 3"));
            // Deterministic under repetition.
            let again = render_postmortem("windowed-alarm", 2_000_000, 4, &stats(), &[], &[], 0);
            assert!(again.contains("\"alarms\": [],"));
            assert!(again.ends_with("\"records\": []\n}\n"));
        }
    }
}
