//! Per-batch telemetry records and their JSONL serialization.
//!
//! A [`BatchRecord`] is one line of observability output: which encoder ran,
//! how long each AGE pipeline stage took, how many elements flowed in and
//! out of each stage, and the exact wire layout of the resulting message
//! (mirroring `age-core`'s `inspect_message` schema so records can be
//! cross-checked against decoded layouts).
//!
//! Serialization is hand-rolled JSON — the workspace must build offline, so
//! no serde. The format is stable and append-only: one compact JSON object
//! per line, fields in fixed order, making byte-identical output a
//! meaningful determinism check. [`JsonStr`] is the one JSON string
//! escaper every hand-rolled JSON writer in the workspace uses.

use std::fmt::{self, Write};

/// Wall-clock nanoseconds spent in each AGE pipeline stage for one batch.
///
/// Baseline encoders that skip a stage report 0 for it. These are the
/// only fields of a batch record that differ between identical runs:
/// comparisons zero them first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Exponent-delta pruning (§4.2).
    pub prune_ns: u64,
    /// Initial exponent-run grouping (§4.3).
    pub group_ns: u64,
    /// Group merging down to the directory budget (§4.3).
    pub merge_ns: u64,
    /// Width assignment / quantization (§4.4).
    pub quantize_ns: u64,
    /// Bit-packing and padding to the target size.
    pub pack_ns: u64,
}

impl StageTimings {
    /// Total nanoseconds across all stages.
    pub fn total_ns(&self) -> u64 {
        self.prune_ns + self.group_ns + self.merge_ns + self.quantize_ns + self.pack_ns
    }
}

/// Wire layout of one group, mirroring `age-core`'s `GroupLayout`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupRecord {
    /// Measurements covered by this group.
    pub count: usize,
    /// Shared exponent.
    pub exponent: i32,
    /// Mantissa width in bits.
    pub width: u8,
}

/// One encoded batch, as observed by the instrumented encoder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchRecord {
    /// Encoder that produced the message (`"age"`, `"standard"`, `"padded"`, …).
    pub encoder: &'static str,
    /// Caller-assigned stream label (dataset/defense/node id); empty if unset.
    pub label: String,
    /// Batch sequence number within the stream (caller-assigned).
    pub batch: u64,
    /// Ground-truth event label active while this batch was produced, if
    /// the caller set one on the encoder's stream context. This is what
    /// the leakage audit correlates message sizes against.
    pub event: Option<usize>,
    /// Virtual time (simulated microseconds) at which this batch's sensing
    /// window closed, as the caller set it on the encoder's stream
    /// context. 0 when the producer runs without a
    /// virtual clock (unit tests, direct encoder use). Unlike `timings`
    /// this is fully deterministic — see `docs/observability.md`.
    pub virtual_time: u64,
    /// Measurements handed to the encoder.
    pub input_len: usize,
    /// Measurements surviving pruning (== `input_len` for baselines).
    pub kept_len: usize,
    /// Groups before merging (0 for baselines).
    pub groups_initial: usize,
    /// Groups actually emitted.
    pub groups_final: usize,
    /// Per-group layout of the emitted message.
    pub groups: Vec<GroupRecord>,
    /// Header size in bits.
    pub header_bits: usize,
    /// Group-directory size in bits.
    pub directory_bits: usize,
    /// Mantissa payload size in bits.
    pub data_bits: usize,
    /// Trailing padding in bits.
    pub padding_bits: usize,
    /// Final message length in bytes (must equal the buffer length).
    pub message_len: usize,
    /// Configured target size in bytes, if the encoder pads to one.
    pub target_bytes: Option<usize>,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
}

impl BatchRecord {
    /// Serializes as one compact JSON object (no trailing newline).
    ///
    /// Field order is fixed so identical records serialize to identical
    /// bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        push_str_field(&mut out, "encoder", self.encoder);
        out.push(',');
        push_str_field(&mut out, "label", &self.label);
        out.push(',');
        push_u64_field(&mut out, "batch", self.batch);
        out.push_str(",\"event\":");
        match self.event {
            Some(e) => out.push_str(&e.to_string()),
            None => out.push_str("null"),
        }
        out.push(',');
        push_u64_field(&mut out, "virtual_time", self.virtual_time);
        out.push(',');
        push_u64_field(&mut out, "input_len", self.input_len as u64);
        out.push(',');
        push_u64_field(&mut out, "kept_len", self.kept_len as u64);
        out.push(',');
        push_u64_field(&mut out, "groups_initial", self.groups_initial as u64);
        out.push(',');
        push_u64_field(&mut out, "groups_final", self.groups_final as u64);
        out.push_str(",\"groups\":[");
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_u64_field(&mut out, "count", g.count as u64);
            out.push(',');
            push_i64_field(&mut out, "exponent", i64::from(g.exponent));
            out.push(',');
            push_u64_field(&mut out, "width", u64::from(g.width));
            out.push('}');
        }
        out.push(']');
        out.push(',');
        push_u64_field(&mut out, "header_bits", self.header_bits as u64);
        out.push(',');
        push_u64_field(&mut out, "directory_bits", self.directory_bits as u64);
        out.push(',');
        push_u64_field(&mut out, "data_bits", self.data_bits as u64);
        out.push(',');
        push_u64_field(&mut out, "padding_bits", self.padding_bits as u64);
        out.push(',');
        push_u64_field(&mut out, "message_len", self.message_len as u64);
        out.push_str(",\"target_bytes\":");
        match self.target_bytes {
            Some(t) => out.push_str(&t.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"timings_ns\":{");
        push_u64_field(&mut out, "prune", self.timings.prune_ns);
        out.push(',');
        push_u64_field(&mut out, "group", self.timings.group_ns);
        out.push(',');
        push_u64_field(&mut out, "merge", self.timings.merge_ns);
        out.push(',');
        push_u64_field(&mut out, "quantize", self.timings.quantize_ns);
        out.push(',');
        push_u64_field(&mut out, "pack", self.timings.pack_ns);
        out.push_str("}}");
        out
    }
}

/// One sealed frame as an eavesdropper on the link would see it: which
/// stream sent it, the ground-truth event active at the time, and the exact
/// on-air size in bytes. This — not the plaintext encoding — is what the
/// leakage audit correlates against labels.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireRecord {
    /// Stream label (dataset/policy/defense/rate), set by the emitter.
    pub label: String,
    /// Defense/encoder name (`"Std"`, `"AGE"`, `"Padded"`, …).
    pub encoder: String,
    /// Transmit sequence number within the stream.
    pub seq: u64,
    /// Ground-truth event label for the batch this frame carried.
    pub event: usize,
    /// Sealed frame length in bytes on the wire.
    pub wire_bytes: usize,
    /// Key epoch the frame was sealed in: the link's ratchet epoch, 0 for
    /// a static key. Within one run, `seq` must be unique per epoch for
    /// nonce uniqueness to hold.
    pub epoch: u64,
    /// Virtual send time in simulated microseconds: when the frame's first
    /// radiation completed on the simulator's deterministic clock (see
    /// `age-sim`'s `VirtualClock`). The timing-channel audit derives
    /// inter-transmission gaps from successive stamps within a stream.
    pub virtual_time: u64,
}

impl WireRecord {
    /// Serializes as one compact JSON object (no trailing newline), with a
    /// leading `"kind":"wire"` discriminator so wire lines can share a
    /// JSONL file with batch records.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"kind\":\"wire\",");
        push_str_field(&mut out, "label", &self.label);
        out.push(',');
        push_str_field(&mut out, "encoder", &self.encoder);
        out.push(',');
        push_u64_field(&mut out, "seq", self.seq);
        out.push(',');
        push_u64_field(&mut out, "event", self.event as u64);
        out.push(',');
        push_u64_field(&mut out, "wire_bytes", self.wire_bytes as u64);
        out.push(',');
        push_u64_field(&mut out, "epoch", self.epoch);
        out.push(',');
        push_u64_field(&mut out, "virtual_time", self.virtual_time);
        out.push('}');
        out
    }
}

fn push_u64_field(out: &mut String, key: &str, value: u64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

fn push_i64_field(out: &mut String, key: &str, value: i64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    let _ = write!(out, "{}", JsonStr(value));
}

/// Displays a string as a quoted JSON string literal: `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` use their short escapes, and
/// every other control character is written as `\u00XX`.
pub struct JsonStr<'a>(pub &'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BatchRecord {
        BatchRecord {
            encoder: "age",
            label: "mimic/age".into(),
            batch: 3,
            event: Some(2),
            virtual_time: 1_280_000,
            input_len: 64,
            kept_len: 41,
            groups_initial: 9,
            groups_final: 4,
            groups: vec![
                GroupRecord {
                    count: 20,
                    exponent: -3,
                    width: 7,
                },
                GroupRecord {
                    count: 21,
                    exponent: 0,
                    width: 9,
                },
            ],
            header_bits: 24,
            directory_bits: 48,
            data_bits: 329,
            padding_bits: 15,
            message_len: 52,
            target_bytes: Some(52),
            timings: StageTimings {
                prune_ns: 100,
                group_ns: 200,
                merge_ns: 300,
                quantize_ns: 400,
                pack_ns: 500,
            },
        }
    }

    #[test]
    fn json_is_stable_and_complete() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"encoder\":\"age\"",
            "\"label\":\"mimic/age\"",
            "\"batch\":3",
            "\"virtual_time\":1280000",
            "\"input_len\":64",
            "\"kept_len\":41",
            "\"groups_initial\":9",
            "\"groups_final\":4",
            "\"exponent\":-3",
            "\"message_len\":52",
            "\"target_bytes\":52",
            "\"prune\":100",
            "\"pack\":500",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Identical records serialize identically.
        assert_eq!(json, sample().to_json());
    }

    #[test]
    fn json_escapes_strings_and_encodes_null_target() {
        let mut rec = sample();
        rec.label = "a\"b\\c\nd".into();
        rec.target_bytes = None;
        let json = rec.to_json();
        assert!(json.contains("\"label\":\"a\\\"b\\\\c\\nd\""));
        assert!(json.contains("\"target_bytes\":null"));
    }

    #[test]
    fn json_str_escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(
            JsonStr("plain/AGE r0.50").to_string(),
            "\"plain/AGE r0.50\""
        );
        assert_eq!(
            JsonStr("q\"b\\n\nr\rt\tnul\0bel\x07us\x1f del\x7f é").to_string(),
            "\"q\\\"b\\\\n\\nr\\rt\\tnul\\u0000bel\\u0007us\\u001f del\x7f é\""
        );
    }

    #[test]
    fn stage_total_sums_all_stages() {
        assert_eq!(sample().timings.total_ns(), 1500);
    }

    #[test]
    fn json_serializes_event_field() {
        let json = sample().to_json();
        assert!(json.contains("\"event\":2"), "{json}");
        let mut rec = sample();
        rec.event = None;
        assert!(rec.to_json().contains("\"event\":null"));
    }

    #[test]
    fn wire_json_is_stable_and_complete() {
        let record = WireRecord {
            label: "epi/Linear/Std/r0.50".into(),
            encoder: "Std".into(),
            seq: 41,
            event: 2,
            wire_bytes: 86,
            epoch: 3,
            virtual_time: 5_521_984,
        };
        assert_eq!(
            record.to_json(),
            "{\"kind\":\"wire\",\"label\":\"epi/Linear/Std/r0.50\",\"encoder\":\"Std\",\
             \"seq\":41,\"event\":2,\"wire_bytes\":86,\
             \"epoch\":3,\"virtual_time\":5521984}"
        );
    }
}
