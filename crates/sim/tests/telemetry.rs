//! Integration tests tying the experiment runner to the telemetry layer:
//! per-batch record emission (event label included), the constant-size
//! (stddev = 0) invariant, and byte-identical JSONL output across
//! identically-seeded runs.

#![cfg(feature = "telemetry")]

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use age_datasets::{DatasetKind, Scale};
use age_sim::{Defense, PolicyKind, Runner, SweepCell};
use age_telemetry::metrics::global;
use age_telemetry::{
    install_thread, set_context_label, set_timings_enabled, JsonlSink, RecordingSink, Summary,
};

/// A `Write` target whose bytes stay reachable after the sink takes
/// ownership of the writer.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn runner_emits_one_record_per_batch_with_the_message_layout() {
    let sink = Arc::new(RecordingSink::new());
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
    let calls_before = global::ENCODE_CALLS.get();
    let result = {
        let _guard = install_thread(sink.clone());
        runner.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Uniform, Defense::Age, 0.5)
        })
    };
    let records = sink.records();
    assert_eq!(records.len(), result.records.len());
    assert!(global::ENCODE_CALLS.get() - calls_before >= records.len() as u64);
    let mut timed_ns = 0u64;
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(rec.encoder, "AGE");
        assert_eq!(rec.label, "Epilepsy/Uniform/AGE/r0.50");
        assert_eq!(rec.batch, i as u64);
        // The record mirrors `inspect_message`'s layout: the four sections
        // account for every bit, and the message hits its target exactly.
        assert_eq!(rec.message_len, rec.target_bytes.unwrap());
        assert_eq!(
            rec.header_bits + rec.directory_bits + rec.data_bits + rec.padding_bits,
            rec.message_len * 8,
            "layout sections must tile the message"
        );
        assert_eq!(rec.groups.len(), rec.groups_final);
        assert_eq!(
            rec.groups.iter().map(|g| g.count).sum::<usize>(),
            rec.kept_len,
            "groups must cover every kept measurement"
        );
        assert!(rec.kept_len <= rec.input_len);
        timed_ns += rec.timings.total_ns();
    }
    assert!(timed_ns > 0, "stage timings should be collected by default");
}

#[test]
fn summary_stddev_is_zero_for_fixed_defenses_and_positive_for_standard() {
    let sink = Arc::new(RecordingSink::new());
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
    {
        let _guard = install_thread(sink.clone());
        for defense in [Defense::Age, Defense::Padded, Defense::Standard] {
            runner.run(&SweepCell {
                enforce_budget: false,
                ..SweepCell::new(PolicyKind::Linear, defense, 0.5)
            });
        }
    }
    let records = sink.records();
    let summary = Summary::from_records(&records);

    let age = summary.stream("Epilepsy/Linear/AGE/r0.50", "AGE").unwrap();
    assert!(age.batches > 0);
    assert_eq!(age.size_stddev(), 0.0, "AGE messages must not vary in size");
    assert!(age.is_constant_size());

    let padded = summary
        .stream("Epilepsy/Linear/Padded/r0.50", "Padded")
        .unwrap();
    assert_eq!(
        padded.size_stddev(),
        0.0,
        "padding must close the size channel"
    );
    assert!(padded.is_constant_size());

    let standard = summary
        .stream("Epilepsy/Linear/Std/r0.50", "Standard")
        .unwrap();
    assert!(
        standard.size_stddev() > 0.0,
        "the undefended baseline must leak through its sizes"
    );
    assert!(!standard.is_constant_size());
}

/// Runs one experiment with JSONL telemetry into an in-memory buffer and
/// returns the bytes written.
fn capture_run(seed: u64) -> Vec<u8> {
    let buf = SharedBuf::default();
    let sink = Arc::new(JsonlSink::new(buf.clone()).without_timings());
    // Wall-clock laps are the one nondeterministic input; drop them at the
    // source too so the encoders take the identical code path both times.
    set_timings_enabled(false);
    // Start numbering from a fresh stream: re-asserting an unchanged label
    // deliberately does not reset the batch counter.
    set_context_label("");
    // Key epochs count reruns per cell (that is what makes the nonce audit
    // sound), so byte-identical reruns must rewind the counters first.
    age_telemetry::reset_epoch_counters();
    {
        let _guard = install_thread(sink);
        let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, seed);
        runner.run(&SweepCell::new(PolicyKind::Linear, Defense::Age, 0.5));
    }
    set_timings_enabled(true);
    let bytes = buf.0.lock().unwrap().clone();
    bytes
}

#[test]
fn identically_seeded_runs_write_byte_identical_jsonl() {
    let first = capture_run(2022);
    let second = capture_run(2022);
    assert!(!first.is_empty(), "the run must emit records");
    assert!(first.ends_with(b"\n"));
    assert_eq!(
        first, second,
        "same seed must reproduce the exact telemetry stream"
    );
    let third = capture_run(2023);
    assert_ne!(first, third, "a different seed must change the stream");
}

#[test]
fn batch_records_carry_the_event_label() {
    let sink = Arc::new(RecordingSink::new());
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
    let result = {
        let _guard = install_thread(sink.clone());
        runner.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, Defense::Age, 0.5)
        })
    };
    let records = sink.records();
    assert_eq!(records.len(), result.records.len());
    for (rec, seq) in records.iter().zip(&result.records) {
        assert_eq!(rec.event, Some(seq.label));
    }
}
