//! Integration tests tying the experiment runner to the telemetry layer:
//! per-batch record emission (event label included), the constant-size
//! (stddev = 0) invariant, byte-identical JSONL output across
//! identically-seeded runs, and stream context that ends with its run.

#![cfg(feature = "telemetry")]

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use age_core::{AgeEncoder, Batch, BatchConfig, Encoder};
use age_datasets::{DatasetKind, Scale};
use age_fixed::Format;
use age_sim::{Defense, PolicyKind, Runner, SweepCell};
use age_telemetry::metrics::global;
use age_telemetry::{install_thread, set_timings_enabled, JsonlSink, RecordingSink, Summary};

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
    let sink = Arc::new(JsonlSink::new(buf.clone()));
    // Wall-clock laps are the one nondeterministic input; drop them at the
    // source.
    set_timings_enabled(false);
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

#[test]
fn a_bare_encode_after_a_run_belongs_to_no_stream() {
    let sink = Arc::new(RecordingSink::new());
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
    let cfg = BatchConfig::new(50, 3, Format::new(16, 13).unwrap()).unwrap();
    let batch = Batch::new(vec![0, 4, 9], vec![0.25; 9]).unwrap();
    {
        let _guard = install_thread(sink.clone());
        runner.run(&SweepCell {
            limit: Some(5),
            ..SweepCell::new(PolicyKind::Linear, Defense::Age, 0.7)
        });
        AgeEncoder::new(120).encode(&batch, &cfg).unwrap();
    }
    let records = sink.records();
    assert_eq!(records.len(), 6);
    assert!(records[..5]
        .iter()
        .all(|r| r.label == "Epilepsy/Linear/AGE/r0.70"));
    let bare = &records[5];
    assert_eq!(
        (
            bare.label.as_str(),
            bare.event,
            bare.virtual_time,
            bare.batch
        ),
        ("", None, 0, 0),
        "the run's context must not outlive it"
    );
    assert_eq!(bare.message_len, 120);
}

#[test]
fn reruns_of_a_cell_on_one_thread_number_their_records_from_zero() {
    let sink = Arc::new(RecordingSink::new());
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
    let cell = SweepCell {
        limit: Some(4),
        ..SweepCell::new(PolicyKind::Uniform, Defense::Padded, 0.5)
    };
    {
        let _guard = install_thread(sink.clone());
        runner.run(&cell);
        runner.run(&cell);
    }
    let batches: Vec<u64> = sink.records().iter().map(|r| r.batch).collect();
    assert_eq!(batches, [0, 1, 2, 3, 0, 1, 2, 3]);
}
