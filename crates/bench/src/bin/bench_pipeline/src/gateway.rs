//! The gateway phases: single-thread ingest, the leakage and nonce
//! audits, and the multi-thread drain.

use std::hint::black_box;
use std::time::Instant;

use age_bench::audit::default_gate;
use age_core::{Batch, EncodeScratch};
use age_crypto::{ChaCha20Poly1305, Cipher, EpochRatchet};
use age_gateway::{
    derive_key, derive_root, sensor_id_of, shard_of, stagger_phase, Cohort, FleetFrame, Gateway,
    HEADER_LEN,
};
use age_telemetry::alloc;
use age_telemetry::{FleetNonceAudit, LeakageAudit, LeakageReport};
use age_transport::epoch_of;

use crate::host::{chunk_len, Meter, Timed};
use crate::spans::{Layer, Spans};
use crate::workload::{Inputs, SHARDS};

/// Permutations behind each leakage p-value, as in `GATEWAY.json`.
pub const PERMUTATIONS: usize = 200;

pub fn nanos(duration: std::time::Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

pub struct IngestOutput {
    /// Wall time of the loop, the reference calls between its chunks
    /// excluded.
    pub wall: Timed,
    /// Per-frame service time at the reference speed: the gap between
    /// consecutive clock reads, one read per frame, scaled by its chunk's
    /// slowdown; sorted once the round has checked the verdicts.
    pub latencies: Vec<f64>,
    /// Per arrival: the sequence number the gateway accepted, or `None`
    /// for a rejection.
    pub verdicts: Vec<Option<u64>>,
}

/// Offers every frame to `gateway.ingest` in trace order, one caller,
/// the next frame as soon as the previous call returns (a closed loop:
/// latency is service time). The loop runs in [`CHUNKS`](crate::host::CHUNKS)
/// chunks metered by the host-speed reference.
pub fn ingest_phase<S: Spans>(
    gateway: &mut Gateway,
    trace: &[FleetFrame],
    spans: &mut S,
) -> IngestOutput {
    let mut latencies: Vec<f64> = Vec::with_capacity(trace.len());
    let mut verdicts = Vec::with_capacity(trace.len());
    let mut meter = Meter::start(1.0);
    for frames in trace.chunks(chunk_len(trace.len())) {
        let first = latencies.len();
        let start = Instant::now();
        let mut last = start;
        for frame in frames {
            let id = latencies.len() as u32;
            spans.open(Layer::GatewayFrame, id);
            spans.open(Layer::Ingest, id);
            let verdict = gateway.ingest(frame);
            spans.close();
            spans.close();
            spans.finish_frame();
            let now = Instant::now();
            latencies.push(nanos(now - last) as f64);
            last = now;
            verdicts.push(verdict.ok());
        }
        let s = meter.lap(nanos(last - start));
        for latency in &mut latencies[first..] {
            *latency /= s;
        }
    }
    IngestOutput {
        wall: meter.total,
        latencies,
        verdicts,
    }
}

/// Heap bytes the gateway allocates for provisioning and for ingesting
/// `trace`: a plain loop with no clock reads or reference calls, so the
/// count is the program's alone.
pub fn ingest_alloc_bytes(inputs: &Inputs, trace: &[FleetFrame]) -> (u64, u64) {
    let before = alloc::snapshot();
    let mut gateway = inputs.provision();
    let provisioned = alloc::snapshot();
    for frame in trace {
        let _ = gateway.ingest(frame);
    }
    let ingested = alloc::snapshot();
    (
        provisioned.since(before).bytes,
        ingested.since(provisioned).bytes,
    )
}

/// Re-times the gateway's internal steps on each ingested frame through
/// the same public functions, with the benchmark's own copy of every
/// session key: `sensor_id_of` + `shard_of`, then `Cipher::open_into`
/// and `Encoder::decode_into` on accepted frames. What remains of the
/// ingest span is the session layer. It runs as a second pass over the
/// trace, so its buffers never evict the gateway's working set between
/// timed ingest calls.
pub struct Retimer<'a> {
    inputs: &'a Inputs,
    cohorts: &'a [Cohort],
    /// Per sensor: the epoch and cipher last used.
    keys: Vec<Option<(u64, ChaCha20Poly1305)>>,
    payload: Vec<u8>,
    scratch: EncodeScratch,
    batch: Batch,
    /// Accepted frames the re-timed open or decode refused.
    pub failures: u64,
}

impl<'a> Retimer<'a> {
    pub fn new(inputs: &'a Inputs, cohorts: &'a [Cohort]) -> Retimer<'a> {
        Retimer {
            inputs,
            cohorts,
            keys: (0..inputs.sensors()).map(|_| None).collect(),
            payload: Vec::new(),
            scratch: EncodeScratch::new(),
            batch: Batch::empty(),
            failures: 0,
        }
    }

    /// Makes `keys[sensor]` the cipher of the epoch `sequence` was sealed
    /// under.
    fn load_key(&mut self, sensor_id: u64, sequence: u64) {
        let seed = self.inputs.seed;
        let interval = self.inputs.fleet.rekey_interval;
        let epoch = interval.map_or(0, |i| {
            epoch_of(sequence, i, stagger_phase(seed, sensor_id, i))
        });
        if let Some(slot) = self.keys.get_mut(sensor_id as usize) {
            if slot.as_ref().map(|(e, _)| *e) != Some(epoch) {
                let key = match interval {
                    None => derive_key(seed, sensor_id),
                    Some(_) => EpochRatchet::at_epoch(derive_root(seed, sensor_id), epoch).key(),
                };
                *slot = Some((epoch, ChaCha20Poly1305::new(key)));
            }
        }
    }

    /// Re-times every frame of `trace` given its ingest verdict.
    pub fn retime_phase<S: Spans>(
        &mut self,
        spans: &mut S,
        trace: &[FleetFrame],
        verdicts: &[Option<u64>],
    ) {
        for (position, (frame, &verdict)) in trace.iter().zip(verdicts).enumerate() {
            let id = position as u32;
            spans.open(Layer::GatewayFrame, id);
            self.retime(spans, id, frame, verdict);
            spans.close();
            spans.finish_frame();
        }
    }

    fn retime<S: Spans>(
        &mut self,
        spans: &mut S,
        id: u32,
        frame: &FleetFrame,
        sequence: Option<u64>,
    ) {
        spans.open(Layer::Route, id);
        let shard = sensor_id_of(black_box(&frame.wire)).map(|s| shard_of(s, SHARDS));
        black_box(shard);
        spans.close();
        let (Some(sequence), Some(sensor_id)) = (sequence, sensor_id_of(&frame.wire)) else {
            return;
        };
        self.load_key(sensor_id, sequence);
        let cohort = self.inputs.cohort_of(sensor_id);
        let (Some((_, cipher)), Some(cohort)) = (
            self.keys.get(sensor_id as usize).and_then(Option::as_ref),
            self.cohorts.get(cohort),
        ) else {
            self.failures += 1;
            return;
        };
        spans.open(Layer::Open, id);
        let opened = cipher.open_into(&frame.wire[HEADER_LEN..], &mut self.payload);
        spans.close();
        spans.open(Layer::Decode, id);
        let decoded = cohort.encoder.decode_into(
            &self.payload,
            &self.inputs.batch,
            &mut self.scratch,
            &mut self.batch,
        );
        spans.close();
        if opened.is_err() || decoded.is_err() {
            self.failures += 1;
        }
    }
}

/// Wall time of the audit and of its three parts.
#[derive(Debug, Clone, Copy)]
pub struct AuditTimes {
    pub absorb_ns: u64,
    pub score_ns: u64,
    pub nonce_ns: u64,
    pub total_ns: u64,
}

pub struct AuditOutput {
    pub times: AuditTimes,
    pub audit: LeakageAudit,
    pub report: LeakageReport,
    pub gate_failures: Vec<String>,
    pub gateway_nonces_clean: bool,
    pub sealed_nonces_clean: bool,
}

/// From the end of ingest to the verdict: absorb every session's
/// histograms, score them and judge the pinned gate, then check the
/// gateway-side nonce audit and the seal-side one built from the sensor
/// phase's seal log.
pub fn audit_phase(gateway: &Gateway, seals: &[(u64, u64, u64)], seed: u64) -> AuditOutput {
    let start = Instant::now();
    let audit = gateway.leakage_audit();
    let absorbed = Instant::now();
    let mut report = audit.report(PERMUTATIONS, seed);
    let gate = default_gate().evaluate(&report.entries);
    let gate_failures = if gate.passed {
        Vec::new()
    } else if gate.failures.is_empty() {
        vec!["leakage gate failed".to_string()]
    } else {
        gate.failures.clone()
    };
    report.gate = Some(gate);
    let scored = Instant::now();
    let gateway_nonces_clean = gateway.nonce_audit().is_clean();
    let mut sealed = FleetNonceAudit::new();
    for &(sensor_id, epoch, sequence) in seals {
        sealed.observe(sensor_id, epoch, sequence);
    }
    let sealed_nonces_clean = sealed.is_clean();
    let end = Instant::now();
    AuditOutput {
        times: AuditTimes {
            absorb_ns: nanos(absorbed - start),
            score_ns: nanos(scored - absorbed),
            nonce_ns: nanos(end - scored),
            total_ns: nanos(end - start),
        },
        audit,
        report,
        gate_failures,
        gateway_nonces_clean,
        sealed_nonces_clean,
    }
}

pub struct DrainOutput {
    pub gateway: Gateway,
    pub wall_ns: u64,
    /// Most ÷ fewest frames any shard processed.
    pub shard_skew: f64,
}

/// Drains the whole trace through `gateway` on `threads` workers.
pub fn drain_phase(mut gateway: Gateway, trace: &[FleetFrame], threads: usize) -> DrainOutput {
    let start = Instant::now();
    gateway.run(trace, threads);
    let wall_ns = nanos(start.elapsed());
    let frames: Vec<u64> = gateway
        .shard_reports()
        .iter()
        .map(|r| r.stats.frames)
        .collect();
    let most = frames.iter().copied().max().unwrap_or(0);
    let fewest = frames.iter().copied().min().unwrap_or(0).max(1);
    DrainOutput {
        gateway,
        wall_ns,
        shard_skew: most as f64 / fewest as f64,
    }
}
