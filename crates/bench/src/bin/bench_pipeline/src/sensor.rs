//! The sensor phase: sample → encode → seal → frame, for every sensor.
//!
//! Sealing goes through `age_crypto` directly: ChaCha20-Poly1305 under
//! the gateway's `derive_key` on static fleets, and under the
//! `EpochRatchet` key of the watermark epoch (`age_transport::epoch_of`)
//! on rekeying ones — the same keys `age_transport::Sensor` would use,
//! which the warm-up round proves by comparing the frames with
//! `age_sim::fleet::generate`'s.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use age_core::{AgeEncoder, Batch, EncodeScratch, Encoder};
use age_crypto::{ChaCha20Poly1305, Cipher, EpochRatchet};
use age_gateway::{derive_key, derive_root, stagger_phase, Cohort, FleetFrame};
use age_sampling::Policy;
use age_sim::{ClockModel, Runner, VirtualClock};
use age_telemetry::{install_thread, BatchRecord, Sink, StageTimings};
use age_transport::epoch_of;

use crate::gateway::nanos;
use crate::host::{chunk_len, Meter, Timed, SENSOR_EXPONENT};
use crate::spans::{Layer, Spans};
use crate::workload::{Draws, Inputs, Source};

/// What one sensor phase produced.
pub struct SensorOutput {
    /// Time spent in the sensors' frame loops: sample → encode → seal →
    /// frame, key set-up and rotations included, the untimed fleet draws
    /// and the reference calls between chunks of sensors excluded.
    pub busy: Timed,
    /// One datagram per genuine frame, sensor-major.
    pub frames: Vec<FleetFrame>,
    /// `(sensor, epoch, sequence)` of every seal, for the seal-side nonce
    /// audit.
    pub seals: Vec<(u64, u64, u64)>,
    /// 32-byte keys or chain values derived on sensors: one static key or
    /// one ratchet root and its first key per sensor, then one per chain
    /// step and one per new epoch key at each rotation.
    pub key_derivations: u64,
    /// Plaintext bytes sealed.
    pub sealed_bytes: u64,
}

/// A sensor's sealing key: static, or the ratchet's key for the current
/// watermark epoch.
struct SensorKeys {
    cipher: ChaCha20Poly1305,
    epoch: u64,
    /// `(ratchet, interval, phase)` on rekeying fleets.
    rekey: Option<(EpochRatchet, u64, u64)>,
}

impl SensorKeys {
    fn provision(inputs: &Inputs, sensor_id: u64, derivations: &mut u64) -> SensorKeys {
        let seed = inputs.seed;
        match inputs.fleet.rekey_interval {
            None => {
                *derivations += 1;
                SensorKeys {
                    cipher: ChaCha20Poly1305::new(derive_key(seed, sensor_id)),
                    epoch: 0,
                    rekey: None,
                }
            }
            Some(interval) => {
                let ratchet = EpochRatchet::new(derive_root(seed, sensor_id));
                *derivations += 2;
                SensorKeys {
                    cipher: ChaCha20Poly1305::new(ratchet.key()),
                    epoch: 0,
                    rekey: Some((ratchet, interval, stagger_phase(seed, sensor_id, interval))),
                }
            }
        }
    }

    /// The epoch the watermark schedule demands for `sequence`, when it is
    /// ahead of the current one.
    fn rotation_due(&self, sequence: u64) -> Option<u64> {
        let (_, interval, phase) = self.rekey.as_ref()?;
        let target = epoch_of(sequence, *interval, *phase);
        (target > self.epoch).then_some(target)
    }

    fn rotate_to(&mut self, epoch: u64, derivations: &mut u64) {
        if let Some((ratchet, _, _)) = self.rekey.as_mut() {
            *derivations += epoch - ratchet.epoch() + 1;
            ratchet.seek(epoch);
            self.cipher = ChaCha20Poly1305::new(ratchet.key());
            self.epoch = epoch;
        }
    }
}

/// The Deviation policy's sample of test sequence `sequence`, as a batch,
/// and the sequence's event label.
fn sample(
    runner: &Runner,
    policy: &dyn Policy,
    sequence: u32,
    features: usize,
) -> Result<(Batch, usize), String> {
    let sequence = runner
        .test_sequences()
        .get(sequence as usize)
        .ok_or_else(|| format!("no test sequence {sequence}"))?;
    let indices = policy.sample(&sequence.values, features);
    let mut values = Vec::with_capacity(indices.len() * features);
    for &t in &indices {
        values.extend_from_slice(&sequence.values[t * features..(t + 1) * features]);
    }
    let batch = Batch::new(indices, values).map_err(|e| format!("sampled batch: {e}"))?;
    Ok((batch, sequence.label))
}

/// Runs every sensor over its frames, in [`CHUNKS`](crate::host::CHUNKS)
/// chunks of sensors metered by the host-speed reference at
/// [`SENSOR_EXPONENT`].
pub fn sensor_phase<S: Spans>(
    inputs: &Inputs,
    cohorts: &[Cohort],
    spans: &mut S,
) -> Result<SensorOutput, String> {
    let total = inputs.genuine_frames();
    let mut out = SensorOutput {
        busy: Timed::default(),
        frames: Vec::with_capacity(total),
        seals: Vec::with_capacity(total),
        key_derivations: 0,
        sealed_bytes: 0,
    };
    let features = inputs.batch.features();
    let mut scratch = EncodeScratch::new();
    let mut payload = Vec::new();
    let mut sealed = Vec::new();
    let mut draws = Draws::default();
    let mut sampled: Batch;
    let chunk = chunk_len(inputs.sensors() as usize) as u64;
    let mut meter = Meter::start(SENSOR_EXPONENT);
    let mut chunk_ns = 0;
    for sensor_id in 0..inputs.sensors() {
        let cohort = inputs.cohort_of(sensor_id);
        let encoder = &cohorts
            .get(cohort)
            .ok_or_else(|| format!("sensor {sensor_id}: no cohort {cohort}"))?
            .encoder;
        if let Source::Fleet = inputs.source {
            inputs.draw_fleet(sensor_id, &mut draws);
        }
        let start = Instant::now();
        let mut clock = VirtualClock::new(ClockModel::default());
        clock.advance_us(inputs.phases[sensor_id as usize]);
        let mut keys: Option<SensorKeys> = None;
        for frame in 0..inputs.frames_per_sensor() {
            let sequence = frame as u64;
            let index = out.frames.len();
            let frame_id = index as u32;
            spans.open(Layer::SensorFrame, frame_id);
            let keys = keys.get_or_insert_with(|| {
                spans.open(Layer::Kdf, frame_id);
                let fresh = SensorKeys::provision(inputs, sensor_id, &mut out.key_derivations);
                spans.close();
                fresh
            });
            // On the fleets the recipe drew the batch before the sensor ran,
            // so the sample span covers only handing it over.
            spans.open(Layer::Sample, frame_id);
            let (batch, event) = match &inputs.source {
                Source::Fleet => (&draws.batches[frame], draws.events[frame]),
                Source::Epilepsy {
                    runner,
                    policy,
                    sequence_of,
                } => {
                    let (batch, event) =
                        sample(runner, policy.as_ref(), sequence_of[index], features)?;
                    sampled = batch;
                    (&sampled, event)
                }
            };
            spans.close();
            let layer = if cohort == 0 {
                Layer::EncodeAge
            } else {
                Layer::EncodeStd
            };
            spans.open(layer, frame_id);
            let encoded = encoder.encode_into(batch, &inputs.batch, &mut scratch, &mut payload);
            spans.close();
            encoded.map_err(|e| format!("sensor {sensor_id} frame {sequence}: encode: {e}"))?;
            clock.advance_samples(inputs.window);
            clock.advance_encode();
            clock.advance_seal();
            if let Some(epoch) = keys.rotation_due(sequence) {
                spans.open(Layer::Kdf, frame_id);
                keys.rotate_to(epoch, &mut out.key_derivations);
                spans.close();
            }
            spans.open(Layer::Seal, frame_id);
            keys.cipher.seal_into(sequence, &payload, &mut sealed);
            spans.close();
            spans.open(Layer::Framing, frame_id);
            let mut frame = FleetFrame::encode(sensor_id, &sealed, event, 0);
            frame.sent_at_us = clock.advance_radio(frame.wire.len());
            out.frames.push(frame);
            out.seals.push((sensor_id, keys.epoch, sequence));
            spans.close();
            spans.close();
            out.sealed_bytes += payload.len() as u64;
            spans.finish_frame();
        }
        chunk_ns += nanos(start.elapsed());
        if (sensor_id + 1) % chunk == 0 || sensor_id + 1 == inputs.sensors() {
            meter.lap(chunk_ns);
            chunk_ns = 0;
        }
    }
    out.busy = meter.total;
    Ok(out)
}

/// The AGE encoder's own per-stage timings (`age_telemetry::StageTimings`,
/// which `encode_into` fills when a telemetry sink is installed), summed
/// over every AGE batch of a stage pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub timings: StageTimings,
    /// AGE batches encoded, and how many of them pruning shrank.
    pub batches: u64,
    pub pruned_batches: u64,
}

/// Sums the stage timings of the batch records the encoder emits.
#[derive(Default)]
struct StageSink(Mutex<Stages>);

impl Sink for StageSink {
    fn record_batch(&self, record: &BatchRecord) {
        if let Ok(mut stages) = self.0.lock() {
            let sum = &mut stages.timings;
            let t = record.timings;
            sum.prune_ns += t.prune_ns;
            sum.group_ns += t.group_ns;
            sum.merge_ns += t.merge_ns;
            sum.quantize_ns += t.quantize_ns;
            sum.pack_ns += t.pack_ns;
            stages.batches += 1;
            stages.pruned_batches += u64::from(record.kept_len < record.input_len);
        }
    }
}

/// Encodes every AGE-cohort batch of the sensor phase again with a
/// telemetry sink installed, and returns the encoder's summed stage
/// timings. A pass of its own, because building and emitting a record
/// per batch would inflate the timed encodes.
pub fn stage_phase(inputs: &Inputs) -> Result<Stages, String> {
    let age = AgeEncoder::new(inputs.age_target);
    let sink = Arc::new(StageSink::default());
    let guard = install_thread(sink.clone());
    let per_sensor = inputs.frames_per_sensor();
    let mut draws = Draws::default();
    let mut scratch = EncodeScratch::new();
    let mut message = Vec::new();
    for sensor_id in (0..inputs.sensors()).filter(|&id| inputs.cohort_of(id) == 0) {
        if let Source::Fleet = inputs.source {
            inputs.draw_fleet(sensor_id, &mut draws);
        }
        for frame in 0..per_sensor {
            let index = sensor_id as usize * per_sensor + frame;
            let sampled;
            let batch = match &inputs.source {
                Source::Fleet => &draws.batches[frame],
                Source::Epilepsy {
                    runner,
                    policy,
                    sequence_of,
                } => {
                    let features = inputs.batch.features();
                    sampled = sample(runner, policy.as_ref(), sequence_of[index], features)?.0;
                    &sampled
                }
            };
            age.encode_into(batch, &inputs.batch, &mut scratch, &mut message)
                .map_err(|e| format!("sensor {sensor_id} frame {frame}: encode: {e}"))?;
        }
    }
    drop(guard);
    let stages = sink.0.lock().map(|s| *s).unwrap_or_default();
    Ok(stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn stage_pass_times_every_age_batch() {
        for workload in [Workload::FleetWarm, Workload::EpilepsyDeviation] {
            let inputs = Inputs::with_sensors(workload, 7, 10);
            let age_batches = (0..inputs.sensors())
                .filter(|&id| inputs.cohort_of(id) == 0)
                .count()
                * inputs.frames_per_sensor();
            let stages = stage_phase(&inputs).unwrap();
            assert_eq!(stages.batches as usize, age_batches, "{}", workload.name());
            assert!(stages.timings.total_ns() > 0, "{}", workload.name());
            assert_eq!(
                stages.pruned_batches > 0,
                workload == Workload::EpilepsyDeviation,
                "only Epilepsy batches exercise pruning"
            );
        }
    }
}
