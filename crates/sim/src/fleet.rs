//! Fleet traffic synthesis: N seeded sensors on the virtual clock.
//!
//! The gateway in `age-gateway` is only as testable as the traffic it
//! can be fed, so this module simulates a whole fleet: every sensor
//! gets a [`DetRng`] stream keyed by `(fleet seed, sensor id)`, a
//! [`VirtualClock`] with a per-sensor phase offset, and a transport
//! [`Sensor`] sealing under the key [`derive_key`] assigns it — the
//! same derivation the gateway runs at provisioning, so no key material
//! crosses the simulation boundary.
//!
//! Per frame, a sensor's clock walks the same cost model as the
//! single-link runner: one fixed 25-sample sensing window, encode,
//! seal, then radio serialization that is *affine in the wire length*.
//! AGE's constant frames therefore leave on a metronome cadence while
//! the `Std` baseline's event-sized frames shift their own send times —
//! the fleet-level reproduction of the paper's size-begets-timing
//! leakage, with gaps measured per sensor and binned into the gateway's
//! per-cohort histograms.
//!
//! Generation is per-sensor-deterministic: a sensor's frames depend
//! only on `(seed, sensor_id)`, never on how many other sensors exist,
//! and the global interleaving is a deterministic sort. The fleet tests
//! pin `generate` output and all downstream reports byte-for-byte.

use age_core::{AgeEncoder, Batch, BatchConfig, EncodeScratch, StandardEncoder};
use age_crypto::ChaCha20Poly1305;
use age_fixed::Format;
use age_gateway::{
    derive_key, derive_root, stagger_phase, Cohort, FleetFrame, Gateway, GatewayConfig,
};
use age_telemetry::{DetRng, FleetNonceAudit};
use age_transport::{chacha20poly1305_factory, Sensor};

use crate::clock::{ClockModel, VirtualClock};

/// Samples a sensor accumulates before each transmission; also the
/// batch capacity, so every event class fits one frame.
pub const SENSING_WINDOW: u64 = 25;

/// Shape of a simulated fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Sensors in the fleet (ids `0..sensors`).
    pub sensors: u64,
    /// Frames each sensor transmits.
    pub frames_per_sensor: usize,
    /// Master seed: keys, event draws, and phase offsets all derive
    /// from it.
    pub seed: u64,
    /// Event classes (`0..events`); the class drives the batch size.
    pub events: usize,
    /// Every `baseline_every`-th sensor runs the leaky `Std` encoder so
    /// aggregated fleet traffic always carries the calibration cohort
    /// the leakage gate requires. 0 disables the baseline.
    pub baseline_every: u64,
    /// Injected timing regression: once a defended (AGE) sensor's clock
    /// passes this virtual time, each transmission is delayed by
    /// `event × regression_stretch_us` — the event class bleeding back
    /// into the send schedule, exactly the channel the paper's defense
    /// closes. `None` (the default) injects nothing. Drives the
    /// monitor-leg scenario proving a mid-run alarm fires *before* the
    /// end-of-run gate.
    pub regress_timing_after_us: Option<u64>,
    /// Per-event-class delay for the injected timing regression.
    pub regression_stretch_us: u64,
    /// Injected corruption: frames from every third sensor sent at or
    /// after this virtual time get one ciphertext byte flipped, so the
    /// gateway rejects them at the auth rung — a rejection-rate flood
    /// for the monitor. `None` (the default) injects nothing.
    pub corrupt_after_us: Option<u64>,
    /// Fleet-wide staggered rekey: `Some(interval)` gives every sensor
    /// an epoch ratchet rooted in the fleet secret, rotating every
    /// `interval` sequence numbers at its own [`stagger_phase`]. The
    /// gateway config from [`fleet_gateway_config`] mirrors the same
    /// setting, so both ends derive the same schedule from `(seed, id)`
    /// alone. `None` (the default) keeps static keys and byte-identical
    /// legacy artifacts.
    pub rekey_interval: Option<u64>,
}

impl FleetConfig {
    /// The standard fleet: 4 frames per sensor, 3 event classes, one
    /// baseline sensor in five.
    pub fn new(sensors: u64, seed: u64) -> FleetConfig {
        FleetConfig {
            sensors,
            frames_per_sensor: 4,
            seed,
            events: 3,
            baseline_every: 5,
            regress_timing_after_us: None,
            regression_stretch_us: 40_000,
            corrupt_after_us: None,
            rekey_interval: None,
        }
    }

    /// The cohort (0 = AGE, 1 = Std) a sensor id belongs to — a pure
    /// function, shared by generation and provisioning.
    pub fn cohort_of(&self, sensor_id: u64) -> usize {
        if self.baseline_every > 0 && sensor_id % self.baseline_every == self.baseline_every - 1 {
            1
        } else {
            0
        }
    }
}

/// The batch shape every fleet sensor uses: up to
/// [`SENSING_WINDOW`] readings of 2 features in Q16.10.
pub fn fleet_batch_config() -> BatchConfig {
    #[allow(clippy::unwrap_used)]
    BatchConfig::new(SENSING_WINDOW as usize, 2, Format::new(16, 10).unwrap()).unwrap()
}

/// The AGE payload target for the fleet batch shape, with headroom over
/// the encoder's minimum so grouping always succeeds.
pub fn fleet_age_target() -> usize {
    AgeEncoder::min_target_bytes(&fleet_batch_config()).max(160)
}

/// The two fleet cohorts, named to match the leakage gate's defended
/// (`"AGE"`) and baseline (`"Std"`) lists.
pub fn fleet_cohorts() -> Vec<Cohort> {
    vec![
        Cohort::new("AGE", Box::new(AgeEncoder::new(fleet_age_target()))),
        Cohort::new("Std", Box::new(StandardEncoder)),
    ]
}

/// A ready-to-run gateway config for this fleet at `shards` shards.
pub fn fleet_gateway_config(config: &FleetConfig, shards: usize) -> GatewayConfig {
    let mut gateway =
        GatewayConfig::new(fleet_batch_config(), fleet_cohorts(), config.seed, shards);
    gateway.rekey_interval = config.rekey_interval;
    gateway
}

/// Builds a gateway from `gateway_config` (a [`fleet_gateway_config`],
/// possibly adjusted) and provisions every sensor of the fleet into its
/// cohort.
pub fn provisioned_gateway(config: &FleetConfig, gateway_config: GatewayConfig) -> Gateway {
    let mut gateway = Gateway::new(gateway_config);
    for sensor_id in 0..config.sensors {
        // cohort_of is always in range for the two fleet cohorts.
        let _ = gateway.provision(sensor_id, config.cohort_of(sensor_id));
    }
    gateway
}

/// Everything [`generate`] produces for one fleet run.
pub struct FleetTraffic {
    /// All frames, sorted by `(send time, sensor id)` — the arrival
    /// order an aggregating gateway would see.
    pub frames: Vec<FleetFrame>,
    /// Seal-side nonce audit: one observation per sealed frame,
    /// recorded *before* the channel. The run-wide backstop that no
    /// sensor ever sealed two frames under one `(epoch, sequence)`.
    pub sealed_nonces: FleetNonceAudit,
}

/// Synthesizes the fleet's traffic.
pub fn generate(config: &FleetConfig) -> FleetTraffic {
    let batch_cfg = fleet_batch_config();
    let cohorts = fleet_cohorts();
    let mut frames = Vec::with_capacity(config.sensors as usize * config.frames_per_sensor);
    let mut sealed_nonces = FleetNonceAudit::default();
    let mut scratch = EncodeScratch::new();
    let mut payload = Vec::new();
    let mut sealed = Vec::new();
    let events = config.events.max(1);

    for sensor_id in 0..config.sensors {
        let cohort = config.cohort_of(sensor_id);
        let Some(encoder) = cohorts.get(cohort) else {
            continue;
        };
        let mut rng = DetRng::seed_from_u64(
            config
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(sensor_id),
        );
        let mut sensor = match config.rekey_interval {
            Some(interval) => Sensor::with_rekey(
                derive_root(config.seed, sensor_id),
                interval,
                stagger_phase(config.seed, sensor_id, interval),
                chacha20poly1305_factory,
            ),
            None => Sensor::new(Box::new(ChaCha20Poly1305::new(derive_key(
                config.seed,
                sensor_id,
            )))),
        };
        let mut clock = VirtualClock::new(ClockModel::default());
        // Random phase offset under one sensing window, so the fleet
        // interleaves instead of transmitting in lockstep.
        clock.advance_us(rng.gen_range(0..SENSING_WINDOW * 10_000));

        for _ in 0..config.frames_per_sensor {
            let event = rng.gen_range(0..events);
            // The event class sets how many of the window's readings
            // survive pruning: 6, 14, or 22 of 25.
            let kept = (6 + event * 8).min(SENSING_WINDOW as usize);
            let indices: Vec<usize> = (0..kept).collect();
            let values: Vec<f64> = (0..kept * batch_cfg.features())
                .map(|_| rng.gen_range(-16.0..16.0))
                .collect();
            let Ok(batch) = Batch::new(indices, values) else {
                continue;
            };
            if encoder
                .encoder
                .encode_into(&batch, &batch_cfg, &mut scratch, &mut payload)
                .is_err()
            {
                continue;
            }
            clock.advance_samples(SENSING_WINDOW);
            clock.advance_encode();
            clock.advance_seal();
            // Injected timing regression: a defended sensor whose clock
            // crossed the threshold stalls in proportion to the event
            // class before keying the radio, so its inter-transmission
            // gaps become event-correlated from that point on.
            if cohort == 0 {
                if let Some(after) = config.regress_timing_after_us {
                    if clock.now_us() >= after {
                        clock.advance_us(event as u64 * config.regression_stretch_us);
                    }
                }
            }
            let Ok(sequence) = sensor.seal_into(&payload, &mut sealed) else {
                continue;
            };
            // `seal_into` rotates *before* sealing when the watermark
            // demands it, so the post-seal epoch is the one this frame
            // was sealed under (always 0 for static fleets).
            sealed_nonces.observe(sensor_id, sensor.epoch(), sequence);
            let frame = FleetFrame::encode(sensor_id, &sealed, event, 0);
            let sent_at_us = clock.advance_radio(frame.wire.len());
            let mut frame = FleetFrame {
                sent_at_us,
                ..frame
            };
            // Injected corruption: flip one ciphertext byte so the
            // gateway's AEAD check rejects the frame at the auth rung.
            if let Some(after) = config.corrupt_after_us {
                if sensor_id % 3 == 0 && sent_at_us >= after {
                    if let Some(byte) = frame.wire.get_mut(age_gateway::HEADER_LEN + 4) {
                        *byte ^= 0x55;
                    }
                }
            }
            frames.push(frame);
        }
    }

    frames.sort_by_key(|f| (f.sent_at_us, f.sensor_id().unwrap_or(0)));
    FleetTraffic {
        frames,
        sealed_nonces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_sorted() {
        let config = FleetConfig::new(40, 7);
        let a = generate(&config);
        let b = generate(&config);
        assert_eq!(a.frames, b.frames);
        assert!(a
            .frames
            .windows(2)
            .all(|w| w[0].sent_at_us <= w[1].sent_at_us));
        assert_eq!(a.frames.len(), 40 * config.frames_per_sensor);
    }

    #[test]
    fn cohort_split_matches_baseline_every() {
        let config = FleetConfig::new(100, 1);
        let baseline = (0..100).filter(|&id| config.cohort_of(id) == 1).count();
        assert_eq!(baseline, 20, "one sensor in five runs Std");
    }

    #[test]
    fn age_frames_are_constant_size_std_frames_are_not() {
        let config = FleetConfig::new(60, 11);
        let traffic = generate(&config);
        let mut age_sizes = std::collections::BTreeSet::new();
        let mut std_sizes = std::collections::BTreeSet::new();
        for frame in &traffic.frames {
            let id = frame.sensor_id().unwrap_or(0);
            if config.cohort_of(id) == 0 {
                age_sizes.insert(frame.wire.len());
            } else {
                std_sizes.insert(frame.wire.len());
            }
        }
        assert_eq!(age_sizes.len(), 1, "AGE cohort must be one wire size");
        assert!(std_sizes.len() > 1, "Std cohort must leak via size");
    }

    #[test]
    fn seal_side_nonce_audit_is_clean() {
        let traffic = generate(&FleetConfig::new(30, 3));
        assert!(traffic.sealed_nonces.is_clean());
        assert_eq!(traffic.sealed_nonces.sensors(), 30);
    }

    #[test]
    fn rekeying_fleet_seals_across_epochs_without_reuse() {
        let mut config = FleetConfig::new(30, 3);
        config.frames_per_sensor = 20;
        config.rekey_interval = Some(6);
        let traffic = generate(&config);
        assert!(traffic.sealed_nonces.is_clean());
        assert_eq!(traffic.sealed_nonces.sensors(), 30);
        assert!(
            traffic.sealed_nonces.cells() > 30,
            "every sensor should have sealed under more than one epoch"
        );
        let again = generate(&config);
        assert_eq!(traffic.frames, again.frames, "rekey generation drifted");
    }
}
