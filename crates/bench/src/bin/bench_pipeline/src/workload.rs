//! The four workloads and the inputs each builds from its seed.
//!
//! Inputs are built once per run and are untimed: for the fleet
//! workloads, the recipe, whose per-sensor batches are drawn (untimed,
//! just before each sensor runs) from the same seeded streams
//! `age_sim::fleet::generate` uses, so the warm-up round can check the
//! sensor phase reproduces `generate`'s frames byte for byte; for the
//! Epilepsy workload, the dataset's test sequences, the fitted Deviation
//! policy, and the order in which each sensor senses the test sequences,
//! drawn from the seed. The program under test only ever sees the
//! generated batches and frames.

use age_core::target::{plaintext_budget, reduced_target_bytes, target_bytes};
use age_core::{AgeEncoder, Batch, BatchConfig, StandardEncoder};
use age_datasets::{DatasetKind, Scale};
use age_gateway::{Cohort, FleetFrame, Gateway, GatewayConfig, HEADER_LEN};
use age_sampling::Policy;
use age_sim::fleet::{
    fleet_age_target, fleet_batch_config, fleet_cohorts, fleet_gateway_config, FleetConfig,
    SENSING_WINDOW,
};
use age_sim::{CipherChoice, PolicyKind, Runner};
use age_telemetry::{DetRng, SliceShuffle};

/// Session-table shards, for the single-thread ingest and the drain alike.
pub const SHARDS: usize = 4;

/// Sequence numbers per key epoch on the rekeying fleet.
pub const CHURN_REKEY_INTERVAL: u64 = 16;

/// Virtual microseconds per sensor sample (the fleet's 100 Hz loop).
const SAMPLE_PERIOD_US: u64 = 10_000;

/// The Epilepsy dataset (and the Deviation threshold fitted on it) is
/// the same corpus in every run: the run seed picks which sequences each
/// sensor senses, the clock phases and the keys. Regenerating the dataset
/// per seed would change how much each frame samples and prunes, and the
/// per-frame costs with it.
const DATASET_SEED: u64 = 2022;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetWarm,
    FleetCold,
    FleetChurn,
    EpilepsyDeviation,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetWarm,
        Workload::FleetCold,
        Workload::FleetChurn,
        Workload::EpilepsyDeviation,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetWarm => "fleet-warm",
            Workload::FleetCold => "fleet-cold",
            Workload::FleetChurn => "fleet-churn",
            Workload::EpilepsyDeviation => "epilepsy-deviation",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark: which layers it stresses and
    /// which it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::FleetWarm => {
                "1k sessions x 200 frames, static keys: the session table fits in cache, so AEAD open \
                 and decode dominate; the control that session-table and KDF changes must not move"
            }
            Workload::FleetCold => {
                "50k sessions x 4 frames: the same frames as warm with 50x the sessions, \
                 so lookup, first-touch histograms, provisioning and audit absorb dominate"
            }
            Workload::FleetChurn => {
                "500 sessions rekeying every 16 frames plus 7% replays, forgeries and unknown \
                 ids: the open layer's trial-open, KDF and reject paths that warm bypasses"
            }
            Workload::EpilepsyDeviation => {
                "the paper's sensor: Deviation sampling and AGE pruning on Epilepsy \
                 sequences, the only workload where sampling runs and AGE prunes"
            }
        }
    }

    /// `(sensors, frames per sensor)`.
    pub fn shape(self) -> (u64, usize) {
        match self {
            Workload::FleetWarm => (1_000, 200),
            Workload::FleetCold => (50_000, 4),
            Workload::FleetChurn => (500, 200),
            Workload::EpilepsyDeviation => (400, 100),
        }
    }
}

/// Where each frame's batch comes from.
pub enum Source {
    /// The fleet recipe: one batch and event per frame, drawn from the
    /// sensor's seeded stream just before the sensor runs (see
    /// [`Inputs::draw_fleet`]).
    Fleet,
    /// Epilepsy test sequences sampled on the sensor by the policy.
    Epilepsy {
        runner: Box<Runner>,
        policy: Box<dyn Policy>,
        /// Test-sequence index per frame, sensor-major.
        sequence_of: Vec<u32>,
    },
}

/// A frame added to the arrival trace after genuine frame `after`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    pub after: usize,
    pub kind: Injected,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injected {
    /// A verbatim copy of genuine frame `source`, already delivered.
    Replay { source: usize },
    /// Genuine frame `source` with one ciphertext byte flipped; `pick`
    /// chooses the byte.
    Forgery { source: usize, pick: u32 },
    /// Genuine frame `source` re-addressed to an id with no session.
    Unknown { source: usize, sensor_id: u64 },
}

impl Injection {
    /// The injected datagram, stamped with the send time of the genuine
    /// frame it follows so the trace stays in arrival order.
    pub fn build(&self, genuine: &[FleetFrame]) -> FleetFrame {
        let stamp = genuine.get(self.after).map_or(0, |f| f.sent_at_us);
        let copy = |source: usize| {
            genuine.get(source).cloned().unwrap_or(FleetFrame {
                wire: Vec::new(),
                event: 0,
                sent_at_us: 0,
            })
        };
        let mut frame = match self.kind {
            Injected::Replay { source } => copy(source),
            Injected::Forgery { source, pick } => {
                let mut frame = copy(source);
                // Past the header and the 12-byte nonce: ciphertext or tag.
                let body = HEADER_LEN + 12;
                let span = frame.wire.len().saturating_sub(body).max(1);
                if let Some(byte) = frame.wire.get_mut(body + pick as usize % span) {
                    *byte ^= 0x55;
                }
                frame
            }
            Injected::Unknown { source, sensor_id } => {
                let mut frame = copy(source);
                if let Some(header) = frame.wire.get_mut(..HEADER_LEN) {
                    header.copy_from_slice(&sensor_id.to_le_bytes());
                }
                frame
            }
        };
        frame.sent_at_us = stamp;
        frame
    }
}

/// Everything a run needs, built once from `(workload, seed)`.
pub struct Inputs {
    pub seed: u64,
    /// Sensor ids, cohorts, frame counts and the rekey setting, in the
    /// fleet recipe's own terms (the Epilepsy workload borrows its
    /// cohort split and static keys).
    pub fleet: FleetConfig,
    pub batch: BatchConfig,
    /// Samples per sensing window (one frame per window).
    pub window: u64,
    /// Per-sensor virtual clock phase, microseconds.
    pub phases: Vec<u64>,
    pub age_target: usize,
    pub source: Source,
    /// Sorted by `after`.
    pub injections: Vec<Injection>,
}

fn sensor_rng(seed: u64, sensor_id: u64) -> DetRng {
    // The fleet recipe's per-sensor stream (see `age_sim::fleet::generate`).
    DetRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(sensor_id),
    )
}

/// A fleet sensor's clock phase: the first draw of its stream.
fn fleet_phase(rng: &mut DetRng) -> u64 {
    rng.gen_range(0..SENSING_WINDOW * SAMPLE_PERIOD_US)
}

/// One fleet sensor's frames as drawn: a batch and an event each.
#[derive(Default)]
pub struct Draws {
    pub batches: Vec<Batch>,
    pub events: Vec<usize>,
}

impl Inputs {
    /// Builds the workload's inputs at its full shape.
    pub fn build(workload: Workload, seed: u64) -> Inputs {
        Inputs::with_sensors(workload, seed, workload.shape().0)
    }

    /// Builds the inputs with `sensors` sensors instead of the workload's
    /// own count (the unit tests use small fleets).
    pub fn with_sensors(workload: Workload, seed: u64, sensors: u64) -> Inputs {
        let frames_per_sensor = workload.shape().1;
        let mut fleet = FleetConfig::new(sensors, seed);
        fleet.frames_per_sensor = frames_per_sensor;
        if workload == Workload::FleetChurn {
            fleet.rekey_interval = Some(CHURN_REKEY_INTERVAL);
        }
        let frames = sensors as usize * frames_per_sensor;
        let mut phases = Vec::with_capacity(sensors as usize);
        let mut inputs = match workload {
            Workload::EpilepsyDeviation => {
                let runner = Runner::new(DatasetKind::Epilepsy, Scale::Default, DATASET_SEED);
                let policy = runner.policy(PolicyKind::Deviation, 0.3);
                let batch = *runner.batch_config();
                let window = runner.dataset().spec().seq_len as u64;
                // The paper simulator's framing (its default ChaCha20
                // stream cipher) sets the AGE target, as in the runner.
                let framing = runner.cipher(CipherChoice::ChaCha20);
                let age_target = plaintext_budget(
                    reduced_target_bytes(target_bytes(&batch, 0.3)),
                    framing.kind(),
                    framing.overhead(),
                    16,
                )
                .max(AgeEncoder::min_target_bytes(&batch));
                // Each sensor deals the test sequences from its own shuffled
                // deck, so every session sees nearly the whole test set and
                // the work and histograms per round barely move with the
                // seed.
                let tests = runner.test_sequences().len() as u32;
                let mut deck: Vec<u32> = (0..tests).collect();
                let mut sequence_of = Vec::with_capacity(frames);
                for sensor_id in 0..sensors {
                    let mut rng = sensor_rng(seed, sensor_id);
                    phases.push(rng.gen_range(0..window * SAMPLE_PERIOD_US));
                    for frame in 0..frames_per_sensor {
                        if frame % deck.len() == 0 {
                            deck.shuffle(&mut rng);
                        }
                        sequence_of.push(deck[frame % deck.len()]);
                    }
                }
                Inputs {
                    seed,
                    fleet,
                    batch,
                    window,
                    phases,
                    age_target,
                    source: Source::Epilepsy {
                        runner: Box::new(runner),
                        policy,
                        sequence_of,
                    },
                    injections: Vec::new(),
                }
            }
            _ => {
                for sensor_id in 0..sensors {
                    phases.push(fleet_phase(&mut sensor_rng(seed, sensor_id)));
                }
                Inputs {
                    seed,
                    fleet,
                    batch: fleet_batch_config(),
                    window: SENSING_WINDOW,
                    phases,
                    age_target: fleet_age_target(),
                    source: Source::Fleet,
                    injections: Vec::new(),
                }
            }
        };
        if workload == Workload::FleetChurn {
            inputs.injections = plan_injections(seed, sensors, frames);
        }
        inputs
    }

    /// Draws fleet sensor `sensor_id`'s batches and events into `draws`:
    /// the same draws, in the same order, as `generate`. The sensor phase
    /// draws each sensor's frames just before that sensor runs, outside
    /// the timed loop, so a sensor encodes data it has just sampled
    /// rather than streaming a fleet's worth of pre-drawn batches from
    /// memory.
    pub fn draw_fleet(&self, sensor_id: u64, draws: &mut Draws) {
        let events = self.fleet.events.max(1);
        let features = self.batch.features();
        let mut rng = sensor_rng(self.seed, sensor_id);
        fleet_phase(&mut rng);
        draws.batches.clear();
        draws.events.clear();
        for _ in 0..self.frames_per_sensor() {
            let event = rng.gen_range(0..events);
            let kept = (6 + event * 8).min(SENSING_WINDOW as usize);
            let values: Vec<f64> = (0..kept * features)
                .map(|_| rng.gen_range(-16.0..16.0))
                .collect();
            draws.batches.push(
                Batch::new((0..kept).collect(), values)
                    .expect("fleet batches are strictly increasing runs"),
            );
            draws.events.push(event);
        }
    }

    pub fn sensors(&self) -> u64 {
        self.fleet.sensors
    }

    pub fn frames_per_sensor(&self) -> usize {
        self.fleet.frames_per_sensor
    }

    /// Genuine frames one sensor phase produces.
    pub fn genuine_frames(&self) -> usize {
        self.sensors() as usize * self.frames_per_sensor()
    }

    pub fn cohort_of(&self, sensor_id: u64) -> usize {
        self.fleet.cohort_of(sensor_id)
    }

    /// The encoder cohorts, defended first: the fleet's own for the fleet
    /// workloads, AGE at the rate-0.3 target plus `Std` for Epilepsy.
    pub fn cohorts(&self) -> Vec<Cohort> {
        match self.source {
            Source::Fleet => fleet_cohorts(),
            Source::Epilepsy { .. } => vec![
                Cohort::new("AGE", Box::new(AgeEncoder::new(self.age_target))),
                Cohort::new("Std", Box::new(StandardEncoder)),
            ],
        }
    }

    pub fn gateway_config(&self) -> GatewayConfig {
        match self.source {
            Source::Fleet => fleet_gateway_config(&self.fleet, SHARDS),
            Source::Epilepsy { .. } => {
                GatewayConfig::new(self.batch, self.cohorts(), self.seed, SHARDS)
            }
        }
    }

    /// A fresh gateway with every sensor provisioned — what an operator
    /// waits for before the first frame can be ingested.
    pub fn provision(&self) -> Gateway {
        let mut gateway = Gateway::new(self.gateway_config());
        for sensor_id in 0..self.sensors() {
            // Cohort indices come from `cohort_of`, always in range.
            let _ = gateway.provision(sensor_id, self.cohort_of(sensor_id));
        }
        gateway
    }

    /// Ground truth per arrival: genuine frames must be accepted, every
    /// injected frame rejected.
    pub fn expected_verdicts(&self) -> Vec<bool> {
        let mut expected = Vec::with_capacity(self.genuine_frames() + self.injections.len());
        let mut next = self.injections.iter().peekable();
        for i in 0..self.genuine_frames() {
            expected.push(true);
            while next.next_if(|inj| inj.after == i).is_some() {
                expected.push(false);
            }
        }
        expected
    }

    /// Merges the injections into the sorted genuine frames.
    pub fn arrival_trace(&self, genuine: Vec<FleetFrame>) -> Vec<FleetFrame> {
        if self.injections.is_empty() {
            return genuine;
        }
        let injected: Vec<FleetFrame> = self.injections.iter().map(|i| i.build(&genuine)).collect();
        let mut trace = Vec::with_capacity(genuine.len() + injected.len());
        let mut next = self.injections.iter().zip(injected).peekable();
        for (i, frame) in genuine.into_iter().enumerate() {
            trace.push(frame);
            while let Some((_, frame)) = next.next_if(|(inj, _)| inj.after == i) {
                trace.push(frame);
            }
        }
        trace
    }
}

/// Genuine frames per injection group.
const GROUP: usize = 100;
/// Replays, forgeries and unknown-id frames injected per group.
const REPLAYS: usize = 4;
const FORGERIES: usize = 2;
const UNKNOWN: usize = 1;
/// How far back a replay reaches, in arrivals: up to about 2.5 key epochs
/// on a 500-sensor fleet rekeying every 16 frames.
const REPLAY_REACH: usize = 20_000;

/// The churn workload's injections: in every group of 100 genuine frames,
/// at seeded positions, 4 replays of a frame 1..=20,000 positions back (one
/// from each quarter of that range, so every group carries the same mix
/// of in-window, previous-epoch and stale replays), 2 forgeries with one
/// ciphertext byte flipped, and 1 frame for an id no sensor has. Exact
/// counts per group keep the work per round the same for every seed.
fn plan_injections(seed: u64, sensors: u64, frames: usize) -> Vec<Injection> {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x1a7e_c7ed_f00d_5eed);
    let per_group = REPLAYS + FORGERIES + UNKNOWN;
    let mut plan = Vec::with_capacity(frames / GROUP * per_group);
    let quarter = REPLAY_REACH / REPLAYS;
    for group in (0..frames).step_by(GROUP) {
        let mut positions: Vec<usize> = (group..frames.min(group + GROUP)).collect();
        positions.shuffle(&mut rng);
        for (k, &after) in positions.iter().take(per_group).enumerate() {
            let kind = match k {
                k if k < REPLAYS => Injected::Replay {
                    source: (after + 1).saturating_sub(k * quarter + rng.gen_range(1..=quarter)),
                },
                k if k < REPLAYS + FORGERIES => Injected::Forgery {
                    source: after,
                    pick: rng.gen_range(0..u32::MAX),
                },
                _ => Injected::Unknown {
                    source: after,
                    sensor_id: sensors + rng.gen_range(0..1u64 << 40),
                },
            };
            plan.push(Injection { after, kind });
        }
    }
    plan.sort_by_key(|i| i.after);
    plan
}
