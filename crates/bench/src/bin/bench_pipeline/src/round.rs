//! One round of the pipeline, and the checks every round must pass.
//!
//! A round builds [`SETUPS`] gateways (keeping the last), runs the sensor
//! phase, sorts the frames into the arrival trace (merging the churn
//! injections), ingests it single-threaded, audits, then drains a fresh
//! gateway with `Gateway::run` and checks the drain reproduces the
//! single-thread results byte for byte. The sensor phase and the ingest
//! are metered in chunks by the host-speed reference (see `host`); the
//! set-ups, the audit and the traced passes are bracketed by it. A traced
//! round repeats the sensor phase and the ingest with spans, re-times the
//! gateway's steps and the encoder's stages in passes of their own, and
//! audits, but does not drain: the drain carries no spans.

use std::time::Instant;

use age_gateway::{Cohort, FleetFrame, Gateway, ShardStats};
use age_sim::fleet::generate;
use age_transport::ReceiverStats;

use crate::gateway::{
    audit_phase, drain_phase, ingest_alloc_bytes, ingest_phase, nanos, AuditTimes, IngestOutput,
    Retimer, PERMUTATIONS,
};
use crate::host::{reference_ns, slowdown, Timed, SENSOR_EXPONENT};
use crate::sensor::{sensor_phase, stage_phase, Stages};
use crate::spans::{Layer, Recorder, Untraced};
use crate::workload::{Inputs, Source, Workload};

/// Gateways built and timed per round, for `setup_s`.
pub const SETUPS: usize = 5;

/// Seed of the inputs the allocation count runs on, whatever the run's
/// seed: the count then repeats exactly from run to run. (On a run's own
/// seed it moved by up to 2% between seeds: the order in which a session
/// first meets its histogram keys decides how its maps split, and on the
/// rekeying fleet the seed sets how far each forged frame is probed.)
pub const ALLOC_SEED: u64 = 2022;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundKind {
    /// Runs the one-off checks (the `generate` comparison, scored-report
    /// equality across thread counts); its timings are discarded.
    Warmup,
    Measured,
    /// Runs the sensor phase and the ingest twice, back to back: untraced,
    /// then with spans around every layer call (plus the stage pass and
    /// the re-timed gateway steps), so the ledger compares two passes the
    /// host treated alike.
    Traced,
}

/// A workload's inputs plus the state carried between its rounds.
pub struct Context {
    pub inputs: Inputs,
    pub cohorts: Vec<Cohort>,
    /// Ground-truth verdict per arrival.
    pub expected: Vec<bool>,
    /// Worker threads for the drain.
    pub threads: usize,
    /// `age_sim::fleet::generate`'s frames, until the warm-up round has
    /// compared the sensor phase's against them.
    generated: Option<Vec<FleetFrame>>,
    /// The first round's trace digest; every later round must match it.
    digest: Option<u64>,
}

impl Context {
    pub fn new(workload: Workload, seed: u64, threads: usize) -> Context {
        Context::with_inputs(Inputs::build(workload, seed), threads)
    }

    pub fn with_inputs(inputs: Inputs, threads: usize) -> Context {
        let generated = match inputs.source {
            Source::Fleet => Some(generate(&inputs.fleet).frames),
            Source::Epilepsy { .. } => None,
        };
        Context {
            cohorts: inputs.cohorts(),
            expected: inputs.expected_verdicts(),
            inputs,
            threads,
            generated,
            digest: None,
        }
    }
}

/// One traced pass: the spans around its layer calls, and how much slower
/// than the reference speed the host ran meanwhile.
pub struct Pass {
    pub spans: Recorder,
    pub slowdown: f64,
}

impl Pass {
    /// Summed self time of `layers`, at the reference speed.
    pub fn self_ns(&self, layers: &[Layer]) -> f64 {
        let ns: i64 = layers.iter().map(|&l| self.spans.total(l).self_ns).sum();
        ns as f64 / self.slowdown
    }

    pub fn self_allocs(&self, layer: Layer) -> u64 {
        self.spans.total(layer).self_allocs
    }
}

/// The audit's times and how much slower than the reference speed the
/// host ran meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct AuditRun {
    pub times: AuditTimes,
    pub slowdown: f64,
}

impl AuditRun {
    /// `ns` of this audit, in seconds at the reference speed.
    pub fn scaled_s(&self, ns: u64) -> f64 {
        ns as f64 / self.slowdown / 1e9
    }
}

/// What the traced round adds, each pass at the reference speed.
pub struct Traced {
    /// The sensor phase again, with spans.
    pub sensor: Pass,
    /// The encoder's own stage timings over the same AGE batches.
    pub stages: Stages,
    pub stages_slowdown: f64,
    /// The ingest again, with spans, on a fresh gateway.
    pub ingest: Pass,
    /// Route, open and decode re-timed on every arrival.
    pub retime: Pass,
    pub key_derivations: u64,
    pub sealed_bytes: u64,
    /// Wall time of the traced ingest loop.
    pub ingest_wall: Timed,
}

/// The multi-thread drain's figures.
pub struct Drain {
    pub wall_ns: u64,
    pub shard_skew: f64,
}

pub struct Round {
    /// `Gateway::new` plus provisioning, once per gateway built, in ns.
    pub setups: Vec<Timed>,
    pub sessions: u64,
    pub genuine_frames: usize,
    /// The sensor phase's busy time, all frames.
    pub sensor: Timed,
    pub ingest: IngestOutput,
    pub stats: ShardStats,
    pub receiver: ReceiverStats,
    /// Arrivals whose verdict differed from the ground truth.
    pub mismatches: u64,
    /// Every failed check, empty when the round is correct.
    pub failures: Vec<String>,
    pub audit: AuditRun,
    /// Absent from the traced round.
    pub drain: Option<Drain>,
    pub traced: Option<Traced>,
}

impl Round {
    pub fn frames(&self) -> usize {
        self.ingest.verdicts.len()
    }
}

/// FNV-1a over every datagram's bytes, event and stamp, in order.
pub fn trace_digest(trace: &[FleetFrame]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for frame in trace {
        eat(&(frame.wire.len() as u64).to_le_bytes());
        eat(&frame.wire);
        eat(&(frame.event as u64).to_le_bytes());
        eat(&frame.sent_at_us.to_le_bytes());
    }
    hash
}

/// Sorts sensor-major frames into arrival order, as
/// `age_sim::fleet::generate` orders its trace.
pub fn sort_arrivals(frames: &mut [FleetFrame]) {
    frames.sort_by_key(|f| (f.sent_at_us, f.sensor_id().unwrap_or(0)));
}

/// The arrival trace of one sensor phase over `inputs`.
fn arrivals(inputs: &Inputs, mut genuine: Vec<FleetFrame>) -> Vec<FleetFrame> {
    sort_arrivals(&mut genuine);
    inputs.arrival_trace(genuine)
}

/// Builds [`SETUPS`] gateways one after another, dropping each before the
/// next is timed, and returns the last with every build's time.
fn provision_timed(inputs: &Inputs) -> (Gateway, Vec<Timed>) {
    let before = reference_ns();
    let mut times = Vec::with_capacity(SETUPS);
    let mut build = || {
        let start = Instant::now();
        let gateway = inputs.provision();
        times.push(nanos(start.elapsed()) as f64);
        gateway
    };
    let mut gateway = build();
    for _ in 1..SETUPS {
        drop(gateway);
        gateway = build();
    }
    let s = slowdown((before + reference_ns()) / 2.0);
    let setups = times
        .into_iter()
        .map(|ns| Timed {
            measured: ns,
            scaled: ns / s,
        })
        .collect();
    (gateway, setups)
}

/// Heap bytes allocated to provision the gateway and ingest the trace, on
/// the workload's inputs at [`ALLOC_SEED`].
#[derive(Debug, Clone, Copy)]
pub struct AllocCount {
    pub provision_bytes: u64,
    pub ingest_bytes: u64,
    pub sessions: u64,
}

pub fn alloc_count(workload: Workload) -> Result<AllocCount, String> {
    let inputs = Inputs::build(workload, ALLOC_SEED);
    let cohorts = inputs.cohorts();
    let trace = arrivals(
        &inputs,
        sensor_phase(&inputs, &cohorts, &mut Untraced)?.frames,
    );
    let (provision_bytes, ingest_bytes) = ingest_alloc_bytes(&inputs, &trace);
    Ok(AllocCount {
        provision_bytes,
        ingest_bytes,
        sessions: inputs.sensors(),
    })
}

/// What the traced sensor side produced, held until the ingest is traced.
struct SensorSide {
    pass: Pass,
    stages: Stages,
    stages_slowdown: f64,
    key_derivations: u64,
    sealed_bytes: u64,
}

pub fn run_round(ctx: &mut Context, kind: RoundKind) -> Result<Round, String> {
    let inputs = &ctx.inputs;
    let traced = kind == RoundKind::Traced;
    let mut failures = Vec::new();
    let (mut gateway, setups) = provision_timed(inputs);

    let sensor = sensor_phase(inputs, &ctx.cohorts, &mut Untraced)?;
    let base = Instant::now();
    let mut sensor_side = None;
    if traced {
        let mut spans = Recorder::new(base);
        let spanned = sensor_phase(inputs, &ctx.cohorts, &mut spans)?;
        if spanned.frames != sensor.frames {
            failures.push("the traced sensor phase sealed different frames".to_string());
        }
        let before = reference_ns();
        let stages = stage_phase(inputs)?;
        sensor_side = Some(SensorSide {
            pass: Pass {
                spans,
                slowdown: spanned.busy.slowdown(),
            },
            stages,
            // The encoder runs as it does in the sensor phase.
            stages_slowdown: slowdown((before + reference_ns()) / 2.0).powf(SENSOR_EXPONENT),
            key_derivations: spanned.key_derivations,
            sealed_bytes: spanned.sealed_bytes,
        });
    }

    let mut genuine = sensor.frames;
    sort_arrivals(&mut genuine);
    if let Some(generated) = ctx.generated.take() {
        if genuine != generated {
            failures.push(format!(
                "sensor-phase frames differ from age_sim::fleet::generate ({} vs {} frames)",
                genuine.len(),
                generated.len()
            ));
        }
    }
    let genuine_frames = genuine.len();
    let trace = inputs.arrival_trace(genuine);
    let digest = trace_digest(&trace);
    if *ctx.digest.get_or_insert(digest) != digest {
        failures.push("arrival trace differs from the first round's".to_string());
    }

    let mut ingest = ingest_phase(&mut gateway, &trace, &mut Untraced);
    let mut tracing = None;
    if let Some(side) = sensor_side {
        let mut spanned_gateway = inputs.provision();
        let mut spans = Recorder::new(base);
        let spanned = ingest_phase(&mut spanned_gateway, &trace, &mut spans);
        drop(spanned_gateway);
        if spanned.verdicts != ingest.verdicts {
            failures.push("the traced ingest reached different verdicts".to_string());
        }
        let ingest_pass = Pass {
            spans,
            slowdown: spanned.wall.slowdown(),
        };
        let before = reference_ns();
        let mut spans = Recorder::new(base);
        let mut retimer = Retimer::new(inputs, &ctx.cohorts);
        retimer.retime_phase(&mut spans, &trace, &spanned.verdicts);
        let retime = Pass {
            spans,
            slowdown: slowdown((before + reference_ns()) / 2.0),
        };
        if retimer.failures > 0 {
            failures.push(format!(
                "{} accepted frames failed the re-timed open or decode",
                retimer.failures
            ));
        }
        tracing = Some(Traced {
            sensor: side.pass,
            stages: side.stages,
            stages_slowdown: side.stages_slowdown,
            ingest: ingest_pass,
            retime,
            key_derivations: side.key_derivations,
            sealed_bytes: side.sealed_bytes,
            ingest_wall: spanned.wall,
        });
    }
    let stats = gateway.fleet_stats();
    if stats.frames != trace.len() as u64 || stats.frames != stats.accepted + stats.rejected() {
        failures.push(format!(
            "frame accounting: {} offered, {} counted, {} accepted + {} rejected",
            trace.len(),
            stats.frames,
            stats.accepted,
            stats.rejected()
        ));
    }
    let mismatches = ingest
        .verdicts
        .iter()
        .zip(&ctx.expected)
        .filter(|(got, &want)| got.is_some() != want)
        .count() as u64
        + ingest.verdicts.len().abs_diff(ctx.expected.len()) as u64;
    if mismatches > 0 {
        failures.push(format!(
            "{mismatches} verdicts differ from the ground truth"
        ));
    }
    ingest.latencies.sort_by(f64::total_cmp);

    let before_audit = reference_ns();
    let audit = audit_phase(&gateway, &sensor.seals, inputs.seed);
    let audit_run = AuditRun {
        times: audit.times,
        slowdown: slowdown((before_audit + reference_ns()) / 2.0),
    };
    failures.extend(
        audit
            .gate_failures
            .iter()
            .map(|f| format!("leakage gate: {f}")),
    );
    if !audit.gateway_nonces_clean {
        failures.push("gateway-side nonce audit found a reuse".to_string());
    }
    if !audit.sealed_nonces_clean {
        failures.push("seal-side nonce audit found a reuse".to_string());
    }
    let report = gateway.fleet_report();
    match report.cohorts.first() {
        Some(age) if age.stats.frames > 0 && age.stats.wire_constant() => {}
        _ => failures.push("AGE cohort frames are not all one wire size".to_string()),
    }
    let mut round = Round {
        setups,
        sessions: inputs.sensors(),
        genuine_frames,
        sensor: sensor.busy,
        ingest,
        stats,
        receiver: gateway.receiver_stats(),
        mismatches,
        failures,
        audit: audit_run,
        drain: None,
        traced: tracing,
    };
    if traced {
        return Ok(round);
    }
    let report_json = report.to_json();
    drop(gateway);

    let drain = drain_phase(inputs.provision(), &trace, ctx.threads);
    let failures = &mut round.failures;
    if drain.gateway.fleet_report().to_json() != report_json {
        failures.push(format!(
            "fleet report differs between single-thread ingest and the {}-thread drain",
            ctx.threads
        ));
    }
    let drained_audit = drain.gateway.leakage_audit();
    if drained_audit != audit.audit {
        failures.push("leakage audit differs after the multi-thread drain".to_string());
    }
    // The scored report is a pure function of the audit; scoring it again
    // is left to the round whose time is not measured.
    if kind == RoundKind::Warmup {
        let mut rescored = drained_audit.report(PERMUTATIONS, inputs.seed);
        rescored.gate = audit.report.gate.clone();
        if rescored.to_json() != audit.report.to_json() {
            failures.push("scored leakage report differs after the drain".to_string());
        }
    }
    round.drain = Some(Drain {
        wall_ns: drain.wall_ns,
        shard_skew: drain.shard_skew,
    });
    Ok(round)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(workload: Workload, seed: u64) -> u64 {
        let inputs = Inputs::with_sensors(workload, seed, 12);
        let cohorts = inputs.cohorts();
        let frames = sensor_phase(&inputs, &cohorts, &mut Untraced)
            .unwrap()
            .frames;
        trace_digest(&arrivals(&inputs, frames))
    }

    #[test]
    fn workload_traces_are_a_function_of_the_seed() {
        for workload in Workload::ALL {
            let a = digest_of(workload, 2022);
            assert_eq!(a, digest_of(workload, 2022), "{}", workload.name());
            assert_ne!(a, digest_of(workload, 2023), "{}", workload.name());
        }
    }

    #[test]
    fn fleet_sensor_phase_reproduces_generate() {
        for workload in [Workload::FleetWarm, Workload::FleetChurn] {
            let inputs = Inputs::with_sensors(workload, 5, 15);
            let cohorts = inputs.cohorts();
            let mut frames = sensor_phase(&inputs, &cohorts, &mut Untraced)
                .unwrap()
                .frames;
            sort_arrivals(&mut frames);
            assert_eq!(
                frames,
                generate(&inputs.fleet).frames,
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn churn_ground_truth_matches_gateway_verdicts() {
        let inputs = Inputs::with_sensors(Workload::FleetChurn, 11, 20);
        let mut ctx = Context::with_inputs(inputs, 2);
        let injected = ctx.expected.iter().filter(|&&ok| !ok).count();
        assert!(injected > 100, "only {injected} injected frames");
        let round = run_round(&mut ctx, RoundKind::Warmup).unwrap();
        let accepted: Vec<bool> = round.ingest.verdicts.iter().map(Option::is_some).collect();
        assert_eq!(accepted, ctx.expected);
        assert!(round.failures.is_empty(), "{:?}", round.failures);
        let s = round.stats;
        assert!(s.auth_failed > 0 && s.replay_rejected > 0 && s.unknown_sensor > 0);
        assert!(round.receiver.epoch_advances > 0, "the fleet rekeyed");
    }
}
