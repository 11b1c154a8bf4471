//! The gateway itself: configuration, the sharded session table, the
//! parallel drain loop, and the deterministic fleet report.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use age_core::{BatchConfig, Encoder};
use age_telemetry::{
    FleetNonceAudit, FlightRecord, JsonStr, LeakageAudit, MonitorConfig, WindowedMonitor,
};
use age_transport::ReceiverStats;

use crate::frame::{sensor_id_of, FleetFrame, GatewayError};
use crate::health::ShardReport;
use crate::route::{derive_key, shard_of, stagger_phase};
use crate::session::Session;
use crate::shard::{CohortStats, Shard, ShardStats};

/// One encoder cohort: a fleet runs a mix of encoders (the defended
/// population plus a leaky baseline for gate calibration), and the
/// leakage report keys streams by this name.
///
/// The name is explicit rather than taken from
/// [`Encoder::name`] because the audit gate's cohort lists use the
/// sweep's short labels (`"Std"`), not the encoder's display name
/// (`"Standard"`) — a silently mismatched name would make the baseline
/// clause of the gate vacuous.
pub struct Cohort {
    /// Stream name in the leakage report (e.g. `"AGE"`, `"Std"`).
    pub name: String,
    /// Decoder for the cohort's payloads.
    pub encoder: Box<dyn Encoder + Send + Sync>,
}

impl Cohort {
    /// A named cohort over `encoder`.
    pub fn new(name: &str, encoder: Box<dyn Encoder + Send + Sync>) -> Cohort {
        Cohort {
            name: name.to_string(),
            encoder,
        }
    }
}

/// The one stream label a gateway files its aggregated traffic under,
/// in the leakage audit and the fleet report.
pub const FLEET_LABEL: &str = "fleet";

/// Everything a gateway needs to be rebuilt identically: the batch
/// shape, the cohorts, the provisioning seed, and the shard count.
pub struct GatewayConfig {
    /// Batch configuration shared by every cohort.
    pub batch: BatchConfig,
    /// Encoder cohorts; sessions reference these by index.
    pub cohorts: Vec<Cohort>,
    /// Seed for [`derive_key`]; the fleet driver must use the same one.
    pub fleet_seed: u64,
    /// Session-table shards (0 is treated as 1).
    pub shards: usize,
    /// Fleet-wide staggered rekey: `Some(interval)` provisions every
    /// session with an epoch ratchet rooted in the fleet secret, each
    /// sensor rotating every `interval` sequence numbers at its own
    /// [`stagger_phase`] (interval 0 = a ratchet that never rotates).
    /// `None` (the default) keeps the legacy static keys and
    /// byte-identical artifacts.
    pub rekey_interval: Option<u64>,
    /// Windowed streaming leakage monitor; `None` (the default) scores
    /// nothing mid-run and adds nothing to the ingest path.
    pub monitor: Option<MonitorConfig>,
    /// Flight-recorder ring capacity *per shard* (0 disables). The ring
    /// is preallocated at shard construction, so steady-state recording
    /// never allocates.
    pub recorder_capacity: usize,
}

impl GatewayConfig {
    /// A config with the fleet defaults: static keys, no streaming
    /// monitor, and a 256-record flight recorder per shard.
    pub fn new(batch: BatchConfig, cohorts: Vec<Cohort>, fleet_seed: u64, shards: usize) -> Self {
        GatewayConfig {
            batch,
            cohorts,
            fleet_seed,
            shards,
            rekey_interval: None,
            monitor: None,
            recorder_capacity: 256,
        }
    }
}

/// Locks a mutex, riding through poisoning: a panicking worker must not
/// let a later report read torn state silently, but shard state is only
/// ever mutated between the take/replace pair, so the inner value is
/// always structurally whole.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The sharded fleet ingest gateway.
///
/// Frames route to shards by [`shard_of`] (a pure function of the
/// sensor id), shards hold disjoint session slices, and every rollup
/// merges commutatively — so [`Gateway::fleet_report`], the leakage
/// audit, and the nonce audit are byte-identical at any shard count and
/// any thread count.
pub struct Gateway {
    config: GatewayConfig,
    shards: Vec<Shard>,
}

impl Gateway {
    /// A gateway with empty session tables.
    pub fn new(config: GatewayConfig) -> Gateway {
        let nshards = config.shards.max(1);
        let shards = (0..nshards).map(|i| Shard::new(&config, i)).collect();
        Gateway { config, shards }
    }

    /// The configuration the gateway was built with.
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// Provisions (or re-provisions) one sensor into `cohort`, deriving
    /// its session key from the fleet seed.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownCohort`] if `cohort` is out of range.
    pub fn provision(&mut self, sensor_id: u64, cohort: usize) -> Result<(), GatewayError> {
        if cohort >= self.config.cohorts.len() {
            return Err(GatewayError::UnknownCohort { cohort });
        }
        let shard = shard_of(sensor_id, self.shards.len());
        let session = match self.config.rekey_interval {
            Some(interval) => {
                let root = crate::route::derive_root(self.config.fleet_seed, sensor_id);
                let phase = stagger_phase(self.config.fleet_seed, sensor_id, interval);
                Session::with_rekey(root, interval, phase, cohort)
            }
            None => {
                let key = derive_key(self.config.fleet_seed, sensor_id);
                Session::new(key, cohort)
            }
        };
        if let Some(slot) = self.shards.get_mut(shard) {
            slot.insert_session(sensor_id, session);
        }
        Ok(())
    }

    /// Provisioned sessions across all shards.
    pub fn sessions(&self) -> u64 {
        self.shards.iter().map(|s| s.occupancy() as u64).sum()
    }

    /// Ingests one datagram on the caller's thread (the single-threaded
    /// path; [`Gateway::run`] drains whole traces in parallel).
    ///
    /// # Errors
    ///
    /// [`GatewayError`] describing exactly which pipeline stage dropped
    /// the datagram.
    pub fn ingest(&mut self, frame: &FleetFrame) -> Result<u64, GatewayError> {
        let shard = match sensor_id_of(&frame.wire) {
            Some(id) => shard_of(id, self.shards.len()),
            // Headerless garbage deterministically lands on shard 0,
            // which counts and rejects it.
            None => 0,
        };
        match self.shards.get_mut(shard) {
            Some(slot) => slot.ingest(frame, &self.config),
            None => Err(GatewayError::UnknownSensor { sensor_id: 0 }),
        }
    }

    /// Drains a whole trace through the shards on up to `threads`
    /// worker threads (clamped to the shard count; 0 means 1).
    ///
    /// Frames are first routed to per-shard queues in trace order, then
    /// workers claim whole shards off an atomic cursor — so each
    /// sensor's frames are processed in trace order by exactly one
    /// worker regardless of thread count, and the merged reports cannot
    /// observe the parallelism.
    pub fn run(&mut self, traffic: &[FleetFrame], threads: usize) {
        let nshards = self.shards.len();
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); nshards];
        for (index, frame) in traffic.iter().enumerate() {
            let shard = match sensor_id_of(&frame.wire) {
                Some(id) => shard_of(id, nshards),
                None => 0,
            };
            if let Some(queue) = queues.get_mut(shard) {
                queue.push(index);
            }
        }
        let workers = threads.max(1).min(nshards);
        if workers <= 1 {
            for (shard, queue) in self.shards.iter_mut().zip(queues.iter()) {
                for frame in queue.iter().filter_map(|&index| traffic.get(index)) {
                    let _ = shard.ingest(frame, &self.config);
                }
            }
            return;
        }

        let config = &self.config;
        let slots: Vec<Mutex<Option<Shard>>> = std::mem::take(&mut self.shards)
            .into_iter()
            .map(|shard| Mutex::new(Some(shard)))
            .collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(index) else { break };
                    let Some(mut shard) = lock(slot).take() else {
                        continue;
                    };
                    if let Some(queue) = queues.get(index) {
                        for frame in queue.iter().filter_map(|&frame| traffic.get(frame)) {
                            let _ = shard.ingest(frame, config);
                        }
                    }
                    *lock(slot) = Some(shard);
                });
            }
        });
        let rebuilt = slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                slot.into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .unwrap_or_else(|| Shard::new(config, index))
            })
            .collect();
        self.shards = rebuilt;
    }

    /// The deterministic fleet rollup. Contains nothing that depends on
    /// the shard count or thread count — commutative merges only — so
    /// its JSON is byte-identical across partitions of the same
    /// traffic.
    pub fn fleet_report(&self) -> FleetReport {
        let mut stats = ShardStats::default();
        let mut cohorts: Vec<CohortStats> = vec![CohortStats::default(); self.config.cohorts.len()];
        let mut active_sensors = 0u64;
        for shard in &self.shards {
            stats.merge(&shard.stats);
            for (mine, theirs) in cohorts.iter_mut().zip(shard.cohorts.iter()) {
                mine.merge(theirs);
            }
            active_sensors += shard
                .sessions()
                .filter(|s| s.receiver.stats().accepted > 0)
                .count() as u64;
        }
        FleetReport {
            sensors: self.sessions(),
            active_sensors,
            stats,
            cohorts: self
                .config
                .cohorts
                .iter()
                .zip(cohorts)
                .map(|(cohort, stats)| CohortReport {
                    name: cohort.name.clone(),
                    stats,
                })
                .collect(),
        }
    }

    /// Per-receiver stats summed across every session — must agree with
    /// the shard counters for the stages receivers see (the determinism
    /// tests assert it).
    pub fn receiver_stats(&self) -> ReceiverStats {
        let mut total = ReceiverStats::default();
        for shard in &self.shards {
            total.merge(&shard.receiver_stats());
        }
        total
    }

    /// Fleet-wide datagram counters — the commutative shard-stats fold
    /// without the session scan [`Gateway::fleet_report`] performs, so
    /// periodic health snapshots stay cheap at large fleets.
    pub fn fleet_stats(&self) -> ShardStats {
        let mut stats = ShardStats::default();
        for shard in &self.shards {
            stats.merge(&shard.stats);
        }
        stats
    }

    /// Per-shard sessions and ingest accounting, in shard order — the
    /// load-imbalance view `repro --gateway` prints. Unlike every merged
    /// report this is *intentionally* shard-count-dependent.
    pub fn shard_reports(&self) -> Vec<ShardReport> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, slot)| ShardReport {
                shard,
                sessions: slot.occupancy(),
                stats: slot.stats,
            })
            .collect()
    }

    /// The fleet-level windowed monitor: the commutative fold of every
    /// shard's monitor (`None` when [`GatewayConfig::monitor`] is off).
    /// Window counts are sums and the watermark is a max, so the result
    /// — and every alarm scored from it — is byte-identical at any
    /// shard or thread count.
    pub fn monitor(&self) -> Option<WindowedMonitor> {
        let config = self.config.monitor?;
        let mut merged = WindowedMonitor::new(config.window_us, self.config.cohorts.len());
        for shard in &self.shards {
            if let Some(monitor) = &shard.monitor {
                merged.absorb(monitor);
            }
        }
        Some(merged)
    }

    /// All retained flight records merged across shards and sorted into
    /// arrival order, plus the count of records evicted by ring
    /// wrap-around. With per-shard capacity large enough that nothing
    /// was evicted, the merged list is byte-identical at any shard
    /// count; once rings wrap, retention (but not ordering) depends on
    /// how sensors were sharded.
    pub fn flight_records(&self) -> (Vec<FlightRecord>, u64) {
        let mut records = Vec::new();
        let mut dropped = 0u64;
        for shard in &self.shards {
            records.extend(shard.recorder.iter().copied());
            dropped += shard.recorder.dropped();
        }
        records.sort_unstable();
        (records, dropped)
    }

    /// Assembles the fleet leakage audit from every shard's per-cohort
    /// size and gap histograms, keyed `(label, cohort name)`. A cohort
    /// gets an entry once it has a provisioned sensor or an accepted
    /// frame. Pre-binned counts merge commutatively, so the audit — and
    /// the report scored from it — is byte-identical at any shard/thread
    /// count.
    pub fn leakage_audit(&self) -> LeakageAudit {
        let mut audit = LeakageAudit::new();
        for shard in &self.shards {
            let streams = shard.cohorts.iter().zip(&shard.leakage);
            for (cohort, (stats, (sizes, gaps))) in self.config.cohorts.iter().zip(streams) {
                if stats.sensors > 0 || !sizes.is_empty() {
                    audit.absorb(FLEET_LABEL, &cohort.name, sizes, gaps);
                }
            }
        }
        audit
    }

    /// The gateway-side nonce audit: `(sensor, epoch, sequence)` triples
    /// of every *accepted* frame, merged across shards. A violation here
    /// means a frame was accepted twice — cross-shard confusion, a
    /// replay-window failure, a re-provisioned sensor replaying its old
    /// frames — independent of the seal-side audit the fleet driver
    /// keeps.
    ///
    /// The seen-sets live in the sessions' nonce ledgers, so this
    /// rebuilds the audit: it walks every session, costing time in the
    /// fleet's size. [`Gateway::nonces_clean`] answers the verdict alone
    /// from the shards' reuse counts.
    pub fn nonce_audit(&self) -> FleetNonceAudit {
        let mut merged = FleetNonceAudit::default();
        for shard in &self.shards {
            merged.merge(&shard.nonces);
            for (sensor_id, session) in shard.sessions_by_id() {
                for (epoch, lo, hi) in session.nonces.iter().flat_map(|ledger| ledger.runs()) {
                    merged.insert_run(sensor_id, epoch, lo, hi);
                }
            }
        }
        merged
    }

    /// `true` when no accepted `(sensor, epoch, sequence)` triple was
    /// accepted twice: [`nonce_audit`](Self::nonce_audit)`().is_clean()`
    /// read from each shard's reuse count, with no walk over the
    /// sessions.
    pub fn nonces_clean(&self) -> bool {
        self.shards.iter().all(|shard| shard.nonces.is_clean())
    }
}

/// One cohort's row in the fleet report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CohortReport {
    /// The cohort's stream name.
    pub name: String,
    /// Accepted-traffic rollup.
    pub stats: CohortStats,
}

/// The deterministic fleet rollup: datagram accounting plus per-cohort
/// wire-size envelopes. Serializes to stable JSON (sorted construction,
/// no floats, no timestamps) so CI can `cmp` reports from different
/// shard/thread configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// Provisioned sensors.
    pub sensors: u64,
    /// Sensors with at least one accepted frame.
    pub active_sensors: u64,
    /// Fleet-wide datagram counters.
    pub stats: ShardStats,
    /// Per-cohort rollups, in cohort order.
    pub cohorts: Vec<CohortReport>,
}

impl FleetReport {
    /// Stable JSON: field order fixed, integers only.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"version\": 1,\n  \"label\": ");
        out.push_str(&JsonStr(FLEET_LABEL).to_string());
        out.push_str(",\n  \"sensors\": ");
        out.push_str(&self.sensors.to_string());
        out.push_str(",\n  \"active_sensors\": ");
        out.push_str(&self.active_sensors.to_string());
        let s = &self.stats;
        for (key, value) in [
            ("frames", s.frames),
            ("wire_bytes", s.wire_bytes),
            ("accepted", s.accepted),
            ("payload_bytes", s.payload_bytes),
            ("decoded_values", s.decoded_values),
            ("rejected", s.rejected()),
            ("header_truncated", s.header_truncated),
            ("header_oversized", s.header_oversized),
            ("unknown_sensor", s.unknown_sensor),
            ("auth_failed", s.auth_failed),
            ("replay_rejected", s.replay_rejected),
            ("far_future", s.far_future),
            ("missing_sequence", s.missing_sequence),
            ("decode_failed", s.decode_failed),
            ("rotations", s.rotations),
        ] {
            out.push_str(",\n  \"");
            out.push_str(key);
            out.push_str("\": ");
            out.push_str(&value.to_string());
        }
        out.push_str(",\n  \"cohorts\": [");
        for (i, cohort) in self.cohorts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let c = &cohort.stats;
            out.push_str("\n    { \"name\": ");
            out.push_str(&JsonStr(&cohort.name).to_string());
            out.push_str(", \"sensors\": ");
            out.push_str(&c.sensors.to_string());
            out.push_str(", \"frames\": ");
            out.push_str(&c.frames.to_string());
            out.push_str(", \"wire_bytes\": ");
            out.push_str(&c.wire_bytes.to_string());
            out.push_str(", \"min_wire_bytes\": ");
            let min = if c.frames == 0 { 0 } else { c.min_wire_bytes };
            out.push_str(&min.to_string());
            out.push_str(", \"max_wire_bytes\": ");
            out.push_str(&c.max_wire_bytes.to_string());
            out.push_str(", \"decoded_values\": ");
            out.push_str(&c.decoded_values.to_string());
            out.push_str(", \"wire_constant\": ");
            out.push_str(if c.wire_constant() { "true" } else { "false" });
            out.push_str(" }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet '{FLEET_LABEL}': {} sensors ({} active), {} frames in, {} accepted, {} rejected",
            self.sensors,
            self.active_sensors,
            self.stats.frames,
            self.stats.accepted,
            self.stats.rejected(),
        )?;
        if self.stats.rotations > 0 {
            writeln!(
                f,
                "  rekey: {} epoch rotations followed",
                self.stats.rotations
            )?;
        }
        for cohort in &self.cohorts {
            let c = &cohort.stats;
            let min = if c.frames == 0 { 0 } else { c.min_wire_bytes };
            writeln!(
                f,
                "  {:<10} {:>8} sensors {:>10} frames  wire {}..={} bytes{}",
                cohort.name,
                c.sensors,
                c.frames,
                min,
                c.max_wire_bytes,
                if c.wire_constant() { " (constant)" } else { "" },
            )?;
        }
        Ok(())
    }
}
