//! Fleet-scale sharded ingest for AGE sensor traffic.
//!
//! One sensor per link is the paper's setting; real deployments
//! aggregate. This crate scales the receive side to a fleet: a
//! *gateway* holds a session table mapping sensor id → (session key,
//! replay window, cohort, gap anchor, nonce ledger), sharded by a pure
//! hash of the sensor id so every shard owns a disjoint slice of the
//! fleet (and one pair of leakage histograms per cohort) and
//! steady-state ingest is lock-free and allocation-free. Each shard's
//! table is flat: an open-addressed id index over sessions stored by
//! value in 64-session blocks, each holding its ChaCha20-Poly1305
//! receiver inline and its nonce ledger one pointer away.
//!
//! The design invariant everything else hangs off of: **reports are a
//! commutative fold.** Shard routing is a pure function of the sensor
//! id ([`shard_of`]), each sensor's frames are processed in trace order
//! by exactly one shard, and every rollup — datagram counters, cohort
//! wire-size envelopes, nonce sets, leakage histograms — merges
//! commutatively and associatively. Therefore [`Gateway::fleet_report`],
//! the [`LeakageAudit`](age_telemetry::LeakageAudit) assembled by
//! [`Gateway::leakage_audit`], and the
//! [`FleetNonceAudit`](age_telemetry::FleetNonceAudit) are
//! *byte-identical* at any shard count and any thread count — pinned by
//! the determinism tests in `age-sim` and compared with `cmp` in CI.
//!
//! Security posture at the ingest boundary:
//!
//! - The 8-byte addressing header is outside the AEAD envelope, so the
//!   gateway treats it as attacker-controlled: it selects a session,
//!   and the session's own key then authenticates the frame. A frame
//!   replayed under another sensor's id fails that sensor's AEAD tag.
//! - Truncated, oversized, unknown-sensor, replayed, far-future, and
//!   undecodable datagrams each land in a dedicated counter and return
//!   a structured [`GatewayError`] — never a panic (fuzzed in
//!   `tests/fuzz.rs`; outside tests the crate denies `unwrap`, `expect`,
//!   `panic` and indexing that can panic).
//! - Accepted frames enter their session's nonce ledger, keyed
//!   `(epoch, sequence)`: any double-accept — cross-shard confusion, a
//!   replay window failure, a re-provisioned sensor's replayed frames —
//!   is a recorded violation. [`Gateway::nonces_clean`] reads the
//!   verdict from the shards; [`Gateway::nonce_audit`] rebuilds the
//!   full `(sensor, epoch, sequence)` audit from the ledgers.
//!
//! See `docs/architecture.md` for the session-table and merge-semantics
//! write-up.
//!
//! # Examples
//!
//! ```
//! use age_core::{AgeEncoder, Batch, BatchConfig, Encoder, StandardEncoder};
//! use age_crypto::{ChaCha20Poly1305, Cipher};
//! use age_fixed::Format;
//! use age_gateway::{derive_key, Cohort, FleetFrame, Gateway, GatewayConfig};
//!
//! let batch = BatchConfig::new(25, 2, Format::new(16, 10)?)?;
//! let config = GatewayConfig::new(
//!     batch,
//!     vec![
//!         Cohort::new("AGE", Box::new(AgeEncoder::new(160))),
//!         Cohort::new("Std", Box::new(StandardEncoder)),
//!     ],
//!     2022,
//!     4,
//! );
//! let mut gateway = Gateway::new(config);
//! gateway.provision(7, 0)?;
//!
//! // A sensor seals a batch with its derived key and ships it.
//! let cipher = ChaCha20Poly1305::new(derive_key(2022, 7));
//! let batch_data = Batch::new(vec![0, 9], vec![0.5; 4])?;
//! let payload = AgeEncoder::new(160).encode(&batch_data, &batch)?;
//! let sealed = cipher.seal(0, &payload);
//! let frame = FleetFrame::encode(7, &sealed, 0, 10_000);
//!
//! assert_eq!(gateway.ingest(&frame), Ok(0));
//! assert_eq!(gateway.fleet_report().stats.accepted, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

mod frame;
mod gateway;
mod health;
mod route;
mod session;
mod shard;
mod table;

pub use frame::{
    sensor_id_of, FleetFrame, GatewayError, HeaderError, HEADER_LEN, MAX_DATAGRAM_LEN,
};
pub use gateway::{Cohort, CohortReport, FleetReport, Gateway, GatewayConfig, FLEET_LABEL};
pub use health::{render_postmortem, shard_table, HealthSnapshot, ShardReport, StreamHealth};
pub use route::{derive_key, derive_root, shard_of, stagger_phase};
pub use shard::{CohortStats, ShardStats};
