//! The fleet wire format and the gateway's structured error type.
//!
//! A fleet datagram is the sensor's sealed frame prefixed with an
//! 8-byte little-endian sensor id — the minimal addressing header a
//! shared ingest point needs to route a frame to the right session.
//! The header is *outside* the AEAD envelope (the gateway must read it
//! before it can look up the key), so everything it influences —
//! routing, session lookup — is re-checked after authentication by the
//! per-session cipher: a frame copied under another sensor's id fails
//! that sensor's key and is counted as an auth failure, never accepted.

use age_core::DecodeError;
use age_transport::ReceiveError;

/// Bytes of addressing header prepended to every sealed frame.
pub const HEADER_LEN: usize = 8;

/// The datagram ceiling: longer datagrams are dropped before the cipher
/// runs, so oversized garbage cannot buy CPU time.
pub const MAX_DATAGRAM_LEN: usize = 4096;

/// One datagram as it arrives at the gateway, stamped with the virtual
/// send time assigned by the fleet driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetFrame {
    /// Header + sealed frame bytes, exactly as sent.
    pub wire: Vec<u8>,
    /// Ground-truth event label driving the sensor when the frame was
    /// produced. Never used to process the frame — only to label the
    /// leakage histograms, exactly as the single-link audits do.
    pub event: usize,
    /// Virtual send stamp in microseconds (the timing channel input).
    pub sent_at_us: u64,
}

impl FleetFrame {
    /// Prefixes `sealed` with the sensor-id header.
    pub fn encode(sensor_id: u64, sealed: &[u8], event: usize, sent_at_us: u64) -> FleetFrame {
        let mut wire = Vec::with_capacity(HEADER_LEN + sealed.len());
        wire.extend_from_slice(&sensor_id.to_le_bytes());
        wire.extend_from_slice(sealed);
        FleetFrame {
            wire,
            event,
            sent_at_us,
        }
    }

    /// The addressed sensor id, if the datagram is long enough to have
    /// one.
    pub fn sensor_id(&self) -> Option<u64> {
        sensor_id_of(&self.wire)
    }
}

/// Reads the sensor-id header off raw datagram bytes.
pub fn sensor_id_of(wire: &[u8]) -> Option<u64> {
    let header: [u8; HEADER_LEN] = wire.get(..HEADER_LEN)?.try_into().ok()?;
    Some(u64::from_le_bytes(header))
}

/// Why a datagram's header was rejected before any session work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// Shorter than the addressing header itself.
    Truncated {
        /// Bytes actually received.
        len: usize,
    },
    /// Longer than [`MAX_DATAGRAM_LEN`] — dropped before the cipher
    /// sees it so oversized garbage can't buy CPU time.
    Oversized {
        /// Bytes actually received.
        len: usize,
        /// The ceiling.
        max: usize,
    },
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::Truncated { len } => {
                write!(
                    f,
                    "datagram of {len} bytes is shorter than the {HEADER_LEN}-byte header"
                )
            }
            HeaderError::Oversized { len, max } => {
                write!(f, "datagram of {len} bytes exceeds the {max}-byte ceiling")
            }
        }
    }
}

impl std::error::Error for HeaderError {}

/// Every way the gateway rejects a datagram. One variant per pipeline
/// stage, so fuzzing can assert that each malformed input maps to a
/// structured error — never a panic — and the counters account for
/// every arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayError {
    /// The datagram failed header validation.
    Header(HeaderError),
    /// The addressed sensor has no provisioned session.
    UnknownSensor {
        /// The id the header claimed.
        sensor_id: u64,
    },
    /// A session was configured with a cohort index the gateway does
    /// not have (provisioning rejects this; the variant keeps the
    /// lookup panic-free regardless).
    UnknownCohort {
        /// The out-of-range cohort index.
        cohort: usize,
    },
    /// The session's receiver rejected the frame (authentication,
    /// replay, far-future, or missing sequence).
    Receive(ReceiveError),
    /// The frame authenticated but its payload did not decode.
    Decode(DecodeError),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Header(e) => write!(f, "header rejected: {e}"),
            GatewayError::UnknownSensor { sensor_id } => {
                write!(f, "no session provisioned for sensor {sensor_id}")
            }
            GatewayError::UnknownCohort { cohort } => {
                write!(f, "session references unknown cohort {cohort}")
            }
            GatewayError::Receive(e) => write!(f, "receiver rejected frame: {e}"),
            GatewayError::Decode(e) => write!(f, "payload failed to decode: {e}"),
        }
    }
}

impl std::error::Error for GatewayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GatewayError::Header(e) => Some(e),
            GatewayError::Receive(e) => Some(e),
            GatewayError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let frame = FleetFrame::encode(0xdead_beef_cafe_f00d, &[1, 2, 3], 2, 777);
        assert_eq!(frame.wire.len(), HEADER_LEN + 3);
        assert_eq!(frame.sensor_id(), Some(0xdead_beef_cafe_f00d));
        assert_eq!(&frame.wire[HEADER_LEN..], &[1, 2, 3]);
    }

    #[test]
    fn short_datagrams_have_no_sensor_id() {
        assert_eq!(sensor_id_of(&[]), None);
        assert_eq!(sensor_id_of(&[0u8; HEADER_LEN - 1]), None);
        assert_eq!(sensor_id_of(&[0u8; HEADER_LEN]), Some(0));
    }

    #[test]
    fn errors_render_without_panicking() {
        let errors = [
            GatewayError::Header(HeaderError::Truncated { len: 3 }),
            GatewayError::Header(HeaderError::Oversized {
                len: 9000,
                max: 4096,
            }),
            GatewayError::UnknownSensor { sensor_id: 42 },
            GatewayError::UnknownCohort { cohort: 7 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
