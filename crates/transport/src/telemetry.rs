//! The crate's one telemetry seam.
//!
//! The link bumps the process-wide frame and journal counters in
//! `age_telemetry::metrics::global` only through [`metric`], which holds
//! the crate's only switch on the `telemetry` cargo feature: with the
//! feature off (the MCU-flavored sensor build) every update compiles away.

/// Runs `update`, one global counter or histogram update, in builds with
/// the `telemetry` feature; without it the call compiles to nothing.
#[inline(always)]
pub(crate) fn metric(update: impl FnOnce()) {
    if cfg!(feature = "telemetry") {
        update();
    }
}
