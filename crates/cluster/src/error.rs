//! The cluster crate's error type: transport, plan, repair, protocol,
//! and supervision failures under one roof.
//!
//! The supervision variants ([`Timeout`](ClusterError::Timeout),
//! [`CorruptFrame`](ClusterError::CorruptFrame),
//! [`RetriesExhausted`](ClusterError::RetriesExhausted)) replace the
//! generic `io::Error` passthrough the chaos-free coordinator got away
//! with: a caller can now tell "the wire broke" from "the peer was too
//! slow" from "the peer never answered", and retry policy dispatches on
//! the variant instead of string-matching messages. A worker that
//! exhausts its retries is declared dead inside the coordinator, whose
//! failover re-homes or locally repairs its stripes, so no error
//! reports a dead worker.

use crate::frame::FrameError;
use ppm_core::{RepairError, WireError};
use std::io;

/// Anything that can go wrong between a coordinator and its workers.
#[derive(Debug)]
pub enum ClusterError {
    /// The transport failed (closed channel, broken stream, short read).
    Io(io::Error),
    /// A wire plan failed to decode or re-validate.
    Wire(WireError),
    /// The repair itself failed (unrecoverable scenario, geometry
    /// mismatch, verification failure).
    Repair(RepairError),
    /// The peer violated the protocol: malformed message, unexpected
    /// response kind, wrong stripe id, or a worker-side error report.
    Protocol(String),
    /// A request deadline elapsed with no (valid) response.
    Timeout {
        /// Worker the request was addressed to.
        worker: usize,
        /// Stripe the request concerned.
        stripe: u64,
        /// Deadline that elapsed, in milliseconds.
        after_ms: u64,
    },
    /// A frame failed the v2 integrity checks — corruption was
    /// *detected*, not decoded into garbage.
    CorruptFrame(FrameError),
    /// Every retry of a request failed; the stripe could not be
    /// repaired over this link.
    RetriesExhausted {
        /// Worker the retries were aimed at.
        worker: usize,
        /// Stripe the request concerned.
        stripe: u64,
        /// Attempts made (first try plus retries).
        attempts: u32,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Io(e) => write!(f, "transport error: {e}"),
            ClusterError::Wire(e) => write!(f, "wire plan error: {e}"),
            ClusterError::Repair(e) => write!(f, "repair error: {e}"),
            ClusterError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClusterError::Timeout {
                worker,
                stripe,
                after_ms,
            } => write!(
                f,
                "timeout: worker {worker} gave no response for stripe {stripe} within {after_ms} ms"
            ),
            ClusterError::CorruptFrame(e) => write!(f, "corrupt frame: {e}"),
            ClusterError::RetriesExhausted {
                worker,
                stripe,
                attempts,
            } => write!(
                f,
                "retries exhausted: {attempts} attempts at stripe {stripe} on worker {worker}"
            ),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Io(e) => Some(e),
            ClusterError::Wire(e) => Some(e),
            ClusterError::Repair(e) => Some(e),
            ClusterError::CorruptFrame(e) => Some(e),
            ClusterError::Protocol(_)
            | ClusterError::Timeout { .. }
            | ClusterError::RetriesExhausted { .. } => None,
        }
    }
}

impl From<io::Error> for ClusterError {
    fn from(e: io::Error) -> Self {
        ClusterError::Io(e)
    }
}

impl From<WireError> for ClusterError {
    fn from(e: WireError) -> Self {
        ClusterError::Wire(e)
    }
}

impl From<RepairError> for ClusterError {
    fn from(e: RepairError) -> Self {
        ClusterError::Repair(e)
    }
}

impl From<FrameError> for ClusterError {
    fn from(e: FrameError) -> Self {
        ClusterError::CorruptFrame(e)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    /// Every supervision variant must round-trip its fields through
    /// `Display`: the numbers a failure names are the numbers an
    /// operator greps for.
    #[test]
    fn display_round_trips_the_fields() {
        let cases: Vec<(ClusterError, Vec<String>)> = vec![
            (
                ClusterError::Timeout {
                    worker: 3,
                    stripe: 951_003,
                    after_ms: 250,
                },
                vec!["worker 3".into(), "951003".into(), "250 ms".into()],
            ),
            (
                ClusterError::RetriesExhausted {
                    worker: 2,
                    stripe: 41,
                    attempts: 5,
                },
                vec!["5 attempts".into(), "stripe 41".into(), "worker 2".into()],
            ),
            (
                ClusterError::CorruptFrame(FrameError::Crc {
                    carried: 1,
                    computed: 2,
                }),
                vec!["corrupt frame".into(), "CRC".into()],
            ),
            (
                ClusterError::Protocol("bad tag".into()),
                vec!["protocol error".into(), "bad tag".into()],
            ),
        ];
        for (err, needles) in cases {
            let shown = err.to_string();
            for needle in &needles {
                assert!(
                    shown.contains(needle.as_str()),
                    "{shown:?} missing {needle:?}"
                );
            }
        }
    }

    /// Variants wrapping a lower-layer error expose it via `source()`;
    /// leaf variants do not.
    #[test]
    fn sources_are_wired_for_wrapper_variants() {
        use std::error::Error;
        let io_err = ClusterError::from(io::Error::new(io::ErrorKind::BrokenPipe, "pipe"));
        assert!(io_err.source().is_some());
        let frame_err = ClusterError::from(FrameError::TooShort { got: 2 });
        assert!(frame_err.source().is_some());
        assert!(ClusterError::Timeout {
            worker: 0,
            stripe: 0,
            after_ms: 1
        }
        .source()
        .is_none());
        assert!(ClusterError::RetriesExhausted {
            worker: 0,
            stripe: 0,
            attempts: 1
        }
        .source()
        .is_none());
    }
}
