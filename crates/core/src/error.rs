//! The repair-error taxonomy.
//!
//! Every fallible entry point of this crate — plan construction, decode,
//! batch execution, verification, escalation — reports through
//! [`RepairError`]. The taxonomy is the robustness contract of the
//! verified-repair pipeline: bad geometry, mislabeled scenarios, corrupt
//! inputs and exhausted escalation all surface as structured variants, so
//! callers can distinguish "this pattern is beyond the code" from "a
//! surviving block is lying to us" without parsing panics out of a log.

/// Why a repair (plan construction, decode, verification or escalation)
/// failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairError {
    /// The failure pattern exceeds what the parity-check matrix can
    /// recover: the faulty columns have rank `rank < needed`.
    Unrecoverable {
        /// Number of faulty blocks that must be solved for.
        needed: usize,
        /// Rank of the faulty-column system actually available.
        rank: usize,
    },
    /// The scenario references sector indices outside the stripe.
    SectorOutOfRange {
        /// The offending sector index.
        sector: usize,
        /// Number of sectors in the stripe.
        total: usize,
    },
    /// A parity-update was requested for a sector that holds parity, not
    /// data (parity sectors are derived, never written directly).
    NotADataSector {
        /// The offending sector index.
        sector: usize,
    },
    /// A small-write payload (or delta scratch buffer) is not exactly one
    /// sector long, so the delta-parity patch cannot be formed.
    SectorLengthMismatch {
        /// The sector being updated.
        sector: usize,
        /// The stripe's sector size in bytes.
        expected: usize,
        /// The length actually supplied.
        actual: usize,
    },
    /// The stripe's geometry does not match the plan's.
    GeometryMismatch {
        /// What the plan was built for.
        expected: usize,
        /// What the stripe provides.
        actual: usize,
    },
    /// The recovered stripe failed the surplus-row parity check: the
    /// listed parity-check rows of `H` (global row indices) are violated,
    /// meaning at least one "surviving" input block is corrupt — and
    /// escalation either was not requested or could not localize it.
    VerificationFailed {
        /// Global `H` row indices whose parity equation came out non-zero.
        violated_rows: Vec<usize>,
    },
    /// Verification was requested on a plan that cannot support it — a
    /// [`DecodePlan::restrict_to`](crate::DecodePlan::restrict_to)
    /// projection only materializes part of the stripe, so no full parity
    /// equation can be evaluated.
    VerificationUnavailable,
    /// Erasure escalation ran out of budget: every candidate promotion of
    /// a suspect surviving sector was tried (or would exceed the code's
    /// declared fault tolerance) without producing a verified stripe.
    EscalationExhausted {
        /// Escalation decode attempts actually performed.
        attempts: usize,
        /// The code's declared fault-tolerance bound that capped them.
        budget: usize,
    },
    /// [`Executor::finish_rest`](crate::Executor::finish_rest) was handed
    /// partial sums for a plan whose `H_rest` does not split (it reads
    /// stripe sectors directly, so it can only finish where the stripe
    /// lives). The request to aggregate arrives over the wire, so this is
    /// a peer's protocol violation, not a local bug.
    RestNotSplittable,
}

/// The historical name of [`RepairError`], kept so existing call sites
/// (`Result<_, DecodeError>`) keep compiling unchanged.
pub type DecodeError = RepairError;

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::Unrecoverable { needed, rank } => write!(
                f,
                "failure pattern is unrecoverable: {needed} faulty blocks but only rank {rank}"
            ),
            RepairError::SectorOutOfRange { sector, total } => {
                write!(f, "sector {sector} out of range (stripe has {total})")
            }
            RepairError::NotADataSector { sector } => {
                write!(
                    f,
                    "sector {sector} holds parity; only data sectors can be updated"
                )
            }
            RepairError::SectorLengthMismatch {
                sector,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "update of sector {sector} supplied {actual} bytes, sector size is {expected}"
                )
            }
            RepairError::GeometryMismatch { expected, actual } => {
                write!(f, "stripe has {actual} sectors, plan expects {expected}")
            }
            RepairError::VerificationFailed { violated_rows } => {
                write!(
                    f,
                    "recovered stripe violates {} surplus parity row(s) {:?}: a surviving block is corrupt",
                    violated_rows.len(),
                    violated_rows
                )
            }
            RepairError::VerificationUnavailable => {
                write!(
                    f,
                    "plan cannot verify: restricted plans do not materialize the full stripe"
                )
            }
            RepairError::EscalationExhausted { attempts, budget } => {
                write!(
                    f,
                    "erasure escalation exhausted after {attempts} attempt(s) within fault-tolerance budget {budget}"
                )
            }
            RepairError::RestNotSplittable => {
                write!(
                    f,
                    "plan's H_rest is not splittable: it cannot be finished from partial sums"
                )
            }
        }
    }
}

impl std::error::Error for RepairError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = RepairError::Unrecoverable { needed: 5, rank: 4 };
        assert!(e.to_string().contains("unrecoverable"));
        let e = RepairError::SectorOutOfRange {
            sector: 20,
            total: 16,
        };
        assert!(e.to_string().contains("20"));
        let e = RepairError::GeometryMismatch {
            expected: 16,
            actual: 12,
        };
        assert!(e.to_string().contains("12"));
        let e = RepairError::SectorLengthMismatch {
            sector: 3,
            expected: 64,
            actual: 48,
        };
        assert!(e.to_string().contains("48") && e.to_string().contains("64"));
        let e = RepairError::VerificationFailed {
            violated_rows: vec![3, 7],
        };
        assert!(e.to_string().contains("[3, 7]"));
        assert!(RepairError::VerificationUnavailable
            .to_string()
            .contains("restricted"));
        let e = RepairError::EscalationExhausted {
            attempts: 4,
            budget: 5,
        };
        assert!(e.to_string().contains('4') && e.to_string().contains('5'));
        assert!(RepairError::RestNotSplittable
            .to_string()
            .contains("not splittable"));
    }

    #[test]
    fn decode_error_alias_is_repair_error() {
        // The alias keeps the original public name working.
        let e: DecodeError = RepairError::VerificationUnavailable;
        assert_eq!(e, RepairError::VerificationUnavailable);
    }
}
