//! The log table of paper §III-A: per-row bookkeeping of which faulty
//! columns each parity-check equation touches.

use ppm_codes::FailureScenario;
use ppm_gf::GfWord;
use ppm_matrix::Matrix;

/// One row of the log table: `(i, tᵢ, lᵢ)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogTableRow {
    /// Row number in `H`.
    pub row: usize,
    /// Number of non-zero coefficients located in faulty columns.
    pub t: usize,
    /// The faulty column numbers of those coefficients, ascending.
    pub l: Vec<usize>,
}

/// The full log table: `R_H` rows, one per parity-check equation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogTable {
    rows: Vec<LogTableRow>,
}

impl LogTable {
    /// Builds the log table for `h` under `scenario`.
    ///
    /// Scans each row of `H` once: for row `i`, `tᵢ` counts the non-zero
    /// entries in columns corresponding to faulty blocks and `lᵢ` lists
    /// those columns (paper Figure 3, "Log table").
    pub fn build<W: GfWord>(h: &Matrix<W>, scenario: &FailureScenario) -> Self {
        let rows = (0..h.rows())
            .map(|i| {
                let l: Vec<usize> = scenario
                    .faulty()
                    .iter()
                    .copied()
                    .filter(|&c| c < h.cols() && h.get(i, c) != W::ZERO)
                    .collect();
                LogTableRow {
                    row: i,
                    t: l.len(),
                    l,
                }
            })
            .collect();
        LogTable { rows }
    }

    /// The table rows, in `H` row order.
    pub fn rows(&self) -> &[LogTableRow] {
        &self.rows
    }

    /// Number of rows (`R_H`).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True for an empty table.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use ppm_codes::{ErasureCode, SdCode};

    /// Paper Figure 3: SD^{1,1}_{4,4}(8|1,2), failures {b2,b6,b10,b13,b14}.
    #[test]
    fn figure3_log_table() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        let lt = LogTable::build(&h, &sc);
        assert_eq!(lt.len(), 5);
        // (i, tᵢ, lᵢ) exactly as printed in the paper's Figure 3.
        assert_eq!(
            lt.rows()[0],
            LogTableRow {
                row: 0,
                t: 1,
                l: vec![2]
            }
        );
        assert_eq!(
            lt.rows()[1],
            LogTableRow {
                row: 1,
                t: 1,
                l: vec![6]
            }
        );
        assert_eq!(
            lt.rows()[2],
            LogTableRow {
                row: 2,
                t: 1,
                l: vec![10]
            }
        );
        assert_eq!(
            lt.rows()[3],
            LogTableRow {
                row: 3,
                t: 2,
                l: vec![13, 14]
            }
        );
        assert_eq!(
            lt.rows()[4],
            LogTableRow {
                row: 4,
                t: 5,
                l: vec![2, 6, 10, 13, 14]
            }
        );
    }

    #[test]
    fn no_failures_gives_all_zero_t() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let lt = LogTable::build(&code.parity_check_matrix(), &FailureScenario::new(vec![]));
        assert!(lt.rows().iter().all(|r| r.t == 0 && r.l.is_empty()));
    }

    #[test]
    fn zero_coefficient_on_faulty_column_not_counted() {
        // Row-local disk-parity equations have zeros outside their row, so
        // a faulty sector in another stripe row must not be counted.
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![0]); // b0 lives in stripe row 0
        let lt = LogTable::build(&h, &sc);
        assert_eq!(lt.rows()[0].t, 1); // row-0 equation sees it
        assert_eq!(lt.rows()[1].t, 0); // row-1 equation does not
        assert_eq!(lt.rows()[4].t, 1); // the global sector-parity row does
    }
}
