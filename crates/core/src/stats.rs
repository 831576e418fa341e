//! The extensible optimizer interface (ODCIStats).
//!
//! Fig. 1 shows the optimizer calling `ODCIStatsIndexCost` and
//! `ODCIStatsSelectivity` on the cartridge; §2.4.2 explains why: "The
//! choice between the indexed implementation and the functional evaluation
//! of the operator is made by the Oracle cost based optimizer using
//! selectivity and cost functions." Every indextype carries an
//! [`OdciStats`] implementation (`CREATE INDEXTYPE … USING` names one with
//! the index routines), and the optimizer asks it for every domain index it
//! costs; there is no engine-side fallback. [`DefaultStats`] holds the
//! traditional default selectivity an implementation may answer with.

use extidx_common::Result;

use crate::meta::{IndexInfo, OperatorCall};
use crate::server::ServerContext;

/// Cost estimate for a domain-index scan, in the engine's cost units
/// (1.0 ≈ one page read; CPU is expressed in the same currency).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexCost {
    /// Estimated page I/O.
    pub io_cost: f64,
    /// Estimated CPU, in page-read equivalents.
    pub cpu_cost: f64,
}

impl IndexCost {
    /// Combined cost the optimizer compares against other access paths.
    pub fn total(&self) -> f64 {
        self.io_cost + self.cpu_cost
    }
}

/// The statistics interface a cartridge may implement per indextype.
pub trait OdciStats: Send + Sync {
    /// `ODCIStatsCollect`: gather statistics for a domain index (invoked
    /// by `ANALYZE INDEX` / `ANALYZE TABLE`). Implementations usually
    /// store what they need in their own storage tables.
    fn collect(&self, srv: &mut dyn ServerContext, info: &IndexInfo) -> Result<()>;

    /// `ODCIStatsSelectivity`: fraction (0..=1) of base-table rows
    /// expected to satisfy the operator predicate.
    fn selectivity(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        op: &OperatorCall,
    ) -> Result<f64>;

    /// `ODCIStatsIndexCost`: cost of evaluating the predicate through the
    /// domain index, given the selectivity the optimizer settled on.
    fn index_cost(
        &self,
        srv: &mut dyn ServerContext,
        info: &IndexInfo,
        op: &OperatorCall,
        selectivity: f64,
    ) -> Result<IndexCost>;
}

/// Oracle's default guess for an unanalyzed operator predicate, for an
/// [`OdciStats`] implementation that has nothing better to answer.
#[derive(Debug, Clone, Copy)]
pub struct DefaultStats {
    /// Selectivity assumed for any user-defined operator predicate.
    pub default_selectivity: f64,
}

impl Default for DefaultStats {
    fn default() -> Self {
        // Oracle's traditional default for function-based predicates.
        DefaultStats { default_selectivity: 0.01 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_components() {
        let c = IndexCost { io_cost: 10.0, cpu_cost: 2.5 };
        assert!((c.total() - 12.5).abs() < f64::EPSILON);
    }
}
