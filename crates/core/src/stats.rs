//! Query and index statistics.
//!
//! The paper's entire argument is about *how much work* a covering query
//! does: how many runs of the SFC array it probes and how much of the query
//! volume it searches. Every query therefore returns a [`QueryStats`]
//! alongside its answer, and indexes accumulate [`IndexStats`] so that the
//! experiment harness can report averages without extra instrumentation.

use serde::{Deserialize, Serialize};

use acd_subscription::SubId;

/// Cost counters of a single covering (point-dominance) query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryStats {
    /// Standard cubes enumerated from the greedy decomposition by the eager
    /// engine. Always 0 for the skip engine, which enumerates none.
    pub cubes_enumerated: usize,
    /// Runs (contiguous key ranges) probed in the SFC array.
    pub runs_probed: usize,
    /// Ordered-map descents issued against the SFC array: every run probe of
    /// the eager engine, and every galloping populated-key lookup of the
    /// skip engine (whose cell probes ride along with the gallop for free).
    /// Equals `runs_probed` for the eager engine.
    pub probes: usize,
    /// Gap-crossing seeks of the skip engine: stretches of the decomposition
    /// (each one or more whole runs) skipped because no stored key could
    /// fall inside them. Always 0 for the eager engine.
    pub runs_skipped: usize,
    /// Candidate points inspected (entries that fell inside a probed run).
    pub candidates_inspected: usize,
    /// Fraction of the query region's volume covered by the probed cubes,
    /// in `[0, 1]`.
    ///
    /// Meaningful per-probe under the eager engine (whose ε guarantee it
    /// tracks). Under the skip engine it is 1.0 on a completed sweep (misses
    /// are exact: the whole region was provably searched) and 0.0 otherwise
    /// — a hit stops at the first dominating cell.
    pub volume_fraction_searched: f64,
    /// Whether the query abandoned the cube decomposition (work cap exceeded)
    /// and fell back to the exact point scan.
    pub fell_back_to_scan: bool,
    /// For a linear-scan baseline: number of subscriptions compared.
    pub subscriptions_compared: usize,
}

/// The result of a covering query: the answer plus its cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// The identifier of a covering subscription, if one was found.
    pub covering: Option<SubId>,
    /// Cost counters for this query.
    pub stats: QueryStats,
}

impl QueryOutcome {
    /// An outcome that found `id`.
    pub fn found(id: SubId, stats: QueryStats) -> Self {
        QueryOutcome {
            covering: Some(id),
            stats,
        }
    }

    /// An outcome that found nothing.
    pub fn empty(stats: QueryStats) -> Self {
        QueryOutcome {
            covering: None,
            stats,
        }
    }

    /// Whether a covering subscription was found.
    pub fn is_covered(&self) -> bool {
        self.covering.is_some()
    }
}

/// Accumulated statistics of an index over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct IndexStats {
    /// Number of insert operations performed.
    pub inserts: u64,
    /// Number of remove operations performed.
    pub removes: u64,
    /// Number of covering queries answered.
    pub queries: u64,
    /// Number of queries that found a covering subscription.
    pub queries_covered: u64,
    /// Total runs probed across all queries.
    pub total_runs_probed: u64,
    /// Total ordered-map probes (gallops plus run probes) across all queries.
    pub total_probes: u64,
    /// Total gap-crossing skips across all queries.
    pub total_runs_skipped: u64,
    /// Total cubes enumerated across all queries.
    pub total_cubes_enumerated: u64,
    /// Total candidates inspected across all queries.
    pub total_candidates_inspected: u64,
    /// Total subscriptions compared (linear baseline) across all queries.
    pub total_subscriptions_compared: u64,
    /// Queries that fell back to the exact point scan (work cap exceeded).
    pub fallback_queries: u64,
    /// Sum of the per-query searched volume fractions (divide by `queries`
    /// for the mean).
    pub total_volume_fraction: f64,
}

impl IndexStats {
    /// Records one query outcome.
    pub fn record_query(&mut self, outcome: &QueryOutcome) {
        self.queries += 1;
        if outcome.is_covered() {
            self.queries_covered += 1;
        }
        self.total_runs_probed += outcome.stats.runs_probed as u64;
        self.total_probes += outcome.stats.probes as u64;
        self.total_runs_skipped += outcome.stats.runs_skipped as u64;
        self.total_cubes_enumerated += outcome.stats.cubes_enumerated as u64;
        self.total_candidates_inspected += outcome.stats.candidates_inspected as u64;
        self.total_subscriptions_compared += outcome.stats.subscriptions_compared as u64;
        if outcome.stats.fell_back_to_scan {
            self.fallback_queries += 1;
        }
        self.total_volume_fraction += outcome.stats.volume_fraction_searched;
    }

    /// Mean number of runs probed per query.
    pub fn mean_runs_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total_runs_probed as f64 / self.queries as f64
        }
    }

    /// Mean number of ordered-map probes per query.
    pub fn mean_probes_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total_probes as f64 / self.queries as f64
        }
    }

    /// Mean number of gap-crossing skips per query.
    pub fn mean_skips_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total_runs_skipped as f64 / self.queries as f64
        }
    }

    /// Mean number of subscriptions compared per query (linear baseline).
    pub fn mean_comparisons_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total_subscriptions_compared as f64 / self.queries as f64
        }
    }

    /// Fraction of queries that found a covering subscription.
    pub fn covered_fraction(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.queries_covered as f64 / self.queries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_constructors() {
        let stats = QueryStats {
            runs_probed: 3,
            ..QueryStats::default()
        };
        let found = QueryOutcome::found(7, stats);
        assert!(found.is_covered());
        assert_eq!(found.covering, Some(7));
        let empty = QueryOutcome::empty(stats);
        assert!(!empty.is_covered());
    }

    #[test]
    fn index_stats_aggregation() {
        let mut stats = IndexStats::default();
        assert_eq!(stats.mean_runs_per_query(), 0.0);
        stats.record_query(&QueryOutcome::found(
            1,
            QueryStats {
                runs_probed: 4,
                probes: 5,
                runs_skipped: 3,
                volume_fraction_searched: 1.0,
                ..QueryStats::default()
            },
        ));
        stats.record_query(&QueryOutcome::empty(QueryStats {
            runs_probed: 8,
            probes: 9,
            runs_skipped: 1,
            volume_fraction_searched: 0.95,
            subscriptions_compared: 10,
            ..QueryStats::default()
        }));
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.queries_covered, 1);
        assert_eq!(stats.mean_runs_per_query(), 6.0);
        assert_eq!(stats.mean_probes_per_query(), 7.0);
        assert_eq!(stats.mean_skips_per_query(), 2.0);
        assert_eq!(stats.mean_comparisons_per_query(), 5.0);
        assert_eq!(stats.covered_fraction(), 0.5);
        assert!((stats.total_volume_fraction - 1.95).abs() < 1e-12);
    }
}
