//! The CI perf-smoke harness: a quick-scale covering-query cost measurement
//! with a machine-readable report and a checked-in budget gate.
//!
//! The `perf_smoke` binary runs [`run`], writes the [`PerfSmokeReport`] to
//! `BENCH_ci.json` (uploaded as a CI artifact) and, when invoked with
//! `--assert-budget <file>`, fails the build if the exact-SFC policy
//! exceeds any bound of the [`PerfBudget`] committed in `perf/budget.json`:
//! mean `runs_probed` or `probes` per query (the algorithmic gate that keeps
//! the populated-key skip sweep from degrading back toward the eager
//! engine's cost), mean query latency and insert throughput (the
//! representation gate that keeps the flat inline-key layout from degrading
//! back toward per-entry heap allocation), the bulk-build speedup over `n`
//! incremental inserts, the sharded churn gates (a floor on the 4-shard
//! update throughput under a mixed subscribe/unsubscribe storm, and — on
//! machines with at least two worker threads — a floor on the 4-shard vs
//! 1-shard concurrent query-throughput ratio), and the rebalance gates: a
//! floor on the auto-rebalanced update throughput under the skewed-drift
//! stream and a ceiling on the imbalance factor the rebalanced index ends
//! with, and the end-to-end daemon gates (a floor on loopback publish
//! throughput, a ceiling on the mean publish→deliveries round trip
//! through a live `acd-brokerd`, and a floor on the pipelined
//! `publish_batch` throughput that keeps the batched execution path from
//! degenerating back to one overlay walk per event), and the restart gates
//! (a floor on the durable-segment cold-open speedup over a full journal
//! replay, and a ceiling on the cold-open time itself). [`trend_table`]
//! renders the run-over-run delta table the nightly workflow posts to its
//! job summary.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use acd_broker::{
    BrokerClient, BrokerConfig, BrokerDaemon, ResilientClient, RetryPolicy, Topology,
};
use acd_covering::{
    ApproxConfig, CoveringIndex, CoveringPolicy, LinearScanIndex, QueryEngine, RebalancePolicy,
    SfcCoveringIndex, ShardedCoveringIndex,
};
use acd_sfc::CurveKind;
use acd_workload::{Scenario, SubscriptionWorkload, WorkloadConfig};
use serde::{Deserialize, Serialize};

/// Cost counters of one measured policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyCost {
    /// Index name, e.g. `sfc-z-exhaustive`.
    pub name: String,
    /// Mean runs probed per query.
    pub mean_runs_probed: f64,
    /// Mean ordered-map probes (gallops plus run probes) per query.
    pub mean_probes: f64,
    /// Mean gap-crossing skips per query.
    pub mean_runs_skipped: f64,
    /// Mean subscriptions compared per query (linear baseline only).
    pub mean_comparisons: f64,
    /// Mean per-query latency in microseconds.
    pub mean_latency_us: f64,
    /// Total wall-clock time for the whole query batch, in milliseconds.
    pub total_time_ms: f64,
    /// Wall-clock time to insert the whole population, in milliseconds.
    pub build_time_ms: f64,
    /// Population inserts per second.
    pub insert_throughput_per_sec: f64,
    /// Number of queries that found a covering subscription.
    pub covered_found: u64,
}

/// Throughput of the sharded index under one churn configuration (a fixed
/// shard count): reader threads issue covering queries while a writer storms
/// paired subscribe/unsubscribe updates for a fixed wall-clock window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnCost {
    /// Number of key-range shards.
    pub shards: usize,
    /// Total covering queries completed by the reader threads.
    pub queries_run: u64,
    /// Total updates (inserts plus removes) completed by the writer thread.
    pub updates_run: u64,
    /// Reader-side covering queries per second (all readers combined).
    pub query_throughput_per_sec: f64,
    /// Writer-side updates per second.
    pub update_throughput_per_sec: f64,
}

/// Throughput of the sharded index under the skewed-*drift* churn stream
/// (the hot key region jumps half a domain after the quantile-balanced
/// build): a single writer replaces the whole population once untimed (so
/// the index is fully drifted), then sustains paired insert/remove updates
/// for a fixed wall-clock window. Measured with frozen boundaries and with
/// the auto-rebalance policy armed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftCost {
    /// Whether the auto-rebalance policy was armed for this run.
    pub rebalance_enabled: bool,
    /// Updates (inserts plus removes) completed in the timed window.
    pub updates_run: u64,
    /// Updates per second in the timed window.
    pub update_throughput_per_sec: f64,
    /// Imbalance factor at the end of the run (1.0 = perfectly balanced,
    /// 4.0 = everything in one of the 4 shards).
    pub final_imbalance: f64,
    /// Rebalance passes performed.
    pub rebalances: u64,
    /// Subscriptions moved between shards by those passes.
    pub subscriptions_migrated: u64,
}

/// End-to-end daemon throughput: an in-process `acd-brokerd` serving a
/// covering overlay on loopback, driven by real TCP client connections
/// publishing as fast as the round trip allows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E2eCost {
    /// Concurrent client connections.
    pub connections: usize,
    /// Publishes completed across all connections in the timed window.
    pub publishes: u64,
    /// Deliveries those publishes caused.
    pub deliveries: u64,
    /// Publishes per second across all connections.
    pub events_per_sec: f64,
    /// Mean publish→deliveries round-trip latency, in microseconds.
    pub mean_publish_latency_us: f64,
    /// Wall-clock window of the measurement, in milliseconds.
    pub window_millis: u64,
}

/// Resilience counters from the e2e daemon's [`NetworkMetrics`] snapshot:
/// connections shed or evicted, corrupt frames seen, and session repairs
/// absorbed. All zero in a clean run — the point of reporting them is that
/// a nonzero value in a fault-free perf run is itself a regression signal.
///
/// [`NetworkMetrics`]: acd_broker::NetworkMetrics
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceCounters {
    /// Connections/requests answered with a typed `Rejected` frame.
    pub connections_rejected: u64,
    /// Connections reaped for idling or evicted as slow consumers.
    pub connections_evicted: u64,
    /// Request frames that failed checksum/framing validation.
    pub frames_corrupt: u64,
    /// Same-connection session retries absorbed idempotently.
    pub client_retries: u64,
    /// Cross-connection session takeovers (reconnect replays).
    pub client_reconnects: u64,
}

/// Chaos phase: how long a [`ResilientClient`] takes to notice a daemon
/// restart, reconnect, and replay its whole tracked subscription set —
/// the recovery path every failover leans on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosCost {
    /// Tracked subscriptions replayed by the reconnect.
    pub subscriptions: usize,
    /// Wall-clock from the first publish attempt against the restarted
    /// daemon to its acked response — failure detection, reconnect,
    /// full resubscription replay and the publish round trip — in
    /// milliseconds.
    pub reconnect_resubscribe_ms: f64,
    /// Client-side failed attempts absorbed during the measurement.
    pub client_retries: u64,
    /// Client-side reconnects performed during the measurement.
    pub client_reconnects: u64,
}

/// Batched-publish phase: the same loopback daemon serving one client that
/// publishes the same event stream twice — one round trip per event, then
/// pipelined in fixed-size bursts through
/// [`publish_batch`](BrokerClient::publish_batch), which the daemon drains
/// into a single batched [`BrokerNetwork`] execution per burst. The speedup
/// is the whole point of the batched kernels: one flush, one overlay walk
/// and one subscription-outer matching pass amortized over the burst.
///
/// [`BrokerNetwork`]: acd_broker::BrokerNetwork
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchedPublishCost {
    /// Standing subscriptions registered on the overlay.
    pub subscriptions: usize,
    /// Events per pipelined burst.
    pub batch: usize,
    /// Events per second publishing one event per round trip.
    pub serial_events_per_sec: f64,
    /// Events per second publishing pipelined bursts.
    pub batched_events_per_sec: f64,
    /// Batched over serial events per second.
    pub speedup: f64,
    /// Wall-clock window of each of the two measurements, in milliseconds.
    pub window_millis: u64,
}

/// Restart phase: the exact-Z index bulk-built at the full population
/// size, persisted as durable segments, dropped, and then brought back two
/// ways — a cold [`open_segments`](SfcCoveringIndex::open_segments) that
/// decodes the sorted column-wise segment files straight into the packed
/// layout, and the segment-less restart the daemon paid before segments
/// existed: replaying its append-only subscription journal, decoding every
/// subscribe and unsubscribe record back into a live operation against a
/// fresh index. A segment snapshots only the surviving set; the journal
/// carries the whole churn history (here one retracted subscription per
/// live one, the steady-state mix of the churn phase), which is exactly
/// why the broker checkpoints. The speedup is the point of the segment
/// codec: a restart should pay decode cost, not history-replay cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RestartCost {
    /// Indexed subscriptions persisted and reloaded (the live set).
    pub subscriptions: usize,
    /// Journal records the replay baseline applies: one subscribe per live
    /// subscription plus a subscribe/unsubscribe pair per retracted one.
    pub journal_ops: usize,
    /// Wall-clock time of `save_segments` (encode + fsync-free write +
    /// commit rename), in milliseconds.
    pub save_ms: f64,
    /// Wall-clock time of the cold `open_segments`, in milliseconds (best
    /// of three rounds, so the gate times the codec, not the page cache).
    pub cold_open_ms: f64,
    /// Wall-clock time of the journal replay — decoding all `journal_ops`
    /// records back into `Subscription`s and applying them one at a time
    /// to a fresh index — in milliseconds.
    pub rebuild_ms: f64,
    /// Replay time over cold-open time.
    pub speedup: f64,
    /// Total bytes of the on-disk segment directory.
    pub segment_bytes: u64,
}

/// The quick-scale perf report written to `BENCH_ci.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfSmokeReport {
    /// Number of indexed subscriptions.
    pub subscriptions: usize,
    /// Number of query subscriptions measured.
    pub queries: usize,
    /// Attributes in the workload schema.
    pub attributes: usize,
    /// Bits per attribute in the workload schema.
    pub bits_per_attribute: u32,
    /// One entry per measured policy.
    pub policies: Vec<PolicyCost>,
    /// Wall-clock time of `SfcCoveringIndex::build_from` over the same
    /// population (exact-Z configuration), in milliseconds.
    pub bulk_build_ms: f64,
    /// How many times faster the bulk build is than the exact-SFC policy's
    /// incremental population loop.
    pub bulk_build_speedup: f64,
    /// Sharded churn throughput at 1, 2 and 4 shards (empty when the churn
    /// phase was skipped with `churn_millis == 0`).
    pub churn: Vec<ChurnCost>,
    /// Reader threads used by the churn phase. The query-speedup budget
    /// gate only applies when this is at least 2 — on a single-core
    /// machine concurrent readers cannot outrun the one-lock baseline.
    pub churn_query_workers: usize,
    /// Wall-clock window of each churn measurement, in milliseconds.
    pub churn_millis: u64,
    /// Query throughput at 4 shards over query throughput at 1 shard
    /// (0 when the churn phase was skipped).
    pub sharded_query_speedup: f64,
    /// Update throughput at 4 shards over update throughput at 1 shard
    /// (0 when the churn phase was skipped).
    pub sharded_update_speedup: f64,
    /// Skewed-drift churn throughput with frozen boundaries and with
    /// auto-rebalance armed (empty when the churn phase was skipped).
    pub drift: Vec<DriftCost>,
    /// Rebalanced over frozen drift update throughput (0 when the drift
    /// phase was skipped).
    pub drift_rebalance_speedup: f64,
    /// End-to-end daemon throughput over loopback TCP (`None` when the
    /// timed phases were skipped with `churn_millis == 0`, and in reports
    /// written before the daemon existed).
    pub e2e: Option<E2eCost>,
    /// Resilience counters from the e2e daemon's metrics snapshot (`None`
    /// when the e2e phase was skipped, and in older reports).
    pub resilience: Option<ResilienceCounters>,
    /// Reconnect + resubscribe recovery measurement (`None` when the
    /// timed phases were skipped, and in older reports).
    pub chaos: Option<ChaosCost>,
    /// Batched vs serial publish throughput through the daemon (`None`
    /// when the timed phases were skipped, and in older reports).
    pub batched_publish: Option<BatchedPublishCost>,
    /// Durable-segment cold-open vs rebuild measurement (`None` when the
    /// timed phases were skipped, and in older reports).
    pub restart: Option<RestartCost>,
}

impl PerfSmokeReport {
    /// The measured cost of the policy with the given index name.
    pub fn policy(&self, name: &str) -> Option<&PolicyCost> {
        self.policies.iter().find(|p| p.name == name)
    }
}

/// The checked-in perf budget (`perf/budget.json`).
///
/// To update it after an intentional perf change, run
/// `cargo run -p acd-bench --release --bin perf_smoke`, inspect
/// `BENCH_ci.json`, and commit new bounds with comfortable headroom
/// (2–4x the measured means) so the gate catches regressions rather than
/// noise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfBudget {
    /// Upper bound on mean runs probed per query for the exact-SFC policy.
    pub max_mean_runs_probed_exact_sfc: f64,
    /// Upper bound on mean ordered-map probes per query for the exact-SFC
    /// policy.
    pub max_mean_probes_exact_sfc: f64,
    /// Upper bound on mean query latency (µs) for the exact-SFC policy.
    /// Wall-clock dependent, so set with generous headroom for slow CI
    /// machines; it exists to catch order-of-magnitude representation
    /// regressions, not noise.
    pub max_mean_query_latency_us_exact_sfc: f64,
    /// Lower bound on population insert throughput (inserts/second) for the
    /// exact-SFC policy. Same headroom caveat as the latency bound.
    pub min_insert_throughput_exact_sfc: f64,
    /// Lower bound on the bulk-build speedup over incremental inserts.
    pub min_bulk_build_speedup: f64,
    /// Lower bound on the churn update throughput (updates/second) of the
    /// 4-shard configuration. Algorithmic at heart — smaller shards mean
    /// smaller staging levels and cheaper merges — so it holds on a single
    /// core; wall-clock dependent, so set with generous headroom.
    pub min_churn_update_throughput: f64,
    /// Lower bound on the 4-shard vs 1-shard churn query throughput ratio.
    /// Only enforced when the report's churn phase ran with at least two
    /// reader threads (the speedup comes from readers proceeding while the
    /// writer holds another shard's lock).
    pub min_sharded_query_speedup: f64,
    /// Lower bound on the rebalance-enabled skewed-drift churn update
    /// throughput (updates/second). Algorithmic at heart — rebalancing
    /// keeps the drifted population spread over small shards with cheap
    /// staging merges — so it holds on a single core; wall-clock dependent,
    /// so set with generous headroom.
    pub min_rebalanced_churn_update_throughput: f64,
    /// Upper bound on the imbalance factor the rebalance-enabled drift run
    /// ends with. Purely algorithmic: if the auto-trigger works, the final
    /// cut is near the quantiles and the factor stays close to 1 no matter
    /// how slow the machine is.
    pub max_imbalance_after_rebalance: f64,
    /// Lower bound on the end-to-end daemon publish throughput (events
    /// per second across all loopback connections). Wall-clock dependent
    /// and round-trip bound, so set with very generous headroom; it exists
    /// to catch the daemon hanging or serializing all connections, not to
    /// measure the network stack.
    pub min_e2e_events_per_sec: f64,
    /// Upper bound on the mean end-to-end publish→deliveries round-trip
    /// latency in microseconds. Same headroom caveat.
    pub max_e2e_publish_latency_us: f64,
    /// Upper bound on the chaos phase's reconnect + full-resubscribe
    /// recovery time in milliseconds (failure detection, reconnect, replay
    /// of the whole tracked set, one publish round trip). Wall-clock
    /// dependent, so set with very generous headroom; it exists to catch
    /// the recovery path stalling or retrying quadratically, not to time
    /// the network stack.
    pub max_reconnect_resubscribe_ms: f64,
    /// Lower bound on the batched-publish throughput (events per second
    /// through `publish_batch` bursts against the loopback daemon). Set
    /// with headroom below the measured batched rate; it exists to catch
    /// the batched path degenerating back to one network walk per event,
    /// not to time the loopback stack.
    pub min_batched_publish_events_per_sec: f64,
    /// Lower bound on the restart phase's replay-over-cold-open ratio.
    /// Algorithmic at heart — `open_segments` decodes the live set from
    /// pre-sorted columns while the segment-less restart replays the whole
    /// journal history, paying one decode plus one incremental index
    /// operation per subscribe *and* unsubscribe ever logged — so the
    /// ratio holds on slow machines; it exists to catch the segment load
    /// path degenerating back into a replay.
    pub min_restart_speedup: f64,
    /// Upper bound on the cold `open_segments` wall clock in milliseconds
    /// at the report's population size. Wall-clock dependent, so set with
    /// very generous headroom; it exists to catch the decode path going
    /// quadratic or re-validating per entry, not to time the disk.
    pub max_cold_open_ms: f64,
}

/// Populates `index`, times the query batch, and extracts the cost counters.
/// Shared by the perf-smoke gate and the e05 cost-comparison experiment so
/// the two can never diverge in what they measure.
pub(crate) fn measure_policy(
    index: &mut dyn CoveringIndex,
    population: &[acd_subscription::Subscription],
    queries: &[acd_subscription::Subscription],
) -> PolicyCost {
    let build_start = Instant::now();
    for s in population {
        index.insert(s).expect("insert population");
    }
    let build_elapsed = build_start.elapsed();
    let start = Instant::now();
    let mut covered_found = 0u64;
    for q in queries {
        if index.find_covering(q).expect("query").is_covered() {
            covered_found += 1;
        }
    }
    let elapsed = start.elapsed();
    let stats = index.stats();
    PolicyCost {
        name: index.name().to_string(),
        mean_runs_probed: stats.mean_runs_per_query(),
        mean_probes: stats.mean_probes_per_query(),
        mean_runs_skipped: stats.mean_skips_per_query(),
        mean_comparisons: stats.mean_comparisons_per_query(),
        mean_latency_us: elapsed.as_secs_f64() * 1e6 / queries.len() as f64,
        total_time_ms: elapsed.as_secs_f64() * 1e3,
        build_time_ms: build_elapsed.as_secs_f64() * 1e3,
        insert_throughput_per_sec: population.len() as f64 / build_elapsed.as_secs_f64().max(1e-9),
        covered_found,
    }
}

/// Measures the sharded index under churn at one shard count: a bulk-built
/// population of `subscriptions`, then `reader_threads` query threads racing
/// a writer that alternates inserting a fresh subscription and removing one
/// it inserted earlier (so the population stays near `subscriptions`), for
/// `millis` of wall clock.
pub fn run_churn(
    subscriptions: usize,
    shards: usize,
    reader_threads: usize,
    millis: u64,
) -> ChurnCost {
    let config = WorkloadConfig::builder()
        .attributes(3)
        .bits_per_attribute(10)
        .seed(404)
        .build()
        .unwrap();
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let population = workload.take(subscriptions);
    let query_subs = workload.take(200);

    let index = ShardedCoveringIndex::build_from(
        &schema,
        ApproxConfig::exhaustive(),
        CurveKind::Z,
        shards,
        &population,
    )
    .expect("churn index build");

    let deadline = Instant::now() + Duration::from_millis(millis);
    let stop = AtomicBool::new(false);
    let mut query_counts: Vec<u64> = Vec::new();
    let mut updates_run = 0u64;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            // Fresh subscriptions continue the generator's id sequence, so
            // they never collide with the population or the queries.
            let mut pending = std::collections::VecDeque::new();
            let mut updates = 0u64;
            while Instant::now() < deadline {
                let sub = workload.next_subscription();
                pending.push_back(sub.id());
                index.insert(&sub).expect("churn insert");
                updates += 1;
                if pending.len() > 64 {
                    let id = pending.pop_front().expect("non-empty");
                    index.remove(id).expect("churn remove");
                    updates += 1;
                }
            }
            stop.store(true, Ordering::Release);
            updates
        });
        let readers: Vec<_> = (0..reader_threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut count = 0u64;
                    'outer: loop {
                        for q in &query_subs {
                            if stop.load(Ordering::Acquire) {
                                break 'outer;
                            }
                            std::hint::black_box(index.find_covering(q).expect("churn query"));
                            count += 1;
                        }
                    }
                    count
                })
            })
            .collect();
        updates_run = writer.join().expect("writer thread");
        for reader in readers {
            query_counts.push(reader.join().expect("reader thread"));
        }
    });
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let queries_run: u64 = query_counts.iter().sum();
    ChurnCost {
        shards,
        queries_run,
        updates_run,
        query_throughput_per_sec: queries_run as f64 / elapsed,
        update_throughput_per_sec: updates_run as f64 / elapsed,
    }
}

/// Measures the sharded index under the skewed-drift stream at 4 shards:
/// bulk-build a quantile-balanced population of `subscriptions`, jump the
/// generator's hot region half a domain, replace the whole population once
/// untimed (so the frozen layout is fully concentrated), then sustain
/// paired insert/remove updates for `millis` of wall clock. With
/// `rebalance` the auto-rebalance policy (imbalance 1.5, checked every 256
/// updates) is armed before the drift begins.
pub fn run_drift_churn(subscriptions: usize, rebalance: bool, millis: u64) -> DriftCost {
    let mut harness = DriftHarness::new(subscriptions, rebalance, 909);
    let deadline = Instant::now() + Duration::from_millis(millis);
    let start = Instant::now();
    let mut updates_run = 0u64;
    while Instant::now() < deadline {
        harness.paired_update();
        updates_run += 2;
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    harness.cost(rebalance, updates_run, updates_run as f64 / elapsed)
}

/// The shared setup behind every skewed-drift measurement — the CI drift
/// phase above, the e13 rebalance table and the `drift_updates` Criterion
/// group all drive this exact protocol, so a change to the policy constants
/// or the drift convention cannot silently diverge between the bench, the
/// experiment and the CI gate.
///
/// Construction bulk-builds a quantile-balanced 4-shard index over the
/// [`Scenario::SkewedDrift`] workload, optionally arms the standard
/// auto-rebalance policy (imbalance 1.5, min 256, checked every 256
/// updates), jumps the generator's hot region half a domain, and replaces
/// the whole population once — so by the time the caller starts timing
/// [`paired_update`](DriftHarness::paired_update) calls, a frozen layout is
/// already fully concentrated.
#[derive(Debug)]
pub struct DriftHarness {
    workload: SubscriptionWorkload,
    /// The drifted 4-shard index under measurement.
    pub index: ShardedCoveringIndex,
    retire: std::collections::VecDeque<acd_subscription::SubId>,
}

impl DriftHarness {
    /// Builds the harness (see the type docs for the protocol).
    pub fn new(subscriptions: usize, rebalance: bool, seed: u64) -> Self {
        let config = Scenario::SkewedDrift.workload_config(seed);
        let mut workload = SubscriptionWorkload::new(&config).unwrap();
        let schema = workload.schema().clone();
        let population = workload.take(subscriptions);
        let index = ShardedCoveringIndex::build_from(
            &schema,
            ApproxConfig::exhaustive(),
            CurveKind::Z,
            4,
            &population,
        )
        .expect("drift index build");
        if rebalance {
            index
                .set_rebalance_policy(Some(RebalancePolicy {
                    max_imbalance: 1.5,
                    min_len: 256,
                    check_interval: 256,
                }))
                .expect("valid drift policy");
        }
        workload.set_center_offset(0.5);
        let mut harness = DriftHarness {
            workload,
            index,
            retire: population.iter().map(|s| s.id()).collect(),
        };
        for _ in 0..subscriptions {
            harness.paired_update();
        }
        harness
    }

    /// One churn step: insert a fresh (drifted) subscription and remove the
    /// oldest live one, keeping the population size constant.
    pub fn paired_update(&mut self) {
        let sub = self.workload.next_subscription();
        self.retire.push_back(sub.id());
        self.index.insert(&sub).expect("drift insert");
        let old = self.retire.pop_front().expect("non-empty");
        self.index.remove(old).expect("drift remove");
    }

    /// Packages the index's end state into a [`DriftCost`] row.
    pub fn cost(
        &self,
        rebalance_enabled: bool,
        updates_run: u64,
        update_throughput_per_sec: f64,
    ) -> DriftCost {
        let stats = ShardedCoveringIndex::stats(&self.index);
        DriftCost {
            rebalance_enabled,
            updates_run,
            update_throughput_per_sec,
            final_imbalance: self.index.imbalance(),
            rebalances: stats.rebalances,
            subscriptions_migrated: stats.subscriptions_migrated,
        }
    }
}

/// E2e phase: start an in-process [`BrokerDaemon`] on a loopback ephemeral
/// port, open `connections` real TCP clients, have each register a handful
/// of subscriptions and then publish round trips as fast as it can for
/// `millis` of wall clock. Measures the full daemon path — wire codec,
/// worker dispatch, concurrent `BrokerNetwork` routing — not the covering
/// index in isolation.
fn run_e2e(connections: usize, millis: u64) -> (E2eCost, ResilienceCounters) {
    use acd_subscription::{Event, Schema, SubscriptionBuilder};

    const DOMAIN: f64 = 1000.0;
    const BROKERS: usize = 4;
    const SUBS_PER_CONNECTION: u64 = 4;

    let schema = Schema::builder()
        .attribute("x", 0.0, DOMAIN)
        .attribute("y", 0.0, DOMAIN)
        .bits_per_attribute(8)
        .build()
        .expect("e2e schema");
    let network = BrokerConfig::new(Topology::line(BROKERS).expect("line topology"), &schema)
        .policy(CoveringPolicy::ExactSfc)
        .build()
        .expect("e2e network");
    let daemon = BrokerDaemon::start(std::sync::Arc::new(network), "127.0.0.1:0", connections)
        .expect("start e2e daemon");
    let addr = daemon.local_addr();
    let window = Duration::from_millis(millis);

    let per_connection: Vec<(u64, u64, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|index| {
                let schema = &schema;
                scope.spawn(move || {
                    let mut client = BrokerClient::connect(addr).expect("connect e2e client");
                    // A few standing subscriptions so publishes route and
                    // deliver rather than dying at the first broker.
                    for s in 0..SUBS_PER_CONNECTION {
                        let id = index as u64 * SUBS_PER_CONNECTION + s + 1;
                        let lo = (s as f64 / SUBS_PER_CONNECTION as f64) * DOMAIN * 0.9;
                        let sub = SubscriptionBuilder::new(schema)
                            .range("x", lo, lo + DOMAIN * 0.2)
                            .range("y", 0.0, DOMAIN)
                            .build(id)
                            .expect("e2e subscription");
                        client
                            .subscribe((id % BROKERS as u64) as usize, id, &sub)
                            .expect("e2e subscribe");
                    }
                    let mut publishes = 0u64;
                    let mut deliveries = 0u64;
                    let mut in_flight = Duration::ZERO;
                    let deadline = Instant::now() + window;
                    while Instant::now() < deadline {
                        let x = (publishes % 100) as f64 / 100.0 * DOMAIN;
                        let event = Event::new(schema, vec![x, DOMAIN / 2.0]).expect("e2e event");
                        let sent = Instant::now();
                        let pairs = client
                            .publish(publishes as usize % BROKERS, &event)
                            .expect("e2e publish");
                        in_flight += sent.elapsed();
                        publishes += 1;
                        deliveries += pairs.len() as u64;
                    }
                    (publishes, deliveries, in_flight)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("e2e connection thread"))
            .collect()
    });
    let metrics = daemon.network().metrics();
    let resilience = ResilienceCounters {
        connections_rejected: metrics.connections_rejected,
        connections_evicted: metrics.connections_evicted,
        frames_corrupt: metrics.frames_corrupt,
        client_retries: metrics.client_retries,
        client_reconnects: metrics.client_reconnects,
    };
    drop(daemon);

    let publishes: u64 = per_connection.iter().map(|(p, _, _)| p).sum();
    let deliveries: u64 = per_connection.iter().map(|(_, d, _)| d).sum();
    let in_flight: Duration = per_connection.iter().map(|(_, _, t)| *t).sum();
    let cost = E2eCost {
        connections,
        publishes,
        deliveries,
        events_per_sec: publishes as f64 / window.as_secs_f64().max(f64::MIN_POSITIVE),
        mean_publish_latency_us: in_flight.as_secs_f64() * 1e6 / publishes.max(1) as f64,
        window_millis: millis,
    };
    (cost, resilience)
}

/// Chaos phase: subscribe a resilient client to `subscriptions` standing
/// subscriptions, kill the daemon, restart one on the same port, and time
/// how long the client's next publish takes end to end — failure
/// detection, reconnect, replay of the whole tracked set, and the publish
/// round trip. The publish's delivery list proves the replay: every
/// subscription matches the event, so the count must equal the set size.
fn run_chaos(subscriptions: usize) -> ChaosCost {
    use acd_subscription::{Event, Schema, SubscriptionBuilder};

    const DOMAIN: f64 = 1000.0;
    const BROKERS: usize = 4;

    let schema = Schema::builder()
        .attribute("x", 0.0, DOMAIN)
        .bits_per_attribute(8)
        .build()
        .expect("chaos schema");
    let build_network = || {
        BrokerConfig::new(Topology::line(BROKERS).expect("line topology"), &schema)
            .policy(CoveringPolicy::ExactSfc)
            .build()
            .expect("chaos network")
    };
    let mut daemon = BrokerDaemon::start(std::sync::Arc::new(build_network()), "127.0.0.1:0", 2)
        .expect("start chaos daemon");
    let addr = daemon.local_addr();
    let policy = RetryPolicy {
        max_attempts: 100,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        request_timeout: Some(Duration::from_secs(2)),
        jitter_seed: 1,
    };
    let mut client = ResilientClient::connect(addr, policy).expect("connect chaos client");
    // Every subscription covers the whole domain, so one publish delivers
    // to all of them — the delivery count certifies the replay.
    for id in 1..=subscriptions as u64 {
        let sub = SubscriptionBuilder::new(&schema)
            .range("x", 0.0, DOMAIN)
            .build(id)
            .expect("chaos subscription");
        client
            .subscribe((id % BROKERS as u64) as usize, id, &sub)
            .expect("chaos subscribe");
    }
    let event = Event::new(&schema, vec![DOMAIN / 2.0]).expect("chaos event");
    assert_eq!(
        client.publish(0, &event).expect("warm-up publish").len(),
        subscriptions
    );
    let before = client.stats();

    daemon.shutdown();
    drop(daemon);
    let daemon = {
        let mut attempts = 0;
        loop {
            match BrokerDaemon::start(std::sync::Arc::new(build_network()), addr, 2) {
                Ok(d) => break d,
                Err(e) => {
                    attempts += 1;
                    assert!(attempts < 100, "chaos daemon never came back: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    };

    let started = Instant::now();
    let deliveries = client
        .publish(0, &event)
        .expect("publish after the restart");
    let reconnect_resubscribe_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        deliveries.len(),
        subscriptions,
        "the replayed subscription set must be whole"
    );
    drop(daemon);

    let stats = client.stats();
    ChaosCost {
        subscriptions,
        reconnect_resubscribe_ms,
        client_retries: stats.retries - before.retries,
        client_reconnects: stats.reconnects - before.reconnects,
    }
}

/// Batched-publish phase: register `subscriptions` standing subscriptions
/// straight on the overlay (so the setup is not bounded by that many
/// subscribe round trips), then drive the same deterministic event stream
/// through one loopback client twice for `millis` of wall clock each —
/// one publish round trip per event, and pipelined 128-event
/// `publish_batch` bursts the daemon drains into single batched
/// `BrokerNetwork::publish_batch` executions.
fn run_batched_publish(subscriptions: usize, millis: u64) -> BatchedPublishCost {
    use acd_subscription::{Event, Schema, SubscriptionBuilder};

    const DOMAIN: f64 = 1000.0;
    const BROKERS: usize = 4;
    const BATCH: usize = 128;

    let schema = Schema::builder()
        .attribute("x", 0.0, DOMAIN)
        .attribute("y", 0.0, DOMAIN)
        .bits_per_attribute(8)
        .build()
        .expect("batched-publish schema");
    let network = BrokerConfig::new(Topology::line(BROKERS).expect("line topology"), &schema)
        .policy(CoveringPolicy::ExactSfc)
        .build()
        .expect("batched-publish network");
    // Narrow x slices spread deterministically over the domain: each event
    // matches a thin band of the population, so the measurement times the
    // matching sweep and the wire round trips, not delivery-list encoding.
    for id in 1..=subscriptions as u64 {
        let lo = ((id * 37) % 995) as f64 / 1000.0 * DOMAIN;
        let sub = SubscriptionBuilder::new(&schema)
            .range("x", lo, lo + DOMAIN * 0.002)
            .range("y", 0.0, DOMAIN)
            .build(id)
            .expect("batched-publish subscription");
        network
            .subscribe((id % BROKERS as u64) as usize, id, &sub)
            .expect("batched-publish subscribe");
    }
    let daemon = BrokerDaemon::start(std::sync::Arc::new(network), "127.0.0.1:0", 2)
        .expect("start batched-publish daemon");
    let mut client = BrokerClient::connect(daemon.local_addr()).expect("connect batched client");
    let events: Vec<Event> = (0..1024u64)
        .map(|i| {
            let x = ((i * 193) % 1000) as f64 / 1000.0 * DOMAIN;
            Event::new(&schema, vec![x, DOMAIN / 2.0]).expect("batched-publish event")
        })
        .collect();
    let window = Duration::from_millis(millis);

    let mut serial = 0u64;
    let serial_start = Instant::now();
    let deadline = serial_start + window;
    while Instant::now() < deadline {
        let event = &events[serial as usize % events.len()];
        client
            .publish((serial % BROKERS as u64) as usize, event)
            .expect("serial publish");
        serial += 1;
    }
    let serial_elapsed = serial_start.elapsed().as_secs_f64().max(1e-9);

    let mut batched = 0u64;
    let mut bursts = 0u64;
    let batched_start = Instant::now();
    let deadline = batched_start + window;
    while Instant::now() < deadline {
        let offset = (bursts as usize * BATCH) % (events.len() - BATCH);
        let burst = &events[offset..offset + BATCH];
        client
            .publish_batch((bursts % BROKERS as u64) as usize, burst)
            .expect("batched publish");
        batched += BATCH as u64;
        bursts += 1;
    }
    let batched_elapsed = batched_start.elapsed().as_secs_f64().max(1e-9);
    drop(daemon);

    let serial_events_per_sec = serial as f64 / serial_elapsed;
    let batched_events_per_sec = batched as f64 / batched_elapsed;
    BatchedPublishCost {
        subscriptions,
        batch: BATCH,
        serial_events_per_sec,
        batched_events_per_sec,
        speedup: batched_events_per_sec / serial_events_per_sec.max(1e-9),
        window_millis: millis,
    }
}

/// Restart phase: bulk-build the exact-Z index at `subscriptions`, persist
/// it as durable segments, drop it, then time a cold `open_segments`
/// against the segment-less restart path: replaying the subscription
/// journal. The replayed history is the live population plus one retracted
/// subscription per live one — the 50/50 subscribe/unsubscribe mix the
/// churn phase runs at steady state — and each record pays its decode
/// (`Subscription::from_raw_bounds`, the journal-parse analogue) plus one
/// incremental index operation, exactly like `acd-brokerd` recovering
/// without a snapshot. A handful of covering queries certify the reopened
/// index answers exactly like the replayed one before either timing is
/// trusted.
fn run_restart(subscriptions: usize) -> RestartCost {
    use acd_subscription::Subscription;

    let config = WorkloadConfig::builder()
        .attributes(3)
        .bits_per_attribute(10)
        .seed(606)
        .build()
        .unwrap();
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let population = workload.take(subscriptions);
    let churned = workload.take(subscriptions);
    let queries = workload.take(32);

    let index = SfcCoveringIndex::build_from(
        &schema,
        ApproxConfig::exhaustive(),
        CurveKind::Z,
        &population,
    )
    .expect("restart build");
    // Unique per call, not just per process: unit tests run several
    // harness passes concurrently in one process.
    static RESTART_RUNS: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "acd-perf-restart-{}-{}",
        std::process::id(),
        RESTART_RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    let save_start = Instant::now();
    index.save_segments(&dir).expect("save segments");
    let save_ms = save_start.elapsed().as_secs_f64() * 1e3;
    drop(index);

    // Best of three cold opens: the first round may pay the page cache's
    // mood on a shared runner; the gate is about codec cost.
    let mut cold_open_ms = f64::INFINITY;
    let mut loaded = None;
    for _ in 0..3 {
        let open_start = Instant::now();
        let reopened = SfcCoveringIndex::open_segments(&dir).expect("cold open");
        cold_open_ms = cold_open_ms.min(open_start.elapsed().as_secs_f64() * 1e3);
        loaded = Some(reopened);
    }
    let mut loaded = loaded.expect("at least one cold-open round");
    assert_eq!(loaded.len(), population.len());

    // Journal replay: subscribe(live), subscribe(churned), unsubscribe
    // (churned), interleaved — three records per live subscription, each
    // decoded from its raw bounds and applied incrementally.
    let journal_ops = population.len() + 2 * churned.len();
    let rebuild_start = Instant::now();
    let mut replayed =
        SfcCoveringIndex::new(&schema, ApproxConfig::exhaustive()).expect("restart replay index");
    for (live, churn) in population.iter().zip(&churned) {
        let sub = Subscription::from_raw_bounds(&schema, live.id(), live.raw_bounds())
            .expect("replay live record");
        replayed.insert(&sub).expect("replay live insert");
        let ghost = Subscription::from_raw_bounds(&schema, churn.id(), churn.raw_bounds())
            .expect("replay churn record");
        replayed.insert(&ghost).expect("replay churn insert");
        replayed.remove(ghost.id()).expect("replay churn remove");
    }
    let rebuild_ms = rebuild_start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(replayed.len(), loaded.len());

    for q in &queries {
        assert_eq!(
            loaded.find_covering(q).expect("loaded query").covering,
            replayed.find_covering(q).expect("replayed query").covering,
            "the reopened index must answer exactly like the replayed one"
        );
    }
    let segment_bytes: u64 = std::fs::read_dir(&dir)
        .expect("segment directory")
        .map(|entry| {
            entry
                .expect("readable entry")
                .metadata()
                .expect("metadata")
                .len()
        })
        .sum();
    std::fs::remove_dir_all(&dir).ok();

    RestartCost {
        subscriptions,
        journal_ops,
        save_ms,
        cold_open_ms,
        rebuild_ms,
        speedup: rebuild_ms / cold_open_ms.max(1e-9),
        segment_bytes,
    }
}

/// Runs the perf-smoke measurement: the e08 workload shape (3 attributes,
/// 10 bits) at the given population size, against the linear baseline, the
/// exact-SFC index (skip engine), the PR-1 eager engine (kept as the
/// before/after reference) and the ε = 0.05 approximate index — plus the
/// sharded churn phase at 1, 2 and 4 shards (`churn_millis` of wall clock
/// each; 0 skips the phase).
///
/// Set `include_eager` to `false` to skip the slow eager reference (used by
/// the quick unit test).
pub fn run(
    subscriptions: usize,
    queries: usize,
    include_eager: bool,
    churn_millis: u64,
) -> PerfSmokeReport {
    let attributes = 3usize;
    let bits_per_attribute = 10u32;
    let config = WorkloadConfig::builder()
        .attributes(attributes)
        .bits_per_attribute(bits_per_attribute)
        .seed(404)
        .build()
        .unwrap();
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let population = workload.take(subscriptions);
    let query_subs = workload.take(queries);

    let mut indexes: Vec<Box<dyn CoveringIndex>> = vec![
        Box::new(LinearScanIndex::new(&schema)),
        Box::new(SfcCoveringIndex::exhaustive(&schema).unwrap()),
        Box::new(
            SfcCoveringIndex::approximate(&schema, ApproxConfig::with_epsilon(0.05).unwrap())
                .unwrap(),
        ),
    ];
    if include_eager {
        indexes.push(Box::new(
            SfcCoveringIndex::new(
                &schema,
                ApproxConfig::exhaustive().engine(QueryEngine::EagerRuns),
            )
            .unwrap(),
        ));
    }

    let policies: Vec<PolicyCost> = indexes
        .iter_mut()
        .map(|index| measure_policy(index.as_mut(), &population, &query_subs))
        .collect();

    // Bulk build: the same exact-Z index built in one sorted pass.
    let bulk_start = Instant::now();
    let bulk = SfcCoveringIndex::build_from(
        &schema,
        ApproxConfig::exhaustive(),
        acd_sfc::CurveKind::Z,
        &population,
    )
    .expect("bulk build");
    let bulk_build_ms = bulk_start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(bulk.len(), population.len());
    let incremental_ms = policies
        .iter()
        .find(|p| p.name == "sfc-z-exhaustive")
        .map(|p| p.build_time_ms)
        .unwrap_or(0.0);
    let bulk_build_speedup = incremental_ms / bulk_build_ms.max(1e-9);

    // Churn phase: reader threads scale with the machine (writer takes one
    // core), capped so the measurement shape stays comparable across hosts.
    let churn_query_workers = std::thread::available_parallelism()
        .map(|p| p.get().saturating_sub(1))
        .unwrap_or(1)
        .clamp(1, 4);
    let churn: Vec<ChurnCost> = if churn_millis == 0 {
        Vec::new()
    } else {
        [1usize, 2, 4]
            .iter()
            .map(|&shards| run_churn(subscriptions, shards, churn_query_workers, churn_millis))
            .collect()
    };
    let ratio = |f: fn(&ChurnCost) -> f64| -> f64 {
        let one = churn.iter().find(|c| c.shards == 1).map(f).unwrap_or(0.0);
        let four = churn.iter().find(|c| c.shards == 4).map(f).unwrap_or(0.0);
        if one > 0.0 {
            four / one
        } else {
            0.0
        }
    };
    let sharded_query_speedup = ratio(|c| c.query_throughput_per_sec);
    let sharded_update_speedup = ratio(|c| c.update_throughput_per_sec);

    // Drift phase: frozen vs auto-rebalanced boundaries under the skewed
    // drift stream (same wall-clock window as the churn phase).
    let drift: Vec<DriftCost> = if churn_millis == 0 {
        Vec::new()
    } else {
        [false, true]
            .iter()
            .map(|&rebalance| run_drift_churn(subscriptions, rebalance, churn_millis))
            .collect()
    };
    let drift_rebalance_speedup = {
        let frozen = drift
            .iter()
            .find(|d| !d.rebalance_enabled)
            .map(|d| d.update_throughput_per_sec)
            .unwrap_or(0.0);
        let rebalanced = drift
            .iter()
            .find(|d| d.rebalance_enabled)
            .map(|d| d.update_throughput_per_sec)
            .unwrap_or(0.0);
        if frozen > 0.0 {
            rebalanced / frozen
        } else {
            0.0
        }
    };

    // E2e phase: the daemon path over loopback TCP (same wall-clock window
    // as the churn phase; skipped together with it).
    let (e2e, resilience) = if churn_millis == 0 {
        (None, None)
    } else {
        let (cost, counters) = run_e2e(4, churn_millis);
        (Some(cost), Some(counters))
    };

    // Chaos phase: reconnect + full-resubscribe recovery time across a
    // daemon restart (skipped together with the other timed phases).
    let chaos = if churn_millis == 0 {
        None
    } else {
        Some(run_chaos(32))
    };

    // Batched-publish phase: serial vs pipelined publish throughput through
    // the daemon at the full population size (skipped with the other timed
    // phases).
    let batched_publish = if churn_millis == 0 {
        None
    } else {
        Some(run_batched_publish(subscriptions, churn_millis))
    };

    // Restart phase: durable-segment cold open vs a full rebuild (skipped
    // with the other timed phases).
    let restart = if churn_millis == 0 {
        None
    } else {
        Some(run_restart(subscriptions))
    };

    PerfSmokeReport {
        subscriptions,
        queries,
        attributes,
        bits_per_attribute,
        policies,
        bulk_build_ms,
        bulk_build_speedup,
        churn,
        churn_query_workers,
        churn_millis,
        sharded_query_speedup,
        sharded_update_speedup,
        drift,
        drift_rebalance_speedup,
        e2e,
        resilience,
        chaos,
        batched_publish,
        restart,
    }
}

/// Checks `report` against `budget`, returning every violated bound as a
/// human-readable message.
///
/// # Errors
///
/// Returns the list of violations (also when the exact-SFC policy is missing
/// from the report).
pub fn check_budget(report: &PerfSmokeReport, budget: &PerfBudget) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    match report.policy("sfc-z-exhaustive") {
        None => violations.push("report has no sfc-z-exhaustive policy".to_string()),
        Some(cost) => {
            if cost.mean_runs_probed > budget.max_mean_runs_probed_exact_sfc {
                violations.push(format!(
                    "exact-SFC mean runs probed {:.2} exceeds budget {:.2}",
                    cost.mean_runs_probed, budget.max_mean_runs_probed_exact_sfc
                ));
            }
            if cost.mean_probes > budget.max_mean_probes_exact_sfc {
                violations.push(format!(
                    "exact-SFC mean probes {:.2} exceeds budget {:.2}",
                    cost.mean_probes, budget.max_mean_probes_exact_sfc
                ));
            }
            if cost.mean_latency_us > budget.max_mean_query_latency_us_exact_sfc {
                violations.push(format!(
                    "exact-SFC mean query latency {:.1} us exceeds budget {:.1} us",
                    cost.mean_latency_us, budget.max_mean_query_latency_us_exact_sfc
                ));
            }
            if cost.insert_throughput_per_sec < budget.min_insert_throughput_exact_sfc {
                violations.push(format!(
                    "exact-SFC insert throughput {:.0}/s below budget {:.0}/s",
                    cost.insert_throughput_per_sec, budget.min_insert_throughput_exact_sfc
                ));
            }
        }
    }
    if report.bulk_build_speedup < budget.min_bulk_build_speedup {
        violations.push(format!(
            "bulk-build speedup {:.2}x below budget {:.2}x",
            report.bulk_build_speedup, budget.min_bulk_build_speedup
        ));
    }
    match report.churn.iter().find(|c| c.shards == 4) {
        None => violations.push("report has no 4-shard churn measurement".to_string()),
        Some(cost) => {
            if cost.update_throughput_per_sec < budget.min_churn_update_throughput {
                violations.push(format!(
                    "4-shard churn update throughput {:.0}/s below budget {:.0}/s",
                    cost.update_throughput_per_sec, budget.min_churn_update_throughput
                ));
            }
            // The query-speedup gate needs genuinely concurrent readers; a
            // single-core runner measures only scheduler noise, so the bound
            // is skipped there (the update-throughput floor still applies).
            if report.churn_query_workers >= 2
                && report.sharded_query_speedup < budget.min_sharded_query_speedup
            {
                violations.push(format!(
                    "sharded query speedup {:.2}x (4 vs 1 shards) below budget {:.2}x",
                    report.sharded_query_speedup, budget.min_sharded_query_speedup
                ));
            }
        }
    }
    match report.drift.iter().find(|d| d.rebalance_enabled) {
        None => violations.push("report has no rebalance-enabled drift measurement".to_string()),
        Some(cost) => {
            if cost.update_throughput_per_sec < budget.min_rebalanced_churn_update_throughput {
                violations.push(format!(
                    "rebalanced drift update throughput {:.0}/s below budget {:.0}/s",
                    cost.update_throughput_per_sec, budget.min_rebalanced_churn_update_throughput
                ));
            }
            if cost.final_imbalance > budget.max_imbalance_after_rebalance {
                violations.push(format!(
                    "imbalance after rebalance {:.2} exceeds budget {:.2}",
                    cost.final_imbalance, budget.max_imbalance_after_rebalance
                ));
            }
        }
    }
    match &report.e2e {
        None => violations.push("report has no e2e daemon measurement".to_string()),
        Some(cost) => {
            if cost.events_per_sec < budget.min_e2e_events_per_sec {
                violations.push(format!(
                    "e2e publish throughput {:.0} events/s below budget {:.0}",
                    cost.events_per_sec, budget.min_e2e_events_per_sec
                ));
            }
            if cost.mean_publish_latency_us > budget.max_e2e_publish_latency_us {
                violations.push(format!(
                    "e2e mean publish latency {:.1} us exceeds budget {:.1} us",
                    cost.mean_publish_latency_us, budget.max_e2e_publish_latency_us
                ));
            }
        }
    }
    match &report.chaos {
        None => violations.push("report has no chaos recovery measurement".to_string()),
        Some(cost) => {
            if cost.reconnect_resubscribe_ms > budget.max_reconnect_resubscribe_ms {
                violations.push(format!(
                    "chaos reconnect + resubscribe {:.1} ms exceeds budget {:.1} ms",
                    cost.reconnect_resubscribe_ms, budget.max_reconnect_resubscribe_ms
                ));
            }
        }
    }
    match &report.batched_publish {
        None => violations.push("report has no batched-publish measurement".to_string()),
        Some(cost) => {
            if cost.batched_events_per_sec < budget.min_batched_publish_events_per_sec {
                violations.push(format!(
                    "batched publish throughput {:.0} events/s below budget {:.0}",
                    cost.batched_events_per_sec, budget.min_batched_publish_events_per_sec
                ));
            }
        }
    }
    match &report.restart {
        None => violations.push("report has no restart measurement".to_string()),
        Some(cost) => {
            if cost.speedup < budget.min_restart_speedup {
                violations.push(format!(
                    "restart speedup {:.2}x (journal replay / cold open) below budget {:.2}x",
                    cost.speedup, budget.min_restart_speedup
                ));
            }
            if cost.cold_open_ms > budget.max_cold_open_ms {
                violations.push(format!(
                    "restart cold open {:.1} ms exceeds budget {:.1} ms",
                    cost.cold_open_ms, budget.max_cold_open_ms
                ));
            }
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// One row of the nightly perf-trend comparison.
fn trend_metrics(report: &PerfSmokeReport) -> Vec<(&'static str, Option<f64>, bool)> {
    // (label, value, lower_is_better)
    let exact = report.policy("sfc-z-exhaustive");
    let churn4 = report.churn.iter().find(|c| c.shards == 4);
    let rebalanced = report.drift.iter().find(|d| d.rebalance_enabled);
    vec![
        (
            "exact-SFC mean query latency (us)",
            exact.map(|c| c.mean_latency_us),
            true,
        ),
        ("exact-SFC mean probes", exact.map(|c| c.mean_probes), true),
        (
            "exact-SFC insert throughput (/s)",
            exact.map(|c| c.insert_throughput_per_sec),
            false,
        ),
        (
            "bulk-build speedup (x)",
            Some(report.bulk_build_speedup),
            false,
        ),
        (
            "4-shard churn update throughput (/s)",
            churn4.map(|c| c.update_throughput_per_sec),
            false,
        ),
        (
            "4-shard churn query throughput (/s)",
            churn4.map(|c| c.query_throughput_per_sec),
            false,
        ),
        (
            "rebalanced drift update throughput (/s)",
            rebalanced.map(|d| d.update_throughput_per_sec),
            false,
        ),
        (
            "imbalance after rebalance",
            rebalanced.map(|d| d.final_imbalance),
            true,
        ),
        (
            "e2e publish throughput (events/s)",
            report.e2e.as_ref().map(|e| e.events_per_sec),
            false,
        ),
        (
            "e2e mean publish latency (us)",
            report.e2e.as_ref().map(|e| e.mean_publish_latency_us),
            true,
        ),
        (
            "reconnect + resubscribe (ms)",
            report.chaos.as_ref().map(|c| c.reconnect_resubscribe_ms),
            true,
        ),
        (
            "batched publish throughput (events/s)",
            report
                .batched_publish
                .as_ref()
                .map(|b| b.batched_events_per_sec),
            false,
        ),
        (
            "batched publish speedup (x)",
            report.batched_publish.as_ref().map(|b| b.speedup),
            false,
        ),
        (
            "restart cold open (ms)",
            report.restart.as_ref().map(|r| r.cold_open_ms),
            true,
        ),
        (
            "restart speedup (x)",
            report.restart.as_ref().map(|r| r.speedup),
            false,
        ),
    ]
}

/// Renders a GitHub-flavoured markdown table comparing `current` against
/// `previous` (the previous nightly run's report): one row per headline
/// metric with the relative delta, a `+`/`-` sign and a direction marker
/// (`⬆` improved, `⬇` regressed, `·` within ±2% noise). Used by the
/// nightly workflow's job summary.
pub fn trend_table(previous: &PerfSmokeReport, current: &PerfSmokeReport) -> String {
    render_trend_table("previous", trend_metrics(previous), trend_metrics(current))
}

/// Like [`trend_table`], but the baseline column is the per-metric **median**
/// over `history` (the last k nightly reports, any order). A single noisy
/// nightly run shifts a point-to-point delta twice — once as `current`, once
/// as next night's `previous` — while it barely moves a k-run median, so this
/// is the table the nightly workflow prefers once enough artifacts exist.
/// Metrics missing from some historical reports (older format versions) take
/// the median of the runs that do have them.
pub fn trend_table_median(history: &[PerfSmokeReport], current: &PerfSmokeReport) -> String {
    let per_report: Vec<_> = history.iter().map(trend_metrics).collect();
    let cur = trend_metrics(current);
    let baseline = cur
        .iter()
        .enumerate()
        .map(|(i, &(label, _, lower_is_better))| {
            let mut values: Vec<f64> = per_report.iter().filter_map(|r| r[i].1).collect();
            (label, median(&mut values), lower_is_better)
        })
        .collect();
    let header = format!("median (k={})", history.len());
    render_trend_table(&header, baseline, cur)
}

/// Median of `values` (sorted in place); `None` when empty.
fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

fn render_trend_table(
    baseline_header: &str,
    baseline: Vec<(&'static str, Option<f64>, bool)>,
    cur: Vec<(&'static str, Option<f64>, bool)>,
) -> String {
    let mut out =
        format!("| metric | {baseline_header} | current | delta |\n|---|---:|---:|---:|\n");
    for ((label, prev_value, lower_is_better), (_, cur_value, _)) in baseline.into_iter().zip(cur) {
        let cell = |v: Option<f64>| match v {
            Some(v) if v.abs() >= 1000.0 => format!("{v:.0}"),
            Some(v) => format!("{v:.2}"),
            None => "n/a".to_string(),
        };
        let delta = match (prev_value, cur_value) {
            (Some(p), Some(c)) if p.abs() > 1e-12 => {
                let pct = (c - p) / p * 100.0;
                let improved = if lower_is_better {
                    pct < 0.0
                } else {
                    pct > 0.0
                };
                let marker = if pct.abs() <= 2.0 {
                    "·"
                } else if improved {
                    "⬆"
                } else {
                    "⬇"
                };
                format!("{pct:+.1}% {marker}")
            }
            _ => "n/a".to_string(),
        };
        out.push_str(&format!(
            "| {label} | {} | {} | {delta} |\n",
            cell(prev_value),
            cell(cur_value)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json_and_respects_a_sane_budget() {
        let report = run(600, 40, false, 25);
        assert_eq!(report.policies.len(), 3);
        let text = serde_json::to_string(&report).unwrap();
        let back: PerfSmokeReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);

        let exact = report.policy("sfc-z-exhaustive").unwrap();
        let linear = report.policy("linear-scan").unwrap();
        // The skip engine's whole point: per-query probes bounded well below
        // the linear baseline's comparisons.
        assert!(exact.mean_probes < linear.mean_comparisons);
        let budget = PerfBudget {
            max_mean_runs_probed_exact_sfc: 64.0,
            max_mean_probes_exact_sfc: 256.0,
            max_mean_query_latency_us_exact_sfc: 1e6,
            min_insert_throughput_exact_sfc: 0.0,
            min_bulk_build_speedup: 0.0,
            min_churn_update_throughput: 0.0,
            min_sharded_query_speedup: 0.0,
            min_rebalanced_churn_update_throughput: 0.0,
            max_imbalance_after_rebalance: f64::INFINITY,
            min_e2e_events_per_sec: 0.0,
            max_e2e_publish_latency_us: f64::INFINITY,
            max_reconnect_resubscribe_ms: f64::INFINITY,
            min_batched_publish_events_per_sec: 0.0,
            min_restart_speedup: 0.0,
            max_cold_open_ms: f64::INFINITY,
        };
        check_budget(&report, &budget).unwrap();
        // An impossible budget must trip every gate (the query-speedup gate
        // only arms with at least two reader threads).
        let impossible = PerfBudget {
            max_mean_runs_probed_exact_sfc: 0.0,
            max_mean_probes_exact_sfc: 0.0,
            max_mean_query_latency_us_exact_sfc: 0.0,
            min_insert_throughput_exact_sfc: f64::INFINITY,
            min_bulk_build_speedup: f64::INFINITY,
            min_churn_update_throughput: f64::INFINITY,
            min_sharded_query_speedup: f64::INFINITY,
            min_rebalanced_churn_update_throughput: f64::INFINITY,
            max_imbalance_after_rebalance: 0.0,
            min_e2e_events_per_sec: f64::INFINITY,
            max_e2e_publish_latency_us: 0.0,
            max_reconnect_resubscribe_ms: 0.0,
            min_batched_publish_events_per_sec: f64::INFINITY,
            min_restart_speedup: f64::INFINITY,
            max_cold_open_ms: 0.0,
        };
        let violations = check_budget(&report, &impossible).unwrap_err();
        let expected = if report.churn_query_workers >= 2 {
            15
        } else {
            14
        };
        assert_eq!(violations.len(), expected, "{violations:?}");
        // The bulk-build measurement must be populated and sane; the actual
        // speedup bound is enforced by the release perf gate (wall-clock
        // ratios in a debug unit test on a shared runner would be flaky).
        assert!(report.bulk_build_ms > 0.0);
        assert!(report.bulk_build_speedup.is_finite() && report.bulk_build_speedup > 0.0);
        // The churn phase ran at 1, 2 and 4 shards and did real work.
        assert_eq!(report.churn.len(), 3);
        for cost in &report.churn {
            assert!(cost.queries_run > 0, "{cost:?}");
            assert!(cost.updates_run > 0, "{cost:?}");
            assert!(cost.query_throughput_per_sec > 0.0);
            assert!(cost.update_throughput_per_sec > 0.0);
        }
        assert!(report.sharded_query_speedup > 0.0);
        assert!(report.sharded_update_speedup > 0.0);
        // The drift phase ran both variants; the rebalanced one actually
        // migrated and ended the better balanced of the two.
        assert_eq!(report.drift.len(), 2);
        let frozen = report
            .drift
            .iter()
            .find(|d| !d.rebalance_enabled)
            .expect("frozen drift run");
        let rebalanced = report
            .drift
            .iter()
            .find(|d| d.rebalance_enabled)
            .expect("rebalanced drift run");
        assert_eq!(frozen.rebalances, 0);
        assert!(rebalanced.rebalances > 0, "{rebalanced:?}");
        assert!(rebalanced.subscriptions_migrated > 0);
        assert!(rebalanced.final_imbalance <= frozen.final_imbalance);
        assert!(report.drift_rebalance_speedup > 0.0);
        // The e2e phase drove real publishes through the loopback daemon.
        let e2e = report.e2e.as_ref().expect("e2e phase ran");
        assert_eq!(e2e.connections, 4);
        assert!(e2e.publishes > 0, "{e2e:?}");
        assert!(e2e.events_per_sec > 0.0);
        assert!(e2e.mean_publish_latency_us > 0.0);
        // A clean e2e run sheds nothing, evicts nobody, sees no damage.
        let resilience = report.resilience.as_ref().expect("resilience counters");
        assert_eq!(resilience.connections_rejected, 0, "{resilience:?}");
        assert_eq!(resilience.connections_evicted, 0, "{resilience:?}");
        assert_eq!(resilience.frames_corrupt, 0, "{resilience:?}");
        // The chaos phase recovered across a restart: at least one
        // reconnect, a whole replayed set, a finite recovery time.
        let chaos = report.chaos.as_ref().expect("chaos phase ran");
        assert_eq!(chaos.subscriptions, 32);
        assert!(chaos.reconnect_resubscribe_ms > 0.0, "{chaos:?}");
        assert!(chaos.client_reconnects >= 1, "{chaos:?}");
        // The batched-publish phase measured both publish shapes. The >= 3x
        // speedup claim is enforced by the release perf gate, not here — a
        // debug unit test on a shared runner would make it flaky.
        let batched = report
            .batched_publish
            .as_ref()
            .expect("batched-publish phase ran");
        assert_eq!(batched.subscriptions, report.subscriptions);
        assert!(batched.serial_events_per_sec > 0.0, "{batched:?}");
        assert!(batched.batched_events_per_sec > 0.0, "{batched:?}");
        assert!(batched.speedup > 0.0, "{batched:?}");
        // The restart phase persisted, reopened and timed both paths. The
        // >= 5x speedup claim is enforced by the release perf gate, not
        // here — debug-mode wall clocks on a shared runner would be flaky.
        let restart = report.restart.as_ref().expect("restart phase ran");
        assert_eq!(restart.subscriptions, report.subscriptions);
        assert_eq!(restart.journal_ops, 3 * report.subscriptions);
        assert!(restart.save_ms > 0.0, "{restart:?}");
        assert!(restart.cold_open_ms > 0.0, "{restart:?}");
        assert!(restart.rebuild_ms > 0.0, "{restart:?}");
        assert!(restart.speedup.is_finite() && restart.speedup > 0.0);
        assert!(restart.segment_bytes > 0, "{restart:?}");
    }

    #[test]
    fn reports_without_an_e2e_field_still_parse() {
        // Artifacts written before the daemon existed have no "e2e" key;
        // the trend table must keep accepting them (the field reads as
        // None and its rows render "n/a").
        let report = run(200, 10, false, 0);
        let mut text = serde_json::to_string(&report).unwrap();
        let cut = text.find(",\"e2e\":").unwrap();
        text.truncate(cut);
        text.push('}');
        let back: PerfSmokeReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.e2e, None);
        // The fields stacked after e2e (also absent from old artifacts)
        // read back as None too.
        assert_eq!(back.resilience, None);
        assert_eq!(back.chaos, None);
        assert_eq!(back.batched_publish, None);
        assert_eq!(back.restart, None);
        assert_eq!(back.drift_rebalance_speedup, report.drift_rebalance_speedup);
    }

    #[test]
    fn a_report_from_before_the_dispatch_phase_was_removed_still_compares() {
        // Nightly `--compare` reads the last five artifacts, and those
        // written before the pool/scoped fan-outs were removed still carry
        // the dispatch-phase fields. Such a report (a real one, from the
        // last commit that measured the fan-outs) must keep parsing — the
        // extra keys are ignored — and keep feeding the trend table.
        let text = include_str!("../../../perf/report_before_pr12.json");
        let old: PerfSmokeReport = serde_json::from_str(text).unwrap();
        assert_eq!(old.subscriptions, 300);
        assert!(old.e2e.is_some() && old.restart.is_some());
        let current = run(200, 10, false, 0);
        let table = trend_table_median(&[old.clone(), old], &current);
        assert!(table.contains("exact-SFC mean query latency"), "{table}");
        assert!(!table.contains("micro-query"), "{table}");
    }

    #[test]
    fn trend_table_renders_deltas_for_every_metric() {
        let previous = run(300, 10, false, 20);
        let mut current = previous.clone();
        // Perturb a few headline numbers so the table shows signed deltas.
        if let Some(p) = current
            .policies
            .iter_mut()
            .find(|p| p.name == "sfc-z-exhaustive")
        {
            p.mean_latency_us *= 2.0;
            p.insert_throughput_per_sec *= 0.5;
        }
        let table = trend_table(&previous, &current);
        assert!(table.starts_with("| metric |"));
        assert!(table.contains("exact-SFC mean query latency"));
        assert!(table.contains("rebalanced drift update throughput"));
        assert!(table.contains("+100.0%"), "{table}");
        assert!(table.contains("-50.0%"), "{table}");
        // Unchanged metrics sit inside the noise band.
        assert!(table.contains('·'), "{table}");
        // Every metric row rendered.
        assert_eq!(table.lines().count(), 2 + trend_metrics(&previous).len());
    }

    #[test]
    fn median_is_robust_to_a_single_outlier_run() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0]), Some(3.0));
        assert_eq!(median(&mut [1.0, 100.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn trend_table_median_baselines_against_history() {
        let base = run(300, 10, false, 20);
        // Three historical runs: two at 1x latency, one outlier at 10x. The
        // median ignores the outlier, so a current run at 1x shows ~0% delta.
        let mut outlier = base.clone();
        if let Some(p) = outlier
            .policies
            .iter_mut()
            .find(|p| p.name == "sfc-z-exhaustive")
        {
            p.mean_latency_us *= 10.0;
        }
        let history = vec![base.clone(), outlier, base.clone()];
        let table = trend_table_median(&history, &base);
        assert!(
            table.contains("| metric | median (k=3) | current | delta |"),
            "{table}"
        );
        let latency_row = table
            .lines()
            .find(|l| l.contains("exact-SFC mean query latency"))
            .unwrap();
        assert!(
            latency_row.contains("+0.0%") || latency_row.contains("-0.0%"),
            "{latency_row}"
        );
        assert_eq!(table.lines().count(), 2 + trend_metrics(&base).len());
    }

    #[test]
    fn skipping_the_churn_phase_is_reported_as_a_budget_violation() {
        let report = run(200, 10, false, 0);
        assert!(report.churn.is_empty());
        let budget = PerfBudget {
            max_mean_runs_probed_exact_sfc: f64::INFINITY,
            max_mean_probes_exact_sfc: f64::INFINITY,
            max_mean_query_latency_us_exact_sfc: f64::INFINITY,
            min_insert_throughput_exact_sfc: 0.0,
            min_bulk_build_speedup: 0.0,
            min_churn_update_throughput: 0.0,
            min_sharded_query_speedup: 0.0,
            min_rebalanced_churn_update_throughput: 0.0,
            max_imbalance_after_rebalance: f64::INFINITY,
            min_e2e_events_per_sec: 0.0,
            max_e2e_publish_latency_us: f64::INFINITY,
            max_reconnect_resubscribe_ms: f64::INFINITY,
            min_batched_publish_events_per_sec: 0.0,
            min_restart_speedup: 0.0,
            max_cold_open_ms: f64::INFINITY,
        };
        let violations = check_budget(&report, &budget).unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("churn")),
            "{violations:?}"
        );
        // Skipping churn also skips drift, which is its own violation.
        assert!(report.drift.is_empty());
        assert!(
            violations.iter().any(|v| v.contains("drift")),
            "{violations:?}"
        );
        // ... and the e2e daemon phase, which must not pass silently either.
        assert_eq!(report.e2e, None);
        assert!(
            violations.iter().any(|v| v.contains("e2e")),
            "{violations:?}"
        );
        // ... and the chaos recovery phase.
        assert_eq!(report.chaos, None);
        assert!(
            violations.iter().any(|v| v.contains("chaos")),
            "{violations:?}"
        );
        // ... and the batched-publish phase.
        assert_eq!(report.batched_publish, None);
        assert!(
            violations.iter().any(|v| v.contains("batched-publish")),
            "{violations:?}"
        );
        // ... and the restart phase.
        assert_eq!(report.restart, None);
        assert!(
            violations.iter().any(|v| v.contains("restart")),
            "{violations:?}"
        );
    }

    #[test]
    fn budget_file_format_parses() {
        let budget: PerfBudget = serde_json::from_str(
            r#"{"max_mean_runs_probed_exact_sfc": 48.0, "max_mean_probes_exact_sfc": 192.0,
                "max_mean_query_latency_us_exact_sfc": 100.0,
                "min_insert_throughput_exact_sfc": 50000.0,
                "min_bulk_build_speedup": 2.0,
                "min_churn_update_throughput": 5000.0,
                "min_sharded_query_speedup": 1.5,
                "min_rebalanced_churn_update_throughput": 8000.0,
                "max_imbalance_after_rebalance": 2.5,
                "min_e2e_events_per_sec": 200.0,
                "max_e2e_publish_latency_us": 50000.0,
                "max_reconnect_resubscribe_ms": 5000.0,
                "min_batched_publish_events_per_sec": 600.0,
                "min_restart_speedup": 5.0,
                "max_cold_open_ms": 1000.0}"#,
        )
        .unwrap();
        assert_eq!(budget.max_mean_runs_probed_exact_sfc, 48.0);
        assert_eq!(budget.max_mean_probes_exact_sfc, 192.0);
        assert_eq!(budget.max_mean_query_latency_us_exact_sfc, 100.0);
        assert_eq!(budget.min_insert_throughput_exact_sfc, 50000.0);
        assert_eq!(budget.min_bulk_build_speedup, 2.0);
        assert_eq!(budget.min_churn_update_throughput, 5000.0);
        assert_eq!(budget.min_sharded_query_speedup, 1.5);
        assert_eq!(budget.min_rebalanced_churn_update_throughput, 8000.0);
        assert_eq!(budget.max_imbalance_after_rebalance, 2.5);
        assert_eq!(budget.min_e2e_events_per_sec, 200.0);
        assert_eq!(budget.max_e2e_publish_latency_us, 50000.0);
        assert_eq!(budget.max_reconnect_resubscribe_ms, 5000.0);
        assert_eq!(budget.min_batched_publish_events_per_sec, 600.0);
        assert_eq!(budget.min_restart_speedup, 5.0);
        assert_eq!(budget.max_cold_open_ms, 1000.0);
    }
}
