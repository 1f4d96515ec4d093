//! The one declaration table: every workload and metric the benchmark knows,
//! with its unit, direction and bound. `BENCHMARK.json` is rendered from it
//! (`--emit-benchmark-json`), the runner refuses to print a result whose
//! metric names differ from it, and the tests in `main.rs` hold the committed
//! JSON to it — so names, units, bounds and the JSON cannot drift.

use serde::Value;

/// Seconds one measured run lasts under the driver (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["benchmark"];

/// Which requests a workload's timed phase issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Serial `publish` round trips; one op is one publish.
    Publish,
    /// Pipelined `publish_batch` bursts; one op is one event.
    PublishBatch,
    /// `subscribe` a fresh subscription, then `unsubscribe` the oldest; one
    /// op is one such pair (two round trips).
    Churn,
}

/// The subscription population a workload stands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Population {
    /// `Scenario::StockTicker`: Zipf-skewed centers, widths 2–30 % of the
    /// domain, so an event matches a few percent of the subscriptions.
    StockTicker,
    /// Uniform centers, widths 0.1–1 % of the domain: events match nothing.
    Narrow,
}

/// One workload: its inputs and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as the driver passes it to `--workload`.
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// Requests of the timed phase.
    pub kind: Kind,
    /// Standing-set population.
    pub population: Population,
    /// Standing subscriptions installed during set-up.
    pub standing: usize,
    /// Whether the daemon journals to a data directory.
    pub durable: bool,
    /// Requests the traced run sends through the daemon at `RUN_SECONDS`
    /// (a fixed count, so its counters repeat exactly).
    pub traced_daemon_ops: usize,
    /// Primary latency samples (publishes, bursts, pairs) per segment of the
    /// stream's cycle: about 10 ms of work, after which the reference op is
    /// measured (see `reference`), so the two meet the same machine.
    pub segment: usize,
    /// Primary samples a second the latency buffers have room for: about
    /// twice what the sandbox reaches.
    pub samples_per_second: usize,
}

/// Events per `publish_batch` burst.
pub const BURST: usize = 128;

/// Requests of each workload the traced run replays in-process.
pub const REPLAY_REQUESTS: usize = 5_000;

/// The five workloads. Each stresses one group of layers and bypasses
/// another, so an optimisation has a workload that exercises it and one on
/// which the prediction is "no change" (see README.md for the full table).
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fanout_publish",
        why: "10k StockTicker subs, serial publishes (~330 deliveries each): network publish and large-frame wire encode do the work; covering and storage do none. One op = one publish.",
        kind: Kind::Publish,
        population: Population::StockTicker,
        standing: 10_000,
        durable: false,
        traced_daemon_ops: 8_000,
        segment: 32,
        samples_per_second: 8_000,
    },
    Workload {
        name: "batch_publish",
        why: "Same 10k subs, pipelined 128-event bursts: the batched mask kernels, daemon coalescing and one flush per burst, so a gain for serial publish that costs the batched path shows. One op = one event.",
        kind: Kind::PublishBatch,
        population: Population::StockTicker,
        standing: 10_000,
        durable: false,
        traced_daemon_ops: 32_000,
        segment: 1,
        samples_per_second: 200,
    },
    Workload {
        name: "subscription_churn",
        why: "10k subs, no data dir, subscribe-fresh/unsubscribe-oldest: network subscribe/unsubscribe and covering queries dominate; storage is bypassed. One op = one subscribe+unsubscribe pair.",
        kind: Kind::Churn,
        population: Population::StockTicker,
        standing: 10_000,
        durable: false,
        traced_daemon_ops: 16_000,
        segment: 64,
        samples_per_second: 12_000,
    },
    Workload {
        name: "durable_churn",
        why: "Identical stream to subscription_churn with a data dir: the journal fdatasync dominates, so the delta to subscription_churn is the storage layer's end-to-end cost. One op = one pair.",
        kind: Kind::Churn,
        population: Population::StockTicker,
        standing: 10_000,
        durable: true,
        traced_daemon_ops: 8_000,
        segment: 16,
        samples_per_second: 4_000,
    },
    Workload {
        name: "pingpong",
        why: "256 narrow subs, serial publishes with ~0 deliveries: what remains is service + wire + client + socket, so any per-frame overhead shows here and nowhere else. One op = one publish.",
        kind: Kind::Publish,
        population: Population::Narrow,
        standing: 256,
        durable: false,
        traced_daemon_ops: 60_000,
        segment: 1024,
        samples_per_second: 250_000,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end: the share of the parent's median by which the metric may
    /// worsen. Per-layer metrics carry no bound (`0.0`).
    pub bound: f64,
    /// Whether two same-seed runs must produce the bit-identical value.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn timed(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

/// What a user of the daemon sees; every workload reports every one from
/// the untraced run. "op" is the workload's unit of work (see [`Kind`]), and
/// a time in `ref` is that time divided by the time of the reference op
/// measured next to it (see `reference`): wall-clock numbers of the shared
/// sandbox move 1.5-2x between identical runs, these ratios a few percent.
/// The same quantities in seconds are in the `client` layer.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("op_mean_ref", "ref", "lower", 0.25),
    e2e("cpu_per_op_ref", "ref", "lower", 0.25),
    e2e("op_p50_ref", "ref", "lower", 0.25),
    e2e("op_p90_ref", "ref", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// Single-layer metrics from the traced run. A latency of an operation the
/// workload's stream never issues reads 0.
pub const PER_LAYER: &[Metric] = &[
    // client: the daemon seen from the socket, per request kind.
    timed("client.publish_p50_us", "us", "lower"),
    timed("client.publish_p99_us", "us", "lower"),
    timed("client.publish_p999_us", "us", "lower"),
    timed("client.publish_batch_p50_us", "us", "lower"),
    timed("client.subscribe_p50_us", "us", "lower"),
    timed("client.subscribe_p99_us", "us", "lower"),
    timed("client.subscribe_p999_us", "us", "lower"),
    timed("client.unsubscribe_p50_us", "us", "lower"),
    timed("client.unsubscribe_p99_us", "us", "lower"),
    timed("client.unsubscribe_p999_us", "us", "lower"),
    timed("client.ops_per_s", "1/s", "higher"),
    timed("client.cpu_us_per_op", "us", "lower"),
    timed("client.ref_p50_us", "us", "lower"),
    timed("client.op_p99_ref", "ref", "lower"),
    timed("client.round_spread_ratio", "ratio", "lower"),
    exact("client.deliveries_per_event", "count", "lower"),
    exact("client.request_bytes_per_op", "B", "lower"),
    exact("client.response_bytes_per_op", "B", "lower"),
    exact("client.oracle_checked", "count", "higher"),
    exact("client.oracle_boundary", "count", "lower"),
    exact("client.oracle_mismatches", "count", "lower"),
    exact("client.failed_ops_ratio", "ratio", "lower"),
    // service: what cannot be seen from outside the daemon.
    timed("service.overhead_publish_p50_us", "us", "lower"),
    timed("service.overhead_subscribe_p50_us", "us", "lower"),
    timed("service.shutdown_s", "s", "lower"),
    timed("service.recovery_s", "s", "lower"),
    timed("service.recovered_subs_per_s", "1/s", "higher"),
    exact("service.rejected_total", "count", "lower"),
    exact("service.corrupt_frames_total", "count", "lower"),
    // wire: encode_frame / read_frame on a slice.
    timed("wire.encode_request_p50_us", "us", "lower"),
    timed("wire.decode_request_p50_us", "us", "lower"),
    timed("wire.encode_response_p50_us", "us", "lower"),
    timed("wire.decode_response_p50_us", "us", "lower"),
    exact("wire.response_bytes_mean", "B", "lower"),
    timed("wire.crc32_mb_per_s", "MB/s", "higher"),
    // network: BrokerNetwork in-process plus NetworkMetrics deltas.
    timed("network.publish_p50_us", "us", "lower"),
    timed("network.publish_p99_us", "us", "lower"),
    timed("network.publish_batch_us_per_event", "us", "lower"),
    timed("network.subscribe_p50_us", "us", "lower"),
    timed("network.subscribe_p99_us", "us", "lower"),
    timed("network.unsubscribe_p50_us", "us", "lower"),
    timed("network.unsubscribe_p99_us", "us", "lower"),
    exact("network.event_messages_per_event", "count", "lower"),
    exact(
        "network.subscription_messages_per_subscribe",
        "count",
        "lower",
    ),
    exact("network.suppression_ratio", "ratio", "higher"),
    exact("network.covering_queries_per_op", "count", "lower"),
    exact("network.covering_runs_probed_per_op", "count", "lower"),
    exact("network.routing_table_entries", "count", "lower"),
    // covering: a shadow SfcCoveringIndex behind the CoveringIndex trait.
    timed("covering.find_covering_p50_us", "us", "lower"),
    timed("covering.find_covering_p99_us", "us", "lower"),
    timed("covering.find_covering_batch_us_per_query", "us", "lower"),
    timed("covering.insert_p50_us", "us", "lower"),
    timed("covering.remove_p50_us", "us", "lower"),
    exact("covering.probes_per_query", "count", "lower"),
    exact("covering.runs_probed_per_query", "count", "lower"),
    exact("covering.covered_ratio", "ratio", "higher"),
    timed("covering.build_from_subs_per_s", "1/s", "higher"),
    timed("covering.approx_find_covering_p50_us", "us", "lower"),
    exact("covering.approx_detection_ratio", "ratio", "higher"),
    timed("covering.share_of_network_est", "ratio", "lower"),
    // sfc: reached only through covering.
    timed("sfc.key_of_point_p50_ns", "ns", "lower"),
    timed("sfc.bigmin_seek_p50_ns", "ns", "lower"),
    timed("sfc.array_seek_p50_ns", "ns", "lower"),
    // subscription: small everywhere; recorded so a regression is attributable.
    timed("subscription.build_p50_us", "us", "lower"),
    timed("subscription.event_new_p50_us", "us", "lower"),
    timed("subscription.matches_ns", "ns", "lower"),
    timed("subscription.dominance_point_ns", "ns", "lower"),
    // storage: the journal and the segment files, on the sandbox's disk.
    timed("storage.journal_append_p50_us", "us", "lower"),
    timed("storage.journal_append_p99_us", "us", "lower"),
    timed("storage.fdatasync_probe_p50_us", "us", "lower"),
    exact("storage.journal_bytes_per_op", "B", "lower"),
    timed("storage.journal_replay_records_per_s", "1/s", "higher"),
    timed("storage.snapshot_write_ms", "ms", "lower"),
    timed("storage.save_segments_ms", "ms", "lower"),
    timed("storage.open_segments_ms", "ms", "lower"),
    exact("storage.segment_bytes_per_sub", "B", "lower"),
    timed("storage.crc32_mb_per_s", "MB/s", "higher"),
    // the benchmark's own cost.
    timed("workload.generate_s", "s", "lower"),
    exact("trace.spans", "count", "lower"),
    timed("trace.overhead_ratio", "ratio", "lower"),
];

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn strings(items: &[&str]) -> Value {
    Value::Seq(items.iter().map(|s| text(s)).collect())
}

/// `BENCHMARK.json` as the table declares it, with exactly the contract's
/// keys.
pub fn benchmark_json() -> Value {
    let metric = |m: &Metric, bounded: bool| {
        let mut entries = vec![
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better)),
        ];
        if bounded {
            entries.push(("bound", Value::F64(m.bound)));
        }
        map(entries)
    };
    map(vec![
        ("command", strings(COMMAND)),
        ("paths", strings(PATHS)),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| map(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Value::Seq(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}
