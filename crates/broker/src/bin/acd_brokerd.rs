//! `acd-brokerd` — serve a covering-aware broker overlay over TCP.
//!
//! ```text
//! acd-brokerd [--addr 127.0.0.1:0] [--topology star|line|tree|random]
//!             [--brokers N] [--policy none|exact-linear|exact-sfc|
//!              approx:EPSILON]
//!             [--workers N] [--attributes N] [--bits B] [--seed S]
//!             [--max-connections N] [--max-inflight N]
//!             [--idle-timeout-ms MS] [--chaos SPEC] [--data-dir PATH]
//! ```
//!
//! `--chaos` injects deterministic transport faults into every accepted
//! connection (see `acd_broker::FaultPlan::parse` for the spec grammar,
//! e.g. `seed=7,corrupt=0.01,disconnect=0.005`) — the fault-injection
//! harness the chaos test suite drives. `--max-connections` /
//! `--max-inflight` bound admission (excess work is answered with typed
//! `Rejected` frames instead of stalling), and `--idle-timeout-ms` reaps
//! connections that stay silent. `--data-dir` makes the subscription set
//! durable: every acknowledged subscribe/unsubscribe is journaled before
//! its ack, a snapshot is written on graceful shutdown, and start-up
//! replays `snapshot ∘ journal` — so a restarted daemon (even after a
//! kill -9) serves the same registrations.
//!
//! The schema is the synthetic-workload one (`attr0..attrN-1`, domain
//! `[0, 1e6]`, `--bits` per attribute), so `acd_workload`'s generated
//! subscriptions and events fit it as they are.
//! On startup the daemon prints exactly one line, `listening on ADDR`, to
//! stdout — scripts (and the e2e integration test) parse it to learn the
//! ephemeral port.

use std::io::Write;
use std::sync::Arc;

use acd_broker::{BrokerConfig, BrokerDaemon, CoveringPolicy, DaemonOptions, FaultPlan, Topology};
use acd_workload::subscriptions::build_schema;
use acd_workload::WorkloadConfig;

struct Args {
    addr: String,
    topology: String,
    brokers: usize,
    policy: CoveringPolicy,
    workers: usize,
    attributes: usize,
    bits: u32,
    seed: u64,
    max_connections: usize,
    max_inflight: usize,
    idle_timeout_ms: u64,
    chaos: Option<FaultPlan>,
    data_dir: Option<std::path::PathBuf>,
}

fn parse_policy(s: &str) -> Result<CoveringPolicy, String> {
    if let Some(eps) = s.strip_prefix("approx:") {
        let epsilon: f64 = eps.parse().map_err(|_| format!("bad epsilon in {s:?}"))?;
        return Ok(CoveringPolicy::Approximate { epsilon });
    }
    match s {
        "none" => Ok(CoveringPolicy::None),
        "exact-linear" => Ok(CoveringPolicy::ExactLinear),
        "exact-sfc" => Ok(CoveringPolicy::ExactSfc),
        other => Err(format!(
            "unknown policy {other:?} (none, exact-linear, exact-sfc, approx:EPSILON)"
        )),
    }
}

/// `value`, the value of `flag`, parsed as a `T`.
fn parsed<T: std::str::FromStr<Err: std::fmt::Display>>(
    flag: &str,
    value: String,
) -> Result<T, String> {
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".into(),
        topology: "line".into(),
        brokers: 8,
        policy: CoveringPolicy::ExactSfc,
        workers: 4,
        attributes: 2,
        bits: 10,
        seed: 42,
        max_connections: 0,
        max_inflight: 0,
        idle_timeout_ms: 0,
        chaos: None,
        data_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--topology" => args.topology = value("--topology")?,
            "--brokers" => args.brokers = parsed(&flag, value(&flag)?)?,
            "--policy" => args.policy = parse_policy(&value("--policy")?)?,
            "--workers" => args.workers = parsed(&flag, value(&flag)?)?,
            "--attributes" => args.attributes = parsed(&flag, value(&flag)?)?,
            "--bits" => args.bits = parsed(&flag, value(&flag)?)?,
            "--seed" => args.seed = parsed(&flag, value(&flag)?)?,
            "--max-connections" => args.max_connections = parsed(&flag, value(&flag)?)?,
            "--max-inflight" => args.max_inflight = parsed(&flag, value(&flag)?)?,
            "--idle-timeout-ms" => args.idle_timeout_ms = parsed(&flag, value(&flag)?)?,
            "--chaos" => args.chaos = Some(FaultPlan::parse(&value("--chaos")?)?),
            "--data-dir" => args.data_dir = Some(std::path::PathBuf::from(value("--data-dir")?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn build_topology(kind: &str, brokers: usize, seed: u64) -> Result<Topology, String> {
    let topology = match kind {
        "star" => Topology::star(brokers),
        "line" => Topology::line(brokers),
        "tree" => {
            // Smallest balanced binary tree with at least the requested
            // broker count.
            let mut depth = 1;
            while (1 << (depth + 1)) - 1 < brokers {
                depth += 1;
            }
            Topology::balanced_tree(2, depth)
        }
        "random" => Topology::random_tree(brokers, seed),
        other => {
            return Err(format!(
                "unknown topology {other:?} (star, line, tree, random)"
            ))
        }
    };
    topology.map_err(|e| e.to_string())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let topology = build_topology(&args.topology, args.brokers, args.seed)?;
    let workload = WorkloadConfig::builder()
        .attributes(args.attributes)
        .bits_per_attribute(args.bits)
        .seed(args.seed)
        .build()
        .map_err(|e| e.to_string())?;
    let schema = build_schema(&workload).map_err(|e| e.to_string())?;
    let network = Arc::new(
        BrokerConfig::new(topology, &schema)
            .policy(args.policy)
            .build()
            .map_err(|e| e.to_string())?,
    );
    eprintln!(
        "acd-brokerd: {} brokers ({}), policy {}, {} connection workers",
        network.topology().brokers(),
        args.topology,
        args.policy.label(),
        args.workers
    );
    if args.chaos.is_some() {
        eprintln!("acd-brokerd: chaos enabled — injecting transport faults");
    }
    if let Some(dir) = &args.data_dir {
        eprintln!("acd-brokerd: durable subscriptions in {}", dir.display());
    }
    let options = DaemonOptions {
        workers: args.workers,
        max_connections: args.max_connections,
        max_inflight: args.max_inflight,
        idle_timeout: (args.idle_timeout_ms > 0)
            .then(|| std::time::Duration::from_millis(args.idle_timeout_ms)),
        chaos: args.chaos,
        data_dir: args.data_dir,
    };
    let daemon = BrokerDaemon::start_with(network, args.addr.as_str(), options)
        .map_err(|e| e.to_string())?;
    // The one machine-readable line scripts depend on.
    println!("listening on {}", daemon.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn main() {
    if let Err(message) = run() {
        eprintln!("acd-brokerd: {message}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_policy_accepts_four_spellings_and_names_them_otherwise() {
        assert_eq!(parse_policy("none"), Ok(CoveringPolicy::None));
        assert_eq!(
            parse_policy("exact-linear"),
            Ok(CoveringPolicy::ExactLinear)
        );
        assert_eq!(parse_policy("exact-sfc"), Ok(CoveringPolicy::ExactSfc));
        assert_eq!(
            parse_policy("approx:0.05"),
            Ok(CoveringPolicy::Approximate { epsilon: 0.05 })
        );
        // A spelling an earlier build accepted is an unknown policy like any
        // other, and the list it is answered with no longer offers it.
        let retired = parse_policy("sharded-sfc:4").unwrap_err();
        assert!(retired.starts_with("unknown policy \"sharded-sfc:4\""));
        assert!(retired.ends_with("(none, exact-linear, exact-sfc, approx:EPSILON)"));
        assert_eq!(
            parse_policy("approx:x").unwrap_err(),
            "bad epsilon in \"approx:x\""
        );
    }
}
