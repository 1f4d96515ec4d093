//! `acd-brokerload` — replay churn workloads against a running
//! `acd-brokerd` over N real TCP connections.
//!
//! ```text
//! acd-brokerload --addr HOST:PORT [--connections N] [--ops N]
//!                [--brokers N] [--attributes N] [--bits B] [--seed S]
//! ```
//!
//! Each connection runs its own thread with an independent
//! [`ChurnWorkload`] stream (seed offset by the connection index) and
//! replays it through a [`BrokerClient`]: subscribes land at a broker
//! derived from the subscription id, unsubscribes retract at the same
//! broker, publishes fan out from rotating brokers. Subscription ids are
//! remapped (`id * connections + index`) so concurrent streams never
//! collide. `--brokers`, `--attributes` and `--bits` must match the
//! daemon's; a mismatch shows up as rejected requests, not corruption.

use std::time::Instant;

use acd_broker::{BrokerClient, BrokerId, ServiceError};
use acd_workload::{ChurnConfig, ChurnOp, ChurnWorkload, WorkloadConfig};

struct Args {
    addr: String,
    connections: usize,
    ops: usize,
    brokers: usize,
    attributes: usize,
    bits: u32,
    seed: u64,
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
        addr: String::new(),
        connections: 4,
        ops: 1000,
        brokers: 8,
        attributes: 2,
        bits: 10,
        seed: 42,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--connections" => args.connections = parsed(&flag, value(&flag)?)?,
            "--ops" => args.ops = parsed(&flag, value(&flag)?)?,
            "--brokers" => args.brokers = parsed(&flag, value(&flag)?)?,
            "--attributes" => args.attributes = parsed(&flag, value(&flag)?)?,
            "--bits" => args.bits = parsed(&flag, value(&flag)?)?,
            "--seed" => args.seed = parsed(&flag, value(&flag)?)?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr HOST:PORT is required".into());
    }
    if args.connections == 0 {
        return Err("--connections must be at least 1".into());
    }
    Ok(args)
}

#[derive(Debug, Default)]
struct ConnStats {
    subscribes: u64,
    unsubscribes: u64,
    publishes: u64,
    deliveries: u64,
    rejected: u64,
}

/// Replays one churn stream over one connection.
fn drive_connection(args: &Args, index: usize) -> Result<ConnStats, ServiceError> {
    let workload = WorkloadConfig::builder()
        .attributes(args.attributes)
        .bits_per_attribute(args.bits)
        .seed(args.seed.wrapping_add(index as u64))
        .build()
        .map_err(|e| ServiceError::Io(e.to_string()))?;
    let mut churn = ChurnWorkload::new(&ChurnConfig::balanced(workload))
        .map_err(|e| ServiceError::Io(e.to_string()))?;
    let mut client = BrokerClient::connect(args.addr.as_str())?;
    let connections = args.connections as u64;
    let remap = |id: u64| id * connections + index as u64;
    let home = |id: u64| (id % args.brokers as u64) as BrokerId;
    let mut stats = ConnStats::default();
    for step in 0..args.ops {
        match churn.next_op() {
            ChurnOp::Subscribe(sub) => {
                let sub = sub.with_id(remap(sub.id()));
                match client.subscribe(home(sub.id()), index as u64, &sub) {
                    Ok(()) => stats.subscribes += 1,
                    Err(ServiceError::Rejected { .. }) => stats.rejected += 1,
                    Err(e) => return Err(e),
                }
            }
            ChurnOp::Unsubscribe(id) => {
                let id = remap(id);
                match client.unsubscribe(home(id), id) {
                    Ok(()) => stats.unsubscribes += 1,
                    Err(ServiceError::Rejected { .. }) => stats.rejected += 1,
                    Err(e) => return Err(e),
                }
            }
            ChurnOp::Publish(event) => {
                let at = step % args.brokers;
                match client.publish(at, &event) {
                    Ok(pairs) => {
                        stats.publishes += 1;
                        stats.deliveries += pairs.len() as u64;
                    }
                    Err(ServiceError::Rejected { .. }) => stats.rejected += 1,
                    Err(e) => return Err(e),
                }
            }
        }
    }
    Ok(stats)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let started = Instant::now();
    let results: Vec<Result<ConnStats, ServiceError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.connections)
            .map(|index| {
                let args = &args;
                scope.spawn(move || drive_connection(args, index))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(ServiceError::Io("connection thread panicked".into())))
            })
            .collect()
    });
    let elapsed = started.elapsed();

    let mut total = ConnStats::default();
    let mut failures = 0usize;
    for (index, result) in results.into_iter().enumerate() {
        match result {
            Ok(stats) => {
                eprintln!(
                    "connection {index}: {} subs, {} unsubs, {} publishes, \
                     {} deliveries, {} rejected",
                    stats.subscribes,
                    stats.unsubscribes,
                    stats.publishes,
                    stats.deliveries,
                    stats.rejected
                );
                total.subscribes += stats.subscribes;
                total.unsubscribes += stats.unsubscribes;
                total.publishes += stats.publishes;
                total.deliveries += stats.deliveries;
                total.rejected += stats.rejected;
            }
            Err(e) => {
                failures += 1;
                eprintln!("connection {index}: failed: {e}");
            }
        }
    }
    let ops = total.subscribes + total.unsubscribes + total.publishes;
    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "{} connections, {ops} ops in {:.3}s ({:.0} ops/s), \
         {} publishes ({:.0} events/s), {} deliveries, {} rejected",
        args.connections,
        secs,
        ops as f64 / secs,
        total.publishes,
        total.publishes as f64 / secs,
        total.deliveries,
        total.rejected
    );
    if failures > 0 {
        return Err(format!("{failures} connection(s) failed"));
    }
    Ok(())
}

fn main() {
    if let Err(message) = run() {
        eprintln!("acd-brokerload: {message}");
        std::process::exit(2);
    }
}
