//! The closed-loop driver: one `BrokerClient` connection against one
//! in-process `BrokerDaemon` worker over loopback TCP. The client sends its
//! next request only after the previous answer arrived, so at most two
//! threads are ever busy.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acd_broker::wire::{encode_frame, Frame};
use acd_broker::{
    BrokerClient, BrokerConfig, BrokerDaemon, BrokerId, BrokerNetwork, ClientId, CoveringPolicy,
    DaemonOptions, ServiceError, Topology,
};
use acd_covering::storage::{write_snapshot, SubscriptionJournal};
use acd_subscription::Subscription;

use crate::decl::{Kind, Workload, BURST};
use crate::inputs::{home, journal_record, Inputs, PROBES};
use crate::oracle::{self, Verdict};
use crate::reference::Reference;
use crate::stats::cpu_seconds;

/// The daemon's journal inside its data directory (the repository's README
/// names it).
const JOURNAL_FILE: &str = "journal.acd";

/// The snapshot a gracefully stopped daemon leaves there and a starting one
/// reads first. `service.rs` keeps the name private; should it change, a
/// recovered daemon starts empty and every oracle check of the run fails.
const SNAPSHOT_FILE: &str = "snapshot.acd";

/// Every how many publishes the answer is checked against the oracle.
const CHECK_EVERY: usize = 16;

/// Segment passes a phase can hold (a pass is at least a millisecond long).
const PASS_CAP: usize = 1 << 16;

/// An empty buffer for `cap` latency samples whose pages are already
/// resident: the timed loop never allocates, and the peak RSS does not depend
/// on how many samples a run got round to taking.
fn touched(cap: usize) -> Vec<u32> {
    let mut buffer = vec![1u32; cap];
    buffer.clear();
    buffer
}

/// Keeps `sample` while the buffer has room. A machine much faster than the
/// declared `samples_per_second` fills it before the time is up; the loop
/// then goes on, and the latency percentiles stand on the samples so far.
fn record(buffer: &mut Vec<u32>, sample: u32) {
    if buffer.len() < buffer.capacity() {
        buffer.push(sample);
    }
}

/// The overlay every workload runs on: a 7-broker balanced tree with the
/// daemon's default covering policy.
pub fn network(inputs: &Inputs) -> BrokerNetwork {
    let topology = Topology::balanced_tree(2, 2).expect("a 2x2 tree is a valid topology");
    BrokerConfig::new(topology, &inputs.schema)
        .policy(CoveringPolicy::ExactSfc)
        .build()
        .expect("the exact SFC policy builds over a generated schema")
}

/// A running daemon and the one client connected to it.
#[derive(Debug)]
pub struct Served {
    /// The in-process daemon (one worker).
    pub daemon: BrokerDaemon,
    /// Its only client.
    pub client: BrokerClient,
}

impl Served {
    /// Starts a daemon over a fresh network (recovering from `data_dir` when
    /// given) and connects the client.
    pub fn start(inputs: &Inputs, data_dir: Option<PathBuf>) -> Result<Served, ServiceError> {
        let options = DaemonOptions {
            workers: 1,
            data_dir,
            ..DaemonOptions::default()
        };
        let daemon = BrokerDaemon::start_with(Arc::new(network(inputs)), "127.0.0.1:0", options)?;
        let client = BrokerClient::connect(daemon.local_addr())?;
        Ok(Served { daemon, client })
    }

    /// Starts a daemon on a data directory that already holds everything
    /// [`Inputs::installed`] names, as the snapshot a gracefully stopped
    /// daemon leaves behind, so the daemon installs it by recovery. This is
    /// how a journalling daemon comes by its standing set — and ten thousand
    /// journalled subscribes through the socket would be ten thousand
    /// `fdatasync`s, three seconds of nothing but the sandbox's disk.
    pub fn start_recovered(inputs: &Inputs, data_dir: PathBuf) -> Result<Served, ServiceError> {
        std::fs::create_dir_all(&data_dir)?;
        let records: Vec<_> = inputs.installed().map(journal_record).collect();
        write_snapshot(&data_dir.join(SNAPSHOT_FILE), &records)
            .map_err(|e| ServiceError::Io(e.to_string()))?;
        Served::start(inputs, Some(data_dir))
    }

    /// Subscribes everything [`Inputs::installed`] names through the socket.
    pub fn install(&mut self, inputs: &Inputs) -> Result<(), ServiceError> {
        for subscription in inputs.installed() {
            let (at, client) = home(subscription.id());
            self.client.subscribe(at, client, subscription)?;
        }
        Ok(())
    }
}

/// How long a phase runs: for a wall-clock time (the untraced run) or for a
/// fixed number of latency samples (the traced run, whose counters must
/// repeat exactly). Either way it runs whole segments.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Measure for this many seconds.
    Seconds(f64),
    /// Take exactly this many primary samples.
    Samples(usize),
}

/// One pass over one segment of the stream's cycle.
///
/// The stream is cyclic — the same events, bursts or churn steps come round
/// again every [`Driver::cycle`] samples — and is cut into segments of
/// [`Driver::segment`] samples, so segment `index` does exactly the same
/// work on every pass, and each pass is followed by one measurement of the
/// reference op (see `steady` in main.rs).
#[derive(Debug, Clone)]
pub struct Pass {
    /// Which segment of the cycle this was.
    pub index: usize,
    /// Its primary samples, as a range into [`Phase::primary`].
    pub samples: std::ops::Range<usize>,
    /// Its wall-clock length.
    pub seconds: f64,
    /// Process CPU seconds (all threads) it consumed.
    pub cpu_s: f64,
    /// Seconds one reference op took right after it (see `reference`).
    pub ref_s: f64,
}

/// What one closed-loop phase measured. Latencies are nanoseconds.
#[derive(Debug, Default)]
pub struct Phase {
    /// The segment passes, in order.
    pub passes: Vec<Pass>,
    /// Stream position of the first primary sample.
    pub first_position: usize,
    /// One sample per publish, per burst, or per churn pair.
    pub primary: Vec<u32>,
    /// Subscribe round trips (churn only).
    pub subscribe: Vec<u32>,
    /// Unsubscribe round trips (churn only).
    pub unsubscribe: Vec<u32>,
}

/// Counters over everything a driver sent, warm-up and probes included.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// Answers compared with the oracle.
    pub checked: u64,
    /// Of those, how many lacked only boundary matches (see `oracle`).
    pub boundary: u64,
    /// Of those, how many were wrong.
    pub mismatches: u64,
    /// Events published.
    pub events: u64,
    /// Deliveries those events caused.
    pub deliveries: u64,
    /// Request frame bytes sent.
    pub request_bytes: u64,
    /// Response frame bytes received.
    pub response_bytes: u64,
}

/// Frame sizes by kind, measured once with `encode_frame` so the loops can
/// count wire bytes without encoding twice.
#[derive(Debug, Clone, Copy)]
struct FrameSizes {
    publish: u64,
    deliveries_base: u64,
    deliveries_pair: u64,
    subscribe: u64,
    unsubscribe: u64,
    ok: u64,
}

impl FrameSizes {
    fn measure(inputs: &Inputs) -> FrameSizes {
        let mut out = Vec::new();
        let mut len = |frame: &Frame| {
            encode_frame(frame, &mut out);
            out.len() as u64
        };
        let sample = &inputs.standing[0];
        let deliveries_base = len(&Frame::Deliveries { pairs: Vec::new() });
        FrameSizes {
            publish: len(&Frame::Publish {
                at: 0,
                values: inputs.events[0].values().to_vec(),
            }),
            deliveries_base,
            deliveries_pair: len(&Frame::Deliveries {
                pairs: vec![(0, 0)],
            }) - deliveries_base,
            subscribe: len(&Frame::subscribe(0, 0, sample)),
            unsubscribe: len(&Frame::Unsubscribe { at: 0, id: 0 }),
            ok: len(&Frame::Ok),
        }
    }
}

/// Drives one workload's op stream through a [`Served`] daemon.
#[derive(Debug)]
pub struct Driver<'a> {
    workload: &'a Workload,
    inputs: &'a Inputs,
    /// Oracle digest per pool event over the standing set (publish
    /// workloads, whose live set never changes).
    expected: Vec<u64>,
    sizes: FrameSizes,
    /// Position in the op stream: publishes, bursts or churn steps done.
    pub position: usize,
    /// Samples after which the stream repeats itself.
    pub cycle: usize,
    /// Samples per segment; divides `cycle`.
    pub segment: usize,
    /// Totals so far.
    pub tally: Tally,
    /// Serial publish round trips taken by [`probe`](Self::probe).
    pub probe_publish: Vec<u32>,
}

impl<'a> Driver<'a> {
    /// Prepares the stream (and, for publish workloads, the oracle's answer
    /// to every pool event — outside any timed window).
    pub fn new(workload: &'a Workload, inputs: &'a Inputs) -> Driver<'a> {
        let expected = match workload.kind {
            Kind::Churn => Vec::new(),
            Kind::Publish | Kind::PublishBatch => inputs
                .events
                .iter()
                .map(|event| oracle::digest(&oracle::deliveries(&inputs.standing, event)))
                .collect(),
        };
        let cycle = match workload.kind {
            Kind::Publish => inputs.events.len(),
            Kind::PublishBatch => inputs.events.len() / BURST,
            Kind::Churn => inputs.fresh.len(),
        };
        // The declared segment length, cut down to a divisor of the cycle
        // (a `--quick` pool can be shorter than one declared segment).
        let segment = (1..=workload.segment.min(cycle))
            .rev()
            .find(|n| cycle % n == 0)
            .unwrap_or(1);
        Driver {
            workload,
            inputs,
            expected,
            sizes: FrameSizes::measure(inputs),
            position: 0,
            cycle,
            segment,
            tally: Tally::default(),
            probe_publish: Vec::with_capacity(PROBES),
        }
    }

    /// Primary samples that `requests` requests of this workload amount to.
    pub fn samples_for(&self, requests: usize) -> usize {
        match self.workload.kind {
            Kind::Publish => requests,
            Kind::PublishBatch => requests / BURST,
            Kind::Churn => requests / 2,
        }
        .max(1)
    }

    /// Ops (the workload's unit of work) one primary sample stands for.
    pub fn ops_per_sample(&self) -> usize {
        match self.workload.kind {
            Kind::PublishBatch => BURST,
            Kind::Publish | Kind::Churn => 1,
        }
    }

    /// Runs the stream for `budget`, one whole segment after another, each
    /// followed by one measurement of `reference`.
    ///
    /// # Errors
    ///
    /// Stops at the first request the daemon fails or refuses: the workloads
    /// are chosen so that none does, and a broken connection would otherwise
    /// spin through the remaining budget.
    pub fn phase(
        &mut self,
        client: &mut BrokerClient,
        reference: &mut Reference,
        budget: Budget,
    ) -> Result<Phase, ServiceError> {
        let (end, wanted) = match budget {
            Budget::Seconds(s) => {
                let wanted = (s * self.workload.samples_per_second as f64) as usize;
                (Some(Instant::now() + Duration::from_secs_f64(s)), wanted)
            }
            Budget::Samples(n) => (None, n),
        };
        let side = match self.workload.kind {
            Kind::Churn => wanted,
            Kind::Publish | Kind::PublishBatch => 0,
        };
        let mut phase = Phase {
            passes: Vec::with_capacity(PASS_CAP),
            first_position: self.position,
            // A phase of a fixed sample count ends with a whole segment.
            primary: touched(wanted + self.segment),
            subscribe: touched(side + self.segment),
            unsubscribe: touched(side + self.segment),
        };
        loop {
            let first = phase.primary.len();
            let index = (self.position / self.segment) % (self.cycle / self.segment);
            let cpu_before = cpu_seconds();
            let started = Instant::now();
            for _ in 0..self.segment {
                self.step(client, &mut phase)?;
            }
            let ended = Instant::now();
            let cpu_s = cpu_seconds() - cpu_before;
            let ref_s = reference.measure()?;
            phase.passes.push(Pass {
                index,
                samples: first..phase.primary.len(),
                seconds: (ended - started).as_secs_f64(),
                cpu_s,
                ref_s,
            });
            let done = match end {
                Some(end) => ended >= end,
                None => phase.primary.len() >= wanted,
            };
            if done || phase.passes.len() == PASS_CAP {
                return Ok(phase);
            }
        }
    }

    /// Sends the next op of the stream and records its latency.
    fn step(&mut self, client: &mut BrokerClient, phase: &mut Phase) -> Result<(), ServiceError> {
        let inputs = self.inputs;
        let i = self.position;
        self.position += 1;
        match self.workload.kind {
            Kind::Publish => {
                let (at, event) = inputs.publish(i);
                self.tally.attempted += 1;
                let sent = Instant::now();
                let answer = client.publish(at, event);
                record(&mut phase.primary, nanos(sent));
                let pairs = self.count_failure(answer)?;
                self.tally_publish(i % inputs.events.len(), i, &pairs);
            }
            Kind::PublishBatch => {
                let (at, events) = inputs.burst(i, BURST);
                self.tally.attempted += BURST as u64;
                let sent = Instant::now();
                let answer = client.publish_batch(at, events);
                record(&mut phase.primary, nanos(sent));
                let lists = match answer {
                    Ok(lists) => lists,
                    Err(e) => {
                        self.tally.failed += (BURST - e.acked.len()) as u64;
                        return Err(e.error);
                    }
                };
                let offset = (i % (inputs.events.len() / BURST)) * BURST;
                for (k, pairs) in lists.iter().enumerate() {
                    self.tally_publish(offset + k, k, pairs);
                }
            }
            Kind::Churn => {
                let (arrives, leaves) = inputs.churn(i);
                let (at, owner) = home(arrives.id());
                let (leaves_at, _) = home(leaves.id());
                self.tally.attempted += 2;
                self.tally.request_bytes += self.sizes.subscribe + self.sizes.unsubscribe;
                self.tally.response_bytes += 2 * self.sizes.ok;
                let sent = Instant::now();
                let answer = client.subscribe(at, owner, arrives);
                let subscribed = Instant::now();
                self.count_failure(answer)?;
                let retract = Instant::now();
                let answer = client.unsubscribe(leaves_at, leaves.id());
                let done = Instant::now();
                self.count_failure(answer)?;
                let (sub, unsub) = (span(sent, subscribed), span(retract, done));
                record(&mut phase.subscribe, sub);
                record(&mut phase.unsubscribe, unsub);
                record(&mut phase.primary, sub.saturating_add(unsub));
            }
        }
        Ok(())
    }

    fn count_failure<T>(&mut self, answer: Result<T, ServiceError>) -> Result<T, ServiceError> {
        if answer.is_err() {
            self.tally.failed += 1;
        }
        answer
    }

    /// Counts one publish answer; every [`CHECK_EVERY`]th (by `nth`) is
    /// compared with the oracle's digest for pool event `event`.
    fn tally_publish(&mut self, event: usize, nth: usize, pairs: &[(BrokerId, ClientId)]) {
        self.count_publish(pairs);
        if nth.is_multiple_of(CHECK_EVERY) {
            let verdict = if oracle::digest(pairs) == self.expected[event] {
                Verdict::Exact
            } else {
                oracle::verdict(&self.inputs.standing, &self.inputs.events[event], pairs)
            };
            self.count_check(verdict);
        }
    }

    fn count_publish(&mut self, pairs: &[(BrokerId, ClientId)]) {
        let tally = &mut self.tally;
        tally.events += 1;
        tally.deliveries += pairs.len() as u64;
        tally.request_bytes += self.sizes.publish;
        tally.response_bytes +=
            self.sizes.deliveries_base + self.sizes.deliveries_pair * pairs.len() as u64;
    }

    fn count_check(&mut self, verdict: Verdict) {
        self.tally.checked += 1;
        match verdict {
            Verdict::Exact => {}
            Verdict::Boundary => self.tally.boundary += 1,
            Verdict::Wrong => {
                self.tally.mismatches += 1;
                self.tally.failed += 1;
            }
        }
    }

    /// The live set the daemon must hold now.
    pub fn live(&self) -> Vec<&'a Subscription> {
        match self.workload.kind {
            Kind::Churn => self.inputs.live_after(self.position),
            Kind::Publish | Kind::PublishBatch => self.inputs.standing.iter().collect(),
        }
    }

    /// [`PROBES`] serial publishes, each answer compared with a linear scan
    /// over the live set.
    ///
    /// # Errors
    ///
    /// Stops at the first request the daemon fails.
    pub fn probe(&mut self, client: &mut BrokerClient) -> Result<(), ServiceError> {
        let live = self.live();
        for (i, event) in self.inputs.events.iter().take(PROBES).enumerate() {
            self.tally.attempted += 1;
            let sent = Instant::now();
            let answer = client.publish(i % crate::inputs::BROKERS, event);
            self.probe_publish.push(nanos(sent));
            let pairs = self.count_failure(answer)?;
            self.count_publish(&pairs);
            self.count_check(oracle::verdict(live.iter().copied(), event, &pairs));
        }
        Ok(())
    }
}

fn nanos(since: Instant) -> u32 {
    span(since, Instant::now())
}

fn span(from: Instant, to: Instant) -> u32 {
    u32::try_from((to - from).as_nanos()).unwrap_or(u32::MAX)
}

/// What restarting from a crash image cost.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// Median seconds from the crash image to the first oracle-exact
    /// publish answer.
    pub recovery_s: f64,
    /// Records per second `SubscriptionJournal::open` replayed.
    pub journal_replay_records_per_s: f64,
    /// Whether every restarted daemon answered the probe exactly.
    pub exact: bool,
}

/// Restarts to take the median of.
const RECOVERIES: usize = 5;

/// Copies the running daemon's quiescent data directory — a kill -9 image:
/// every acknowledged op is already synced — and times fresh daemons
/// recovering from copies of it.
///
/// # Errors
///
/// Returns an error if a copy cannot be made or a daemon does not start.
pub fn recover(
    inputs: &Inputs,
    live: &[&Subscription],
    data_dir: &Path,
    scratch: &Path,
) -> Result<Recovery, ServiceError> {
    let image = |name: String| -> Result<PathBuf, ServiceError> {
        let copy = scratch.join(name);
        std::fs::create_dir_all(&copy)?;
        for entry in std::fs::read_dir(data_dir)? {
            let entry = entry?;
            std::fs::copy(entry.path(), copy.join(entry.file_name()))?;
        }
        Ok(copy)
    };
    let event = &inputs.events[0];
    let mut seconds = Vec::with_capacity(RECOVERIES);
    let mut exact = true;
    for k in 0..RECOVERIES {
        let copy = image(format!("recover-{k}"))?;
        let started = Instant::now();
        let mut served = Served::start(inputs, Some(copy))?;
        let answer = served.client.publish(0, event)?;
        seconds.push(started.elapsed().as_secs_f64());
        exact &= oracle::verdict(live.iter().copied(), event, &answer) != Verdict::Wrong;
        served.daemon.shutdown();
    }
    let replay = image("replay".into())?.join(JOURNAL_FILE);
    let started = Instant::now();
    let (_journal, records) =
        SubscriptionJournal::open(&replay).map_err(|e| ServiceError::Io(e.to_string()))?;
    let journal_replay_records_per_s = records.len() as f64 / started.elapsed().as_secs_f64();
    Ok(Recovery {
        recovery_s: crate::stats::median(&mut seconds),
        journal_replay_records_per_s,
        exact,
    })
}
