//! The traced run's in-process half: the workload's op stream replayed
//! through each layer's public functions without the socket, one root span
//! per op and one child span per call, plus probes of the layers the stream
//! only reaches indirectly (covering build and batch queries, sfc seeks,
//! segment files, the bare disk).

use std::error::Error;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use acd_broker::wire::{self, encode_frame, read_frame, Frame};
use acd_broker::{BrokerId, BrokerNetwork, NetworkMetrics};
use acd_covering::storage::{self, JournalRecord, SubscriptionJournal};
use acd_covering::{ApproxConfig, CoveringIndex, SfcCoveringIndex};
use acd_sfc::{CurveKind, ExtremalRect, SfcArray, SpaceFillingCurve, ZCurve};
use acd_subscription::transform::{dominance_point, dominance_universe};
use acd_subscription::{Event, Subscription, SubscriptionBuilder};

use crate::daemon::network;
use crate::decl::{Kind, Workload, BURST};
use crate::inputs::{home, journal_record, Inputs};
use crate::trace::{SpanId, Tracer, NONE};

type Outcome<T> = Result<T, Box<dyn Error>>;

/// Calls one span of a nanosecond-scale probe covers, so the two clock reads
/// around it stay far below what they measure.
const CALLS_PER_SPAN: usize = 256;

/// Totals over the shadow index's covering queries.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueryTotals {
    /// Queries answered.
    pub queries: u64,
    /// Ordered-array descents they issued.
    pub probes: u64,
    /// Runs they probed.
    pub runs_probed: u64,
    /// Queries that found a covering subscription.
    pub covered: u64,
}

/// What one replay of the stream measured besides its spans.
#[derive(Debug, Clone, Copy)]
pub struct Replayed {
    /// Requests replayed.
    pub requests: usize,
    /// Wall-clock seconds the ops took (install excluded).
    pub seconds: f64,
    /// Network counters when the ops began.
    pub before: NetworkMetrics,
    /// Network counters when they ended.
    pub after: NetworkMetrics,
    /// Response frames encoded and their total bytes.
    pub responses: (u64, u64),
    /// Journal bytes the ops appended (durable workloads).
    pub journal_bytes: u64,
    /// The shadow index's query costs.
    pub shadow: QueryTotals,
}

/// One in-process copy of what the daemon holds, fed the same stream.
struct Replay<'a> {
    workload: &'a Workload,
    inputs: &'a Inputs,
    net: BrokerNetwork,
    journal: Option<(SubscriptionJournal, PathBuf)>,
    /// Fed the same population and stream, and only ever called through the
    /// `CoveringIndex` trait.
    shadow: Box<dyn CoveringIndex>,
    request: Vec<u8>,
    response: Vec<u8>,
    scratch: Vec<u8>,
    responses: (u64, u64),
    totals: QueryTotals,
}

/// Replays the first `requests` requests of the workload's stream against a
/// fresh network holding the standing set, recording spans into `tracer`.
///
/// # Errors
///
/// Returns the first error any layer reports; the streams are chosen so
/// that none does.
pub fn replay(
    workload: &Workload,
    inputs: &Inputs,
    requests: usize,
    journal_path: Option<&Path>,
    tracer: &mut Tracer,
) -> Outcome<Replayed> {
    let net = network(inputs);
    for subscription in inputs.installed() {
        let (at, client) = home(subscription.id());
        net.subscribe(at, client, subscription)?;
    }
    let journal = match journal_path {
        Some(path) => {
            // A replay appends from an empty journal, like a fresh daemon.
            let _ = std::fs::remove_file(path);
            Some((SubscriptionJournal::open(path)?.0, path.to_owned()))
        }
        None => None,
    };
    let shadow = SfcCoveringIndex::build_from(
        &inputs.schema,
        ApproxConfig::exhaustive(),
        CurveKind::Z,
        inputs.installed(),
    )?;
    let mut replay = Replay {
        workload,
        inputs,
        net,
        journal,
        shadow: Box::new(shadow),
        request: Vec::new(),
        response: Vec::new(),
        scratch: Vec::new(),
        responses: (0, 0),
        totals: QueryTotals::default(),
    };
    let journal_len = |replay: &Replay| -> u64 {
        replay
            .journal
            .as_ref()
            .and_then(|(_, path)| std::fs::metadata(path).ok())
            .map_or(0, |m| m.len())
    };
    let journal_before = journal_len(&replay);
    let before = replay.net.metrics();
    let started = Instant::now();
    let requests = replay.ops(requests, tracer)?;
    let seconds = started.elapsed().as_secs_f64();
    Ok(Replayed {
        requests,
        seconds,
        before,
        after: replay.net.metrics(),
        responses: replay.responses,
        journal_bytes: journal_len(&replay) - journal_before,
        shadow: replay.totals,
    })
}

impl Replay<'_> {
    /// Runs the stream; returns the requests actually replayed.
    fn ops(&mut self, requests: usize, tracer: &mut Tracer) -> Outcome<usize> {
        let inputs = self.inputs;
        match self.workload.kind {
            Kind::Publish => {
                for i in 0..requests {
                    let (at, event) = inputs.publish(i);
                    self.publish(tracer, i as u32, at, event)?;
                }
                Ok(requests)
            }
            Kind::PublishBatch => {
                let bursts = (requests / BURST).max(1);
                for i in 0..bursts {
                    let (at, events) = inputs.burst(i, BURST);
                    self.burst(tracer, i as u32, at, events)?;
                }
                Ok(bursts * BURST)
            }
            Kind::Churn => {
                let steps = (requests / 2).max(1);
                for i in 0..steps {
                    let (arrives, leaves) = inputs.churn(i);
                    self.subscribe(tracer, 2 * i as u32, arrives)?;
                    self.unsubscribe(tracer, 2 * i as u32 + 1, leaves)?;
                }
                Ok(steps * 2)
            }
        }
    }

    /// Encodes `frame` as the client would and decodes it as the daemon
    /// would, one span each.
    fn request(
        &mut self,
        tracer: &mut Tracer,
        root: SpanId,
        op: u32,
        frame: impl FnOnce() -> Frame,
    ) -> Outcome<Frame> {
        // The client builds the frame inside its send path.
        let id = tracer.begin("wire.encode_request", root, op, 1);
        encode_frame(&frame(), &mut self.request);
        tracer.end(id);
        let id = tracer.begin("wire.decode_request", root, op, 1);
        let decoded = read_frame(&mut self.request.as_slice(), &mut self.scratch)?;
        tracer.end(id);
        Ok(decoded)
    }

    /// Encodes `frame` as the daemon would and decodes it as the client
    /// would, one span each.
    fn respond(
        &mut self,
        tracer: &mut Tracer,
        root: SpanId,
        op: u32,
        frame: &Frame,
    ) -> Outcome<()> {
        let id = tracer.begin("wire.encode_response", root, op, 1);
        encode_frame(frame, &mut self.response);
        tracer.end(id);
        self.responses.0 += 1;
        self.responses.1 += self.response.len() as u64;
        let id = tracer.begin("wire.decode_response", root, op, 1);
        black_box(read_frame(
            &mut self.response.as_slice(),
            &mut self.scratch,
        )?);
        tracer.end(id);
        Ok(())
    }

    fn journal(
        &mut self,
        tracer: &mut Tracer,
        root: SpanId,
        op: u32,
        record: JournalRecord,
    ) -> Outcome<()> {
        if let Some((journal, _)) = self.journal.as_mut() {
            let id = tracer.begin("storage.journal_append", root, op, 1);
            journal.append(&record)?;
            tracer.end(id);
        }
        Ok(())
    }

    fn publish(
        &mut self,
        tracer: &mut Tracer,
        op: u32,
        at: BrokerId,
        event: &Event,
    ) -> Outcome<()> {
        let root = tracer.begin("op.publish", NONE, op, 1);
        let decoded = self.request(tracer, root, op, || Frame::Publish {
            at,
            values: event.values().to_vec(),
        })?;
        let Frame::Publish { at, values } = decoded else {
            return Err("a Publish frame decoded as another kind".into());
        };
        let schema = self.net.schema();
        let event = tracer.time("subscription.event_new", root, op, || {
            Event::new(schema, values)
        })?;
        let net = &self.net;
        let pairs = tracer.time("network.publish", root, op, || net.publish(at, &event))?;
        self.respond(tracer, root, op, &Frame::Deliveries { pairs })?;
        tracer.end(root);
        Ok(())
    }

    fn burst(
        &mut self,
        tracer: &mut Tracer,
        op: u32,
        at: BrokerId,
        events: &[Event],
    ) -> Outcome<()> {
        let n = events.len();
        let root = tracer.begin("op.publish_batch", NONE, op, 1);
        // Frames are encoded into one pipelined buffer, as the client's
        // BufWriter holds them until its single flush.
        let id = tracer.begin("wire.encode_request", root, op, n);
        let mut pipeline = Vec::new();
        for event in events {
            let frame = Frame::Publish {
                at,
                values: event.values().to_vec(),
            };
            encode_frame(&frame, &mut self.request);
            pipeline.extend_from_slice(&self.request);
        }
        tracer.end(id);
        let id = tracer.begin("wire.decode_request", root, op, n);
        let mut reader = pipeline.as_slice();
        let mut batch = Vec::with_capacity(n);
        for _ in 0..n {
            match read_frame(&mut reader, &mut self.scratch)? {
                Frame::Publish { values, .. } => batch.push(values),
                _ => return Err("a Publish frame decoded as another kind".into()),
            }
        }
        tracer.end(id);
        let id = tracer.begin("subscription.event_new", root, op, n);
        let events = batch
            .into_iter()
            .map(|values| Event::new(self.net.schema(), values))
            .collect::<Result<Vec<Event>, _>>()?;
        tracer.end(id);
        let id = tracer.begin("network.publish_batch", root, op, n);
        let deliveries = self.net.publish_batch(at, &events)?;
        tracer.end(id);
        let id = tracer.begin("wire.encode_response", root, op, n);
        pipeline.clear();
        for pairs in deliveries {
            encode_frame(&Frame::Deliveries { pairs }, &mut self.response);
            pipeline.extend_from_slice(&self.response);
        }
        tracer.end(id);
        self.responses.0 += n as u64;
        self.responses.1 += pipeline.len() as u64;
        let id = tracer.begin("wire.decode_response", root, op, n);
        let mut reader = pipeline.as_slice();
        for _ in 0..n {
            black_box(read_frame(&mut reader, &mut self.scratch)?);
        }
        tracer.end(id);
        tracer.end(root);
        Ok(())
    }

    fn subscribe(
        &mut self,
        tracer: &mut Tracer,
        op: u32,
        subscription: &Subscription,
    ) -> Outcome<()> {
        let (at, client) = home(subscription.id());
        let root = tracer.begin("op.subscribe", NONE, op, 1);
        let decoded = self.request(tracer, root, op, || {
            Frame::subscribe(at, client, subscription)
        })?;
        let Frame::Subscribe {
            at,
            client,
            id,
            bounds,
        } = decoded
        else {
            return Err("a Subscribe frame decoded as another kind".into());
        };
        // The daemon rebuilds the subscription from its wire bounds.
        let span = tracer.begin("subscription.build", root, op, 1);
        let schema = self.net.schema();
        let mut builder = SubscriptionBuilder::new(schema);
        for (attribute, (lo, hi)) in schema.attributes().iter().zip(&bounds) {
            builder = builder.range(attribute.name(), *lo, *hi);
        }
        let built = builder.build(id)?;
        tracer.end(span);
        let net = &self.net;
        tracer.time("network.subscribe", root, op, || {
            net.subscribe(at, client, &built)
        })?;
        let record = JournalRecord::Subscribe {
            at: at as u64,
            client,
            id,
            bounds,
        };
        self.journal(tracer, root, op, record)?;
        self.respond(tracer, root, op, &Frame::Ok)?;

        let shadow = &mut self.shadow;
        let outcome = tracer.time("covering.find_covering", root, op, || {
            shadow.find_covering(subscription)
        })?;
        self.totals.queries += 1;
        self.totals.probes += outcome.stats.probes as u64;
        self.totals.runs_probed += outcome.stats.runs_probed as u64;
        self.totals.covered += u64::from(outcome.is_covered());
        tracer.time("covering.insert", root, op, || shadow.insert(subscription))?;
        tracer.end(root);
        Ok(())
    }

    fn unsubscribe(
        &mut self,
        tracer: &mut Tracer,
        op: u32,
        subscription: &Subscription,
    ) -> Outcome<()> {
        let (at, _) = home(subscription.id());
        let id = subscription.id();
        let root = tracer.begin("op.unsubscribe", NONE, op, 1);
        let decoded = self.request(tracer, root, op, || Frame::Unsubscribe { at, id })?;
        let Frame::Unsubscribe { at, id } = decoded else {
            return Err("an Unsubscribe frame decoded as another kind".into());
        };
        let net = &self.net;
        tracer.time("network.unsubscribe", root, op, || net.unsubscribe(at, id))?;
        self.journal(
            tracer,
            root,
            op,
            JournalRecord::Unsubscribe { at: at as u64, id },
        )?;
        self.respond(tracer, root, op, &Frame::Ok)?;
        let shadow = &mut self.shadow;
        tracer.time("covering.remove", root, op, || shadow.remove(id))?;
        tracer.end(root);
        Ok(())
    }
}

/// Counts the probes produce besides their spans.
#[derive(Debug, Clone, Copy)]
pub struct Probed {
    /// ε-approximate hits over exact hits on the same queries (1 when the
    /// exact index found none).
    pub approx_detection_ratio: f64,
    /// Bytes of the saved segment files per stored subscription.
    pub segment_bytes_per_sub: f64,
}

/// Probes the layers on the workload's own population, each under a
/// `probe.<layer>` root span. `scratch` is a directory the caller removes.
///
/// # Errors
///
/// Returns the first error any layer reports.
pub fn probes(inputs: &Inputs, scratch: &Path, tracer: &mut Tracer) -> Outcome<Probed> {
    let approx_detection_ratio = probe_covering(inputs, tracer)?;
    probe_sfc(inputs, tracer)?;
    probe_subscription(inputs, tracer)?;
    let segment_bytes_per_sub = probe_storage(inputs, scratch, tracer)?;
    probe_crc(tracer);
    Ok(Probed {
        approx_detection_ratio,
        segment_bytes_per_sub,
    })
}

fn probe_covering(inputs: &Inputs, tracer: &mut Tracer) -> Outcome<f64> {
    let root = tracer.begin("probe.covering", NONE, 0, 1);
    let standing = &inputs.standing;
    let id = tracer.begin("covering.build_from", root, 0, standing.len());
    let mut exact: Box<dyn CoveringIndex> = Box::new(SfcCoveringIndex::build_from(
        &inputs.schema,
        ApproxConfig::exhaustive(),
        CurveKind::Z,
        standing,
    )?);
    tracer.end(id);
    let queries = &inputs.fresh[..inputs.fresh.len().min(512)];
    let id = tracer.begin("covering.find_covering_batch", root, 0, queries.len());
    let outcomes = exact.find_covering_batch(queries)?;
    tracer.end(id);
    let exact_hits = outcomes.iter().filter(|o| o.is_covered()).count();

    // The paper's own axis: the same queries at ε = 0.05.
    let mut approx: Box<dyn CoveringIndex> = Box::new(SfcCoveringIndex::build_from(
        &inputs.schema,
        ApproxConfig::with_epsilon(0.05)?,
        CurveKind::Z,
        standing,
    )?);
    let mut approx_hits = 0usize;
    for query in queries {
        let outcome = tracer.time("covering.approx_find_covering", root, 0, || {
            approx.find_covering(query)
        })?;
        approx_hits += usize::from(outcome.is_covered());
    }
    tracer.end(root);
    Ok(if exact_hits == 0 {
        1.0
    } else {
        approx_hits as f64 / exact_hits as f64
    })
}

fn probe_sfc(inputs: &Inputs, tracer: &mut Tracer) -> Outcome<()> {
    let root = tracer.begin("probe.sfc", NONE, 0, 1);
    let universe = dominance_universe(&inputs.schema)?;
    let curve = ZCurve::new(universe.clone());
    let points = inputs
        .standing
        .iter()
        .map(dominance_point)
        .collect::<Result<Vec<_>, _>>()?;
    let mut keys = Vec::with_capacity(points.len());
    for chunk in points.chunks(CALLS_PER_SPAN) {
        let id = tracer.begin("sfc.key_of_point", root, 0, chunk.len());
        for point in chunk {
            keys.push(curve.key_of_point(point)?);
        }
        tracer.end(id);
    }
    let entries = points.iter().cloned().zip(0u64..).collect();
    let array = SfcArray::from_sorted(curve.clone(), entries)?;
    for (query, chunk) in inputs
        .fresh
        .iter()
        .take(32)
        .zip(keys.chunks(CALLS_PER_SPAN).cycle())
    {
        let region = ExtremalRect::dominance_region(&universe, &dominance_point(query)?)?;
        let Some(seeker) = curve.region_seeker(&region.to_rect()) else {
            break;
        };
        let id = tracer.begin("sfc.bigmin_seek", root, 0, chunk.len());
        for key in chunk {
            black_box(seeker.seek(key));
        }
        tracer.end(id);
        let id = tracer.begin("sfc.array_seek", root, 0, chunk.len());
        for key in chunk {
            black_box(array.first_key_at_or_after(key));
        }
        tracer.end(id);
    }
    tracer.end(root);
    Ok(())
}

fn probe_subscription(inputs: &Inputs, tracer: &mut Tracer) -> Outcome<()> {
    let root = tracer.begin("probe.subscription", NONE, 0, 1);
    // The oracle's own loop: one event against the whole standing set.
    for event in inputs.events.iter().take(32) {
        let id = tracer.begin("subscription.matches", root, 0, inputs.standing.len());
        let matched = inputs.standing.iter().filter(|s| s.matches(event)).count();
        tracer.end(id);
        black_box(matched);
    }
    for chunk in inputs.standing.chunks(CALLS_PER_SPAN) {
        let id = tracer.begin("subscription.dominance_point", root, 0, chunk.len());
        for subscription in chunk {
            black_box(dominance_point(subscription)?);
        }
        tracer.end(id);
    }
    tracer.end(root);
    Ok(())
}

fn probe_storage(inputs: &Inputs, scratch: &Path, tracer: &mut Tracer) -> Outcome<f64> {
    let root = tracer.begin("probe.storage", NONE, 0, 1);
    std::fs::create_dir_all(scratch)?;
    // A bare 64-byte write + sync_data, so the device's share of a journal
    // append is separable from the code's (and a tmpfs run is recognisable).
    let mut file = std::fs::File::create(scratch.join("fdatasync.probe"))?;
    for _ in 0..64 {
        let id = tracer.begin("storage.fdatasync_probe", root, 0, 1);
        file.write_all(&[0u8; 64])?;
        file.sync_data()?;
        tracer.end(id);
    }
    let records: Vec<JournalRecord> = inputs.standing.iter().map(journal_record).collect();
    let snapshot = scratch.join("snapshot.probe");
    tracer.time("storage.snapshot_write", root, 0, || {
        storage::write_snapshot(&snapshot, &records)
    })?;

    let index = SfcCoveringIndex::build_from(
        &inputs.schema,
        ApproxConfig::exhaustive(),
        CurveKind::Z,
        &inputs.standing,
    )?;
    let segments = scratch.join("segments");
    tracer.time("storage.save_segments", root, 0, || {
        index.save_segments(&segments)
    })?;
    let reopened = tracer.time("storage.open_segments", root, 0, || {
        SfcCoveringIndex::open_segments(&segments)
    })?;
    if reopened.len() != index.len() {
        return Err("reopened segments hold another number of subscriptions".into());
    }
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(&segments)? {
        bytes += entry?.metadata()?.len();
    }
    tracer.end(root);
    Ok(bytes as f64 / index.len().max(1) as f64)
}

fn probe_crc(tracer: &mut Tracer) {
    let root = tracer.begin("probe.crc", NONE, 0, 1);
    // 1 MiB of a fixed pattern; a span's `calls` is the bytes it hashed.
    let buffer: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    for _ in 0..8 {
        let id = tracer.begin("wire.crc32", root, 0, buffer.len());
        black_box(wire::crc32(black_box(&buffer)));
        tracer.end(id);
        let id = tracer.begin("storage.crc32", root, 0, buffer.len());
        black_box(storage::crc32(black_box(&buffer)));
        tracer.end(id);
    }
    tracer.end(root);
}
