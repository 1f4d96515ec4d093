//! A blocking client for the `acd-brokerd` daemon.
//!
//! [`BrokerClient::connect`] performs the `Hello` handshake and rebuilds
//! the daemon's [`Schema`] locally, so subscriptions and events can be
//! constructed client-side against the exact attribute universe the
//! network uses. Requests are strict request/response except
//! [`publish_batch`](BrokerClient::publish_batch), which pipelines a burst
//! of publishes over the socket before collecting the responses — the shape
//! the daemon's flush-on-idle batching is built for. It sends at most 16 KiB
//! of requests (and at least one request) before it reads their responses
//! back: a daemon that answers a burst nobody reads blocks on its write and
//! stops reading, so an unbounded pipeline deadlocks once both socket
//! buffers are full.

use std::error::Error;
use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::slice;
use std::time::Duration;

use acd_subscription::{Event, Schema, SubId, Subscription};

use crate::broker::{BrokerId, ClientId};
use crate::error::ServiceError;
use crate::wire::{encode_frame, encode_publish, read_frame, Frame};

/// How many request bytes [`BrokerClient::publish_batch`] sends before it
/// reads their responses: about 330 three-attribute publishes.
const PIPELINE_WINDOW: usize = 16 * 1024;

/// A [`publish_batch`](BrokerClient::publish_batch) failure that preserves
/// the partial result: every delivery list acknowledged before the error.
///
/// Events at positions `< acked.len()` were definitely applied; events past
/// that point are *in limbo* — their requests may or may not have reached
/// the daemon before the connection died. Callers resuming a batch should
/// continue from `acked.len()` knowing limbo events can be double-applied
/// (publishing has no subscriber-visible state, so a duplicate at worst
/// inflates the network's message counters).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchError {
    /// Delivery lists for the prefix of events the daemon acknowledged.
    pub acked: Vec<Vec<(BrokerId, ClientId)>>,
    /// What ended the batch.
    pub error: ServiceError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch failed after {} acknowledged publishes: {}",
            self.acked.len(),
            self.error
        )
    }
}

impl Error for BatchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

impl From<BatchError> for ServiceError {
    fn from(e: BatchError) -> ServiceError {
        e.error
    }
}

/// A connection to a broker daemon.
#[derive(Debug)]
pub struct BrokerClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    schema: Schema,
    /// Reused encode buffer: steady-state requests allocate nothing.
    out: Vec<u8>,
    /// Reused decode payload buffer.
    scratch: Vec<u8>,
}

impl BrokerClient {
    /// Connects and completes the `Hello` handshake.
    ///
    /// # Errors
    ///
    /// Returns an error if the connection fails, the greeting is corrupt,
    /// or the daemon's schema does not parse.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<BrokerClient, ServiceError> {
        BrokerClient::connect_with(addr, None)
    }

    /// Like [`connect`](Self::connect), but with `io_timeout` applied to
    /// the socket *before* the handshake read, so a daemon that accepts
    /// and then never greets (or whose greeting is lost in transit)
    /// surfaces as a timed-out connect instead of a hang. The resilient
    /// layer always connects this way.
    ///
    /// # Errors
    ///
    /// As for [`connect`](Self::connect), plus a timeout I/O error when
    /// the greeting does not arrive within the deadline.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        io_timeout: Option<Duration>,
    ) -> Result<BrokerClient, ServiceError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        let writer = BufWriter::new(stream.try_clone()?);
        let mut reader = BufReader::new(stream);
        let mut scratch = Vec::new();
        let schema =
            match read_frame(&mut reader, &mut scratch)? {
                Frame::Hello { schema_json } => serde_json::from_str::<Schema>(&schema_json)
                    .map_err(|e| ServiceError::CorruptFrame {
                        reason: format!("Hello schema does not parse: {e}"),
                    })?,
                // A `Rejected` greeting (connection cap) maps to a typed
                // `Overloaded` here, like any other non-Hello frame.
                other => return Err(unexpected(other)),
            };
        Ok(BrokerClient {
            reader,
            writer,
            schema,
            out: Vec::new(),
            scratch,
        })
    }

    /// The schema the daemon's network uses (from the `Hello` greeting).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Registers `subscription` for `client` at broker `at`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Rejected`] if the daemon's network refused
    /// the registration, or a transport/protocol error.
    pub fn subscribe(
        &mut self,
        at: BrokerId,
        client: ClientId,
        subscription: &Subscription,
    ) -> Result<(), ServiceError> {
        self.request(&Frame::subscribe(at, client, subscription))
    }

    /// Registers `subscription` idempotently with a session `epoch`
    /// ([`Frame::Resubscribe`]): retrying after a lost response, or
    /// replaying after a reconnect, converges on the registration being
    /// live exactly once. This is the request the resilient layer uses for
    /// every subscribe.
    ///
    /// # Errors
    ///
    /// As for [`subscribe`](Self::subscribe).
    pub fn resubscribe(
        &mut self,
        at: BrokerId,
        client: ClientId,
        subscription: &Subscription,
        epoch: u64,
    ) -> Result<(), ServiceError> {
        self.request(&Frame::resubscribe(at, client, subscription, epoch))
    }

    /// Retracts subscription `id` from broker `at`.
    ///
    /// # Errors
    ///
    /// As for [`subscribe`](Self::subscribe).
    pub fn unsubscribe(&mut self, at: BrokerId, id: SubId) -> Result<(), ServiceError> {
        self.request(&Frame::Unsubscribe { at, id })
    }

    /// Retracts subscription `id` idempotently with a session `epoch`
    /// ([`Frame::Retract`]): retracting an id that is already gone is a
    /// success, so a retried retraction never errors.
    ///
    /// # Errors
    ///
    /// As for [`subscribe`](Self::subscribe).
    pub fn retract(&mut self, at: BrokerId, id: SubId, epoch: u64) -> Result<(), ServiceError> {
        self.request(&Frame::Retract { at, id, epoch })
    }

    /// Publishes `event` at broker `at`, returning the deliveries it caused
    /// across the whole overlay as sorted `(broker, client)` pairs.
    ///
    /// # Errors
    ///
    /// As for [`subscribe`](Self::subscribe).
    pub fn publish(
        &mut self,
        at: BrokerId,
        event: &Event,
    ) -> Result<Vec<(BrokerId, ClientId)>, ServiceError> {
        let mut answers = self.publish_batch(at, slice::from_ref(event))?;
        Ok(answers.pop().unwrap_or_default())
    }

    /// Publishes a burst of events pipelined — requests go out 16 KiB at a
    /// time, and each window's responses are read before the next is sent —
    /// returning one delivery list per event, in order. On an overlay served
    /// to many clients this is the throughput shape: one flush per window,
    /// one batched response write from the daemon.
    ///
    /// # Errors
    ///
    /// Fails with a [`BatchError`] carrying every delivery list that was
    /// acknowledged before the failure, so callers can resume from
    /// `acked.len()` instead of blindly re-publishing the whole batch. The
    /// first rejected publish fails the rest of the batch the same way: the
    /// responses behind it in its window are read and discarded, so the
    /// connection stays in step for the next request, and no later window
    /// is sent. A transport error returns at once.
    pub fn publish_batch(
        &mut self,
        at: BrokerId,
        events: &[Event],
    ) -> Result<Vec<Vec<(BrokerId, ClientId)>>, BatchError> {
        let mut acked: Vec<Vec<(BrokerId, ClientId)>> = Vec::with_capacity(events.len());
        let fail = |acked: &mut Vec<Vec<(BrokerId, ClientId)>>, error: ServiceError| BatchError {
            acked: std::mem::take(acked),
            error,
        };
        let mut unacked = 0usize;
        for (sent, event) in events.iter().enumerate() {
            encode_publish(at, event.values(), &mut self.out);
            if let Err(e) = self.writer.write_all(&self.out) {
                return Err(fail(&mut acked, e.into()));
            }
            unacked += self.out.len();
            if unacked < PIPELINE_WINDOW && sent + 1 < events.len() {
                continue;
            }
            unacked = 0;
            if let Err(e) = self.writer.flush() {
                return Err(fail(&mut acked, e.into()));
            }
            while acked.len() <= sent {
                match read_frame(&mut self.reader, &mut self.scratch) {
                    Ok(Frame::Deliveries { pairs }) => acked.push(pairs),
                    Ok(other) => {
                        // The daemon answers every request: read the rest of
                        // the window off (in limbo), or the next request on
                        // this connection would take one of them for its own.
                        for _ in acked.len() + 1..=sent {
                            if read_frame(&mut self.reader, &mut self.scratch).is_err() {
                                break;
                            }
                        }
                        return Err(fail(&mut acked, unexpected(other)));
                    }
                    Err(e) => return Err(fail(&mut acked, e)),
                }
            }
        }
        Ok(acked)
    }

    /// Sends one request frame and reads its `Ok`.
    fn request(&mut self, frame: &Frame) -> Result<(), ServiceError> {
        encode_frame(frame, &mut self.out);
        self.writer.write_all(&self.out)?;
        self.writer.flush()?;
        match read_frame(&mut self.reader, &mut self.scratch)? {
            Frame::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

/// Maps a non-success response to the matching error: daemon `Err` frames
/// become [`ServiceError::Rejected`], `Rejected` frames (overload
/// shedding — the request was *not* executed) become
/// [`ServiceError::Overloaded`], anything else is a protocol violation.
fn unexpected(frame: Frame) -> ServiceError {
    match frame {
        Frame::Err { message } => ServiceError::Rejected { message },
        Frame::Rejected { reason } => ServiceError::Overloaded { reason },
        other => ServiceError::UnexpectedFrame {
            kind: other.kind_name().to_string(),
        },
    }
}
