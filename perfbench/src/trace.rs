//! Benchmark-side spans around the transport layer.
//!
//! [`Timed`] wraps any [`Transport`] and records one [`WireSpan`] per
//! `send_raw` and per `recv`, tagged with the message kind and the ADMM
//! round it belongs to (the message's `iteration`, or the last round the
//! party saw for control frames such as acks). The program itself is
//! untouched: every span is taken here, around calls into its public
//! trait.
//!
//! With `full == false` only the coordinator's consensus broadcasts are
//! kept: they mark round boundaries for the end-to-end round times, at
//! the cost of two clock reads per call.

use std::time::{Duration, Instant};

use ppml_transport::{Envelope, LinkStats, Message, PartyId, Transport, TransportError};

/// Direction of a transport call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Send,
    Recv,
}

/// One transport call, in nanoseconds since the training run's start.
#[derive(Debug, Clone, Copy)]
pub struct WireSpan {
    pub party: PartyId,
    pub op: Op,
    /// Message kind, or `timeout` / `error` for a failed receive.
    pub kind: &'static str,
    /// The round the call belongs to (its parent span).
    pub round: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Kind name and carried ADMM iteration of a protocol message.
pub fn describe(msg: &Message) -> (&'static str, Option<u64>) {
    match msg {
        Message::Consensus { iteration, .. } => ("consensus", Some(*iteration)),
        Message::MaskedShare { iteration, .. } => ("masked_share", Some(*iteration)),
        Message::CipherShare { iteration, .. } => ("cipher_share", Some(*iteration)),
        Message::CipherAgg { iteration, .. } => ("cipher_agg", Some(*iteration)),
        Message::CipherSum { iteration, .. } => ("cipher_sum", Some(*iteration)),
        Message::Rekey { iteration, .. } => ("rekey", Some(*iteration)),
        Message::Ack { .. } => ("ack", None),
        Message::Heartbeat { .. } => ("heartbeat", None),
        _ => ("other", None),
    }
}

/// A [`Transport`] that records a span around every call it forwards.
pub struct Timed<T> {
    inner: T,
    base: Instant,
    full: bool,
    round: u64,
    spans: Vec<WireSpan>,
}

impl<T: Transport> Timed<T> {
    pub fn new(inner: T, base: Instant, full: bool) -> Self {
        Timed {
            inner,
            base,
            full,
            round: 0,
            spans: Vec::new(),
        }
    }

    /// The recorded spans and the endpoint's final link counters.
    pub fn finish(self) -> (Vec<WireSpan>, LinkStats) {
        let stats = self.inner.stats();
        (self.spans, stats)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.base).as_nanos() as u64
    }

    fn record(
        &mut self,
        op: Op,
        (kind, iteration): (&'static str, Option<u64>),
        t0: Instant,
        t1: Instant,
    ) {
        if let Some(it) = iteration {
            self.round = it;
        }
        let boundary = op == Op::Send && kind == "consensus";
        if !(self.full || boundary) {
            return;
        }
        let span = WireSpan {
            party: self.inner.party(),
            op,
            kind,
            round: self.round,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
        };
        self.spans.push(span);
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn party(&self) -> PartyId {
        self.inner.party()
    }

    fn next_seq(&mut self, to: PartyId) -> u64 {
        self.inner.next_seq(to)
    }

    fn send_raw(
        &mut self,
        to: PartyId,
        msg: &Message,
        seq: u64,
        flags: u16,
    ) -> Result<usize, TransportError> {
        let t0 = Instant::now();
        let sent = self.inner.send_raw(to, msg, seq, flags);
        let t1 = Instant::now();
        self.record(Op::Send, describe(msg), t0, t1);
        sent
    }

    fn recv(&mut self, timeout: Duration) -> Result<Envelope, TransportError> {
        let t0 = Instant::now();
        let got = self.inner.recv(timeout);
        let t1 = Instant::now();
        match &got {
            Ok(env) => self.record(Op::Recv, describe(&env.msg), t0, t1),
            Err(TransportError::Timeout) => self.record(Op::Recv, ("timeout", None), t0, t1),
            Err(_) => self.record(Op::Recv, ("error", None), t0, t1),
        }
        got
    }

    fn stats(&self) -> LinkStats {
        self.inner.stats()
    }
}
