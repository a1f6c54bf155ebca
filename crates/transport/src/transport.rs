//! The backend-independent transport abstraction.

use std::time::Duration;

use crate::frame::{FrameError, Message, PartyId};

/// Transport-layer failure.
#[derive(Debug)]
pub enum TransportError {
    /// No frame arrived within the deadline.
    Timeout,
    /// The endpoint (or its peer set) has shut down.
    Closed,
    /// No route to the destination party.
    Unreachable(PartyId),
    /// A received frame failed decoding or integrity checks.
    Frame(FrameError),
    /// An OS-level socket error.
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Timeout => write!(f, "receive deadline elapsed"),
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Unreachable(p) => write!(f, "party {p} unreachable"),
            TransportError::Frame(e) => write!(f, "bad frame: {e}"),
            TransportError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Frame(e)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// A delivered message plus its routing metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sending party.
    pub from: PartyId,
    /// Sequence number the sender assigned on this link.
    pub seq: u64,
    /// Header flags as received.
    pub flags: u16,
    /// The message body.
    pub msg: Message,
}

/// Receipt for one transmitted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendReceipt {
    /// Sequence number the frame carried.
    pub seq: u64,
    /// Exact encoded frame size in bytes.
    pub bytes: usize,
}

/// Per-endpoint traffic counters. `bytes_*` are sums of exact encoded
/// frame sizes — the numbers `JobMetrics` byte accounting is fed from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames handed to the network, retransmissions included.
    pub frames_sent: u64,
    /// Frames delivered to this endpoint.
    pub frames_received: u64,
    /// Total encoded bytes of sent frames.
    pub bytes_sent: u64,
    /// Total encoded bytes of received frames.
    pub bytes_received: u64,
    /// Send attempts beyond the first (reconnects and retransmits).
    pub retries: u64,
}

impl LinkStats {
    /// Element-wise sum of two counters.
    pub fn merged(self, other: LinkStats) -> LinkStats {
        LinkStats {
            frames_sent: self.frames_sent + other.frames_sent,
            frames_received: self.frames_received + other.frames_received,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_received: self.bytes_received + other.bytes_received,
            retries: self.retries + other.retries,
        }
    }
}

/// One party's endpoint onto some message fabric.
///
/// Implementations assign sequence numbers per destination starting at 1;
/// [`Transport::send_raw`] exists so a reliability layer can retransmit a
/// frame under its *original* sequence number (with
/// [`crate::FLAG_RETRANSMIT`] set) and the receiver can deduplicate.
pub trait Transport: Send {
    /// This endpoint's party id.
    fn party(&self) -> PartyId;

    /// Reserves and returns the next sequence number toward `to`.
    fn next_seq(&mut self, to: PartyId) -> u64;

    /// Encodes and transmits one frame with an explicit sequence number and
    /// flags. Returns the encoded frame size in bytes.
    fn send_raw(
        &mut self,
        to: PartyId,
        msg: &Message,
        seq: u64,
        flags: u16,
    ) -> Result<usize, TransportError>;

    /// Blocks until a frame arrives or `timeout` elapses.
    fn recv(&mut self, timeout: Duration) -> Result<Envelope, TransportError>;

    /// Traffic counters for this endpoint.
    fn stats(&self) -> LinkStats;

    /// Sends `msg` to `to` with a freshly assigned sequence number.
    fn send(&mut self, to: PartyId, msg: &Message) -> Result<SendReceipt, TransportError> {
        let seq = self.next_seq(to);
        let bytes = self.send_raw(to, msg, seq, 0)?;
        Ok(SendReceipt { seq, bytes })
    }
}
