//! One ADMM round engine for every secure-aggregation backend.
//!
//! The paper's Reduce step (§V) is one operation whatever protocol hides
//! the shares: collect the survivors' contributions, learn only their
//! sum, update the consensus `z`. [`coordinate`] and [`learn`] run that
//! round for all three wire backends and own everything they share:
//!
//! * **coordinator** — validation, the clock-sync handshake, resume and
//!   rejoin admission at round boundaries, the consensus broadcast, the
//!   collect loop (one deadline per phase, receive filtering, dropout
//!   declaration), `RoundOpen`/`RoundClose`/`SecAggRound` telemetry, the
//!   `z`-update, evaluation, checkpoints and the final `done` broadcast;
//! * **learner** — patience and heartbeats, the rejoin handshake,
//!   consensus sequencing, the local ADMM step, re-keys and resumed
//!   coordinators, the scripted defect point and the telemetry relay.
//!
//! A backend plugs in through two small traits. On the coordinator a
//! [`RoundAggregator`] sees one round at a time: [`open`] names the first
//! collect, [`absorb`] takes each accepted frame, [`advance`] ends a
//! collect with either a relay and the next collect (the Shamir blocks,
//! the Paillier authority round trip), the round [`Sum`], or a verdict
//! that too few contributors are left. On the learner a [`ShareCodec`]
//! encodes the raw share and answers the backend's own frames. What a
//! deadline miss does is the one policy the driver asks about: pairwise
//! re-keys the survivors and collects the round again, Shamir and
//! Paillier drop the missing parties and go on with what they have.
//!
//! [`open`]: RoundAggregator::open
//! [`absorb`]: RoundAggregator::absorb
//! [`advance`]: RoundAggregator::advance

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use ppml_data::Dataset;
use ppml_mapreduce::JobMetrics;
use ppml_svm::LinearSvm;
use ppml_telemetry as telemetry;
use ppml_transport::{Courier, Envelope, Frame, Message, PartyId, Transport, TransportError};
use telemetry::EventKind;

use crate::checkpoint::Checkpoint;
use crate::config::{AdmmConfig, DistributedTiming};
use crate::distributed::{DistributedOutcome, RecoveryOptions};
use crate::error::TrainError;
use crate::history::ConvergenceHistory;
use crate::horizontal::linear::HlLearner;
use crate::observe::{self, TelemetryRelay};
use crate::Result;

/// How long a learner blocks on one receive before it checks its patience
/// clock and heartbeats the coordinator: short enough that a restarted
/// coordinator is re-dialed (a TCP heartbeat triggers the dial) well
/// within any realistic patience budget.
const LEARNER_POLL: Duration = Duration::from_millis(500);
/// Probes sent per learner during the clock-offset handshake.
const CLOCK_PROBES: u32 = 3;
/// How long the coordinator waits for each `TimeReply`: a loopback or LAN
/// round trip takes well under a millisecond, so only a dead (or
/// pre-probe) learner ever costs the full wait, and the whole handshake
/// stays under a second per such learner.
const CLOCK_PROBE_WAIT: Duration = Duration::from_millis(300);
/// Pause between attempts to send a share to an unreachable coordinator.
/// Each failed attempt has already run the courier's whole retry
/// schedule; the pause only keeps a transport that fails fast (TCP
/// refusing the dial of a restarting coordinator) from spinning a core,
/// and it is far below any patience budget.
const SHARE_RESEND_BACKOFF: Duration = Duration::from_millis(25);

pub(crate) fn protocol(reason: impl Into<String>) -> TrainError {
    TrainError::Protocol {
        reason: reason.into(),
    }
}

/// Whether a reliable-send failure means the *peer* is gone: loopback
/// reports a dead peer as `Timeout`, TCP as `Unreachable` or `Io`.
/// `Closed`/`Frame` are local faults and stay fatal.
fn peer_is_lost(e: &TransportError) -> bool {
    matches!(
        e,
        TransportError::Timeout | TransportError::Unreachable(_) | TransportError::Io(_)
    )
}

/// Which share-carrying frame a collect accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShareKind {
    /// `MaskedShare`: a pairwise-masked share.
    Masked,
    /// `ShamirDist`: a learner's blinded Shamir blocks.
    Dist,
    /// `Shares`: a learner's summed Shamir share.
    Summed,
    /// `CipherShare`: a learner's encrypted share.
    Cipher,
    /// `CipherSum`: the key authority's decrypted aggregate.
    Plain,
}

/// The payload of one share-carrying frame.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Body {
    Words(Vec<u64>),
    Bytes(Vec<u8>),
    Reals(Vec<f64>),
}

impl Body {
    fn len(&self) -> usize {
        match self {
            Body::Words(v) => v.len(),
            Body::Bytes(v) => v.len(),
            Body::Reals(v) => v.len(),
        }
    }
}

/// A share-carrying frame reduced to what the collect filters read:
/// kind, round, re-key epoch, contributing party and payload. Any other
/// message comes back unchanged.
fn share_of(env: Envelope) -> std::result::Result<(ShareKind, u64, u64, PartyId, Body), Message> {
    Ok(match env.msg {
        Message::MaskedShare {
            iteration,
            epoch,
            party,
            payload,
        } => (
            ShareKind::Masked,
            iteration,
            epoch,
            party,
            Body::Words(payload),
        ),
        Message::ShamirDist {
            iteration,
            party,
            flat,
        } => (ShareKind::Dist, iteration, 0, party, Body::Words(flat)),
        Message::Shares { iteration, values } => (
            ShareKind::Summed,
            iteration,
            0,
            env.from,
            Body::Words(values),
        ),
        Message::CipherShare {
            iteration,
            party,
            bytes,
        } => (ShareKind::Cipher, iteration, 0, party, Body::Bytes(bytes)),
        Message::CipherSum { iteration, values } => (
            ShareKind::Plain,
            iteration,
            0,
            env.from,
            Body::Reals(values),
        ),
        other => return Err(other),
    })
}

/// One collect phase: which frames it takes, from whom, and how long
/// each payload must be.
pub(crate) struct Collect {
    pub(crate) kind: ShareKind,
    /// Parties whose frame the phase waits for.
    pub(crate) from: Vec<PartyId>,
    pub(crate) len: usize,
    /// Whether arrivals feed the straggler scorer.
    pub(crate) lag: bool,
}

/// A round's decoded coordinate totals and how many inputs they sum.
pub(crate) struct Sum {
    pub(crate) totals: Vec<f64>,
    pub(crate) count: usize,
}

/// What a finished collect leads to.
pub(crate) enum Progress {
    /// Send these frames (in order), then run the next collect.
    Relay(Vec<(PartyId, Message)>, Collect),
    /// The round sum is known.
    Done(Sum),
    /// Too few contributors are left to produce a sum: the run is over.
    Lost,
}

/// The coordinator side of one secure-aggregation protocol, one round at
/// a time. The driver validates every frame before [`absorb`] sees it.
///
/// [`absorb`]: RoundAggregator::absorb
pub(crate) trait RoundAggregator {
    /// Telemetry label of the backend.
    const NAME: &'static str;
    /// Every share kind the backend's collects take; a frame of another
    /// of these kinds from this or an earlier round is a straggler and is
    /// skipped, not a protocol error.
    const KINDS: &'static [ShareKind];
    /// What a deadline miss does: `true` re-keys the survivors and
    /// collects the round again (their masks only cancel over the exact
    /// survivor set); `false` drops the missing parties and goes on.
    const REKEYS: bool;

    /// Starts collecting round `round` from `survivors` (again, after a
    /// re-key).
    fn open(&mut self, round: u64, survivors: &[PartyId]) -> Collect;

    /// Takes one accepted frame of the current collect.
    fn absorb(&mut self, party: PartyId, body: &Body) -> Result<()>;

    /// Ends the current collect: every awaited party has either delivered
    /// or been dropped.
    fn advance(&mut self) -> Result<Progress>;
}

/// The learner side of one secure-aggregation protocol.
pub(crate) trait ShareCodec {
    /// Whether a round's contribution is completed by the reply to a
    /// second coordinator frame (Shamir's summed share) rather than by
    /// the share frame itself.
    const TWO_PHASE: bool;

    /// Encodes this round's raw share as the frame for the coordinator.
    fn encode(
        &mut self,
        raw: &[f64],
        iteration: u64,
        epoch: u64,
        present: &[usize],
    ) -> Result<Message>;

    /// Answers a coordinator frame outside the common protocol with the
    /// round it belongs to and the frame to send back; `None` drains a
    /// frame of a round already finished.
    fn answer(&mut self, msg: Message, _expected_iter: u64) -> Result<Option<(u64, Message)>> {
        Err(unexpected(&msg))
    }
}

/// The error for a coordinator frame a learner has no use for.
pub(crate) fn unexpected(msg: &Message) -> TrainError {
    protocol(format!(
        "learner expected consensus, re-key or welcome, got {msg:?}"
    ))
}

/// Coordinator state that outlives a round.
struct Coordinator<'c, T: Transport> {
    courier: &'c mut Courier<T>,
    timing: DistributedTiming,
    rekeys: bool,
    alive: Vec<bool>,
    dropped: Vec<PartyId>,
    epoch: u64,
    metrics: JobMetrics,
    /// Restarted learners asking back in, acted on at the next round
    /// boundary when the iterate is consistent.
    joins: BTreeMap<PartyId, u64>,
}

impl<T: Transport> Coordinator<'_, T> {
    fn emit(&self, kind: EventKind) {
        telemetry::emit(self.courier.party(), kind);
    }

    fn survivors(&self) -> Vec<PartyId> {
        (0..self.alive.len())
            .filter(|&p| self.alive[p])
            .map(|p| p as PartyId)
            .collect()
    }

    fn quorum_lost(&self) -> TrainError {
        TrainError::Dropped {
            parties: self.dropped.clone(),
        }
    }

    /// Reliably sends `msg`, charging it to the broadcast side of the
    /// byte accounting. `Ok(false)` means the peer is gone.
    fn send(&mut self, to: PartyId, msg: &Message) -> Result<bool> {
        match self.courier.send_reliable(to, msg) {
            Ok(n) => {
                self.metrics.bytes_broadcast += n;
                Ok(true)
            }
            Err(e) if peer_is_lost(&e) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Sends `msg` to every party in `to`; returns the ones that are gone.
    fn broadcast(&mut self, to: &[PartyId], msg: &Message) -> Result<Vec<PartyId>> {
        let mut lost = Vec::new();
        for &p in to {
            if !self.send(p, msg)? {
                lost.push(p);
            }
        }
        Ok(lost)
    }

    /// Marks `lost` parties dead, in order, with a `Dropout` event each.
    fn declare_dropped(&mut self, lost: &[PartyId], iteration: u64) {
        for &p in lost {
            if std::mem::replace(&mut self.alive[p as usize], false) {
                self.dropped.push(p);
                self.emit(EventKind::Dropout {
                    party: p,
                    iteration,
                });
            }
        }
    }

    /// Drops `lost` and, for a re-keying backend, bumps the epoch and
    /// sends `Rekey` to every survivor (an unreachable survivor is dropped
    /// in turn and the re-key repeats). Fails with
    /// [`TrainError::Dropped`] once nobody is left.
    fn lose(&mut self, mut lost: Vec<PartyId>, iteration: u64) -> Result<()> {
        while !lost.is_empty() {
            self.declare_dropped(&lost, iteration);
            let survivors = self.survivors();
            if survivors.is_empty() {
                return Err(self.quorum_lost());
            }
            if !self.rekeys {
                break;
            }
            self.epoch += 1;
            self.emit(EventKind::RekeyEpoch {
                iteration,
                epoch: self.epoch,
                survivors: survivors.len() as u32,
            });
            let rekey = Message::Rekey {
                iteration,
                epoch: self.epoch,
                survivors: survivors.clone(),
            };
            lost = self.broadcast(&survivors, &rekey)?;
        }
        Ok(())
    }

    /// RTT-based clock-offset handshake: probes each learner with
    /// `TimeProbe` (carrying the run id) and emits `ClockSync` with the
    /// minimum-RTT sample of `peer_clock − local_clock` at the probe
    /// midpoint, which `ppml-trace` uses to rebase every stream. Only run
    /// with telemetry enabled and before the first broadcast, so it costs
    /// an uninstrumented run nothing and swallows only liveness noise;
    /// probe traffic is never charged to [`JobMetrics`].
    fn clock_sync(&mut self, run_id: u64) {
        for p in self.survivors() {
            let mut best: Option<(u64, i64)> = None; // (rtt_ns, offset_ns)
            for attempt in 0..CLOCK_PROBES {
                let nonce = (u64::from(p) << 8) | u64::from(attempt);
                let t0 = telemetry::now_ns();
                if self
                    .courier
                    .send_unreliable(p, &Message::TimeProbe { nonce, run_id })
                    .is_err()
                {
                    break;
                }
                let deadline = Instant::now() + CLOCK_PROBE_WAIT;
                while let Some(remaining) = deadline
                    .checked_duration_since(Instant::now())
                    .filter(|r| !r.is_zero())
                {
                    match self.courier.recv(remaining) {
                        Ok(Envelope {
                            msg: Message::TimeReply { nonce: n, t_ns },
                            ..
                        }) if n == nonce => {
                            let rtt = telemetry::now_ns().saturating_sub(t0);
                            let offset = (t_ns as i64).wrapping_sub((t0 + rtt / 2) as i64);
                            if best.is_none_or(|(best_rtt, _)| rtt < best_rtt) {
                                best = Some((rtt, offset));
                            }
                            break;
                        }
                        Ok(_) => {}
                        Err(_) => break,
                    }
                }
            }
            if let Some((rtt_ns, offset_ns)) = best {
                self.emit(EventKind::ClockSync {
                    peer: p,
                    offset_ns,
                    rtt_ns,
                });
            }
        }
    }

    /// Re-enters a run from a checkpoint: sends every learner it believed
    /// alive a `Welcome` with the new epoch and the current iterate.
    fn resume(&mut self, round: u64, z: &[f64], s: f64) -> Result<()> {
        let survivors = self.survivors();
        self.emit(EventKind::ResumeFromCheckpoint {
            iteration: round,
            epoch: self.epoch,
            survivors: survivors.len() as u32,
        });
        let welcome = Message::Welcome {
            nonce: 0,
            iteration: round,
            epoch: self.epoch,
            survivors: survivors.clone(),
            z: z.to_vec(),
            s: vec![s],
        };
        let lost = self.broadcast(&survivors, &welcome)?;
        self.lose(lost, round)
    }

    /// Re-admits the learners whose `Join` arrived since the last round
    /// boundary: answers each with a `Welcome` carrying its nonce and the
    /// current iterate and, for a re-keying backend, bumps the epoch once
    /// and tells the veterans with a `Rekey` naming the upcoming round.
    /// Joins from parties still alive are ignored.
    fn admit(&mut self, iteration: u64, z: &[f64], s: f64) -> Result<()> {
        let joiners: Vec<(PartyId, u64)> = std::mem::take(&mut self.joins)
            .into_iter()
            .filter(|&(p, _)| !self.alive[p as usize])
            .collect();
        if joiners.is_empty() {
            return Ok(());
        }
        let veterans = self.survivors();
        for &(p, _) in &joiners {
            self.alive[p as usize] = true;
            self.dropped.retain(|&d| d != p);
            self.emit(EventKind::Rejoin {
                party: p,
                iteration,
            });
        }
        let survivors = self.survivors();
        if self.rekeys {
            self.epoch += 1;
            self.emit(EventKind::RekeyEpoch {
                iteration,
                epoch: self.epoch,
                survivors: survivors.len() as u32,
            });
        }
        let mut lost = Vec::new();
        for (p, nonce) in joiners {
            // A fresh process restarts its sequence numbers; the dead
            // incarnation's dedup watermark would swallow them.
            self.courier.reset_peer(p);
            let welcome = Message::Welcome {
                nonce,
                iteration,
                epoch: self.epoch,
                survivors: survivors.clone(),
                z: z.to_vec(),
                s: vec![s],
            };
            if !self.send(p, &welcome)? {
                lost.push(p);
            }
        }
        if self.rekeys {
            let rekey = Message::Rekey {
                iteration,
                epoch: self.epoch,
                survivors,
            };
            lost.extend(self.broadcast(&veterans, &rekey)?);
        }
        self.lose(lost, iteration)
    }

    /// The next protocol frame before `deadline`, or `None` once it has
    /// passed. Liveness and observability traffic never reaches a
    /// collect: heartbeats (learners open their TCP connection with one)
    /// and late clock-probe replies are dropped, telemetry deltas folded,
    /// and rejoin requests queued for the next round boundary.
    fn next_frame(&mut self, deadline: Instant) -> Result<Option<Envelope>> {
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            let env = match self.courier.recv(remaining) {
                Ok(env) => env,
                Err(TransportError::Timeout) => return Ok(None),
                Err(e) => return Err(e.into()),
            };
            match env.msg {
                Message::Heartbeat { .. } | Message::TimeReply { .. } => {}
                Message::Telemetry { .. } => {
                    observe::fold_telemetry(self.courier.party(), &env.msg);
                }
                Message::Join { party, nonce } => {
                    if (party as usize) < self.alive.len() {
                        self.joins.insert(party, nonce);
                    }
                }
                _ => return Ok(Some(env)),
            }
        }
    }

    /// Runs the collects of round `iteration` until `agg` yields its sum.
    /// Each collect has one deadline; heartbeats and discarded frames
    /// never extend it, so a party that stays silent is dropped after
    /// exactly one `round_deadline`.
    fn collect<A: RoundAggregator>(
        &mut self,
        agg: &mut A,
        iteration: u64,
        round_start: Instant,
    ) -> Result<Sum> {
        let mut collect = agg.open(iteration, &self.survivors());
        loop {
            let mut waiting: BTreeSet<PartyId> = collect.from.iter().copied().collect();
            let mut got: BTreeMap<PartyId, Body> = BTreeMap::new();
            let deadline = Instant::now() + self.timing.round_deadline;
            while !waiting.is_empty() {
                let Some(env) = self.next_frame(deadline)? else {
                    break;
                };
                let frame_len = Frame::encoded_len_of(&env.msg);
                let from = env.from;
                let (kind, it, ep, party, body) = share_of(env).map_err(|msg| {
                    protocol(format!(
                        "coordinator expected {:?} frames, got {msg:?} from party {from}",
                        collect.kind
                    ))
                })?;
                if kind != collect.kind {
                    // The backend's other phase, from this round or before.
                    if A::KINDS.contains(&kind) && it <= iteration {
                        continue;
                    }
                    return Err(protocol(format!(
                        "{kind:?} frame for round {it} from party {from} while collecting \
                         {:?} frames for round {iteration}",
                        collect.kind
                    )));
                }
                // Skip parties this collect does not (or no longer) wait
                // for, and frames from before a re-key (masked over the
                // old survivor set) or an earlier round.
                if !waiting.contains(&party) && !got.contains_key(&party)
                    || ep < self.epoch
                    || it < iteration
                {
                    continue;
                }
                if ep > self.epoch || it > iteration {
                    return Err(protocol(format!(
                        "{kind:?} frame from the future: round {it} epoch {ep} while collecting \
                         round {iteration} epoch {}",
                        self.epoch
                    )));
                }
                if body.len() != collect.len {
                    return Err(protocol(format!(
                        "{kind:?} frame length mismatch: expected {}, got {}",
                        collect.len,
                        body.len()
                    )));
                }
                if let Some(existing) = got.get(&party) {
                    // Encoding is deterministic, so a legitimate re-send
                    // is byte-identical to the accepted copy.
                    if *existing == body {
                        continue;
                    }
                    return Err(protocol(format!(
                        "conflicting duplicate {kind:?} frame from party {party}"
                    )));
                }
                waiting.remove(&party);
                self.metrics.bytes_shuffled += frame_len;
                if collect.lag {
                    observe::observe_share_lag(
                        party,
                        iteration,
                        round_start.elapsed().as_nanos() as u64,
                    );
                }
                agg.absorb(party, &body)?;
                got.insert(party, body);
            }
            if !waiting.is_empty() {
                let missing: Vec<PartyId> = waiting.into_iter().collect();
                self.emit(EventKind::DeadlineMiss {
                    iteration,
                    epoch: self.epoch,
                    missing: missing.len() as u32,
                });
                if A::REKEYS {
                    self.lose(missing, iteration)?;
                    collect = agg.open(iteration, &self.survivors());
                    continue;
                }
                self.declare_dropped(&missing, iteration);
            }
            match agg.advance()? {
                Progress::Done(sum) => return Ok(sum),
                Progress::Lost => return Err(self.quorum_lost()),
                Progress::Relay(frames, mut next) => {
                    for (p, msg) in frames {
                        if !self.send(p, &msg)? {
                            next.from.retain(|&q| q != p);
                            self.lose(vec![p], iteration)?;
                        }
                    }
                    collect = next;
                }
            }
        }
    }
}

/// Drives the coordinator (party `learners`) of a distributed linear-SVM
/// run over the backend `agg`. See
/// [`crate::distributed::coordinate_linear_with_recovery`] for the
/// contract.
#[allow(clippy::too_many_arguments)]
pub(crate) fn coordinate<T: Transport, A: RoundAggregator>(
    courier: &mut Courier<T>,
    learners: usize,
    features: usize,
    cfg: &AdmmConfig,
    eval: Option<&Dataset>,
    timing: DistributedTiming,
    recovery: RecoveryOptions,
    mut agg: A,
) -> Result<DistributedOutcome> {
    cfg.validate()?;
    timing.validate()?;
    if learners == 0 {
        return Err(TrainError::BadConfig {
            reason: "need at least one learner".to_string(),
        });
    }
    if (courier.party() as usize) != learners {
        return Err(TrainError::BadConfig {
            reason: format!(
                "coordinator must be party {learners}, got {}",
                courier.party()
            ),
        });
    }
    let m = learners;
    let mut z = vec![0.0; features];
    let mut s = 0.0;
    let mut history = ConvergenceHistory::default();
    let mut start_round = 0;
    let mut run_id = 0;
    let mut run = Coordinator {
        courier,
        timing,
        rekeys: A::REKEYS,
        alive: vec![true; m],
        dropped: Vec::new(),
        epoch: 0,
        metrics: JobMetrics::default(),
        joins: BTreeMap::new(),
    };

    if let Some(ckpt) = &recovery.resume_from {
        ckpt.check_compatible(m, features, cfg.seed)?;
        z = ckpt.z.clone();
        s = ckpt.s;
        history.z_delta = ckpt.z_delta.clone();
        history.accuracy = ckpt.accuracy.clone();
        run.metrics.bytes_broadcast = ckpt.bytes_broadcast as usize;
        run.metrics.bytes_shuffled = ckpt.bytes_shuffled as usize;
        run.alive = vec![false; m];
        for &p in &ckpt.alive {
            run.alive[p as usize] = true;
        }
        run.dropped = ckpt.dropped.clone();
        // Strictly exceed any epoch a learner can hold: after the snapshot
        // the dead incarnation bumped at most once per party it could
        // still drop (≤ m) plus one rejoin batch.
        run.epoch = ckpt.epoch + m as u64 + 2;
        start_round = ckpt.next_round;
        run_id = ckpt.run_id;
    }

    // A resume re-gossips the checkpointed run id so the pre- and
    // post-crash streams correlate into one timeline.
    if telemetry::enabled() {
        if run_id == 0 {
            run_id = telemetry::fresh_run_id();
        }
        run.emit(EventKind::RunInfo { run_id });
        run.clock_sync(run_id);
    }
    if recovery.resume_from.is_some() {
        run.resume(start_round, &z, s)?;
    }

    for iteration in start_round..cfg.max_iter as u64 {
        run.admit(iteration, &z, s)?;
        let round_start = Instant::now();
        let bytes_before = run.metrics.bytes_broadcast + run.metrics.bytes_shuffled;
        run.emit(EventKind::RoundOpen {
            iteration,
            epoch: run.epoch,
        });
        let consensus = Message::Consensus {
            iteration,
            z: z.clone(),
            s: vec![s],
            done: false,
        };
        let lost = run.broadcast(&run.survivors(), &consensus)?;
        run.lose(lost, iteration)?;
        let sum = run.collect(&mut agg, iteration, round_start)?;

        run.emit(EventKind::RoundClose {
            iteration,
            epoch: run.epoch,
            shares: sum.count as u32,
            elapsed_ns: round_start.elapsed().as_nanos() as u64,
        });
        observe::score_round(run.courier.party(), iteration);
        run.emit(EventKind::SecAggRound {
            backend: A::NAME,
            iteration,
            bytes: (run.metrics.bytes_broadcast + run.metrics.bytes_shuffled - bytes_before) as u64,
            elapsed_ns: round_start.elapsed().as_nanos() as u64,
        });
        let count = sum.count as f64;
        let z_new: Vec<f64> = sum.totals[..features].iter().map(|&v| v / count).collect();
        let s_new = sum.totals[features] / count;
        let delta = ppml_linalg::vecops::dist_sq(&z_new, &z);
        z = z_new;
        s = s_new;
        history.z_delta.push(delta);
        if let Some(ds) = eval {
            history
                .accuracy
                .push(LinearSvm::from_parts(z.clone(), s).accuracy(ds));
        }
        if let Some(path) = &recovery.checkpoint_to {
            let ckpt = Checkpoint {
                run_id,
                learners: m as u32,
                features: features as u32,
                seed: cfg.seed,
                next_round: iteration + 1,
                epoch: run.epoch,
                z: z.clone(),
                s,
                alive: run.survivors(),
                dropped: run.dropped.clone(),
                z_delta: history.z_delta.clone(),
                accuracy: history.accuracy.clone(),
                bytes_broadcast: run.metrics.bytes_broadcast as u64,
                bytes_shuffled: run.metrics.bytes_shuffled as u64,
            };
            let bytes = ckpt.save(path)?;
            run.emit(EventKind::CheckpointWrite {
                iteration,
                epoch: run.epoch,
                bytes: bytes as u64,
            });
        }
        if cfg.tol.is_some_and(|tol| delta < tol) {
            break;
        }
    }
    let rounds = history.z_delta.len() as u64;
    run.metrics.iterations = history.z_delta.len();

    // A survivor lost at the final broadcast cannot hurt the model; it is
    // only recorded as dropped.
    let done = Message::Consensus {
        iteration: rounds,
        z: z.clone(),
        s: vec![s],
        done: true,
    };
    let lost = run.broadcast(&run.survivors(), &done)?;
    run.declare_dropped(&lost, rounds);
    Ok(DistributedOutcome {
        model: LinearSvm::from_parts(z, s),
        history,
        metrics: run.metrics,
        dropped: run.dropped,
    })
}

/// Sends `msg` to the coordinator, riding out a coordinator that is
/// mid-restart until `patience` is spent.
fn send_patiently<T: Transport>(
    courier: &mut Courier<T>,
    coordinator: PartyId,
    msg: &Message,
    patience: Duration,
) -> Result<()> {
    let give_up = Instant::now() + patience;
    loop {
        match courier.send_reliable(coordinator, msg) {
            Ok(_) => return Ok(()),
            Err(e) if peer_is_lost(&e) && Instant::now() < give_up => {
                std::thread::sleep(SHARE_RESEND_BACKOFF);
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Emits the learner's `RoundClose` and relays the round's telemetry
/// delta right behind its share (no frame with telemetry off).
fn close_round<T: Transport>(
    courier: &mut Courier<T>,
    relay: &mut TelemetryRelay,
    coordinator: PartyId,
    iteration: u64,
    epoch: u64,
    started: Instant,
) {
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    telemetry::emit(
        courier.party(),
        EventKind::RoundClose {
            iteration,
            epoch,
            shares: 1,
            elapsed_ns,
        },
    );
    relay.report(courier, coordinator, iteration, epoch, elapsed_ns);
}

/// Drives one learner of a distributed linear-SVM run over the backend
/// `codec` builds for this party. See [`crate::distributed::learn_linear`]
/// for the contract; `defect_after` scripts a dropout at the backend's
/// loss point (the defector never sends the frame that completes its
/// contribution), `rejoin` re-enters a run as a restarted process.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub(crate) fn learn<T: Transport, C: ShareCodec>(
    courier: &mut Courier<T>,
    learners: usize,
    data: &Dataset,
    cfg: &AdmmConfig,
    timing: DistributedTiming,
    defect_after: Option<u64>,
    rejoin: bool,
    codec: impl FnOnce(usize) -> Result<C>,
) -> Result<LinearSvm> {
    cfg.validate()?;
    timing.validate()?;
    let party = courier.party();
    if (party as usize) >= learners {
        return Err(TrainError::BadConfig {
            reason: format!("learner party {party} out of range 0..{learners}"),
        });
    }
    let coordinator = learners as PartyId;
    let patience = timing.learner_patience;
    let mut learner = HlLearner::new(data, learners, cfg)?;
    let mut codec = codec(party as usize)?;
    let mut present: Vec<usize> = (0..learners).collect();
    let mut epoch: u64 = 0;
    let mut expected_iter: u64 = 0;
    // Raw share of the last computed round and the epoch it was last sent
    // under, re-encoded without a new QP solve when a re-key or a resumed
    // coordinator asks for it again.
    let mut last_raw: Option<(u64, u64, Vec<f64>)> = None;
    // A round awaiting the backend's second exchange, with its start.
    let mut open: Option<(u64, Instant)> = None;
    // Duals lag one *computed* round, so a learner's first round (round
    // 0, or a rejoiner's re-admission round) skips the dual update.
    let mut dual_ready = false;
    let mut run_id_seen = false;
    let mut relay = TelemetryRelay::new();
    // A restarted learner probes with `Join` until the coordinator (which
    // acts on joins at round boundaries only) welcomes it back; whatever
    // arrives before that predates its re-admission and is only drained.
    let mut joining = rejoin.then(|| telemetry::now_ns() | 1);
    let mut deadline = Instant::now() + patience;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(TrainError::Transport(TransportError::Timeout));
        }
        if let Some(nonce) = joining {
            let _ = courier.send_unreliable(coordinator, &Message::Join { party, nonce });
        }
        let env = match courier.recv(remaining.min(LEARNER_POLL)) {
            Ok(env) => env,
            Err(TransportError::Timeout) => {
                // Over TCP the heartbeat (re-)dials a restarted
                // coordinator; elsewhere it is noise the coordinator drops.
                if joining.is_none() {
                    let heartbeat = Message::Heartbeat {
                        nonce: u64::from(party),
                    };
                    let _ = courier.send_unreliable(coordinator, &heartbeat);
                }
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        if joining.is_some() {
            // Absorbing the Welcome already re-synced the dedup watermark;
            // a reset_peer would drop frames queued right behind it.
            if let Message::Welcome {
                iteration,
                epoch: granted,
                survivors,
                ..
            } = env.msg
            {
                if survivors.contains(&party) {
                    telemetry::emit(party, EventKind::Rejoin { party, iteration });
                    (joining, expected_iter, epoch) = (None, iteration, granted);
                    present = survivors.iter().map(|&p| p as usize).collect();
                    deadline = Instant::now() + patience;
                }
            }
            continue;
        }
        let rekey = matches!(env.msg, Message::Rekey { .. });
        // A round whose cached share the coordinator asks for again.
        let mut resend = None;
        match env.msg {
            // Liveness and observability traffic never refresh patience.
            Message::Heartbeat { .. } => {}
            Message::TimeProbe { nonce, run_id } => {
                if telemetry::enabled() && !run_id_seen {
                    run_id_seen = true;
                    telemetry::emit(party, EventKind::RunInfo { run_id });
                }
                relay.set_run_id(run_id);
                let reply = Message::TimeReply {
                    nonce,
                    t_ns: telemetry::now_ns(),
                };
                let _ = courier.send_unreliable(coordinator, &reply);
            }
            Message::Consensus {
                iteration,
                z,
                s,
                done,
            } => {
                let s = s.first().copied().unwrap_or(0.0);
                if done {
                    return Ok(LinearSvm::from_parts(z, s));
                }
                if iteration < expected_iter {
                    // A stale broadcast is ignored, except that a resumed
                    // coordinator (it announced a newer epoch) re-collecting
                    // the round we last computed lost our share and gets
                    // it again.
                    resend = Some(iteration);
                } else if iteration > expected_iter {
                    return Err(protocol(format!(
                        "consensus skipped ahead to round {iteration} while expecting \
                         {expected_iter}"
                    )));
                } else {
                    expected_iter = iteration + 1;
                    deadline = Instant::now() + patience;
                    // Scripted defection: the frame that would complete this
                    // learner's contribution never goes out; draining goes on
                    // until the coordinator drops us and patience runs out.
                    let defecting = defect_after.is_some_and(|d| iteration >= d);
                    if defecting && !C::TWO_PHASE {
                        continue;
                    }
                    telemetry::emit(party, EventKind::RoundOpen { iteration, epoch });
                    let started = Instant::now();
                    observe::injected_lag_sleep();
                    // Same step order as `ConsensusJob::map`.
                    if dual_ready {
                        learner.dual_update(&z, s);
                    }
                    learner.local_step(&z, s, &cfg.qp)?;
                    dual_ready = true;
                    let raw = learner.share();
                    let share = codec.encode(&raw, iteration, epoch, &present)?;
                    send_patiently(courier, coordinator, &share, patience)?;
                    last_raw = Some((iteration, epoch, raw));
                    deadline = Instant::now() + patience;
                    if !C::TWO_PHASE {
                        close_round(courier, &mut relay, coordinator, iteration, epoch, started);
                    } else if !defecting {
                        open = Some((iteration, started));
                    }
                }
            }
            // A re-key after a dropout or an admission, or the Welcome of a
            // coordinator resumed from a checkpoint. Only a strictly newer
            // epoch applies; an equal one (every Welcome of a backend that
            // never re-keys) still shows the coordinator is alive.
            Message::Rekey {
                iteration,
                epoch: new_epoch,
                survivors,
            }
            | Message::Welcome {
                iteration,
                epoch: new_epoch,
                survivors,
                ..
            } => {
                if new_epoch < epoch {
                    continue;
                }
                deadline = Instant::now() + patience;
                if new_epoch == epoch {
                    continue;
                }
                if !survivors.contains(&party) {
                    return Err(protocol(format!(
                        "epoch {new_epoch} for round {iteration} excludes this learner"
                    )));
                }
                epoch = new_epoch;
                present = survivors.iter().map(|&p| p as usize).collect();
                // Never move backwards: a Welcome for a round we already
                // computed means the coordinator lost our share, and its
                // rebroadcast of that round takes the re-send path above.
                expected_iter = expected_iter.max(iteration);
                telemetry::emit(
                    party,
                    EventKind::RekeyEpoch {
                        iteration,
                        epoch,
                        survivors: survivors.len() as u32,
                    },
                );
                // A mid-collect re-key names the round we just sent for,
                // whose share goes out again over the survivors; a boundary
                // re-key names the upcoming round.
                if rekey {
                    resend = Some(iteration);
                }
            }
            other => {
                if let Some((iteration, reply)) = codec.answer(other, expected_iter)? {
                    // A two-phase reply closes the open round; a defector
                    // never opened it, so nothing goes out.
                    let closing = open.take_if(|(it, _)| *it == iteration);
                    if C::TWO_PHASE && closing.is_none() {
                        continue;
                    }
                    send_patiently(courier, coordinator, &reply, patience)?;
                    if let Some((_, started)) = closing {
                        close_round(courier, &mut relay, coordinator, iteration, epoch, started);
                    }
                    deadline = Instant::now() + patience;
                }
            }
        }
        if let Some((it, sent, raw)) = last_raw
            .as_mut()
            .filter(|(it, sent, _)| resend == Some(*it) && *sent < epoch)
        {
            let share = codec.encode(raw, *it, epoch, &present)?;
            send_patiently(courier, coordinator, &share, patience)?;
            *sent = epoch;
            deadline = Instant::now() + patience;
        }
    }
}
