//! Single-fault enumeration over the distributed ADMM round: m = 3
//! learners, 3 rounds, every secure-aggregation backend, on the loopback
//! fault hub.
//!
//! A fault-free run of each backend is recorded frame by frame. Then:
//!
//! * every data frame the reference put on the wire — each `(sender,
//!   receiver, sequence number)` — is dropped, duplicated and delayed
//!   once, each in its own run. The ARQ and the round's stale and
//!   duplicate filters must absorb the fault: every run ends bit-identical
//!   to the reference (coordinator model, `z_delta`, every learner's
//!   model) with nobody dropped;
//! * every party, the coordinator included, is killed after each of its
//!   own countable frames. Every run must end within [`KILL_BOUND`],
//!   either with one model that every finishing party agrees on bit for
//!   bit and at most the victim dropped, or with a typed error. (A killed
//!   coordinator still returns in process; since it is the victim, the
//!   learners it can no longer hear from may show up in its `dropped`.)
//!
//! The reference's per-party frame-kind sequence is pinned as well, so a
//! change to the round's wire shape (which would also move every
//! `kill_party_after` index) fails here first.
//!
//! Runs execute a few at a time on worker threads: they spend nearly all
//! of their time waiting on deadlines and patience clocks, not computing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ppml::core::distributed::feature_count;
use ppml::core::secagg::{coordinate_linear_secagg, learn_linear_secagg};
use ppml::core::{AdmmConfig, DistributedOutcome, DistributedTiming, SecAggConfig, TrainError};
use ppml::data::{synth, Dataset, Partition};
use ppml::svm::LinearSvm;
use ppml::transport::{
    Courier, Envelope, HubStats, LinkFilter, LinkStats, LoopbackHub, Message, NetFaultPlan,
    PartyId, RetryPolicy, SendReceipt, Transport, TransportError,
};

const M: usize = 3;
const ROUNDS: usize = 3;
const COORDINATOR: PartyId = M as PartyId;
/// Runs in flight at once.
const WORKERS: usize = 4;
/// Wall-clock budget of one kill run, coordinator and learners included.
/// The slowest legitimate run waits out one learner patience after two
/// round deadlines (a Paillier round whose authority died).
const KILL_BOUND: Duration = Duration::from_secs(12);
/// Budget of one drop/duplicate/delay run: a single retransmission.
const FAULT_BOUND: Duration = Duration::from_secs(12);

/// Timing for the drop/duplicate/delay runs: far above anything one lost
/// frame costs, so a deadline miss can only mean the fault broke the
/// round.
fn calm() -> DistributedTiming {
    DistributedTiming::default()
        .with_round_deadline(Duration::from_secs(3))
        .with_learner_patience(Duration::from_secs(8))
}

/// Timing for the kill runs: short deadlines so a death is detected fast,
/// patience well above a round that waits out two of them.
fn twitchy() -> DistributedTiming {
    DistributedTiming::default()
        .with_round_deadline(Duration::from_millis(300))
        .with_learner_patience(Duration::from_millis(1500))
}

/// A slightly longer ARQ budget than `fast_local`, so several concurrent
/// runs on a small host never mistake a descheduled peer for a dead one.
fn retry() -> RetryPolicy {
    RetryPolicy::new(7, Duration::from_millis(2), Duration::from_millis(60))
}

fn setup() -> (Vec<Dataset>, AdmmConfig) {
    let ds = synth::blobs(96, 7);
    let parts = Partition::horizontal(&ds, M, 2).expect("partition");
    let cfg = AdmmConfig::default().with_max_iter(ROUNDS).with_seed(5);
    (parts, cfg)
}

/// One frame as its sender put it on the wire.
#[derive(Debug, Clone, Copy)]
struct Sent {
    from: PartyId,
    to: PartyId,
    seq: u64,
    kind: u8,
    /// A protocol original: what `kill_party_after` counts.
    countable: bool,
}

/// Records every frame its party sends.
struct Tap<T: Transport> {
    inner: T,
    log: Arc<Mutex<Vec<Sent>>>,
}

impl<T: Transport> Transport for Tap<T> {
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
        let noise = matches!(
            msg,
            Message::Ack { .. }
                | Message::Heartbeat { .. }
                | Message::TimeProbe { .. }
                | Message::TimeReply { .. }
        );
        self.log.lock().expect("tap").push(Sent {
            from: self.inner.party(),
            to,
            seq,
            kind: msg.kind(),
            countable: !noise && flags == 0,
        });
        self.inner.send_raw(to, msg, seq, flags)
    }
    fn recv(&mut self, timeout: Duration) -> Result<Envelope, TransportError> {
        self.inner.recv(timeout)
    }
    fn stats(&self) -> LinkStats {
        self.inner.stats()
    }
    fn send(&mut self, to: PartyId, msg: &Message) -> Result<SendReceipt, TransportError> {
        let seq = self.next_seq(to);
        let bytes = self.send_raw(to, msg, seq, 0)?;
        Ok(SendReceipt { seq, bytes })
    }
}

struct Run {
    outcome: Result<DistributedOutcome, TrainError>,
    learners: Vec<Result<LinearSvm, TrainError>>,
    sent: Vec<Sent>,
    stats: HubStats,
}

/// One star-topology run: learners on threads, the coordinator on the
/// calling thread.
fn run(
    parts: &[Dataset],
    cfg: &AdmmConfig,
    secagg: SecAggConfig,
    plan: NetFaultPlan,
    timing: DistributedTiming,
) -> Run {
    let hub = LoopbackHub::with_faults(M + 1, plan);
    let log = Arc::new(Mutex::new(Vec::new()));
    let courier = |p: PartyId| {
        Courier::new(
            Tap {
                inner: hub.endpoint(p),
                log: Arc::clone(&log),
            },
            retry(),
        )
    };
    let handles: Vec<_> = parts
        .iter()
        .enumerate()
        .map(|(p, part)| {
            let mut c = courier(p as PartyId);
            let part = part.clone();
            let cfg = *cfg;
            thread::spawn(move || learn_linear_secagg(&mut c, M, &part, &cfg, timing, secagg))
        })
        .collect();
    let features = feature_count(parts).expect("partitions");
    let outcome = coordinate_linear_secagg(
        &mut courier(COORDINATOR),
        M,
        features,
        cfg,
        None,
        timing,
        secagg,
    );
    let learners = handles
        .into_iter()
        .map(|h| h.join().expect("learner thread"))
        .collect();
    let sent = log.lock().expect("tap").clone();
    Run {
        outcome,
        learners,
        sent,
        stats: hub.stats(),
    }
}

/// One enumerated case: a name for failure messages and its fault plan.
struct Case {
    name: String,
    plan: NetFaultPlan,
}

/// Runs every case (a few at a time), failing the test if one outlives
/// `bound`, and hands each finished run to `check`.
fn sweep(
    parts: &[Dataset],
    cfg: &AdmmConfig,
    secagg: SecAggConfig,
    timing: DistributedTiming,
    bound: Duration,
    cases: Vec<Case>,
    check: impl Fn(&str, Run) + Sync,
) {
    let next = AtomicUsize::new(0);
    thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(case) = cases.get(i) else { break };
                let (tx, rx) = mpsc::channel();
                let (parts, cfg, plan) = (parts.to_vec(), *cfg, case.plan.clone());
                let started = Instant::now();
                // Detached, so a hung run fails the test instead of
                // wedging it.
                thread::spawn(move || {
                    let _ = tx.send(run(&parts, &cfg, secagg, plan, timing));
                });
                let result = rx
                    .recv_timeout(bound)
                    .unwrap_or_else(|_| panic!("{}: still running after {bound:?}", case.name));
                assert!(
                    started.elapsed() <= bound,
                    "{}: took {:?}",
                    case.name,
                    started.elapsed()
                );
                check(&case.name, result);
            });
        }
    });
}

/// Frame kinds each party sends in a fault-free run, in order.
fn kinds_by_party(sent: &[Sent]) -> BTreeMap<PartyId, Vec<u8>> {
    let mut out: BTreeMap<PartyId, Vec<u8>> = BTreeMap::new();
    for s in sent.iter().filter(|s| s.countable) {
        out.entry(s.from).or_default().push(s.kind);
    }
    out
}

/// The wire shape of one fault-free run, per backend: coordinator frame
/// kinds, authority (learner 0) kinds, other learners' kinds.
fn expected_kinds(secagg: SecAggConfig) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    const CONSENSUS: u8 = 7;
    let per_learner = |kinds: &[u8]| kinds.repeat(ROUNDS);
    let mut coordinator = Vec::new();
    let (authority, learner) = match secagg.kind.as_str() {
        "pairwise" => {
            for _ in 0..ROUNDS {
                coordinator.extend([CONSENSUS; M]);
            }
            (per_learner(&[6]), per_learner(&[6]))
        }
        "shamir" => {
            for _ in 0..ROUNDS {
                coordinator.extend([CONSENSUS; M]);
                coordinator.extend([19; M]);
            }
            (per_learner(&[18, 8]), per_learner(&[18, 8]))
        }
        _ => {
            for _ in 0..ROUNDS {
                coordinator.extend([CONSENSUS; M]);
                coordinator.push(21);
            }
            (per_learner(&[20, 22]), per_learner(&[20]))
        }
    };
    coordinator.extend([CONSENSUS; M]);
    (coordinator, authority, learner)
}

fn enumerate(secagg: SecAggConfig) {
    let (parts, cfg) = setup();
    let name = secagg.kind.as_str();

    let reference = run(&parts, &cfg, secagg, NetFaultPlan::none(), calm());
    let ref_outcome = reference.outcome.expect("fault-free run");
    assert!(ref_outcome.dropped.is_empty(), "{name}: fault-free dropout");
    assert_eq!(ref_outcome.history.z_delta.len(), ROUNDS, "{name}");
    for (p, model) in reference.learners.iter().enumerate() {
        assert_eq!(
            model.as_ref().expect("fault-free learner"),
            &ref_outcome.model,
            "{name}: learner {p}"
        );
    }
    let kinds = kinds_by_party(&reference.sent);
    let (coordinator, authority, learner) = expected_kinds(secagg);
    assert_eq!(
        kinds[&COORDINATOR], coordinator,
        "{name}: coordinator frames"
    );
    assert_eq!(kinds[&0], authority, "{name}: learner 0 frames");
    for p in 1..M as PartyId {
        assert_eq!(kinds[&p], learner, "{name}: learner {p} frames");
    }

    // Drop, duplicate and delay every data frame once.
    let mut last_seq: BTreeMap<(PartyId, PartyId), u64> = BTreeMap::new();
    for s in reference.sent.iter().filter(|s| s.seq > 0) {
        let top = last_seq.entry((s.from, s.to)).or_default();
        *top = (*top).max(s.seq);
    }
    let mut cases = Vec::new();
    for (&(from, to), &top) in &last_seq {
        for seq in 1..=top {
            let at = LinkFilter::any().from(from).to(to).seq_at_least(seq);
            for (fault, plan) in [
                ("drop", NetFaultPlan::none().drop_frames(at, 1)),
                ("dup", NetFaultPlan::none().duplicate_frames(at, 1)),
                ("delay", NetFaultPlan::none().delay_frames(at, 1, 2)),
            ] {
                cases.push(Case {
                    name: format!("{name}: {fault} {from}->{to} seq {seq}"),
                    plan,
                });
            }
        }
    }
    assert!(cases.len() >= 3 * 2 * M * ROUNDS, "{name}: {}", cases.len());
    sweep(
        &parts,
        &cfg,
        secagg,
        calm(),
        FAULT_BOUND,
        cases,
        |case, run| {
            let fired = run.stats.dropped + run.stats.duplicated + run.stats.delayed;
            assert!(fired >= 1, "{case}: the fault never fired");
            let outcome = run
                .outcome
                .unwrap_or_else(|e| panic!("{case}: coordinator failed: {e}"));
            assert_eq!(outcome.model, ref_outcome.model, "{case}");
            assert_eq!(
                outcome.history.z_delta, ref_outcome.history.z_delta,
                "{case}"
            );
            assert!(outcome.dropped.is_empty(), "{case}: {:?}", outcome.dropped);
            for (p, model) in run.learners.into_iter().enumerate() {
                let model = model.unwrap_or_else(|e| panic!("{case}: learner {p}: {e}"));
                assert_eq!(model, ref_outcome.model, "{case}: learner {p}");
            }
        },
    );

    // Kill every party after each of its own countable frames.
    let mut cases = Vec::new();
    for victim in 0..=COORDINATOR {
        let frames = reference
            .sent
            .iter()
            .filter(|s| s.from == victim && s.countable)
            .count() as u32;
        for after in 0..=frames {
            cases.push(Case {
                name: format!("{name}: kill party {victim} after {after} frames"),
                plan: NetFaultPlan::none().kill_party_after(victim, after),
            });
        }
    }
    sweep(
        &parts,
        &cfg,
        secagg,
        twitchy(),
        KILL_BOUND,
        cases,
        |case, run| {
            let victim: PartyId = case
                .split("kill party ")
                .nth(1)
                .and_then(|rest| rest.split(' ').next())
                .and_then(|v| v.parse().ok())
                .expect("victim in case name");
            match run.outcome {
                // A killed coordinator still runs to completion in
                // process, but it is the victim: every learner it can no
                // longer hear from is legitimately dropped, and only the
                // learners that finish have to agree with its model.
                Ok(outcome) => {
                    assert!(
                        victim == COORDINATOR || outcome.dropped.iter().all(|&p| p == victim),
                        "{case}: dropped {:?}",
                        outcome.dropped
                    );
                    for (p, model) in run.learners.iter().enumerate() {
                        if let Ok(model) = model {
                            assert_eq!(model, &outcome.model, "{case}: learner {p}");
                        } else {
                            assert!(
                                victim == COORDINATOR || p as PartyId == victim,
                                "{case}: survivor {p} failed: {model:?}"
                            );
                        }
                    }
                }
                Err(e) => {
                    assert!(
                        matches!(e, TrainError::Dropped { .. } | TrainError::Transport(_)),
                        "{case}: coordinator failed with {e:?}"
                    );
                    for (p, model) in run.learners.iter().enumerate() {
                        assert!(
                            matches!(model, Err(TrainError::Transport(_))),
                            "{case}: learner {p} ended with {model:?} under a failed run"
                        );
                    }
                }
            }
        },
    );
}

#[test]
fn every_single_fault_under_pairwise_ends_identical_or_typed() {
    enumerate(SecAggConfig::pairwise());
}

#[test]
fn every_single_fault_under_shamir_ends_identical_or_typed() {
    enumerate(SecAggConfig::shamir());
}

#[test]
fn every_single_fault_under_paillier_ends_identical_or_typed() {
    enumerate(SecAggConfig::paillier());
}
