//! Distributed HL-SVM training over a real [`Transport`] — the paper's
//! Fig. 2 star topology with actual message passing instead of the
//! simulated cluster of [`crate::jobs`] — under the §V pairwise masking
//! scheme. The round itself (deadlines, dropout, rejoin, resume,
//! telemetry, the `z`-update) is one engine shared with the Shamir and
//! Paillier backends of [`crate::secagg`]; this module supplies the
//! pairwise backend and the public entry points.
//!
//! * **Learners** (parties `0..m`) each hold one horizontal partition.
//!   Per round they receive the consensus broadcast, run the local ADMM
//!   step, mask their share ([`SeededMasker`]) and send it to the
//!   coordinator.
//! * **Coordinator** (party `m`) plays the reducer: it broadcasts
//!   `(z, s)`, collects one masked share per learner, wrapping-sums them
//!   (the masks cancel), decodes the consensus update, and repeats until
//!   `cfg.max_iter` or `cfg.tol`. A final `done` broadcast carries the
//!   model to the learners so they can exit.
//!
//! The coordinator only ever sees masked shares and their cancelled sum;
//! the wire changes the failure model (frames can drop — the [`Courier`]
//! ARQ recovers), not the privacy argument.
//!
//! **Dropout.** A learner is dropped when a reliable send to it exhausts
//! its retries or a collect's deadline
//! ([`DistributedTiming::round_deadline`], never extended by
//! heartbeats) passes without its share. The coordinator then sends
//! [`Message::Rekey`] naming the survivors, who re-mask their cached
//! share over that set under a new `epoch` (pair seeds derive from
//! `(seed, lo, hi)`, so this is local recomputation) and re-send it;
//! shares from an older epoch are discarded. Learners give up after
//! [`DistributedTiming::learner_patience`] without a protocol frame,
//! heartbeating meanwhile so a restarted coordinator is re-dialed.
//!
//! **Recovery.** [`RecoveryOptions`] adds per-round [`Checkpoint`]s and
//! resume: a restarted coordinator re-welcomes the survivors under a
//! bumped epoch, and a learner that already computed the re-collected
//! round re-sends its cached share, so the resumed run reproduces the
//! uninterrupted one bit for bit. A restarted learner calls
//! [`rejoin_linear`] and is re-admitted at a round boundary with zeroed
//! duals and a re-key over the enlarged set (`DESIGN.md` §8).
//!
//! **Determinism.** Fixed-point wrapping sums are associative and
//! mask-independent, so a run reproduces
//! [`crate::jobs::train_linear_on_cluster`] **bit for bit**; the tests
//! below assert it, including under injected learner kills against an
//! in-process reference that drops the same party at the same round.

use std::path::PathBuf;

use ppml_crypto::FixedPointCodec;
use ppml_data::Dataset;
use ppml_mapreduce::JobMetrics;
use ppml_svm::LinearSvm;
use ppml_transport::{Courier, Message, PartyId, Transport};

use crate::checkpoint::Checkpoint;
use crate::config::{AdmmConfig, DistributedTiming};
#[cfg(any(test, doc))]
use crate::error::TrainError;
use crate::history::ConvergenceHistory;
use crate::horizontal::linear::validate_parts;
use crate::masks::SeededMasker;
use crate::round::{self, Body, Collect, Progress, RoundAggregator, ShareCodec, ShareKind, Sum};
use crate::Result;

/// Result of a coordinated distributed training run.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// The consensus model after the final round.
    pub model: LinearSvm,
    /// Per-iteration `‖z_{t+1} − z_t‖²` (and accuracy when evaluating).
    pub history: ConvergenceHistory,
    /// Network cost: `bytes_broadcast` counts every coordinator frame put
    /// on the wire (consensus and re-key broadcasts, retransmits
    /// included), `bytes_shuffled` the encoded size of each accepted
    /// learner share.
    pub metrics: JobMetrics,
    /// Learners declared dead during the run, in drop order. Empty on a
    /// clean run.
    pub dropped: Vec<PartyId>,
}

/// Crash-recovery knobs for [`coordinate_linear_with_recovery`]: where
/// to write per-round checkpoints, and optionally a checkpoint to resume
/// from instead of starting at round 0. The default (no checkpointing,
/// no resume) reproduces [`coordinate_linear`] exactly.
#[derive(Debug, Clone, Default)]
pub struct RecoveryOptions {
    /// Write a crash-consistent [`Checkpoint`] here after every accepted
    /// round (atomic write-temp → fsync → rename; see
    /// [`Checkpoint::save`]).
    pub checkpoint_to: Option<PathBuf>,
    /// Resume a crashed run from this (already loaded and validated)
    /// checkpoint: restore the iterate and roster, bump the epoch past
    /// anything a learner can hold, re-welcome the survivors, and
    /// continue at the checkpointed round.
    pub resume_from: Option<Checkpoint>,
}

impl RecoveryOptions {
    /// Enables per-round checkpoint writes to `path`.
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_to = Some(path.into());
        self
    }

    /// Resumes the run recorded in `ckpt` instead of starting fresh.
    #[must_use]
    pub fn with_resume(mut self, ckpt: Checkpoint) -> Self {
        self.resume_from = Some(ckpt);
        self
    }
}

/// Coordinator side of §V pairwise masking: the masks cancel in the
/// wrapping sum, so the round total is the decoded sum of the shares. A
/// dropout leaves the survivors' masks uncancelled, hence the re-key.
struct PairwiseRound {
    codec: FixedPointCodec,
    sum: Vec<u64>,
    count: usize,
}

impl RoundAggregator for PairwiseRound {
    const NAME: &'static str = "pairwise";
    const KINDS: &'static [ShareKind] = &[ShareKind::Masked];
    const REKEYS: bool = true;

    fn open(&mut self, _round: u64, survivors: &[PartyId]) -> Collect {
        self.sum.fill(0);
        self.count = 0;
        Collect {
            kind: ShareKind::Masked,
            from: survivors.to_vec(),
            len: self.sum.len(),
            lag: true,
        }
    }

    fn absorb(&mut self, _party: PartyId, body: &Body) -> Result<()> {
        if let Body::Words(share) = body {
            for (acc, &v) in self.sum.iter_mut().zip(share) {
                *acc = acc.wrapping_add(v);
            }
        }
        self.count += 1;
        Ok(())
    }

    fn advance(&mut self) -> Result<Progress> {
        Ok(Progress::Done(Sum {
            totals: self.sum.iter().map(|&v| self.codec.decode_u64(v)).collect(),
            count: self.count,
        }))
    }
}

/// Learner side of §V pairwise masking: the share, masked over the
/// current survivor set.
impl ShareCodec for SeededMasker {
    const TWO_PHASE: bool = false;

    fn encode(
        &mut self,
        raw: &[f64],
        iteration: u64,
        epoch: u64,
        present: &[usize],
    ) -> Result<Message> {
        Ok(Message::MaskedShare {
            iteration,
            epoch,
            party: self.party() as PartyId,
            payload: self.mask_share_among(raw, iteration, present)?,
        })
    }
}

/// Drives the coordinator side of distributed HL-SVM training.
///
/// `courier` must be the endpoint for party `learners` (the coordinator
/// sits one past the last learner); `features` is the shared feature
/// count `k` (shares are `k + 1` long: weights plus intercept).
///
/// # Errors
///
/// [`TrainError::Dropped`] when every learner dies before the run
/// finishes, [`TrainError::Transport`] on non-timeout fabric failures,
/// [`TrainError::Protocol`] on malformed or out-of-round frames, plus
/// the usual configuration errors. A learner that merely times out is
/// not an error: it is dropped, the round is re-keyed, and training
/// continues on the survivors (reported in
/// [`DistributedOutcome::dropped`]).
pub fn coordinate_linear<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    features: usize,
    cfg: &AdmmConfig,
    eval: Option<&Dataset>,
    timing: DistributedTiming,
) -> Result<DistributedOutcome> {
    coordinate_linear_with_recovery(
        courier,
        learners,
        features,
        cfg,
        eval,
        timing,
        RecoveryOptions::default(),
    )
}

/// [`coordinate_linear`] with crash recovery: optional per-round
/// checkpoint writes and optional resume from a checkpoint (see
/// [`RecoveryOptions`] and the module docs). Mid-run [`Message::Join`]
/// probes from restarted learners are honored either way — re-admission
/// happens at the next round boundary.
///
/// # Errors
///
/// As [`coordinate_linear`], plus [`TrainError::Checkpoint`] when a
/// checkpoint cannot be written or the resume checkpoint does not match
/// this run's `learners`/`features`/`seed`.
pub fn coordinate_linear_with_recovery<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    features: usize,
    cfg: &AdmmConfig,
    eval: Option<&Dataset>,
    timing: DistributedTiming,
    recovery: RecoveryOptions,
) -> Result<DistributedOutcome> {
    round::coordinate(
        courier,
        learners,
        features,
        cfg,
        eval,
        timing,
        recovery,
        PairwiseRound {
            codec: FixedPointCodec::default(),
            sum: vec![0; features + 1],
            count: 0,
        },
    )
}

/// Drives one learner of distributed HL-SVM training.
///
/// `courier` must be the endpoint for a party in `0..learners`; `data`
/// is this learner's horizontal partition. Blocks until the coordinator
/// (party `learners`) sends the `done` broadcast, then returns the
/// consensus model it carried.
///
/// # Errors
///
/// [`TrainError::Transport`] when the coordinator goes quiet past
/// [`DistributedTiming::learner_patience`] (heartbeats do not count as
/// liveness) or a send exhausts its retries, [`TrainError::Protocol`]
/// on unexpected frames, plus the partition/config errors of the
/// in-process trainer.
pub fn learn_linear<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    data: &Dataset,
    cfg: &AdmmConfig,
    timing: DistributedTiming,
) -> Result<LinearSvm> {
    learn_pairwise(courier, learners, data, cfg, timing, None, false)
}

/// Re-admission variant of [`learn_linear`] for a restarted learner
/// process: probes the coordinator with [`Message::Join`] until it
/// answers with a [`Message::Welcome`], then participates from the
/// granted round onward. The rejoiner warm-starts with zeroed duals
/// (see `DESIGN.md` §8 for the convergence impact); the §V re-key on
/// admission makes its masks valid for the enlarged survivor set and
/// teaches it nothing about the rounds it missed.
///
/// # Errors
///
/// [`TrainError::Transport`] with a timeout when no Welcome arrives
/// within [`DistributedTiming::learner_patience`]; otherwise as
/// [`learn_linear`].
pub fn rejoin_linear<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    data: &Dataset,
    cfg: &AdmmConfig,
    timing: DistributedTiming,
) -> Result<LinearSvm> {
    learn_pairwise(courier, learners, data, cfg, timing, None, true)
}

/// Fault-injection variant of [`learn_linear`]: behaves correctly for
/// rounds `0..defect_after`, then goes *silent* — it keeps receiving
/// (and therefore ACKing) every frame, so the coordinator's broadcasts
/// still succeed and the dropout can only be detected by the round
/// deadline in the collect phase, producing the canonical
/// DeadlineMiss → Dropout → RekeyEpoch sequence on the coordinator's
/// stream. The tests and the `--defect-after` flag of `ppml-learner`
/// use this to script that scenario deterministically.
///
/// # Errors
///
/// The expected exit is [`TrainError::Transport`] with a timeout once
/// the coordinator has dropped this learner and stopped talking to it;
/// other errors as [`learn_linear`].
pub fn learn_linear_with_defect<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    data: &Dataset,
    cfg: &AdmmConfig,
    timing: DistributedTiming,
    defect_after: u64,
) -> Result<LinearSvm> {
    learn_pairwise(
        courier,
        learners,
        data,
        cfg,
        timing,
        Some(defect_after),
        false,
    )
}

/// The pairwise learner behind every public learner entry point.
pub(crate) fn learn_pairwise<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    data: &Dataset,
    cfg: &AdmmConfig,
    timing: DistributedTiming,
    defect_after: Option<u64>,
    rejoin: bool,
) -> Result<LinearSvm> {
    round::learn(
        courier,
        learners,
        data,
        cfg,
        timing,
        defect_after,
        rejoin,
        |party| Ok(SeededMasker::new(cfg.seed, party, learners)),
    )
}

/// Validates a set of horizontal partitions and returns the feature
/// count, for callers that need `features` before spawning a
/// coordinator. Re-exported from the trainer internals.
pub fn feature_count(parts: &[Dataset]) -> Result<usize> {
    validate_parts(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::horizontal::linear::HlLearner;
    use crate::jobs::{train_linear_on_cluster, ClusterTuning};
    use ppml_data::{synth, Partition};
    use ppml_transport::{
        Frame, LinkFilter, LoopbackHub, NetFaultPlan, RetryPolicy, TransportError,
    };
    use std::thread;
    use std::time::Duration;

    fn calm() -> DistributedTiming {
        DistributedTiming::default()
    }

    /// Tight clocks for fault tests: one deadline's worth of waiting per
    /// dropout, and learners that give up on a dead coordinator fast.
    fn twitchy() -> DistributedTiming {
        DistributedTiming::default()
            .with_round_deadline(Duration::from_millis(800))
            .with_learner_patience(Duration::from_secs(2))
    }

    struct DistRun {
        outcome: Result<DistributedOutcome>,
        finals: Vec<Result<LinearSvm>>,
    }

    fn run_with_faults(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        faults: NetFaultPlan,
        timing: DistributedTiming,
    ) -> DistRun {
        let m = parts.len();
        let features = feature_count(parts).expect("partitions");
        let hub = LoopbackHub::with_faults(m + 1, faults);
        let mut handles = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            let mut courier = Courier::new(hub.endpoint(p as PartyId), RetryPolicy::fast_local());
            let part = part.clone();
            let cfg = *cfg;
            handles.push(thread::spawn(move || {
                learn_linear(&mut courier, m, &part, &cfg, timing)
            }));
        }
        let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
        let outcome = coordinate_linear(&mut courier, m, features, cfg, None, timing);
        let finals = handles
            .into_iter()
            .map(|h| h.join().expect("learner thread"))
            .collect();
        DistRun { outcome, finals }
    }

    fn run_distributed(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        faults: NetFaultPlan,
    ) -> (DistributedOutcome, Vec<LinearSvm>) {
        let run = run_with_faults(parts, cfg, faults, calm());
        (
            run.outcome.expect("coordinator"),
            run.finals
                .into_iter()
                .map(|f| f.expect("learner"))
                .collect(),
        )
    }

    /// In-process replica of a run where each `(party, round)` in `drops`
    /// stops contributing from `round` on. Mirrors the wire protocol's
    /// arithmetic exactly: per-round fixed-point encode, wrapping sum
    /// over the active set, decode, divide by the active count.
    fn reference_with_dropouts(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        drops: &[(usize, u64)],
    ) -> LinearSvm {
        reference_with_membership(parts, cfg, drops, &[])
    }

    /// [`reference_with_dropouts`] plus re-admissions: each `(party,
    /// round)` in `rejoins` re-enters at `round` as a *fresh* process —
    /// new learner state, zeroed duals. `computed` gates the dual update
    /// per learner exactly as `dual_ready` does on the wire.
    fn reference_with_membership(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        drops: &[(usize, u64)],
        rejoins: &[(usize, u64)],
    ) -> LinearSvm {
        let m = parts.len();
        let features = feature_count(parts).expect("partitions");
        let codec = ppml_crypto::FixedPointCodec::default();
        let mut learners: Vec<HlLearner> = parts
            .iter()
            .map(|p| HlLearner::new(p, m, cfg).expect("learner"))
            .collect();
        let mut computed = vec![false; m];
        let mut z = vec![0.0; features];
        let mut s = 0.0;
        for it in 0..cfg.max_iter as u64 {
            for &(p, r) in rejoins {
                if r == it {
                    learners[p] = HlLearner::new(&parts[p], m, cfg).expect("learner");
                    computed[p] = false;
                }
            }
            let active: Vec<usize> = (0..m)
                .filter(|&p| {
                    let gone = drops.iter().any(|&(dp, dr)| dp == p && it >= dr);
                    let back = rejoins.iter().any(|&(rp, rr)| rp == p && it >= rr);
                    !gone || back
                })
                .collect();
            let mut summed = vec![0u64; features + 1];
            for &p in &active {
                if computed[p] {
                    learners[p].dual_update(&z, s);
                }
                learners[p].local_step(&z, s, &cfg.qp).expect("qp");
                computed[p] = true;
                for (acc, v) in summed.iter_mut().zip(learners[p].share()) {
                    *acc = acc.wrapping_add(codec.encode_u64(v).expect("encode"));
                }
            }
            let z_new: Vec<f64> = summed[..features]
                .iter()
                .map(|&v| codec.decode_u64(v) / active.len() as f64)
                .collect();
            let s_new = codec.decode_u64(summed[features]) / active.len() as f64;
            let delta = ppml_linalg::vecops::dist_sq(&z_new, &z);
            z = z_new;
            s = s_new;
            if let Some(tol) = cfg.tol {
                if delta < tol {
                    break;
                }
            }
        }
        LinearSvm::from_parts(z, s)
    }

    #[test]
    fn distributed_matches_cluster_exactly() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(12).with_seed(11);

        let (outcome, finals) = run_distributed(&parts, &cfg, NetFaultPlan::none());
        let (reference, _) =
            train_linear_on_cluster(&parts, &cfg, None, ClusterTuning::default()).expect("cluster");

        // Fixed-point wrapping sums make the runs bit-identical.
        assert_eq!(outcome.model, reference.model);
        assert_eq!(outcome.history.z_delta, reference.history.z_delta);
        assert!(outcome.dropped.is_empty());
        // Every learner saw the same final consensus.
        for f in &finals {
            assert_eq!(*f, outcome.model);
        }
    }

    #[test]
    fn metrics_count_exact_frame_bytes() {
        let ds = synth::blobs(64, 1);
        let parts = Partition::horizontal(&ds, 2, 2).expect("partition");
        let features = feature_count(&parts).expect("partitions");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(3);

        let (outcome, _) = run_distributed(&parts, &cfg, NetFaultPlan::none());
        let m = parts.len();
        let rounds = outcome.metrics.iterations;

        // On a clean network every frame is sent exactly once, so the
        // counters must equal the encoded frame sizes computed offline.
        let consensus_len = |iteration: u64, done: bool| {
            Frame::encoded_len_of(&Message::Consensus {
                iteration,
                z: vec![0.0; features],
                s: vec![0.0],
                done,
            })
        };
        let share_len = Frame::encoded_len_of(&Message::MaskedShare {
            iteration: 0,
            epoch: 0,
            party: 0,
            payload: vec![0; features + 1],
        });
        let expect_broadcast: usize = (0..rounds as u64)
            .map(|it| m * consensus_len(it, false))
            .sum::<usize>()
            + m * consensus_len(rounds as u64, true);
        assert_eq!(outcome.metrics.bytes_broadcast, expect_broadcast);
        assert_eq!(outcome.metrics.bytes_shuffled, rounds * m * share_len);
        assert_eq!(
            outcome.metrics.total_network_bytes(),
            expect_broadcast + rounds * m * share_len
        );
    }

    #[test]
    fn survives_dropped_shares_and_broadcasts() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(12).with_seed(11);

        let (clean, _) = run_distributed(&parts, &cfg, NetFaultPlan::none());
        // Drop the first two shares from learner 1 and two coordinator
        // frames toward learner 0; the ARQ retransmits both directions.
        let share_kind = Message::MaskedShare {
            iteration: 0,
            epoch: 0,
            party: 0,
            payload: Vec::new(),
        }
        .kind();
        let faults = NetFaultPlan::none()
            .drop_frames(LinkFilter::any().from(1).kind(share_kind), 2)
            .drop_frames(LinkFilter::any().from(3).to(0), 2);
        let (lossy, finals) = run_distributed(&parts, &cfg, faults);

        assert_eq!(lossy.model, clean.model);
        assert!(lossy.dropped.is_empty(), "transient loss is not dropout");
        for f in &finals {
            assert_eq!(*f, clean.model);
        }
        // Retransmissions cost bytes: the lossy run can only be dearer.
        assert!(lossy.metrics.total_network_bytes() > clean.metrics.total_network_bytes());
    }

    #[test]
    fn killed_learner_is_dropped_and_survivors_finish() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);

        // Learner 1 dies after its round-0 and round-1 shares: the
        // coordinator's round-2 broadcast to it exhausts its retries, so
        // the drop is detected in the *broadcast* phase.
        let faults = NetFaultPlan::none().kill_party_after(1, 2);
        let run = run_with_faults(&parts, &cfg, faults, twitchy());

        let outcome = run.outcome.expect("survivors must finish");
        assert_eq!(outcome.dropped, vec![1]);
        // Bit-identical to an in-process run that loses party 1 at round 2.
        let reference = reference_with_dropouts(&parts, &cfg, &[(1, 2)]);
        assert_eq!(outcome.model, reference);
        // Survivors converge to the same model; the dead learner errors.
        assert_eq!(*run.finals[0].as_ref().expect("survivor 0"), outcome.model);
        assert_eq!(*run.finals[2].as_ref().expect("survivor 2"), outcome.model);
        assert!(matches!(run.finals[1], Err(TrainError::Transport(_))));
    }

    #[test]
    fn silent_learner_is_dropped_at_the_round_deadline() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);

        // Learner 1 stays reachable (its acks flow) but its share frames
        // from round 2 on never arrive: data seqs on the learner→
        // coordinator link count 1, 2, 3…, so pinning seq ≥ 3 kills
        // exactly the round-2 share and everything after. The drop is
        // detected by the round deadline in the *collect* phase.
        let share_kind = Message::MaskedShare {
            iteration: 0,
            epoch: 0,
            party: 0,
            payload: Vec::new(),
        }
        .kind();
        let faults = NetFaultPlan::none().drop_frames(
            LinkFilter::any()
                .from(1)
                .to(3)
                .kind(share_kind)
                .seq_at_least(3),
            u32::MAX,
        );
        let run = run_with_faults(&parts, &cfg, faults, twitchy());

        let outcome = run.outcome.expect("survivors must finish");
        assert_eq!(outcome.dropped, vec![1]);
        let reference = reference_with_dropouts(&parts, &cfg, &[(1, 2)]);
        assert_eq!(outcome.model, reference);
        assert_eq!(*run.finals[0].as_ref().expect("survivor 0"), outcome.model);
        assert_eq!(*run.finals[2].as_ref().expect("survivor 2"), outcome.model);
        // The silenced learner's own send eventually times out.
        assert!(matches!(run.finals[1], Err(TrainError::Transport(_))));
    }

    #[test]
    fn double_dropout_shrinks_to_a_single_survivor() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);

        // Learner 1 dies at round 2 (after 2 countable frames). Learner 2
        // then sends share(2) twice (pre- and post-re-key) and share(3) —
        // five countable frames — before dying at round 4, leaving
        // learner 0 to finish alone with bare (unmasked-by-pairs) shares.
        let faults = NetFaultPlan::none()
            .kill_party_after(1, 2)
            .kill_party_after(2, 5);
        let run = run_with_faults(&parts, &cfg, faults, twitchy());

        let outcome = run.outcome.expect("last survivor must finish");
        assert_eq!(outcome.dropped, vec![1, 2]);
        let reference = reference_with_dropouts(&parts, &cfg, &[(1, 2), (2, 4)]);
        assert_eq!(outcome.model, reference);
        assert_eq!(*run.finals[0].as_ref().expect("survivor 0"), outcome.model);
        assert!(matches!(run.finals[1], Err(TrainError::Transport(_))));
        assert!(matches!(run.finals[2], Err(TrainError::Transport(_))));
    }

    #[test]
    fn scripted_defection_is_dropped_like_a_real_fault() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);
        let timing = twitchy();

        // Learner 1 runs `learn_linear_with_defect(.., 2)`: correct for
        // rounds 0 and 1, then silent-but-ACKing. No network faults at
        // all — the dropout is entirely scripted, so the coordinator
        // must detect it via the round deadline and the result must be
        // bit-identical to losing party 1 at round 2 for real.
        let m = parts.len();
        let features = feature_count(&parts).expect("partitions");
        let hub = LoopbackHub::with_faults(m + 1, NetFaultPlan::none());
        let mut handles = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            let mut courier = Courier::new(hub.endpoint(p as PartyId), RetryPolicy::fast_local());
            let part = part.clone();
            handles.push(thread::spawn(move || {
                if p == 1 {
                    learn_linear_with_defect(&mut courier, m, &part, &cfg, timing, 2)
                } else {
                    learn_linear(&mut courier, m, &part, &cfg, timing)
                }
            }));
        }
        let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
        let outcome =
            coordinate_linear(&mut courier, m, features, &cfg, None, timing).expect("survivors");
        let finals: Vec<Result<LinearSvm>> = handles
            .into_iter()
            .map(|h| h.join().expect("learner thread"))
            .collect();

        assert_eq!(outcome.dropped, vec![1]);
        let reference = reference_with_dropouts(&parts, &cfg, &[(1, 2)]);
        assert_eq!(outcome.model, reference);
        assert_eq!(*finals[0].as_ref().expect("survivor 0"), outcome.model);
        assert_eq!(*finals[2].as_ref().expect("survivor 2"), outcome.model);
        // The defector drains until the coordinator goes quiet on it,
        // then exits on its patience clock.
        assert!(matches!(finals[1], Err(TrainError::Transport(_))));
    }

    #[test]
    fn learners_error_out_when_the_coordinator_dies() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(8).with_seed(11);

        // The coordinator dies mid-broadcast of round 1 (3 consensus
        // frames for round 0 plus two for round 1). Nobody may hang: the
        // coordinator fails to re-key anyone and reports total dropout;
        // the learners hit either a send retry budget or their patience.
        let faults = NetFaultPlan::none().kill_party_after(3, 5);
        let run = run_with_faults(&parts, &cfg, faults, twitchy());

        assert!(
            matches!(run.outcome, Err(TrainError::Dropped { ref parties }) if parties.len() == 3),
            "coordinator must report losing everyone, got {:?}",
            run.outcome.as_ref().map(|_| ())
        );
        for f in &run.finals {
            assert!(
                matches!(f, Err(TrainError::Transport(_))),
                "learner must exit with a transport error, not hang"
            );
        }
    }

    #[test]
    fn learner_ignores_stale_consensus_rebroadcasts() {
        let ds = synth::blobs(48, 7);
        let parts = Partition::horizontal(&ds, 1, 2).expect("partition");
        let part = parts[0].clone();
        let features = feature_count(&parts).expect("partitions");
        let cfg = AdmmConfig::default().with_max_iter(4).with_seed(5);

        let consensus_kind = Message::Consensus {
            iteration: 0,
            z: Vec::new(),
            s: Vec::new(),
            done: false,
        }
        .kind();
        // Hold back the coordinator's second consensus frame (the stale
        // duplicate of round 0, sent unreliably at seq 2) until one later
        // frame has been delivered — the learner then sees round 1 first
        // and the round-0 duplicate afterwards.
        let faults = NetFaultPlan::none().delay_frames(
            LinkFilter::any()
                .from(1)
                .to(0)
                .kind(consensus_kind)
                .seq_at_least(2),
            1,
            1,
        );
        let hub = LoopbackHub::with_faults(2, faults);
        let mut learner_courier = Courier::new(hub.endpoint(0), RetryPolicy::fast_local());
        let timing = calm();
        let cfg_l = cfg;
        let handle =
            thread::spawn(move || learn_linear(&mut learner_courier, 1, &part, &cfg_l, timing));

        let mut c = Courier::new(hub.endpoint(1), RetryPolicy::fast_local());
        let consensus = |iteration: u64, z: Vec<f64>, s: f64, done: bool| Message::Consensus {
            iteration,
            z,
            s: vec![s],
            done,
        };
        let recv_share = |c: &mut Courier<_>| loop {
            let env = c.recv(Duration::from_secs(5)).expect("share");
            match env.msg {
                Message::Heartbeat { .. } => continue,
                Message::MaskedShare {
                    iteration, epoch, ..
                } => break (iteration, epoch),
                other => panic!("unexpected frame: {other:?}"),
            }
        };

        c.send_reliable(0, &consensus(0, vec![0.0; features], 0.0, false))
            .expect("round 0");
        assert_eq!(recv_share(&mut c), (0, 0));
        // A stale re-broadcast of round 0 with a fresh sequence number —
        // the ARQ dedup cannot flag it, only the learner's own iteration
        // tracking can. The delay fault reorders it past round 1.
        c.send_unreliable(0, &consensus(0, vec![0.0; features], 0.0, false))
            .expect("stale duplicate");
        c.send_reliable(0, &consensus(1, vec![0.1; features], 0.05, false))
            .expect("round 1");
        assert_eq!(recv_share(&mut c), (1, 0));
        // The ignored duplicate must not produce a third share.
        assert!(
            matches!(
                c.recv(Duration::from_millis(300)),
                Err(TransportError::Timeout)
            ),
            "stale consensus must not re-trigger a share"
        );
        c.send_reliable(0, &consensus(2, vec![0.2; features], 0.1, true))
            .expect("done");
        let model = handle.join().expect("learner thread").expect("learner");
        assert_eq!(model, LinearSvm::from_parts(vec![0.2; features], 0.1));
    }

    #[test]
    fn coordinator_crash_resume_reproduces_the_uninterrupted_run() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);
        let m = parts.len();
        let features = feature_count(&parts).expect("partitions");
        let timing = DistributedTiming::default()
            .with_round_deadline(Duration::from_secs(1))
            .with_learner_patience(Duration::from_secs(20));

        let (clean, _) = run_distributed(&parts, &cfg, NetFaultPlan::none());

        let ckpt_path =
            std::env::temp_dir().join(format!("ppml-resume-test-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&ckpt_path);

        // The coordinator goes dead after its ninth countable frame —
        // the rounds 0–2 broadcasts — so the round-2 shares never reach
        // it: rounds 0 and 1 are accepted and checkpointed, round 2 dies
        // at the collection deadline, and every re-key attempt fails.
        let faults = NetFaultPlan::none().kill_party_after(m as PartyId, 9);
        let hub = LoopbackHub::with_faults(m + 1, faults);
        let mut handles = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            let mut courier = Courier::new(hub.endpoint(p as PartyId), RetryPolicy::fast_local());
            let part = part.clone();
            let cfg_l = cfg;
            handles.push(thread::spawn(move || {
                learn_linear(&mut courier, m, &part, &cfg_l, timing)
            }));
        }
        let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
        let crashed = coordinate_linear_with_recovery(
            &mut courier,
            m,
            features,
            &cfg,
            None,
            timing,
            RecoveryOptions::default().with_checkpoint(&ckpt_path),
        );
        assert!(
            matches!(crashed, Err(TrainError::Dropped { .. })),
            "the dying incarnation must fail, got {:?}",
            crashed.map(|_| ())
        );

        // "Restart": heal the network, load the checkpoint, resume on a
        // fresh endpoint — fresh sequence numbers and empty dedup state,
        // exactly what a new OS process would have.
        hub.set_faults(NetFaultPlan::none());
        let ckpt = Checkpoint::load(&ckpt_path).expect("crash left a complete checkpoint");
        assert_eq!(
            ckpt.next_round, 2,
            "rounds 0 and 1 were accepted before the crash"
        );
        assert_eq!(ckpt.alive, vec![0, 1, 2]);
        let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
        let outcome = coordinate_linear_with_recovery(
            &mut courier,
            m,
            features,
            &cfg,
            None,
            timing,
            RecoveryOptions::default()
                .with_checkpoint(&ckpt_path)
                .with_resume(ckpt),
        )
        .expect("resumed run");
        let _ = std::fs::remove_file(&ckpt_path);

        // Bit-identical to the run that never crashed: learners that had
        // already computed the re-collected round re-send their cached
        // raw share re-masked under the bumped epoch, so every round sum
        // — and hence every iterate — is reproduced exactly.
        assert_eq!(outcome.history.z_delta, clean.history.z_delta);
        assert_eq!(outcome.model, clean.model);
        assert!(outcome.dropped.is_empty(), "got {:?}", outcome.dropped);
        for h in handles {
            let f = h
                .join()
                .expect("learner thread")
                .expect("learner survives the coordinator restart");
            assert_eq!(f, outcome.model);
        }
    }

    #[test]
    fn rejoining_learner_is_readmitted_with_a_rekey() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);
        let timing = DistributedTiming::default()
            .with_round_deadline(Duration::from_millis(800))
            .with_learner_patience(Duration::from_secs(4));
        let m = parts.len();
        let features = feature_count(&parts).expect("partitions");
        let hub = LoopbackHub::with_faults(m + 1, NetFaultPlan::none());
        let mut handles = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            let mut courier = Courier::new(hub.endpoint(p as PartyId), RetryPolicy::fast_local());
            let part = part.clone();
            handles.push(thread::spawn(move || {
                if p == 1 {
                    // A "restarted process": knows nothing of the run and
                    // asks back in via Join. The coordinator misses its
                    // round-0 share at the deadline, drops it, then
                    // re-admits it at the round-1 boundary.
                    rejoin_linear(&mut courier, m, &part, &cfg, timing)
                } else {
                    learn_linear(&mut courier, m, &part, &cfg, timing)
                }
            }));
        }
        let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
        let outcome =
            coordinate_linear(&mut courier, m, features, &cfg, None, timing).expect("coordinator");
        let finals: Vec<Result<LinearSvm>> = handles
            .into_iter()
            .map(|h| h.join().expect("learner thread"))
            .collect();

        // Round 0 runs over {0, 2}; from round 1 on, all three — with
        // the rejoiner entering as a fresh learner with zeroed duals,
        // exactly like the in-process membership reference.
        let reference = reference_with_membership(&parts, &cfg, &[(1, 0)], &[(1, 1)]);
        assert_eq!(outcome.model, reference);
        assert!(
            outcome.dropped.is_empty(),
            "re-admission must clear the dropout record, got {:?}",
            outcome.dropped
        );
        for f in &finals {
            assert_eq!(*f.as_ref().expect("every learner finishes"), outcome.model);
        }
    }
}
