//! Pluggable secure-aggregation backends for distributed training.
//!
//! All three backends run on the one round engine behind
//! [`crate::distributed`], which owns deadlines, dropout, rejoin,
//! telemetry and the `z`-update. A backend only says how a raw share is
//! encoded, what a deadline miss does, and how the round sum is
//! produced. A run picks its dropout/threat trade-off per deployment:
//!
//! * **`pairwise`** — §V masking ([`crate::distributed`]); a dropout
//!   costs one re-key round.
//! * **`shamir`** — `t`-of-`m` threshold sharing over GF(2⁶¹−1). Each
//!   learner splits its share over the *original* roster and sends the
//!   peer blocks, blinded with ordered-pair pads, in one [`ShamirDist`];
//!   the coordinator relays each contributor its blocks
//!   ([`ShamirCollect`]) and reconstructs the sum from any `t` summed
//!   [`Shares`]. A learner that dies after distributing still lands its
//!   input in the round, and no dropout needs a re-key.
//! * **`paillier`** — additively homomorphic encryption. Learners send
//!   [`CipherShare`]s; the coordinator holds only the public key, folds
//!   them and sends the aggregate ([`CipherAgg`]) to learner 0, the key
//!   authority, which decrypts the *sum* alone ([`CipherSum`]). Losing
//!   the authority ends the run with [`TrainError::Dropped`].
//!
//! | backend | learner → coordinator | coordinator → learner |
//! |---|---|---|
//! | pairwise | `MaskedShare` | `Consensus` (+ `Rekey` on dropout) |
//! | shamir | `ShamirDist`, then `Shares` | `Consensus`, `ShamirCollect` |
//! | paillier | `CipherShare` (authority also `CipherSum`) | `Consensus` (authority also `CipherAgg`) |
//!
//! GF(2⁶¹−1) and Paillier sums of fixed-point values decode to exactly
//! the integer the pairwise path computes in `Z_{2⁶⁴}`, so every backend
//! is **bit-identical** to pairwise under the same membership schedule;
//! the tests below assert it. `DESIGN.md` §12 walks through each round.
//!
//! [`ShamirDist`]: ppml_transport::Message::ShamirDist
//! [`ShamirCollect`]: ppml_transport::Message::ShamirCollect
//! [`Shares`]: ppml_transport::Message::Shares
//! [`CipherShare`]: ppml_transport::Message::CipherShare
//! [`CipherAgg`]: ppml_transport::Message::CipherAgg
//! [`CipherSum`]: ppml_transport::Message::CipherSum

use ppml_crypto::shamir::{self, MODULUS};
use ppml_crypto::{
    FixedPointCodec, Paillier, PaillierCiphertext, PaillierPublicKey, ThresholdSharing,
};
use ppml_data::rng::Rng64;
use ppml_data::Dataset;
use ppml_svm::LinearSvm;
use ppml_transport::{Courier, Message, PartyId, Transport};

use crate::config::{AdmmConfig, DistributedTiming};
use crate::distributed::{
    coordinate_linear_with_recovery, learn_pairwise, DistributedOutcome, RecoveryOptions,
};
use crate::error::TrainError;
use crate::masks::mix64;
use crate::round::{
    self, protocol, unexpected, Body, Collect, Progress, RoundAggregator, ShareCodec, ShareKind,
    Sum,
};
use crate::Result;

/// Which secure-aggregation protocol a distributed run speaks.
///
/// The string forms (`pairwise` / `shamir` / `paillier`) are shared by
/// the `--secagg` CLI flag, the `PPML_SECAGG` environment variable and
/// the telemetry backend labels ([`ppml_telemetry::BACKENDS`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SecAggKind {
    /// §V pairwise masking with re-keying on dropout (the default).
    #[default]
    Pairwise,
    /// `t`-of-`m` Shamir threshold sharing; dropout needs no re-key.
    Shamir,
    /// Paillier additively homomorphic aggregation via a key authority.
    Paillier,
}

impl SecAggKind {
    /// Canonical lowercase name (also the telemetry backend label).
    pub fn as_str(self) -> &'static str {
        match self {
            SecAggKind::Pairwise => "pairwise",
            SecAggKind::Shamir => "shamir",
            SecAggKind::Paillier => "paillier",
        }
    }
}

impl std::fmt::Display for SecAggKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for SecAggKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "pairwise" => Ok(SecAggKind::Pairwise),
            "shamir" => Ok(SecAggKind::Shamir),
            "paillier" => Ok(SecAggKind::Paillier),
            other => Err(format!(
                "unknown secure-aggregation backend {other:?} (expected pairwise, shamir or \
                 paillier)"
            )),
        }
    }
}

/// Backend selection plus its knobs, shared by coordinator and learners
/// (all parties must agree, like [`AdmmConfig`] itself).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SecAggConfig {
    /// The protocol to speak.
    pub kind: SecAggKind,
    /// Shamir reconstruction threshold `t`; `None` picks
    /// `max(2, ⌈2m/3⌉)` clamped to `m`. Rejected for other backends.
    pub threshold: Option<usize>,
}

impl SecAggConfig {
    /// Config for `kind` with default knobs.
    pub fn new(kind: SecAggKind) -> Self {
        SecAggConfig {
            kind,
            threshold: None,
        }
    }

    /// The §V pairwise default.
    pub fn pairwise() -> Self {
        Self::new(SecAggKind::Pairwise)
    }

    /// Shamir threshold sharing with the default threshold.
    pub fn shamir() -> Self {
        Self::new(SecAggKind::Shamir)
    }

    /// Paillier homomorphic aggregation.
    pub fn paillier() -> Self {
        Self::new(SecAggKind::Paillier)
    }

    /// Overrides the Shamir threshold (validated against the roster at
    /// run start).
    #[must_use]
    pub fn with_threshold(mut self, threshold: usize) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// The reconstruction threshold a run over `learners` parties uses:
    /// the explicit override, else `max(2, ⌈2·learners/3⌉)` clamped to
    /// the roster size.
    pub fn effective_threshold(&self, learners: usize) -> usize {
        self.threshold
            .unwrap_or_else(|| ((2 * learners).div_ceil(3)).max(2))
            .min(learners.max(1))
    }

    /// Checks the config against a roster of `learners` parties.
    ///
    /// # Errors
    ///
    /// [`TrainError::BadConfig`] when a threshold is supplied for a
    /// non-Shamir backend or falls outside `1..=learners`.
    pub fn validate(&self, learners: usize) -> Result<()> {
        if let Some(t) = self.threshold {
            if self.kind != SecAggKind::Shamir {
                return Err(TrainError::BadConfig {
                    reason: format!(
                        "--secagg-threshold only applies to the shamir backend, not {}",
                        self.kind
                    ),
                });
            }
            if t < 1 || t > learners {
                return Err(TrainError::BadConfig {
                    reason: format!("shamir threshold {t} out of range 1..={learners}"),
                });
            }
        }
        Ok(())
    }
}

/// Coordinator entry point with backend selection: the
/// [`SecAggConfig::pairwise`] default is exactly
/// [`crate::distributed::coordinate_linear`].
///
/// # Errors
///
/// Config errors from [`SecAggConfig::validate`], plus those of
/// [`crate::distributed::coordinate_linear`]; backends without re-keying
/// return [`TrainError::Dropped`] as soon as the survivor set can no
/// longer complete a round.
pub fn coordinate_linear_secagg<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    features: usize,
    cfg: &AdmmConfig,
    eval: Option<&Dataset>,
    timing: DistributedTiming,
    secagg: SecAggConfig,
) -> Result<DistributedOutcome> {
    coordinate_linear_secagg_with_recovery(
        courier,
        learners,
        features,
        cfg,
        eval,
        timing,
        secagg,
        RecoveryOptions::default(),
    )
}

/// [`coordinate_linear_secagg`] plus crash recovery. Checkpoint/resume
/// is a pairwise-only feature for now: the shamir and paillier rounds
/// have no re-key epochs to fence resumed rounds with, so requesting
/// recovery under them is rejected rather than silently ignored.
///
/// # Errors
///
/// [`TrainError::BadConfig`] when recovery options are combined with a
/// non-pairwise backend; otherwise as [`coordinate_linear_secagg`].
#[allow(clippy::too_many_arguments)]
pub fn coordinate_linear_secagg_with_recovery<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    features: usize,
    cfg: &AdmmConfig,
    eval: Option<&Dataset>,
    timing: DistributedTiming,
    secagg: SecAggConfig,
    recovery: RecoveryOptions,
) -> Result<DistributedOutcome> {
    secagg.validate(learners)?;
    if secagg.kind != SecAggKind::Pairwise
        && (recovery.checkpoint_to.is_some() || recovery.resume_from.is_some())
    {
        return Err(TrainError::BadConfig {
            reason: format!(
                "checkpoint/resume is only supported by the pairwise backend, not {}",
                secagg.kind
            ),
        });
    }
    let len = features + 1;
    let threshold = secagg.effective_threshold(learners);
    match secagg.kind {
        SecAggKind::Pairwise => coordinate_linear_with_recovery(
            courier, learners, features, cfg, eval, timing, recovery,
        ),
        SecAggKind::Shamir => {
            let agg = ShamirRound {
                m: learners,
                threshold,
                len,
                scheme: ThresholdSharing::new(threshold, cfg.seed),
                round: 0,
                slots: Vec::new(),
                contributors: Vec::new(),
            };
            round::coordinate(
                courier, learners, features, cfg, eval, timing, recovery, agg,
            )
        }
        SecAggKind::Paillier => {
            // Derive the run keypair only to keep its public half: the
            // coordinator *cannot* decrypt, by construction.
            let pk = Paillier::keygen(PAILLIER_BITS, &mut derive(cfg.seed, DOMAIN_KEY, &[]))?
                .public_key()
                .clone();
            let agg = PaillierRound {
                width: pk.ciphertext_width(),
                pk,
                len,
                round: 0,
                acc: Vec::new(),
                count: 0,
                sums: None,
                relayed: false,
            };
            round::coordinate(
                courier, learners, features, cfg, eval, timing, recovery, agg,
            )
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn learn_dispatch<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    data: &Dataset,
    cfg: &AdmmConfig,
    timing: DistributedTiming,
    secagg: SecAggConfig,
    defect_after: Option<u64>,
    rejoin: bool,
) -> Result<LinearSvm> {
    secagg.validate(learners)?;
    let seed = cfg.seed;
    match secagg.kind {
        SecAggKind::Pairwise => {
            learn_pairwise(courier, learners, data, cfg, timing, defect_after, rejoin)
        }
        SecAggKind::Shamir => round::learn(
            courier,
            learners,
            data,
            cfg,
            timing,
            defect_after,
            rejoin,
            |party| {
                let threshold = secagg.effective_threshold(learners);
                Ok(ShamirShare {
                    party,
                    m: learners,
                    threshold,
                    seed,
                    scheme: ThresholdSharing::new(threshold, seed),
                    held: None,
                })
            },
        ),
        SecAggKind::Paillier => round::learn(
            courier,
            learners,
            data,
            cfg,
            timing,
            defect_after,
            rejoin,
            |party| {
                // Every learner derives the full keypair from the run
                // seed; only party 0 ever *uses* the private half.
                let keypair = Paillier::keygen(PAILLIER_BITS, &mut derive(seed, DOMAIN_KEY, &[]))?;
                Ok(PaillierShare {
                    party,
                    seed,
                    width: keypair.public_key().ciphertext_width(),
                    keypair,
                    codec: FixedPointCodec::default(),
                })
            },
        ),
    }
}

/// Learner entry point with backend selection; the pairwise default is
/// exactly [`crate::distributed::learn_linear`].
///
/// # Errors
///
/// As [`crate::distributed::learn_linear`], plus config errors from
/// [`SecAggConfig::validate`].
pub fn learn_linear_secagg<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    data: &Dataset,
    cfg: &AdmmConfig,
    timing: DistributedTiming,
    secagg: SecAggConfig,
) -> Result<LinearSvm> {
    learn_dispatch(courier, learners, data, cfg, timing, secagg, None, false)
}

/// Re-admission variant of [`learn_linear_secagg`] for a restarted
/// learner process (see [`crate::distributed::rejoin_linear`]). Under
/// shamir and paillier, re-admission needs no re-key at all — the
/// coordinator simply welcomes the party back at a round boundary.
///
/// # Errors
///
/// As [`crate::distributed::rejoin_linear`].
pub fn rejoin_linear_secagg<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    data: &Dataset,
    cfg: &AdmmConfig,
    timing: DistributedTiming,
    secagg: SecAggConfig,
) -> Result<LinearSvm> {
    learn_dispatch(courier, learners, data, cfg, timing, secagg, None, true)
}

/// Fault-injection variant of [`learn_linear_secagg`]: behaves
/// correctly for rounds `0..defect_after`, then drops out at the
/// backend's characteristic loss point while still draining (and
/// thereby ACKing) frames:
///
/// * **pairwise** — stops sending [`MaskedShare`] from round
///   `defect_after` on (the round excludes the defector after a re-key);
/// * **shamir** — still *distributes* its round-`defect_after` shares
///   but never submits its summed share: the canonical mid-collect
///   death, whose round-`defect_after` input still lands in the sum;
/// * **paillier** — stops sending [`CipherShare`] from round
///   `defect_after` on (the authority keeps answering [`CipherAgg`] so
///   a defecting learner 0 does not wedge the run).
///
/// # Errors
///
/// The expected exit is [`TrainError::Transport`] with a timeout once
/// the coordinator drops this learner; otherwise as
/// [`learn_linear_secagg`].
///
/// [`MaskedShare`]: ppml_transport::Message::MaskedShare
/// [`CipherShare`]: ppml_transport::Message::CipherShare
/// [`CipherAgg`]: ppml_transport::Message::CipherAgg
#[allow(clippy::too_many_arguments)]
pub fn learn_linear_secagg_with_defect<T: Transport>(
    courier: &mut Courier<T>,
    learners: usize,
    data: &Dataset,
    cfg: &AdmmConfig,
    timing: DistributedTiming,
    secagg: SecAggConfig,
    defect_after: u64,
) -> Result<LinearSvm> {
    learn_dispatch(
        courier,
        learners,
        data,
        cfg,
        timing,
        secagg,
        Some(defect_after),
        false,
    )
}

// ---------------------------------------------------------------------
// Deterministic seed derivation. Domain-separated from the pairwise
// masker's (seed, lo, hi, iteration) absorb by a per-purpose constant
// folded into the base seed, then the same sequential SplitMix64 absorb
// (see `masks::mix64` for why sequential absorption is required).

/// Domain tag for Shamir polynomial coefficient streams.
const DOMAIN_SPLIT: u64 = 0x5348_4D52_5350_4C54;
/// Domain tag for ordered-pair relay-blinding pad streams.
const DOMAIN_PAD: u64 = 0x5348_4D52_5041_4421;
/// Domain tag for the deterministic Paillier keypair.
const DOMAIN_KEY: u64 = 0x504C_4C52_4B45_5921;
/// Domain tag for Paillier encryption randomness.
const DOMAIN_ENC: u64 = 0x504C_4C52_454E_4352;

/// Paillier modulus size for the wire protocol: comfortably above the
/// 64-bit floor [`FixedPointCodec::encode_group`] requires, with room
/// for [`FixedPointCodec::max_parties`] summands.
const PAILLIER_BITS: usize = 128;

/// The stream for `domain` after absorbing `words` into `seed`.
fn derive(seed: u64, domain: u64, words: &[u64]) -> Rng64 {
    Rng64::new(
        words
            .iter()
            .fold(mix64(seed ^ domain), |s, &w| mix64(s ^ w)),
    )
}

/// Ordered-pair pad stream blinding the share block `from → to` at
/// `iteration` against the relaying coordinator. Both endpoints derive
/// it locally; the pair order matters (`from → to` ≠ `to → from`).
fn pad_rng(seed: u64, from: usize, to: usize, iteration: u64) -> Rng64 {
    derive(seed, DOMAIN_PAD, &[from as u64, to as u64, iteration])
}

/// Index of destination `dest`'s block inside sender `from`'s flat
/// [`ppml_transport::Message::ShamirDist`] vector: blocks are laid out
/// in ascending destination order over the full roster, the sender's
/// own (locally kept) block excluded.
fn block_index(from: usize, dest: usize) -> usize {
    debug_assert_ne!(from, dest, "a sender keeps its own block locally");
    if dest > from {
        dest - 1
    } else {
        dest
    }
}

// ---------------------------------------------------------------------
// Shamir backend.

/// Coordinator side of Shamir threshold sharing: collect the blinded
/// distributions, relay each contributor its blocks, reconstruct the
/// round sum from any `threshold` summed shares.
struct ShamirRound {
    m: usize,
    threshold: usize,
    /// Share length `k + 1`.
    len: usize,
    scheme: ThresholdSharing,
    round: u64,
    /// Each party's frame of the current collect: its distribution, then
    /// its summed share.
    slots: Vec<Option<Vec<u64>>>,
    /// Empty until the distribution collect ends.
    contributors: Vec<PartyId>,
}

impl RoundAggregator for ShamirRound {
    const NAME: &'static str = "shamir";
    const KINDS: &'static [ShareKind] = &[ShareKind::Dist, ShareKind::Summed];
    const REKEYS: bool = false;

    fn open(&mut self, round: u64, survivors: &[PartyId]) -> Collect {
        self.round = round;
        self.slots = vec![None; self.m];
        self.contributors.clear();
        Collect {
            kind: ShareKind::Dist,
            from: survivors.to_vec(),
            len: (self.m - 1) * self.len,
            lag: false,
        }
    }

    fn absorb(&mut self, party: PartyId, body: &Body) -> Result<()> {
        if let Body::Words(words) = body {
            self.slots[party as usize] = Some(words.clone());
        }
        Ok(())
    }

    fn advance(&mut self) -> Result<Progress> {
        let len = self.len;
        if self.contributors.is_empty() {
            // The distribution collect is over: its senders are the
            // round's contributors. A contributor later lost costs only
            // its future membership; its input is already in the sum.
            let dists = std::mem::replace(&mut self.slots, vec![None; self.m]);
            self.contributors = (0..self.m)
                .filter(|&p| dists[p].is_some())
                .map(|p| p as PartyId)
                .collect();
            if self.contributors.len() < self.threshold {
                return Ok(Progress::Lost);
            }
            let relay = self
                .contributors
                .iter()
                .map(|&p| {
                    let mut flat = Vec::with_capacity((self.contributors.len() - 1) * len);
                    for &q in self.contributors.iter().filter(|&&q| q != p) {
                        let dist = dists[q as usize].as_ref().expect("contributor dist");
                        let base = block_index(q as usize, p as usize) * len;
                        flat.extend_from_slice(&dist[base..base + len]);
                    }
                    let msg = Message::ShamirCollect {
                        iteration: self.round,
                        contributors: self.contributors.clone(),
                        flat,
                    };
                    (p, msg)
                })
                .collect();
            let next = Collect {
                kind: ShareKind::Summed,
                from: self.contributors.clone(),
                len,
                lag: true,
            };
            return Ok(Progress::Relay(relay, next));
        }
        // Any `threshold` shares give the same field element; taking the
        // lowest-indexed ones keeps the choice deterministic to read.
        let chosen: Vec<usize> = (0..self.m)
            .filter(|&p| self.slots[p].is_some())
            .take(self.threshold)
            .collect();
        if chosen.len() < self.threshold {
            return Ok(Progress::Lost);
        }
        let mut totals = vec![0.0; len];
        for (i, total) in totals.iter_mut().enumerate() {
            let column: Vec<shamir::Share> = chosen
                .iter()
                .map(|&p| shamir::Share {
                    x: p as u64 + 1,
                    y: self.slots[p].as_ref().expect("chosen submission")[i],
                })
                .collect();
            *total = self.scheme.decode(shamir::reconstruct(&column)?);
        }
        Ok(Progress::Done(Sum {
            totals,
            count: self.contributors.len(),
        }))
    }
}

/// Learner side of Shamir threshold sharing: split and blind the share,
/// then sum the relayed blocks into this party's share of the total.
struct ShamirShare {
    party: usize,
    m: usize,
    threshold: usize,
    seed: u64,
    scheme: ThresholdSharing,
    /// The block this party keeps of its own split, for the open round.
    held: Option<(u64, Vec<u64>)>,
}

impl ShareCodec for ShamirShare {
    const TWO_PHASE: bool = true;

    /// Splits every coordinate `t`-of-`m` over the *original* roster
    /// (dead parties' shares are simply never delivered), keeps this
    /// party's own block, and blinds each peer block with the
    /// ordered-pair pad into one [`Message::ShamirDist`].
    fn encode(&mut self, raw: &[f64], iteration: u64, _: u64, _: &[usize]) -> Result<Message> {
        let me = self.party;
        let mut rng = derive(self.seed, DOMAIN_SPLIT, &[me as u64, iteration]);
        let mut dest = vec![vec![0u64; raw.len()]; self.m];
        for (i, &v) in raw.iter().enumerate() {
            let shares = shamir::split(self.scheme.encode(v)?, self.threshold, self.m, &mut rng)?;
            for (j, sh) in shares.into_iter().enumerate() {
                dest[j][i] = sh.y;
            }
        }
        self.held = Some((iteration, std::mem::take(&mut dest[me])));
        let mut flat = Vec::with_capacity((self.m - 1) * raw.len());
        for (j, block) in dest.into_iter().enumerate().filter(|&(j, _)| j != me) {
            let mut pad = pad_rng(self.seed, me, j, iteration);
            flat.extend(
                block
                    .into_iter()
                    .map(|y| shamir::field_add(y, pad.below(MODULUS))),
            );
        }
        Ok(Message::ShamirDist {
            iteration,
            party: me as PartyId,
            flat,
        })
    }

    /// Unblinds each contributor block of this round's
    /// [`Message::ShamirCollect`] with the sender-pair pad and field-sums
    /// everything (own block included) into the [`Message::Shares`]
    /// submission.
    fn answer(&mut self, msg: Message, expected_iter: u64) -> Result<Option<(u64, Message)>> {
        let Message::ShamirCollect {
            iteration,
            contributors,
            flat,
        } = msg
        else {
            return Err(unexpected(&msg));
        };
        let Some((_, mut held)) = self.held.take_if(|(r, _)| *r == iteration) else {
            if iteration < expected_iter {
                return Ok(None);
            }
            return Err(protocol(format!(
                "collect skipped ahead to round {iteration} while expecting {expected_iter}"
            )));
        };
        let me = self.party as PartyId;
        let len = held.len();
        // Contributors must be ascending, on the roster and include this
        // party, with one block from each of the others.
        if !contributors.windows(2).all(|w| w[0] < w[1])
            || contributors.iter().any(|&q| (q as usize) >= self.m)
            || !contributors.contains(&me)
            || flat.len() != (contributors.len() - 1) * len
        {
            return Err(protocol(format!(
                "malformed collect for round {iteration}: contributors {contributors:?}, {} words",
                flat.len()
            )));
        }
        for (slot, &q) in contributors.iter().filter(|&&q| q != me).enumerate() {
            let block = &flat[slot * len..(slot + 1) * len];
            let mut pad = pad_rng(self.seed, q as usize, self.party, iteration);
            for (h, &v) in held.iter_mut().zip(block) {
                *h = shamir::field_add(*h, shamir::field_sub(v, pad.below(MODULUS)));
            }
        }
        let values = held;
        Ok(Some((iteration, Message::Shares { iteration, values })))
    }
}

// ---------------------------------------------------------------------
// Paillier backend.

/// Learner 0 holds the Paillier private key for the run.
const AUTHORITY: PartyId = 0;

/// Appends `v` big-endian, left-padded with zeros to exactly `width`
/// bytes, so ciphertexts pack at fixed offsets on the wire.
fn push_fixed_width(out: &mut Vec<u8>, v: &ppml_crypto::BigUint, width: usize) {
    let be = v.to_bytes_be();
    debug_assert!(be.len() <= width, "ciphertext wider than n²");
    out.resize(out.len() + width.saturating_sub(be.len()), 0);
    out.extend_from_slice(&be);
}

/// Coordinator side of Paillier aggregation: fold the ciphertexts with
/// the public key, then have the key authority decrypt the aggregate.
struct PaillierRound {
    pk: PaillierPublicKey,
    width: usize,
    /// Share length `k + 1`.
    len: usize,
    round: u64,
    /// Coordinate-wise fold of the ciphertexts absorbed so far.
    acc: Vec<PaillierCiphertext>,
    count: usize,
    relayed: bool,
    sums: Option<Vec<f64>>,
}

impl RoundAggregator for PaillierRound {
    const NAME: &'static str = "paillier";
    const KINDS: &'static [ShareKind] = &[ShareKind::Cipher, ShareKind::Plain];
    const REKEYS: bool = false;

    fn open(&mut self, round: u64, survivors: &[PartyId]) -> Collect {
        self.round = round;
        self.acc = vec![self.pk.neutral(); self.len];
        self.count = 0;
        self.relayed = false;
        self.sums = None;
        Collect {
            kind: ShareKind::Cipher,
            from: survivors.to_vec(),
            len: self.len * self.width,
            lag: true,
        }
    }

    fn absorb(&mut self, _party: PartyId, body: &Body) -> Result<()> {
        match body {
            // Homomorphic addition is a product mod n², so folding in
            // arrival order gives the same aggregate as any other order.
            Body::Bytes(bytes) => {
                for (acc, chunk) in self.acc.iter_mut().zip(bytes.chunks(self.width)) {
                    *acc = self.pk.add(acc, &self.pk.ciphertext_from_bytes(chunk)?);
                }
                self.count += 1;
            }
            Body::Reals(values) => self.sums = Some(values.clone()),
            Body::Words(_) => {}
        }
        Ok(())
    }

    fn advance(&mut self) -> Result<Progress> {
        if self.relayed {
            return Ok(match self.sums.take() {
                Some(totals) => Progress::Done(Sum {
                    totals,
                    count: self.count,
                }),
                // Nobody else holds the private key.
                None => Progress::Lost,
            });
        }
        if self.count == 0 {
            return Ok(Progress::Lost);
        }
        self.relayed = true;
        // The aggregate (and only the aggregate) is decryptable, and only
        // by the authority, which answers even when it stopped
        // contributing.
        let mut bytes = Vec::with_capacity(self.len * self.width);
        for c in &self.acc {
            push_fixed_width(&mut bytes, c.as_biguint(), self.width);
        }
        let request = Message::CipherAgg {
            iteration: self.round,
            contributors: self.count as u32,
            bytes,
        };
        let next = Collect {
            kind: ShareKind::Plain,
            from: vec![AUTHORITY],
            len: self.len,
            lag: false,
        };
        Ok(Progress::Relay(vec![(AUTHORITY, request)], next))
    }
}

/// Learner side of Paillier aggregation: encrypt the share; the
/// authority also decrypts each round's aggregate.
struct PaillierShare {
    party: usize,
    seed: u64,
    keypair: Paillier,
    codec: FixedPointCodec,
    width: usize,
}

impl ShareCodec for PaillierShare {
    const TWO_PHASE: bool = false;

    fn encode(&mut self, raw: &[f64], iteration: u64, _: u64, _: &[usize]) -> Result<Message> {
        let mut rng = derive(self.seed, DOMAIN_ENC, &[self.party as u64, iteration]);
        let modulus = self.keypair.public_key().modulus();
        let mut bytes = Vec::with_capacity(raw.len() * self.width);
        for &v in raw {
            let c = self
                .keypair
                .encrypt(&self.codec.encode_group(v, modulus)?, &mut rng)?;
            push_fixed_width(&mut bytes, c.as_biguint(), self.width);
        }
        Ok(Message::CipherShare {
            iteration,
            party: self.party as PartyId,
            bytes,
        })
    }

    /// The authority's service: decrypt the folded aggregate — the round
    /// *sum*, never an individual share — and hand back the plaintext
    /// totals. Served even while defecting, so a scripted authority
    /// dropout cannot wedge the run.
    fn answer(&mut self, msg: Message, _: u64) -> Result<Option<(u64, Message)>> {
        let Message::CipherAgg {
            iteration, bytes, ..
        } = msg
        else {
            return Err(unexpected(&msg));
        };
        if self.party != AUTHORITY as usize {
            return Err(protocol(
                "ciphertext aggregate sent to a non-authority learner",
            ));
        }
        if bytes.is_empty() || bytes.len() % self.width != 0 {
            return Err(protocol(format!(
                "ciphertext aggregate length {} is not a multiple of the ciphertext width {}",
                bytes.len(),
                self.width
            )));
        }
        let pk = self.keypair.public_key();
        let mut values = Vec::with_capacity(bytes.len() / self.width);
        for chunk in bytes.chunks(self.width) {
            let sum = self.keypair.decrypt(&pk.ciphertext_from_bytes(chunk)?);
            values.push(self.codec.decode_group(&sum, pk.modulus())?);
        }
        Ok(Some((iteration, Message::CipherSum { iteration, values })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::feature_count;
    use ppml_data::{synth, Partition};
    use ppml_transport::{LoopbackHub, NetFaultPlan, RetryPolicy};
    use std::thread;
    use std::time::Duration;

    fn twitchy() -> DistributedTiming {
        DistributedTiming::default()
            .with_round_deadline(Duration::from_millis(800))
            .with_learner_patience(Duration::from_secs(2))
    }

    struct SecAggRun {
        outcome: Result<DistributedOutcome>,
        finals: Vec<Result<LinearSvm>>,
    }

    /// Full in-process run over a loopback hub: `defects` scripts
    /// `(party, round)` dropouts at each backend's characteristic loss
    /// point.
    fn run_secagg(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        secagg: SecAggConfig,
        defects: &[(usize, u64)],
    ) -> SecAggRun {
        let m = parts.len();
        let features = feature_count(parts).expect("partitions");
        let hub = LoopbackHub::with_faults(m + 1, NetFaultPlan::none());
        let timing = twitchy();
        let mut handles = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            let mut courier = Courier::new(hub.endpoint(p as PartyId), RetryPolicy::fast_local());
            let part = part.clone();
            let cfg = *cfg;
            let defect = defects.iter().find(|&&(dp, _)| dp == p).map(|&(_, d)| d);
            handles.push(thread::spawn(move || match defect {
                Some(d) => {
                    learn_linear_secagg_with_defect(&mut courier, m, &part, &cfg, timing, secagg, d)
                }
                None => learn_linear_secagg(&mut courier, m, &part, &cfg, timing, secagg),
            }));
        }
        let mut courier = Courier::new(hub.endpoint(m as PartyId), RetryPolicy::fast_local());
        let outcome =
            coordinate_linear_secagg(&mut courier, m, features, cfg, None, timing, secagg);
        let finals = handles
            .into_iter()
            .map(|h| h.join().expect("learner thread"))
            .collect();
        SecAggRun { outcome, finals }
    }

    fn assert_models_identical(a: &LinearSvm, b: &LinearSvm) {
        assert_eq!(a.weights(), b.weights(), "weights diverged");
        assert_eq!(a.bias(), b.bias(), "bias diverged");
    }

    #[test]
    fn kind_parses_round_trips_and_rejects_unknown() {
        for kind in [
            SecAggKind::Pairwise,
            SecAggKind::Shamir,
            SecAggKind::Paillier,
        ] {
            assert_eq!(kind.as_str().parse::<SecAggKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert!("masking".parse::<SecAggKind>().is_err());
    }

    #[test]
    fn config_validates_threshold_placement_and_range() {
        assert!(SecAggConfig::shamir().validate(4).is_ok());
        assert!(SecAggConfig::shamir().with_threshold(3).validate(4).is_ok());
        assert!(SecAggConfig::shamir()
            .with_threshold(0)
            .validate(4)
            .is_err());
        assert!(SecAggConfig::shamir()
            .with_threshold(5)
            .validate(4)
            .is_err());
        assert!(SecAggConfig::pairwise()
            .with_threshold(2)
            .validate(4)
            .is_err());
        assert!(SecAggConfig::paillier()
            .with_threshold(2)
            .validate(4)
            .is_err());
    }

    #[test]
    fn default_threshold_is_two_thirds_clamped() {
        assert_eq!(SecAggConfig::shamir().effective_threshold(1), 1);
        assert_eq!(SecAggConfig::shamir().effective_threshold(2), 2);
        assert_eq!(SecAggConfig::shamir().effective_threshold(3), 2);
        assert_eq!(SecAggConfig::shamir().effective_threshold(4), 3);
        assert_eq!(SecAggConfig::shamir().effective_threshold(64), 43);
        assert_eq!(
            SecAggConfig::shamir()
                .with_threshold(4)
                .effective_threshold(8),
            4
        );
    }

    #[test]
    fn block_index_skips_the_sender() {
        // Sender 2 of a 4-party roster lays out blocks for 0, 1, 3.
        assert_eq!(block_index(2, 0), 0);
        assert_eq!(block_index(2, 1), 1);
        assert_eq!(block_index(2, 3), 2);
        // Sender 0 lays out 1, 2, 3.
        assert_eq!(block_index(0, 1), 0);
        assert_eq!(block_index(0, 3), 2);
    }

    #[test]
    fn pad_streams_agree_between_endpoints_and_separate_pairs() {
        let a: Vec<u64> = {
            let mut r = pad_rng(7, 1, 2, 3);
            (0..8).map(|_| r.below(MODULUS)).collect()
        };
        let b: Vec<u64> = {
            let mut r = pad_rng(7, 1, 2, 3);
            (0..8).map(|_| r.below(MODULUS)).collect()
        };
        assert_eq!(a, b, "sender and receiver must derive the same stream");
        let reversed: Vec<u64> = {
            let mut r = pad_rng(7, 2, 1, 3);
            (0..8).map(|_| r.below(MODULUS)).collect()
        };
        assert_ne!(a, reversed, "pair order must matter");
    }

    #[test]
    fn recovery_options_rejected_for_stateless_backends() {
        let hub = LoopbackHub::with_faults(2, NetFaultPlan::none());
        let mut courier = Courier::new(hub.endpoint(1), RetryPolicy::fast_local());
        let cfg = AdmmConfig::default().with_max_iter(2).with_seed(1);
        let err = coordinate_linear_secagg_with_recovery(
            &mut courier,
            1,
            2,
            &cfg,
            None,
            twitchy(),
            SecAggConfig::shamir(),
            RecoveryOptions::default().with_checkpoint("/tmp/never-written.ckpt"),
        )
        .expect_err("checkpointing under shamir must be rejected");
        assert!(matches!(err, TrainError::BadConfig { .. }), "{err:?}");
    }

    #[test]
    fn shamir_clean_run_is_bit_identical_to_pairwise() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);
        let pairwise = run_secagg(&parts, &cfg, SecAggConfig::pairwise(), &[]);
        let shamir = run_secagg(&parts, &cfg, SecAggConfig::shamir(), &[]);
        let pw = pairwise.outcome.expect("pairwise run");
        let sh = shamir.outcome.expect("shamir run");
        assert_models_identical(&pw.model, &sh.model);
        assert_eq!(pw.history.z_delta, sh.history.z_delta);
        assert!(sh.dropped.is_empty());
        for (p_model, s_model) in pairwise.finals.iter().zip(&shamir.finals) {
            assert_models_identical(
                p_model.as_ref().expect("pairwise learner"),
                s_model.as_ref().expect("shamir learner"),
            );
        }
    }

    #[test]
    fn paillier_clean_run_is_bit_identical_to_pairwise() {
        let ds = synth::blobs(64, 1);
        let parts = Partition::horizontal(&ds, 2, 2).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(3).with_seed(7);
        let pairwise = run_secagg(&parts, &cfg, SecAggConfig::pairwise(), &[]);
        let paillier = run_secagg(&parts, &cfg, SecAggConfig::paillier(), &[]);
        let pw = pairwise.outcome.expect("pairwise run");
        let pl = paillier.outcome.expect("paillier run");
        assert_models_identical(&pw.model, &pl.model);
        assert_eq!(pw.history.z_delta, pl.history.z_delta);
        assert!(pl.dropped.is_empty());
    }

    /// The headline Shamir property: a learner dying *mid-collect* —
    /// after distributing its round-`d` shares, before submitting its
    /// summed share — still lands its round-`d` input in the sum and
    /// needs no re-key. Membership-wise that equals a pairwise defector
    /// at round `d + 1`, so the surviving models must match that run
    /// bit for bit.
    #[test]
    fn shamir_mid_collect_death_keeps_the_round_and_skips_rekey() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 4, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(6).with_seed(11);
        let victim = 1usize;
        let d = 2u64;
        let shamir = run_secagg(&parts, &cfg, SecAggConfig::shamir(), &[(victim, d)]);
        let reference = run_secagg(&parts, &cfg, SecAggConfig::pairwise(), &[(victim, d + 1)]);
        let sh = shamir.outcome.expect("shamir survivors");
        let pw = reference.outcome.expect("pairwise reference");
        assert_eq!(sh.dropped, vec![victim as PartyId]);
        assert_models_identical(&sh.model, &pw.model);
        for (p, result) in shamir.finals.iter().enumerate() {
            if p == victim {
                assert!(result.is_err(), "the defector cannot finish");
            } else {
                assert_models_identical(result.as_ref().expect("survivor"), &sh.model);
            }
        }
    }

    /// A Paillier defector stops encrypting from round `d` on, so its
    /// membership schedule equals the pairwise defector at `d` — and the
    /// surviving models must match that run bit for bit, again with no
    /// re-keying anywhere.
    #[test]
    fn paillier_defector_is_dropped_and_matches_pairwise() {
        let ds = synth::blobs(64, 1);
        let parts = Partition::horizontal(&ds, 2, 2).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(3).with_seed(7);
        let victim = 1usize; // never 0: the authority holds the key
        let d = 1u64;
        let paillier = run_secagg(&parts, &cfg, SecAggConfig::paillier(), &[(victim, d)]);
        let reference = run_secagg(&parts, &cfg, SecAggConfig::pairwise(), &[(victim, d)]);
        let pl = paillier.outcome.expect("paillier survivors");
        let pw = reference.outcome.expect("pairwise reference");
        assert_eq!(pl.dropped, vec![victim as PartyId]);
        assert_models_identical(&pl.model, &pw.model);
        assert!(
            paillier.finals[victim].is_err(),
            "the defector cannot finish"
        );
        assert_models_identical(
            paillier.finals[0].as_ref().expect("authority survives"),
            &pl.model,
        );
    }

    #[test]
    fn shamir_aborts_when_survivors_fall_below_threshold() {
        let ds = synth::blobs(96, 3);
        let parts = Partition::horizontal(&ds, 3, 5).expect("partition");
        let cfg = AdmmConfig::default().with_max_iter(4).with_seed(11);
        let run = run_secagg(
            &parts,
            &cfg,
            SecAggConfig::shamir().with_threshold(3),
            &[(2, 0)],
        );
        match run.outcome {
            Err(TrainError::Dropped { parties }) => assert_eq!(parties, vec![2]),
            other => panic!("expected a threshold abort, got {other:?}"),
        }
    }
}
