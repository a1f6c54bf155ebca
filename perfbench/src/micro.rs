//! Direct timing of the crypto and masking calls at the shapes the
//! workloads use.

use std::hint::black_box;
use std::time::Instant;

use ppml_core::SeededMasker;
use ppml_crypto::{BigUint, Paillier};
use ppml_data::rng::Rng64;

use crate::{stats, Metrics, M};

/// Modulus size the wire protocol's Paillier backend uses.
const PAILLIER_BITS: usize = 128;
const KEYGENS: usize = 20;
const CIPHER_CALLS: usize = 300;
const MASK_CALLS: usize = 2000;

fn micros(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// `Paillier::keygen`, `encrypt` and `decrypt`, checking every round trip.
pub fn crypto(seed: u64, out: &mut Metrics) -> Result<(), String> {
    let mut keygen = Vec::with_capacity(KEYGENS);
    let mut key = None;
    for i in 0..KEYGENS as u64 {
        let mut rng = Rng64::new(seed.wrapping_add(i));
        let t0 = Instant::now();
        let k = Paillier::keygen(PAILLIER_BITS, &mut rng).map_err(|e| format!("keygen: {e}"))?;
        keygen.push(micros(t0) / 1e3);
        key = Some(k);
    }
    let key = key.expect("at least one keygen");
    let mut rng = Rng64::new(seed ^ 0xC1F3);
    let mut enc = Vec::with_capacity(CIPHER_CALLS);
    let mut dec = Vec::with_capacity(CIPHER_CALLS);
    for _ in 0..CIPHER_CALLS {
        // A 63-bit plaintext, like one fixed-point share coordinate.
        let m = BigUint::from_limbs(vec![rng.next_u64() >> 1]);
        let t0 = Instant::now();
        let c = key
            .encrypt(black_box(&m), &mut rng)
            .map_err(|e| format!("encrypt: {e}"))?;
        enc.push(micros(t0));
        let t0 = Instant::now();
        let back = key.decrypt(black_box(&c));
        dec.push(micros(t0));
        if back != m {
            return Err("paillier decrypt did not invert encrypt".into());
        }
    }
    out.put("crypto.paillier_keygen_ms", stats::median(&keygen));
    out.put("crypto.paillier_encrypt_us", stats::median(&enc));
    out.put("crypto.paillier_decrypt_us", stats::median(&dec));
    Ok(())
}

/// `SeededMasker::mask_share` on a share of `share_len` coordinates.
pub fn masks(seed: u64, share_len: usize, out: &mut Metrics) -> Result<(), String> {
    let masker = SeededMasker::new(seed, 0, M);
    let values: Vec<f64> = (0..share_len).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut samples = Vec::with_capacity(MASK_CALLS);
    for it in 0..MASK_CALLS as u64 {
        let t0 = Instant::now();
        let share = masker
            .mask_share(black_box(&values), it)
            .map_err(|e| format!("mask_share: {e}"))?;
        samples.push(micros(t0));
        black_box(share);
    }
    out.put("masks.mask_share_us", stats::median(&samples));
    Ok(())
}
