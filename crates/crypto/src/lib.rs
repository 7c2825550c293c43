//! # duc-crypto — cryptographic substrate
//!
//! The architecture needs hashing (block and resource integrity), message
//! authentication, symmetric encryption (TEE sealed storage, on-chain policy
//! confidentiality), digital signatures (transactions, attestation quotes,
//! usage evidence) and Merkle commitments (block bodies). No cryptography
//! crates are available offline, so everything here is implemented from
//! primary specifications:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 (validated against NIST vectors).
//!   On x86_64 the block compression runs on the SHA extensions
//!   (`sha256rnds2`, `sha256msg1`, `sha256msg2`, "SHA-NI") when
//!   `is_x86_feature_detected!` finds them at run time; every other CPU
//!   and architecture uses the portable implementation. The choice is
//!   automatic, with no configuration, and both kernels produce identical
//!   digests (tested against each other and the NIST vectors). The crate
//!   denies `unsafe_code` everywhere except the SHA-NI module.
//! * [`hmac`] — RFC 2104 HMAC-SHA-256 (validated against RFC 4231 vectors).
//! * [`chacha20`] — RFC 8439 ChaCha20 stream cipher.
//! * [`schnorr`] — Schnorr signatures over a 63-bit safe-prime group.
//! * [`merkle`] — binary Merkle trees with inclusion proofs.
//!
//! ## Security model
//!
//! The Schnorr group is deliberately small (a 63-bit safe prime): discrete
//! logs there resist *accidental* forgery in tests but not a determined
//! attacker. This is a documented substitution (see DESIGN.md §2) — the
//! architecture's behaviour depends on the *API contract* of signatures
//! (unforgeability within the simulation, key identity, tamper evidence),
//! not on production-grade key sizes.

#![deny(unsafe_code)]

pub mod chacha20;
pub mod hex;
pub mod hmac;
pub mod merkle;
pub mod schnorr;
pub mod sha256;

pub use chacha20::ChaCha20;
pub use hmac::hmac_sha256;
pub use merkle::{MerkleProof, MerkleTree};
pub use schnorr::{KeyPair, PublicKey, SecretKey, Signature, SignatureError};
pub use sha256::{sha256, Digest, Sha256};

/// Hashes the concatenation of parts, domain-separating each part by its
/// length. Used everywhere a composite structure needs one digest.
///
/// # Example
/// ```
/// let a = duc_crypto::hash_parts(&[b"ab", b"c"]);
/// let b = duc_crypto::hash_parts(&[b"a", b"bc"]);
/// assert_ne!(a, b, "length prefixes prevent boundary collisions");
/// ```
pub fn hash_parts(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(&(p.len() as u64).to_le_bytes());
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_parts_is_injective_on_boundaries() {
        let a = hash_parts(&[b"ab", b"c"]);
        let b = hash_parts(&[b"a", b"bc"]);
        assert_ne!(a, b);
    }

    #[test]
    fn hash_parts_of_same_input_is_stable() {
        assert_eq!(hash_parts(&[b"x", b"y"]), hash_parts(&[b"x", b"y"]));
    }
}
