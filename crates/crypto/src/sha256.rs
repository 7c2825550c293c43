//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! Block compression runs on the x86 SHA extensions when run-time
//! detection finds them (see `shani`), and on a portable implementation
//! otherwise; both produce identical digests.

use std::fmt;

use crate::hex;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani;

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest (used as a sentinel, e.g. genesis parent hash).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex encoding.
    pub fn to_hex(&self) -> String {
        hex::encode(&self.0)
    }

    /// Parses a 64-character hex string.
    ///
    /// # Errors
    /// Returns `None` when the input is not exactly 64 hex characters.
    pub fn from_hex(s: &str) -> Option<Digest> {
        let bytes = hex::decode(s)?;
        let arr: [u8; 32] = bytes.try_into().ok()?;
        Some(Digest(arr))
    }

    /// A short 8-hex-character prefix for logs.
    pub fn short(&self) -> String {
        hex::encode(&self.0[..4])
    }

    /// XOR of two digests (used to accumulate unordered sets).
    pub fn xor(&self, other: &Digest) -> Digest {
        let mut out = [0u8; 32];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            *o = a ^ b;
        }
        Digest(out)
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(b: [u8; 32]) -> Self {
        Digest(b)
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
/// ```
/// use duc_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress_blocks);
    }

    /// Completes the hash and returns the digest.
    pub fn finalize(self) -> Digest {
        self.finish(compress_blocks)
    }

    #[inline]
    fn absorb(&mut self, data: &[u8], compress: Compress) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        let whole = input.len() - input.len() % 64;
        if whole > 0 {
            compress(&mut self.state, &input[..whole]);
        }
        let rest = &input[whole..];
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    #[inline]
    fn finish(mut self, compress: Compress) -> Digest {
        // Padding: 0x80, zeros up to 56 bytes into a block, then the
        // 64-bit big-endian message length in bits.
        let bit_len = self.total_len.wrapping_mul(8);
        let mut at = self.buffer_len;
        self.buffer[at] = 0x80;
        at += 1;
        if at > 56 {
            self.buffer[at..].fill(0);
            compress(&mut self.state, &self.buffer);
            at = 0;
        }
        self.buffer[at..56].fill(0);
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// A compression function over a whole number of 64-byte blocks.
type Compress = fn(&mut [u32; 8], &[u8]);

/// Compresses `blocks` (a multiple of 64 bytes) into `state` with the
/// fastest kernel this CPU supports: SHA-NI when run-time detection finds
/// it, the portable implementation otherwise.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::compress(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// The portable FIPS 180-4 compression, one block at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    /// Hashes `data`, fed in `chunk`-byte updates, through `compress`.
    fn digest_with(compress: Compress, data: &[u8], chunk: usize) -> Digest {
        let mut h = Sha256::new();
        for part in data.chunks(chunk) {
            h.absorb(part, compress);
        }
        h.finish(compress)
    }

    /// Both compression paths, named. Without SHA-NI the hardware arm is
    /// dropped and `test` says so on stderr, which the test harness does
    /// not capture, so a skipped arm never passes silently.
    fn kernels(test: &str) -> Vec<(&'static str, Compress)> {
        let mut out: Vec<(&'static str, Compress)> = vec![("portable", compress_portable)];
        #[cfg(target_arch = "x86_64")]
        if shani::detected() {
            out.push(("sha-ni", |state, blocks| {
                assert!(shani::compress(state, blocks), "SHA-NI vanished");
            }));
        }
        if out.len() == 1 {
            writeln!(
                std::io::stderr(),
                "{test}: no SHA-NI on this CPU, hardware kernel NOT exercised"
            )
            .ok();
        }
        out
    }

    /// Deterministic test bytes (SplitMix64 stream).
    fn bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// Checks a known-answer vector through the public entry point and
    /// through each kernel.
    fn assert_vector(test: &str, msg: &[u8], want: &str) {
        assert_eq!(sha256(msg).to_hex(), want, "sha256()");
        for (name, compress) in kernels(test) {
            let got = digest_with(compress, msg, msg.len().max(1));
            assert_eq!(got.to_hex(), want, "{name}");
        }
    }

    #[test]
    fn kernels_agree_on_every_short_length() {
        let data = bytes(1, 300);
        let kernels = kernels("kernels_agree_on_every_short_length");
        for len in 0..=300 {
            let msg = &data[..len];
            let want = digest_with(compress_portable, msg, len.max(1));
            for &(name, compress) in &kernels {
                assert_eq!(
                    digest_with(compress, msg, len.max(1)),
                    want,
                    "{name}, {len} B"
                );
            }
            assert_eq!(sha256(msg), want, "dispatching entry point, {len} B");
        }
    }

    #[test]
    fn kernels_agree_on_seeded_random_lengths() {
        let kernels = kernels("kernels_agree_on_seeded_random_lengths");
        let lengths = bytes(7, 96);
        for (i, pair) in lengths.chunks_exact(2).enumerate() {
            let len = usize::from(u16::from_le_bytes([pair[0], pair[1]])) % (16 * 1024 + 1);
            let msg = bytes(100 + i as u64, len);
            let want = digest_with(compress_portable, &msg, len.max(1));
            for &(name, compress) in &kernels {
                assert_eq!(
                    digest_with(compress, &msg, len.max(1)),
                    want,
                    "{name}, {len} B"
                );
            }
        }
    }

    // NIST / well-known vectors.
    #[test]
    fn empty_string_vector() {
        assert_vector(
            "empty_string_vector",
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        assert_vector(
            "abc_vector",
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        assert_vector(
            "two_block_vector",
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a_vector() {
        assert_vector(
            "million_a_vector",
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        // Message lengths and update sizes straddle the 55/56-byte padding
        // edge and the 64-byte block edge, on both kernels.
        for (name, compress) in kernels("incremental_equals_one_shot") {
            for len in [0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 1000] {
                let data = bytes(len as u64, len);
                let one_shot = sha256(&data);
                for chunk in [1, 3, 55, 56, 63, 64, 65, 127, 500] {
                    assert_eq!(
                        digest_with(compress, &data, chunk),
                        one_shot,
                        "{name}, {len} B in {chunk}-byte updates"
                    );
                }
            }
        }
    }

    #[test]
    fn boundary_lengths_hash_distinctly() {
        // 55/56/64 bytes exercise the padding edge cases.
        let d55 = sha256(&[0u8; 55]);
        let d56 = sha256(&[0u8; 56]);
        let d64 = sha256(&[0u8; 64]);
        assert_ne!(d55, d56);
        assert_ne!(d56, d64);
    }

    #[test]
    fn digest_hex_roundtrip() {
        let d = sha256(b"roundtrip");
        let parsed = Digest::from_hex(&d.to_hex()).expect("valid hex");
        assert_eq!(parsed, d);
        assert!(Digest::from_hex("xyz").is_none());
        assert!(Digest::from_hex("aa").is_none(), "too short");
    }

    #[test]
    fn digest_helpers() {
        let d = sha256(b"helpers");
        assert_eq!(d.short().len(), 8);
        assert_eq!(d.xor(&d), Digest::ZERO);
        assert_eq!(d.xor(&Digest::ZERO), d);
        assert_eq!(format!("{d}").len(), 64);
        assert!(format!("{d:?}").starts_with("Digest("));
    }
}
