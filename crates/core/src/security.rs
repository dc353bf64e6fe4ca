//! Context-beacon encryption (paper §3.4, *Security Considerations*).
//!
//! "Omni allows applications to interact with unknown devices, which
//! presents potential security vulnerabilities ... beacons for sharing
//! context can be encrypted using symmetric encryption. The key to decrypt
//! the beacon could be shared out of band, for example, by registering the
//! user device with a centralized authority."
//!
//! The cipher is XTEA (Needham & Wheeler, 1997) in counter mode with a
//! truncated CBC-MAC tag — a deliberately small, dependency-free
//! construction sized for beacon payloads. Sealed payloads carry an 8-byte
//! nonce and a 4-byte tag; a receiver without the group key (or a tampered
//! beacon) fails authentication and the pack is dropped before it reaches
//! any application, which doubles as the §3.4 authentication-of-nearby-
//! devices story.
//!
//! The keystream costs one XTEA block per 8 bytes of payload. The MAC runs
//! over the ciphertext, so `open` verifies and decrypts in one fused pass:
//! MAC step `j` and keystream block `j + 1` are independent and run as a
//! round-interleaved pair of encryptions (two lanes), and the plaintext is
//! returned only after the tag verifies. `seal` uses the same pass, so a
//! beacon body of `n` blocks costs `n + 1` chained block encryptions
//! either way.
//!
//! This is an evaluation-grade construction, not a vetted AEAD: the paper
//! leaves "extensive discussion of security requirements" out of scope, and
//! so do we — the point reproduced here is the *architecture* (symmetric
//! group keys provisioned out of band, encryption transparent to the
//! developer API, graceful coexistence with unkeyed networks).

use bytes::Bytes;

const ROUNDS: u32 = 32;
const DELTA: u32 = 0x9E37_79B9;
/// Sealed payload overhead: 8-byte nonce + 4-byte tag.
pub const SEAL_OVERHEAD: usize = 12;

/// A 128-bit symmetric group key, provisioned out of band.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct GroupKey([u32; 4]);

impl std::fmt::Debug for GroupKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GroupKey(..)") // never print key material
    }
}

impl GroupKey {
    /// Builds a key from 16 raw bytes.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        let mut k = [0u32; 4];
        for (i, chunk) in bytes.chunks_exact(4).enumerate() {
            k[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
        }
        GroupKey(k)
    }

    /// Derives a key from a passphrase (FNV-1a based KDF — evaluation
    /// strength, see module docs).
    pub fn from_passphrase(phrase: &str) -> Self {
        let mut bytes = [0u8; 16];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (i, b) in phrase.bytes().cycle().take(64.max(phrase.len())).enumerate() {
            h ^= u64::from(b) ^ (i as u64);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
            bytes[i % 16] ^= (h >> 24) as u8;
        }
        GroupKey::from_bytes(bytes)
    }
}

/// XTEA's round function on one half of the block.
fn mix(v: u32) -> u32 {
    ((v << 4) ^ (v >> 5)).wrapping_add(v)
}

/// `N` independent XTEA encryptions with their rounds interleaved. The
/// lanes share no data, so an out-of-order core overlaps their `N`
/// dependency chains.
fn encrypt_lanes<const N: usize>(key: &GroupKey, blocks: [u64; N]) -> [u64; N] {
    let mut v0 = blocks.map(|b| (b >> 32) as u32);
    let mut v1 = blocks.map(|b| b as u32);
    let k = key.0;
    let mut sum: u32 = 0;
    for _ in 0..ROUNDS {
        let rk = sum.wrapping_add(k[(sum & 3) as usize]);
        for i in 0..N {
            v0[i] = v0[i].wrapping_add(mix(v1[i]) ^ rk);
        }
        sum = sum.wrapping_add(DELTA);
        let rk = sum.wrapping_add(k[((sum >> 11) & 3) as usize]);
        for i in 0..N {
            v1[i] = v1[i].wrapping_add(mix(v0[i]) ^ rk);
        }
    }
    std::array::from_fn(|i| (u64::from(v0[i]) << 32) | u64::from(v1[i]))
}

/// The one pass shared by [`ContextCipher::seal`] and
/// [`ContextCipher::open`]: XORs `input` with the CTR keystream into `out`
/// and returns the CBC-MAC tag over the ciphertext (`out` when sealing,
/// `input` when opening). The MAC is length- and nonce-bound and zero-pads
/// the last block. Keystream block `j + 1` does not depend on MAC step `j`,
/// so the two run as one interleaved pair: a payload of `n` blocks costs
/// `n + 1` chained encryptions.
fn ctr_mac(key: &GroupKey, nonce: u64, input: &[u8], out: &mut [u8], sealing: bool) -> u32 {
    let counter = |j: usize| nonce ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let blocks = input.len().div_ceil(8);
    let [mut state, mut keystream] =
        encrypt_lanes(key, [nonce ^ ((input.len() as u64) << 1), counter(0)]);
    for (j, (src, dst)) in input.chunks(8).zip(out.chunks_mut(8)).enumerate() {
        for ((d, s), k) in dst.iter_mut().zip(src).zip(keystream.to_be_bytes()) {
            *d = s ^ k;
        }
        let mut block = [0u8; 8];
        let cipher = if sealing { &*dst } else { src };
        block[..cipher.len()].copy_from_slice(cipher);
        let chained = state ^ u64::from_be_bytes(block);
        if j + 1 < blocks {
            [state, keystream] = encrypt_lanes(key, [chained, counter(j + 1)]);
        } else {
            [state] = encrypt_lanes(key, [chained]);
        }
    }
    (state >> 32) as u32 ^ state as u32
}

/// Stateful sealer for a device: encrypts outgoing context payloads with a
/// monotonically increasing nonce.
#[derive(Debug, Clone)]
pub struct ContextCipher {
    key: GroupKey,
    /// Device-unique nonce prefix (e.g. derived from the omni address) so
    /// two devices never reuse a (nonce, key) pair.
    nonce_prefix: u64,
    counter: u64,
}

impl ContextCipher {
    /// Creates a sealer. `nonce_prefix` must differ per device — the
    /// manager derives it from the device's `omni_address`.
    pub fn new(key: GroupKey, nonce_prefix: u64) -> Self {
        ContextCipher { key, nonce_prefix, counter: 0 }
    }

    /// The key (for constructing verifiers).
    pub fn key(&self) -> GroupKey {
        self.key
    }

    /// Seals a payload: `nonce(8) ‖ tag(4) ‖ ciphertext`.
    pub fn seal(&mut self, plain: &[u8]) -> Bytes {
        self.counter = self.counter.wrapping_add(1);
        let nonce = self.nonce_prefix.rotate_left(17) ^ self.counter;
        let mut out = vec![0u8; SEAL_OVERHEAD + plain.len()];
        out[..8].copy_from_slice(&nonce.to_be_bytes());
        let tag = ctr_mac(&self.key, nonce, plain, &mut out[SEAL_OVERHEAD..], true);
        out[8..12].copy_from_slice(&tag.to_be_bytes());
        Bytes::from(out)
    }

    /// Opens a sealed payload; `None` when the tag does not verify (wrong
    /// key, tampering, or truncation). Decryption and verification are one
    /// pass; the plaintext is returned only once the tag has verified.
    pub fn open(key: &GroupKey, sealed: &[u8]) -> Option<Bytes> {
        let mut plain = Vec::new();
        Self::open_into(key, sealed, &mut plain)?;
        Some(Bytes::from(plain))
    }

    /// [`Self::open`] into storage the caller owns: decrypts into `out`
    /// (reusing its capacity, so a receive loop that keeps one buffer does
    /// not allocate) and yields the plaintext only once the tag has
    /// verified. On failure `out` is left empty, so unverified plaintext
    /// never escapes.
    pub fn open_into<'a>(key: &GroupKey, sealed: &[u8], out: &'a mut Vec<u8>) -> Option<&'a [u8]> {
        out.clear();
        if sealed.len() < SEAL_OVERHEAD {
            return None;
        }
        let nonce = u64::from_be_bytes(sealed[..8].try_into().ok()?);
        let tag = u32::from_be_bytes(sealed[8..12].try_into().ok()?);
        let body = &sealed[SEAL_OVERHEAD..];
        out.resize(body.len(), 0);
        if ctr_mac(key, nonce, body, out, false) != tag {
            out.clear();
            return None;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> GroupKey {
        GroupKey::from_bytes(*b"0123456789abcdef")
    }

    #[test]
    fn seal_open_roundtrip() {
        let mut c = ContextCipher::new(key(), 42);
        for plain in [&b""[..], b"x", b"service:tour-audio", &[0u8; 64]] {
            let sealed = c.seal(plain);
            assert_eq!(sealed.len(), plain.len() + SEAL_OVERHEAD);
            let opened = ContextCipher::open(&key(), &sealed).expect("authentic");
            assert_eq!(&opened[..], plain);
        }
    }

    /// Pins the exact sealed bytes (nonce, tag and ciphertext), so a
    /// kernel change cannot move a single byte on the air. Lengths cover the
    /// empty body and both sides of every 8-byte block boundary.
    #[test]
    fn sealed_bytes_known_answer() {
        const KAT: [(usize, &str); 9] = [
            (0, "8acf13579bde02477b2b27af"),
            (1, "8acf13579bde0244b71adad861"),
            (7, "8acf13579bde02456741f04f7239ef24178539"),
            (8, "8acf13579bde024224b3c1fabcb6bf44ae7aad9b"),
            (9, "8acf13579bde0243ec5545bf5ec3460c1a17feb3ac"),
            (15, "8acf13579bde02408efc04ee90fe4ada71fb665b50fa4ac06b1afc"),
            (16, "8acf13579bde024102dd6619d7c63461417e91903fc742469db99cce"),
            (17, "8acf13579bde024e4f20a64ae8f12e5b1232bdd69d3c53035b6f2cc6b6"),
            (
                64,
                "8acf13579bde024f00de84238e252d73c8353597da8498320eca16736753796d\
                 57df1ea6e8ea14a70eb6ccb9fdf2b13be51dff791d7dfe449ef7ddd0b4d2e72a\
                 ad5cc06587feaa42b5a1c3c2",
            ),
        ];
        let mut c = ContextCipher::new(key(), 0x0123_4567_89ab_cdef);
        for (len, want) in KAT {
            let plain: Vec<u8> =
                (0..len).map(|i| (i as u8).wrapping_mul(29).wrapping_add(3)).collect();
            let sealed = c.seal(&plain);
            let hex: String = sealed.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, want, "sealed bytes at length {len}");
            assert_eq!(ContextCipher::open(&key(), &sealed).as_deref(), Some(&plain[..]));
        }
    }

    /// `open_into` reuses the caller's buffer across payloads and never
    /// leaves unverified plaintext in it.
    #[test]
    fn open_into_reuses_the_buffer_and_empties_it_on_failure() {
        let mut c = ContextCipher::new(key(), 42);
        let mut buf = Vec::new();
        let sealed = c.seal(b"secret-context");
        let opened = ContextCipher::open_into(&key(), &sealed, &mut buf);
        assert_eq!(opened, Some(&b"secret-context"[..]));
        let capacity = buf.capacity();
        let opened = ContextCipher::open_into(&key(), &c.seal(b"ctx"), &mut buf);
        assert_eq!(opened, Some(&b"ctx"[..]));
        assert_eq!(buf.capacity(), capacity, "a shorter payload reuses the buffer");

        let mut forged = sealed.to_vec();
        forged[8] ^= 0x01;
        assert_eq!(ContextCipher::open_into(&key(), &forged, &mut buf), None);
        assert!(buf.is_empty(), "unverified plaintext left behind: {buf:?}");
        let other = GroupKey::from_passphrase("wrong");
        assert_eq!(ContextCipher::open_into(&other, &sealed, &mut buf), None);
        assert!(buf.is_empty());
        assert_eq!(ContextCipher::open_into(&key(), &sealed[..SEAL_OVERHEAD - 1], &mut buf), None);
        assert!(buf.is_empty());
    }

    #[test]
    fn wrong_key_fails_authentication() {
        let mut c = ContextCipher::new(key(), 42);
        let sealed = c.seal(b"secret-context");
        let other = GroupKey::from_passphrase("wrong");
        assert_eq!(ContextCipher::open(&other, &sealed), None);
    }

    #[test]
    fn tampering_fails_authentication() {
        let mut c = ContextCipher::new(key(), 42);
        let sealed = c.seal(b"secret-context");
        for i in 0..sealed.len() {
            let mut bent = sealed.to_vec();
            bent[i] ^= 0x40;
            assert_eq!(ContextCipher::open(&key(), &bent), None, "flip at byte {i}");
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let mut c = ContextCipher::new(key(), 42);
        let sealed = c.seal(b"secret");
        assert_eq!(ContextCipher::open(&key(), &sealed[..SEAL_OVERHEAD - 1]), None);
        assert_eq!(ContextCipher::open(&key(), &[]), None);
    }

    #[test]
    fn nonces_never_repeat_across_seals_or_devices() {
        let mut a = ContextCipher::new(key(), 1);
        let mut b = ContextCipher::new(key(), 2);
        let mut nonces = std::collections::HashSet::new();
        for _ in 0..200 {
            let sa = a.seal(b"x");
            let sb = b.seal(b"x");
            assert!(nonces.insert(sa[..8].to_vec()));
            assert!(nonces.insert(sb[..8].to_vec()));
        }
    }

    #[test]
    fn ciphertexts_differ_per_seal() {
        let mut c = ContextCipher::new(key(), 7);
        let s1 = c.seal(b"same-plaintext");
        let s2 = c.seal(b"same-plaintext");
        assert_ne!(s1, s2, "fresh nonce per seal");
    }

    #[test]
    fn passphrase_keys_are_stable_and_distinct() {
        assert_eq!(
            GroupKey::from_passphrase("tour-group-7"),
            GroupKey::from_passphrase("tour-group-7")
        );
        assert_ne!(
            GroupKey::from_passphrase("tour-group-7"),
            GroupKey::from_passphrase("tour-group-8")
        );
    }

    #[test]
    fn debug_never_leaks_key_material() {
        let k = GroupKey::from_bytes([0xAA; 16]);
        let s = format!("{k:?}");
        assert!(!s.contains("aa") && !s.contains("AA") && !s.contains("170"));
    }

    #[test]
    fn xtea_reference_vector() {
        // Published XTEA test vector: key 00010203 04050607 08090a0b 0c0d0e0f,
        // plaintext 4142434445464748 → ciphertext 497df3d072612cb5.
        let k = GroupKey::from_bytes([
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ]);
        assert_eq!(encrypt_lanes(&k, [0x4142_4344_4546_4748]), [0x497d_f3d0_7261_2cb5]);
        // Interleaved lanes compute exactly what single lanes compute.
        let pair = encrypt_lanes(&k, [0x4142_4344_4546_4748, 7]);
        assert_eq!(pair, [0x497d_f3d0_7261_2cb5, encrypt_lanes(&k, [7])[0]]);
    }
}
