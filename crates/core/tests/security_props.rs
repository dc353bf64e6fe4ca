//! Property-based tests for the §3.4 beacon cipher.

use omni_core::{ContextCipher, GroupKey};
use proptest::prelude::*;

/// The cipher as first written: one full XTEA block per keystream *byte*
/// and a separate CBC-MAC pass. The block-speed kernel must reproduce it
/// byte for byte, so it is kept here as the reference.
mod reference {
    pub fn encrypt_block(k: &[u32; 4], block: u64) -> u64 {
        let mut v0 = (block >> 32) as u32;
        let mut v1 = block as u32;
        let mut sum: u32 = 0;
        for _ in 0..32 {
            v0 = v0.wrapping_add(
                (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                    ^ (sum.wrapping_add(k[(sum & 3) as usize])),
            );
            sum = sum.wrapping_add(0x9E37_79B9);
            v1 = v1.wrapping_add(
                (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                    ^ (sum.wrapping_add(k[((sum >> 11) & 3) as usize])),
            );
        }
        (u64::from(v0) << 32) | u64::from(v1)
    }

    pub fn words(key: [u8; 16]) -> [u32; 4] {
        let mut k = [0u32; 4];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            k[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        k
    }

    fn keystream_byte(k: &[u32; 4], nonce: u64, index: usize) -> u8 {
        let block =
            encrypt_block(k, nonce ^ (index as u64 / 8).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        block.to_be_bytes()[index % 8]
    }

    fn mac(k: &[u32; 4], nonce: u64, data: &[u8]) -> u32 {
        let mut state = encrypt_block(k, nonce ^ ((data.len() as u64) << 1));
        for chunk in data.chunks(8) {
            let mut block = [0u8; 8];
            block[..chunk.len()].copy_from_slice(chunk);
            state = encrypt_block(k, state ^ u64::from_be_bytes(block));
        }
        (state >> 32) as u32 ^ state as u32
    }

    /// `nonce(8) ‖ tag(4) ‖ ciphertext` for the `counter`-th seal of a
    /// cipher built with `prefix`.
    pub fn seal(key: [u8; 16], prefix: u64, counter: u64, plain: &[u8]) -> Vec<u8> {
        let k = words(key);
        let nonce = prefix.rotate_left(17) ^ counter;
        let body: Vec<u8> =
            plain.iter().enumerate().map(|(i, &b)| b ^ keystream_byte(&k, nonce, i)).collect();
        let mut out = nonce.to_be_bytes().to_vec();
        out.extend_from_slice(&mac(&k, nonce, &body).to_be_bytes());
        out.extend_from_slice(&body);
        out
    }

    pub fn open(key: [u8; 16], sealed: &[u8]) -> Option<Vec<u8>> {
        if sealed.len() < 12 {
            return None;
        }
        let k = words(key);
        let nonce = u64::from_be_bytes(sealed[..8].try_into().unwrap());
        let tag = u32::from_be_bytes(sealed[8..12].try_into().unwrap());
        let body = &sealed[12..];
        (mac(&k, nonce, body) == tag).then(|| {
            body.iter().enumerate().map(|(i, &b)| b ^ keystream_byte(&k, nonce, i)).collect()
        })
    }
}

#[test]
fn reference_matches_the_published_xtea_vector() {
    let k = reference::words([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);
    assert_eq!(reference::encrypt_block(&k, 0x4142_4344_4546_4748), 0x497d_f3d0_7261_2cb5);
}

fn arb_key() -> impl Strategy<Value = GroupKey> {
    any::<[u8; 16]>().prop_map(GroupKey::from_bytes)
}

proptest! {
    /// `seal` and `open` are byte-identical to the per-byte reference, for
    /// every key, prefix, seal count and length across several blocks;
    /// tampered and truncated input fails in both.
    #[test]
    fn kernel_matches_the_per_byte_reference(
        raw_key in any::<[u8; 16]>(),
        prefix in any::<u64>(),
        plain in proptest::collection::vec(any::<u8>(), 0..81),
        seals_before in 0u64..4,
        flip_at in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
        cut in any::<prop::sample::Index>(),
    ) {
        let key = GroupKey::from_bytes(raw_key);
        let mut c = ContextCipher::new(key, prefix);
        for _ in 0..seals_before {
            let _ = c.seal(b"warmup");
        }
        let sealed = c.seal(&plain);
        let want = reference::seal(raw_key, prefix, seals_before + 1, &plain);
        prop_assert_eq!(&sealed[..], &want[..]);
        let opened = ContextCipher::open(&key, &sealed);
        prop_assert_eq!(opened.as_deref(), reference::open(raw_key, &want).as_deref());
        prop_assert_eq!(opened.as_deref(), Some(&plain[..]));

        let mut bent = want.clone();
        let idx = flip_at.index(bent.len());
        bent[idx] ^= 1 << flip_bit;
        prop_assert_eq!(ContextCipher::open(&key, &bent), None);
        prop_assert_eq!(reference::open(raw_key, &bent), None);

        let short = &want[..cut.index(want.len())];
        prop_assert_eq!(ContextCipher::open(&key, short), None);
        prop_assert_eq!(reference::open(raw_key, short), None);
    }

    /// seal → open is the identity for every key, nonce prefix, and payload.
    #[test]
    fn seal_open_roundtrip(
        key in arb_key(),
        prefix in any::<u64>(),
        plain in proptest::collection::vec(any::<u8>(), 0..128),
        seals_before in 0usize..8,
    ) {
        let mut c = ContextCipher::new(key, prefix);
        for _ in 0..seals_before {
            let _ = c.seal(b"warmup");
        }
        let sealed = c.seal(&plain);
        let opened = ContextCipher::open(&key, &sealed).expect("authentic");
        prop_assert_eq!(&opened[..], &plain[..]);
    }

    /// A different key never authenticates (probabilistically: the 32-bit
    /// tag makes an accidental pass a ~2^-32 event, far below proptest's
    /// case count).
    #[test]
    fn cross_key_never_authenticates(
        k1 in arb_key(),
        k2 in arb_key(),
        plain in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        prop_assume!(k1 != k2);
        let mut c = ContextCipher::new(k1, 7);
        let sealed = c.seal(&plain);
        prop_assert_eq!(ContextCipher::open(&k2, &sealed), None);
    }

    /// Any single-byte corruption is detected.
    #[test]
    fn corruption_is_detected(
        key in arb_key(),
        plain in proptest::collection::vec(any::<u8>(), 1..64),
        flip_at in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let mut c = ContextCipher::new(key, 7);
        let sealed = c.seal(&plain);
        let mut bent = sealed.to_vec();
        let idx = flip_at.index(bent.len());
        bent[idx] ^= 1 << flip_bit;
        prop_assert_eq!(ContextCipher::open(&key, &bent), None);
    }

    /// Opening arbitrary garbage never panics and never authenticates.
    #[test]
    fn open_is_total(
        key in arb_key(),
        junk in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        // (A forged 32-bit tag passing by chance is a ~2^-32 event.)
        prop_assert_eq!(ContextCipher::open(&key, &junk), None);
    }
}
