//! Property-based tests for the wire codec.

use bytes::Bytes;
use omni_wire::{
    AddressBeaconPayload, BleAddress, ContentKind, MeshAddress, OmniAddress, PackedStruct,
    RelayHeader, TraceId, WireError, ADDRESS_BEACON_PAYLOAD_LEN, HEADER_LEN, RELAY_LEN, TRACE_LEN,
};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = ContentKind> {
    prop_oneof![
        Just(ContentKind::AddressBeacon),
        Just(ContentKind::Context),
        Just(ContentKind::Data),
    ]
}

fn arb_trace() -> impl Strategy<Value = Option<TraceId>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), any::<u64>())
            .prop_map(|(origin, seq)| Some(TraceId::derive(OmniAddress::from_u64(origin), seq))),
    ]
}

fn arb_relay() -> impl Strategy<Value = Option<RelayHeader>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(dest, ttl, hops, copies)| {
                Some(RelayHeader { dest: OmniAddress::from_u64(dest), ttl, hops, copies })
            }
        ),
    ]
}

fn arb_packed() -> impl Strategy<Value = PackedStruct> {
    (
        arb_kind(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..512),
        arb_trace(),
        arb_relay(),
    )
        .prop_map(|(kind, addr, payload, trace, relay)| PackedStruct {
            kind,
            source: OmniAddress::from_u64(addr),
            payload: Bytes::from(payload),
            trace,
            relay,
        })
}

proptest! {
    /// encode → decode is the identity for every well-formed struct.
    #[test]
    fn packed_roundtrip(p in arb_packed()) {
        let decoded = PackedStruct::decode(&p.encode()).unwrap();
        prop_assert_eq!(decoded, p);
    }

    /// Encoded length is always header (+ trace and relay when stamped) +
    /// payload, with no padding.
    #[test]
    fn encoded_len_is_exact(p in arb_packed()) {
        let trace_len = if p.trace.is_some() { TRACE_LEN } else { 0 };
        let relay_len = if p.relay.is_some() { RELAY_LEN } else { 0 };
        prop_assert_eq!(p.encode().len(), HEADER_LEN + trace_len + relay_len + p.payload.len());
        prop_assert_eq!(p.encoded_len(), p.encode().len());
    }

    /// Decoding arbitrary bytes never panics; it either succeeds or reports a
    /// structured error.
    #[test]
    fn decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        match PackedStruct::decode(&bytes) {
            Ok(p) => {
                // Decode → encode → decode is a fixpoint. (Plain re-encoding
                // may legally shrink one non-canonical input: a frame whose
                // kind byte sets the trace flag over an all-zero trace field
                // decodes as untraced and re-encodes without the flag.)
                let reencoded = p.encode();
                let again = PackedStruct::decode(&reencoded).unwrap();
                prop_assert_eq!(&again, &p);
                prop_assert_eq!(again.encode().as_ref(), reencoded.as_ref());
                if bytes[0] & omni_wire::TRACE_FLAG == 0 || p.trace.is_some() {
                    // Canonical inputs re-encode byte-identically.
                    prop_assert_eq!(reencoded.as_ref(), &bytes[..]);
                }
            }
            Err(WireError::Truncated { needed, got }) => {
                prop_assert!(got < needed);
                prop_assert!(
                    needed == HEADER_LEN
                        || needed == HEADER_LEN + TRACE_LEN
                        || needed == HEADER_LEN + RELAY_LEN
                        || needed == HEADER_LEN + TRACE_LEN + RELAY_LEN
                );
            }
            Err(WireError::UnknownKind(k)) => prop_assert!(k > 2 && k <= 0x3f),
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    /// The flag-bit layout: stamped trace and relay headers always roundtrip
    /// through encode and through the cheap header peeks.
    #[test]
    fn trace_roundtrips_and_peeks(p in arb_packed()) {
        let wire = p.encode();
        prop_assert_eq!(PackedStruct::peek_trace(&wire), p.trace);
        prop_assert_eq!(PackedStruct::peek_relay(&wire), p.relay);
        let decoded = PackedStruct::decode(&wire).unwrap();
        prop_assert_eq!(decoded.trace, p.trace);
        prop_assert_eq!(decoded.relay, p.relay);
    }

    /// Address beacon payload roundtrips for any pair of (possibly absent)
    /// addresses, as long as "present" addresses are non-zero (zero encodes
    /// absence).
    #[test]
    fn beacon_roundtrip(mesh in any::<u64>(), ble in any::<u64>()) {
        let mesh_addr = MeshAddress::from_u64(mesh);
        let ble_addr = BleAddress::from_u64(ble);
        let b = AddressBeaconPayload {
            mesh: (mesh_addr != MeshAddress::default()).then_some(mesh_addr),
            ble: (ble_addr != BleAddress::default()).then_some(ble_addr),
        };
        let encoded = b.encode();
        prop_assert_eq!(encoded.len(), ADDRESS_BEACON_PAYLOAD_LEN);
        prop_assert_eq!(AddressBeaconPayload::decode(&encoded).unwrap(), b);
    }

    /// omni_address derivation is permutation-invariant over interfaces.
    #[test]
    fn address_permutation_invariant(
        macs in proptest::collection::vec(any::<[u8; 6]>(), 1..5),
        seed in any::<u64>(),
    ) {
        let mut shuffled = macs.clone();
        // Cheap deterministic shuffle keyed by the seed.
        let n = shuffled.len();
        for i in (1..n).rev() {
            let j = (seed as usize).wrapping_mul(i.wrapping_add(7)) % (i + 1);
            shuffled.swap(i, j);
        }
        prop_assert_eq!(
            OmniAddress::from_interface_macs(&macs),
            OmniAddress::from_interface_macs(&shuffled)
        );
    }

    /// The allocation-free derivation hashes exactly what the original one
    /// did (FNV-1a over a sorted `Vec` copy), duplicates and the empty list
    /// included: MACs are drawn from a small pool so repeats are common.
    #[test]
    fn address_matches_the_sorted_vec_derivation(
        pool in proptest::collection::vec(any::<[u8; 6]>(), 1..4),
        picks in proptest::collection::vec(any::<proptest::sample::Index>(), 0..9),
    ) {
        let macs: Vec<[u8; 6]> = picks.iter().map(|i| pool[i.index(pool.len())]).collect();
        let mut sorted = macs.clone();
        sorted.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in sorted.iter().flatten() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        prop_assert_eq!(OmniAddress::from_interface_macs(&macs), OmniAddress::from_u64(h));
    }
}
