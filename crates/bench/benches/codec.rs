//! Microbenchmarks for the wire codec — the hot path of every transmission —
//! and for the §3.4 beacon cipher that keyed fleets run on every beacon.

use bytes::{Bytes, BytesMut};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use omni_core::{ContextCipher, ControlFrame, GroupKey};
use omni_wire::{
    AddressBeaconPayload, BleAddress, MeshAddress, OmniAddress, PackedStruct, PackedView,
};

fn bench_codec(c: &mut Criterion) {
    let addr = OmniAddress::from_u64(0x0123_4567_89ab_cdef);
    let beacon = AddressBeaconPayload {
        mesh: Some(MeshAddress::from_u64(0xfeed)),
        ble: Some(BleAddress([2, 0, 0, 0, 0, 1])),
    };
    let packed = PackedStruct::address_beacon(addr, &beacon);
    let encoded = packed.encode();

    c.bench_function("packed_encode_beacon", |b| {
        b.iter(|| black_box(&packed).encode());
    });
    c.bench_function("packed_decode_beacon", |b| {
        b.iter(|| PackedStruct::decode(black_box(&encoded)).unwrap());
    });
    c.bench_function("packed_view_parse_beacon", |b| {
        b.iter(|| PackedView::parse(black_box(&encoded[..])).unwrap().source());
    });
    c.bench_function("packed_decode_shared_beacon", |b| {
        b.iter(|| PackedStruct::decode_shared(black_box(&encoded)).unwrap());
    });
    let mut scratch = BytesMut::with_capacity(encoded.len());
    c.bench_function("packed_encode_into_beacon", |b| {
        b.iter(|| {
            scratch.clear();
            black_box(&packed).encode_into(&mut scratch);
            scratch.len()
        });
    });

    // A keyed fleet seals every address beacon it sends and opens every one
    // it hears; a forged tag is rejected after the same fused pass.
    let key = GroupKey::from_passphrase("codec-bench-group");
    let mut cipher = ContextCipher::new(key, addr.as_u64());
    c.bench_function("context_seal_beacon", |b| {
        b.iter(|| cipher.seal(black_box(&packed.payload)));
    });
    let sealed = cipher.seal(&packed.payload);
    c.bench_function("context_open_beacon", |b| {
        b.iter(|| ContextCipher::open(black_box(&key), black_box(&sealed)).unwrap());
    });
    let mut forged = sealed.to_vec();
    forged[8] ^= 0x01; // first tag byte
    c.bench_function("context_open_forged", |b| {
        b.iter(|| assert!(ContextCipher::open(black_box(&key), black_box(&forged)).is_none()));
    });

    let ctx = PackedStruct::context(addr, Bytes::from_static(b"svc:interaction-advert"));
    let ctx_encoded = ctx.encode();
    c.bench_function("packed_decode_context", |b| {
        b.iter(|| PackedStruct::decode(black_box(&ctx_encoded)).unwrap());
    });
    c.bench_function("packed_decode_shared_context", |b| {
        b.iter(|| PackedStruct::decode_shared(black_box(&ctx_encoded)).unwrap());
    });

    // Consolidated multicast beacon: address beacon + three context packs.
    let batch = ControlFrame::Batch(vec![
        packed.clone(),
        ctx.clone(),
        PackedStruct::context(addr, Bytes::from_static(b"interest:media")),
        PackedStruct::context(addr, Bytes::from_static(b"inventory:0123456789abcdef")),
    ]);
    let batch_encoded = batch.encode();
    c.bench_function("control_batch_encode", |b| {
        b.iter(|| black_box(&batch).encode());
    });
    c.bench_function("control_batch_decode", |b| {
        b.iter(|| ControlFrame::decode(black_box(&batch_encoded)).unwrap());
    });

    c.bench_function("omni_address_derivation", |b| {
        let macs = [[0x02, 0x57, 0x1f, 0, 0, 1], [0x02, 0, 0, 0, 0, 1]];
        b.iter(|| OmniAddress::from_interface_macs(black_box(&macs)));
    });
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
