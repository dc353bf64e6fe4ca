//! Wire-path allocation gate — pins the zero-copy decode contract.
//!
//! The refactor in DESIGN.md §5i promises three things that this binary
//! proves with a counting allocator, per operation over a steady-state loop:
//!
//! 1. `PackedView::parse` and `FrameView` classification allocate nothing.
//! 2. `PackedStruct::decode_shared` / `frame::parse_for_shared` allocate
//!    nothing — payloads alias the backing `Bytes` via refcount bumps.
//! 3. Pooled encode (`encode_into` a reused scratch, then one
//!    `Bytes::copy_from_slice`) never allocates more than the legacy owned
//!    `encode()` path it replaced.
//!
//! The owned `decode()` oracle is also measured and asserted to allocate,
//! which keeps the gate honest: if the counter ever stops seeing the
//! oracle's payload copy, the zero-alloc assertions above are meaningless.
//!
//! The same `measure()` loop also times the other codec hot paths: the §3.4
//! beacon cipher (seal, open, forged-tag reject), consolidated control
//! batches, and OmniAddress derivation. Every case prints and exports
//! `wire.<case>.ns_per_op` and `wire.<case>.milli_allocs_per_op`.
//!
//! `--smoke` runs the assertions for `scripts/ci.sh`; without the flag it
//! also reports per-op throughput.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use omni_bench::ObsRun;
use omni_core::{ContextCipher, ControlFrame, GroupKey};
use omni_wire::frame::{self, Incoming};
use omni_wire::{
    AddressBeaconPayload, BleAddress, FrameView, MeshAddress, OmniAddress, PackedStruct,
    PackedView, RelayHeader, TraceId,
};

/// Counts every heap allocation (and reallocation) the process makes.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ITERS: u64 = 100_000;

/// Runs `op` `ITERS` times and returns `(allocs per op, ns per op)`.
fn measure(mut op: impl FnMut()) -> (f64, f64) {
    // One warmup pass lets lazy one-time allocations (scratch growth,
    // formatting machinery) land outside the measured window.
    op();
    let before = ALLOCS.load(Ordering::Relaxed);
    let started = Instant::now();
    for _ in 0..ITERS {
        op();
    }
    let ns = started.elapsed().as_nanos() as f64 / ITERS as f64;
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (allocs as f64 / ITERS as f64, ns)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Every measured window below is a before/after delta over its own
    // loop, so the guard's allocations (registry, end-of-run emit) never
    // land inside one; it just writes `target/obs/wire.json` on exit.
    let obs = ObsRun::new("wire");
    let origin = OmniAddress::from_u64(0x0123_4567_89ab_cdef);
    let dest = OmniAddress::from_u64(0xfeed_beef_dead_f00d);

    // A worst-case-shaped packed frame: traced, relayed, real payload.
    let packed = PackedStruct::context(origin, Bytes::from_static(b"svc:interaction-advert"))
        .with_trace(TraceId::derive(origin, 7))
        .with_relay(RelayHeader::new(dest, 6).with_copies(4));
    let wire = packed.encode();
    let backing = Bytes::copy_from_slice(&wire);
    let framed = frame::encode_directed(dest, &packed);
    let framed_backing = Bytes::copy_from_slice(&framed);

    let (view_allocs, view_ns) = measure(|| {
        let v = PackedView::parse(black_box(&wire[..])).expect("valid frame");
        black_box((v.kind(), v.source(), v.trace(), v.payload().len()));
        let f = FrameView::parse(black_box(&framed[..])).expect("valid frame");
        black_box(matches!(f, FrameView::Directed { .. }));
    });
    let (shared_allocs, shared_ns) = measure(|| {
        let d = PackedStruct::decode_shared(black_box(&backing)).expect("valid frame");
        black_box(d.payload.len());
        let inc = frame::parse_for_shared(dest, black_box(&framed_backing));
        black_box(matches!(inc, Incoming::Plain(_)));
    });
    let (owned_allocs, owned_ns) = measure(|| {
        let d = PackedStruct::decode(black_box(&wire)).expect("valid frame");
        black_box(d.payload.len());
    });

    let mut scratch = BytesMut::with_capacity(wire.len());
    let (pooled_allocs, pooled_ns) = measure(|| {
        scratch.clear();
        black_box(&packed).encode_into(&mut scratch);
        black_box(Bytes::copy_from_slice(&scratch));
    });
    let (legacy_allocs, legacy_ns) = measure(|| {
        black_box(black_box(&packed).encode());
    });

    // A keyed fleet seals every address beacon it sends and opens every one
    // it hears; a forged tag is rejected after the same fused pass.
    let beacon = PackedStruct::address_beacon(
        origin,
        &AddressBeaconPayload {
            mesh: Some(MeshAddress::from_u64(0xfeed)),
            ble: Some(BleAddress([2, 0, 0, 0, 0, 1])),
        },
    );
    let key = GroupKey::from_passphrase("codec-bench-group");
    let mut cipher = ContextCipher::new(key, origin.as_u64());
    let seal = measure(|| {
        black_box(cipher.seal(black_box(&beacon.payload)));
    });
    let sealed = cipher.seal(&beacon.payload);
    let open = measure(|| {
        black_box(ContextCipher::open(black_box(&key), black_box(&sealed)).expect("valid tag"));
    });
    let mut forged = sealed.to_vec();
    forged[8] ^= 0x01; // first tag byte
    let open_forged = measure(|| {
        assert!(ContextCipher::open(black_box(&key), black_box(&forged)).is_none());
    });

    // Consolidated multicast beacon: address beacon + three context packs.
    let batch = ControlFrame::Batch(vec![
        beacon.clone(),
        PackedStruct::context(origin, Bytes::from_static(b"svc:interaction-advert")),
        PackedStruct::context(origin, Bytes::from_static(b"interest:media")),
        PackedStruct::context(origin, Bytes::from_static(b"inventory:0123456789abcdef")),
    ]);
    let batch_encoded = batch.encode();
    let batch_encode = measure(|| {
        black_box(black_box(&batch).encode());
    });
    let batch_decode = measure(|| {
        black_box(ControlFrame::decode(black_box(&batch_encoded)).expect("valid batch"));
    });

    let macs = [[0x02, 0x57, 0x1f, 0, 0, 1], [0x02, 0, 0, 0, 0, 1]];
    let derive = measure(|| {
        black_box(OmniAddress::from_interface_macs(black_box(&macs)));
    });

    for (name, (allocs, ns)) in [
        ("view_parse", (view_allocs, view_ns)),
        ("decode_shared", (shared_allocs, shared_ns)),
        ("owned_decode", (owned_allocs, owned_ns)),
        ("pooled_encode", (pooled_allocs, pooled_ns)),
        ("legacy_encode", (legacy_allocs, legacy_ns)),
        ("context_seal_beacon", seal),
        ("context_open_beacon", open),
        ("context_open_forged", open_forged),
        ("control_batch_encode", batch_encode),
        ("control_batch_decode", batch_decode),
        ("omni_address_derivation", derive),
    ] {
        println!("wire: {name:<24} {allocs:6.3} allocs/op {ns:8.0} ns/op");
        obs.gauge(&format!("wire.{name}.ns_per_op")).set(ns as i64);
        // Gauges are integral; scale by 1000 so fractional alloc rates
        // (one-time growth amortized over the loop) stay visible.
        obs.gauge(&format!("wire.{name}.milli_allocs_per_op")).set((allocs * 1000.0) as i64);
    }

    assert!(
        view_allocs == 0.0,
        "view parse must be allocation-free, measured {view_allocs:.3} allocs/op"
    );
    assert!(
        shared_allocs == 0.0,
        "decode_shared must be allocation-free, measured {shared_allocs:.3} allocs/op"
    );
    assert!(
        owned_allocs > 0.0,
        "the owned oracle should copy its payload; a zero reading means the \
         allocation counter is blind and the assertions above prove nothing"
    );
    assert!(
        pooled_allocs <= legacy_allocs,
        "pooled encode allocates more than the legacy path it replaced: \
         {pooled_allocs:.3} > {legacy_allocs:.3} allocs/op"
    );

    if !smoke {
        println!(
            "wire: throughput — view parse {:.1} Mops/s, decode_shared {:.1} Mops/s, \
             pooled encode {:.1} Mops/s",
            1e3 / view_ns,
            1e3 / shared_ns,
            1e3 / pooled_ns
        );
    }
    println!("wire: ok");
}
