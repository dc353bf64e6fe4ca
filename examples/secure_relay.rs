//! Extension features in one scene (paper §3.4 and §5): a tour group with a
//! shared group key walks in a long line — context beacons are encrypted,
//! peers outside the group see nothing, and mid-line members relay context
//! so the head of the line hears the tail two BLE-hops away. The middle
//! members run adaptive beacon intervals that slow down once the group is
//! stable.
//!
//! Run with `cargo run --example secure_relay`.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use omni::core::{AdaptiveBeacon, ContextParams, GroupKey, OmniBuilder, OmniConfig, OmniStack};
use omni::sim::{DeviceCaps, Position, Runner, SimConfig, SimDuration, SimTime};

fn main() {
    let mut sim = Runner::new(SimConfig::default());
    // Every context pack any app hears, in order; and the group's shared
    // metrics, for the adaptive beacon interval.
    let log: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let obs = omni::obs::Obs::new();
    let key = GroupKey::from_passphrase("tour-group-7");

    // A line of four group devices 25 m apart (BLE range is 30 m), plus an
    // eavesdropper right in the middle with the wrong key.
    let head = sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0));
    let mid1 = sim.add_device(DeviceCaps::PI, Position::new(25.0, 0.0));
    let mid2 = sim.add_device(DeviceCaps::PI, Position::new(50.0, 0.0));
    let tail = sim.add_device(DeviceCaps::PI, Position::new(75.0, 0.0));
    let eve = sim.add_device(DeviceCaps::PI, Position::new(37.0, 0.0));

    let group = |relay_ttl: u8| OmniConfig {
        context_key: Some(key),
        relay_ttl,
        adaptive_beacon: Some(AdaptiveBeacon {
            min: SimDuration::from_millis(250),
            max: SimDuration::from_secs(2),
        }),
        obs: Some(obs.clone()),
        ..OmniConfig::default()
    };

    // The tail advertises its status; mid devices grant relayed packs two
    // further hops so the tail's context can traverse mid2 → mid1 → head.
    for (name, dev, ttl, advert) in [
        ("head", head, 0u8, &b""[..]),
        ("mid1", mid1, 2, b""),
        ("mid2", mid2, 2, b"status:keeping-up"),
        ("tail", tail, 1, b"status:tail-lagging"),
    ] {
        let mgr =
            OmniBuilder::new().with_ble().with_wifi().with_config(group(ttl)).build(&sim, dev);
        let advert = Bytes::copy_from_slice(advert);
        let log = log.clone();
        sim.set_stack(
            dev,
            Box::new(OmniStack::new(mgr, move |omni| {
                if !advert.is_empty() {
                    omni.add_context(
                        ContextParams::default(),
                        advert.clone(),
                        Box::new(|_, _, _| {}),
                    );
                }
                let who = name;
                omni.request_context(Box::new(move |src, ctx, _| {
                    let line = format!("[{who}] heard {src}: {}", String::from_utf8_lossy(ctx));
                    log.borrow_mut().push(line);
                }));
            })),
        );
    }
    // Eve: wrong key.
    let eve_cfg = OmniConfig {
        context_key: Some(GroupKey::from_passphrase("not-the-key")),
        ..OmniConfig::default()
    };
    let mgr = OmniBuilder::new().with_ble().with_wifi().with_config(eve_cfg).build(&sim, eve);
    let eve_log = log.clone();
    sim.set_stack(
        eve,
        Box::new(OmniStack::new(mgr, move |omni| {
            omni.request_context(Box::new(move |src, ctx, _| {
                eve_log.borrow_mut().push(format!("[eve!] decrypted {src}: {ctx:?}"));
            }));
        })),
    );

    sim.run_until(SimTime::from_secs(20));

    // What the head learned, despite the tail being two hops away:
    let mut head_heard = std::collections::BTreeSet::new();
    let mut eve_heard = 0;
    for line in log.borrow().iter() {
        if line.starts_with("[head]") {
            head_heard.insert(line.clone());
        }
        if line.starts_with("[eve!]") {
            eve_heard += 1;
        }
    }
    for m in &head_heard {
        println!("{m}");
    }
    println!("eve decrypted {eve_heard} packs (group key held: no)");
    let (_, slowest) = obs.gauge("mgr.beacon_interval_us").watermarks();
    println!("slowest adaptive beacon interval across the group: {slowest} us");
    assert!(head_heard.iter().any(|m| m.contains("tail-lagging")), "relay reached the head");
    assert_eq!(eve_heard, 0);
}
