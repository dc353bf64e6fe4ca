//! The manager polls a technology only when its send queue has work.
//!
//! A technology's `poll` only drains its send queue, so polling one with
//! nothing enqueued is wasted work. These tests wrap every technology of two
//! keyed PI managers in a probe that logs each `poll` (when, and how many
//! requests were waiting) and pin the exact counts: WiFi that carries
//! nothing is polled once, in the first pump after `enable`, and never
//! again; a send pushed during a pump is polled within that same pump.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use omni_core::techs::{BleBeaconTech, WifiMulticastTech, WifiTcpTech};
use omni_core::{
    ContextParams, D2dTechnology, GroupKey, LinkTimings, LowAddr, OmniBuilder, OmniConfig, OmniCtl,
    OmniManager, OmniStack, SendRequest, SharedQueue, TechQueues,
};
use omni_obs::Obs;
use omni_sim::{
    DeviceCaps, DeviceId, NodeApi, NodeEvent, Position, Runner, SimConfig, SimDuration, SimTime,
};
use omni_wire::{OmniAddress, StatusCode, TechType};

/// Every `poll` of one technology: the virtual time and the number of
/// requests waiting on its send queue.
type Polls = Rc<RefCell<Vec<(SimTime, usize)>>>;

/// Every context pack and data payload one application received.
type Heard = Rc<RefCell<Vec<Bytes>>>;

/// Passes every call through to the wrapped technology, logging polls.
struct PollProbe {
    inner: Box<dyn D2dTechnology>,
    send: Option<SharedQueue<SendRequest>>,
    polls: Polls,
}

impl D2dTechnology for PollProbe {
    fn enable(
        &mut self,
        queues: TechQueues,
        token_base: u64,
        api: &mut NodeApi<'_>,
    ) -> (TechType, LowAddr) {
        self.send = Some(queues.send.clone());
        self.inner.enable(queues, token_base, api)
    }

    fn disable(&mut self, api: &mut NodeApi<'_>) {
        self.inner.disable(api)
    }

    fn tech_type(&self) -> TechType {
        self.inner.tech_type()
    }

    fn poll(&mut self, api: &mut NodeApi<'_>) {
        let waiting = self.send.as_ref().map_or(0, SharedQueue::len);
        self.polls.borrow_mut().push((api.now, waiting));
        self.inner.poll(api)
    }

    fn on_node_event(&mut self, event: &NodeEvent, api: &mut NodeApi<'_>) -> bool {
        self.inner.on_node_event(event, api)
    }

    fn has_session(&self, addr: &LowAddr) -> bool {
        self.inner.has_session(addr)
    }

    fn attach_obs(&mut self, obs: &Obs) {
        self.inner.attach_obs(obs)
    }
}

/// The poll logs of one device, in BLE, WiFi-multicast, WiFi-TCP order.
struct Probes([Polls; 3]);

impl Probes {
    fn of(&self, tech: TechType) -> Vec<(SimTime, usize)> {
        let i = match tech {
            TechType::BleBeacon => 0,
            TechType::WifiMulticast => 1,
            TechType::WifiTcp => 2,
            TechType::Nfc => unreachable!("no NFC is built"),
        };
        self.0[i].borrow().clone()
    }

    /// Polls after the device's start (virtual time zero).
    fn after_start(&self, tech: TechType) -> Vec<(SimTime, usize)> {
        self.of(tech).into_iter().filter(|(at, _)| *at > SimTime::ZERO).collect()
    }
}

/// A keyed PI manager (BLE + both WiFi technologies) with probed techs.
fn probed_manager(sim: &Runner, dev: DeviceId, cfg: &OmniConfig) -> (OmniManager, Probes) {
    let own = OmniBuilder::omni_address(sim, dev);
    let timings = LinkTimings::from_sim(sim.config());
    let inner: [Box<dyn D2dTechnology>; 3] = [
        Box::new(BleBeaconTech::new(own, sim.ble_addr(dev), timings.ble_max_payload, 1.0)),
        Box::new(WifiMulticastTech::new(own, sim.mesh_addr(dev), timings.clone())),
        Box::new(WifiTcpTech::new(own, sim.mesh_addr(dev), timings.clone())),
    ];
    let probes = Probes(Default::default());
    let techs = inner
        .into_iter()
        .zip(&probes.0)
        .map(|(inner, polls)| {
            Box::new(PollProbe { inner, send: None, polls: polls.clone() })
                as Box<dyn D2dTechnology>
        })
        .collect();
    let cfg = OmniConfig {
        context_key: Some(GroupKey::from_passphrase("idle-polls")),
        timings,
        ..cfg.clone()
    };
    (OmniManager::new(own, cfg, techs), probes)
}

/// Two PI devices 5 m apart, each advertising a context pack and logging
/// the context packs and data it receives. `app` adds to A's application;
/// it is handed B's address.
fn pair(
    cfg: OmniConfig,
    app: impl FnOnce(&mut OmniCtl, OmniAddress) + 'static,
) -> (Runner, [Probes; 2], [Heard; 2]) {
    let mut sim = Runner::new(SimConfig::default());
    let devs = [
        sim.add_device(DeviceCaps::PI, Position::new(0.0, 0.0)),
        sim.add_device(DeviceCaps::PI, Position::new(5.0, 0.0)),
    ];
    let peer_b = OmniBuilder::omni_address(&sim, devs[1]);
    let mut app = Some(app);
    let mut probes = Vec::new();
    let mut heard = Vec::new();
    for (i, dev) in devs.into_iter().enumerate() {
        let (mgr, p) = probed_manager(&sim, dev, &cfg);
        let log: Heard = Rc::default();
        let (ctx_log, data_log) = (log.clone(), log.clone());
        let extra = if i == 0 { app.take() } else { None };
        sim.set_stack(
            dev,
            Box::new(OmniStack::new(mgr, move |omni| {
                omni.add_context(
                    ContextParams::default(),
                    Bytes::from(format!("ctx-{i}")),
                    Box::new(|_, _, _| {}),
                );
                omni.request_context(Box::new(move |_, ctx, _| {
                    ctx_log.borrow_mut().push(ctx.clone());
                }));
                omni.request_data(Box::new(move |_, data, _| {
                    data_log.borrow_mut().push(data.clone());
                }));
                if let Some(extra) = extra {
                    extra(omni, peer_b);
                }
            })),
        );
        probes.push(p);
        heard.push(log);
    }
    (sim, probes.try_into().ok().expect("two devices"), heard.try_into().expect("two devices"))
}

#[test]
fn idle_wifi_is_polled_once_at_start_and_never_after() {
    let (mut sim, probes, heard) = pair(OmniConfig::default(), |_, _| {});
    sim.run_until(SimTime::from_secs(20));

    for (i, p) in probes.iter().enumerate() {
        for tech in [TechType::WifiMulticast, TechType::WifiTcp] {
            // The ready bit starts set: one poll, at start, of an empty
            // queue, and none after.
            assert_eq!(p.of(tech), vec![(SimTime::ZERO, 0)], "device {i} {tech}");
        }
        // BLE is polled once per request, both at start: the address
        // beacon (the manager's own pump) and the context pack (the
        // application's first pump). Its periodic advertising then runs on
        // its own timers, with nothing enqueued.
        let start = (SimTime::ZERO, 1);
        assert_eq!(p.of(TechType::BleBeacon), vec![start, start], "device {i} BLE");
    }
    // The context exchange itself ran (sealed, opened, delivered).
    for (i, log) in heard.iter().enumerate() {
        let want = Bytes::from(format!("ctx-{}", 1 - i));
        assert!(log.borrow().contains(&want), "device {i} heard {:?}", log.borrow());
    }
}

#[test]
fn a_send_is_polled_in_the_pump_that_pushed_it() {
    // Off the 500 ms beacon grid, so the send's pump is the only one at
    // that instant: a request left for a later pump is polled later.
    const SEND_AT_MS: u64 = 5_321;
    let cfg = OmniConfig { data_techs: Some(vec![TechType::WifiTcp]), ..OmniConfig::default() };
    let statuses: Rc<RefCell<Vec<StatusCode>>> = Rc::default();
    let log = statuses.clone();
    let (mut sim, probes, heard) = pair(cfg, move |omni, peer_b| {
        omni.request_timers(Box::new(move |_, o| {
            let log = log.clone();
            o.send_data(
                vec![peer_b],
                Bytes::from_static(b"payload"),
                Box::new(move |code, _, _| log.borrow_mut().push(code)),
            );
        }));
        omni.set_timer(1, SimDuration::from_millis(SEND_AT_MS));
    });
    sim.run_until(SimTime::from_secs(20));

    // The request reached WiFi-TCP at the instant the application sent it:
    // one poll, in the same pump, with exactly that request waiting.
    let sent_at = SimTime::from_millis(SEND_AT_MS);
    assert_eq!(probes[0].after_start(TechType::WifiTcp), vec![(sent_at, 1)]);
    assert_eq!(probes[0].after_start(TechType::WifiMulticast), vec![]);
    assert_eq!(statuses.borrow().as_slice(), [StatusCode::SendDataSuccess]);
    assert!(heard[1].borrow().contains(&Bytes::from_static(b"payload")));
    // The receiver sent nothing, so its WiFi stayed unpolled.
    for tech in [TechType::WifiMulticast, TechType::WifiTcp] {
        assert_eq!(probes[1].after_start(tech), vec![], "receiver {tech}");
    }
}
