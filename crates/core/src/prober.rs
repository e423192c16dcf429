//! The D-PC2 active-probing study (paper §2.3b).
//!
//! Every 4 hours for two weeks, the prober sweeps 6 suspicious /24
//! subnets across the 12 historical ports of Table 5:
//!
//! 1. **Listener discovery** — plain TCP SYN probes ("we do not send
//!    probes if the host does not listen on a port").
//! 2. **Banner filtering** — listeners that greet with a well-known
//!    banner (Apache, nginx) are dropped.
//! 3. **Weaponized engagement** — a real malware binary, MITM-redirected
//!    at the candidate (CnCHunter mode 2), performs the C2 "call-home";
//!    a server that answers the protocol login counts as a responding C2.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use malnet_botgen::world::World;
use malnet_netsim::asdb::Prefix;
use malnet_netsim::stack::SockEvent;
use malnet_netsim::time::{SimDuration, SimTime};
use malnet_prng::sub_seed;
use malnet_sandbox::{AnalysisMode, Sandbox, SandboxConfig};
use malnet_telemetry::{Field as EventField, SpanCtx, Telemetry};
use malnet_wire::packet::{PacketRef, TransportRef};
use malnet_wire::pcap;

use crate::datasets::ProbedC2;

/// The prober's own vantage address.
pub const PROBER_IP: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 9);

/// [`sub_seed`] domain for a round's detached probing network.
const DOMAIN_ROUND_NET: u64 = 0x5eed_0000_0000_0004;
/// [`sub_seed`] domain for a round's weaponized-engagement sandboxes.
const DOMAIN_ENGAGE: u64 = 0x5eed_0000_0000_0005;

/// Probing configuration.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Subnets to sweep.
    pub subnets: Vec<Prefix>,
    /// Ports to sweep (Table 5).
    pub ports: Vec<u16>,
    /// First study day of the window.
    pub start_day: u32,
    /// Total probing rounds (paper: 14 days × 6 = 84).
    pub rounds: u32,
    /// Rounds per day (paper: 6, i.e. a 4-hour cadence).
    pub rounds_per_day: u32,
    /// Seconds each weaponized engagement probe runs.
    pub engage_secs: u64,
    /// Sweep the full /24 (254 hosts) or only the first N addresses
    /// (tests use a small N; the methodology is identical).
    pub hosts_per_subnet: u32,
    /// Bounded SYN re-probes (with linear backoff) for hosts that did
    /// not answer the first sweep, before declaring them non-listening.
    /// Defaults to `2`: a single-SYN discovery (`0`) reads every
    /// transiently lost packet as "nobody listening", the same false
    /// C2-death bug the pipeline's liveness sweep had.
    pub syn_retries: u32,
    /// Worker threads for the per-day round fan-out. `1` (the default)
    /// keeps the fully sequential path; larger values run a day's
    /// rounds concurrently on detached networks and merge their
    /// discoveries in round order — byte-identical at every width
    /// (enforced by the parallel-determinism suite).
    pub parallelism: usize,
    /// Run weaponized engagement guests on the block-cached interpreter
    /// (default) or the legacy stepping oracle. Bit-exact either way.
    pub block_engine: bool,
}

impl ProbeConfig {
    /// The paper's configuration over a world's probing theatre.
    pub fn from_world(world: &World) -> Self {
        ProbeConfig {
            subnets: world.probe_subnets.clone(),
            ports: malnet_botgen::world::PROBE_PORTS.to_vec(),
            start_day: world.probe_start_day,
            rounds: 84,
            rounds_per_day: 6,
            engage_secs: 25,
            hosts_per_subnet: 254,
            syn_retries: 2,
            parallelism: 1,
            block_engine: true,
        }
    }
}

/// One probing round's outcome, as plain data.
///
/// A round is a pure function of `(world, weapons, cfg, seed, round,
/// banner snapshot)` — it runs on a detached per-round network with
/// private RNG and responsiveness chains — so rounds of the same day can
/// execute on any thread in any order and [`merge_round_results`]
/// restores the canonical result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundResult {
    /// Which round (0-based across the whole window) this is.
    pub round: u32,
    /// Per surviving listener, in sweep (subnet, ip, port) order:
    /// did the weaponized engagement get a protocol answer?
    pub engagements: Vec<((Ipv4Addr, u16), bool)>,
    /// Listeners this round dropped for greeting with a benign banner;
    /// later days skip them.
    pub banner_filtered: Vec<(Ipv4Addr, u16)>,
}

/// Merge per-round results into the discovered-C2 list, restoring the
/// canonical `(round, subnet, ip, port)` order regardless of the order
/// the rounds finished (or arrive) in. Servers that engaged at least
/// once are the discovered C2s.
///
/// Permutation-invariant by construction — rounds are sorted by round
/// number and each round's engagements are already in sweep order —
/// which the merge-permutation proptest exercises directly.
pub fn merge_round_results(mut rounds: Vec<RoundResult>) -> Vec<ProbedC2> {
    rounds.sort_by_key(|r| r.round);
    // (ip, port) → probe outcomes.
    let mut results: BTreeMap<(Ipv4Addr, u16), Vec<(u32, bool)>> = BTreeMap::new();
    for r in rounds {
        for ((ip, port), engaged) in r.engagements {
            results
                .entry((ip, port))
                .or_default()
                .push((r.round, engaged));
        }
    }
    results
        .into_iter()
        .filter(|(_, probes)| probes.iter().any(|(_, e)| *e))
        .map(|((ip, port), probes)| ProbedC2 { ip, port, probes })
        .collect()
}

/// Everything a probe round needs besides its round number — bundled so
/// the fan-out closure stays readable.
struct RoundCtx<'a> {
    world: &'a World,
    weapons: &'a [Vec<u8>],
    cfg: &'a ProbeConfig,
    seed: u64,
    tel: &'a Telemetry,
    /// Coordinator span the round spans re-attach under.
    parent: SpanCtx,
}

/// Run the probing study. `weapons` are the malware binaries used for
/// engagement probes (paper: one Mirai and one Gafgyt sample), tried in
/// rotation. Probe counts land in `tel` (`prober.probes_sent`,
/// `prober.listeners_found`, `prober.engagements`); pass
/// [`Telemetry::disabled`] to opt out.
///
/// Rounds are grouped by study day: the banner-filter set crosses *day*
/// boundaries (each day's sweep skips everything filtered on earlier
/// days), while the rounds inside one day are independent given that
/// snapshot and fan out over `cfg.parallelism` workers, each on its own
/// detached network. Their discoveries merge in round order
/// ([`merge_round_results`]), so every width yields identical bytes.
pub fn run_probing(
    world: &World,
    weapons: &[Vec<u8>],
    cfg: &ProbeConfig,
    seed: u64,
    tel: &Telemetry,
) -> Vec<ProbedC2> {
    assert!(!weapons.is_empty(), "need at least one weaponized sample");
    let ctx = RoundCtx {
        world,
        weapons,
        cfg,
        seed,
        tel,
        parent: tel.current_span(),
    };
    let mut banner_filtered: BTreeSet<(Ipv4Addr, u16)> = BTreeSet::new();
    let mut round_results: Vec<RoundResult> = Vec::new();
    let mut round = 0u32;
    while round < cfg.rounds {
        let day_end = cfg
            .rounds
            .min((round / cfg.rounds_per_day + 1) * cfg.rounds_per_day);
        let day_rounds: Vec<u32> = (round..day_end).collect();
        let snapshot = banner_filtered.clone();
        let day_out = crate::par::fan_out(
            day_rounds.len(),
            cfg.parallelism,
            |i| probe_round(&ctx, day_rounds[i], &snapshot),
            // Unreachable short of a harness bug (see `fan_out`).
            |i| RoundResult {
                round: day_rounds[i],
                engagements: Vec::new(),
                banner_filtered: Vec::new(),
            },
        );
        for r in &day_out {
            banner_filtered.extend(r.banner_filtered.iter().copied());
        }
        round_results.extend(day_out);
        // A probing-day milestone for the event stream, emitted after
        // the fan-out joined — every payload field is a deterministic
        // fold of the day's round results.
        tel.event(
            "probe_day",
            None,
            &[
                (
                    "day",
                    EventField::U(u64::from(cfg.start_day + round / cfg.rounds_per_day)),
                ),
                ("rounds_completed", EventField::U(u64::from(day_end))),
                (
                    "banner_filtered",
                    EventField::U(banner_filtered.len() as u64),
                ),
            ],
        );
        round = day_end;
    }
    merge_round_results(round_results)
}

/// One probing round: SYN sweep → banner filter → weaponized
/// engagement, against a detached network private to this round.
fn probe_round(
    ctx: &RoundCtx<'_>,
    round: u32,
    banner_filtered: &BTreeSet<(Ipv4Addr, u16)>,
) -> RoundResult {
    let RoundCtx {
        world,
        weapons,
        cfg,
        seed,
        tel,
        parent,
    } = ctx;
    let _round_span = tel.span_under("prober.round", parent);
    let day = cfg.start_day + round / cfg.rounds_per_day;
    let secs_into_day =
        u64::from(round % cfg.rounds_per_day) * 86_400 / u64::from(cfg.rounds_per_day);
    let (mut net, _logs) = world.network_for_day_detached(
        day,
        sub_seed(seed ^ DOMAIN_ROUND_NET, day, u64::from(round)),
    );
    net.run_until(SimTime::from_day(day, secs_into_day));
    net.add_external_host(PROBER_IP);

    // --- step 1: listener discovery (batched SYN sweep, with
    // bounded re-probes for unanswered hosts) ---
    let mut pending: Vec<(Ipv4Addr, u16)> = Vec::new();
    for subnet in &cfg.subnets {
        for h in 0..cfg.hosts_per_subnet.min(subnet.capacity()) {
            let Some(ip) = subnet.host(h) else { continue };
            for &port in &cfg.ports {
                if banner_filtered.contains(&(ip, port)) {
                    continue;
                }
                pending.push((ip, port));
            }
        }
    }
    let mut listeners: Vec<(Ipv4Addr, u16)> = Vec::new();
    let mut banners: BTreeMap<(Ipv4Addr, u16), Vec<u8>> = BTreeMap::new();
    for attempt in 0..=cfg.syn_retries {
        if pending.is_empty() {
            break;
        }
        let mut socks: BTreeMap<u64, (Ipv4Addr, u16)> = BTreeMap::new();
        for &(ip, port) in &pending {
            let sock = net.ext_tcp_connect(PROBER_IP, ip, port);
            socks.insert(sock.0, (ip, port));
        }
        tel.add("prober.probes_sent", socks.len() as u64);
        if attempt > 0 {
            tel.add("prober.syn_retries", socks.len() as u64);
        }
        net.run_for(SimDuration::from_secs(8 * (u64::from(attempt) + 1)));
        for ev in net.ext_events(PROBER_IP) {
            match ev {
                SockEvent::Connected(s) => {
                    if let Some(&pair) = socks.get(&s.0) {
                        listeners.push(pair);
                    }
                }
                SockEvent::TcpData { sock, data } => {
                    if let Some(&pair) = socks.get(&sock.0) {
                        banners.entry(pair).or_default().extend(data);
                    }
                }
                _ => {}
            }
        }
        // Close everything we opened.
        for &sock_raw in socks.keys() {
            net.ext_tcp_abort(PROBER_IP, malnet_netsim::stack::SockId(sock_raw));
        }
        net.run_for(SimDuration::from_secs(1));
        net.ext_events(PROBER_IP);
        pending.retain(|pair| !listeners.contains(pair));
    }

    // --- step 2: banner filter ---
    let mut newly_filtered: Vec<(Ipv4Addr, u16)> = Vec::new();
    listeners.retain(|pair| {
        if let Some(b) = banners.get(pair) {
            let text = String::from_utf8_lossy(b);
            if text.contains("Apache") || text.contains("nginx") || text.contains("Server:") {
                newly_filtered.push(*pair);
                return false;
            }
        }
        true
    });
    tel.add("prober.listeners_found", listeners.len() as u64);
    net.remove_host(PROBER_IP);

    // --- step 3: weaponized engagement probes ---
    let mut engagements: Vec<((Ipv4Addr, u16), bool)> = Vec::new();
    for (i, &(ip, port)) in listeners.iter().enumerate() {
        // Rotate weapons across listeners *and* rounds so every
        // candidate is probed by both samples over time.
        let elf = &weapons[(i + round as usize) % weapons.len()];
        let mut sb = Sandbox::new(
            net,
            SandboxConfig {
                bot_ip: Ipv4Addr::new(100, 64, 0, 2),
                mode: AnalysisMode::Weaponized { target: (ip, port) },
                handshaker_threshold: None,
                instruction_budget: 50_000_000,
                seed: sub_seed(seed ^ DOMAIN_ENGAGE, round, i as u64),
                block_engine: cfg.block_engine,
                ..SandboxConfig::default()
            },
        );
        let art = sb.execute(elf, SimDuration::from_secs(cfg.engage_secs));
        net = sb.into_network();
        let engaged = answered(&art.pcap, ip);
        if engaged {
            tel.add("prober.engagements", 1);
        }
        engagements.push(((ip, port), engaged));
    }
    RoundResult {
        round,
        engagements,
        banner_filtered: newly_filtered,
    }
}

/// Engagement: did the target at `ip` send any TCP application payload
/// back? Walks the capture's records with the borrowed decode. A capture
/// whose framing is broken anywhere counts as no packets at all.
fn answered(capture: &[u8], ip: Ipv4Addr) -> bool {
    let payload_from_ip = |frame: &[u8]| {
        PacketRef::decode_frame(frame).is_ok_and(|p| {
            p.src == ip
                && matches!(p.transport, TransportRef::Tcp { payload, .. } if !payload.is_empty())
        })
    };
    pcap::records(capture)
        .and_then(|mut records| {
            records.try_fold(false, |hit, rec| {
                let (_, frame) = rec?;
                Ok(hit || payload_from_ip(frame))
            })
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use malnet_botgen::world::{Calibration, WorldConfig};
    use malnet_wire::packet::Packet;
    use malnet_wire::tcp::TcpFlags;

    /// Engagement needs a TCP payload from the target itself, and a
    /// capture cut short anywhere counts as no packets at all.
    #[test]
    fn engagement_needs_target_payload_and_intact_framing() {
        let (bot, target) = (Ipv4Addr::new(100, 64, 0, 2), Ipv4Addr::new(10, 9, 0, 1));
        let reply = |src, payload: &[u8]| {
            Packet::tcp(
                src,
                23,
                bot,
                40000,
                1,
                1,
                TcpFlags::PSH_ACK,
                payload.to_vec(),
            )
        };
        let capture = pcap::to_bytes(&[
            (1, reply(target, b"")),
            (2, reply(target, b"login:")),
            (3, reply(Ipv4Addr::new(10, 9, 0, 2), b"banner")),
        ]);
        assert!(answered(&capture, target));
        assert!(!answered(&capture, Ipv4Addr::new(10, 9, 0, 3)));
        assert!(!answered(&capture[..capture.len() - 1], target));
        assert!(!answered(&capture[..10], target));
    }

    /// A reduced probing study: 2 days × 6 rounds over thin subnets.
    #[test]
    fn probing_finds_elusive_c2s_and_filters_banners() {
        let world = World::generate(WorldConfig {
            seed: 77,
            n_samples: 60,
            cal: Calibration::default(),
        });
        // Weapons: compile plain Mirai/Gafgyt probes without exploits.
        let weapons: Vec<Vec<u8>> = [
            malnet_protocols::Family::Mirai,
            malnet_protocols::Family::Gafgyt,
        ]
        .iter()
        .map(|f| {
            let spec = malnet_botgen::spec::BehaviorSpec {
                family: *f,
                c2: vec![(
                    malnet_botgen::spec::C2Endpoint::Ip(Ipv4Addr::new(10, 255, 0, 1)),
                    23,
                )],
                recv_timeout_ms: 8000,
                ..Default::default()
            };
            malnet_botgen::binary::emit_elf(&malnet_botgen::programs::compile(&spec), b"probe")
        })
        .collect();
        let cfg = ProbeConfig {
            rounds: 12,
            rounds_per_day: 6,
            engage_secs: 20,
            hosts_per_subnet: 40, // covers the planted C2s at hosts 10..88
            ..ProbeConfig::from_world(&world)
        };
        let tel = Telemetry::enabled();
        let probed = run_probing(&world, &weapons, &cfg, 1, &tel);
        let report = tel.report();
        assert!(
            report.counter("prober.probes_sent").unwrap_or(0) > 0,
            "probe counter should record the SYN sweep"
        );
        assert_eq!(
            report.span("prober.round").map(|s| s.calls),
            Some(u64::from(cfg.rounds))
        );
        // The elusive C2s respond rarely but more than never: with 12
        // rounds across 7 servers we expect at least a couple found.
        assert!(!probed.is_empty(), "no C2 discovered by probing");
        for p in &probed {
            // Every discovered server sits in a probing subnet on a
            // Table 5 port.
            assert!(world.probe_subnets.iter().any(|s| s.contains(p.ip)));
            assert!(cfg.ports.contains(&p.port));
            assert!(p.responses() >= 1);
            // Elusive: never responds to every probe.
            assert!(p.responses() < p.probes.len(), "{p:?}");
        }
    }
}
