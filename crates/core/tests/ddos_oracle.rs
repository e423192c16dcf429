//! The one-pass DDoS eavesdrop against the extractor it replaced.
//!
//! `oracle::extract` is the former `ddos::extract` body, kept verbatim
//! as a test oracle: it decodes nothing itself, rescans the whole packet
//! list once per C2 and once per profiler command. The properties below
//! feed both sides the same timestamp-sorted traffic soups — several
//! C2s (one of them also a flood destination), profiler commands and
//! ASCII mentions before and after floods, corrupt frames — and require
//! identical commands per C2 at thresholds 1, 100 and 100000, through
//! both the pcap walk (`Eavesdrop::from_capture`) and the slice adapter
//! (`ddos::extract`).

use std::net::Ipv4Addr;

use proptest::prelude::*;

use malnet_core::datasets::DdosDetection;
use malnet_core::ddos::{self, Eavesdrop, ExtractedCommand};
use malnet_protocols::{gafgyt, mirai, AttackCommand, AttackMethod, Family};
use malnet_wire::icmp::IcmpMessage;
use malnet_wire::packet::Packet;
use malnet_wire::pcap::{self, PcapWriter};
use malnet_wire::tcp::TcpFlags;

/// The pre-accumulator extractor, verbatim apart from its name.
mod oracle {
    use std::collections::{BTreeMap, HashMap};
    use std::net::Ipv4Addr;

    use malnet_core::datasets::DdosDetection;
    use malnet_core::ddos::ExtractedCommand;
    use malnet_protocols::profiler::C2Profiler;
    use malnet_protocols::{AttackCommand, Family};
    use malnet_wire::packet::{Packet, Transport};

    pub fn extract(
        packets: &[(u64, Packet)],
        bot_ip: Ipv4Addr,
        c2_ip: Ipv4Addr,
        family: Option<Family>,
        pps_threshold: u64,
    ) -> Vec<ExtractedCommand> {
        // --- reassemble C2→bot payload stream, keeping per-chunk timestamps ---
        let mut c2_chunks: Vec<(u64, Vec<u8>)> = Vec::new();
        for (ts, p) in packets {
            if p.src == c2_ip && p.dst == bot_ip {
                if let Transport::Tcp { payload, .. } = &p.transport {
                    if !payload.is_empty() {
                        c2_chunks.push((*ts, payload.clone()));
                    }
                }
            }
        }

        // --- per-second, per-destination packet rates (non-C2 traffic) ---
        let mut per_sec: BTreeMap<(u64, Ipv4Addr), u64> = BTreeMap::new();
        for (ts, p) in packets {
            if p.src == bot_ip && p.dst != c2_ip {
                *per_sec.entry((ts / 1_000_000, p.dst)).or_insert(0) += 1;
            }
        }
        let mut peak_pps: HashMap<Ipv4Addr, u64> = HashMap::new();
        for ((_, dst), n) in &per_sec {
            let e = peak_pps.entry(*dst).or_insert(0);
            *e = (*e).max(*n);
        }

        let mut out: Vec<ExtractedCommand> = Vec::new();

        // --- method (a): protocol profiler ---
        if let Some(fam) = family {
            if fam.has_ddos_profile() {
                let profiler = C2Profiler::new(fam);
                for (ts, chunk) in &c2_chunks {
                    for command in profiler.extract_commands(chunk) {
                        let flood_after = packets
                            .iter()
                            .any(|(t2, p)| t2 > ts && p.src == bot_ip && p.dst == command.target);
                        let pps = peak_pps.get(&command.target).copied().unwrap_or(0);
                        out.push(ExtractedCommand {
                            command,
                            detection: DdosDetection::Profiler,
                            verified: flood_after,
                            measured_pps: pps,
                            ts_micros: *ts,
                        });
                    }
                }
            }
        }

        // --- method (b): behavioural heuristic ---
        for ((sec, dst), _) in per_sec
            .iter()
            .filter(|((_, _), n)| **n >= pps_threshold)
            .take(1024)
        {
            if let Some(e) = out.iter_mut().find(|e| e.command.target == *dst) {
                if e.detection == DdosDetection::Profiler {
                    e.detection = DdosDetection::Both;
                }
                continue;
            }
            let flood_ts = sec * 1_000_000;
            let last_cmd = c2_chunks
                .iter()
                .rev()
                .find(|(ts, _)| *ts <= flood_ts)
                .cloned();
            let Some((cmd_ts, payload)) = last_cmd else {
                continue;
            };
            let ascii = dst.to_string();
            let raw = dst.octets();
            let mentions = contains(&payload, ascii.as_bytes()) || contains(&payload, &raw);
            let (method, port, dur) = characterize_flood(packets, bot_ip, *dst);
            out.push(ExtractedCommand {
                command: AttackCommand {
                    method,
                    target: *dst,
                    port,
                    duration_secs: dur,
                },
                detection: DdosDetection::Behavioral,
                verified: mentions,
                measured_pps: peak_pps.get(dst).copied().unwrap_or(0),
                ts_micros: cmd_ts,
            });
        }

        out.sort_by_key(|e| (e.ts_micros, e.command.target, e.command.port));
        out.dedup_by(|a, b| a.command == b.command && a.ts_micros == b.ts_micros);
        out
    }

    fn contains(hay: &[u8], needle: &[u8]) -> bool {
        !needle.is_empty() && hay.windows(needle.len()).any(|w| w == needle)
    }

    fn characterize_flood(
        packets: &[(u64, Packet)],
        bot_ip: Ipv4Addr,
        target: Ipv4Addr,
    ) -> (malnet_protocols::AttackMethod, u16, u32) {
        use malnet_protocols::AttackMethod;
        let mut first: Option<u64> = None;
        let mut last: Option<u64> = None;
        let mut syn = 0u64;
        let mut udp = 0u64;
        let mut icmp = 0u64;
        let mut port = 0u16;
        for (ts, p) in packets {
            if p.src != bot_ip || p.dst != target {
                continue;
            }
            first.get_or_insert(*ts);
            last = Some(*ts);
            match &p.transport {
                Transport::Tcp { header, .. } => {
                    if header.flags.syn() && !header.flags.ack() {
                        syn += 1;
                    }
                    port = header.dst_port;
                }
                Transport::Udp { header, .. } => {
                    udp += 1;
                    port = header.dst_port;
                }
                Transport::Icmp(_) => icmp += 1,
            }
        }
        let dur = match (first, last) {
            (Some(a), Some(b)) => ((b - a) / 1_000_000) as u32 + 1,
            _ => 0,
        };
        let method = if icmp > syn && icmp > udp {
            AttackMethod::Blacknurse
        } else if syn > udp {
            AttackMethod::SynFlood
        } else {
            AttackMethod::UdpFlood
        };
        (
            method,
            if method == AttackMethod::Blacknurse {
                0
            } else {
                port
            },
            dur,
        )
    }
}

const BOT: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 2);
/// The session's live C2s. The last one is also in [`TARGETS`]: a bot
/// may be told to flood its own C2's address.
const C2S: [Ipv4Addr; 3] = [
    Ipv4Addr::new(10, 1, 0, 5),
    Ipv4Addr::new(10, 1, 0, 6),
    Ipv4Addr::new(203, 0, 113, 9),
];
const TARGETS: [Ipv4Addr; 3] = [
    Ipv4Addr::new(203, 0, 113, 9),
    Ipv4Addr::new(198, 51, 100, 7),
    Ipv4Addr::new(192, 0, 2, 1),
];
/// Everyone that talks in a soup.
const HOSTS: [Ipv4Addr; 6] = [BOT, C2S[0], C2S[1], C2S[2], TARGETS[1], TARGETS[2]];

/// A C2→bot TCP payload: an encoded command (Mirai binary or Gafgyt
/// text), an ASCII or raw-byte mention of a target, or noise.
fn arb_c2_payload() -> impl Strategy<Value = Vec<u8>> {
    (
        0u8..5,
        0usize..TARGETS.len(),
        0u8..3,
        any::<u16>(),
        1u32..60,
        proptest::collection::vec(any::<u8>(), 1..24),
    )
        .prop_map(|(kind, t, m, port, duration_secs, noise)| {
            let method = [
                AttackMethod::UdpFlood,
                AttackMethod::SynFlood,
                AttackMethod::Vse,
            ][usize::from(m)];
            let cmd = AttackCommand {
                method,
                target: TARGETS[t],
                port,
                duration_secs,
            };
            let bytes = match kind {
                0 => mirai::encode_command(&cmd),
                1 => gafgyt::encode_command(&cmd).map(String::into_bytes),
                2 => Some(format!("!flood {} {port}", TARGETS[t]).into_bytes()),
                3 => Some(TARGETS[t].octets().to_vec()),
                _ => None,
            };
            bytes.unwrap_or(noise)
        })
}

/// A timestamp on a 1 ms grid over six seconds, so commands, floods and
/// stray packets often share a timestamp.
fn arb_ts() -> impl Strategy<Value = u64> {
    (0u64..6000).prop_map(|ms| ms * 1000)
}

/// One event of a soup, expanded to timestamped packets: a C2 payload
/// to the bot, a flood burst from the bot, or one stray packet between
/// any two hosts.
fn arb_event() -> impl Strategy<Value = Vec<(u64, Packet)>> {
    prop_oneof![
        (arb_ts(), 0usize..C2S.len(), arb_c2_payload()).prop_map(|(ts, c, payload)| {
            vec![(
                ts,
                Packet::tcp(C2S[c], 23, BOT, 40000, 1, 1, TcpFlags::PSH_ACK, payload),
            )]
        }),
        (
            0u64..6,
            0usize..TARGETS.len(),
            0u8..4,
            0usize..220,
            (1u64..10).prop_map(|ms| ms * 1000)
        )
            .prop_map(|(sec, t, kind, n, gap)| {
                (0..n as u64)
                    .map(|k| {
                        let ts = sec * 1_000_000 + k * gap;
                        let dst = TARGETS[t];
                        let p = match kind {
                            0 => Packet::udp(BOT, 4444, dst, 80, vec![0]),
                            1 => Packet::tcp(BOT, 4444, dst, 443, 7, 0, TcpFlags::SYN, vec![]),
                            2 => Packet::tcp(BOT, 4444, dst, 8080, 7, 1, TcpFlags::ACK, vec![]),
                            _ => Packet::icmp(
                                BOT,
                                dst,
                                IcmpMessage::DestinationUnreachable {
                                    code: 3,
                                    payload: vec![0x45, 0, 0, 28],
                                },
                            ),
                        };
                        (ts, p)
                    })
                    .collect()
            }),
        (
            arb_ts(),
            0usize..HOSTS.len(),
            0usize..HOSTS.len(),
            arb_packet()
        )
            .prop_map(|(ts, s, d, mut p)| {
                p.src = HOSTS[s];
                p.dst = HOSTS[d];
                vec![(ts, p)]
            }),
    ]
}

/// Arbitrary packets of every transport, as the wire proptests draw
/// them; half of them carry no payload.
fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        0u8..3,
        any::<u16>(),
        any::<u16>(),
        0u8..32,
        prop_oneof![
            Just(Vec::new()),
            proptest::collection::vec(any::<u8>(), 1..40)
        ],
    )
        .prop_map(|(kind, sp, dp, flags, payload)| {
            let (a, b) = (HOSTS[0], HOSTS[1]);
            match kind {
                0 => Packet::tcp(a, sp, b, dp, 1, 0, TcpFlags(flags), payload),
                1 => Packet::udp(a, sp, b, dp, payload),
                _ => Packet::icmp(
                    a,
                    b,
                    IcmpMessage::EchoRequest {
                        ident: sp,
                        seq: dp,
                        payload,
                    },
                ),
            }
        })
}

/// A timestamp-sorted soup of events.
fn arb_soup() -> impl Strategy<Value = Vec<(u64, Packet)>> {
    proptest::collection::vec(arb_event(), 0..24).prop_map(|events| {
        let mut soup: Vec<(u64, Packet)> = events.into_iter().flatten().collect();
        soup.sort_by_key(|(ts, _)| *ts);
        soup
    })
}

/// Encode `soup` as a capture, flipping one bit past the Ethernet header
/// in every record whose index is in `corrupt`.
fn capture(soup: &[(u64, Packet)], corrupt: &[(usize, usize, u8)]) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for (i, (ts, p)) in soup.iter().enumerate() {
        let mut frame = p.encode_frame();
        for &(_, at, bit) in corrupt.iter().filter(|(j, ..)| *j == i) {
            let at = 14 + at % (frame.len() - 14);
            frame[at] ^= 1 << bit;
        }
        w.write_packet(*ts, &frame).unwrap();
    }
    w.finish().unwrap()
}

/// Both paths against the oracle, per C2; returns the oracle's answers.
fn assert_matches_oracle(
    bytes: &[u8],
    family: Option<Family>,
    pps_threshold: u64,
) -> Vec<Vec<ExtractedCommand>> {
    let (packets, _skipped) = pcap::parse_capture(bytes).unwrap();
    let ev = Eavesdrop::from_capture(bytes, BOT, C2S);
    C2S.iter()
        .map(|&c2| {
            let want = oracle::extract(&packets, BOT, c2, family, pps_threshold);
            assert_eq!(
                ev.commands(c2, family, pps_threshold),
                want,
                "capture walk, C2 {c2}"
            );
            assert_eq!(
                ddos::extract(&packets, BOT, c2, family, pps_threshold),
                want,
                "slice adapter, C2 {c2}"
            );
            want
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_eavesdrop_matches_the_oracle_per_c2(
        soup in arb_soup(),
        corrupt in proptest::collection::vec((0usize..400, any::<usize>(), 0u8..8), 0..4),
        family in prop_oneof![
            Just(Some(Family::Mirai)),
            Just(Some(Family::Gafgyt)),
            Just(Some(Family::Tsunami)),
            Just(None),
        ],
        pps_threshold in prop_oneof![Just(1u64), Just(100), Just(100_000)],
    ) {
        assert_matches_oracle(&capture(&soup, &corrupt), family, pps_threshold);
    }
}

/// The generators can reach every branch the property compares: one
/// fixed soup holds a profiler hit confirmed by a flood (`Both`), a
/// profiler hit with no flood after it, a behavioural hit whose payload
/// names the target, a C2 ordering a flood at its own address, traffic
/// at the very timestamp of a command, and a corrupt frame.
#[test]
fn oracle_fixture_covers_both_detectors() {
    let cmd = AttackCommand {
        method: AttackMethod::UdpFlood,
        target: TARGETS[1],
        port: 80,
        duration_secs: 5,
    };
    let late = AttackCommand {
        target: TARGETS[2],
        ..cmd
    };
    let own = AttackCommand {
        target: C2S[2],
        ..cmd
    };
    let mut soup = vec![
        (
            500_000,
            Packet::tcp(
                C2S[0],
                23,
                BOT,
                40000,
                1,
                1,
                TcpFlags::PSH_ACK,
                mirai::encode_command(&cmd).unwrap(),
            ),
        ),
        (
            600_000,
            Packet::tcp(
                C2S[1],
                23,
                BOT,
                40000,
                1,
                1,
                TcpFlags::PSH_ACK,
                format!("go {}", TARGETS[0]).into_bytes(),
            ),
        ),
        (
            700_000,
            Packet::tcp(
                C2S[2],
                23,
                BOT,
                40000,
                1,
                1,
                TcpFlags::PSH_ACK,
                mirai::encode_command(&own).unwrap(),
            ),
        ),
        (
            9_000_000,
            Packet::tcp(
                C2S[0],
                23,
                BOT,
                40000,
                1,
                1,
                TcpFlags::PSH_ACK,
                mirai::encode_command(&late).unwrap(),
            ),
        ),
    ];
    for s in 1..4u64 {
        for k in 0..150u64 {
            soup.push((
                s * 1_000_000 + k * 6000,
                Packet::udp(BOT, 4444, TARGETS[1], 80, vec![0]),
            ));
            soup.push((
                s * 1_000_000 + k * 6000 + 1,
                Packet::tcp(BOT, 4444, TARGETS[0], 443, 7, 0, TcpFlags::SYN, vec![]),
            ));
        }
    }
    // Traffic to the late command's target at the command's own
    // timestamp only: not traffic *after* the command.
    soup.push((9_000_000, Packet::udp(BOT, 4444, TARGETS[2], 80, vec![0])));
    soup.sort_by_key(|(ts, _)| *ts);
    let bytes = capture(&soup, &[(5, 3, 0)]);
    let per_c2 = assert_matches_oracle(&bytes, Some(Family::Mirai), 100);
    let detections: Vec<(DdosDetection, bool)> = per_c2
        .iter()
        .flatten()
        .map(|e| (e.detection, e.verified))
        .collect();
    assert!(
        detections.contains(&(DdosDetection::Both, true)),
        "{detections:?}"
    );
    assert!(
        detections.contains(&(DdosDetection::Profiler, false)),
        "{detections:?}"
    );
    assert!(
        detections.contains(&(DdosDetection::Behavioral, true)),
        "{detections:?}"
    );
    // C2S[2] is TARGETS[0]: its own session never counts the flood at
    // it, so the order to flood itself verifies with no measured rate.
    assert!(
        per_c2[2]
            .iter()
            .any(|e| e.command == own && e.verified && e.measured_pps == 0),
        "{:?}",
        per_c2[2]
    );
    assert!(pcap::parse_capture(&bytes).unwrap().1 <= 1);
}
