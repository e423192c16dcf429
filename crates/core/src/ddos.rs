//! DDoS command extraction from restricted-mode session captures
//! (paper §2.5).
//!
//! Two detectors run over the pcap:
//!
//! * **Profiler** (method a): reassemble the C2→bot TCP byte stream and
//!   decode it with the family's protocol profile (Mirai binary, Gafgyt
//!   and Daddyl33t text).
//! * **Behavioural heuristic** (method b): measure the packet rate toward
//!   non-C2 destinations per second; when it exceeds a threshold
//!   (default 100 pps), attribute the flood to the most recent C2→bot
//!   payload and recover the target from the traffic itself.
//!
//! Both detections are then **verified** (§2.5: "we verify the command by
//! evaluating whether the bot started to send traffic to that given DDoS
//! target continuously"): a profiler command must be followed by actual
//! flood traffic to the commanded target; a behavioural hit must find the
//! target's bytes in the last command payload.
//!
//! Both detectors read one pass over the capture: an [`Eavesdrop`] walks
//! the pcap records once for all of a session's live C2s, borrowing
//! payloads from the capture bytes, and then answers per C2.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use malnet_protocols::profiler::C2Profiler;
use malnet_protocols::{AttackCommand, AttackMethod, Family};
use malnet_wire::packet::{Packet, PacketRef, TransportRef};
use malnet_wire::pcap;

use crate::datasets::DdosDetection;

/// Default behavioural threshold: packets/second toward non-C2 hosts.
pub const DEFAULT_PPS_THRESHOLD: u64 = 100;

/// One extracted and verified command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedCommand {
    /// The decoded command.
    pub command: AttackCommand,
    /// How it was found.
    pub detection: DdosDetection,
    /// Verified against the traffic?
    pub verified: bool,
    /// Peak observed packets/second toward the target.
    pub measured_pps: u64,
    /// Microsecond timestamp of the command payload.
    pub ts_micros: u64,
}

/// Extract commands for one C2 from a decoded session capture: a thin
/// adapter that feeds `packets` through one [`Eavesdrop`].
///
/// `c2_ip` is the (already attributed) C2 address of this session;
/// `bot_ip` the sandboxed device; `family` the sample's label (profilers
/// exist for Mirai/Gafgyt/Daddyl33t only, as in the paper).
pub fn extract(
    packets: &[(u64, Packet)],
    bot_ip: Ipv4Addr,
    c2_ip: Ipv4Addr,
    family: Option<Family>,
    pps_threshold: u64,
) -> Vec<ExtractedCommand> {
    let mut ev = Eavesdrop::new(bot_ip, [c2_ip]);
    for (ts, p) in packets {
        ev.push(*ts, PacketRef::from(p));
    }
    ev.commands(c2_ip, family, pps_threshold)
}

/// The bot's traffic toward one destination, as the behavioural
/// detector and the profiler's verification need it.
#[derive(Debug, Clone, Copy)]
struct Flow {
    /// Timestamps of the first and last packet, in capture order.
    first: u64,
    last: u64,
    /// Latest timestamp seen (the profiler's "traffic after the
    /// command" check).
    latest: u64,
    /// Highest packets-per-second count of any one second.
    peak_pps: u64,
    syn: u64,
    udp: u64,
    icmp: u64,
    /// Destination port of the last TCP/UDP packet.
    port: u16,
}

impl Flow {
    /// Infer the attack from the flood traffic itself (used when only
    /// the behavioural detector fires, e.g. unknown families):
    /// `(method, port, duration_secs)`.
    fn shape(&self) -> (AttackMethod, u16, u32) {
        let dur = (self.last.saturating_sub(self.first) / 1_000_000) as u32 + 1;
        if self.icmp > self.syn && self.icmp > self.udp {
            (AttackMethod::Blacknurse, 0, dur)
        } else if self.syn > self.udp {
            (AttackMethod::SynFlood, self.port, dur)
        } else {
            (AttackMethod::UdpFlood, self.port, dur)
        }
    }
}

/// One pass over a session capture for all of a job's live C2s.
///
/// [`Eavesdrop::from_capture`] (or [`extract`], over decoded packets)
/// feeds it every packet once, in capture order; it keeps only what the
/// detectors read: each C2's C2→bot TCP payloads (borrowed, never
/// copied), the bot's packets per (second, destination), and the shape
/// of the bot's traffic per destination. [`Eavesdrop::commands`] then
/// answers for any one C2.
#[derive(Debug, Clone)]
pub struct Eavesdrop<'a> {
    bot_ip: Ipv4Addr,
    /// C2→bot TCP payload chunks per C2 address, in capture order.
    chunks: BTreeMap<Ipv4Addr, Vec<(u64, &'a [u8])>>,
    /// Bot-sourced packets per (second, destination).
    per_sec: BTreeMap<(u64, Ipv4Addr), u64>,
    flows: BTreeMap<Ipv4Addr, Flow>,
}

impl<'a> Eavesdrop<'a> {
    /// An empty accumulator for the bot at `bot_ip` and its C2s.
    fn new(bot_ip: Ipv4Addr, c2_ips: impl IntoIterator<Item = Ipv4Addr>) -> Self {
        Eavesdrop {
            bot_ip,
            chunks: c2_ips.into_iter().map(|ip| (ip, Vec::new())).collect(),
            per_sec: BTreeMap::new(),
            flows: BTreeMap::new(),
        }
    }

    /// Walk a pcap capture's records once, skipping frames that fail a
    /// wire check; a capture whose global header is bad holds nothing.
    pub fn from_capture(
        pcap: &'a [u8],
        bot_ip: Ipv4Addr,
        c2_ips: impl IntoIterator<Item = Ipv4Addr>,
    ) -> Self {
        let mut ev = Eavesdrop::new(bot_ip, c2_ips);
        for (ts, frame) in pcap::records(pcap).into_iter().flatten().flatten() {
            if let Ok(p) = PacketRef::decode_frame(frame) {
                ev.push(ts, p);
            }
        }
        ev
    }

    /// Account one captured packet.
    fn push(&mut self, ts: u64, p: PacketRef<'a>) {
        if p.dst == self.bot_ip {
            if let (Some(chunks), TransportRef::Tcp { payload, .. }) =
                (self.chunks.get_mut(&p.src), p.transport)
            {
                if !payload.is_empty() {
                    chunks.push((ts, payload));
                }
            }
        }
        if p.src != self.bot_ip {
            return;
        }
        let n = self.per_sec.entry((ts / 1_000_000, p.dst)).or_insert(0);
        *n += 1;
        let f = self.flows.entry(p.dst).or_insert(Flow {
            first: ts,
            last: ts,
            latest: ts,
            peak_pps: 0,
            syn: 0,
            udp: 0,
            icmp: 0,
            port: 0,
        });
        f.last = ts;
        f.latest = f.latest.max(ts);
        f.peak_pps = f.peak_pps.max(*n);
        match p.transport {
            TransportRef::Tcp { header, .. } => {
                if header.flags.syn() && !header.flags.ack() {
                    f.syn += 1;
                }
                f.port = header.dst_port;
            }
            TransportRef::Udp { header, .. } => {
                f.udp += 1;
                f.port = header.dst_port;
            }
            TransportRef::Icmp(_) => f.icmp += 1,
        }
    }

    /// The commands of the C2 at `c2_ip` (one of the addresses the
    /// accumulator was built with). Traffic toward the C2 itself never
    /// counts as a flood.
    pub fn commands(
        &self,
        c2_ip: Ipv4Addr,
        family: Option<Family>,
        pps_threshold: u64,
    ) -> Vec<ExtractedCommand> {
        let chunks = self.chunks.get(&c2_ip).map_or(&[][..], Vec::as_slice);
        let peak_pps = |dst: Ipv4Addr| match self.flows.get(&dst) {
            Some(f) if dst != c2_ip => f.peak_pps,
            _ => 0,
        };
        let mut out: Vec<ExtractedCommand> = Vec::new();

        // --- method (a): protocol profiler ---
        if let Some(fam) = family.filter(|f| f.has_ddos_profile()) {
            let profiler = C2Profiler::new(fam);
            for &(ts, chunk) in chunks {
                for command in profiler.extract_commands(chunk) {
                    // Verification: continuous traffic toward the target
                    // after the command.
                    let flood_after = self
                        .flows
                        .get(&command.target)
                        .is_some_and(|f| f.latest > ts);
                    out.push(ExtractedCommand {
                        measured_pps: peak_pps(command.target),
                        command,
                        detection: DdosDetection::Profiler,
                        verified: flood_after,
                        ts_micros: ts,
                    });
                }
            }
        }

        // --- method (b): behavioural heuristic ---
        let floods = self
            .per_sec
            .iter()
            .filter(|(&(_, dst), &n)| dst != c2_ip && n >= pps_threshold)
            .take(1024);
        for (&(sec, dst), _) in floods {
            // Already covered by the profiler?
            if let Some(e) = out.iter_mut().find(|e| e.command.target == dst) {
                if e.detection == DdosDetection::Profiler {
                    e.detection = DdosDetection::Both;
                }
                continue;
            }
            // Find the last C2 payload before the flood second.
            let flood_ts = sec * 1_000_000;
            let Some(&(cmd_ts, payload)) = chunks.iter().rev().find(|(ts, _)| *ts <= flood_ts)
            else {
                continue;
            };
            // Verification: the target must appear (ASCII dotted or raw
            // big-endian bytes) in that payload.
            let mentions =
                contains(payload, dst.to_string().as_bytes()) || contains(payload, &dst.octets());
            // Characterise the flood from the wire to synthesize the
            // command (type recovery from traffic shape). Every per-second
            // key has its flow.
            let Some(flow) = self.flows.get(&dst) else {
                continue;
            };
            let (method, port, duration_secs) = flow.shape();
            out.push(ExtractedCommand {
                command: AttackCommand {
                    method,
                    target: dst,
                    port,
                    duration_secs,
                },
                detection: DdosDetection::Behavioral,
                verified: mentions,
                measured_pps: peak_pps(dst),
                ts_micros: cmd_ts,
            });
        }

        // Deduplicate repeated keepalive-window decodes of one command.
        out.sort_by_key(|e| (e.ts_micros, e.command.target, e.command.port));
        out.dedup_by(|a, b| a.command == b.command && a.ts_micros == b.ts_micros);
        out
    }
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    !needle.is_empty() && hay.windows(needle.len()).any(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use malnet_protocols::{mirai, AttackMethod};
    use malnet_wire::tcp::TcpFlags;

    const BOT: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 2);
    const C2: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 5);
    const TGT: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 9);

    fn cmd() -> AttackCommand {
        AttackCommand {
            method: AttackMethod::UdpFlood,
            target: TGT,
            port: 80,
            duration_secs: 5,
        }
    }

    /// A synthetic session: command from C2 at t=1s, flood at 150 pps
    /// for 3 seconds.
    fn session(flood: bool, encode_cmd: bool) -> Vec<(u64, Packet)> {
        let mut pkts = Vec::new();
        if encode_cmd {
            let bytes = mirai::encode_command(&cmd()).unwrap();
            pkts.push((
                1_000_000,
                Packet::tcp(C2, 23, BOT, 40000, 1, 1, TcpFlags::PSH_ACK, bytes),
            ));
        }
        if flood {
            for s in 2..5u64 {
                for k in 0..150u64 {
                    pkts.push((
                        s * 1_000_000 + k * 6000,
                        Packet::udp(BOT, 4444, TGT, 80, vec![0]),
                    ));
                }
            }
        }
        pkts
    }

    #[test]
    fn profiler_and_heuristic_agree() {
        let pkts = session(true, true);
        let cmds = extract(&pkts, BOT, C2, Some(Family::Mirai), 100);
        assert_eq!(cmds.len(), 1, "{cmds:?}");
        let e = &cmds[0];
        assert_eq!(e.command, cmd());
        assert_eq!(e.detection, DdosDetection::Both);
        assert!(e.verified);
        assert!(e.measured_pps >= 100);
    }

    #[test]
    fn profiler_without_flood_is_unverified() {
        let pkts = session(false, true);
        let cmds = extract(&pkts, BOT, C2, Some(Family::Mirai), 100);
        assert_eq!(cmds.len(), 1);
        assert!(!cmds[0].verified);
        assert_eq!(cmds[0].detection, DdosDetection::Profiler);
    }

    #[test]
    fn heuristic_only_for_unknown_family() {
        // Tsunami has no profiler; only the behavioural detector fires.
        let mut pkts = session(true, false);
        // Unparseable "command" mentioning the target in ASCII.
        pkts.insert(
            0,
            Packet::tcp(
                C2,
                23,
                BOT,
                40000,
                1,
                1,
                TcpFlags::PSH_ACK,
                format!("!flood {TGT} 80").into_bytes(),
            )
            .pipe_ts(900_000),
        );
        let cmds = extract(&pkts, BOT, C2, Some(Family::Tsunami), 100);
        assert_eq!(cmds.len(), 1, "{cmds:?}");
        assert_eq!(cmds[0].detection, DdosDetection::Behavioral);
        assert!(cmds[0].verified, "ASCII target in command payload");
        assert_eq!(cmds[0].command.method, AttackMethod::UdpFlood);
        assert_eq!(cmds[0].command.port, 80);
    }

    #[test]
    fn below_threshold_flood_is_ignored() {
        let mut pkts = Vec::new();
        for s in 0..3u64 {
            for k in 0..50u64 {
                pkts.push((
                    s * 1_000_000 + k * 20000,
                    Packet::udp(BOT, 4444, TGT, 80, vec![0]),
                ));
            }
        }
        let cmds = extract(&pkts, BOT, C2, None, 100);
        assert!(cmds.is_empty());
    }

    #[test]
    fn threshold_is_tunable() {
        let pkts = session(true, false);
        assert!(extract(&pkts, BOT, C2, None, 500).is_empty());
        // Without any C2 payload there is nothing to attribute, so even
        // above threshold nothing is reported.
        assert!(extract(&pkts, BOT, C2, None, 100).is_empty());
    }

    trait PipeTs {
        fn pipe_ts(self, ts: u64) -> (u64, Packet);
    }
    impl PipeTs for Packet {
        fn pipe_ts(self, ts: u64) -> (u64, Packet) {
            (ts, self)
        }
    }
}
