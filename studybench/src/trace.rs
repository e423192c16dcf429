//! The traced run: times the calls into each layer's public functions
//! from outside the program, replaying the work one study did, and
//! checks that every replay reproduces that study's output.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};

use malnet_botgen::world::{World, WORLD_RESOLVER};
use malnet_core::datasets::{Datasets, TriageRecord};
use malnet_core::pipeline::{
    contained_activation, liveness_probe_rounds, merge_epoch_results, run_day_epochs,
    seed_inventory, BOT_IP,
};
use malnet_core::prober::{self, ProbeConfig};
use malnet_core::{ddos, eval, Pipeline, PipelineOpts};
use malnet_netsim::time::{SimDuration, SimTime};
use malnet_protocols::Family;
use malnet_sandbox::{AnalysisMode, EmuFaults, Sandbox, SandboxConfig};
use malnet_telemetry::{RunReport, Telemetry};

use crate::metrics::Report;
use crate::stats::{
    cpu_seconds, disagreeing, median, percentile, ratio, study_digest, timed, Clock,
};
use crate::workload::{self, Workload};

const MIB: f64 = 1024.0 * 1024.0;
/// Fewest disabled/enabled study pairs per traced run.
const MIN_PAIRS: usize = 2;

/// The study the replays are checked against.
struct Study {
    data: Datasets,
    digest: u64,
    /// Telemetry of an instrumented run of the same study.
    report: RunReport,
    wall_s: f64,
}

/// Run `wl` traced and report every per-layer metric.
pub fn run(wl: Workload, seed: u64, world_seed: u64, samples: usize, seconds: f64) -> Report {
    let world = workload::world(world_seed, samples);
    let opts = wl.opts(seed);
    let mut rep = Report::default();
    let Some(study) = paired_studies(&world, &opts, seconds, &mut rep) else {
        return rep;
    };
    let mut mismatches = Vec::new();
    let replayed = replay_pipeline(&world, &opts, &study, &mut rep, &mut mismatches);
    replay_layers(&world, &opts, &study, &mut rep, &mut mismatches);
    rep.set(
        "pipeline.trace_overhead_share",
        replayed / study.wall_s - 1.0,
    );
    rep.set(
        "ddos.recall_pct",
        eval::evaluate(&world, &study.data).ddos_recall,
    );
    rep.set(
        "liveness.c2_lifetime_err",
        eval::c2_lifetime_error(&world, &study.data),
    );
    rep.set(
        "botgen.elf_mib",
        world.samples.iter().map(|s| s.elf.len()).sum::<usize>() as f64 / MIB,
    );
    let share = |names: &[&str]| -> f64 {
        let busy: f64 = names.iter().filter_map(|n| rep.get(n)).sum();
        busy / study.wall_s
    };
    let purpose = match wl {
        Workload::FloodEavesdrop => {
            share(&["restricted.exec_s", "wire.decode_s", "ddos.extract_s"])
        }
        Workload::Census1447 => share(&["contained.busy_s", "pipeline.reduce_s"]),
        Workload::ProbeSweep => share(&["pipeline.probing_s"]),
    };
    rep.note("purpose_share", purpose, "share");
    rep.attempted += 1;
    for m in &mismatches {
        eprintln!("replay fidelity check failed: {m}");
    }
    if !mismatches.is_empty() {
        rep.failed += 1;
    }
    rep.correct = rep.failed == 0;
    rep
}

/// Alternate telemetry-disabled and telemetry-enabled studies for
/// about `seconds`; every run must produce the same digest.
fn paired_studies(
    world: &World,
    opts: &PipelineOpts,
    seconds: f64,
    rep: &mut Report,
) -> Option<Study> {
    let clock = Clock::start();
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let (mut cpu_s, mut off_s) = (0.0, 0.0);
    let mut digests = Vec::new();
    let mut first: Option<Datasets> = None;
    let mut report = None;
    loop {
        for (i, tel) in [Telemetry::disabled(), Telemetry::enabled()]
            .into_iter()
            .enumerate()
        {
            let cpu0 = cpu_seconds();
            let (wall, out) = timed(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    Pipeline::with_telemetry(opts.clone(), tel.clone()).run(world)
                }))
            });
            let cpu = cpu_seconds() - cpu0;
            let Ok((data, vendors)) = out else {
                digests.push(None);
                continue;
            };
            walls[i].push(wall);
            digests.push(Some(study_digest(&data, &vendors.canonical_dump())));
            if i == 0 {
                cpu_s += cpu;
                off_s += wall;
                first.get_or_insert(data);
            } else {
                report.get_or_insert_with(|| tel.report());
            }
        }
        let next_end = clock.secs() + median(&walls[0]) + median(&walls[1]);
        if digests.len() >= 2 * MIN_PAIRS && next_end > seconds {
            break;
        }
    }
    rep.attempted = digests.len();
    rep.failed = disagreeing(&digests);
    let wall_s = median(&walls[0]);
    rep.set(
        "par.cpu_util",
        ratio(cpu_s, off_s * opts.parallelism as f64),
    );
    rep.set(
        "telemetry.overhead_share",
        ratio(median(&walls[1]), wall_s) - 1.0,
    );
    let data = first?;
    let digest = digests.iter().flatten().next().copied()?;
    Some(Study {
        data,
        digest,
        report: report?,
        wall_s,
    })
}

/// Replay `Pipeline::run` as its three stages in sequence; return the
/// replay's total wall time.
fn replay_pipeline(
    world: &World,
    opts: &PipelineOpts,
    study: &Study,
    rep: &mut Report,
    mismatches: &mut Vec<String>,
) -> f64 {
    let tel = Telemetry::disabled();
    let (epochs_s, epochs) = timed(|| run_day_epochs(world, opts, &tel));
    let (reduce_s, (mut data, vendors)) = timed(|| merge_epoch_results(world, opts, epochs, &tel));
    let (late_s, ()) = timed(|| {
        for rec in data.c2s.values_mut() {
            let v = vendors.query(&rec.addr, opts.late_query_day);
            rec.vt_late = v.is_malicious();
            rec.vt_late_vendors = v.count();
        }
    });
    let weapons = probe_weapons(world);
    let (probing_s, probed) = timed(|| {
        if !opts.run_probing || weapons.is_empty() {
            return Vec::new();
        }
        let cfg = ProbeConfig {
            rounds: opts.probe_rounds,
            hosts_per_subnet: opts.probe_hosts_per_subnet,
            syn_retries: opts.syn_retries,
            parallelism: opts.parallelism,
            block_engine: opts.block_engine,
            ..ProbeConfig::from_world(world)
        };
        prober::run_probing(world, &weapons, &cfg, opts.seed, &tel)
    });
    if probed != study.data.probed {
        mismatches.push("replayed run_probing differs from D-PC2".to_string());
    }
    data.probed = probed;
    if study_digest(&data, &vendors.canonical_dump()) != study.digest {
        mismatches.push("epochs-plus-reduce replay dumps differ from the study's".to_string());
    }
    rep.set("pipeline.epochs_s", epochs_s);
    rep.set("pipeline.reduce_s", reduce_s);
    rep.set("pipeline.probing_s", probing_s);
    let probes = study.report.counter("prober.probes_sent").unwrap_or(0) as f64;
    rep.set("prober.probes_sent", probes);
    rep.set(
        "prober.engagements",
        study.report.counter("prober.engagements").unwrap_or(0) as f64,
    );
    rep.set("prober.probes_per_s", ratio(probes, probing_s));
    let (hits, total) = study
        .data
        .probed
        .iter()
        .fold((0, 0), |(h, t), p| (h + p.responses(), t + p.probes.len()));
    rep.set("prober.engage_hit_share", ratio(hits as f64, total as f64));
    epochs_s + reduce_s + late_s + probing_s
}

/// The weaponized samples the D-PC2 prober engages with: the first
/// plain Mirai and Gafgyt samples, as `Pipeline::run` picks them.
fn probe_weapons(world: &World) -> Vec<Vec<u8>> {
    [Family::Mirai, Family::Gafgyt]
        .into_iter()
        .filter_map(|fam| {
            world.samples.iter().find(|s| {
                s.family == fam && !s.corrupted && s.spec.exploits.is_empty() && !s.spec.evasive
            })
        })
        .map(|s| s.elf.clone())
        .collect()
}

/// A YARA label's family, as the pipeline maps it.
fn family_from_label(label: Option<&str>) -> Option<Family> {
    Some(match label? {
        "mirai" => Family::Mirai,
        "gafgyt" => Family::Gafgyt,
        "tsunami" => Family::Tsunami,
        "daddyl33t" => Family::Daddyl33t,
        "mozi" => Family::Mozi,
        "hajime" => Family::Hajime,
        "vpnfilter" => Family::VpnFilter,
        _ => return None,
    })
}

/// Replay the per-sample layers over the study's own datasets.
fn replay_layers(
    world: &World,
    opts: &PipelineOpts,
    study: &Study,
    rep: &mut Report,
    mismatches: &mut Vec<String>,
) {
    let tel = Telemetry::disabled();
    let data = &study.data;
    let ids: BTreeMap<&str, usize> = world
        .samples
        .iter()
        .map(|s| (s.sha256.as_str(), s.id))
        .collect();
    let seeds: BTreeMap<String, u64> = seed_inventory(world, opts)
        .into_iter()
        .filter(|(k, _)| {
            k.starts_with("world_net/")
                || k.starts_with("restricted/")
                || k.starts_with("restricted_net/")
        })
        .collect();
    let seed_of = |key: String| {
        seeds.get(&key).copied().unwrap_or_else(|| {
            panic!("seed_inventory has no entry {key}");
        })
    };

    // malnet-xray on every ELF the study triaged.
    let mut xray_us = Vec::new();
    for row in &data.triage {
        let elf = &world.samples[ids[row.sha256.as_str()]].elf;
        let (s, r) = timed(|| malnet_xray::analyze(elf));
        xray_us.push(s * 1e6);
        let mut candidates: Vec<String> = r.c2_candidates().map(|e| e.addr.clone()).collect();
        candidates.sort_unstable();
        candidates.dedup();
        let replay = TriageRecord {
            sha256: row.sha256.clone(),
            day: row.day,
            valid_elf: r.valid_elf,
            lints: r.lints.iter().map(|l| l.code.to_string()).collect(),
            net_capable: r.text.net_capable(),
            bytecode_records: r.bytecode_records,
            bytecode_skipped: r.bytecode_skipped,
            candidates,
            endpoints: r.endpoints.len(),
        };
        if replay != *row {
            mismatches.push(format!(
                "xray replay differs from D-Triage for {}",
                row.sha256
            ));
        }
    }
    rep.set("xray.analyze_s", xray_us.iter().sum::<f64>() / 1e6);
    rep.set("xray.sample_us_p50", median(&xray_us));

    // Contained activation of every analyzed sample.
    let mut contained_us = Vec::new();
    let mut outcomes = Vec::new();
    for rec in &data.samples {
        let id = ids[rec.sha256.as_str()];
        let (s, out) = timed(|| contained_activation(world, opts, rec.day, id, &tel));
        contained_us.push(s * 1e6);
        let addrs: Vec<&String> = out.candidates.iter().map(|c| &c.addr).collect();
        if out.activated != rec.activated || addrs != rec.c2_addrs.iter().collect::<Vec<_>>() {
            mismatches.push(format!(
                "contained replay differs from D-Samples for {}",
                rec.sha256
            ));
        }
        outcomes.push(out);
    }
    let activated = data.samples.iter().filter(|r| r.activated).count();
    rep.set("contained.busy_s", contained_us.iter().sum::<f64>() / 1e6);
    rep.set("contained.sample_us_p50", median(&contained_us));
    rep.set("contained.sample_us_p99", percentile(&contained_us, 99.0));
    rep.set(
        "contained.activated_share",
        ratio(activated as f64, data.samples.len() as f64),
    );

    // Each C2 endpoint a contained run found, as the day's liveness
    // probe sees it: (sample index, addr, ip, port, family).
    let mut endpoints: Vec<Endpoint> = Vec::new();
    for (i, out) in outcomes.iter().enumerate() {
        for cand in &out.candidates {
            let c2 = data.c2s.get(&cand.addr);
            let ip = if cand.dns {
                c2.map(|r| r.ip)
            } else {
                Some(cand.ip)
            };
            if let Some(ip) = ip {
                let fam = cand
                    .family_from_traffic
                    .or_else(|| family_from_label(out.yara.as_deref()));
                endpoints.push((i, cand.addr.clone(), ip, cand.port, fam));
            }
        }
    }

    // Day networks and single-target liveness probes.
    let mut build_us = Vec::new();
    let mut probe_us = Vec::new();
    let mut live = 0usize;
    let mut day = None;
    let mut net = None;
    for (i, addr, ip, port, _) in &endpoints {
        let d = data.samples[*i].day;
        if day != Some(d) {
            let (s, (n, _logs)) =
                timed(|| world.network_for_day_detached(d, seed_of(format!("world_net/{d}"))));
            build_us.push(s * 1e6);
            day = Some(d);
            net = Some(n);
        }
        let Some(n) = net.as_mut() else { continue };
        let target = [(addr.clone(), *ip, *port)];
        let (s, hits) = timed(|| liveness_probe_rounds(n, &target, opts.syn_retries, &tel));
        probe_us.push(s * 1e6);
        live += usize::from(!hits.is_empty());
    }
    rep.set("netsim.day_net_build_us_p50", median(&build_us));
    rep.set("liveness.probe_us_p50", median(&probe_us));
    rep.set(
        "liveness.live_share",
        ratio(live as f64, probe_us.len() as f64),
    );

    let sample_ids: Vec<usize> = data
        .samples
        .iter()
        .map(|r| ids[r.sha256.as_str()])
        .collect();
    let replay = Endpoints {
        sample_ids: &sample_ids,
        endpoints: &endpoints,
        seed_of: &seed_of,
    };
    replay_restricted(world, opts, study, &replay, rep, mismatches);
}

/// What the restricted replay needs from the earlier replays.
struct Endpoints<'a> {
    /// World sample id of each D-Samples row.
    sample_ids: &'a [usize],
    /// Every C2 endpoint found by a contained run, by D-Samples row.
    endpoints: &'a [Endpoint],
    /// Sub-seed of a `seed_inventory` entry.
    seed_of: &'a dyn Fn(String) -> u64,
}

/// A C2 endpoint as the day's liveness probe sees it: (D-Samples row,
/// address, IP, port, family).
type Endpoint = (usize, String, Ipv4Addr, u16, Option<Family>);

/// Replay every restricted session: the sandbox run, the pcap decode
/// and `ddos::extract` per live C2, rebuilding D-DDOS as the epoch
/// merge does.
fn replay_restricted(
    world: &World,
    opts: &PipelineOpts,
    study: &Study,
    replay: &Endpoints<'_>,
    rep: &mut Report,
    mismatches: &mut Vec<String>,
) {
    let data = &study.data;
    let (mut sessions, mut productive) = (0usize, 0usize);
    let (mut exec_s, mut max_s, mut vtime_s) = (0.0f64, 0.0f64, 0.0f64);
    let (mut instructions, mut syscalls) = (0u64, 0u64);
    let (mut pcap_bytes, mut records, mut decode_s) = (0usize, 0usize, 0.0f64);
    let (mut extract_s, mut extract_calls, mut verified) = (0.0f64, 0usize, 0usize);
    let mut rows: Vec<String> = Vec::new();
    let mut day_rows: Vec<(u32, String, String)> = Vec::new();
    for (i, rec) in data.samples.iter().enumerate() {
        // The C2s of this sample that answered on its analysis day.
        let live: Vec<_> = replay
            .endpoints
            .iter()
            .filter(|(j, addr, ..)| {
                *j == i
                    && data
                        .c2s
                        .get(addr)
                        .is_some_and(|c2| c2.live_days.contains(&rec.day))
            })
            .collect();
        if !rec.activated || live.is_empty() {
            continue;
        }
        let (day, id, seed_of) = (rec.day, replay.sample_ids[i], replay.seed_of);
        let (net, _logs) =
            world.network_for_day_detached(day, seed_of(format!("restricted_net/{day}/{id}")));
        let mut allowed: Vec<Ipv4Addr> = live.iter().map(|e| e.2).collect();
        allowed.push(WORLD_RESOLVER);
        let mut sb = Sandbox::new(
            net,
            SandboxConfig {
                bot_ip: BOT_IP,
                mode: AnalysisMode::Restricted { allowed },
                handshaker_threshold: None,
                instruction_budget: 2_000_000_000,
                seed: seed_of(format!("restricted/{day}/{id}")),
                block_engine: opts.block_engine,
                fd_cap: malnet_sandbox::process::DEFAULT_FD_CAP,
                emu_faults: EmuFaults::none(),
            },
        );
        let (s, art) = timed(|| {
            sb.execute(
                &world.samples[id].elf,
                SimDuration::from_secs(opts.restricted_secs),
            )
        });
        sessions += 1;
        exec_s += s;
        max_s = max_s.max(s);
        vtime_s += sb.net.now().since(SimTime::from_day(day, 0)).as_secs_f64();
        instructions += art.instructions;
        syscalls += art.syscalls;
        pcap_bytes += art.pcap.len();
        let (s, packets) = timed(|| art.packets());
        decode_s += s;
        records += packets.len();
        let mut session_verified = 0usize;
        for (_, addr, ip, _, fam) in live {
            let (s, cmds) =
                timed(|| ddos::extract(&packets, BOT_IP, *ip, *fam, opts.pps_threshold));
            extract_s += s;
            extract_calls += 1;
            for c in cmds.into_iter().filter(|c| c.verified) {
                session_verified += 1;
                // One command per (C2, day): the epoch merge's gate.
                let key = (day, addr.clone(), format!("{:?}", c.command));
                if day_rows.contains(&key) {
                    continue;
                }
                day_rows.push(key);
                let family = fam.unwrap_or(Family::Mirai);
                rows.push(format!(
                    "{} {family:?} {addr} {ip} {day} {:?} {:?} {}",
                    rec.sha256, c.command, c.detection, c.measured_pps
                ));
            }
        }
        verified += session_verified;
        productive += usize::from(session_verified > 0);
    }
    let study_rows: Vec<String> = data
        .ddos
        .iter()
        .map(|d| {
            format!(
                "{} {:?} {} {} {} {:?} {:?} {}",
                d.sha256,
                d.family,
                d.c2_addr,
                d.c2_ip,
                d.day,
                d.command,
                d.detection,
                d.measured_pps
            )
        })
        .collect();
    if rows != study_rows {
        mismatches.push(format!(
            "restricted replay gives {} D-DDOS rows, the study {} (or they differ)",
            rows.len(),
            study_rows.len()
        ));
    }
    let jobs = study
        .report
        .counter("pipeline.restricted_sessions")
        .unwrap_or(0);
    if sessions as u64 != jobs {
        mismatches.push(format!(
            "replayed {sessions} restricted sessions, the study ran {jobs}"
        ));
    }
    rep.set("restricted.sessions", sessions as f64);
    rep.set("restricted.exec_s", exec_s);
    rep.set("restricted.session_s_max", max_s);
    rep.set("restricted.straggler_share", max_s / study.wall_s);
    rep.set("restricted.instructions", instructions as f64);
    rep.set("restricted.syscalls", syscalls as f64);
    rep.set(
        "restricted.ns_per_instr",
        ratio(exec_s * 1e9, instructions as f64),
    );
    rep.set(
        "restricted.instr_per_syscall",
        ratio(instructions as f64, syscalls as f64),
    );
    rep.set("restricted.vtime_per_host_s", ratio(vtime_s, exec_s));
    rep.set(
        "restricted.productive_share",
        ratio(productive as f64, sessions as f64),
    );
    rep.set("wire.pcap_mib", pcap_bytes as f64 / MIB);
    rep.set("wire.records", records as f64);
    rep.set("wire.decode_s", decode_s);
    rep.set(
        "wire.decode_ns_per_record",
        ratio(decode_s * 1e9, records as f64),
    );
    rep.set("ddos.extract_s", extract_s);
    rep.set("ddos.extract_calls", extract_calls as f64);
    rep.set("ddos.commands_verified", verified as f64);
}
