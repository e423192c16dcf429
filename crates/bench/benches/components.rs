//! Performance benchmarks for every pipeline component.
//!
//! These measure the *implementation's* throughput (the substrate the
//! reproduction runs on), complementing the repro binaries which
//! regenerate the paper's measurement results. They run on the in-repo
//! [`malnet_bench::timing`] harness: `cargo bench --bench components`
//! measures; `cargo test` runs each bench once as a smoke test.

use std::net::Ipv4Addr;

use malnet_bench::timing::Harness;
use malnet_botgen::binary::emit_elf;
use malnet_botgen::c2service::{install_c2, C2Config, RespondMode};
use malnet_botgen::exploitdb::VulnId;
use malnet_botgen::programs::compile;
use malnet_botgen::spec::{BehaviorSpec, C2Endpoint, ExploitPlan};
use malnet_botgen::world::{Calibration, World, WorldConfig};
use malnet_core::c2detect::detect_c2;
use malnet_core::ddos::{Eavesdrop, DEFAULT_PPS_THRESHOLD};
use malnet_core::{Pipeline, PipelineOpts};
use malnet_mips::asm::{Assembler, Ins, Reg};
use malnet_mips::block::ExecCache;
use malnet_mips::cpu::{Cpu, CpuError, StepOutcome, STACK_SIZE, STACK_TOP};
use malnet_mips::mem::Memory;
use malnet_netsim::net::Network;
use malnet_netsim::time::{SimDuration, SimTime};
use malnet_protocols::{AttackCommand, AttackMethod, Family};
use malnet_sandbox::{AnalysisMode, Sandbox, SandboxConfig};
use malnet_wire::packet::Packet;
use malnet_wire::pcap;
use malnet_wire::tcp::TcpFlags;

fn bench_wire(h: &mut Harness) {
    let pkt = Packet::tcp(
        Ipv4Addr::new(10, 0, 0, 1),
        40000,
        Ipv4Addr::new(10, 0, 0, 2),
        23,
        1,
        2,
        TcpFlags::PSH_ACK,
        vec![0xAA; 512],
    );
    h.bench("wire/tcp_frame_encode", || pkt.encode_frame());
    let frame = pkt.encode_frame();
    h.bench("wire/tcp_frame_decode", || {
        Packet::decode_frame(std::hint::black_box(&frame)).unwrap()
    });
    let capture: Vec<(u64, Packet)> = (0..200).map(|i| (i * 1000, pkt.clone())).collect();
    let bytes = pcap::to_bytes(&capture);
    h.bench("wire/pcap_parse_200pkts", || {
        pcap::parse_capture(std::hint::black_box(&bytes)).unwrap()
    });
}

fn bench_mips(h: &mut Harness) {
    // A tight arithmetic loop: measures emulator instructions/second.
    // The same ~500k-retired-instruction program runs under both
    // engines; the per-op times and `instr_per_sec` fields make the
    // block-engine speedup directly readable, and `main` gates on it.
    // Its body is the one shape `Op::AddAddXorBne` fuses; no botgen
    // guest emits `xor`, so that op exists only for this row.
    let base = 0x0040_0000;
    let mut a = Assembler::new(base);
    a.ins(Ins::Li(Reg::T0, 0))
        .ins(Ins::Li(Reg::T1, 100_000))
        .label("loop")
        .ins(Ins::Addiu(Reg::T0, Reg::T0, 1))
        .ins(Ins::Addu(Reg::T2, Reg::T0, Reg::T0))
        .ins(Ins::Xor(Reg::T3, Reg::T2, Reg::T0))
        .ins(Ins::Bne(Reg::T0, Reg::T1, "loop".into()))
        .ins(Ins::Break);
    let code = a.assemble().unwrap();
    let fresh_mem = |code: &[u8]| {
        let mut mem = Memory::new();
        mem.map(base, code.to_vec(), false);
        mem.map_zeroed(STACK_TOP - STACK_SIZE, STACK_SIZE + 0x1000, true);
        mem
    };
    h.bench_batched_counted(
        "mips/emulate_500k_instr",
        || Cpu::new(fresh_mem(&code), base),
        |mut cpu| loop {
            match cpu.step() {
                Ok(_) => {}
                Err(CpuError::Break { .. }) => break cpu.retired,
                Err(e) => panic!("{e}"),
            }
        },
    );
    h.bench_batched_counted(
        "mips/block_exec_500k",
        || {
            let mut mem = fresh_mem(&code);
            let cache = ExecCache::for_entry(&mut mem, base).expect("text is cacheable");
            (Cpu::new(mem, base), cache)
        },
        |(mut cpu, mut cache)| loop {
            match cpu.run_cached(u64::MAX, &mut cache) {
                Ok(_) => {}
                Err(CpuError::Break { .. }) => break cpu.retired,
                Err(e) => panic!("{e}"),
            }
        },
    );
    h.bench("mips/assemble_stub", malnet_botgen::stub::build_stub);
}

/// Syscalls one `mips/botvm_flood` iteration runs for.
const BOTVM_SYSCALLS: u32 = 3000;

/// Run [`BOTVM_SYSCALLS`] syscall-bounded slices with `slice`, answering
/// each syscall with a fixed responder: new sockets get fd 3, sends
/// report every byte sent, everything else succeeds with 0. Returns the
/// retired instruction count.
fn flood_slices(
    cpu: &mut Cpu,
    mut slice: impl FnMut(&mut Cpu) -> Result<Option<StepOutcome>, CpuError>,
) -> u64 {
    use malnet_mips::sys;
    for _ in 0..BOTVM_SYSCALLS {
        match slice(cpu) {
            Ok(Some(StepOutcome::Syscall)) => {
                let v = match cpu.reg(2) {
                    sys::NR_SOCKET => 3,
                    sys::NR_SENDTO => cpu.reg(6),
                    _ => 0,
                };
                cpu.set_reg(2, v);
                cpu.set_reg(7, 0);
            }
            other => panic!("flood guest stopped: {other:?}"),
        }
    }
    cpu.retired
}

/// The real botgen interpreter stub running a bytecode flood loop
/// (`sendto` + `rawsend` + `sleepms` + `addi` + `jne` per packet), so
/// most retired instructions are the stub's opcode fetch, dispatch and
/// VM-register traffic, as in the pipeline's restricted sessions. The
/// same syscall-bounded run is timed under the stepping oracle and the
/// block engine; `main` gates on the speedup between the two.
fn bench_botvm(h: &mut Harness) {
    use malnet_botgen::binary::BotProgram;
    use malnet_botgen::botvm::{Op, ProgramBuilder, SockKind};
    use malnet_mips::elf::ElfFile;

    let mut b = ProgramBuilder::new();
    let (poff, plen) = b.blob(&[0x5a; 64]);
    b.op(Op::Ldi {
        r: 1,
        a: u32::from(Ipv4Addr::new(203, 0, 113, 7)),
    })
    .op(Op::Ldi { r: 2, a: 80 })
    .op(Op::Ldi { r: 3, a: u32::MAX })
    .op(Op::Socket {
        r: 4,
        kind: SockKind::Udp,
    })
    .op(Op::Socket {
        r: 5,
        kind: SockKind::RawTcp,
    })
    .label("flood")
    .op(Op::SendTo {
        x: 4,
        y: 1,
        r: 2,
        a: 0,
        b: poff,
        c: plen,
    })
    .op(Op::RawSend {
        x: 5,
        y: 1,
        a: 2048,
        b: 20,
    })
    .op(Op::SleepMs { a: 1 })
    .op(Op::Addi {
        r: 3,
        x: 3,
        a: u32::MAX,
    })
    .jump(Op::Jne { x: 3, y: 0, a: 0 }, "flood")
    .op(Op::End);
    let (bytecode, blob) = b.build();
    let elf = ElfFile::parse(&emit_elf(&BotProgram { bytecode, blob }, b"bench"))
        .expect("emit_elf output parses");
    let load = || {
        let mut mem = elf.load();
        mem.map_zeroed(STACK_TOP - STACK_SIZE, STACK_SIZE + 0x1000, true);
        mem
    };
    h.bench_batched_counted(
        "mips/botvm_flood_step",
        || Cpu::new(load(), elf.entry),
        |mut cpu| flood_slices(&mut cpu, |cpu| cpu.run(u64::MAX)),
    );
    h.bench_batched_counted(
        "mips/botvm_flood",
        || {
            let mut mem = load();
            let cache = ExecCache::for_entry(&mut mem, elf.entry).expect("text is cacheable");
            (Cpu::new(mem, elf.entry), cache)
        },
        |(mut cpu, mut cache)| flood_slices(&mut cpu, |cpu| cpu.run_cached(u64::MAX, &mut cache)),
    );
}

fn sample_spec() -> BehaviorSpec {
    BehaviorSpec {
        c2: vec![(C2Endpoint::Ip(Ipv4Addr::new(10, 1, 0, 5)), 23)],
        exploits: vec![ExploitPlan {
            vuln: VulnId::Gpon10561,
            downloader: Ipv4Addr::new(10, 1, 0, 5),
            loader: "t8UsA2.sh".into(),
            full_gpon: true,
        }],
        recv_timeout_ms: 5000,
        ..Default::default()
    }
}

fn bench_botgen(h: &mut Harness) {
    let spec = sample_spec();
    h.bench("botgen/compile_and_emit_elf", || {
        emit_elf(&compile(std::hint::black_box(&spec)), b"bench")
    });
    h.bench("botgen/world_generate_100", || {
        World::generate(WorldConfig {
            seed: 1,
            n_samples: 100,
            cal: Calibration::default(),
        })
    });
}

fn bench_sandbox(h: &mut Harness) {
    let elf = emit_elf(&compile(&sample_spec()), b"bench");
    h.bench("sandbox/contained_60s_run", || {
        let mut sb = Sandbox::new(
            Network::new(SimTime::EPOCH, 1),
            SandboxConfig {
                handshaker_threshold: Some(5),
                ..Default::default()
            },
        );
        sb.execute(std::hint::black_box(&elf), SimDuration::from_secs(60))
    });
    // C2 detection over a real capture.
    let mut sb = Sandbox::new(
        Network::new(SimTime::EPOCH, 1),
        SandboxConfig {
            handshaker_threshold: Some(5),
            ..Default::default()
        },
    );
    let art = sb.execute(&elf, SimDuration::from_secs(120));
    h.bench("core/c2detect_on_capture", || {
        detect_c2(std::hint::black_box(&art), Ipv4Addr::new(100, 64, 0, 2))
    });
}

/// The restricted-mode eavesdrop over a real Mirai flood capture, built
/// the way `examples/ddos_eavesdrop.rs` builds one: a live C2 orders a
/// UDP flood and the restricted sandbox records the whole session.
fn bench_ddos(h: &mut Harness) {
    let (c2, bot) = (Ipv4Addr::new(10, 1, 0, 5), Ipv4Addr::new(100, 64, 0, 2));
    let mut net = Network::new(SimTime::EPOCH, 9);
    install_c2(
        &mut net,
        c2,
        C2Config {
            family: Family::Mirai,
            port: 23,
            respond: RespondMode::Always,
            commands_on_login: vec![(
                SimDuration::from_secs(30),
                AttackCommand {
                    method: AttackMethod::UdpFlood,
                    target: Ipv4Addr::new(203, 0, 113, 99),
                    port: 4567,
                    duration_secs: 5,
                },
            )],
            serve_loader: None,
        },
    );
    let elf = emit_elf(
        &compile(&BehaviorSpec {
            family: Family::Mirai,
            c2: vec![(C2Endpoint::Ip(c2), 23)],
            recv_timeout_ms: 10_000,
            ..Default::default()
        }),
        b"eavesdrop",
    );
    let mut sb = Sandbox::new(
        net,
        SandboxConfig {
            bot_ip: bot,
            mode: AnalysisMode::Restricted { allowed: vec![c2] },
            handshaker_threshold: None,
            ..Default::default()
        },
    );
    let capture = sb.execute(&elf, SimDuration::from_secs(120)).pcap;
    h.bench("core/ddos_extract_flood_capture", || {
        Eavesdrop::from_capture(std::hint::black_box(&capture), bot, [c2]).commands(
            c2,
            Some(Family::Mirai),
            DEFAULT_PPS_THRESHOLD,
        )
    });
}

fn bench_pipeline(h: &mut Harness) {
    let world = World::generate(WorldConfig {
        seed: 3,
        n_samples: 10,
        cal: Calibration::default(),
    });
    h.bench("pipeline/ten_sample_study", || {
        let opts = PipelineOpts {
            max_samples: Some(10),
            run_probing: false,
            ..PipelineOpts::fast()
        };
        Pipeline::new(opts).run(std::hint::black_box(&world))
    });
}

/// The telemetry hot path must be close to free when disabled (a branch
/// on an `Option` discriminant) and cheap when enabled (one relaxed
/// atomic add). These rows are the evidence behind the claim in
/// DESIGN.md §8's telemetry section.
fn bench_telemetry(h: &mut Harness) {
    use malnet_telemetry::Telemetry;
    // The bodies loop 1024× so one iteration is long enough to time;
    // `bench_scaled` divides by the trip count, so these rows read
    // per-*add* (the disabled row must be provably sub-10 ns — `main`
    // gates on it).
    let off = Telemetry::disabled().counter("bench.counter");
    h.bench_scaled("telemetry/counter_add_disabled", 1024, || {
        for _ in 0..1024 {
            std::hint::black_box(&off).add(1);
        }
    });
    let tel = Telemetry::enabled();
    let on = tel.counter("bench.counter");
    h.bench_scaled("telemetry/counter_add_enabled", 1024, || {
        for _ in 0..1024 {
            std::hint::black_box(&on).add(1);
        }
    });
    let hist = tel.histogram("bench.histogram");
    h.bench_scaled("telemetry/histogram_record", 1024, || {
        for v in 0..1024u64 {
            std::hint::black_box(&hist).record(v);
        }
    });
    h.bench("telemetry/span_enter_exit", || {
        let _g = std::hint::black_box(&tel).span("bench.span");
    });
    let pipeline_tel = Telemetry::enabled();
    let world = World::generate(WorldConfig {
        seed: 3,
        n_samples: 10,
        cal: Calibration::default(),
    });
    h.bench("telemetry/ten_sample_study_instrumented", || {
        let opts = PipelineOpts {
            max_samples: Some(10),
            run_probing: false,
            ..PipelineOpts::fast()
        };
        Pipeline::with_telemetry(opts, pipeline_tel.clone()).run(std::hint::black_box(&world))
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_wire(&mut h);
    bench_mips(&mut h);
    bench_botvm(&mut h);
    bench_botgen(&mut h);
    bench_sandbox(&mut h);
    bench_ddos(&mut h);
    bench_pipeline(&mut h);
    bench_telemetry(&mut h);

    // Regression gates (measured runs only; a gate is skipped if
    // `--filter` excluded its rows).
    let mut failures = Vec::new();
    for (legacy, block, derived, guest) in [
        (
            "mips/emulate_500k_instr",
            "mips/block_exec_500k",
            "mips.block_speedup",
            "the 500k-instruction loop",
        ),
        (
            "mips/botvm_flood_step",
            "mips/botvm_flood",
            "mips.botvm_speedup",
            "the botvm flood guest",
        ),
    ] {
        if let (Some(legacy), Some(block)) = (h.median_ns_per_op(legacy), h.median_ns_per_op(block))
        {
            let speedup = legacy / block;
            h.record_derived(derived, speedup);
            if speedup < 3.0 {
                failures.push(format!(
                    "block-engine speedup {speedup:.2}x over the stepping \
                     interpreter on {guest} is below the 3x regression gate"
                ));
            }
        }
    }
    if let Some(ns) = h.median_ns_per_op("telemetry/counter_add_disabled") {
        if ns > 10.0 {
            failures.push(format!(
                "disabled telemetry counter costs {ns:.2} ns per add (gate: 10 ns)"
            ));
        }
    }

    h.report();
    h.write_json("results/BENCH_components.json");
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
