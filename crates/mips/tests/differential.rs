//! Differential proptests: the block-cached engine (`Cpu::run_cached`)
//! against the stepping oracle (`Cpu::run`) in lockstep.
//!
//! Both engines run the same program with the same per-call budget; at
//! every stop (budget exhaustion, syscall yield, fault) the *complete*
//! architectural state must match: register file, pc, hi/lo, pending
//! branch, retired-instruction count, the full memory image, and the
//! syscall trace. Programs come from the same strategies the rest of
//! the suite uses — the botgen stub subset with branches and syscalls,
//! plus arbitrary instruction soup (fuzzed `.text`, writable so stores
//! exercise cache invalidation) — and from the stub's opcode compare
//! chain, which the engine runs as one dispatch.

use proptest::prelude::*;

use malnet_mips::asm::{Assembler, Ins, Reg, Target};
use malnet_mips::block::ExecCache;
use malnet_mips::cpu::{Cpu, STACK_SIZE, STACK_TOP};
use malnet_mips::mem::Memory;

const BASE: u32 = 0x0040_0000;

fn build(code: Vec<u8>, writable_text: bool) -> (Cpu, ExecCache) {
    let mut mem = Memory::new();
    mem.map(BASE, code, writable_text);
    mem.map_zeroed(0x1000_0000, 4096, true);
    mem.map_zeroed(STACK_TOP - STACK_SIZE, STACK_SIZE + 0x1000, true);
    let cache = ExecCache::for_entry(&mut mem, BASE).expect("text maps at BASE");
    (Cpu::new(mem, BASE), cache)
}

/// One syscall observation: number and the four o32 argument registers.
type SyscallRecord = (u32, u32, u32, u32, u32);

fn record_and_service(cpu: &mut Cpu, k: u32) -> SyscallRecord {
    let rec = (cpu.reg(2), cpu.reg(4), cpu.reg(5), cpu.reg(6), cpu.reg(7));
    // Deterministic embedder: unique return value per yield, $a3 = 0.
    cpu.set_reg(2, 0x0575_0000u32.wrapping_add(k));
    cpu.set_reg(7, 0);
    rec
}

/// Drive both engines with slice-sized budgets and compare complete
/// state at every stop. Returns Err on divergence (prop_assert inside).
fn lockstep(code: Vec<u8>, slice: u64, writable_text: bool) -> Result<(), TestCaseError> {
    let (mut oracle, _unused) = build(code.clone(), writable_text);
    let (mut fast, mut cache) = build(code, writable_text);
    let mut oracle_trace: Vec<SyscallRecord> = Vec::new();
    let mut fast_trace: Vec<SyscallRecord> = Vec::new();
    let mut yields = 0u32;
    for _round in 0..4096 {
        let a = oracle.run(slice);
        let b = fast.run_cached(slice, &mut cache);
        prop_assert_eq!(&a, &b, "outcome diverged at retired={}", oracle.retired);
        prop_assert_eq!(oracle.regs, fast.regs, "registers diverged");
        prop_assert_eq!(oracle.pc, fast.pc, "pc diverged");
        prop_assert_eq!(oracle.hi, fast.hi, "hi diverged");
        prop_assert_eq!(oracle.lo, fast.lo, "lo diverged");
        prop_assert_eq!(oracle.retired, fast.retired, "retired diverged");
        prop_assert_eq!(
            oracle.pending_branch(),
            fast.pending_branch(),
            "pending branch diverged"
        );
        for seg in [BASE, 0x1000_0000] {
            if let Some((b0, len, _)) = oracle.mem.segment_span(seg) {
                prop_assert_eq!(
                    oracle.mem.view(b0, len).unwrap(),
                    fast.mem.view(b0, len).unwrap(),
                    "memory image at {:#x} diverged",
                    b0
                );
            }
        }
        match a {
            Err(_) => break, // identical faults: done
            Ok(Some(_)) => {
                yields += 1;
                oracle_trace.push(record_and_service(&mut oracle, yields));
                fast_trace.push(record_and_service(&mut fast, yields));
            }
            Ok(None) => {}
        }
        if oracle.retired > 60_000 {
            break; // looping program: enough lockstep evidence
        }
    }
    prop_assert_eq!(oracle_trace, fast_trace, "syscall traces diverged");
    Ok(())
}

fn reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg)
}

/// Stub-shaped programs: Li pairs, loop counters, branches with nop
/// delay slots, loads/stores, syscall preludes — everything the fusion
/// pass targets, in random interleavings.
fn stub_ins() -> impl Strategy<Value = Ins> {
    let t = || (0u32..96).prop_map(|k| Target::Abs(BASE + k * 4));
    prop_oneof![
        (reg(), any::<u32>()).prop_map(|(a, v)| Ins::Li(a, v)),
        (reg(), reg()).prop_map(|(a, b)| Ins::Move(a, b)),
        (reg(), reg(), any::<i16>()).prop_map(|(a, b, i)| Ins::Addiu(a, b, i)),
        (reg(), reg(), reg()).prop_map(|(a, b, c)| Ins::Addu(a, b, c)),
        (reg(), reg(), reg()).prop_map(|(a, b, c)| Ins::Xor(a, b, c)),
        (reg(), reg(), reg()).prop_map(|(a, b, c)| Ins::Sltu(a, b, c)),
        (reg(), reg(), 0u8..32).prop_map(|(a, b, s)| Ins::Sll(a, b, s)),
        (reg(), reg()).prop_map(|(a, b)| Ins::Multu(a, b)),
        (reg(), reg()).prop_map(|(a, b)| Ins::Divu(a, b)),
        reg().prop_map(Ins::Mflo),
        (reg(), reg(), any::<i16>()).prop_map(|(a, b, o)| Ins::Lw(a, b, o)),
        (reg(), reg(), any::<i16>()).prop_map(|(a, b, o)| Ins::Sw(a, b, o)),
        (reg(), reg(), any::<i16>()).prop_map(|(a, b, o)| Ins::Sb(a, b, o)),
        (reg(), reg(), t()).prop_map(|(a, b, t)| Ins::Beq(a, b, t)),
        (reg(), reg(), t()).prop_map(|(a, b, t)| Ins::Bne(a, b, t)),
        (reg(), t()).prop_map(|(a, t)| Ins::Bltz(a, t)),
        t().prop_map(Ins::J),
        t().prop_map(Ins::Jal),
        Just(Ins::Jr(Reg::RA)),
        Just(Ins::Syscall),
        Just(Ins::Nop),
    ]
}

/// A compare-chain key: mostly from a small set, so duplicates occur,
/// now and then one too wide for the chain's dense key index.
fn chain_key() -> impl Strategy<Value = u32> {
    (0u32..18).prop_map(|k| if k < 17 { k % 10 } else { 0x0001_0002 })
}

/// The chain's compared register and its `li` register: usually the
/// stub's `$t8`/`$t9`, sometimes `$zero` on either side, and sometimes
/// one register for both (shapes that must not fuse).
fn chain_regs() -> impl Strategy<Value = (Reg, Reg)> {
    (0u8..9).prop_map(|k| match k {
        0 => (Reg::ZERO, Reg::T9),
        1 => (Reg::T8, Reg::ZERO),
        2 => (Reg::T9, Reg::T9),
        _ => (Reg::T8, Reg::T9),
    })
}

/// The stub's opcode dispatch shape: `li x, start`, a loop head that
/// steps `x`, then `li rt, k; beq x, rt, target` per element, and a
/// fall-through that yields and jumps back to the loop head. Each
/// element's target selector picks, mostly, another element's head
/// (entering the chain mid-way), else the loop head, the fall-through,
/// or any word up to a little past the end (an element's middle, or
/// outside the segment).
fn compare_chain_program(
    (x, rt): (Reg, Reg),
    start: u32,
    step: i16,
    elements: &[(u32, u32)],
) -> Vec<u8> {
    let n = elements.len() as u32;
    let (head, fall) = (2, 3 + 4 * n);
    let mut a = Assembler::new(BASE);
    a.ins(Ins::Li(x, start))
        .label("head")
        .ins(Ins::Addiu(x, x, step));
    for &(key, sel) in elements {
        let word = match sel % 8 {
            0 => (sel / 8) % (fall + 8),
            1 => head,
            2 => fall,
            _ => 3 + 4 * ((sel / 8) % n),
        };
        a.ins(Ins::Li(rt, key))
            .ins(Ins::Beq(x, rt, Target::Abs(BASE + 4 * word)));
    }
    a.ins(Ins::Syscall).ins(Ins::J("head".into()));
    a.assemble().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compare chains of 1–40 elements, with duplicate keys, unfusable
    /// register shapes and targets inside and outside the chain, match
    /// the oracle at every partial budget.
    #[test]
    fn block_engine_matches_oracle_on_compare_chains(
        regs in chain_regs(),
        start in 0u32..10,
        step in 0i16..3,
        elements in proptest::collection::vec((chain_key(), any::<u32>()), 1..=40),
        slice in prop_oneof![1u64..=9, Just(100_000u64)],
    ) {
        lockstep(compare_chain_program(regs, start, step, &elements), slice, false)?;
    }

    /// A store that rewrites one chain element's key (its `ori`) on
    /// every trip through the loop: the cache rebuilds the chain, and
    /// the block engine still matches the oracle.
    #[test]
    fn block_engine_matches_oracle_when_a_store_rewrites_a_chain_key(
        keys in proptest::collection::vec(chain_key(), 2..=12),
        patch in any::<prop::sample::Index>(),
        new_key in 0u32..12,
        slice in prop_oneof![1u64..=9, Just(100_000u64)],
    ) {
        // Prologue: `li $s1, BASE` (2 words), `li $t8, 0` (2 words);
        // the chain starts at word 4, element j's `ori` at 4 + 4j + 1.
        let j = patch.index(keys.len());
        let ori_off = 4 * (4 + 4 * j as i16 + 1);
        let ori = 0x3400_0000 | 25 << 21 | 25 << 16 | new_key;
        let mut a = Assembler::new(BASE);
        a.ins(Ins::Li(Reg::S1, BASE))
            .ins(Ins::Li(Reg::T8, 0))
            .label("head");
        for &key in &keys {
            a.ins(Ins::Li(Reg::T9, key))
                .ins(Ins::Beq(Reg::T8, Reg::T9, "patch".into()));
        }
        a.label("patch")
            .ins(Ins::Li(Reg::T0, ori))
            .ins(Ins::Sw(Reg::T0, Reg::S1, ori_off))
            .ins(Ins::Addiu(Reg::T8, Reg::T8, 1))
            .ins(Ins::J("head".into()));
        lockstep(a.assemble().unwrap(), slice, true)?;
    }

    /// Assembled stub-subset programs (with the idioms fusion targets)
    /// behave identically under both engines at every budget slicing.
    #[test]
    fn block_engine_matches_oracle_on_stub_programs(
        program in proptest::collection::vec(stub_ins(), 1..64),
        slice in prop_oneof![1u64..8, Just(100u64), Just(100_000u64)],
    ) {
        let mut a = Assembler::new(BASE);
        for ins in &program {
            a.ins(ins.clone());
        }
        a.ins(Ins::Break);
        let code = a.assemble().unwrap();
        lockstep(code, slice, false)?;
    }

    /// Arbitrary instruction soup over *writable* text: every word
    /// either executes or faults identically, and stores landing in the
    /// executing segment invalidate the cache rather than diverge.
    #[test]
    fn block_engine_matches_oracle_on_fuzzed_writable_text(
        words in proptest::collection::vec(any::<u32>(), 1..96),
        slice in prop_oneof![1u64..8, Just(64u64), Just(100_000u64)],
    ) {
        let code: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        lockstep(code, slice, true)?;
    }

    /// Truncated stub programs (cut mid-idiom: a lui with its ori
    /// sliced off, a branch missing its delay slot) still match —
    /// running off the segment end faults identically in both engines.
    #[test]
    fn block_engine_matches_oracle_on_truncated_programs(
        program in proptest::collection::vec(stub_ins(), 1..24),
        cut_words in any::<prop::sample::Index>(),
        slice in 1u64..6,
    ) {
        let mut a = Assembler::new(BASE);
        for ins in &program {
            a.ins(ins.clone());
        }
        let mut code = a.assemble().unwrap();
        let words = code.len() / 4;
        let keep = 4 * (1 + cut_words.index(words));
        code.truncate(keep);
        lockstep(code, slice, false)?;
    }
}
