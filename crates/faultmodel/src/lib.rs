//! # flowery-faultmodel
//!
//! Pluggable fault models and modeled hardware detectors.
//!
//! A [`ModelSpec`] turns `(seed, trial_index, site count)` into a
//! concrete fault spec for either injection layer, drawing
//! deterministically from the per-trial RNG stream. The default,
//! [`ModelSpec::SingleBitReg`], reproduces the original hard-wired
//! injector draw-for-draw, so campaigns under it are bit-identical to the
//! pre-refactor harness (pinned by the differential tests in
//! `flowery-inject`).
//!
//! A [`DetectorSpec`] is a cheap *modeled* hardware detector (register
//! parity, control-flow signatures) that runs conceptually alongside the
//! software protection: it converts would-be SDCs whose fault class it
//! covers into detections, at a fixed modeled runtime overhead. Detectors
//! compose — a campaign carries a set of them.

use flowery_backend::{AsmFaultSpec, FaultDest};
use flowery_ir::interp::{FaultEffect, FaultSpec};
use rand::rngs::SmallRng;
use rand::{splitmix64, Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Layer-domain separators folded into per-trial seeds so the IR and
/// assembly campaigns over the same module explore independent streams.
pub const IR_STREAM: u64 = 0x49_52;
pub const ASM_STREAM: u64 = 0x41_53_4D;

/// Per-trial RNG: mixes the base seed, a stream tag, and the trial index
/// through SplitMix64 so each trial's randomness is independent of how
/// trials are sharded across threads or batches.
pub fn trial_rng(seed: u64, stream: u64, trial_index: u64) -> SmallRng {
    let mixed = splitmix64(seed ^ splitmix64(stream) ^ splitmix64(trial_index.wrapping_add(1)));
    SmallRng::seed_from_u64(mixed)
}

/// The architectural state a fault perturbs — the granularity at which
/// modeled hardware detectors decide coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A register/datapath value (the classic model).
    Reg,
    /// Condition flags / branch predicate state.
    Flags,
    /// A memory cell.
    Mem,
    /// A control-flow edge (wrong-direction or wild jump).
    Control,
}

/// A registered fault model: `Copy`, comparable, string-serializable —
/// the form configs, checkpoints, and wire formats carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ModelSpec {
    /// `single-bit-reg` — the classic LLFI/PIN-style single-bit
    /// destination flip, the default, bit-identical to the legacy injector.
    #[default]
    SingleBitReg,
    /// `double-bit-reg` — two independent flips in one destination (the
    /// multi-bit model the paper cites in §2.2), bit-identical to the
    /// switch pre-model campaigns carried in their checkpoint headers.
    DoubleBitReg,
    /// `multi-bit-N` — a burst of N adjacent flips (2 ≤ N ≤ 64), a
    /// multi-bit upset.
    MultiBit(u8),
    /// `flags-pc` — condition-state corruption: the branch-feeding low
    /// bit at the IR level, the condition flags at the assembly level.
    FlagsPc,
    /// `mem-cell` — a single-bit flip in a memory cell at a deterministic
    /// address derived from an extra draw; the site instruction's own
    /// result stays intact.
    MemCell,
    /// `control-flow` — after the site executes, control is redirected
    /// to a deterministic wrong target (SET-on-branch-logic model).
    ControlFlow,
}

impl ModelSpec {
    /// The state class this model's faults primarily perturb.
    pub fn class(self) -> FaultClass {
        match self {
            ModelSpec::SingleBitReg | ModelSpec::DoubleBitReg | ModelSpec::MultiBit(_) => FaultClass::Reg,
            ModelSpec::FlagsPc => FaultClass::Flags,
            ModelSpec::MemCell => FaultClass::Mem,
            ModelSpec::ControlFlow => FaultClass::Control,
        }
    }

    /// The fault injected by trial `trial_index` of the layer whose stream
    /// tag is `stream` ([`IR_STREAM`] / [`ASM_STREAM`]) — a pure function of
    /// `(seed, trial_index, sites)`. The site and bit draws are common to
    /// every model and come first (the legacy stream layout); a model's
    /// extra draws follow them.
    pub fn sample(self, stream: u64, seed: u64, trial_index: u64, sites: u64) -> FaultSpec {
        let mut rng = trial_rng(seed, stream, trial_index);
        let site_index = rng.gen_range(0..sites);
        let bit: u32 = rng.gen_range(0..64);
        let (second_bit, effect) = match self {
            ModelSpec::SingleBitReg => (None, FaultEffect::Bits),
            ModelSpec::DoubleBitReg => (Some(rng.gen_range(0..64)), FaultEffect::Bits),
            ModelSpec::MultiBit(width) => (None, FaultEffect::Burst { width }),
            ModelSpec::FlagsPc => (None, FaultEffect::Flags),
            ModelSpec::MemCell => (None, FaultEffect::Mem { offset: rng.next_u64() }),
            ModelSpec::ControlFlow => (None, FaultEffect::Jump { target: rng.next_u64() }),
        };
        FaultSpec { site_index, bit, second_bit, effect }
    }

    /// The fault injected by IR-level trial `trial_index`.
    pub fn sample_ir(self, seed: u64, trial_index: u64, sites: u64) -> FaultSpec {
        self.sample(IR_STREAM, seed, trial_index, sites)
    }

    /// The fault injected by assembly-level trial `trial_index`.
    pub fn sample_asm(self, seed: u64, trial_index: u64, sites: u64) -> AsmFaultSpec {
        self.sample(ASM_STREAM, seed, trial_index, sites)
    }
}

impl fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelSpec::SingleBitReg => f.write_str("single-bit-reg"),
            ModelSpec::DoubleBitReg => f.write_str("double-bit-reg"),
            ModelSpec::MultiBit(w) => write!(f, "multi-bit-{w}"),
            ModelSpec::FlagsPc => f.write_str("flags-pc"),
            ModelSpec::MemCell => f.write_str("mem-cell"),
            ModelSpec::ControlFlow => f.write_str("control-flow"),
        }
    }
}

impl FromStr for ModelSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<ModelSpec, String> {
        match s {
            "single-bit-reg" => Ok(ModelSpec::SingleBitReg),
            "double-bit-reg" => Ok(ModelSpec::DoubleBitReg),
            "flags-pc" => Ok(ModelSpec::FlagsPc),
            "mem-cell" => Ok(ModelSpec::MemCell),
            "control-flow" => Ok(ModelSpec::ControlFlow),
            other => {
                if let Some(w) = other.strip_prefix("multi-bit-") {
                    let w: u8 = w.parse().map_err(|_| format!("bad burst width in `{other}`"))?;
                    if (2..=64).contains(&w) {
                        return Ok(ModelSpec::MultiBit(w));
                    }
                    return Err(format!("burst width must be 2..=64, got {w}"));
                }
                Err(format!("unknown fault model `{other}` (known: {})", known_model_names()))
            }
        }
    }
}

impl Serialize for ModelSpec {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl Deserialize for ModelSpec {
    fn deserialize_value(v: &serde::Value) -> Result<ModelSpec, serde::Error> {
        let s = v.as_str().ok_or_else(|| serde::Error::expected("fault-model string", v))?;
        s.parse().map_err(serde::Error)
    }
}

/// A cheap modeled hardware detector. Detectors never change a trial's
/// execution; they post-classify it: a would-be SDC whose injected fault
/// falls in a class the detector covers becomes a detection instead, and
/// each detector charges a fixed modeled runtime overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorSpec {
    /// `parity` — per-register parity bit: catches register-class faults
    /// with an odd number of flipped bits.
    Parity,
    /// `cf-sig` — control-flow signature checking: catches control-class
    /// faults (illegal edges).
    CfSig,
}

impl DetectorSpec {
    /// Would this detector have fired on a fault of `class` flipping
    /// `flips` bits?
    pub fn catches(self, class: FaultClass, flips: u32) -> bool {
        match self {
            DetectorSpec::Parity => class == FaultClass::Reg && flips % 2 == 1,
            DetectorSpec::CfSig => class == FaultClass::Control,
        }
    }

    /// Modeled runtime overhead, in permille of baseline cycles.
    pub fn overhead_permille(self) -> u64 {
        match self {
            DetectorSpec::Parity => 40,
            DetectorSpec::CfSig => 70,
        }
    }
}

impl fmt::Display for DetectorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectorSpec::Parity => f.write_str("parity"),
            DetectorSpec::CfSig => f.write_str("cf-sig"),
        }
    }
}

impl FromStr for DetectorSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<DetectorSpec, String> {
        match s {
            "parity" => Ok(DetectorSpec::Parity),
            "cf-sig" => Ok(DetectorSpec::CfSig),
            other => Err(format!("unknown detector `{other}` (known: parity, cf-sig)")),
        }
    }
}

impl Serialize for DetectorSpec {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl Deserialize for DetectorSpec {
    fn deserialize_value(v: &serde::Value) -> Result<DetectorSpec, serde::Error> {
        let s = v.as_str().ok_or_else(|| serde::Error::expected("detector string", v))?;
        s.parse().map_err(serde::Error)
    }
}

/// True if any detector in the set fires on a `(class, flips)` fault.
pub fn any_catches(detectors: &[DetectorSpec], class: FaultClass, flips: u32) -> bool {
    detectors.iter().any(|d| d.catches(class, flips))
}

/// Summed modeled overhead of a detector set, in permille.
pub fn detector_overhead_permille(detectors: &[DetectorSpec]) -> u64 {
    detectors.iter().map(|d| d.overhead_permille()).sum()
}

/// Number of state bits an injected fault flips, for parity-style
/// coverage decisions.
pub fn flip_count(second_bit: Option<u32>, effect: FaultEffect) -> u32 {
    match effect {
        FaultEffect::Bits | FaultEffect::Flags => 1 + second_bit.is_some() as u32,
        FaultEffect::Burst { width } => width as u32,
        FaultEffect::Mem { .. } | FaultEffect::Jump { .. } => 1,
    }
}

/// The state class an IR-level injection actually perturbed. IR results
/// are virtual registers, so value effects are register-class.
pub fn classify_ir_fault(effect: FaultEffect) -> FaultClass {
    match effect {
        FaultEffect::Bits | FaultEffect::Burst { .. } => FaultClass::Reg,
        FaultEffect::Flags => FaultClass::Flags,
        FaultEffect::Mem { .. } => FaultClass::Mem,
        FaultEffect::Jump { .. } => FaultClass::Control,
    }
}

/// The state class an assembly-level injection actually perturbed, given
/// the injected instruction's architected destination — a bit flip whose
/// destination is the flags register or a store's memory cell is covered
/// by flags/memory protection, not register parity.
pub fn classify_asm_fault(effect: FaultEffect, dest: FaultDest) -> FaultClass {
    match effect {
        FaultEffect::Bits | FaultEffect::Burst { .. } => match dest {
            FaultDest::Gpr(..) | FaultDest::None => FaultClass::Reg,
            FaultDest::Flags => FaultClass::Flags,
            FaultDest::MemVal(_) => FaultClass::Mem,
        },
        FaultEffect::Flags => FaultClass::Flags,
        FaultEffect::Mem { .. } => FaultClass::Mem,
        FaultEffect::Jump { .. } => FaultClass::Control,
    }
}

/// Every model shipped with this build (one representative burst width
/// for the parameterized family), in registry order.
pub const REGISTERED_MODELS: &[ModelSpec] = &[
    ModelSpec::SingleBitReg,
    ModelSpec::DoubleBitReg,
    ModelSpec::MultiBit(4),
    ModelSpec::FlagsPc,
    ModelSpec::MemCell,
    ModelSpec::ControlFlow,
];

/// Every detector shipped with this build, in registry order.
pub const REGISTERED_DETECTORS: &[DetectorSpec] = &[DetectorSpec::Parity, DetectorSpec::CfSig];

fn known_model_names() -> String {
    let names: Vec<String> = REGISTERED_MODELS.iter().map(|m| m.to_string()).collect();
    names.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_names_round_trip() {
        for &m in REGISTERED_MODELS {
            let s = m.to_string();
            assert_eq!(s.parse::<ModelSpec>().unwrap(), m, "{s}");
        }
        assert_eq!("multi-bit-8".parse::<ModelSpec>().unwrap(), ModelSpec::MultiBit(8));
        assert!("multi-bit-1".parse::<ModelSpec>().is_err());
        assert!("multi-bit-65".parse::<ModelSpec>().is_err());
        assert!("no-such-model".parse::<ModelSpec>().is_err());
        for &d in REGISTERED_DETECTORS {
            assert_eq!(d.to_string().parse::<DetectorSpec>().unwrap(), d);
        }
        assert!("no-such-detector".parse::<DetectorSpec>().is_err());
    }

    #[test]
    fn serde_round_trip_is_string_typed() {
        for &m in REGISTERED_MODELS {
            let v = m.serialize_value();
            assert!(v.as_str().is_some());
            assert_eq!(ModelSpec::deserialize_value(&v).unwrap(), m);
        }
        for &d in REGISTERED_DETECTORS {
            let v = d.serialize_value();
            assert_eq!(DetectorSpec::deserialize_value(&v).unwrap(), d);
        }
    }

    #[test]
    fn samples_are_pure_and_stream_separated() {
        for &m in REGISTERED_MODELS {
            for trial in [0u64, 1, 7, 2999] {
                let a = m.sample_ir(42, trial, 100);
                let b = m.sample_ir(42, trial, 100);
                assert_eq!(a, b);
                assert!(a.site_index < 100 && a.bit < 64);
                let aa = m.sample_asm(42, trial, 100);
                let ab = m.sample_asm(42, trial, 100);
                assert_eq!(aa, ab);
            }
            // Layers draw from distinct streams.
            let ir = m.sample_ir(42, 0, 1000);
            let asm = m.sample_asm(42, 0, 1000);
            assert!(ir.site_index != asm.site_index || ir.bit != asm.bit);
        }
    }

    #[test]
    fn fault_specs_written_with_a_scope_field_still_parse() {
        // Specs once carried `scope` (`null` for an ordinary fault); a
        // region-scoped fault is now an ordinary one and the key is ignored.
        use serde::{Deserialize, Serialize, Value};
        let (ir, asm) = (ModelSpec::MultiBit(3).sample_ir(7, 1, 90), ModelSpec::MultiBit(3).sample_asm(7, 1, 90));
        let with_scope = |v: Value| match v {
            Value::Map(mut m) => {
                m.push(("scope".into(), Value::Null));
                Value::Map(m)
            }
            other => panic!("a fault spec serializes as a map, got {other:?}"),
        };
        assert_eq!(FaultSpec::deserialize_value(&with_scope(ir.serialize_value())).unwrap(), ir);
        assert_eq!(AsmFaultSpec::deserialize_value(&with_scope(asm.serialize_value())).unwrap(), asm);
    }

    #[test]
    fn default_model_matches_legacy_draw_order() {
        // Reproduce the pre-refactor injector inline and compare.
        for trial in [0u64, 3, 11, 999] {
            let mut rng = trial_rng(42, IR_STREAM, trial);
            let legacy = FaultSpec {
                site_index: rng.gen_range(0..500),
                bit: rng.gen_range(0..64),
                second_bit: None,
                effect: FaultEffect::Bits,
            };
            assert_eq!(ModelSpec::SingleBitReg.sample_ir(42, trial, 500), legacy);

            let mut rng = trial_rng(42, IR_STREAM, trial);
            let legacy_double = FaultSpec {
                site_index: rng.gen_range(0..500),
                bit: rng.gen_range(0..64),
                second_bit: Some(rng.gen_range(0..64)),
                effect: FaultEffect::Bits,
            };
            assert_eq!(ModelSpec::DoubleBitReg.sample_ir(42, trial, 500), legacy_double);
        }
    }

    #[test]
    fn models_produce_their_effects() {
        let s = ModelSpec::MultiBit(4).sample_ir(1, 0, 10);
        assert_eq!(s.effect, FaultEffect::Burst { width: 4 });
        let s = ModelSpec::FlagsPc.sample_asm(1, 0, 10);
        assert_eq!(s.effect, FaultEffect::Flags);
        assert!(matches!(ModelSpec::MemCell.sample_ir(1, 0, 10).effect, FaultEffect::Mem { .. }));
        assert!(matches!(ModelSpec::ControlFlow.sample_asm(1, 0, 10).effect, FaultEffect::Jump { .. }));
    }

    #[test]
    fn detectors_cover_their_classes() {
        assert!(DetectorSpec::Parity.catches(FaultClass::Reg, 1));
        assert!(!DetectorSpec::Parity.catches(FaultClass::Reg, 2), "even flips evade parity");
        assert!(!DetectorSpec::Parity.catches(FaultClass::Control, 1));
        assert!(DetectorSpec::CfSig.catches(FaultClass::Control, 1));
        assert!(!DetectorSpec::CfSig.catches(FaultClass::Mem, 1));
        assert!(any_catches(REGISTERED_DETECTORS, FaultClass::Control, 2));
        assert!(!any_catches(&[], FaultClass::Reg, 1));
        assert_eq!(
            detector_overhead_permille(REGISTERED_DETECTORS),
            DetectorSpec::Parity.overhead_permille() + DetectorSpec::CfSig.overhead_permille()
        );
    }

    #[test]
    fn classification_tracks_destination() {
        use flowery_backend::Reg;
        assert_eq!(classify_ir_fault(FaultEffect::Bits), FaultClass::Reg);
        assert_eq!(classify_ir_fault(FaultEffect::Jump { target: 3 }), FaultClass::Control);
        assert_eq!(classify_asm_fault(FaultEffect::Bits, FaultDest::Gpr(Reg::Rax, 8)), FaultClass::Reg);
        assert_eq!(classify_asm_fault(FaultEffect::Bits, FaultDest::Flags), FaultClass::Flags);
        assert_eq!(classify_asm_fault(FaultEffect::Bits, FaultDest::MemVal(8)), FaultClass::Mem);
        assert_eq!(classify_asm_fault(FaultEffect::Flags, FaultDest::Gpr(Reg::Rax, 8)), FaultClass::Flags);
        assert_eq!(flip_count(None, FaultEffect::Bits), 1);
        assert_eq!(flip_count(Some(3), FaultEffect::Bits), 2);
        assert_eq!(flip_count(None, FaultEffect::Burst { width: 4 }), 4);
    }
}
