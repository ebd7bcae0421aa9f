//! Seeded inputs of the four workloads.
//!
//! The seed drives the drivers, how far each instance runs, which instances
//! are changed, failed or removed, and the ad-hoc operations proposed. The
//! schemas are part of a workload's definition and do not vary with the
//! seed: the driver compares runs of different seeds with each other, so a
//! metric must not depend on which schema a seed happened to draw.

use adept_core::ChangeOp;
use adept_model::{DataId, NodeId, ProcessSchema, ValueType};
use adept_simgen::changegen::propose;
use adept_simgen::scenarios::{clinical_pathway, fig1_delta_ops, fig1_i2_bias_op, order_process};
use adept_simgen::{exception_schema, generate_schema, ExceptionParams, GenParams, ALL_OP_KINDS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Lifecycle,
    ChangeHeavy,
    InteractiveMixed,
    Recovery,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::Lifecycle,
    Workload::ChangeHeavy,
    Workload::InteractiveMixed,
    Workload::Recovery,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lifecycle => "lifecycle",
            Workload::ChangeHeavy => "change_heavy",
            Workload::InteractiveMixed => "interactive_mixed",
            Workload::Recovery => "recovery",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of one workload at full scale; `--quick` divides them by 20.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Instances of the main population.
    pub population: usize,
    /// `interactive_mixed`: activity steps the worker performs.
    pub steps: usize,
    /// Fresh instances the probe phases work on (a phase the workload does
    /// not run natively is measured on these, after the main section).
    pub probe_changes: usize,
    pub probe_failures: usize,
    pub probe_polls: usize,
}

impl Sizes {
    pub fn of(workload: Workload, quick: bool) -> Self {
        // Sized by the calls that cannot be interrupted for a host-speed
        // chunk (`calib`) — `migrate_all`, the snapshot codec, recovery: at
        // these populations each stays well under 0.1 s, so the chunks around
        // it still measure the speed it ran at. A repetition — main section,
        // probes, checkpoint, crash, restart and all checks — takes 0.5–1 s
        // on the 2-core reference host and a 30 s run holds thirty or more.
        let full = match workload {
            Workload::Lifecycle => Sizes {
                population: 2_500,
                steps: 0,
                probe_changes: 400,
                probe_failures: 200,
                probe_polls: 200,
            },
            Workload::ChangeHeavy => Sizes {
                population: 1_250,
                steps: 0,
                probe_changes: 0,
                probe_failures: 0,
                probe_polls: 200,
            },
            Workload::InteractiveMixed => Sizes {
                population: 4_000,
                steps: 24_000,
                probe_changes: 400,
                probe_failures: 200,
                probe_polls: 0,
            },
            Workload::Recovery => Sizes {
                population: 2_500,
                steps: 0,
                probe_changes: 0,
                probe_failures: 200,
                probe_polls: 200,
            },
        };
        if !quick {
            return full;
        }
        let cut = |n: usize| if n == 0 { 0 } else { (n / 20).max(8) };
        Sizes {
            population: cut(full.population),
            steps: cut(full.steps),
            probe_changes: cut(full.probe_changes),
            probe_failures: cut(full.probe_failures),
            probe_polls: cut(full.probe_polls),
        }
    }
}

/// FNV-1a over the words of the command stream: the determinism tests
/// compare it between runs, and it goes into the results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHash(pub u64);

impl Default for StreamHash {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl StreamHash {
    #[inline]
    pub fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn mix_str(&mut self, s: &str) {
        for b in s.bytes() {
            self.mix(u64::from(b));
        }
    }
}

/// One process type a workload deploys.
#[derive(Debug, Clone)]
pub struct TypePlan {
    pub schema: ProcessSchema,
    /// The type evolution the workload commits on it.
    pub evolution: Vec<ChangeOp>,
    /// Declared outputs per activity, for `Complete` commands.
    pub writes: BTreeMap<NodeId, Vec<(DataId, ValueType)>>,
    /// An insertion in front of the end node: compliant with every instance
    /// that has not finished, so probe changes always commit.
    pub tail_insert: ChangeOp,
}

/// One instance of the main population.
#[derive(Debug, Clone)]
pub struct InstancePlan {
    /// Index into [`Plan::types`].
    pub type_idx: usize,
    /// Activities the first `Drive` may complete.
    pub first_drive: usize,
    /// Seed of the instance's `RandomDriver` (generated types only).
    pub driver_seed: u64,
    /// Ad-hoc operations staged on it after the first drive (empty: none).
    pub change: Vec<ChangeOp>,
    /// Whether an activity of it is failed for the adaptation loop.
    pub fail: bool,
    /// Whether it is removed before the crash (`recovery`).
    pub remove: bool,
}

#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub sizes: Sizes,
    pub types: Vec<TypePlan>,
    pub instances: Vec<InstancePlan>,
    /// Hash of everything above that reaches the engine.
    pub input_hash: StreamHash,
}

fn type_plan(schema: ProcessSchema, evolution: Option<Vec<ChangeOp>>) -> TypePlan {
    let end = schema.end_node();
    let last = schema
        .sole_control_predecessor(end)
        .expect("a block-structured schema has one edge into its end node");
    let insert = |name: &str, pred, succ| ChangeOp::SerialInsert {
        activity: adept_core::NewActivity::named(name),
        pred,
        succ,
    };
    // The default evolution goes in front of the last node where that is a
    // plain sequence position, so that it and the ad-hoc tail insertion
    // touch different edges and a probe-changed instance still migrates.
    let default_evolution = match schema.sole_control_predecessor(last) {
        Some(before_last) if schema.sole_control_successor(before_last) == Some(last) => {
            insert("evolved step", before_last, last)
        }
        _ => insert("evolved step", last, end),
    };
    let writes = schema
        .activities()
        .map(|n| {
            let outs = schema
                .writes_of(n.id)
                .filter_map(|e| Some((e.data, schema.data_element(e.data).ok()?.ty)))
                .collect();
            (n.id, outs)
        })
        .collect();
    TypePlan {
        evolution: evolution.unwrap_or_else(|| vec![default_evolution]),
        tail_insert: insert("ad-hoc step", last, end),
        writes,
        schema,
    }
}

/// The generated types of `change_heavy`: eight `GenParams::sized(32)`
/// schemas and two exception schemas whose activities can all fail (85 % of
/// them skippable). Fixed generator seeds — see the module comment.
fn change_heavy_types() -> Vec<TypePlan> {
    let mut types: Vec<TypePlan> = (0..8)
        .map(|k| type_plan(generate_schema(&GenParams::sized(32), 100 + k), None))
        .collect();
    let params = ExceptionParams {
        base: GenParams::sized(16),
        p_flaky: 1.0,
        ..ExceptionParams::default()
    };
    for k in 0..2 {
        let mut schema = exception_schema(&params, 200 + k);
        schema.name = format!("exception-{k}");
        types.push(type_plan(schema, None));
    }
    types
}

/// Number of generated (non-exception) types in [`change_heavy_types`].
pub const CHANGE_HEAVY_PLAIN_TYPES: usize = 8;

pub fn plan(workload: Workload, seed: u64, quick: bool) -> Plan {
    let sizes = Sizes::of(workload, quick);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xade9_72b3_0000_0000 ^ workload as u64);
    let order = || {
        let schema = order_process();
        let delta = fig1_delta_ops(&schema);
        type_plan(schema, Some(delta))
    };
    let types = match workload {
        Workload::Lifecycle | Workload::Recovery => vec![order()],
        Workload::ChangeHeavy => change_heavy_types(),
        Workload::InteractiveMixed => vec![type_plan(clinical_pathway(), None)],
    };
    // The seed decides *which* instance gets which treatment (a seeded
    // permutation assigns every instance a rank) and the details (driver
    // decisions and values, anchors of the proposed operations); the *mix*
    // of treatments is a function of the rank alone, so two seeds run the
    // same amount of each kind of work and their metrics are comparable.
    let n = sizes.population;
    let mut rank: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        rank.swap(i, rng.gen_range(0..=i));
    }
    let mut instances = Vec::with_capacity(n);
    for &t in &rank {
        let mut inst = InstancePlan {
            type_idx: 0,
            first_drive: 0,
            driver_seed: rng.gen(),
            change: Vec::new(),
            fail: false,
            remove: false,
        };
        match workload {
            Workload::Lifecycle => inst.first_drive = 1 + t % 3,
            Workload::ChangeHeavy => {
                inst.first_drive = 2 + (t / 10) % 5;
                if t % 5 == 4 {
                    // Every fifth runs an exception type; its current
                    // activity is failed for the adaptation loop.
                    inst.type_idx = CHANGE_HEAVY_PLAIN_TYPES + (t / 5) % 2;
                    inst.fail = true;
                } else {
                    // The others spread evenly over the generated types;
                    // every second one of a type gets an ad-hoc change,
                    // the operation kinds taking turns.
                    let plain = t - t / 5;
                    inst.type_idx = plain % CHANGE_HEAVY_PLAIN_TYPES;
                    let turn = plain / CHANGE_HEAVY_PLAIN_TYPES;
                    if turn.is_multiple_of(2) {
                        inst.change =
                            propose_change(&types[inst.type_idx].schema, turn / 2, &mut rng);
                    }
                }
            }
            Workload::InteractiveMixed => {}
            Workload::Recovery => {
                // One in ten carries the Fig. 1 I2 bias, staged while the
                // parallel block is still untouched so that it commits;
                // one in twenty is removed before the crash.
                if t % 10 == 0 {
                    inst.first_drive = (t / 10) % 3;
                    inst.change = vec![fig1_i2_bias_op(&types[0].schema)];
                } else {
                    inst.first_drive = t % 6;
                }
                inst.remove = t % 20 == 7;
            }
        }
        instances.push(inst);
    }
    let mut input_hash = StreamHash::default();
    for t in &types {
        input_hash.mix_str(&t.schema.name);
        input_hash.mix_str(&format!("{:?}", t.evolution));
    }
    for inst in &instances {
        input_hash.mix(inst.type_idx as u64);
        input_hash.mix(inst.first_drive as u64);
        input_hash.mix(inst.driver_seed);
        input_hash.mix_str(&format!("{:?}", inst.change));
        input_hash.mix(u64::from(inst.fail) | u64::from(inst.remove) << 1);
    }
    Plan {
        workload,
        seed,
        sizes,
        types,
        instances,
        input_hash,
    }
}

/// One proposed ad-hoc operation at a seeded anchor: of the kind whose turn
/// it is, or of the next kind the generator finds an anchor for (empty when
/// it finds none). Whether it stages and commits is the engine's answer;
/// refusals are expected and counted, not failures.
fn propose_change(schema: &ProcessSchema, turn: usize, rng: &mut SmallRng) -> Vec<ChangeOp> {
    (0..ALL_OP_KINDS.len())
        .find_map(|k| {
            propose(
                schema,
                ALL_OP_KINDS[(turn + k) % ALL_OP_KINDS.len()],
                rng,
                "adhoc",
            )
        })
        .map_or_else(Vec::new, |op| vec![op])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in WORKLOADS {
            let a = plan(w, 7, true);
            let b = plan(w, 7, true);
            let c = plan(w, 8, true);
            assert_eq!(a.input_hash, b.input_hash, "{}", w.name());
            assert_ne!(a.input_hash, c.input_hash, "{}", w.name());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in WORKLOADS {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn quick_sizes_are_a_twentieth() {
        let full = Sizes::of(Workload::Lifecycle, false);
        let quick = Sizes::of(Workload::Lifecycle, true);
        assert_eq!(quick.population * 20, full.population);
        assert_eq!(Sizes::of(Workload::ChangeHeavy, true).probe_changes, 0);
    }
}
