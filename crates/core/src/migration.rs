//! Instance migration onto a new version of its process type.
//!
//! A type version is made by a change transaction begun on the newest
//! deployment ([`crate::ChangeTxn::begin`]) and verified once when it
//! commits ([`crate::ChangeTxn::commit_schema`]); the repository that
//! holds the versions keeps each one's deployment and the delta `ΔT` that
//! made it, and nothing else.
//!
//! [`migrate_instance`] decides the fate of a single running instance
//! (paper Fig. 1 and Fig. 3):
//!
//! 1. **structural check** — for biased instances the bias is transplanted
//!    onto a private copy of the new version, in place
//!    ([`crate::replay_bias`]; the copy is dropped if an op does not
//!    re-apply), its block structure derived from the new version's by the
//!    replayed ops, and the result is re-verified — always, and once,
//!    where the replayed bias touched the new version (which passed the
//!    whole pass when it was evolved; see `adept_verify::scope`): the hop
//!    is judged and adapted on the derived blocks;
//!    failures (e.g. the deadlock-causing cycle of instance I2) are
//!    *structural conflicts*;
//! 2. **state compliance** — the per-operation conditions
//!    ([`crate::compliance::check_fast`]) or the trace criterion
//!    ([`crate::compliance::check_trace`]) decide whether the instance's
//!    history could have been produced on the new schema; failures are
//!    *state-related conflicts* (instance I3);
//! 3. **state adaptation** — compliant instances get their marking
//!    migrated ([`crate::adapt`]) and continue on the new version;
//!    non-compliant instances remain on the old one.

use crate::adapt::adapt_instance_state;
use crate::apply::replay_bias;
use crate::compliance::{check_fast, check_trace, Conflict, ConflictKind, Verdict};
use crate::delta::Delta;
use adept_model::{Blocks, InstanceId, ProcessSchema};
use adept_state::{Execution, InstanceState};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Options controlling a migration run.
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrationOptions {
    /// Use the trace-replay criterion instead of the fast per-operation
    /// conditions (slower; useful for audits and as an oracle).
    pub use_trace_criterion: bool,
}

/// The result of migrating one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationResult {
    /// The verdict (compliant / which conflict).
    pub verdict: Verdict,
    /// For compliant instances: the adapted runtime state on the target
    /// schema.
    pub adapted: Option<InstanceState>,
    /// For compliant *biased* instances: the analysed instance-specific
    /// target (new version + re-applied bias), the one the hop was judged
    /// and adapted on — whoever installs the hop installs it as it is.
    /// Unbiased instances run directly on the shared new version.
    pub materialized: Option<Execution>,
}

impl MigrationResult {
    fn conflict(kind: ConflictKind, reason: impl Into<String>) -> Self {
        Self {
            verdict: Verdict::NotCompliant(Conflict {
                kind,
                reason: reason.into(),
            }),
            adapted: None,
            materialized: None,
        }
    }
}

/// Migrates one instance from its current schema to a new type version.
///
/// * `current_schema`/`current_blocks` — what the instance currently runs
///   on (the base version for unbiased instances, the materialised
///   bias-overlaid schema for biased ones);
/// * `new_base` — the new type version `S'`, analysed and compiled (its
///   deployment): an unbiased instance is judged and adapted on exactly
///   this, so a hop analyses and compiles nothing; a biased one builds its
///   materialised target once;
/// * `delta_t` — the type change `ΔT` that produced `new_base`;
/// * `bias` — the instance's ad-hoc changes (empty for unbiased instances);
/// * `st` — the instance's runtime state, moved in: the compliance checks
///   borrow it, and a compliant hop adapts it in place and hands it back
///   as [`MigrationResult::adapted`] — a hop copies no state. A refused
///   hop drops it; the caller's stored state is untouched.
pub fn migrate_instance(
    current_schema: &ProcessSchema,
    current_blocks: &Blocks,
    new_base: &Execution,
    delta_t: &Delta,
    bias: &Delta,
    st: InstanceState,
    options: &MigrationOptions,
) -> MigrationResult {
    // Step 1: structural conflict detection for biased instances: the bias
    // must re-apply on the new version and the result must verify.
    let materialized = if bias.is_empty() {
        None
    } else {
        let (target, blocks, scope) = match replay_bias(new_base, bias) {
            Ok(replayed) => replayed,
            Err((op, e)) => {
                return MigrationResult::conflict(
                    ConflictKind::Structural,
                    format!("bias {op} cannot be re-applied on the new version: {e}"),
                )
            }
        };
        // The replay derived the target's blocks from the new version's;
        // the verdict carries them and the arena it was judged and compiled
        // on; the hop is adapted on them, and whoever installs it keeps
        // them. The new version passed the whole pass when it was evolved,
        // so the target is verified where the replayed bias touched it.
        match Execution::verify_scoped(target, blocks, &scope) {
            (_, Some(target)) => Some(target),
            (report, None) => {
                return MigrationResult::conflict(
                    ConflictKind::Structural,
                    format!(
                        "type change and instance bias conflict: {}",
                        report.error_summary()
                    ),
                )
            }
        }
    };
    let new_ex = materialized.as_ref().unwrap_or(new_base);

    // Step 2: state compliance.
    let verdict = if options.use_trace_criterion {
        check_trace(current_schema, current_blocks, new_ex, &st)
    } else {
        check_fast(current_schema, current_blocks, &st, delta_t)
    };
    if !verdict.is_compliant() {
        return MigrationResult {
            verdict,
            adapted: None,
            materialized: None,
        };
    }

    // Step 3: state adaptation.
    let mut adapted = st;
    if let Err(e) = adapt_instance_state(
        current_schema,
        current_blocks,
        new_ex,
        delta_t,
        &mut adapted,
    ) {
        return MigrationResult::conflict(
            ConflictKind::State,
            format!("state adaptation failed: {e}"),
        );
    }
    MigrationResult {
        verdict: Verdict::Compliant,
        adapted: Some(adapted),
        materialized,
    }
}

/// Per-instance entry of a [`MigrationReport`] (paper Fig. 3's instance
/// list: which instances migrated, which stayed, and why).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceOutcome {
    /// The instance.
    pub instance: InstanceId,
    /// Whether the instance carried ad-hoc changes.
    pub biased: bool,
    /// The verdict.
    pub verdict: Verdict,
}

/// The migration report shown to the user after committing a type change
/// (paper Fig. 3).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MigrationReport {
    /// Process type name.
    pub type_name: String,
    /// Source version.
    pub from_version: u32,
    /// Target version.
    pub to_version: u32,
    /// Per-instance outcomes, in instance id order.
    pub outcomes: Vec<InstanceOutcome>,
}

impl MigrationReport {
    /// Records one outcome.
    pub fn push(&mut self, outcome: InstanceOutcome) {
        self.outcomes.push(outcome);
    }

    /// Number of migrated (compliant) instances.
    pub fn migrated(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.verdict.is_compliant())
            .count()
    }

    /// Number of instances with the given conflict kind.
    pub fn conflicts(&self, kind: ConflictKind) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(&o.verdict, Verdict::NotCompliant(c) if c.kind == kind))
            .count()
    }

    /// Number of instances that disappeared mid-migration (cancelled or
    /// archived concurrently). These are not failures of the change —
    /// there was nothing left to migrate — so they are reported separately
    /// from the paper's conflict taxonomy.
    pub fn vanished(&self) -> usize {
        self.conflicts(ConflictKind::Vanished)
    }

    /// Number of real migration conflicts: outcomes that are neither
    /// compliant nor merely [`ConflictKind::Vanished`].
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(
                |o| matches!(&o.verdict, Verdict::NotCompliant(c) if c.kind != ConflictKind::Vanished),
            )
            .count()
    }

    /// Total instances checked.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }
}

impl fmt::Display for MigrationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "migration report: \"{}\" V{} -> V{}",
            self.type_name, self.from_version, self.to_version
        )?;
        write!(
            f,
            "  {} of {} instances migrated ({} state conflicts, {} structural conflicts, {} semantical conflicts",
            self.migrated(),
            self.total(),
            self.conflicts(ConflictKind::State),
            self.conflicts(ConflictKind::Structural),
            self.conflicts(ConflictKind::Semantic),
        )?;
        if self.vanished() > 0 {
            write!(f, ", {} vanished", self.vanished())?;
        }
        if self.conflicts(ConflictKind::Internal) > 0 {
            write!(
                f,
                ", {} internal failures",
                self.conflicts(ConflictKind::Internal)
            )?;
        }
        writeln!(f, ")")?;
        for o in &self.outcomes {
            let bias = if o.biased { " (ad-hoc modified)" } else { "" };
            match &o.verdict {
                Verdict::Compliant => writeln!(
                    f,
                    "  {}{}: migrated to V{}",
                    o.instance, bias, self.to_version
                )?,
                Verdict::NotCompliant(c) => writeln!(
                    f,
                    "  {}{}: stays on V{} — {}",
                    o.instance, bias, self.from_version, c
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_op;
    use crate::ops::{ChangeOp, NewActivity};
    use crate::txn::ChangeTxn;
    use adept_model::{NodeId, SchemaBuilder};
    use adept_state::DefaultDriver;
    use std::sync::Arc;

    fn order() -> Execution {
        let mut b = SchemaBuilder::new("online order");
        b.activity("get order");
        b.activity("collect data");
        b.and_split();
        b.branch();
        b.activity("confirm order");
        b.branch();
        b.activity("compose order");
        b.activity("pack goods");
        b.and_join();
        b.activity("deliver goods");
        Execution::new(b.build().unwrap()).unwrap()
    }

    /// The next version of `base` and its `ΔT`, made the way a type
    /// evolves: `ops` staged as one transaction on the deployment and
    /// verified once.
    fn evolve(base: &Execution, ops: &[ChangeOp]) -> (Execution, Delta) {
        let mut txn = ChangeTxn::begin(base);
        for op in ops {
            txn.stage(op).unwrap();
        }
        let done = txn.commit_schema().map_err(|(_, e)| e).unwrap();
        (done.target, done.delta)
    }

    fn node(s: &ProcessSchema, name: &str) -> NodeId {
        s.node_by_name(name).unwrap().id
    }

    fn fig1_ops(s: &ProcessSchema) -> Vec<ChangeOp> {
        vec![ChangeOp::SerialInsert {
            activity: NewActivity::named("send questions"),
            pred: node(s, "compose order"),
            succ: node(s, "pack goods"),
        }]
    }

    #[test]
    fn type_evolution_creates_versions() {
        let v1 = order();
        let (v2, delta) = evolve(&v1, &fig1_ops(&v1.schema));
        assert_eq!((v1.schema.version, v2.schema.version), (1, 2));
        assert_eq!(delta.len(), 1);
        assert_eq!(delta.ops[0].added_nodes.len(), 1);
        assert!(v2.schema.node_by_name("send questions").is_some());
        assert!(v1.schema.node_by_name("send questions").is_none());
        assert_eq!(v2.schema.id, v1.schema.id, "a version keeps its type's id");
    }

    #[test]
    fn unbiased_instance_migrates_and_state_adapts() {
        let ex1 = order();
        let mut st = ex1.init().unwrap();
        ex1.run(&mut st, &mut DefaultDriver, Some(2)).unwrap();

        let (ex2, delta) = evolve(&ex1, &fig1_ops(&ex1.schema));
        let res = migrate_instance(
            &ex1.schema,
            &ex1.blocks,
            &ex2,
            &delta,
            &Delta::new(),
            st,
            &MigrationOptions::default(),
        );
        assert!(res.verdict.is_compliant(), "{}", res.verdict);
        assert!(res.adapted.is_some());
        assert!(res.materialized.is_none(), "unbiased: shared schema");

        // The adapted instance can run to completion on the new version,
        // executing the inserted activity.
        let mut st2 = res.adapted.unwrap();
        ex2.run(&mut st2, &mut DefaultDriver, None).unwrap();
        assert!(ex2.is_finished(&st2));
        let sq = node(&ex2.schema, "send questions");
        assert_eq!(st2.marking.node(sq), adept_state::NodeState::Completed);
    }

    /// The target handle is the whole truth about the new version: an
    /// unbiased hop judges and adapts on exactly the parts it was handed
    /// and derives nothing from the schema again. Pinned by handing over
    /// honest parts next to a schema whose own analysis would fail.
    #[test]
    fn unbiased_hop_runs_on_the_prebuilt_target_without_reanalysis() {
        let ex1 = order();
        let mut st = ex1.init().unwrap();
        ex1.run(&mut st, &mut DefaultDriver, Some(2)).unwrap();
        let (honest, delta) = evolve(&ex1, &fig1_ops(&ex1.schema));

        let mut unanalysable = ProcessSchema::clone(&honest.schema);
        unanalysable
            .add_control_edge(
                node(&unanalysable, "deliver goods"),
                node(&unanalysable, "get order"),
            )
            .unwrap();
        assert!(Execution::new(&unanalysable).is_err(), "cyclic backbone");
        let prebuilt = Execution {
            schema: Arc::new(unanalysable),
            ..honest.clone()
        };

        for trace in [false, true] {
            let options = MigrationOptions {
                use_trace_criterion: trace,
            };
            let migrate = |target: &Execution| {
                migrate_instance(
                    &ex1.schema,
                    &ex1.blocks,
                    target,
                    &delta,
                    &Delta::new(),
                    st.clone(),
                    &options,
                )
            };
            let res = migrate(&prebuilt);
            assert!(res.verdict.is_compliant(), "{}", res.verdict);
            assert_eq!(res, migrate(&honest));
        }
    }

    #[test]
    fn too_advanced_instance_gets_state_conflict() {
        let ex1 = order();
        let mut st = ex1.init().unwrap();
        ex1.run(&mut st, &mut DefaultDriver, None).unwrap(); // run to end

        let (ex2, delta) = evolve(&ex1, &fig1_ops(&ex1.schema));
        let res = migrate_instance(
            &ex1.schema,
            &ex1.blocks,
            &ex2,
            &delta,
            &Delta::new(),
            st,
            &MigrationOptions::default(),
        );
        match &res.verdict {
            Verdict::NotCompliant(c) => assert_eq!(c.kind, ConflictKind::State),
            v => panic!("expected state conflict, got {v}"),
        }
    }

    #[test]
    fn biased_instance_with_cycle_gets_structural_conflict() {
        // Reproduces Fig. 1/I2: instance bias sync(confirm -> compose),
        // type change inserts "send questions" + sync(send questions ->
        // confirm order): combined, the wait-for cycle confirm -> compose
        // -> send questions -> confirm arises -> structural conflict.
        let ex1 = order();

        // Ad-hoc change on the instance's private copy.
        let mut inst_schema = ProcessSchema::clone(&ex1.schema);
        inst_schema.reserve_private_id_space();
        let confirm_i = node(&inst_schema, "confirm order");
        let compose_i = node(&inst_schema, "compose order");
        let mut bias = Delta::new();
        bias.push(
            apply_op(
                &mut inst_schema,
                &ChangeOp::InsertSyncEdge {
                    from: confirm_i,
                    to: compose_i,
                },
            )
            .unwrap(),
        );
        let ex_inst = Execution::new(&inst_schema).unwrap();
        let mut st = ex_inst.init().unwrap();
        ex_inst.run(&mut st, &mut DefaultDriver, Some(2)).unwrap();

        // Type change: insert + opposing sync edge.
        let confirm = node(&ex1.schema, "confirm order");
        let (ex2, delta) = evolve(&ex1, &fig1_ops(&ex1.schema));
        let sq = node(&ex2.schema, "send questions");
        let (ex3, delta2) = evolve(
            &ex2,
            &[ChangeOp::InsertSyncEdge {
                from: sq,
                to: confirm,
            }],
        );
        // Combined ΔT (two evolution steps flattened for the check).
        let mut full_delta = delta.clone();
        for r in &delta2.ops {
            full_delta.push(r.clone());
        }

        let res = migrate_instance(
            &inst_schema,
            &ex_inst.blocks,
            &ex3,
            &full_delta,
            &bias,
            st,
            &MigrationOptions::default(),
        );
        match &res.verdict {
            Verdict::NotCompliant(c) => {
                assert_eq!(c.kind, ConflictKind::Structural, "{c}");
                assert!(
                    c.reason.contains("deadlock") || c.reason.contains("conflict"),
                    "{c}"
                );
            }
            v => panic!("expected structural conflict, got {v}"),
        }
    }

    #[test]
    fn biased_instance_with_disjoint_bias_migrates() {
        let ex1 = order();

        // Bias: ad-hoc insert right after start (disjoint from ΔT).
        let mut inst_schema = ProcessSchema::clone(&ex1.schema);
        inst_schema.reserve_private_id_space();
        let get = node(&inst_schema, "get order");
        let collect = node(&inst_schema, "collect data");
        let mut bias = Delta::new();
        bias.push(
            apply_op(
                &mut inst_schema,
                &ChangeOp::SerialInsert {
                    activity: NewActivity::named("check customer"),
                    pred: get,
                    succ: collect,
                },
            )
            .unwrap(),
        );
        let ex_inst = Execution::new(&inst_schema).unwrap();
        let mut st = ex_inst.init().unwrap();
        ex_inst.run(&mut st, &mut DefaultDriver, Some(1)).unwrap();

        let (ex2, delta) = evolve(&ex1, &fig1_ops(&ex1.schema));
        assert!(bias.disjoint_from(&delta));

        let res = migrate_instance(
            &inst_schema,
            &ex_inst.blocks,
            &ex2,
            &delta,
            &bias,
            st,
            &MigrationOptions::default(),
        );
        assert!(res.verdict.is_compliant(), "{}", res.verdict);
        let target = res.materialized.expect("biased instances materialise");
        assert!(target.schema.node_by_name("check customer").is_some());
        assert!(target.schema.node_by_name("send questions").is_some());

        // The migrated instance finishes on the materialised schema, on
        // the parts the hop hands over.
        let ex2 = target;
        let mut st2 = res.adapted.unwrap();
        ex2.run(&mut st2, &mut DefaultDriver, None).unwrap();
        assert!(ex2.is_finished(&st2));
    }

    #[test]
    fn report_formats_like_fig3() {
        let mut report = MigrationReport {
            type_name: "online order".into(),
            from_version: 1,
            to_version: 2,
            outcomes: vec![],
        };
        report.push(InstanceOutcome {
            instance: InstanceId(1),
            biased: false,
            verdict: Verdict::Compliant,
        });
        report.push(InstanceOutcome {
            instance: InstanceId(2),
            biased: true,
            verdict: Verdict::conflict(ConflictKind::Structural, "deadlock-causing cycle"),
        });
        report.push(InstanceOutcome {
            instance: InstanceId(3),
            biased: false,
            verdict: Verdict::conflict(ConflictKind::State, "successor already completed"),
        });
        assert_eq!(report.migrated(), 1);
        assert_eq!(report.conflicts(ConflictKind::Structural), 1);
        assert_eq!(report.conflicts(ConflictKind::State), 1);
        assert_eq!(report.failed(), 2);
        let text = report.to_string();
        assert!(text.contains("V1 -> V2"));
        assert!(text.contains("I1: migrated to V2"));
        assert!(text.contains("I2 (ad-hoc modified): stays on V1"));
        assert!(text.contains("I3: stays on V1"));
        assert!(
            !text.contains("vanished") && !text.contains("internal"),
            "engine-level outcome kinds only appear when present: {text}"
        );
    }

    #[test]
    fn vanished_instances_are_not_structural_failures() {
        let mut report = MigrationReport {
            type_name: "online order".into(),
            from_version: 1,
            to_version: 2,
            outcomes: vec![],
        };
        report.push(InstanceOutcome {
            instance: InstanceId(1),
            biased: false,
            verdict: Verdict::Compliant,
        });
        report.push(InstanceOutcome {
            instance: InstanceId(2),
            biased: false,
            verdict: Verdict::conflict(
                ConflictKind::Vanished,
                "instance disappeared during migration",
            ),
        });
        report.push(InstanceOutcome {
            instance: InstanceId(3),
            biased: false,
            verdict: Verdict::conflict(ConflictKind::Internal, "migration worker panicked"),
        });
        assert_eq!(report.migrated(), 1);
        assert_eq!(report.vanished(), 1);
        assert_eq!(report.conflicts(ConflictKind::Internal), 1);
        assert_eq!(
            report.conflicts(ConflictKind::Structural),
            0,
            "not structural"
        );
        assert_eq!(report.failed(), 1, "vanished is not a failure, a panic is");
        let text = report.to_string();
        assert!(text.contains("1 vanished"), "{text}");
        assert!(text.contains("1 internal failures"), "{text}");
    }
}
