//! Process type evolution and instance migration.
//!
//! [`ProcessType`] manages the version chain of one process type: evolving
//! it applies a delta to the newest version and appends the verified result
//! as a new [`adept_model::ProcessSchema`] (schema evolution).
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
use crate::apply::{apply_op, replay_bias};
use crate::compliance::{check_fast, check_trace, Conflict, ConflictKind, Verdict};
use crate::delta::Delta;
use crate::error::ChangeError;
use crate::ops::ChangeOp;
use adept_model::{Blocks, InstanceId, ProcessSchema};
use adept_state::{Execution, InstanceState};
use adept_verify::Scope;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A process type: a name plus its chain of schema versions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessType {
    /// Type name, e.g. `"online order"`.
    pub name: String,
    /// All versions, oldest first. `versions[i].version == i + 1`.
    pub versions: Vec<ProcessSchema>,
    /// The deltas between consecutive versions (`deltas[i]` transforms
    /// version `i+1` into version `i+2`).
    pub deltas: Vec<Delta>,
}

impl ProcessType {
    /// Creates a type from its initial schema (version 1), and hands back
    /// beside it version 1 as the verifier analysed and compiled it — its
    /// deployment. The schema must pass verification.
    pub fn new(mut base: ProcessSchema) -> Result<(Self, Execution), ChangeError> {
        base.version = 1;
        let deployed = match Execution::verify(base) {
            (_, Some(deployed)) => deployed,
            (report, None) => {
                let summary = report.error_summary();
                return Err(ChangeError::PostconditionViolated(summary));
            }
        };
        let pt = Self {
            name: deployed.schema.name.clone(),
            versions: vec![ProcessSchema::clone(&deployed.schema)],
            deltas: Vec::new(),
        };
        Ok((pt, deployed))
    }

    /// The newest schema version.
    pub fn latest(&self) -> &ProcessSchema {
        self.versions.last().expect("at least one version")
    }

    /// A specific version (1-based), if it exists.
    pub fn version(&self, v: u32) -> Option<&ProcessSchema> {
        self.versions.get((v as usize).checked_sub(1)?)
    }

    /// Number of versions.
    pub fn version_count(&self) -> u32 {
        self.versions.len() as u32
    }

    /// Evolves the type: applies `ops` to the newest version and appends
    /// the result as a new version. Returns the new version number and the
    /// recorded delta. Type-level changes must stay below the private id
    /// space (which is reserved for instance-level ad-hoc changes).
    pub fn evolve(&mut self, ops: &[ChangeOp]) -> Result<(u32, Delta), ChangeError> {
        let mut schema = self.latest().clone();
        let mut delta = Delta::new();
        for op in ops {
            delta.push(apply_op(&mut schema, op)?);
        }
        if !schema.ids_below_private_space() {
            return Err(ChangeError::Precondition(
                "type evolution exhausted the public id space".into(),
            ));
        }
        schema.version += 1;
        let v = schema.version;
        self.versions.push(schema);
        self.deltas.push(delta.clone());
        Ok((v, delta))
    }

    /// The delta transforming `from` into `from + 1`, if recorded.
    pub fn delta_between(&self, from: u32) -> Option<&Delta> {
        self.deltas.get((from as usize).checked_sub(1)?)
    }

    /// Appends an **already-verified** schema as the next version, with
    /// the delta that produced it. This is the change-transaction commit
    /// path: the transaction ran the single verification pass over its
    /// final overlay, so re-applying (and re-verifying) each operation
    /// here would defeat the amortisation. The caller asserts that
    /// `schema` is `latest() + delta`; the id-space invariant of
    /// [`ProcessType::evolve`] is still enforced.
    pub fn push_prepared(
        &mut self,
        mut schema: ProcessSchema,
        delta: Delta,
    ) -> Result<u32, ChangeError> {
        if !schema.ids_below_private_space() {
            return Err(ChangeError::Precondition(
                "type evolution exhausted the public id space".into(),
            ));
        }
        schema.version = self.latest().version + 1;
        let v = schema.version;
        self.versions.push(schema);
        self.deltas.push(delta);
        Ok(v)
    }

    /// Reverses the most recent [`ProcessType::push_prepared`], restoring
    /// the version chain to its prior state. Install paths that cannot
    /// go through with a pushed version (its journal record could not be
    /// written) use this so the `versions`/`deltas` pairing stays owned by
    /// this type. A no-op on version 1 — the base version is never popped.
    pub fn pop_prepared(&mut self) {
        if self.versions.len() > 1 {
            self.versions.pop();
            self.deltas.pop();
        }
    }
}

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
        let mut scope = Scope::default();
        let (target, blocks) = match replay_bias(new_base, bias, Some(&mut scope)) {
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
        match Execution::verify_scoped(target, Some(blocks), &scope) {
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
    use crate::ops::NewActivity;
    use adept_model::{NodeId, SchemaBuilder};
    use adept_state::DefaultDriver;
    use std::sync::Arc;

    fn order() -> ProcessSchema {
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
        b.build().unwrap()
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
        let mut pt = ProcessType::new(order()).unwrap().0;
        assert_eq!(pt.version_count(), 1);
        let ops = fig1_ops(pt.latest());
        let (v, delta) = pt.evolve(&ops).unwrap();
        assert_eq!(v, 2);
        assert_eq!(pt.version_count(), 2);
        assert_eq!(delta.len(), 1);
        assert_eq!(pt.latest().version, 2);
        assert!(pt.version(1).is_some());
        assert!(pt.version(3).is_none());
        assert_eq!(pt.delta_between(1), Some(&delta));
    }

    #[test]
    fn unbiased_instance_migrates_and_state_adapts() {
        let mut pt = ProcessType::new(order()).unwrap().0;
        let v1 = pt.version(1).unwrap().clone();
        let ex1 = Execution::new(&v1).unwrap();
        let mut st = ex1.init().unwrap();
        ex1.run(&mut st, &mut DefaultDriver, Some(2)).unwrap();

        let ops = fig1_ops(pt.latest());
        let (_, delta) = pt.evolve(&ops).unwrap();
        let res = migrate_instance(
            &v1,
            &ex1.blocks,
            &Execution::new(pt.latest()).unwrap(),
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
        let ex2 = Execution::new(pt.latest()).unwrap();
        let mut st2 = res.adapted.unwrap();
        ex2.run(&mut st2, &mut DefaultDriver, None).unwrap();
        assert!(ex2.is_finished(&st2));
        let sq = pt.latest().node_by_name("send questions").unwrap().id;
        assert_eq!(st2.marking.node(sq), adept_state::NodeState::Completed);
    }

    /// The target handle is the whole truth about the new version: an
    /// unbiased hop judges and adapts on exactly the parts it was handed
    /// and derives nothing from the schema again. Pinned by handing over
    /// honest parts next to a schema whose own analysis would fail.
    #[test]
    fn unbiased_hop_runs_on_the_prebuilt_target_without_reanalysis() {
        let mut pt = ProcessType::new(order()).unwrap().0;
        let v1 = pt.version(1).unwrap().clone();
        let ex1 = Execution::new(&v1).unwrap();
        let mut st = ex1.init().unwrap();
        ex1.run(&mut st, &mut DefaultDriver, Some(2)).unwrap();
        let ops = fig1_ops(pt.latest());
        let (_, delta) = pt.evolve(&ops).unwrap();
        let honest = Execution::new(pt.latest()).unwrap();

        let mut unanalysable = pt.latest().clone();
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
                    &v1,
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
        let mut pt = ProcessType::new(order()).unwrap().0;
        let v1 = pt.version(1).unwrap().clone();
        let ex1 = Execution::new(&v1).unwrap();
        let mut st = ex1.init().unwrap();
        ex1.run(&mut st, &mut DefaultDriver, None).unwrap(); // run to end

        let ops = fig1_ops(pt.latest());
        let (_, delta) = pt.evolve(&ops).unwrap();
        let res = migrate_instance(
            &v1,
            &ex1.blocks,
            &Execution::new(pt.latest()).unwrap(),
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
        let mut pt = ProcessType::new(order()).unwrap().0;
        let v1 = pt.version(1).unwrap().clone();

        // Ad-hoc change on the instance's private copy.
        let mut inst_schema = v1.clone();
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
        let compose = node(pt.latest(), "compose order");
        let pack = node(pt.latest(), "pack goods");
        let confirm = node(pt.latest(), "confirm order");
        let (_, delta) = pt
            .evolve(&[ChangeOp::SerialInsert {
                activity: NewActivity::named("send questions"),
                pred: compose,
                succ: pack,
            }])
            .unwrap();
        let sq = pt.latest().node_by_name("send questions").unwrap().id;
        let mut pt2 = pt.clone();
        let (_, delta2) = pt2
            .evolve(&[ChangeOp::InsertSyncEdge {
                from: sq,
                to: confirm,
            }])
            .unwrap();
        // Combined ΔT (two evolution steps flattened for the check).
        let mut full_delta = delta.clone();
        for r in &delta2.ops {
            full_delta.push(r.clone());
        }

        let res = migrate_instance(
            &inst_schema,
            &ex_inst.blocks,
            &Execution::new(pt2.latest()).unwrap(),
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
        let mut pt = ProcessType::new(order()).unwrap().0;
        let v1 = pt.version(1).unwrap().clone();

        // Bias: ad-hoc insert right after start (disjoint from ΔT).
        let mut inst_schema = v1.clone();
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

        let ops = fig1_ops(pt.latest());
        let (_, delta) = pt.evolve(&ops).unwrap();
        assert!(bias.disjoint_from(&delta));

        let res = migrate_instance(
            &inst_schema,
            &ex_inst.blocks,
            &Execution::new(pt.latest()).unwrap(),
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
