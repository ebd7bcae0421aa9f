//! The schema repository: process types and their version chains.

use crate::ordered::{classes, OrderedRwLock};
use adept_core::{ChangeError, ChangeOp, ChangeTxn, Delta, ProcessType};
use adept_model::blocks::BlockError;
use adept_model::{Blocks, CompiledSchema, EdgeKind, NodeId, NodeKind, ProcessSchema, SchemaId};
use adept_state::{CompiledExecution, Execution, InstanceState, NodeState};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// An analysed schema: the schema, its block structure and the arena
/// compiled from the two — **the execution context** of every instance
/// that runs on it. The repository holds one per deployed version, shared
/// by every unbiased instance of that version (the redundant-free side of
/// paper Fig. 2); a biased instance carries its own in
/// [`crate::StoredInstance::context`], resolved through
/// [`crate::InstanceStore::with_context`].
#[derive(Debug, Clone)]
pub struct DeployedSchema {
    /// The schema.
    pub schema: Arc<ProcessSchema>,
    /// Its block structure.
    pub blocks: Arc<Blocks>,
    /// The arena the engine executes on, compiled from exactly `schema`
    /// and `blocks`.
    pub compiled: Arc<CompiledSchema>,
    /// Whether the activation fixpoint is total on this schema (no guarded
    /// XOR split without an else branch, no loop end without a usable
    /// continuation) — when it is, completions and decisions cannot fail
    /// after their up-front validation, so the command path skips the
    /// defensive state snapshot entirely.
    pub propagate_is_total: bool,
    /// What a work item of an instance on this schema is rendered from.
    pub names: Arc<Names>,
}

/// The **names table** of an analysed schema: its process type and, per
/// activity, the name and role to offer it under — the strings of every
/// work item of every instance running on it, shared (`Arc<str>`) rather
/// than copied per item. Built once with the context, it outlives the
/// schema wherever something keeps a handle to it: a change stamp says what
/// an instance offers as slots of this table
/// ([`crate::InstanceStore::scan`]), and so holds on to no schema.
///
/// Aligned so that the payload starts on a cache line of its own, off the
/// one the handle's reference counts live on: commands clone and drop
/// handles on their cores while a poller reads labels on its own.
#[derive(Debug)]
#[repr(align(128))]
pub struct Names {
    type_name: Arc<str>,
    /// One label per activity, in node-id order; a label's index is its
    /// **slot**.
    labels: Box<[Label]>,
}

/// One activity of a [`Names`] table.
#[derive(Debug)]
pub struct Label {
    /// The activity node.
    pub node: NodeId,
    /// Its name.
    pub name: Arc<str>,
    /// Its staff assignment rule (role), if any.
    pub role: Option<Arc<str>>,
}

impl Names {
    fn of(schema: &ProcessSchema) -> Self {
        // Activities that share a role share its string.
        let mut roles: BTreeMap<&str, Arc<str>> = BTreeMap::new();
        let labels = schema.activities().map(|n| Label {
            node: n.id,
            name: n.name.as_str().into(),
            role: n.attrs.role.as_deref().map(|role| {
                let shared = roles.entry(role).or_insert_with(|| role.into());
                shared.clone()
            }),
        });
        Names {
            type_name: schema.name.as_str().into(),
            labels: labels.collect(),
        }
    }

    /// The process type.
    pub fn type_name(&self) -> &Arc<str> {
        &self.type_name
    }

    /// The label in `slot`.
    pub fn label(&self, slot: u32) -> Option<&Label> {
        self.labels.get(slot as usize)
    }

    /// The slot of an activity of this schema.
    pub fn slot_of(&self, node: NodeId) -> Option<u32> {
        let at = self.labels.binary_search_by_key(&node, |l| l.node).ok()?;
        u32::try_from(at).ok()
    }

    /// The slots of the activities `state` enables, in node-id order.
    pub fn enabled<'a>(&'a self, state: &'a InstanceState) -> impl Iterator<Item = u32> + 'a {
        let activated = state.marking.nodes_in(NodeState::Activated);
        activated.filter_map(|n| self.slot_of(n))
    }
}

impl DeployedSchema {
    /// Analyses and compiles `schema` (through the one builder,
    /// [`Execution::new`]).
    pub fn new(schema: ProcessSchema) -> Result<Self, BlockError> {
        let Execution { blocks, arena, .. } = Execution::new(&schema)?;
        Ok(Self::from_parts(schema, blocks, arena))
    }

    /// Takes over the parts of an [`Execution`] its caller already built
    /// over `schema` — a commit or migration hop that ran compliance and
    /// state adaptation on them hands them to the install instead of
    /// dropping them. Nothing is analysed or compiled.
    pub fn from_parts(
        schema: ProcessSchema,
        blocks: Arc<Blocks>,
        compiled: Arc<CompiledSchema>,
    ) -> Self {
        Self {
            propagate_is_total: propagate_is_total(&schema),
            names: Arc::new(Names::of(&schema)),
            schema: Arc::new(schema),
            blocks,
            compiled,
        }
    }

    /// The executor over this schema (zero-copy).
    pub fn exec(&self) -> CompiledExecution<'_> {
        CompiledExecution::new(&self.schema, &self.compiled)
    }
}

/// Whether the activation fixpoint cannot fail at runtime on this schema:
/// no fully guarded XOR split (all guards may evaluate false → dead end)
/// and no loop end without a loop edge / continuation condition.
fn propagate_is_total(schema: &ProcessSchema) -> bool {
    for n in schema.nodes() {
        match n.kind {
            NodeKind::XorSplit => {
                let mut guards = 0usize;
                let mut has_else = false;
                for e in schema.out_edges_kind(n.id, EdgeKind::Control) {
                    match &e.guard {
                        Some(_) => guards += 1,
                        None => has_else = true,
                    }
                }
                if guards > 0 && !has_else {
                    return false;
                }
            }
            NodeKind::LoopEnd => {
                let usable = schema
                    .out_edges_kind(n.id, EdgeKind::Loop)
                    .next()
                    .is_some_and(|e| e.loop_cond.is_some());
                if !usable {
                    return false;
                }
            }
            _ => {}
        }
    }
    true
}

/// The deployment of a version about to be installed, compiled over the
/// blocks its verification handed back.
fn analysed(schema: ProcessSchema, blocks: Blocks) -> DeployedSchema {
    let Execution { blocks, arena, .. } = Execution::with_blocks(&schema, blocks);
    DeployedSchema::from_parts(schema, blocks, arena)
}

fn unknown_type(name: &str) -> ChangeError {
    ChangeError::Precondition(format!("unknown process type {name:?}"))
}

/// A process type and the deployment of each of its versions — one value,
/// so no reader observes a type without its deployments and a redeploy
/// replaces the chain whole.
#[derive(Debug)]
struct TypeEntry {
    pt: ProcessType,
    /// `deployed[v - 1]` is version `v`.
    deployed: Vec<DeployedSchema>,
}

/// The repository of process types. Thread-safe: one table under one lock
/// (class `repo.types`; see `docs/LOCK_ORDER.md` for the class DAG) —
/// commands and migrations read deployments from many worker threads, and
/// only a deploy or an evolution writes.
#[derive(Debug)]
pub struct SchemaRepository {
    types: OrderedRwLock<BTreeMap<String, TypeEntry>>,
    next_schema_id: AtomicU32,
}

impl Default for SchemaRepository {
    fn default() -> Self {
        Self {
            types: OrderedRwLock::new(&classes::REPO_TYPES, BTreeMap::new()),
            next_schema_id: AtomicU32::new(0),
        }
    }
}

impl SchemaRepository {
    /// An empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deploys a new process type (version 1) under a freshly assigned
    /// schema id. The schema must verify.
    pub fn deploy(&self, schema: ProcessSchema) -> Result<String, ChangeError> {
        self.deploy_journaled(schema, |_| Ok(()))
    }

    /// [`SchemaRepository::deploy`] with a write-ahead journaling hook:
    /// `journal` runs after the schema has verified and analysed,
    /// **before** the deployment becomes visible. If journaling fails
    /// nothing is installed.
    pub fn deploy_journaled<E: From<ChangeError>>(
        &self,
        mut schema: ProcessSchema,
        journal: impl FnOnce(&ProcessSchema) -> Result<(), E>,
    ) -> Result<String, E> {
        schema.id = SchemaId(self.next_schema_id.fetch_add(1, Ordering::Relaxed) + 1);
        self.install_type(schema, journal)
    }

    /// Deploys a schema **keeping its embedded id** — the restore/replay
    /// path: a recovered world must end up with the exact schema ids of
    /// the pre-crash one (post-images in the WAL reference them), so the
    /// id counter advances past the recorded id instead of reassigning.
    pub fn deploy_recorded(&self, schema: ProcessSchema) -> Result<String, ChangeError> {
        self.next_schema_id
            .fetch_max(schema.id.0, Ordering::Relaxed);
        self.install_type(schema, |_| Ok(()))
    }

    /// The one deploy body: verifies the schema (its id already decided by
    /// the caller) and compiles it over the blocks the verifier analysed,
    /// journals it, then installs the type with its V1 deployment —
    /// replacing, chain and all, a type already deployed under the name.
    fn install_type<E: From<ChangeError>>(
        &self,
        schema: ProcessSchema,
        journal: impl FnOnce(&ProcessSchema) -> Result<(), E>,
    ) -> Result<String, E> {
        let name = schema.name.clone();
        let (pt, blocks) = ProcessType::new_analysed(schema)?;
        let dep = analysed(pt.latest().clone(), blocks);
        journal(&dep.schema)?;
        let deployed = vec![dep];
        let entry = TypeEntry { pt, deployed };
        self.types.write().insert(name.clone(), entry);
        Ok(name)
    }

    /// Evolves a type by applying `ops` to its newest version and returns
    /// `(new_version, delta)` — the restore/replay path, which re-derives
    /// each version from the recorded operations the way they were
    /// committed: staged as one transaction, verified once.
    pub fn evolve(&self, name: &str, ops: &[ChangeOp]) -> Result<(u32, Delta), ChangeError> {
        let (base, mut txn) = {
            let types = self.types.read();
            let pt = &types.get(name).ok_or_else(|| unknown_type(name))?.pt;
            (pt.version_count(), ChangeTxn::begin(pt.latest().clone()))
        };
        for op in ops {
            txn.stage(op)?;
        }
        let done = txn.commit_schema().map_err(|(_, e)| e)?;
        let delta = done.delta.clone();
        self.install_evolution_journaled(name, base, done.schema, done.blocks, done.delta, |_| {
            Ok(())
        })
        .map(|v| (v, delta))
    }

    /// Installs an **already-verified** evolved schema, with the blocks it
    /// was verified on, as the next version of a type (the
    /// change-transaction commit path; see
    /// [`adept_core::ProcessType::push_prepared`]) — the one evolution
    /// install. `expected_base` guards against racing evolutions: if
    /// another transaction committed first, the install is rejected and
    /// nothing changes. Returns the new version number.
    ///
    /// `journal` receives the new version number and runs after the
    /// evolution has fully validated (version pushed, arena compiled) but
    /// while the repository lock is still held — i.e. **before** any
    /// reader can observe the new version, so a write-ahead log records
    /// evolutions in their visibility order. If journaling fails, the
    /// pushed version is rolled back and nothing is installed.
    pub fn install_evolution_journaled<E: From<ChangeError>>(
        &self,
        name: &str,
        expected_base: u32,
        schema: ProcessSchema,
        blocks: Blocks,
        delta: Delta,
        journal: impl FnOnce(u32) -> Result<(), E>,
    ) -> Result<u32, E> {
        let mut types = self.types.write();
        let TypeEntry { pt, deployed } = types.get_mut(name).ok_or_else(|| unknown_type(name))?;
        if pt.version_count() != expected_base {
            return Err(ChangeError::Precondition(format!(
                "concurrent evolution: \"{name}\" is at V{}, transaction began on V{expected_base}",
                pt.version_count()
            ))
            .into());
        }
        let v = pt.push_prepared(schema, delta)?;
        let dep = analysed(pt.latest().clone(), blocks);
        if let Err(e) = journal(v) {
            pt.pop_prepared();
            return Err(e);
        }
        deployed.push(dep);
        Ok(v)
    }

    /// The deployed schema of a specific version.
    pub fn deployed(&self, name: &str, version: u32) -> Option<DeployedSchema> {
        let at = (version as usize).checked_sub(1)?;
        self.types.read().get(name)?.deployed.get(at).cloned()
    }

    /// The newest version number of a type.
    pub fn latest_version(&self, name: &str) -> Option<u32> {
        Some(self.types.read().get(name)?.pt.version_count())
    }

    /// The delta transforming `from` into `from + 1`.
    pub fn delta_between(&self, name: &str, from: u32) -> Option<Delta> {
        self.types.read().get(name)?.pt.delta_between(from).cloned()
    }

    /// A snapshot of a whole process type (for reports and tests).
    pub fn process_type(&self, name: &str) -> Option<ProcessType> {
        Some(self.types.read().get(name)?.pt.clone())
    }

    /// All deployed type names, sorted.
    pub fn type_names(&self) -> Vec<String> {
        self.types.read().keys().cloned().collect()
    }

    /// Total bytes of all deployed schema versions (Fig. 2 accounting:
    /// schemas are stored once, not per instance).
    pub fn schema_bytes(&self) -> usize {
        let types = self.types.read();
        let all = types.values().flat_map(|t| &t.deployed);
        all.map(|d| d.schema.approx_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_core::NewActivity;
    use adept_model::SchemaBuilder;

    fn schema() -> ProcessSchema {
        let mut b = SchemaBuilder::new("t");
        b.activity("a");
        b.activity("b");
        b.build().unwrap()
    }

    #[test]
    fn deploy_and_evolve() {
        let repo = SchemaRepository::new();
        let name = repo.deploy(schema()).unwrap();
        assert_eq!(repo.latest_version(&name), Some(1));
        let v1 = repo.deployed(&name, 1).unwrap();
        let a = v1.schema.node_by_name("a").unwrap().id;
        let b = v1.schema.node_by_name("b").unwrap().id;
        let (v, delta) = repo
            .evolve(
                &name,
                &[ChangeOp::SerialInsert {
                    activity: NewActivity::named("x"),
                    pred: a,
                    succ: b,
                }],
            )
            .unwrap();
        assert_eq!(v, 2);
        assert_eq!(delta.len(), 1);
        assert_eq!(repo.latest_version(&name), Some(2));
        assert!(repo
            .deployed(&name, 2)
            .unwrap()
            .schema
            .node_by_name("x")
            .is_some());
        assert!(repo.delta_between(&name, 1).is_some());
        assert_eq!(repo.type_names(), vec![name]);
        assert!(repo.schema_bytes() > 0);
    }

    #[test]
    fn every_deployment_carries_the_arena_of_its_own_schema() {
        fn assert_arena_matches(dep: &DeployedSchema) {
            assert_eq!(dep.compiled.node_count(), dep.schema.node_count());
            assert_eq!(dep.compiled.edge_count(), dep.schema.edge_count());
            for n in dep.schema.nodes() {
                let slot = dep.compiled.node_slot(n.id).expect("node interned");
                assert_eq!(dep.compiled.node_id(slot), n.id);
            }
            for e in dep.schema.edges() {
                let slot = dep.compiled.edge_slot(e.id).expect("edge interned");
                assert_eq!(dep.compiled.edge_id(slot), e.id);
            }
        }
        let repo = SchemaRepository::new();
        let name = repo.deploy(schema()).unwrap();
        let v1 = repo.deployed(&name, 1).unwrap();
        assert_arena_matches(&v1);

        // An evolution deploys the new version with its own arena and
        // leaves the old one alone.
        let a = v1.schema.node_by_name("a").unwrap().id;
        let b = v1.schema.node_by_name("b").unwrap().id;
        let op = ChangeOp::SerialInsert {
            activity: NewActivity::named("x"),
            pred: a,
            succ: b,
        };
        repo.evolve(&name, &[op]).unwrap();
        let v2 = repo.deployed(&name, 2).unwrap();
        assert_arena_matches(&v2);
        assert_eq!(v2.compiled.node_count(), v1.compiled.node_count() + 1);
        assert!(Arc::ptr_eq(
            &v1.compiled,
            &repo.deployed(&name, 1).unwrap().compiled
        ));

        // A redeploy replaces the type, chain and all: the arena handed
        // out afterwards is the new deployment's, not the outgoing one,
        // and nothing of the evolved chain is left behind.
        let mut wider = SchemaBuilder::new("t");
        wider.activity("a");
        wider.activity("b");
        wider.activity("c");
        repo.deploy(wider.build().unwrap()).unwrap();
        assert_eq!(repo.latest_version(&name), Some(1));
        assert!(repo.deployed(&name, 2).is_none());
        let redeployed = repo.deployed(&name, 1).unwrap();
        assert_arena_matches(&redeployed);
        assert!(!Arc::ptr_eq(&v1.compiled, &redeployed.compiled));
        assert_eq!(
            redeployed.compiled.node_count(),
            v1.compiled.node_count() + 1
        );
    }

    #[test]
    fn unknown_type_errors() {
        let repo = SchemaRepository::new();
        assert!(repo.evolve("nope", &[]).is_err());
        assert!(repo.deployed("nope", 1).is_none());
    }

    #[test]
    fn broken_schema_rejected_at_deploy() {
        let mut b = SchemaBuilder::new("bad");
        let d = b.data("x", adept_model::ValueType::Int);
        let r = b.activity("r");
        b.read(r, d); // never written
        let s = b.build().unwrap();
        let repo = SchemaRepository::new();
        assert!(repo.deploy(s).is_err());
    }

    #[test]
    fn type_names_are_sorted_and_schema_ids_unique() {
        let repo = SchemaRepository::new();
        let mut names = Vec::new();
        for i in 0..64 {
            let mut b = SchemaBuilder::new(format!("type-{i}"));
            b.activity("a");
            names.push(repo.deploy(b.build().unwrap()).unwrap());
        }
        names.sort();
        assert_eq!(repo.type_names(), names);
        // Schema ids stay unique under the atomic allocator.
        let mut ids: Vec<u32> = names
            .iter()
            .map(|n| repo.deployed(n, 1).unwrap().schema.id.0)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 64);
    }
}
