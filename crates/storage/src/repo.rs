//! The schema repository: process types and their version chains.

use crate::ordered::{classes, OrderedRwLock};
use adept_core::{ChangeError, ChangeOp, ChangeTxn, Delta, ProcessType};
use adept_model::{ProcessSchema, SchemaId};
use adept_state::Execution;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};

fn unknown_type(name: &str) -> ChangeError {
    ChangeError::Precondition(format!("unknown process type {name:?}"))
}

/// A process type and the deployment of each of its versions — one value,
/// so no reader observes a type without its deployments and a redeploy
/// replaces the chain whole. A deployment is the analysed schema of its
/// version, the **execution context** shared by every unbiased instance on
/// it (the redundant-free side of paper Fig. 2); a biased instance carries
/// its own in [`crate::StoredInstance::context`].
#[derive(Debug)]
struct TypeEntry {
    pt: ProcessType,
    /// `deployed[v - 1]` is version `v`.
    deployed: Vec<Execution>,
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
        let dep = Execution::with_blocks(pt.latest().clone(), blocks);
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
        self.install_evolution_journaled(name, base, done.target, done.delta, |_| Ok(()))
            .map(|v| (v, delta))
    }

    /// Installs an **already-verified** evolved schema, compiled by the
    /// transaction that verified it ([`adept_core::ChangeTxn::commit_schema`]),
    /// as the next version of a type (the change-transaction commit path;
    /// see [`adept_core::ProcessType::push_prepared`]) — the one evolution
    /// install. `target` becomes the version's deployment as it is.
    /// `expected_base` guards against racing evolutions: if another
    /// transaction committed first, the install is rejected and nothing
    /// changes. Returns the new version number.
    ///
    /// `journal` receives the new version number and runs after the
    /// evolution has fully validated (version pushed) but while the
    /// repository lock is still held — i.e. **before** any reader can
    /// observe the new version, so a write-ahead log records evolutions in
    /// their visibility order. Nothing is analysed or compiled under the
    /// lock. If journaling fails, the pushed version is rolled back and
    /// nothing is installed.
    pub fn install_evolution_journaled<E: From<ChangeError>>(
        &self,
        name: &str,
        expected_base: u32,
        target: Execution,
        delta: Delta,
        journal: impl FnOnce(u32) -> Result<(), E>,
    ) -> Result<u32, E> {
        // The type's own copy of the version, taken before the lock.
        let schema = ProcessSchema::clone(&target.schema);
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
        if let Err(e) = journal(v) {
            pt.pop_prepared();
            return Err(e);
        }
        deployed.push(target);
        Ok(v)
    }

    /// The deployed schema of a specific version.
    pub fn deployed(&self, name: &str, version: u32) -> Option<Execution> {
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
    use std::sync::Arc;

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
        fn assert_arena_matches(dep: &Execution) {
            assert_eq!(dep.arena.node_count(), dep.schema.node_count());
            assert_eq!(dep.arena.edge_count(), dep.schema.edge_count());
            for n in dep.schema.nodes() {
                let slot = dep.arena.node_slot(n.id).expect("node interned");
                assert_eq!(dep.arena.node_id(slot), n.id);
            }
            for e in dep.schema.edges() {
                let slot = dep.arena.edge_slot(e.id).expect("edge interned");
                assert_eq!(dep.arena.edge_id(slot), e.id);
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
        assert_eq!(v2.arena.node_count(), v1.arena.node_count() + 1);
        assert!(Arc::ptr_eq(
            &v1.arena,
            &repo.deployed(&name, 1).unwrap().arena
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
        assert!(!Arc::ptr_eq(&v1.arena, &redeployed.arena));
        assert_eq!(redeployed.arena.node_count(), v1.arena.node_count() + 1);
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
