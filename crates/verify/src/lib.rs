//! # adept-verify — buildtime verification of ADEPT2 process schemas
//!
//! The paper (Sec. 2): *"ADEPT2 offers powerful concepts for modeling,
//! analyzing, and verifying process schemes. Particularly, it ensures schema
//! correctness, like the absence of deadlock-causing cycles or erroneous
//! data flows. This, in turn, constitutes an important prerequisite for
//! dynamic process changes as well."*
//!
//! This crate is that verifier. [`verify_schema`] runs:
//!
//! * **structural checks** — unique start/end node, reachability, legal
//!   node degrees, intact block structure, well-formed XOR guards,
//!   admissible sync edges ([`structural`]);
//! * **deadlock analysis** — the combined control+sync graph must be
//!   acyclic ([`deadlock`]);
//! * **data-flow analysis** — every mandatory input parameter is definitely
//!   written before use; concurrent writes are flagged ([`dataflow`]).
//!
//! The same verifier runs (a) when templates are deployed, (b) over the
//! outcome of every change — which is how the change framework in
//! `adept-core` guarantees that *"none of the guarantees achieved by formal
//! checks at buildtime are violated due to the dynamic change."*
//!
//! It runs in one of two scopes ([`Scope`]):
//!
//! * **whole** ([`Scope::WHOLE`]) — every check everywhere: a deploy and a
//!   type evolution, whose candidate nothing verified before;
//! * **what the operations touched** — an ad-hoc overlay of an instance's
//!   schema and a biased migration target (the bias replayed on a new
//!   version). Both differ from a schema that passed the whole pass by a
//!   few operations, each staged with its preconditions checked, so only
//!   the findings those operations can change are looked for: the rules
//!   of the nodes they re-wired, every sync edge, and the data flow of the
//!   elements they touched ([`scope`]). The report holds the whole pass's
//!   errors, in its order, and the warnings on what the operations touched;
//!   debug builds check every scoped verdict against the whole pass.
//!
//! A pass indexes its candidate **once** ([`SchemaIndex`]) and reads its
//! block structure ([`adept_model::Blocks`]); every check walks the same
//! index ([`verify_indexed`]). [`verify_schema`] builds the index and
//! analyses the blocks for a report and drops them. Whoever goes on to
//! run or install the candidate verifies it through
//! `adept_state::Execution::verify` (whole; it analyses the blocks) or
//! `adept_state::Execution::verify_scoped` (over the blocks the change
//! operations that made the candidate derived) instead, and compiles a
//! correct candidate's arena over the same index, so a deploy analyses
//! what it installs once and a commit or a migration hop not at all.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dataflow;
pub mod deadlock;
pub mod report;
pub mod scope;
pub mod structural;

pub use report::{Issue, IssueKind, Severity, VerificationReport};
pub use scope::Scope;

use adept_model::blocks::BlockError;
use adept_model::graph::EdgeFilter;
use adept_model::{Blocks, ProcessSchema, SchemaIndex};
use scope::InScope;
use std::cell::Cell;

pub use adept_model::blocks::analysis_passes;

thread_local! {
    static PASSES: Cell<u64> = const { Cell::new(0) };
    static SCOPED: Cell<u64> = const { Cell::new(0) };
}

/// Number of verification passes ([`verify_schema`] /
/// [`verify_indexed`] calls), whole or scoped, this thread has performed.
/// The change-transaction layer uses this to prove its core amortisation
/// guarantee — *one* verification pass per committed transaction, however
/// many operations were staged. Thread-local, so concurrent tests and
/// parallel migration workers never skew each other's measurements.
/// [`analysis_passes`] counts the block analyses the same way.
pub fn verification_passes() -> u64 {
    PASSES.with(Cell::get)
}

/// How many of this thread's [`verification_passes`] were restricted to a
/// change's [`Scope`] rather than whole.
pub fn scoped_passes() -> u64 {
    SCOPED.with(Cell::get)
}

/// Runs the complete ADEPT2 buildtime verification suite on a schema.
pub fn verify_schema(schema: &ProcessSchema) -> VerificationReport {
    let index = SchemaIndex::of(schema);
    verify_indexed(
        &index,
        Blocks::analyze_indexed(&index).as_ref(),
        &Scope::WHOLE,
    )
}

/// The verification pass over an index of the schema and the outcome of
/// analysing its block structure from that index (a
/// [`IssueKind::BlockStructure`] error when there is none, so a correct
/// report always comes with blocks), restricted to `scope`.
///
/// [`Scope::WHOLE`] is [`verify_schema`]. Any other scope must be what
/// the operations that made the schema from a correct one touched (see
/// [`scope`]): its report then holds the whole pass's errors, in the same
/// order, and the warnings on what the operations touched. Debug builds
/// run the whole pass beside every scoped one and panic, showing both,
/// when their errors differ.
pub fn verify_indexed(
    index: &SchemaIndex<'_>,
    blocks: Result<&Blocks, &BlockError>,
    scope: &Scope,
) -> VerificationReport {
    PASSES.with(|c| c.set(c.get() + 1));
    if !scope.whole {
        SCOPED.with(|c| c.set(c.get() + 1));
    }
    let rep = pass(index, blocks, &InScope::resolve(scope, index));
    #[cfg(debug_assertions)]
    if !scope.whole {
        let whole = pass(index, blocks, &InScope::resolve(&Scope::WHOLE, index));
        let errors = |rep: &VerificationReport| rep.errors().cloned().collect::<Vec<_>>();
        assert!(
            errors(&rep) == errors(&whole),
            "a scoped verdict differs from the whole pass\nscope: {scope:?}\nscoped:\n{rep}whole:\n{whole}"
        );
    }
    rep
}

/// The checks of one pass, in report order.
fn pass(
    index: &SchemaIndex<'_>,
    blocks: Result<&Blocks, &BlockError>,
    scope: &InScope,
) -> VerificationReport {
    let mut rep = structural::check_structure(index, blocks, scope);
    if !scope.any_data() {
        return rep;
    }
    let topo = index.topo(EdgeFilter::CONTROL_SYNC);
    rep.merge(deadlock::check_deadlock_freedom(topo.as_ref().err()));
    if let (Ok(blocks), Ok(topo)) = (blocks, &topo) {
        rep.merge(dataflow::check_dataflow(index, blocks, topo, scope));
    }
    rep
}

/// Convenience: whether the schema passes verification without errors.
pub fn is_correct(schema: &ProcessSchema) -> bool {
    verify_schema(schema).is_correct()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_model::{SchemaBuilder, ValueType};

    #[test]
    fn full_suite_on_realistic_schema() {
        let mut b = SchemaBuilder::new("online order");
        let amount = b.data("amount", ValueType::Int);
        let get = b.activity("get order");
        b.write(get, amount);
        b.activity("collect data");
        b.and_split();
        b.branch();
        let confirm = b.activity("confirm order");
        b.read(confirm, amount);
        b.branch();
        b.activity("compose order");
        b.activity("pack goods");
        b.and_join();
        b.activity("deliver goods");
        let s = b.build().unwrap();
        let rep = verify_schema(&s);
        assert!(rep.is_correct(), "{rep}");
        assert!(is_correct(&s));
    }

    #[test]
    fn all_checks_contribute() {
        // Deliberately broken schema: orphan node + read without write.
        let mut b = SchemaBuilder::new("broken");
        let d = b.data("x", ValueType::Int);
        let r = b.activity("r");
        b.read(r, d);
        let mut s = b.build().unwrap();
        s.add_node("orphan", adept_model::NodeKind::Activity);
        let rep = verify_schema(&s);
        assert!(!rep.is_correct());
        assert!(rep.has(IssueKind::Unreachable));
        assert!(rep.has(IssueKind::MissingInputData));
    }
}
