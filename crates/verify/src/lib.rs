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
//! A pass analyses its candidate **once**: [`verify_analysed`] indexes it
//! densely ([`SchemaIndex`]), derives the block structure
//! ([`adept_model::Blocks`]) from that index, runs every check over the
//! same index, and returns the blocks beside the report, so a deploy, a
//! commit or a migration hop that goes on to compile the schema it just
//! verified analyses nothing again. The index is dropped with the pass.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dataflow;
pub mod deadlock;
pub mod report;
pub mod structural;

pub use report::{Issue, IssueKind, Severity, VerificationReport};

use adept_model::graph::EdgeFilter;
use adept_model::{Blocks, ProcessSchema, SchemaIndex};
use std::cell::Cell;

pub use adept_model::blocks::analysis_passes;

thread_local! {
    static PASSES: Cell<u64> = const { Cell::new(0) };
}

/// Number of full verification passes ([`verify_schema`] /
/// [`verify_analysed`] calls) this thread has performed. The
/// change-transaction layer uses this to prove its core amortisation
/// guarantee — *one* verification pass per committed transaction, however
/// many operations were staged. Thread-local, so concurrent tests and
/// parallel migration workers never skew each other's measurements.
/// [`analysis_passes`] counts the block analyses the same way.
pub fn verification_passes() -> u64 {
    PASSES.with(Cell::get)
}

/// Runs the complete ADEPT2 buildtime verification suite on a schema.
pub fn verify_schema(schema: &ProcessSchema) -> VerificationReport {
    verify_analysed(schema).0
}

/// [`verify_schema`], handing back the block structure the schema was
/// judged on (`None` when it has none — the report then carries a
/// [`IssueKind::BlockStructure`] error, so a correct report always comes
/// with blocks). Whoever goes on to execute, adapt or install the schema
/// compiles over these (`adept_state::Execution::with_blocks`) instead of
/// analysing it again.
pub fn verify_analysed(schema: &ProcessSchema) -> (VerificationReport, Option<Blocks>) {
    PASSES.with(|c| c.set(c.get() + 1));
    let index = SchemaIndex::of(schema);
    let blocks = Blocks::analyze_indexed(&index);
    let topo = index.topo(EdgeFilter::CONTROL_SYNC);
    let mut rep = structural::check_structure(&index, &blocks);
    rep.merge(deadlock::check_deadlock_freedom(topo.as_ref().err()));
    let blocks = blocks.ok();
    if let (Some(blocks), Ok(topo)) = (&blocks, &topo) {
        rep.merge(dataflow::check_dataflow(&index, blocks, topo));
    }
    (rep, blocks)
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
