//! # adept-model — the ADEPT2 process meta model
//!
//! This crate implements the block-structured process meta model (often
//! called *WSM-nets* in the ADEPT literature) that the ADEPT2 system from
//! *"Adaptive Process Management with ADEPT2"* (Reichert, Rinderle, Kreher,
//! Dadam — ICDE 2005) builds on.
//!
//! A [`ProcessSchema`] is a directed graph of typed [`Node`]s connected by
//! typed [`Edge`]s:
//!
//! * **control edges** form a block-structured backbone: every `AndSplit`
//!   has a matching `AndJoin`, every `XorSplit` a matching `XorJoin`, and
//!   every `LoopStart` a matching `LoopEnd`; blocks are properly nested,
//! * **sync edges** cross between branches of parallel blocks and order
//!   otherwise-concurrent activities (paper Fig. 1: `ET=Sync`),
//! * **loop edges** jump from a `LoopEnd` back to its `LoopStart`.
//!
//! Data flow is modelled by [`DataElement`]s and read/write [`DataEdge`]s.
//!
//! Schemas are usually produced with the fluent [`SchemaBuilder`], which can
//! only produce structurally sound schemas. The low-level mutation API on
//! [`ProcessSchema`] exists for the change-operation layer (`adept-core`),
//! which guards every mutation with the pre-/post-conditions the paper
//! describes.
//!
//! Every name a schema carries — a node's, a data element's, an
//! activity's role, application and description — is a shared `Arc<str>`.
//! Copying a schema (an ad-hoc overlay, a biased instance's context, a
//! migration target) clones reference counts, not strings, and every copy
//! holds the deployment's names. A name encodes as a plain JSON string.
//!
//! ```
//! use adept_model::{SchemaBuilder, ValueType};
//!
//! let mut b = SchemaBuilder::new("online order");
//! let amount = b.data("amount", ValueType::Int);
//! let get = b.activity("get order");
//! b.write(get, amount);
//! b.and_split();
//! b.branch();
//! let confirm = b.activity("confirm order");
//! b.read(confirm, amount);
//! b.branch();
//! b.activity("compose order");
//! b.activity("pack goods");
//! b.and_join();
//! b.activity("deliver goods");
//! let schema = b.build().unwrap();
//! assert_eq!(schema.activities().count(), 5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blocks;
pub mod builder;
pub mod compiled;
pub mod data;
pub mod edge;
pub mod error;
pub mod graph;
pub mod idmap;
pub mod ids;
pub mod index;
pub mod node;
pub mod render;
pub mod schema;

pub use blocks::{BlockInfo, BlockKind, Blocks};
pub use builder::SchemaBuilder;
pub use compiled::{CEdge, CNode, CompiledSchema};
pub use data::{AccessMode, DataEdge, DataElement, Value, ValueType};
pub use edge::{CmpOp, Edge, EdgeKind, Guard, LoopCond};
pub use error::ModelError;
pub use idmap::IdMap;
pub use ids::{DataId, EdgeId, InstanceId, NodeId, SchemaId};
pub use index::SchemaIndex;
pub use node::{ActivityAttributes, Node, NodeKind};
pub use schema::ProcessSchema;
