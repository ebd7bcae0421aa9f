//! The write-ahead log: every engine mutation as one durable JSONL record.
//!
//! The WAL is the engine's source of durability *between* snapshots:
//! every committed change transaction and every state-mutating command
//! outcome is appended here — encoded as one compact JSON line, its `\n`
//! included, straight into the buffer the medium receives in one write
//! (no intermediate value tree; [`decode_entry`] likewise reads fields off
//! the text) — **before** it becomes visible engine state. Recovery loads
//! the latest snapshot and replays the WAL tail
//! (`seq > snapshot.wal_seq`) to reconstruct the exact pre-crash engine;
//! see the crate-level "Durability & recovery" section.
//!
//! Replay converges byte-for-byte without re-running drivers. A command
//! records the steps it took, not the state they left: a
//! [`WalRecord::StateDelta`] names the instance and the revision the
//! command found it at, and lists the [`Step`]s the executor took there —
//! the commands of a segment that succeeded, the starts, completions and
//! decisions a drive's driver chose, each completion with its writes,
//! borrowed from the command or the history event it appended. What the
//! executor decided on its own (guards, counted loops, silent nodes, loop
//! resets) is not recorded: replay applies the steps through the same
//! executor on the same schema, which decides it again. A migration
//! hop records the hop, not the instance it leaves behind: a
//! [`WalRecord::Migrated`] names the instance, the revision the hop was
//! judged at, the version it landed on and the criterion it was judged by,
//! and replay runs the hop again — its compliance check and state
//! adaptation, on the instance as it stands at that revision. Creations
//! and change transactions record the whole instance they leave behind (a
//! post-image, which replay upserts), journaled from the candidate
//! [`StoredInstance`] the store is about to install — written as it
//! stands, nothing cloned to be encoded. Change transactions additionally
//! embed their audit [`TxnRecord`] in the *same* line as the post-image —
//! one append, so a crash can never separate a change from its audit
//! trail.
//!
//! **Every record form has exactly one writer**: a borrowed view of the
//! record (`RecordView`), over the engine state it describes or over an
//! owned [`WalRecord`], which is written through the same view. What the
//! engine journals and what [`encode_entry`] writes for the record it
//! decodes to are therefore the same bytes, by construction
//! (`tests/tests/journal_images.rs` checks it on a live engine's journal).
//!
//! The journal **is** the change history: the `ChangeCommitted` and
//! `Evolved` lines carry every committed transaction, and nothing keeps a
//! copy in memory. The log keeps only their count ([`WriteAheadLog::txns`]),
//! which a snapshot records and a recovery restores.

use crate::backend::StorageBackend;
use crate::error::StorageError;
use crate::instances::StoredInstance;
use crate::ordered::{classes, OrderedMutex};
use crate::persist::InstanceRecord;
use crate::txnlog::TxnRecord;
use adept_model::{DataId, InstanceId, ProcessSchema, Value};
use adept_state::{InstanceState, Step};
use serde::{Deserialize, Serialize, Writer};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// One durable engine mutation. Post-image records (`Created`,
/// `StateChanged`, `ChangeCommitted`) carry the complete resulting state,
/// so replay is an upsert; a `StateDelta`'s steps apply at the one revision
/// it names, and a `Migrated` hop is run again from it. Written through its
/// borrowed view, the one writer of each form.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub enum WalRecord {
    /// A process type was deployed (version 1). Carries the deployed
    /// schema verbatim, id included.
    Deployed {
        /// The deployed version-1 schema.
        schema: ProcessSchema,
    },
    /// A type evolution committed: `name` gained the version after
    /// `base_version`, produced by the embedded transaction's operations.
    Evolved {
        /// Process type name.
        name: String,
        /// The version the evolution was based on.
        base_version: u32,
        /// The audit record (target + ops) of the committed evolution.
        txn: TxnRecord,
    },
    /// An instance was created (initial state post-image).
    Created {
        /// The new instance.
        id: InstanceId,
        /// Its process type.
        type_name: String,
        /// The version it was created on.
        version: u32,
        /// Its initial runtime state.
        state: InstanceState,
    },
    /// An instance's runtime state was replaced by `state`. Readable and
    /// replayed (it advances the revision by one), but no engine path
    /// writes it: a command journals a [`WalRecord::StateDelta`].
    StateChanged {
        /// The instance.
        id: InstanceId,
        /// Runtime state after the command segment.
        state: InstanceState,
    },
    /// A command (or command segment) changed an instance's runtime state
    /// at revision `base_rev`, which it left at `base_rev + 1`, by taking
    /// `steps` on the instance's schema. Replay applies them there
    /// ([`adept_state::CompiledExecution::apply_steps`]).
    StateDelta {
        /// The instance.
        id: InstanceId,
        /// The revision the steps were taken at.
        base_rev: u64,
        /// The steps the command took, in order (never none).
        steps: Vec<Step>,
    },
    /// An ad-hoc change transaction committed on one instance: the full
    /// instance post-image plus the audit record, atomically in one line.
    ChangeCommitted {
        /// The instance after the commit (bias and state included).
        record: InstanceRecord,
        /// The audit record of the committed transaction.
        txn: TxnRecord,
    },
    /// An instance at revision `base_rev` migrated one version hop, onto
    /// version `to` of its type, which it left at `base_rev + 1`. Replay
    /// runs the hop again: the compliance check by the criterion it was
    /// judged by and the state adaptation.
    Migrated {
        /// The instance.
        id: InstanceId,
        /// The revision the hop was judged at.
        base_rev: u64,
        /// The version the hop landed on (the instance was on `to - 1`).
        to: u32,
        /// Whether the hop was judged by the trace criterion
        /// ([`adept_core::MigrationOptions::use_trace_criterion`]) rather
        /// than the per-operation conditions.
        trace: bool,
    },
    /// An instance was removed (cancelled / archived).
    Removed {
        /// The removed instance.
        id: InstanceId,
    },
    /// A durable no-op filling an abandoned sequence number: the append
    /// that allocated it failed on its medium after a later sequence was
    /// already handed out, so the number could not be returned to the
    /// allocator. The tombstone keeps the sequence contiguous — without
    /// it a single transient backend error would leave a permanent hole
    /// that recovery must treat as lost records. Replay ignores it.
    Abandoned,
}

impl Serialize for WalRecord {
    fn serialize(&self, out: &mut Writer) {
        self.view().serialize(out)
    }
}

impl WalRecord {
    fn view(&self) -> RecordView<'_> {
        match self {
            WalRecord::Deployed { schema } => RecordView::Deployed { schema },
            WalRecord::Evolved {
                name,
                base_version,
                txn,
            } => RecordView::Evolved {
                name,
                base_version: *base_version,
                txn,
            },
            WalRecord::Created {
                id,
                type_name,
                version,
                state,
            } => RecordView::Created {
                id: *id,
                type_name,
                version: *version,
                state,
            },
            WalRecord::StateChanged { id, state } => RecordView::StateChanged { id: *id, state },
            WalRecord::StateDelta {
                id,
                base_rev,
                steps,
            } => RecordView::StateDelta {
                id: *id,
                base_rev: *base_rev,
                steps,
            },
            WalRecord::ChangeCommitted { record, txn } => {
                RecordView::ChangeCommitted { record, txn }
            }
            WalRecord::Migrated {
                id,
                base_rev,
                to,
                trace,
            } => RecordView::Migrated {
                id: *id,
                base_rev: *base_rev,
                to: *to,
                trace: *trace,
            },
            WalRecord::Removed { id } => RecordView::Removed { id: *id },
            WalRecord::Abandoned => RecordView::Abandoned,
        }
    }
}

/// A [`WalRecord`] borrowed from where its parts live — the owned record,
/// or the engine state it describes: the one writer of every record form.
/// The engine journals instance images from the candidate
/// [`StoredInstance`] it installs and a command's steps with the writes
/// borrowed from where they live; an owned record is written through the
/// same view.
#[derive(Serialize)]
enum RecordView<'a> {
    Deployed {
        schema: &'a ProcessSchema,
    },
    Evolved {
        name: &'a str,
        base_version: u32,
        txn: &'a TxnRecord,
    },
    Created {
        id: InstanceId,
        type_name: &'a str,
        version: u32,
        state: &'a InstanceState,
    },
    StateChanged {
        id: InstanceId,
        state: &'a InstanceState,
    },
    /// The steps with their writes owned or borrowed, which share one
    /// encoding.
    StateDelta {
        id: InstanceId,
        base_rev: u64,
        steps: &'a dyn Serialize,
    },
    ChangeCommitted {
        record: &'a StoredInstance,
        txn: &'a TxnRecord,
    },
    Migrated {
        id: InstanceId,
        base_rev: u64,
        to: u32,
        trace: bool,
    },
    Removed {
        id: InstanceId,
    },
    Abandoned,
}

/// A [`WalEntry`] borrowed the same way: the one writer of an entry.
#[derive(Serialize)]
struct EntryView<'a> {
    seq: u64,
    record: RecordView<'a>,
}

/// One WAL entry: a globally sequenced record. `seq` is contiguous and
/// 1-based; recovery verifies contiguity and treats gaps as corruption.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct WalEntry {
    /// Position in the log (1-based, contiguous).
    pub seq: u64,
    /// The recorded mutation.
    pub record: WalRecord,
}

impl Serialize for WalEntry {
    fn serialize(&self, out: &mut Writer) {
        EntryView {
            seq: self.seq,
            record: self.record.view(),
        }
        .serialize(out)
    }
}

/// Encodes one entry as its compact one-line JSON form (the shared codec:
/// snapshots embed transaction records with the same serializer). The
/// bytes are pinned by `tests/fixtures/wal_lines.jsonl`.
pub fn encode_entry(entry: &WalEntry) -> Result<String, StorageError> {
    serde_json::to_string(entry).map_err(|e| StorageError::Encode {
        detail: format!("wal entry #{}: {e}", entry.seq),
    })
}

/// The journal line of entry `seq` holding `record`, its `\n` included:
/// [`encode_entry`]'s bytes for the owned entry, and then the terminator.
fn journal_line(seq: u64, record: RecordView<'_>) -> String {
    let mut out = Writer::compact();
    EntryView { seq, record }.serialize(&mut out);
    let mut line = out.finish();
    line.push('\n');
    line
}

/// Decodes one line back into an entry. A complete line that does not
/// decode — unknown variant, missing, repeated or wrong-typed field,
/// trailing bytes, brackets nested past the reader's bound — is **interior
/// corruption** (torn tails never produce complete lines) and therefore a
/// hard error; never a panic or a stack overflow.
pub fn decode_entry(line: &str) -> Result<WalEntry, StorageError> {
    serde_json::from_str(line).map_err(|e| StorageError::Corrupt {
        detail: format!("undecodable wal record: {e}"),
    })
}

/// Durability bookkeeping: `upto` is the highest sequence such that every
/// sequence at or below it has been successfully appended; `completed`
/// holds out-of-order completions above `upto` until the chain closes.
/// Updated after the segment I/O, outside any segment lock — the critical
/// section is a set insertion, not an append.
#[derive(Debug, Default)]
struct Durable {
    upto: u64,
    completed: BTreeSet<u64>,
}

impl Durable {
    fn mark(&mut self, seq: u64) {
        if seq == self.upto + 1 {
            self.advance_to(seq);
        } else if seq > self.upto {
            self.completed.insert(seq);
        }
    }

    /// Jumps the watermark to at least `seq` (everything below is known
    /// covered), then drains any completions that became contiguous.
    fn advance_to(&mut self, seq: u64) {
        if self.upto < seq {
            self.upto = seq;
            while self.completed.remove(&(self.upto + 1)) {
                self.upto += 1;
            }
        }
    }
}

/// Refuses a segment count that is not a power of two.
fn power_of_two(segments: usize) -> Result<(), StorageError> {
    if segments.is_power_of_two() {
        return Ok(());
    }
    let detail = format!("wal segment count must be a power of two, got {segments}");
    Err(StorageError::corrupt(detail))
}

/// The engine's write-ahead log, segmented across one or more
/// [`StorageBackend`] mediums.
///
/// Disabled by default ([`WriteAheadLog::disabled`]): a disabled WAL
/// only numbers the committed transactions and performs no encoding or
/// I/O — the hot path of non-durable engines is untouched. Durable
/// engines attach backends via [`WriteAheadLog::create_segmented`] (fresh
/// log) or [`WriteAheadLog::open_segmented`] (recovery).
///
/// # Segmentation
///
/// Sequence numbers are allocated by one atomic counter (globally
/// ordered, contention-free); entry `seq` selects the segment by
/// `(seq - 1) & mask`, so consecutive appends round-robin across
/// segments and concurrent appends from different store shards land on
/// different segment mediums — command journaling under a shard write
/// lock does not serialise every shard on one backend lock.
/// With one segment every record lands on the same medium, in sequence
/// order. Recovery merges all
/// segments by sequence number; per-segment torn tails are repaired by
/// the backends. A gap in the merged sequence is classified by the
/// replay layer: a bounded gap at the global tail is the normal residue
/// of a crash under concurrent appends (an earlier-allocated record torn
/// or unwritten while a later one is already durable in a sibling
/// segment) and is repaired via [`WriteAheadLog::retain_up_to`]; a wide
/// or leading gap (a lost segment, a truncated log without its snapshot)
/// is reported as corruption.
#[derive(Debug)]
pub struct WriteAheadLog {
    /// The next entry sequence number to allocate (1-based).
    next_seq: AtomicU64,
    /// Contiguous-durability tracker behind [`WriteAheadLog::durable_position`].
    durable: OrderedMutex<Durable>,
    /// Segment mediums (empty = disabled). Backends synchronise
    /// internally, so appends need no WAL-level lock.
    segments: Box<[Box<dyn StorageBackend>]>,
    /// `segments.len() - 1`; segment count is a power of two.
    mask: u64,
    /// The number of change transactions committed so far — the last
    /// one's sequence number (transaction numbers are 1-based and
    /// independent of entry sequence numbers).
    txns: AtomicU64,
}

impl Default for WriteAheadLog {
    fn default() -> Self {
        Self::disabled()
    }
}

impl WriteAheadLog {
    fn assemble(segments: Vec<Box<dyn StorageBackend>>, next_seq: u64) -> Self {
        let mask = segments.len().saturating_sub(1) as u64;
        Self {
            next_seq: AtomicU64::new(next_seq),
            durable: OrderedMutex::new(
                &classes::WAL_DURABLE,
                Durable {
                    // Everything below the opening position is on the medium
                    // (or covered by the snapshot a recovery replays).
                    upto: next_seq - 1,
                    completed: BTreeSet::new(),
                },
            ),
            segments: segments.into_boxed_slice(),
            mask,
            txns: AtomicU64::new(0),
        }
    }

    /// A WAL without a backend: change commits are numbered,
    /// [`WriteAheadLog::position`] stays 0, nothing is encoded.
    pub fn disabled() -> Self {
        Self::assemble(Vec::new(), 1)
    }

    /// Attaches a power-of-two number of segment backends for a fresh
    /// engine. Every segment must be empty (a non-empty log would silently
    /// be orphaned — recovering from it is
    /// [`WriteAheadLog::open_segmented`]'s job, which must be given the
    /// same number of segments in the same order).
    pub fn create_segmented(segments: Vec<Box<dyn StorageBackend>>) -> Result<Self, StorageError> {
        power_of_two(segments.len())?;
        for (i, seg) in segments.iter().enumerate() {
            let raw = seg.read_log()?;
            if !raw.lines.is_empty() {
                return Err(StorageError::corrupt(format!(
                    "segment {i} already holds {} wal record(s); recover from it instead \
                     of attaching it to a fresh engine",
                    raw.lines.len()
                )));
            }
        }
        Ok(Self::assemble(segments, 1))
    }

    /// Opens an existing segmented log for recovery: reads every segment
    /// (each after its own torn-tail repair), verifies every entry
    /// decodes, **merges the segments by sequence number**, and returns
    /// the WAL positioned after the highest entry plus the merged
    /// entries and the total torn bytes dropped across segments. A
    /// sequence number appearing twice is corruption (two segments
    /// cannot legally hold the same entry); gaps are left for the replay
    /// layer, which knows the snapshot watermark. The transaction count
    /// starts at 0 — recovery advances it past the snapshot's and the
    /// replayed records'.
    pub fn open_segmented(
        segments: Vec<Box<dyn StorageBackend>>,
    ) -> Result<(Self, Vec<WalEntry>, usize), StorageError> {
        power_of_two(segments.len())?;
        let mut entries = Vec::new();
        let mut torn_total = 0usize;
        for seg in &segments {
            let raw = seg.read_log()?;
            torn_total += raw.torn_tail_bytes;
            for line in &raw.lines {
                entries.push(decode_entry(line)?);
            }
        }
        entries.sort_by_key(|e| e.seq);
        for pair in entries.windows(2) {
            if pair[0].seq == pair[1].seq {
                return Err(StorageError::corrupt(format!(
                    "wal seq {} recorded twice across segments",
                    pair[0].seq
                )));
            }
        }
        let next_seq = entries.last().map(|e| e.seq).unwrap_or(0) + 1;
        Ok((Self::assemble(segments, next_seq), entries, torn_total))
    }

    /// Whether backends are attached (appends encode and persist).
    pub fn enabled(&self) -> bool {
        !self.segments.is_empty()
    }

    /// The sequence number of the most recently **allocated** entry (0 =
    /// nothing appended). Under concurrent appends this can run ahead of
    /// what is actually on the mediums — an allocated sequence may still
    /// be in flight, or about to fail and be rolled back. Use
    /// [`WriteAheadLog::durable_position`] for watermarks that claim
    /// coverage.
    pub fn position(&self) -> u64 {
        self.next_seq.load(Ordering::SeqCst) - 1
    }

    /// The highest sequence number `d` such that every entry `1..=d` has
    /// been **successfully appended** (0 = nothing durable). Unlike
    /// [`WriteAheadLog::position`] this never counts allocated-but-
    /// in-flight or failed appends, so it is the safe `wal_seq` watermark
    /// for snapshots: a snapshot claiming coverage up to `d` never claims
    /// a sequence the log does not durably hold. Quiesced (no in-flight
    /// appends), the two positions are equal.
    pub fn durable_position(&self) -> u64 {
        self.durable.lock().upto
    }

    /// Marks one append as successfully persisted, advancing the
    /// contiguous durability watermark when the chain below it is closed.
    fn mark_durable(&self, seq: u64) {
        self.durable.lock().mark(seq);
    }

    /// Advances the position watermark to at least `seq` (recovery: the
    /// snapshot may be newer than the last surviving log entry after a
    /// checkpoint truncation). The sequences below `seq` are covered by
    /// snapshot + replayed log, so the durable watermark advances too.
    pub fn advance_position(&self, seq: u64) {
        self.next_seq.fetch_max(seq + 1, Ordering::SeqCst);
        self.durable.lock().advance_to(seq);
    }

    /// Physically truncates every segment back to the entries with
    /// sequence ≤ `seq` and rewinds the allocator — the recovery-side
    /// repair of a crash tail: sequences past the last contiguous entry
    /// are dropped from *all* segments so siblings cannot carry orphaned
    /// later records, and appends continue at `seq + 1`. Returns the
    /// number of entries dropped. Recovery-only: callers must guarantee
    /// no concurrent appends.
    pub fn retain_up_to(&self, seq: u64) -> Result<usize, StorageError> {
        let mut dropped = 0usize;
        for seg in self.segments.iter() {
            let raw = seg.read_log()?;
            let keep: Vec<&String> = raw
                .lines
                .iter()
                .filter(|line| decode_entry(line).map(|e| e.seq <= seq).unwrap_or(false))
                .collect();
            if keep.len() == raw.lines.len() {
                continue;
            }
            dropped += raw.lines.len() - keep.len();
            seg.reset()?;
            for line in keep {
                seg.append_line(line)?;
            }
        }
        self.next_seq.store(seq + 1, Ordering::SeqCst);
        let mut durable = self.durable.lock();
        durable.upto = seq;
        durable.completed.clear();
        Ok(dropped)
    }

    /// The segment an entry sequence number maps to.
    #[inline]
    fn segment_of(&self, seq: u64) -> &dyn StorageBackend {
        &*self.segments[((seq - 1) & self.mask) as usize]
    }

    /// Allocates the next sequence number, encodes and appends to the
    /// owning segment (a no-op returning 0 on a disabled WAL). On failure the allocation is rolled back when no
    /// later sequence was handed out in the meantime; otherwise the
    /// abandoned number is plugged with a durable [`WalRecord::Abandoned`]
    /// tombstone (on its own segment, falling back to each sibling) so a
    /// transient medium error never leaves a sequence hole that recovery
    /// would have to treat as lost records. Only if *every* segment
    /// refuses the tombstone does the hole remain — the honest outcome of
    /// all mediums failing at once, and still repairable by recovery's
    /// crash-tail truncation if nothing lands after it.
    fn append_allocated(&self, record: RecordView<'_>) -> Result<u64, StorageError> {
        if self.segments.is_empty() {
            return Ok(0);
        }
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let result = self.segment_of(seq).append_line(&journal_line(seq, record));
        match result {
            Ok(()) => {
                self.mark_durable(seq);
                Ok(seq)
            }
            Err(e) => {
                let rolled_back = self
                    .next_seq
                    .compare_exchange(seq + 1, seq, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok();
                if !rolled_back {
                    self.plug_abandoned(seq);
                }
                Err(e)
            }
        }
    }

    /// Durably records an [`WalRecord::Abandoned`] tombstone for a
    /// sequence number whose append failed and whose allocation could not
    /// be rolled back. Tries the owning segment first (its failure may
    /// have been transient), then every sibling — recovery merges by
    /// sequence and never checks which segment a sequence lives on.
    fn plug_abandoned(&self, seq: u64) {
        let line = journal_line(seq, RecordView::Abandoned);
        let n = self.segments.len();
        let owner = ((seq - 1) & self.mask) as usize;
        for i in 0..n {
            if self.segments[(owner + i) % n].append_line(&line).is_ok() {
                self.mark_durable(seq);
                return;
            }
        }
    }

    /// Appends one record, assigning the next sequence number. On a
    /// disabled WAL this is a no-op returning 0. The record is durable
    /// (per the owning segment's sync policy) when this returns `Ok`.
    /// Concurrent appends contend only on the sequence atomic and their
    /// own segment's medium — never on a WAL-global lock.
    pub fn append(&self, record: WalRecord) -> Result<u64, StorageError> {
        self.append_allocated(record.view())
    }

    /// Appends the [`WalRecord::Created`] of a new instance, encoded
    /// straight from `inst` — the instance about to be inserted, nothing
    /// copied. [`WriteAheadLog::append`]'s contract otherwise.
    pub fn append_created(&self, inst: &StoredInstance) -> Result<u64, StorageError> {
        self.append_allocated(RecordView::Created {
            id: inst.id,
            type_name: &inst.type_name,
            version: inst.version,
            state: &inst.state,
        })
    }

    /// Appends the [`WalRecord::Migrated`] of a migration hop of instance
    /// `id` at revision `base_rev` onto version `to`, judged by the trace
    /// criterion if `trace`. [`WriteAheadLog::append`]'s contract
    /// otherwise, a no-op returning 0 on a disabled WAL included.
    pub fn append_hop(
        &self,
        id: InstanceId,
        base_rev: u64,
        to: u32,
        trace: bool,
    ) -> Result<u64, StorageError> {
        self.append_allocated(RecordView::Migrated {
            id,
            base_rev,
            to,
            trace,
        })
    }

    /// Appends the [`WalRecord::StateDelta`] of a command on instance `id`
    /// at revision `base_rev`: the `steps` it took, encoded as they are —
    /// their writes borrowed from wherever they live, nothing copied.
    /// [`WriteAheadLog::append`]'s contract otherwise, a no-op returning 0
    /// on a disabled WAL included.
    pub fn append_steps<W: AsRef<[(DataId, Value)]>>(
        &self,
        id: InstanceId,
        base_rev: u64,
        steps: &[Step<W>],
    ) -> Result<u64, StorageError> {
        self.append_allocated(RecordView::StateDelta {
            id,
            base_rev,
            steps: &steps,
        })
    }

    /// Appends the [`WalRecord::ChangeCommitted`] of an ad-hoc change:
    /// the image of `inst`, the candidate the change installs, encoded
    /// straight from it, and its audit record. The change gets the next
    /// transaction number, which `txn` receives to build the record the
    /// line embeds; a disabled WAL numbers the change and builds nothing.
    /// If the append fails, the number is returned unless a concurrent
    /// commit has taken the next one already (then it is skipped), so
    /// numbers stay unique and increasing, and the error surfaces to the
    /// commit path. Returns the transaction number.
    pub fn append_change(
        &self,
        inst: &StoredInstance,
        txn: impl FnOnce(u64) -> TxnRecord,
    ) -> Result<u64, StorageError> {
        self.append_txn(|seq| {
            self.append_allocated(RecordView::ChangeCommitted {
                record: inst,
                txn: &txn(seq),
            })
        })
    }

    /// Appends the [`WalRecord::Evolved`] of an evolution of type `name`
    /// from `base_version`, with its audit record, as
    /// [`WriteAheadLog::append_change`] appends a change's.
    pub fn append_evolution(
        &self,
        name: &str,
        base_version: u32,
        txn: impl FnOnce(u64) -> TxnRecord,
    ) -> Result<u64, StorageError> {
        self.append_txn(|seq| {
            self.append_allocated(RecordView::Evolved {
                name,
                base_version,
                txn: &txn(seq),
            })
        })
    }

    /// Numbers one transaction and, on an enabled WAL, journals it through
    /// `append`; see [`WriteAheadLog::append_change`].
    fn append_txn(
        &self,
        append: impl FnOnce(u64) -> Result<u64, StorageError>,
    ) -> Result<u64, StorageError> {
        let seq = self.txns.fetch_add(1, Ordering::SeqCst) + 1;
        if !self.enabled() {
            return Ok(seq);
        }
        let txns = &self.txns;
        append(seq).inspect_err(|_| {
            let _ = txns.compare_exchange(seq, seq - 1, Ordering::SeqCst, Ordering::SeqCst);
        })?;
        Ok(seq)
    }

    /// The number of change transactions committed so far: the last one's
    /// transaction number (0 = none).
    pub fn txns(&self) -> u64 {
        self.txns.load(Ordering::SeqCst)
    }

    /// Advances the transaction count to at least `seq` (a restore: the
    /// snapshot's count, then every replayed transaction's number), so
    /// later commits continue the numbering. Never lowers it, so a tail
    /// overlapping the snapshot counts nothing twice.
    pub fn advance_txns(&self, seq: u64) {
        self.txns.fetch_max(seq, Ordering::SeqCst);
    }

    /// Forces every segment to stable storage (no-op when disabled).
    pub fn sync(&self) -> Result<(), StorageError> {
        for seg in self.segments.iter() {
            seg.sync()?;
        }
        Ok(())
    }

    /// Truncates every segment's log to empty while keeping the position
    /// watermark and the transaction count — the checkpoint step after a
    /// snapshot carrying `wal_seq == durable_position()` has been
    /// persisted. Future appends continue the sequence, so recovery can
    /// verify contiguity across the checkpoint.
    pub fn truncate(&self) -> Result<(), StorageError> {
        for seg in self.segments.iter() {
            seg.reset()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemoryBackend, RawLog};
    use crate::txnlog::TxnTarget;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Arc;

    fn txn(seq: u64) -> TxnRecord {
        TxnRecord {
            seq,
            target: TxnTarget::Type {
                name: "t".into(),
                new_version: 2,
            },
            ops: vec![],
        }
    }

    /// Appends an evolution commit of type `t` from version 1.
    fn evolve(wal: &WriteAheadLog) -> u64 {
        wal.append_evolution("t", 1, txn).unwrap()
    }

    /// Appends the removal of instance `id`.
    fn remove(wal: &WriteAheadLog, id: u64) -> u64 {
        wal.append(WalRecord::Removed { id: InstanceId(id) })
            .unwrap()
    }

    /// One segment backend per medium, sharing it.
    fn boxed(mediums: &[MemoryBackend]) -> Vec<Box<dyn StorageBackend>> {
        let boxed = mediums
            .iter()
            .map(|m| Box::new(m.clone()) as Box<dyn StorageBackend>);
        boxed.collect()
    }

    #[test]
    fn disabled_wal_numbers_transactions_only() {
        let wal = WriteAheadLog::disabled();
        assert!(!wal.enabled());
        assert_eq!(wal.position(), 0);
        let s = wal
            .append_evolution("t", 1, |_| unreachable!("a disabled WAL builds no record"))
            .unwrap();
        assert_eq!(s, 1);
        assert_eq!(wal.position(), 0, "disabled appends don't advance");
        assert_eq!(wal.txns(), 1);
        assert_eq!(remove(&wal, 1), 0);
    }

    /// A restore seeds the snapshot's count, then advances by every
    /// replayed transaction: a number the seed covers is ignored.
    #[test]
    fn replayed_txns_dedupe_against_seed() {
        let wal = WriteAheadLog::disabled();
        wal.advance_txns(2);
        wal.advance_txns(2); // covered by seed → ignored
        wal.advance_txns(1);
        assert_eq!(wal.txns(), 2);
        wal.advance_txns(3);
        assert_eq!(wal.txns(), 3);
    }

    /// `Txn` was a record kind only unit tests ever wrote; a line carrying
    /// it is no longer part of the format and decodes like any other
    /// unknown record — to an error, never a panic.
    #[test]
    fn retired_txn_record_line_is_corrupt() {
        let txn_json = serde_json::to_string(&txn(1)).unwrap();
        let line = format!(r#"{{"seq":1,"record":{{"Txn":{{"record":{txn_json}}}}}}}"#);
        assert!(matches!(
            decode_entry(&line),
            Err(StorageError::Corrupt { .. })
        ));
        // The same envelope around a record kind the engine writes decodes.
        let record = WalRecord::Evolved {
            name: "t".into(),
            base_version: 1,
            txn: txn(1),
        };
        let live = encode_entry(&WalEntry { seq: 1, record }).unwrap();
        assert_eq!(decode_entry(&live).unwrap().seq, 1);
    }

    /// A hop was journaled as the image of the instance it left behind
    /// until the record of the hop replaced it. A line in the retired form
    /// is no longer part of the format: it is refused like any damaged
    /// record, never read as a hop.
    #[test]
    fn retired_migrated_image_line_is_corrupt() {
        let inst = StoredInstance::new(InstanceId(2), "t".into(), 2, InstanceState::default());
        let image = serde_json::to_string(&inst).unwrap();
        let line = format!(r#"{{"seq":1,"record":{{"Migrated":{{"record":{image}}}}}}}"#);
        assert!(matches!(
            decode_entry(&line),
            Err(StorageError::Corrupt { .. })
        ));
        // The record of the hop decodes.
        let record = WalRecord::Migrated {
            id: InstanceId(2),
            base_rev: 0,
            to: 2,
            trace: false,
        };
        let live = encode_entry(&WalEntry {
            seq: 1,
            record: record.clone(),
        })
        .unwrap();
        let hop = r#"{"seq":1,"record":{"Migrated":{"id":2,"base_rev":0,"to":2,"trace":false}}}"#;
        assert_eq!(live, hop);
        assert_eq!(decode_entry(hop).unwrap().record, record);
    }

    #[test]
    fn append_assigns_contiguous_sequence() {
        let wal = WriteAheadLog::create_segmented(vec![Box::new(MemoryBackend::new())]).unwrap();
        assert!(wal.enabled());
        let s1 = remove(&wal, 1);
        let s2 = remove(&wal, 2);
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(wal.position(), 2);
    }

    #[test]
    fn open_decodes_entries_and_continues_sequence() {
        let medium = MemoryBackend::new();
        {
            let wal = WriteAheadLog::create_segmented(vec![Box::new(medium.clone())]).unwrap();
            remove(&wal, 1);
            evolve(&wal);
        }
        let (wal, entries, torn) = WriteAheadLog::open_segmented(vec![Box::new(medium)]).unwrap();
        assert_eq!(torn, 0);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].seq, 1);
        assert!(matches!(entries[1].record, WalRecord::Evolved { .. }));
        assert_eq!(wal.position(), 2);
        assert_eq!(remove(&wal, 9), 3);
    }

    #[test]
    fn create_refuses_nonempty_backend() {
        let medium = MemoryBackend::new();
        medium.append_line("{\"seq\":1}").unwrap();
        let err = WriteAheadLog::create_segmented(vec![Box::new(medium)]).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }));
    }

    #[test]
    fn interior_corruption_is_hard_error() {
        let medium = MemoryBackend::new();
        {
            let wal = WriteAheadLog::create_segmented(vec![Box::new(medium.clone())]).unwrap();
            remove(&wal, 1);
            remove(&wal, 2);
        }
        // Damage the FIRST record (complete line, undecodable content).
        let raw = medium.raw();
        let text = String::from_utf8(raw).unwrap();
        let corrupted = text.replacen("\"seq\":1", "\"seq\":garbage", 1);
        medium.set_raw(corrupted.as_bytes());
        let err = WriteAheadLog::open_segmented(vec![Box::new(medium)]).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn torn_tail_is_reported_and_dropped() {
        let medium = MemoryBackend::new();
        {
            let wal = WriteAheadLog::create_segmented(vec![Box::new(medium.clone())]).unwrap();
            remove(&wal, 1);
            remove(&wal, 2);
        }
        let raw = medium.raw();
        medium.set_raw(&raw[..raw.len() - 6]);
        let (wal, entries, torn) = WriteAheadLog::open_segmented(vec![Box::new(medium)]).unwrap();
        assert_eq!(entries.len(), 1, "only the complete record survives");
        assert!(torn > 0);
        assert_eq!(wal.position(), 1);
    }

    #[test]
    fn truncate_keeps_position_and_txn_count() {
        let wal = WriteAheadLog::create_segmented(vec![Box::new(MemoryBackend::new())]).unwrap();
        evolve(&wal);
        let pos = wal.position();
        wal.truncate().unwrap();
        assert_eq!(wal.position(), pos, "position survives the checkpoint");
        assert_eq!(wal.txns(), 1, "the count survives the checkpoint");
        assert_eq!(
            remove(&wal, 3),
            pos + 1,
            "sequence continues across the checkpoint"
        );
    }

    #[test]
    fn segmented_appends_round_robin_and_merge_on_open() {
        let mediums: Vec<MemoryBackend> = (0..4).map(|_| MemoryBackend::new()).collect();
        {
            let wal = WriteAheadLog::create_segmented(boxed(&mediums)).unwrap();
            for i in 1..=8u64 {
                let seq = remove(&wal, i);
                assert_eq!(seq, i, "sequence stays globally ordered");
            }
            assert_eq!(wal.position(), 8);
        }
        // Each segment holds exactly its round-robin share.
        for m in &mediums {
            assert_eq!(m.read_log().unwrap().lines.len(), 2);
        }
        // Reopening merges the segments back into sequence order.
        let (wal, entries, torn) = WriteAheadLog::open_segmented(boxed(&mediums)).unwrap();
        assert_eq!(torn, 0);
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (1..=8).collect::<Vec<u64>>());
        assert_eq!(wal.position(), 8);
        assert_eq!(remove(&wal, 9), 9);
    }

    #[test]
    fn segment_count_must_be_power_of_two() {
        let backends = |n: usize| -> Vec<Box<dyn StorageBackend>> {
            (0..n)
                .map(|_| Box::new(MemoryBackend::new()) as Box<dyn StorageBackend>)
                .collect()
        };
        assert!(WriteAheadLog::create_segmented(backends(3)).is_err());
        assert!(WriteAheadLog::create_segmented(backends(4)).is_ok());
        assert!(WriteAheadLog::open_segmented(backends(6)).is_err());
    }

    #[test]
    fn duplicate_seq_across_segments_is_corrupt() {
        let a = MemoryBackend::new();
        let b = MemoryBackend::new();
        let entry = encode_entry(&WalEntry {
            seq: 1,
            record: WalRecord::Removed { id: InstanceId(1) },
        })
        .unwrap();
        a.append_line(&entry).unwrap();
        b.append_line(&entry).unwrap();
        let err = WriteAheadLog::open_segmented(vec![Box::new(a), Box::new(b)]).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn segmented_torn_tail_repairs_its_segment_only() {
        let mediums: Vec<MemoryBackend> = (0..2).map(|_| MemoryBackend::new()).collect();
        {
            let wal = WriteAheadLog::create_segmented(boxed(&mediums)).unwrap();
            for i in 1..=4u64 {
                remove(&wal, i);
            }
        }
        // Seq 4 lives in segment 1 ((4-1) & 1); tear it mid-record.
        let raw = mediums[1].raw();
        mediums[1].set_raw(&raw[..raw.len() - 6]);
        let (wal, entries, torn) = WriteAheadLog::open_segmented(boxed(&mediums)).unwrap();
        assert!(torn > 0);
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "only the torn record is lost");
        assert_eq!(wal.position(), 3);
    }

    #[test]
    fn durable_marks_close_out_of_order_chains() {
        let mut d = Durable::default();
        d.mark(2);
        assert_eq!(d.upto, 0, "seq 1 still in flight");
        d.mark(1);
        assert_eq!(d.upto, 2, "chain closed through the buffered completion");
        d.mark(4);
        d.mark(5);
        assert_eq!(d.upto, 2);
        d.mark(3);
        assert_eq!(d.upto, 5);
    }

    #[test]
    fn retain_up_to_truncates_all_segments_and_rewinds() {
        let mediums: Vec<MemoryBackend> = (0..2).map(|_| MemoryBackend::new()).collect();
        let wal = WriteAheadLog::create_segmented(boxed(&mediums)).unwrap();
        for i in 1..=6u64 {
            remove(&wal, i);
        }
        let dropped = wal.retain_up_to(3).unwrap();
        assert_eq!(dropped, 3, "seqs 4..=6 removed across both segments");
        assert_eq!(wal.position(), 3);
        assert_eq!(wal.durable_position(), 3);
        assert_eq!(remove(&wal, 9), 4, "sequence resumes after the cut");
        let (_, entries, _) = WriteAheadLog::open_segmented(boxed(&mediums)).unwrap();
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4], "the cut is physical");
    }

    /// A backend that fails exactly one append — and holds that append
    /// until released, so a test can deterministically arrange a later
    /// sequence to become durable first (the CAS-rollback-impossible
    /// window).
    #[derive(Debug)]
    struct FailingOnce {
        inner: MemoryBackend,
        armed: AtomicBool,
        entered: OrderedMutex<Sender<()>>,
        release: OrderedMutex<Receiver<()>>,
    }

    impl FailingOnce {
        /// The backend over `inner`, the receiver that hears the failing
        /// append arrive and the sender that releases it.
        fn new(inner: MemoryBackend) -> (Self, Receiver<()>, Sender<()>) {
            let (entered_tx, entered_rx) = channel();
            let (release_tx, release_rx) = channel();
            let backend = FailingOnce {
                inner,
                armed: AtomicBool::new(true),
                entered: OrderedMutex::new(&classes::TEST_SUPPORT, entered_tx),
                release: OrderedMutex::new(&classes::TEST_SUPPORT, release_rx),
            };
            (backend, entered_rx, release_tx)
        }
    }

    impl StorageBackend for FailingOnce {
        fn append_line(&self, line: &str) -> Result<(), StorageError> {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.entered.lock().send(()).unwrap();
                self.release.lock().recv().unwrap();
                return Err(StorageError::corrupt("injected append failure"));
            }
            self.inner.append_line(line)
        }
        fn sync(&self) -> Result<(), StorageError> {
            self.inner.sync()
        }
        fn read_log(&self) -> Result<RawLog, StorageError> {
            self.inner.read_log()
        }
        fn reset(&self) -> Result<(), StorageError> {
            self.inner.reset()
        }
    }

    #[test]
    fn failed_append_with_later_durable_seq_plugs_a_tombstone() {
        let flaky_medium = MemoryBackend::new();
        let other = MemoryBackend::new();
        let (flaky, entered_rx, release_tx) = FailingOnce::new(flaky_medium.clone());
        let wal = Arc::new(
            WriteAheadLog::create_segmented(vec![Box::new(flaky), Box::new(other.clone())])
                .unwrap(),
        );
        let w = wal.clone();
        // Seq 1 → segment 0 (the failing medium); the appender parks
        // inside the backend holding its allocation.
        let t = std::thread::spawn(move || w.append(WalRecord::Removed { id: InstanceId(1) }));
        entered_rx.recv().unwrap();
        // Seq 2 → segment 1, durable. Now seq 1 can no longer be rolled
        // back by the CAS.
        remove(&wal, 2);
        assert_eq!(wal.durable_position(), 0, "seq 1 still pending");
        release_tx.send(()).unwrap();
        assert!(t.join().unwrap().is_err(), "the append itself still fails");
        assert_eq!(wal.position(), 2);
        assert_eq!(
            wal.durable_position(),
            2,
            "the tombstone closed the chain under seq 2"
        );
        // The abandoned sequence is durably plugged: a reopen sees a
        // contiguous log with a no-op at seq 1.
        let (_, entries, _) =
            WriteAheadLog::open_segmented(vec![Box::new(flaky_medium), Box::new(other)]).unwrap();
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert!(matches!(entries[0].record, WalRecord::Abandoned));
    }

    /// A command's steps are journaled with borrowed writes in exactly the
    /// bytes of the owned record, and decode to it; a line of the retired
    /// form, a difference of the states before and after, is refused.
    #[test]
    fn a_borrowed_delta_journals_the_owned_records_bytes() {
        use adept_model::NodeId;
        let writes = vec![(DataId(0), Value::Int(7))];
        let steps = [
            Step::Start(NodeId(1)),
            Step::Complete(NodeId(1), &writes[..]),
        ];
        let medium = MemoryBackend::new();
        let wal = WriteAheadLog::create_segmented(vec![Box::new(medium.clone())]).unwrap();
        assert_eq!(wal.append_steps(InstanceId(3), 7, &steps).unwrap(), 1);
        let line = medium.read_log().unwrap().lines.remove(0);
        let owned = WalEntry {
            seq: 1,
            record: WalRecord::StateDelta {
                id: InstanceId(3),
                base_rev: 7,
                steps: vec![
                    Step::Start(NodeId(1)),
                    Step::Complete(NodeId(1), writes.clone()),
                ],
            },
        };
        assert_eq!(line, encode_entry(&owned).unwrap());
        assert_eq!(line, serde_json::to_string(&owned).unwrap());
        assert_eq!(decode_entry(&line).unwrap(), owned);
        let expected = r#"{"seq":1,"record":{"StateDelta":{"id":3,"base_rev":7,"steps":[{"Start":[1]},{"Complete":[1,[[0,{"Int":[7]}]]]}]}}}"#;
        assert_eq!(line, expected);
        assert_eq!(
            WriteAheadLog::disabled()
                .append_steps(InstanceId(3), 7, &steps)
                .unwrap(),
            0
        );
        let retired = r#"{"seq":1,"record":{"StateDelta":{"id":3,"base_rev":7,"delta":{"nodes":{"Completed":[1]},"edges":{"TrueSignaled":[1]},"loops":[],"keep":1,"history":[{"Completed":[1,[]]}]}}}}"#;
        assert!(matches!(
            decode_entry(retired),
            Err(StorageError::Corrupt { .. })
        ));
    }

    /// A transaction whose line the medium refuses gives its number back,
    /// unless a concurrent commit has taken the next one meanwhile: then
    /// the number is skipped. Either way numbers stay unique and
    /// increasing.
    #[test]
    fn a_failed_txn_append_returns_or_skips_its_number() {
        // A WAL over a medium that refuses its first append once released.
        let flaky = || {
            let (medium, entered, release) = FailingOnce::new(MemoryBackend::new());
            let wal = WriteAheadLog::create_segmented(vec![Box::new(medium)]).unwrap();
            (Arc::new(wal), entered, release)
        };
        // Alone: the number goes back.
        let (wal, _entered, release) = flaky();
        release.send(()).unwrap();
        assert!(wal.append_evolution("t", 1, txn).is_err());
        assert_eq!(wal.txns(), 0);
        assert_eq!(evolve(&wal), 1);
        // Overtaken: the failing commit parks in the medium holding number
        // 1 while number 2 commits.
        let (wal, entered, release) = flaky();
        let w = wal.clone();
        let t = std::thread::spawn(move || w.append_evolution("t", 1, txn));
        entered.recv().unwrap();
        assert_eq!(evolve(&wal), 2);
        release.send(()).unwrap();
        assert!(t.join().unwrap().is_err());
        assert_eq!(wal.txns(), 2, "number 1 is skipped, not reused");
        assert_eq!(evolve(&wal), 3);
    }
}
