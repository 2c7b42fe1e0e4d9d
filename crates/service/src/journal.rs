//! Crash-consistent durability: event journal, checkpoint/restore, and
//! seeded crash injection.
//!
//! A [`Scheduler`] lives purely in memory; a process crash discards the
//! schedule, the disruption ledger, and the report. This module adds the
//! durability layer:
//!
//! * **Journal** — a versioned, checksummed, append-only byte log
//!   ([`JournalWriter`]) recording every ingested [`Event`] (with its
//!   injected fault) plus a per-epoch outcome digest (the full
//!   [`EpochOutcome`]) or rejection category. Each record carries a
//!   CRC-32, so [`recover`] can tolerate torn writes and truncated
//!   tails by walking the longest valid prefix and reporting *why* it
//!   stopped as a typed [`JournalError`] — corruption is surfaced,
//!   never panicked on and never silently absorbed mid-stream.
//! * **Checkpoint/restore** — [`Scheduler::checkpoint`] snapshots the
//!   canonical service state (jobs, assignments, health, durable
//!   counters, pending injected faults); [`Scheduler::restore`]
//!   rebuilds a scheduler from it. The [`WarmCache`] is deliberately
//!   *not* serialized: its warm state is epoch-local (reset at every
//!   epoch start), so a rebuilt cache replays the journal tail
//!   bit-identically — see `crates/lp`'s `reset_warm_state` for why a
//!   basis snapshot would be both unbounded and unnecessary.
//! * **Crash injection** — a seeded [`CrashPlan`] kills the service at
//!   arbitrary *byte* offsets of the journal (mid-record, mid-epoch,
//!   mid-checkpoint); [`run_with_crashes`] drives kill → truncate →
//!   [`DurableScheduler::recover`] → resume loops and the test suite
//!   asserts the surviving run is bit-identical to an uninterrupted
//!   one.
//!
//! ## Journal format (version 1)
//!
//! ```text
//! header   := "HSJL" version:u16le reserved:u16le          (8 bytes)
//! record   := len:u32le kind:u8 payload[len] crc:u32le
//! crc      := CRC-32 (IEEE, reflected) over len‖kind‖payload
//! kinds    := 1 event · 2 outcome · 3 checkpoint · 4 rejection
//! ```
//!
//! All integers are little-endian; `len` counts payload bytes only and
//! is capped at 16 MiB (a larger length is corruption by definition —
//! checkpoints of realistic services are kilobytes).
//!
//! [`WarmCache`]: lp::WarmCache

use rand::rngs::StdRng;
use rand::Rng;

use crate::ingest::{Ingest, IngestError};
use crate::{
    EpochOutcome, Event, FaultPlan, JobSpec, LatencyStats, Scheduler, ServiceConfig, ServiceError,
    ServiceReport, SolverFault, Tier,
};
use laminar::MachineSet;

const MAGIC: [u8; 4] = *b"HSJL";
const VERSION: u16 = 1;
const HEADER_LEN: usize = 8;
/// Hard cap on a record's payload length; anything larger is treated as
/// a corrupt length field, not an allocation request.
const MAX_PAYLOAD: usize = 16 << 20;

const KIND_EVENT: u8 = 1;
const KIND_OUTCOME: u8 = 2;
const KIND_CHECKPOINT: u8 = 3;
const KIND_REJECTION: u8 = 4;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) — table built at
// compile time; no external dependency.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Byte codec helpers
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Cursor over a record payload. Every read returns `None` past the
/// end; decoders also demand full consumption, so trailing garbage in a
/// CRC-valid record is still malformed, not ignored.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn put_job(out: &mut Vec<u8>, spec: &JobSpec) {
    put_u64(out, spec.id);
    put_u64(out, spec.base);
    match spec.pinned {
        None => out.push(0),
        Some(i) => {
            out.push(1);
            put_u64(out, i as u64);
        }
    }
}

fn read_job(rd: &mut Reader<'_>) -> Option<JobSpec> {
    let id = rd.u64()?;
    let base = rd.u64()?;
    let pinned = match rd.u8()? {
        0 => None,
        1 => Some(usize::try_from(rd.u64()?).ok()?),
        _ => return None,
    };
    Some(JobSpec { id, base, pinned })
}

fn put_event(out: &mut Vec<u8>, event: &Event) {
    match *event {
        Event::Arrive(spec) => {
            out.push(0);
            put_job(out, &spec);
        }
        Event::Depart(id) => {
            out.push(1);
            put_u64(out, id);
        }
        Event::MachineFail(a) => {
            out.push(2);
            put_u64(out, a as u64);
        }
        Event::MachineRecover(a) => {
            out.push(3);
            put_u64(out, a as u64);
        }
    }
}

fn read_event(rd: &mut Reader<'_>) -> Option<Event> {
    Some(match rd.u8()? {
        0 => Event::Arrive(read_job(rd)?),
        1 => Event::Depart(rd.u64()?),
        2 => Event::MachineFail(usize::try_from(rd.u64()?).ok()?),
        3 => Event::MachineRecover(usize::try_from(rd.u64()?).ok()?),
        _ => return None,
    })
}

fn fault_code(fault: Option<SolverFault>) -> u8 {
    match fault {
        None => 0,
        Some(SolverFault::PoisonWarmHint) => 1,
        Some(SolverFault::ForceCertFailure) => 2,
        Some(SolverFault::DeadlineOverrun) => 3,
    }
}

fn fault_from(code: u8) -> Option<Option<SolverFault>> {
    Some(match code {
        0 => None,
        1 => Some(SolverFault::PoisonWarmHint),
        2 => Some(SolverFault::ForceCertFailure),
        3 => Some(SolverFault::DeadlineOverrun),
        _ => return None,
    })
}

fn tier_code(tier: Tier) -> u8 {
    match tier {
        Tier::Warm => 0,
        Tier::Cold => 1,
        Tier::Degraded => 2,
    }
}

fn tier_from(code: u8) -> Option<Tier> {
    Some(match code {
        0 => Tier::Warm,
        1 => Tier::Cold,
        2 => Tier::Degraded,
        _ => return None,
    })
}

fn put_outcome(out: &mut Vec<u8>, o: &EpochOutcome) {
    put_u64(out, o.event_index as u64);
    out.push(tier_code(o.tier));
    put_u64(out, o.t_epoch);
    put_u64(out, o.t_star);
    match o.t_greedy {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            put_u64(out, t);
        }
    }
    put_u64(out, o.moved as u64);
    put_u64(out, o.quarantined_now as u64);
    put_u64(out, o.split_migrations as u64);
    put_u64(out, o.disruptions_total as u64);
}

fn read_outcome(rd: &mut Reader<'_>) -> Option<EpochOutcome> {
    let event_index = usize::try_from(rd.u64()?).ok()?;
    let tier = tier_from(rd.u8()?)?;
    let t_epoch = rd.u64()?;
    let t_star = rd.u64()?;
    let t_greedy = match rd.u8()? {
        0 => None,
        1 => Some(rd.u64()?),
        _ => return None,
    };
    Some(EpochOutcome {
        event_index,
        tier,
        t_epoch,
        t_star,
        t_greedy,
        moved: usize::try_from(rd.u64()?).ok()?,
        quarantined_now: usize::try_from(rd.u64()?).ok()?,
        split_migrations: usize::try_from(rd.u64()?).ok()?,
        disruptions_total: usize::try_from(rd.u64()?).ok()?,
    })
}

/// The durable counters of a [`ServiceReport`], in declaration order.
/// `latency` is excluded on purpose — it is measurement, not state, and
/// a restored service starts a fresh series.
fn report_counters(r: &ServiceReport) -> [usize; 35] {
    [
        r.events,
        r.arrivals,
        r.departures,
        r.failures,
        r.recoveries,
        r.epochs_tier1,
        r.epochs_tier2,
        r.epochs_tier3,
        r.faults_injected,
        r.hint_poisons,
        r.cert_faults,
        r.cert_faults_pending,
        r.deadline_faults,
        r.warm_fallbacks,
        r.hybrid_certified,
        r.hybrid_fallbacks,
        r.factor_reuses,
        r.budget_exhaustions,
        r.reassignments,
        r.max_arrival_moves,
        r.max_departure_moves,
        r.max_split_migrations,
        r.max_disruption_total,
        r.quarantine_entries,
        r.readmissions,
        r.quarantine_peak,
        r.final_active,
        r.final_quarantined,
        r.rejected_events,
        r.rejected_duplicate_id,
        r.rejected_unknown_job,
        r.rejected_zero_size,
        r.rejected_bad_pin,
        r.rejected_unknown_set,
        r.rejected_incoherent,
    ]
}

fn report_from_counters(c: [usize; 35]) -> ServiceReport {
    ServiceReport {
        events: c[0],
        arrivals: c[1],
        departures: c[2],
        failures: c[3],
        recoveries: c[4],
        epochs_tier1: c[5],
        epochs_tier2: c[6],
        epochs_tier3: c[7],
        faults_injected: c[8],
        hint_poisons: c[9],
        cert_faults: c[10],
        cert_faults_pending: c[11],
        deadline_faults: c[12],
        warm_fallbacks: c[13],
        hybrid_certified: c[14],
        hybrid_fallbacks: c[15],
        factor_reuses: c[16],
        budget_exhaustions: c[17],
        reassignments: c[18],
        max_arrival_moves: c[19],
        max_departure_moves: c[20],
        max_split_migrations: c[21],
        max_disruption_total: c[22],
        quarantine_entries: c[23],
        readmissions: c[24],
        quarantine_peak: c[25],
        final_active: c[26],
        final_quarantined: c[27],
        rejected_events: c[28],
        rejected_duplicate_id: c[29],
        rejected_unknown_job: c[30],
        rejected_zero_size: c[31],
        rejected_bad_pin: c[32],
        rejected_unknown_set: c[33],
        rejected_incoherent: c[34],
        latency: LatencyStats::default(),
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a journal byte stream could not be read (further). Offsets are
/// byte positions into the journal, so operators can localize damage.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// The bytes do not start with the journal magic — this is not a
    /// journal (or its first bytes were overwritten), so there is no
    /// prefix to recover.
    BadMagic,
    /// A journal written by a format version this build cannot read.
    UnsupportedVersion {
        /// The version found in the header.
        version: u16,
    },
    /// The header itself was torn (fewer than 8 bytes, but a valid
    /// prefix of one) — recoverable as an empty journal.
    TruncatedHeader,
    /// A record frame extends past the end of the bytes (torn write).
    TruncatedRecord {
        /// Byte offset of the torn record.
        offset: usize,
    },
    /// A record length exceeds the format cap — a corrupt length field.
    OversizedRecord {
        /// Byte offset of the record.
        offset: usize,
        /// The (impossible) payload length it claimed.
        len: usize,
    },
    /// A record's CRC does not match its contents.
    ChecksumMismatch {
        /// Byte offset of the record.
        offset: usize,
    },
    /// A CRC-valid record of a kind this build does not know (likely a
    /// journal from a newer build).
    UnknownRecordKind {
        /// Byte offset of the record.
        offset: usize,
        /// The unknown kind byte.
        kind: u8,
    },
    /// A CRC-valid record whose payload does not decode (foreign or
    /// buggy writer).
    MalformedRecord {
        /// Byte offset of the record.
        offset: usize,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::BadMagic => write!(f, "not a journal: bad magic"),
            JournalError::UnsupportedVersion { version } => {
                write!(f, "unsupported journal version {version}")
            }
            JournalError::TruncatedHeader => write!(f, "journal header torn"),
            JournalError::TruncatedRecord { offset } => {
                write!(f, "record at byte {offset} torn")
            }
            JournalError::OversizedRecord { offset, len } => {
                write!(f, "record at byte {offset} claims {len}-byte payload")
            }
            JournalError::ChecksumMismatch { offset } => {
                write!(f, "record at byte {offset} fails its checksum")
            }
            JournalError::UnknownRecordKind { offset, kind } => {
                write!(f, "record at byte {offset} has unknown kind {kind}")
            }
            JournalError::MalformedRecord { offset } => {
                write!(f, "record at byte {offset} has a malformed payload")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Why [`Scheduler::restore`] refused a checkpoint.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// The checkpoint was taken under a different configuration (the
    /// named aspect differs); replaying it here would silently change
    /// the service's semantics.
    ConfigMismatch {
        /// Which configuration aspect differs.
        what: &'static str,
    },
    /// The checkpoint is internally inconsistent (the named invariant
    /// fails) — a decoded-but-damaged or hand-forged snapshot.
    Inconsistent {
        /// Which invariant fails.
        what: &'static str,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::ConfigMismatch { what } => {
                write!(f, "checkpoint taken under a different configuration: {what}")
            }
            RestoreError::Inconsistent { what } => {
                write!(f, "checkpoint internally inconsistent: {what}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Why [`DurableScheduler::recover`] could not rebuild a service from a
/// journal.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// The journal's identity is unreadable (bad magic / foreign
    /// version) — nothing to recover.
    Journal(JournalError),
    /// The last checkpoint in the journal failed validation.
    Restore(RestoreError),
    /// Record sequence numbers are not the expected consecutive run —
    /// records were duplicated, dropped, or reordered while keeping
    /// their CRCs (e.g. a copy-paste splice of journal regions).
    OutOfOrder {
        /// The sequence number found.
        seq: u64,
        /// The sequence number required here.
        expected: u64,
    },
    /// An event record in the journal's *interior* has no
    /// outcome/rejection confirmation. Only the final event may be
    /// unconfirmed (a crash between the two appends); mid-journal it
    /// means records were lost.
    MissingConfirmation {
        /// The unconfirmed event's sequence number.
        seq: u64,
    },
    /// Replaying an event produced a different outcome than the journal
    /// recorded — the journal and this build (or this configuration)
    /// disagree, and recovered state would not be the original state.
    ReplayDivergence {
        /// The diverging event's sequence number.
        seq: u64,
    },
    /// Replay tripped a service invariant (the journaled run would have
    /// aborted at the same event).
    Service(ServiceError),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Journal(e) => write!(f, "journal unreadable: {e}"),
            RecoveryError::Restore(e) => write!(f, "checkpoint rejected: {e}"),
            RecoveryError::OutOfOrder { seq, expected } => {
                write!(f, "record sequence {seq} where {expected} was expected")
            }
            RecoveryError::MissingConfirmation { seq } => {
                write!(f, "interior event #{seq} has no outcome record")
            }
            RecoveryError::ReplayDivergence { seq } => {
                write!(f, "replay of event #{seq} diverges from the journaled outcome")
            }
            RecoveryError::Service(e) => write!(f, "replay failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

// ---------------------------------------------------------------------------
// Records and recovery scan
// ---------------------------------------------------------------------------

/// One decoded journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// An ingested event, journaled *before* it is applied.
    Event {
        /// Ingest sequence number (applied + rejected events).
        seq: u64,
        /// The event itself.
        event: Event,
        /// The solver fault injected at this epoch, if any.
        fault: Option<SolverFault>,
    },
    /// The epoch outcome confirming event `seq` was applied.
    Outcome {
        /// The confirmed event's sequence number.
        seq: u64,
        /// The full outcome digest (replay is cross-checked against it).
        outcome: EpochOutcome,
    },
    /// A full state snapshot; recovery restores from the last one.
    Checkpoint(Box<Checkpoint>),
    /// The rejection category confirming event `seq` was screened out
    /// by the hardened ingest.
    Rejection {
        /// The confirmed event's sequence number.
        seq: u64,
        /// [`IngestError`] category code.
        code: u8,
    },
}

fn decode_payload(kind: u8, payload: &[u8]) -> Option<Record> {
    let mut rd = Reader::new(payload);
    let record = match kind {
        KIND_EVENT => {
            let seq = rd.u64()?;
            let fault = fault_from(rd.u8()?)?;
            let event = read_event(&mut rd)?;
            Record::Event { seq, event, fault }
        }
        KIND_OUTCOME => {
            let seq = rd.u64()?;
            let outcome = read_outcome(&mut rd)?;
            Record::Outcome { seq, outcome }
        }
        KIND_CHECKPOINT => Record::Checkpoint(Box::new(read_checkpoint(&mut rd)?)),
        KIND_REJECTION => {
            let seq = rd.u64()?;
            let code = rd.u8()?;
            if code > 6 {
                return None;
            }
            Record::Rejection { seq, code }
        }
        _ => return None,
    };
    rd.done().then_some(record)
}

/// The longest valid prefix of a journal byte stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recovery {
    /// Decoded records with their byte offsets, in journal order.
    pub records: Vec<(usize, Record)>,
    /// Bytes of the valid prefix (a safe truncation point for resuming
    /// appends).
    pub valid_len: usize,
    /// Why the scan stopped before the end of the bytes (`None`: the
    /// whole journal is valid). Everything before `valid_len` is intact
    /// regardless.
    pub tail: Option<JournalError>,
}

/// Walk a journal byte stream and recover its longest valid prefix.
///
/// Only an unreadable *identity* (bad magic, foreign version) is a hard
/// `Err` — those bytes are not ours to reinterpret. Every other form of
/// damage (torn header, torn/oversized/corrupt/unknown/malformed
/// record) yields `Ok` with the intact prefix and the typed reason in
/// [`Recovery::tail`]. Records after the first damaged byte are
/// unreachable by design: framing cannot be trusted across a corrupt
/// length field.
pub fn recover(bytes: &[u8]) -> Result<Recovery, JournalError> {
    if bytes.len() < HEADER_LEN {
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&0u16.to_le_bytes());
        return if bytes == &header[..bytes.len()] {
            Ok(Recovery {
                records: Vec::new(),
                valid_len: 0,
                tail: Some(JournalError::TruncatedHeader),
            })
        } else {
            Err(JournalError::BadMagic)
        };
    }
    if bytes[..4] != MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(JournalError::UnsupportedVersion { version });
    }
    // bytes[6..8] are reserved: written as zero, ignored on read.

    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    let tail = loop {
        if pos == bytes.len() {
            break None;
        }
        let Some(len_bytes) = bytes.get(pos..pos + 4) else {
            break Some(JournalError::TruncatedRecord { offset: pos });
        };
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD {
            break Some(JournalError::OversizedRecord { offset: pos, len });
        }
        // Frame: len(4) + kind(1) + payload(len) + crc(4).
        let body_end = pos + 5 + len;
        let Some(stored) = bytes.get(body_end..body_end + 4) else {
            break Some(JournalError::TruncatedRecord { offset: pos });
        };
        let stored = u32::from_le_bytes(stored.try_into().expect("4 bytes"));
        if crc32(&bytes[pos..body_end]) != stored {
            break Some(JournalError::ChecksumMismatch { offset: pos });
        }
        let kind = bytes[pos + 4];
        if !matches!(kind, KIND_EVENT | KIND_OUTCOME | KIND_CHECKPOINT | KIND_REJECTION) {
            break Some(JournalError::UnknownRecordKind { offset: pos, kind });
        }
        match decode_payload(kind, &bytes[pos + 5..body_end]) {
            Some(record) => records.push((pos, record)),
            None => break Some(JournalError::MalformedRecord { offset: pos }),
        }
        pos = body_end + 4;
    };
    Ok(Recovery { records, valid_len: pos, tail })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Append-only journal byte buffer. In-memory by construction (this
/// repo has no I/O dependencies); persisting is the caller's one-line
/// concern, and the crash tests cut the buffer at arbitrary byte
/// offsets to model torn writes exactly as a file would tear.
#[derive(Clone, Debug)]
pub struct JournalWriter {
    buf: Vec<u8>,
}

impl JournalWriter {
    /// A fresh journal: header only.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        JournalWriter { buf }
    }

    /// Resume appending after a validated prefix (see [`recover`]). A
    /// prefix shorter than the header restarts the journal from scratch.
    fn from_valid_prefix(prefix: &[u8]) -> Self {
        if prefix.len() < HEADER_LEN {
            JournalWriter::new()
        } else {
            JournalWriter { buf: prefix.to_vec() }
        }
    }

    fn append_record(&mut self, kind: u8, payload: &[u8]) {
        let start = self.buf.len();
        put_u32(&mut self.buf, u32::try_from(payload.len()).expect("payload fits u32"));
        self.buf.push(kind);
        self.buf.extend_from_slice(payload);
        let crc = crc32(&self.buf[start..]);
        put_u32(&mut self.buf, crc);
    }

    /// Journal an event (with its injected fault) *before* applying it.
    pub fn append_event(&mut self, seq: u64, event: &Event, fault: Option<SolverFault>) {
        let mut payload = Vec::with_capacity(32);
        put_u64(&mut payload, seq);
        payload.push(fault_code(fault));
        put_event(&mut payload, event);
        self.append_record(KIND_EVENT, &payload);
    }

    /// Journal the outcome digest confirming event `seq` was applied.
    pub fn append_outcome(&mut self, seq: u64, outcome: &EpochOutcome) {
        let mut payload = Vec::with_capacity(80);
        put_u64(&mut payload, seq);
        put_outcome(&mut payload, outcome);
        self.append_record(KIND_OUTCOME, &payload);
    }

    /// Journal the rejection confirming event `seq` was screened out.
    pub fn append_rejection(&mut self, seq: u64, error: &IngestError) {
        let mut payload = Vec::with_capacity(16);
        put_u64(&mut payload, seq);
        payload.push(error.code());
        self.append_record(KIND_REJECTION, &payload);
    }

    /// Journal a full state snapshot.
    pub fn append_checkpoint(&mut self, ck: &Checkpoint) {
        let mut payload = Vec::with_capacity(256);
        put_checkpoint(&mut payload, ck);
        self.append_record(KIND_CHECKPOINT, &payload);
    }

    /// The journal bytes so far (header + records).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Total journal size in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when the journal holds no records (header only).
    pub fn is_empty(&self) -> bool {
        self.buf.len() == HEADER_LEN
    }
}

impl Default for JournalWriter {
    fn default() -> Self {
        JournalWriter::new()
    }
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

/// The configuration aspects a checkpoint is only valid under. Restore
/// refuses a fingerprint mismatch: replaying a journal against a
/// different topology or cost model would *decode* fine and then
/// silently compute different schedules.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Fingerprint {
    machines: u32,
    sets: u32,
    ovh_num: u64,
    ovh_den: u64,
    budget: Option<u64>,
    rebalance: bool,
}

impl Fingerprint {
    fn of(cfg: &ServiceConfig) -> Self {
        Fingerprint {
            machines: cfg.family.num_machines() as u32,
            sets: cfg.family.len() as u32,
            ovh_num: cfg.ovh_num,
            ovh_den: cfg.ovh_den,
            budget: cfg.budget.map(|b| b as u64),
            rebalance: cfg.rebalance,
        }
    }
}

/// A canonical snapshot of [`Scheduler`] state: jobs and assignments,
/// quarantine, health, the durable report counters, and the count of
/// armed-but-unconsumed injected certification faults. The warm cache
/// is *not* part of it — its state is epoch-local and rebuilt (see the
/// module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    fp: Fingerprint,
    seq: u64,
    events_seen: u64,
    active: Vec<JobSpec>,
    masks: Vec<u64>,
    quarantined: Vec<JobSpec>,
    failed: Vec<u64>,
    healthy: Vec<u64>,
    report: ServiceReport,
    pending_cert_faults: u64,
}

impl Checkpoint {
    /// The ingest sequence number this snapshot covers: every event
    /// with `seq < self.seq()` is folded in; replay resumes at
    /// `self.seq()`.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

fn put_checkpoint(out: &mut Vec<u8>, ck: &Checkpoint) {
    put_u32(out, ck.fp.machines);
    put_u32(out, ck.fp.sets);
    put_u64(out, ck.fp.ovh_num);
    put_u64(out, ck.fp.ovh_den);
    match ck.fp.budget {
        None => out.push(0),
        Some(b) => {
            out.push(1);
            put_u64(out, b);
        }
    }
    // A retired pricing-rule byte, kept so the format is unchanged.
    out.push(0);
    out.push(ck.fp.rebalance as u8);
    put_u64(out, ck.seq);
    put_u64(out, ck.events_seen);
    let put_jobs = |out: &mut Vec<u8>, jobs: &[JobSpec]| {
        put_u32(out, jobs.len() as u32);
        for j in jobs {
            put_job(out, j);
        }
    };
    let put_u64s = |out: &mut Vec<u8>, vals: &[u64]| {
        put_u32(out, vals.len() as u32);
        for &v in vals {
            put_u64(out, v);
        }
    };
    put_jobs(out, &ck.active);
    put_u64s(out, &ck.masks);
    put_jobs(out, &ck.quarantined);
    put_u64s(out, &ck.failed);
    put_u64s(out, &ck.healthy);
    for v in report_counters(&ck.report) {
        put_u64(out, v as u64);
    }
    put_u64(out, ck.pending_cert_faults);
}

/// Bound on decoded list lengths: a million jobs or sets in one
/// checkpoint is corruption, not scale.
const MAX_LIST: u32 = 1 << 20;

fn read_checkpoint(rd: &mut Reader<'_>) -> Option<Checkpoint> {
    let machines = rd.u32()?;
    let sets = rd.u32()?;
    let ovh_num = rd.u64()?;
    let ovh_den = rd.u64()?;
    let budget = match rd.u8()? {
        0 => None,
        1 => Some(rd.u64()?),
        _ => return None,
    };
    if rd.u8()? != 0 {
        return None;
    }
    let rebalance = match rd.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let seq = rd.u64()?;
    let events_seen = rd.u64()?;
    let read_jobs = |rd: &mut Reader<'_>| -> Option<Vec<JobSpec>> {
        let n = rd.u32()?;
        if n > MAX_LIST {
            return None;
        }
        (0..n).map(|_| read_job(rd)).collect()
    };
    let read_u64s = |rd: &mut Reader<'_>| -> Option<Vec<u64>> {
        let n = rd.u32()?;
        if n > MAX_LIST {
            return None;
        }
        (0..n).map(|_| rd.u64()).collect()
    };
    let active = read_jobs(rd)?;
    let masks = read_u64s(rd)?;
    let quarantined = read_jobs(rd)?;
    let failed = read_u64s(rd)?;
    let healthy = read_u64s(rd)?;
    let mut counters = [0usize; 35];
    for c in counters.iter_mut() {
        *c = usize::try_from(rd.u64()?).ok()?;
    }
    let pending_cert_faults = rd.u64()?;
    Some(Checkpoint {
        fp: Fingerprint { machines, sets, ovh_num, ovh_den, budget, rebalance },
        seq,
        events_seen,
        active,
        masks,
        quarantined,
        failed,
        healthy,
        report: report_from_counters(counters),
        pending_cert_faults,
    })
}

impl Scheduler {
    /// Snapshot the canonical service state. The warm cache and the
    /// latency series are deliberately excluded (rebuilt and restarted
    /// respectively); pending injected certification faults *are*
    /// included so a restored service replays faults identically.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            fp: Fingerprint::of(&self.cfg),
            seq: (self.report.events + self.report.rejected_events) as u64,
            events_seen: self.events_seen as u64,
            active: self.active.clone(),
            masks: self.masks.iter().map(|&a| a as u64).collect(),
            quarantined: self.quarantined.clone(),
            failed: self.failed.iter().map(|&a| a as u64).collect(),
            healthy: self.healthy.words().to_vec(),
            report: self.report.clone(),
            pending_cert_faults: self.cache.pending_forced_cert_failures() as u64,
        }
    }

    /// Rebuild a service from a checkpoint taken under the same
    /// configuration. The warm cache starts fresh (epoch-local state;
    /// see the module docs) with the checkpointed pending faults
    /// re-armed, so replaying the journal tail is bit-identical to the
    /// uninterrupted run.
    pub fn restore(cfg: ServiceConfig, ck: &Checkpoint) -> Result<Scheduler, RestoreError> {
        let fp = Fingerprint::of(&cfg);
        let mismatch = |what| Err(RestoreError::ConfigMismatch { what });
        if ck.fp.machines != fp.machines {
            return mismatch("machine count");
        }
        if ck.fp.sets != fp.sets {
            return mismatch("family size");
        }
        if (ck.fp.ovh_num, ck.fp.ovh_den) != (fp.ovh_num, fp.ovh_den) {
            return mismatch("overhead model");
        }
        if ck.fp.budget != fp.budget {
            return mismatch("pivot budget");
        }
        if ck.fp.rebalance != fp.rebalance {
            return mismatch("rebalance policy");
        }

        let m = cfg.family.num_machines();
        let sets = cfg.family.len();
        let bad = |what| Err(RestoreError::Inconsistent { what });
        if ck.masks.len() != ck.active.len() {
            return bad("masks must parallel active jobs");
        }
        if ck.masks.iter().any(|&a| a >= sets as u64) {
            return bad("assigned set outside the family");
        }
        if ck.failed.iter().any(|&a| a >= sets as u64) {
            return bad("failed set outside the family");
        }
        if ck.healthy.len() != MachineSet::full(m).words().len() {
            return bad("healthy bitmask word count");
        }
        let mut healthy = MachineSet::empty(m);
        for (w, &word) in ck.healthy.iter().enumerate() {
            for b in 0..64 {
                if word & (1 << b) != 0 {
                    let i = w * 64 + b;
                    if i >= m {
                        return bad("healthy bit outside the machine range");
                    }
                    healthy.insert(i);
                }
            }
        }
        for spec in ck.active.iter().chain(ck.quarantined.iter()) {
            if spec.base == 0 {
                return bad("zero-size job");
            }
            if spec.pinned.is_some_and(|i| i >= m) {
                return bad("job pinned outside the machine range");
            }
        }
        if ck.events_seen != ck.report.events as u64 {
            return bad("event count disagrees with the report");
        }
        if ck.seq != (ck.report.events + ck.report.rejected_events) as u64 {
            return bad("sequence number disagrees with the report");
        }

        let mut s = Scheduler::new(cfg);
        s.active = ck.active.clone();
        s.masks = ck.masks.iter().map(|&a| a as usize).collect();
        s.quarantined = ck.quarantined.clone();
        s.failed = ck.failed.iter().map(|&a| a as usize).collect();
        s.healthy = healthy;
        s.report = ck.report.clone();
        s.events_seen = ck.events_seen as usize;
        s.cache.force_certification_failures(ck.pending_cert_faults as usize);
        Ok(s)
    }
}

// ---------------------------------------------------------------------------
// Durable scheduler
// ---------------------------------------------------------------------------

/// A [`Scheduler`] wrapped in write-ahead journaling: each untrusted
/// event is journaled *before* it is applied (hardened ingest path) and
/// confirmed with an outcome/rejection record after; a checkpoint is
/// appended every `checkpoint_every` events. Kill the process at any
/// byte of the journal and [`DurableScheduler::recover`] rebuilds a
/// service that continues bit-identically.
pub struct DurableScheduler {
    inner: Scheduler,
    journal: JournalWriter,
    seq: u64,
    checkpoint_every: usize,
    since_checkpoint: usize,
    checkpoints: usize,
}

/// What [`DurableScheduler::recover`] did.
#[derive(Clone, Debug)]
pub struct RecoveryInfo {
    /// Sequence number of the restored checkpoint (0: none found,
    /// replayed from genesis).
    pub checkpoint_seq: u64,
    /// Events replayed from the journal tail after the checkpoint.
    pub replayed: usize,
    /// The next event the service expects (`= seq` of the recovered
    /// scheduler).
    pub next_seq: u64,
    /// Journal damage that bounded the recovery, if any (the prefix
    /// before it was recovered in full).
    pub tail: Option<JournalError>,
    /// Per-event results of the replay, for equivalence checks.
    pub outcomes: Vec<(u64, Ingest)>,
}

impl DurableScheduler {
    /// A fresh journaled service. `checkpoint_every = 0` disables
    /// periodic checkpoints (recovery then replays from genesis).
    pub fn new(cfg: ServiceConfig, checkpoint_every: usize) -> Self {
        DurableScheduler {
            inner: Scheduler::new(cfg),
            journal: JournalWriter::new(),
            seq: 0,
            checkpoint_every,
            since_checkpoint: 0,
            checkpoints: 0,
        }
    }

    /// Journal, validate, apply (or reject), confirm — the durable
    /// hardened ingest. See [`Scheduler::ingest`] for the semantics of
    /// the result.
    pub fn ingest(
        &mut self,
        event: &Event,
        fault: Option<SolverFault>,
    ) -> Result<Ingest, ServiceError> {
        self.journal.append_event(self.seq, event, fault);
        let res = self.inner.ingest(event, fault)?;
        match &res {
            Ingest::Applied(outcome) => self.journal.append_outcome(self.seq, outcome),
            Ingest::Rejected(error) => self.journal.append_rejection(self.seq, error),
        }
        self.seq += 1;
        self.since_checkpoint += 1;
        if self.checkpoint_every > 0 && self.since_checkpoint >= self.checkpoint_every {
            self.checkpoint_now();
        }
        Ok(res)
    }

    /// Append a checkpoint immediately (also called periodically by
    /// [`DurableScheduler::ingest`]).
    pub fn checkpoint_now(&mut self) {
        self.journal.append_checkpoint(&self.inner.checkpoint());
        self.since_checkpoint = 0;
        self.checkpoints += 1;
    }

    /// The journal bytes accumulated so far.
    pub fn journal_bytes(&self) -> &[u8] {
        self.journal.as_bytes()
    }

    /// The wrapped scheduler (read-only; mutate through
    /// [`DurableScheduler::ingest`] so the journal stays ahead of the
    /// state).
    pub fn scheduler(&self) -> &Scheduler {
        &self.inner
    }

    /// The wrapped scheduler's report.
    pub fn report(&self) -> ServiceReport {
        self.inner.report()
    }

    /// The next event sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Checkpoints written over this service's lifetime (including ones
    /// recovered from the journal).
    pub fn checkpoints_written(&self) -> usize {
        self.checkpoints
    }

    /// Rebuild a service from journal bytes: recover the longest valid
    /// prefix, restore the last checkpoint in it (or start from
    /// genesis), replay the tail cross-checking every outcome digest,
    /// and resume the journal at the recovered prefix. A final
    /// unconfirmed event (crash between the event and its confirmation)
    /// is replayed and its confirmation is appended.
    pub fn recover(
        cfg: ServiceConfig,
        bytes: &[u8],
        checkpoint_every: usize,
    ) -> Result<(Self, RecoveryInfo), RecoveryError> {
        let scan = recover(bytes).map_err(RecoveryError::Journal)?;

        let mut base: Option<&Checkpoint> = None;
        let mut base_pos = 0;
        let mut checkpoints = 0;
        for (i, (_, record)) in scan.records.iter().enumerate() {
            if let Record::Checkpoint(ck) = record {
                base = Some(ck);
                base_pos = i + 1;
                checkpoints += 1;
            }
        }

        let mut inner = match base {
            Some(ck) => Scheduler::restore(cfg, ck).map_err(RecoveryError::Restore)?,
            None => Scheduler::new(cfg),
        };
        let checkpoint_seq = base.map_or(0, |ck| ck.seq);
        let mut expected = checkpoint_seq;
        let mut outcomes = Vec::new();
        let mut unconfirmed: Option<(u64, Ingest)> = None;

        let mut i = base_pos;
        while i < scan.records.len() {
            match &scan.records[i].1 {
                Record::Event { seq, event, fault } => {
                    if *seq != expected {
                        return Err(RecoveryError::OutOfOrder { seq: *seq, expected });
                    }
                    let res = inner.ingest(event, *fault).map_err(RecoveryError::Service)?;
                    match scan.records.get(i + 1).map(|(_, r)| r) {
                        Some(Record::Outcome { seq: cseq, outcome }) => {
                            if *cseq != expected {
                                return Err(RecoveryError::OutOfOrder { seq: *cseq, expected });
                            }
                            if !matches!(&res, Ingest::Applied(o) if o == outcome) {
                                return Err(RecoveryError::ReplayDivergence { seq: expected });
                            }
                            i += 1;
                        }
                        Some(Record::Rejection { seq: cseq, code }) => {
                            if *cseq != expected {
                                return Err(RecoveryError::OutOfOrder { seq: *cseq, expected });
                            }
                            if !matches!(&res, Ingest::Rejected(e) if e.code() == *code) {
                                return Err(RecoveryError::ReplayDivergence { seq: expected });
                            }
                            i += 1;
                        }
                        Some(_) => {
                            // An interior event with no confirmation:
                            // records were lost, not torn.
                            return Err(RecoveryError::MissingConfirmation { seq: expected });
                        }
                        None => {
                            // Torn between the event and its
                            // confirmation — legal only here, at the
                            // very end.
                            unconfirmed = Some((expected, res.clone()));
                        }
                    }
                    outcomes.push((expected, res));
                    expected += 1;
                }
                Record::Outcome { seq, .. } | Record::Rejection { seq, .. } => {
                    // A confirmation with no preceding event record.
                    return Err(RecoveryError::OutOfOrder { seq: *seq, expected });
                }
                // `base` is the *last* checkpoint, so none can follow
                // `base_pos`; kept for match exhaustiveness.
                Record::Checkpoint(_) => {}
            }
            i += 1;
        }

        let mut journal = JournalWriter::from_valid_prefix(&bytes[..scan.valid_len]);
        if let Some((seq, res)) = unconfirmed {
            match &res {
                Ingest::Applied(outcome) => journal.append_outcome(seq, outcome),
                Ingest::Rejected(error) => journal.append_rejection(seq, error),
            }
        }

        let replayed = outcomes.len();
        let info = RecoveryInfo {
            checkpoint_seq,
            replayed,
            next_seq: expected,
            tail: scan.tail,
            outcomes,
        };
        let recovered = DurableScheduler {
            inner,
            journal,
            seq: expected,
            checkpoint_every,
            since_checkpoint: 0,
            checkpoints,
        };
        Ok((recovered, info))
    }
}

// ---------------------------------------------------------------------------
// Crash injection
// ---------------------------------------------------------------------------

/// One injected kill: after `after_events` stream events have been
/// ingested, the process "dies" and only the first `keep_permille`/1000
/// of the journal bytes survive — an arbitrary byte offset, so kills
/// land mid-record, mid-epoch (between an event and its confirmation),
/// and mid-checkpoint.
#[derive(Clone, Copy, Debug)]
pub struct CrashPoint {
    /// Stream position (events ingested) at which the kill fires.
    pub after_events: usize,
    /// Journal bytes surviving the kill, in thousandths (0–1000).
    pub keep_permille: u32,
}

/// A seeded schedule of kills for [`run_with_crashes`].
#[derive(Clone, Debug, Default)]
pub struct CrashPlan {
    /// The kills, in stream order.
    pub kills: Vec<CrashPoint>,
}

impl CrashPlan {
    /// A plan with no kills (the uninterrupted baseline).
    pub fn none() -> Self {
        CrashPlan::default()
    }

    /// `kills` kills at uniformly random stream positions of an
    /// `events`-long stream, each surviving a uniformly random fraction
    /// of the journal.
    pub fn seeded(kills: usize, events: usize, rng: &mut StdRng) -> Self {
        let mut points: Vec<CrashPoint> = (0..kills)
            .map(|_| CrashPoint {
                after_events: rng.gen_range(0..events.max(1)),
                keep_permille: rng.gen_range(0..=1000),
            })
            .collect();
        points.sort_by_key(|p| p.after_events);
        CrashPlan { kills: points }
    }
}

/// What a crash-injected run survived. The equivalence contract: for
/// any crash plan, `report` and `outcomes` are bit-identical to the
/// [`CrashPlan::none`] run of the same stream and fault plan.
#[derive(Clone, Debug)]
pub struct SoakOutcome {
    /// Final report of the surviving service.
    pub report: ServiceReport,
    /// Final per-event results, one per stream event.
    pub outcomes: Vec<Ingest>,
    /// Kills injected.
    pub crashes: usize,
    /// Events replayed from journal tails across all recoveries.
    pub replayed_events: usize,
    /// Checkpoints written over the whole run.
    pub checkpoints_written: usize,
    /// Final journal size in bytes.
    pub journal_bytes: usize,
}

/// Drive a [`DurableScheduler`] through an event stream while a
/// [`CrashPlan`] kills it: at each crash point the journal is truncated
/// to the surviving bytes, the service is rebuilt with
/// [`DurableScheduler::recover`], and ingestion resumes where the
/// recovered state says it should — re-ingesting exactly the events
/// whose durable confirmation was lost.
pub fn run_with_crashes(
    cfg: &ServiceConfig,
    events: &[Event],
    plan: &FaultPlan,
    crash: &CrashPlan,
    checkpoint_every: usize,
) -> Result<SoakOutcome, RecoveryError> {
    let mut ds = DurableScheduler::new(cfg.clone(), checkpoint_every);
    let mut outcomes: Vec<Option<Ingest>> = vec![None; events.len()];
    let mut kills = crash.kills.iter().peekable();
    let mut crashes = 0;
    let mut replayed = 0;
    let mut i = 0;
    loop {
        if let Some(k) = kills.peek() {
            if i >= k.after_events {
                let keep = (ds.journal_bytes().len() * k.keep_permille.min(1000) as usize) / 1000;
                let surviving = ds.journal_bytes()[..keep].to_vec();
                let (recovered, info) =
                    DurableScheduler::recover(cfg.clone(), &surviving, checkpoint_every)?;
                for (seq, res) in &info.outcomes {
                    outcomes[usize::try_from(*seq).expect("seq fits usize")] = Some(res.clone());
                }
                crashes += 1;
                replayed += info.replayed;
                i = usize::try_from(info.next_seq).expect("seq fits usize");
                ds = recovered;
                kills.next();
                continue;
            }
        }
        if i >= events.len() {
            break;
        }
        let res = ds.ingest(&events[i], plan.fault_at(i)).map_err(RecoveryError::Service)?;
        outcomes[i] = Some(res);
        i += 1;
    }
    Ok(SoakOutcome {
        report: ds.report(),
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every stream event was ingested"))
            .collect(),
        crashes,
        replayed_events: replayed,
        checkpoints_written: ds.checkpoints_written(),
        journal_bytes: ds.journal_bytes().len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::online::StreamConfig;
    use workloads::rng;

    fn small_stream() -> (ServiceConfig, Vec<Event>) {
        let cfg = ServiceConfig::semi_partitioned(4);
        let stream_cfg = StreamConfig {
            events: 30,
            arrive_pct: 45,
            depart_pct: 25,
            fail_pct: 20,
            ..StreamConfig::default()
        };
        let events = crate::event_stream(&cfg.family, &stream_cfg, &mut rng(42));
        (cfg, events)
    }

    #[test]
    fn empty_journal_round_trips() {
        let w = JournalWriter::new();
        assert!(w.is_empty());
        let scan = recover(w.as_bytes()).expect("valid");
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, w.len());
        assert_eq!(scan.tail, None);
    }

    #[test]
    fn records_round_trip() {
        let mut w = JournalWriter::new();
        let ev = Event::Arrive(JobSpec { id: 7, base: 3, pinned: Some(2) });
        w.append_event(0, &ev, Some(SolverFault::PoisonWarmHint));
        let outcome = EpochOutcome {
            event_index: 0,
            tier: Tier::Warm,
            t_epoch: 5,
            t_star: 4,
            t_greedy: None,
            moved: 1,
            quarantined_now: 0,
            split_migrations: 2,
            disruptions_total: 3,
        };
        w.append_outcome(0, &outcome);
        w.append_rejection(1, &IngestError::ZeroSizeJob { id: 9 });
        let scan = recover(w.as_bytes()).expect("valid");
        assert_eq!(scan.tail, None);
        assert_eq!(
            scan.records.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
            vec![
                Record::Event { seq: 0, event: ev, fault: Some(SolverFault::PoisonWarmHint) },
                Record::Outcome { seq: 0, outcome },
                Record::Rejection { seq: 1, code: 2 },
            ]
        );
    }

    #[test]
    fn truncated_tail_recovers_prefix() {
        let mut w = JournalWriter::new();
        w.append_event(0, &Event::Depart(1), None);
        let full = w.len();
        w.append_event(1, &Event::Depart(2), None);
        let torn = &w.as_bytes()[..w.len() - 3];
        let scan = recover(torn).expect("valid prefix");
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, full);
        assert_eq!(scan.tail, Some(JournalError::TruncatedRecord { offset: full }));
    }

    #[test]
    fn flipped_byte_is_a_checksum_mismatch() {
        let mut w = JournalWriter::new();
        w.append_event(0, &Event::Depart(1), None);
        let mut bytes = w.as_bytes().to_vec();
        let target = HEADER_LEN + 6;
        bytes[target] ^= 0x40;
        let scan = recover(&bytes).expect("valid prefix");
        assert!(scan.records.is_empty());
        assert_eq!(scan.tail, Some(JournalError::ChecksumMismatch { offset: HEADER_LEN }));
    }

    #[test]
    fn foreign_bytes_are_not_a_journal() {
        assert_eq!(recover(b"GARBAGE!"), Err(JournalError::BadMagic));
        let mut versioned = JournalWriter::new().as_bytes().to_vec();
        versioned[4] = 9;
        assert_eq!(recover(&versioned), Err(JournalError::UnsupportedVersion { version: 9 }));
    }

    #[test]
    fn checkpoint_restores_bit_identically() {
        let (cfg, events) = small_stream();
        let mut s = Scheduler::new(cfg.clone());
        for (i, ev) in events.iter().enumerate() {
            s.apply(ev, None).unwrap_or_else(|e| panic!("event {i}: {e}"));
        }
        let ck = s.checkpoint();

        // Round-trip through bytes as the journal would store it.
        let mut payload = Vec::new();
        put_checkpoint(&mut payload, &ck);
        let decoded = read_checkpoint(&mut Reader::new(&payload)).expect("decodes");
        assert_eq!(decoded, ck);

        let restored = Scheduler::restore(cfg, &decoded).expect("restores");
        assert_eq!(restored.report(), s.report());
        assert_eq!(restored.active, s.active);
        assert_eq!(restored.masks, s.masks);
        assert_eq!(restored.quarantined, s.quarantined);
        assert_eq!(restored.failed, s.failed);
        assert_eq!(restored.healthy, s.healthy);
    }

    #[test]
    fn nonzero_retired_pricing_byte_is_malformed() {
        let (cfg, events) = small_stream();
        let mut s = Scheduler::new(cfg);
        for ev in &events {
            s.apply(ev, None).expect("epoch");
        }
        let mut w = JournalWriter::new();
        w.append_checkpoint(&s.checkpoint());
        let mut bytes = w.as_bytes().to_vec();
        // machines, sets, ovh_num, ovh_den, budget tag + value, then the
        // retired pricing byte, always written as 0.
        let at = HEADER_LEN + 5 + 4 + 4 + 8 + 8 + 1 + 8;
        assert_eq!(bytes[at], 0);
        bytes[at] = 1;
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[HEADER_LEN..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        let scan = recover(&bytes).expect("valid prefix");
        assert!(scan.records.is_empty());
        assert_eq!(scan.tail, Some(JournalError::MalformedRecord { offset: HEADER_LEN }));
    }

    #[test]
    fn restore_rejects_config_mismatch() {
        let (cfg, events) = small_stream();
        let mut s = Scheduler::new(cfg.clone());
        for ev in &events {
            s.apply(ev, None).expect("epoch");
        }
        let ck = s.checkpoint();
        let mut other = cfg;
        other.rebalance = !other.rebalance;
        assert_eq!(
            Scheduler::restore(other, &ck).map(|_| ()).unwrap_err(),
            RestoreError::ConfigMismatch { what: "rebalance policy" }
        );
    }

    #[test]
    fn crash_free_soak_matches_plain_run() {
        let (cfg, events) = small_stream();
        let plan = FaultPlan::seeded(events.len(), 25, &mut rng(5));
        let baseline = crate::run(cfg.clone(), &events, &plan).expect("run");
        let soak = run_with_crashes(&cfg, &events, &plan, &CrashPlan::none(), 8).expect("soak");
        assert_eq!(soak.report, baseline);
        assert_eq!(soak.crashes, 0);
        assert_eq!(soak.outcomes.len(), events.len());
    }

    #[test]
    fn crashes_recover_bit_identically() {
        let (cfg, events) = small_stream();
        let plan = FaultPlan::seeded(events.len(), 25, &mut rng(5));
        let baseline =
            run_with_crashes(&cfg, &events, &plan, &CrashPlan::none(), 8).expect("baseline");
        let crash = CrashPlan::seeded(4, events.len(), &mut rng(99));
        let soak = run_with_crashes(&cfg, &events, &plan, &crash, 8).expect("soak");
        assert_eq!(soak.crashes, 4);
        assert_eq!(soak.report, baseline.report);
        assert_eq!(soak.outcomes, baseline.outcomes);
    }
}
