//! The `FsBackend` fault points, one by one: a [`FaultPlan`] installed
//! through [`FsOptions::fault`] is consulted once per append (error or torn
//! write), in `load_document`, at the start of `checkpoint` and in every
//! fsync round — and nowhere in recovery. Each test pins what a fault at
//! one point leaves on disk and how the store heals from it.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pxml_core::{FuzzyTree, UpdateTransaction};
use pxml_query::Pattern;
use pxml_store::{
    is_injected, CommitPolicy, FaultKind, FaultOp, FaultPlan, FsBackend, FsOptions, StorageBackend,
};
use pxml_tree::parse_data_tree;

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pxml-fault-points-{}-{}-{}",
        std::process::id(),
        label,
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ))
}

fn sample_fuzzy() -> FuzzyTree {
    let mut fuzzy = FuzzyTree::new("directory");
    let person = fuzzy.add_element(fuzzy.root(), "person");
    let name = fuzzy.add_element(person, "name");
    fuzzy.add_text(name, "alice");
    fuzzy
}

fn tagged_update(tag: &str) -> UpdateTransaction {
    let pattern = Pattern::parse("person { name[=\"alice\"] }").unwrap();
    let target = pattern.root();
    UpdateTransaction::new(pattern, 0.8).unwrap().with_insert(
        target,
        parse_data_tree(&format!("<email>{tag}@example.org</email>")).unwrap(),
    )
}

fn faulted(dir: &Path, plan: &Arc<FaultPlan>, commit: CommitPolicy) -> FsBackend {
    FsBackend::with_options(
        dir,
        FsOptions {
            commit,
            fault: Some(plan.clone()),
            ..FsOptions::default()
        },
    )
    .unwrap()
}

fn emails(backend: &FsBackend, doc: &str) -> usize {
    backend
        .recover_document(doc)
        .unwrap()
        .tree()
        .find_elements("email")
        .len()
}

fn segment_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".seg"))
        .collect();
    names.sort();
    names
}

/// An append error fires before any byte is written: no segment, no fsync
/// round, no meter movement — and the next append just works.
#[test]
fn append_fault_fails_before_any_byte_is_written() {
    let dir = scratch("append-error");
    let plan = Arc::new(FaultPlan::new().fail_nth(FaultOp::Append, 1));
    let store = faulted(&dir, &plan, CommitPolicy::Sync);
    store.save_document("doc", &sample_fuzzy()).unwrap();
    let error = store
        .append_batch("doc", &[tagged_update("lost")])
        .unwrap_err();
    assert!(is_injected(&error), "unexpected error: {error}");
    assert!(segment_files(&dir).is_empty());
    assert_eq!(store.durability_stats().fsyncs, 0);
    assert_eq!(plan.ops(FaultOp::Fsync), 0);
    assert_eq!(store.journal_batches("doc").unwrap(), 0);
    store.append_batch("doc", &[tagged_update("kept")]).unwrap();
    assert_eq!(emails(&store, "doc"), 1);
    fs::remove_dir_all(dir).unwrap();
}

/// Latency faults — per-op latency and a scheduled `Latency` kind — slow
/// the operation down and then let it through: nothing counts as injected.
#[test]
fn latency_faults_delay_the_append_but_let_it_through() {
    let dir = scratch("latency");
    let delay = Duration::from_millis(20);
    let plan = Arc::new(
        FaultPlan::new()
            .latency(FaultOp::Append, delay)
            .fail_nth_with(FaultOp::Fsync, 1, FaultKind::Latency(delay)),
    );
    let store = faulted(&dir, &plan, CommitPolicy::Sync);
    store.save_document("doc", &sample_fuzzy()).unwrap();
    let started = std::time::Instant::now();
    store.append_batch("doc", &[tagged_update("slow")]).unwrap();
    assert!(started.elapsed() >= 2 * delay, "both delays apply");
    assert_eq!(plan.injected_faults(), 0);
    assert_eq!(emails(&store, "doc"), 1);
    fs::remove_dir_all(dir).unwrap();
}

/// A torn write lands the append, shears the active segment and reports
/// the error: a fresh handle truncates the torn tail away, and
/// `reopen_document` does the same in place so appends resume.
#[test]
fn torn_append_shears_the_active_segment_until_reopen() {
    let dir = scratch("append-torn");
    let plan = Arc::new(FaultPlan::new().fail_nth_with(FaultOp::Append, 2, FaultKind::TornWrite));
    let store = faulted(&dir, &plan, CommitPolicy::Sync);
    store.save_document("doc", &sample_fuzzy()).unwrap();
    store.append_batch("doc", &[tagged_update("a")]).unwrap();
    let error = store
        .append_batch("doc", &[tagged_update("torn")])
        .unwrap_err();
    assert!(is_injected(&error), "unexpected error: {error}");
    assert_eq!(plan.injected_faults(), 1);
    // The on-disk truth: one whole record plus a torn tail.
    let fresh = FsBackend::open(&dir).unwrap();
    assert_eq!(fresh.journal_batches("doc").unwrap(), 1);
    // In place: the reopen rescans and the document is writable again.
    assert_eq!(
        store
            .reopen_document("doc")
            .unwrap()
            .tree()
            .find_elements("email")
            .len(),
        1
    );
    store.append_batch("doc", &[tagged_update("b")]).unwrap();
    assert_eq!(store.journal_batches("doc").unwrap(), 2);
    assert_eq!(emails(&FsBackend::open(&dir).unwrap(), "doc"), 2);
    fs::remove_dir_all(dir).unwrap();
}

/// The grouped path tears the same way: the enqueue decides the fault
/// once, the window writes the record, and the ticket comes back already
/// resolved with the error.
#[test]
fn torn_grouped_append_resolves_its_ticket_with_the_error() {
    let dir = scratch("append-torn-grouped");
    let plan = Arc::new(FaultPlan::new().fail_nth_with(FaultOp::Append, 1, FaultKind::TornWrite));
    let grouped = CommitPolicy::Grouped {
        window_max_batches: 4,
        window_max_wait: Duration::from_millis(5),
    };
    let store = faulted(&dir, &plan, grouped);
    store.save_document("doc", &sample_fuzzy()).unwrap();
    let ticket = store.append_batch_enqueue("doc", &[tagged_update("torn")]);
    assert!(ticket.is_durable(), "a torn write resolves synchronously");
    let error = ticket.wait().unwrap_err();
    assert!(is_injected(&error), "unexpected error: {error}");
    assert_eq!(plan.ops(FaultOp::Append), 1, "decided once per append");
    assert_eq!(
        FsBackend::open(&dir)
            .unwrap()
            .journal_batches("doc")
            .unwrap(),
        0
    );
    assert_eq!(
        store
            .reopen_document("doc")
            .unwrap()
            .tree()
            .find_elements("email")
            .len(),
        0
    );
    store
        .append_batch_grouped("doc", &[tagged_update("kept")])
        .unwrap();
    assert_eq!(emails(&FsBackend::open(&dir).unwrap(), "doc"), 1);
    fs::remove_dir_all(dir).unwrap();
}

/// A checkpoint fault fires before the fold touches anything: the old
/// checkpoint (and with it the epoch) stays byte-for-byte, the full journal
/// stays in place, and recovery still replays it. The next fold succeeds.
#[test]
fn checkpoint_fault_leaves_the_old_checkpoint_and_full_journal() {
    let dir = scratch("checkpoint-fault");
    let plan = Arc::new(FaultPlan::new().fail_nth(FaultOp::Checkpoint, 1));
    let store = faulted(&dir, &plan, CommitPolicy::Sync);
    store.save_document("doc", &sample_fuzzy()).unwrap();
    store.append_batch("doc", &[tagged_update("a")]).unwrap();
    store.append_batch("doc", &[tagged_update("b")]).unwrap();
    let checkpoint_before = fs::read(dir.join("doc.pxml")).unwrap();
    let segments_before = segment_files(&dir);
    assert_eq!(segments_before, vec!["doc.journal.0.0.seg".to_string()]);

    let folded = store.recover_document("doc").unwrap();
    let error = store.checkpoint("doc", &folded).unwrap_err();
    assert!(is_injected(&error), "unexpected error: {error}");
    assert_eq!(fs::read(dir.join("doc.pxml")).unwrap(), checkpoint_before);
    assert_eq!(segment_files(&dir), segments_before);
    assert_eq!(store.journal_batches("doc").unwrap(), 2);
    let fresh = FsBackend::open(&dir).unwrap();
    assert_eq!(fresh.journal_batches("doc").unwrap(), 2);
    assert_eq!(emails(&fresh, "doc"), 2);

    // One-shot: the retry folds into epoch 1 and empties the journal.
    store.checkpoint("doc", &folded).unwrap();
    assert!(segment_files(&dir).is_empty());
    store.append_batch("doc", &[tagged_update("c")]).unwrap();
    assert_eq!(segment_files(&dir), vec!["doc.journal.1.0.seg".to_string()]);
    assert_eq!(emails(&FsBackend::open(&dir).unwrap(), "doc"), 3);
    fs::remove_dir_all(dir).unwrap();
}

/// The load fault point sits in `load_document` only: under a plan that
/// fails every load, recovery and reopen still reach the on-disk truth —
/// a quarantined document can always be reopened.
#[test]
fn load_fault_fires_on_load_document_but_not_on_recovery() {
    let dir = scratch("load-fault");
    let plan = Arc::new(FaultPlan::new().fail_rate(FaultOp::Load, 1.0));
    let store = faulted(&dir, &plan, CommitPolicy::Sync);
    store.save_document("doc", &sample_fuzzy()).unwrap();
    store.append_batch("doc", &[tagged_update("a")]).unwrap();

    let error = store.load_document("doc").unwrap_err();
    assert!(is_injected(&error), "unexpected error: {error}");
    assert_eq!(plan.ops(FaultOp::Load), 1);
    assert_eq!(emails(&store, "doc"), 1);
    assert_eq!(
        store
            .reopen_document("doc")
            .unwrap()
            .tree()
            .find_elements("email")
            .len(),
        1
    );
    assert_eq!(plan.ops(FaultOp::Load), 1, "recovery never consults it");
    assert_eq!(plan.injected_faults(), 1);
    fs::remove_dir_all(dir).unwrap();
}
