//! A timing decorator over a storage backend, handed to
//! `Warehouse::with_backend` in the traced run.
//!
//! Every call the engine makes into the store becomes a `store.*` span,
//! nested under whatever benchmark span is open on the calling thread (the
//! commit, query or reopen being measured). Recovery is the trait's default
//! body — checkpoint load, journal read, replay — written out here only so
//! the replay loop gets a `core.replay` span of its own.

use std::path::Path;
use std::sync::Arc;

use pxml_core::{FuzzyTree, UpdateTransaction};
use pxml_store::{CommitTicket, DurabilityStats, StorageBackend, StoreError};

use crate::trace::Tracer;

#[derive(Debug)]
pub struct TimedBackend {
    inner: Arc<dyn StorageBackend>,
    tracer: Arc<Tracer>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn StorageBackend>, tracer: Arc<Tracer>) -> Self {
        TimedBackend { inner, tracer }
    }

    /// Runs an append under a `store.append` span and samples the journal
    /// bytes it added.
    fn timed_append(
        &self,
        name: &str,
        append: impl FnOnce() -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let before = self.inner.journal_size_bytes(name).unwrap_or(0);
        let span = self.tracer.enter("store.append", None);
        let result = append();
        drop(span);
        if result.is_ok() {
            if let Ok(after) = self.inner.journal_size_bytes(name) {
                self.tracer
                    .sample("store.journal_bytes", after.saturating_sub(before) as f64);
            }
        }
        result
    }
}

impl StorageBackend for TimedBackend {
    fn list_documents(&self) -> Result<Vec<String>, StoreError> {
        let _span = self.tracer.enter("store.list", None);
        self.inner.list_documents()
    }

    fn contains(&self, name: &str) -> bool {
        self.inner.contains(name)
    }

    fn save_document(&self, name: &str, fuzzy: &FuzzyTree) -> Result<(), StoreError> {
        let _span = self.tracer.enter("store.save", None);
        self.inner.save_document(name, fuzzy)
    }

    fn load_document(&self, name: &str) -> Result<FuzzyTree, StoreError> {
        let _span = self.tracer.enter("store.load", None);
        self.inner.load_document(name)
    }

    fn append_batch(&self, name: &str, batch: &[UpdateTransaction]) -> Result<(), StoreError> {
        self.timed_append(name, || self.inner.append_batch(name, batch))
    }

    fn append_batch_grouped(
        &self,
        name: &str,
        batch: &[UpdateTransaction],
    ) -> Result<(), StoreError> {
        self.timed_append(name, || self.inner.append_batch_grouped(name, batch))
    }

    fn append_batch_enqueue(&self, name: &str, batch: &[UpdateTransaction]) -> CommitTicket {
        self.inner.append_batch_enqueue(name, batch)
    }

    fn read_batches(&self, name: &str) -> Result<Vec<Vec<UpdateTransaction>>, StoreError> {
        let _span = self.tracer.enter("store.read_batches", None);
        self.inner.read_batches(name)
    }

    fn journal_length(&self, name: &str) -> Result<usize, StoreError> {
        let _span = self.tracer.enter("store.meter", None);
        self.inner.journal_length(name)
    }

    fn journal_batches(&self, name: &str) -> Result<usize, StoreError> {
        let _span = self.tracer.enter("store.meter", None);
        self.inner.journal_batches(name)
    }

    fn journal_size_bytes(&self, name: &str) -> Result<u64, StoreError> {
        let _span = self.tracer.enter("store.meter", None);
        self.inner.journal_size_bytes(name)
    }

    fn checkpoint(&self, name: &str, fuzzy: &FuzzyTree) -> Result<(), StoreError> {
        let _span = self.tracer.enter("store.checkpoint", None);
        self.inner.checkpoint(name, fuzzy)
    }

    fn remove_document(&self, name: &str) -> Result<(), StoreError> {
        let _span = self.tracer.enter("store.remove", None);
        self.inner.remove_document(name)
    }

    fn root_dir(&self) -> Option<&Path> {
        self.inner.root_dir()
    }

    fn durability_stats(&self) -> DurabilityStats {
        self.inner.durability_stats()
    }

    fn group_barrier(&self) {
        let _span = self.tracer.enter("store.barrier", None);
        self.inner.group_barrier();
    }

    fn recover_document(&self, name: &str) -> Result<FuzzyTree, StoreError> {
        let mut fuzzy = self.load_document(name)?;
        let updates = self.read_journal(name)?;
        let _span = self.tracer.enter("core.replay", None);
        for update in updates {
            update.apply_to_fuzzy(&mut fuzzy)?;
        }
        Ok(fuzzy)
    }
}
