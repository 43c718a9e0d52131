//! Client commands ride the log in batches: a slot decides a *batch
//! id* (a `u64`, the consensus value), and the [`BatchStore`] maps ids
//! back to the ops they carry. Sealed batches stay pending until some
//! slot decides them; batches proposed by losing replicas simply stay
//! pending and are re-proposed at the next slot. A decided batch is
//! handed to the caller and leaves the store.

use std::collections::VecDeque;

use crate::kv::Command;

/// A sealed group of client ops proposed into the log as one value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// The consensus value that names this batch (never 0).
    pub id: u64,
    /// `(request id, command)` in submission order.
    pub ops: Vec<(u64, Command)>,
}

/// Driver-side bookkeeping for open and pending batches.
#[derive(Debug, Default)]
pub struct BatchStore {
    next_id: u64,
    open: Vec<(u64, Command)>,
    pending: VecDeque<Batch>,
}

impl BatchStore {
    /// An empty store; ids start at 1 so 0 never names a batch.
    #[must_use]
    pub fn new() -> Self {
        BatchStore {
            next_id: 1,
            ..BatchStore::default()
        }
    }

    /// Append one client op to the open (unsealed) batch.
    pub fn push_op(&mut self, req_id: u64, cmd: Command) {
        self.open.push((req_id, cmd));
    }

    /// Seal the open ops into pending batches of at most `max_ops`
    /// each. No-op when nothing is open.
    ///
    /// # Panics
    /// Panics if `max_ops == 0`.
    pub fn seal(&mut self, max_ops: usize) {
        assert!(max_ops > 0, "a batch must admit at least one op");
        while !self.open.is_empty() {
            let take = self.open.len().min(max_ops);
            let ops: Vec<_> = self.open.drain(..take).collect();
            let id = self.next_id;
            self.next_id += 1;
            self.pending.push_back(Batch { id, ops });
        }
    }

    /// Ids of every sealed-but-undecided batch, oldest first.
    #[must_use]
    pub fn pending_ids(&self) -> Vec<u64> {
        self.pending.iter().map(|b| b.id).collect()
    }

    /// Mark `id` decided: take it out of pending and return it. `None`
    /// if `id` is not pending (unknown or already decided).
    pub fn complete(&mut self, id: u64) -> Option<Batch> {
        let at = self.pending.iter().position(|b| b.id == id)?;
        self.pending.remove(at)
    }

    /// Ops not yet decided: open plus pending.
    #[must_use]
    pub fn backlog_ops(&self) -> usize {
        self.open.len() + self.pending.iter().map(|b| b.ops.len()).sum::<usize>()
    }

    /// True iff every submitted op has been decided.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.backlog_ops() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_chunks_and_complete_moves() {
        let mut s = BatchStore::new();
        for r in 0..5 {
            s.push_op(r, Command::Put { key: r, val: r });
        }
        s.seal(2);
        assert_eq!(s.pending_ids(), vec![1, 2, 3]);
        assert_eq!(s.backlog_ops(), 5);
        let b = s.complete(2).unwrap();
        assert_eq!(b.ops.len(), 2);
        assert_eq!(s.pending_ids(), vec![1, 3]);
        assert!(s.complete(2).is_none(), "double-complete is rejected");
        s.complete(1);
        s.complete(3);
        assert!(s.is_drained());
    }

    #[test]
    fn ids_never_reuse_zero() {
        let mut s = BatchStore::new();
        s.push_op(0, Command::Get { key: 0 });
        s.seal(8);
        assert_eq!(s.pending_ids(), vec![1]);
    }
}
