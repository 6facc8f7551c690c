//! Reusable IO buffer slabs for the request hot path.
//!
//! Every response the server writes used to allocate a fresh buffer for
//! its JSON line and drop it after the write. A [`BufPool`] keeps those
//! slabs alive across requests: workers check a buffer out, encode the
//! line straight into it, and check it back in *cleared but not freed*,
//! so a warm connection reaches steady state with zero encode
//! allocations. One pool lives on each connection — its slab count is
//! naturally bounded by the connection's pipeline window.

use std::sync::Mutex;

/// Slabs larger than this are dropped at check-in instead of pooled, so
/// one huge design sweep cannot pin its peak allocation forever.
const MAX_POOLED_CAPACITY: usize = 1 << 20;

/// A pool of reusable byte slabs.
#[derive(Debug, Default)]
pub struct BufPool {
    slabs: Mutex<Vec<Vec<u8>>>,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufPool::default()
    }

    /// Checks out a buffer (empty, capacity retained from past use).
    pub fn checkout(&self) -> Vec<u8> {
        self.slabs
            .lock()
            .expect("bufpool lock")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a buffer to the pool, cleared but with its capacity kept
    /// for the next checkout.
    pub fn checkin(&self, mut buf: Vec<u8>) {
        if buf.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        buf.clear();
        self.slabs.lock().expect("bufpool lock").push(buf);
    }

    /// Pooled slab count — test observability.
    pub fn idle(&self) -> usize {
        self.slabs.lock().expect("bufpool lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkin_clears_but_keeps_capacity() {
        let pool = BufPool::new();
        let mut b = pool.checkout();
        b.extend_from_slice(b"hello world");
        let cap = b.capacity();
        pool.checkin(b);
        assert_eq!(pool.idle(), 1);
        let b = pool.checkout();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn oversized_slabs_are_dropped_not_pooled() {
        let pool = BufPool::new();
        pool.checkin(Vec::with_capacity(MAX_POOLED_CAPACITY + 1));
        assert_eq!(pool.idle(), 0, "huge slab must not be retained");
    }
}
