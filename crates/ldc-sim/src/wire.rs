//! Compact wire layout for the round engine.
//!
//! A round moves at most one message per half-edge slot. The engine's
//! original wire buffer was a `Vec<Option<M>>` — every slot paid
//! `size_of::<Option<M>>()` bytes of clear + scan traffic per round even
//! when empty, which made million-slot rounds memory-bound long before
//! they were compute-bound. `WireBuf` splits the representation:
//!
//! * a **presence bitmap** (`Vec<AtomicU64>`, one bit per slot) — the
//!   bit-packed part of the layout. Clearing a round is `total/64` word
//!   stores; an empty slot costs one bit of traffic instead of a whole
//!   `Option<M>`. Zero-sized messages (`()` beacons, the broadcast-flag
//!   rounds that dominate several OLDC phases) are carried *entirely* by
//!   the bitmap.
//! * a **dense payload arena** (`Vec<MaybeUninit<M>>`) holding the actual
//!   message bytes, initialized exactly where the bitmap has a set bit.
//!   `Copy` payloads need no per-slot drop, so the arena is never scanned
//!   on clear for them (`needs_drop` gate).
//!
//! Sub-word *payload* packing (delta-encoding small color values into the
//! bitmap words themselves) was considered and rejected: [`Inbox::get`]
//! must keep returning `Option<&M>` — the whole algorithm layer borrows
//! messages in place — and a packed representation has no address to
//! borrow. The presence bitmap already captures the dominant win (empty
//! and ZST slots), and dense `Copy` arenas are exactly as compact as the
//! packed encoding for occupied slots.
//!
//! # Concurrency
//!
//! During the compose phase, each parallel chunk owns a *disjoint slot
//! range* of the arena (handed out through
//! [`crate::pool::DisjointChunks`]), but a 64-slot bitmap word can
//! straddle a chunk boundary — so presence bits are set/cleared with
//! atomic RMW ops (`Relaxed`: each *bit* has exactly one writer, and the
//! phase barrier — the pool's completion rendezvous or `thread::scope`
//! join — provides the happens-before edge before any read). The consume
//! phase only reads. Single-writer-per-bit is what makes `Relaxed`
//! sufficient: there is no cross-bit protocol inside a word, the RMW just
//! avoids losing a neighbor chunk's concurrent update to the same word.
//!
//! # Safety invariant
//!
//! `bit set ⟺ payload slot initialized`, established by [`Outbox::send`]
//! and torn down by `Outbox::clear` / `WireBuf::reset` / `Drop`.
//! Every `unsafe` block in this module relies on it and nothing else; the
//! crate is `deny(unsafe_code)` with an allowance for this module and
//! `pool`.

use crate::message::MessageSize;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bits per bitmap word.
const WORD: usize = 64;

/// Reusable per-round wire buffer for message type `M`: presence bitmap +
/// dense payload arena. Owned by the network's round buffers, checked out
/// once per `exchange`, cleared — not freed — between rounds.
pub(crate) struct WireBuf<M> {
    /// Presence bitmap, one bit per slot. Atomic because chunk-boundary
    /// words are shared between compose workers (see module docs).
    bits: Vec<AtomicU64>,
    /// Payload arena; slot `i` is initialized iff bit `i` is set.
    payload: Vec<MaybeUninit<M>>,
    /// Live slot count (`payload.len()` tracks it, kept for clarity).
    len: usize,
}

impl<M> Default for WireBuf<M> {
    fn default() -> Self {
        WireBuf {
            bits: Vec::new(),
            payload: Vec::new(),
            len: 0,
        }
    }
}

// SAFETY: sending the buffer moves unique ownership of the arena and the
// bitmap; payloads are plain `M` values, so this is exactly `M: Send`.
#[allow(unsafe_code)]
unsafe impl<M: Send> Send for WireBuf<M> {}

impl<M> WireBuf<M> {
    /// Clear all messages and size the buffer for `total` slots. Returns
    /// `true` if backing storage had to grow (a fresh-allocation event,
    /// counted by the engine's `wire_allocs` telemetry); in steady state
    /// this is `false` and the whole call is `total/64` word stores —
    /// the arena is *not* touched unless `M` needs dropping.
    pub(crate) fn reset(&mut self, total: usize) -> bool {
        self.clear();
        let words = total.div_ceil(WORD);
        let grew = self.payload.capacity() < total || self.bits.capacity() < words;
        self.payload.resize_with(total, MaybeUninit::uninit);
        self.bits.resize_with(words, || AtomicU64::new(0));
        self.len = total;
        grew
    }

    /// Drop every initialized payload and zero the bitmap.
    fn clear(&mut self) {
        if std::mem::needs_drop::<M>() {
            for (w, word) in self.bits.iter_mut().enumerate() {
                // `get_mut`: exclusive access, no atomics on the clear path.
                let mut live = *word.get_mut();
                *word.get_mut() = 0;
                while live != 0 {
                    let slot = w * WORD + live.trailing_zeros() as usize;
                    live &= live - 1;
                    if slot < self.len {
                        // SAFETY: the bit was set, so the slot holds an
                        // initialized payload; the bit is already cleared,
                        // so it is dropped exactly once.
                        #[allow(unsafe_code)]
                        unsafe {
                            self.payload[slot].assume_init_drop();
                        }
                    }
                }
            }
        } else {
            for word in &mut self.bits {
                *word.get_mut() = 0;
            }
        }
    }

    /// Split into (shared bitmap, exclusive arena) for the compose phase.
    /// The arena is further split into disjoint chunk ranges by the
    /// engine; the bitmap is shared because its words may straddle chunk
    /// boundaries (all mutation goes through atomics).
    pub(crate) fn compose_parts(&mut self) -> (&[AtomicU64], &mut [MaybeUninit<M>]) {
        (&self.bits, &mut self.payload)
    }

    /// Shared view for the consume phase (runs strictly after the compose
    /// barrier, so plain loads observe every send).
    pub(crate) fn read_parts(&self) -> (&[AtomicU64], &[MaybeUninit<M>]) {
        (&self.bits, &self.payload)
    }
}

impl<M> Drop for WireBuf<M> {
    fn drop(&mut self) {
        self.clear();
    }
}

#[inline]
fn bit(slot: usize) -> (usize, u64) {
    (slot / WORD, 1u64 << (slot % WORD))
}

#[inline]
fn is_set(bits: &[AtomicU64], slot: usize) -> bool {
    let (w, mask) = bit(slot);
    bits[w].load(Ordering::Relaxed) & mask != 0
}

/// Write-side of a node's per-round communication: one slot per port.
pub struct Outbox<'a, M> {
    /// Whole-round presence bitmap (global slot indexing).
    bits: &'a [AtomicU64],
    /// This node's payload slots (port indexing).
    payload: &'a mut [MaybeUninit<M>],
    /// Global slot index of port 0.
    base: usize,
}

impl<'a, M> Outbox<'a, M> {
    #[inline]
    pub(crate) fn new(
        bits: &'a [AtomicU64],
        payload: &'a mut [MaybeUninit<M>],
        base: usize,
    ) -> Self {
        Outbox {
            bits,
            payload,
            base,
        }
    }

    /// Send `msg` to the neighbor at `port` (index into `neighbors(v)`).
    /// Overwrites any message previously placed on that port this round.
    #[inline]
    pub fn send(&mut self, port: usize, msg: M) {
        let (w, mask) = bit(self.base + port);
        // Relaxed RMW: this bit has one writer (us); the RMW only protects
        // neighbor chunks' bits sharing the word.
        let prev = self.bits[w].fetch_or(mask, Ordering::Relaxed);
        if prev & mask != 0 {
            // SAFETY: bit was set ⇒ slot initialized; drop before overwrite.
            #[allow(unsafe_code)]
            unsafe {
                self.payload[port].assume_init_drop();
            }
        }
        self.payload[port] = MaybeUninit::new(msg);
    }

    /// Number of ports (the node's degree).
    #[inline]
    pub fn ports(&self) -> usize {
        self.payload.len()
    }

    /// The message currently placed on `port`, if any (engine-internal:
    /// the fused accounting pass reads sizes through this).
    #[inline]
    pub(crate) fn peek(&self, port: usize) -> Option<&M> {
        if is_set(self.bits, self.base + port) {
            // SAFETY: bit set ⇒ initialized.
            #[allow(unsafe_code)]
            Some(unsafe { self.payload[port].assume_init_ref() })
        } else {
            None
        }
    }

    /// Remove the message on `port` (engine-internal: fault drops).
    #[inline]
    pub(crate) fn clear(&mut self, port: usize) {
        let (w, mask) = bit(self.base + port);
        let prev = self.bits[w].fetch_and(!mask, Ordering::Relaxed);
        if prev & mask != 0 {
            // SAFETY: bit was set ⇒ initialized; bit now cleared, so the
            // value is dropped exactly once.
            #[allow(unsafe_code)]
            unsafe {
                self.payload[port].assume_init_drop();
            }
        }
    }
}

impl<'a, M: Clone> Outbox<'a, M> {
    /// Send the same message to every neighbor (costs one message per edge,
    /// as in the model).
    pub fn broadcast(&mut self, msg: &M) {
        for port in 0..self.payload.len() {
            self.send(port, msg.clone());
        }
    }
}

/// Read-side of a node's per-round communication: one slot per port.
///
/// Reads route through the network's half-edge involution, so delivery
/// needs no per-round swap pass over the wire buffer: the message received
/// on port `p` is looked up directly in the sender's outbox slot. The
/// involution targets of a node's consecutive ports are near-ascending
/// (CSR adjacency lists are sorted, offsets are monotone), so the gather
/// walks the arena mostly forward — prefetch-friendly by construction.
pub struct Inbox<'a, M> {
    bits: &'a [AtomicU64],
    payload: &'a [MaybeUninit<M>],
    /// Half-edge involution (global slot → reverse slot). `u32`, not
    /// `usize`: the graph crate guarantees `2m ≤ u32::MAX`, and halving
    /// the table halves the dominant gather traffic of the consume phase.
    reverse: &'a [u32],
    base: usize,
    ports: usize,
}

impl<'a, M> Inbox<'a, M> {
    #[inline]
    pub(crate) fn new(
        bits: &'a [AtomicU64],
        payload: &'a [MaybeUninit<M>],
        reverse: &'a [u32],
        base: usize,
        ports: usize,
    ) -> Self {
        Inbox {
            bits,
            payload,
            reverse,
            base,
            ports,
        }
    }

    /// The message received from the neighbor at `port`, if any.
    #[inline]
    pub fn get(&self, port: usize) -> Option<&'a M> {
        assert!(port < self.ports, "port {port} out of range");
        let slot = self.reverse[self.base + port] as usize;
        if is_set(self.bits, slot) {
            // SAFETY: bit set ⇒ initialized; the compose-phase barrier
            // ordered the write before this read.
            #[allow(unsafe_code)]
            Some(unsafe { self.payload[slot].assume_init_ref() })
        } else {
            None
        }
    }

    /// Iterate over `(port, message)` pairs of received messages.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &'a M)> + '_ {
        (0..self.ports).filter_map(|p| self.get(p).map(|m| (p, m)))
    }

    /// Number of ports (the node's degree).
    #[inline]
    pub fn ports(&self) -> usize {
        self.ports
    }
}

/// The fused accounting pass reads message sizes through [`Outbox::peek`];
/// re-exported trait bound kept local to avoid a pub dependency edge.
impl<'a, M: MessageSize> Outbox<'a, M> {
    /// Bits of the message on `port`, if one is placed.
    #[inline]
    pub(crate) fn peek_bits(&self, port: usize) -> Option<u64> {
        self.peek(port).map(MessageSize::bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn reverse_identity(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn send_peek_clear_roundtrip() {
        let mut buf = WireBuf::<u64>::default();
        assert!(buf.reset(10), "first reset allocates");
        let (bits, payload) = buf.compose_parts();
        let mut out = Outbox::new(bits, &mut payload[3..7], 3);
        assert_eq!(out.ports(), 4);
        out.send(1, 42);
        out.send(1, 43); // overwrite
        out.send(3, 7);
        assert_eq!(out.peek(0), None);
        assert_eq!(out.peek(1), Some(&43));
        assert_eq!(out.peek_bits(3), Some(3));
        out.clear(1);
        assert_eq!(out.peek(1), None);
        assert_eq!(out.peek(3), Some(&7));
    }

    #[test]
    fn inbox_reads_through_involution() {
        let mut buf = WireBuf::<u32>::default();
        buf.reset(4);
        // Two nodes, two ports each; reverse swaps the pairs (0↔2, 1↔3).
        let reverse: Vec<u32> = vec![2, 3, 0, 1];
        {
            let (bits, payload) = buf.compose_parts();
            let mut out = Outbox::new(bits, &mut payload[0..2], 0);
            out.send(0, 100);
        }
        let (bits, payload) = buf.read_parts();
        let inbox = Inbox::new(bits, payload, &reverse, 2, 2);
        assert_eq!(inbox.get(0), Some(&100));
        assert_eq!(inbox.get(1), None);
        assert_eq!(inbox.iter().collect::<Vec<_>>(), vec![(0, &100)]);
        let sender_inbox = Inbox::new(bits, payload, &reverse, 0, 2);
        assert_eq!(sender_inbox.iter().count(), 0);
    }

    #[test]
    fn reset_reuses_capacity() {
        let mut buf = WireBuf::<u8>::default();
        assert!(buf.reset(100));
        {
            let (bits, payload) = buf.compose_parts();
            let mut out = Outbox::new(bits, &mut payload[0..100], 0);
            for p in 0..100 {
                out.send(p, p as u8);
            }
        }
        assert!(!buf.reset(100), "steady state must not allocate");
        assert!(!buf.reset(50), "shrinking must not allocate");
        let (bits, payload) = buf.read_parts();
        let rev = reverse_identity(50);
        let inbox = Inbox::new(bits, payload, &rev, 0, 50);
        assert_eq!(inbox.iter().count(), 0, "reset cleared every slot");
    }

    #[test]
    fn zst_messages_live_in_the_bitmap() {
        let mut buf = WireBuf::<()>::default();
        buf.reset(128);
        {
            let (bits, payload) = buf.compose_parts();
            let mut out = Outbox::new(bits, &mut payload[64..128], 64);
            out.send(0, ());
            out.send(63, ());
        }
        let (bits, payload) = buf.read_parts();
        let rev = reverse_identity(128);
        let inbox = Inbox::new(bits, payload, &rev, 64, 64);
        assert_eq!(inbox.iter().count(), 2);
    }

    /// Drop-glue correctness: overwrites, clears, resets, and buffer drop
    /// each release exactly one payload.
    #[test]
    fn drop_counts_are_exact() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Token(#[allow(dead_code)] u64);
        impl Drop for Token {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let mut buf = WireBuf::<Token>::default();
        buf.reset(8);
        {
            let (bits, payload) = buf.compose_parts();
            let mut out = Outbox::new(bits, &mut payload[0..8], 0);
            out.send(0, Token(1));
            out.send(0, Token(2)); // drops Token(1)
            out.send(1, Token(3));
            out.clear(1); // drops Token(3)
            out.send(2, Token(4));
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
        buf.reset(8); // drops Token(2) and Token(4)... no: Token(4) only
        assert_eq!(DROPS.load(Ordering::SeqCst), 4, "reset dropped 2 and 4");
        {
            let (bits, payload) = buf.compose_parts();
            let mut out = Outbox::new(bits, &mut payload[0..8], 0);
            out.send(5, Token(5));
        }
        drop(buf); // drops Token(5)
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    /// Chunk-boundary bitmap words: two "chunks" sharing a word must not
    /// lose each other's presence bits (the reason the bitmap is atomic).
    #[test]
    fn shared_word_bits_survive_concurrent_chunks() {
        let mut buf = WireBuf::<u32>::default();
        buf.reset(64); // one word, split 0..32 / 32..64
        {
            let (bits, payload) = buf.compose_parts();
            let (lo, hi) = payload.split_at_mut(32);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut out = Outbox::new(bits, lo, 0);
                    for p in (0..32).step_by(3) {
                        out.send(p, p as u32);
                    }
                });
                s.spawn(|| {
                    let mut out = Outbox::new(bits, hi, 32);
                    for p in (0..32).step_by(3) {
                        out.send(p, 1000 + p as u32);
                    }
                });
            });
        }
        let (bits, payload) = buf.read_parts();
        let rev = reverse_identity(64);
        let inbox_lo = Inbox::new(bits, payload, &rev, 0, 32);
        let inbox_hi = Inbox::new(bits, payload, &rev, 32, 32);
        assert_eq!(inbox_lo.iter().count(), 11);
        assert_eq!(inbox_hi.iter().count(), 11);
        assert_eq!(inbox_hi.get(3), Some(&1003));
    }
}
