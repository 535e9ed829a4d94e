//! [`ArcCell`]: a hand-rolled, std-only, lock-free swappable `Arc` slot —
//! the primitive under the serving tier's read path.
//!
//! # Why not `Mutex<Arc<T>>`
//!
//! The tier's reads used to clone the current `Arc` out of a mutexed
//! cell. The clone itself is a pointer copy, but the mutex acquisition is
//! a serialization point: every reader of a shard funnels through one
//! cache line with a compare-and-swap *and a potential futex sleep* —
//! exactly the kind of hidden convoy an open-loop latency distribution
//! exposes at the tail. `ArcCell` replaces it with a wait-free-in-practice
//! read: two atomic loads, one counter increment/decrement, no syscall,
//! no parking, and — crucially — **no reader ever blocks on a publisher,
//! and no publisher ever blocks a reader**.
//!
//! # The algorithm
//!
//! The classic hazard with `AtomicPtr<ArcInner>` is the load/refcount
//! race: a reader that loads the pointer can be preempted before it
//! increments the strong count, while a writer swaps the pointer and
//! drops what turns out to be the last reference — a use-after-free.
//! Production crates solve this with hazard pointers or split refcounts;
//! this cell solves it with something simpler that fits the tier's shape
//! (many readers, rare single writer serialized by the publish gate): a
//! **two-slot seqlock-validated guard counter**.
//!
//! Each slot holds one owned `Arc` reference (as a raw pointer) plus a
//! guard counter of in-flight readers. `current` names the live slot.
//!
//! * **Read** (`load`): read `current = i`; increment `slots[i].guards`;
//!   *re-read* `current` (the seqlock-style validation). If it still says
//!   `i`, the slot is pinned: a writer cannot touch `slots[i].ptr` until
//!   the guard drops (writers only overwrite the slot that is *not*
//!   current, after waiting for its guards to drain — and a validated
//!   guard proves this slot was current strictly after the increment).
//!   Clone the `Arc`, decrement, done. If validation fails (a store
//!   flipped `current` in the window), decrement and retry — the guard
//!   was transient and the pointer was never dereferenced.
//! * **Write** (`store`): take the spare slot `j = 1 - current`; wait for
//!   `slots[j].guards == 0` (only stragglers from *before the previous
//!   flip* can hold validated guards there, and they are mid-clone, so
//!   the wait is bounded and short — this is the only waiting in the
//!   cell, and it is writer-waits-for-reader, never the reverse); swap in
//!   the new pointer, drop the old reference, then flip `current` to `j`.
//!
//! A reader that increments the spare slot's guard *while the writer is
//! overwriting it* is harmless by construction: its validation re-read of
//! `current` cannot succeed until the writer's final flip, and the flip
//! happens-after the new pointer is in place, so a validated reader
//! always dereferences the new value. The one-writer-at-a-time discipline
//! is enforced internally with a spin claim (`writer`), though in the
//! serving tier publishes are already serialized by the publish gate.
//!
//! Every atomic here is `SeqCst`. The reader's
//! increment-then-validate against the writer's publish-then-check is a
//! store-buffering (Dekker) pattern: with anything weaker, the reader's
//! guard increment could become visible *after* the writer's guard check
//! even though the reader's validation load saw the pre-flip `current`,
//! and both sides would proceed — reader dereferencing, writer freeing.
//! On x86 these are `lock`-prefixed RMWs the read path needs anyway; the
//! cost is noise next to the mutex + futex pair this replaces.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

/// One slot: an owned `Arc<T>` reference held as a raw pointer, plus the
/// count of readers currently cloning out of it.
struct Slot<T> {
    /// `Arc::into_raw` of the slot's value; never null once initialized.
    ptr: AtomicPtr<T>,
    /// In-flight readers pinning this slot (validated or about to
    /// validate). A writer may only replace `ptr` while this is 0 *and*
    /// the slot is not `current`.
    guards: AtomicUsize,
}

impl<T> Slot<T> {
    fn new(value: Arc<T>) -> Self {
        Self {
            ptr: AtomicPtr::new(Arc::into_raw(value).cast_mut()),
            guards: AtomicUsize::new(0),
        }
    }
}

/// A lock-free cell holding an `Arc<T>`, readable by any number of
/// threads while a writer swaps in replacements. See the module docs for
/// the algorithm and its safety argument.
pub struct ArcCell<T> {
    slots: [Slot<T>; 2],
    /// Index (0 or 1) of the live slot.
    current: AtomicUsize,
    /// Writer mutual exclusion (spin claim): `store` is safe to call
    /// concurrently, but writers serialize here.
    writer: AtomicBool,
}

// SAFETY: the cell hands out `Arc<T>` clones and owns its two references
// through raw pointers; moving the cell between threads or sharing it is
// exactly as safe as sharing `Arc<T>` itself.
unsafe impl<T: Send + Sync> Send for ArcCell<T> {}
unsafe impl<T: Send + Sync> Sync for ArcCell<T> {}

impl<T> ArcCell<T> {
    /// A cell initially holding `value`. The spare slot starts with its
    /// own reference to the same value so both slots are always valid.
    #[must_use]
    pub fn new(value: Arc<T>) -> Self {
        Self {
            slots: [Slot::new(Arc::clone(&value)), Slot::new(value)],
            current: AtomicUsize::new(0),
            writer: AtomicBool::new(false),
        }
    }

    /// Clones the current value out of the cell. Lock-free: two loads, an
    /// increment and a decrement on the happy path; retries only while a
    /// store's flip lands in the validation window, which resolves in one
    /// step (the freshly flipped slot validates immediately).
    #[must_use]
    pub fn load(&self) -> Arc<T> {
        loop {
            let idx = self.current.load(Ordering::SeqCst);
            self.slots[idx].guards.fetch_add(1, Ordering::SeqCst);
            if self.current.load(Ordering::SeqCst) == idx {
                // Validated: `idx` was current strictly after our guard
                // landed, so a writer retiring this slot must first
                // observe `guards > 0` and wait for us.
                let ptr = self.slots[idx].ptr.load(Ordering::SeqCst);
                // SAFETY: the validated guard pins `ptr`: the writer
                // replaces a slot's pointer (and drops its reference)
                // only after the slot stopped being `current` AND its
                // guards drained to zero — we hold one. The cell owns a
                // strong reference for as long as the pointer sits in the
                // slot, so materializing a borrowed Arc and cloning it is
                // sound; `increment_strong_count` is exactly that.
                unsafe { Arc::increment_strong_count(ptr) };
                let arc = unsafe { Arc::from_raw(ptr) };
                self.slots[idx].guards.fetch_sub(1, Ordering::SeqCst);
                return arc;
            }
            // A store flipped `current` inside our window: the guard is
            // transient (never dereferenced); undo and retry.
            self.slots[idx].guards.fetch_sub(1, Ordering::SeqCst);
            std::hint::spin_loop();
        }
    }

    /// Publishes `value`, dropping the cell's reference to the value two
    /// stores ago. Readers are never blocked: they keep loading the old
    /// value until the final flip, after which they load the new one. The
    /// writer spins only on stragglers mid-clone in the spare slot.
    pub fn store(&self, value: Arc<T>) {
        // Writers serialize (the serving tier already serializes them on
        // the publish gate; this makes the cell safe on its own).
        while self.writer.swap(true, Ordering::SeqCst) {
            // Writer-side only: yielding keeps a preempted peer writer
            // from costing a whole timeslice on single-core hosts.
            std::thread::yield_now();
        }
        let cur = self.current.load(Ordering::SeqCst);
        let spare = 1 - cur;
        // Drain the spare slot: only readers that validated before the
        // *previous* flip can hold guards here, and each is mid-clone.
        // Transient guards (readers about to fail validation) may blip
        // the counter; they never dereference, so waiting them out is a
        // liveness nicety, not a safety need.
        while self.slots[spare].guards.load(Ordering::SeqCst) != 0 {
            // A straggler here is mid-clone; on a single core it needs
            // the CPU we are spinning on, so yield rather than spin.
            std::thread::yield_now();
        }
        let fresh = Arc::into_raw(value).cast_mut();
        let retired = self.slots[spare].ptr.swap(fresh, Ordering::SeqCst);
        // SAFETY: `retired` is the reference the cell owned in the spare
        // slot; it stopped being reachable by validated readers when the
        // guards drained above, so dropping the cell's reference is sound.
        unsafe { drop(Arc::from_raw(retired)) };
        // The flip: from here readers validate against the new slot and
        // see `fresh`. SeqCst orders it after the pointer swap, so a
        // reader whose validation sees the new `current` cannot load the
        // retired pointer.
        self.current.store(spare, Ordering::SeqCst);
        self.writer.store(false, Ordering::SeqCst);
    }
}

impl<T> Drop for ArcCell<T> {
    fn drop(&mut self) {
        for slot in &self.slots {
            let ptr = slot.ptr.load(Ordering::SeqCst);
            // SAFETY: `&mut self` means no reader holds a guard; each
            // slot owns exactly one strong reference, reclaimed here.
            unsafe { drop(Arc::from_raw(ptr)) };
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ArcCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArcCell")
            .field("value", &self.load())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_returns_the_stored_value() {
        let cell = ArcCell::new(Arc::new(41));
        assert_eq!(*cell.load(), 41);
        cell.store(Arc::new(42));
        assert_eq!(*cell.load(), 42);
        cell.store(Arc::new(43));
        assert_eq!(*cell.load(), 43);
    }

    /// Each store brackets one version of the value: loads before it see
    /// the old one, loads after it the new one, and an `Arc` loaded
    /// earlier keeps its version alive across later stores.
    #[test]
    fn version_brackets_stores() {
        let cell = ArcCell::new(Arc::new(0u64));
        let first = cell.load();
        cell.store(Arc::new(1));
        let second = cell.load();
        cell.store(Arc::new(2));
        assert_eq!((*first, *second, *cell.load()), (0, 1, 2));
    }

    #[test]
    fn drops_every_reference_exactly_once() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let cell = ArcCell::new(Arc::new(Counted(Arc::clone(&drops))));
            for _ in 0..5 {
                cell.store(Arc::new(Counted(Arc::clone(&drops))));
            }
            let held = cell.load();
            cell.store(Arc::new(Counted(Arc::clone(&drops))));
            drop(held);
        }
        // 1 initial + 5 + 1 stored values, all dead with the cell gone.
        assert_eq!(drops.load(Ordering::SeqCst), 7);
    }

    /// Readers hammer `load` while a writer swaps monotonically increasing
    /// values: every loaded value must be one that was stored (liveness +
    /// no tearing), values must never run backwards *within one reader*
    /// more than a swap window allows (monotonicity of `current`), and
    /// the final load must see the last store.
    #[test]
    fn concurrent_loads_survive_stores() {
        const STORES: u64 = 2_000;
        let cell = Arc::new(ArcCell::new(Arc::new(0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut seen = 0u64;
                    // Check `stop` *after* loading: on a single-core host
                    // the writer can finish every store before this thread
                    // is first scheduled, and a load must still succeed
                    // then (readers never block, even with no writer left).
                    loop {
                        let v = *cell.load();
                        assert!(v <= STORES, "load returned a never-stored value");
                        assert!(v >= last, "reader observed time running backwards");
                        last = v;
                        seen += 1;
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    seen
                })
            })
            .collect();
        for v in 1..=STORES {
            cell.store(Arc::new(v));
        }
        stop.store(true, Ordering::SeqCst);
        for r in readers {
            assert!(r.join().expect("reader panicked") > 0);
        }
        assert_eq!(*cell.load(), STORES);
    }

    /// Concurrent writers serialize on the internal claim; no reference
    /// is leaked or double-dropped under write contention.
    #[test]
    fn concurrent_stores_serialize() {
        let cell = Arc::new(ArcCell::new(Arc::new(0usize)));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        cell.store(Arc::new(w * 1000 + i));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer panicked");
        }
        // The last store to land is some writer's final value.
        let v = *cell.load();
        assert!((0..4).any(|w| v == w * 1000 + 499), "final value {v}");
    }
}
