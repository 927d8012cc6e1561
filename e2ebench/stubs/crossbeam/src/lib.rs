//! Offline stand-in for `crossbeam`: only `queue::ArrayQueue`, written to
//! the same design as the real one (Dmitry Vyukov's bounded MPMC queue: one
//! sequence stamp per slot, producers and consumers claim positions by CAS
//! and never block each other), so the intake ring this benchmark times has
//! the cost profile of the ring a registry build would have.

pub mod queue {
    //! Bounded lock-free queues.

    use std::cell::UnsafeCell;
    use std::fmt;
    use std::mem::MaybeUninit;
    use std::sync::atomic::{self, AtomicUsize, Ordering};

    /// Keeps the two position counters on separate cache lines (and off
    /// the adjacent-line prefetcher's pair) so producers and consumers do
    /// not false-share.
    #[repr(align(128))]
    struct CachePadded<T>(T);

    struct Slot<T> {
        /// `2 * pos` when free for the push claiming position `pos`;
        /// `2 * pos + 1` once that push has written the value;
        /// `2 * (pos + capacity)` once the matching pop has taken it out.
        /// Doubling keeps "written" and "free for the next lap" apart even
        /// at capacity 1.
        stamp: AtomicUsize,
        value: UnsafeCell<MaybeUninit<T>>,
    }

    /// A bounded multi-producer multi-consumer queue.
    pub struct ArrayQueue<T> {
        head: CachePadded<AtomicUsize>,
        tail: CachePadded<AtomicUsize>,
        slots: Box<[Slot<T>]>,
    }

    // SAFETY: a value moves into the queue on one thread and out on another,
    // which needs `T: Send`. Shared access never hands out `&T`: a slot's
    // `value` is written only by the push that won the CAS on `tail` for its
    // position and read only by the pop that won the CAS on `head` for the
    // same position, ordered by the Release store / Acquire load of `stamp`;
    // `head`, `tail` and `stamp` are atomics and `slots` is never resized.
    unsafe impl<T: Send> Send for ArrayQueue<T> {}
    // SAFETY: as above.
    unsafe impl<T: Send> Sync for ArrayQueue<T> {}

    impl<T> ArrayQueue<T> {
        /// Creates a queue holding at most `cap` values.
        ///
        /// # Panics
        ///
        /// Panics if `cap` is zero.
        pub fn new(cap: usize) -> ArrayQueue<T> {
            assert!(cap > 0, "capacity must be non-zero");
            ArrayQueue {
                head: CachePadded(AtomicUsize::new(0)),
                tail: CachePadded(AtomicUsize::new(0)),
                slots: (0..cap)
                    .map(|i| Slot {
                        stamp: AtomicUsize::new(2 * i),
                        value: UnsafeCell::new(MaybeUninit::uninit()),
                    })
                    .collect(),
            }
        }

        /// Appends `value`, or hands it back if the queue is full.
        pub fn push(&self, value: T) -> Result<(), T> {
            let cap = self.slots.len();
            let mut tail = self.tail.0.load(Ordering::Relaxed);
            loop {
                let slot = &self.slots[tail % cap];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if stamp == tail.wrapping_mul(2) {
                    match self.tail.0.compare_exchange_weak(
                        tail,
                        tail.wrapping_add(1),
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: the CAS made this thread the only
                            // writer for position `tail`, and the stamp
                            // (Acquire) shows the pop one lap back has
                            // finished reading the slot.
                            unsafe { slot.value.get().write(MaybeUninit::new(value)) };
                            slot.stamp
                                .store(tail.wrapping_mul(2).wrapping_add(1), Ordering::Release);
                            return Ok(());
                        }
                        Err(current) => tail = current,
                    }
                } else if stamp.wrapping_add(2 * cap) == tail.wrapping_mul(2).wrapping_add(1) {
                    // The slot still holds the value from one lap back: full,
                    // unless a pop has claimed it and is about to release it.
                    atomic::fence(Ordering::SeqCst);
                    if self.head.0.load(Ordering::Relaxed).wrapping_add(cap) == tail {
                        return Err(value);
                    }
                    std::hint::spin_loop();
                    tail = self.tail.0.load(Ordering::Relaxed);
                } else {
                    // Another push claimed this position first.
                    std::hint::spin_loop();
                    tail = self.tail.0.load(Ordering::Relaxed);
                }
            }
        }

        /// Takes the oldest value, or `None` if the queue is empty.
        pub fn pop(&self) -> Option<T> {
            let cap = self.slots.len();
            let mut head = self.head.0.load(Ordering::Relaxed);
            loop {
                let slot = &self.slots[head % cap];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if stamp == head.wrapping_mul(2).wrapping_add(1) {
                    match self.head.0.compare_exchange_weak(
                        head,
                        head.wrapping_add(1),
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: the CAS made this thread the only
                            // reader for position `head`, and the stamp
                            // (Acquire) shows the push for this position
                            // has finished writing.
                            let value = unsafe { slot.value.get().read().assume_init() };
                            slot.stamp
                                .store(head.wrapping_add(cap).wrapping_mul(2), Ordering::Release);
                            return Some(value);
                        }
                        Err(current) => head = current,
                    }
                } else if stamp == head.wrapping_mul(2) {
                    // Not written this lap: empty, unless a push has claimed
                    // the position and is about to publish.
                    atomic::fence(Ordering::SeqCst);
                    if self.tail.0.load(Ordering::Relaxed) == head {
                        return None;
                    }
                    std::hint::spin_loop();
                    head = self.head.0.load(Ordering::Relaxed);
                } else {
                    // Another pop claimed this position first.
                    std::hint::spin_loop();
                    head = self.head.0.load(Ordering::Relaxed);
                }
            }
        }

        /// The fixed capacity.
        pub fn capacity(&self) -> usize {
            self.slots.len()
        }

        /// Values currently queued (a snapshot; racing pushes and pops may
        /// have moved it on by the time it returns).
        pub fn len(&self) -> usize {
            loop {
                let tail = self.tail.0.load(Ordering::SeqCst);
                let head = self.head.0.load(Ordering::SeqCst);
                // `head` was read while `tail` stood still, so it cannot
                // have passed it.
                if self.tail.0.load(Ordering::SeqCst) == tail {
                    return tail.wrapping_sub(head).min(self.slots.len());
                }
            }
        }

        /// Whether nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Drop for ArrayQueue<T> {
        fn drop(&mut self) {
            while self.pop().is_some() {}
        }
    }

    impl<T> fmt::Debug for ArrayQueue<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("ArrayQueue")
                .field("len", &self.len())
                .field("capacity", &self.capacity())
                .finish()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::ArrayQueue;

        #[test]
        fn fifo_full_and_empty() {
            let one = ArrayQueue::new(1);
            for lap in 0..3 {
                one.push(lap).unwrap();
                assert_eq!(one.push(9), Err(9));
                assert_eq!((one.pop(), one.pop()), (Some(lap), None));
            }
            let q = ArrayQueue::new(3);
            assert!(q.is_empty());
            for i in 0..3 {
                q.push(i).unwrap();
            }
            assert_eq!(q.len(), 3);
            assert_eq!(q.push(9), Err(9));
            assert_eq!(q.pop(), Some(0));
            q.push(3).unwrap();
            assert_eq!(
                (q.pop(), q.pop(), q.pop(), q.pop()),
                (Some(1), Some(2), Some(3), None)
            );
        }

        #[test]
        fn every_value_crosses_threads_exactly_once() {
            const PER_PRODUCER: u64 = 50_000;
            let q = ArrayQueue::new(64);
            let sum = std::thread::scope(|s| {
                for p in 0..2u64 {
                    let q = &q;
                    s.spawn(move || {
                        for i in 0..PER_PRODUCER {
                            let mut v = p * PER_PRODUCER + i;
                            while let Err(back) = q.push(v) {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    });
                }
                let consumer = s.spawn(|| {
                    let (mut seen, mut sum) = (0, 0u64);
                    while seen < 2 * PER_PRODUCER {
                        match q.pop() {
                            Some(v) => {
                                seen += 1;
                                sum += v;
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                    sum
                });
                consumer.join().expect("consumer panicked")
            });
            let n = 2 * PER_PRODUCER;
            assert_eq!(sum, n * (n - 1) / 2);
            assert!(q.is_empty());
        }

        #[test]
        fn drop_releases_queued_values() {
            let marker = std::sync::Arc::new(());
            let q = ArrayQueue::new(4);
            q.push(marker.clone()).unwrap();
            q.push(marker.clone()).unwrap();
            drop(q);
            assert_eq!(std::sync::Arc::strong_count(&marker), 1);
        }
    }
}
