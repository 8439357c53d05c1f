//! The pre-calendar event queue, kept as the differential oracle the
//! queue-level (`equeue_diff.rs`) and engine-level
//! (`engine_equivalence.rs`) suites run [`CalendarQueue`] against.
//!
//! [`CalendarQueue`]: fbf_disksim::CalendarQueue

use fbf_disksim::{Event, EventQueue};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `BinaryHeap`-backed queue with the original min-heap ordering.
#[derive(Default)]
pub struct HeapQueue {
    heap: BinaryHeap<Reverse<Event>>,
}

impl EventQueue for HeapQueue {
    fn clear(&mut self) {
        self.heap.clear();
    }

    fn push(&mut self, ev: Event) {
        self.heap.push(Reverse(ev));
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}
